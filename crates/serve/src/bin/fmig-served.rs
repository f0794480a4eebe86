//! `fmig-served` — the HSM cache daemon. Binds a loopback port, prints
//! `LISTENING <addr>`, connects to the origin, and serves clients until
//! one sends `Shutdown` (see `fmig_serve::daemon`).
//!
//! Defaults are simulator-compat (oracle-exact); `--deadline`,
//! `--retry-budget`, `--breaker`, and `--queue-bound` switch on the
//! live robustness core.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_serve::backoff::RetryPolicy;
use fmig_serve::daemon::{serve, DaemonConfig};

const USAGE: &str = "usage: fmig-served --origin HOST:PORT --capacity BYTES \
                     [--addr HOST:PORT] [--policy NAME] [--seed N] [--scenario NAME] \
                     [--span-start VMS] [--span-end VMS] \
                     [--deadline VMS] [--retry-budget N] [--breaker THRESH:COOLDOWN_VMS] \
                     [--queue-bound N]";

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut origin: Option<String> = None;
    let mut capacity: Option<u64> = None;
    let mut policy = PolicyId::ALL[0];
    let mut seed = 0u64;
    let mut scenario = FaultScenarioId::None;
    let mut span_start = 0i64;
    let mut span_end = 0i64;
    let mut deadline: Option<i64> = None;
    let mut retry_budget: Option<u32> = None;
    let mut breaker: Option<(u32, i64)> = None;
    let mut queue_bound: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => addr = val("--addr")?,
            "--origin" => origin = Some(val("--origin")?),
            "--capacity" => {
                capacity = Some(
                    val("--capacity")?
                        .parse()
                        .map_err(|e| format!("bad --capacity: {e}"))?,
                )
            }
            "--policy" => {
                let v = val("--policy")?;
                policy = PolicyId::parse(&v).ok_or(format!("unknown policy `{v}`"))?;
            }
            "--seed" => {
                seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--scenario" => {
                let v = val("--scenario")?;
                scenario = FaultScenarioId::parse(&v).ok_or(format!("unknown scenario `{v}`"))?;
            }
            "--span-start" => {
                span_start = val("--span-start")?
                    .parse()
                    .map_err(|e| format!("bad --span-start: {e}"))?
            }
            "--span-end" => {
                span_end = val("--span-end")?
                    .parse()
                    .map_err(|e| format!("bad --span-end: {e}"))?
            }
            "--deadline" => {
                deadline = Some(
                    val("--deadline")?
                        .parse()
                        .map_err(|e| format!("bad --deadline: {e}"))?,
                )
            }
            "--retry-budget" => {
                retry_budget = Some(
                    val("--retry-budget")?
                        .parse()
                        .map_err(|e| format!("bad --retry-budget: {e}"))?,
                )
            }
            "--breaker" => {
                let v = val("--breaker")?;
                let (t, c) = v
                    .split_once(':')
                    .ok_or("--breaker wants THRESH:COOLDOWN_VMS")?;
                breaker = Some((
                    t.parse()
                        .map_err(|e| format!("bad breaker threshold: {e}"))?,
                    c.parse()
                        .map_err(|e| format!("bad breaker cooldown: {e}"))?,
                ));
            }
            "--queue-bound" => {
                queue_bound = Some(
                    val("--queue-bound")?
                        .parse()
                        .map_err(|e| format!("bad --queue-bound: {e}"))?,
                )
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let origin = origin.ok_or(format!("--origin is required\n{USAGE}"))?;
    let capacity = capacity.ok_or(format!("--capacity is required\n{USAGE}"))?;

    let mut cfg = DaemonConfig::compat(
        origin, capacity, policy, scenario, seed, span_start, span_end,
    );
    cfg.deadline_ms = deadline;
    if let Some(budget) = retry_budget {
        cfg.retry = RetryPolicy {
            max_attempts: budget,
            ..RetryPolicy::live(seed)
        };
    }
    if let Some((threshold, cooldown)) = breaker {
        cfg.breaker_threshold = threshold;
        cfg.breaker_cooldown_ms = cooldown;
    }
    if let Some(bound) = queue_bound {
        cfg.queue_bound = bound;
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("LISTENING {local}");
    std::io::stdout().flush().ok();
    let stats = serve(listener, cfg)?;
    eprintln!(
        "fmig-served: done — {} requests, {} recalls, {} delayed hits, {} retries, {} abandoned",
        stats.requests, stats.recalls, stats.delayed_hits, stats.fetch_retries, stats.abandoned
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmig-served: {e}");
            ExitCode::FAILURE
        }
    }
}
