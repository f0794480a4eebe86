//! Service smoke harness: boots the three real binaries, replays the
//! tiny-preset cell over loopback in healthy and degraded-peak mode,
//! and compares the measured accounting against the simulator oracle.
//!
//! The contract it enforces (see `docs/architecture.md`, "Live
//! service"):
//!
//! * every cache counter — hits, misses, hit/miss bytes, writes,
//!   evictions, stall/purge/writeback bytes — **exactly** equals the
//!   counter-noise [`HierarchySimulator`]'s, so the measured miss ratio
//!   is the oracle's to the last reference;
//! * `fetch_retries` exactly equals the oracle's and stays within the
//!   fault plan's retry budget;
//! * measured p99 read wait **exactly** equals the oracle's prediction
//!   in both the healthy and the degraded-peak run;
//! * zero acked writes lose their writeback: every flushed byte the
//!   daemon accounted is confirmed landed by the origin.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_sim::config::SimConfig;
use fmig_sim::HierarchySimulator;

use crate::loadgen::{tiny_cell, CellSetup};

/// One scenario's oracle-vs-live comparison, for reporting.
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// Scenario name ("none", "degraded-peak").
    pub scenario: String,
    /// Oracle p99 read wait, seconds.
    pub oracle_p99_s: f64,
    /// Measured p99 read wait, seconds.
    pub live_p99_s: f64,
    /// Oracle read miss ratio.
    pub miss_ratio: f64,
    /// Live replay throughput, references per wall second.
    pub refs_per_sec: f64,
}

/// Runs the full service smoke.
pub fn run_service_smoke() -> Result<Vec<SmokeOutcome>, String> {
    let bin_dir = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .ok_or("current_exe has no parent")?
        .to_path_buf();
    let mut outcomes = Vec::new();
    for scenario in [FaultScenarioId::None, FaultScenarioId::DegradedPeak] {
        eprintln!("service-smoke [{}]: preparing cell...", scenario.name());
        let setup = tiny_cell(scenario);
        let outcome = run_scenario(&bin_dir, scenario, &setup)?;
        eprintln!(
            "service-smoke [{}]: OK — miss ratio {:.4} (exact), p99 {:.0}s vs oracle {:.0}s, {:.0} refs/s",
            outcome.scenario,
            outcome.miss_ratio,
            outcome.live_p99_s,
            outcome.oracle_p99_s,
            outcome.refs_per_sec
        );
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn run_scenario(
    bin_dir: &std::path::Path,
    scenario: FaultScenarioId,
    setup: &CellSetup,
) -> Result<SmokeOutcome, String> {
    // The oracle: the counter-noise hierarchy engine over the identical
    // cell (same refs, capacity, policy, seed, fault plan).
    let policy = SweepConfig::tiny().policies[0].build();
    let oracle = HierarchySimulator::new(
        SimConfig::default()
            .with_seed(setup.seed)
            .with_counter_noise(true),
    )
    .run_with_faults(
        CacheConfig::with_capacity(setup.capacity),
        policy.as_ref(),
        &setup.refs,
        &scenario.plan(),
    );

    let mut origin = spawn(bin_dir, "fmig-origin", &[])?;
    let origin_addr = match read_listening(&mut origin) {
        Ok(a) => a,
        Err(e) => {
            let _ = origin.kill();
            return Err(e);
        }
    };
    let daemon_args = [
        "--origin".to_string(),
        origin_addr,
        "--capacity".to_string(),
        setup.capacity.to_string(),
        "--policy".to_string(),
        SweepConfig::tiny().policies[0].name().to_string(),
        "--seed".to_string(),
        setup.seed.to_string(),
        "--scenario".to_string(),
        scenario.name().to_string(),
        "--span-start".to_string(),
        setup.span_start_vms.to_string(),
        "--span-end".to_string(),
        setup.span_end_vms.to_string(),
    ];
    let mut daemon = match spawn(bin_dir, "fmig-served", &daemon_args) {
        Ok(d) => d,
        Err(e) => {
            let _ = origin.kill();
            return Err(e);
        }
    };
    let daemon_addr = match read_listening(&mut daemon) {
        Ok(a) => a,
        Err(e) => {
            let _ = daemon.kill();
            let _ = origin.kill();
            return Err(e);
        }
    };

    let loadgen = Command::new(bin_dir.join("fmig-loadgen"))
        .args([
            "--addr",
            &daemon_addr,
            "--scenario",
            scenario.name(),
            "--connections",
            "2",
            "--drain",
            "--stats",
            "--shutdown",
        ])
        .output()
        .map_err(|e| format!("running fmig-loadgen: {e}"));
    let loadgen = match loadgen {
        Ok(o) => o,
        Err(e) => {
            let _ = daemon.kill();
            let _ = origin.kill();
            return Err(e);
        }
    };
    // Shutdown propagates daemon → origin; both exit on their own.
    let daemon_status = daemon.wait().map_err(|e| format!("daemon wait: {e}"))?;
    let origin_status = origin.wait().map_err(|e| format!("origin wait: {e}"))?;
    if !loadgen.status.success() {
        return Err(format!(
            "fmig-loadgen failed: {}\n{}",
            loadgen.status,
            String::from_utf8_lossy(&loadgen.stderr)
        ));
    }
    if !daemon_status.success() || !origin_status.success() {
        return Err(format!(
            "service exited unhealthy: daemon {daemon_status}, origin {origin_status}"
        ));
    }

    let json = String::from_utf8_lossy(&loadgen.stdout);
    let stderr = String::from_utf8_lossy(&loadgen.stderr);
    let refs_per_sec = stderr
        .lines()
        .find_map(|l| l.strip_prefix("REFS_PER_SEC "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("loadgen reported no REFS_PER_SEC")?;

    let u = |k: &str| json_u64(&json, k);
    let f = |k: &str| json_f64(&json, k);

    // Cache counters: exact equality, field by field. Miss ratio
    // equality follows from hit/miss equality.
    let c = oracle.cache;
    let pairs = [
        ("svc_read_hits", c.read_hits),
        ("svc_read_misses", c.read_misses),
        ("svc_read_hit_bytes", c.read_hit_bytes),
        ("svc_read_miss_bytes", c.read_miss_bytes),
        ("svc_writes", c.writes),
        ("svc_evictions", c.evictions),
        ("svc_evicted_bytes", c.evicted_bytes),
        ("svc_stall_bytes", c.stall_bytes),
        ("svc_purge_flush_bytes", c.purge_flush_bytes),
        ("svc_writeback_bytes", c.writeback_bytes),
        ("svc_fetch_retries", oracle.cache_fetch_retries),
        ("svc_recalls", oracle.recalls),
        ("svc_delayed_hits", oracle.delayed_hits),
        ("svc_flush_jobs", oracle.flush_jobs),
        ("svc_flush_bytes", oracle.flush_bytes),
    ];
    for (key, want) in pairs {
        let got = u(key)?;
        if got != want {
            return Err(format!(
                "[{}] {key}: live {got} != oracle {want}",
                scenario.name()
            ));
        }
    }

    // p99 read wait: the oracle's bucket exactly (a whole-second
    // histogram index, printed in full by the loadgen's accounting).
    let oracle_p99 = oracle.read_wait().quantile(0.99);
    let live_p99 = f("read_wait_p99_s")?;
    if live_p99 != oracle_p99 {
        return Err(format!(
            "[{}] p99 read wait: live {live_p99:.1}s != oracle {oracle_p99:.1}s",
            scenario.name()
        ));
    }

    // Durability: every flushed byte the daemon accounted is confirmed
    // landed on tape — no acked write lost its writeback.
    let flush_bytes = u("drain_flush_bytes")?;
    let landed = u("drain_origin_flushed_bytes")?;
    if flush_bytes != landed {
        return Err(format!(
            "[{}] writeback loss: {flush_bytes} bytes flushed, {landed} landed",
            scenario.name()
        ));
    }
    let acked = u("drain_acked_writes")?;
    if acked != c.writes {
        return Err(format!(
            "[{}] acked writes {acked} != oracle writes {}",
            scenario.name(),
            c.writes
        ));
    }

    // Retry budget: the schedule never retries a read past the plan's
    // bound, so retries are capped by budget × recalls.
    let plan = scenario.plan();
    let retries = u("svc_fetch_retries")?;
    let budget = plan.max_read_retries as u64 * oracle.recalls;
    if retries > budget {
        return Err(format!(
            "[{}] fetch retries {retries} exceed budget {budget}",
            scenario.name()
        ));
    }
    if u("svc_abandoned")? != 0 {
        return Err(format!(
            "[{}] compat replay abandoned recalls",
            scenario.name()
        ));
    }

    let miss_ratio = if c.read_hits + c.read_misses > 0 {
        c.read_misses as f64 / (c.read_hits + c.read_misses) as f64
    } else {
        0.0
    };
    Ok(SmokeOutcome {
        scenario: scenario.name().to_string(),
        oracle_p99_s: oracle_p99,
        live_p99_s: live_p99,
        miss_ratio,
        refs_per_sec,
    })
}

fn spawn(dir: &std::path::Path, bin: &str, args: &[String]) -> Result<Child, String> {
    Command::new(dir.join(bin))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {bin}: {e}"))
}

/// Reads the child's `LISTENING <addr>` banner.
fn read_listening(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("child stdout not piped")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading banner: {e}"))?;
    line.strip_prefix("LISTENING ")
        .map(|a| a.trim().to_string())
        .ok_or_else(|| format!("expected LISTENING banner, got {line:?}"))
}

fn json_u64(json: &str, key: &str) -> Result<u64, String> {
    json_raw(json, key)?
        .parse()
        .map_err(|e| format!("{key}: {e}"))
}

fn json_f64(json: &str, key: &str) -> Result<f64, String> {
    json_raw(json, key)?
        .parse()
        .map_err(|e| format!("{key}: {e}"))
}

/// Pulls one scalar out of the loadgen's flat JSON accounting.
fn json_raw(json: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).ok_or_else(|| format!("{key} missing"))?;
    let rest = &json[at + pat.len()..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("{key} unterminated"))?;
    Ok(rest[..end].trim().to_string())
}
