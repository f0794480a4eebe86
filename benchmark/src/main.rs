//! `fmig-benchmark`: the repo's benchmark, measured from outside
//! through the crates' public functions. See `README.md` beside this
//! package for the workloads, the metric glossary and how to read the
//! output.
//!
//! ```text
//! fmig-benchmark all       [--seed N] [--seconds S]   end-to-end pass, every workload
//! fmig-benchmark trace     [--seed N] [--seconds S]   traced (per-layer) pass
//! fmig-benchmark selfcheck [--seed N] [--seconds S]   end-to-end pass twice, compared
//! fmig-benchmark pin       [--seed N]...              (re)write the golden pins
//! fmig-benchmark --workload W --seed N --seconds S --trace 0|1    one run, one JSON line
//! ```

mod catalog;
mod e2e;
mod host;
mod json;
mod ledger;
mod msrgen;
mod proxy;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use catalog::{Better, DEFAULT_SEED, E2E, HELD_OUT_SEED, LAYERS, WORKLOADS};
use json::Value;

/// Timed seconds per workload when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: fmig-benchmark all|trace|selfcheck [--seed N] [--seconds S]\n\
         \x20      fmig-benchmark pin [--seed N]...\n\
         \x20      fmig-benchmark --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seeds: Vec::new(),
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !catalog::workload_known(&w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seeds
                    .push(v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|e| format!("bad --seconds `{v}`: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "all" | "trace" | "selfcheck" | "pin" if args.command.is_none() => {
                args.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (&args.command, &args.workload) {
        (None, None) => Err("nothing to do".to_string()),
        (Some(c), Some(_)) => Err(format!("`{c}` runs every workload; drop --workload")),
        _ => Ok(args),
    }
}

/// `out/<kind>-<workload>.json`: the full result of the latest run of
/// that kind, which `results.json` is assembled from.
fn run_file(kind: &str, workload: &str) -> Result<PathBuf, String> {
    Ok(host::out_dir()?.join(format!("{kind}-{workload}.json")))
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One run of one workload: what the driver invokes. Prints every
/// metric by name with its unit, then — last line — the contract's JSON
/// object.
///
/// Once that line is out the run has a result and exits 0 — whether
/// the outputs were correct is in the line (`correct`, `failed`), not
/// in the exit code.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if trace {
        let r = ledger::run(workload, seed, seconds)?;
        let spans = host::out_dir()?.join(format!("trace-{workload}.jsonl"));
        r.tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        write_file(&run_file("layers", workload)?, &layers_json(&r))?;
        println!(
            "== {workload} (seed {seed}), traced: {} staged pass(es), {} spans -> {} ==",
            r.passes,
            r.tracer.spans().len(),
            spans.display()
        );
        for (layer, value) in LAYERS.iter().zip(&r.values) {
            match value {
                Some(v) => println!("{:<44} {:>16.6} {}", layer.name, v, layer.unit),
                None => println!("{:<44} {:>16} {}", layer.name, "-", layer.unit),
            }
        }
        // A layer off this workload's path did no work here: 0.
        let metrics = LAYERS
            .iter()
            .zip(&r.values)
            .map(|(layer, value)| (layer.name, value.unwrap_or(0.0), layer.unit));
        println!(
            "{}",
            result_line(r.failed == 0, r.attempted, r.failed, metrics)
        );
    } else {
        let r = e2e::run(workload, seed, seconds)?;
        write_file(&run_file("e2e", workload)?, &r.to_json())?;
        r.print();
        // Exactly the metrics BENCHMARK.json lists: the ones every
        // workload has and that are never zero.
        let metrics = E2E
            .iter()
            .filter(|m| m.on.is_empty() && m.name != "failed_share")
            .map(|m| (m.name, r.metric(m.name).expect("universal metric"), m.unit));
        println!(
            "{}",
            result_line(r.correct(), r.attempted, r.failed, metrics)
        );
    }
    Ok(())
}

/// The contract's result object, on one line.
fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        json::push_str(&mut line, name);
        line.push_str(": {\"value\": ");
        json::push_f64(&mut line, value);
        line.push_str(", \"unit\": ");
        json::push_str(&mut line, unit);
        line.push('}');
    }
    line.push_str("}}");
    line
}

fn layers_json(r: &ledger::LedgerResult) -> String {
    let mut out = String::from("{\"workload\":");
    json::push_str(&mut out, &r.workload);
    out.push_str(&format!(
        ",\"seed\":{},\"passes\":{},\"attempted\":{},\"failed\":{}",
        r.seed, r.passes, r.attempted, r.failed
    ));
    if let Some(pinned) = r.cpu_pinned {
        out.push_str(&format!(",\"pinned\":{pinned}"));
    }
    out.push_str(",\"metrics\":{");
    for (i, (layer, value)) in LAYERS.iter().zip(&r.values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, layer.name);
        out.push_str(":{\"value\":");
        match value {
            Some(v) => json::push_f64(&mut out, *v),
            None => out.push_str("null"),
        }
        out.push_str(",\"unit\":");
        json::push_str(&mut out, layer.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The static half of `results.json`: every per-layer metric with what
/// it wraps, the end-to-end metric and workloads it should move, and
/// the workloads it must leave flat.
fn ledger_catalog_json() -> String {
    let list = |out: &mut String, items: &[&str]| {
        out.push('[');
        for (i, w) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, w);
        }
        out.push(']');
    };
    let mut out = String::from("[");
    for (i, l) in LAYERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\":");
        json::push_str(&mut out, l.name);
        out.push_str(",\"unit\":");
        json::push_str(&mut out, l.unit);
        out.push_str(",\"better\":");
        json::push_str(&mut out, l.better.name());
        out.push_str(",\"what\":");
        json::push_str(&mut out, l.what);
        out.push_str(",\"moves\":[");
        for (j, (metric, workloads)) in l.moves.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"metric\":");
            json::push_str(&mut out, metric);
            out.push_str(",\"workloads\":");
            list(&mut out, workloads);
            out.push('}');
        }
        out.push_str("],\"flat_on\":");
        list(&mut out, l.flat_on);
        out.push('}');
    }
    out.push_str("\n  ]");
    out
}

/// Assembles `out/results.json` from the latest per-workload run files.
fn write_results() -> Result<PathBuf, String> {
    let mut out = String::from("{\n  \"default_seed\": ");
    out.push_str(&format!(
        "{DEFAULT_SEED},\n  \"held_out_seed\": {HELD_OUT_SEED},\n  \"nproc\": {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    for (key, kind) in [("end_to_end", "e2e"), ("per_layer", "layers")] {
        out.push_str(&format!(",\n  \"{key}\": {{"));
        let mut first = true;
        for w in WORKLOADS {
            let Ok(text) = std::fs::read_to_string(run_file(kind, w)?) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            json::push_str(&mut out, w);
            out.push_str(": ");
            out.push_str(text.trim());
        }
        out.push_str("\n  }");
    }
    out.push_str(",\n  \"ledger\": ");
    out.push_str(&ledger_catalog_json());
    out.push_str("\n}\n");
    let path = host::out_dir()?.join("results.json");
    write_file(&path, &out)?;
    Ok(path)
}

/// Runs one workload in a child process (so `VmHWM`, pinning and
/// allocator state are per workload) and returns its full result.
fn spawn_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} run died: {status}"));
    }
    let path = run_file(if trace { "layers" } else { "e2e" }, workload)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn clear_run_files(kind: &str) -> Result<(), String> {
    for w in WORKLOADS {
        let _ = std::fs::remove_file(run_file(kind, w)?);
    }
    Ok(())
}

/// `all` / `trace`: every workload, each in its own process.
fn run_every(seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    clear_run_files(if trace { "layers" } else { "e2e" })?;
    let mut clean = true;
    for w in WORKLOADS {
        let doc = spawn_run(w, seed, seconds, trace)?;
        clean &= doc.get("failed").and_then(Value::as_u64) == Some(0)
            && doc.get("correct").and_then(Value::as_bool) != Some(false);
        println!();
    }
    println!("results: {}", write_results()?.display());
    Ok(clean)
}

/// `selfcheck`: the end-to-end pass twice; every metric of every
/// workload must agree with itself within its own bound.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    // Workload-major: the two runs of a workload are neighbours in
    // time, so a slow phase of the host (see the README) is likelier to
    // cover both than to separate them.
    let mut rounds: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for w in WORKLOADS {
        for (round, docs) in rounds.iter_mut().enumerate() {
            println!(
                "---- selfcheck: {w}, run {} of 2 (seed {seed}) ----",
                round + 1
            );
            docs.push(spawn_run(w, seed, seconds, false)?);
            println!();
        }
    }
    write_results()?;
    let mut ok = true;
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &E2E {
            let value = |doc: &Value| {
                doc.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(a), Some(b)) = (value(&rounds[0][i]), value(&rounds[1][i])) else {
                continue;
            };
            // How much worse the worse run is, as a share of the
            // better one.
            let (better, worse) = match m.better {
                Better::Higher => (a.max(b), a.min(b)),
                Better::Lower => (a.min(b), a.max(b)),
            };
            let diff = if better == worse {
                0.0
            } else {
                (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE)
            };
            let failed_ops = m.name == "failed_share" && (a > 0.0 || b > 0.0);
            let pass = diff <= m.bound && !failed_ops;
            ok &= pass;
            println!(
                "{:<14} {:<24} {:>16.4} {:>16.4} {:>7.1}% {:>5.0}%  {}",
                w,
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

/// `pin`: writes `pins/<workload>.seed<N>.json` — the deterministic
/// report / accounting JSON — after checking that two repeats agree.
fn pin(seeds: &[u64]) -> Result<bool, String> {
    let dir = host::benchmark_dir().join("pins");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let connections = workloads::svc_connections();
    for &seed in seeds {
        for w in WORKLOADS {
            let path = workloads::pin_path(w, seed);
            // A stale pin would fail the very repeats that replace it.
            let _ = std::fs::remove_file(&path);
            let mut prepared = workloads::prepare(w, seed, connections)?;
            let (a, b) = (prepared.repeat()?, prepared.repeat()?);
            if a.digest != b.digest || a.failed + b.failed > 0 {
                return Err(format!(
                    "{w} seed {seed}: repeats disagree ({:016x} vs {:016x}) or failed ({} ops); \
                     nothing pinned",
                    a.digest,
                    b.digest,
                    a.failed + b.failed
                ));
            }
            write_file(&path, &a.output)?;
            println!(
                "pinned {w} seed {seed}: stats_digest {:016x} -> {}",
                a.digest,
                path.display()
            );
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    host::single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmig-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seed = args.seeds.first().copied().unwrap_or(DEFAULT_SEED);
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(w)) => run_one(w, seed, args.seconds, args.trace).map(|()| true),
        (Some("all"), _) => run_every(seed, args.seconds, false),
        (Some("trace"), _) => run_every(seed, args.seconds, true),
        (Some("selfcheck"), _) => selfcheck(seed, args.seconds),
        (Some("pin"), _) => {
            if args.seeds.is_empty() {
                pin(&[DEFAULT_SEED, HELD_OUT_SEED])
            } else {
                pin(&args.seeds)
            }
        }
        _ => unreachable!("parse_args admits exactly these forms"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fmig-benchmark: FAILED: an output was not correct or a bound was broken (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("fmig-benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
