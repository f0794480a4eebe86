//! `repro` — regenerate any table or figure of Miller & Katz (1993).
//!
//! ```text
//! repro [--scale S] [--seed N] [--no-sim] <experiment>|all|list
//! repro sweep [--preset tiny|small|large|huge] [--latency] [--faults S1,S2,...] [--out PATH]
//! repro sweep --trace STORE_DIR [--latency] [--faults S1,S2,...] [--out PATH]
//! ```
//!
//! `repro list` prints every experiment id in paper order; `all` runs
//! them all. Scale 1.0 reproduces the full two-year trace volume
//! (~3.5 M references); the default 0.05 keeps runtime and memory
//! modest while preserving every distribution's shape.
//!
//! `sweep` runs the parallel scenario-sweep engine once and writes the
//! deterministic [`fmig_core::sweep`] report as JSON: the same bytes for
//! one seed at any `--workers` value. Nothing in this binary times code
//! for a score; measuring is the job of `benchmark/` (`BENCHMARK.json`).

use std::io::{BufReader, ErrorKind, StdoutLock, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fmig_core::{
    experiment_ids, run_experiment, run_sweep, FaultScenarioId, Study, StudyConfig, SweepConfig,
};
use fmig_trace::ingest::store::{import, ImportReport, StoreReader};
use fmig_trace::{FormatId, IngestConfig, Sampler, TraceStats};
use fmig_workload::PaperTargets;

struct Args {
    scale: f64,
    seed: u64,
    simulate: bool,
    targets: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: 0.05,
        seed: 0x4E43_4152,
        simulate: true,
        targets: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {}", args.scale));
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--no-sim" => args.simulate = false,
            "-h" | "--help" => {
                args.targets.push("help".into());
            }
            other => args.targets.push(other.to_string()),
        }
    }
    if args.targets.is_empty() {
        args.targets.push("help".into());
    }
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: repro [--scale S] [--seed N] [--no-sim] <experiment>|all|list\n\
         \x20      repro sweep [--preset tiny|small|large|huge] [--workers N] [--seed N]\n\
         \x20                  [--latency] [--faults S1,S2,...] [--out PATH]\n\
         \x20      repro sweep --trace STORE_DIR [--workers N] [--seed N]\n\
         \x20                  [--latency] [--faults S1,S2,...] [--out PATH]\n\
         \x20      repro ingest --format msr|clf|ibm-kv --input PATH --out STORE_DIR\n\
         \x20                  [--sample K/M] [--sample-seed N] [--error-budget N]\n\
         \x20      repro ingest-gen --out PATH [--records N] [--files N]\n\
         \x20      repro service-smoke\n\
         experiments: {}\n\
         fault scenarios: {}\n",
        experiment_ids().join(" "),
        FaultScenarioId::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Turns a stdout write into a command result. `println!` panics once
/// the reader has gone (`repro all | head`); a closed pipe is the reader
/// saying "enough", so it ends the process with status 0 instead.
fn stdout_ok(written: std::io::Result<()>) -> Result<(), String> {
    match written {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        other => other.map_err(|e| format!("writing stdout: {e}")),
    }
}

/// `repro sweep`: run one scenario matrix through the sweep engine and
/// write [`fmig_core::SweepReport::to_json`] to `--out`.
///
/// The matrix is a generated preset (`--preset`) or, with `--trace`, the
/// [`SweepConfig::imported`] matrix over a columnar store. Either one is
/// closed-loop with `--latency` and widened with `--faults`. An imported
/// store is streamed chunk by chunk; open-loop cells replay a multi-GB
/// trace in O(files) memory, while closed-loop cells keep per-reference
/// state. Either way the report is a pure function of the matrix and the
/// seed: byte-identical at any worker count.
fn run_sweep_command(args: &[String], _stdout: &mut StdoutLock) -> Result<(), String> {
    let mut preset: Option<String> = None;
    let mut workers = 0usize;
    let mut seed: Option<u64> = None;
    let mut latency = false;
    let mut faults: Option<Vec<FaultScenarioId>> = None;
    let mut trace: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => preset = Some(it.next().ok_or("--preset needs a value")?.clone()),
            "--trace" => trace = Some(it.next().ok_or("--trace needs a store dir")?.clone()),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--latency" => latency = true,
            "--faults" => {
                let v = it.next().ok_or("--faults needs a comma-separated list")?;
                let parsed: Result<Vec<FaultScenarioId>, String> = v
                    .split(',')
                    .map(|s| {
                        FaultScenarioId::parse(s.trim())
                            .ok_or_else(|| format!("unknown fault scenario `{s}`"))
                    })
                    .collect();
                faults = Some(parsed?);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
    }
    let (label, mut config) = if let Some(dir) = &trace {
        if preset.is_some() {
            return Err("--trace replays an imported store; it takes no --preset".into());
        }
        // Open once up front for a friendly error and the progress line;
        // the runner re-opens per shard.
        let store =
            StoreReader::open(Path::new(dir)).map_err(|e| format!("trace store {dir}: {e}"))?;
        let manifest = store.manifest();
        eprintln!(
            "sweep: trace {dir}, {} records over {} files ({:.2} GB referenced)",
            manifest.records,
            manifest.files,
            manifest.referenced_bytes as f64 / 1e9,
        );
        ("trace", SweepConfig::imported(dir))
    } else {
        let name = preset.as_deref().unwrap_or("tiny");
        let config = match name {
            "tiny" => SweepConfig::tiny(),
            "small" => SweepConfig::small(),
            "large" => SweepConfig::large(),
            "huge" => SweepConfig::huge(),
            other => {
                return Err(format!(
                    "unknown sweep preset `{other}` (tiny|small|large|huge)"
                ))
            }
        };
        (name, config)
    };
    let out = out.unwrap_or_else(|| format!("SWEEP_{label}.json"));
    config.workers = workers;
    config.latency = latency;
    if let Some(s) = seed {
        config.base_seed = s;
    }
    if let Some(f) = faults {
        config.faults = f;
    }
    eprintln!(
        "sweep: {label}, {} cells in {} shards, workers {} (0 = auto), latency {}, faults [{}]",
        config.cell_count(),
        config.shard_count(),
        config.workers,
        if latency { "on" } else { "off" },
        config
            .fault_axis()
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    let started = Instant::now();
    let report = run_sweep(&config);
    eprintln!("sweep done: {:.1} s", started.elapsed().as_secs_f64());
    eprint!("{}", report.render());
    std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// `repro ingest`: stream an external-format trace into a columnar
/// replay store and print the trace-stats verifier — the import tallies
/// plus the measured-vs-paper delta table, so the first question about
/// any real trace ("how far is this from the NCAR workload?") is
/// answered at import time.
fn run_ingest_command(args: &[String], stdout: &mut StdoutLock) -> Result<(), String> {
    let mut format: Option<FormatId> = None;
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut sample: Option<(u32, u32)> = None;
    let mut sample_seed = 0u64;
    let mut error_budget: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = Some(
                    FormatId::parse(v)
                        .ok_or_else(|| format!("unknown format `{v}` (msr|clf|ibm-kv)"))?,
                );
            }
            "--input" => input = Some(it.next().ok_or("--input needs a path")?.clone()),
            "--out" => out = Some(it.next().ok_or("--out needs a store dir")?.clone()),
            "--sample" => {
                let v = it.next().ok_or("--sample needs K/M")?;
                let (k, m) = v
                    .split_once('/')
                    .ok_or_else(|| format!("--sample wants `K/M`, got `{v}`"))?;
                let keep: u32 = k.parse().map_err(|e| format!("bad --sample: {e}"))?;
                let out_of: u32 = m.parse().map_err(|e| format!("bad --sample: {e}"))?;
                if keep == 0 || out_of == 0 || keep > out_of {
                    return Err(format!("--sample wants 0 < K <= M, got {keep}/{out_of}"));
                }
                sample = Some((keep, out_of));
            }
            "--sample-seed" => {
                let v = it.next().ok_or("--sample-seed needs a value")?;
                sample_seed = v.parse().map_err(|e| format!("bad --sample-seed: {e}"))?;
            }
            "--error-budget" => {
                let v = it.next().ok_or("--error-budget needs a value")?;
                error_budget = Some(v.parse().map_err(|e| format!("bad --error-budget: {e}"))?);
            }
            other => return Err(format!("unknown ingest flag `{other}`")),
        }
    }
    let format = format.ok_or("--format is required (msr|clf|ibm-kv)")?;
    let input = input.ok_or("--input is required")?;
    let out = out.ok_or("--out is required")?;
    let mut config = IngestConfig::default();
    if let Some(b) = error_budget {
        config.error_budget = b;
    }
    if let Some((keep, out_of)) = sample {
        config.sample = Some(Sampler::new(keep, out_of, sample_seed));
    }
    let file = std::fs::File::open(&input).map_err(|e| format!("opening {input}: {e}"))?;
    let reader = BufReader::with_capacity(1 << 20, file);
    let started = Instant::now();
    let mut shown = 0u64;
    let report = import(format, reader, config, Path::new(&out), |e| {
        if shown < 10 {
            eprintln!("ingest: {e}");
        } else if shown == 10 {
            eprintln!("ingest: further line diagnostics suppressed (totals below)");
        }
        shown += 1;
    })
    .map_err(|e| format!("import failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    stdout_ok(write!(
        stdout,
        "{}",
        render_ingest_report(format, &input, &out, &report, secs)
    ))
}

/// The `repro ingest` verifier text: import tallies, store summary, and
/// the measured-vs-paper delta rows in the sweep report's format.
fn render_ingest_report(
    format: FormatId,
    input: &str,
    out: &str,
    report: &ImportReport,
    secs: f64,
) -> String {
    let c = &report.counts;
    let m = &report.manifest;
    let window_days = (m.last - m.epoch).max(0) as f64 / 86_400.0;
    let mut text = format!(
        "imported {input} ({}) -> {out} in {secs:.1} s ({:.0} lines/s)\n\
         \x20 lines {} records {} skipped {} parse-errors {} clamped {} sampled-out {}\n\
         \x20 store: {} replayable records, {} files, {:.2} GB referenced, {:.1}-day window\n",
        format.name(),
        c.lines as f64 / secs.max(1e-9),
        c.lines,
        c.records,
        c.skipped,
        c.parse_errors,
        c.clamped,
        c.sampled_out,
        m.records,
        m.files,
        m.referenced_bytes as f64 / 1e9,
        window_days,
    );
    text.push_str(&paper_delta_table(&report.stats));
    text
}

/// Measured-vs-paper rows for the shape claims computable from a
/// single-pass [`TraceStats`] census, in the sweep report's row format.
fn paper_delta_table(stats: &TraceStats) -> String {
    let targets = PaperTargets::ncar();
    let paper_byte_share = targets.gb_read / (targets.gb_read + targets.gb_written);
    let rows = [
        (
            "read_share",
            targets.read_share(),
            stats.read_reference_share(),
        ),
        (
            "error_fraction",
            targets.error_fraction(),
            stats.error_fraction(),
        ),
        ("read_byte_share", paper_byte_share, stats.read_byte_share()),
    ];
    let mut text = String::new();
    for (metric, paper, measured) in rows {
        text.push_str(&format!(
            "  paper {metric:<28} {paper:>8.3} measured {measured:>8.3}\n"
        ));
    }
    text
}

/// `repro ingest-gen`: write a synthetic MSR-format CSV trace big enough
/// to exercise the ingest path at acceptance scale (defaults: 16 M
/// records over 2^20 distinct extent-files, ≈1 GB of text). The stream
/// is deterministic in its arguments, Zipf-skewed so cache fractions
/// discriminate, and timestamp-ordered like the real extracts.
fn run_ingest_gen_command(args: &[String], _stdout: &mut StdoutLock) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut records: u64 = 16_000_000;
    let mut files: u64 = 1 << 20;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--records" => {
                let v = it.next().ok_or("--records needs a value")?;
                records = v.parse().map_err(|e| format!("bad --records: {e}"))?;
            }
            "--files" => {
                let v = it.next().ok_or("--files needs a value")?;
                files = v.parse().map_err(|e| format!("bad --files: {e}"))?;
            }
            other => return Err(format!("unknown ingest-gen flag `{other}`")),
        }
    }
    let out = out.ok_or("--out is required")?;
    if files == 0 || records == 0 {
        return Err("--records and --files must be positive".into());
    }
    // File identity under the MSR mapping is (host, disk, 1 MiB extent);
    // spread the requested count over 64 hosts × 4 disks.
    const HOSTS: u64 = 64;
    const DISKS: u64 = 4;
    let extents = files.div_ceil(HOSTS * DISKS).max(1);
    let file = std::fs::File::create(&out).map_err(|e| format!("creating {out}: {e}"))?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut write = |line: &str| -> Result<(), String> {
        w.write_all(line.as_bytes())
            .map_err(|e| format!("writing {out}: {e}"))
    };
    write("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")?;
    // FILETIME ticks for 2008-01-01T00:00:00Z, advancing ~0.2 s per
    // record with sub-second jitter.
    let mut ticks: u64 = (1_199_145_600 + 11_644_473_600) * 10_000_000;
    let mut state = 0x4D53_5221_u64; // "MSR!"
                                     // Xorshift for the stream, with a murmur-style finalizer: raw
                                     // consecutive xorshift outputs are linearly related over GF(2), and
                                     // slicing (host, disk, extent) bits out of them collapses the file
                                     // population onto a subspace far smaller than the product space.
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut x = state;
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    };
    let started = Instant::now();
    for i in 0..records {
        let r = step();
        ticks += 1_000_000 + r % 3_000_000;
        let host = r % HOSTS;
        let disk = (r >> 8) % DISKS;
        // Zipf-ish extents: half the traffic hits a hot 1/64th of the
        // extent space, the rest spreads uniformly (so every extent
        // appears given enough records).
        let e = step();
        let extent = if e.is_multiple_of(2) {
            (e >> 1) % (extents / 64).max(1)
        } else {
            (e >> 1) % extents
        };
        let write_op = step() % 10 < 3;
        let size = 4096 + (step() % 64) * 16_384;
        let resp = step() % 40_000_000; // up to 4 s of ticks
        write(&format!(
            "{ticks},src{host:02},{disk},{},{},{size},{resp}\n",
            if write_op { "Write" } else { "Read" },
            extent << 20,
        ))?;
        if i % 2_000_000 == 1_999_999 {
            eprintln!("ingest-gen: {} / {records} records...", i + 1);
        }
    }
    w.flush().map_err(|e| format!("writing {out}: {e}"))?;
    let bytes = std::fs::metadata(&out).map_err(|e| e.to_string())?.len();
    eprintln!(
        "ingest-gen: wrote {records} records ({:.2} GB) to {out} in {:.1} s",
        bytes as f64 / 1e9,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `repro service-smoke`: boot the real `fmig-origin` / `fmig-served` /
/// `fmig-loadgen` binaries over loopback, replay the tiny-preset cell
/// healthy and degraded-peak, and hold the live service to the
/// simulator oracle: miss counters and p99 read wait both exactly equal.
fn run_service_smoke_command(args: &[String], stdout: &mut StdoutLock) -> Result<(), String> {
    if let Some(other) = args.first() {
        return Err(format!("unknown service-smoke flag `{other}`"));
    }
    let outcomes = fmig_serve::smoke::run_service_smoke()?;
    for o in &outcomes {
        stdout_ok(writeln!(
            stdout,
            "service-smoke {}: miss_ratio={:.4} p99 live={:.1}s oracle={:.1}s ({:.0} refs/s)",
            o.scenario, o.miss_ratio, o.live_p99_s, o.oracle_p99_s, o.refs_per_sec
        ))?;
    }
    stdout_ok(writeln!(
        stdout,
        "service-smoke: OK ({} scenarios, oracle-exact)",
        outcomes.len()
    ))
}

/// `repro <experiment>|all|list`: generate one study and print the
/// requested tables and figures.
fn run_experiments_command(raw: &[String], stdout: &mut StdoutLock) -> Result<(), String> {
    let args = parse_args(raw)?;
    if args.targets.iter().any(|t| t == "help") {
        return stdout_ok(write!(stdout, "{}", usage()));
    }
    if args.targets.iter().any(|t| t == "list") {
        return stdout_ok(writeln!(stdout, "{}", experiment_ids().join("\n")));
    }

    let ids: Vec<String> = if args.targets.iter().any(|t| t == "all") {
        experiment_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args.targets.clone()
    };
    for id in &ids {
        if !experiment_ids().contains(&id.as_str()) {
            return Err(format!("unknown experiment `{id}`"));
        }
    }

    let mut config = StudyConfig::at_scale(args.scale);
    config.workload.seed = args.seed;
    config.simulate_devices = args.simulate;
    eprintln!(
        "generating study: scale {}, seed {}, simulation {} ...",
        args.scale,
        args.seed,
        if args.simulate { "on" } else { "off" }
    );
    let started = Instant::now();
    let output = Study::new(config).run();
    eprintln!(
        "study ready: {} records, {} files, {} dirs ({:.1} s)",
        output.workload.len(),
        output.analysis.files.file_count(),
        output.analysis.dirs.dir_count(),
        started.elapsed().as_secs_f64()
    );

    for id in &ids {
        let result =
            run_experiment(id, &output).ok_or_else(|| format!("unknown experiment `{id}`"))?;
        stdout_ok(writeln!(stdout, "{}\n", result.render()))?;
    }
    Ok(())
}

/// A subcommand: its own flag set in, results on `stdout`, progress on
/// stderr.
type Command = fn(&[String], &mut StdoutLock) -> Result<(), String>;

/// Subcommands by first argument; anything else is an experiment run.
const COMMANDS: [(&str, Command); 4] = [
    ("sweep", run_sweep_command),
    ("ingest", run_ingest_command),
    ("ingest-gen", run_ingest_gen_command),
    ("service-smoke", run_service_smoke_command),
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = raw
        .first()
        .and_then(|first| COMMANDS.iter().find(|(name, _)| name == first));
    let (run, args) = match subcommand {
        Some((_, run)) => (*run, &raw[1..]),
        None => (run_experiments_command as Command, &raw[..]),
    };
    match run(args, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
