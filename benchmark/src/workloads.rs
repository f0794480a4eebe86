//! The five workloads of the end-to-end pass: how each is set up from a
//! seed, what one timed repeat does, and how its output is checked.
//!
//! Every workload is a closed batch replay — nothing is offered on a
//! clock, the stated input size is fixed — run with `workers: 1`. The
//! sizes below are the issue's, lowered uniformly so a 20-second run
//! holds at least eight repeats of the slowest workload and the
//! driver's 114 runs fit its time cap.

use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fmig_core::{run_sweep, FaultScenarioId, PolicyId, PresetId, SweepConfig, SweepReport};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::TracePrep;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, CellSetup, LoadgenConfig, LoadgenReport};
use fmig_serve::{origin, ServiceStats};
use fmig_sim::config::SimConfig;
use fmig_sim::event::MS;
use fmig_sim::fault::{seed_mix, FAULT_HORIZON_SLACK_MS};
use fmig_sim::{HierarchyMetrics, HierarchySimulator, MssSimulator};
use fmig_trace::ingest::fnv1a64;
use fmig_trace::ingest::store::{self, ImportReport};
use fmig_trace::{FormatId, IngestConfig};
use fmig_workload::Workload;

use crate::catalog::{
    CLOSED_MIXED, DEFAULT_SEED, INGEST_MSR, OPEN_LARGE, OPEN_SMALL, SVC_LOOPBACK,
};
use crate::host::{benchmark_dir, Scratch};
use crate::json::{self, Value};
use crate::msrgen::{self, MsrSpec};
use crate::proxy::{LinkCounts, LinkProxy};

/// NCAR scale of `open-large` (≈360k refs, ≈90k files).
pub const OPEN_LARGE_SCALE: f64 = 0.1;
/// Scale of each of `open-small`'s four preset shards (≈10k files).
pub const OPEN_SMALL_SCALE: f64 = 0.012;
/// Scale of `closed-mixed`'s two shards (≈140k refs each).
pub const CLOSED_MIXED_SCALE: f64 = 0.04;
/// Data lines of `ingest-msr`'s CSV.
pub const INGEST_RECORDS: u64 = 1_200_000;
/// File universe of `ingest-msr`'s CSV.
pub const INGEST_FILES: u64 = 1 << 17;
/// NCAR scale of `svc-loopback`'s cell (≈20k refs).
pub const SVC_SCALE: f64 = 0.006;
/// Policy of `svc-loopback`'s cell.
pub const SVC_POLICY: PolicyId = PolicyId::Stp14;
/// Cache fraction of `svc-loopback`'s cell.
pub const SVC_CACHE_FRACTION: f64 = 0.015;
/// Live p99 may differ from the oracle's by this share (the service's
/// documented tie-ordering tolerance; it reads 0 today).
pub const SVC_P99_TOLERANCE: f64 = 0.15;

/// The sweep seed of `workload` under the run's `--seed`: one salt per
/// workload so no two share a generator stream.
pub fn base_seed(workload: &str, seed: u64) -> u64 {
    seed_mix(seed, fnv1a64(workload.as_bytes()))
}

fn sweep(
    workload: &str,
    seed: u64,
    policies: &[PolicyId],
    presets: &[PresetId],
    scale: f64,
    cache_fractions: &[f64],
) -> SweepConfig {
    SweepConfig {
        policies: policies.to_vec(),
        presets: presets.to_vec(),
        scales: vec![scale],
        cache_fractions: cache_fractions.to_vec(),
        base_seed: base_seed(workload, seed),
        simulate_devices: true,
        latency: false,
        faults: vec![FaultScenarioId::None],
        workers: 1,
        trace_store: None,
    }
}

const CLASSIC_CACHES: [f64; 3] = [0.005, 0.015, 0.05];
const OPEN_POLICIES: [PolicyId; 3] = [PolicyId::Lru, PolicyId::Belady, PolicyId::Stp14];

/// The matrix of one of the three generated-sweep workloads.
pub fn sweep_config(workload: &str, seed: u64) -> SweepConfig {
    match workload {
        OPEN_LARGE => sweep(
            workload,
            seed,
            &OPEN_POLICIES,
            &[PresetId::Ncar],
            OPEN_LARGE_SCALE,
            &CLASSIC_CACHES,
        ),
        OPEN_SMALL => sweep(
            workload,
            seed,
            &OPEN_POLICIES,
            &PresetId::ALL,
            OPEN_SMALL_SCALE,
            &CLASSIC_CACHES,
        ),
        CLOSED_MIXED => SweepConfig {
            latency: true,
            faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
            ..sweep(
                workload,
                seed,
                &[PolicyId::Stp14, PolicyId::LruMad],
                &[PresetId::Ncar, PresetId::WriteHeavy],
                CLOSED_MIXED_SCALE,
                &[0.015],
            )
        },
        other => panic!("`{other}` is not a generated-sweep workload"),
    }
}

/// The imported matrix `ingest-msr` sweeps its store with: cheap
/// policies, so parsing and the store — not ranking — set the time.
pub fn imported_config(seed: u64, store_dir: &Path) -> SweepConfig {
    SweepConfig {
        policies: vec![PolicyId::Lru, PolicyId::Belady],
        base_seed: base_seed(INGEST_MSR, seed),
        workers: 1,
        ..SweepConfig::imported(&store_dir.to_string_lossy())
    }
}

/// The CSV `ingest-msr` synthesizes for `seed`.
pub fn msr_spec(seed: u64) -> MsrSpec {
    MsrSpec {
        records: INGEST_RECORDS,
        files: INGEST_FILES,
        seed: base_seed(INGEST_MSR, seed),
    }
}

/// What one timed repeat produced.
#[derive(Debug)]
pub struct Repeat {
    /// Wall seconds of the section `refs_per_s` is taken over.
    pub wall_s: f64,
    /// References that section replayed.
    pub refs: u64,
    /// Wall seconds of everything timed in the repeat (≥ `wall_s`).
    pub timed_s: f64,
    /// Operations attempted (cells, input lines, requests).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// FNV-1a of the deterministic output; equal across repeats.
    pub digest: u64,
    /// The deterministic output itself (what `pin` stores).
    pub output: String,
    /// (records, wall seconds) of the import, `ingest-msr` only.
    pub import: Option<(u64, f64)>,
    /// On-disk store bytes ÷ records, `ingest-msr` only.
    pub store_bytes_per_record: Option<f64>,
}

/// A workload after set-up, ready to be timed.
pub trait Prepared {
    /// Runs the timed section once and checks its output.
    fn repeat(&mut self) -> Result<Repeat, String>;
}

/// References a sweep replayed: each shard's records once per cell.
pub fn sweep_refs(report: &SweepReport) -> u64 {
    report
        .shards
        .iter()
        .map(|s| s.records * s.cells.len() as u64)
        .sum()
}

/// A pinned golden output, if one exists for this workload and seed.
struct Pin {
    digest: u64,
    doc: Value,
}

/// `pins/<workload>.seed<N>.json`.
pub fn pin_path(workload: &str, seed: u64) -> PathBuf {
    benchmark_dir()
        .join("pins")
        .join(format!("{workload}.seed{seed}.json"))
}

fn load_pin(workload: &str, seed: u64) -> Result<Option<Pin>, String> {
    let path = pin_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(Pin {
        digest: fnv1a64(text.as_bytes()),
        doc,
    }))
}

/// Cells of `report_json` that differ from the pin, shard by shard. A
/// shard whose own fields (seeds, record and file counts, census) moved
/// fails all its cells: they ran on a different trace.
fn cells_differing(report_json: &str, pin: &Pin) -> Result<u64, String> {
    if fnv1a64(report_json.as_bytes()) == pin.digest {
        return Ok(0);
    }
    let doc = json::parse(report_json).map_err(|e| format!("report JSON: {e}"))?;
    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        v.get(key).map_or(&[], Value::items)
    }
    fn header(shard: &Value) -> impl Iterator<Item = &(String, Value)> {
        let members = match shard {
            Value::Obj(members) => members.as_slice(),
            _ => &[],
        };
        members.iter().filter(|(k, _)| k != "cells")
    }
    let theirs = list(&pin.doc, "shards");
    let mut failed = 0u64;
    for (i, shard) in list(&doc, "shards").iter().enumerate() {
        let mine = list(shard, "cells");
        let Some(golden) = theirs.get(i) else {
            failed += mine.len() as u64;
            continue;
        };
        if !header(shard).eq(header(golden)) {
            failed += mine.len() as u64;
            continue;
        }
        let pinned = list(golden, "cells");
        failed += mine
            .iter()
            .enumerate()
            .filter(|(j, cell)| pinned.get(*j) != Some(cell))
            .count() as u64;
    }
    Ok(failed)
}

/// Checks a sweep report's shape (independent of any pin): the full
/// matrix came back and every ratio is a ratio.
fn malformed_cells(report: &SweepReport, config: &SweepConfig) -> u64 {
    let expected = config.cell_count() / config.shard_count();
    let mut bad = 0u64;
    if report.shards.len() != config.shard_count() {
        return config.cell_count() as u64;
    }
    for shard in &report.shards {
        if shard.cells.len() != expected || shard.records == 0 {
            bad += expected as u64;
            continue;
        }
        bad += shard
            .cells
            .iter()
            .filter(|c| {
                !(0.0..=1.0).contains(&c.miss_ratio)
                    || !(0.0..=1.0).contains(&c.byte_miss_ratio)
                    || (config.latency && c.latency.is_none())
            })
            .count() as u64;
    }
    bad
}

fn sweep_repeat(
    config: &SweepConfig,
    pin: Option<&Pin>,
    normalize: impl FnOnce(&mut SweepReport),
) -> Result<Repeat, String> {
    let started = Instant::now();
    let mut report = run_sweep(config);
    let wall_s = started.elapsed().as_secs_f64();
    normalize(&mut report);
    let output = report.to_json();
    let attempted = config.cell_count() as u64;
    let malformed = malformed_cells(&report, config);
    let differing = match pin {
        Some(pin) => cells_differing(&output, pin)?,
        None => 0,
    };
    Ok(Repeat {
        wall_s,
        refs: sweep_refs(&report),
        timed_s: wall_s,
        attempted,
        failed: malformed.max(differing).min(attempted),
        digest: fnv1a64(output.as_bytes()),
        output,
        import: None,
        store_bytes_per_record: None,
    })
}

struct GeneratedSweep {
    config: SweepConfig,
    pin: Option<Pin>,
}

impl Prepared for GeneratedSweep {
    fn repeat(&mut self) -> Result<Repeat, String> {
        sweep_repeat(&self.config, self.pin.as_ref(), |_| {})
    }
}

struct IngestMsr {
    seed: u64,
    scratch: Scratch,
    csv: PathBuf,
    pin: Option<Pin>,
}

/// Imports `csv` into `store_dir` (which must not exist).
pub fn import_csv(csv: &Path, store_dir: &Path) -> Result<(ImportReport, u64), String> {
    let file = std::fs::File::open(csv).map_err(|e| format!("opening {}: {e}", csv.display()))?;
    let mut diagnostics = 0u64;
    let report = store::import(
        FormatId::Msr,
        BufReader::with_capacity(1 << 20, file),
        IngestConfig::default(),
        store_dir,
        |_| diagnostics += 1,
    )
    .map_err(|e| format!("import: {e}"))?;
    Ok((report, diagnostics))
}

/// Total bytes of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("sizing {}: {e}", dir.display());
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        total += entry.map_err(io)?.metadata().map_err(io)?.len();
    }
    Ok(total)
}

impl Prepared for IngestMsr {
    fn repeat(&mut self) -> Result<Repeat, String> {
        let store_dir = self.scratch.path().join("store");
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir)
                .map_err(|e| format!("clearing {}: {e}", store_dir.display()))?;
        }
        let started = Instant::now();
        let (import, diagnostics) = import_csv(&self.csv, &store_dir)?;
        let import_s = started.elapsed().as_secs_f64();

        let counts = import.counts;
        // One header line is the only skip the synthesizer writes.
        let line_failures = counts.parse_errors.max(diagnostics)
            + counts.skipped.saturating_sub(1)
            + counts.sampled_out
            + u64::from(counts.records != INGEST_RECORDS);
        let bytes_per_record = dir_bytes(&store_dir)? as f64 / import.manifest.records as f64;

        let config = imported_config(self.seed, &store_dir);
        // The store path differs run to run; the report must not.
        let mut repeat = sweep_repeat(&config, self.pin.as_ref(), |report| {
            report.trace_store = Some("<store>".to_string());
        })?;
        repeat.timed_s += import_s;
        repeat.attempted += counts.lines;
        repeat.failed += line_failures.min(counts.lines);
        repeat.import = Some((counts.records, import_s));
        repeat.store_bytes_per_record = Some(bytes_per_record);
        Ok(repeat)
    }
}

/// One prepared `svc-loopback` cell plus the oracle's verdict on it.
pub struct SvcCell {
    /// The cell both the live service and the oracle replay.
    pub setup: CellSetup,
    /// The counter-noise hierarchy engine's metrics on that cell.
    pub oracle: HierarchyMetrics,
}

/// The oracle of a live replay: the counter-noise hierarchy engine on
/// the identical cell (same refs, capacity, policy, seed, fault plan).
pub fn run_oracle(setup: &CellSetup) -> HierarchyMetrics {
    HierarchySimulator::new(
        SimConfig::default()
            .with_seed(setup.seed)
            .with_counter_noise(true),
    )
    .run_with_faults(
        CacheConfig::with_capacity(setup.capacity),
        SVC_POLICY.build().as_ref(),
        &setup.refs,
        &setup.scenario.plan(),
    )
}

/// Builds the service cell: NCAR at `scale` through the device
/// simulator into prepared refs, exactly as a sweep shard would, with
/// the cell seed the sweep engine would derive for (preset 0, scale 0,
/// cache 0, policy 0).
pub fn svc_cell(seed: u64, scale: f64, scenario: FaultScenarioId) -> SvcCell {
    let config = SweepConfig {
        faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
        ..sweep(
            SVC_LOOPBACK,
            seed,
            &[SVC_POLICY],
            &[PresetId::Ncar],
            scale,
            &[SVC_CACHE_FRACTION],
        )
    };
    let workload = Workload::generate(&PresetId::Ncar.workload(scale, config.workload_seed(0, 0)));
    let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();
    let mut prep = TracePrep::new();
    MssSimulator::new(SimConfig::default().with_seed(config.sim_seed(0, 0)))
        .run_streaming(workload.into_records(), |rec| prep.observe(&rec));
    let refs = prep.finish().refs().to_vec();
    let fault_idx = usize::from(scenario != FaultScenarioId::None);
    let setup = CellSetup {
        scenario,
        capacity: ((referenced_bytes as f64 * SVC_CACHE_FRACTION) as u64).max(1),
        seed: config.cell_fault_seed(0, 0, 0, 0, fault_idx, scenario),
        span_start_vms: refs.first().map_or(0, |r| r.time * MS),
        span_end_vms: refs.last().map_or(0, |r| r.time * MS) + FAULT_HORIZON_SLACK_MS,
        refs,
    };
    SvcCell {
        oracle: run_oracle(&setup),
        setup,
    }
}

/// One live replay's results.
pub struct ServiceRun {
    /// The load generator's report.
    pub report: LoadgenReport,
    /// The daemon's final counters.
    pub stats: ServiceStats,
    /// Link counts (daemon→origin, origin→daemon) when proxied.
    pub link: Option<(LinkCounts, LinkCounts)>,
}

/// Boots origin and daemon as threads of this process, replays `setup`
/// through them over 127.0.0.1, and joins both. `limit` replays only a
/// prefix; `via_proxy` puts the frame-counting proxy on the
/// daemon↔origin link.
pub fn run_service(
    setup: &CellSetup,
    connections: usize,
    limit: Option<usize>,
    via_proxy: bool,
) -> Result<ServiceRun, String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let origin_listener = bind()?;
    let origin_addr = origin_listener
        .local_addr()
        .map_err(|e| format!("origin addr: {e}"))?;
    let origin_thread = std::thread::spawn(move || origin::serve(origin_listener));
    let proxy = if via_proxy {
        Some(LinkProxy::spawn(origin_addr)?)
    } else {
        None
    };
    let upstream = proxy.as_ref().map_or(origin_addr, |p| p.addr);

    let daemon_listener = bind()?;
    let daemon_addr = daemon_listener
        .local_addr()
        .map_err(|e| format!("daemon addr: {e}"))?;
    let cfg = DaemonConfig::compat(
        upstream.to_string(),
        setup.capacity,
        SVC_POLICY,
        setup.scenario,
        setup.seed,
        setup.span_start_vms,
        setup.span_end_vms,
    );
    let daemon_thread = std::thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let report = loadgen::run(
        &LoadgenConfig {
            addr: daemon_addr.to_string(),
            connections,
            limit,
            drain: true,
            stats: true,
            shutdown: true,
        },
        setup,
    )?;
    // A failed replay returned above without joining: the daemon only
    // ends on `Shutdown`, which a broken replay never sent, and the
    // caller is about to exit non-zero anyway. A clean replay has sent
    // it, so both sessions are ending.
    let stats = daemon_thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())??;
    origin_thread
        .join()
        .map_err(|_| "origin thread panicked".to_string())??;
    let link = proxy.map(LinkProxy::finish).transpose()?;
    Ok(ServiceRun {
        report,
        stats,
        link,
    })
}

/// The 15 daemon counters the oracle contract holds exactly, as
/// (name, live, oracle).
pub fn oracle_counters(
    stats: &ServiceStats,
    oracle: &HierarchyMetrics,
) -> [(&'static str, u64, u64); 15] {
    let c = oracle.cache;
    [
        ("read_hits", stats.read_hits, c.read_hits),
        ("read_misses", stats.read_misses, c.read_misses),
        ("read_hit_bytes", stats.read_hit_bytes, c.read_hit_bytes),
        ("read_miss_bytes", stats.read_miss_bytes, c.read_miss_bytes),
        ("writes", stats.writes, c.writes),
        ("evictions", stats.evictions, c.evictions),
        ("evicted_bytes", stats.evicted_bytes, c.evicted_bytes),
        ("stall_bytes", stats.stall_bytes, c.stall_bytes),
        (
            "purge_flush_bytes",
            stats.purge_flush_bytes,
            c.purge_flush_bytes,
        ),
        ("writeback_bytes", stats.writeback_bytes, c.writeback_bytes),
        (
            "fetch_retries",
            stats.fetch_retries,
            oracle.cache_fetch_retries,
        ),
        ("recalls", stats.recalls, oracle.recalls),
        ("delayed_hits", stats.delayed_hits, oracle.delayed_hits),
        ("flush_jobs", stats.flush_jobs, oracle.flush_jobs),
        ("flush_bytes", stats.flush_bytes, oracle.flush_bytes),
    ]
}

/// |live − oracle| ÷ oracle of the p99 first-byte read wait.
pub fn p99_rel_err(report: &LoadgenReport, oracle: &HierarchyMetrics) -> f64 {
    let want = oracle.read_wait().quantile(0.99);
    (report.read_waits.quantile(0.99) - want).abs() / want.max(1.0)
}

/// Why a live replay disagrees with the oracle, if it does.
pub fn oracle_mismatch(run: &ServiceRun, oracle: &HierarchyMetrics) -> Option<String> {
    for (name, live, want) in oracle_counters(&run.stats, oracle) {
        if live != want {
            return Some(format!("{name}: live {live} != oracle {want}"));
        }
    }
    let (live_n, want_n) = (run.report.read_waits.count(), oracle.read_wait().count());
    if live_n != want_n {
        return Some(format!(
            "read-wait samples: live {live_n} != oracle {want_n}"
        ));
    }
    let err = p99_rel_err(&run.report, oracle);
    (err > SVC_P99_TOLERANCE).then(|| format!("p99 read wait off by {:.1}%", err * 100.0))
}

struct SvcLoopback {
    cell: SvcCell,
    connections: usize,
    pin: Option<Pin>,
}

impl Prepared for SvcLoopback {
    fn repeat(&mut self) -> Result<Repeat, String> {
        let run = run_service(&self.cell.setup, self.connections, None, false)?;
        let r = &run.report;
        let output = r.accounting_json();
        let digest = fnv1a64(output.as_bytes());
        let refused = r.failed + r.rejected_draining + r.rejected_shedding;
        let mismatch = oracle_mismatch(&run, &self.cell.oracle).or_else(|| {
            self.pin
                .as_ref()
                .filter(|pin| pin.digest != digest)
                .map(|_| "accounting differs from the pinned golden output".to_string())
        });
        if let Some(why) = &mismatch {
            eprintln!("svc-loopback: repeat failed the oracle: {why}");
        }
        Ok(Repeat {
            wall_s: r.wall_s,
            refs: r.sent,
            timed_s: r.wall_s,
            attempted: r.sent,
            failed: if mismatch.is_some() { r.sent } else { refused },
            digest,
            output,
            import: None,
            store_bytes_per_record: None,
        })
    }
}

/// Load-generating connections: two, or one on a one-CPU host (never
/// more load threads than CPUs). Call before pinning —
/// `available_parallelism` reads the affinity mask.
pub fn svc_connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Sets `workload` up from `seed`. `connections` matters to
/// `svc-loopback` only.
pub fn prepare(workload: &str, seed: u64, connections: usize) -> Result<Box<dyn Prepared>, String> {
    let pin = load_pin(workload, seed)?;
    match workload {
        OPEN_LARGE | OPEN_SMALL | CLOSED_MIXED => {
            let config = sweep_config(workload, seed);
            // run_sweep needs no set-up of its own, so set-up is the
            // warm-up: the same matrix at a quarter of the scale takes
            // the code paths, the allocator and the page tables through
            // their first use before anything is timed. Its seed is
            // fixed: the heavy-tailed generator moves the record count,
            // and with it the warm-up's time, by ±15% between seeds,
            // and warming up does not depend on the data.
            let warm_up = SweepConfig {
                scales: vec![config.scales[0] / 4.0],
                ..sweep_config(workload, DEFAULT_SEED)
            };
            std::hint::black_box(run_sweep(&warm_up));
            Ok(Box::new(GeneratedSweep { config, pin }))
        }
        INGEST_MSR => {
            let scratch = Scratch::create(INGEST_MSR)?;
            let csv = scratch.path().join("trace.csv");
            msrgen::write_csv(&msr_spec(seed), &csv)?;
            Ok(Box::new(IngestMsr {
                seed,
                scratch,
                csv,
                pin,
            }))
        }
        SVC_LOOPBACK => {
            let cell = svc_cell(seed, SVC_SCALE, FaultScenarioId::None);
            // Server boot and a short warm replay belong to set-up: the
            // first connection pays lazy socket and allocator costs no
            // steady-state request does.
            run_service(&cell.setup, connections, Some(2_000), false)?;
            Ok(Box::new(SvcLoopback {
                cell,
                connections,
                pin,
            }))
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_get_distinct_streams_from_one_seed() {
        let seeds: Vec<u64> = crate::catalog::WORKLOADS
            .iter()
            .map(|w| base_seed(w, 1993))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(base_seed(OPEN_LARGE, 1993), base_seed(OPEN_LARGE, 2024));
    }

    #[test]
    fn pin_comparison_is_per_cell_and_a_moved_shard_fails_all_its_cells() {
        let report = |miss: &str, records: u64| {
            format!(
                "{{\"shards\": [{{\"records\": {records}, \"cells\": [\
                 {{\"policy\": \"lru\", \"miss_ratio\": 0.25}}, \
                 {{\"policy\": \"belady\", \"miss_ratio\": {miss}}}]}}]}}"
            )
        };
        let golden = report("0.125", 10);
        let pin = Pin {
            digest: fnv1a64(golden.as_bytes()),
            doc: json::parse(&golden).unwrap(),
        };
        assert_eq!(cells_differing(&golden, &pin).unwrap(), 0);
        assert_eq!(cells_differing(&report("0.126", 10), &pin).unwrap(), 1);
        assert_eq!(cells_differing(&report("0.125", 11), &pin).unwrap(), 2);
    }
}
