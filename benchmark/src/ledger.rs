//! The traced pass: each workload's pipeline re-run *staged*, on
//! materialised intermediates, with every call into a layer wrapped in
//! a span. A per-layer metric is a span's self time ÷ its count.
//!
//! The end-to-end pass times `run_sweep` / `import` / the live service
//! as users call them — fused, streaming. Here the same inputs go
//! through the same public functions one stage at a time, so each
//! layer's cost stands alone; `core.runner.overhead_share` states what
//! the fused call costs beyond (or, where fusion wins, below) the sum
//! of its stages. Every staged result is checked against the fused
//! call's, cell by cell.

use std::collections::HashSet;
use std::time::Instant;

use fmig_analysis::Analyzer;
use fmig_core::{run_sweep, FaultScenarioId, PolicyId, SweepConfig, SweepReport};
use fmig_migrate::eval::{EvalConfig, PreparedRef, PreparedTrace, TracePrep};
use fmig_migrate::mrc::sweep_capacities;
use fmig_serve::loadgen::CellSetup;
use fmig_serve::protocol::{ServedKind, NO_NEXT_USE};
use fmig_serve::Frame;
use fmig_sim::config::SimConfig;
use fmig_sim::{EventQueue, HierarchyMetrics, HierarchySimulator, MssSimulator};
use fmig_trace::ingest::store::{StoreReader, StoreWriter, CHUNK_RECORDS};
use fmig_trace::{FileTable, FormatId, IngestConfig, TraceRecord};
use fmig_workload::Workload;

use crate::catalog::{CLOSED_MIXED, INGEST_MSR, LAYERS, OPEN_LARGE, OPEN_SMALL, SVC_LOOPBACK};
use crate::host::{HostStamp, Pinning, Scratch};
use crate::msrgen;
use crate::span::{layer_totals, Tracer};
use crate::stats;
use crate::workloads::{
    dir_bytes, import_csv, imported_config, msr_spec, oracle_mismatch, p99_rel_err, run_oracle,
    run_service, svc_cell, svc_connections, sweep_config, ServiceRun, SvcCell, SVC_SCALE,
};

/// The capacity grid of the `migrate.mrc.*` metrics, as fractions of
/// the referenced bytes.
const MRC_GRID: [f64; 8] = [0.002, 0.005, 0.01, 0.015, 0.03, 0.05, 0.1, 0.2];
/// The cache fraction the `migrate.cache.<policy>` replays run at.
const REPLAY_FRACTION: f64 = 0.015;
/// The cache fraction the `migrate.rank.*` replays run at: small enough
/// that victim ranking, not the hit path, sets the time.
const RANK_FRACTION: f64 = 0.005;

/// (policy, span = metric stem) of the per-policy replays at 1.5%.
const REPLAYS: [(PolicyId, &str); 5] = [
    (PolicyId::Lru, "migrate.cache.lru"),
    (PolicyId::Belady, "migrate.cache.belady"),
    (PolicyId::Stp14, "migrate.cache.stp14"),
    (PolicyId::Saac, "migrate.cache.saac"),
    (PolicyId::StpLat, "migrate.cache.stp-lat"),
];
/// (policy that lives in the regime, span = metric stem) of the
/// ranking-regime replays at 0.5%. The span's count is *evictions*.
const REGIMES: [(PolicyId, &str); 3] = [
    (PolicyId::Lru, "migrate.rank.monotone"),
    (PolicyId::Belady, "migrate.rank.heap"),
    (PolicyId::Stp14, "migrate.rank.kinetic"),
];
/// (policy, span = metric stem) of the 8-point single-pass curves.
const MRCS: [(PolicyId, &str); 2] = [
    (PolicyId::Lru, "migrate.mrc.lru"),
    (PolicyId::Stp14, "migrate.mrc.stp14"),
];

/// The closed-loop cell spans, by (shard, fault) kind.
const CELL_KINDS: [&str; 4] = [
    "sim.hierarchy.healthy",
    "sim.hierarchy.degraded",
    "sim.hierarchy.write-heavy",
    "sim.hierarchy.write-heavy-degraded",
];
/// Spans that, with [`CELL_KINDS`], are the staged equivalent of a
/// generated `run_sweep`.
const SWEEP_STAGES: [&str; 6] = [
    "workload.generate",
    "workload.records",
    "sim.mss",
    "analysis.analyzer",
    "migrate.prep",
    "migrate.mrc.sweep_grid",
];

/// What a traced run measured.
#[derive(Debug)]
pub struct LedgerResult {
    /// Workload name.
    pub workload: String,
    /// The run's `--seed`.
    pub seed: u64,
    /// Staged passes made; each value is the median over them.
    pub passes: usize,
    /// One entry per [`LAYERS`] row, in order; `None` where the layer is
    /// not on this workload's path.
    pub values: Vec<Option<f64>>,
    /// Staged-vs-fused checks attempted.
    pub attempted: u64,
    /// Checks that disagreed.
    pub failed: u64,
    /// CPU pinning outcome (`svc-loopback` only).
    pub cpu_pinned: Option<bool>,
    /// The spans, for `trace-<workload>.jsonl`.
    pub tracer: Tracer,
}

/// One pass in progress: the tracer, where this pass's spans start,
/// the values it has settled, and the checks it has made.
struct Pass<'t> {
    tr: &'t mut Tracer,
    from: usize,
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Pass<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|l| l.name == name),
            "`{name}` is not in the catalogue"
        );
        self.values.push((name, value));
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced pass: check failed: {}", what());
        }
    }

    /// Self nanoseconds of this pass's spans called `name`.
    fn self_ns(&self, name: &str) -> f64 {
        layer_totals(self.tr.spans(), self.from, name).0 as f64
    }

    /// Summed count of this pass's spans called `name`.
    fn count(&self, name: &str) -> u64 {
        layer_totals(self.tr.spans(), self.from, name).1
    }

    /// Self nanoseconds ÷ count of this pass's spans called `name`.
    fn ns_per_count(&self, name: &str) -> f64 {
        self.self_ns(name) / self.count(name).max(1) as f64
    }

    /// Settles the metric span `stem` is named after (see
    /// [`metric_of`]) = the span's self time ÷ count.
    fn settle(&mut self, stem: &str) {
        let v = self.ns_per_count(stem);
        self.set(metric_of(stem), v);
    }
}

fn capacity(referenced_bytes: u64, fraction: f64) -> u64 {
    ((referenced_bytes as f64 * fraction) as u64).max(1)
}

/// Finds the catalogue name `<stem>.<rest>`; the stems above are
/// prefixes of exactly one metric each.
fn metric_of(stem: &str) -> &'static str {
    let mut hits = LAYERS.iter().filter(|l| {
        l.name
            .strip_prefix(stem)
            .is_some_and(|rest| rest.starts_with('.'))
    });
    let found = hits.next().expect("stem names a catalogue metric").name;
    debug_assert!(hits.next().is_none(), "`{stem}` is ambiguous");
    found
}

/// One generated shard, staged up to its prepared trace.
struct StagedShard {
    prepared: PreparedTrace,
    referenced_bytes: u64,
    records: u64,
    files: u64,
}

/// Generator → records → device simulator → analyzer → prep, each call
/// in its own span, with the seeds `run_sweep` derives for the shard.
fn stage_generated_shard(tr: &mut Tracer, config: &SweepConfig, preset_idx: usize) -> StagedShard {
    let preset = config.presets[preset_idx];
    let generator = preset.workload(config.scales[0], config.workload_seed(preset_idx, 0));
    let workload = tr.span("workload.generate", |_| {
        let w = Workload::generate(&generator);
        let n = w.len() as u64;
        (w, n)
    });
    let files = workload.files().len() as u64;
    let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();
    let records: Vec<TraceRecord> = tr.span("workload.records", |_| {
        let mut v = Vec::with_capacity(workload.len());
        v.extend(workload.into_records());
        let n = v.len() as u64;
        (v, n)
    });
    let sim = MssSimulator::new(SimConfig::default().with_seed(config.sim_seed(preset_idx, 0)));
    let annotated: Vec<TraceRecord> = tr.span("sim.mss", |_| {
        let mut out = Vec::with_capacity(records.len());
        sim.run_streaming(records, |rec| out.push(rec));
        let n = out.len() as u64;
        (out, n)
    });
    tr.span("analysis.analyzer", |_| {
        let mut analyzer = Analyzer::new();
        for rec in &annotated {
            analyzer.observe(rec);
        }
        let seen = std::hint::black_box(analyzer.stats.raw_references);
        (seen, annotated.len() as u64)
    });
    let prepared = tr.span("migrate.prep", |_| {
        let mut prep = TracePrep::new();
        for rec in &annotated {
            prep.observe(rec);
        }
        let p = prep.finish();
        let n = p.len() as u64;
        (p, n)
    });
    StagedShard {
        prepared,
        referenced_bytes,
        records: annotated.len() as u64,
        files,
    }
}

/// The sweep's own open-loop cells, staged: one single-pass curve per
/// policy over the config's capacity grid. Checked against the fused
/// report's cells of the same shard.
fn stage_sweep_curves(
    pass: &mut Pass,
    config: &SweepConfig,
    trace: &PreparedTrace,
    referenced_bytes: u64,
) -> Vec<Vec<f64>> {
    let grid: Vec<u64> = config
        .cache_fractions
        .iter()
        .map(|&f| capacity(referenced_bytes, f))
        .collect();
    let refs = trace.len() as u64;
    config
        .policies
        .iter()
        .map(|policy| {
            pass.tr.span("migrate.mrc.sweep_grid", |_| {
                let curve = sweep_capacities(
                    trace.refs(),
                    policy.build().as_ref(),
                    &grid,
                    &EvalConfig::with_capacity(0),
                );
                let ratios = curve.points.iter().map(|p| p.miss_ratio()).collect();
                (ratios, refs * grid.len() as u64)
            })
        })
        .collect()
}

/// Staged miss ratios (policy-major, then cache) against the fused
/// report's shard (cache-major, then policy).
fn check_open_cells(
    pass: &mut Pass,
    config: &SweepConfig,
    report: &SweepReport,
    shard_idx: usize,
    staged: &[Vec<f64>],
) {
    let cells = &report.shards[shard_idx].cells;
    for (ci, _) in config.cache_fractions.iter().enumerate() {
        for (pi, policy) in config.policies.iter().enumerate() {
            let fused = cells[ci * config.policies.len() + pi].miss_ratio;
            let ours = staged[pi][ci];
            pass.expect(fused.to_bits() == ours.to_bits(), || {
                format!(
                    "shard {shard_idx} {} cache #{ci}: staged miss ratio {ours} != fused {fused}",
                    policy.name()
                )
            });
        }
    }
}

/// The fused call, its JSON, and what it costs beyond its stages
/// (`extra_staged_ns` adds stage time the span names do not cover).
fn fused_sweep(pass: &mut Pass, config: &SweepConfig, extra_staged_ns: f64) -> SweepReport {
    let cells = config.cell_count() as u64;
    let report = pass
        .tr
        .span("core.runner.run_sweep", |_| (run_sweep(config), cells));
    pass.tr.span("core.report.json", |_| {
        (std::hint::black_box(report.to_json().len()), cells)
    });
    let staged: f64 = SWEEP_STAGES
        .iter()
        .chain(&CELL_KINDS)
        .map(|s| pass.self_ns(s))
        .sum::<f64>()
        + extra_staged_ns;
    let fused = pass.self_ns("core.runner.run_sweep");
    pass.set("core.runner.overhead_share", 1.0 - staged / fused.max(1.0));
    let json_ms = pass.self_ns("core.report.json") / 1e6;
    pass.set("core.report.json_ms", json_ms);
    report
}

/// Hit path, per-policy replays, ranking-regime replays and 8-point
/// curves over one prepared trace, for the policies in `only`.
/// Returns the exact LRU miss ratio at 1.5%.
fn stage_replays(
    pass: &mut Pass,
    trace: &PreparedTrace,
    referenced_bytes: u64,
    only: &[PolicyId],
) -> f64 {
    let refs = trace.len() as u64;
    let replay = |policy: PolicyId, cap: u64| {
        trace
            .replay(policy.build().as_ref(), &EvalConfig::with_capacity(cap))
            .stats
    };
    // Four times the referenced bytes: the purge triggers at 95% of
    // capacity, and nothing may ever trigger it here.
    let roomy = referenced_bytes.saturating_mul(4);
    let hit = pass.tr.span("migrate.cache.hit_path", |_| {
        (replay(PolicyId::Lru, roomy), refs)
    });
    pass.expect(hit.evictions == 0, || {
        format!("hit-path replay evicted {} files", hit.evictions)
    });
    let mut lru_miss_ratio = 0.0;
    for (policy, span) in REPLAYS.iter().filter(|(p, _)| only.contains(p)) {
        let cap = capacity(referenced_bytes, REPLAY_FRACTION);
        let stats = pass.tr.span(span, |_| (replay(*policy, cap), refs));
        if *policy == PolicyId::Lru {
            lru_miss_ratio = stats.miss_ratio();
        }
    }
    for (policy, span) in REGIMES.iter().filter(|(p, _)| only.contains(p)) {
        let cap = capacity(referenced_bytes, RANK_FRACTION);
        pass.tr.span(span, |_| {
            let stats = replay(*policy, cap);
            (stats, stats.evictions)
        });
    }
    let grid: Vec<u64> = MRC_GRID
        .iter()
        .map(|&f| capacity(referenced_bytes, f))
        .collect();
    for (policy, span) in MRCS.iter().filter(|(p, _)| only.contains(p)) {
        pass.tr.span(span, |_| {
            let curve = sweep_capacities(
                trace.refs(),
                policy.build().as_ref(),
                &grid,
                &EvalConfig::with_capacity(0),
            );
            let points = std::hint::black_box(curve.points.len());
            (points, refs * grid.len() as u64)
        });
    }
    lru_miss_ratio
}

/// Turns the replay spans of the whole pass (all shards) into metrics.
fn settle_replays(pass: &mut Pass, only: &[PolicyId], lru_miss_ratio: f64) {
    pass.settle("migrate.cache.hit_path");
    for (_, span) in REPLAYS.iter().filter(|(p, _)| only.contains(p)) {
        pass.settle(span);
    }
    // A regime's per-eviction cost: what its 0.5% replay took beyond
    // the eviction-free hit path, over the evictions it made.
    let hit_ns = pass.self_ns("migrate.cache.hit_path");
    for (policy, span) in REGIMES.iter().filter(|(p, _)| only.contains(p)) {
        let evictions = pass.count(span);
        let extra = pass.self_ns(span) - hit_ns;
        pass.set(metric_of(span), extra / evictions.max(1) as f64);
        if *policy == PolicyId::Lru {
            let refs = pass.count("migrate.cache.hit_path");
            pass.set(
                "migrate.cache.evictions_per_kref",
                evictions as f64 * 1e3 / refs.max(1) as f64,
            );
        }
    }
    for (_, span) in MRCS.iter().filter(|(p, _)| only.contains(p)) {
        pass.settle(span);
    }
    pass.set("migrate.cache.miss_ratio", lru_miss_ratio);
}

fn settle_generated_stages(pass: &mut Pass) {
    pass.settle("workload.generate");
    pass.settle("workload.records");
    pass.settle("sim.mss");
    pass.settle("analysis.analyzer");
    pass.settle("migrate.prep");
}

/// `open-large` / `open-small`, staged.
fn open_pass(pass: &mut Pass, config: &SweepConfig) {
    let all: Vec<PolicyId> = REPLAYS.iter().map(|(p, _)| *p).collect();
    let mut staged = Vec::new();
    let mut shapes = Vec::new();
    let mut lru_miss_ratio = 0.0;
    for preset_idx in 0..config.presets.len() {
        let shard = stage_generated_shard(pass.tr, config, preset_idx);
        staged.push(stage_sweep_curves(
            pass,
            config,
            &shard.prepared,
            shard.referenced_bytes,
        ));
        let ratio = stage_replays(pass, &shard.prepared, shard.referenced_bytes, &all);
        if preset_idx == 0 {
            lru_miss_ratio = ratio;
        }
        shapes.push((shard.records, shard.files));
    }
    let report = fused_sweep(pass, config, 0.0);
    for (i, curves) in staged.iter().enumerate() {
        let (records, files) = shapes[i];
        let fused = &report.shards[i];
        pass.expect(fused.records == records && fused.files == files, || {
            format!("shard {i}: staged trace shape differs from the fused one")
        });
        check_open_cells(pass, config, &report, i, curves);
    }
    settle_generated_stages(pass);
    settle_replays(pass, &all, lru_miss_ratio);
}

/// `sim::event` alone: one pop and one push per step at a steady depth
/// of 1000, times drawn like device delays (mostly near, some far).
fn stage_event_queue(pass: &mut Pass) {
    const DEPTH: u64 = 1_000;
    const STEPS: u64 = 2_000_000;
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..DEPTH {
        queue.push((draw() % 600_000) as i64, i as u32);
    }
    pass.tr.span("sim.event", |_| {
        for i in 0..STEPS {
            let (now, _) = queue.pop().expect("steady depth");
            let r = draw();
            let delay = if r % 8 == 0 { r % 600_000 } else { r % 4_000 };
            queue.push(now + delay as i64, i as u32);
        }
        (std::hint::black_box(queue.len()), STEPS)
    });
    pass.settle("sim.event");
}

/// `closed-mixed`, staged: the same shards, then every (fault, policy)
/// cell through the hierarchy engine with the seed `run_sweep` derives.
fn closed_pass(pass: &mut Pass, config: &SweepConfig) {
    stage_event_queue(pass);
    let faults = config.fault_axis();
    let mut staged_cells = Vec::new();
    // (recalls, delayed hits, refs) of healthy ncar cells; flush jobs
    // and refs of healthy write-heavy cells; retries and recalls of
    // degraded ncar cells.
    let (mut recalls, mut delayed, mut healthy_refs) = (0u64, 0u64, 0u64);
    let (mut flush_jobs, mut wh_refs) = (0u64, 0u64);
    let (mut retries, mut degraded_recalls) = (0u64, 0u64);
    let mut p99 = 0.0;
    for preset_idx in 0..config.presets.len() {
        let shard = stage_generated_shard(pass.tr, config, preset_idx);
        let refs = shard.prepared.len() as u64;
        let cap = capacity(shard.referenced_bytes, config.cache_fractions[0]);
        let eval = EvalConfig::with_capacity(cap);
        let ncar = preset_idx == 0;
        for (fault_idx, &scenario) in faults.iter().enumerate() {
            let healthy = scenario == FaultScenarioId::None;
            for (policy_idx, policy) in config.policies.iter().enumerate() {
                let seed =
                    config.cell_fault_seed(preset_idx, 0, 0, policy_idx, fault_idx, scenario);
                let engine = HierarchySimulator::new(SimConfig::default().with_seed(seed));
                let kind = CELL_KINDS[2 * usize::from(!ncar) + usize::from(!healthy)];
                let metrics = pass.tr.span(kind, |_| {
                    let m = engine.run_with_faults(
                        eval.cache,
                        policy.build().as_ref(),
                        shard.prepared.refs(),
                        &scenario.plan(),
                    );
                    (m, refs)
                });
                match (ncar, healthy) {
                    (true, true) => {
                        recalls += metrics.recalls;
                        delayed += metrics.delayed_hits;
                        healthy_refs += refs;
                        if policy_idx == 0 {
                            p99 = metrics.read_wait().quantile(0.99);
                        }
                    }
                    (true, false) => {
                        retries += metrics.fault.map_or(0, |f| f.read_retries);
                        degraded_recalls += metrics.recalls;
                    }
                    (false, true) => {
                        flush_jobs += metrics.flush_jobs;
                        wh_refs += refs;
                    }
                    (false, false) => {}
                }
                let outcome = metrics.latency_outcome();
                staged_cells.push((
                    preset_idx,
                    fault_idx,
                    policy_idx,
                    metrics.cache.miss_ratio(),
                    outcome.p99_read_wait_s,
                ));
                // The open-loop twin of a healthy ncar cell: same trace,
                // policy and capacity through the cache alone.
                if ncar && healthy {
                    pass.tr.span("migrate.cache.open_loop_twin", |_| {
                        let o = shard.prepared.replay(policy.build().as_ref(), &eval);
                        (std::hint::black_box(o.stats.read_misses), refs)
                    });
                }
            }
        }
        if ncar {
            // Of the replay ledger only the hit path is reported here
            // (an empty policy set); it shares its span name with the
            // open workloads so rows compare.
            stage_replays(pass, &shard.prepared, shard.referenced_bytes, &[]);
        }
    }
    // run_sweep's closed cells are these same engine runs.
    let report = fused_sweep(pass, config, 0.0);
    let per_fault = config.cache_fractions.len() * config.policies.len();
    for (preset_idx, fault_idx, policy_idx, miss_ratio, p99_s) in staged_cells {
        let cell = &report.shards[preset_idx].cells[fault_idx * per_fault + policy_idx];
        let fused_p99 = cell.latency.map_or(f64::NAN, |l| l.p99_read_wait_s);
        pass.expect(
            cell.miss_ratio.to_bits() == miss_ratio.to_bits()
                && fused_p99.to_bits() == p99_s.to_bits(),
            || {
                format!(
                    "shard {preset_idx} fault #{fault_idx} policy #{policy_idx}: staged cell \
                     (miss {miss_ratio}, p99 {p99_s}) != fused (miss {}, p99 {fused_p99})",
                    cell.miss_ratio
                )
            },
        );
    }

    settle_generated_stages(pass);
    pass.settle("migrate.cache.hit_path");
    pass.settle("sim.hierarchy.healthy");
    pass.settle("sim.hierarchy.degraded");
    pass.settle("sim.hierarchy.write-heavy");
    let healthy = pass.ns_per_count("sim.hierarchy.healthy");
    let degraded = pass.ns_per_count("sim.hierarchy.degraded");
    let twin = pass.ns_per_count("migrate.cache.open_loop_twin");
    pass.set("sim.hierarchy.device_overhead.ns_per_ref", healthy - twin);
    pass.set("sim.fault.overhead.ns_per_ref", degraded - healthy);
    let per_k = |n: u64, d: u64| n as f64 * 1e3 / d.max(1) as f64;
    pass.set(
        "sim.hierarchy.recalls_per_kref",
        per_k(recalls, healthy_refs),
    );
    pass.set(
        "sim.hierarchy.delayed_hits_per_kref",
        per_k(delayed, healthy_refs),
    );
    pass.set(
        "sim.hierarchy.flush_jobs_per_kref",
        per_k(flush_jobs, wh_refs),
    );
    pass.set(
        "sim.fault.retries_per_krecall",
        per_k(retries, degraded_recalls),
    );
    pass.set("sim.hierarchy.p99_read_wait_s", p99);
}

/// `ingest-msr`, staged: parse from memory, intern, store write, store
/// read, curves — then the fused import and the fused imported sweep.
fn ingest_pass(pass: &mut Pass, seed: u64, scratch: &Scratch, csv: &[u8]) -> Result<(), String> {
    let csv_path = scratch.path().join("trace.csv");
    let records: Vec<TraceRecord> = pass.tr.span("trace.ingest.parse", |_| {
        let mut stream = FormatId::Msr.stream(csv, IngestConfig::default());
        let mut out = Vec::with_capacity(msr_spec(seed).records as usize);
        out.extend(stream.by_ref().filter_map(Result::ok));
        (out, stream.counts.lines)
    });
    let spec = msr_spec(seed);
    pass.expect(records.len() as u64 == spec.records, || {
        format!("parsed {} of {} records", records.len(), spec.records)
    });

    let mut seen = HashSet::new();
    let distinct: Vec<&str> = records
        .iter()
        .map(|r| r.mss_path.as_str())
        .filter(|p| seen.insert(*p))
        .collect();
    let mut table = FileTable::new();
    pass.tr.span("trace.ident.intern.new", |_| {
        for path in &distinct {
            std::hint::black_box(table.intern(path));
        }
        ((), distinct.len() as u64)
    });
    pass.tr.span("trace.ident.intern.hit", |_| {
        for rec in &records {
            std::hint::black_box(table.intern(&rec.mss_path));
        }
        ((), records.len() as u64)
    });
    pass.expect(table.len() == distinct.len(), || {
        "re-interning known paths grew the table".to_string()
    });
    drop(seen);

    let staged_dir = scratch.path().join("staged-store");
    let fused_dir = scratch.path().join("store");
    for dir in [&staged_dir, &fused_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
    }
    let manifest = pass
        .tr
        .span("trace.store.write", |_| {
            let run = || {
                let mut w = StoreWriter::create(&staged_dir)?;
                for rec in &records {
                    w.append(rec)?;
                }
                w.finish()
            };
            (run(), records.len() as u64)
        })
        .map_err(|e| format!("store write: {e}"))?;
    drop(records);

    let refs: Vec<PreparedRef> = pass
        .tr
        .span("trace.store.read", |_| {
            let run = || {
                let reader = StoreReader::open(&staged_dir)?;
                let mut rows = reader.rows(CHUNK_RECORDS)?;
                let mut out = Vec::with_capacity(manifest.records as usize);
                let mut chunk = Vec::new();
                while rows.next_chunk(&mut chunk)? {
                    out.extend(chunk.iter().map(|row| PreparedRef {
                        id: row.file,
                        size: row.size,
                        write: row.write,
                        time: row.start,
                        next_use: row.next_use,
                        device: row.device,
                    }));
                }
                Ok::<_, fmig_trace::TraceError>(out)
            };
            let out = run();
            let n = out.as_ref().map_or(0, |o| o.len() as u64);
            (out, n)
        })
        .map_err(|e| format!("store read: {e}"))?;
    pass.expect(refs.len() as u64 == manifest.records, || {
        format!("read {} of {} rows", refs.len(), manifest.records)
    });

    let config = imported_config(seed, &fused_dir);
    let trace = PreparedTrace::from_refs(refs);
    let staged = stage_sweep_curves(pass, &config, &trace, manifest.referenced_bytes);
    let only = [PolicyId::Lru, PolicyId::Belady];
    let lru_miss_ratio = stage_replays(pass, &trace, manifest.referenced_bytes, &only);
    drop(trace);

    // The fused import, as the end-to-end pass runs it.
    let (import, diagnostics) = pass.tr.span("trace.ingest.import", |_| {
        let out = import_csv(&csv_path, &fused_dir);
        let n = out.as_ref().map_or(0, |(r, _)| r.counts.records);
        (out, n)
    })?;
    pass.expect(diagnostics == 0 && import.manifest == manifest, || {
        "fused import's manifest differs from the staged store's".to_string()
    });
    let import_s = pass.self_ns("trace.ingest.import") / 1e9;
    pass.set(
        "import_records_per_s",
        import.counts.records as f64 / import_s,
    );
    pass.set(
        "store_bytes_per_record",
        dir_bytes(&fused_dir)? as f64 / manifest.records as f64,
    );

    // run_sweep walks the store once per policy; the staged read ran
    // once, so it counts once per policy in the staged sum.
    let store_walks = pass.self_ns("trace.store.read") * config.policies.len() as f64;
    let report = fused_sweep(pass, &config, store_walks);
    check_open_cells(pass, &config, &report, 0, &staged);

    pass.settle("trace.ingest.parse");
    // One layer, two metrics: these two are named by outcome, not by
    // a span stem.
    let (new_ns, hit_ns) = (
        pass.ns_per_count("trace.ident.intern.new"),
        pass.ns_per_count("trace.ident.intern.hit"),
    );
    pass.set("trace.ident.intern.ns_per_new", new_ns);
    pass.set("trace.ident.intern.ns_per_hit", hit_ns);
    pass.settle("trace.store.write");
    pass.settle("trace.store.read");
    settle_replays(pass, &only, lru_miss_ratio);
    Ok(())
}

/// The frames one replay puts on the client↔daemon wire: a request per
/// reference and the `Done` that answers it.
fn replay_frames(refs: &[PreparedRef]) -> (Vec<Frame>, Vec<Frame>) {
    let requests = refs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (req, file, next_use) = (i as u64, r.id.index() as u64, r.next_use);
            let next_use = next_use.unwrap_or(NO_NEXT_USE);
            if r.write {
                Frame::WriteReq {
                    req,
                    file,
                    size: r.size,
                    time_s: r.time,
                    next_use,
                    device: r.device,
                }
            } else {
                Frame::ReadReq {
                    req,
                    file,
                    size: r.size,
                    time_s: r.time,
                    next_use,
                    device: r.device,
                }
            }
        })
        .collect();
    let replies = refs
        .iter()
        .enumerate()
        .map(|(i, r)| Frame::Done {
            req: i as u64,
            wait_vms: (r.size % 400_000) as i64,
            served: if r.write {
                ServedKind::Write
            } else {
                ServedKind::Hit
            },
        })
        .collect();
    (requests, replies)
}

/// What the svc passes share: both cells, the connection count, the
/// pinning handle.
struct SvcContext {
    healthy: SvcCell,
    degraded: SvcCell,
    connections: usize,
    pinning: Pinning,
}

/// `svc-loopback`, staged: the oracle, the plain replay, the proxied
/// replay, the variants, and the codec alone.
fn svc_pass(pass: &mut Pass, ctx: &mut SvcContext, rtt_us: f64) -> Result<(), String> {
    let cell = &ctx.healthy;
    let refs = cell.setup.refs.len() as u64;
    // The in-process twin of the replay: same cell, no sockets.
    let again = pass
        .tr
        .span("serve.oracle", |_| (run_oracle(&cell.setup), refs));
    pass.expect(again == cell.oracle, || {
        "the oracle is not a pure function of its cell".to_string()
    });
    let oracle_ns = pass.ns_per_count("serve.oracle");

    let replay = |pass: &mut Pass,
                  span: &str,
                  setup: &CellSetup,
                  oracle: &HierarchyMetrics,
                  connections: usize,
                  via_proxy: bool|
     -> Result<ServiceRun, String> {
        let run = pass.tr.span(span, |_| {
            let run = run_service(setup, connections, None, via_proxy);
            (run, setup.refs.len() as u64)
        })?;
        let mismatch = oracle_mismatch(&run, oracle);
        pass.expect(mismatch.is_none(), || {
            format!("{span}: {}", mismatch.unwrap_or_default())
        });
        Ok(run)
    };

    let plain = replay(
        pass,
        "serve.replay",
        &cell.setup,
        &cell.oracle,
        ctx.connections,
        false,
    )?;
    let wall_ns = plain.report.wall_s * 1e9 / refs.max(1) as f64;
    let transport = wall_ns - oracle_ns;
    pass.set("serve.transport.ns_per_ref", transport);
    pass.set("serve.rtts_per_ref", transport / (rtt_us * 1e3));
    pass.set(
        "serve.oracle_p99_rel_err",
        p99_rel_err(&plain.report, &cell.oracle),
    );

    let proxied = replay(
        pass,
        "serve.replay.proxied",
        &cell.setup,
        &cell.oracle,
        ctx.connections,
        true,
    )?;
    let (down, up) = proxied.link.expect("proxied run carries link counts");
    let both = down.plus(up);
    let per_ref = |n: u64| n as f64 / refs.max(1) as f64;
    pass.set("serve.link.frames_per_ref", per_ref(both.frames));
    pass.set("serve.link.bytes_per_ref", per_ref(both.bytes));
    pass.set("serve.link.advance_per_ref", per_ref(down.advances));

    let conn1 = replay(
        pass,
        "serve.replay.conn1",
        &cell.setup,
        &cell.oracle,
        1,
        false,
    )?;
    pass.set("serve.conn1.refs_per_s", conn1.report.refs_per_sec);
    let degraded = replay(
        pass,
        "serve.replay.degraded",
        &ctx.degraded.setup,
        &ctx.degraded.oracle,
        ctx.connections,
        false,
    )?;
    pass.set("serve.degraded.refs_per_s", degraded.report.refs_per_sec);
    ctx.pinning.unpin();
    let unpinned = replay(
        pass,
        "serve.replay.unpinned",
        &cell.setup,
        &cell.oracle,
        ctx.connections,
        false,
    );
    ctx.pinning.repin();
    pass.set("serve.unpinned.refs_per_s", unpinned?.report.refs_per_sec);

    let (requests, replies) = replay_frames(&cell.setup.refs);
    let frames: Vec<&Frame> = requests.iter().chain(&replies).collect();
    let bodies: Vec<Vec<u8>> = pass.tr.span("serve.protocol.encode", |_| {
        let bodies = frames.iter().map(|f| f.encode_body()).collect();
        (bodies, frames.len() as u64)
    });
    let decoded = pass.tr.span("serve.protocol.decode", |_| {
        let ok = bodies
            .iter()
            .filter(|b| std::hint::black_box(Frame::decode_body(b)).is_ok())
            .count();
        (ok, bodies.len() as u64)
    });
    pass.expect(decoded == bodies.len(), || {
        format!("{} of {} frames decoded", decoded, bodies.len())
    });
    pass.settle("serve.protocol.encode");
    pass.settle("serve.protocol.decode");
    let request_bytes: usize = bodies[..requests.len()].iter().map(|b| b.len() + 4).sum();
    pass.set(
        "serve.protocol.bytes_per_req_frame",
        request_bytes as f64 / requests.len().max(1) as f64,
    );
    Ok(())
}

/// Runs the traced pass of `workload`: staged passes until `seconds`
/// are spent (at least one), each value the median over the passes.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<LedgerResult, String> {
    let connections = svc_connections();
    let mut svc = (workload == SVC_LOOPBACK).then(|| {
        // Pin before any thread exists so every later one inherits it.
        let pinning = Pinning::pin_to_one_cpu();
        SvcContext {
            healthy: svc_cell(seed, SVC_SCALE, FaultScenarioId::None),
            degraded: svc_cell(seed, SVC_SCALE, FaultScenarioId::DegradedPeak),
            connections,
            pinning,
        }
    });
    let cpu_pinned = svc.as_ref().map(|s| s.pinning.pinned);
    let ingest = if workload == INGEST_MSR {
        let scratch = Scratch::create("trace-ingest")?;
        let csv_path = scratch.path().join("trace.csv");
        msrgen::write_csv(&msr_spec(seed), &csv_path)?;
        let csv = std::fs::read(&csv_path).map_err(|e| format!("reading the CSV back: {e}"))?;
        Some((scratch, csv))
    } else {
        None
    };

    let mut tracer = Tracer::new(workload);
    let mut per_pass: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut pass_times = Vec::new();
    loop {
        let pass_started = Instant::now();
        let stamp = HostStamp::measure()?;
        let from = tracer.spans().len();
        let root = tracer.begin("pass");
        let mut pass = Pass {
            tr: &mut tracer,
            from,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        pass.set("host.calib_ms", stamp.calib_ms);
        pass.set("host.loopback_rtt_us", stamp.loopback_rtt_us);
        match workload {
            OPEN_LARGE | OPEN_SMALL => open_pass(&mut pass, &sweep_config(workload, seed)),
            CLOSED_MIXED => closed_pass(&mut pass, &sweep_config(workload, seed)),
            INGEST_MSR => {
                let (scratch, csv) = ingest.as_ref().expect("ingest set-up ran");
                ingest_pass(&mut pass, seed, scratch, csv)?;
            }
            SVC_LOOPBACK => {
                let ctx = svc.as_mut().expect("svc set-up ran");
                svc_pass(&mut pass, ctx, stamp.loopback_rtt_us)?;
            }
            other => return Err(format!("unknown workload `{other}`")),
        }
        attempted += pass.attempted;
        failed += pass.failed;
        per_pass.push(pass.values);
        tracer.end(root, 1);
        pass_times.push(pass_started.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + stats::median(&pass_times) > seconds {
            break;
        }
    }

    let values = LAYERS
        .iter()
        .map(|layer| {
            let samples: Vec<f64> = per_pass
                .iter()
                .filter_map(|p| p.iter().find(|(n, _)| *n == layer.name).map(|(_, v)| *v))
                .collect();
            stats::summarize(&samples).map(|s| s.median)
        })
        .collect();
    Ok(LedgerResult {
        workload: workload.to_string(),
        seed,
        passes: per_pass.len(),
        values,
        attempted: attempted.max(1),
        failed,
        cpu_pinned,
        tracer,
    })
}
