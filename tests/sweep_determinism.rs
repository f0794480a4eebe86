//! Workspace-level guarantees of the sweep engine and the streaming hot
//! path:
//!
//! * a sweep is a pure function of its matrix — `workers = 1` and
//!   `workers = N` produce byte-identical JSON reports;
//! * every streaming variant (owning workload stream, simulator sink,
//!   incremental policy prep) is observationally equal to its
//!   materializing counterpart;
//! * the path-free id route a sweep shard takes is observationally equal
//!   to the `TraceRecord` route, aliased paths included.

use fmig::{run_sweep, FaultScenarioId, PolicyId, PresetId, SweepConfig};
use std::collections::HashSet;

use fmig_analysis::{FileTracker, IdFileTracker, LatencyAnalysis};
use fmig_migrate::eval::{evaluate_policies, EvalConfig, IdTracePrep, TracePrep};
use fmig_migrate::policy::standard_suite;
use fmig_sim::{MssSimulator, SimConfig};
use fmig_trace::{TraceRecord, TraceStats};
use fmig_workload::{Workload, WorkloadConfig};

fn sweep_matrix() -> SweepConfig {
    SweepConfig {
        policies: vec![PolicyId::Stp14, PolicyId::Lru, PolicyId::Belady],
        presets: vec![PresetId::Ncar, PresetId::ReadHot],
        scales: vec![0.002],
        cache_fractions: vec![0.01, 0.05],
        base_seed: 0xDE7E_2217,
        simulate_devices: true,
        latency: false,
        faults: vec![FaultScenarioId::None],
        workers: 1,
        trace_store: None,
    }
}

#[test]
fn sweep_report_is_byte_identical_across_worker_counts() {
    let serial = sweep_matrix();
    let mut pooled = serial.clone();
    pooled.workers = 4;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    assert_eq!(a, b, "worker count leaked into the report");
    // And the report is non-trivial: every shard carries its cells.
    assert!(a.contains("\"shards\""));
    assert!(a.contains("\"winners\""));
    assert!(a.contains("stp1.4"));
}

#[test]
fn latency_sweep_report_is_byte_identical_across_worker_counts() {
    let mut serial = sweep_matrix();
    serial.latency = true;
    let mut pooled = serial.clone();
    pooled.workers = 8;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    assert_eq!(a, b, "worker count leaked into the latency report");
    // The closed-loop cells actually measured something.
    assert!(a.contains("\"latency_mode\": true"));
    assert!(a.contains("\"mean_read_wait_s\""));
    assert!(a.contains("\"by_p99_wait\": \""));
    assert!(!a.contains("\"latency\": null"));
}

#[test]
fn latency_aware_cells_are_byte_identical_across_worker_counts() {
    // The latency-aware policies fold the engine's recall-wait EWMAs
    // into their victim scores, so this pins the whole feedback loop —
    // measurement, publication, and eviction — as a pure function of
    // the matrix, independent of worker scheduling.
    let serial = SweepConfig {
        policies: vec![PolicyId::Lru, PolicyId::LruMad, PolicyId::StpLat],
        presets: vec![PresetId::Ncar, PresetId::ReadHot],
        scales: vec![0.002],
        cache_fractions: vec![0.01],
        base_seed: 0xDE7E_2217,
        simulate_devices: true,
        latency: true,
        faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
        workers: 1,
        trace_store: None,
    };
    let mut pooled = serial.clone();
    pooled.workers = 8;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    assert_eq!(a, b, "worker count leaked into latency-aware cells");
    assert!(a.contains("\"lru-mad\""));
    assert!(a.contains("\"stp-lat\""));
    assert!(a.contains("\"by_p99_wait\": \""));
}

#[test]
fn closed_loop_cells_reproduce_open_loop_miss_ratios() {
    // Holds because sweep_matrix() is all latency-blind policies; the
    // latency-aware ones evict against live feedback and are exempt
    // from this identity by contract (see docs/policy-contract.md).
    let open = sweep_matrix();
    let mut closed = open.clone();
    closed.latency = true;
    let a = run_sweep(&open);
    let b = run_sweep(&closed);
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        for (ca, cb) in sa.cells.iter().zip(&sb.cells) {
            assert_eq!(ca.policy, cb.policy);
            assert_eq!(
                ca.miss_ratio,
                cb.miss_ratio,
                "{} diverged on {}/{}",
                ca.policy.name(),
                sa.preset.name(),
                sa.scale
            );
            assert_eq!(ca.byte_miss_ratio, cb.byte_miss_ratio);
            let lat = cb.latency.expect("closed-loop cell");
            assert!(lat.mean_read_wait_s > 0.0);
            assert!(lat.p99_read_wait_s >= lat.mean_read_wait_s);
        }
    }
}

#[test]
fn sweep_shards_do_not_share_rng_streams() {
    let report = run_sweep(&sweep_matrix());
    assert_eq!(report.shards.len(), 2);
    let [a, b] = &report.shards[..] else {
        unreachable!()
    };
    assert_ne!(a.workload_seed, b.workload_seed);
    assert_ne!(a.sim_seed, b.sim_seed);
    assert_ne!(a.workload_seed, a.sim_seed);
    // Distinct streams generate distinct traces.
    assert_ne!((a.records, a.files), (b.records, b.files));
}

#[test]
fn workload_streaming_matches_materialized_records() {
    let config = WorkloadConfig {
        scale: 0.002,
        seed: 23,
        ..WorkloadConfig::default()
    };
    let workload = Workload::generate(&config);
    let materialized: Vec<TraceRecord> = workload.records().collect();
    let streamed: Vec<TraceRecord> = Workload::generate(&config).into_records().collect();
    assert_eq!(materialized, streamed);
}

#[test]
fn simulator_streaming_matches_batch_run() {
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 31,
        ..WorkloadConfig::default()
    });
    let sim = MssSimulator::new(SimConfig::default().with_seed(77));
    let batch = sim.run(workload.records());
    let mut streamed = Vec::new();
    let metrics = sim.run_streaming(workload.records(), |rec| streamed.push(rec));
    assert_eq!(batch.records, streamed);
    assert_eq!(batch.metrics, metrics);
    assert!(metrics.requests > 0);
}

#[test]
fn policy_prep_streaming_matches_batch_evaluation() {
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 41,
        ..WorkloadConfig::default()
    });
    let records: Vec<TraceRecord> = workload.records().collect();
    let total: u64 = workload.files().iter().map(|f| f.size).sum();
    let config = EvalConfig::with_capacity((total as f64 * 0.015) as u64);
    let suite = standard_suite();

    let batch = evaluate_policies(&records, &suite, &config);
    // Stream the records one at a time, as a sweep cell's sink does.
    let mut prep = TracePrep::new();
    for rec in workload.records() {
        prep.observe(&rec);
    }
    let streamed = prep.finish().evaluate(&suite, &config);
    assert_eq!(batch, streamed);
}

/// Runs one workload down both routes — rendered `TraceRecord`s into
/// the path-keyed accumulators, `IdRecord`s into the id-keyed ones —
/// and holds every output a sweep shard reads to equality. Returns how
/// many `FileMeta` entries alias an earlier entry's path.
fn assert_id_route_equals_string_route(config: &WorkloadConfig) -> usize {
    let workload = Workload::generate(config);
    let paths: HashSet<String> = (0..workload.files().len() as u32)
        .map(|f| workload.file_path(f))
        .collect();
    let aliased = workload.files().len() - paths.len();
    let sim = MssSimulator::new(SimConfig::default().with_seed(77));

    let mut s_stats = TraceStats::new();
    let mut s_files = FileTracker::new();
    let mut s_latency = LatencyAnalysis::new();
    let mut s_prep = TracePrep::new();
    let mut s_waits = Vec::new();
    let s_metrics = sim.run_streaming(workload.clone().into_records(), |rec| {
        s_waits.push(rec.startup_latency_s);
        s_stats.observe(&rec);
        if rec.is_ok() {
            s_files.observe(&rec);
        }
        s_latency.observe(&rec);
        s_prep.observe(&rec);
    });

    let mut i_stats = TraceStats::new();
    let mut i_files = IdFileTracker::new();
    let mut i_latency = LatencyAnalysis::new();
    let mut i_prep = IdTracePrep::new();
    let mut i_waits = Vec::new();
    let i_metrics = sim.run_streaming(workload.into_requests(), |rec| {
        i_waits.push(rec.startup_latency_s);
        i_stats.observe(&rec);
        i_files.observe(rec.file, &rec);
        i_latency.observe(&rec);
        i_prep.observe(rec.file, &rec);
    });

    assert!(s_metrics.requests > 0 && s_stats.total_errors() > 0);
    assert_eq!(s_metrics, i_metrics);
    assert_eq!(s_waits, i_waits);
    assert_eq!(s_stats, i_stats);
    assert_eq!(s_files.file_count(), i_files.file_count());
    assert_eq!(s_files.total_bytes(), i_files.total_bytes());
    assert_eq!(s_files.never_read(), i_files.never_read());
    assert_eq!(s_files.accessed_once(), i_files.accessed_once());
    assert_eq!(
        s_files.repeat_within_8h_fraction(),
        i_files.repeat_within_8h_fraction()
    );
    assert_eq!(s_files.intervals(), i_files.intervals());
    assert_eq!(s_latency, i_latency);
    let (s_trace, i_trace) = (s_prep.finish(), i_prep.finish());
    assert_eq!(s_trace.file_count(), i_trace.file_count());
    assert_eq!(s_trace.refs(), i_trace.refs());
    aliased
}

#[test]
fn id_route_matches_string_route_on_an_aliasing_namespace() {
    // At this scale two namespace nodes under one parent render the
    // same directory path, so several `FileMeta` entries are one file.
    // Taking identity from the `files` index splits those files (file
    // counts, dedup windows and next-use times move); taking dense ids
    // from generator order instead of first appearance moves every
    // `PreparedRef::id`.
    let aliased = assert_id_route_equals_string_route(&WorkloadConfig {
        scale: 0.03,
        seed: 3,
        ..WorkloadConfig::default()
    });
    assert!(aliased > 0, "this config no longer aliases any path");
    // And the common case, where every entry is its own file.
    let aliased = assert_id_route_equals_string_route(&WorkloadConfig {
        scale: 0.002,
        seed: 23,
        ..WorkloadConfig::default()
    });
    assert_eq!(aliased, 0);
}

#[test]
fn distinct_sim_seeds_give_distinct_latency_noise() {
    // The satellite fix: two cells must be able to thread distinct seeds
    // through SimConfig instead of silently sharing one stream.
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 53,
        ..WorkloadConfig::default()
    });
    let base = SimConfig::default();
    let a = MssSimulator::new(base.clone().with_seed(1)).run(workload.records());
    let b = MssSimulator::new(base.clone().with_seed(2)).run(workload.records());
    let same = MssSimulator::new(base.with_seed(1)).run(workload.records());
    let lat = |run: &fmig_sim::SimRun| -> Vec<u32> {
        run.records.iter().map(|r| r.startup_latency_s).collect()
    };
    assert_eq!(lat(&a), lat(&same), "equal seeds must replay identically");
    assert_ne!(lat(&a), lat(&b), "distinct seeds must decorrelate");
}
