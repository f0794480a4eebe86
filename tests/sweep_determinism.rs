//! Workspace-level guarantees of the sweep engine and the streaming hot
//! path:
//!
//! * a sweep is a pure function of its matrix — `workers = 1` and
//!   `workers = N` produce byte-identical JSON reports;
//! * the owning workload stream renders what the borrowing one does;
//! * the path-free id route a study and a sweep shard take is
//!   observationally equal to the `TraceRecord` route, aliased paths
//!   included.

use fmig::{run_sweep, FaultScenarioId, PolicyId, PresetId, SweepConfig};
use std::collections::HashSet;

use fmig_analysis::Analyzer;
use fmig_migrate::eval::{IdTracePrep, TracePrep};
use fmig_sim::{MssSimulator, SimConfig};
use fmig_trace::{Direction, Request, TraceRecord};
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

/// Runs one workload down both routes — rendered `TraceRecord`s into
/// the path-keyed entries (`Analyzer::observe`, `TracePrep`),
/// `IdRecord`s into the slot-keyed ones, as a study's pass feeds them —
/// and holds every analysis, the prepared trace and the annotated
/// Table 2 records to equality. Returns how many `FileMeta` entries
/// alias an earlier entry's path.
fn assert_id_route_equals_string_route(config: &WorkloadConfig) -> usize {
    let workload = Workload::generate(config);
    let paths: HashSet<String> = (0..workload.files().len() as u32)
        .map(|f| workload.file_path(f))
        .collect();
    let aliased = workload.files().len() - paths.len();
    let sim_config = SimConfig::default().with_seed(77);
    let sim = MssSimulator::new(sim_config.clone());

    let mut s = Analyzer::new();
    let mut s_prep = TracePrep::new();
    let mut s_records = Vec::new();
    let s_metrics = sim.run_streaming(workload.clone().into_records(), |rec| {
        s.observe(&rec);
        s_prep.observe(&rec);
        s_records.push(rec);
    });

    let mut i = Analyzer::new();
    let mut i_prep = IdTracePrep::new();
    let mut i_waits = Vec::new();
    let mut rendered = 0;
    let i_metrics = sim.run_streaming(workload.requests(), |rec| {
        i.observe_file(rec.file, &rec, |file| {
            rendered += 1;
            workload.file_path(file)
        });
        i_prep.observe(rec.file, &rec);
        i_waits.push(rec.startup_latency_s);
    });

    assert!(s_metrics.requests > 0 && s.stats.total_errors() > 0);
    assert_eq!(s_metrics, i_metrics);
    assert_eq!(s.stats, i.stats);
    assert_eq!(s.hourly, i.hourly);
    assert_eq!(s.weekly, i.weekly);
    assert_eq!(s.weeks, i.weeks);
    assert_eq!(s.gaps, i.gaps);
    assert_eq!(s.dynamic_sizes, i.dynamic_sizes);
    assert_eq!(s.latency, i.latency);
    // The census numbers its slots differently on each route, so every
    // aggregate it reports is compared instead.
    let (sf, f) = (&s.files, &i.files);
    assert_eq!(sf.file_count(), f.file_count());
    assert_eq!(f.file_count(), paths.len().min(f.file_count()));
    assert_eq!(rendered, f.file_count(), "one path rendered per file");
    assert_eq!(sf.total_bytes(), f.total_bytes());
    assert_eq!(sf.never_read(), f.never_read());
    assert_eq!(sf.never_written(), f.never_written());
    assert_eq!(sf.accessed_once(), f.accessed_once());
    assert_eq!(sf.write_once_never_read(), f.write_once_never_read());
    assert_eq!(sf.median_references(), f.median_references());
    assert_eq!(sf.reference_count_cdf(), f.reference_count_cdf());
    for dir in [Direction::Read, Direction::Write] {
        assert_eq!(sf.direction_count_cdf(dir), f.direction_count_cdf(dir));
    }
    assert_eq!(sf.repeats_within(), f.repeats_within());
    assert_eq!(sf.intervals(), f.intervals());
    assert_eq!(sf.size_histogram(), f.size_histogram());
    // The directory census: every count, every curve.
    assert_eq!(s.dirs, i.dirs);
    assert_eq!(s.dirs.file_count(), f.file_count());
    assert_eq!(s.dirs.dir_count(), i.dirs.dir_count());
    assert_eq!(s.dirs.largest_dir(), i.dirs.largest_dir());
    assert_eq!(s.dirs.max_depth(), i.dirs.max_depth());
    assert_eq!(s.dirs.curves(), i.dirs.curves());
    let (s_trace, i_trace) = (s_prep.finish(), i_prep.finish());
    assert_eq!(s_trace.file_count(), i_trace.file_count());
    assert_eq!(s_trace.refs(), i_trace.refs());
    // Table 2's records: rendered on demand and annotated with the id
    // route's latencies and the simulator's transfer time, they are the
    // string route's annotated records.
    assert_eq!(i_waits.len(), s_records.len());
    let sample: Vec<TraceRecord> = workload
        .records()
        .zip(&i_waits)
        .map(|(mut rec, &wait)| {
            let transfer_ms = sim_config.transfer_ms(&rec);
            rec.annotate(wait, transfer_ms);
            rec
        })
        .collect();
    assert_eq!(sample, s_records);
    aliased
}

#[test]
fn id_route_matches_string_route_on_an_aliasing_namespace() {
    // At this scale two namespace nodes under one parent render the
    // same directory path, so several `FileMeta` entries are one file.
    // Taking identity from the `files` index splits those files (file
    // counts, dedup windows, directory sizes and next-use times move);
    // taking dense ids from generator order instead of first appearance
    // moves every `PreparedRef::id`.
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
    let lat = |seed: u64| -> Vec<u32> {
        let mut waits = Vec::new();
        MssSimulator::new(SimConfig::default().with_seed(seed))
            .run_streaming(workload.requests(), |rec| waits.push(rec.startup_latency_s));
        waits
    };
    let (a, b, same) = (lat(1), lat(2), lat(1));
    assert_eq!(a, same, "equal seeds must replay identically");
    assert_ne!(a, b, "distinct seeds must decorrelate");
}
