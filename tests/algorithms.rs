//! Algorithmic invariants across crates: policy orderings, Belady
//! optimality, dividing-point monotonicity, and
//! the generator's sequential read sessions.

use std::collections::HashMap;

use fmig_migrate::dividing::DividingPointStudy;
use fmig_migrate::eval::{EvalConfig, IdTracePrep, PreparedTrace};
use fmig_migrate::policy::{standard_suite, Belady, MigrationPolicy};
use fmig_trace::time::HOUR;
use fmig_workload::{EventKind, Workload, WorkloadConfig};

fn workload() -> Workload {
    Workload::generate(&WorkloadConfig {
        scale: 0.004,
        seed: 23,
        ..WorkloadConfig::default()
    })
}

/// The workload's requests prepared for replay, and their total size.
fn trace() -> (PreparedTrace, u64) {
    let workload = workload();
    let mut prep = IdTracePrep::new();
    let mut total = 0;
    for rec in workload.requests() {
        prep.observe(rec.file, &rec);
        total += rec.file_size;
    }
    (prep.finish(), total)
}

#[test]
fn belady_never_loses_on_the_synthetic_trace() {
    let (trace, total) = trace();
    let mut policies: Vec<Box<dyn MigrationPolicy>> = vec![Box::new(Belady)];
    policies.extend(standard_suite());
    let config = EvalConfig::with_capacity((total as f64 * 0.01) as u64);
    let outcomes = trace.evaluate(&policies, &config);
    let belady = outcomes[0].miss_ratio;
    for o in &outcomes[1..] {
        assert!(
            belady <= o.miss_ratio + 1e-9,
            "Belady {belady} beaten by {} at {}",
            o.name,
            o.miss_ratio
        );
    }
}

#[test]
fn space_time_policies_beat_naive_ones_on_ncar_traffic() {
    // The Smith/Lawrie result: space-time-product style policies beat
    // pure-size and random orderings on supercomputer reference streams.
    let (trace, total) = trace();
    let suite = standard_suite();
    let config = EvalConfig::with_capacity((total as f64 * 0.015) as u64);
    let outcomes = trace.evaluate(&suite, &config);
    let get = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .miss_ratio
    };
    let stp = get("STP(1.4)");
    assert!(stp < get("Random"), "STP {stp} vs random");
    assert!(stp < get("Smallest-first"), "STP {stp} vs smallest-first");
    assert!(stp < get("Largest-first"), "STP {stp} vs largest-first");
    assert!(stp <= get("FIFO") + 0.02, "STP {stp} vs FIFO");
}

#[test]
fn dividing_point_response_is_monotone_while_feasible() {
    let workload = workload();
    let static_sizes: Vec<u64> = workload.files().iter().map(|f| f.size).collect();
    let accesses: Vec<u64> = workload
        .requests()
        .filter(|r| r.error.is_none())
        .map(|r| r.file_size)
        .collect();
    let study = DividingPointStudy::ncar();
    let thresholds: Vec<u64> = (0..=20).map(|i| i * 10_000_000).collect();
    let rows = study.sweep(&static_sizes, &accesses, &thresholds);
    for w in rows.windows(2) {
        assert!(
            w[1].mean_response_s <= w[0].mean_response_s + 1e-9,
            "mean response must fall as the threshold rises"
        );
        assert!(w[1].disk_resident_bytes >= w[0].disk_resident_bytes);
    }
}

#[test]
fn prefetcher_sees_the_sequential_sessions() {
    let workload = workload();
    // Sessions step through dataset files in order (day 1, then day 2),
    // so a healthy share of reads follows a read of the preceding file
    // of the same dataset within 24 h: what a sequential prefetcher
    // would have staged.
    let files = workload.files();
    let mut last_read: HashMap<(u32, u32), i64> = HashMap::new();
    let (mut reads, mut sequential) = (0u32, 0u32);
    for ev in workload.events() {
        if ev.err != 0 || ev.kind != EventKind::Read {
            continue;
        }
        let meta = files[ev.file as usize];
        reads += 1;
        if let Some(prev) = meta.name_seq.checked_sub(1) {
            if last_read
                .get(&(meta.dir, prev))
                .is_some_and(|&t| ev.time - t <= 24 * HOUR)
            {
                sequential += 1;
            }
        }
        last_read.insert((meta.dir, meta.name_seq), ev.time);
    }
    assert!(reads > 0);
    let hit = f64::from(sequential) / f64::from(reads);
    assert!(hit > 0.18, "sequential predictability {hit}");
}
