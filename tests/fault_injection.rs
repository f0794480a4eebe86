//! Workspace-level guarantees of the fault-injection subsystem:
//!
//! * fault-enabled sweeps are **deterministic** — byte-identical JSON
//!   across worker counts and across repeated runs of one seed;
//! * the zero-fault axis is **bit-identical** to the pre-fault engine
//!   (the golden fixture in `tests/golden_report.rs` pins the bytes;
//!   here we pin the cell-by-cell equivalence against a fresh run);
//! * faults move *time*, never *decisions*: every fault cell's miss
//!   ratios equal its healthy twin's, exactly;
//! * the degraded measurements feed the sweep report's robustness
//!   winner end to end.

use fmig::{run_sweep, FaultScenarioId, PolicyId, PresetId, SweepConfig};
use proptest::prelude::*;

fn fault_matrix() -> SweepConfig {
    SweepConfig {
        policies: vec![PolicyId::Stp14, PolicyId::Lru],
        presets: vec![PresetId::Ncar, PresetId::WriteHeavy],
        scales: vec![0.002],
        cache_fractions: vec![0.01],
        base_seed: 0xFA_017,
        simulate_devices: false,
        latency: false,
        faults: vec![
            FaultScenarioId::None,
            FaultScenarioId::FlakyReads,
            FaultScenarioId::DegradedPeak,
        ],
        workers: 1,
        trace_store: None,
    }
}

#[test]
fn fault_sweep_is_byte_identical_across_worker_counts() {
    let serial = fault_matrix();
    let mut pooled = serial.clone();
    pooled.workers = 8;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    assert_eq!(a, b, "worker count leaked into the fault report");
    assert!(a.contains("\"fault_scenarios\": [\"none\", \"flaky-reads\", \"degraded-peak\"]"));
    assert!(a.contains("\"degraded\": {\"read_retries\":"));
    assert!(a.contains("\"by_degraded_p99\": \""));
}

#[test]
fn fault_sweep_replays_identically_for_one_seed_and_moves_for_another() {
    let config = fault_matrix();
    let a = run_sweep(&config).to_json();
    let b = run_sweep(&config).to_json();
    assert_eq!(a, b, "same seed must produce byte-identical reports");
    let mut reseeded = config.clone();
    reseeded.base_seed ^= 0xDEAD_BEEF;
    let c = run_sweep(&reseeded).to_json();
    assert_ne!(a, c, "distinct seeds must decorrelate the faults");
}

#[test]
fn fault_cells_preserve_healthy_miss_ratios_cell_by_cell() {
    let report = run_sweep(&fault_matrix());
    for shard in &report.shards {
        let healthy: Vec<_> = shard
            .cells
            .iter()
            .filter(|c| c.fault == FaultScenarioId::None)
            .collect();
        assert!(!healthy.is_empty());
        let mut fault_cells = 0;
        for cell in shard
            .cells
            .iter()
            .filter(|c| c.fault != FaultScenarioId::None)
        {
            fault_cells += 1;
            let twin = healthy
                .iter()
                .find(|h| h.policy == cell.policy && h.cache_fraction == cell.cache_fraction)
                .expect("healthy twin");
            assert_eq!(twin.miss_ratio, cell.miss_ratio, "{}", cell.policy.name());
            assert_eq!(twin.byte_miss_ratio, cell.byte_miss_ratio);
            // The degraded world is measurably worse than a healthy
            // closed-loop run would be, not just differently seeded:
            // person-minutes derive from the measured (longer) waits.
            let lat = cell.latency.expect("fault cells are closed-loop");
            assert!(lat.mean_miss_wait_s > 0.0);
            assert!(lat.degraded.is_some(), "fault cells carry attribution");
        }
        assert!(fault_cells > 0, "matrix must expand the fault axis");
    }
}

#[test]
fn zero_fault_axis_equals_an_axis_free_run_cell_by_cell() {
    // The [None] axis must not merely be byte-similar: every cell of a
    // run with the fault axis pinned to [None] equals the corresponding
    // cell of the same matrix run with an empty axis (the fallback),
    // in both open-loop and latency mode.
    for latency in [false, true] {
        let mut pinned = fault_matrix();
        pinned.latency = latency;
        pinned.faults = vec![FaultScenarioId::None];
        let mut empty = pinned.clone();
        empty.faults = vec![];
        let a = run_sweep(&pinned);
        let b = run_sweep(&empty);
        assert_eq!(a.to_json(), b.to_json());
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.cells, sb.cells);
        }
    }
}

#[test]
fn degraded_measurements_feed_the_availability_report() {
    let mut config = fault_matrix();
    config.presets = vec![PresetId::Ncar];
    config.latency = true; // healthy cells measure too
    let report = run_sweep(&config);
    let cells = &report.shards[0].cells;
    // Every fault cell's attribution reaches the rendered report.
    let text = report.render();
    assert!(text.contains("[degraded-peak: retries "));
    assert!(text.contains(" | degraded-p99 "));
    for cell in cells.iter().filter(|c| c.fault != FaultScenarioId::None) {
        let d = cell.latency.and_then(|l| l.degraded);
        assert!(d.is_some(), "{} lacks attribution", cell.fault.name());
    }
    // The winner's by_degraded_p99 column must agree with the same
    // worst-case-across-scenarios ranking computed independently from
    // the cells (first-seen order breaks ties, matching the matrix
    // policy order the winner uses).
    let p99 = |c: &fmig::CellResult| c.latency.expect("latency mode").p99_read_wait_s;
    let faulty = || cells.iter().filter(|c| c.fault != FaultScenarioId::None);
    let mut expected: Option<(PolicyId, f64)> = None;
    let mut seen: Vec<PolicyId> = Vec::new();
    for cell in faulty() {
        if seen.contains(&cell.policy) {
            continue;
        }
        seen.push(cell.policy);
        let worst = faulty()
            .filter(|c| c.policy == cell.policy)
            .map(p99)
            .fold(f64::NEG_INFINITY, f64::max);
        match expected {
            Some((_, best)) if best <= worst => {}
            _ => expected = Some((cell.policy, worst)),
        }
    }
    let expected = expected.expect("fault cells exist").0;
    let winner = report.winners[0]
        .by_degraded_p99
        .expect("fault matrix fills the robustness column");
    assert_eq!(winner, expected, "winner column diverged from cells");
}

#[test]
fn retry_counters_pin_the_failed_retried_completed_recall_path() {
    use fmig_migrate::cache::{CacheConfig, DiskCache, ReadResult};
    use fmig_migrate::policy::Lru;

    // Cache level: a recall that fails twice before completing bumps
    // the retry counter on every failure — and ONLY that counter. The
    // CacheStats block stays byte-identical to the healthy twin where
    // the same recall completes first try, which is the invariant the
    // fault sweeps above pin at matrix level (faults move time, never
    // decisions) and the live daemon relies on when it reports retries
    // next to oracle-exact miss ratios.
    let lru = Lru;
    let mut degraded = DiskCache::new(CacheConfig::with_capacity(1 << 30), &lru);
    let mut healthy = DiskCache::new(CacheConfig::with_capacity(1 << 30), &lru);
    for (cache, failures) in [(&mut healthy, 0), (&mut degraded, 2)] {
        assert_eq!(
            cache.read_with(7, 1 << 20, 100, None, &mut |_| {}),
            ReadResult::Miss
        );
        for _ in 0..failures {
            assert!(cache.fetch_failed(7), "failure re-arms the fetch");
        }
        assert!(cache.fetch_complete(7));
        assert_eq!(
            cache.read_with(7, 1 << 20, 200, None, &mut |_| {}),
            ReadResult::Hit
        );
    }
    assert_eq!(degraded.fetch_retries(), 2);
    assert_eq!(healthy.fetch_retries(), 0);
    assert_eq!(
        healthy.stats(),
        degraded.stats(),
        "retries must never leak into CacheStats"
    );

    // Engine level: the closed-loop simulator's degraded attribution
    // and the cache-level counter are the same number — the engine
    // fails a fetch exactly when a tape read errors — so a live run
    // surfacing `fetch_retries` reports the same number as simulated
    // `DegradedOutcome::read_retries`.
    let mut config = fault_matrix();
    config.presets = vec![PresetId::Ncar];
    config.faults = vec![FaultScenarioId::FlakyReads];
    config.latency = true;
    let report = run_sweep(&config);
    let mut saw_retries = false;
    for cell in &report.shards[0].cells {
        let lat = cell.latency.expect("latency mode measures every cell");
        let d = lat.degraded.expect("flaky cells carry attribution");
        saw_retries |= d.read_retries > 0;
    }
    assert!(saw_retries, "flaky-reads matrix must exercise retries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Satellite acceptance: same seed ⇒ byte-identical fault report;
    /// the healthy cells inside a fault-enabled sweep equal the cells
    /// of a fault-free sweep of the same matrix, cell by cell.
    #[test]
    fn fault_reports_are_pure_functions_of_the_seed(seed in 0u64..200) {
        let mut config = fault_matrix();
        config.presets = vec![PresetId::Ncar];
        config.faults = vec![FaultScenarioId::None, FaultScenarioId::DriveCrunch];
        config.base_seed = seed;
        let a = run_sweep(&config);
        let b = run_sweep(&config);
        prop_assert_eq!(a.to_json(), b.to_json());
        // The healthy half of the axis is untouched by the fault half.
        let mut healthy_only = config.clone();
        healthy_only.faults = vec![FaultScenarioId::None];
        let c = run_sweep(&healthy_only);
        let healthy_cells: Vec<_> = a.shards[0]
            .cells
            .iter()
            .filter(|cell| cell.fault == FaultScenarioId::None)
            .cloned()
            .collect();
        prop_assert_eq!(healthy_cells, c.shards[0].cells.clone());
    }
}
