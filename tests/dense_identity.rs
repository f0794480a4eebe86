//! Dense-identity equivalence: the [`fmig_trace::FileId`] / arena
//! replay path (`TracePrep` → `DiskCache`) must be **bit-identical** to
//! the naive cache specification (`tests/spec/mod.rs`) fed the same
//! records.
//!
//! The contract is that interning assigns ids in first-appearance
//! order, that the reverse next-use sweep finds what a forward scan
//! finds, and that every downstream tie-break keys on the same raw id —
//! so arena indexing, the eviction indexes and the prepared trace must
//! change *nothing* observable: not one miss, not one victim, not one
//! byte of the report. These tests replay the same traces through both
//! and compare stats (every float a sweep cell renders is a function of
//! them) and full op streams (which embed the victim sequence).

use proptest::prelude::*;

use fmig::PresetId;
use fmig_migrate::cache::{CacheConfig, CacheOp, CacheStats, DiskCache, ReadResult};
use fmig_migrate::eval::{prepare, EvalConfig};
use fmig_migrate::policy::{standard_suite, Belady, Lru, MigrationPolicy, Stp};
use fmig_trace::time::TRACE_EPOCH;
use fmig_trace::{Endpoint, TraceRecord};
use fmig_workload::Workload;

mod spec;
use spec::{spec_refs, spec_replay};

/// Open-loop dense replay with the op stream captured — the live
/// pipeline (`TracePrep` → `DiskCache`) making exactly the decisions
/// `PreparedTrace::replay` makes, plus visibility into every victim.
fn dense_replay(
    records: &[TraceRecord],
    policy: &dyn MigrationPolicy,
    config: &EvalConfig,
) -> (CacheStats, Vec<CacheOp>) {
    let prepared = prepare(records.iter());
    let mut cache = DiskCache::new(config.cache, policy);
    cache.set_est_miss_wait_s(config.wait_s_per_miss);
    let mut ops = Vec::new();
    for r in prepared.refs() {
        if r.write {
            cache.write_with(r.id, r.size, r.time, r.next_use, &mut |op| ops.push(op));
        } else if cache.read_with(r.id, r.size, r.time, r.next_use, &mut |op| ops.push(op))
            == ReadResult::Miss
        {
            cache.fetch_complete(r.id);
        }
    }
    (*cache.stats(), ops)
}

fn eval_config(capacity: u64) -> EvalConfig {
    EvalConfig {
        cache: CacheConfig::with_capacity(capacity),
        wait_s_per_miss: 58.0,
        trace_days: 7.0,
    }
}

/// The satellite requirement verbatim: on the tiny sweep preset, every
/// shipped policy replays bit-identically through the dense path and
/// the specification — counters (hence miss ratios and the rendered
/// report) and victim sequence (op stream).
#[test]
fn tiny_preset_replay_is_bit_identical_across_all_shipped_policies() {
    let workload = Workload::generate(&PresetId::Ncar.workload(0.002, 0x1D_EA_11));
    let records: Vec<TraceRecord> = workload.into_records().collect();
    assert!(
        records.len() > 1_000,
        "tiny preset produced a trivial trace"
    );
    let referenced: u64 = records.iter().map(|r| r.file_size.max(1)).sum();
    // Small enough to force heavy purge traffic on every policy.
    let config = eval_config((referenced / 50).max(1));
    let refs = spec_refs(&records);

    for policy in standard_suite() {
        let (dense_stats, dense_ops) = dense_replay(&records, policy.as_ref(), &config);
        let (spec_stats, spec_ops) = spec_replay(&refs, policy.as_ref(), &config);
        assert_eq!(
            dense_stats,
            spec_stats,
            "stats diverged under {}",
            policy.name()
        );
        assert!(
            dense_stats.evictions > 0,
            "{} never purged; the equivalence check is vacuous",
            policy.name()
        );
        assert_eq!(
            dense_ops,
            spec_ops,
            "op stream (victim sequence) diverged under {}",
            policy.name()
        );
    }
}

prop_compose! {
    fn arb_ref()(
        write in any::<bool>(),
        dt in 0i64..900,
        size in 1u64..64_000_000,
        path_seed in 0u32..60,
        err_roll in 0u8..10,
    ) -> (bool, i64, u64, u32, bool) {
        (write, dt, size, path_seed, err_roll == 0)
    }
}

fn build_records(specs: &[(bool, i64, u64, u32, bool)]) -> Vec<TraceRecord> {
    let mut t = TRACE_EPOCH;
    let mut records = Vec::with_capacity(specs.len());
    for &(write, dt, size, path_seed, errored) in specs {
        t = t.add_secs(dt);
        let path = format!("/u/{}/data{}", path_seed % 9, path_seed);
        let mut rec = if write {
            TraceRecord::write(Endpoint::MssTapeSilo, t, size, path, 7)
        } else {
            TraceRecord::read(Endpoint::MssTapeSilo, t, size, path, 7)
        };
        if errored {
            rec.error = fmig_trace::ErrorKind::from_code(1);
        }
        records.push(rec);
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary sorted streams (including errored records, which both
    /// paths must skip identically) replay bit-identically under an
    /// index-friendly policy (LRU), a rescan policy (STP), and the
    /// clairvoyant one that exercises the next-use reverse sweep
    /// (Belady).
    #[test]
    fn random_streams_replay_bit_identically(
        specs in proptest::collection::vec(arb_ref(), 1..300),
        cap_divisor in 2u64..200,
    ) {
        let records = build_records(&specs);
        let referenced: u64 = records.iter().map(|r| r.file_size.max(1)).sum();
        let config = eval_config((referenced / cap_divisor).max(1));
        let refs = spec_refs(&records);
        let policies: [&dyn MigrationPolicy; 3] = [&Lru, &Stp::classic(), &Belady];
        for policy in policies {
            let (dense_stats, dense_ops) = dense_replay(&records, policy, &config);
            let (spec_stats, spec_ops) = spec_replay(&refs, policy, &config);
            prop_assert_eq!(dense_stats, spec_stats);
            prop_assert_eq!(dense_ops, spec_ops);
        }
    }
}
