//! Exactness properties of the purge-time scan: for every shipped
//! policy that ranks through it — STP at three exponents and SAAC at
//! exponent 1 on power-age keys, LRU, FIFO, Belady and the size pair on
//! exact intercept keys from their first purge — replaying through the
//! scan must be **observationally identical** to the naive
//! cache specification (`tests/spec/mod.rs`), which shares no code with
//! it:
//!
//! * the full `CacheOp` stream (every victim, in order), the read
//!   results, the counters, and the survivor
//!   set of a [`DiskCache`] replay;
//! * the single-pass miss-ratio-curve engine against one spec replay
//!   per capacity, at hundreds of residents per stack.
//!
//! Traces are adversarial for root keys: sizes span orders of
//! magnitude and timestamps mix zero steps (exact ties), short hops
//! (crossing-heavy STP windows) and half-day jumps. The policies
//! without a form rank through the rescan in every mode;
//! `tests/cache_spec.rs` holds them, and every regime, to the same
//! spec on shorter streams.

use std::collections::HashMap;

use proptest::prelude::*;

use fmig_migrate::cache::{CacheConfig, CacheOp, DiskCache, RankingRegime};
use fmig_migrate::eval::{EvalConfig, PreparedRef};
use fmig_migrate::mrc::{sweep_capacities, MissRatioCurve, MrcPoint};
use fmig_migrate::policy::{
    Belady, Fifo, LargestFirst, Lru, MigrationPolicy, Saac, SmallestFirst, Stp,
};
use fmig_trace::{DeviceClass, FileId};

mod spec;
use spec::{spec_replay, Cache, SpecCache, SpecRef};

/// One raw reference: (write?, file id, size, time step).
type Spec = (bool, u32, u64, i64);

/// Every shipped policy that ranks on the scan: those that ship a
/// [`fmig_migrate::policy::PowerAgeForm`] or an
/// [`fmig_migrate::policy::AffinePriority`].
fn scan_suite() -> Vec<Box<dyn MigrationPolicy>> {
    vec![
        Box::new(Stp { exponent: 1.0 }),
        Box::new(Stp::classic()),
        Box::new(Stp { exponent: 2.0 }),
        Box::new(Saac),
        Box::new(Lru),
        Box::new(Fifo),
        Box::new(Belady),
        Box::new(LargestFirst),
        Box::new(SmallestFirst),
    ]
}

/// Turns raw specs into a prepared reference stream: monotone times
/// (with a half-day hop every `day_stride` refs, so small old files
/// overtake large fresh ones mid-trace) and an oracle-consistent
/// `next_use` reverse sweep.
fn build_refs(specs: &[Spec], day_stride: usize) -> Vec<PreparedRef> {
    let mut t = 0i64;
    let mut refs: Vec<PreparedRef> = specs
        .iter()
        .enumerate()
        .map(|(i, &(write, id, size, dt))| {
            t += dt;
            if i % day_stride == day_stride - 1 {
                t += 43_200;
            }
            PreparedRef {
                id: id.into(),
                size,
                write,
                time: t,
                next_use: None,
                device: DeviceClass::Disk,
            }
        })
        .collect();
    let mut next_seen: HashMap<FileId, i64> = HashMap::new();
    for r in refs.iter_mut().rev() {
        r.next_use = next_seen.get(&r.id).copied();
        next_seen.insert(r.id, r.time);
    }
    refs
}

/// The spec's view of a prepared stream.
fn as_spec_refs(refs: &[PreparedRef]) -> Vec<SpecRef> {
    let spec_ref = |r: &PreparedRef| SpecRef {
        id: r.id,
        size: r.size,
        write: r.write,
        time: r.time,
        next_use: r.next_use,
    };
    refs.iter().map(spec_ref).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The scan replays the identical victim sequence to the spec for
    /// every policy that ranks on it: same `CacheOp` stream, same read
    /// results, same counters, same survivors — ties included, since
    /// zero time steps produce exact priority collisions resolved by
    /// ascending id on both sides.
    #[test]
    fn scan_matches_the_spec_victim_sequence(
        specs in proptest::collection::vec(
            (
                any::<bool>(),
                0u32..40,
                1u64..600_000,
                0i64..400, // zero steps: equal-timestamp ties
            ),
            20..220,
        ),
        capacity_pct in 2u64..40,
        day_stride in 5usize..40,
    ) {
        let refs = as_spec_refs(&build_refs(&specs, day_stride));
        let total: u64 = refs.iter().map(|r| r.size).sum();
        let config = CacheConfig {
            capacity: (total * capacity_pct / 100).max(1),
            high_watermark: 0.9,
            low_watermark: 0.6,
        };
        for policy in scan_suite() {
            let mut indexed = DiskCache::new(config, policy.as_ref());
            let mut spec = SpecCache::new(config, policy.as_ref());
            let mut indexed_ops: Vec<CacheOp> = Vec::new();
            let mut spec_ops: Vec<CacheOp> = Vec::new();
            for r in &refs {
                // The cache's estimate stays at its default, 0.
                let want = spec.reference(r, 0.0, &mut spec_ops);
                if r.write {
                    indexed.write_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        indexed_ops.push(op)
                    });
                } else {
                    let got = indexed.read_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        indexed_ops.push(op)
                    });
                    prop_assert!(Some(got) == want, "{}: read result diverged", policy.name());
                    indexed.fetch_complete(r.id);
                    spec.landed(r.id);
                }
            }
            prop_assert!(
                indexed_ops == spec_ops,
                "{}: victim sequences diverged",
                policy.name()
            );
            prop_assert_eq!(*indexed.stats(), spec.snapshot().0);
            for r in &refs {
                prop_assert_eq!(indexed.contains(r.id), spec.contains(r.id));
            }
        }
    }
}

proptest! {
    // Heavier cases (hundreds of residents per stack), so fewer of them.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fused single-pass miss-ratio curve equals one spec replay
    /// per capacity for every policy that ranks on the scan (LRU's and
    /// Belady's stacks rank on the MRC's recency and next-use tiers
    /// instead).
    #[test]
    fn mrc_scan_stacks_equal_per_capacity_replay(
        specs in proptest::collection::vec(
            (
                any::<bool>(),
                0u32..400, // wide id space: hundreds of residents
                1u64..4_000,
                0i64..60,
            ),
            500..800,
        ),
        day_stride in 20usize..60,
    ) {
        let refs = build_refs(&specs, day_stride);
        let total: u64 = refs.iter().map(|r| r.size).sum();
        // The top capacity holds nearly every distinct file — hundreds
        // of residents — while the low one churns.
        let capacities: Vec<u64> = [20u64, 60, 95]
            .iter()
            .map(|&pct| (total * pct / 100).max(1))
            .collect();
        let base = EvalConfig::with_capacity(0);
        let spec_refs = as_spec_refs(&refs);
        for policy in scan_suite() {
            let fused = sweep_capacities(&refs, policy.as_ref(), &capacities, &base);
            let point = |capacity: u64| {
                let cache = CacheConfig { capacity, ..base.cache };
                let config = EvalConfig { cache, ..base };
                let stats = spec_replay(&spec_refs, policy.as_ref(), &config).0;
                MrcPoint { capacity, stats }
            };
            let points = capacities.iter().map(|&capacity| point(capacity)).collect();
            let naive = MissRatioCurve { policy: policy.name(), points };
            prop_assert!(fused == naive, "{} diverged", policy.name());
        }
    }
}

/// Engagement guard at the public-API level: a purge-heavy replay
/// whose sizes and next uses arrive out of order must be ranking
/// through the scan (not silently degraded to the rescan), and the
/// victim stream must still match the spec.
fn replay_engages(policy: &dyn MigrationPolicy) {
    let config = CacheConfig {
        capacity: 1 << 20,
        high_watermark: 0.9,
        low_watermark: 0.7,
    };
    let mut cache = DiskCache::new(config, policy);
    let mut spec = SpecCache::new(config, policy);
    let mut a: Vec<CacheOp> = Vec::new();
    let mut b: Vec<CacheOp> = Vec::new();
    const N: u32 = 4_000;
    for i in 0..N {
        let (id, size, now) = (i % 600, 1_000 + u64::from(i % 13) * 700, i64::from(i * 5));
        // File `id` comes back 600 references later, until the end.
        let next_use = (i + 600 < N).then(|| i64::from((i + 600) * 5));
        cache.write_with(id, size, now, next_use, &mut |op| a.push(op));
        let r = SpecRef {
            id: FileId::new(id),
            size,
            write: true,
            time: now,
            next_use,
        };
        spec.reference(&r, 0.0, &mut b);
    }
    assert_eq!(
        cache.ranking_regime(),
        RankingRegime::Scan,
        "{}",
        policy.name()
    );
    assert_eq!(a, b, "{}", policy.name());
    assert_eq!(*cache.stats(), spec.snapshot().0);
}

#[test]
fn replay_engages_the_scan() {
    for policy in scan_suite() {
        replay_engages(policy.as_ref());
    }
}
