//! Exactness properties of the replay hot path's two new engines:
//!
//! * the single-pass miss-ratio-curve engine (`fmig_migrate::mrc`) must
//!   reproduce per-capacity naive replay **bit-identically** — same
//!   counters, hence same miss ratios and byte miss ratios — for every
//!   shipped policy and any capacity grid;
//! * the incremental eviction index must produce the **identical victim
//!   sequence** to the rescan oracle: same `CacheOp` stream, same
//!   counters, same survivors.
//!
//! The property traces are random but well-formed: times never
//! decrease and `next_use` comes from a real reverse sweep, the
//! invariants every replay in this workspace provides (and the affine
//! forms assume). Half their time steps are zero, so equal timestamps —
//! LRU's tie groups, Belady's equal-next-use classes — are common. They draw at most 40 files, so every MRC stack there
//! stays under `INDEX_MIN_RESIDENTS` and purges by rescan; three
//! deterministic cases at the end hold hundreds of residents per
//! capacity, so the stacks build their affine ranks and power-age
//! scans — and then lose them again, to a clock stepping backwards and
//! to a policy withdrawing its power-age form mid-stream.

use std::collections::HashMap;

use proptest::prelude::*;

use fmig_migrate::cache::{
    CacheConfig, CacheOp, DiskCache, EvictionMode, RankingRegime, INDEX_MIN_RESIDENTS,
};
use fmig_migrate::eval::{EvalConfig, PreparedRef};
use fmig_migrate::mrc::{sweep_capacities, sweep_capacities_naive};
use fmig_migrate::policy::{
    standard_suite, Belady, FileView, MigrationPolicy, PowerAgeForm, Saac, Stp,
};
use fmig_trace::{DeviceClass, FileId};

/// One raw reference: (write?, file id, size, time step).
type Spec = (bool, u32, u64, i64);

fn arb_specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0u32..40,
            1u64..600_000,
            // A zero step half the time: equal-timestamp ties are the
            // rule, so LRU's tie groups and Belady's equal-next-use
            // classes are large.
            prop_oneof![Just(0i64), 1i64..400],
        ),
        20..220,
    )
}

/// Turns raw specs into a prepared reference stream: monotone times and
/// an oracle-consistent `next_use` reverse sweep (what `TracePrep`
/// would have produced).
fn build_refs(specs: &[Spec]) -> Vec<PreparedRef> {
    let mut t = 0i64;
    let mut refs: Vec<PreparedRef> = specs
        .iter()
        .map(|&(write, id, size, dt)| {
            t += dt;
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

/// Every shipped policy, clairvoyant bound included.
fn all_policies() -> Vec<Box<dyn MigrationPolicy>> {
    let mut policies = standard_suite();
    policies.push(Box::new(Belady));
    policies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused single-pass curve equals one naive full replay per
    /// capacity, exactly, for every shipped policy on a random grid.
    #[test]
    fn mrc_single_pass_equals_per_capacity_replay(
        specs in arb_specs(),
        grid in proptest::collection::vec(1u64..100, 2..6),
    ) {
        let refs = build_refs(&specs);
        let total: u64 = refs.iter().map(|r| r.size).sum();
        // Grid points span "almost nothing fits" to "everything fits".
        let capacities: Vec<u64> = grid
            .iter()
            .map(|&pct| (total * pct / 100).max(1))
            .collect();
        let base = EvalConfig::with_capacity(0);
        for policy in all_policies() {
            let fused = sweep_capacities(&refs, policy.as_ref(), &capacities, &base);
            let naive = sweep_capacities_naive(&refs, policy.as_ref(), &capacities, &base);
            prop_assert!(fused == naive, "{} diverged", policy.name());
            for point in &fused.points {
                prop_assert!((0.0..=1.0).contains(&point.miss_ratio()));
                prop_assert!((0.0..=1.0).contains(&point.byte_miss_ratio()));
            }
        }
    }

    /// The incremental eviction index replays the identical victim
    /// sequence to the rescan oracle: the full `CacheOp` stream (which
    /// spells out every victim, in order, with its stall
    /// classification), the counters, and the survivor set all match.
    #[test]
    fn eviction_index_matches_sort_oracle_victim_sequence(
        specs in arb_specs(),
        capacity_pct in 2u64..40,
    ) {
        let refs = build_refs(&specs);
        let total: u64 = refs.iter().map(|r| r.size).sum();
        let config = CacheConfig {
            capacity: (total * capacity_pct / 100).max(1),
            high_watermark: 0.9,
            low_watermark: 0.6,
            eager_writeback: false, // dirty evictions: ops carry stalls
        };
        for policy in all_policies() {
            let mut indexed =
                DiskCache::with_eviction_mode(config, policy.as_ref(), EvictionMode::Indexed);
            let mut rescan =
                DiskCache::with_eviction_mode(config, policy.as_ref(), EvictionMode::Rescan);
            let mut indexed_ops: Vec<CacheOp> = Vec::new();
            let mut rescan_ops: Vec<CacheOp> = Vec::new();
            for r in &refs {
                if r.write {
                    indexed.write_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        indexed_ops.push(op)
                    });
                    rescan.write_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        rescan_ops.push(op)
                    });
                } else {
                    let a = indexed.read_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        indexed_ops.push(op)
                    });
                    let b = rescan.read_with(r.id, r.size, r.time, r.next_use, &mut |op| {
                        rescan_ops.push(op)
                    });
                    prop_assert!(a == b, "{}: read result diverged", policy.name());
                    indexed.fetch_complete(r.id);
                    rescan.fetch_complete(r.id);
                }
            }
            prop_assert!(
                indexed_ops == rescan_ops,
                "{}: victim sequences diverged",
                policy.name()
            );
            prop_assert_eq!(indexed.stats(), rescan.stats());
            for r in &refs {
                prop_assert_eq!(indexed.contains(r.id), rescan.contains(r.id));
            }
        }
    }
}

// The MRC host of the shared ranking lifecycle, past its activation gate.

const BIG_FILES: u64 = 1200;
const BIG_HOT_FILES: u64 = 30;
const BIG_MAX_SIZE: u64 = 4000;

/// 6000 xorshift-drawn references over [`BIG_FILES`] files, every third
/// one to the next of [`BIG_HOT_FILES`] hot files in turn (so a hot
/// file's reference count is a known function of the position). Sizes
/// vary per reference (writes resize); steps mix exact ties (half of
/// them), short hops and half-day jumps. `backstep_at` makes that one reference arrive
/// 3000 s before its predecessor; the stream then resumes where it was.
fn big_refs(backstep_at: Option<usize>) -> Vec<PreparedRef> {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let specs: Vec<Spec> = (0..6000usize)
        .map(|i| {
            let dt = match next() % 40 {
                0 => 43_200,
                1..=20 => 0,
                n => n as i64,
            };
            let dt = match backstep_at {
                Some(at) if i == at => -3_000,
                Some(at) if i == at + 1 => dt + 3_000,
                _ => dt,
            };
            let id = if i % 3 == 0 {
                (i / 3) as u64 % BIG_HOT_FILES
            } else {
                BIG_HOT_FILES + next() % (BIG_FILES - BIG_HOT_FILES)
            };
            (next() % 4 == 0, id as u32, 1 + next() % BIG_MAX_SIZE, dt)
        })
        .collect();
    build_refs(&specs)
}

/// Three capacities (30/55/80 % of the bytes the trace's files add up
/// to at the mean size) that all churn, each guaranteed to hold more
/// than `INDEX_MIN_RESIDENTS` files whenever a purge starts.
fn big_grid() -> Vec<u64> {
    let high = EvalConfig::with_capacity(0).cache.high_watermark;
    [30u64, 55, 80]
        .iter()
        .map(|&pct| {
            let capacity = BIG_FILES * (BIG_MAX_SIZE / 2) * pct / 100;
            assert!(
                (capacity as f64 * high) as u64 / BIG_MAX_SIZE >= INDEX_MIN_RESIDENTS as u64,
                "a purge at {pct}% could start under the activation gate"
            );
            capacity
        })
        .collect()
}

fn assert_fused_equals_naive(refs: &[PreparedRef], policy: &dyn MigrationPolicy) {
    let capacities = big_grid();
    let base = EvalConfig::with_capacity(0);
    let fused = sweep_capacities(refs, policy, &capacities, &base);
    assert!(
        fused.points.iter().all(|p| p.stats.evictions > 0),
        "{}: a capacity never purged",
        policy.name()
    );
    let naive = sweep_capacities_naive(refs, policy, &capacities, &base);
    assert_eq!(fused, naive, "{} diverged", policy.name());
}

#[test]
fn mrc_stacks_past_the_gate_equal_per_capacity_replay() {
    let refs = big_refs(None);
    assert!(refs.windows(2).all(|w| w[0].time <= w[1].time));
    for policy in all_policies() {
        assert_fused_equals_naive(&refs, policy.as_ref());
    }
}

#[test]
fn mrc_stacks_survive_a_backwards_clock_step() {
    let refs = big_refs(Some(3000));
    assert_eq!(
        refs.windows(2).filter(|w| w[0].time > w[1].time).count(),
        1,
        "exactly one reference arrives out of order"
    );
    for policy in all_policies() {
        assert_fused_equals_naive(&refs, policy.as_ref());
    }
}

/// A power-age policy that stops shipping its form for a file from its
/// 48th reference on. Only the hot files get there, two thirds into
/// the stream (each is referenced every 90 positions): an index builds
/// over a young resident set and meets the refusal later, at a touched
/// file.
struct Withdrawing<P>(P);

impl<P: MigrationPolicy> MigrationPolicy for Withdrawing<P> {
    fn name(&self) -> String {
        "withdrawing".into()
    }
    fn priority(&self, file: &FileView, now: i64) -> f64 {
        self.0.priority(file, now)
    }
    fn power_age_form(&self, file: &FileView) -> Option<PowerAgeForm> {
        if file.ref_count < 48 {
            self.0.power_age_form(file)
        } else {
            None
        }
    }
}

fn mrc_stacks_survive_a_withdrawn_form(policy: &dyn MigrationPolicy, regime: RankingRegime) {
    let refs = big_refs(None);
    // Precondition, observed on the ranking's other host (a lone `Auto`
    // cache runs the same lifecycle as the stack at its capacity): the
    // index is built at every capacity, and lost before the end.
    for &capacity in &big_grid() {
        let mut cache = DiskCache::new(CacheConfig::with_capacity(capacity), policy);
        let mut was_built = false;
        for r in &refs {
            if r.write {
                cache.write(r.id, r.size, r.time, r.next_use);
            } else {
                cache.read(r.id, r.size, r.time, r.next_use);
            }
            was_built |= cache.ranking_regime() == regime;
        }
        assert!(was_built, "no {regime:?} index was built at {capacity}");
        let end = cache.ranking_regime();
        assert_eq!(end, RankingRegime::Rescan, "never withdrawn at {capacity}");
    }
    assert_fused_equals_naive(&refs, policy);
}

#[test]
fn mrc_stacks_survive_a_withdrawn_power_age_form() {
    mrc_stacks_survive_a_withdrawn_form(&Withdrawing(Stp::classic()), RankingRegime::PowerScan);
    mrc_stacks_survive_a_withdrawn_form(&Withdrawing(Saac), RankingRegime::PowerScan);
}
