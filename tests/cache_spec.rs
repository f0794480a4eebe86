//! Every cache engine against the one naive specification
//! (`tests/spec/mod.rs`), bit for bit: op stream, read results, recall
//! deliveries, counters, usage and resident count.
//!
//! * `DiskCache` under each `EvictionMode` — `rank::Ranking` probed at
//!   the first purge (the scan) and on the rescan — eager and
//!   lazy write-back, monotone clocks and one step backwards, with
//!   recalls landing late so delayed hits occur;
//! * `mrc::sweep_capacities`, point by point;
//! * `DiskCache` under an estimate republished before every reference,
//!   as `DiskHalf::arrive` does in every host, the live daemon included.
//!
//! The policies come from `standard_suite()` (+ `Belady`), so a newly
//! shipped policy is held to the spec without editing this file; the
//! random streams add one test-only policy, `AgePlusSize`. The
//! edges — a purge at, and one byte past, each mark; the stall boundary;
//! tied stamps; a backwards step; a re-created file; a slope that
//! moves mid-run — are hand-built cases at the end.

use proptest::prelude::*;

use fmig_migrate::cache::{
    CacheConfig, CacheOp, CacheStats, DiskCache, EvictionMode, RankingRegime, ReadResult,
};
use fmig_migrate::eval::{EvalConfig, PreparedRef};
use fmig_migrate::mrc::sweep_capacities;
use fmig_migrate::policy::{
    standard_suite, AffinePriority, Belady, Fifo, FileView, Lru, MigrationPolicy, Stp,
};
use fmig_trace::{DeviceClass, FileId};

mod spec;
use spec::{Cache, SpecCache, SpecRef};

use EvictionMode::{Auto, Rescan};
use RankingRegime::Scan;

/// The flat miss-wait estimate (what open-loop replay and the MRC use).
const EST: f64 = 58.0;

impl Cache for DiskCache<'_> {
    fn reference(&mut self, r: &SpecRef, est: f64, ops: &mut Vec<CacheOp>) -> Option<ReadResult> {
        self.set_est_miss_wait_s(est);
        let mut sink = |op| ops.push(op);
        if r.write {
            self.write_with(r.id, r.size, r.time, r.next_use, &mut sink);
            return None;
        }
        Some(self.read_with(r.id, r.size, r.time, r.next_use, &mut sink))
    }
    fn landed(&mut self, id: FileId) -> bool {
        self.fetch_complete(id)
    }
    fn snapshot(&self) -> (CacheStats, u64, usize) {
        (*self.stats(), self.usage(), self.len())
    }
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Run {
    ops: Vec<CacheOp>,
    results: Vec<ReadResult>,
    /// What each recall delivery found (`fetch_complete`'s answer).
    landed: Vec<bool>,
    stats: CacheStats,
    usage: u64,
    resident: usize,
}

/// Feeds `refs` to `cache`. After each reference the file referenced
/// `late` places earlier gets its recall delivered (a no-op unless one
/// is outstanding): `late = 0` is the open loop, `late = 1` leaves a
/// miss outstanding across the next reference. `vary_est` republishes
/// a different estimate before every reference.
fn drive(cache: &mut impl Cache, refs: &[SpecRef], late: usize, vary_est: bool) -> Run {
    let (mut ops, mut results, mut landed) = (Vec::new(), Vec::new(), Vec::new());
    for (i, r) in refs.iter().enumerate() {
        let step = if vary_est { (i % 7) as f64 } else { 0.0 };
        results.extend(cache.reference(r, EST + 15.0 * step, &mut ops));
        if let Some(due) = i.checked_sub(late) {
            landed.push(cache.landed(refs[due].id));
        }
    }
    let (stats, usage, resident) = cache.snapshot();
    Run {
        ops,
        results,
        landed,
        stats,
        usage,
        resident,
    }
}

fn assert_same(got: &Run, want: &Run, what: &str) {
    let first = (0..got.ops.len().max(want.ops.len())).find(|&i| got.ops.get(i) != want.ops.get(i));
    if let Some(i) = first {
        let (got, want) = (got.ops.get(i), want.ops.get(i));
        panic!("{what}: op {i} is {got:?}, the spec says {want:?}");
    }
    let end = |run: &Run| (run.stats, run.usage, run.resident);
    assert_eq!(end(got), end(want), "{what}: same ops, other counters");
    assert!(got == want, "{what}: read results or recall deliveries");
}

/// Runs the spec, holds `DiskCache` to it in both modes and the MRC
/// point at this capacity to its counters; returns the spec's run.
fn check(policy: &dyn MigrationPolicy, config: CacheConfig, refs: &[SpecRef], late: usize) -> Run {
    let what = format!("{} {config:?}", policy.name());
    let want = drive(&mut SpecCache::new(config, policy), refs, late, false);
    for mode in [Auto, Rescan] {
        let mut cache = DiskCache::with_eviction_mode(config, policy, mode);
        let got = drive(&mut cache, refs, late, false);
        assert_same(&got, &want, &format!("{what} {mode:?}"));
    }
    let mut base = EvalConfig::with_capacity(config.capacity);
    (base.cache, base.wait_s_per_miss) = (config, EST);
    let prepare = |r: &SpecRef| PreparedRef {
        id: r.id,
        size: r.size,
        write: r.write,
        time: r.time,
        next_use: r.next_use,
        device: DeviceClass::Disk,
    };
    let prepared: Vec<PreparedRef> = refs.iter().map(prepare).collect();
    let curve = sweep_capacities(&prepared, policy, &[config.capacity], &base);
    assert_eq!(curve.points[0].stats, want.stats, "{what} MRC point");
    want
}

/// Every shipped policy, clairvoyant bound included.
fn all_policies() -> Vec<Box<dyn MigrationPolicy>> {
    let mut policies = standard_suite();
    policies.push(Box::new(Belady));
    policies
}

/// High mark at 0.9, low mark at 0.5 of `capacity`.
fn config(capacity: u64, eager_writeback: bool) -> CacheConfig {
    CacheConfig {
        capacity,
        high_watermark: 0.9,
        low_watermark: 0.5,
        eager_writeback,
    }
}

/// Builds a stream from `(id, size, write, time step)` with `next_use`
/// filled in by forward scan — as far as the clock keeps running
/// forwards. An oracle that saw across a backwards step would hand out
/// stamps that fall into the past *before* the step arrives, which the
/// affine contract (`MigrationPolicy::affine`, clause 3) rules out and
/// no engine can detect: Belady's index and its rescan then disagree.
/// The spec itself takes whatever `next_use` it is given.
fn refs_of(specs: impl IntoIterator<Item = (u32, u64, bool, i64)>) -> Vec<SpecRef> {
    let mut time = 0;
    let stamp = |(id, size, write, dt)| {
        time += dt;
        SpecRef {
            id: FileId::new(id),
            size,
            write,
            time,
            next_use: None,
        }
    };
    let mut refs: Vec<SpecRef> = specs.into_iter().map(stamp).collect();
    let mut horizon = refs.len();
    for i in (0..refs.len()).rev() {
        let next = refs[i + 1..horizon].iter().find(|r| r.id == refs[i].id);
        refs[i].next_use = next.map(|r| r.time);
        if i > 0 && refs[i].time < refs[i - 1].time {
            horizon = i;
        }
    }
    refs
}

/// A seeded stream over `files` files: skewed ids, one immediate
/// re-reference in six (a delayed hit, if the recall is late), a third
/// writes, a quarter of the time steps zero, one reference in 97 larger
/// than `capacity`, and — with `backstep` — one step back halfway.
fn seeded_stream(seed: u64, n: usize, files: u64, capacity: u64, backstep: bool) -> Vec<SpecRef> {
    let mut rng = seed;
    let mut below = move |bound: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % bound
    };
    let mut id = 0;
    refs_of((0..n).map(|i| {
        if i == 0 || below(6) != 0 {
            id = below(files).min(below(files)) as u32;
        }
        let oversized = below(97) == 0;
        let size = 1 + if oversized { capacity } else { below(4_000) };
        let dt = (below(8) as i64 - 1).max(0) * 7;
        let dt = if backstep && i == n / 2 { -5_000 } else { dt };
        (id, size, below(3) == 0, dt)
    }))
}

/// Every policy × mode × write-back × clock, and the MRC at three
/// capacities. 400 kB of ≈ 2 kB files is ≈ 180 residents at a purge.
#[test]
fn every_engine_equals_the_spec_on_a_seeded_stream() {
    const CAPACITY: u64 = 400_000;
    for (backstep, eager) in [(false, true), (false, false), (true, true), (true, false)] {
        let refs = seeded_stream(0x5EED_CAFE, 2_000, 700, CAPACITY, backstep);
        let config = config(CAPACITY, eager);
        for policy in all_policies() {
            let (policy, name) = (policy.as_ref(), policy.name());
            let want = check(policy, config, &refs, 1);
            assert!(want.stats.evictions > 100, "{name} hardly purged");
            assert!(want.results.contains(&ReadResult::DelayedHit));
            let stalled = want.stats.stall_bytes > 0;
            assert_eq!(stalled, !config.eager_writeback, "{name} stalls iff lazy");
            for capacity in [CAPACITY / 3, CAPACITY * 2] {
                let want = check(policy, CacheConfig { capacity, ..config }, &refs, 0);
                assert!(want.stats.evictions > 0, "{name} never purged");
            }
            // On a monotone clock the scan, once built, is kept; the
            // policies with neither form rescan from the first probe.
            let formless = matches!(name.as_str(), "Random" | "LRU-MAD" | "STP-lat(1.4)");
            let mut cache = DiskCache::new(config, policy);
            drive(&mut cache, &refs, 1, false);
            let regime = cache.ranking_regime();
            if formless {
                assert_eq!(regime, RankingRegime::Rescan, "{name}");
            } else {
                let scanned = regime == Scan;
                assert_eq!(scanned, !backstep, "{name}");
            }
        }
    }
}

#[test]
fn a_disk_cache_under_a_per_reference_estimate_equals_the_spec() {
    let refs = seeded_stream(0xD15C, 2_000, 300, 200_000, false);
    for eager in [true, false] {
        for policy in all_policies() {
            let (config, policy) = (config(200_000, eager), policy.as_ref());
            let want = drive(&mut SpecCache::new(config, policy), &refs, 1, true);
            let got = drive(&mut DiskCache::new(config, policy), &refs, 1, true);
            assert!(want.stats.evictions > 0 && want.results.contains(&ReadResult::DelayedHit));
            let what = format!("{} under a per-reference estimate", policy.name());
            assert_same(&got, &want, &what);
        }
    }
}

/// Priority `age + size`: affine (slope 1, intercept `size − last_ref`),
/// and a read hit lowers its intercept. It ranks on the scan, where —
/// in both hosts — a skipped read touch would leave a row stale.
struct AgePlusSize;

impl MigrationPolicy for AgePlusSize {
    fn name(&self) -> String {
        "age+size".into()
    }
    fn priority(&self, file: &FileView, now: i64) -> f64 {
        (now - file.last_ref).max(0) as f64 + file.size as f64
    }
    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        Some(AffinePriority {
            slope: 1.0,
            intercept: file.size as f64 - file.last_ref as f64,
        })
    }
}

proptest! {
    /// Short random streams — zero time steps, an optional step
    /// backwards, both write-back settings — through every shipped
    /// policy and `AgePlusSize`: spec = `DiskCache` × 2 modes = the MRC
    /// point.
    #[test]
    fn random_streams_agree_with_the_spec(
        specs in proptest::collection::vec((0u32..40, 1u64..5_000, any::<bool>(), 0i64..300), 1..300),
        capacity in 4_000u64..60_000,
        eager in any::<bool>(),
        backstep in 0usize..600,
        late in 0usize..3,
    ) {
        // Odd draws take one of four sizes and about half the time
        // steps are zero: equal (size, stamp) pairs are common, so
        // STP's exact ties reach the power-age scan in both hosts.
        let small = |size: u64| [64, 128, 256, 512][(size / 2 % 4) as usize];
        let mut specs: Vec<_> = specs
            .into_iter()
            .map(|(id, size, write, dt)| {
                let size = if size % 2 == 1 { small(size) } else { size };
                (id, size, write, (dt - 150).max(0))
            })
            .collect();
        // Past the end of the stream (half the draws): no step back.
        if let Some(spec) = specs.get_mut(backstep) {
            spec.3 = -1_000;
        }
        let refs = refs_of(specs);
        for policy in all_policies() {
            check(policy.as_ref(), config(capacity, eager), &refs, late);
        }
        check(&AgePlusSize, config(capacity, eager), &refs, late);
    }
}

/// Ten 100-byte writes one second apart, the last one `last` bytes, in
/// a 1000-byte cache: high mark 900, low mark 500.
fn ten_writes(last: u64) -> Vec<SpecRef> {
    refs_of((0..10).map(|i| (i, if i == 9 { last } else { 100 }, true, 1)))
}

fn victims(run: &Run) -> Vec<u32> {
    use CacheOp::{Drop, Fetch, PurgeFlush, StallFlush, Writeback};
    let victim = |op: &CacheOp| match *op {
        Drop { id, .. } | StallFlush { id, .. } | PurgeFlush { id, .. } => Some(id.raw()),
        Fetch { .. } | Writeback { .. } => None,
    };
    run.ops.iter().filter_map(victim).collect()
}

#[test]
fn usage_at_the_high_mark_does_not_purge_and_one_byte_over_does() {
    let nine = &ten_writes(100)[..9];
    let at_mark = check(&Lru, config(1000, true), nine, 0);
    assert_eq!((at_mark.usage, at_mark.stats.evictions), (900, 0));
    let over = check(&Lru, config(1000, true), &ten_writes(1), 0);
    assert_eq!((over.usage, victims(&over)), (401, vec![0, 1, 2, 3, 4]));
}

#[test]
fn a_purge_stops_at_the_low_mark_and_one_byte_over_takes_another_victim() {
    let exact = check(&Lru, config(1000, true), &ten_writes(100), 0);
    assert_eq!((exact.usage, victims(&exact)), (500, vec![0, 1, 2, 3, 4]));
    let over = check(&Lru, config(1000, true), &ten_writes(101), 0);
    assert_eq!((over.usage, victims(&over)), (401, vec![0, 1, 2, 3, 4, 5]));
}

#[test]
fn a_dirty_victim_taken_at_the_high_mark_is_a_purge_flush_one_byte_over_a_stall() {
    // Usage only falls during a purge, so the stalls are its first
    // victims, 100 bytes each. 1000 → 900: the second victim is taken
    // with usage exactly at the mark — one stall, four purge flushes.
    let exact = check(&Lru, config(1000, false), &ten_writes(100), 0).stats;
    assert_eq!((exact.stall_bytes, exact.purge_flush_bytes), (100, 400));
    // 1001 → 901: one byte over, and the second victim stalls too.
    let over = check(&Lru, config(1000, false), &ten_writes(101), 0).stats;
    assert_eq!((over.stall_bytes, over.purge_flush_bytes), (200, 400));
}

#[test]
fn equal_stamps_break_ties_by_ascending_id() {
    // Admitted in descending id order at one instant: neither admission
    // order nor recency can stand in for the id.
    let refs = refs_of((0..10).rev().map(|id| (id, 100, true, 0)));
    let policies: [&dyn MigrationPolicy; 4] = [&Lru, &Fifo, &Stp::classic(), &Belady];
    for policy in policies {
        let run = check(policy, config(1000, true), &refs, 0);
        assert_eq!(victims(&run), [0, 1, 2, 3, 4], "{}", policy.name());
    }
}

#[test]
fn a_file_stamped_by_a_backwards_step_is_the_oldest_at_the_next_purge() {
    // Files 0..9 at t = 100..109 (0..4 leave), file 50 at t = 5, then
    // four more writes 40 s apart: the purge at t = 165 finds 50 oldest.
    let specs = (0..10).map(|i| (i, 100, true, if i == 0 { 100 } else { 1 }));
    let specs = specs.chain([(50, 100, true, -104)]);
    let refs = refs_of(specs.chain((60..64).map(|i| (i, 100, true, 40))));
    for policy in [&Lru as &dyn MigrationPolicy, &Stp::classic()] {
        let run = check(policy, config(1000, true), &refs, 0);
        assert_eq!(victims(&run)[..6], [0, 1, 2, 3, 4, 50], "{}", policy.name());
    }
}

#[test]
fn a_file_evicted_and_read_again_is_a_fresh_entry_at_the_next_purge() {
    // File 0 leaves in the first purge, is recalled at t = 50 (same
    // arena slot, new incarnation), and six more writes purge again: a
    // stale `created`, `ref_count` or index key would take it first.
    let specs = (0..10).map(|i| (i, 100, true, 1));
    let specs = specs.chain([(0, 120, false, 40)]);
    let refs = refs_of(specs.chain((20..26).map(|i| (i, 100, true, 5))));
    for policy in [&Fifo as &dyn MigrationPolicy, &Lru, &Stp::classic()] {
        let (run, name) = (check(policy, config(1000, true), &refs, 1), policy.name());
        assert_eq!(victims(&run), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "{name}");
        assert_eq!(run.landed.iter().filter(|&&found| found).count(), 1);
    }
}

/// LRU, except that a file's third reference moves its "shared" slope.
/// A read hit only marks the file's row, so the moved slope is first
/// seen when the next purge settles that row.
struct DriftingSlope;

impl MigrationPolicy for DriftingSlope {
    fn name(&self) -> String {
        "drifting-slope".into()
    }
    fn priority(&self, file: &FileView, now: i64) -> f64 {
        Lru.priority(file, now)
    }
    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        let mut form = Lru.affine(file)?;
        form.slope += if file.ref_count >= 3 { 1.0 } else { 0.0 };
        Some(form)
    }
}

#[test]
fn a_slope_that_moves_mid_run_aborts_the_affine_purge_and_the_rescan_finishes_it() {
    // The first purge (0..4 leave) keys every row by intercept; two
    // read hits take file 5 to three references and mark its row; five
    // more writes, and the next purge settles that row, meets the moved
    // slope and hands the purge to the rescan.
    let specs = (0..10).map(|i| (i, 100, true, 1));
    let specs = specs.chain([(5, 100, false, 10), (5, 100, false, 1)]);
    let refs = refs_of(specs.chain((10..15).map(|i| (i, 100, true, 1))));
    let mut cache = DiskCache::new(config(1000, true), &DriftingSlope);
    drive(&mut cache, &refs[..12], 0, false);
    assert_eq!(cache.ranking_regime(), Scan, "read hits only mark the row");
    drive(&mut cache, &refs[12..], 0, false);
    assert_eq!(
        cache.ranking_regime(),
        RankingRegime::Rescan,
        "that purge degraded"
    );
    // File 5 leaves last, not first.
    let run = check(&DriftingSlope, config(1000, true), &refs, 0);
    assert_eq!(victims(&run), [0, 1, 2, 3, 4, 6, 7, 8, 9, 5]);
}
