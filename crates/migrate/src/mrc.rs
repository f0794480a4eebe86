//! Single-pass miss-ratio curves: the paper's central artifact (miss
//! ratio vs staging-disk capacity, §2.3/§6-a) computed for a whole
//! capacity grid in **one** walk of the trace.
//!
//! # Why a fused pass instead of a classical Mattson stack
//!
//! Mattson's stack algorithm gets a full miss-ratio curve from one pass
//! by keeping a single inclusion-ordered stack — valid when a cache of
//! size `c` always holds a subset of a cache of size `c' > c`. Our
//! [`DiskCache`] deliberately breaks that premise twice: watermark
//! purging evicts *batches* (down to the low watermark, not one file per
//! miss), and policies like STP carry time-varying priorities, so the
//! eviction decision a small cache makes early can differ in *order*
//! from the one a large cache makes later. Inclusion does not hold, and
//! a single-stack curve would be an approximation.
//!
//! The engine here keeps exactness instead: one pass over the prepared
//! trace drives a per-capacity priority stack for every grid point
//! simultaneously, over **one shared file table**. Per reference it
//! pays *no* lookup at all — [`fmig_trace::FileId`] is already the
//! dense arena index (the `FileTable` interned it at trace prep) —
//! followed by a contiguous row of per-capacity sub-states, where a
//! naive sweep pays a full hash lookup *per capacity*. (This engine's
//! private `IdMap` pioneered that layout; the dense id went
//! workspace-wide and the local copy is gone.) Only residency-dependent
//! state
//! (size as of the last insert/write, creation time, reference count,
//! dirtiness) is per-capacity; `last_ref` and `next_use` are written by
//! every touch in every cache that holds the file, so they live once
//! per file.
//!
//! Victim ranking is the `rank` module's one lifecycle
//! (`crate::rank::Ranking`, documented in `rank.rs`): each capacity's
//! stack hosts its own instance under [`EvictionMode::Auto`] — the same
//! affine queue/heap, kinetic tournament or exact rescan a lone
//! [`DiskCache`] at that capacity would run, activated by the same
//! resident-count gate — and shows it that capacity's resident list.
//! One tier sits above it and is this engine's own:
//!
//! * **Pure recency** ([`MigrationPolicy::recency_keyed`], LRU): the
//!   victim order is the same global recency order for *every*
//!   capacity, so all stacks share **one** touch log, compacted to its
//!   live entries (≤ 2·files + 1024), and each walks it with its own
//!   clock-hand cursor — amortised O(1) per reference for the whole
//!   grid, no floats, no virtual calls. This is the closest exact
//!   analogue of Mattson's single stack that watermark batch purging
//!   admits.
//!
//! Memory is O(files × capacities) whatever the trace's length: the
//! shared and per-capacity file rows, plus the touch log, which
//! `compact_recency_log` trims back to at most one entry per file
//! whenever it reaches twice the file count plus a fixed slack.
//!
//! The result is **bit-identical** to replaying the trace once per
//! capacity (property-tested in `tests/mrc_index.rs` across every
//! shipped policy), because each capacity's stack makes exactly the
//! decisions a lone [`DiskCache`] would.
//!
//! The open-loop sweep runner collapses all `cache_fraction` cells that
//! share a (policy, shard) coordinate onto one such pass; closed-loop
//! latency cells still replay individually, since the device model's
//! feedback is per-cell.

use fmig_trace::FileId;

use crate::cache::{CacheConfig, CacheStats, DiskCache, EvictionMode};
use crate::eval::{EvalConfig, PolicyOutcome, PreparedRef};
use crate::policy::{FileView, MigrationPolicy};
use crate::rank::{Ranking, Residents};

/// One point of a miss-ratio curve: a capacity and the full cache
/// counters measured there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// The counters an individual replay at this capacity would produce.
    pub stats: CacheStats,
}

impl MrcPoint {
    /// Read miss ratio by references at this capacity.
    pub fn miss_ratio(&self) -> f64 {
        self.stats.miss_ratio()
    }

    /// Read miss ratio by bytes at this capacity.
    pub fn byte_miss_ratio(&self) -> f64 {
        self.stats.byte_miss_ratio()
    }

    /// Dresses the point up as the [`PolicyOutcome`] an individual
    /// replay at this capacity would have returned.
    pub fn outcome(&self, policy_name: &str, config: &EvalConfig) -> PolicyOutcome {
        PolicyOutcome {
            name: policy_name.to_string(),
            stats: self.stats,
            miss_ratio: self.stats.miss_ratio(),
            byte_miss_ratio: self.stats.byte_miss_ratio(),
            person_minutes_per_day: self
                .stats
                .person_minutes_per_day(config.wait_s_per_miss, config.trace_days),
            latency: None,
        }
    }
}

/// A miss-ratio curve: one policy evaluated at a grid of capacities, in
/// the grid's order.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRatioCurve {
    /// Display name of the policy the curve belongs to.
    pub policy: String,
    /// One point per requested capacity, in request order.
    pub points: Vec<MrcPoint>,
}

impl MissRatioCurve {
    /// The `(capacity, miss_ratio)` pairs, the shape most plots want.
    pub fn miss_ratios(&self) -> Vec<(u64, f64)> {
        self.points
            .iter()
            .map(|p| (p.capacity, p.miss_ratio()))
            .collect()
    }
}

/// Per-file state every capacity shares: each touch writes these in
/// every cache that holds (or just fetched) the file, so one copy is
/// exact for all of them.
///
/// Indexed directly by [`FileId`] — the dense index *is* the file's
/// identity (and the victim tie-break key), so no id field is stored.
#[derive(Debug, Clone, Copy)]
struct GlobalState {
    last_ref: i64,
    next_use: Option<i64>,
    /// Index of the file's latest entry in the shared recency log
    /// (recency-keyed policies only): a log entry is live iff it is the
    /// file's latest. Stale once compaction has dropped every entry of
    /// the file, which is harmless: no entry names the file any more.
    last_seq: usize,
}

impl GlobalState {
    const EMPTY: GlobalState = GlobalState {
        last_ref: 0,
        next_use: None,
        last_seq: 0,
    };
}

/// Residency-dependent state of one file in one capacity's stack.
#[derive(Debug, Clone, Copy)]
struct SubState {
    resident: bool,
    dirty: bool,
    /// Size as of this stack's last insert/write of the file (a read
    /// hit never resizes an entry, so stacks can disagree).
    size: u64,
    created: i64,
    ref_count: u32,
    /// Position in the stack's resident list, for O(1) removal.
    pos: u32,
}

impl SubState {
    const EMPTY: SubState = SubState {
        resident: false,
        dirty: false,
        size: 0,
        created: 0,
        ref_count: 0,
        pos: 0,
    };
}

/// One capacity's priority stack: watermarks, usage, counters, resident
/// list, and victim-ranking state.
struct Stack<'p> {
    capacity: u64,
    high: u64,
    low: u64,
    usage: u64,
    stats: CacheStats,
    residents: Vec<u32>,
    rank: Ranking<'p>,
    /// This stack's clock hand into the shared recency log
    /// (recency-keyed policies only): everything before it is dead *for
    /// this capacity*.
    cursor: usize,
}

fn sub_view(fidx: u32, g: &GlobalState, sub: &SubState, est_miss_wait_s: f64) -> FileView {
    FileView {
        id: FileId::new(fidx),
        size: sub.size,
        last_ref: g.last_ref,
        created: sub.created,
        ref_count: sub.ref_count,
        next_use: g.next_use,
        // The open-loop fallback constant, identical for every file —
        // exactly what a per-capacity `DiskCache` replay stamps on each
        // entry when the caller sets the same hint.
        est_miss_wait_s,
    }
}

/// One capacity's column of the shared file state: everything a
/// stack's [`StackView`] holds that a purge does not mutate. `Copy`, so
/// the view is rebuilt from it around every eviction.
#[derive(Clone, Copy)]
struct Column<'a> {
    globals: &'a [GlobalState],
    grid: usize,
    ci: usize,
    est: f64,
}

impl<'a> Column<'a> {
    fn view(self, subs: &'a [SubState], residents: &'a [u32]) -> StackView<'a> {
        StackView {
            col: self,
            subs,
            residents,
        }
    }
}

/// One capacity's resident set as the ranking sees it: the stack's
/// resident list (swap-remove order) over the engine's split (global,
/// per-capacity) file state.
struct StackView<'a> {
    col: Column<'a>,
    subs: &'a [SubState],
    residents: &'a [u32],
}

impl Residents for StackView<'_> {
    fn view(&self, file: u32) -> Option<FileView> {
        let col = self.col;
        let sub = self.subs.get(file as usize * col.grid + col.ci)?;
        let g = col.globals.get(file as usize)?;
        sub.resident.then(|| sub_view(file, g, sub, col.est))
    }

    fn len(&self) -> usize {
        self.residents.len()
    }

    fn files(&self) -> impl Iterator<Item = u32> + '_ {
        self.residents.iter().copied()
    }
}

impl<'p> Stack<'p> {
    fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy) -> Self {
        let (high, low) = config.watermarks();
        Stack {
            capacity: config.capacity,
            high,
            low,
            usage: 0,
            stats: CacheStats::default(),
            residents: Vec::new(),
            rank: Ranking::new(policy, EvictionMode::Auto),
            cursor: 0,
        }
    }

    /// Watermark purge off the shared recency log: advance this stack's
    /// clock hand past dead entries (file gone from this capacity, or a
    /// later touch exists) and evict live ones oldest-first, resolving
    /// equal-timestamp groups by ascending id — exactly the
    /// `(priority desc, id asc)` order LRU's rescan would produce,
    /// without a single float or virtual call.
    ///
    /// Every resident's latest log entry is always at or past the
    /// cursor (the hand only passes an entry once it is dead for this
    /// capacity, and any later re-entry appends a fresh entry), so the
    /// walk is exhaustive and each stack traverses the log at most once
    /// per run.
    fn maybe_purge_recency(
        &mut self,
        log: &[(i64, u32)],
        globals: &[GlobalState],
        subs: &mut [SubState],
        grid: usize,
        ci: usize,
    ) {
        if self.usage <= self.high {
            return;
        }
        while self.usage > self.low {
            let live = |fidx: u32, seq: usize, subs: &[SubState]| {
                subs[fidx as usize * grid + ci].resident && globals[fidx as usize].last_seq == seq
            };
            // Advance the hand past dead entries to the oldest live one.
            let (time, mut victim) = loop {
                let Some(&(time, fidx)) = log.get(self.cursor) else {
                    // Every resident's latest entry is at or past the
                    // hand, so a dry log means an empty stack — which
                    // cannot be above its low mark. A compaction that
                    // lost a live entry would land here as a quiet
                    // under-purge.
                    debug_assert!(
                        self.residents.is_empty(),
                        "touch log ran dry with {} files resident",
                        self.residents.len()
                    );
                    return;
                };
                if live(fidx, self.cursor, subs) {
                    break (time, fidx);
                }
                self.cursor += 1;
            };
            // Equal-timestamp group: the oracle breaks the priority tie
            // by ascending id, so pick the smallest live id among the
            // group. The hand stays on the group until it is all dead.
            let mut j = self.cursor + 1;
            while let Some(&(t2, f2)) = log.get(j) {
                if t2 != time {
                    break;
                }
                // The dense index is the id, so this *is* the ascending-
                // id tie-break.
                if live(f2, j, subs) && f2 < victim {
                    victim = f2;
                }
                j += 1;
            }
            self.evict(victim, subs, grid, ci);
        }
    }

    /// Inserts `fidx` (not currently resident) with the given state.
    fn insert(&mut self, fidx: u32, sub: &mut SubState) {
        sub.resident = true;
        sub.pos = self.residents.len() as u32;
        self.residents.push(fidx);
        self.usage += sub.size;
    }

    /// Removes a victim from the resident list and books the eviction —
    /// `DiskCache::evict` for one stack.
    fn evict(&mut self, fidx: u32, subs: &mut [SubState], grid: usize, ci: usize) {
        let stall = self.usage > self.high;
        let sub = &mut subs[fidx as usize * grid + ci];
        debug_assert!(sub.resident, "victim is resident");
        sub.resident = false;
        let pos = sub.pos as usize;
        let size = sub.size;
        self.residents.swap_remove(pos);
        if let Some(&moved) = self.residents.get(pos) {
            subs[moved as usize * grid + ci].pos = pos as u32;
        }
        self.usage -= size;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += size;
        if subs[fidx as usize * grid + ci].dirty {
            self.stats.writeback_bytes += size;
            if stall {
                self.stats.stall_bytes += size;
            } else {
                self.stats.purge_flush_bytes += size;
            }
        }
    }

    /// Watermark purge through the stack's ranking: evict the victims
    /// it names until usage reaches the low mark.
    fn maybe_purge(&mut self, col: Column, subs: &mut [SubState], now: i64) {
        if self.usage <= self.high {
            return;
        }
        self.rank.begin_purge(&col.view(subs, &self.residents), now);
        while self.usage > self.low {
            let host = col.view(subs, &self.residents);
            let Some(victim) = self.rank.next_victim(&host, now) else {
                break;
            };
            self.evict(victim, subs, col.grid, col.ci);
            self.rank
                .evicted(&col.view(subs, &self.residents), victim, now);
        }
    }
}

/// How far the recency log may grow past twice the file count before
/// [`compact_recency_log`] runs, so a small file set does not compact
/// every few references.
const LOG_SLACK: usize = 1024;

/// Trims the shared recency log to the entries some stack could still
/// find live: those at or past the slowest clock hand that are still
/// their file's latest touch. Everything else is an entry
/// `maybe_purge_recency` would step over: behind a hand, an entry stays
/// dead for that stack (re-entry appends a fresh one), and a superseded
/// entry is dead for every stack.
///
/// Survivors keep their order — so the victim order and the
/// equal-timestamp groups do not change — and move to the front; each
/// survivor's `last_seq` and each hand are renumbered to match. At most
/// one entry per file survives, so triggering at `2 · files + slack`
/// entries makes the pass amortised O(1) per reference.
fn compact_recency_log(
    log: &mut Vec<(i64, u32)>,
    globals: &mut [GlobalState],
    stacks: &mut [Stack],
) {
    let mut hands: Vec<&mut usize> = stacks.iter_mut().map(|s| &mut s.cursor).collect();
    hands.sort_unstable_by_key(|hand| **hand);
    let mut hands = hands.into_iter().peekable();
    let floor = hands.peek().map_or(log.len(), |hand| **hand);
    let mut kept = 0;
    for seq in floor..log.len() {
        // A hand on `seq` moves to that entry's new index if it
        // survives, else to the next survivor's.
        while let Some(hand) = hands.next_if(|hand| **hand == seq) {
            *hand = kept;
        }
        let (time, fidx) = log[seq];
        let g = &mut globals[fidx as usize];
        if g.last_seq == seq {
            g.last_seq = kept;
            log[kept] = (time, fidx);
            kept += 1;
        }
    }
    for hand in hands {
        *hand = kept; // hands at the end of the log stay there
    }
    log.truncate(kept);
}

/// Computes the exact miss-ratio curve for `policy` over `capacities` in
/// a single pass over the prepared trace.
///
/// Each capacity's counters are bit-identical to what
/// [`sweep_capacities_naive`] (one full replay per capacity) measures;
/// the pass shares the file table, the id lookup, and the next-use
/// oracle across the grid, and each stack purges through the adaptive
/// eviction index wherever the policy is affine.
///
/// # Panics
///
/// Panics if `base.cache`'s watermarks are not `0 < low <= high <= 1`
/// (the same contract as [`DiskCache::new`]).
pub fn sweep_capacities(
    refs: &[PreparedRef],
    policy: &dyn MigrationPolicy,
    capacities: &[u64],
    base: &EvalConfig,
) -> MissRatioCurve {
    sweep_capacities_streaming(refs.iter().copied(), policy, capacities, base)
}

/// [`sweep_capacities`] over a reference *stream*: the same fused
/// single-pass engine, fed from any iterator instead of a slice.
///
/// This is the entry the imported-trace replay store uses — its chunked
/// readers hand references straight from disk, so a multi-GB trace
/// sweeps a whole capacity grid without ever materializing as a
/// `Vec<PreparedRef>`. Peak memory is the grid's per-file state
/// (`O(files × capacities)`, LRU's touch log included: it holds at most
/// `2 · files + 1024` entries) plus whatever the iterator buffers.
/// Feeding the same sequence is bit-identical to the slice entry, which
/// is implemented on top of this.
///
/// # Panics
///
/// Panics if `base.cache`'s watermarks are not `0 < low <= high <= 1`
/// (the same contract as [`DiskCache::new`]).
pub fn sweep_capacities_streaming(
    refs: impl IntoIterator<Item = PreparedRef>,
    policy: &dyn MigrationPolicy,
    capacities: &[u64],
    base: &EvalConfig,
) -> MissRatioCurve {
    base.cache.watermarks(); // rejects bad watermarks even on an empty grid
    let grid = capacities.len();
    let mut stacks: Vec<Stack> = capacities
        .iter()
        .map(|&capacity| {
            let config = CacheConfig {
                capacity,
                ..base.cache
            };
            Stack::new(config, policy)
        })
        .collect();
    let skip_read_touch = policy.read_touch_monotone();
    // The open-loop miss-latency fallback: every FileView this pass
    // hands to the policy carries the same flat estimate the naive
    // per-capacity replay stamps on its entries (see
    // `DiskCache::set_est_miss_wait_s`), keeping the two bit-identical
    // for latency-aware policies too.
    let est = base.wait_s_per_miss;
    // Pure-recency policies (LRU) rank victims for the whole grid off
    // one shared chronological touch log; see `maybe_purge_recency`.
    let mut recency = policy.recency_keyed();
    let mut log: Vec<(i64, u32)> = Vec::new();
    let mut globals: Vec<GlobalState> = Vec::new();
    let mut subs: Vec<SubState> = Vec::new();
    let mut max_now = i64::MIN;
    for r in refs {
        // The dense id is the arena index — no interning, no lookup.
        // Grow the shared table and the per-capacity rows lazily to
        // cover it (hand-built streams may arrive out of dense order).
        let fidx = r.id.raw();
        if r.id.index() >= globals.len() {
            globals.resize(r.id.index() + 1, GlobalState::EMPTY);
            subs.resize(globals.len() * grid, SubState::EMPTY);
        }
        if r.time < max_now {
            // Monotone-clock guard, as in `DiskCache::note_time`: the
            // affine contract is void, every stack degrades for good.
            for stack in &mut stacks {
                stack.rank.degrade();
            }
            recency = false;
        } else {
            max_now = r.time;
        }
        if recency {
            if log.len() >= 2 * globals.len() + LOG_SLACK {
                compact_recency_log(&mut log, &mut globals, &mut stacks);
            }
            globals[fidx as usize].last_seq = log.len();
            log.push((r.time, fidx));
            #[cfg(test)]
            tests::LOG_HIGH_WATER.with(|high| high.set(high.get().max(log.len())));
        }
        // Every touch writes these in every stack that ends up holding
        // the file (hits refresh them, misses insert with them), so the
        // shared copy is exact.
        let g = &mut globals[fidx as usize];
        g.last_ref = r.time;
        g.next_use = r.next_use;
        let column = |ci| Column {
            globals: &globals,
            grid,
            ci,
            est,
        };
        let row = fidx as usize * grid;
        for (ci, stack) in stacks.iter_mut().enumerate() {
            let sub = &mut subs[row + ci];
            if r.write {
                stack.stats.writes += 1;
                if base.cache.eager_writeback {
                    stack.stats.writeback_bytes += r.size;
                }
                if sub.resident {
                    stack.usage = stack.usage - sub.size + r.size;
                    sub.size = r.size;
                    sub.ref_count += 1;
                    sub.dirty = !base.cache.eager_writeback;
                } else {
                    if r.size > stack.capacity {
                        continue; // tape-direct bypass
                    }
                    *sub = SubState {
                        resident: false,
                        dirty: !base.cache.eager_writeback,
                        size: r.size,
                        created: r.time,
                        ref_count: 1,
                        pos: 0,
                    };
                    stack.insert(fidx, sub);
                }
            } else if sub.resident {
                // Read hit — the hot path. Usage is unchanged (no purge
                // can trigger) and for read-touch-monotone policies the
                // stale index key safely overestimates, so the whole
                // index interaction is skipped.
                stack.stats.read_hits += 1;
                stack.stats.read_hit_bytes += sub.size;
                sub.ref_count += 1;
                if !skip_read_touch && !recency {
                    let host = column(ci).view(&subs, &stack.residents);
                    stack.rank.touched(&host, fidx, r.time);
                }
                continue;
            } else {
                stack.stats.read_misses += 1;
                stack.stats.read_miss_bytes += r.size;
                if r.size > stack.capacity {
                    continue; // tape-direct bypass
                }
                *sub = SubState {
                    resident: false,
                    dirty: false,
                    size: r.size,
                    created: r.time,
                    ref_count: 1,
                    pos: 0,
                };
                stack.insert(fidx, sub);
            }
            // Only writes and inserts reach here, the ops that can grow
            // usage past the watermark — same reachability as
            // `DiskCache`.
            if recency {
                stack.maybe_purge_recency(&log, &globals, &mut subs, grid, ci);
                continue;
            }
            let host = column(ci).view(&subs, &stack.residents);
            stack.rank.touched(&host, fidx, r.time);
            stack.maybe_purge(column(ci), &mut subs, r.time);
        }
    }
    MissRatioCurve {
        policy: policy.name(),
        points: capacities
            .iter()
            .zip(&stacks)
            .map(|(&capacity, stack)| MrcPoint {
                capacity,
                stats: stack.stats,
            })
            .collect(),
    }
}

/// The pre-index cost model: replays the full trace once per capacity
/// with the sort-based rescan ranking every purge.
///
/// Kept as the oracle the single-pass engine is property-tested against
/// (`tests/mrc_index.rs`) and `examples/capacity_planning.rs` checks its
/// curve with.
pub fn sweep_capacities_naive(
    refs: &[PreparedRef],
    policy: &dyn MigrationPolicy,
    capacities: &[u64],
    base: &EvalConfig,
) -> MissRatioCurve {
    let points = capacities
        .iter()
        .map(|&capacity| {
            let mut cache = DiskCache::with_eviction_mode(
                CacheConfig {
                    capacity,
                    ..base.cache
                },
                policy,
                EvictionMode::Rescan,
            );
            cache.set_est_miss_wait_s(base.wait_s_per_miss);
            for r in refs {
                if r.write {
                    cache.write(r.id, r.size, r.time, r.next_use);
                } else {
                    cache.read(r.id, r.size, r.time, r.next_use);
                }
            }
            MrcPoint {
                capacity,
                stats: *cache.stats(),
            }
        })
        .collect();
    MissRatioCurve {
        policy: policy.name(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::HashMap;

    use super::*;
    use crate::eval::prepare;
    use crate::policy::{standard_suite, Belady, Lru};
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{DeviceClass, Endpoint, TraceRecord};

    fn skewed_refs() -> Vec<PreparedRef> {
        let mut records = Vec::new();
        let mut t = 0i64;
        for round in 0..50 {
            for hot in 0..5 {
                t += 15;
                records.push(TraceRecord::read(
                    Endpoint::MssDisk,
                    TRACE_EPOCH.add_secs(t),
                    300_000,
                    format!("/hot/f{hot}"),
                    1,
                ));
            }
            t += 15;
            records.push(TraceRecord::read(
                Endpoint::MssTapeSilo,
                TRACE_EPOCH.add_secs(t),
                2_500_000,
                format!("/cold/f{round}"),
                1,
            ));
        }
        prepare(records.iter()).refs().to_vec()
    }

    #[test]
    fn single_pass_matches_naive_per_capacity_replay() {
        let refs = skewed_refs();
        let capacities = [900_000u64, 2_000_000, 5_000_000, 20_000_000, 80_000_000];
        let base = EvalConfig::with_capacity(0);
        let mut policies = standard_suite();
        policies.push(Box::new(Belady));
        for policy in &policies {
            let fused = sweep_capacities(&refs, policy.as_ref(), &capacities, &base);
            let naive = sweep_capacities_naive(&refs, policy.as_ref(), &capacities, &base);
            assert_eq!(fused, naive, "{} diverged", policy.name());
        }
    }

    #[test]
    fn curves_are_monotone_for_stack_friendly_policies() {
        let refs = skewed_refs();
        let capacities = [1_000_000u64, 4_000_000, 16_000_000, 64_000_000];
        let curve = sweep_capacities(&refs, &Lru, &capacities, &EvalConfig::with_capacity(0));
        for w in curve.miss_ratios().windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "LRU miss ratio rose with capacity: {:?}",
                curve.miss_ratios()
            );
        }
    }

    #[test]
    fn outcome_matches_individual_replay() {
        let refs = skewed_refs();
        let base = EvalConfig::with_capacity(0);
        let curve = sweep_capacities(&refs, &Lru, &[3_000_000], &base);
        let config = EvalConfig {
            cache: CacheConfig {
                capacity: 3_000_000,
                ..base.cache
            },
            ..base
        };
        let point = curve.points[0].outcome("LRU", &config);
        let trace = crate::eval::PreparedTrace::from_refs(refs);
        let direct = trace.replay(&Lru, &config);
        assert_eq!(point, direct);
    }

    /// A long LRU stream over few files, built from raw
    /// `(write, file, size, step)` specs: times never decrease, steps
    /// `0..=4` of `0..8` are ties (runs of equal timestamps), and writes
    /// resize their file.
    fn lru_stream(files: u32, specs: &[(bool, u32, u64, i64)]) -> Vec<PreparedRef> {
        let mut t = 0;
        let mut refs: Vec<PreparedRef> = specs
            .iter()
            .map(|&(write, id, size, step)| {
                t += (step - 4).max(0);
                PreparedRef {
                    id: (id % files).into(),
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
            r.next_use = next_seen.insert(r.id, r.time);
        }
        refs
    }

    const MAX_SIZE: u64 = 1000;

    /// The grid the compaction tests sweep: one capacity that holds
    /// every file, one smaller than most files, and `pcts` of the first
    /// in between.
    fn compaction_grid(files: u32, pcts: &[u64]) -> Vec<u64> {
        let everything = u64::from(files) * MAX_SIZE * 2;
        let mut grid = vec![everything, MAX_SIZE / 4];
        grid.extend(pcts.iter().map(|&pct| (everything * pct / 100).max(1)));
        grid
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Streams 20× longer than the file count outgrow the log's
        /// slack, so the touch log compacts (several times on the longer
        /// draws) — and the curve still equals one naive replay per
        /// capacity, bit for bit.
        #[test]
        fn a_compacting_touch_log_matches_naive_replay(
            files in 1u32..=64,
            specs in proptest::collection::vec(
                (proptest::arbitrary::any::<bool>(), 0u32..64, 1u64..=MAX_SIZE, 0i64..8),
                1300..4000,
            ),
            pcts in proptest::collection::vec(1u64..100, 1..4),
        ) {
            let refs = lru_stream(files, &specs);
            let grid = compaction_grid(files, &pcts);
            let base = EvalConfig::with_capacity(0);
            let fused = sweep_capacities(&refs, &Lru, &grid, &base);
            let naive = sweep_capacities_naive(&refs, &Lru, &grid, &base);
            proptest::prop_assert_eq!(fused, naive);
        }
    }

    thread_local! {
        /// The longest the recency log has been on this thread.
        pub(super) static LOG_HIGH_WATER: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn the_touch_log_stays_bounded_by_the_file_count() {
        const FILES: u32 = 2000;
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let specs: Vec<_> = (0..4 * 10 * FILES)
            .map(|_| {
                let x = next();
                (
                    x % 5 == 0,
                    (x >> 8) as u32 % FILES,
                    1 + (x >> 24) % MAX_SIZE,
                    (x >> 40) as i64 % 8,
                )
            })
            .collect();
        let grid = compaction_grid(FILES, &[5, 30, 70]);
        let base = EvalConfig::with_capacity(0);
        let bound = 2 * FILES as usize + LOG_SLACK;
        for len in [specs.len() / 4, specs.len()] {
            let refs = lru_stream(FILES, &specs[..len]);
            LOG_HIGH_WATER.with(|high| high.set(0));
            let fused = sweep_capacities(&refs, &Lru, &grid, &base);
            let high = LOG_HIGH_WATER.with(Cell::get);
            assert!(
                high <= bound,
                "{len} references: log reached {high} > {bound}"
            );
            assert!(
                high > FILES as usize,
                "{len} references never filled the log"
            );
            assert_eq!(fused, sweep_capacities_naive(&refs, &Lru, &grid, &base));
        }
    }

    #[test]
    fn a_file_row_stays_thirty_two_bytes() {
        assert!(std::mem::size_of::<GlobalState>() <= 32);
    }

    #[test]
    fn empty_grid_and_empty_trace_are_fine() {
        let refs = skewed_refs();
        let base = EvalConfig::with_capacity(0);
        assert!(sweep_capacities(&refs, &Lru, &[], &base).points.is_empty());
        let empty = sweep_capacities(&[], &Lru, &[1_000_000], &base);
        assert_eq!(empty.points[0].stats, CacheStats::default());
    }
}
