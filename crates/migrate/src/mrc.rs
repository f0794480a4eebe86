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
//! Victim ranking takes one of three tiers per sweep, named by
//! [`MigrationPolicy::shared_key`]:
//!
//! * **Recency** ([`SharedKey::Recency`], LRU): the victim order is the
//!   same global recency order for *every* capacity, so all stacks
//!   share **one** touch log and each walks it with its own clock hand.
//!   Each equal-timestamp group of the log is sorted by id once, when
//!   it closes (the first later timestamp arrives), so a hand evicts
//!   the first live entry it meets. Only the newest group is still
//!   open; a stack whose hand reaches it ranks it through a min-heap of
//!   its entries, built when the hand first gets there and topped up
//!   as the group grows. Amortised O(1) per reference for the whole
//!   grid, plus O(log g) per entry of a g-entry tie group; no floats,
//!   no virtual calls. This is the closest exact analogue of Mattson's
//!   single stack that watermark batch purging admits.
//! * **Next use** ([`SharedKey::NextUse`], Belady): each stack keeps a
//!   max-heap of `(key, id)` pairs whose integer key orders exactly
//!   like the affine intercept `next_use as f64` under `total_cmp`
//!   (never-again as +∞), so ties break by ascending id as the rescan
//!   breaks them. Every touch that leaves a file resident under a new
//!   key pushes it; a purge pops pairs and drops the ones that no
//!   longer match their file's row; past `2 · residents + 64` pairs the
//!   heap keeps only the live ones.
//! * **Ranked** (every other policy): the `rank` module's one lifecycle
//!   (`crate::rank::Ranking`, documented in `rank.rs`). Each capacity's
//!   stack hosts its own instance under [`EvictionMode::Auto`] — the
//!   scan or the rescan a lone [`DiskCache`] at that capacity would run,
//!   probed at the same first purge. The ranking
//!   keeps its own row per resident; the stack shows it file views.
//!
//! The first two tiers rank straight off the shared file row: no
//! [`FileView`], no resident list, only a count. A clock that steps
//! backwards voids both keys' contracts, as it voids the ranking's
//! closed forms; every stack then hands its residents, found in the
//! rows once, to a ranking on the exact rescan for good.
//!
//! Memory is O(files × capacities) whatever the trace's length: the
//! shared and per-capacity file rows, plus the touch log, which
//! `compact_recency_log` trims back to at most one entry per file
//! whenever it reaches twice the file count plus a fixed slack, or the
//! next-use heaps, each at most `2 · residents + 64` pairs.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fmig_trace::FileId;

use crate::cache::{CacheConfig, CacheStats, DiskCache, EvictionMode};
use crate::eval::{EvalConfig, PolicyOutcome, PreparedRef};
use crate::policy::{FileView, MigrationPolicy, SharedKey};
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
    /// (recency tier only): a log entry is live iff it is the
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
}

impl SubState {
    const EMPTY: SubState = SubState {
        resident: false,
        dirty: false,
        size: 0,
        created: 0,
        ref_count: 0,
    };
}

/// Belady's victim key for a file row: the bits of the affine intercept
/// `next_use as f64` (never again = +∞), remapped so that unsigned
/// integer order is `f64::total_cmp` order — the same ranking, ties
/// included, without a float compare.
fn next_use_key(next_use: Option<i64>) -> u64 {
    let bits = next_use.map_or(f64::INFINITY, |t| t as f64).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// One stack's view of the touch log's open group, which is not sorted
/// yet: its entries `(id, seq)` from the hand on, as a min-heap built
/// when a purge first reaches the group and topped up by later ones.
/// It names entries by index, so it starts over when the indices
/// change: eagerly when the log compacts, and lazily, at its next use,
/// once the group it was built for has closed.
#[derive(Default)]
struct OpenGroup {
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    /// The open group's start when the heap was built.
    base: usize,
    /// Log length the heap has taken entries up to.
    upto: usize,
}

impl OpenGroup {
    fn reset(&mut self, base: usize) {
        self.heap.clear();
        self.base = base;
        self.upto = base;
    }
}

/// How one capacity's stack finds its victims; see the module docs.
enum Order<'p> {
    /// [`SharedKey::Recency`]: a clock hand into the shared touch log.
    Recency {
        /// Everything before the hand is dead *for this capacity*. It
        /// walks the closed (sorted) groups only, so it never passes
        /// the open group's start.
        cursor: usize,
        open: OpenGroup,
    },
    /// [`SharedKey::NextUse`]: `(next_use_key, id)` pairs, the victim
    /// on top; pairs that no longer match their row are dropped when
    /// they surface.
    NextUse(BinaryHeap<(u64, Reverse<u32>)>),
    /// Every other policy: the shared ranking lifecycle, which keeps a
    /// row per resident.
    Ranked(Box<Ranking<'p>>),
}

/// One capacity's priority stack: watermarks, usage, counters, resident
/// count, and victim-ranking state.
struct Stack<'p> {
    capacity: u64,
    high: u64,
    low: u64,
    usage: u64,
    stats: CacheStats,
    /// Files resident.
    len: usize,
    order: Order<'p>,
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

/// One capacity's column of the shared state: everything a purge reads
/// and does not mutate. `Copy`, so the ranked tier's view is rebuilt
/// from it around every eviction.
#[derive(Clone, Copy)]
struct Column<'a> {
    globals: &'a [GlobalState],
    /// The shared touch log (recency tier; empty otherwise) and the
    /// index its open group starts at.
    log: &'a [(i64, u32)],
    open_start: usize,
    grid: usize,
    ci: usize,
    est: f64,
}

impl<'a> Column<'a> {
    fn view(self, subs: &'a [SubState]) -> StackView<'a> {
        StackView { col: self, subs }
    }

    fn resident(self, subs: &[SubState], fidx: u32) -> bool {
        subs[fidx as usize * self.grid + self.ci].resident
    }

    /// A touch-log entry is live iff it is its file's latest and the
    /// file is resident here. (The shared row first: most dead entries
    /// are superseded ones, which it settles alone.)
    fn entry_is_live(self, subs: &[SubState], fidx: u32, seq: usize) -> bool {
        self.globals[fidx as usize].last_seq == seq && self.resident(subs, fidx)
    }

    /// A next-use pair is live iff its key is the one the file's row
    /// gives now and the file is resident here.
    fn key_is_live(self, subs: &[SubState], fidx: u32, key: u64) -> bool {
        next_use_key(self.globals[fidx as usize].next_use) == key && self.resident(subs, fidx)
    }
}

/// One capacity's resident set as the ranking sees it: a file's view
/// from the engine's split (global, per-capacity) file state.
struct StackView<'a> {
    col: Column<'a>,
    subs: &'a [SubState],
}

impl Residents for StackView<'_> {
    fn view(&self, file: u32) -> Option<FileView> {
        let col = self.col;
        let sub = self.subs.get(file as usize * col.grid + col.ci)?;
        let g = col.globals.get(file as usize)?;
        sub.resident.then(|| sub_view(file, g, sub, col.est))
    }
}

impl Order<'_> {
    /// The stack's next victim at `now` in `(priority desc, id asc)`
    /// order, or `None` once nothing is resident. The caller evicts it
    /// before asking again.
    fn next_victim(&mut self, col: Column, subs: &[SubState], now: i64) -> Option<u32> {
        match self {
            Order::Recency { cursor, open } => {
                // Closed groups are sorted by id, and every resident's
                // latest entry is at or past the hand (the hand passes
                // only entries dead for this capacity, and a re-entry
                // appends a fresh one): the first live entry is the
                // oldest resident, lowest id among its ties.
                while *cursor < col.open_start {
                    let (_, fidx) = col.log[*cursor];
                    if col.entry_is_live(subs, fidx, *cursor) {
                        return Some(fidx);
                    }
                    *cursor += 1;
                }
                // Every closed entry is dead here: the victim is the
                // open group's lowest live id. A popped dead entry
                // stays dead until the heap starts over.
                if open.base != col.open_start {
                    open.reset(col.open_start);
                }
                for seq in open.upto..col.log.len() {
                    open.heap.push(Reverse((col.log[seq].1, seq)));
                    #[cfg(test)]
                    tests::note_tie_work(1);
                }
                open.upto = col.log.len();
                while let Some(Reverse((fidx, seq))) = open.heap.pop() {
                    #[cfg(test)]
                    tests::note_tie_work(1);
                    if col.entry_is_live(subs, fidx, seq) {
                        return Some(fidx);
                    }
                }
                None
            }
            Order::NextUse(heap) => {
                while let Some((key, Reverse(fidx))) = heap.pop() {
                    if col.key_is_live(subs, fidx, key) {
                        return Some(fidx);
                    }
                }
                None
            }
            Order::Ranked(rank) => rank.next_victim(&col.view(subs), now),
        }
    }
}

impl<'p> Stack<'p> {
    fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy, key: Option<SharedKey>) -> Self {
        let (high, low) = config.watermarks();
        Stack {
            capacity: config.capacity,
            high,
            low,
            usage: 0,
            stats: CacheStats::default(),
            len: 0,
            order: match key {
                Some(SharedKey::Recency) => Order::Recency {
                    cursor: 0,
                    open: OpenGroup::default(),
                },
                Some(SharedKey::NextUse) => Order::NextUse(BinaryHeap::new()),
                None => Order::Ranked(Box::new(Ranking::new(policy, EvictionMode::Auto))),
            },
        }
    }

    /// The clock stepped backwards: both shared keys' contracts and
    /// the ranking's closed forms are void, so the stack ranks by the
    /// exact rescan for good — through a new ranking handed the
    /// residents found in the rows, once, if its tier kept none.
    fn degrade(&mut self, policy: &'p dyn MigrationPolicy, col: Column, subs: &[SubState]) {
        if let Order::Ranked(rank) = &mut self.order {
            rank.degrade();
            return;
        }
        let mut rank = Ranking::new(policy, EvictionMode::Rescan);
        for (fidx, sub) in subs.iter().skip(col.ci).step_by(col.grid).enumerate() {
            if sub.resident {
                rank.touched(fidx as u32);
            }
        }
        self.order = Order::Ranked(Box::new(rank));
    }

    /// Inserts `fidx`'s row (not currently resident) with the given
    /// state; the ranked tier's row comes with the touch that follows.
    fn insert(&mut self, sub: &mut SubState) {
        sub.resident = true;
        self.len += 1;
        self.usage += sub.size;
    }

    /// Mirrors a touch that leaves `fidx` resident into the stack's
    /// order (the recency tier's log entry is already appended).
    /// `new_key` is false only for a file that was resident and whose
    /// `next_use` did not change: its current next-use pair is then
    /// still in the heap, since a live pair leaves it only by eviction.
    /// Inlined: it runs on every reference, and for LRU it is empty.
    #[inline(always)]
    fn touched(&mut self, col: Column, subs: &[SubState], fidx: u32, new_key: bool) {
        match &mut self.order {
            Order::Recency { .. } => {}
            Order::NextUse(heap) => {
                if new_key {
                    let key = next_use_key(col.globals[fidx as usize].next_use);
                    heap.push((key, Reverse(fidx)));
                    if heap.len() > 2 * self.len + 64 {
                        heap.retain(|&(key, Reverse(f))| col.key_is_live(subs, f, key));
                    }
                    #[cfg(test)]
                    tests::note_heap(heap.len(), self.len);
                }
            }
            Order::Ranked(rank) => rank.touched(fidx),
        }
    }

    /// Removes a victim and books the eviction — `DiskCache::evict`
    /// for one stack.
    fn evict(&mut self, fidx: u32, subs: &mut [SubState], grid: usize, ci: usize) {
        let stall = self.usage > self.high;
        let sub = &mut subs[fidx as usize * grid + ci];
        debug_assert!(sub.resident, "victim is resident");
        sub.resident = false;
        let size = sub.size;
        let dirty = sub.dirty;
        if let Order::Ranked(rank) = &mut self.order {
            rank.evicted(fidx);
        }
        self.len -= 1;
        self.usage -= size;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += size;
        if dirty {
            self.stats.writeback_bytes += size;
            if stall {
                self.stats.stall_bytes += size;
            } else {
                self.stats.purge_flush_bytes += size;
            }
        }
    }

    /// Watermark purge, if usage is past the high mark. The check is
    /// the per-insert cost; the purge itself stays out of line.
    #[inline(always)]
    fn maybe_purge(&mut self, col: Column, subs: &mut [SubState], now: i64) {
        if self.usage > self.high {
            self.purge(col, subs, now);
        }
    }

    /// Evicts the victims the stack's order names until usage reaches
    /// the low mark.
    fn purge(&mut self, col: Column, subs: &mut [SubState], now: i64) {
        if let Order::Ranked(rank) = &mut self.order {
            rank.begin_purge(&col.view(subs), now);
        }
        while self.usage > self.low {
            let Some(victim) = self.order.next_victim(col, subs, now) else {
                // Every tier finds each resident, so running dry means
                // an empty stack — which cannot be above its low mark.
                // A compaction that lost a live entry would land here
                // as a quiet under-purge.
                debug_assert!(
                    self.len == 0,
                    "victims ran out with {} files resident",
                    self.len
                );
                return;
            };
            self.evict(victim, subs, col.grid, col.ci);
        }
    }
}

/// How far the recency log may grow past twice the file count before
/// [`compact_recency_log`] runs, so a small file set does not compact
/// every few references.
const LOG_SLACK: usize = 1024;

/// Closes the touch log's open group: a later timestamp has arrived,
/// so the group's membership is final. Sorting it by id once puts the
/// equal-timestamp class in victim order (oldest first, ties by
/// ascending id), so a hand evicts the first live entry it meets
/// instead of searching the group at every eviction.
///
/// The moved entries' `last_seq` follow them (their rows were just
/// touched, so they are warm); a file touched twice in the group keeps
/// one live entry, the last of its now adjacent copies. No hand is
/// inside the group — hands stop at its start — so none moves.
fn close_open_group(log: &mut [(i64, u32)], open_start: &mut usize, globals: &mut [GlobalState]) {
    let group = &mut log[*open_start..];
    if group.len() > 1 {
        group.sort_unstable_by_key(|&(_, fidx)| fidx);
        #[cfg(test)]
        tests::note_tie_work(group.len() * (usize::BITS - group.len().leading_zeros()) as usize);
        for (seq, &(_, fidx)) in (*open_start..).zip(group.iter()) {
            globals[fidx as usize].last_seq = seq;
        }
    }
    *open_start = log.len();
}

/// Trims the shared recency log to the entries some stack could still
/// find live: those at or past the slowest clock hand that are still
/// their file's latest touch. Everything else is an entry the purge
/// would step over: behind a hand, an entry stays dead for that stack
/// (re-entry appends a fresh one), and a superseded entry is dead for
/// every stack.
///
/// Survivors keep their order — so the victim order and the sorted
/// equal-timestamp groups do not change — and move to the front; each
/// survivor's `last_seq`, each hand and the open group's start are
/// renumbered to match, and the open-group heaps start over. At most
/// one entry per file survives, so triggering at `2 · files + slack`
/// entries makes the pass amortised O(1) per reference.
fn compact_recency_log(
    log: &mut Vec<(i64, u32)>,
    open_start: &mut usize,
    globals: &mut [GlobalState],
    stacks: &mut [Stack],
) {
    // The open group's start moves like a hand; no hand is past it, so
    // it never lowers the floor.
    let mut hands: Vec<&mut usize> = vec![open_start];
    for stack in stacks.iter_mut() {
        if let Order::Recency { cursor, open } = &mut stack.order {
            open.reset(0);
            hands.push(cursor);
        }
    }
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
/// oracle across the grid; LRU and Belady rank straight off the shared
/// file row, and every other policy's stacks purge through the ranking
/// lifecycle a lone [`DiskCache`] runs.
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
/// `2 · files + 1024` entries; each of Belady's next-use heaps at most
/// `2 · residents + 64` pairs) plus whatever the iterator buffers.
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
    // LRU and Belady rank every capacity straight off the shared file
    // row; everything else through a `Ranking` per capacity.
    let mut key = policy.shared_key();
    let mut stacks: Vec<Stack> = capacities
        .iter()
        .map(|&capacity| {
            let config = CacheConfig {
                capacity,
                ..base.cache
            };
            Stack::new(config, policy, key)
        })
        .collect();
    // The open-loop miss-latency fallback: every FileView this pass
    // hands to the policy carries the same flat estimate the naive
    // per-capacity replay stamps on its entries (see
    // `DiskCache::set_est_miss_wait_s`), keeping the two bit-identical
    // for latency-aware policies too.
    let est = base.wait_s_per_miss;
    // The recency tier's shared touch log; entries before `open_start`
    // are in closed, id-sorted equal-timestamp groups.
    let mut log: Vec<(i64, u32)> = Vec::new();
    let mut open_start = 0;
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
            // Monotone-clock guard, as in `DiskCache::note_time`: every
            // contract that ranks ahead of time is void, every stack
            // degrades for good.
            for (ci, stack) in stacks.iter_mut().enumerate() {
                let col = Column {
                    globals: &globals,
                    log: &log,
                    open_start,
                    grid,
                    ci,
                    est,
                };
                stack.degrade(policy, col, &subs);
            }
            key = None;
        } else {
            max_now = r.time;
        }
        if key == Some(SharedKey::Recency) {
            if log.len() >= 2 * globals.len() + LOG_SLACK {
                compact_recency_log(&mut log, &mut open_start, &mut globals, &mut stacks);
            }
            if log.last().is_some_and(|&(time, _)| time != r.time) {
                close_open_group(&mut log, &mut open_start, &mut globals);
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
        let new_key = g.next_use != r.next_use;
        g.last_ref = r.time;
        g.next_use = r.next_use;
        let column = |ci| Column {
            globals: &globals,
            log: &log,
            open_start,
            grid,
            ci,
            est,
        };
        let row = fidx as usize * grid;
        for (ci, stack) in stacks.iter_mut().enumerate() {
            let sub = &mut subs[row + ci];
            let was_resident = sub.resident;
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
                    };
                    stack.insert(sub);
                }
            } else if sub.resident {
                // Read hit — the hot path. Usage is unchanged, so no
                // purge can trigger.
                stack.stats.read_hits += 1;
                stack.stats.read_hit_bytes += sub.size;
                sub.ref_count += 1;
                stack.touched(column(ci), &subs, fidx, new_key);
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
                };
                stack.insert(sub);
            }
            // Only writes and inserts reach here, the ops that can grow
            // usage past the watermark — same reachability as
            // `DiskCache`.
            stack.touched(column(ci), &subs, fidx, new_key || !was_resident);
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
/// with the rescan ranking every purge.
///
/// Kept as the oracle this module's unit tests and
/// `examples/capacity_planning.rs` check the single-pass curve with
/// (`tests/mrc_index.rs` holds it to the naive cache spec instead).
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
    use crate::eval::TracePrep;
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
        let mut prep = TracePrep::new();
        records.iter().for_each(|rec| prep.observe(rec));
        prep.finish().refs().to_vec()
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

    /// `n` xorshift-drawn `lru_stream` specs over `files` files: one in
    /// five a write, sizes up to [`MAX_SIZE`], steps `0..8`.
    fn random_specs(files: u32, n: u32, mut rng: u64) -> Vec<(bool, u32, u64, i64)> {
        (0..n)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (
                    rng.is_multiple_of(5),
                    (rng >> 8) as u32 % files,
                    1 + (rng >> 24) % MAX_SIZE,
                    (rng >> 40) as i64 % 8,
                )
            })
            .collect()
    }

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
        /// Tie-ordering work on this thread, in entry steps: `g·⌈log₂(g+1)⌉`
        /// per sort of a closed g-entry group, one per open-group heap
        /// push or pop.
        static TIE_WORK: Cell<usize> = const { Cell::new(0) };
        /// Next-use heaps on this thread: the most pairs one held, and
        /// the most it held beyond twice its stack's residents.
        static HEAP_HIGH_WATER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn note_tie_work(steps: usize) {
        TIE_WORK.with(|work| work.set(work.get() + steps));
    }

    pub(super) fn note_heap(len: usize, residents: usize) {
        HEAP_HIGH_WATER.with(|high| {
            let (most, excess) = high.get();
            high.set((most.max(len), excess.max(len.saturating_sub(2 * residents))));
        });
    }

    /// Every reference in one second — 10 k at `t = 0`, 10 k at `t = 1`
    /// — cycling through the files by descending id, so every purge
    /// meets a tie group thousands of entries long: first open, then
    /// closed and sorted, then open again. Searching the group at every
    /// eviction would take about `evictions × files` steps; the sort
    /// and the open-group heaps stay within `O(n log n)`.
    #[test]
    fn a_long_tie_group_costs_n_log_n_and_matches_naive() {
        const FILES: u32 = 2000;
        const N: u32 = 20_000;
        let specs: Vec<_> = (0..N)
            .map(|i| {
                let id = FILES - 1 - i % FILES;
                let size = 1 + u64::from(i.wrapping_mul(7919)) % MAX_SIZE;
                // `lru_stream` steps by `step - 4`: one step of 5 at the
                // midpoint, none elsewhere.
                let step = if i == N / 2 { 5 } else { 0 };
                (i % 5 == 0, id, size, step)
            })
            .collect();
        let refs = lru_stream(FILES, &specs);
        assert_eq!(refs.last().map(|r| r.time), Some(1));
        // Fractions of the files' mean total size: all three churn.
        let total = u64::from(FILES) * MAX_SIZE / 2;
        let grid: Vec<u64> = [10, 30, 60].iter().map(|pct| total * pct / 100).collect();
        let base = EvalConfig::with_capacity(0);
        TIE_WORK.with(|work| work.set(0));
        let fused = sweep_capacities(&refs, &Lru, &grid, &base);
        let work = TIE_WORK.with(Cell::get);
        assert_eq!(fused, sweep_capacities_naive(&refs, &Lru, &grid, &base));
        assert!(
            fused.points.iter().all(|p| p.stats.evictions > 1000),
            "every capacity churns: {:?}",
            fused.points
        );
        let n = N as usize;
        let bound = 2 * n * (usize::BITS - n.leading_zeros()) as usize;
        assert!(work <= bound, "tie-ordering work {work} > {bound}");
        assert!(work > n, "the tie groups were never ordered");
        // Belady's never-again and equal-next-use classes are just as
        // large here.
        assert_eq!(
            sweep_capacities(&refs, &Belady, &grid, &base),
            sweep_capacities_naive(&refs, &Belady, &grid, &base)
        );
    }

    #[test]
    fn the_next_use_heap_stays_bounded_by_the_residents() {
        const FILES: u32 = 2000;
        let refs = lru_stream(
            FILES,
            &random_specs(FILES, 40 * FILES, 0x6A09_E667_F3BC_C909),
        );
        let grid = compaction_grid(FILES, &[5, 30, 70]);
        let base = EvalConfig::with_capacity(0);
        HEAP_HIGH_WATER.with(|high| high.set((0, 0)));
        let fused = sweep_capacities(&refs, &Belady, &grid, &base);
        let (most, excess) = HEAP_HIGH_WATER.with(Cell::get);
        assert!(
            excess <= 64,
            "a heap held {excess} pairs past 2 · residents + 64"
        );
        assert!(most > FILES as usize, "the heaps never filled: {most}");
        assert_eq!(fused, sweep_capacities_naive(&refs, &Belady, &grid, &base));
    }

    #[test]
    fn the_touch_log_stays_bounded_by_the_file_count() {
        const FILES: u32 = 2000;
        let specs = random_specs(FILES, 40 * FILES, 0x2545_F491_4F6C_DD1D);
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
    fn the_next_use_key_orders_like_beladys_affine_intercept() {
        let intercept = |next_use| {
            let file = FileView {
                id: FileId::new(0),
                size: 1,
                last_ref: 0,
                created: 0,
                ref_count: 1,
                next_use,
                est_miss_wait_s: 0.0,
            };
            Belady.affine(&file).expect("Belady is affine").intercept
        };
        // Both signs, zero, ties past 2^53 (two i64s, one f64), the
        // extremes, and never-again.
        let stamps = [
            None,
            Some(i64::MIN),
            Some(-7),
            Some(0),
            Some(1),
            Some(1 << 53),
            Some((1 << 53) + 1),
            Some(i64::MAX),
        ];
        for a in stamps {
            for b in stamps {
                assert_eq!(
                    next_use_key(a).cmp(&next_use_key(b)),
                    intercept(a).total_cmp(&intercept(b)),
                    "{a:?} vs {b:?}"
                );
            }
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
