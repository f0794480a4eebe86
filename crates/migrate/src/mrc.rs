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
//! Victim ranking is tiered by how much the policy promises:
//!
//! * **Pure recency** ([`MigrationPolicy::recency_keyed`], LRU): the
//!   victim order is the same global recency order for *every*
//!   capacity, so all stacks share **one** append-only touch log and
//!   each walks it with its own clock-hand cursor — O(1) per reference
//!   for the whole grid, no floats, no virtual calls. This is the
//!   closest exact analogue of Mattson's single stack that watermark
//!   batch purging admits.
//! * **Affine** ([`MigrationPolicy::affine`]): per-capacity incremental
//!   index with the same adaptive machinery as [`DiskCache`] (monotone
//!   queue / lazy heap, resident-count gate
//!   [`crate::cache::INDEX_MIN_RESIDENTS`]).
//! * **Kinetic** ([`MigrationPolicy::kinetic`], STP/SAAC/RandomEvict
//!   and the latency-aware pair): a per-capacity kinetic tournament
//!   (`crate::rank::KineticTournament`) whose certificates schedule the
//!   only re-comparisons a clock advance needs, so each stack pays
//!   amortized `O(log n)` per purge instead of re-ranking all residents
//!   at every capacity.
//! * **Everything else**: the exact `total_cmp` rescan.
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

use crate::cache::{CacheConfig, CacheStats, DiskCache, EvictionMode, INDEX_MIN_RESIDENTS};
use crate::eval::{EvalConfig, PolicyOutcome, PreparedRef};
use crate::policy::{FileView, KineticForm, MigrationPolicy};
use crate::rank::{Candidate, KineticTournament, Popped, RankKey, VictimRank};

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
    /// file's latest.
    last_seq: u32,
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

/// How one capacity's stack currently ranks victims — the same
/// lifecycle as `DiskCache`'s `Auto` mode. The payload of each
/// [`RankKey`] is the file's dense index.
#[derive(Debug)]
enum RankMode {
    Unprobed,
    Active {
        slope_bits: u64,
        rank: VictimRank<u32>,
    },
    /// The policy declined `affine()` but ships a kinetic form: this
    /// capacity's victims rank through a certificate-carrying tournament
    /// over its resident set, as in `DiskCache`.
    Kinetic(KineticTournament),
    Rescan,
}

/// The evaluation hook one stack's [`KineticTournament`] calls to
/// (re-)score a leaf, mirroring `cache::kinetic_eval` over this
/// engine's split (global, per-capacity) file state. `None` (not
/// resident in this capacity, or the policy refuses the form) degrades
/// the stack to the rescan.
fn stack_kinetic_eval<'a>(
    policy: &'a dyn MigrationPolicy,
    globals: &'a [GlobalState],
    subs: &'a [SubState],
    grid: usize,
    ci: usize,
    est: f64,
) -> impl FnMut(u32, i64) -> Option<(f64, KineticForm)> + 'a {
    move |fidx, at| {
        let sub = subs.get(fidx as usize * grid + ci)?;
        if !sub.resident {
            return None;
        }
        let g = globals.get(fidx as usize)?;
        let v = sub_view(fidx, g, sub, est);
        let form = policy.kinetic(&v, at)?;
        Some((policy.priority(&v, at), form))
    }
}

/// One capacity's priority stack: watermarks, usage, counters, resident
/// list, and victim-ranking state.
#[derive(Debug)]
struct Stack {
    capacity: u64,
    high: u64,
    low: u64,
    usage: u64,
    stats: CacheStats,
    residents: Vec<u32>,
    rank: RankMode,
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

impl Stack {
    fn new(capacity: u64, base: &CacheConfig) -> Self {
        Stack {
            capacity,
            high: (capacity as f64 * base.high_watermark) as u64,
            low: (capacity as f64 * base.low_watermark) as u64,
            usage: 0,
            stats: CacheStats::default(),
            residents: Vec::new(),
            rank: RankMode::Unprobed,
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
                subs[fidx as usize * grid + ci].resident
                    && globals[fidx as usize].last_seq == seq as u32
            };
            // Advance the hand past dead entries to the oldest live one.
            let (time, mut victim) = loop {
                let Some(&(time, fidx)) = log.get(self.cursor) else {
                    return; // no live entry left: nothing to purge
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

    /// Mirrors a touched/inserted resident's mutation into whichever
    /// index this stack runs — an affine key push or a kinetic leaf
    /// mark (settled when `maybe_purge` next advances the tournament) —
    /// exactly like `DiskCache::index_upsert`. Returns `true`
    /// when stale affine keys dominate and the caller should rebuild the
    /// heap from the resident set (the caller holds the file table the
    /// rebuild needs); the kinetic tournament mirrors exactly and never
    /// asks for a rebuild.
    #[must_use]
    #[expect(clippy::too_many_arguments)]
    fn index_upsert(
        &mut self,
        policy: &dyn MigrationPolicy,
        fidx: u32,
        globals: &[GlobalState],
        subs: &[SubState],
        grid: usize,
        ci: usize,
        now: i64,
        est: f64,
    ) -> bool {
        match &mut self.rank {
            RankMode::Active { slope_bits, rank } => {
                let g = &globals[fidx as usize];
                let sub = &subs[fidx as usize * grid + ci];
                match policy.affine(&sub_view(fidx, g, sub, est)) {
                    Some(a) if a.slope.to_bits() == *slope_bits => {
                        rank.push(RankKey {
                            intercept: a.intercept,
                            id: u64::from(fidx),
                            payload: fidx,
                        });
                        rank.len() > self.residents.len() * 2 + 64
                    }
                    _ => {
                        self.rank = RankMode::Rescan;
                        false
                    }
                }
            }
            RankMode::Kinetic(t) => {
                let mut eval = stack_kinetic_eval(policy, globals, subs, grid, ci, est);
                let ok = t.upsert(fidx, now, &mut eval);
                if !ok {
                    self.rank = RankMode::Rescan;
                }
                false
            }
            RankMode::Unprobed | RankMode::Rescan => false,
        }
    }

    /// Probes the resident set for an index — every file's affine form
    /// first, then the kinetic form — or settles on the rescan;
    /// `DiskCache::build_index` for one stack.
    #[expect(clippy::too_many_arguments)]
    fn build_index(
        &self,
        policy: &dyn MigrationPolicy,
        globals: &[GlobalState],
        subs: &[SubState],
        grid: usize,
        ci: usize,
        now: i64,
        est: f64,
    ) -> RankMode {
        if let Some(mode) = self.build_affine_index(policy, globals, subs, grid, ci, est) {
            return mode;
        }
        if self.residents.is_empty() {
            return RankMode::Rescan;
        }
        let mut eval = stack_kinetic_eval(policy, globals, subs, grid, ci, est);
        match KineticTournament::build(&self.residents, now, &mut eval) {
            Some(t) => RankMode::Kinetic(t),
            None => RankMode::Rescan,
        }
    }

    /// Probes every resident's affine form; `None` on any refusal or
    /// slope disagreement.
    fn build_affine_index(
        &self,
        policy: &dyn MigrationPolicy,
        globals: &[GlobalState],
        subs: &[SubState],
        grid: usize,
        ci: usize,
        est: f64,
    ) -> Option<RankMode> {
        let mut slope_bits = None;
        let mut keys = Vec::with_capacity(self.residents.len());
        for &fidx in &self.residents {
            let g = &globals[fidx as usize];
            let sub = &subs[fidx as usize * grid + ci];
            let a = policy.affine(&sub_view(fidx, g, sub, est))?;
            let bits = a.slope.to_bits();
            if *slope_bits.get_or_insert(bits) != bits {
                return None;
            }
            keys.push(RankKey {
                intercept: a.intercept,
                id: u64::from(fidx),
                payload: fidx,
            });
        }
        slope_bits.map(|slope_bits| RankMode::Active {
            slope_bits,
            rank: VictimRank::from_keys(keys),
        })
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

    /// Watermark purge with the same dispatch as `DiskCache`: activate
    /// the index when eligible, pop victims off it, or fall back to the
    /// exact rescan.
    #[expect(clippy::too_many_arguments)]
    fn maybe_purge(
        &mut self,
        policy: &dyn MigrationPolicy,
        globals: &[GlobalState],
        subs: &mut [SubState],
        grid: usize,
        ci: usize,
        now: i64,
        est: f64,
    ) {
        if self.usage <= self.high {
            return;
        }
        if matches!(self.rank, RankMode::Unprobed) && self.residents.len() >= INDEX_MIN_RESIDENTS {
            self.rank = self.build_index(policy, globals, subs, grid, ci, now, est);
        }
        if matches!(self.rank, RankMode::Active { .. }) {
            while self.usage > self.low {
                let RankMode::Active { slope_bits, rank } = &mut self.rank else {
                    unreachable!("checked above");
                };
                // The rank resolves staleness as keys surface; stale
                // keys only ever overestimate (read-touch pushes are
                // skipped exactly when they could only lower the key),
                // so deflation converges on the exact maximum.
                let slope_bits = *slope_bits;
                let popped = rank.pop_best(|key| {
                    let sub = &subs[key.payload as usize * grid + ci];
                    if !sub.resident {
                        return Candidate::Gone; // evicted since pushed
                    }
                    let g = &globals[key.payload as usize];
                    match policy.affine(&sub_view(key.payload, g, sub, est)) {
                        Some(a)
                            if a.slope.to_bits() == slope_bits
                                && a.intercept.to_bits() == key.intercept.to_bits() =>
                        {
                            Candidate::Live
                        }
                        Some(a) if a.slope.to_bits() == slope_bits => Candidate::Moved(a.intercept),
                        _ => Candidate::Abort, // contract violation
                    }
                });
                match popped {
                    Popped::Victim(key) => self.evict(key.payload, subs, grid, ci),
                    Popped::Dry | Popped::Aborted => {
                        self.rank = RankMode::Rescan;
                        break;
                    }
                }
            }
            if self.usage <= self.low {
                return;
            }
            // Fell through: the index degraded mid-purge.
        }
        if matches!(self.rank, RankMode::Kinetic(_)) {
            // `DiskCache::purge_kinetic` for one stack: advance the
            // tournament clock, take the root winner (the exact
            // `(priority desc, id asc)` maximum — internal nodes compare
            // true priorities; certificates only schedule re-checks),
            // revalidate it by value, and evict. A validation mismatch
            // means a missed leaf update, so repairs are bounded and
            // persistent trouble degrades to the rescan below. The step
            // is computed inside the match so the tournament's `&mut`
            // and the eval hook's borrows end before the stack mutates.
            enum Step {
                Evict(u32),
                Repaired,
                Degrade,
            }
            let mut repairs = 0usize;
            while self.usage > self.low {
                let step = match &mut self.rank {
                    RankMode::Kinetic(t) => {
                        let mut eval = stack_kinetic_eval(policy, globals, subs, grid, ci, est);
                        let winner = if t.advance(now, &mut eval) {
                            t.winner()
                        } else {
                            None
                        };
                        match winner {
                            None => Step::Degrade,
                            Some((fidx, cached, stamp)) => {
                                // Pop-time revalidation by value: the
                                // winner leaf's cached score must equal
                                // the live resident's score at the
                                // leaf's own evaluation time, bit for
                                // bit.
                                let sub = &subs[fidx as usize * grid + ci];
                                let live = sub.resident.then(|| {
                                    let g = &globals[fidx as usize];
                                    policy.priority(&sub_view(fidx, g, sub, est), stamp)
                                });
                                match live {
                                    Some(p) if p.to_bits() == cached.to_bits() => Step::Evict(fidx),
                                    Some(_) if repairs < 32 => {
                                        repairs += 1;
                                        if t.upsert(fidx, now, &mut eval) {
                                            Step::Repaired
                                        } else {
                                            Step::Degrade
                                        }
                                    }
                                    _ => Step::Degrade,
                                }
                            }
                        }
                    }
                    _ => Step::Degrade,
                };
                match step {
                    Step::Evict(fidx) => {
                        self.evict(fidx, subs, grid, ci);
                        // Unlike the affine rank's lazy stale keys, the
                        // tournament mirrors the resident set exactly:
                        // the victim's leaf comes out now.
                        let removed = match &mut self.rank {
                            RankMode::Kinetic(t) => {
                                let mut eval =
                                    stack_kinetic_eval(policy, globals, subs, grid, ci, est);
                                t.remove(fidx, now, &mut eval)
                            }
                            _ => true,
                        };
                        if !removed {
                            self.rank = RankMode::Rescan;
                        }
                    }
                    Step::Repaired => {}
                    Step::Degrade => {
                        self.rank = RankMode::Rescan;
                        break;
                    }
                }
            }
            if self.usage <= self.low {
                return;
            }
            // Fell through: the tournament degraded mid-purge.
        }
        // Exact rescan: rank every resident at `now`, highest priority
        // first, id-ascending tie-break — identical to
        // `DiskCache::purge_rescan`.
        let mut ranked: Vec<(f64, u32)> = self
            .residents
            .iter()
            .map(|&fidx| {
                let g = &globals[fidx as usize];
                let sub = &subs[fidx as usize * grid + ci];
                (policy.priority(&sub_view(fidx, g, sub, est), now), fidx)
            })
            .collect();
        // Priority descending, then dense id (== index) ascending.
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, fidx) in ranked {
            if self.usage <= self.low {
                break;
            }
            self.evict(fidx, subs, grid, ci);
        }
    }
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
/// (`O(files × capacities)`) plus whatever the iterator buffers.
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
    assert!(
        base.cache.low_watermark > 0.0
            && base.cache.low_watermark <= base.cache.high_watermark
            && base.cache.high_watermark <= 1.0,
        "bad watermarks {} / {}",
        base.cache.low_watermark,
        base.cache.high_watermark
    );
    let grid = capacities.len();
    let mut stacks: Vec<Stack> = capacities
        .iter()
        .map(|&capacity| Stack::new(capacity, &base.cache))
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
                stack.rank = RankMode::Rescan;
            }
            recency = false;
        } else {
            max_now = r.time;
        }
        // Every touch writes these in every stack that ends up holding
        // the file (hits refresh them, misses insert with them), so the
        // shared copy is exact.
        let g = &mut globals[fidx as usize];
        g.last_ref = r.time;
        g.next_use = r.next_use;
        if recency {
            g.last_seq = log.len() as u32;
            log.push((r.time, fidx));
        }
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
                if !skip_read_touch
                    && !recency
                    && stack.index_upsert(policy, fidx, &globals, &subs, grid, ci, r.time, est)
                {
                    stack.rank = stack.build_index(policy, &globals, &subs, grid, ci, r.time, est);
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
            if stack.index_upsert(policy, fidx, &globals, &subs, grid, ci, r.time, est) {
                stack.rank = stack.build_index(policy, &globals, &subs, grid, ci, r.time, est);
            }
            stack.maybe_purge(policy, &globals, &mut subs, grid, ci, r.time, est);
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
    use super::*;
    use crate::eval::prepare;
    use crate::policy::{standard_suite, Belady, Lru};
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, TraceRecord};

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

    #[test]
    fn empty_grid_and_empty_trace_are_fine() {
        let refs = skewed_refs();
        let base = EvalConfig::with_capacity(0);
        assert!(sweep_capacities(&refs, &Lru, &[], &base).points.is_empty());
        let empty = sweep_capacities(&[], &Lru, &[1_000_000], &base);
        assert_eq!(empty.points[0].stats, CacheStats::default());
    }
}
