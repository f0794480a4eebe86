//! Victim ranking: *which resident file leaves next*, decided once for
//! every host.
//!
//! A watermark purge must evict files in `(priority desc, id asc)`
//! order at the purge instant. [`Ranking`] is the one state machine that
//! produces that order; [`crate::cache::DiskCache`] hosts it over its
//! entry arena and each capacity stack of [`crate::mrc`] over its
//! resident list, and a host shows it nothing but its resident set
//! ([`Residents`]). Every regime yields the **bit-identical** victim
//! sequence — `tests/mrc_index.rs` and `tests/kinetic_index.rs`
//! property-test that — so the lifecycle only ever decides cost:
//!
//! ```text
//! Unprobed ──first purge past the gate──▶ Affine ────┐
//!     │                              ├──▶ PowerScan ─┤ degrade
//!     │                              └──▶ Kinetic ───┤
//!     └──────────────── no form ─────────────────────┴──▶ Rescan (terminal)
//! ```
//!
//! * **Unprobed.** Nothing is maintained; a purge ranks by rescan. The
//!   first purge that sees [`INDEX_MIN_RESIDENTS`] files (any purge
//!   under [`EvictionMode::Indexed`]) probes the policy over the whole
//!   resident set: every file's [`MigrationPolicy::affine`] form first
//!   (the cheapest regime), then its [`MigrationPolicy::kinetic`] form —
//!   the power-age scan if every form is a keyable
//!   [`KineticForm::PowerAge`] with one exponent, the tournament
//!   otherwise — else the rescan for good.
//! * **Affine** ([`VictimRank`]). `slope · now + intercept` with one
//!   shared slope: pairwise order is independent of `now`, so a key
//!   pushed once stays correct until the entry mutates, and mutations
//!   just push the new key. Policies whose keys never rise over time
//!   (LRU pushes `−now`, FIFO `−created`) emit pushes in nonincreasing
//!   order, so a plain deque *is* the priority order — O(1) push and
//!   pop, the regime the replay hot path lives in. The first
//!   out-of-order push (Belady's `next_use`, size keys) heapifies the
//!   deque once and continues as a lazy max-heap at `O(log n)`. Hosts
//!   skip [`Ranking::touched`] on read hits for policies that promise
//!   [`MigrationPolicy::read_touch_monotone`]: the stale key only
//!   overestimates. Once stale keys outnumber residents two to one the
//!   index is rebuilt from the resident set.
//! * **PowerScan** ([`PowerScan`]). `coeff·age^e` with one exponent
//!   (STP) orders like its root `root·age`, `root = coeff^(1/e)` riding
//!   in the form. A mutation marks the file's row; a purge settles the
//!   marked rows (one `kinetic` call each), keys every resident with a
//!   multiply, heapifies once and pops victims, settling near ties by
//!   exact `priority`: O(n) per purge plus O(log n) per victim, cheaper
//!   than the tournament's O(log n) per touched file when a purge (0.95
//!   → 0.80 of capacity) evicts about one resident in forty.
//! * **Kinetic** ([`KineticTournament`]). Policies whose pairwise order
//!   *drifts with the clock* in other shapes (SAAC's activity discount,
//!   salted-random's day reshuffle, the latency-aware pair) cannot be
//!   keyed once at all — but they ship a
//!   [`crate::policy::KineticForm`] closed-form curve, so each internal
//!   node of a tournament tree caches its winner together with a
//!   *certificate* ([`crate::policy::certify_order`]): the earliest
//!   instant the cached comparison could flip. Advancing the clock
//!   recomputes only subtrees whose certificate minimum has expired.
//!   An entry mutation only *marks* its leaf: a winner is read at a
//!   purge, hundreds of references apart, so the re-evaluation and the
//!   root-to-leaf replay are owed once per touched leaf per purge —
//!   [`KineticTournament::advance`] settles the marked leaves before
//!   it looks at certificates. Amortized `O(log n)` per touched file
//!   where the rescan re-ranks all `n` residents per purge.
//! * **Rescan.** Rank every resident at `now`, sort, evict in order:
//!   `O(n log n)` per purge, NaN-proof through `f64::total_cmp`, always
//!   correct. Forced by [`EvictionMode::Rescan`], the home of policies
//!   with neither form, and where every broken promise lands: a
//!   withdrawn form, a drifting slope or exponent, a rank gone dry with
//!   residents left, a tournament leaf that fails revalidation past the
//!   repair budget, a clock stepping backwards (the host reports that
//!   one — [`Ranking::degrade`] — because every closed form assumes
//!   non-decreasing reference times). A regime that degrades mid-purge
//!   hands the *same* purge to the rescan, so nothing under-purges.
//!
//! The affine and tournament indexes revalidate **by value** when a
//! victim surfaces (the scan keys every row afresh at each purge, so it
//! holds nothing stale). An affine key surfacing from the rank is
//! checked through [`Candidate`]:
//! [`Candidate::Live`] (evict it), [`Candidate::Gone`] (file left the
//! cache; drop the key), [`Candidate::Moved`] (resident but the key is
//! a stale overestimate; re-rank at the current, **never higher**,
//! intercept), or [`Candidate::Abort`] (contract violation). Because
//! every mutation that could *raise* a key pushes eagerly, a popped
//! maximum is always an upper bound, and deflating stale keys until a
//! live one surfaces yields the exact `(priority desc, id asc)` victim
//! order the sort-based rescan would produce — ties included, since
//! tied keys are compared by id before any is returned. A tournament
//! winner counts only if its cached score equals the live file's score
//! at the leaf's own evaluation time, bit for bit. Value checks also
//! cover a host reusing a file's slot: a key or leaf from a previous
//! incarnation either matches the re-created file's current score
//! (then it *is* current) or is stale like any other.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::EvictionMode;
use crate::policy::{certify_order, FileView, KineticForm, MigrationPolicy, KINETIC_MARGIN};

/// Resident-set size at which [`EvictionMode::Auto`] switches from the
/// rescan to the incremental index. Sorting a few dozen candidates per
/// purge is cheaper than a heap push per reference; re-ranking hundreds
/// or thousands is not.
pub const INDEX_MIN_RESIDENTS: usize = 128;

/// Tournament winners that may fail revalidation in one purge before
/// the ranking degrades. A mismatch means a missed leaf update — a bug,
/// not a workload property (every mutation site calls
/// [`Ranking::touched`]) — so each gets one repair (a leaf re-mark) and
/// persistent trouble takes the always-correct rescan.
const REPAIR_BUDGET: usize = 32;

/// What a host shows the ranking: its resident set, nothing else. Files
/// are named by dense index ([`fmig_trace::FileId::raw`]).
pub(crate) trait Residents {
    /// The policy's view of `file`; `None` if it is not resident.
    fn view(&self, file: u32) -> Option<FileView>;
    /// Files resident.
    fn len(&self) -> usize;
    /// Every resident file, in the host's own (deterministic) order.
    fn files(&self) -> impl Iterator<Item = u32> + '_;
}

/// Where a ranking is in its lifecycle; see the module docs.
#[derive(Debug)]
enum Regime {
    Unprobed,
    Affine {
        /// Bit pattern of the policy's shared slope; a differing slope
        /// on any later file is a contract violation.
        slope_bits: u64,
        rank: VictimRank,
    },
    PowerScan(PowerScan),
    Kinetic(KineticTournament),
    Rescan,
}

/// Where a ranking is in its lifecycle, as a host reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingRegime {
    /// No purge has passed the activation gate yet; purges rescan.
    Unprobed,
    /// Shared-slope affine keys in a monotone queue or lazy heap.
    Affine,
    /// One key per resident by power-age root, ranked once per purge.
    PowerScan,
    /// The kinetic tournament over certified pairwise comparisons.
    Kinetic,
    /// The exact rescan, for good.
    Rescan,
}

/// The victim-ranking lifecycle of one resident set under one policy;
/// see the module docs. The host reports every mutation
/// ([`Ranking::touched`]), brackets a purge with
/// [`Ranking::begin_purge`], pulls victims one at a time
/// ([`Ranking::next_victim`]) and reports each eviction
/// ([`Ranking::evicted`]) before it pulls the next.
pub(crate) struct Ranking<'p> {
    policy: &'p dyn MigrationPolicy,
    regime: Regime,
    /// [`EvictionMode::Indexed`]: probe at the first purge, resident
    /// count be damned.
    eager: bool,
    /// Repairs spent in the current purge, against [`REPAIR_BUDGET`].
    repairs: usize,
    /// The rescan's ranked list for the current purge, best victim
    /// first, and how much of it has been handed out; one allocation
    /// reused across purges.
    ranked: Vec<(f64, u32)>,
    ranked_next: usize,
}

/// The hook a [`KineticTournament`] calls to (re-)score a leaf: the
/// policy's *true* priority at that time, plus the kinetic form
/// certifying how long a comparison against it stays settled. `None`
/// (file not resident, or the policy refuses the form for this state)
/// makes the tournament report failure, which degrades the ranking.
fn leaf_eval<'a>(
    policy: &'a dyn MigrationPolicy,
    host: &'a impl Residents,
) -> impl FnMut(u32, i64) -> Option<(f64, KineticForm)> + 'a {
    move |file, at| {
        let v = host.view(file)?;
        let form = policy.kinetic(&v, at)?;
        Some((policy.priority(&v, at), form))
    }
}

impl<'p> Ranking<'p> {
    pub fn new(policy: &'p dyn MigrationPolicy, mode: EvictionMode) -> Self {
        Ranking {
            policy,
            regime: match mode {
                EvictionMode::Auto | EvictionMode::Indexed => Regime::Unprobed,
                EvictionMode::Rescan => Regime::Rescan,
            },
            eager: mode == EvictionMode::Indexed,
            repairs: 0,
            ranked: Vec::new(),
            ranked_next: 0,
        }
    }

    /// The regime ranking victims now.
    pub fn regime(&self) -> RankingRegime {
        match self.regime {
            Regime::Unprobed => RankingRegime::Unprobed,
            Regime::Affine { .. } => RankingRegime::Affine,
            Regime::PowerScan(_) => RankingRegime::PowerScan,
            Regime::Kinetic(_) => RankingRegime::Kinetic,
            Regime::Rescan => RankingRegime::Rescan,
        }
    }

    /// Drops whatever index is kept (or would have been) for the exact
    /// rescan, for good.
    pub fn degrade(&mut self) {
        self.regime = Regime::Rescan;
    }

    /// Mirrors one resident file's mutation (touch, resize, insert) at
    /// `now` into whichever index is active: an affine key push, or a
    /// scan row or kinetic leaf *mark* — the file is re-evaluated when
    /// the next purge opens, so a withdrawn form degrades there, not
    /// here.
    pub fn touched(&mut self, host: &impl Residents, file: u32, now: i64) {
        match &mut self.regime {
            Regime::Affine { slope_bits, rank } => {
                match host.view(file).and_then(|v| self.policy.affine(&v)) {
                    Some(a) if a.slope.to_bits() == *slope_bits => {
                        rank.push(RankKey {
                            intercept: a.intercept,
                            id: u64::from(file),
                        });
                        // Stale keys (older keys of mutated or evicted
                        // files) are resolved at pop time; once they
                        // dominate, rebuild from the resident set so
                        // memory and pop cost stay proportional to it.
                        if rank.len() > host.len() * 2 + 64 {
                            self.regime = self.probe(host, now);
                        }
                    }
                    _ => self.degrade(),
                }
            }
            Regime::PowerScan(scan) => scan.touched(file),
            Regime::Kinetic(t) => {
                if !t.upsert(file, now, &mut leaf_eval(self.policy, host)) {
                    self.degrade();
                }
            }
            Regime::Unprobed | Regime::Rescan => {}
        }
    }

    /// Opens a purge at `now`. The first one past the gate probes the
    /// policy and builds an index from the resident set, or settles on
    /// the rescan; until then no index is maintained, so purge-free and
    /// small-resident-set runs pay nothing for one.
    pub fn begin_purge(&mut self, host: &impl Residents, now: i64) {
        self.repairs = 0;
        self.ranked.clear();
        self.ranked_next = 0;
        if matches!(self.regime, Regime::Unprobed)
            && (self.eager || host.len() >= INDEX_MIN_RESIDENTS)
        {
            self.regime = self.probe(host, now); // a new scan is keyed at `now`
        } else if let Regime::PowerScan(scan) = &mut self.regime {
            if !scan.open_purge(self.policy, host, now) {
                self.degrade();
            }
        }
    }

    /// Probes the resident set for an index: every file's affine form
    /// first, then the kinetic form (the scan before the tournament); a
    /// policy that refuses both — or violates the shared-slope contract
    /// — means the rescan.
    fn probe(&self, host: &impl Residents, now: i64) -> Regime {
        if let Some(regime) = self.probe_affine(host) {
            return regime;
        }
        if let Some(scan) = PowerScan::build(self.policy, host, now) {
            return Regime::PowerScan(scan);
        }
        let files: Vec<u32> = host.files().collect();
        if files.is_empty() {
            return Regime::Rescan;
        }
        match KineticTournament::build(&files, now, &mut leaf_eval(self.policy, host)) {
            Some(t) => Regime::Kinetic(t),
            None => Regime::Rescan,
        }
    }

    /// `None` on any refusal or slope disagreement.
    fn probe_affine(&self, host: &impl Residents) -> Option<Regime> {
        let mut slope_bits = None;
        let mut keys = Vec::with_capacity(host.len());
        for file in host.files() {
            let a = self.policy.affine(&host.view(file)?)?;
            let bits = a.slope.to_bits();
            if *slope_bits.get_or_insert(bits) != bits {
                return None;
            }
            keys.push(RankKey {
                intercept: a.intercept,
                id: u64::from(file),
            });
        }
        slope_bits.map(|slope_bits| Regime::Affine {
            slope_bits,
            rank: VictimRank::from_keys(keys),
        })
    }

    /// The exact next victim in `(priority desc, id asc)` order at
    /// `now`, or `None` once no resident is left. The host evicts it
    /// and calls [`Ranking::evicted`] before asking again. Each regime
    /// falls through to the next on degradation, so the purge that
    /// discovers a broken contract still completes, exactly.
    pub fn next_victim(&mut self, host: &impl Residents, now: i64) -> Option<u32> {
        let policy = self.policy;
        if let Regime::Affine { slope_bits, rank } = &mut self.regime {
            // A popped key counts only if the file is still resident
            // with exactly that intercept; see the module docs.
            let slope_bits = *slope_bits;
            let popped = rank.pop_best(|key| {
                let Some(v) = host.view(key.id as u32) else {
                    return Candidate::Gone; // evicted since this key was pushed
                };
                match policy.affine(&v) {
                    Some(a)
                        if a.slope.to_bits() == slope_bits
                            && a.intercept.to_bits() == key.intercept.to_bits() =>
                    {
                        Candidate::Live
                    }
                    Some(a) if a.slope.to_bits() == slope_bits => Candidate::Moved(a.intercept),
                    // The policy withdrew the form or moved the slope
                    // mid-run: contract violation.
                    _ => Candidate::Abort,
                }
            });
            match popped {
                Popped::Victim(key) => return Some(key.id as u32),
                // Dry with residents left, or a contract violation:
                // rescan rather than under-purge. Unreachable for
                // well-behaved policies.
                Popped::Dry | Popped::Aborted => self.degrade(),
            }
        }
        if let Regime::PowerScan(scan) = &mut self.regime {
            debug_assert_eq!(scan.rows.len(), host.len(), "one row per resident");
            match scan.next_victim(policy, host, now) {
                Some(file) => return Some(file),
                None => self.degrade(), // rescan rather than under-purge
            }
        }
        if let Regime::Kinetic(t) = &mut self.regime {
            debug_assert_eq!(
                t.len(),
                host.len(),
                "tournament mirrors the resident set exactly"
            );
            let mut eval = leaf_eval(policy, host);
            // The first call of a purge pays the real advance; later
            // ones see every certificate > `now` and return at the
            // root. The root winner is the exact maximum by
            // construction: internal nodes compare *true* priorities,
            // certificates only schedule re-checks.
            while t.advance(now, &mut eval) {
                // Dry with residents left would under-purge: degrade.
                let Some((file, cached, stamp)) = t.winner() else {
                    break;
                };
                match host.view(file).map(|v| policy.priority(&v, stamp)) {
                    Some(live) if live.to_bits() == cached.to_bits() => return Some(file),
                    Some(_) if self.repairs < REPAIR_BUDGET => {
                        self.repairs += 1;
                        if !t.upsert(file, now, &mut eval) {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            self.degrade();
        }
        // The rescan: rank every resident at `now`, once per purge. The
        // cursor meets the end of the list when nothing is ranked yet
        // (`begin_purge` empties it) and again only when every resident
        // it held has been handed out.
        if self.ranked_next == self.ranked.len() {
            self.ranked.clear();
            self.ranked.extend(host.files().map(|file| {
                let v = host.view(file).expect("a listed file is resident");
                (policy.priority(&v, now), file)
            }));
            // Total order: priority descending, then id ascending. The
            // id tie-break matters — policies produce tied priorities
            // routinely (LRU under equal timestamps, Belady's
            // never-used-again class) and the victim sequence must be
            // reproducible whatever order the host lists files in.
            // `total_cmp` keeps the sort panic-free even for a NaN
            // priority (NaN ranks above +inf, i.e. leaves first), and
            // the unstable sort is safe because the order is total.
            self.ranked
                .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            self.ranked_next = 0;
        }
        let &(_, file) = self.ranked.get(self.ranked_next)?;
        self.ranked_next += 1;
        Some(file)
    }

    /// Unregisters an evicted file. The scan and the tournament mirror
    /// the resident set exactly, so the victim's row or leaf comes out
    /// now (neither asks the host about the victim, so it does not
    /// matter whether the host still shows the file); the affine rank's
    /// stale keys deflate at pop time instead.
    pub fn evicted(&mut self, host: &impl Residents, file: u32, now: i64) {
        if let Regime::PowerScan(scan) = &mut self.regime {
            scan.evicted(file);
        }
        if let Regime::Kinetic(t) = &mut self.regime {
            if !t.remove(file, now, &mut leaf_eval(self.policy, host)) {
                self.degrade();
            }
        }
    }
}

/// One ranked key: a file's affine intercept at push time. Ordered by
/// `(intercept, id desc)` so that a max-structure pops
/// `(intercept desc, id asc)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKey {
    pub intercept: f64,
    pub id: u64,
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.intercept
            .total_cmp(&other.intercept)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankKey {}

/// The caller's verdict on a candidate key surfacing from the rank.
pub(crate) enum Candidate {
    /// Still resident and the key matches the current intercept bits:
    /// this is the next victim.
    Live,
    /// Not resident any more: discard the key.
    Gone,
    /// Resident, but the key is stale. The argument is the *current*
    /// intercept, which must never exceed the popped key (raising
    /// mutations push eagerly); the rank re-files it and keeps looking.
    Moved(f64),
    /// The policy broke its affine contract: stop, the caller falls
    /// back to the exact rescan.
    Abort,
}

/// Result of one victim search.
pub(crate) enum Popped {
    /// The exact next victim in `(priority desc, id asc)` order.
    Victim(RankKey),
    /// No resident keys remain.
    Dry,
    /// `validate` answered [`Candidate::Abort`].
    Aborted,
}

/// Monotone queue / lazy heap hybrid; see the module docs.
#[derive(Debug)]
pub(crate) struct VictimRank {
    /// Monotone regime: sorted nonincreasing by intercept, ties
    /// contiguous (id order resolved at pop time).
    queue: VecDeque<RankKey>,
    /// Heap regime, entered on the first out-of-order push.
    heap: BinaryHeap<RankKey>,
    monotone: bool,
}

impl VictimRank {
    /// Builds a rank from an arbitrary key set (index activation and
    /// compaction): sorts once and starts in the monotone regime.
    pub fn from_keys(mut keys: Vec<RankKey>) -> Self {
        keys.sort_unstable_by(|a, b| b.cmp(a));
        VictimRank {
            queue: keys.into(),
            heap: BinaryHeap::new(),
            monotone: true,
        }
    }

    /// Keys currently held, stale ones included — the caller's
    /// compaction trigger compares this against its live count.
    pub fn len(&self) -> usize {
        self.queue.len() + self.heap.len()
    }

    /// Records a (possibly updated) key for `id`.
    pub fn push(&mut self, key: RankKey) {
        if self.monotone {
            match self.queue.back() {
                Some(back) if key.intercept.total_cmp(&back.intercept) == Ordering::Greater => {
                    // First out-of-order push: one O(n) heapify, then
                    // stay in the heap regime.
                    self.heap = std::mem::take(&mut self.queue).into_iter().collect();
                    self.monotone = false;
                    self.heap.push(key);
                }
                _ => self.queue.push_back(key),
            }
        } else {
            self.heap.push(key);
        }
    }

    /// Re-files a deflated key at its sorted position (monotone regime
    /// only). Stale keys deflate toward the *front* region of equal or
    /// older intercepts, so the shift is short in practice.
    fn sorted_insert(&mut self, key: RankKey) {
        let pos = self
            .queue
            .partition_point(|k| k.intercept.total_cmp(&key.intercept) == Ordering::Greater);
        self.queue.insert(pos, key);
    }

    /// Pops the exact next victim, resolving staleness through
    /// `validate`; see [`Candidate`].
    pub fn pop_best(&mut self, mut validate: impl FnMut(&RankKey) -> Candidate) -> Popped {
        if !self.monotone {
            while let Some(top) = self.heap.pop() {
                match validate(&top) {
                    Candidate::Live => return Popped::Victim(top),
                    Candidate::Gone => {}
                    Candidate::Moved(current) => self.heap.push(RankKey {
                        intercept: current,
                        ..top
                    }),
                    Candidate::Abort => return Popped::Aborted,
                }
            }
            return Popped::Dry;
        }
        loop {
            let Some(front) = self.queue.front() else {
                return Popped::Dry;
            };
            let bits = front.intercept.to_bits();
            // Fast path: a lone front key (no intercept tie behind it).
            let tied = self
                .queue
                .get(1)
                .is_some_and(|k| k.intercept.to_bits() == bits);
            if !tied {
                let key = self.queue.pop_front().expect("front exists");
                match validate(&key) {
                    Candidate::Live => return Popped::Victim(key),
                    Candidate::Gone => continue,
                    Candidate::Moved(current) => {
                        self.sorted_insert(RankKey {
                            intercept: current,
                            ..key
                        });
                        continue;
                    }
                    Candidate::Abort => return Popped::Aborted,
                }
            }
            // Tie group: the oracle breaks intercept ties by ascending
            // id, so the whole group must be inspected before any
            // member is returned. Survivors keep their (equal) rank;
            // deflated keys re-file behind the group.
            let mut best: Option<RankKey> = None;
            let mut survivors: Vec<RankKey> = Vec::new();
            let mut moved: Vec<RankKey> = Vec::new();
            while let Some(k) = self.queue.front() {
                if k.intercept.to_bits() != bits {
                    break;
                }
                let key = self.queue.pop_front().expect("front exists");
                match validate(&key) {
                    Candidate::Live => match &mut best {
                        Some(b) if b.id <= key.id => survivors.push(key),
                        _ => {
                            if let Some(prev) = best.replace(key) {
                                survivors.push(prev);
                            }
                        }
                    },
                    Candidate::Gone => {}
                    Candidate::Moved(current) => moved.push(RankKey {
                        intercept: current,
                        ..key
                    }),
                    Candidate::Abort => return Popped::Aborted,
                }
            }
            for key in survivors.into_iter().rev() {
                self.queue.push_front(key);
            }
            for key in moved {
                self.sorted_insert(key);
            }
            if let Some(best) = best {
                return Popped::Victim(best);
            }
        }
    }
}

/// One resident under the power-age scan: its form's root and anchor
/// as of its last settle, and whether it mutated since.
#[derive(Debug, Clone, Copy)]
struct ScanRow {
    root: f64,
    anchor: i64,
    file: u32,
    marked: bool,
}

/// The power-age scan (see the module docs): one key per resident,
/// ranked once per purge.
///
/// **Why the root order is the rescan order.** Priorities are
/// `coeff·age^e` with one `e`, and `x ↦ x^(1/e)` is increasing, so they
/// order like the real keys `coeff^(1/e)·age`. In `f64`, with the same
/// age `(now − anchor).max(0) as f64` on both sides:
///
/// * `root = fl(coeff^fl(1/e))` is within `(|ln coeff|/e + 1)·2⁻⁵³` of
///   `coeff^(1/e)` (the rounding of `1/e`, scaled by `ln coeff / e`),
///   and `fl(root·age)` adds half an ulp: ≈ 4e-15 relative for STP's
///   byte sizes at `e = 1.4`, below 1e-10 over the accepted forms;
/// * [`crate::policy::power_age`] is within a few ulps of the real
///   priority;
/// * so keys more than [`KINETIC_MARGIN`] (1e-9) apart are real
///   priorities more than ≈ `0.8e-9·e` ≥ 7e-13 apart, far beyond the
///   `f64` priorities' ≈ 1e-15 rounding: those order the same way.
///
/// Keys within the margin of the top are a *near tie*, settled by exact
/// `priority`, ties by ascending id. A top key of `+0` needs no band:
/// age or coefficient 0 means priority `+0`, and the heap breaks those
/// ties by id. Accepted forms keep every nonzero priority normal
/// (`coeff` normal, `age ≥ 1`); a key past `(f64::MAX / 4)^(1/e)`
/// degrades the ranking.
#[derive(Debug)]
pub(crate) struct PowerScan {
    /// The policy's shared exponent.
    exponent: f64,
    rows: Vec<ScanRow>,
    /// Dense file index → row ([`NO_SLOT`] when not resident).
    slot_of: Vec<u32>,
    /// The purge's `(key bits, Reverse(file))`: largest key on top,
    /// lowest id among equal keys.
    heap: BinaryHeap<(u64, Reverse<u32>)>,
}

impl PowerScan {
    /// A scan keyed at `now`, if every resident's form is keyable
    /// under the first one's exponent.
    fn build(policy: &dyn MigrationPolicy, host: &impl Residents, now: i64) -> Option<Self> {
        let first = host.view(host.files().next()?)?;
        let Some(KineticForm::PowerAge { exponent: e, .. }) = policy.kinetic(&first, now) else {
            return None;
        };
        let mut scan = PowerScan {
            exponent: e,
            rows: Vec::with_capacity(host.len()),
            slot_of: Vec::new(),
            heap: BinaryHeap::new(),
        };
        host.files().for_each(|file| scan.touched(file));
        // Below 2⁻¹⁰ the rounding of `1/e` in `root` could outgrow the
        // band; past 16 a zero coefficient's `age^e` could reach `∞·0`.
        let keyed = (1.0 / 1024.0..=16.0).contains(&e) && scan.open_purge(policy, host, now);
        keyed.then_some(scan)
    }

    /// Marks `file`'s row, adding one if the file is new.
    fn touched(&mut self, file: u32) {
        let fi = file as usize;
        if fi >= self.slot_of.len() {
            self.slot_of.resize(fi + 1, NO_SLOT);
        }
        match self.slot_of[fi] {
            NO_SLOT => {
                self.slot_of[fi] = self.rows.len() as u32;
                let row = ScanRow {
                    root: 0.0,
                    anchor: 0,
                    file,
                    marked: true,
                };
                self.rows.push(row);
            }
            slot => self.rows[slot as usize].marked = true,
        }
    }

    /// Swap-removes `file`'s row; unknown files are a no-op.
    fn evicted(&mut self, file: u32) {
        let slot = self.slot_of.get_mut(file as usize);
        let slot = slot.map_or(NO_SLOT, |s| std::mem::replace(s, NO_SLOT));
        if slot != NO_SLOT {
            self.rows.swap_remove(slot as usize);
            if let Some(moved) = self.rows.get(slot as usize) {
                self.slot_of[moved.file as usize] = slot;
            }
        }
    }

    /// Settles every marked row with one `kinetic` call, keys every
    /// row at `now` and heapifies the keys. `false` on a form it cannot
    /// key (refused, another variant or exponent) or a key past `hi`
    /// (see the type docs): the rescan takes this purge.
    fn open_purge(
        &mut self,
        policy: &dyn MigrationPolicy,
        host: &impl Residents,
        now: i64,
    ) -> bool {
        let hi = (f64::MAX / 4.0).powf(1.0 / self.exponent);
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.clear();
        for row in &mut self.rows {
            if row.marked {
                let form = host.view(row.file).and_then(|v| policy.kinetic(&v, now));
                let Some(KineticForm::PowerAge {
                    coeff,
                    anchor,
                    exponent,
                    root,
                }) = form
                else {
                    return false;
                };
                // Positive normal `coeff` and `root` (every nonzero
                // priority is then normal, as `age ≥ 1`), or both `+0`.
                let keyable = match coeff > 0.0 {
                    true => coeff.is_normal() && root.is_normal() && root > 0.0,
                    false => coeff.to_bits() == 0 && root.to_bits() == 0,
                };
                if !keyable || exponent.to_bits() != self.exponent.to_bits() {
                    return false;
                }
                (row.root, row.anchor, row.marked) = (root, anchor, false);
            }
            let key = row.root * (now - row.anchor).max(0) as f64;
            if key > hi {
                return false;
            }
            keys.push((key.to_bits(), Reverse(row.file)));
        }
        self.heap = BinaryHeap::from(keys);
        true
    }

    /// The exact next victim at the purge's `now`, or `None` when the
    /// heap is dry or a near-tie file is not resident (both broken
    /// promises: the ranking degrades).
    fn next_victim(
        &mut self,
        policy: &dyn MigrationPolicy,
        host: &impl Residents,
        now: i64,
    ) -> Option<u32> {
        let (top_bits, Reverse(top)) = self.heap.pop()?;
        let floor = f64::from_bits(top_bits) * (1.0 - KINETIC_MARGIN);
        let near =
            move |&(bits, _): &(u64, Reverse<u32>)| top_bits != 0 && f64::from_bits(bits) >= floor;
        if !self.heap.peek().is_some_and(near) {
            return Some(top);
        }
        #[cfg(test)]
        scan_tests::note_band();
        let priority = |file: u32| host.view(file).map(|v| policy.priority(&v, now));
        let (mut best, mut losers) = ((priority(top)?, top_bits, top), Vec::new());
        while let Some(&(bits, Reverse(file))) = self.heap.peek().filter(|e| near(e)) {
            self.heap.pop();
            let mut entry = (priority(file)?, bits, file);
            // Rescan order: priority descending, then id ascending.
            if entry.0.total_cmp(&best.0).then(best.2.cmp(&file)).is_gt() {
                std::mem::swap(&mut entry, &mut best);
            }
            losers.push((entry.1, Reverse(entry.2)));
        }
        self.heap.extend(losers);
        Some(best.2)
    }
}

/// Sentinel leaf slot / winner / file mapping: "none".
const NO_SLOT: u32 = u32::MAX;

/// One internal tournament node: the winning leaf slot of the subtree,
/// the node's *own* certificate (when the cached finalist comparison
/// could flip), and the minimum expiry over the whole subtree. The
/// subtree minimum lets [`KineticTournament::advance`] skip every
/// subtree whose cached comparisons are still guaranteed; keeping the
/// own certificate separate lets both `advance` and a reseat *recombine*
/// a node — refresh `min_expiry` from stored fields with zero policy
/// evaluations — whenever its finalist pair is known to be unchanged.
#[derive(Debug, Clone, Copy)]
struct KNode {
    winner: u32,
    own_expiry: i64,
    min_expiry: i64,
}

const EMPTY_NODE: KNode = KNode {
    winner: NO_SLOT,
    own_expiry: i64::MAX,
    min_expiry: i64::MAX,
};

/// One leaf: a resident file's dense index, its priority and kinetic
/// form as of `stamp`. Leaves refresh lazily — only when a recompute
/// actually compares them at a newer time, or when the entry mutated
/// since (`stale`: the cached value describes a state that no longer
/// exists, whatever its stamp says). Kept at 80 bytes, pinned by a
/// test: a wider leaf slows every tournament, so per-form constants
/// ride in the form's spare payload, not here.
#[derive(Debug, Clone, Copy)]
struct KLeaf {
    file: u32,
    priority: f64,
    form: KineticForm,
    stamp: i64,
    stale: bool,
}

const EMPTY_LEAF: KLeaf = KLeaf {
    file: NO_SLOT,
    priority: 0.0,
    form: KineticForm::PiecewiseConstant { until: i64::MAX },
    stamp: i64::MIN,
    stale: false,
};

/// A kinetic tournament over the resident set: an implicit perfect
/// binary tree whose internal nodes cache `(winner, certificate)` pairs
/// (see the module docs for the regime overview).
///
/// The caller supplies one `eval` closure mapping a dense file index
/// and a time to `(priority, kinetic form)` — the *true*
/// [`crate::policy::MigrationPolicy::priority`] value, which is all the
/// tournament ever compares (forms only schedule re-checks), so the
/// winner sequence is bit-identical to the rescan's
/// `(priority desc, id asc)` order by construction. Between two
/// [`KineticTournament::advance`] calls the tree may lag the entries:
/// [`KineticTournament::upsert`] queues the mutated leaf on `dirty`
/// and the next `advance` settles the queue, so a file touched `k`
/// times between purges is evaluated once. `eval` returning
/// `None` (entry missing, policy refusing a form) makes the mutating
/// call answer `false`: the caller must discard the tournament and
/// degrade to the exact rescan, mirroring [`Candidate::Abort`].
///
/// Layout: `tree.len() == leaves.len() == cap`, a power of two;
/// `tree[0]` is unused, the root is `tree[1]`, node `i`'s children are
/// `2i`/`2i+1`, and a child index `c ≥ cap` denotes leaf `c − cap`.
#[derive(Debug)]
pub(crate) struct KineticTournament {
    tree: Vec<KNode>,
    leaves: Vec<KLeaf>,
    /// Dense file index → leaf slot ([`NO_SLOT`] when untracked).
    slot_of: Vec<u32>,
    free: Vec<u32>,
    /// Leaf slots mutated since the last `advance`, each owed one
    /// re-evaluation and one path replay. A slot whose file was evicted
    /// (or replaced) in the meantime stays listed; settling it replays
    /// an already-current path, which is harmless.
    dirty: Vec<u32>,
    len: usize,
    now: i64,
}

impl KineticTournament {
    /// An empty tournament with room for `n` leaves before growing.
    pub fn with_capacity(n: usize) -> Self {
        let cap = n.next_power_of_two().max(2);
        KineticTournament {
            tree: vec![EMPTY_NODE; cap],
            leaves: vec![EMPTY_LEAF; cap],
            slot_of: Vec::new(),
            free: (0..cap as u32).rev().collect(),
            dirty: Vec::new(),
            len: 0,
            now: i64::MIN,
        }
    }

    /// Builds over a resident set in one bottom-up O(n) pass. `None`
    /// if the policy refuses a form for any resident.
    pub fn build(
        files: &[u32],
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
    ) -> Option<Self> {
        let mut t = Self::with_capacity(files.len());
        t.now = now;
        for &f in files {
            let slot = t.free.pop().expect("capacity covers the build set");
            let (priority, form) = eval(f, now)?;
            t.leaves[slot as usize] = KLeaf {
                file: f,
                priority,
                form,
                stamp: now,
                stale: false,
            };
            let fi = f as usize;
            if fi >= t.slot_of.len() {
                t.slot_of.resize(fi + 1, NO_SLOT);
            }
            debug_assert_eq!(t.slot_of[fi], NO_SLOT, "duplicate file in build set");
            t.slot_of[fi] = slot;
        }
        t.len = files.len();
        let mut ok = true;
        t.rebuild(now, eval, &mut ok);
        ok.then_some(t)
    }

    /// Tracked (resident) leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Moves the tournament clock to `now`: settles every leaf mutated
    /// since the last call (one evaluation and one path replay each),
    /// then replays exactly the subtrees whose certificates have
    /// expired. `false` aborts (see the type docs).
    pub fn advance(
        &mut self,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
    ) -> bool {
        debug_assert!(now >= self.now, "kinetic clocks are monotone");
        self.now = now;
        let mut ok = true;
        let mut dirty = std::mem::take(&mut self.dirty);
        for slot in dirty.drain(..) {
            self.refresh(slot, now, eval, &mut ok);
            self.reseat(slot, now, eval, &mut ok);
            if !ok {
                return false;
            }
        }
        self.dirty = dirty; // keep the allocation
        self.advance_node(1, now, eval, &mut ok);
        ok
    }

    /// Registers one file's mutation (touch, resize, insert): assigns
    /// a leaf slot if the file has none and marks the leaf for the next
    /// [`KineticTournament::advance`]. O(1), no evaluation, no replay —
    /// except an insert that outgrows the leaf space, which doubles it
    /// and rebuilds (amortised O(1) evaluations per insert).
    pub fn upsert(
        &mut self,
        file: u32,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
    ) -> bool {
        let fi = file as usize;
        if fi >= self.slot_of.len() {
            self.slot_of.resize(fi + 1, NO_SLOT);
        }
        let slot = match self.slot_of[fi] {
            NO_SLOT => {
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        let mut ok = true;
                        self.grow(now, eval, &mut ok);
                        if !ok {
                            return false;
                        }
                        self.free.pop().expect("grow doubles the leaf space")
                    }
                };
                self.slot_of[fi] = slot;
                self.leaves[slot as usize].file = file;
                self.len += 1;
                slot
            }
            s => s,
        };
        let leaf = &mut self.leaves[slot as usize];
        if !leaf.stale {
            leaf.stale = true;
            self.dirty.push(slot);
        }
        true
    }

    /// Unregisters an evicted file, replaying its root-to-leaf path.
    /// Unknown files are a no-op (`true`).
    pub fn remove(
        &mut self,
        file: u32,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
    ) -> bool {
        let Some(&slot) = self.slot_of.get(file as usize) else {
            return true;
        };
        if slot == NO_SLOT {
            return true;
        }
        self.slot_of[file as usize] = NO_SLOT;
        self.leaves[slot as usize] = EMPTY_LEAF;
        self.free.push(slot);
        self.len -= 1;
        let mut ok = true;
        self.reseat(slot, now, eval, &mut ok);
        ok
    }

    /// The overall winner as `(file, cached priority, eval stamp)` —
    /// the exact next victim in `(priority desc, id asc)` order,
    /// provided [`KineticTournament::advance`] has been called at the
    /// query time. The cached priority is the policy's value *at
    /// `stamp`* (≤ the query time): certificates freeze comparison
    /// outcomes, not values.
    pub fn winner(&self) -> Option<(u32, f64, i64)> {
        let w = self.tree[1].winner;
        if w == NO_SLOT {
            return None;
        }
        let leaf = self.leaves[w as usize];
        Some((leaf.file, leaf.priority, leaf.stamp))
    }

    /// `(winner slot, subtree min expiry)` of child position `c`.
    fn child_state(&self, c: usize) -> (u32, i64) {
        if c < self.tree.len() {
            let n = self.tree[c];
            (n.winner, n.min_expiry)
        } else {
            let s = c - self.tree.len();
            let w = if self.leaves[s].file != NO_SLOT {
                s as u32
            } else {
                NO_SLOT
            };
            (w, i64::MAX)
        }
    }

    /// Re-evaluates a leaf through the host if its cached value
    /// predates `now` or the entry mutated since it was cached
    /// (possibly at this same `now`).
    fn refresh(
        &mut self,
        slot: u32,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) {
        let leaf = &mut self.leaves[slot as usize];
        if (leaf.stamp == now && !leaf.stale) || leaf.file == NO_SLOT {
            return;
        }
        match eval(leaf.file, now) {
            Some((priority, form)) => {
                leaf.priority = priority;
                leaf.form = form;
                leaf.stamp = now;
                leaf.stale = false;
            }
            None => *ok = false,
        }
    }

    /// Recomputes one internal node from its (current) children:
    /// refresh both finalists to `now`, compare true priorities with
    /// the ascending-id tie-break, certify the outcome.
    fn recompute(
        &mut self,
        i: usize,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) {
        if !*ok {
            return;
        }
        let (lw, lm) = self.child_state(2 * i);
        let (rw, rm) = self.child_state(2 * i + 1);
        let (winner, own) = match (lw, rw) {
            (NO_SLOT, NO_SLOT) => (NO_SLOT, i64::MAX),
            (w, NO_SLOT) | (NO_SLOT, w) => (w, i64::MAX),
            (a, b) => {
                self.refresh(a, now, eval, ok);
                self.refresh(b, now, eval, ok);
                if !*ok {
                    return;
                }
                let (la, lb) = (self.leaves[a as usize], self.leaves[b as usize]);
                let a_wins = match la.priority.total_cmp(&lb.priority) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => la.file < lb.file,
                };
                let (slot, w, l) = if a_wins { (a, la, lb) } else { (b, lb, la) };
                (
                    slot,
                    certify_order(&w.form, w.priority, &l.form, l.priority, now),
                )
            }
        };
        self.tree[i] = KNode {
            winner,
            own_expiry: own,
            min_expiry: own.min(lm).min(rm),
        };
    }

    /// Refreshes a node's subtree minimum from stored fields alone —
    /// the no-eval counterpart of [`KineticTournament::recompute`],
    /// sound whenever the node's finalist pair (both child winners,
    /// forms included) is unchanged since its own certificate was cut.
    fn recombine(&mut self, i: usize) {
        let (_, lm) = self.child_state(2 * i);
        let (_, rm) = self.child_state(2 * i + 1);
        let n = &mut self.tree[i];
        n.min_expiry = n.own_expiry.min(lm).min(rm);
    }

    /// Replays expired subtrees below `i`; answers whether the
    /// subtree's presented winner changed, so the parent can recombine
    /// instead of recomputing when its own certificate still stands and
    /// both children came back unchanged.
    fn advance_node(
        &mut self,
        i: usize,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) -> bool {
        if !*ok || self.tree[i].min_expiry > now {
            return false;
        }
        let l = 2 * i;
        let mut child_changed = false;
        if l < self.tree.len() {
            child_changed |= self.advance_node(l, now, eval, ok);
            child_changed |= self.advance_node(l + 1, now, eval, ok);
        }
        if !*ok {
            return false;
        }
        let old = self.tree[i].winner;
        if child_changed || self.tree[i].own_expiry <= now {
            self.recompute(i, now, eval, ok);
        } else {
            self.recombine(i);
        }
        self.tree[i].winner != old
    }

    /// Replays the root-to-leaf path above `slot`. Once the mutated
    /// leaf has lost and a recomputed node presents the same winner as
    /// before, the mutation can no longer influence any ancestor's
    /// finalist pair — the remaining path only recombines subtree
    /// minima, with zero policy evaluations. (Fresh inserts under
    /// age-based policies start at priority ~0 and lose at the first
    /// comparison, making the common insert near-O(1) in evals.)
    fn reseat(
        &mut self,
        slot: u32,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) {
        let mut i = (self.tree.len() + slot as usize) / 2;
        let mut settled = false;
        while i >= 1 {
            if settled {
                self.recombine(i);
            } else {
                let old = self.tree[i].winner;
                self.recompute(i, now, eval, ok);
                if !*ok {
                    return;
                }
                // `old != slot` matters: if the mutated leaf itself
                // stays the winner, ancestor certificates were cut
                // against its *old* form and must be recut.
                settled = self.tree[i].winner == old && old != slot;
            }
            i /= 2;
        }
    }

    /// Doubles the leaf space and rebuilds bottom-up.
    fn grow(
        &mut self,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) {
        let cap = self.tree.len() * 2;
        self.leaves.resize(cap, EMPTY_LEAF);
        for s in (cap / 2..cap).rev() {
            self.free.push(s as u32);
        }
        self.tree = vec![EMPTY_NODE; cap];
        self.rebuild(now, eval, ok);
    }

    fn rebuild(
        &mut self,
        now: i64,
        eval: &mut impl FnMut(u32, i64) -> Option<(f64, KineticForm)>,
        ok: &mut bool,
    ) {
        for i in (1..self.tree.len()).rev() {
            self.recompute(i, now, eval, ok);
            if !*ok {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(intercept: f64, id: u64) -> RankKey {
        RankKey { intercept, id }
    }

    /// Pops everything, validating against a "current" table: ids
    /// absent are Gone, ids whose value differs are Moved.
    fn drain(rank: &mut VictimRank, current: &mut Vec<(u64, f64)>) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            let popped = rank.pop_best(|k| match current.iter().find(|(id, _)| *id == k.id) {
                None => Candidate::Gone,
                Some(&(_, v)) if v.to_bits() == k.intercept.to_bits() => Candidate::Live,
                Some(&(_, v)) => Candidate::Moved(v),
            });
            match popped {
                Popped::Victim(k) => {
                    current.retain(|(id, _)| *id != k.id);
                    out.push(k.id);
                }
                Popped::Dry => return out,
                Popped::Aborted => panic!("no abort in this test"),
            }
        }
    }

    #[test]
    fn monotone_pushes_pop_in_priority_order_with_id_ties() {
        let mut rank = VictimRank::from_keys(Vec::new());
        // Nonincreasing pushes, with an intercept tie (ids 7 and 3).
        for (v, id) in [(9.0, 1), (5.0, 7), (5.0, 3), (2.0, 2)] {
            rank.push(key(v, id));
        }
        assert!(rank.monotone);
        let mut current = vec![(1, 9.0), (7, 5.0), (3, 5.0), (2, 2.0)];
        assert_eq!(drain(&mut rank, &mut current), [1, 3, 7, 2]);
    }

    #[test]
    fn out_of_order_push_degrades_to_heap_and_stays_exact() {
        let mut rank = VictimRank::from_keys(Vec::new());
        rank.push(key(5.0, 1));
        rank.push(key(9.0, 2)); // violates monotonicity
        assert!(!rank.monotone);
        rank.push(key(7.0, 3));
        let mut current = vec![(1, 5.0), (2, 9.0), (3, 7.0)];
        assert_eq!(drain(&mut rank, &mut current), [2, 3, 1]);
    }

    #[test]
    fn stale_keys_deflate_and_refile() {
        let mut rank = VictimRank::from_keys(Vec::new());
        rank.push(key(9.0, 1));
        rank.push(key(8.0, 2));
        // id 1 was touched since: its live value is now 3.0, so id 2
        // must pop first, then the deflated id 1.
        let mut current = vec![(1, 3.0), (2, 8.0)];
        assert_eq!(drain(&mut rank, &mut current), [2, 1]);
    }

    #[test]
    fn gone_and_duplicate_keys_are_skipped() {
        let mut rank = VictimRank::from_keys(Vec::new());
        rank.push(key(9.0, 1));
        rank.push(key(9.0, 1)); // duplicate push, same value
        rank.push(key(4.0, 2));
        let mut current = vec![(1, 9.0), (2, 4.0)];
        assert_eq!(drain(&mut rank, &mut current), [1, 2]);
    }

    #[test]
    fn from_keys_sorts_and_restores_the_monotone_regime() {
        let rank: VictimRank = VictimRank::from_keys(vec![key(1.0, 9), key(7.0, 2), key(4.0, 5)]);
        assert!(rank.monotone);
        assert_eq!(rank.len(), 3);
        let mut rank = rank;
        let mut current = vec![(9, 1.0), (2, 7.0), (5, 4.0)];
        assert_eq!(drain(&mut rank, &mut current), [2, 5, 9]);
    }

    #[test]
    fn abort_propagates() {
        let mut rank = VictimRank::from_keys(Vec::new());
        rank.push(key(1.0, 1));
        match rank.pop_best(|_| Candidate::Abort) {
            Popped::Aborted => {}
            _ => panic!("expected abort"),
        }
    }
}

#[cfg(test)]
mod kinetic_tests {
    use super::*;
    use crate::policy::{FileView, MigrationPolicy, RandomEvict, Saac, Stp, StpLat};
    use fmig_trace::FileId;

    fn view(id: u32, size: u64, last_ref: i64, ref_count: u32) -> FileView {
        FileView {
            id: FileId::new(id),
            size,
            last_ref,
            created: 0,
            ref_count,
            next_use: None,
            est_miss_wait_s: 4.0,
        }
    }

    /// The rescan oracle: argmax by `(priority desc, id asc)`.
    fn naive_best(p: &dyn MigrationPolicy, state: &[Option<FileView>], now: i64) -> Option<u32> {
        state
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (p.priority(v, now), i as u32)))
            .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, i)| i)
    }

    /// Drives one policy through a deterministic churn of advances,
    /// touches, inserts, and winner evictions, asserting the tournament
    /// winner equals the rescan argmax at every step.
    fn churn_matches_rescan(p: &dyn MigrationPolicy, steps: usize) {
        let universe = 48u32;
        let mut state: Vec<Option<FileView>> = (0..universe)
            .map(|i| {
                Some(view(
                    i,
                    1 + (i as u64 * 7919) % 100_000,
                    (i as i64 * 131) % 900,
                    1 + i % 5,
                ))
            })
            .collect();
        let files: Vec<u32> = (0..universe).collect();
        let mut rng = 0x9E37_79B9_u64;
        let mut step_rng = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut now = 900i64;
        let mut t = {
            let mut eval = |f: u32, at: i64| {
                let v = state[f as usize].as_ref()?;
                Some((p.priority(v, at), p.kinetic(v, at)?))
            };
            KineticTournament::build(&files, now, &mut eval).expect("suite policies have forms")
        };
        for step in 0..steps {
            // Jumps both short (crossing-heavy) and day-scale.
            now += match step_rng() % 7 {
                0 => 0,
                1..=4 => (step_rng() % 13) as i64,
                5 => 977,
                _ => 86_400 / 2,
            };
            {
                let mut eval = |f: u32, at: i64| {
                    let v = state[f as usize].as_ref()?;
                    Some((p.priority(v, at), p.kinetic(v, at)?))
                };
                assert!(t.advance(now, &mut eval));
            }
            assert_eq!(
                t.winner().map(|(f, _, _)| f),
                naive_best(p, &state, now),
                "{}: winner diverged at step {step}, now {now}",
                p.name()
            );
            match step_rng() % 4 {
                0 => {
                    // Touch a random resident file.
                    let f = (step_rng() % universe as u64) as u32;
                    if let Some(v) = state[f as usize].as_mut() {
                        v.last_ref = now;
                        v.ref_count += 1;
                        let mut eval = |f: u32, at: i64| {
                            let v = state[f as usize].as_ref()?;
                            Some((p.priority(v, at), p.kinetic(v, at)?))
                        };
                        assert!(t.upsert(f, now, &mut eval));
                    }
                }
                1 => {
                    // Evict the winner (the purge path).
                    if let Some((f, _, _)) = t.winner() {
                        state[f as usize] = None;
                        let mut eval = |f: u32, at: i64| {
                            let v = state[f as usize].as_ref()?;
                            Some((p.priority(v, at), p.kinetic(v, at)?))
                        };
                        assert!(t.remove(f, now, &mut eval));
                    }
                }
                2 => {
                    // (Re)insert a file, possibly beyond the original
                    // universe to force growth.
                    let f = (step_rng() % (universe as u64 + 16)) as u32;
                    if state.len() <= f as usize {
                        state.resize(f as usize + 1, None);
                    }
                    state[f as usize] = Some(view(f, 1 + (step_rng() % 1_000_000), now, 1));
                    let mut eval = |f: u32, at: i64| {
                        let v = state[f as usize].as_ref()?;
                        Some((p.priority(v, at), p.kinetic(v, at)?))
                    };
                    assert!(t.upsert(f, now, &mut eval));
                }
                _ => {}
            }
            // Mutations settle at the next advance (the documented
            // contract for reading a winner).
            {
                let mut eval = |f: u32, at: i64| {
                    let v = state[f as usize].as_ref()?;
                    Some((p.priority(v, at), p.kinetic(v, at)?))
                };
                assert!(t.advance(now, &mut eval));
            }
            assert_eq!(
                t.winner().map(|(f, _, _)| f),
                naive_best(p, &state, now),
                "{}: winner diverged after mutation at step {step}",
                p.name()
            );
        }
    }

    #[test]
    fn tournament_matches_rescan_for_stp() {
        churn_matches_rescan(&Stp::classic(), 300);
        churn_matches_rescan(&Stp { exponent: 1.0 }, 300);
    }

    #[test]
    fn tournament_matches_rescan_for_saac() {
        churn_matches_rescan(&Saac, 300);
    }

    #[test]
    fn tournament_matches_rescan_for_random_evict() {
        churn_matches_rescan(&RandomEvict { salt: 0xA5A5 }, 300);
    }

    #[test]
    fn tournament_matches_rescan_for_stp_lat() {
        churn_matches_rescan(&StpLat::classic(), 300);
    }

    /// The `eval` hook over a test's file table.
    fn eval_over<'a>(
        p: &'a dyn MigrationPolicy,
        state: &'a [Option<FileView>],
    ) -> impl FnMut(u32, i64) -> Option<(f64, KineticForm)> + 'a {
        move |f, at| {
            let v = state[f as usize].as_ref()?;
            Some((p.priority(v, at), p.kinetic(v, at)?))
        }
    }

    fn touch(state: &mut [Option<FileView>], f: u32, now: i64) {
        let v = state[f as usize]
            .as_mut()
            .expect("touched files are resident");
        v.last_ref = now;
        v.ref_count += 1;
    }

    #[test]
    fn touches_between_advances_cost_one_evaluation_at_the_advance() {
        let p = Stp::classic();
        let mut state: Vec<Option<FileView>> = (0..16u32)
            .map(|i| Some(view(i, 100 + i as u64 * 37, i as i64 * 3, 1)))
            .collect();
        let files: Vec<u32> = (0..16).collect();
        let mut t = KineticTournament::build(&files, 100, &mut eval_over(&p, &state)).unwrap();
        assert!(t.advance(200, &mut eval_over(&p, &state)));
        // Five touches of one hot file: nothing is evaluated.
        for now in [210, 220, 230, 240, 250] {
            touch(&mut state, 3, now);
            let mut eval = |_: u32, _: i64| -> Option<(f64, KineticForm)> {
                panic!("a touch must not evaluate");
            };
            assert!(t.upsert(3, now, &mut eval));
        }
        // The advance pays for the hot file exactly once.
        let mut evals_of_3 = 0;
        let mut inner = eval_over(&p, &state);
        let mut eval = |f: u32, at: i64| {
            evals_of_3 += usize::from(f == 3);
            inner(f, at)
        };
        assert!(t.advance(300, &mut eval));
        assert_eq!(evals_of_3, 1);
        assert_eq!(t.winner().map(|w| w.0), naive_best(&p, &state, 300));
    }

    #[test]
    fn a_touch_in_the_second_a_neighbour_refreshed_the_leaf_still_counts() {
        let p = Stp::classic();
        // File 1 is old and huge: the standing winner. Files 0 and 1
        // occupy sibling leaves.
        let mut state: Vec<Option<FileView>> = vec![
            Some(view(0, 500, 10, 1)),
            Some(view(1, 1_000_000, 0, 1)),
            Some(view(2, 400, 20, 1)),
            Some(view(3, 300, 30, 1)),
        ];
        let mut t =
            KineticTournament::build(&[0, 1, 2, 3], 50, &mut eval_over(&p, &state)).unwrap();
        let now = 100;
        // Settling file 0's touch replays its path, which refreshes its
        // sibling — file 1's leaf is now stamped `now`.
        touch(&mut state, 0, now);
        assert!(t.upsert(0, now, &mut eval_over(&p, &state)));
        assert!(t.advance(now, &mut eval_over(&p, &state)));
        assert_eq!(t.winner().map(|w| w.0), Some(1));
        // File 1 is touched in that same second: its age drops to zero
        // and it must lose, although its leaf's stamp already says `now`.
        touch(&mut state, 1, now);
        assert!(t.upsert(1, now, &mut eval_over(&p, &state)));
        assert!(t.advance(now, &mut eval_over(&p, &state)));
        let best = naive_best(&p, &state, now);
        assert_ne!(best, Some(1));
        assert_eq!(t.winner().map(|w| w.0), best);
    }

    #[test]
    fn a_marked_leaf_evicted_and_reused_before_the_advance_settles_cleanly() {
        let p = Stp::classic();
        let mut state: Vec<Option<FileView>> = (0..4u32)
            .map(|i| Some(view(i, 100 + i as u64 * 11, i as i64, 1)))
            .collect();
        state.resize(8, None);
        let mut t =
            KineticTournament::build(&[0, 1, 2, 3], 40, &mut eval_over(&p, &state)).unwrap();
        // Touch file 2, evict it before any advance, and let file 6
        // take over its (marked) slot.
        touch(&mut state, 2, 50);
        assert!(t.upsert(2, 50, &mut eval_over(&p, &state)));
        state[2] = None;
        assert!(t.remove(2, 50, &mut eval_over(&p, &state)));
        state[6] = Some(view(6, 9_000, 50, 1));
        assert!(t.upsert(6, 50, &mut eval_over(&p, &state)));
        assert_eq!(t.len(), 4);
        // Settles to the rescan order over {0, 1, 3, 6}, all the way down.
        let now = 90;
        let mut got = Vec::new();
        let mut expected = Vec::new();
        while t.len() > 0 {
            assert!(t.advance(now, &mut eval_over(&p, &state)));
            let (f, _, _) = t.winner().expect("residents remain");
            expected.push(naive_best(&p, &state, now).unwrap());
            got.push(f);
            state[f as usize] = None;
            assert!(t.remove(f, now, &mut eval_over(&p, &state)));
        }
        assert_eq!(got, expected);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn batches_of_mutations_settle_to_the_rescan_winner() {
        // Many leaves marked between two advances — touches, inserts
        // (growth included), evictions of arbitrary residents, slots
        // reused — replay overlapping paths in one settle.
        let policies: [&dyn MigrationPolicy; 4] = [
            &Stp::classic(),
            &Saac,
            &RandomEvict { salt: 7 },
            &StpLat::classic(),
        ];
        for p in policies {
            let mut state: Vec<Option<FileView>> = (0..40u32)
                .map(|i| {
                    Some(view(
                        i,
                        1 + (i as u64 * 7919) % 50_000,
                        (i as i64 * 131) % 600,
                        1 + i % 4,
                    ))
                })
                .collect();
            state.resize(96, None);
            let files: Vec<u32> = (0..40).collect();
            let mut now = 600;
            let mut t = KineticTournament::build(&files, now, &mut eval_over(p, &state)).unwrap();
            let mut rng = 0x2545_F491_4F6C_DD1D_u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for round in 0..200 {
                for _ in 0..next() % 24 {
                    now += (next() % 3) as i64;
                    let f = (next() % 96) as u32;
                    match (state[f as usize].is_some(), next() % 3) {
                        (true, 0) => {
                            state[f as usize] = None;
                            assert!(t.remove(f, now, &mut eval_over(p, &state)));
                        }
                        (true, _) => {
                            touch(&mut state, f, now);
                            assert!(t.upsert(f, now, &mut eval_over(p, &state)));
                        }
                        (false, _) => {
                            state[f as usize] = Some(view(f, 1 + next() % 1_000_000, now, 1));
                            assert!(t.upsert(f, now, &mut eval_over(p, &state)));
                        }
                    }
                }
                now += [0, 1, 977, 43_200][(next() % 4) as usize];
                assert!(t.advance(now, &mut eval_over(p, &state)));
                assert_eq!(
                    t.winner().map(|w| w.0),
                    naive_best(p, &state, now),
                    "{}: winner diverged in round {round}, now {now}",
                    p.name()
                );
                assert_eq!(t.len(), state.iter().flatten().count());
            }
        }
    }

    #[test]
    fn eval_refusal_aborts() {
        let p = Stp::classic();
        let state = [Some(view(0, 10, 0, 1)), Some(view(1, 20, 0, 1))];
        let mut t = KineticTournament::build(&[0, 1], 0, &mut eval_over(&p, &state)).unwrap();
        // A touch marks the leaf; settling it asks the host, and a
        // refusal there must surface as `false`.
        assert!(t.upsert(0, 1, &mut |_, _| None));
        assert!(!t.advance(1, &mut |_, _| None));
    }

    #[test]
    fn a_leaf_stays_eighty_bytes() {
        assert!(std::mem::size_of::<KLeaf>() <= 80);
    }

    #[test]
    fn draining_every_winner_yields_the_full_rescan_sequence() {
        let p = Stp::classic();
        let mut state: Vec<Option<FileView>> = (0..33u32)
            .map(|i| Some(view(i, 1 + (i as u64 * 37) % 500, (i as i64 * 17) % 200, 1)))
            .collect();
        let files: Vec<u32> = (0..33).collect();
        let now = 200;
        let mut expected = Vec::new();
        {
            let mut s = state.clone();
            while let Some(f) = naive_best(&p, &s, now) {
                expected.push(f);
                s[f as usize] = None;
            }
        }
        let mut t = {
            let mut eval = |f: u32, at: i64| {
                let v = state[f as usize].as_ref()?;
                Some((p.priority(v, at), p.kinetic(v, at)?))
            };
            KineticTournament::build(&files, now, &mut eval).unwrap()
        };
        let mut got = Vec::new();
        while let Some((f, _, _)) = t.winner() {
            got.push(f);
            state[f as usize] = None;
            let mut eval = |f: u32, at: i64| {
                let v = state[f as usize].as_ref()?;
                Some((p.priority(v, at), p.kinetic(v, at)?))
            };
            assert!(t.remove(f, now, &mut eval));
        }
        assert_eq!(got, expected);
        assert_eq!(t.len(), 0);
    }
}

#[cfg(test)]
mod scan_tests {
    use std::cell::Cell;

    use super::*;
    use crate::policy::{FileView, MigrationPolicy, Stp};
    use fmig_trace::FileId;

    thread_local! {
        /// Near-tie bands the scan settled on this thread.
        static BANDS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_band() {
        BANDS.with(|bands| bands.set(bands.get() + 1));
    }

    /// A resident set as a table of optional views, indexed by file.
    struct Table(Vec<Option<FileView>>);

    impl Residents for Table {
        fn view(&self, file: u32) -> Option<FileView> {
            self.0.get(file as usize).copied().flatten()
        }
        fn len(&self) -> usize {
            self.0.iter().flatten().count()
        }
        fn files(&self) -> impl Iterator<Item = u32> + '_ {
            (0..self.0.len() as u32).filter(|&f| self.0[f as usize].is_some())
        }
    }

    fn view(id: u32, size: u64, last_ref: i64) -> FileView {
        FileView {
            id: FileId::new(id),
            size,
            last_ref,
            created: 0,
            ref_count: 1,
            next_use: None,
            est_miss_wait_s: 0.0,
        }
    }

    /// Evicts everything in one purge at `now`: the victim sequence,
    /// and the regime that named the last victim (asking past the last
    /// resident degrades any index, as the hosts never do).
    fn drain(
        policy: &dyn MigrationPolicy,
        mode: EvictionMode,
        files: &[FileView],
        now: i64,
    ) -> (Vec<u32>, RankingRegime) {
        let mut host = Table(files.iter().map(|&v| Some(v)).collect());
        let mut rank = Ranking::new(policy, mode);
        rank.begin_purge(&host, now);
        let (mut victims, mut regime) = (Vec::new(), rank.regime());
        while let Some(file) = rank.next_victim(&host, now) {
            regime = rank.regime();
            rank.evicted(&host, file, now);
            host.0[file as usize] = None;
            victims.push(file);
        }
        (victims, regime)
    }

    #[test]
    fn a_near_tie_band_settles_what_the_root_keys_cannot_order() {
        let now = 1 << 20;
        // Every (size, age) of a small grid, sorted by root key: a
        // neighbour pair whose f64 priorities order another way is one
        // only the band can rank. Exact real ties make them: STP(1.4)'s
        // 128·1^1.4 against 1·32^1.4 share a key but not a priority,
        // and STP(2)'s 2·3² against 18·1² share a priority but not a
        // key.
        for p in [Stp::classic(), Stp { exponent: 2.0 }] {
            let key = |v: &FileView| match p.kinetic(v, now) {
                Some(KineticForm::PowerAge { root, anchor, .. }) => root * (now - anchor) as f64,
                _ => unreachable!("STP ships PowerAge"),
            };
            let mut grid: Vec<FileView> = (1..=256u64)
                .flat_map(|size| (1..=64i64).map(move |age| view(0, size, now - age)))
                .collect();
            grid.sort_by(|a, b| key(a).total_cmp(&key(b)));
            let disagree = |w: &[FileView]| {
                key(&w[0]).total_cmp(&key(&w[1]))
                    != p.priority(&w[0], now).total_cmp(&p.priority(&w[1], now))
            };
            let pairs: Vec<&[FileView]> = grid.windows(2).filter(|w| disagree(w)).collect();
            assert!(!pairs.is_empty(), "{}: no pair the keys misorder", p.name());
            // Those pairs, equal (size, last_ref) twins, age-0 files
            // and size-0 files, under one purge.
            let mut files = Vec::new();
            for w in pairs.iter().take(24) {
                files.extend_from_slice(w);
            }
            files.extend([view(0, 500, now - 9), view(0, 500, now - 9)]);
            files.extend([view(0, 900, now), view(0, 10, now)]);
            files.extend([view(0, 0, now - 50), view(0, 0, 0)]);
            for (id, v) in files.iter_mut().enumerate() {
                v.id = FileId::new(id as u32);
            }
            let before = BANDS.with(Cell::get);
            let (got, regime) = drain(&p, EvictionMode::Indexed, &files, now);
            assert_eq!(regime, RankingRegime::PowerScan, "{}", p.name());
            assert!(BANDS.with(Cell::get) > before, "{}: no band", p.name());
            assert_eq!(got, drain(&p, EvictionMode::Rescan, &files, now).0);
            assert_eq!(got.len(), files.len());
        }
    }

    #[test]
    fn exponents_and_keys_outside_the_domain_leave_the_scan() {
        // An exponent past the ceiling takes the tournament.
        let files = [view(0, 10, 0), view(1, 20, 5)];
        let (_, regime) = drain(&Stp { exponent: 20.0 }, EvictionMode::Indexed, &files, 100);
        assert_eq!(regime, RankingRegime::Kinetic);
        // STP(16): a scan built at t = 10 meets t = 2^62, where files 0
        // and 1 price at ∞ and tie by id though their root keys differ.
        // The keys are past `hi`: the purge degrades, the rescan takes it.
        let p = Stp { exponent: 16.0 };
        let (then, now) = (10, 1 << 62);
        let files = [view(0, 1 << 40, 0), view(1, 1 << 41, 0), view(2, 3, 9)];
        let mut host = Table(files.iter().map(|&v| Some(v)).collect());
        let mut rank = Ranking::new(&p, EvictionMode::Indexed);
        rank.begin_purge(&host, then);
        assert_eq!(rank.regime(), RankingRegime::PowerScan);
        rank.begin_purge(&host, now);
        assert_eq!(rank.regime(), RankingRegime::Rescan);
        let mut got = Vec::new();
        while let Some(file) = rank.next_victim(&host, now) {
            host.0[file as usize] = None;
            got.push(file);
        }
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(got, drain(&p, EvictionMode::Rescan, &files, now).0);
    }
}
