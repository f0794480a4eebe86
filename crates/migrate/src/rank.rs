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
//!     │                              └──▶ PowerScan ─┤ degrade
//!     └──────────────── no form ─────────────────────┴──▶ Rescan (terminal)
//! ```
//!
//! * **Unprobed.** Nothing is maintained; a purge ranks by rescan. The
//!   first purge that sees [`INDEX_MIN_RESIDENTS`] files (any purge
//!   under [`EvictionMode::Indexed`]) probes the policy over the whole
//!   resident set: every file's [`MigrationPolicy::affine`] form first
//!   (the cheapest regime), then its [`MigrationPolicy::power_age_form`]
//!   (the scan, if every form shares one exponent) — else the rescan
//!   for good.
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
//!   (STP, and SAAC at `e = 1`) orders like its root `root·age`,
//!   `root = coeff^(1/e)` riding in the form. A mutation marks the
//!   file's row and lists it as dirty; a purge settles the dirty rows
//!   (one `power_age_form` call each), keys every row in one
//!   multiply-and-compare pass, heapifies only the `c` keys at or above
//!   a sampled cut and pops victims, settling near ties by exact
//!   `priority`: O(dirty + n + c) per purge plus O(log c) per victim,
//!   where a purge (0.95 → 0.80 of capacity) evicts about one resident
//!   in forty; see [`PowerScan`] for the cut and its refills.
//! * **Rescan.** Rank every resident by `priority` at `now`, heapify
//!   the `total_cmp`-order keys once, pop victims: `O(n)` per purge plus
//!   `O(log n)` per victim, NaN-proof, always correct. Forced by
//!   [`EvictionMode::Rescan`], the home of policies with neither form
//!   (Random, LRU-MAD, STP-lat), and where every broken promise lands:
//!   a withdrawn form, a drifting slope or exponent, a rank gone dry
//!   with residents left, a clock stepping backwards (the host reports
//!   that one — [`Ranking::degrade`] — because every closed form
//!   assumes non-decreasing reference times). A regime that degrades
//!   mid-purge hands the *same* purge to the rescan, so nothing
//!   under-purges.
//!
//! The affine index revalidates **by value** when a victim surfaces (the
//! scan and the rescan key every row afresh at each purge, so they hold
//! nothing stale). An affine key surfacing from the rank is checked
//! through [`Candidate`]: [`Candidate::Live`] (evict it),
//! [`Candidate::Gone`] (file left the cache; drop the key),
//! [`Candidate::Moved`] (resident but the key is a stale overestimate;
//! re-rank at the current, **never higher**, intercept), or
//! [`Candidate::Abort`] (contract violation). Because every mutation
//! that could *raise* a key pushes eagerly, a popped maximum is always
//! an upper bound, and deflating stale keys until a live one surfaces
//! yields the exact `(priority desc, id asc)` victim order — ties
//! included, since tied keys are compared by id before any is returned.
//! Value checks also cover a host reusing a file's slot: a key from a
//! previous incarnation either matches the re-created file's current
//! intercept (then it *is* current) or is stale like any other.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::EvictionMode;
use crate::policy::{FileView, MigrationPolicy, PowerAgeForm};

/// Resident-set size at which [`EvictionMode::Auto`] switches from the
/// rescan to the incremental index. Ranking a few dozen candidates per
/// purge is cheaper than a heap push per reference; re-ranking hundreds
/// or thousands is not.
pub const INDEX_MIN_RESIDENTS: usize = 128;

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
    PowerScan(Box<PowerScan>),
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
    /// The rescan's heap for the current purge, `(total_key(priority),
    /// Reverse(file))`: best victim on top; one allocation reused
    /// across purges.
    ranked: BinaryHeap<(u64, Reverse<u32>)>,
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// flip every bit of a negative, only the sign bit of a positive. So
/// `-NaN < -∞ < … < -0 < +0 < … < +∞ < +NaN`.
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
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
            ranked: BinaryHeap::new(),
        }
    }

    /// The regime ranking victims now.
    pub fn regime(&self) -> RankingRegime {
        match self.regime {
            Regime::Unprobed => RankingRegime::Unprobed,
            Regime::Affine { .. } => RankingRegime::Affine,
            Regime::PowerScan(_) => RankingRegime::PowerScan,
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
    /// scan row *mark* — the file is re-evaluated when the next purge
    /// opens, so a withdrawn form degrades there, not here.
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
            Regime::Unprobed | Regime::Rescan => {}
        }
    }

    /// Opens a purge at `now`. The first one past the gate probes the
    /// policy and builds an index from the resident set, or settles on
    /// the rescan; until then no index is maintained, so purge-free and
    /// small-resident-set runs pay nothing for one.
    pub fn begin_purge(&mut self, host: &impl Residents, now: i64) {
        self.ranked.clear();
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
    /// first, then the power-age form; a policy that refuses both — or
    /// violates the shared-slope or shared-exponent contract — means
    /// the rescan.
    fn probe(&self, host: &impl Residents, now: i64) -> Regime {
        if let Some(regime) = self.probe_affine(host) {
            return regime;
        }
        match PowerScan::build(self.policy, host, now) {
            Some(scan) => Regime::PowerScan(Box::new(scan)),
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
            debug_assert_eq!(scan.files.len(), host.len(), "one row per resident");
            match scan.next_victim(policy, host, now) {
                Some(file) => return Some(file),
                None => self.degrade(), // rescan rather than under-purge
            }
        }
        // The rescan: key every resident at `now`, once per purge. The
        // heap is empty when nothing is ranked yet (`begin_purge`
        // empties it) and again only when every resident it held has
        // been handed out. The id tie-break matters — policies produce
        // tied priorities routinely (LRU under equal timestamps,
        // Belady's never-used-again class) and the victim sequence must
        // be reproducible whatever order the host lists files in.
        if self.ranked.is_empty() {
            let mut keys = std::mem::take(&mut self.ranked).into_vec();
            keys.extend(host.files().map(|file| {
                let v = host.view(file).expect("a listed file is resident");
                (total_key(policy.priority(&v, now)), Reverse(file))
            }));
            self.ranked = BinaryHeap::from(keys);
        }
        self.ranked.pop().map(|(_, Reverse(file))| file)
    }

    /// Unregisters an evicted file. The scan mirrors the resident set
    /// exactly, so the victim's row comes out now; the affine rank's
    /// stale keys deflate at pop time instead.
    pub fn evicted(&mut self, file: u32) {
        if let Regime::PowerScan(scan) = &mut self.regime {
            scan.evicted(file);
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

/// The power-age scan's near-tie band, relative: keys of a purge that
/// come within this distance of its top key are settled by exact
/// `priority`. Evaluated `f64` priorities and keys track the real
/// curve to roughly 1e-13 relative error (a handful of roundings plus
/// one `powf`), so 1e-9 leaves about four orders of magnitude of slack.
const NEAR_TIE_MARGIN: f64 = 1e-9;

/// Rows between two keys of the scan's cut sample.
const SAMPLE_STRIDE: usize = 32;

/// The power-age scan (see the module docs): one row per resident,
/// keyed at each purge, only the keys at or above a cut heapified.
///
/// **Why the root order is the rescan order.** Priorities are
/// `coeff·age^e` with one `e`, and `x ↦ x^(1/e)` is increasing, so they
/// order like the real keys `coeff^(1/e)·age`. In `f64`, with the same
/// age `(now − anchor).max(0) as f64` on both sides:
///
/// * `root = fl(coeff^fl(1/e))` is within `(|ln coeff|/e + 1)·2⁻⁵³` of
///   `coeff^(1/e)` (the rounding of `1/e`, scaled by `ln coeff / e`),
///   and `fl(root·age)` adds half an ulp: ≈ 4e-15 relative for STP's
///   byte sizes at `e = 1.4`, below 1e-10 over the accepted forms. At
///   `e = 1` (SAAC, `STP(1.0)`) `root = coeff` is exact, and the key is
///   one rounding from `coeff·age`;
/// * the policy's `priority` is within a few ulps of the real curve
///   (STP's is [`crate::policy::power_age`]; SAAC's `age·size/(1+refs)`
///   rounds in another order than `coeff·age`, so the two differ by a
///   few ulps);
/// * so keys more than [`NEAR_TIE_MARGIN`] (1e-9) apart are real
///   priorities more than ≈ `0.8e-9·e` ≥ 7e-13 apart, far beyond the
///   `f64` priorities' ≈ 1e-15 rounding: those order the same way.
///
/// Keys within the margin of the top are a *near tie*, settled by exact
/// `priority`, ties by ascending id. A top key of `+0` needs no band:
/// age or coefficient 0 means priority `+0`, and the heap breaks those
/// ties by id. Accepted forms keep every nonzero priority normal
/// (`coeff` normal, `age ≥ 1`); a key past `(f64::MAX / 4)^(1/e)`
/// degrades the ranking.
///
/// **Why the cut changes nothing.** A purge evicts about one resident
/// in forty, so it heapifies only the rows keyed at or above `floor =
/// cut·(1 − NEAR_TIE_MARGIN)`, where the cut is a key of a stride
/// sample about twice the last purge's victim count down. A top is
/// handed out only while it is at or above the cut: then its whole band
/// and every larger key are in the heap, and the purge pops what the
/// full heap would. A top below the cut lowers it to the sample rank
/// twice as deep (past the sample's end, to 0) and pushes the rows keyed
/// in `[new floor, old floor)`; the rest are in the heap already. The
/// cut is a real row's key, so the heap's top is the purge's largest
/// key, which the `hi` domain check reads.
#[derive(Debug, Default)]
pub(crate) struct PowerScan {
    /// The policy's shared exponent.
    exponent: f64,
    /// One row per resident, in parallel columns: the form's root and
    /// anchor as of the row's last settle, the file, and whether the
    /// file mutated since.
    roots: Vec<f64>,
    anchors: Vec<i64>,
    files: Vec<u32>,
    marked: Vec<bool>,
    /// Files whose row was marked since the last purge opened; a row's
    /// mark keeps it off the list twice.
    dirty: Vec<u32>,
    /// Dense file index → row ([`NO_SLOT`] when not resident).
    slot_of: Vec<u32>,
    /// The purge's `(key bits, Reverse(file))` for every remaining row
    /// keyed at or above `floor`: largest key on top, lowest id among
    /// equal keys.
    heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Key bits of every [`SAMPLE_STRIDE`]th row, partitioned
    /// descending about `cut_rank`.
    sample: Vec<u64>,
    cut_rank: usize,
    cut: f64,
    floor: f64,
    /// Victims handed out since the purge opened.
    victims: usize,
}

impl PowerScan {
    /// A scan keyed at `now`, if every resident's form is keyable
    /// under the first one's exponent.
    fn build(policy: &dyn MigrationPolicy, host: &impl Residents, now: i64) -> Option<Self> {
        let first = host.view(host.files().next()?)?;
        let e = policy.power_age_form(&first)?.exponent;
        let mut scan = PowerScan {
            exponent: e,
            ..PowerScan::default()
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
                self.slot_of[fi] = self.files.len() as u32;
                self.roots.push(0.0);
                self.anchors.push(0);
                self.files.push(file);
                self.marked.push(true);
            }
            slot if self.marked[slot as usize] => return,
            slot => self.marked[slot as usize] = true,
        }
        self.dirty.push(file);
    }

    /// Swap-removes `file`'s row; unknown files are a no-op.
    fn evicted(&mut self, file: u32) {
        let slot = self.slot_of.get_mut(file as usize);
        let slot = slot.map_or(NO_SLOT, |s| std::mem::replace(s, NO_SLOT));
        if slot != NO_SLOT {
            let at = slot as usize;
            self.roots.swap_remove(at);
            self.anchors.swap_remove(at);
            self.files.swap_remove(at);
            self.marked.swap_remove(at);
            if let Some(&moved) = self.files.get(at) {
                self.slot_of[moved as usize] = slot;
            }
        }
    }

    /// Settles every dirty row with one `power_age_form` call, sets the
    /// cut from the last purge's victim count and heapifies the rows
    /// keyed at `now` above its floor. `false` on a form it cannot key
    /// (refused, or another exponent) or a key past `hi` (see the type
    /// docs): the rescan takes this purge.
    fn open_purge(
        &mut self,
        policy: &dyn MigrationPolicy,
        host: &impl Residents,
        now: i64,
    ) -> bool {
        for i in 0..self.dirty.len() {
            let file = self.dirty[i];
            let slot = self.slot_of[file as usize] as usize;
            // Evicted since it was marked, or listed again on re-entry.
            if slot == NO_SLOT as usize || !self.marked[slot] {
                continue;
            }
            let form = host.view(file).and_then(|v| policy.power_age_form(&v));
            let Some(PowerAgeForm {
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
            (self.roots[slot], self.anchors[slot], self.marked[slot]) = (root, anchor, false);
        }
        self.dirty.clear();
        self.sample.clear();
        for i in (0..self.files.len()).step_by(SAMPLE_STRIDE) {
            let key = key_bits(self.roots[i], self.anchors[i], now);
            self.sample.push(key);
        }
        let rank = 2 * std::mem::take(&mut self.victims) / SAMPLE_STRIDE;
        self.cut_at(0, rank);
        self.heap.clear();
        self.push_rows(now, u64::MAX);
        let hi = (f64::MAX / 4.0).powf(1.0 / self.exponent);
        self.heap.peek().is_none_or(|e| e.0 <= hi.to_bits())
    }

    /// Moves the cut to the sample's `rank`th largest key, selecting in
    /// the part of the sample from `from` on (every earlier rank is
    /// placed already), or to 0 past the sample's end.
    fn cut_at(&mut self, from: usize, rank: usize) {
        self.cut = match self.sample.get_mut(from..) {
            Some(rest) if rank - from < rest.len() => {
                let (_, &mut cut, _) = rest.select_nth_unstable_by(rank - from, |a, b| b.cmp(a));
                f64::from_bits(cut)
            }
            _ => 0.0,
        };
        (self.cut_rank, self.floor) = (rank, self.cut * (1.0 - NEAR_TIE_MARGIN));
    }

    /// Heap-pushes every row keyed at `now` at or above `floor`, whose
    /// key bits are below `below`: one multiply-and-compare per row.
    fn push_rows(&mut self, now: i64, below: u64) {
        let floor = self.floor.to_bits();
        let rows = self.roots.iter().zip(&self.anchors).zip(&self.files);
        let keyed = rows
            .map(|((&root, &anchor), &file)| (key_bits(root, anchor, now), Reverse(file)))
            .filter(|(bits, _)| (floor..below).contains(bits));
        self.heap.extend(keyed);
    }

    /// Lowers the cut to the sample rank twice as deep until the floor
    /// falls and pushes the rows that crossed it. `false` once the
    /// floor is 0: every remaining row is in the heap.
    fn refill(&mut self, now: i64) -> bool {
        let old = self.floor;
        if old == 0.0 {
            return false;
        }
        #[cfg(test)]
        scan_tests::note_refill();
        while self.floor == old {
            self.cut_at(self.cut_rank + 1, 2 * self.cut_rank + 1);
        }
        self.push_rows(now, old.to_bits());
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
        // A top below the cut may have rows of its band, or above it,
        // outside the heap.
        while self.heap.peek().is_none_or(|e| e.0 < self.cut.to_bits()) && self.refill(now) {}
        let (top_bits, Reverse(top)) = self.heap.pop()?;
        self.victims += 1;
        let floor = f64::from_bits(top_bits) * (1.0 - NEAR_TIE_MARGIN);
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

/// A scan row's key at `now`, as bits: nonnegative, so they order like
/// the key.
fn key_bits(root: f64, anchor: i64, now: i64) -> u64 {
    (root * (now - anchor).max(0) as f64).to_bits()
}

/// Sentinel `slot_of` entry: "not resident".
const NO_SLOT: u32 = u32::MAX;

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
mod scan_tests {
    use std::cell::Cell;

    use super::*;
    use crate::policy::{FileView, MigrationPolicy, Saac, Stp};
    use fmig_trace::FileId;

    thread_local! {
        /// Near-tie bands the scan settled on this thread.
        static BANDS: Cell<usize> = const { Cell::new(0) };
    }

    thread_local! {
        /// Cuts the scan lowered mid-purge on this thread.
        static REFILLS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_band() {
        BANDS.with(|bands| bands.set(bands.get() + 1));
    }

    pub(super) fn note_refill() {
        REFILLS.with(|refills| refills.set(refills.get() + 1));
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

    fn view(id: u32, size: u64, last_ref: i64, ref_count: u32) -> FileView {
        FileView {
            id: FileId::new(id),
            size,
            last_ref,
            created: 0,
            ref_count,
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
            rank.evicted(file);
            host.0[file as usize] = None;
            victims.push(file);
        }
        (victims, regime)
    }

    #[test]
    fn a_near_tie_band_settles_what_the_root_keys_cannot_order() {
        let now = 1 << 20;
        // Every (size, refs, age) of a small grid for SAAC and every
        // (size, age) for STP, sorted by root key: a neighbour pair
        // whose f64 priorities order another way is one only the band
        // can rank. Exact real ties make them: SAAC's (1, 9, 3) against
        // (3, 9, 1) key at 0.30000000000000004 and 0.3 but both price at
        // exactly 0.3; STP(1.4)'s 128·1^1.4 against 1·32^1.4 share a key
        // but not a priority, and STP(2)'s 2·3² against 18·1² share a
        // priority but not a key.
        let saac_grid: Vec<FileView> = (1..=32u64)
            .flat_map(|size| {
                (0..16).flat_map(move |refs| (1..=32).map(move |age| (size, refs, age)))
            })
            .map(|(size, refs, age)| view(0, size, now - age, refs))
            .collect();
        let stp_grid: Vec<FileView> = (1..=256u64)
            .flat_map(|size| (1..=64i64).map(move |age| view(0, size, now - age, 1)))
            .collect();
        let cases: [(&dyn MigrationPolicy, &[FileView]); 3] = [
            (&Saac, &saac_grid),
            (&Stp::classic(), &stp_grid),
            (&Stp { exponent: 2.0 }, &stp_grid),
        ];
        for (p, grid) in cases {
            let key = |v: &FileView| {
                let form = p.power_age_form(v).expect("a power-age policy");
                form.root * (now - form.anchor) as f64
            };
            let mut grid = grid.to_vec();
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
            files.extend([view(0, 500, now - 9, 1), view(0, 500, now - 9, 1)]);
            files.extend([view(0, 900, now, 1), view(0, 10, now, 1)]);
            files.extend([view(0, 0, now - 50, 1), view(0, 0, 0, 1)]);
            for (id, v) in files.iter_mut().enumerate() {
                v.id = FileId::new(id as u32);
            }
            let before = BANDS.with(Cell::get);
            let (got, regime) = drain(p, EvictionMode::Indexed, &files, now);
            assert_eq!(regime, RankingRegime::PowerScan, "{}", p.name());
            assert!(BANDS.with(Cell::get) > before, "{}: no band", p.name());
            let want = drain(p, EvictionMode::Rescan, &files, now).0;
            assert_eq!(got, want, "{}", p.name());
            assert_eq!(got.len(), files.len());
        }
        // The SAAC pair named above, exactly.
        let (a, b) = (view(0, 1, now - 3, 9), view(1, 3, now - 1, 9));
        let key = |v: &FileView| {
            let form = Saac.power_age_form(v).expect("SAAC ships a power-age form");
            form.root * (now - form.anchor) as f64
        };
        assert_eq!((key(&a), key(&b)), (0.30000000000000004, 0.3));
        assert_eq!((Saac.priority(&a, now), Saac.priority(&b, now)), (0.3, 0.3));
    }

    /// SAAC's near-tie pair from the band test: `(size 1, refs 9, age
    /// 3)` keys at 0.30000000000000004 and `(3, 9, 1)` at 0.3, and both
    /// price at exactly 0.3.
    fn saac_pair(now: i64, larger: u32, smaller: u32) -> [FileView; 2] {
        [view(larger, 1, now - 3, 9), view(smaller, 3, now - 1, 9)]
    }

    /// `n` SAAC files: `pair` at its ids, 0.1-keyed files at every
    /// other sampled row, the rest keyed from 0.2 up to about 4800.
    fn saac_files(now: i64, n: u32, pair: [FileView; 2]) -> Vec<FileView> {
        let mut files: Vec<FileView> = (0..n)
            .map(|id| match id as usize % SAMPLE_STRIDE {
                0 => view(id, 1, now - 1, 9),
                _ => {
                    let size = 1 + u64::from(id * 7919 % 97);
                    view(id, size, now - 1 - i64::from(id * 31 % 50), id % 5)
                }
            })
            .collect();
        for v in pair {
            files[v.id.index()] = v;
        }
        files
    }

    #[test]
    fn a_purge_that_outruns_its_cut_refills_and_stays_exact() {
        // The pair's larger key sits on row 0, above every other
        // sampled key, so it is the first purge's cut. It goes first by
        // id and leaves the smaller key, within its band, below the cut:
        // the top that lowers it.
        let now = 1 << 20;
        let files = saac_files(now, 200, saac_pair(now, 0, 1));
        let before = REFILLS.with(Cell::get);
        let (got, regime) = drain(&Saac, EvictionMode::Indexed, &files, now);
        assert_eq!(regime, RankingRegime::PowerScan);
        assert!(REFILLS.with(Cell::get) > before, "the first cut held");
        assert_eq!(got, drain(&Saac, EvictionMode::Rescan, &files, now).0);
        assert_eq!(got.len(), files.len());
    }

    #[test]
    fn a_near_tie_pair_straddling_the_cut_settles_in_the_band() {
        // The pair's larger key is row 32's, the purge's cut; the
        // smaller one, on the lower id, is a row below the cut but
        // inside its band, so it is in the heap and goes first.
        let now = 1 << 20;
        let files = saac_files(now, 40, saac_pair(now, 32, 31));
        let before = BANDS.with(Cell::get);
        let (got, regime) = drain(&Saac, EvictionMode::Indexed, &files, now);
        assert_eq!(regime, RankingRegime::PowerScan);
        assert!(BANDS.with(Cell::get) > before, "no band");
        assert_eq!(got, drain(&Saac, EvictionMode::Rescan, &files, now).0);
        let at = |file: u32| got.iter().position(|&f| f == file);
        assert_eq!(at(31).map(|i| i + 1), at(32), "the lower id goes first");
    }

    #[test]
    fn exponents_and_keys_outside_the_domain_leave_the_scan() {
        // An exponent past the ceiling takes the rescan.
        let files = [view(0, 10, 0, 1), view(1, 20, 5, 1)];
        let (_, regime) = drain(&Stp { exponent: 20.0 }, EvictionMode::Indexed, &files, 100);
        assert_eq!(regime, RankingRegime::Rescan);
        // STP(16): a scan built at t = 10 meets t = 2^62, where files 0
        // and 1 price at ∞ and tie by id though their root keys differ.
        // The keys are past `hi`: the purge degrades, the rescan takes it.
        let p = Stp { exponent: 16.0 };
        let (then, now) = (10, 1 << 62);
        let files = [
            view(0, 1 << 40, 0, 1),
            view(1, 1 << 41, 0, 1),
            view(2, 3, 9, 1),
        ];
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
