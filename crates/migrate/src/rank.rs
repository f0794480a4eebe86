//! Victim ranking: *which resident file leaves next*, decided once for
//! every host.
//!
//! A watermark purge must evict files in `(priority desc, id asc)`
//! order at the purge instant. [`Ranking`] is the one state machine that
//! produces that order for both hosts, [`crate::cache::DiskCache`] and
//! each capacity stack of [`crate::mrc`]. It keeps one row per resident
//! in every regime (filled by [`Ranking::touched`] on insert, emptied by
//! [`Ranking::evicted`]), so a host shows it nothing but a resident's
//! view ([`Residents`]). Every regime yields the **bit-identical** victim
//! sequence — `tests/cache_spec.rs`, `tests/scan_index.rs` and
//! `tests/mrc_index.rs` hold both hosts to the naive spec — so the
//! lifecycle only ever decides cost. One path ranks over the rows:
//!
//! ```text
//! Unprobed ─first purge─┬─ affine ─────────▶ Scan (intercepts) ─┐
//!                       ├─ power-age ──────▶ Scan (roots · age) ┤ degrade
//!                       └─ neither ────────▶ Rescan ◀───────────┘
//! ```
//!
//! * **Scan** ([`Scan`]): a mutation marks the row and lists it as dirty;
//!   a purge settles the dirty rows, keys every row, heapifies only the
//!   keys at or above a sampled cut and pops victims — O(dirty + n + c)
//!   per purge plus O(log c) per victim, where a purge (0.95 → 0.80 of
//!   capacity) evicts about one resident in forty. Keys come from one of
//!   three recipes: exact affine *intercepts* under one shared slope
//!   (LRU, FIFO, Belady, the size pair; one [`MigrationPolicy::affine`]
//!   call per dirty row); *power-age* roots `root·age` for `coeff·age^e`
//!   with one exponent (STP, SAAC at `e = 1`; one
//!   [`MigrationPolicy::power_age_form`] call per dirty row, near ties
//!   settled by exact `priority`); or *priorities*, the rescan. The probe
//!   reads the first resident's forms; every row's slope or exponent is
//!   checked when it is settled.
//! * **Rescan**: every row's `priority` at the purge instant, read
//!   through the host at most once per row per purge, in `total_cmp`
//!   order: NaN-proof and always correct. Forced by
//!   [`EvictionMode::Rescan`], the home of policies with neither form
//!   (Random, LRU-MAD, STP-lat), and where every broken promise lands: a
//!   withdrawn form, a drifting slope or exponent, a rank gone dry with
//!   residents left, a clock stepping backwards (the host reports that
//!   one — [`Ranking::degrade`] — because every closed form assumes
//!   non-decreasing reference times). Degrades are one-way, and a purge
//!   that degrades is finished by the rescan, so nothing under-purges.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::RangeBounds;

use crate::cache::EvictionMode;
use crate::policy::{FileView, MigrationPolicy, PowerAgeForm};

/// What a host shows the ranking: a resident file's view, nothing
/// else. Files are named by dense index ([`fmig_trace::FileId::raw`]).
pub(crate) trait Residents {
    /// The policy's view of `file`; `None` if it is not resident.
    fn view(&self, file: u32) -> Option<FileView>;
}

/// How the scan keys its rows; see the module docs.
#[derive(Debug, Clone, Copy)]
enum Recipe {
    /// Affine intercepts under one shared slope (its bit pattern).
    Intercept { slope_bits: u64 },
    /// Power-age roots times age, under one shared exponent.
    PowerAge { exponent: f64 },
    /// The policy's priority at the purge instant: the rescan.
    Priority,
}

/// Where a ranking is in its lifecycle, as a host reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingRegime {
    /// No purge has run yet: only the rows are kept.
    Unprobed,
    /// Intercept or power-age keys, ranked once per purge.
    Scan,
    /// The exact rescan by priority, for good.
    Rescan,
}

/// The victim-ranking lifecycle of one resident set under one policy;
/// see the module docs. The host reports every insert, write and read
/// hit ([`Ranking::touched`]), brackets a purge with
/// [`Ranking::begin_purge`], pulls victims one at a time
/// ([`Ranking::next_victim`]) and reports each eviction
/// ([`Ranking::evicted`]) before it pulls the next.
pub(crate) struct Ranking<'p> {
    policy: &'p dyn MigrationPolicy,
    /// The scan's recipe; `None` until the first purge probes.
    recipe: Option<Recipe>,
    /// One row per resident, and the purge state the scan keys them
    /// with.
    scan: Scan,
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
            recipe: match mode {
                EvictionMode::Auto => None,
                EvictionMode::Rescan => Some(Recipe::Priority),
            },
            scan: Scan::default(),
        }
    }

    /// The regime ranking victims now.
    pub fn regime(&self) -> RankingRegime {
        match self.recipe {
            None => RankingRegime::Unprobed,
            Some(Recipe::Priority) => RankingRegime::Rescan,
            Some(_) => RankingRegime::Scan,
        }
    }

    /// Files resident: one row each.
    pub fn len(&self) -> usize {
        self.scan.files.len()
    }

    /// Drops whatever keys are kept (or would have been) for the exact
    /// rescan, for good.
    pub fn degrade(&mut self) {
        self.recipe = Some(Recipe::Priority);
    }

    /// Mirrors one resident file's insert, write or read hit into the
    /// rows: adds its row, and on a keyed scan *marks* it — the file is
    /// re-evaluated when the next purge opens, so a withdrawn form
    /// degrades there, not here.
    pub fn touched(&mut self, file: u32) {
        let keyed = matches!(
            self.recipe,
            Some(Recipe::Intercept { .. } | Recipe::PowerAge { .. })
        );
        self.scan.touched(file, keyed);
    }

    /// Opens a purge at `now`. The first one probes the policy over the
    /// rows; a scan settles and keys them, and a promise broken there
    /// hands this purge to the rescan.
    pub fn begin_purge(&mut self, host: &impl Residents, now: i64) {
        let recipe = self.recipe.unwrap_or_else(|| self.probe(host));
        self.recipe = Some(recipe);
        if !self.scan.open_purge(recipe, self.policy, host, now) {
            self.rescan(host, now);
        }
    }

    /// Degrades for good and keys the open purge by priority.
    fn rescan(&mut self, host: &impl Residents, now: i64) {
        self.degrade();
        self.scan
            .open_purge(Recipe::Priority, self.policy, host, now);
    }

    /// Probes the first resident's forms for a recipe: its affine slope,
    /// else its power-age exponent, else the rescan. A keyed recipe
    /// marks every row, so the first purge settles each and checks its
    /// slope or exponent there.
    fn probe(&mut self, host: &impl Residents) -> Recipe {
        let Some(first) = self.scan.files.first().and_then(|&file| host.view(file)) else {
            return Recipe::Priority;
        };
        let recipe = match self.policy.affine(&first) {
            Some(a) => Recipe::Intercept {
                slope_bits: a.slope.to_bits(),
            },
            None => match self.policy.power_age_form(&first) {
                // Below 2⁻¹⁰ the rounding of `1/e` in `root` could
                // outgrow the band; past 16 a zero coefficient's `age^e`
                // could reach `∞·0`.
                Some(form) if (1.0 / 1024.0..=16.0).contains(&form.exponent) => Recipe::PowerAge {
                    exponent: form.exponent,
                },
                _ => return Recipe::Priority,
            },
        };
        self.scan.mark_all();
        recipe
    }

    /// The exact next victim in `(priority desc, id asc)` order at
    /// `now`, or `None` once no resident is left. The host evicts it
    /// and calls [`Ranking::evicted`] before asking again. A broken
    /// contract found here degrades to the rescan, which finishes the
    /// purge exactly.
    pub fn next_victim(&mut self, host: &impl Residents, now: i64) -> Option<u32> {
        if let Some(file) = self.scan.next_victim(self.policy, host, now) {
            return Some(file);
        }
        if self.len() == 0 || self.regime() == RankingRegime::Rescan {
            return None; // every row is handed out
        }
        // Dry with residents left, or a near-tie file not resident:
        // rescan rather than under-purge.
        self.rescan(host, now);
        self.scan.next_victim(self.policy, host, now)
    }

    /// Removes an evicted file's row.
    pub fn evicted(&mut self, file: u32) {
        self.scan.evicted(file);
    }
}

/// The power-age keys' near-tie band, relative: keys of a purge that
/// come within this distance of its top key are settled by exact
/// `priority`. Evaluated `f64` priorities and keys track the real
/// curve to roughly 1e-13 relative error (a handful of roundings plus
/// one `powf`), so 1e-9 leaves about four orders of magnitude of slack.
const NEAR_TIE_MARGIN: f64 = 1e-9;

/// Rows between two keys of the scan's cut sample.
const SAMPLE_STRIDE: usize = 32;

/// The rows and the purge-time scan over them (see the module docs):
/// one row per resident, keyed at each purge, only the keys at or above
/// a cut heapified. Keys are `u64`s in the order of the value they
/// encode: `total_key` of an intercept or a priority, or the bits of a
/// nonnegative power-age key.
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
/// degrades the ranking. Intercept and priority keys are exact: they
/// need no band, and their floor is the cut.
///
/// **Why the cut changes nothing.** A purge evicts about one resident
/// in forty, so it heapifies only the rows keyed at or above the floor
/// — `cut·(1 − NEAR_TIE_MARGIN)` for power-age keys, the cut itself for
/// exact ones — where the cut is a key of a stride sample about twice
/// the last purge's victim count down. A top is handed out only while
/// it is at or above the cut: then its whole band and every larger key
/// are in the heap, and the purge pops what the full heap would. A top
/// below the cut lowers it to the sample rank twice as deep (past the
/// sample's end, to 0) and pushes the rows keyed in `[new floor, old
/// floor)`; the rest are in the heap already. The cut is a real row's
/// key, so the heap's top is the purge's largest key, which the `hi`
/// domain check reads.
#[derive(Debug, Default)]
pub(crate) struct Scan {
    /// One row per resident, in parallel columns: the file, its key at
    /// the open purge, the power-age root and anchor as of the row's
    /// last settle, and whether the file mutated since (keyed scans
    /// only).
    files: Vec<u32>,
    keys: Vec<u64>,
    roots: Vec<f64>,
    anchors: Vec<i64>,
    marked: Vec<bool>,
    /// Files whose row was marked since the last purge opened; a row's
    /// mark keeps it off the list twice.
    dirty: Vec<u32>,
    /// Dense file index → row ([`NO_SLOT`] when not resident).
    slot_of: Vec<u32>,
    /// The purge's `(key, Reverse(file))` for every remaining row keyed
    /// at or above `floor`: largest key on top, lowest id among equal
    /// keys.
    heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Every [`SAMPLE_STRIDE`]th row's key, partitioned descending
    /// about `cut_rank`.
    sample: Vec<u64>,
    cut_rank: usize,
    cut: u64,
    floor: u64,
    /// The open purge's keys are power-age keys: near ties are settled
    /// by exact priority, and the floor sits a band below the cut.
    band: bool,
    /// Victims handed out since the purge opened.
    victims: usize,
}

impl Scan {
    /// Adds a row for `file` if it has none, and marks it when `mark`.
    fn touched(&mut self, file: u32, mark: bool) {
        let fi = file as usize;
        if fi >= self.slot_of.len() {
            self.slot_of.resize(fi + 1, NO_SLOT);
        }
        let slot = match self.slot_of[fi] {
            NO_SLOT => {
                self.slot_of[fi] = self.files.len() as u32;
                self.files.push(file);
                self.keys.push(0);
                self.roots.push(0.0);
                self.anchors.push(0);
                self.marked.push(false);
                self.files.len() - 1
            }
            slot => slot as usize,
        };
        if mark && !self.marked[slot] {
            self.marked[slot] = true;
            self.dirty.push(file);
        }
    }

    /// Marks every row: a keyed scan starts from nothing settled.
    fn mark_all(&mut self) {
        self.marked.fill(true);
        self.dirty.clone_from(&self.files);
    }

    /// Swap-removes `file`'s row; unknown files are a no-op.
    fn evicted(&mut self, file: u32) {
        let slot = self.slot_of.get_mut(file as usize);
        let slot = slot.map_or(NO_SLOT, |s| std::mem::replace(s, NO_SLOT));
        if slot != NO_SLOT {
            let at = slot as usize;
            self.files.swap_remove(at);
            self.keys.swap_remove(at);
            self.roots.swap_remove(at);
            self.anchors.swap_remove(at);
            self.marked.swap_remove(at);
            if let Some(&moved) = self.files.get(at) {
                self.slot_of[moved as usize] = slot;
            }
        }
    }

    /// Settles every dirty row through `settle(scan, row, view)`; on
    /// the first `false` (a form it cannot key) stops with `false`.
    fn settle(
        &mut self,
        host: &impl Residents,
        mut settle: impl FnMut(&mut Self, usize, FileView) -> bool,
    ) -> bool {
        for i in 0..self.dirty.len() {
            let file = self.dirty[i];
            let slot = self.slot_of[file as usize] as usize;
            // Evicted since it was marked, or listed again on re-entry.
            if slot == NO_SLOT as usize || !self.marked[slot] {
                continue;
            }
            match host.view(file) {
                Some(v) if settle(self, slot, v) => self.marked[slot] = false,
                _ => return false,
            }
        }
        self.dirty.clear();
        true
    }

    /// Keys every row at `now` by `recipe` (settling the dirty rows
    /// first), sets the cut from the last purge's victim count and
    /// heapifies the rows keyed above its floor. `false` on a form it
    /// cannot key (refused, or another slope or exponent) or a key past
    /// `hi` (see the type docs): the rescan takes this purge.
    fn open_purge(
        &mut self,
        recipe: Recipe,
        policy: &dyn MigrationPolicy,
        host: &impl Residents,
        now: i64,
    ) -> bool {
        let settled = match recipe {
            Recipe::Intercept { slope_bits } => {
                self.settle(host, |scan, slot, v| match policy.affine(&v) {
                    Some(a) if a.slope.to_bits() == slope_bits => {
                        scan.keys[slot] = total_key(a.intercept);
                        true
                    }
                    _ => false,
                })
            }
            Recipe::PowerAge { exponent } => {
                let settled = self.settle(host, |scan, slot, v| {
                    let Some(PowerAgeForm {
                        coeff,
                        anchor,
                        exponent: e,
                        root,
                    }) = policy.power_age_form(&v)
                    else {
                        return false;
                    };
                    // Positive normal `coeff` and `root` (every nonzero
                    // priority is then normal, as `age ≥ 1`), or both
                    // `+0`.
                    let keyable = match coeff > 0.0 {
                        true => coeff.is_normal() && root.is_normal() && root > 0.0,
                        false => coeff.to_bits() == 0 && root.to_bits() == 0,
                    };
                    let ok = keyable && e.to_bits() == exponent.to_bits();
                    if ok {
                        (scan.roots[slot], scan.anchors[slot]) = (root, anchor);
                    }
                    ok
                });
                if !settled {
                    return false;
                }
                let rows = self.roots.iter().zip(&self.anchors);
                for (key, (&root, &anchor)) in self.keys.iter_mut().zip(rows) {
                    *key = key_bits(root, anchor, now);
                }
                true
            }
            Recipe::Priority => {
                self.dirty.clear();
                for (key, &file) in self.keys.iter_mut().zip(&self.files) {
                    let v = host.view(file).expect("a row is resident");
                    *key = total_key(policy.priority(&v, now));
                }
                true
            }
        };
        if !settled {
            return false;
        }
        self.band = matches!(recipe, Recipe::PowerAge { .. });
        self.sample.clear();
        self.sample
            .extend(self.keys.iter().step_by(SAMPLE_STRIDE).copied());
        let rank = 2 * std::mem::take(&mut self.victims) / SAMPLE_STRIDE;
        self.cut_at(0, rank);
        self.heap.clear();
        self.push_rows(self.floor..);
        match recipe {
            Recipe::PowerAge { exponent } => {
                let hi = (f64::MAX / 4.0).powf(1.0 / exponent);
                self.heap.peek().is_none_or(|e| e.0 <= hi.to_bits())
            }
            Recipe::Intercept { .. } | Recipe::Priority => true,
        }
    }

    /// Moves the cut to the sample's `rank`th largest key, selecting in
    /// the part of the sample from `from` on (every earlier rank is
    /// placed already), or to 0 past the sample's end.
    fn cut_at(&mut self, from: usize, rank: usize) {
        self.cut = match self.sample.get_mut(from..) {
            Some(rest) if rank - from < rest.len() => {
                *rest.select_nth_unstable_by(rank - from, |a, b| b.cmp(a)).1
            }
            _ => 0,
        };
        self.floor = match self.band {
            true => (f64::from_bits(self.cut) * (1.0 - NEAR_TIE_MARGIN)).to_bits(),
            false => self.cut,
        };
        self.cut_rank = rank;
    }

    /// Heap-pushes every row whose key is in `range`.
    fn push_rows(&mut self, range: impl RangeBounds<u64>) {
        let rows = self.keys.iter().zip(&self.files);
        let keyed = rows
            .filter(|(key, _)| range.contains(key))
            .map(|(&key, &file)| (key, Reverse(file)));
        self.heap.extend(keyed);
    }

    /// Lowers the cut to the sample rank twice as deep until the floor
    /// falls and pushes the rows that crossed it. `false` once the
    /// floor is 0: every remaining row is in the heap.
    fn refill(&mut self) -> bool {
        let old = self.floor;
        if old == 0 {
            return false;
        }
        #[cfg(test)]
        scan_tests::note_refill();
        while self.floor == old {
            self.cut_at(self.cut_rank + 1, 2 * self.cut_rank + 1);
        }
        self.push_rows(self.floor..old);
        true
    }

    /// The exact next victim at the purge's `now`, or `None` when the
    /// heap is dry or a near-tie file is not resident (with residents
    /// left, both are broken promises: the ranking degrades).
    fn next_victim(
        &mut self,
        policy: &dyn MigrationPolicy,
        host: &impl Residents,
        now: i64,
    ) -> Option<u32> {
        // A top below the cut may have rows of its band, or above it,
        // outside the heap.
        while self.heap.peek().is_none_or(|e| e.0 < self.cut) && self.refill() {}
        let (top_bits, Reverse(top)) = self.heap.pop()?;
        self.victims += 1;
        let floor = f64::from_bits(top_bits) * (1.0 - NEAR_TIE_MARGIN);
        let near =
            move |&(bits, _): &(u64, Reverse<u32>)| top_bits != 0 && f64::from_bits(bits) >= floor;
        if !self.band || !self.heap.peek().is_some_and(near) {
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

/// A power-age row's key at `now`, as bits: nonnegative, so they order
/// like the key.
fn key_bits(root: f64, anchor: i64, now: i64) -> u64 {
    (root * (now - anchor).max(0) as f64).to_bits()
}

/// Sentinel `slot_of` entry: "not resident".
const NO_SLOT: u32 = u32::MAX;

#[cfg(test)]
mod scan_tests {
    use std::cell::Cell;

    use super::*;
    use crate::policy::{FileView, LargestFirst, MigrationPolicy, Saac, Stp};
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

    /// The oracle, sharing no code with the ranking: every file by
    /// `priority` at `now`, descending under `total_cmp`, ties by
    /// ascending id.
    fn sorted(policy: &dyn MigrationPolicy, files: &[FileView], now: i64) -> Vec<u32> {
        let mut scored: Vec<(f64, u32)> = files
            .iter()
            .map(|v| (policy.priority(v, now), v.id.raw()))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// A ranking with one row per file of `files` (file `i` at index
    /// `i`), and its host.
    fn ranking<'p>(policy: &'p dyn MigrationPolicy, files: &[FileView]) -> (Ranking<'p>, Table) {
        let host = Table(files.iter().map(|&v| Some(v)).collect());
        let mut rank = Ranking::new(policy, EvictionMode::Auto);
        for file in 0..files.len() as u32 {
            rank.touched(file);
        }
        (rank, host)
    }

    /// Takes up to `n` victims in the purge open at `now`.
    fn take(rank: &mut Ranking, host: &mut Table, now: i64, n: usize) -> Vec<u32> {
        let mut victims = Vec::new();
        while victims.len() < n {
            let Some(file) = rank.next_victim(host, now) else {
                break;
            };
            rank.evicted(file);
            host.0[file as usize] = None;
            victims.push(file);
        }
        victims
    }

    /// Evicts everything in one purge at `now`: the victim sequence,
    /// and the regime that named the last victim.
    fn drain(
        policy: &dyn MigrationPolicy,
        files: &[FileView],
        now: i64,
    ) -> (Vec<u32>, RankingRegime) {
        let (mut rank, mut host) = ranking(policy, files);
        rank.begin_purge(&host, now);
        let victims = take(&mut rank, &mut host, now, files.len() + 1);
        (victims, rank.regime())
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
            let (got, regime) = drain(p, &files, now);
            assert_eq!(regime, RankingRegime::Scan, "{}", p.name());
            assert!(BANDS.with(Cell::get) > before, "{}: no band", p.name());
            assert_eq!(got, sorted(p, &files, now), "{}", p.name());
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
        let (got, regime) = drain(&Saac, &files, now);
        assert_eq!(regime, RankingRegime::Scan);
        assert!(REFILLS.with(Cell::get) > before, "the first cut held");
        assert_eq!(got, sorted(&Saac, &files, now));
    }

    #[test]
    fn a_near_tie_pair_straddling_the_cut_settles_in_the_band() {
        // The pair's larger key is row 32's, the purge's cut; the
        // smaller one, on the lower id, is a row below the cut but
        // inside its band, so it is in the heap and goes first.
        let now = 1 << 20;
        let files = saac_files(now, 40, saac_pair(now, 32, 31));
        let before = BANDS.with(Cell::get);
        let (got, regime) = drain(&Saac, &files, now);
        assert_eq!(regime, RankingRegime::Scan);
        assert!(BANDS.with(Cell::get) > before, "no band");
        assert_eq!(got, sorted(&Saac, &files, now));
        let at = |file: u32| got.iter().position(|&f| f == file);
        assert_eq!(at(31).map(|i| i + 1), at(32), "the lower id goes first");
    }

    #[test]
    fn affine_policies_rank_on_intercept_keys_from_the_first_purge() {
        // Largest-first over 300 files whose sizes repeat (exact ties):
        // the first purge keys every row by intercept, a larger newcomer
        // is marked and keyed at the next purge, and the purges stay on
        // the scan, refilling as they outrun their cuts.
        let now = 1000;
        let size = |id: u32| 1 + u64::from(id * 7919 % 61);
        let mut files: Vec<FileView> = (0..300).map(|id| view(id, size(id), 0, 1)).collect();
        let (mut rank, mut host) = ranking(&LargestFirst, &files[..299]);
        assert_eq!(rank.regime(), RankingRegime::Unprobed);
        rank.begin_purge(&host, now);
        assert_eq!(rank.regime(), RankingRegime::Scan);
        let mut got = take(&mut rank, &mut host, now, 10);
        files[299].size = 500;
        host.0.push(Some(files[299]));
        rank.touched(299);
        let before = REFILLS.with(Cell::get);
        for _ in 0..3 {
            rank.begin_purge(&host, now);
            got.extend(take(&mut rank, &mut host, now, 40));
        }
        assert!(REFILLS.with(Cell::get) > before, "no purge outran its cut");
        rank.begin_purge(&host, now);
        got.extend(take(&mut rank, &mut host, now, files.len()));
        assert_eq!(rank.regime(), RankingRegime::Scan);
        // The first ten left before file 299 arrived.
        let mut want = sorted(&LargestFirst, &files[..299], now)[..10].to_vec();
        let rest: Vec<FileView> = files
            .iter()
            .filter(|v| !want.contains(&v.id.raw()))
            .copied()
            .collect();
        want.extend(sorted(&LargestFirst, &rest, now));
        assert_eq!(got, want);
    }

    #[test]
    fn the_rescan_keys_each_row_once_per_purge() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        // Random's priority hashes the id; a purge of every file must
        // ask for each priority once, refills included.
        struct Counting(AtomicUsize);
        impl MigrationPolicy for Counting {
            fn name(&self) -> String {
                "counting".into()
            }
            fn priority(&self, file: &FileView, _now: i64) -> f64 {
                self.0.fetch_add(1, Relaxed);
                f64::from(file.id.raw().wrapping_mul(2_654_435_761) % 1000)
            }
        }
        let p = Counting(AtomicUsize::new(0));
        let files: Vec<FileView> = (0..500).map(|id| view(id, 1, 0, 1)).collect();
        let before = REFILLS.with(Cell::get);
        let (got, regime) = drain(&p, &files, 10);
        assert_eq!(regime, RankingRegime::Rescan);
        assert!(REFILLS.with(Cell::get) > before, "no refill");
        assert_eq!(p.0.load(Relaxed), files.len(), "priority calls");
        assert_eq!(got, sorted(&p, &files, 10));
    }

    #[test]
    fn exponents_and_keys_outside_the_domain_leave_the_scan() {
        // An exponent past the ceiling takes the rescan.
        let files = [view(0, 10, 0, 1), view(1, 20, 5, 1)];
        let (_, regime) = drain(&Stp { exponent: 20.0 }, &files, 100);
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
        let (mut rank, mut host) = ranking(&p, &files);
        rank.begin_purge(&host, then);
        assert_eq!(rank.regime(), RankingRegime::Scan);
        rank.begin_purge(&host, now);
        assert_eq!(rank.regime(), RankingRegime::Rescan);
        let got = take(&mut rank, &mut host, now, files.len());
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(got, sorted(&p, &files, now));
    }
}
