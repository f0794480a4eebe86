//! Migration (eviction) policies from the paper and its predecessors.
//!
//! §2.3 and §6 discuss the policy landscape the NCAR data speaks to:
//!
//! * **STP** — Smith's space-time product: migrate the file with the
//!   largest `size × (time since last reference)^k`, `k = 1.4` in
//!   [Smith 1981]. The best practical policy in both the SLAC and
//!   Illinois studies.
//! * **LRU** — migrate the least recently used file regardless of size.
//! * **Largest/Smallest-first** — pure size orderings (Lawrie's "length"
//!   criterion).
//! * **SAAC** — Lawrie's Space-Age-Activity criterion: like STP but
//!   discounting files that remain active (high reference counts).
//! * **FIFO** and **Random** — baselines.
//! * **Belady** — the clairvoyant offline bound: evict the file whose
//!   next use is farthest in the future (files never used again first).
//!
//! Beyond the paper's suite, the workspace ships two *latency-aware*
//! policies that consume the miss-latency feedback channel
//! ([`crate::feedback`]):
//!
//! * **LRU-MAD** — aggregate-delay-aware LRU in the style of Atre et
//!   al., "Caching with Delayed Hits" (SIGCOMM 2020): protect the files
//!   whose miss would cost the most total waiting (estimated miss wait
//!   × predicted coalesced waiters) per unit of time-to-next-access.
//! * **STP-lat** — Smith's space-time product with the estimated recall
//!   wait folded in: prefer victims that are cheap to bring back.
//!
//! A policy maps a cached file's state to an eviction priority; the cache
//! evicts highest-priority files first.
//!
//! The full contract family — `priority`, the `affine` exactness
//! contract, the `power_age_form` key recipe behind the power-age
//! scan, `shared_key`, `latency_aware` — is documented in
//! `docs/policy-contract.md`.

use fmig_trace::FileId;
use serde::{Deserialize, Serialize};

/// State a policy may consult about one cached file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileView {
    /// Dense identifier of the file (see [`fmig_trace::FileTable`]);
    /// policy scoring never touches a hash.
    pub id: FileId,
    /// File size in bytes.
    pub size: u64,
    /// Time of the most recent reference (seconds).
    pub last_ref: i64,
    /// Time the file entered the cache (seconds).
    pub created: i64,
    /// References seen while cached.
    pub ref_count: u32,
    /// Next time this file will be used, if an oracle filled it in
    /// (offline Belady mode); `None` means "never again".
    pub next_use: Option<i64>,
    /// Estimated tape-recall wait (seconds) this file would pay if
    /// evicted and re-read — the miss-latency feedback channel.
    ///
    /// Stamped onto the entry at every touch from the cache's current
    /// hint ([`crate::cache::DiskCache::set_est_miss_wait_s`]): the
    /// closed-loop hierarchy engine publishes a live per-tier EWMA
    /// ([`crate::feedback::LatencyFeedback`]), open-loop replay the flat
    /// [`crate::eval::EvalConfig::wait_s_per_miss`] fallback, and a bare
    /// cache `0.0`. Only [`MigrationPolicy::latency_aware`] policies
    /// consult it.
    pub est_miss_wait_s: f64,
}

/// An affine description of a file's eviction priority:
/// `priority(file, now) = slope * now + intercept` for every purge time
/// `now` the cache will evaluate it at.
///
/// See [`MigrationPolicy::affine`] for the exactness contract that lets
/// the cache's victim ranking replace the per-purge call to `priority`
/// with a key: exact intercepts on the scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AffinePriority {
    /// Coefficient on `now`. Must be identical for every file the policy
    /// instance describes (a property of the *policy*, carried per file
    /// so the index can verify it): with one shared slope, pairwise
    /// priority order is independent of `now`, which is what makes an
    /// index keyed once — instead of re-ranked every purge — exact.
    pub slope: f64,
    /// The file-dependent term. `f64::INFINITY` is allowed (Belady's
    /// never-used-again class).
    pub intercept: f64,
}

/// A *power-age* description of a file's eviction priority:
/// `priority(t) = coeff·(t − anchor)^exponent`, the age clamped at zero,
/// for every purge time `t` until the entry's next mutation.
///
/// The power-age scan keys a file once per purge by the curve's
/// `exponent`-th root, `root·(t − anchor)`, and settles every pair those
/// keys cannot separate by true [`MigrationPolicy::priority`]; see
/// [`MigrationPolicy::power_age_form`] for the contract. STP (`coeff =
/// size`) and SAAC (`coeff = size/(1+refs)`, `exponent = 1`) ship it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAgeForm {
    /// Multiplier on the aged term (must be ≥ 0).
    pub coeff: f64,
    /// Time the age is measured from (≤ every future purge time).
    pub anchor: i64,
    /// Exponent on the age (must be > 0, shared per policy instance).
    pub exponent: f64,
    /// `coeff.powf(1.0 / exponent)`, computed once when the form is
    /// cut: the power-age scan's key coefficient, so keying a file
    /// costs no `powf`.
    pub root: f64,
}

/// The [`PowerAgeForm`] curve at `t`: `coeff·(t − anchor)^exponent`,
/// the age clamped at zero. [`Stp`]'s priority is this function.
pub fn power_age(coeff: f64, anchor: i64, exponent: f64, t: i64) -> f64 {
    let age = (t - anchor).max(0) as f64;
    age.powf(exponent) * coeff
}

/// A victim key that is a pure function of a file's shared row, named
/// by [`MigrationPolicy::shared_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedKey {
    /// Oldest `last_ref` first, ties by ascending id (LRU).
    Recency,
    /// Latest `next_use` first — never-again (`None`) before any —
    /// ties by ascending id (Belady).
    NextUse,
}

/// An eviction policy: higher [`MigrationPolicy::priority`] leaves first.
pub trait MigrationPolicy: Send + Sync {
    /// Short display name ("STP(1.4)", "LRU", ...).
    fn name(&self) -> String;

    /// Eviction priority of `file` at time `now`; the cache evicts files
    /// in descending priority order.
    fn priority(&self, file: &FileView, now: i64) -> f64;

    /// True if the policy needs `next_use` filled in by an oracle.
    fn needs_oracle(&self) -> bool {
        false
    }

    /// The priority as an affine function of `now`, when the policy has
    /// one — the hook behind the ranking's intercept keys.
    ///
    /// # Contract
    ///
    /// Returning `Some` promises, for this exact `file` state:
    ///
    /// 1. **Shared slope.** `slope` is the same value for every file the
    ///    policy instance is asked about. Pairwise priority order then
    ///    never changes with `now`, so comparing intercepts (ties broken
    ///    by ascending id, as in the rescan) reproduces the rescan's
    ///    victim order exactly.
    /// 2. **Exact comparisons.** For any two resident files `a`, `b` and
    ///    any purge time `now` at or after both entries' last mutation,
    ///    `priority(a, now).total_cmp(&priority(b, now))` equals
    ///    `a.intercept.total_cmp(&b.intercept)` — *including ties*, since
    ///    ties fall through to the id tie-break. The shipped policies
    ///    meet this bit-for-bit because their priorities are exact
    ///    integer-valued `f64`s (timestamps and byte sizes below 2^53),
    ///    so ordering by `-last_ref`, `-created`, `±size`, or `next_use`
    ///    is the same total order as ordering by the priority value.
    /// 3. **Monotone clocks.** The form may assume reference times never
    ///    decrease (the clamp in e.g. LRU's `(now - last_ref).max(0)`
    ///    never engages for a resident entry) and that `next_use`, when
    ///    consulted, comes from a consistent oracle — both true for every
    ///    trace replay in this workspace. [`crate::cache::DiskCache`]
    ///    additionally watches the clock and falls back to the exact
    ///    rescan for good if time ever runs backwards.
    ///
    /// Policies whose priority bends with age (`STP` with exponent ≠ 1),
    /// whose slope would vary per file (`STP(1.0)`'s `size·now`, SAAC's
    /// activity discount), or whose ordering reshuffles over time
    /// (salted random) must return `None`; the cache then ranks through
    /// the power-age scan or the exact rescan, and the victim sequence
    /// is identical either way.
    fn affine(&self, _file: &FileView) -> Option<AffinePriority> {
        None
    }

    /// The priority as a power-age curve of the purge time, when the
    /// policy has one — the hook behind the power-age scan, consulted
    /// only when [`MigrationPolicy::affine`] returns `None`.
    ///
    /// # Contract
    ///
    /// Returning `Some` promises, for this exact `file` state:
    ///
    /// 1. **Faithful curve.** For every purge time `t` from the entry's
    ///    last mutation until its next one, `priority(file, t)` is
    ///    [`power_age`]`(coeff, anchor, exponent, t)` to within a few
    ///    ulps — far inside the scan's 1e-9 near-tie band.
    /// 2. **Shape.** `coeff ≥ 0`, `exponent > 0`, and `root` is
    ///    `coeff^(1/exponent)` (exactly `coeff` at `exponent = 1`).
    ///    Parameterizations that break them must return `None`.
    /// 3. **Shared exponent.** The exponent is the same for every file
    ///    the policy instance is asked about, so one root order is the
    ///    priority order.
    /// 4. **Monotone clocks**, exactly as [`MigrationPolicy::affine`]'s
    ///    clause 3.
    ///
    /// The scan keys each resident by `root·(t − anchor)` once per
    /// purge and settles keys within the band of the top by true
    /// `priority`, so the victim sequence is the rescan's exactly; a
    /// form that is withdrawn or moves its exponent mid-run degrades
    /// the ranking to the rescan. Policies with neither an affine nor
    /// a power-age form replay through the exact rescan.
    fn power_age_form(&self, _file: &FileView) -> Option<PowerAgeForm> {
        None
    }

    /// The shared-row key this policy's victim order *is*, if it is
    /// one: under a monotone clock, the rescan's `(priority desc, id
    /// asc)` order over any resident set equals the order of the key,
    /// ties broken by ascending id.
    ///
    /// This is the strongest contract of the family. The key must be a
    /// pure function of `last_ref` ([`SharedKey::Recency`]) or
    /// `next_use` ([`SharedKey::NextUse`]) — the two fields **every**
    /// touch writes the same in **every** cache that holds the file —
    /// so the key stream is capacity-independent and the
    /// multi-capacity replay engine ([`crate::mrc`]) ranks every
    /// capacity of a grid straight off its one shared per-file row:
    /// integer keys, no [`FileView`], no virtual call, no per-capacity
    /// resident list. `Recency` shares one touch log across the grid,
    /// compacted to its live entries (≤ 2·files + 1024), each
    /// equal-timestamp group sorted by id once it closes, with a clock
    /// hand per capacity — amortised O(1) per reference for the whole
    /// grid. `NextUse` keeps a heap of integer keys per capacity,
    /// ordered exactly like [`MigrationPolicy::affine`]'s intercept
    /// `next_use as f64` under `total_cmp` (never-again as +∞).
    ///
    /// `NextUse` inherits `affine`'s clause 3 precondition: the oracle
    /// is consistent, so a resident file's `next_use` is never in the
    /// past. A forward-scan oracle that sees across a later backwards
    /// clock step breaks it *before* the step, where no engine can
    /// detect it; the engine falls back to the exact rescan only from
    /// the step on. Only LRU (`Recency`) and Belady (`NextUse`) among
    /// the shipped policies qualify; the default is the safe `None`.
    fn shared_key(&self) -> Option<SharedKey> {
        None
    }

    /// True if the policy consults [`FileView::est_miss_wait_s`] — the
    /// miss-latency feedback channel (see [`crate::feedback`]).
    ///
    /// Latency-aware policies rank victims by estimated recall cost,
    /// so their *decisions* depend on where the estimate comes from:
    /// under the closed-loop hierarchy engine the estimate is a live
    /// EWMA of measured recall waits, while open-loop replay falls back
    /// to the flat [`crate::eval::EvalConfig::wait_s_per_miss`]
    /// constant. Their closed-loop miss ratios may therefore diverge
    /// (deliberately) from open-loop replay — the exact open-loop ≡
    /// closed-loop equivalence holds only for latency-blind policies,
    /// where this returns the default `false`.
    fn latency_aware(&self) -> bool {
        false
    }
}

/// The aggregate delay a miss on `file` is predicted to cost, in
/// waiter-seconds: `estimated miss wait × predicted coalesced waiters`.
///
/// The waiter count follows the delayed-hits model (Atre et al.,
/// SIGCOMM 2020): while a recall is outstanding for `est_miss_wait_s`
/// seconds, re-references coalesce onto it instead of being served, so
/// the expected number of delayed requests is the file's observed
/// arrival rate (`ref_count` over its cache tenure) times the window —
/// plus the missing request itself. With zero feedback
/// (`est_miss_wait_s == 0`) the aggregate delay is exactly `0.0`.
pub fn aggregate_delay(file: &FileView, now: i64) -> f64 {
    let est = file.est_miss_wait_s.max(0.0);
    let tenure = (now - file.created).max(1) as f64;
    let arrival_rate = file.ref_count as f64 / tenure;
    est * (1.0 + arrival_rate * est)
}

/// Smith's space-time product with configurable age exponent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stp {
    /// Exponent on the age term; Smith's best was 1.4 ("STP**1.4").
    pub exponent: f64,
}

impl Stp {
    /// The classic STP(1.4).
    pub fn classic() -> Self {
        Stp { exponent: 1.4 }
    }
}

impl MigrationPolicy for Stp {
    fn name(&self) -> String {
        format!("STP({:.1})", self.exponent)
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        power_age(file.size as f64, file.last_ref, self.exponent, now)
    }

    // No affine form: even at exponent 1.0 the priority is
    // `size·now − size·last_ref`, a *per-file* slope, so pairwise order
    // drifts with time (a small old file overtakes a large fresh one).

    fn power_age_form(&self, file: &FileView) -> Option<PowerAgeForm> {
        // `age^e · size` is exactly the power-age curve, and it orders
        // like its root `size^(1/e) · age`: the power-age scan's key.
        if !self.exponent.is_finite() || self.exponent <= 0.0 {
            return None;
        }
        let coeff = file.size as f64;
        Some(PowerAgeForm {
            coeff,
            anchor: file.last_ref,
            exponent: self.exponent,
            root: coeff.powf(1.0 / self.exponent),
        })
    }
}

/// Least-recently-used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Lru;

impl MigrationPolicy for Lru {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        (now - file.last_ref).max(0) as f64
    }

    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        // (now − last_ref) as f64 is exact (both fit in 2^53), so the
        // order of priorities is the order of −last_ref at every now.
        Some(AffinePriority {
            slope: 1.0,
            intercept: -(file.last_ref as f64),
        })
    }

    fn shared_key(&self) -> Option<SharedKey> {
        Some(SharedKey::Recency) // LRU *is* the recency order
    }
}

/// First-in-first-out by cache entry time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Fifo;

impl MigrationPolicy for Fifo {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        (now - file.created).max(0) as f64
    }

    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        Some(AffinePriority {
            slope: 1.0,
            intercept: -(file.created as f64),
        })
    }
}

/// Migrate the largest files first (frees space fastest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LargestFirst;

impl MigrationPolicy for LargestFirst {
    fn name(&self) -> String {
        "Largest-first".into()
    }

    fn priority(&self, file: &FileView, _now: i64) -> f64 {
        file.size as f64
    }

    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        // The intercept *is* the priority, so even the tie introduced by
        // two >2^53 sizes rounding to one f64 is reproduced exactly.
        Some(AffinePriority {
            slope: 0.0,
            intercept: file.size as f64,
        })
    }
}

/// Migrate the smallest files first (a deliberately bad baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SmallestFirst;

impl MigrationPolicy for SmallestFirst {
    fn name(&self) -> String {
        "Smallest-first".into()
    }

    fn priority(&self, file: &FileView, _now: i64) -> f64 {
        -(file.size as f64)
    }

    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        Some(AffinePriority {
            slope: 0.0,
            intercept: -(file.size as f64),
        })
    }
}

/// Lawrie's space-age-activity criterion: space-time discounted by the
/// file's observed activity, so busy files stay even when old and large.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Saac;

impl MigrationPolicy for Saac {
    fn name(&self) -> String {
        "SAAC".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        let age = (now - file.last_ref).max(0) as f64;
        age * file.size as f64 / (1.0 + file.ref_count as f64)
    }

    // No affine form: `size/(1+refs)` is a per-file slope, violating
    // the shared-slope contract — but that makes SAAC a power-age curve
    // at exponent 1, whose root is its coefficient.
    fn power_age_form(&self, file: &FileView) -> Option<PowerAgeForm> {
        let coeff = file.size as f64 / (1.0 + file.ref_count as f64);
        Some(PowerAgeForm {
            coeff,
            anchor: file.last_ref,
            exponent: 1.0,
            root: coeff,
        })
    }
}

/// Uniformly random eviction (seeded, deterministic per file).
///
/// **Reshuffle period: one day (86 400 s).** The priority hashes
/// `(id, salt, now / 86_400)`, so the victim order is *frozen* within a
/// day bucket and reshuffles only when the clock crosses a day
/// boundary. A hash has neither an affine nor a power-age form, so
/// Random ranks through the rescan: every resident hashed once per
/// purge, heapified, victims popped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomEvict {
    /// Salt mixed into the per-file hash.
    pub salt: u64,
}

impl MigrationPolicy for RandomEvict {
    fn name(&self) -> String {
        "Random".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        // Hash of (id, salt, coarse time) so the ordering reshuffles over
        // time but stays deterministic.
        let mut x = u64::from(file.id) ^ self.salt ^ ((now / 86_400) as u64).wrapping_mul(0x9E37);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        (x >> 11) as f64
    }
}

/// Belady's clairvoyant policy: evict the file used farthest in the
/// future; files never used again have infinite priority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Belady;

impl MigrationPolicy for Belady {
    fn name(&self) -> String {
        "Belady (offline)".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        match file.next_use {
            None => f64::INFINITY,
            Some(t) => (t - now).max(0) as f64,
        }
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn affine(&self, file: &FileView) -> Option<AffinePriority> {
        // With a consistent oracle a *resident* entry's next_use is never
        // in the past (the reference at `next_use` would have touched or
        // reinserted the entry), so the `.max(0)` clamp never engages and
        // the order of `(next_use − now)` is the order of `next_use`;
        // never-used-again files carry the same +∞ in both forms.
        Some(AffinePriority {
            slope: -1.0,
            intercept: file.next_use.map_or(f64::INFINITY, |t| t as f64),
        })
    }

    fn shared_key(&self) -> Option<SharedKey> {
        Some(SharedKey::NextUse) // farthest next use first is Belady
    }
}

/// Aggregate-delay-aware LRU (LRU-MAD, after Atre et al., "Caching
/// with Delayed Hits", SIGCOMM 2020): evict the file with the *least*
/// aggregate delay per unit of time-to-next-access.
///
/// LRU-MAD ranks each file by `aggregate_delay / TTNA` and keeps the
/// files where that ratio is highest. With time-to-next-access
/// estimated by recency (the LRU heuristic: a file untouched for `age`
/// seconds is expected back in about `age` seconds), "evict the
/// smallest `aggregate_delay / age`" is "evict the largest
/// `age / aggregate_delay`", so the priority here is
///
/// ```text
/// priority = age / (1 + delay_weight × aggregate_delay(file))
/// ```
///
/// — plain LRU age, deflated for files whose miss would cost real
/// waiting (see [`aggregate_delay`]). With zero latency feedback
/// (`est_miss_wait_s == 0` everywhere) the denominator is exactly
/// `1.0` and the priority is **bit-identical** to [`Lru`]'s, so the
/// victim sequence degrades to plain LRU — a property test pins this.
///
/// Declines [`MigrationPolicy::affine`]: the estimate drifts between
/// touches under live feedback, so no intercept frozen at push time can
/// meet the exact-comparison contract. It declines
/// [`MigrationPolicy::power_age_form`] too: the tenure term in the
/// denominator bends the curve off a pure power of age. Both the cache
/// and the single-pass MRC engine rank it through the rescan, which
/// heapifies every resident's priority once per purge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LruMad {
    /// Weight on the aggregate-delay term, in 1/(waiter-seconds);
    /// `1.0` in [`LruMad::classic`]. Larger values protect expensive
    /// files more aggressively.
    pub delay_weight: f64,
}

impl LruMad {
    /// The reference parameterization: unit delay weight.
    pub fn classic() -> Self {
        LruMad { delay_weight: 1.0 }
    }
}

impl MigrationPolicy for LruMad {
    fn name(&self) -> String {
        "LRU-MAD".into()
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        let age = (now - file.last_ref).max(0) as f64;
        age / (1.0 + self.delay_weight * aggregate_delay(file, now))
    }

    fn latency_aware(&self) -> bool {
        true
    }

    // No affine form and no shared key: the feedback estimate can
    // change between touches (EWMA drift), bending pairwise order in a
    // way no frozen intercept reproduces exactly. No power-age form:
    // the tenure in `aggregate_delay` moves the denominator with `now`.
}

/// Latency-aware space-time product: Smith's STP discounted by the
/// estimated recall wait, so among equally large-and-old candidates the
/// *cheap-to-recall* one leaves first.
///
/// ```text
/// priority = age^exponent × size / (1 + delay_weight × aggregate_delay(file))
/// ```
///
/// With zero latency feedback the denominator is exactly `1.0` and the
/// policy is bit-identical to [`Stp`] at the same exponent. Declines
/// [`MigrationPolicy::affine`] for the same reasons as [`Stp`] (per-file
/// slope) and [`LruMad`] (feedback drift), and
/// [`MigrationPolicy::power_age_form`] for [`LruMad`]'s (the tenure
/// term), so it ranks through the rescan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StpLat {
    /// Exponent on the age term, as in [`Stp`].
    pub exponent: f64,
    /// Weight on the aggregate-delay discount, as in [`LruMad`].
    pub delay_weight: f64,
}

impl StpLat {
    /// STP(1.4) with unit delay weight.
    pub fn classic() -> Self {
        StpLat {
            exponent: 1.4,
            delay_weight: 1.0,
        }
    }
}

impl MigrationPolicy for StpLat {
    fn name(&self) -> String {
        format!("STP-lat({:.1})", self.exponent)
    }

    fn priority(&self, file: &FileView, now: i64) -> f64 {
        let age = (now - file.last_ref).max(0) as f64;
        age.powf(self.exponent) * file.size as f64
            / (1.0 + self.delay_weight * aggregate_delay(file, now))
    }

    fn latency_aware(&self) -> bool {
        true
    }
}

/// The standard policy suite compared in the §6 experiments, extended
/// with the latency-aware pair (LRU-MAD, STP-lat).
pub fn standard_suite() -> Vec<Box<dyn MigrationPolicy>> {
    vec![
        Box::new(Stp::classic()),
        Box::new(Stp { exponent: 1.0 }),
        Box::new(Stp { exponent: 2.0 }),
        Box::new(Lru),
        Box::new(Fifo),
        Box::new(LargestFirst),
        Box::new(SmallestFirst),
        Box::new(Saac),
        Box::new(RandomEvict { salt: 0xA5A5 }),
        Box::new(LruMad::classic()),
        Box::new(StpLat::classic()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u32, size: u64, last_ref: i64, ref_count: u32) -> FileView {
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

    #[test]
    fn stp_prefers_old_and_large() {
        let stp = Stp::classic();
        let old_large = file(1, 100 << 20, 0, 1);
        let new_large = file(2, 100 << 20, 900, 1);
        let old_small = file(3, 1 << 20, 0, 1);
        let now = 1000;
        assert!(stp.priority(&old_large, now) > stp.priority(&new_large, now));
        assert!(stp.priority(&old_large, now) > stp.priority(&old_small, now));
        assert_eq!(stp.name(), "STP(1.4)");
    }

    #[test]
    fn stp_exponent_reweights_age_versus_size() {
        // Old small file vs newer huge file: a larger exponent favours
        // evicting by age; a smaller one by size.
        let old_small = file(1, 1 << 20, 0, 1);
        let new_huge = file(2, 1 << 30, 99_000, 1);
        let now = 100_000;
        let by_age = Stp { exponent: 3.0 };
        let by_size = Stp { exponent: 0.1 };
        assert!(by_age.priority(&old_small, now) > by_age.priority(&new_huge, now));
        assert!(by_size.priority(&new_huge, now) > by_size.priority(&old_small, now));
    }

    #[test]
    fn lru_ignores_size() {
        let a = file(1, 1 << 30, 10, 1);
        let b = file(2, 1, 5, 1);
        assert!(Lru.priority(&b, 100) > Lru.priority(&a, 100));
    }

    #[test]
    fn saac_protects_active_files() {
        let idle = file(1, 10 << 20, 0, 1);
        let busy = file(2, 10 << 20, 0, 50);
        assert!(Saac.priority(&idle, 1000) > Saac.priority(&busy, 1000));
    }

    #[test]
    fn belady_evicts_never_used_first() {
        let soon = FileView {
            next_use: Some(150),
            ..file(1, 10, 0, 1)
        };
        let later = FileView {
            next_use: Some(5000),
            ..file(2, 10, 0, 1)
        };
        let never = file(3, 10, 0, 1);
        let now = 100;
        assert!(Belady.priority(&never, now) > Belady.priority(&later, now));
        assert!(Belady.priority(&later, now) > Belady.priority(&soon, now));
        assert!(Belady.needs_oracle());
        assert!(!Lru.needs_oracle());
    }

    #[test]
    fn random_is_deterministic_and_spread() {
        let p = RandomEvict { salt: 7 };
        let a = p.priority(&file(1, 10, 0, 1), 100);
        let b = p.priority(&file(1, 10, 0, 1), 100);
        assert_eq!(a, b);
        let c = p.priority(&file(2, 10, 0, 1), 100);
        assert_ne!(a, c);
    }

    /// Checks the [`MigrationPolicy::affine`] contract on a set of file
    /// states: shared slope, and intercept order == priority order
    /// (ties included) at a few probe times.
    fn assert_affine_contract(policy: &dyn MigrationPolicy, files: &[FileView]) {
        let forms: Vec<AffinePriority> = files
            .iter()
            .map(|f| policy.affine(f).expect("policy advertises an affine form"))
            .collect();
        for w in forms.windows(2) {
            assert_eq!(
                w[0].slope.total_cmp(&w[1].slope),
                std::cmp::Ordering::Equal,
                "{}: slope must be file-independent",
                policy.name()
            );
        }
        let latest = files
            .iter()
            .map(|f| f.last_ref.max(f.created))
            .max()
            .unwrap();
        for now in [latest, latest + 1, latest + 977, latest + 86_400] {
            for (a, fa) in forms.iter().zip(files) {
                for (b, fb) in forms.iter().zip(files) {
                    assert_eq!(
                        policy
                            .priority(fa, now)
                            .total_cmp(&policy.priority(fb, now)),
                        a.intercept.total_cmp(&b.intercept),
                        "{}: affine order diverges at now={now} for {} vs {}",
                        policy.name(),
                        fa.id,
                        fb.id
                    );
                }
            }
        }
    }

    #[test]
    fn affine_forms_reproduce_priority_order() {
        let mut files = vec![
            file(1, 100, 10, 1),
            file(2, 100, 10, 3), // ties LRU with id 1
            file(3, 7, 250, 9),
            file(4, 1 << 40, 0, 1),
            file(5, 1 << 40, 99, 2), // ties size policies with id 4
        ];
        files[2].created = 50;
        // Far enough out that every probe time stays before the next use
        // (the oracle-consistency the Belady affine form assumes).
        files[3].next_use = Some(1_000_000);
        files[4].next_use = Some(1_000_001);
        assert_affine_contract(&Lru, &files);
        assert_affine_contract(&Fifo, &files);
        assert_affine_contract(&LargestFirst, &files);
        assert_affine_contract(&SmallestFirst, &files);
        // Belady: oracle-consistent next_use (none in the past); two
        // never-used-again files tie at +inf in both forms.
        let mut never_a = file(6, 10, 20, 1);
        let mut never_b = file(7, 10, 30, 1);
        never_a.next_use = None;
        never_b.next_use = None;
        let mut belady_files = files.clone();
        belady_files.retain(|f| f.next_use.is_some());
        belady_files.push(never_a);
        belady_files.push(never_b);
        assert_affine_contract(&Belady, &belady_files);
    }

    #[test]
    fn only_lru_and_belady_name_a_shared_key() {
        let mut suite = standard_suite();
        suite.push(Box::new(Belady));
        for policy in &suite {
            let expected = match policy.name().as_str() {
                "LRU" => Some(SharedKey::Recency),
                "Belady (offline)" => Some(SharedKey::NextUse),
                _ => None,
            };
            assert_eq!(policy.shared_key(), expected, "{}", policy.name());
        }
    }

    #[test]
    fn time_bent_policies_decline_the_affine_form() {
        let f = file(1, 100, 10, 2);
        assert!(Stp::classic().affine(&f).is_none());
        assert!(Stp { exponent: 1.0 }.affine(&f).is_none());
        assert!(Saac.affine(&f).is_none());
        assert!(RandomEvict { salt: 1 }.affine(&f).is_none());
        // The latency-aware pair declines too: live feedback drifts
        // between touches, so no frozen intercept stays exact.
        assert!(LruMad::classic().affine(&f).is_none());
        assert!(StpLat::classic().affine(&f).is_none());
    }

    #[test]
    fn suite_has_distinct_names() {
        let suite = standard_suite();
        let mut names: Vec<String> = suite.iter().map(|p| p.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate policy names");
        assert!(before >= 10);
    }

    #[test]
    fn aggregate_delay_follows_the_delayed_hits_model() {
        // 10 references over a 100 s tenure -> 0.1 refs/s. A 20 s miss
        // wait coalesces an expected 0.1 * 20 = 2 extra waiters, so the
        // aggregate delay is 20 * (1 + 2) = 60 waiter-seconds.
        let mut f = file(1, 1 << 20, 100, 10);
        f.est_miss_wait_s = 20.0;
        let d = aggregate_delay(&f, 100);
        assert!((d - 60.0).abs() < 1e-9, "{d}");
        // Zero feedback -> exactly zero aggregate delay.
        f.est_miss_wait_s = 0.0;
        assert_eq!(aggregate_delay(&f, 100), 0.0);
        // Negative estimates are clamped, never amplified.
        f.est_miss_wait_s = -5.0;
        assert_eq!(aggregate_delay(&f, 100), 0.0);
    }

    #[test]
    fn lru_mad_protects_expensive_files() {
        let now = 1_000;
        // Same recency; the file with the costly predicted miss stays.
        let mut cheap = file(1, 1 << 20, 0, 3);
        cheap.est_miss_wait_s = 1.0;
        let mut dear = file(2, 1 << 20, 0, 3);
        dear.est_miss_wait_s = 300.0;
        let p = LruMad::classic();
        assert!(p.priority(&cheap, now) > p.priority(&dear, now));
        // But recency still matters: a fresh expensive file does not
        // shield a stale cheap one forever.
        assert!(p.latency_aware());
        assert!(!Lru.latency_aware());
    }

    #[test]
    fn zero_feedback_degrades_lru_mad_to_lru_bit_for_bit() {
        let p = LruMad::classic();
        for (last_ref, now) in [(0i64, 7i64), (5, 5), (123, 86_400), (9, 3)] {
            let f = file(1, 1 << 30, last_ref, 4);
            assert_eq!(
                p.priority(&f, now).to_bits(),
                Lru.priority(&f, now).to_bits(),
                "LRU-MAD with zero feedback must equal LRU exactly"
            );
        }
    }

    #[test]
    fn zero_feedback_degrades_stp_lat_to_stp_bit_for_bit() {
        let lat = StpLat::classic();
        let blind = Stp::classic();
        for (last_ref, now) in [(0i64, 977i64), (50, 86_400), (9, 3)] {
            let f = file(3, 123_456, last_ref, 7);
            assert_eq!(
                lat.priority(&f, now).to_bits(),
                blind.priority(&f, now).to_bits(),
                "STP-lat with zero feedback must equal STP exactly"
            );
        }
    }

    #[test]
    fn stp_lat_prefers_cheap_recalls_among_equal_stp_candidates() {
        let now = 10_000;
        let mut silo = file(1, 1 << 24, 0, 2);
        silo.est_miss_wait_s = 30.0; // robot mount
        let mut shelf = file(2, 1 << 24, 0, 2);
        shelf.est_miss_wait_s = 600.0; // operator fetch
        let p = StpLat::classic();
        assert!(
            p.priority(&silo, now) > p.priority(&shelf, now),
            "equal space-time product: the cheap-to-recall file leaves first"
        );
    }

    /// How many `f64` steps apart two non-negative finite values are.
    fn ulps_apart(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    proptest::proptest! {
        /// STP's priority *is* its power-age curve, bit for bit, and the
        /// form's root — the power-age scan's key coefficient — is
        /// `coeff^(1/e)`. SAAC's priority rounds in another order than
        /// its curve (`age·size/(1+refs)` against `coeff·age`), so it is
        /// held to 4 ulps, with `root = coeff` exactly at `e = 1`.
        #[test]
        fn stp_priority_is_its_power_age_curve(
            sizes in (0u64..1 << 40, 0u64..1 << 40),
            last_refs in (0i64..1_000_000, 0i64..1_000_000),
            refs in (0u32..1 << 20, 0u32..1 << 20),
            wait in 0i64..100_000,
            e in 0usize..3,
        ) {
            let p = Stp { exponent: [1.0, 1.4, 2.0][e] };
            let a = file(1, sizes.0, last_refs.0, refs.0);
            let b = file(2, sizes.1, last_refs.1, refs.1);
            let now = last_refs.0.max(last_refs.1) + wait;
            for f in [&a, &b] {
                let form = p.power_age_form(f).expect("STP ships a power-age form");
                let PowerAgeForm { coeff, anchor, exponent, root } = form;
                proptest::prop_assert_eq!(root.to_bits(), coeff.powf(1.0 / exponent).to_bits());
                for t in [anchor, now, now + 1, now + 86_400] {
                    proptest::prop_assert_eq!(
                        p.priority(f, t).to_bits(),
                        power_age(coeff, anchor, exponent, t).to_bits()
                    );
                }
                let form = Saac.power_age_form(f).expect("SAAC ships a power-age form");
                let PowerAgeForm { coeff, anchor, exponent, root } = form;
                proptest::prop_assert_eq!((exponent, root.to_bits()), (1.0, coeff.to_bits()));
                for t in [anchor, now, now + 1, now + 86_400] {
                    let (got, curve) = (Saac.priority(f, t), power_age(coeff, anchor, 1.0, t));
                    proptest::prop_assert!(ulps_apart(got, curve) <= 4, "{got} vs {curve}");
                }
            }
        }
    }
}
