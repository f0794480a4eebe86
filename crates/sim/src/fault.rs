//! Deterministic fault injection for the closed-loop hierarchy engine.
//!
//! The paper's MSS was defined as much by its failure modes as by its
//! steady state: operator-mounted tapes went missing, drives fought
//! over cartridges, and a recall could stall for minutes behind a
//! repair. [`FaultPlan`] describes that degraded world as a *scenario*
//! — outage processes over drives and mounters, a per-recall media
//! read-error probability with bounded retry, and slow-drive windows —
//! and [`FaultSchedule::materialize`] turns the scenario into a
//! concrete, fully deterministic schedule from a seed:
//!
//! * **outage windows** are sampled up front from a dedicated RNG
//!   stream derived from the seed (exponential up-times, jittered
//!   repair times), so the same seed always parks the same units at the
//!   same instants;
//! * **read errors** are decided by a counter-based hash of
//!   `(seed, recall, attempt)` — no shared RNG stream, so the decision
//!   for a given recall cannot shift when unrelated event interleaving
//!   changes;
//! * **slow-drive windows** scale tape transfer rates by a fixed
//!   factor over scheduled intervals.
//!
//! Because the schedule consumes no draws from the engine's own RNG and
//! an empty plan materializes to an inert schedule, a zero-fault run is
//! **bit-identical** to a run of the pre-fault engine — the property
//! `tests/golden_report.rs` and `tests/fault_injection.rs` pin.
//!
//! The engine asks the schedule two questions on every tape grant —
//! which rate factor holds now, and how much of a queue wait overlapped
//! an outage of the job's tier — so the schedule is **indexed once** at
//! construction: slow windows are a sorted disjoint list
//! ([`FaultSchedule::rate_factor_at`] is one `partition_point`), and
//! each tier's outage windows are merged into their union with a running
//! covered-milliseconds prefix ([`FaultSchedule::outage_overlap_ms`] is
//! `covered(to) − covered(from)`, two binary searches). Both are
//! property-tested against the linear scans they replaced.

use fmig_trace::DeviceClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::event::{SimMs, MS};
use crate::tape::Tier;

/// How long after the last arrival materialized fault windows may still
/// begin: the queues keep draining past the final reference, and an
/// outage or slow window during the drain is as real as one during it.
/// Shared between the closed-loop engine and the live origin server so
/// both materialize schedules over the identical horizon.
pub const FAULT_HORIZON_SLACK_MS: SimMs = 4 * 3600 * MS;

/// The fault-schedule horizon `[start_ms, end_ms)` of a trace whose
/// first and last references start at `first_s` and `last_s` (Unix
/// seconds): from the first reference to [`FAULT_HORIZON_SLACK_MS`]
/// past the last, in virtual ms. An empty trace passes `(0, 0)`.
pub fn fault_horizon(first_s: i64, last_s: i64) -> (SimMs, SimMs) {
    (first_s * MS, last_s * MS + FAULT_HORIZON_SLACK_MS)
}

/// A resource class a fault clause can take units away from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// Tape drives in the StorageTek silo.
    SiloDrive,
    /// Operator-mounted shelf tape drives.
    ManualDrive,
    /// Robot arms mounting silo cartridges.
    RobotArm,
    /// Human operators mounting shelf cartridges.
    Operator,
}

impl FaultTarget {
    /// The tape tier whose jobs queue behind this resource — used to
    /// attribute queue wait to outages.
    pub fn tier(self) -> DeviceClass {
        self.tape_tier().device()
    }

    /// [`Self::tier`] as the tape half's own type.
    pub(crate) fn tape_tier(self) -> Tier {
        match self {
            FaultTarget::SiloDrive | FaultTarget::RobotArm => Tier::Silo,
            FaultTarget::ManualDrive | FaultTarget::Operator => Tier::Manual,
        }
    }
}

/// One outage process: a renewal process of failures on a resource
/// class, each parking one unit for a repair window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageClause {
    /// Resource the outages hit.
    pub target: FaultTarget,
    /// Mean up-time between failures, seconds (exponential).
    pub mean_up_s: f64,
    /// Repair duration, seconds (uniformly jittered by `jitter`).
    pub down_s: f64,
    /// Relative jitter (±) on the repair duration, in `[0, 1)`.
    pub jitter: f64,
}

/// Slow-drive degradation: scheduled windows during which every tape
/// transfer streams at `rate_factor` times its healthy rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowDriveClause {
    /// Tape transfer-rate multiplier inside a window, in `(0, 1]`.
    pub rate_factor: f64,
    /// Mean healthy time between degradation windows, seconds.
    pub mean_up_s: f64,
    /// Window duration, seconds.
    pub down_s: f64,
}

/// A degraded-mode scenario for the hierarchy engine. The plan is pure
/// configuration — materialize it against a seed and a time span to get
/// the concrete [`FaultSchedule`] the engine consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Outage processes over drives and mounters.
    pub outages: Vec<OutageClause>,
    /// Probability a recall's tape transfer fails with a media read
    /// error and must retry, in `[0, 1]`.
    pub read_error_prob: f64,
    /// Failed attempts allowed per recall; the attempt after the last
    /// allowed failure always succeeds (an operator re-cleans the
    /// cartridge), so every recall terminates.
    pub max_read_retries: u32,
    /// Backoff before a failed recall re-joins its drive queue, seconds.
    pub retry_backoff_s: f64,
    /// Optional slow-drive degradation windows.
    pub slow_drive: Option<SlowDriveClause>,
}

impl FaultPlan {
    /// The empty plan: no faults, engine behavior bit-identical to a
    /// fault-free run.
    pub fn none() -> Self {
        FaultPlan {
            outages: Vec::new(),
            read_error_prob: 0.0,
            max_read_retries: 0,
            retry_backoff_s: 30.0,
            slow_drive: None,
        }
    }

    /// True when materializing this plan can never inject anything.
    pub fn is_none(&self) -> bool {
        self.outages.is_empty() && self.read_error_prob <= 0.0 && self.slow_drive.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One materialized outage: `target` loses a unit over
/// `[start_ms, end_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Resource losing a unit.
    pub target: FaultTarget,
    /// Window start, sim milliseconds.
    pub start_ms: SimMs,
    /// Window end, sim milliseconds.
    pub end_ms: SimMs,
}

/// One tape tier's outage windows merged into disjoint intervals, with
/// the milliseconds covered *before* each interval as a running prefix:
/// the union measure of any span is then two binary searches.
#[derive(Debug, Clone, PartialEq, Default)]
struct OutageCover {
    /// `(start, end, covered before start)`, sorted, pairwise disjoint
    /// and non-abutting.
    spans: Vec<(SimMs, SimMs, SimMs)>,
}

impl OutageCover {
    /// Merges the windows `sorted` by start into their union.
    fn of(sorted: impl Iterator<Item = (SimMs, SimMs)>) -> Self {
        let mut spans: Vec<(SimMs, SimMs, SimMs)> = Vec::new();
        for (start, end) in sorted {
            match spans.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ if end > start => {
                    let before = spans.last().map_or(0, |l| l.2 + (l.1 - l.0));
                    spans.push((start, end, before));
                }
                _ => {}
            }
        }
        OutageCover { spans }
    }

    /// Milliseconds of `(-∞, t)` the union covers.
    fn covered_before(&self, t: SimMs) -> SimMs {
        match self.spans.partition_point(|s| s.0 < t) {
            0 => 0,
            i => {
                let (start, end, before) = self.spans[i - 1];
                before + (end.min(t) - start)
            }
        }
    }
}

/// The concrete, deterministic schedule an engine run consumes; see the
/// module docs for how determinism is obtained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Sorted by `(start, end)`: the order `OutageStart` events are
    /// scheduled (and numbered) in.
    windows: Vec<OutageWindow>,
    /// The union of `windows` per tape tier, `[silo, manual]`.
    cover: [OutageCover; 2],
    /// Sorted and pairwise disjoint (one renewal process emits them).
    slow: Vec<(SimMs, SimMs)>,
    slow_factor: f64,
    read_error_prob: f64,
    max_read_retries: u32,
    retry_backoff_ms: SimMs,
    seed: u64,
    active: bool,
}

/// splitmix64 finalizer: derives well-spread child seeds from weak
/// inputs (a seed ⊕ small counters). This is the one seed-mixer of the
/// workspace — the sweep engine derives every per-coordinate stream
/// through it too, so the healthy cells' streams and the fault
/// schedule's streams come from the same, single definition.
pub fn seed_mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

use seed_mix as mix;

impl FaultSchedule {
    /// The inert schedule: injects nothing, decides nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Materializes `plan` over `[start_ms, end_ms)` from `seed`.
    ///
    /// Outage and slow-drive windows are sampled from an RNG stream
    /// derived from `seed` alone (never shared with the engine), so one
    /// `(plan, seed, span)` triple always yields one schedule. An empty
    /// plan returns the inert schedule regardless of seed.
    pub fn materialize(plan: &FaultPlan, seed: u64, start_ms: SimMs, end_ms: SimMs) -> Self {
        if plan.is_none() {
            return Self::none();
        }
        let mut windows = Vec::new();
        for (ci, clause) in plan.outages.iter().enumerate() {
            // One independent stream per clause: reordering or removing
            // a clause never reshuffles the others' windows.
            let mut rng = SmallRng::seed_from_u64(mix(seed, 0x4F55_5441 + ci as u64)); // "OUTA"
            let mut t = start_ms;
            if clause.mean_up_s <= 0.0 || clause.down_s <= 0.0 {
                continue;
            }
            loop {
                let up_s = -clause.mean_up_s * (1.0f64 - rng.gen_range(0.0..1.0)).ln();
                t += (up_s * MS as f64) as SimMs;
                if t >= end_ms {
                    break;
                }
                let jitter = if clause.jitter > 0.0 {
                    1.0 + rng.gen_range(-clause.jitter..clause.jitter)
                } else {
                    1.0
                };
                let down_ms = ((clause.down_s * jitter) * MS as f64).max(1.0) as SimMs;
                windows.push(OutageWindow {
                    target: clause.target,
                    start_ms: t,
                    end_ms: (t + down_ms).min(end_ms),
                });
                t += down_ms;
            }
        }
        let mut slow = Vec::new();
        let mut slow_factor = 1.0;
        if let Some(clause) = plan.slow_drive {
            slow_factor = clause.rate_factor.clamp(1e-3, 1.0);
            if clause.mean_up_s > 0.0 && clause.down_s > 0.0 {
                let mut rng = SmallRng::seed_from_u64(mix(seed, 0x534C_4F57)); // "SLOW"
                let mut t = start_ms;
                loop {
                    let up_s = -clause.mean_up_s * (1.0f64 - rng.gen_range(0.0..1.0)).ln();
                    t += (up_s * MS as f64) as SimMs;
                    if t >= end_ms {
                        break;
                    }
                    let down_ms = (clause.down_s * MS as f64).max(1.0) as SimMs;
                    slow.push((t, (t + down_ms).min(end_ms)));
                    t += down_ms;
                }
            }
        }

        FaultSchedule {
            slow,
            slow_factor,
            read_error_prob: plan.read_error_prob.clamp(0.0, 1.0),
            max_read_retries: plan.max_read_retries,
            retry_backoff_ms: (plan.retry_backoff_s.max(0.0) * MS as f64) as SimMs,
            seed,
            ..Self::with_windows(windows)
        }
    }

    /// The one way outage windows enter a schedule: sorts them into
    /// event order and derives the per-tier union index
    /// [`Self::outage_overlap_ms`] reads. Everything else is inert.
    pub(crate) fn with_windows(mut windows: Vec<OutageWindow>) -> Self {
        windows.sort_by_key(|w| (w.start_ms, w.end_ms));
        let cover = [Tier::Silo, Tier::Manual].map(|tier| {
            OutageCover::of(
                windows
                    .iter()
                    .filter(|w| w.target.tape_tier() == tier)
                    .map(|w| (w.start_ms, w.end_ms)),
            )
        });
        FaultSchedule {
            windows,
            cover,
            active: true,
            ..Self::default()
        }
    }

    /// True when this schedule can inject at least one fault class.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The materialized outage windows, sorted by start time.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// Backoff before a failed recall re-queues, milliseconds.
    pub fn retry_backoff_ms(&self) -> SimMs {
        self.retry_backoff_ms
    }

    /// Decides whether attempt `attempt` (0-based) of recall
    /// `recall_seq` fails with a media read error.
    ///
    /// Counter-based: the decision is a pure function of
    /// `(seed, recall_seq, attempt)`, so it cannot shift when unrelated
    /// events reorder. Attempts past `max_read_retries` always succeed,
    /// bounding every recall's retry chain.
    pub fn read_fails(&self, recall_seq: u64, attempt: u32) -> bool {
        if self.read_error_prob <= 0.0 || attempt >= self.max_read_retries {
            return false;
        }
        let h = mix(mix(self.seed, 0x5245_4144 ^ recall_seq), u64::from(attempt)); // "READ"
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.read_error_prob
    }

    /// The tape transfer-rate multiplier in effect at `t_ms` for
    /// `device`; disks never degrade and a healthy instant is exactly
    /// `1.0`.
    pub fn rate_factor_at(&self, device: DeviceClass, t_ms: SimMs) -> f64 {
        if device == DeviceClass::Disk {
            return 1.0;
        }
        // Slow windows are sorted and disjoint, so the only candidate
        // is the first one still open after `t_ms`.
        let i = self.slow.partition_point(|&(_, end)| end <= t_ms);
        match self.slow.get(i) {
            Some(&(start, _)) if start <= t_ms => self.slow_factor,
            _ => 1.0,
        }
    }

    /// Milliseconds of `[from_ms, to_ms)` overlapping the **union** of
    /// outage windows of resources whose tier is `tier` — the
    /// outage-attributed share of a queue wait. Union, not sum:
    /// concurrent windows of one tier (two failed drives, a drive down
    /// during a robot repair) must not attribute the same waiting
    /// millisecond twice, or the attributed wait could exceed the wait
    /// itself.
    pub fn outage_overlap_ms(&self, tier: DeviceClass, from_ms: SimMs, to_ms: SimMs) -> SimMs {
        let Some(tier) = Tier::of(tier) else {
            return 0;
        };
        if to_ms <= from_ms {
            return 0;
        }
        let cover = &self.cover[tier.slot()];
        cover.covered_before(to_ms) - cover.covered_before(from_ms)
    }
}

/// The pre-index linear scans, kept as the oracles the indexed lookups
/// are property-tested against.
#[cfg(test)]
impl FaultSchedule {
    fn rate_factor_at_scan(&self, device: DeviceClass, t_ms: SimMs) -> f64 {
        if device == DeviceClass::Disk {
            return 1.0;
        }
        for &(s, e) in &self.slow {
            if t_ms >= s && t_ms < e {
                return self.slow_factor;
            }
        }
        1.0
    }

    fn outage_overlap_ms_scan(&self, tier: DeviceClass, from_ms: SimMs, to_ms: SimMs) -> SimMs {
        // Windows are sorted by start, so a cursor past each counted
        // interval's end computes the union in one pass.
        let mut overlap = 0;
        let mut cursor = from_ms;
        for w in &self.windows {
            if w.start_ms >= to_ms {
                break;
            }
            if w.target.tier() != tier {
                continue;
            }
            let lo = w.start_ms.max(cursor);
            let hi = w.end_ms.min(to_ms);
            if hi > lo {
                overlap += hi - lo;
                cursor = hi;
            }
        }
        overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(target: FaultTarget, mean_up_s: f64, down_s: f64) -> OutageClause {
        OutageClause {
            target,
            mean_up_s,
            down_s,
            jitter: 0.2,
        }
    }

    fn flaky_plan() -> FaultPlan {
        FaultPlan {
            outages: vec![
                outage(FaultTarget::SiloDrive, 4_000.0, 900.0),
                outage(FaultTarget::Operator, 9_000.0, 3_600.0),
            ],
            read_error_prob: 0.1,
            max_read_retries: 3,
            retry_backoff_s: 45.0,
            slow_drive: Some(SlowDriveClause {
                rate_factor: 0.4,
                mean_up_s: 5_000.0,
                down_s: 1_500.0,
            }),
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        let s = FaultSchedule::materialize(&FaultPlan::none(), 99, 0, 1_000_000_000);
        assert!(!s.is_active());
        assert!(s.windows().is_empty());
        assert!(!s.read_fails(0, 0));
        assert_eq!(s.rate_factor_at(DeviceClass::TapeSilo, 500), 1.0);
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 0, 1000), 0);
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let plan = flaky_plan();
        let a = FaultSchedule::materialize(&plan, 7, 0, 500_000_000);
        let b = FaultSchedule::materialize(&plan, 7, 0, 500_000_000);
        assert_eq!(a, b, "equal seeds must materialize identically");
        assert!(!a.windows().is_empty(), "a week of sim time has outages");
        let c = FaultSchedule::materialize(&plan, 8, 0, 500_000_000);
        assert_ne!(a.windows(), c.windows(), "seeds must decorrelate");
    }

    #[test]
    fn windows_are_sorted_disjoint_per_clause_and_bounded() {
        let plan = flaky_plan();
        let s = FaultSchedule::materialize(&plan, 42, 1_000, 200_000_000);
        for w in s.windows() {
            assert!(w.start_ms >= 1_000);
            assert!(w.end_ms <= 200_000_000);
            assert!(w.start_ms < w.end_ms);
        }
        for pair in s.windows().windows(2) {
            assert!(pair[0].start_ms <= pair[1].start_ms, "sorted by start");
        }
    }

    #[test]
    fn read_failures_are_counter_based_and_bounded() {
        let plan = FaultPlan {
            read_error_prob: 0.5,
            max_read_retries: 2,
            ..FaultPlan::none()
        };
        let s = FaultSchedule::materialize(&plan, 3, 0, 1_000);
        // Pure function of (recall, attempt): re-asking never flips.
        for recall in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(s.read_fails(recall, attempt), s.read_fails(recall, attempt));
            }
            // Bounded retry: the attempt after the budget always works.
            assert!(!s.read_fails(recall, 2));
            assert!(!s.read_fails(recall, 3));
        }
        // The rate is roughly honoured across recalls.
        let failures = (0..2_000u64).filter(|&r| s.read_fails(r, 0)).count();
        assert!(
            (800..1200).contains(&failures),
            "~50% expected, got {failures}/2000"
        );
    }

    #[test]
    fn slow_windows_gate_the_rate_factor() {
        let plan = FaultPlan {
            slow_drive: Some(SlowDriveClause {
                rate_factor: 0.25,
                mean_up_s: 100.0,
                down_s: 50.0,
            }),
            ..FaultPlan::none()
        };
        let s = FaultSchedule::materialize(&plan, 11, 0, 10_000_000);
        let degraded: Vec<SimMs> = (0..10_000_000)
            .step_by(10_000)
            .filter(|&t| s.rate_factor_at(DeviceClass::TapeSilo, t) < 1.0)
            .collect();
        assert!(!degraded.is_empty(), "windows must bite");
        for &t in &degraded {
            assert_eq!(s.rate_factor_at(DeviceClass::TapeSilo, t), 0.25);
            // Disks never degrade.
            assert_eq!(s.rate_factor_at(DeviceClass::Disk, t), 1.0);
        }
        // Roughly a third of the time is degraded (50 of every ~150 s).
        let share = degraded.len() as f64 / 1_000.0;
        assert!((0.15..0.55).contains(&share), "degraded share {share}");
    }

    pub(super) fn window(target: FaultTarget, start_ms: SimMs, end_ms: SimMs) -> OutageWindow {
        OutageWindow {
            target,
            start_ms,
            end_ms,
        }
    }

    #[test]
    fn outage_overlap_attributes_by_tier() {
        // Handed over out of order: the constructor sorts.
        let s = FaultSchedule::with_windows(vec![
            window(FaultTarget::Operator, 150, 400),
            window(FaultTarget::SiloDrive, 100, 200),
        ]);
        assert_eq!(s.windows()[0].target, FaultTarget::SiloDrive);
        // Silo wait overlapping [50, 250): only the silo window counts.
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 50, 250), 100);
        // Manual wait overlapping the same span: the operator window.
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeManual, 50, 250), 100);
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeManual, 0, 1000), 250);
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 200, 1000), 0);
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 300, 100), 0);
    }

    #[test]
    fn overlapping_same_tier_windows_attribute_as_a_union() {
        // Two silo-tier windows (a drive and the robot arm) overlap on
        // [150, 200): a wait spanning both must count each millisecond
        // once, never twice.
        let s = FaultSchedule::with_windows(vec![
            window(FaultTarget::SiloDrive, 100, 200),
            window(FaultTarget::RobotArm, 150, 300),
        ]);
        // Union over [0, 1000) is [100, 300) = 200 ms, not 250.
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 0, 1000), 200);
        // A wait inside the doubly-covered region counts once.
        assert_eq!(s.outage_overlap_ms(DeviceClass::TapeSilo, 150, 200), 50);
        // A window fully inside an already-counted one adds nothing.
        let nested = FaultSchedule::with_windows(vec![
            window(FaultTarget::SiloDrive, 100, 400),
            window(FaultTarget::SiloDrive, 150, 250),
        ]);
        assert_eq!(
            nested.outage_overlap_ms(DeviceClass::TapeSilo, 0, 1000),
            300
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::window;
    use super::*;
    use proptest::prelude::*;

    const TARGETS: [FaultTarget; 4] = [
        FaultTarget::SiloDrive,
        FaultTarget::RobotArm,
        FaultTarget::ManualDrive,
        FaultTarget::Operator,
    ];
    const DEVICES: [DeviceClass; 3] = [
        DeviceClass::Disk,
        DeviceClass::TapeSilo,
        DeviceClass::TapeManual,
    ];

    /// Instants worth probing: every window edge and its neighbours
    /// (abutting and nested windows meet there), plus the span's ends.
    fn edges(s: &FaultSchedule, start_ms: SimMs, end_ms: SimMs) -> Vec<SimMs> {
        let mut at = vec![start_ms - 1, start_ms, end_ms, end_ms + 1];
        let windows = s.windows.iter().map(|w| (w.start_ms, w.end_ms));
        for (a, b) in windows.chain(s.slow.iter().copied()) {
            at.extend([a - 1, a, a + 1, b - 1, b, b + 1]);
        }
        at
    }

    proptest! {
        /// The indexed lookups equal the linear scans exactly, for
        /// materialized plans (SiloDrive and RobotArm share the silo
        /// tier, so same-tier windows nest and overlap) …
        #[test]
        fn indexed_lookups_equal_the_linear_scans(
            seed in any::<u64>(),
            clauses in proptest::collection::vec((0usize..4, 20.0f64..400.0, 1.0f64..300.0, 0.0f64..0.9), 0..5),
            slow in (0.05f64..1.0, 20.0f64..400.0, 1.0f64..200.0),
            start_ms in -50_000i64..50_000,
            len_ms in 0i64..3_000_000,
            probes in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..40),
        ) {
            let plan = FaultPlan {
                outages: clauses
                    .iter()
                    .map(|&(t, mean_up_s, down_s, jitter)| OutageClause {
                        target: TARGETS[t],
                        mean_up_s,
                        down_s,
                        jitter,
                    })
                    // Two clauses that always share a tier.
                    .chain([
                        OutageClause { target: FaultTarget::SiloDrive, mean_up_s: 90.0, down_s: 120.0, jitter: 0.5 },
                        OutageClause { target: FaultTarget::RobotArm, mean_up_s: 60.0, down_s: 200.0, jitter: 0.0 },
                    ])
                    .collect(),
                slow_drive: Some(SlowDriveClause { rate_factor: slow.0, mean_up_s: slow.1, down_s: slow.2 }),
                ..FaultPlan::none()
            };
            let end_ms = start_ms + len_ms;
            let s = FaultSchedule::materialize(&plan, seed, start_ms, end_ms);
            let mut at = edges(&s, start_ms, end_ms);
            // Random instants inside and up to a quarter span beyond.
            let reach = len_ms + len_ms / 2 + 2;
            at.extend(probes.iter().flat_map(|&(a, b)| {
                [a, b].map(|r| start_ms - len_ms / 4 - 1 + (r % reach as u64) as SimMs)
            }));
            for device in DEVICES {
                for &t in &at {
                    prop_assert_eq!(
                        s.rate_factor_at(device, t).to_bits(),
                        s.rate_factor_at_scan(device, t).to_bits()
                    );
                }
                // Neighbouring probes as a span, both ways round and empty.
                for pair in at.windows(2) {
                    for (from, to) in [(pair[0], pair[1]), (pair[1], pair[0]), (pair[0], pair[0])] {
                        prop_assert_eq!(
                            s.outage_overlap_ms(device, from, to),
                            s.outage_overlap_ms_scan(device, from, to)
                        );
                    }
                }
            }
        }

        /// … and for hand-placed windows no renewal process would emit:
        /// unsorted, nested, abutting, empty.
        #[test]
        fn arbitrary_window_sets_equal_the_linear_scan(
            raw in proptest::collection::vec((0usize..4, 0i64..400, 0i64..120), 0..24),
            spans in proptest::collection::vec((-20i64..560, -20i64..560), 1..60),
        ) {
            let s = FaultSchedule::with_windows(
                raw.iter()
                    // Starts snap to a coarse grid so windows abut.
                    .map(|&(t, start, len)| window(TARGETS[t], start / 20 * 20, start / 20 * 20 + len / 20 * 20 + len % 3))
                    .collect(),
            );
            for device in DEVICES {
                for &(from, to) in &spans {
                    prop_assert_eq!(
                        s.outage_overlap_ms(device, from, to),
                        s.outage_overlap_ms_scan(device, from, to)
                    );
                }
            }
        }
    }
}
