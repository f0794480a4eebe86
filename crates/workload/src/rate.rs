//! Time-varying arrival-rate model (the periodicity of Figures 4–6).
//!
//! The paper's central systems observation is that **reads are
//! human-driven and periodic while writes are machine-driven and flat**:
//!
//! * Figure 4 — reads jump at 8 AM when scientists arrive and tail off
//!   slowly after 4 PM ("most scientists are more likely to stay late
//!   than to arrive early"); writes barely move over the day.
//! * Figure 5 — reads dip on weekends and bottom out early Monday
//!   morning (maintenance + drained batch queues); writes are flat.
//! * Figure 6 — reads grow roughly 2× across the two years and dip at
//!   Thanksgiving/Christmas; writes stay level because the Cray already
//!   runs at full capacity.
//!
//! [`RateModel`] turns those shapes into a dimensionless weight
//! `w(t) ∈ (0, 1]` used to thin nominal event times into calendar-aware
//! ones (see [`RateModel::modulate`]).

use fmig_trace::time::{
    Holiday, Timestamp, Weekday, DAY, HOUR, TRACE_END, TRACE_EPOCH, TRACE_SECONDS,
};
use rand::Rng;

use crate::dist::{Exp, Sample};

/// Relative read intensity for each hour of the day (Figure 4 shape).
///
/// Values are unitless multipliers, maximum 1.0 at the mid-morning peak;
/// the overnight floor is machine-initiated reads from batch jobs.
pub const READ_DIURNAL: [f64; 24] = [
    0.22, 0.18, 0.16, 0.15, 0.15, 0.16, 0.20, 0.35, // 00-07: night floor, early risers
    0.78, 1.00, 1.00, 0.97, 0.90, 0.95, 1.00, 0.98, // 08-15: the 8 AM jump and working day
    0.90, 0.75, 0.60, 0.50, 0.42, 0.36, 0.30, 0.25, // 16-23: slow evening tail-off
];

/// Relative write intensity per hour: nearly flat with a small daytime
/// bump ("users do actually make some write requests", §5.2).
pub const WRITE_DIURNAL: [f64; 24] = [
    0.88, 0.87, 0.86, 0.86, 0.86, 0.86, 0.88, 0.90, //
    0.94, 1.00, 1.00, 0.98, 0.96, 0.97, 1.00, 0.98, //
    0.96, 0.94, 0.92, 0.91, 0.90, 0.89, 0.89, 0.88, //
];

/// Relative read intensity per weekday, Sunday first (Figure 5 shape).
///
/// Monday carries a small extra dip: the Cray is taken down for Monday
/// morning maintenance and the weekend batch queues have drained.
pub const READ_WEEKLY: [f64; 7] = [0.45, 0.82, 1.00, 1.00, 0.98, 0.95, 0.50];

/// Relative write intensity per weekday: the Cray runs batch all weekend.
pub const WRITE_WEEKLY: [f64; 7] = [0.95, 0.93, 1.00, 1.00, 0.99, 0.98, 0.96];

/// Extra Monday-early-morning read suppression (before 6 AM).
const MONDAY_MORNING_FACTOR: f64 = 0.55;

/// Days on either side of the trace window that [`RateModel`]'s holiday
/// table covers: thinning and pacing can carry a candidate a few days
/// past either end. Days outside it fall back to the calendar.
const HOLIDAY_MARGIN_DAYS: i64 = 64;

/// First day (since the Unix epoch) of the holiday table.
const HOLIDAY_FIRST_DAY: i64 = TRACE_EPOCH.as_unix() / DAY - HOLIDAY_MARGIN_DAYS;

/// Which direction's periodicity profile to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateKind {
    /// Human-driven, strongly periodic, grows over the trace.
    Read,
    /// Machine-driven, flat, capacity-limited.
    Write,
}

/// The composed rate model for one direction.
#[derive(Debug, Clone)]
pub struct RateModel {
    kind: RateKind,
    /// Total growth multiplier applied linearly across the trace window
    /// (reads ~2.0, writes 1.0).
    growth: f64,
    /// Read-rate holiday factor per day from [`HOLIDAY_FIRST_DAY`], 1.0
    /// on ordinary days; empty for writes, which ignore holidays.
    holiday_factors: Vec<f64>,
}

impl RateModel {
    /// Read-side model with the given end-of-trace growth factor.
    pub fn read(growth: f64) -> Self {
        let last_day = TRACE_END.as_unix() / DAY + HOLIDAY_MARGIN_DAYS;
        RateModel {
            kind: RateKind::Read,
            growth: growth.max(1.0),
            holiday_factors: (HOLIDAY_FIRST_DAY..last_day)
                .map(|day| calendar_holiday_factor(Timestamp::from_unix(day * DAY)))
                .collect(),
        }
    }

    /// Write-side model (no growth, no holiday response).
    pub fn write() -> Self {
        RateModel {
            kind: RateKind::Write,
            growth: 1.0,
            holiday_factors: Vec::new(),
        }
    }

    /// The read-rate factor of the holiday `t` falls on, 1.0 if none.
    fn holiday_factor(&self, t: Timestamp) -> f64 {
        usize::try_from(t.as_unix().div_euclid(DAY) - HOLIDAY_FIRST_DAY)
            .ok()
            .and_then(|day| self.holiday_factors.get(day).copied())
            .unwrap_or_else(|| calendar_holiday_factor(t))
    }

    /// The dimensionless intensity weight at instant `t`, in `(0, 1]`
    /// relative to [`RateModel::max_weight`].
    pub fn weight(&self, t: Timestamp) -> f64 {
        let hour = t.hour_of_day() as usize;
        let dow = t.weekday();
        let mut w = match self.kind {
            RateKind::Read => READ_DIURNAL[hour] * READ_WEEKLY[dow.index() as usize],
            RateKind::Write => WRITE_DIURNAL[hour] * WRITE_WEEKLY[dow.index() as usize],
        };
        if self.kind == RateKind::Read {
            if dow == Weekday::Monday && hour < 6 {
                w *= MONDAY_MORNING_FACTOR;
            }
            // On an ordinary day this multiplies by exactly 1.0.
            w *= self.holiday_factor(t);
            w *= self.growth_factor(t);
        }
        w
    }

    /// Linear growth multiplier at `t`: 1.0 at the epoch, `growth` at the
    /// end of the trace, clamped outside the window.
    pub fn growth_factor(&self, t: Timestamp) -> f64 {
        if self.growth <= 1.0 {
            return 1.0;
        }
        let frac = (t.since_epoch() as f64 / TRACE_SECONDS as f64).clamp(0.0, 1.0);
        1.0 + (self.growth - 1.0) * frac
    }

    /// Upper bound on [`RateModel::weight`] over the trace window.
    pub fn max_weight(&self) -> f64 {
        self.growth.max(1.0)
    }

    /// Thins a nominal next-event time into one that respects the
    /// calendar, by the standard rejection step of non-homogeneous
    /// process simulation.
    ///
    /// Starting from `t`, a candidate `t + gap` is accepted with
    /// probability `weight/max_weight`; rejected candidates are pushed
    /// forward by small exponential increments, which is exactly how a
    /// scientist who "would have" looked at results overnight ends up
    /// issuing the read the next morning.
    pub fn modulate<R: Rng + ?Sized>(&self, rng: &mut R, t: Timestamp, gap_s: f64) -> Timestamp {
        let retry = Exp::new(0.75 * HOUR as f64);
        let mut candidate = t.add_secs(gap_s.max(0.0) as i64);
        let max_w = self.max_weight();
        // Bounded retries keep pathological configurations from spinning;
        // the expected total advance covers several days of rejection.
        for _ in 0..192 {
            let accept = self.weight(candidate) / max_w;
            if rng.gen::<f64>() < accept {
                break;
            }
            candidate = candidate.add_secs(retry.sample(rng).max(60.0) as i64);
        }
        candidate
    }

    /// Paces an in-progress session: unlike [`RateModel::modulate`],
    /// which thins *arrivals* (and therefore penalises the low-growth
    /// early trace), this uses the weight relative to the current growth
    /// level. A request issued overnight or on a quiet weekend is pushed
    /// toward the next active period; daytime weekday requests pass
    /// through untouched. This is what suspends a multi-day restage
    /// session over the weekend.
    pub fn pace<R: Rng + ?Sized>(&self, rng: &mut R, t: Timestamp) -> Timestamp {
        let retry = Exp::new(0.5 * HOUR as f64);
        let mut candidate = t;
        for _ in 0..144 {
            let relative = self.weight(candidate) / self.growth_factor(candidate);
            if rng.gen::<f64>() < relative / 0.9 {
                break;
            }
            candidate = candidate.add_secs(retry.sample(rng).max(60.0) as i64);
        }
        candidate
    }
}

/// The read-rate factor of the holiday `t` falls on, from the calendar.
fn calendar_holiday_factor(t: Timestamp) -> f64 {
    t.holiday().map_or(1.0, Holiday::read_rate_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::{CivilDate, TRACE_DAYS};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 1990-10-02 (Tuesday) at the given hour.
    fn tuesday(hour: i64) -> Timestamp {
        TRACE_EPOCH.add_secs(DAY + hour * HOUR)
    }

    #[test]
    fn reads_peak_in_working_hours() {
        let m = RateModel::read(1.0);
        let morning = m.weight(tuesday(10));
        let night = m.weight(tuesday(3));
        assert!(
            morning > 4.0 * night,
            "working-hours weight {morning} vs night {night}"
        );
    }

    #[test]
    fn writes_are_nearly_flat() {
        let m = RateModel::write();
        let lo = (0..24)
            .map(|h| m.weight(tuesday(h)))
            .fold(f64::MAX, f64::min);
        let hi = (0..24).map(|h| m.weight(tuesday(h))).fold(0.0, f64::max);
        assert!(hi / lo < 1.3, "write diurnal swing {}", hi / lo);
    }

    #[test]
    fn weekend_read_dip() {
        let m = RateModel::read(1.0);
        // 1990-10-06 is a Saturday, 10-07 Sunday.
        let sat = m.weight(TRACE_EPOCH.add_secs(5 * DAY + 10 * HOUR));
        let tue = m.weight(tuesday(10));
        assert!(sat < 0.6 * tue, "saturday {sat} vs tuesday {tue}");
    }

    #[test]
    fn monday_morning_is_the_weekly_minimum_of_workdays() {
        let m = RateModel::read(1.0);
        // Monday 1990-10-08 at 4 AM vs Tuesday at 4 AM.
        let mon = m.weight(TRACE_EPOCH.add_secs(7 * DAY + 4 * HOUR));
        let tue = m.weight(TRACE_EPOCH.add_secs(8 * DAY + 4 * HOUR));
        assert!(mon < tue, "monday {mon} vs tuesday {tue}");
    }

    #[test]
    fn holidays_suppress_reads_not_writes() {
        // Christmas day 1991 at 11 AM (a Wednesday).
        let xmas = Timestamp::from_civil(CivilDate::new(1991, 12, 25), 11, 0, 0);
        let week_before = Timestamp::from_civil(CivilDate::new(1991, 12, 11), 11, 0, 0);
        let r = RateModel::read(1.0);
        assert!(r.weight(xmas) < 0.5 * r.weight(week_before));
        let w = RateModel::write();
        assert!((w.weight(xmas) - w.weight(week_before)).abs() < 1e-12);
    }

    #[test]
    fn the_holiday_table_agrees_with_the_calendar() {
        let m = RateModel::read(2.0);
        // Every hour from well before the table to well after it.
        let first = Timestamp::from_unix((HOLIDAY_FIRST_DAY - 3) * DAY);
        let hours = (TRACE_DAYS + 2 * HOLIDAY_MARGIN_DAYS + 6) * 24;
        for h in 0..hours {
            let t = first.add_secs(h * HOUR + 1234);
            let mut w =
                READ_DIURNAL[t.hour_of_day() as usize] * READ_WEEKLY[t.weekday().index() as usize];
            if t.weekday() == Weekday::Monday && t.hour_of_day() < 6 {
                w *= MONDAY_MORNING_FACTOR;
            }
            if let Some(holiday) = t.holiday() {
                w *= holiday.read_rate_factor();
            }
            w *= m.growth_factor(t);
            assert_eq!(m.weight(t).to_bits(), w.to_bits(), "at {t}");
        }
    }

    #[test]
    fn growth_doubles_read_weight_across_trace() {
        let m = RateModel::read(2.0);
        let early = m.weight(tuesday(10));
        // Same Tuesday slot, ~104 weeks later (1992-09-29).
        let late = m.weight(tuesday(10).add_secs(728 * DAY));
        let ratio = late / early;
        assert!((ratio - 2.0).abs() < 0.1, "growth ratio {ratio}");
        assert_eq!(m.max_weight(), 2.0);
    }

    #[test]
    fn modulate_moves_events_toward_active_periods() {
        let m = RateModel::read(1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 4000;
        let mut weight_before = 0.0;
        let mut weight_after = 0.0;
        for i in 0..n {
            // Nominal events scattered across a fortnight at 3 AM-ish.
            let t0 = TRACE_EPOCH.add_secs((i % 14) * DAY + 3 * HOUR);
            let t = m.modulate(&mut rng, t0, 60.0);
            assert!(t >= t0, "time went backwards");
            weight_before += m.weight(t0.add_secs(60));
            weight_after += m.weight(t);
        }
        // Thinning must land events in times of substantially higher
        // intensity than their 3 AM nominal slots.
        let lift = weight_after / weight_before;
        assert!(lift > 1.6, "modulation weight lift only {lift}");
        // And a working-hours slot must pass through essentially
        // untouched most of the time.
        let mut moved = 0;
        for _ in 0..1000 {
            let t0 = TRACE_EPOCH.add_secs(DAY + 10 * HOUR); // Tuesday 10:00
            let t = m.modulate(&mut rng, t0, 30.0);
            if t.seconds_since(t0) > HOUR {
                moved += 1;
            }
        }
        assert!(moved < 300, "daytime events displaced too often: {moved}");
    }
}
