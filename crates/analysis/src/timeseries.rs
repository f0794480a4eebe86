//! Calendar-binned transfer-rate series (Figures 4, 5, and 6).
//!
//! * [`HourlyProfile`] — average GB transferred per hour of the day,
//!   split into reads and writes (Figure 4);
//! * [`WeeklyProfile`] — the same by day of week, Sunday first (Figure 5);
//! * [`WeekSeries`] — average data rate for each week of the trace,
//!   showing read growth and holiday dips (Figure 6).

use fmig_trace::time::Timestamp;
use fmig_trace::{Direction, Request};
use serde::{Deserialize, Serialize};

/// Bytes and request counts accumulated into hour-of-day bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlyProfile {
    /// Bytes per hour bin, `[read, write]` major.
    bytes: [[u64; 24]; 2],
    /// Requests per hour bin.
    requests: [[u64; 24]; 2],
    /// Distinct days observed, to turn sums into per-day averages.
    first_day: Option<i64>,
    last_day: i64,
}

impl HourlyProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        HourlyProfile {
            bytes: [[0; 24]; 2],
            requests: [[0; 24]; 2],
            first_day: None,
            last_day: 0,
        }
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &impl Request) {
        let hour = rec.start().hour_of_day() as usize;
        let dir = dir_index(rec.direction());
        self.bytes[dir][hour] += rec.file_size();
        self.requests[dir][hour] += 1;
        let day = rec.start().trace_day();
        if self.first_day.is_none() {
            self.first_day = Some(day);
        }
        self.last_day = self.last_day.max(day);
    }

    /// Days spanned by the observations (at least 1 once non-empty).
    pub fn days_observed(&self) -> i64 {
        match self.first_day {
            None => 0,
            Some(first) => (self.last_day - first + 1).max(1),
        }
    }

    /// Average GB transferred during the given hour of a day (Figure 4's
    /// y-axis), for one direction.
    pub fn gb_per_hour(&self, dir: Direction, hour: u8) -> f64 {
        let days = self.days_observed();
        if days == 0 {
            return 0.0;
        }
        self.bytes[dir_index(dir)][hour as usize] as f64 / 1e9 / days as f64
    }

    /// Average total (read + write) GB during the given hour.
    pub fn total_gb_per_hour(&self, hour: u8) -> f64 {
        self.gb_per_hour(Direction::Read, hour) + self.gb_per_hour(Direction::Write, hour)
    }

    /// Requests observed in an hour bin for one direction.
    pub fn requests_at(&self, dir: Direction, hour: u8) -> u64 {
        self.requests[dir_index(dir)][hour as usize]
    }

    /// The full 24-point series for one direction.
    pub fn series(&self, dir: Direction) -> [f64; 24] {
        core::array::from_fn(|h| self.gb_per_hour(dir, h as u8))
    }

    /// Ratio of the busiest working hour (8–17) to the quietest small
    /// hour (0–6) for a direction — the paper's headline contrast.
    pub fn peak_to_trough(&self, dir: Direction) -> f64 {
        let s = self.series(dir);
        let peak = s[8..17].iter().copied().fold(0.0, f64::max);
        let trough = s[0..6].iter().copied().fold(f64::MAX, f64::min);
        if trough <= 0.0 {
            f64::INFINITY
        } else {
            peak / trough
        }
    }
}

impl Default for HourlyProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes accumulated into day-of-week bins (Sunday = 0, as in Figure 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklyProfile {
    bytes: [[u64; 7]; 2],
    requests: [[u64; 7]; 2],
    first_day: Option<i64>,
    last_day: i64,
}

impl WeeklyProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        WeeklyProfile {
            bytes: [[0; 7]; 2],
            requests: [[0; 7]; 2],
            first_day: None,
            last_day: 0,
        }
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &impl Request) {
        let dow = rec.start().weekday().index() as usize;
        let dir = dir_index(rec.direction());
        self.bytes[dir][dow] += rec.file_size();
        self.requests[dir][dow] += 1;
        let day = rec.start().trace_day();
        if self.first_day.is_none() {
            self.first_day = Some(day);
        }
        self.last_day = self.last_day.max(day);
    }

    /// Average GB per hour on the given weekday for one direction
    /// (Figure 5's y-axis).
    pub fn gb_per_hour(&self, dir: Direction, weekday: u8) -> f64 {
        let days = match self.first_day {
            None => return 0.0,
            Some(first) => (self.last_day - first + 1).max(1),
        };
        // Roughly days/7 instances of each weekday were observed.
        let instances = (days as f64 / 7.0).max(1.0);
        self.bytes[dir_index(dir)][weekday as usize] as f64 / 1e9 / instances / 24.0
    }

    /// The 7-point series for one direction, Sunday first.
    pub fn series(&self, dir: Direction) -> [f64; 7] {
        core::array::from_fn(|d| self.gb_per_hour(dir, d as u8))
    }

    /// Mean weekend rate over mean weekday rate for a direction.
    pub fn weekend_to_weekday(&self, dir: Direction) -> f64 {
        let s = self.series(dir);
        let weekend = (s[0] + s[6]) / 2.0;
        let weekday = s[1..6].iter().sum::<f64>() / 5.0;
        if weekday <= 0.0 {
            0.0
        } else {
            weekend / weekday
        }
    }
}

impl Default for WeeklyProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-week average data rates across the whole trace (Figure 6).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WeekSeries {
    /// Bytes per trace week, `[read, write]` major; index = week number.
    bytes: [Vec<u64>; 2],
}

impl WeekSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &impl Request) {
        let week = rec.start().trace_week();
        if week < 0 {
            return;
        }
        let dir = dir_index(rec.direction());
        let v = &mut self.bytes[dir];
        if v.len() <= week as usize {
            v.resize(week as usize + 1, 0);
        }
        v[week as usize] += rec.file_size();
    }

    /// Number of weeks with any observation.
    pub fn weeks(&self) -> usize {
        self.bytes[0].len().max(self.bytes[1].len())
    }

    /// Average GB/hour during the given week for one direction.
    pub fn gb_per_hour(&self, dir: Direction, week: usize) -> f64 {
        let v = &self.bytes[dir_index(dir)];
        let bytes = v.get(week).copied().unwrap_or(0);
        bytes as f64 / 1e9 / (7.0 * 24.0)
    }

    /// Whole-series slope proxy: mean rate of the last quarter over the
    /// first quarter (Figure 6 shows reads roughly doubling).
    pub fn growth_ratio(&self, dir: Direction) -> f64 {
        let n = self.weeks();
        if n < 8 {
            return 1.0;
        }
        let q = n / 4;
        let early: f64 = (0..q).map(|w| self.gb_per_hour(dir, w)).sum::<f64>() / q as f64;
        let late: f64 = (n - q..n).map(|w| self.gb_per_hour(dir, w)).sum::<f64>() / q as f64;
        if early <= 0.0 {
            1.0
        } else {
            late / early
        }
    }

    /// Rate in the week containing the given instant over the mean of its
    /// four neighbouring weeks — below 1.0 marks a dip (holidays).
    pub fn dip_ratio(&self, dir: Direction, at: Timestamp) -> f64 {
        let week = at.trace_week().max(0) as usize;
        let mut neighbours = Vec::new();
        for w in week.saturating_sub(2)..=week + 2 {
            if w != week && w < self.weeks() {
                neighbours.push(self.gb_per_hour(dir, w));
            }
        }
        if neighbours.is_empty() {
            return 1.0;
        }
        let base: f64 = neighbours.iter().sum::<f64>() / neighbours.len() as f64;
        if base <= 0.0 {
            1.0
        } else {
            self.gb_per_hour(dir, week) / base
        }
    }
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::Read => 0,
        Direction::Write => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::{DAY, HOUR, TRACE_EPOCH};
    use fmig_trace::{Endpoint, TraceRecord};

    fn read_gb(t: i64, gb: f64) -> TraceRecord {
        TraceRecord::read(
            Endpoint::MssDisk,
            TRACE_EPOCH.add_secs(t),
            (gb * 1e9) as u64,
            "/f",
            1,
        )
    }

    fn write_gb(t: i64, gb: f64) -> TraceRecord {
        TraceRecord::write(
            Endpoint::MssDisk,
            TRACE_EPOCH.add_secs(t),
            (gb * 1e9) as u64,
            "/f",
            1,
        )
    }

    #[test]
    fn hourly_profile_averages_over_days() {
        let mut p = HourlyProfile::new();
        // 2 GB at 10:00 on day 0 and 4 GB at 10:00 on day 1.
        p.observe(&read_gb(10 * HOUR, 2.0));
        p.observe(&read_gb(DAY + 10 * HOUR, 4.0));
        assert_eq!(p.days_observed(), 2);
        assert!((p.gb_per_hour(Direction::Read, 10) - 3.0).abs() < 1e-9);
        assert_eq!(p.gb_per_hour(Direction::Write, 10), 0.0);
        assert_eq!(p.requests_at(Direction::Read, 10), 2);
        assert!((p.total_gb_per_hour(10) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn peak_to_trough_contrasts_day_and_night() {
        let mut p = HourlyProfile::new();
        for h in 0..6 {
            p.observe(&read_gb(h * HOUR, 1.0)); // night floor
        }
        p.observe(&read_gb(10 * HOUR, 8.0)); // day peak
        assert!((p.peak_to_trough(Direction::Read) - 8.0).abs() < 1e-9);
        // An empty trough reads as infinite contrast, not a panic.
        let mut q = HourlyProfile::new();
        q.observe(&read_gb(10 * HOUR, 8.0));
        assert!(q.peak_to_trough(Direction::Read).is_infinite());
    }

    #[test]
    fn weekly_profile_bins_by_weekday() {
        let mut p = WeeklyProfile::new();
        // Epoch is a Monday; +5 days is Saturday.
        p.observe(&read_gb(10 * HOUR, 7.0 * 24.0)); // Monday
        p.observe(&read_gb(5 * DAY + 10 * HOUR, 7.0 * 24.0)); // Saturday
        let s = p.series(Direction::Read);
        assert!(s[1] > 0.0, "monday bin");
        assert!(s[6] > 0.0, "saturday bin");
        assert_eq!(s[0], 0.0);
        // One observed instance of each weekday in a 6-day window.
        assert!((s[1] - 7.0).abs() < 1e-9, "monday rate {}", s[1]);
    }

    #[test]
    fn weekend_ratio_detects_dips() {
        let mut p = WeeklyProfile::new();
        for d in 0..14 {
            let gb = if (d + 1) % 7 == 0 || (d + 1) % 7 == 6 {
                1.0
            } else {
                5.0
            };
            p.observe(&read_gb(d * DAY + 12 * HOUR, gb));
        }
        let r = p.weekend_to_weekday(Direction::Read);
        assert!(r < 0.5, "weekend/weekday {r}");
    }

    #[test]
    fn week_series_tracks_growth() {
        let mut s = WeekSeries::new();
        for w in 0..20 {
            // Reads ramp up, writes stay flat.
            s.observe(&read_gb(w * 7 * DAY + 12 * HOUR, 1.0 + w as f64 * 0.2));
            s.observe(&write_gb(w * 7 * DAY + 13 * HOUR, 2.0));
        }
        assert_eq!(s.weeks(), 20);
        assert!(s.growth_ratio(Direction::Read) > 1.5);
        assert!((s.growth_ratio(Direction::Write) - 1.0).abs() < 0.01);
    }

    #[test]
    fn dip_ratio_flags_a_quiet_week() {
        let mut s = WeekSeries::new();
        for w in 0..10 {
            let gb = if w == 5 { 1.0 } else { 4.0 };
            s.observe(&read_gb(w * 7 * DAY + 12 * HOUR, gb));
        }
        let dip = s.dip_ratio(Direction::Read, TRACE_EPOCH.add_secs(5 * 7 * DAY + DAY));
        assert!(dip < 0.5, "dip ratio {dip}");
        let normal = s.dip_ratio(Direction::Read, TRACE_EPOCH.add_secs(2 * 7 * DAY + DAY));
        assert!(normal > 0.8, "normal ratio {normal}");
    }

    #[test]
    fn empty_profiles_are_zero() {
        let p = HourlyProfile::new();
        assert_eq!(p.days_observed(), 0);
        assert_eq!(p.gb_per_hour(Direction::Read, 12), 0.0);
        let w = WeeklyProfile::new();
        assert_eq!(w.gb_per_hour(Direction::Read, 0), 0.0);
        let s = WeekSeries::new();
        assert_eq!(s.weeks(), 0);
        assert_eq!(s.growth_ratio(Direction::Read), 1.0);
    }
}
