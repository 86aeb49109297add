//! Trace calendar: converts trace-relative timestamps (seconds since the
//! trace epoch) into calendar components (month, day, weekday, hour) without
//! pulling in a full date-time dependency.
//!
//! The Helios traces span 2020-04-01 .. 2020-09-27 (§2.3); the Philly trace
//! window used by the paper spans 2017-10-01 .. 2017-12-14. Both are modelled
//! as a [`Calendar`] anchored at their respective epoch.

/// Seconds in one minute.
pub const SECS_PER_MINUTE: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;
/// Seconds in one week.
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// Day of week, Monday-indexed (Monday = 0 .. Sunday = 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays in order, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Numeric index with Monday = 0.
    pub fn index(self) -> usize {
        match self {
            Weekday::Monday => 0,
            Weekday::Tuesday => 1,
            Weekday::Wednesday => 2,
            Weekday::Thursday => 3,
            Weekday::Friday => 4,
            Weekday::Saturday => 5,
            Weekday::Sunday => 6,
        }
    }

    /// Inverse of [`Weekday::index`]; `i` is taken modulo 7.
    pub fn from_index(i: usize) -> Weekday {
        Weekday::ALL[i % 7]
    }

    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// A trace-local calendar: a contiguous run of whole months starting at the
/// epoch (`t = 0` is midnight on the first day of `month_names\[0\]`).
#[derive(Debug, Clone)]
pub struct Calendar {
    /// Human-readable month names, one per covered month.
    pub month_names: Vec<String>,
    /// Number of days in each covered month.
    pub month_lengths: Vec<u32>,
    /// Weekday of day 0 of the trace.
    pub epoch_weekday: Weekday,
    /// Public holidays, as day-of-trace indices (0-based).
    pub holidays: Vec<u32>,
    /// Cumulative day offset of the start of each month (derived).
    month_start_day: Vec<u32>,
}

impl Calendar {
    /// Build a calendar from month names/lengths, the weekday of day 0 and a
    /// holiday table.
    pub fn new(
        month_names: Vec<String>,
        month_lengths: Vec<u32>,
        epoch_weekday: Weekday,
        holidays: Vec<u32>,
    ) -> Self {
        assert_eq!(month_names.len(), month_lengths.len());
        let mut month_start_day = Vec::with_capacity(month_lengths.len() + 1);
        let mut acc = 0;
        for &len in &month_lengths {
            month_start_day.push(acc);
            acc += len;
        }
        month_start_day.push(acc);
        Calendar {
            month_names,
            month_lengths,
            epoch_weekday,
            holidays,
            month_start_day,
        }
    }

    /// The Helios trace calendar: April–September 2020 (2020-04-01 was a
    /// Wednesday). Holidays follow the 2020 mainland-China public-holiday
    /// schedule that falls inside the window: Labour Day (May 1–5) and the
    /// Dragon Boat Festival (June 25–27).
    pub fn helios_2020() -> Self {
        let names = ["April", "May", "June", "July", "August", "September"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let lengths = vec![30, 31, 30, 31, 31, 30];
        // Day-of-trace indices: May 1 = 30, June 25 = 30+31+24 = 85.
        let holidays = vec![30, 31, 32, 33, 34, 85, 86, 87];
        Calendar::new(names, lengths, Weekday::Wednesday, holidays)
    }

    /// The Philly evaluation calendar: October–December 2017 (2017-10-01 was
    /// a Sunday). US holidays in the window: Thanksgiving (Nov 23–24).
    pub fn philly_2017() -> Self {
        let names = ["October", "November", "December"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let lengths = vec![31, 30, 31];
        // Nov 23 = 31 + 22 = 53.
        let holidays = vec![53, 54];
        Calendar::new(names, lengths, Weekday::Sunday, holidays)
    }

    /// Total number of days covered by the calendar.
    pub fn total_days(&self) -> u32 {
        *self.month_start_day.last().unwrap()
    }

    /// Total number of seconds covered by the calendar.
    pub fn total_seconds(&self) -> i64 {
        self.total_days() as i64 * SECS_PER_DAY
    }

    /// Number of covered months.
    pub fn num_months(&self) -> usize {
        self.month_lengths.len()
    }

    /// Day-of-trace (0-based) for a timestamp. Clamped at the boundaries so
    /// out-of-range timestamps don't panic.
    pub fn day_of_trace(&self, t: i64) -> u32 {
        let d = t.div_euclid(SECS_PER_DAY);
        d.clamp(0, self.total_days() as i64 - 1) as u32
    }

    /// Month index (0-based into [`Calendar::month_names`]) for a timestamp.
    pub fn month_index(&self, t: i64) -> usize {
        let day = self.day_of_trace(t);
        // month_start_day is sorted; find the last start <= day.
        match self.month_start_day.binary_search(&day) {
            Ok(i) => i.min(self.num_months() - 1),
            Err(i) => i - 1,
        }
    }

    /// Day of month (1-based) for a timestamp.
    pub fn day_of_month(&self, t: i64) -> u32 {
        let day = self.day_of_trace(t);
        let m = self.month_index(t);
        day - self.month_start_day[m] + 1
    }

    /// Hour of day (0–23) for a timestamp.
    pub fn hour_of_day(&self, t: i64) -> u32 {
        (t.rem_euclid(SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Minute of hour (0–59) for a timestamp.
    pub fn minute_of_hour(&self, t: i64) -> u32 {
        (t.rem_euclid(SECS_PER_HOUR) / SECS_PER_MINUTE) as u32
    }

    /// Weekday for a timestamp.
    pub fn weekday(&self, t: i64) -> Weekday {
        let day = self.day_of_trace(t) as usize;
        Weekday::from_index(self.epoch_weekday.index() + day)
    }

    /// True if the timestamp falls on a listed public holiday.
    pub fn is_holiday(&self, t: i64) -> bool {
        self.holidays.contains(&self.day_of_trace(t))
    }

    /// True for weekends and public holidays.
    pub fn is_offday(&self, t: i64) -> bool {
        self.weekday(t).is_weekend() || self.is_holiday(t)
    }

    /// Timestamp of midnight on the first day of month `m`.
    pub fn month_start(&self, m: usize) -> i64 {
        self.month_start_day[m] as i64 * SECS_PER_DAY
    }

    /// Timestamp of midnight *after* the last day of month `m` (exclusive end).
    pub fn month_end(&self, m: usize) -> i64 {
        self.month_start_day[m + 1] as i64 * SECS_PER_DAY
    }

    /// Half-open `[start, end)` second range for month `m`.
    pub fn month_range(&self, m: usize) -> (i64, i64) {
        (self.month_start(m), self.month_end(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helios_calendar_shape() {
        let c = Calendar::helios_2020();
        assert_eq!(c.num_months(), 6);
        assert_eq!(c.total_days(), 183);
        assert_eq!(c.total_seconds(), 183 * SECS_PER_DAY);
    }

    #[test]
    fn month_boundaries() {
        let c = Calendar::helios_2020();
        // First second of the trace is April 1.
        assert_eq!(c.month_index(0), 0);
        assert_eq!(c.day_of_month(0), 1);
        // Last second of April 30.
        let t = 30 * SECS_PER_DAY - 1;
        assert_eq!(c.month_index(t), 0);
        assert_eq!(c.day_of_month(t), 30);
        // First second of May.
        let t = 30 * SECS_PER_DAY;
        assert_eq!(c.month_index(t), 1);
        assert_eq!(c.day_of_month(t), 1);
        // Last covered day: September 30 (day 182).
        let t = c.total_seconds() - 1;
        assert_eq!(c.month_index(t), 5);
        assert_eq!(c.day_of_month(t), 30);
    }

    #[test]
    fn weekday_progression() {
        let c = Calendar::helios_2020();
        assert_eq!(c.weekday(0), Weekday::Wednesday);
        assert_eq!(c.weekday(SECS_PER_DAY), Weekday::Thursday);
        assert_eq!(c.weekday(5 * SECS_PER_DAY), Weekday::Monday);
        // 2020-04-04 was a Saturday.
        assert!(c.weekday(3 * SECS_PER_DAY).is_weekend());
    }

    #[test]
    fn hour_and_minute() {
        let c = Calendar::helios_2020();
        let t = 2 * SECS_PER_DAY + 13 * SECS_PER_HOUR + 45 * SECS_PER_MINUTE + 7;
        assert_eq!(c.hour_of_day(t), 13);
        assert_eq!(c.minute_of_hour(t), 45);
    }

    #[test]
    fn holidays_detected() {
        let c = Calendar::helios_2020();
        // May 1, 2020 (day 30).
        let may1 = 30 * SECS_PER_DAY + 12 * SECS_PER_HOUR;
        assert!(c.is_holiday(may1));
        assert!(c.is_offday(may1));
        // April 15 is a Wednesday and not a holiday.
        let apr15 = 14 * SECS_PER_DAY + 9 * SECS_PER_HOUR;
        assert!(!c.is_offday(apr15));
    }

    #[test]
    fn philly_calendar() {
        let c = Calendar::philly_2017();
        assert_eq!(c.total_days(), 92);
        assert_eq!(c.weekday(0), Weekday::Sunday);
        // 2017-10-02 was a Monday.
        assert_eq!(c.weekday(SECS_PER_DAY), Weekday::Monday);
        // Thanksgiving.
        assert!(c.is_holiday(53 * SECS_PER_DAY + 1));
    }

    #[test]
    fn out_of_range_clamps() {
        let c = Calendar::helios_2020();
        assert_eq!(c.day_of_trace(-5), 0);
        assert_eq!(c.day_of_trace(c.total_seconds() + 999), c.total_days() - 1);
    }

    #[test]
    fn month_ranges_partition_trace() {
        let c = Calendar::helios_2020();
        let mut cursor = 0;
        for m in 0..c.num_months() {
            let (s, e) = c.month_range(m);
            assert_eq!(s, cursor);
            assert!(e > s);
            cursor = e;
        }
        assert_eq!(cursor, c.total_seconds());
    }
}
