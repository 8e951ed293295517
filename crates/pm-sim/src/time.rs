//! Simulated time, durations and clock domains.
//!
//! All models in the workspace account time in integer **picoseconds** so
//! that the three clock domains of the PowerMANNA machine (180 MHz CPU,
//! 60 MHz node bus, 60 MHz link) compose without rounding drift. A 180 MHz
//! period is 5555.5̄ ps, which does not fit an integer; [`Clock`] therefore
//! stores its frequency in kilohertz and converts *cycle counts* to time via
//! exact integer arithmetic (`cycles * 10^9 / freq_khz`), rounding once per
//! conversion rather than once per cycle. A [`CycleCursor`] walks one clock
//! cycle by cycle with the same rounding, adding instead of dividing.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in picoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use pm_sim::time::{Duration, Time};
///
/// let t = Time::ZERO + Duration::from_ns(4);
/// assert_eq!(t.as_ps(), 4_000);
/// assert_eq!(format!("{t}"), "4.000ns");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use pm_sim::time::Duration;
///
/// let d = Duration::from_us(2) + Duration::from_ns(750);
/// assert_eq!(d.as_ps(), 2_750_000);
/// assert!(d > Duration::from_us(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// A time later than any the models produce; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Returns the instant as picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the instant in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the instant in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this indicates a model bug.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "time ran backwards: {earlier} > {self}"
        );
        Duration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest picosecond.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Duration((us * 1e6).round() as u64)
    }

    /// Returns the duration in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating subtraction; returns [`Duration::ZERO`] instead of
    /// underflowing.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        assert!(rhs.0 <= self.0, "duration underflow: {self} - {rhs}");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps >= 1_000_000_000_000 {
        write!(f, "{:.3}s", ps as f64 / 1e12)
    } else if ps >= 1_000_000_000 {
        write!(f, "{:.3}ms", ps as f64 / 1e9)
    } else if ps >= 1_000_000 {
        write!(f, "{:.3}us", ps as f64 / 1e6)
    } else if ps >= 1_000 {
        write!(f, "{:.3}ns", ps as f64 / 1e3)
    } else {
        write!(f, "{ps}ps")
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time(")?;
        fmt_ps(self.0, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration(")?;
        fmt_ps(self.0, f)?;
        write!(f, ")")
    }
}

/// Picoseconds in one cycle of a 1 kHz clock: a cycle of a `f` kHz clock
/// lasts `PS_PER_KHZ_CYCLE / f` ps.
const PS_PER_KHZ_CYCLE: u64 = 1_000_000_000;

/// A clock domain with an exact rational period.
///
/// Frequencies are stored in kilohertz so the 180 MHz CPU clock (period
/// 5555.5̄ ps) converts cycle counts to picoseconds without per-cycle
/// rounding error: `time_of_cycle(n) = n * 10^9 / freq_khz` rounded to the
/// nearest picosecond once.
///
/// # Examples
///
/// ```
/// use pm_sim::time::Clock;
///
/// let link = Clock::from_mhz(60.0);
/// // One byte per link cycle at 60 MHz is 60 Mbyte/s.
/// assert_eq!(link.period().as_ns_f64(), 16.667);
/// assert_eq!(link.cycles_in(pm_sim::time::Duration::from_us(1)), 60);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Clock {
    freq_khz: u64,
}

impl Clock {
    /// Creates a clock from a frequency in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not positive and finite.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "invalid clock frequency");
        Clock {
            freq_khz: (mhz * 1e3).round() as u64,
        }
    }

    /// Creates a clock from a frequency in kilohertz.
    ///
    /// # Panics
    ///
    /// Panics if `khz` is zero.
    #[inline]
    pub fn from_khz(khz: u64) -> Self {
        assert!(khz > 0, "invalid clock frequency");
        Clock { freq_khz: khz }
    }

    /// Returns the frequency in megahertz.
    #[inline]
    pub fn mhz(&self) -> f64 {
        self.freq_khz as f64 / 1e3
    }

    /// Returns the clock period, rounded to the nearest picosecond.
    ///
    /// Prefer [`Clock::time_of_cycle`] when accumulating many cycles.
    #[inline]
    pub fn period(&self) -> Duration {
        self.duration_of(1)
    }

    /// Returns the instant at which cycle `n` begins (cycle 0 begins at
    /// [`Time::ZERO`]).
    #[inline]
    pub fn time_of_cycle(&self, n: u64) -> Time {
        Time(self.ps_of(n))
    }

    /// Returns the exact span of `n` cycles, rounded once.
    #[inline]
    pub fn duration_of(&self, n: u64) -> Duration {
        Duration(self.ps_of(n))
    }

    /// Returns how many whole cycles of this clock fit in `d`.
    #[inline]
    pub fn cycles_in(&self, d: Duration) -> u64 {
        // cycles = d_ps * freq_khz / 1e9
        mul_div(d.0, self.freq_khz, PS_PER_KHZ_CYCLE)
    }

    /// Returns the number of whole cycles that have *completed* by instant
    /// `t`.
    #[inline]
    pub fn cycle_at(&self, t: Time) -> u64 {
        mul_div(t.0, self.freq_khz, PS_PER_KHZ_CYCLE)
    }

    /// Returns the first clock edge at or after `t`.
    ///
    /// Used at clock-domain crossings (e.g. bus-clock FIFO to link-clock
    /// serialiser): data only moves on the destination domain's edge.
    #[inline]
    pub fn next_edge(&self, t: Time) -> Time {
        let c = self.cycle_at(t);
        let edge = self.time_of_cycle(c);
        if edge >= t {
            edge
        } else {
            self.time_of_cycle(c + 1)
        }
    }

    #[inline]
    fn ps_of(&self, cycles: u64) -> u64 {
        // ps = cycles * 1e9 / freq_khz, rounded to nearest.
        mul_div_round(cycles, PS_PER_KHZ_CYCLE, self.freq_khz)
    }
}

/// A position on a [`Clock`]'s cycle grid that moves without dividing.
///
/// It holds a cycle `n`, its start [`Clock::time_of_cycle`]`(n)`, and
/// the remainder of that rounded conversion, `(n * 10^9 + f/2) mod f` for
/// a clock of `f` kHz. [`CycleCursor::advance`] moves to the next cycle by
/// adding the precomputed quotient and remainder of `10^9 / f`, and
/// [`CycleCursor::catch_up`] steps the same way while its target is a few
/// cycles ahead, dividing only for longer jumps. Every position it reaches
/// is the one [`Clock`]'s division formulas give.
///
/// # Examples
///
/// ```
/// use pm_sim::time::{Clock, CycleCursor, Time};
///
/// let cpu = Clock::from_mhz(180.0);
/// let mut cursor = CycleCursor::new(cpu, 0);
/// cursor.advance();
/// assert_eq!(cursor.at(), cpu.time_of_cycle(1));
///
/// // Cycle 55,968 starts at 310,933,333.3 ps, which rounds down: catching
/// // up to any instant in the 5,555 ps before that start settles on
/// // cycle 55,967, whose start is earlier than the target.
/// let t = Time::from_ps(310_929_360);
/// assert!(cursor.catch_up(t));
/// assert_eq!(cursor.cycle(), cpu.cycle_at(cpu.next_edge(t)));
/// assert_eq!(cursor.cycle(), 55_967);
/// assert_eq!(cursor.at(), Time::from_ps(310_927_778));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleCursor {
    clock: Clock,
    cycle: u64,
    at: Time,
    /// `(cycle * 10^9 + f / 2) mod f` for a clock of `f` kHz: above `f / 2`
    /// exactly when `at` rounded the cycle's exact start down.
    rem: u64,
    /// One period as `10^9 / f` ps plus `period_rem / f`.
    period_ps: u64,
    period_rem: u64,
}

impl CycleCursor {
    /// Cycles [`CycleCursor::catch_up`] steps through, at most, before it
    /// jumps with [`Clock`]'s division formulas instead.
    const STEP_BUDGET: u64 = 16;

    /// A cursor on `clock` at cycle `n`.
    #[inline]
    pub fn new(clock: Clock, n: u64) -> Self {
        let f = clock.freq_khz;
        let mut cursor = CycleCursor {
            clock,
            cycle: 0,
            at: Time::ZERO,
            rem: 0,
            period_ps: PS_PER_KHZ_CYCLE / f,
            period_rem: PS_PER_KHZ_CYCLE % f,
        };
        cursor.seek(n);
        cursor
    }

    /// The cycle the cursor is at.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The instant the cursor's cycle begins, [`Clock::time_of_cycle`] of
    /// [`CycleCursor::cycle`].
    #[inline]
    pub fn at(&self) -> Time {
        self.at
    }

    /// Moves to cycle `n`, earlier or later, with one division.
    #[inline]
    pub fn seek(&mut self, n: u64) {
        let f = self.clock.freq_khz;
        let (at, rem) = match n
            .checked_mul(PS_PER_KHZ_CYCLE)
            .and_then(|p| p.checked_add(f / 2))
        {
            Some(p) => (p / f, p % f),
            None => {
                let p = n as u128 * PS_PER_KHZ_CYCLE as u128 + (f / 2) as u128;
                ((p / f as u128) as u64, (p % f as u128) as u64)
            }
        };
        self.cycle = n;
        self.at = Time(at);
        self.rem = rem;
    }

    /// Moves to the next cycle.
    #[inline]
    pub fn advance(&mut self) {
        self.cycle += 1;
        self.at.0 += self.period_ps;
        self.rem += self.period_rem;
        if self.rem >= self.clock.freq_khz {
            self.rem -= self.clock.freq_khz;
            self.at.0 += 1;
        }
    }

    /// Moves forward to cycle `cycle_at(next_edge(t))` of the cursor's
    /// clock if that is later than its cycle, and returns whether it moved;
    /// a target at or before the cursor's start leaves it where it is.
    ///
    /// That cycle is the first one starting at or after `t` when its start
    /// rounded up (or was exact), and the one before it when its start
    /// rounded down to the picosecond: `cycle_at` of a start that rounded
    /// down counts one whole cycle fewer. In the second case the cursor
    /// settles on a cycle that starts before `t`. This is how the CPU
    /// engine's dispatch slot moves; DESIGN.md §2 says why it is kept.
    #[inline]
    pub fn catch_up(&mut self, t: Time) -> bool {
        if t <= self.at {
            return false;
        }
        if t.0 - self.at.0 > self.period_ps * Self::STEP_BUDGET {
            self.seek(self.clock.cycle_at(self.clock.next_edge(t)));
            return true;
        }
        let start = self.cycle;
        let (mut before_at, mut before_rem) = (self.at, self.rem);
        self.advance();
        while self.at < t {
            (before_at, before_rem) = (self.at, self.rem);
            self.advance();
        }
        if self.rem > self.clock.freq_khz / 2 {
            self.cycle -= 1;
            self.at = before_at;
            self.rem = before_rem;
        }
        self.cycle != start
    }
}

/// Computes `a * b / c` without overflow, truncating: in u64 when the
/// product fits (exactly the same result), via u128 otherwise.
#[inline]
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => ((a as u128 * b as u128) / c as u128) as u64,
    }
}

/// Computes `a * b / c` without overflow, rounding to nearest: in u64
/// when the biased product fits (exactly the same result), via u128
/// otherwise.
#[inline]
fn mul_div_round(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b).and_then(|p| p.checked_add(c / 2)) {
        Some(p) => p / c,
        None => ((a as u128 * b as u128 + c as u128 / 2) / c as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_ps(1234);
        assert_eq!((t + Duration::from_ps(766)).as_ps(), 2000);
        assert_eq!((t + Duration::from_ns(1)) - t, Duration::from_ns(1));
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn since_panics_on_backwards_time() {
        let _ = Time::from_ps(1).since(Time::from_ps(2));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_us(1), Duration::from_ns(1000));
        assert_eq!(Duration::from_ms(1), Duration::from_us(1000));
        assert_eq!(Duration::from_us_f64(2.75), Duration::from_ps(2_750_000));
    }

    #[test]
    fn duration_saturating_sub() {
        let a = Duration::from_ns(5);
        let b = Duration::from_ns(9);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_ns(4));
    }

    #[test]
    fn clock_180mhz_has_no_cumulative_drift() {
        let cpu = Clock::from_mhz(180.0);
        // 180e6 cycles must be exactly one second.
        assert_eq!(cpu.time_of_cycle(180_000_000).as_ps(), 1_000_000_000_000);
        // Individual periods round to 5556 ps but accumulation stays exact.
        assert_eq!(cpu.period().as_ps(), 5556);
        assert_eq!(cpu.duration_of(3).as_ps(), 16_667);
    }

    #[test]
    fn clock_cycles_in_duration() {
        let bus = Clock::from_mhz(60.0);
        assert_eq!(bus.cycles_in(Duration::from_us(1)), 60);
        assert_eq!(bus.cycles_in(Duration::from_ns(16)), 0);
        assert_eq!(bus.cycles_in(Duration::from_ns(17)), 1);
    }

    #[test]
    fn next_edge_lands_on_grid() {
        let link = Clock::from_mhz(60.0);
        let e = link.next_edge(Time::from_ps(1));
        assert_eq!(e, link.time_of_cycle(1));
        // An instant exactly on an edge stays put.
        assert_eq!(link.next_edge(e), e);
        assert_eq!(link.next_edge(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Duration::from_ps(12)), "12ps");
        assert_eq!(format!("{}", Duration::from_ns(4)), "4.000ns");
        assert_eq!(format!("{}", Duration::from_us(3)), "3.000us");
        assert_eq!(format!("{}", Duration::from_ms(7)), "7.000ms");
    }

    #[test]
    fn mul_div_fast_paths_match_wide_arithmetic() {
        let wide = |a: u64, b: u64, c: u64| ((a as u128 * b as u128) / c as u128) as u64;
        let wide_round =
            |a: u64, b: u64, c: u64| ((a as u128 * b as u128 + c as u128 / 2) / c as u128) as u64;
        // Products well inside u64, straddling the overflow edge, and far
        // past it (the u128 fallback).
        let edge = u64::MAX / 1_000_000_000;
        for a in [0, 1, 7, 5_555, edge - 1, edge, edge + 1, u64::MAX / 3] {
            for (b, c) in [(1_000_000_000, 180_000), (180_000, 1_000_000_000), (3, 7)] {
                assert_eq!(mul_div(a, b, c), wide(a, b, c), "{a}*{b}/{c}");
                assert_eq!(mul_div_round(a, b, c), wide_round(a, b, c), "{a}*{b}/{c}");
            }
        }
        // The rounding bias alone pushing the sum past u64.
        assert_eq!(mul_div_round(u64::MAX, 1, 3), wide_round(u64::MAX, 1, 3));
    }

    /// Every clock the presets use, plus 200 MHz, whose 5,000 ps period
    /// is whole, so no cycle start ever rounds.
    const CURSOR_CLOCKS_MHZ: [f64; 6] = [60.0, 66.0, 168.0, 180.0, 200.0, 266.0];

    /// The cursor a `catch_up(t)` from cycle `n` must leave, by the
    /// division formulas.
    fn caught_up(clock: Clock, n: u64, t: Time) -> CycleCursor {
        CycleCursor::new(clock, n.max(clock.cycle_at(clock.next_edge(t))))
    }

    #[test]
    fn cycle_cursor_advances_on_the_rounded_grid() {
        let mut rng = crate::rng::SimRng::seed_from(0xC7C1E);
        for mhz in CURSOR_CLOCKS_MHZ {
            let clock = Clock::from_mhz(mhz);
            for _ in 0..200 {
                // Up to 2^35 cycles: past 2^34, n * 10^9 overflows u64.
                let n = rng.gen_range(0, 1 << 35);
                let mut cursor = CycleCursor::new(clock, n);
                for k in 0..64 {
                    assert_eq!(cursor, CycleCursor::new(clock, n + k), "{mhz} MHz");
                    assert_eq!(cursor.at(), clock.time_of_cycle(n + k));
                    cursor.advance();
                }
            }
        }
    }

    #[test]
    fn cycle_cursor_catches_up_as_the_division_formulas() {
        let mut rng = crate::rng::SimRng::seed_from(0xCA7C);
        for mhz in CURSOR_CLOCKS_MHZ {
            let clock = Clock::from_mhz(mhz);
            let period = clock.period().as_ps();
            let mut landed_before_target = 0;
            for _ in 0..500 {
                let n = rng.gen_range(0, 1 << 35);
                let cursor = CycleCursor::new(clock, n);
                let start = cursor.at().as_ps();
                // Edges from the cursor's own start to past the step
                // budget, each hit exactly and missed by 1 ps either way.
                let edge = clock.time_of_cycle(n + rng.gen_range(0, 3 * CycleCursor::STEP_BUDGET));
                let mut targets = vec![edge.as_ps() - 1, edge.as_ps(), edge.as_ps() + 1];
                // Behind the cursor, anywhere inside the budget, and jumps
                // far past it.
                targets.push(start - rng.gen_range(0, 8 * period).min(start));
                targets.push(start + rng.gen_range(0, CycleCursor::STEP_BUDGET * period));
                targets.push(start + rng.gen_range(0, 1 << 40));
                for t in targets.into_iter().map(Time::from_ps) {
                    let mut got = cursor;
                    let moved = got.catch_up(t);
                    let want = caught_up(clock, n, t);
                    assert_eq!(got, want, "{mhz} MHz from cycle {n} to {t}");
                    assert_eq!(moved, want.cycle() > n);
                    if t <= cursor.at() {
                        assert!(!moved, "a target behind the cursor moved it");
                    }
                    if got.at() < t {
                        landed_before_target += 1;
                    }
                }
            }
            // Only a whole period never rounds a start down.
            assert_eq!(
                landed_before_target == 0,
                period * clock.freq_khz == PS_PER_KHZ_CYCLE
            );
        }
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
    }
}
