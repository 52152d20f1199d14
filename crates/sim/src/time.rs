//! Cycle counts and clock-frequency conversions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A count of core clock cycles — the simulator's unit of time.
///
/// `Cycles` is a transparent newtype over `u64` with checked-by-construction
/// semantics: additions saturate (a saturated simulation time is an
/// out-of-horizon event, never wraparound), subtractions panic on underflow
/// in debug and saturate in release via [`Cycles::saturating_sub`].
///
/// Wall-clock conversion requires a [`Frequency`], because the paper's three
/// machines run at different clocks (2 GHz manycores, 3 GHz ServerClass).
///
/// # Examples
///
/// ```
/// use um_sim::{Cycles, Frequency};
///
/// let f = Frequency::ghz(2.0);
/// let t = Cycles::from_micros(1.5, f);
/// assert_eq!(t, Cycles::new(3_000));
/// assert!((t.as_micros(f) - 1.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// The maximum representable time; used as an "infinitely far" horizon.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts a microsecond duration at `freq` into cycles (rounded).
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or NaN.
    #[inline]
    pub fn from_micros(micros: f64, freq: Frequency) -> Self {
        assert!(micros >= 0.0, "negative duration {micros} us");
        Cycles(round_to_u64(micros * freq.cycles_per_micro()))
    }

    /// Converts a nanosecond duration at `freq` into cycles (rounded).
    ///
    /// # Panics
    ///
    /// Panics if `nanos` is negative or NaN.
    pub fn from_nanos(nanos: f64, freq: Frequency) -> Self {
        Self::from_micros(nanos / 1_000.0, freq)
    }

    /// This duration in microseconds at `freq`.
    #[inline]
    pub fn as_micros(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.cycles_per_micro()
    }

    /// This duration in milliseconds at `freq`.
    pub fn as_millis(self, freq: Frequency) -> f64 {
        self.as_micros(freq) / 1_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Checked addition: `None` on overflow. Use where a wrapped-to-`MAX`
    /// time must fail loudly instead of parking an event at the horizon
    /// (e.g. [`crate::EventQueue::schedule`]).
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Scales by a non-negative float, rounding to the nearest cycle.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        assert!(factor >= 0.0, "negative scale factor {factor}");
        Cycles(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics on underflow: event timestamps are monotone, so subtracting a
    /// later time from an earlier one is always a simulator bug.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(
            self.0
                .checked_sub(rhs.0)
                .expect("cycle subtraction underflow: non-monotone timestamps"),
        )
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// `x.round() as u64`, without the libm `round` call that the baseline
/// x86-64 target makes for `f64::round`. Below 2^52 the truncation and the
/// fraction `x - trunc(x)` are exact, so comparing the fraction with one
/// half rounds ties away from zero as `f64::round` does (and a negative
/// `x` gives a negative fraction, hence zero, as the saturating cast of a
/// negative rounded value does). From 2^52 up every float is already an
/// integer, and the saturating cast maps infinity to `u64::MAX` and NaN to
/// zero, as after `round`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x < EXACT {
        let whole = x as u64;
        whole + u64::from(x - whole as f64 >= 0.5)
    } else {
        x as u64
    }
}

/// A clock frequency, used to convert between cycles and wall time.
///
/// # Examples
///
/// ```
/// use um_sim::Frequency;
///
/// let f = Frequency::ghz(3.0);
/// assert_eq!(f.cycles_per_micro(), 3_000.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Frequency {
    ghz: f64,
}

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics unless `ghz` is finite and positive.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency {ghz} GHz");
        Frequency { ghz }
    }

    /// The frequency in GHz.
    pub fn as_ghz(self) -> f64 {
        self.ghz
    }

    /// Cycles in one microsecond at this frequency.
    #[inline]
    pub fn cycles_per_micro(self) -> f64 {
        self.ghz * 1_000.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GHz", self.ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_round_trip() {
        let f = Frequency::ghz(2.0);
        for us in [0.0, 0.5, 1.0, 123.456] {
            let c = Cycles::from_micros(us, f);
            assert!((c.as_micros(f) - us).abs() < 1e-3, "us={us} c={c}");
        }
    }

    #[test]
    fn arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!(a + b, Cycles::new(13));
        assert_eq!(a - b, Cycles::new(7));
        assert_eq!(a * 3, Cycles::new(30));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!([a, b].into_iter().sum::<Cycles>(), Cycles::new(13));
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Cycles::MAX + Cycles::new(1), Cycles::MAX);
        assert_eq!(Cycles::MAX * 2, Cycles::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Cycles::new(1) - Cycles::new(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Cycles::new(1).saturating_sub(Cycles::new(5)), Cycles::ZERO);
        assert_eq!(Cycles::MAX.saturating_add(Cycles::new(1)), Cycles::MAX);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(
            Cycles::new(1).checked_add(Cycles::new(2)),
            Some(Cycles::new(3))
        );
        assert_eq!(
            Cycles::new(1).checked_add(Cycles::new(u64::MAX - 1)),
            Some(Cycles::MAX)
        );
        assert_eq!(Cycles::MAX.checked_add(Cycles::new(1)), None);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Cycles::new(10).scale(1.26), Cycles::new(13));
        assert_eq!(Cycles::new(10).scale(0.0), Cycles::ZERO);
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        let exact = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            exact - 0.5,
            exact - 1.5,
            exact,
            exact + 1.0,
            2.0 * exact + 2.0,
            u64::MAX as f64,
            1e30,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -0.5,
            -2.5,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    proptest::proptest! {
        #[test]
        fn rounding_matches_f64_round(
            bits in 0u64..u64::MAX,
            small in 0.0f64..1e7,
            quarters in 0u64..1 << 12,
        ) {
            // Any bit pattern, ordinary durations, their ties, and values
            // a few quarters either side of 2^52.
            let exact = (1u64 << 52) as f64;
            let near = quarters as f64 * 0.25;
            for x in [f64::from_bits(bits), small, small.trunc() + 0.5, exact - near, exact + near] {
                proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn scale_rejects_negative() {
        let _ = Cycles::new(1).scale(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn zero_frequency_rejected() {
        let _ = Frequency::ghz(0.0);
    }

    #[test]
    fn nanos_conversion() {
        let f = Frequency::ghz(2.0);
        assert_eq!(Cycles::from_nanos(500.0, f), Cycles::new(1_000));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycles::new(5).to_string(), "5cyc");
        assert_eq!(Frequency::ghz(2.0).to_string(), "2.0GHz");
    }
}
