//! Request arrival processes (paper §3.2, §5).
//!
//! The evaluation issues requests with Poisson inter-arrival times at 5 K,
//! 10 K and 15 K RPS per server ([`PoissonArrivals`]); the Alibaba
//! characterization shows arrivals are *bursty* — periods of high and low
//! demand — which the two-state Markov-modulated Poisson process
//! ([`Mmpp`]) reproduces for Figure 2.

use crate::dist::sample_exponential;
use rand::rngs::SmallRng;
use um_sim::rng;

/// A Poisson arrival process: exponential inter-arrival times.
///
/// Times are in microseconds from zero. The iterator is infinite; bound it
/// with `take_while` or [`PoissonArrivals::within`].
///
/// # Examples
///
/// ```
/// use um_workload::PoissonArrivals;
///
/// let arrivals: Vec<f64> = PoissonArrivals::new(10_000.0, 42).within(10_000.0);
/// // 10K RPS for 10ms is about 100 arrivals.
/// assert!((50..200).contains(&arrivals.len()));
/// ```
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    mean_gap_us: f64,
    next_us: f64,
    rng: SmallRng,
}

impl PoissonArrivals {
    /// Creates a process with `rate_rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_rps > 0`.
    pub fn new(rate_rps: f64, seed: u64) -> Self {
        assert!(rate_rps > 0.0, "rate must be positive");
        Self {
            mean_gap_us: 1e6 / rate_rps,
            next_us: 0.0,
            rng: rng::stream(seed, "poisson-arrivals"),
        }
    }

    /// Collects all arrival times strictly before `horizon_us`.
    pub fn within(self, horizon_us: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for t in self {
            if t >= horizon_us {
                break;
            }
            out.push(t);
        }
        out
    }
}

impl Iterator for PoissonArrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.next_us += sample_exponential(&mut self.rng, self.mean_gap_us);
        Some(self.next_us)
    }
}

/// A two-state Markov-modulated Poisson process: a *low* state and a
/// *high*-rate burst state with exponential sojourn times.
///
/// This matches the paper's observation that a server receiving a median
/// of ~500 RPS sees 1000+ RPS 20% of the time and 1500+ RPS 5% of the time
/// (Figure 2).
///
/// # Examples
///
/// ```
/// use um_workload::Mmpp;
///
/// let mut mmpp = Mmpp::alibaba_like(500.0, 7);
/// let arrivals = mmpp.within(1_000_000.0); // one second
/// assert!(!arrivals.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Mmpp {
    low_rps: f64,
    high_rps: f64,
    /// Mean sojourn in the low state, microseconds.
    low_sojourn_us: f64,
    /// Mean sojourn in the high state, microseconds.
    high_sojourn_us: f64,
    rng: SmallRng,
}

impl Mmpp {
    /// A burst process whose long-run mean is roughly `mean_rps`: lows at
    /// ~0.75x the mean, bursts at ~3x the mean, ~12% of time in bursts.
    pub fn alibaba_like(mean_rps: f64, seed: u64) -> Self {
        Self::new(mean_rps * 0.75, mean_rps * 3.0, 220_000.0, 30_000.0, seed)
    }

    /// Creates an MMPP with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless rates and sojourns are positive and
    /// `high_rps >= low_rps`.
    pub fn new(
        low_rps: f64,
        high_rps: f64,
        low_sojourn_us: f64,
        high_sojourn_us: f64,
        seed: u64,
    ) -> Self {
        assert!(low_rps > 0.0 && high_rps >= low_rps, "need 0 < low <= high");
        assert!(
            low_sojourn_us > 0.0 && high_sojourn_us > 0.0,
            "sojourns must be positive"
        );
        Self {
            low_rps,
            high_rps,
            low_sojourn_us,
            high_sojourn_us,
            rng: rng::stream(seed, "mmpp-arrivals"),
        }
    }

    /// Fraction of time spent in the burst state.
    pub fn burst_fraction(&self) -> f64 {
        self.high_sojourn_us / (self.high_sojourn_us + self.low_sojourn_us)
    }

    /// Long-run average arrival rate in RPS.
    pub fn mean_rps(&self) -> f64 {
        let b = self.burst_fraction();
        b * self.high_rps + (1.0 - b) * self.low_rps
    }

    /// Generates all arrivals before `horizon_us`.
    pub fn within(&mut self, horizon_us: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut high = false;
        let mut state_end = sample_exponential(&mut self.rng, self.low_sojourn_us);
        loop {
            let rate = if high { self.high_rps } else { self.low_rps };
            let gap = sample_exponential(&mut self.rng, 1e6 / rate);
            if t + gap < state_end.min(horizon_us) {
                t += gap;
                out.push(t);
                continue;
            }
            if state_end >= horizon_us {
                break;
            }
            // Switch state at state_end; arrivals in progress restart
            // (memorylessness makes this exact for Poisson processes).
            t = state_end;
            high = !high;
            let sojourn = if high {
                self.high_sojourn_us
            } else {
                self.low_sojourn_us
            };
            state_end += sample_exponential(&mut self.rng, sojourn);
        }
        out
    }

    /// Samples the per-interval request counts over `intervals` windows of
    /// `window_us` each — the "requests per second" samples behind the
    /// Figure 2 CDF when `window_us` is 1e6.
    pub fn rate_samples(&mut self, intervals: usize, window_us: f64) -> Vec<f64> {
        let horizon = intervals as f64 * window_us;
        let arrivals = self.within(horizon);
        let mut counts = vec![0u64; intervals];
        for a in arrivals {
            let idx = ((a / window_us) as usize).min(intervals - 1);
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 * 1e6 / window_us)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let arrivals = PoissonArrivals::new(50_000.0, 1).within(1e6);
        // 50K RPS over 1s: expect 50_000 +- 3%.
        let n = arrivals.len() as f64;
        assert!((n - 50_000.0).abs() < 1_500.0, "got {n}");
    }

    #[test]
    fn poisson_is_sorted_and_positive() {
        let arrivals = PoissonArrivals::new(10_000.0, 2).within(100_000.0);
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(arrivals[0] > 0.0);
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let a = PoissonArrivals::new(1000.0, 7).within(100_000.0);
        let b = PoissonArrivals::new(1000.0, 7).within(100_000.0);
        let c = PoissonArrivals::new(1000.0, 8).within(100_000.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_cv_is_one() {
        // Exponential gaps: coefficient of variation 1.
        let arrivals = PoissonArrivals::new(10_000.0, 3).within(3e6);
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn mmpp_mean_rate_matches() {
        let mut m = Mmpp::alibaba_like(500.0, 5);
        let target = m.mean_rps();
        let arrivals = m.within(60e6); // one minute
        let rate = arrivals.len() as f64 / 60.0;
        assert!(
            (rate - target).abs() / target < 0.15,
            "rate {rate} target {target}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare the variance of per-10ms counts.
        let count_var = |samples: &[f64]| {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64
        };
        let mut m = Mmpp::alibaba_like(5_000.0, 6);
        let mmpp_rates = m.rate_samples(500, 10_000.0);
        let poisson = PoissonArrivals::new(m.mean_rps(), 6).within(500.0 * 10_000.0);
        let mut pc = vec![0u64; 500];
        for a in poisson {
            pc[((a / 10_000.0) as usize).min(499)] += 1;
        }
        let poisson_rates: Vec<f64> = pc.into_iter().map(|c| c as f64 * 100.0).collect();
        assert!(
            count_var(&mmpp_rates) > 2.0 * count_var(&poisson_rates),
            "mmpp var {} vs poisson var {}",
            count_var(&mmpp_rates),
            count_var(&poisson_rates)
        );
    }

    #[test]
    fn mmpp_rate_samples_sum_matches_arrivals() {
        let mut m = Mmpp::alibaba_like(1000.0, 9);
        let samples = m.rate_samples(100, 1e4);
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        PoissonArrivals::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "low <= high")]
    fn inverted_mmpp_rates_rejected() {
        Mmpp::new(100.0, 50.0, 1.0, 1.0, 1);
    }
}
