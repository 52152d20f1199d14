//! Synthetic uSuite-style benchmarks (paper §5, §6.7).
//!
//! "Like prior work \[36\], we also use synthetic benchmarks with three
//! service time distributions (exponential, lognormal, and bimodal) and
//! 2–6 blocking calls during the execution." This module builds
//! [`ServiceProfile`](crate::ServiceProfile)-compatible request plans
//! for those workloads.

use crate::dist::ServiceTimeDist;
use crate::service::{RequestPlan, RpcKind, Segment, ServiceId};
use rand::Rng;

/// A synthetic single-service workload.
///
/// # Examples
///
/// ```
/// use um_workload::synthetic::SyntheticWorkload;
/// use um_workload::ServiceTimeDist;
/// use rand::SeedableRng;
///
/// let w = SyntheticWorkload::new(ServiceTimeDist::exponential(100.0), 2, 6);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
/// let plan = w.sample_plan(&mut rng);
/// assert!((2..=6).contains(&plan.rpc_count()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticWorkload {
    /// Service-time distribution of total per-request CPU time.
    pub service_time: ServiceTimeDist,
    /// Minimum blocking calls per request.
    pub min_blocking: u32,
    /// Maximum blocking calls per request.
    pub max_blocking: u32,
    /// Storage response size in bytes.
    pub storage_bytes: u64,
}

/// The fixed id synthetic requests run under.
pub const SYNTHETIC_SERVICE: ServiceId = ServiceId::new(100);

impl SyntheticWorkload {
    /// Creates a synthetic workload with `min..=max` blocking calls.
    ///
    /// # Panics
    ///
    /// Panics unless `min_blocking <= max_blocking`.
    pub fn new(service_time: ServiceTimeDist, min_blocking: u32, max_blocking: u32) -> Self {
        assert!(
            min_blocking <= max_blocking,
            "blocking range inverted: {min_blocking} > {max_blocking}"
        );
        Self {
            service_time,
            min_blocking,
            max_blocking,
            storage_bytes: 512,
        }
    }

    /// The three paper configurations at a given mean service time: the
    /// §6.7 sweep of exponential, lognormal and bimodal distributions.
    pub fn paper_suite(mean_us: f64) -> [(&'static str, SyntheticWorkload); 3] {
        [
            (
                "Exp",
                SyntheticWorkload::new(ServiceTimeDist::exponential(mean_us), 2, 6),
            ),
            (
                "Lgn",
                SyntheticWorkload::new(ServiceTimeDist::lognormal_with_mean(mean_us, 4.0), 2, 6),
            ),
            (
                "Bim",
                // 90% short, 10% 10x-long requests with the same mean.
                SyntheticWorkload::new(
                    ServiceTimeDist::bimodal(mean_us / 1.9, mean_us * 10.0 / 1.9, 0.9),
                    2,
                    6,
                ),
            ),
        ]
    }

    /// Samples one request plan.
    pub fn sample_plan<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestPlan {
        let mut plan = RequestPlan {
            service: SYNTHETIC_SERVICE,
            segments: Vec::new(),
        };
        self.sample_plan_into(rng, &mut plan);
        plan
    }

    /// [`Self::sample_plan`] into an existing plan, reusing its segment
    /// buffer: the same draws give the same plan whatever `plan` held.
    pub fn sample_plan_into<R: Rng + ?Sized>(&self, rng: &mut R, plan: &mut RequestPlan) {
        let blocking = rng.gen_range(self.min_blocking..=self.max_blocking);
        let total_us = self.service_time.sample(rng).max(1.0);
        let n_segments = blocking as usize + 1;
        let per_segment = total_us / n_segments as f64;
        plan.service = SYNTHETIC_SERVICE;
        plan.segments.clear();
        plan.segments.extend((0..n_segments).map(|i| Segment {
            compute_us: per_segment,
            rpc: (i + 1 < n_segments).then_some(RpcKind::Storage {
                bytes: self.storage_bytes,
            }),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn blocking_calls_in_range() {
        let w = SyntheticWorkload::new(ServiceTimeDist::exponential(50.0), 2, 6);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let plan = w.sample_plan(&mut rng);
            let n = plan.rpc_count();
            assert!((2..=6).contains(&n));
            seen.insert(n);
        }
        assert_eq!(seen.len(), 5, "all of 2..=6 should occur");
    }

    #[test]
    fn plans_never_call_other_services() {
        let w = SyntheticWorkload::new(ServiceTimeDist::exponential(50.0), 2, 6);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(w.sample_plan(&mut rng).callees().count(), 0);
        }
    }

    #[test]
    fn paper_suite_means_align() {
        for (name, w) in SyntheticWorkload::paper_suite(100.0) {
            let mean = w.service_time.mean();
            assert!(
                (90.0..110.0).contains(&mean),
                "{name} mean {mean} should be ~100"
            );
        }
    }

    #[test]
    fn bimodal_suite_has_long_mode() {
        let [_, _, (_, bim)] = SyntheticWorkload::paper_suite(100.0);
        let mut rng = SmallRng::seed_from_u64(8);
        let long = (0..10_000)
            .filter(|_| bim.sample_plan(&mut rng).compute_us() > 300.0)
            .count();
        let frac = long as f64 / 10_000.0;
        assert!((0.08..0.12).contains(&frac), "long fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_rejected() {
        SyntheticWorkload::new(ServiceTimeDist::exponential(1.0), 6, 2);
    }
}
