//! Results of a system run.

use um_sim::trace::Component;
use um_stats::{Samples, Summary};

/// Cycle-exact latency-conservation accounting, maintained on every run
/// (tracing enabled or not). The invariant: each request's breakdown
/// components sum to its end-to-end lifetime exactly, so the totals match
/// and the max per-request error is zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConservationStats {
    /// Requests (roots and RPC children) whose breakdowns were checked.
    pub checked: u64,
    /// Largest per-request |breakdown total - end-to-end| seen, cycles.
    /// Non-zero means an attribution bug; debug builds assert on it at
    /// the offending request.
    pub max_error_cycles: u64,
    /// Sum of breakdown totals over all checked requests, cycles.
    pub breakdown_cycles: u128,
    /// Sum of end-to-end lifetimes over all checked requests, cycles.
    pub end_to_end_cycles: u128,
}

impl ConservationStats {
    /// Whether conservation held exactly for every checked request.
    pub fn exact(&self) -> bool {
        self.max_error_cycles == 0 && self.breakdown_cycles == self.end_to_end_cycles
    }
}

/// Measured per-component latency digests over recorded root requests
/// (each root's breakdown includes its merged RPC children), microseconds.
/// Produced when [`crate::SimConfig::trace`] is enabled.
#[derive(Clone, Debug)]
pub struct BreakdownReport {
    /// One digest per [`Component`], indexed by [`Component::index`].
    components: Vec<Summary>,
}

impl BreakdownReport {
    /// Digests per-component sample sets (indexed by [`Component::index`]).
    ///
    /// # Panics
    ///
    /// Panics unless `samples` has exactly [`Component::COUNT`] entries.
    pub fn from_samples(samples: &[Samples]) -> Self {
        assert_eq!(
            samples.len(),
            Component::COUNT,
            "one sample set per component"
        );
        Self {
            components: samples.iter().map(Samples::summary).collect(),
        }
    }

    /// The digest for one component.
    pub fn component(&self, c: Component) -> &Summary {
        &self.components[c.index()]
    }

    /// Iterates `(component, digest)` pairs in [`Component::ALL`] order.
    pub fn components(&self) -> impl Iterator<Item = (Component, &Summary)> {
        Component::ALL.iter().map(|&c| (c, self.component(c)))
    }

    /// The component with the largest mean share — "what dominates
    /// latency" for golden-shape assertions.
    pub fn dominant(&self) -> Component {
        Component::ALL
            .iter()
            .copied()
            .max_by(|&a, &b| self.component(a).mean.total_cmp(&self.component(b).mean))
            .expect("ALL is nonempty")
    }

    /// Sum of per-component means, microseconds — equals the mean
    /// end-to-end latency when conservation holds (up to f64 rounding in
    /// the cycle->us conversion).
    pub fn mean_total_us(&self) -> f64 {
        Component::ALL.iter().map(|&c| self.component(c).mean).sum()
    }
}

/// Fault-injection and tail-mitigation accounting for one run. All zeros
/// for a healthy run with mitigation off (except `rpc_ops`/`rpc_attempts`,
/// which count every blocking RPC operation and its primary issues).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Blocking RPC operations begun (storage reads + service calls).
    pub rpc_ops: u64,
    /// Attempts issued across all operations (primaries + hedges +
    /// retries).
    pub rpc_attempts: u64,
    /// Hedge (backup) attempts issued.
    pub hedges: u64,
    /// Retry attempts issued after a timeout.
    pub retries: u64,
    /// Losing attempts: deliveries that arrived after their operation had
    /// already resolved (or been abandoned).
    pub wasted_attempts: u64,
    /// Message legs lost to injected drops.
    pub drops: u64,
    /// Operations that exhausted their attempts and were abandoned.
    pub gave_up_ops: u64,
    /// Root requests that completed in a gave-up state (excluded from
    /// latency samples).
    pub gave_up_requests: u64,
    /// Cores removed by fail-stop events.
    pub cores_failed: u64,
    /// Plan events that took effect (installed or fired).
    pub faults_applied: u64,
    /// Plan events that could not take effect (out-of-range target, or a
    /// fail-stop refused to kill a village's last core).
    pub faults_masked: u64,
}

/// Aggregated results of one [`crate::SystemSim`] run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// End-to-end client latency digest, microseconds.
    pub latency: Summary,
    /// Raw end-to-end latency samples, microseconds.
    pub latency_samples: Samples,
    /// Village-queue waiting time digest (per dispatch), microseconds.
    pub queueing: Summary,
    /// Completed external requests.
    pub completed: u64,
    /// External requests recorded (completed after warm-up).
    pub recorded: u64,
    /// Mean core utilization across the run in `\[0, 1\]`.
    pub utilization: f64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Work steals performed (software machines with stealing enabled).
    pub steals: u64,
    /// Requests that found a full hardware RQ and waited in the NIC.
    pub rq_overflows: u64,
    /// Service instances booted by the autoscaler (0 unless enabled).
    pub instance_boots: u64,
    /// Total ICN messages.
    pub icn_messages: u64,
    /// Mean ICN queueing delay per message, cycles.
    pub icn_mean_queue_cycles: f64,
    /// Latency-conservation accounting (always maintained).
    pub conservation: ConservationStats,
    /// Fault-injection and mitigation accounting (always maintained).
    pub faults: FaultStats,
    /// Per-component latency digests; `Some` when tracing was enabled.
    pub breakdown: Option<BreakdownReport>,
}

impl RunReport {
    /// Tail latency (P99) in microseconds.
    pub fn tail_us(&self) -> f64 {
        self.latency.p99
    }

    /// Average latency in microseconds.
    pub fn avg_us(&self) -> f64 {
        self.latency.mean
    }

    /// Tail-to-average ratio (Figure 17).
    pub fn tail_to_avg(&self) -> f64 {
        self.latency.tail_to_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_mirror_summary() {
        let samples: Samples = (1..=100).map(f64::from).collect();
        let report = RunReport {
            latency: samples.summary(),
            latency_samples: samples,
            queueing: Summary::default(),
            completed: 100,
            recorded: 100,
            utilization: 0.5,
            ctx_switches: 0,
            steals: 0,
            rq_overflows: 0,
            instance_boots: 0,
            icn_messages: 0,
            icn_mean_queue_cycles: 0.0,
            conservation: ConservationStats::default(),
            faults: FaultStats::default(),
            breakdown: None,
        };
        assert_eq!(report.tail_us(), 99.0);
        assert_eq!(report.avg_us(), 50.5);
        assert!(report.tail_to_avg() > 1.0);
        assert!(report.conservation.exact(), "empty accounting is exact");
    }

    #[test]
    fn breakdown_report_digests_components() {
        let mut samples: Vec<Samples> = (0..Component::COUNT).map(|_| Samples::new()).collect();
        samples[Component::Compute.index()].record(10.0);
        samples[Component::Compute.index()].record(20.0);
        samples[Component::QueueWait.index()].record(4.0);
        let bd = BreakdownReport::from_samples(&samples);
        assert_eq!(bd.component(Component::Compute).mean, 15.0);
        assert_eq!(bd.component(Component::QueueWait).count, 1);
        assert_eq!(bd.dominant(), Component::Compute);
        assert_eq!(bd.mean_total_us(), 19.0);
        assert_eq!(bd.components().count(), Component::COUNT);
    }

    #[test]
    fn conservation_exactness() {
        let ok = ConservationStats {
            checked: 10,
            max_error_cycles: 0,
            breakdown_cycles: 1_000,
            end_to_end_cycles: 1_000,
        };
        assert!(ok.exact());
        assert!(!ConservationStats {
            max_error_cycles: 1,
            ..ok
        }
        .exact());
        assert!(!ConservationStats {
            breakdown_cycles: 999,
            ..ok
        }
        .exact());
    }
}
