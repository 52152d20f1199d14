//! What a run is configured with, where its client arrivals come from, and
//! how its latency breakdowns are checked and collected.

use super::*;
use crate::report::ConservationStats;
use crate::workload::Workload;
use um_arch::config::MachineConfig;
use um_sched::MitigationConfig;
use um_sim::fault::FaultPlan;
use um_workload::PoissonArrivals;

/// Configuration of one system run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The machine in every server.
    pub machine: MachineConfig,
    /// Request workload.
    pub workload: Workload,
    /// External request rate per server, requests per second.
    pub rps_per_server: f64,
    /// Number of servers in the cluster.
    pub servers: usize,
    /// Arrival horizon in microseconds; requests arriving before it are
    /// all simulated to completion.
    pub horizon_us: f64,
    /// Requests arriving before this time are executed but not recorded
    /// (cache/queue warm-up).
    pub warmup_us: f64,
    /// Master random seed; same seed, same results.
    pub seed: u64,
    /// Overrides the number of queues (villages) per server — the Figure 3
    /// sweep. Cores are redistributed evenly.
    pub queues_override: Option<usize>,
    /// Allow idle cores to steal from other queues (software scheduling
    /// only; Figure 3).
    pub work_stealing: bool,
    /// Model ICN link contention (disable for Figure 7's normalization
    /// baseline).
    pub icn_contention: bool,
    /// Run-to-completion mode: a core is held while its request blocks on
    /// an RPC and the request resumes in place (no context switches).
    /// This is §3.2's queueing experiment setup (Figure 3), where the
    /// queue structure is isolated from context-switch effects.
    pub hold_core_while_blocked: bool,
    /// Dequeue ordering. The hardware RQ serves FCFS (§4.3); SRPT is the
    /// alternative the paper argues brings little for microservices — the
    /// `ablation_srpt` bench checks that claim.
    pub dequeue_policy: um_sched::DequeuePolicy,
    /// External arrival process: Poisson (the paper's evaluation) or the
    /// bursty MMPP the Alibaba characterization motivates (§3.2).
    pub arrivals: ArrivalProcess,
    /// Instance autoscaling: when a service's village queue runs hot, the
    /// system software boots another instance in a different village,
    /// reading its snapshot from the cluster memory pool when present
    /// (§3.5/§4.1) and cold-booting otherwise.
    pub autoscale: bool,
    /// Collect per-component latency distributions (the measured Figure
    /// 3/6 breakdowns) into [`crate::RunReport::breakdown`]. Cycle attribution
    /// and the conservation check run unconditionally — they are plain
    /// integer adds on state the event handlers already touch — but the
    /// per-request sample recording is gated here.
    pub trace: bool,
    /// Scheduled faults for this run. [`FaultPlan::none`] (the default)
    /// leaves the run bit-identical to one predating fault injection:
    /// the plan adds no events, no RNG draws and no charges.
    pub fault_plan: FaultPlan,
    /// Tail-mitigation policies (hedging, timeout/retry, steering). The
    /// default disables all of them; an all-off config likewise changes
    /// nothing about a run.
    pub mitigation: MitigationConfig,
}

/// How external requests arrive at each server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times at the configured rate (§5).
    Poisson,
    /// Two-state Markov-modulated bursts with the configured long-run
    /// rate (the Figure 2 burstiness).
    Bursty,
    /// No self-generated arrivals: an outer driver (the cluster layer's
    /// load balancer) feeds requests in via [`SystemSim::inject_arrival`]
    /// and steps the package with [`SystemSim::step`].
    Injected,
}

impl ArrivalProcess {
    /// Arrival times in microseconds before `horizon_us` at `rate_rps`,
    /// drawn from `seed`; none for [`ArrivalProcess::Injected`].
    pub(crate) fn times(self, rate_rps: f64, seed: u64, horizon_us: f64) -> Vec<f64> {
        match self {
            ArrivalProcess::Poisson => PoissonArrivals::new(rate_rps, seed).within(horizon_us),
            ArrivalProcess::Bursty => {
                um_workload::Mmpp::alibaba_like(rate_rps, seed).within(horizon_us)
            }
            // An outer driver injects arrivals one by one.
            ArrivalProcess::Injected => Vec::new(),
        }
    }
}

/// A run's pre-drawn external arrivals, read in time order straight from
/// their per-source streams instead of waiting in the event queue.
///
/// The order is the one scheduling every arrival up front gave: at a tied
/// cycle an arrival comes before any queued event, and across sources the
/// lower index comes first. So an arrival is due when its time is no later
/// than the queue's next event, and the streams merge lazily, by a linear
/// scan for the least `(time, source)` head.
#[derive(Clone, Debug)]
pub(crate) struct ArrivalCursor {
    /// One non-decreasing stream of arrival times per source.
    streams: Vec<Vec<Cycles>>,
    /// Next unread position in each stream.
    next: Vec<usize>,
    /// The earliest unread arrival, `(time, source)`.
    head: Option<(Cycles, usize)>,
}

impl ArrivalCursor {
    pub(crate) fn new(streams: Vec<Vec<Cycles>>) -> Self {
        let mut cursor = Self {
            next: vec![0; streams.len()],
            streams,
            head: None,
        };
        cursor.head = cursor.scan();
        cursor
    }

    /// The least `(time, source)` over the streams' unread heads.
    fn scan(&self) -> Option<(Cycles, usize)> {
        let mut best: Option<(Cycles, usize)> = None;
        for (source, stream) in self.streams.iter().enumerate() {
            if let Some(&t) = stream.get(self.next[source]) {
                if best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, source));
                }
            }
        }
        best
    }

    /// Every arrival of stream `source`, read or not.
    pub(crate) fn stream(&self, source: usize) -> &[Cycles] {
        &self.streams[source]
    }

    /// Time of the next arrival, if any is left.
    pub(crate) fn peek(&self) -> Option<Cycles> {
        self.head.map(|(t, _)| t)
    }

    /// Takes the next arrival, `(time, source)`, if it is due no later
    /// than `queue`'s next event.
    pub(crate) fn pop_due<E>(&mut self, queue: &EventQueue<E>) -> Option<(Cycles, usize)> {
        let (t, source) = self.head?;
        if queue.peek_time().is_some_and(|e| e < t) {
            return None;
        }
        self.next[source] += 1;
        self.head = self.scan();
        Some((t, source))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::umanycore(),
            workload: Workload::social_mix(),
            rps_per_server: 5_000.0,
            servers: 1,
            horizon_us: 50_000.0,
            warmup_us: 5_000.0,
            seed: 42,
            queues_override: None,
            work_stealing: false,
            icn_contention: true,
            hold_core_while_blocked: false,
            dequeue_policy: um_sched::DequeuePolicy::Fcfs,
            arrivals: ArrivalProcess::Poisson,
            autoscale: false,
            trace: false,
            fault_plan: FaultPlan::none(),
            mitigation: MitigationConfig::default(),
        }
    }
}

impl SimConfig {
    /// Each server's client arrivals in cycles, pre-drawn from the
    /// server's own stream.
    pub(super) fn arrival_streams(&self) -> Vec<Vec<Cycles>> {
        let freq = self.machine.core.frequency;
        (0..self.servers)
            .map(|s| {
                let seed =
                    simrng::stream_indexed(self.seed, "server-arrivals", s as u64).gen::<u64>();
                let times = self
                    .arrivals
                    .times(self.rps_per_server, seed, self.horizon_us);
                times
                    .into_iter()
                    .map(|t| Cycles::from_micros(t, freq))
                    .collect()
            })
            .collect()
    }
}

/// Run-wide latency-provenance accounting: the conservation invariant
/// (checked for every finished request) plus, when tracing is enabled,
/// per-component sample sets over recorded root requests.
#[derive(Clone, Debug, Default)]
pub(crate) struct BreakdownCollector {
    /// One sample set per [`Component`], indexed by [`Component::index`].
    pub(crate) samples: Vec<Samples>,
    /// Whether to collect samples (the [`SimConfig::trace`] gate).
    collect: bool,
    checked: u64,
    max_error_cycles: u64,
    breakdown_cycles: u128,
    end_to_end_cycles: u128,
}

impl BreakdownCollector {
    pub(crate) fn new(collect: bool) -> Self {
        Self {
            samples: (0..Component::COUNT).map(|_| Samples::new()).collect(),
            collect,
            ..Self::default()
        }
    }

    /// Verifies one finished request's conservation invariant: breakdown
    /// components must sum to the end-to-end lifetime, to the cycle.
    pub(crate) fn check(&mut self, bd: &LatencyBreakdown, end_to_end: Cycles) {
        let total = bd.total();
        self.checked += 1;
        self.breakdown_cycles += total.raw() as u128;
        self.end_to_end_cycles += end_to_end.raw() as u128;
        self.max_error_cycles = self
            .max_error_cycles
            .max(total.raw().abs_diff(end_to_end.raw()));
        debug_assert_eq!(
            total, end_to_end,
            "latency conservation violated: breakdown [{bd}] sums to {total:?}, \
             lifetime is {end_to_end:?}"
        );
    }

    /// Records a recorded root request's per-component shares, in
    /// microseconds (no-op unless collecting).
    pub(crate) fn record(&mut self, bd: &LatencyBreakdown, freq: um_sim::Frequency) {
        if !self.collect {
            return;
        }
        for (c, v) in bd.iter() {
            self.samples[c.index()].record(v.as_micros(freq));
        }
    }

    pub(crate) fn stats(&self) -> ConservationStats {
        ConservationStats {
            checked: self.checked,
            max_error_cycles: self.max_error_cycles,
            breakdown_cycles: self.breakdown_cycles,
            end_to_end_cycles: self.end_to_end_cycles,
        }
    }
}
