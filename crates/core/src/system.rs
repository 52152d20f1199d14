//! The full-system discrete-event simulator.
//!
//! One [`SystemSim`] models a cluster of servers, each carrying one package
//! of the configured machine (ServerClass / ScaleOut / uManycore). External
//! client requests arrive per server as a Poisson process; each request
//! executes its sampled plan — compute segments separated by blocking
//! storage RPCs and synchronous service calls — on the village/queue fabric
//! of the machine, paying that machine's scheduling, context-switch,
//! RPC-processing, coherence and interconnect costs.

use crate::params;
use crate::report::{BreakdownReport, ConservationStats, FaultStats, RunReport};
use crate::request::{Origin, Phase, ReqId, Request, Slots};
use crate::workload::Workload;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use um_arch::coherence::CoherenceModel;
use um_arch::config::{CoherenceDomain, IcnKind, MachineConfig};
use um_arch::ServiceMap;
use um_net::{ExternalNetwork, FatTree, LeafSpine, Mesh2D, Network, NetworkConfig};
use um_sched::{Dispatcher, MitigationConfig, RequestQueue, RetryBudget};
use um_sim::fault::{FaultEvent, FaultPlan};
use um_sim::trace::{Component, LatencyBreakdown};
use um_sim::{rng as simrng, Cycles, EventQueue};
use um_stats::Samples;
use um_workload::{PoissonArrivals, RpcKind, ServiceId};

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
    /// 3/6 breakdowns) into [`RunReport::breakdown`]. Cycle attribution
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

/// Run-wide latency-provenance accounting: the conservation invariant
/// (checked for every finished request) plus, when tracing is enabled,
/// per-component sample sets over recorded root requests.
#[derive(Clone, Debug)]
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
            checked: 0,
            max_error_cycles: 0,
            breakdown_cycles: 0,
            end_to_end_cycles: 0,
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

/// Any of the three on-package networks, unified behind one send surface.
#[derive(Clone, Debug)]
enum Icn {
    Mesh(Network<Mesh2D>),
    Fat(Network<FatTree>),
    Leaf(Network<LeafSpine>),
}

impl Icn {
    fn send(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles) -> Cycles {
        match self {
            Icn::Mesh(n) => n.send(src, dst, bytes, depart),
            Icn::Fat(n) => n.send(src, dst, bytes, depart),
            Icn::Leaf(n) => n.send(src, dst, bytes, depart),
        }
    }

    /// Summed queueing delay of `n` equal transfers departing together.
    fn send_burst(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles, n: u64) -> Cycles {
        match self {
            Icn::Mesh(net) => net.send_burst(src, dst, bytes, depart, n),
            Icn::Fat(net) => net.send_burst(src, dst, bytes, depart, n),
            Icn::Leaf(net) => net.send_burst(src, dst, bytes, depart, n),
        }
    }

    fn stats(&self) -> um_net::NetworkStats {
        match self {
            Icn::Mesh(n) => n.stats(),
            Icn::Fat(n) => n.stats(),
            Icn::Leaf(n) => n.stats(),
        }
    }

    fn hop_latency(&self) -> Cycles {
        match self {
            Icn::Mesh(n) => n.config().hop_latency,
            Icn::Fat(n) => n.config().hop_latency,
            Icn::Leaf(n) => n.config().hop_latency,
        }
    }

    /// Registers a fault window on a link (index taken modulo the link
    /// count by the network layer).
    fn inject_link_fault(&mut self, link: usize, window: um_sim::fault::FaultWindow) {
        match self {
            Icn::Mesh(n) => n.inject_link_fault(link, window),
            Icn::Fat(n) => n.inject_link_fault(link, window),
            Icn::Leaf(n) => n.inject_link_fault(link, window),
        }
    }
}

/// Per-village queue state.
#[derive(Clone, Debug)]
enum VillageQueue {
    /// uManycore: hardware RQ plus the NIC overflow buffer (§4.3).
    Hardware {
        rq: RequestQueue<ReqId>,
        nic_buffer: VecDeque<ReqId>,
    },
    /// Baselines: a software FCFS ready queue.
    Software { ready: VecDeque<ReqId> },
}

#[derive(Clone, Debug)]
struct Village {
    /// The core microarchitecture this village's cores implement (§8's
    /// heterogeneous-villages extension; homogeneous machines use the
    /// package core everywhere).
    core: um_arch::CoreModel,
    /// First cluster this village's cores live in.
    cluster: usize,
    /// Number of consecutive clusters the village spans (a logical queue
    /// larger than one cluster — the Figure 3 override — has cores in
    /// several physical clusters).
    cluster_span: usize,
    idle_cores: usize,
    cores: usize,
    /// Fail-stop kills waiting for a busy core to free: the next
    /// `CoreFree` is absorbed instead of returning the core to the pool.
    kill_pending: usize,
    queue: VillageQueue,
    /// Software queues are protected by a lock whose critical section
    /// scales with the sharer count (§3.2's synchronization overheads);
    /// hardware RQs arbitrate in the Dequeue instruction (zero here).
    lock_cycles: Cycles,
    lock_free_at: Cycles,
}

impl Village {
    /// Serializes one queue operation starting at `now`; returns when the
    /// operation completes.
    fn queue_op(&mut self, now: Cycles) -> Cycles {
        if self.lock_cycles == Cycles::ZERO {
            return now;
        }
        let start = now.max(self.lock_free_at);
        self.lock_free_at = start + self.lock_cycles;
        self.lock_free_at
    }
}

#[derive(Clone, Debug)]
struct Server {
    villages: Vec<Village>,
    icn: Icn,
    dispatcher: Option<Dispatcher>,
    service_map: ServiceMap,
    busy_cycles: u128,
    /// One snapshot memory pool per cluster (§4.1); pre-populated with
    /// every service's snapshot when the machine carries pools.
    pools: Vec<um_mem::pool::MemoryPool>,
    /// Services with an instance boot in flight (stampede guard).
    booting: std::collections::BTreeSet<u32>,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A root request handed over by the cluster layer's load balancer:
    /// delivered like a client arrival, but its completion is pushed into
    /// the node's outbox under `token` instead of ending at the package
    /// edge (no client-RTT charge — the rack fabric legs are the cluster
    /// layer's to account).
    InjectedArrival {
        server: usize,
        token: u64,
    },
    Enqueue {
        req: ReqId,
    },
    SegmentDone {
        req: ReqId,
    },
    Unblock {
        req: ReqId,
    },
    CoreFree {
        server: usize,
        village: usize,
    },
    /// A freshly booted service instance comes online in a village.
    InstanceReady {
        server: usize,
        service: u32,
        village: usize,
    },
    /// A scheduled fail-stop: one core of the village dies.
    CoreFail {
        server: usize,
        village: usize,
    },
    /// A storage attempt's response arrives. The legs were computed at
    /// issue time but are charged here, at delivery, so a losing attempt
    /// (late retry, wasted hedge) never touches the breakdown.
    StorageDone {
        req: ReqId,
        /// Operation generation the attempt belongs to.
        gen: u32,
        /// On-package egress+ingress share of the blocked interval.
        icn: Cycles,
        /// External-fabric share.
        ext: Cycles,
        /// Storage service-time share.
        storage: Cycles,
        /// Issue delay relative to the operation start (0 for a primary
        /// attempt), charged to `Component::Resilience` if this attempt
        /// wins.
        resilience: Cycles,
    },
    /// A hedging policy's backup-issue point for an operation.
    HedgeFire {
        req: ReqId,
        gen: u32,
    },
    /// An attempt's timeout: retry or give up unless the operation has
    /// resolved.
    RpcTimeout {
        req: ReqId,
        gen: u32,
    },
}

/// A finished injected root request, reported back to the cluster layer
/// through [`SystemSim::drain_completions`].
#[derive(Clone, Copy, Debug)]
pub struct NodeCompletion {
    /// The token passed to [`SystemSim::inject_arrival`].
    pub token: u64,
    /// When the response cleared the package edge (last ICN egress hop
    /// included) — the instant the rack fabric takes over.
    pub finished_at: Cycles,
    /// The request's full in-package breakdown; its total equals
    /// `finished_at` minus the injection time, to the cycle.
    pub breakdown: LatencyBreakdown,
    /// Whether the request exhausted its RPC attempts (an error response,
    /// not a latency sample).
    pub gave_up: bool,
}

/// The full-system simulator. Construct with [`SystemSim::new`], run with
/// [`SystemSim::run`]; or drive it as one node of a rack — step by step,
/// with arrivals injected by a load balancer — via
/// [`SystemSim::next_event_time`], [`SystemSim::step`],
/// [`SystemSim::inject_arrival`] and [`SystemSim::drain_completions`].
pub struct SystemSim {
    cfg: SimConfig,
    events: EventQueue<Event>,
    /// The package's own client arrivals (none for injected runs).
    arrivals: ArrivalCursor,
    /// The request table: one slot per request in flight, recycled once
    /// the request is done and unpinned.
    requests: Slots<Request>,
    /// Requests admitted so far (roots and children).
    admitted: u64,
    servers: Vec<Server>,
    external: ExternalNetwork,
    coherence: CoherenceModel,
    rng: SmallRng,
    /// Separate stream for fault decisions (drop sampling, fail-slow core
    /// assignment) so a fault plan never perturbs the healthy-run draws.
    fault_rng: SmallRng,
    /// Cached [`FaultPlan::drop_probability`].
    drop_p: f64,
    retry_budget: RetryBudget,
    horizon: Cycles,
    warmup: Cycles,
    // Statistics.
    latency: Samples,
    queueing: Samples,
    completed: u64,
    recorded: u64,
    ctx_switches: u64,
    steals: u64,
    rq_overflows: u64,
    instance_boots: u64,
    faults: FaultStats,
    breakdown: BreakdownCollector,
    /// Finished injected requests awaiting pickup by the cluster layer.
    completions: Vec<NodeCompletion>,
}

impl SystemSim {
    /// Builds the cluster and pre-draws all external arrivals.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero servers, zero rate,
    /// queue override that does not divide the core count).
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.servers > 0, "need at least one server");
        assert!(cfg.horizon_us > 0.0, "need a positive horizon");
        assert!(
            cfg.warmup_us < cfg.horizon_us,
            "warm-up must end before the horizon"
        );
        let freq = cfg.machine.core.frequency;
        let total_cores = cfg.machine.total_cores();

        // Queue layout: villages per server, either from the machine shape
        // or from the Figure 3 override.
        let n_villages = match cfg.queues_override {
            Some(q) => {
                assert!(
                    q >= 1 && total_cores.is_multiple_of(q),
                    "queue override {q} must divide {total_cores} cores"
                );
                q
            }
            None => cfg.machine.shape.total_villages(),
        };
        let cores_per_village = total_cores / n_villages;
        let clusters = cfg.machine.shape.clusters;

        let net_config = if cfg.icn_contention {
            NetworkConfig {
                seed: cfg.seed,
                ..NetworkConfig::on_package()
            }
        } else {
            NetworkConfig {
                seed: cfg.seed,
                ..NetworkConfig::contention_free()
            }
        };

        let services = cfg.workload.services();
        let mut servers = Vec::with_capacity(cfg.servers);
        for _ in 0..cfg.servers {
            let icn = match cfg.machine.icn {
                IcnKind::Mesh => Icn::Mesh(Network::new(Mesh2D::near_square(clusters), net_config)),
                IcnKind::FatTree => Icn::Fat(Network::new(FatTree::new(clusters), net_config)),
                IcnKind::LeafSpine => {
                    // Keep 4-way pods when possible, as in Figure 12.
                    let pods = if clusters.is_multiple_of(8) {
                        clusters / 8
                    } else {
                        1
                    };
                    let leaves = clusters / pods;
                    Icn::Leaf(Network::new(LeafSpine::new(pods, leaves, 4, 8), net_config))
                }
            };
            let lock_cycles = if cfg.machine.hw_scheduling {
                Cycles::ZERO
            } else {
                // Cache-line ping-pong makes the critical section grow
                // linearly with the sharer count: the §3.2 argument
                // against one fully-centralized queue.
                Cycles::new(
                    (crate::params::SW_QUEUE_LOCK_CYCLES_PER_SHARER * cores_per_village as f64)
                        as u64,
                )
            };
            let cluster_span = (clusters / n_villages).max(1);
            let villages: Vec<Village> = (0..n_villages)
                .map(|v| Village {
                    core: match cfg.machine.village_cores {
                        um_arch::config::VillageCores::Heterogeneous {
                            big_villages,
                            big_core,
                        } if v < big_villages => big_core,
                        _ => cfg.machine.core,
                    },
                    cluster: v * clusters / n_villages,
                    cluster_span,
                    idle_cores: cores_per_village,
                    cores: cores_per_village,
                    kill_pending: 0,
                    queue: if cfg.machine.hw_scheduling {
                        VillageQueue::Hardware {
                            rq: RequestQueue::new(cfg.machine.rq_capacity),
                            nic_buffer: VecDeque::new(),
                        }
                    } else {
                        VillageQueue::Software {
                            ready: VecDeque::new(),
                        }
                    },
                    lock_cycles,
                    lock_free_at: Cycles::ZERO,
                })
                .collect();
            // ServiceMap: uManycore partitions services across villages;
            // baselines deploy every service everywhere and pick queues
            // uniformly at random (§3.2's experiment setup). With
            // heterogeneous villages (§8), the big-core villages are
            // reserved for the heaviest-handler services.
            let mut service_map = ServiceMap::new();
            if cfg.machine.hw_scheduling && n_villages >= services.len() {
                let mut order = services.clone();
                order.sort_by(|a, b| {
                    cfg.workload
                        .service_weight(*b)
                        .total_cmp(&cfg.workload.service_weight(*a))
                });
                let big = match cfg.machine.village_cores {
                    um_arch::config::VillageCores::Heterogeneous { big_villages, .. } => {
                        big_villages.min(n_villages.saturating_sub(services.len()))
                    }
                    um_arch::config::VillageCores::Homogeneous => 0,
                };
                let heavy_count = (services.len() / 3).max(1);
                for v in 0..n_villages {
                    let svc = if v < big {
                        order[v % heavy_count]
                    } else {
                        order[(v - big) % services.len()]
                    };
                    service_map.register(svc.raw(), v);
                }
            } else {
                for svc in &services {
                    for v in 0..n_villages {
                        service_map.register(svc.raw(), v);
                    }
                }
            }
            // Snapshot pools: ~14 MB per service (paper: <16 MB), one
            // 256 MB pool per cluster, pre-populated when the machine has
            // pools; a 1-byte pool otherwise makes every boot cold.
            let pools = (0..clusters)
                .map(|_| {
                    if cfg.machine.memory_pool {
                        let mut pool = um_mem::pool::MemoryPool::new(256 * 1024 * 1024);
                        for svc in &services {
                            pool.store(svc.raw(), 14 * 1024 * 1024)
                                .expect("pool sized for all services");
                        }
                        pool
                    } else {
                        um_mem::pool::MemoryPool::new(1)
                    }
                })
                .collect();
            servers.push(Server {
                villages,
                icn,
                dispatcher: Dispatcher::for_model(cfg.machine.ctx_switch, total_cores),
                service_map,
                busy_cycles: 0,
                pools,
                booting: std::collections::BTreeSet::new(),
            });
        }

        let coherence = match cfg.machine.coherence {
            CoherenceDomain::Village => CoherenceModel::village(),
            CoherenceDomain::Global if total_cores > 256 => CoherenceModel::global_1024(),
            CoherenceDomain::Global => CoherenceModel::global_small(total_cores),
        };

        // Arrivals stay in their pre-drawn streams (the cursor feeds them
        // in), so the queue holds only in-flight events; its pooled arena
        // grows to that peak once and then recycles nodes.
        let mut events = EventQueue::new();
        let arrivals = ArrivalCursor::new(
            (0..cfg.servers)
                .map(|s| {
                    let seed =
                        simrng::stream_indexed(cfg.seed, "server-arrivals", s as u64).gen::<u64>();
                    let times = cfg.arrivals.times(cfg.rps_per_server, seed, cfg.horizon_us);
                    times
                        .into_iter()
                        .map(|t| Cycles::from_micros(t, freq))
                        .collect()
                })
                .collect(),
        );

        // The external fabric connects the cluster's servers plus the
        // storage tier (index = cfg.servers).
        let external = ExternalNetwork::paper_default(cfg.servers + 1, freq);

        // Install the fault plan: link faults and drop probabilities take
        // effect (are "applied") at install time, fail-stops when their
        // CoreFail event fires; anything aimed at a nonexistent target is
        // masked. The fault-accounting sanitizer checks that every plan
        // event ends up in exactly one of the two buckets.
        let mut faults = FaultStats::default();
        for event in cfg.fault_plan.events() {
            match *event {
                FaultEvent::CoreFailStop {
                    server,
                    village,
                    at,
                } => {
                    if server < cfg.servers && village < n_villages {
                        events.schedule_at(at, Event::CoreFail { server, village });
                    } else {
                        faults.faults_masked += 1;
                    }
                }
                FaultEvent::CoreFailSlow {
                    server, village, ..
                } => {
                    if server < cfg.servers && village < n_villages {
                        faults.faults_applied += 1;
                    } else {
                        faults.faults_masked += 1;
                    }
                }
                FaultEvent::LinkFault {
                    server,
                    link,
                    window,
                } => {
                    if server < cfg.servers {
                        servers[server].icn.inject_link_fault(link, window);
                        faults.faults_applied += 1;
                    } else {
                        faults.faults_masked += 1;
                    }
                }
                FaultEvent::MessageDrops { .. } => faults.faults_applied += 1,
            }
        }

        Self {
            horizon: Cycles::from_micros(cfg.horizon_us, freq),
            warmup: Cycles::from_micros(cfg.warmup_us, freq),
            external,
            coherence,
            rng: simrng::stream(cfg.seed, "system"),
            fault_rng: simrng::stream(cfg.seed, "fault"),
            drop_p: cfg.fault_plan.drop_probability(),
            retry_budget: RetryBudget::new(cfg.mitigation.retry.map_or(0.0, |r| r.budget_fraction)),
            events,
            arrivals,
            requests: Slots::new(),
            admitted: 0,
            servers,
            latency: Samples::new(),
            queueing: Samples::new(),
            completed: 0,
            recorded: 0,
            ctx_switches: 0,
            steals: 0,
            rq_overflows: 0,
            instance_boots: 0,
            faults,
            breakdown: BreakdownCollector::new(cfg.trace),
            completions: Vec::new(),
            cfg,
        }
    }

    /// Runs the simulation to completion (all admitted requests finish)
    /// and returns the report.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        self.finish()
    }

    /// The time of the next pending event, if any. A cluster driver uses
    /// this to interleave node steps with its own events on one global
    /// clock.
    pub fn next_event_time(&self) -> Option<Cycles> {
        let queued = self.events.peek_time();
        match self.arrivals.peek() {
            Some(t) => Some(queued.map_or(t, |q| q.min(t))),
            None => queued,
        }
    }

    /// Hands a root request over to this package at time `at` (the instant
    /// the rack fabric delivered it to server `server`'s NIC). The
    /// completion surfaces in [`SystemSim::drain_completions`] under
    /// `token` once the response clears the package edge.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes an already-delivered event (the queue's
    /// monotonicity contract) or `server` is out of range.
    pub fn inject_arrival(&mut self, at: Cycles, server: usize, token: u64) {
        assert!(server < self.cfg.servers, "injected arrival server index");
        self.events
            .schedule_at(at, Event::InjectedArrival { server, token });
    }

    /// Finished injected requests since the last drain, in completion
    /// order.
    pub fn drain_completions(&mut self) -> Vec<NodeCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Delivers the next pending event: the next client arrival when it
    /// is due no later than the queue's next event, else the queue's next
    /// event. Returns `false` when both are exhausted (the run is complete
    /// until more arrivals are injected).
    pub fn step(&mut self) -> bool {
        if let Some((now, server)) = self.arrivals.pop_due(&self.events) {
            self.on_client_arrival(server, now, None);
            return true;
        }
        let Some((now, event)) = self.events.pop() else {
            return false;
        };
        {
            match event {
                Event::InjectedArrival { server, token } => {
                    self.on_client_arrival(server, now, Some(token))
                }
                Event::Enqueue { req } => self.on_enqueue(req, now),
                Event::SegmentDone { req } => self.on_segment_done(req, now),
                Event::Unblock { req } => self.on_unblock(req, now),
                Event::CoreFree { server, village } => {
                    let v = &mut self.servers[server].villages[village];
                    if v.kill_pending > 0 {
                        // A fail-stop was waiting for this core: it dies
                        // instead of rejoining the pool.
                        v.kill_pending -= 1;
                    } else {
                        v.idle_cores += 1;
                        self.try_start(server, village, now);
                    }
                }
                Event::InstanceReady {
                    server,
                    service,
                    village,
                } => {
                    self.servers[server].booting.remove(&service);
                    self.servers[server].service_map.register(service, village);
                }
                Event::CoreFail { server, village } => self.on_core_fail(server, village),
                Event::StorageDone {
                    req,
                    gen,
                    icn,
                    ext,
                    storage,
                    resilience,
                } => {
                    self.on_storage_done(req, gen, icn, ext, storage, resilience, now);
                    self.unpin(req);
                }
                Event::HedgeFire { req, gen } => {
                    self.on_hedge_fire(req, gen, now);
                    self.unpin(req);
                }
                Event::RpcTimeout { req, gen } => {
                    self.on_rpc_timeout(req, gen, now);
                    self.unpin(req);
                }
            }
        }
        true
    }

    // ---- request table -------------------------------------------------

    /// Admits a new request of `service`: takes a request slot (a freed
    /// one when there is one), samples the plan into the slot's segment
    /// buffer, and binds the request.
    fn admit(
        &mut self,
        service: ServiceId,
        origin: Origin,
        server: usize,
        village: usize,
    ) -> ReqId {
        self.admitted += 1;
        let (workload, rng) = (&self.cfg.workload, &mut self.rng);
        let Some(req) = self.requests.recycle() else {
            let plan = workload.sample_plan(service, rng);
            return self
                .requests
                .push(Request::new(plan, origin, server, village));
        };
        let r = &mut self.requests[req];
        // request-slots: a slot comes back only after its last request
        // finished and nothing named it any more.
        #[cfg(feature = "sim-sanitizer")]
        if r.phase != Phase::Done || r.pins != 0 {
            um_sim::sanitizer::report(
                "request-slots",
                format!(
                    "slot {req} reused while its request is {:?} with {} pins",
                    r.phase, r.pins
                ),
            );
        }
        workload.sample_plan_into(service, rng, &mut r.plan);
        r.rebind(origin, server, village);
        req
    }

    /// Records one more event or live child naming `req`.
    fn pin(&mut self, req: ReqId) {
        self.requests[req].pins += 1;
    }

    /// Drops one pin of `req` (its event was delivered, or its child
    /// completed) and frees the slot if the request is done.
    fn unpin(&mut self, req: ReqId) {
        let r = &mut self.requests[req];
        #[cfg(feature = "sim-sanitizer")]
        if r.pins == 0 {
            um_sim::sanitizer::report(
                "request-slots",
                format!("request {req} unpinned with no pins left"),
            );
        }
        debug_assert!(r.pins > 0, "request {req} unpinned with no pins left");
        r.pins = r.pins.saturating_sub(1);
        self.release_if_idle(req);
    }

    /// Frees `req`'s slot once nothing can name it again: the request is
    /// done and holds no pins.
    fn release_if_idle(&mut self, req: ReqId) {
        let r = &self.requests[req];
        if r.phase == Phase::Done && r.pins == 0 {
            self.requests.release(req);
        }
    }

    // ---- unit helpers -------------------------------------------------

    fn freq(&self) -> um_sim::Frequency {
        self.cfg.machine.core.frequency
    }

    /// Wall-clock microseconds (network, storage) to cycles.
    fn wall_cycles(&self, us: f64) -> Cycles {
        Cycles::from_micros(us, self.freq())
    }

    fn rpc_proc_us(&self) -> f64 {
        if self.cfg.machine.hw_scheduling {
            params::HW_RPC_PROC_US
        } else {
            params::SW_RPC_PROC_US
        }
    }

    fn rpc_msg_us(&self) -> f64 {
        if self.cfg.machine.hw_scheduling {
            params::HW_RPC_MSG_US
        } else {
            params::SW_RPC_MSG_US
        }
    }

    fn cs_half(&self) -> Cycles {
        self.cfg.machine.ctx_switch.half_cost()
    }

    /// The physical cluster a request's core sits in: villages narrower
    /// than a cluster have one; logical queues spanning several clusters
    /// (queue overrides) place cores across the span.
    fn core_cluster(&mut self, server: usize, village: usize) -> usize {
        let v = &self.servers[server].villages[village];
        if v.cluster_span <= 1 {
            v.cluster
        } else {
            v.cluster + self.rng.gen_range(0..v.cluster_span)
        }
    }

    /// Whether the machine's read-mostly state sits in a per-cluster
    /// memory pool next to its villages (§4.1) — the combination that
    /// localizes memory traffic.
    fn has_local_pool(&self) -> bool {
        self.cfg.machine.coherence == CoherenceDomain::Village && self.cfg.machine.memory_pool
    }

    fn mem_bytes_per_us(&self) -> f64 {
        if self.has_local_pool() {
            // Snapshot/state reads served by the cluster pool; only the
            // residual (DRAM writes, cold misses) moves — and locally.
            params::MEM_BYTES_PER_US_VILLAGE
        } else if self.cfg.machine.kind == um_arch::config::MachineKind::ServerClass {
            // ServerClass's 4 MB of cache per core absorbs much of the
            // refetch traffic the small-cache manycores must replay.
            params::MEM_BYTES_PER_US_GLOBAL / 2.0
        } else {
            params::MEM_BYTES_PER_US_GLOBAL
        }
    }

    // ---- event handlers ------------------------------------------------

    fn on_client_arrival(&mut self, server: usize, now: Cycles, cluster_token: Option<u64>) {
        let service = self.cfg.workload.sample_root(&mut self.rng);
        let village = self.pick_village(server, service, now);
        let req = self.admit(service, Origin::Client { sent_at: now }, server, village);
        self.requests[req].cluster_token = cluster_token;
        // Top-level NIC ingress + one hop to the village's leaf, plus the
        // enqueue operation itself.
        let nic = self.wall_cycles(params::NIC_INGRESS_US);
        let hop = self.servers[server].icn.hop_latency();
        let op = self.cfg.machine.sched_op_cost;
        let ingress = nic + hop + op;
        {
            let r = &mut self.requests[req];
            r.spawned_at = now;
            r.breakdown.charge(Component::ExternalNet, nic);
            r.breakdown.charge(Component::IcnTransit, hop);
            r.breakdown.charge(Component::SchedOp, op);
        }
        self.events
            .schedule_at(now + ingress, Event::Enqueue { req });
    }

    fn pick_village(&mut self, server: usize, service: ServiceId, now: Cycles) -> usize {
        // Straggler-aware steering only engages when a fault plan exists:
        // a healthy run must take exactly the original dispatch path
        // (same draws, same round-robin cursor movement).
        let steer = self.cfg.mitigation.steer && !self.cfg.fault_plan.is_empty();
        if self.cfg.machine.hw_scheduling {
            let primary = self.servers[server]
                .service_map
                .dispatch(service.raw())
                .expect("every workload service is registered");
            if steer && self.cfg.fault_plan.is_degraded(server, primary, now) {
                let plan = &self.cfg.fault_plan;
                let srv = &self.servers[server];
                // Least-loaded healthy village still hosting the service;
                // ties break on the lower index (deterministic).
                if let Some(&v) = srv
                    .service_map
                    .villages(service.raw())
                    .iter()
                    .filter(|&&v| !plan.is_degraded(server, v, now))
                    .min_by_key(|&&v| (Self::queue_len(&srv.villages[v]), v))
                {
                    return v;
                }
            }
            primary
        } else {
            let n = self.servers[server].villages.len();
            if steer {
                let plan = &self.cfg.fault_plan;
                let healthy: Vec<usize> = (0..n)
                    .filter(|&v| !plan.is_degraded(server, v, now))
                    .collect();
                if !healthy.is_empty() && healthy.len() < n {
                    return healthy[self.rng.gen_range(0..healthy.len())];
                }
            }
            self.rng.gen_range(0..n)
        }
    }

    /// Occupancy of a village's ready queue (steering's load key).
    fn queue_len(v: &Village) -> usize {
        match &v.queue {
            VillageQueue::Hardware { rq, nic_buffer } => rq.len() + nic_buffer.len(),
            VillageQueue::Software { ready } => ready.len(),
        }
    }

    /// Village for a hedge (backup) attempt: prefer a healthy,
    /// least-loaded village other than `avoid`; fall back to `avoid` when
    /// it is the only host.
    fn pick_hedge_village(
        &mut self,
        server: usize,
        service: ServiceId,
        avoid: usize,
        now: Cycles,
    ) -> usize {
        let plan = &self.cfg.fault_plan;
        let srv = &self.servers[server];
        let candidates: Vec<usize> = if self.cfg.machine.hw_scheduling {
            srv.service_map.villages(service.raw()).to_vec()
        } else {
            (0..srv.villages.len()).collect()
        };
        candidates
            .iter()
            .copied()
            .filter(|&v| v != avoid)
            .min_by_key(|&v| {
                (
                    plan.is_degraded(server, v, now),
                    Self::queue_len(&srv.villages[v]),
                    v,
                )
            })
            .unwrap_or(avoid)
    }

    fn on_enqueue(&mut self, req: ReqId, now: Cycles) {
        // Software queues serialize the insert through their lock; batched
        // NIC-to-queue delivery keeps plain enqueues off the dispatcher
        // (the baselines use state-of-the-art NIC-to-core optimizations,
        // §5). Hardware enqueuing is done by the village NIC.
        let arrived = now;
        let now = {
            let (server, village) = (self.requests[req].server, self.requests[req].village);
            self.servers[server].villages[village].queue_op(now)
        };
        let (server, village) = {
            let r = &mut self.requests[req];
            r.breakdown.charge(Component::QueueWait, now - arrived);
            r.enqueued_at = now;
            r.phase = Phase::Queued;
            (r.server, r.village)
        };
        let service = self.requests[req].service().raw();
        let mut hot = false;
        match &mut self.servers[server].villages[village].queue {
            VillageQueue::Hardware { rq, nic_buffer } => {
                match rq.enqueue_at(service, req, now) {
                    Ok(slot) => self.requests[req].rq_slot = Some(slot),
                    Err(_) => {
                        self.rq_overflows += 1;
                        nic_buffer.push_back(req);
                    }
                }
                // Autoscaling watermark: the RQ three-quarters full means
                // this instance cannot absorb the burst (§4.1: "when the
                // number of concurrent requests exceeds the capacity of
                // the village, the system creates another instance").
                hot = rq.len() * 4 >= rq.capacity() * 3;
            }
            VillageQueue::Software { ready } => ready.push_back(req),
        }
        if hot && self.cfg.autoscale {
            self.boot_instance(server, service, now);
        }
        self.try_start(server, village, now);
        self.trigger_steal(server, village, now);
    }

    /// Boots another instance of `service` in the emptiest village,
    /// reading its snapshot from that village's cluster pool (or cold
    /// booting without one). The new instance serves requests once its
    /// `InstanceReady` fires.
    fn boot_instance(&mut self, server: usize, service: u32, now: Cycles) {
        if !self.servers[server].booting.insert(service) {
            return; // a boot is already in flight
        }
        // Place where the hardware queues are least loaded and the
        // service is not already hosted.
        let hosted: Vec<usize> = self.servers[server].service_map.villages(service).to_vec();
        let target = (0..self.servers[server].villages.len())
            .filter(|v| !hosted.contains(v))
            .min_by_key(|&v| match &self.servers[server].villages[v].queue {
                VillageQueue::Hardware { rq, .. } => rq.len(),
                VillageQueue::Software { ready } => ready.len(),
            });
        let Some(village) = target else {
            self.servers[server].booting.remove(&service);
            return; // hosted everywhere already
        };
        let cluster = self.servers[server].villages[village].cluster;
        let freq = self.freq();
        let boot = self.servers[server].pools[cluster].boot_latency(service, freq);
        self.instance_boots += 1;
        self.events.schedule_at(
            now + boot,
            Event::InstanceReady {
                server,
                service,
                village,
            },
        );
    }

    fn on_unblock(&mut self, req: ReqId, now: Cycles) {
        if self.cfg.hold_core_while_blocked {
            debug_assert_eq!(self.requests[req].phase, Phase::Blocked);
            self.resume_in_place(req, now);
            return;
        }
        let arrived = now;
        let now = {
            let (server, village) = (self.requests[req].server, self.requests[req].village);
            self.servers[server].villages[village].queue_op(now)
        };
        let (server, village) = {
            let r = &mut self.requests[req];
            debug_assert_eq!(r.phase, Phase::Blocked);
            r.breakdown.charge(Component::QueueWait, now - arrived);
            r.phase = Phase::Queued;
            r.enqueued_at = now;
            (r.server, r.village)
        };
        match &mut self.servers[server].villages[village].queue {
            VillageQueue::Hardware { rq, .. } => {
                let slot = self.requests[req].rq_slot.expect("blocked in RQ");
                rq.unblock_at(slot, now).expect("blocked entry unblocks");
            }
            VillageQueue::Software { ready } => ready.push_back(req),
        }
        self.try_start(server, village, now);
        self.trigger_steal(server, village, now);
    }

    /// After new work lands in `village`, let an idle core elsewhere on
    /// the server steal it (the spinning-idle-core model of §3.2's
    /// work-stealing variant).
    fn trigger_steal(&mut self, server: usize, village: usize, now: Cycles) {
        if !self.cfg.work_stealing {
            return;
        }
        let pending = match &self.servers[server].villages[village].queue {
            VillageQueue::Software { ready } => !ready.is_empty(),
            VillageQueue::Hardware { .. } => false,
        };
        if !pending {
            return;
        }
        let n = self.servers[server].villages.len();
        for off in 1..n {
            let v = (village + off) % n;
            if self.servers[server].villages[v].idle_cores > 0 {
                self.try_start(server, v, now);
                return;
            }
        }
    }

    /// Pairs idle cores in `village` with ready requests; steals from
    /// sibling queues when enabled.
    fn try_start(&mut self, server: usize, village: usize, now: Cycles) {
        loop {
            if self.servers[server].villages[village].idle_cores == 0 {
                return;
            }
            let Some((req, stolen)) = self.pop_ready(server, village, now) else {
                return;
            };
            self.servers[server].villages[village].idle_cores -= 1;
            self.start_segment(req, now, stolen);
        }
    }

    fn pop_ready(&mut self, server: usize, village: usize, now: Cycles) -> Option<(ReqId, bool)> {
        let policy = self.cfg.dequeue_policy;
        let requests = &self.requests;
        // Remaining handler compute of a request, the SRPT key (the
        // hardware would carry this estimate in the Request Context
        // Memory, written by the NIC from per-service profiles).
        let remaining = |&req: &ReqId| -> u64 {
            requests[req].plan.segments[requests[req].next_segment..]
                .iter()
                .map(|s| s.compute_us)
                .sum::<f64>() as u64 // um-tidy: allow(float-accumulation) -- serial fold over one request's fixed segment order
        };
        let srv = &mut self.servers[server];
        match &mut srv.villages[village].queue {
            VillageQueue::Hardware { rq, .. } => rq
                .dequeue_any_with_at(policy, remaining, now)
                .map(|(_, &req, wait)| {
                    // The RQ's own ready-wait measurement must agree with
                    // the queue-wait the breakdown will charge.
                    debug_assert_eq!(
                        wait,
                        now.saturating_sub(requests[req].enqueued_at),
                        "RQ wait disagrees with request {req} enqueue time"
                    );
                    (req, false)
                }),
            VillageQueue::Software { ready } => {
                let popped = match policy {
                    um_sched::DequeuePolicy::Fcfs => ready.pop_front(),
                    um_sched::DequeuePolicy::Srpt => ready
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, req)| remaining(req))
                        .map(|(i, _)| i)
                        .and_then(|i| ready.remove(i)),
                };
                if let Some(req) = popped {
                    return Some((req, false));
                }
                if !self.cfg.work_stealing {
                    return None;
                }
                let n = srv.villages.len();
                for off in 1..n {
                    let v = (village + off) % n;
                    if let VillageQueue::Software { ready } = &mut srv.villages[v].queue {
                        if let Some(req) = ready.pop_front() {
                            self.steals += 1;
                            // The request now runs (and will resume) here.
                            self.requests[req].village = village;
                            return Some((req, true));
                        }
                    }
                }
                None
            }
        }
    }

    /// Begins the request's next segment on a core of its village at
    /// `now`: charges dequeue, context-restore, RPC-processing, coherence
    /// and steal costs, then schedules the segment's completion.
    fn start_segment(&mut self, req: ReqId, now: Cycles, stolen: bool) {
        self.start_segment_inner(req, now, stolen, false)
    }

    /// Resumes a request on the core it never released (run-to-completion
    /// mode): no dequeue, no restore, no migration.
    fn resume_in_place(&mut self, req: ReqId, now: Cycles) {
        self.start_segment_inner(req, now, false, true)
    }

    fn start_segment_inner(&mut self, req: ReqId, now: Cycles, stolen: bool, in_place: bool) {
        let server = self.requests[req].server;
        let village = self.requests[req].village;
        // An abandoned request does not execute the rest of its plan: it
        // runs a synthetic zero-compute segment (the error-response path)
        // and completes.
        let seg = if self.requests[req].gave_up {
            um_workload::Segment {
                compute_us: 0.0,
                rpc: None,
            }
        } else {
            self.requests[req].plan.segments[self.requests[req].next_segment]
        };
        let first = self.requests[req].next_segment == 0;
        let resumed = self.requests[req].has_run && !in_place;

        // A request may be claimed by a core whose dispatch attempt began
        // before the request's (lock-serialized) insertion completed; it
        // cannot start before it is actually in the queue.
        let now = now.max(self.requests[req].enqueued_at);
        let mut t = now;
        if !in_place {
            let waited = now - self.requests[req].enqueued_at;
            self.queueing.record(waited.as_micros(self.freq()));
            // Queue residence runs from the (lock-serialized) insert to
            // dispatch.
            self.requests[req]
                .breakdown
                .charge(Component::QueueWait, waited);

            // Dequeue operation: the queue lock serializes the removal on
            // software machines; hardware machines execute the Dequeue
            // instruction against the RQ.
            let lock_done = self.servers[server].villages[village].queue_op(t);
            let op = self.cfg.machine.sched_op_cost;
            {
                let bd = &mut self.requests[req].breakdown;
                bd.charge(Component::QueueWait, lock_done - t);
                bd.charge(Component::SchedOp, op);
            }
            t = lock_done + op;
            // Context restore for resumed requests (the other half of the
            // switch whose save ran at block time).
            if resumed {
                let half = self.cs_half();
                self.requests[req]
                    .breakdown
                    .charge(Component::CtxSwitch, half);
                t += half;
                self.ctx_switches += 1;
            }
        }

        // On-core RPC-layer work around this segment (§4.3). This is
        // wall-clock time (frequency-insensitive NIC/kernel latencies)
        // that nevertheless occupies the core.
        let mut tax_us = 0.0;
        if first {
            tax_us += self.rpc_proc_us(); // incoming request processing
        }
        if resumed {
            tax_us += self.rpc_msg_us(); // response receipt processing
        }
        if seg.rpc.is_some() {
            tax_us += self.rpc_msg_us(); // call issue processing
        }
        // Attribution splits the tax by *prefix*: converting each running
        // prefix sum with the same rounding as the total and differencing
        // telescopes exactly, so the component charges sum to the one
        // `wall_cycles(tax_us)` the timing arithmetic uses. (Each prefix
        // is a monotone f64 accumulation, so the differences cannot
        // underflow.)
        let rpc_tax_us = tax_us;
        if stolen {
            tax_us += params::STEAL_COST_US;
        }
        let sched_tax_us = tax_us;
        // Tail-at-scale software interference [16]: rare core-occupying
        // hiccups (kernel preemption, interrupts, daemons). Hardware
        // request scheduling removes the kernel's NIC/queue path — about
        // half the interference windows (§4.3) — and hardware context
        // switching takes the OS off the request path entirely (§4.4).
        let hiccup_p = if !self.cfg.machine.ctx_switch.is_software() {
            0.0
        } else if self.cfg.machine.hw_scheduling {
            params::SW_HICCUP_P / 2.0
        } else {
            params::SW_HICCUP_P
        };
        if hiccup_p > 0.0 && self.rng.gen::<f64>() < hiccup_p {
            tax_us +=
                um_workload::dist::sample_exponential(&mut self.rng, params::SW_HICCUP_MEAN_US);
        }

        let village_core = self.servers[server].villages[village].core;
        let mut handler = village_core.compute_cycles(seg.compute_us);
        // Fail-slow cores: while the village carries degraded cores, a
        // dispatch lands on one with probability slow/cores and the
        // handler compute stretches by the slowdown. Drawn from the fault
        // stream so a healthy run's draws are untouched.
        if !self.cfg.fault_plan.is_empty() {
            if let Some((slow, slowdown)) = self.cfg.fault_plan.fail_slow(server, village, now) {
                let total = self.servers[server].villages[village].cores;
                let p = f64::from(slow).min(total as f64) / total.max(1) as f64;
                if self.fault_rng.gen::<f64>() < p {
                    handler = handler.scale(slowdown);
                }
            }
        }
        let tax = self.wall_cycles(tax_us);
        let compute = handler + tax;
        {
            let rpc = self.wall_cycles(rpc_tax_us);
            let sched = self.wall_cycles(sched_tax_us);
            let bd = &mut self.requests[req].breakdown;
            bd.charge(Component::Compute, handler);
            bd.charge(Component::RpcProcessing, rpc);
            bd.charge(Component::SchedOp, sched - rpc);
            bd.charge(Component::Interference, tax - sched);
        }
        // Coherence: resumed requests may land on a different core of the
        // domain and refetch their warm state (§4.1).
        let cores = self.servers[server].villages[village].cores;
        let migrated =
            resumed && cores > 1 && self.rng.gen::<f64>() < (cores - 1) as f64 / cores as f64;
        let coherent = if migrated {
            self.coherence.overhead_migrated(compute)
        } else {
            self.coherence.overhead(compute)
        };

        // Memory-system traffic on the ICN: the segment's working-set
        // refetch, write-backs and directory messages. Global coherence
        // spreads it across the package (random LLC/directory/controller
        // cluster); village coherence with the cluster memory pool keeps
        // it local. Link queueing delays the segment (stalled misses).
        let occupied_us = compute.as_micros(self.freq());
        let mem_bytes = (occupied_us * self.mem_bytes_per_us()) as u64;
        let mem_stall = if mem_bytes > 0 {
            let src = self.core_cluster(server, village);
            // Without the per-cluster memory pool, even village-coherent
            // machines fetch read-mostly state from wherever it lives in
            // the package; the pool (§4.1) is what localizes the traffic.
            let dst = if self.has_local_pool() {
                src
            } else {
                let clusters = self.cfg.machine.shape.clusters;
                self.rng.gen_range(0..clusters)
            };
            // Pipelined chunks: redundant leaf-spine paths can carry them
            // in parallel, a tree serializes them through its one route.
            let chunk = (mem_bytes / params::MEM_TRAFFIC_CHUNKS).max(1);
            let icn = &mut self.servers[server].icn;
            let queued = icn.send_burst(src, dst, chunk, t, params::MEM_TRAFFIC_CHUNKS);
            // The request stalls for the mean chunk's queueing, not the
            // sum (chunks overlap with compute).
            Cycles::new(queued.raw() / params::MEM_TRAFFIC_CHUNKS)
        } else {
            Cycles::ZERO
        };

        let end = t + compute + coherent + mem_stall;
        {
            let r = &mut self.requests[req];
            r.breakdown.charge(Component::CoherenceStall, coherent);
            r.breakdown.charge(Component::MemStall, mem_stall);
            r.phase = Phase::Running;
            r.has_run = true;
        }
        self.servers[server].busy_cycles += (end - now).raw() as u128;
        self.events.schedule_at(end, Event::SegmentDone { req });
    }

    fn on_segment_done(&mut self, req: ReqId, now: Cycles) {
        if self.requests[req].gave_up {
            // The synthetic wind-down segment of an abandoned request just
            // finished: skip the rest of the plan and send the (error)
            // response.
            self.complete_request(req, now);
            return;
        }
        let seg_idx = self.requests[req].next_segment;
        let seg = self.requests[req].plan.segments[seg_idx];
        self.requests[req].next_segment += 1;

        match seg.rpc {
            Some(kind) => {
                self.begin_rpc_op(req, kind, now);
                self.block_request(req, now);
            }
            None => {
                debug_assert!(self.requests[req].is_complete());
                self.complete_request(req, now);
            }
        }
    }

    /// Context-save path: the core holds the request's state save, then
    /// frees; the request is marked blocked (its RQ entry persists). In
    /// run-to-completion mode the core simply stays with the request.
    fn block_request(&mut self, req: ReqId, now: Cycles) {
        let r = &mut self.requests[req];
        r.phase = Phase::Blocked;
        if self.cfg.hold_core_while_blocked {
            return;
        }
        let (server, village) = (r.server, r.village);
        self.ctx_switches += 1;
        if let Some(slot) = self.requests[req].rq_slot {
            if let VillageQueue::Hardware { rq, .. } =
                &mut self.servers[server].villages[village].queue
            {
                rq.block(slot).expect("running entry blocks");
            }
        }
        let mut free_at = now;
        if let Some(d) = &mut self.servers[server].dispatcher {
            free_at = d.dispatch(free_at);
        }
        free_at += self.cs_half();
        self.servers[server].busy_cycles += (free_at - now).raw() as u128;
        self.events
            .schedule_at(free_at, Event::CoreFree { server, village });
    }

    /// Starts a blocking RPC operation: issues the primary attempt and
    /// arms the mitigation machinery (hedge point, retry/liveness
    /// timeout) around it. With mitigation off and no drops this reduces
    /// to exactly one attempt and no extra events.
    fn begin_rpc_op(&mut self, req: ReqId, kind: RpcKind, now: Cycles) {
        let gen = {
            let r = &mut self.requests[req];
            r.op_gen += 1;
            r.op_resolved = false;
            r.op_attempts = 0;
            r.op_started_at = now;
            r.op_rpc = Some(kind);
            r.op_gen
        };
        self.faults.rpc_ops += 1;
        if self.cfg.mitigation.retry.is_some() {
            // Adaptive budget: every operation earns a fraction of one
            // retry, capping the retry rate cluster-wide.
            self.retry_budget.earn();
        }
        self.issue_attempt(req, now);
        if let Some(h) = self.cfg.mitigation.hedge {
            self.events.schedule_at(
                now + self.wall_cycles(h.delay_us),
                Event::HedgeFire { req, gen },
            );
            self.pin(req);
        }
        if let Some(rc) = self.cfg.mitigation.retry {
            self.events.schedule_at(
                now + self.wall_cycles(rc.timeout_for_attempt_us(1)),
                Event::RpcTimeout { req, gen },
            );
            self.pin(req);
        } else if self.drop_p > 0.0 {
            // No retry policy, but legs can be lost: a liveness timeout
            // turns a stranded operation into a give-up instead of a
            // hang.
            self.events.schedule_at(
                now + self.wall_cycles(params::DEFAULT_RPC_TIMEOUT_US),
                Event::RpcTimeout { req, gen },
            );
            self.pin(req);
        }
    }

    /// Issues one attempt of the request's current operation (the primary,
    /// a hedge, or a retry).
    fn issue_attempt(&mut self, req: ReqId, now: Cycles) {
        let kind = self.requests[req].op_rpc.expect("operation in progress");
        let backup = self.requests[req].op_attempts > 0;
        self.requests[req].op_attempts += 1;
        self.faults.rpc_attempts += 1;
        match kind {
            RpcKind::Storage { bytes } => self.issue_storage_attempt(req, bytes, now),
            RpcKind::Call { service } => self.issue_call_attempt(req, service, backup, now),
        }
    }

    /// Storage RPC attempt: on-package egress, external fabric to the
    /// storage tier, exponential storage service, and the journey back.
    /// The leg decomposition rides in the `StorageDone` event and is
    /// charged only if this attempt wins its operation.
    fn issue_storage_attempt(&mut self, req: ReqId, bytes: u64, now: Cycles) {
        let server = self.requests[req].server;
        let storage = self.cfg.servers; // the storage tier's index
        let egress = self.servers[server].icn.hop_latency() * 2;
        let at_storage = self.external.send(server, storage, bytes, now + egress);
        // In-memory key-value stores serve GETs with low variance: a
        // lognormal with scv 0.25 around the mean (a long exponential tail
        // here would put an identical latency floor under every machine
        // and mask the architectural differences the paper isolates).
        let service_us =
            um_workload::ServiceTimeDist::lognormal_with_mean(params::STORAGE_MEAN_US, 0.25)
                .sample(&mut self.rng);
        let done = at_storage + self.wall_cycles(service_us);
        let back = self
            .external
            .send(storage, server, params::RESPONSE_BYTES, done);
        let ingress = self.servers[server].icn.hop_latency() * 2;
        // Injected message drops: the legs still occupy the fabric (the
        // message is lost at the receiver), the response just never
        // arrives; the operation recovers through its timeout.
        if self.drop_p > 0.0 {
            let lost_request = self.fault_rng.gen::<f64>() < self.drop_p;
            let lost_response = self.fault_rng.gen::<f64>() < self.drop_p;
            let lost = u64::from(lost_request) + u64::from(lost_response);
            if lost > 0 {
                self.faults.drops += lost;
                return;
            }
        }
        // The attempt's span [now, back + ingress] decomposes exactly
        // into the on-package legs, the external-fabric legs and the
        // storage service time; the issue delay back to the operation
        // start is resilience overhead.
        let resilience = now - self.requests[req].op_started_at;
        self.events.schedule_at(
            back + ingress,
            Event::StorageDone {
                req,
                gen: self.requests[req].op_gen,
                icn: egress + ingress,
                ext: (at_storage - (now + egress)) + (back - done),
                storage: done - at_storage,
                resilience,
            },
        );
        self.pin(req);
    }

    /// Synchronous downstream call attempt: spawn a child request on this
    /// server; the parent unblocks when the first winning response
    /// returns. `backup` attempts (hedges, retries) prefer a village other
    /// than the primary's.
    fn issue_call_attempt(&mut self, req: ReqId, service: ServiceId, backup: bool, now: Cycles) {
        let server = self.requests[req].server;
        // Injected drops can lose the request leg: the child is never
        // spawned and the parent recovers through its timeout.
        if self.drop_p > 0.0 && self.fault_rng.gen::<f64>() < self.drop_p {
            self.faults.drops += 1;
            return;
        }
        let src_cluster = {
            let v = self.requests[req].village;
            self.core_cluster(server, v)
        };
        let child_village = if backup {
            let avoid = self.requests[req].op_village;
            self.pick_hedge_village(server, service, avoid, now)
        } else {
            let v = self.pick_village(server, service, now);
            self.requests[req].op_village = v;
            v
        };
        let dst_cluster = self.core_cluster(server, child_village);
        let gen = self.requests[req].op_gen;
        let child = self.admit(service, Origin::Parent { req, gen }, server, child_village);
        // The child's completion reads this request: pin it until then.
        self.pin(req);
        let arrive =
            self.servers[server]
                .icn
                .send(src_cluster, dst_cluster, params::REQUEST_BYTES, now);
        // The child's lifetime starts at the parent's call issue; the
        // parent's blocked interval is exactly this lifetime, so the
        // downstream wait lands in the *child's* components and folds into
        // the parent when the response is delivered — never double-counted
        // as caller queue wait.
        {
            let r = &mut self.requests[child];
            r.spawned_at = now;
            r.breakdown.charge(Component::IcnTransit, arrive - now);
            r.breakdown
                .charge(Component::SchedOp, self.cfg.machine.sched_op_cost);
        }
        self.events.schedule_at(
            arrive + self.cfg.machine.sched_op_cost,
            Event::Enqueue { req: child },
        );
    }

    /// A storage attempt's response arrives: if its operation is still
    /// open, charge the winning legs and unblock; otherwise it lost.
    #[allow(clippy::too_many_arguments)]
    fn on_storage_done(
        &mut self,
        req: ReqId,
        gen: u32,
        icn: Cycles,
        ext: Cycles,
        storage: Cycles,
        resilience: Cycles,
        now: Cycles,
    ) {
        {
            let r = &self.requests[req];
            if r.phase != Phase::Blocked || r.op_resolved || r.op_gen != gen {
                // A losing attempt: its operation already resolved (or
                // was abandoned and the request moved on).
                self.faults.wasted_attempts += 1;
                return;
            }
        }
        {
            let r = &mut self.requests[req];
            let bd = &mut r.breakdown;
            bd.charge(Component::IcnTransit, icn);
            bd.charge(Component::ExternalNet, ext);
            bd.charge(Component::StorageService, storage);
            bd.charge(Component::Resilience, resilience);
            r.op_resolved = true;
        }
        self.on_unblock(req, now);
    }

    /// The hedging policy's backup-issue point: if the operation is still
    /// open past the hedge delay, issue a backup attempt.
    fn on_hedge_fire(&mut self, req: ReqId, gen: u32, now: Cycles) {
        {
            let r = &self.requests[req];
            if r.phase != Phase::Blocked || r.op_resolved || r.op_gen != gen {
                return; // resolved before the hedge point
            }
        }
        self.faults.hedges += 1;
        self.issue_attempt(req, now);
    }

    /// An attempt timeout: retry (with exponential backoff, against the
    /// retry budget) or abandon the operation.
    fn on_rpc_timeout(&mut self, req: ReqId, gen: u32, now: Cycles) {
        {
            let r = &self.requests[req];
            if r.phase != Phase::Blocked || r.op_resolved || r.op_gen != gen {
                return; // resolved in time
            }
        }
        if let Some(rc) = self.cfg.mitigation.retry {
            if self.requests[req].op_attempts < rc.max_attempts && self.retry_budget.try_spend() {
                self.faults.retries += 1;
                self.issue_attempt(req, now);
                let attempt = self.requests[req].op_attempts;
                self.events.schedule_at(
                    now + self.wall_cycles(rc.timeout_for_attempt_us(attempt)),
                    Event::RpcTimeout { req, gen },
                );
                self.pin(req);
                return;
            }
        }
        // Out of attempts (or no retry policy at all): the operation is
        // abandoned. No attempt's legs were ever charged, so the whole
        // blocked span is resilience overhead; the request winds down
        // through a synthetic final segment and is excluded from the
        // latency samples.
        self.faults.gave_up_ops += 1;
        {
            let r = &mut self.requests[req];
            r.gave_up = true;
            r.op_resolved = true;
            let span = now - r.op_started_at;
            r.breakdown.charge(Component::Resilience, span);
        }
        self.on_unblock(req, now);
    }

    /// A scheduled fail-stop fires: one core of the village dies. A
    /// village is never taken below one core (the liveness floor) — such
    /// an event is masked, like one aimed at a nonexistent target.
    fn on_core_fail(&mut self, server: usize, village: usize) {
        let v = &mut self.servers[server].villages[village];
        if v.cores <= 1 {
            self.faults.faults_masked += 1;
            return;
        }
        v.cores -= 1;
        if v.idle_cores > 0 {
            v.idle_cores -= 1;
        } else {
            // Every core is busy: the next one to free dies instead of
            // rejoining the pool.
            v.kill_pending += 1;
        }
        self.faults.cores_failed += 1;
        self.faults.faults_applied += 1;
    }

    fn complete_request(&mut self, req: ReqId, now: Cycles) {
        let (server, village) = {
            let r = &mut self.requests[req];
            r.phase = Phase::Done;
            (r.server, r.village)
        };
        self.completed += 1;

        // The Complete instruction / software completion bookkeeping.
        let free_at = now + self.cfg.machine.sched_op_cost;

        // Reclaim the RQ slot and admit NIC-buffered requests (§4.3).
        if let Some(slot) = self.requests[req].rq_slot.take() {
            let mut admitted = Vec::new();
            if let VillageQueue::Hardware { rq, nic_buffer } =
                &mut self.servers[server].villages[village].queue
            {
                rq.complete(slot).expect("running entry completes");
                while let Some(&waiting) = nic_buffer.front() {
                    let service = self.requests[waiting].service().raw();
                    // The admitted request has been ready since its
                    // original (NIC-buffered) arrival.
                    match rq.enqueue_at(service, waiting, self.requests[waiting].enqueued_at) {
                        Ok(new_slot) => {
                            nic_buffer.pop_front();
                            admitted.push((waiting, new_slot));
                        }
                        Err(_) => break,
                    }
                }
            }
            for (waiting, slot) in admitted {
                self.requests[waiting].rq_slot = Some(slot);
            }
        }

        // Deliver the response, close the final span, and check the
        // conservation invariant against the request's whole lifetime.
        match self.requests[req].origin {
            Origin::Client { sent_at } => {
                let egress = self.servers[server].icn.hop_latency();
                let token = self.requests[req].cluster_token;
                // An injected request's client is the load balancer: the
                // rack-fabric legs (and any client RTT beyond the rack)
                // are charged by the cluster layer, not here.
                let rtt_us = if token.is_some() {
                    0.0
                } else {
                    params::CLIENT_RTT_US
                };
                let rtt = self.wall_cycles(rtt_us);
                let bd = {
                    let r = &mut self.requests[req];
                    debug_assert_eq!(r.spawned_at, sent_at);
                    r.breakdown.charge(Component::IcnTransit, egress);
                    r.breakdown.charge(Component::ExternalNet, rtt);
                    r.breakdown
                };
                self.breakdown.check(&bd, (now + egress - sent_at) + rtt);
                let latency_us = (now + egress - sent_at).as_micros(self.freq()) + rtt_us;
                let gave_up = self.requests[req].gave_up;
                if let Some(token) = token {
                    self.completions.push(NodeCompletion {
                        token,
                        finished_at: now + egress,
                        breakdown: bd,
                        gave_up,
                    });
                }
                if gave_up {
                    // An abandoned request's "latency" is an error
                    // response, not a service time: count it, don't
                    // sample it.
                    self.faults.gave_up_requests += 1;
                } else if sent_at >= self.warmup {
                    let freq = self.freq();
                    self.breakdown.record(&bd, freq);
                    self.latency.record(latency_us);
                    self.recorded += 1;
                }
            }
            Origin::Parent { req: parent, gen } => {
                let parent_village = self.requests[parent].village;
                let dst_cluster = self.core_cluster(server, parent_village);
                let src_cluster = self.core_cluster(server, village);
                let arrive = self.servers[server].icn.send(
                    src_cluster,
                    dst_cluster,
                    params::RESPONSE_BYTES,
                    now,
                );
                let bd = {
                    let r = &mut self.requests[req];
                    r.breakdown.charge(Component::IcnTransit, arrive - now);
                    r.breakdown
                };
                let spawned_at = self.requests[req].spawned_at;
                self.breakdown.check(&bd, arrive - spawned_at);
                let stale = {
                    let p = &self.requests[parent];
                    p.op_resolved || p.op_gen != gen || p.phase != Phase::Blocked
                };
                if stale {
                    // A losing attempt's child: conservation-checked
                    // above, but its operation already resolved (or was
                    // abandoned) — never merged into the parent.
                    self.faults.wasted_attempts += 1;
                } else if self.drop_p > 0.0 && self.fault_rng.gen::<f64>() < self.drop_p {
                    // The response leg is lost; the parent recovers
                    // through its timeout.
                    self.faults.drops += 1;
                } else {
                    // The winning attempt: the child's components cover
                    // [spawned_at, arrive]; the issue delay back to the
                    // operation start (zero for an unhedged primary) is
                    // resilience. Fold both into the parent, whose
                    // blocked interval they exactly tile.
                    let child_gave_up = self.requests[req].gave_up;
                    let p = &mut self.requests[parent];
                    p.breakdown.merge(&bd);
                    let resilience = spawned_at - p.op_started_at;
                    p.breakdown.charge(Component::Resilience, resilience);
                    p.gave_up |= child_gave_up;
                    p.op_resolved = true;
                    self.events
                        .schedule_at(arrive, Event::Unblock { req: parent });
                }
                self.unpin(parent);
            }
        }

        self.events
            .schedule_at(free_at, Event::CoreFree { server, village });
        self.release_if_idle(req);
    }

    /// Finalizes a step-driven run: sanitizer end-of-run checks plus the
    /// report. [`SystemSim::run`] calls this after draining the queue.
    pub fn finish(mut self) -> RunReport {
        // Request conservation: with the event queue drained, every admitted
        // request must have reached Done and been counted exactly once.
        #[cfg(feature = "sim-sanitizer")]
        {
            for (id, r) in self.requests.iter().enumerate() {
                if r.phase != Phase::Done {
                    um_sim::sanitizer::report(
                        "request-conservation",
                        format!(
                            "request {id} ended the run in phase {:?}, not Done",
                            r.phase
                        ),
                    );
                }
            }
            if self.completed != self.admitted {
                um_sim::sanitizer::report(
                    "request-conservation",
                    format!(
                        "{} completions recorded for {} admitted requests",
                        self.completed, self.admitted
                    ),
                );
            } else {
                // Request slots: a drained run holds nothing, so every
                // slot is back on the free list exactly once (a slot still
                // held is a leaked pin).
                let mut freed = vec![false; self.requests.len()];
                for &id in self.requests.free_list() {
                    if std::mem::replace(&mut freed[id], true) {
                        um_sim::sanitizer::report(
                            "request-slots",
                            format!("slot {id} sits on the free list twice"),
                        );
                    }
                }
                for id in (0..freed.len()).filter(|&id| !freed[id]) {
                    um_sim::sanitizer::report(
                        "request-slots",
                        format!(
                            "slot {id} still held at the end of a drained run ({} pins)",
                            self.requests[id].pins
                        ),
                    );
                }
            }
            // Fault accounting: every plan event must have either taken
            // effect or been explicitly masked — never silently vanished.
            let planned = self.cfg.fault_plan.len() as u64;
            if self.faults.faults_applied + self.faults.faults_masked != planned {
                um_sim::sanitizer::report(
                    "fault-accounting",
                    format!(
                        "{} applied + {} masked != {planned} planned fault events",
                        self.faults.faults_applied, self.faults.faults_masked
                    ),
                );
            }
            um_sim::sanitizer::assert_clean(&format!(
                "SystemSim run (seed {}, {} requests)",
                self.cfg.seed, self.admitted
            ));
        }
        self.latency.freeze();
        let total_core_cycles = (self.cfg.machine.total_cores() as u128)
            * (self.horizon.raw() as u128)
            * (self.cfg.servers as u128);
        let busy: u128 = self.servers.iter().map(|s| s.busy_cycles).sum();
        let icn_stats: Vec<um_net::NetworkStats> =
            self.servers.iter().map(|s| s.icn.stats()).collect();
        let icn_messages: u64 = icn_stats.iter().map(|s| s.messages).sum();
        let icn_queue: u64 = icn_stats.iter().map(|s| s.queue_cycles).sum();
        let conservation = self.breakdown.stats();
        let breakdown = self
            .cfg
            .trace
            .then(|| BreakdownReport::from_samples(&self.breakdown.samples));
        RunReport {
            latency: self.latency.summary(),
            queueing: self.queueing.summary(),
            latency_samples: self.latency,
            completed: self.completed,
            recorded: self.recorded,
            utilization: (busy as f64 / total_core_cycles as f64).min(1.0),
            ctx_switches: self.ctx_switches,
            steals: self.steals,
            rq_overflows: self.rq_overflows,
            instance_boots: self.instance_boots,
            icn_messages,
            icn_mean_queue_cycles: if icn_messages == 0 {
                0.0
            } else {
                icn_queue as f64 / icn_messages as f64
            },
            conservation,
            faults: self.faults,
            breakdown,
        }
    }

    /// Unbalances the fault-accounting totals so the `fault-accounting`
    /// sanitizer checker trips at the end of the run. Deliberate-violation
    /// tests only.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn corrupt_fault_accounting_for_sanitizer_test(&mut self) {
        self.faults.faults_applied += 1;
    }

    /// Pins request slot 0 once more than anything will unpin it, so the
    /// `request-slots` checker reports a leaked slot at the end of the
    /// run. Call after the first [`SystemSim::step`] has admitted a
    /// request. Deliberate-violation tests only.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn leak_request_pin_for_sanitizer_test(&mut self) {
        self.pin(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use um_workload::apps::SocialNetwork;

    fn quick(machine: MachineConfig, rps: f64, seed: u64) -> RunReport {
        run_for(machine, rps, seed, 20_000.0)
    }

    /// Like [`quick`] but with an explicit horizon. Tail-latency
    /// assertions need enough post-warmup samples for a stable p99
    /// estimate (a 20 ms horizon yields only a few hundred requests), so
    /// tests comparing p99s run longer.
    fn run_for(machine: MachineConfig, rps: f64, seed: u64, horizon_us: f64) -> RunReport {
        SystemSim::new(SimConfig {
            machine,
            workload: Workload::social_mix(),
            rps_per_server: rps,
            servers: 1,
            horizon_us,
            warmup_us: horizon_us * 0.1,
            seed,
            ..SimConfig::default()
        })
        .run()
    }

    #[test]
    fn umanycore_completes_all_requests() {
        let r = quick(MachineConfig::umanycore(), 5_000.0, 1);
        assert!(r.completed > 50, "completed {}", r.completed);
        assert!(r.recorded > 0);
        assert!(r.latency.mean > 0.0);
        assert!(r.latency.p99 >= r.latency.p50);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(MachineConfig::umanycore(), 5_000.0, 7);
        let b = quick(MachineConfig::umanycore(), 5_000.0, 7);
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.completed, b.completed);
        let c = quick(MachineConfig::umanycore(), 5_000.0, 8);
        assert_ne!(a.latency.p99, c.latency.p99);
    }

    #[test]
    fn umanycore_beats_scaleout_tail() {
        let um = quick(MachineConfig::umanycore(), 10_000.0, 2);
        let so = quick(MachineConfig::scaleout(), 10_000.0, 2);
        assert!(
            um.latency.p99 < so.latency.p99,
            "uManycore {} vs ScaleOut {}",
            um.latency.p99,
            so.latency.p99
        );
    }

    #[test]
    fn scaleout_and_server_class_tails_comparable_at_mid_load() {
        // Figure 14b: at 10K RPS ScaleOut's tail is within ~25% of
        // ServerClass's (0.78x in the paper); neither dominates strongly.
        // A 100 ms horizon keeps the p99 estimator noise well inside the
        // asserted band (at 20 ms the ratio swings past 2.5x across
        // seeds purely from sampling error).
        let so = run_for(MachineConfig::scaleout(), 10_000.0, 3, 100_000.0);
        let sc = run_for(
            MachineConfig::server_class_iso_power(),
            10_000.0,
            3,
            100_000.0,
        );
        let ratio = so.latency.p99 / sc.latency.p99;
        // EXPERIMENTS.md documents that our ScaleOut model runs somewhat
        // worse than the paper's; the band below accepts that and the
        // noise of this reduced scale while still catching an order-of-
        // magnitude regression in either machine.
        assert!(
            (0.3..2.5).contains(&ratio),
            "ScaleOut/ServerClass tail ratio {ratio}"
        );
    }

    #[test]
    fn scaleout_beats_saturating_server_class_at_high_load() {
        // Figure 14c: at high RPS of a heavy application (ComposePost)
        // the 40-core ServerClass saturates; ScaleOut's 1024 cores pull
        // clearly ahead on tail latency. 25K RPS puts ServerClass firmly
        // past capacity so its backlog (and thus p99) grows throughout
        // the run — at 15K the two machines' tails are within estimator
        // noise of each other over this horizon.
        let run = |machine: MachineConfig| {
            SystemSim::new(SimConfig {
                machine,
                workload: Workload::social_app(SocialNetwork::CPOST),
                rps_per_server: 25_000.0,
                horizon_us: 60_000.0,
                warmup_us: 6_000.0,
                seed: 3,
                ..SimConfig::default()
            })
            .run()
        };
        let so = run(MachineConfig::scaleout());
        let sc = run(MachineConfig::server_class_iso_power());
        assert!(
            so.latency.p99 < sc.latency.p99,
            "ScaleOut {} vs ServerClass {}",
            so.latency.p99,
            sc.latency.p99
        );
    }

    #[test]
    fn server_class_utilization_bands() {
        // §5: 5K RPS is <30% utilization, 15K is >60% on ServerClass.
        let low = quick(MachineConfig::server_class_iso_power(), 5_000.0, 4);
        assert!(
            low.utilization < 0.35,
            "5K load utilization {}",
            low.utilization
        );
        let high = quick(MachineConfig::server_class_iso_power(), 15_000.0, 4);
        assert!(
            high.utilization > 0.5,
            "15K load utilization {}",
            high.utilization
        );
    }

    #[test]
    fn umanycore_runs_at_low_utilization() {
        let r = quick(MachineConfig::umanycore(), 15_000.0, 5);
        assert!(r.utilization < 0.2, "utilization {}", r.utilization);
    }

    #[test]
    fn tail_grows_with_load() {
        // 5K RPS is light load for ServerClass; 25K is past saturation,
        // so the tail must grow decisively. A 60 ms horizon gives the
        // backlog time to build and the p99 enough samples — the effect
        // is 3-5x across every seed at this scale, whereas a 15K
        // contrast over 20 ms is within p99 estimator noise.
        let lo = run_for(
            MachineConfig::server_class_iso_power(),
            5_000.0,
            6,
            60_000.0,
        );
        let hi = run_for(
            MachineConfig::server_class_iso_power(),
            25_000.0,
            6,
            60_000.0,
        );
        assert!(
            hi.latency.p99 > lo.latency.p99,
            "p99 at 25K ({}) should exceed p99 at 5K ({})",
            hi.latency.p99,
            lo.latency.p99
        );
    }

    #[test]
    fn per_app_workload_runs() {
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::social_app(SocialNetwork::CPOST),
            rps_per_server: 3_000.0,
            horizon_us: 20_000.0,
            warmup_us: 2_000.0,
            seed: 9,
            ..SimConfig::default()
        })
        .run();
        assert!(r.completed > 20);
    }

    #[test]
    fn queue_override_changes_layout() {
        let one_queue = SystemSim::new(SimConfig {
            machine: MachineConfig::scaleout(),
            queues_override: Some(1),
            rps_per_server: 5_000.0,
            horizon_us: 10_000.0,
            warmup_us: 1_000.0,
            seed: 10,
            ..SimConfig::default()
        })
        .run();
        assert!(one_queue.completed > 10);
    }

    #[test]
    fn work_stealing_counts_steals() {
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::scaleout(),
            queues_override: Some(1024),
            work_stealing: true,
            rps_per_server: 5_000.0,
            horizon_us: 10_000.0,
            warmup_us: 1_000.0,
            seed: 11,
            ..SimConfig::default()
        })
        .run();
        assert!(r.steals > 0, "per-core queues should trigger steals");
    }

    #[test]
    fn ctx_switches_happen() {
        let r = quick(MachineConfig::scaleout(), 5_000.0, 12);
        // Every storage RPC blocks: several context switches per request.
        assert!(r.ctx_switches as f64 > r.completed as f64);
    }

    #[test]
    fn contention_free_icn_not_slower() {
        let base = SimConfig {
            machine: MachineConfig::scaleout(),
            rps_per_server: 20_000.0,
            horizon_us: 15_000.0,
            warmup_us: 1_000.0,
            seed: 13,
            ..SimConfig::default()
        };
        let with = SystemSim::new(base.clone()).run();
        let without = SystemSim::new(SimConfig {
            icn_contention: false,
            ..base
        })
        .run();
        assert!(without.latency.p99 <= with.latency.p99 * 1.05);
    }

    #[test]
    fn heterogeneous_villages_run_and_differ() {
        let homo = quick(MachineConfig::umanycore(), 8_000.0, 21);
        let hetero = quick(MachineConfig::umanycore_heterogeneous(32), 8_000.0, 21);
        assert!(hetero.completed > 50);
        // Big cores change segment timings, so the runs must diverge.
        assert_ne!(homo.latency.mean.to_bits(), hetero.latency.mean.to_bits());
    }

    #[test]
    fn train_ticket_runs_through_the_system() {
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::train_mix(),
            rps_per_server: 5_000.0,
            horizon_us: 20_000.0,
            warmup_us: 2_000.0,
            seed: 31,
            ..SimConfig::default()
        })
        .run();
        assert!(r.completed > 50);
        assert!(r.latency.p99 > r.latency.p50);
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::social_mix(),
            rps_per_server: 8_000.0,
            horizon_us: 20_000.0,
            warmup_us: 2_000.0,
            seed: 22,
            trace: true,
            ..SimConfig::default()
        })
        .run();
        let bd = r.breakdown.as_ref().expect("tracing collects a breakdown");
        let mean = |c| bd.component(c).mean;
        // Every recorded request consumed some CPU.
        assert!(mean(Component::Compute) > 0.0);
        // A request's CPU share cannot exceed its end-to-end budget.
        assert!(mean(Component::Compute) < r.latency.mean);
        // Hardware machines do not queue-wait at these loads.
        assert!(mean(Component::QueueWait) < 50.0);
    }

    #[test]
    fn conservation_is_exact_on_every_machine() {
        for machine in [
            MachineConfig::umanycore(),
            MachineConfig::scaleout(),
            MachineConfig::server_class_iso_power(),
        ] {
            let r = quick(machine, 8_000.0, 33);
            assert!(r.conservation.checked >= r.completed);
            assert!(
                r.conservation.exact(),
                "per-request breakdowns must sum to lifetimes: {:?}",
                r.conservation
            );
        }
    }

    #[test]
    fn tracing_collects_breakdowns_without_changing_timing() {
        let base = SimConfig {
            machine: MachineConfig::scaleout(),
            rps_per_server: 8_000.0,
            horizon_us: 15_000.0,
            warmup_us: 1_500.0,
            seed: 44,
            ..SimConfig::default()
        };
        let off = SystemSim::new(base.clone()).run();
        let on = SystemSim::new(SimConfig {
            trace: true,
            ..base
        })
        .run();
        assert!(off.breakdown.is_none(), "tracing is opt-in");
        // Tracing is pure observation: bit-identical results.
        assert_eq!(off.latency.p99.to_bits(), on.latency.p99.to_bits());
        assert_eq!(off.completed, on.completed);
        let bd = on.breakdown.expect("tracing collects a breakdown");
        // The per-component means sum back to the mean end-to-end latency
        // (conservation, modulo f64 cycle->us conversion noise).
        let err = (bd.mean_total_us() - on.latency.mean).abs();
        assert!(
            err <= on.latency.mean * 1e-9,
            "component means {} vs latency mean {}",
            bd.mean_total_us(),
            on.latency.mean
        );
    }

    #[test]
    fn srpt_policy_is_accepted_and_deterministic() {
        let run = |policy| {
            SystemSim::new(SimConfig {
                machine: MachineConfig::umanycore(),
                workload: Workload::social_mix(),
                rps_per_server: 8_000.0,
                horizon_us: 15_000.0,
                warmup_us: 1_500.0,
                seed: 23,
                dequeue_policy: policy,
                ..SimConfig::default()
            })
            .run()
        };
        let a = run(um_sched::DequeuePolicy::Srpt);
        let b = run(um_sched::DequeuePolicy::Srpt);
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert!(a.completed > 20);
    }

    #[test]
    fn autoscaling_boots_instances_under_bursts() {
        let run = |autoscale: bool| {
            let mut machine = MachineConfig::umanycore();
            machine.rq_capacity = 8;
            SystemSim::new(SimConfig {
                machine,
                workload: Workload::social_mix(),
                rps_per_server: 120_000.0,
                // Long enough for the MMPP to visit its burst state
                // (~220 ms mean low-state sojourn).
                horizon_us: 150_000.0,
                warmup_us: 15_000.0,
                seed: 13,
                arrivals: crate::system::ArrivalProcess::Bursty,
                autoscale,
                ..SimConfig::default()
            })
            .run()
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.instance_boots, 0);
        assert!(on.instance_boots > 0, "bursts must trigger boots");
        assert!(
            on.latency.p99 <= off.latency.p99,
            "pool-backed autoscaling must not hurt the tail: {} vs {}",
            on.latency.p99,
            off.latency.p99
        );
    }

    #[test]
    fn bursty_arrivals_are_deterministic_and_bursty() {
        let run = || {
            SystemSim::new(SimConfig {
                machine: MachineConfig::umanycore(),
                workload: Workload::social_mix(),
                rps_per_server: 10_000.0,
                horizon_us: 20_000.0,
                warmup_us: 2_000.0,
                seed: 17,
                arrivals: crate::system::ArrivalProcess::Bursty,
                ..SimConfig::default()
            })
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert!(a.completed > 20);
    }

    #[test]
    fn request_table_follows_requests_in_flight_not_run_length() {
        // Slots are recycled: a run four times as long completes about
        // four times the requests in about the same table.
        let table = |horizon_us: f64| {
            let mut sim = SystemSim::new(SimConfig {
                machine: MachineConfig::umanycore(),
                workload: Workload::social_mix(),
                rps_per_server: 20_000.0,
                horizon_us,
                warmup_us: horizon_us * 0.1,
                seed: 19,
                ..SimConfig::default()
            });
            while sim.step() {}
            (sim.completed, sim.requests.len())
        };
        let (short_done, short_slots) = table(20_000.0);
        let (long_done, long_slots) = table(80_000.0);
        assert!(
            long_done as f64 >= 3.5 * short_done as f64,
            "completed {short_done} -> {long_done}"
        );
        assert!(
            long_slots as f64 <= 1.5 * short_slots as f64,
            "request slots {short_slots} -> {long_slots} for {short_done} -> {long_done} completed"
        );
    }

    #[test]
    fn arrival_cursor_keeps_the_up_front_schedule_order() {
        // Scheduling every arrival first gave them the lowest sequence
        // numbers: ties go to arrivals before queued events, and to the
        // lower server across streams.
        let c = Cycles::new;
        let mut cursor =
            ArrivalCursor::new(vec![vec![c(1), c(3), c(3)], vec![c(1), c(2), c(3)], vec![]]);
        let mut queue = EventQueue::new();
        queue.schedule_at(c(3), ());
        let mut order = Vec::new();
        while let Some(a) = cursor.pop_due(&queue) {
            order.push(a);
        }
        assert_eq!(
            order,
            [
                (c(1), 0),
                (c(1), 1),
                (c(2), 1),
                (c(3), 0),
                (c(3), 0),
                (c(3), 1)
            ]
        );
        assert_eq!(cursor.peek(), None);

        let mut cursor = ArrivalCursor::new(vec![vec![c(5)]]);
        let mut queue = EventQueue::new();
        queue.schedule_at(c(4), ());
        assert_eq!(
            cursor.pop_due(&queue),
            None,
            "not due before the queue's next event"
        );
        queue.pop();
        assert_eq!(cursor.pop_due(&queue), Some((c(5), 0)));
    }

    #[test]
    fn next_event_time_sees_pending_arrivals() {
        let mut sim = SystemSim::new(SimConfig {
            rps_per_server: 20_000.0,
            horizon_us: 2_000.0,
            warmup_us: 200.0,
            ..SimConfig::default()
        });
        let first = sim.arrivals.peek().expect("arrivals drawn");
        assert_eq!(sim.events.peek_time(), None, "arrivals are not queued");
        assert_eq!(sim.next_event_time(), Some(first));
        assert!(sim.step());
        assert!(sim.next_event_time() > Some(first));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_queue_override_rejected() {
        SystemSim::new(SimConfig {
            queues_override: Some(3),
            ..SimConfig::default()
        });
    }

    // ---- fault injection & tail mitigation -----------------------------

    use um_sched::{HedgeConfig, RetryConfig};
    use um_sim::fault::FaultWindow;

    fn faulted(
        machine: MachineConfig,
        plan: FaultPlan,
        mitigation: MitigationConfig,
        seed: u64,
        horizon_us: f64,
    ) -> RunReport {
        SystemSim::new(SimConfig {
            machine,
            workload: Workload::social_mix(),
            rps_per_server: 5_000.0,
            servers: 1,
            horizon_us,
            warmup_us: horizon_us * 0.1,
            seed,
            fault_plan: plan,
            mitigation,
            ..SimConfig::default()
        })
        .run()
    }

    #[test]
    fn empty_plan_and_noop_mitigation_change_nothing() {
        // The healthy-identity contract: a fault plan with no events and
        // an all-off mitigation config must be bit-identical to the
        // default configuration — no extra draws, events or charges.
        let baseline = quick(MachineConfig::umanycore(), 5_000.0, 7);
        let plumbed = faulted(
            MachineConfig::umanycore(),
            FaultPlan::builder(99).build(),
            MitigationConfig {
                steer: true, // inert without a plan
                ..MitigationConfig::default()
            },
            7,
            20_000.0,
        );
        assert_eq!(
            baseline.latency.p99.to_bits(),
            plumbed.latency.p99.to_bits()
        );
        assert_eq!(baseline.completed, plumbed.completed);
        assert_eq!(baseline.faults.rpc_ops, plumbed.faults.rpc_ops);
        assert_eq!(baseline.faults.rpc_attempts, plumbed.faults.rpc_ops);
        assert_eq!(baseline.faults.hedges, 0);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let plan = FaultPlan::builder(3)
            .message_drops(0.02)
            .fail_slow_every_village(
                1,
                128,
                1,
                FaultWindow::new(Cycles::ZERO, Cycles::new(u64::MAX), 4.0),
            )
            .build();
        let mitigation = MitigationConfig {
            hedge: Some(HedgeConfig::after_quantile(0.95, 400.0)),
            retry: Some(RetryConfig::with_timeout_us(1_000.0)),
            steer: true,
        };
        let a = faulted(
            MachineConfig::umanycore(),
            plan.clone(),
            mitigation,
            11,
            20_000.0,
        );
        let b = faulted(MachineConfig::umanycore(), plan, mitigation, 11, 20_000.0);
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.completed, b.completed);
        assert!(
            a.conservation.exact(),
            "conservation under faults: {:?}",
            a.conservation
        );
    }

    #[test]
    fn fail_stops_shrink_capacity_and_are_accounted() {
        let horizon = 20_000.0;
        let freq = MachineConfig::umanycore().core.frequency;
        let mut b = FaultPlan::builder(5);
        for v in 0..8 {
            b = b.core_fail_stop(0, v, Cycles::from_micros(horizon * 0.2, freq));
        }
        // One aimed past the machine: masked, not lost.
        let plan = b.core_fail_stop(7, 0, Cycles::ZERO).build();
        let r = faulted(
            MachineConfig::umanycore(),
            plan.clone(),
            MitigationConfig::default(),
            5,
            horizon,
        );
        assert_eq!(r.faults.cores_failed, 8);
        assert_eq!(r.faults.faults_applied, 8);
        assert_eq!(r.faults.faults_masked, 1);
        assert_eq!(
            r.faults.faults_applied + r.faults.faults_masked,
            plan.len() as u64
        );
        assert!(r.conservation.exact());
    }

    #[test]
    fn hedging_recovers_the_tail_under_fail_slow() {
        // The ISSUE acceptance scenario: one fail-slow core in every
        // 8-core village. Unmitigated, a sixth of the dispatches run 6x
        // slower and the p99 blows up; hedging re-issues slow operations
        // elsewhere and claws most of the tail back.
        let window = FaultWindow::new(Cycles::ZERO, Cycles::new(u64::MAX), 6.0);
        let plan = FaultPlan::builder(21)
            .fail_slow_every_village(1, 128, 1, window)
            .build();
        let horizon = 60_000.0;
        let healthy = faulted(
            MachineConfig::umanycore(),
            FaultPlan::none(),
            MitigationConfig::default(),
            9,
            horizon,
        );
        let degraded = faulted(
            MachineConfig::umanycore(),
            plan.clone(),
            MitigationConfig::default(),
            9,
            horizon,
        );
        let hedged = faulted(
            MachineConfig::umanycore(),
            plan,
            MitigationConfig {
                hedge: Some(HedgeConfig::after_quantile(0.95, 250.0)),
                ..MitigationConfig::default()
            },
            9,
            horizon,
        );
        assert!(
            degraded.latency.p99 > healthy.latency.p99 * 1.3,
            "fail-slow cores must hurt the tail: degraded {} vs healthy {}",
            degraded.latency.p99,
            healthy.latency.p99
        );
        assert!(hedged.faults.hedges > 0, "hedges must fire");
        assert!(
            hedged.latency.p99 < degraded.latency.p99,
            "hedging must recover tail latency: hedged {} vs degraded {}",
            hedged.latency.p99,
            degraded.latency.p99
        );
        assert!(hedged.conservation.exact(), "{:?}", hedged.conservation);
    }

    #[test]
    fn retries_recover_dropped_messages() {
        let plan = FaultPlan::builder(8).message_drops(0.02).build();
        let r = faulted(
            MachineConfig::umanycore(),
            plan,
            MitigationConfig {
                retry: Some(RetryConfig::with_timeout_us(1_500.0)),
                ..MitigationConfig::default()
            },
            31,
            40_000.0,
        );
        assert!(r.faults.drops > 0, "drops must be injected: {:?}", r.faults);
        assert!(r.faults.retries > 0, "retries must fire: {:?}", r.faults);
        assert!(r.conservation.exact(), "{:?}", r.conservation);
        // Retries keep nearly every request alive: far fewer give-ups
        // than dropped legs.
        assert!(
            r.faults.gave_up_requests * 4 < r.faults.drops,
            "retries must absorb most drops: {:?}",
            r.faults
        );
    }

    #[test]
    fn unmitigated_drops_give_up_and_are_excluded() {
        let plan = FaultPlan::builder(13).message_drops(0.05).build();
        let r = faulted(
            MachineConfig::umanycore(),
            plan,
            MitigationConfig::default(),
            17,
            40_000.0,
        );
        assert!(r.faults.drops > 0);
        assert!(
            r.faults.gave_up_ops > 0,
            "without retries a lost leg abandons the op: {:?}",
            r.faults
        );
        assert!(r.faults.gave_up_requests > 0);
        // Abandoned requests still complete (and conserve), they are just
        // not latency samples.
        assert!(r.conservation.exact(), "{:?}", r.conservation);
        assert!(r.completed > 0);
    }

    #[test]
    fn steering_routes_around_degraded_villages() {
        // Fully degrade a handful of villages; steering should dodge
        // them at dispatch time and keep the tail near healthy.
        let window = FaultWindow::new(Cycles::ZERO, Cycles::new(u64::MAX), 10.0);
        let mut b = FaultPlan::builder(2);
        for v in 0..16 {
            b = b.core_fail_slow(0, v, 8, window);
        }
        let plan = b.build();
        let horizon = 60_000.0;
        let blind = faulted(
            MachineConfig::umanycore(),
            plan.clone(),
            MitigationConfig::default(),
            41,
            horizon,
        );
        let steered = faulted(
            MachineConfig::umanycore(),
            plan,
            MitigationConfig {
                steer: true,
                ..MitigationConfig::default()
            },
            41,
            horizon,
        );
        assert!(
            steered.latency.p99 < blind.latency.p99,
            "steering must dodge degraded villages: steered {} vs blind {}",
            steered.latency.p99,
            blind.latency.p99
        );
    }

    #[test]
    fn link_outages_delay_but_conserve() {
        let freq = MachineConfig::umanycore().core.frequency;
        let outage = FaultWindow::new(
            Cycles::from_micros(2_000.0, freq),
            Cycles::from_micros(6_000.0, freq),
            f64::INFINITY,
        );
        let plan = FaultPlan::builder(6)
            .link_fault(0, 3, outage)
            .link_fault(
                0,
                11,
                FaultWindow::new(Cycles::ZERO, Cycles::new(u64::MAX), 3.0),
            )
            .build();
        let r = faulted(
            MachineConfig::umanycore(),
            plan.clone(),
            MitigationConfig::default(),
            19,
            20_000.0,
        );
        assert_eq!(r.faults.faults_applied, plan.len() as u64);
        assert!(r.conservation.exact(), "{:?}", r.conservation);
        assert!(r.completed > 0);
    }
}
