//! The full-system discrete-event simulator.
//!
//! One [`SystemSim`] models a cluster of servers, each carrying one package
//! of the configured machine (ServerClass / ScaleOut / uManycore). External
//! client requests arrive per server as a Poisson process; each request
//! executes its sampled plan — compute segments separated by blocking
//! storage RPCs and synchronous service calls — on the village/queue fabric
//! of the machine, paying that machine's scheduling, context-switch,
//! RPC-processing, coherence and interconnect costs.
//!
//! One file per mechanism (DESIGN.md, "SystemSim layout"): `config` (what
//! a run is configured with), `village` (queues, placement and work
//! claiming), `segment` (what a core pays to run a segment), `rpc` (storage
//! and call operations with their mitigation) and `finish` (completion and
//! the report). This file holds the shared state and the event loop.

mod config;
mod finish;
mod rpc;
mod segment;
mod village;

#[cfg(test)]
mod tests;

pub(crate) use config::{ArrivalCursor, BreakdownCollector};
pub use config::{ArrivalProcess, SimConfig};

use crate::params;
use crate::report::FaultStats;
use crate::request::{Origin, Phase, ReqId, Request, Slots};
use rand::rngs::SmallRng;
use rand::Rng;
use rpc::StorageLegs;
use um_arch::coherence::CoherenceModel;
use um_arch::config::{CoherenceDomain, IcnKind, MachineKind};
use um_net::{ExternalNetwork, FatTree, LeafSpine, Mesh2D, Network, NetworkConfig};
use um_sched::RetryBudget;
use um_sim::fault::{FaultEvent, FaultWindow};
use um_sim::trace::{Component, LatencyBreakdown};
use um_sim::{rng as simrng, Cycles, EventQueue, Frequency};
use um_stats::Samples;
use um_workload::ServiceId;
use village::Server;

/// Any of the three on-package networks, unified behind one send surface.
#[derive(Clone, Debug)]
enum Icn {
    Mesh(Network<Mesh2D>),
    Fat(Network<FatTree>),
    Leaf(Network<LeafSpine>),
}

/// Applies `$body` to whichever network `$icn` holds, bound as `$net`.
macro_rules! each_net {
    ($icn:expr, $net:ident => $body:expr) => {
        match $icn {
            Icn::Mesh($net) => $body,
            Icn::Fat($net) => $body,
            Icn::Leaf($net) => $body,
        }
    };
}

impl Icn {
    /// The machine's on-package network over `clusters` clusters.
    fn new(cfg: &SimConfig, clusters: usize) -> Self {
        let net_config = NetworkConfig {
            seed: cfg.seed,
            ..if cfg.icn_contention {
                NetworkConfig::on_package()
            } else {
                NetworkConfig::contention_free()
            }
        };
        match cfg.machine.icn {
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
        }
    }

    fn send(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles) -> Cycles {
        each_net!(self, n => n.send(src, dst, bytes, depart))
    }

    /// Summed queueing delay of `n` equal transfers departing together.
    fn send_burst(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles, n: u64) -> Cycles {
        each_net!(self, net => net.send_burst(src, dst, bytes, depart, n))
    }

    fn stats(&self) -> um_net::NetworkStats {
        each_net!(self, n => n.stats())
    }

    fn hop_latency(&self) -> Cycles {
        each_net!(self, n => n.config().hop_latency)
    }

    /// Registers a fault window on a link (index taken modulo the link
    /// count by the network layer).
    fn inject_link_fault(&mut self, link: usize, window: FaultWindow) {
        each_net!(self, n => n.inject_link_fault(link, window))
    }
}

/// The per-machine costs a run charges, resolved once from the machine:
/// hardware request scheduling moves RPC processing to the NIC and the
/// queue into the Dequeue instruction (§4.3), and hardware context
/// switching takes the OS off the request path (§4.4).
#[derive(Clone, Copy, Debug)]
struct Costs {
    /// On-core processing of an incoming request, wall-clock µs.
    rpc_proc_us: f64,
    /// On-core processing of one RPC message (issue or response receipt),
    /// wall-clock µs.
    rpc_msg_us: f64,
    /// Probability that a dispatched segment takes an interference hiccup.
    hiccup_p: f64,
    /// Memory-system bytes a segment moves per µs it occupies its core.
    mem_bytes_per_us: f64,
    /// Whether read-mostly state sits in a per-cluster memory pool next to
    /// its villages (§4.1), which keeps memory traffic in the cluster.
    local_pool: bool,
    /// Critical section of one software queue operation; hardware RQs
    /// arbitrate in the Dequeue instruction (zero here).
    queue_lock: Cycles,
    /// One half of a context switch: the save at block time or the
    /// restore at resume.
    ctx_half: Cycles,
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
        legs: StorageLegs,
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
    costs: Costs,
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
    /// Cached [`um_sim::fault::FaultPlan::drop_probability`].
    drop_p: f64,
    retry_budget: RetryBudget,
    horizon: Cycles,
    warmup: Cycles,
    // Statistics.
    latency: Samples,
    /// Village-queue wait summed over dispatches, and the dispatch count.
    queue_wait: Cycles,
    dispatches: u64,
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
        let machine = &cfg.machine;
        let freq = machine.core.frequency;
        let total_cores = machine.total_cores();

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
            None => machine.shape.total_villages(),
        };

        let hw = machine.hw_scheduling;
        let (rpc_proc_us, rpc_msg_us) = if hw {
            (params::HW_RPC_PROC_US, params::HW_RPC_MSG_US)
        } else {
            (params::SW_RPC_PROC_US, params::SW_RPC_MSG_US)
        };
        let local_pool = machine.coherence == CoherenceDomain::Village && machine.memory_pool;
        let costs = Costs {
            rpc_proc_us,
            rpc_msg_us,
            // Tail-at-scale software interference [16]: hardware request
            // scheduling removes the kernel's NIC/queue path — about half
            // the interference windows (§4.3) — and hardware context
            // switching removes the rest (§4.4).
            hiccup_p: match (machine.ctx_switch.is_software(), hw) {
                (false, _) => 0.0,
                (true, true) => params::SW_HICCUP_P / 2.0,
                (true, false) => params::SW_HICCUP_P,
            },
            mem_bytes_per_us: if local_pool {
                // Snapshot/state reads served by the cluster pool; only the
                // residual (DRAM writes, cold misses) moves — and locally.
                params::MEM_BYTES_PER_US_VILLAGE
            } else if machine.kind == MachineKind::ServerClass {
                // ServerClass's 4 MB of cache per core absorbs much of the
                // refetch traffic the small-cache manycores must replay.
                params::MEM_BYTES_PER_US_GLOBAL / 2.0
            } else {
                params::MEM_BYTES_PER_US_GLOBAL
            },
            local_pool,
            // Cache-line ping-pong makes a software queue's critical
            // section grow linearly with the sharer count: the §3.2
            // argument against one fully-centralized queue.
            queue_lock: if hw {
                Cycles::ZERO
            } else {
                Cycles::new(
                    (params::SW_QUEUE_LOCK_CYCLES_PER_SHARER * (total_cores / n_villages) as f64)
                        as u64,
                )
            },
            ctx_half: machine.ctx_switch.half_cost(),
        };

        let mut servers: Vec<Server> = (0..cfg.servers)
            .map(|_| Server::new(&cfg, n_villages))
            .collect();
        let coherence = match machine.coherence {
            CoherenceDomain::Village => CoherenceModel::village(),
            CoherenceDomain::Global if total_cores > 256 => CoherenceModel::global_1024(),
            CoherenceDomain::Global => CoherenceModel::global_small(total_cores),
        };
        // Arrivals stay in their pre-drawn streams (the cursor feeds them
        // in), so the queue holds only in-flight events; its heap grows to
        // that peak once.
        let mut events = EventQueue::new();
        let arrivals = ArrivalCursor::new(cfg.arrival_streams());
        let faults = install_faults(&cfg, n_villages, &mut servers, &mut events);

        Self {
            horizon: Cycles::from_micros(cfg.horizon_us, freq),
            warmup: Cycles::from_micros(cfg.warmup_us, freq),
            // The external fabric connects the cluster's servers plus the
            // storage tier (index = cfg.servers).
            external: ExternalNetwork::paper_default(cfg.servers + 1, freq),
            coherence,
            rng: simrng::stream(cfg.seed, "system"),
            fault_rng: simrng::stream(cfg.seed, "fault"),
            drop_p: cfg.fault_plan.drop_probability(),
            retry_budget: RetryBudget::new(cfg.mitigation.retry.map_or(0.0, |r| r.budget_fraction)),
            costs,
            events,
            arrivals,
            requests: Slots::new(),
            admitted: 0,
            servers,
            latency: Samples::new(),
            queue_wait: Cycles::ZERO,
            dispatches: 0,
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
    pub fn run(mut self) -> crate::report::RunReport {
        while self.step() {}
        self.finish()
    }

    /// The time of the next pending event, if any. A cluster driver uses
    /// this to interleave node steps with its own events on one global
    /// clock.
    pub fn next_event_time(&self) -> Option<Cycles> {
        [self.events.peek_time(), self.arrivals.peek()]
            .into_iter()
            .flatten()
            .min()
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
    /// order. The buffer keeps its capacity, so the next completion does
    /// not allocate.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, NodeCompletion> {
        self.completions.drain(..)
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
        match event {
            Event::InjectedArrival { server, token } => {
                self.on_client_arrival(server, now, Some(token))
            }
            Event::Enqueue { req } => self.enqueue(req, now, false),
            Event::SegmentDone { req } => self.on_segment_done(req, now),
            Event::Unblock { req } => self.on_unblock(req, now),
            Event::CoreFree { server, village } => self.on_core_free(server, village, now),
            Event::InstanceReady {
                server,
                service,
                village,
            } => self.servers[server].instance_ready(service, village),
            Event::CoreFail { server, village } => self.on_core_fail(server, village),
            Event::StorageDone { req, gen, legs } => {
                self.on_storage_done(req, gen, legs, now);
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

    /// Schedules `event`, which names `req`, pinning `req` until the event
    /// is delivered.
    fn schedule_pinned(&mut self, at: Cycles, req: ReqId, event: Event) {
        self.events.schedule_at(at, event);
        self.pin(req);
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

    fn freq(&self) -> Frequency {
        self.cfg.machine.core.frequency
    }

    /// Wall-clock microseconds (network, storage) to cycles.
    fn wall_cycles(&self, us: f64) -> Cycles {
        Cycles::from_micros(us, self.freq())
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
}

/// Installs the fault plan: link faults and drop probabilities take effect
/// (are "applied") at install time, fail-stops when their `CoreFail` event
/// fires; anything aimed at a nonexistent target is masked. The
/// fault-accounting sanitizer checks that every plan event ends up in
/// exactly one of the two buckets.
fn install_faults(
    cfg: &SimConfig,
    n_villages: usize,
    servers: &mut [Server],
    events: &mut EventQueue<Event>,
) -> FaultStats {
    let mut faults = FaultStats::default();
    let exists = |server, village| server < cfg.servers && village < n_villages;
    for event in cfg.fault_plan.events() {
        let applied = match *event {
            FaultEvent::CoreFailStop {
                server,
                village,
                at,
            } if exists(server, village) => {
                // Counted when it fires (`on_core_fail`).
                events.schedule_at(at, Event::CoreFail { server, village });
                continue;
            }
            FaultEvent::CoreFailSlow {
                server, village, ..
            } => exists(server, village),
            FaultEvent::LinkFault {
                server,
                link,
                window,
            } if server < cfg.servers => {
                servers[server].icn.inject_link_fault(link, window);
                true
            }
            FaultEvent::MessageDrops { .. } => true,
            FaultEvent::CoreFailStop { .. } | FaultEvent::LinkFault { .. } => false,
        };
        if applied {
            faults.faults_applied += 1;
        } else {
            faults.faults_masked += 1;
        }
    }
    faults
}
