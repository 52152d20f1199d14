//! The cluster-scale serving layer: a rack of μManycore packages behind a
//! front-end load balancer.
//!
//! The paper's tail-at-scale argument is ultimately a fleet argument, so
//! this module composes N per-package [`SystemSim`] instances — each one
//! the cycle-faithful full-system model — into one coupled discrete-event
//! simulation:
//!
//! - **One global clock.** A single [`EventQueue`] carries the
//!   load balancer's response deliveries and lazy per-node wake events,
//!   and the pre-drawn client arrivals feed in from a cursor in the same
//!   time order. A node may be stepped ahead through [`SystemSim::step`]
//!   up to the next arrival that could be routed to it; its steps are
//!   replayed in global time order, one wake each, so the whole rack
//!   advances on one cycle base.
//! - **Rack fabric.** An [`ExternalNetwork`] with the load balancer as an
//!   extra endpoint models the LB↔node legs: per-endpoint NIC egress
//!   queues, fixed propagation, and optional per-message jitter sampled
//!   from a [`ServiceTimeDist`].
//! - **Routing policies.** Random, round-robin, JSQ(d)
//!   (power-of-d-choices) and a central least-loaded queue, optionally
//!   with straggler-aware steering away from fault-degraded nodes (the
//!   node-level analogue of `um_sched`'s village steering).
//! - **Admission control and autoscaling.** A per-node in-flight cap
//!   backs requests up in the LB's FIFO; a watermark on fleet in-flight
//!   boots standby nodes after a boot delay (the rack-level analogue of
//!   the §3.5 instance autoscaling).
//! - **Latency provenance.** Every fleet request's breakdown is the
//!   node's in-package breakdown plus [`Component::ClusterHop`] (LB queue
//!   wait + both fabric legs) plus the client RTT, and must sum to the
//!   end-to-end latency to the cycle — the same conservation invariant
//!   the single-package simulator enforces.
//!
//! Determinism: a cluster run is a single serial event loop, node `i`
//! seeds from `derive_seed(cluster_seed, i)`, and every cluster-level
//! draw comes from named [`um_sim::rng`] streams — so sweeps stay
//! bit-identical at any `UM_THREADS`, and node counts change results
//! without ever aliasing seeds between nodes.

use crate::params;
use crate::report::{BreakdownReport, ConservationStats, RunReport};
use crate::request::Slots;
use crate::system::{ArrivalCursor, ArrivalProcess, BreakdownCollector, SimConfig, SystemSim};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use um_net::ExternalNetwork;
use um_sim::trace::{Component, LatencyBreakdown};
use um_sim::{rng as simrng, Cycles, EventQueue};
use um_stats::{Samples, Summary};
use um_workload::ServiceTimeDist;

/// How the load balancer picks a node for each arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Uniformly random over eligible nodes — the fleet behaves as N
    /// independent M/M/1-ish queues (the queueing-oracle baseline).
    Random,
    /// Cyclic over eligible nodes.
    RoundRobin,
    /// Power-of-d-choices: sample `d` distinct eligible nodes, dispatch
    /// to the one with the fewest requests in flight (ties break on the
    /// lower index). `d = 2` is the classic JSQ(2).
    JsqD {
        /// Nodes sampled per decision (at least 1).
        d: usize,
    },
    /// Full join-the-shortest-queue: dispatch to the least-loaded
    /// eligible node. With a per-node in-flight cap of 1 this is exactly
    /// an M/M/k central queue (the Erlang-C oracle).
    CentralQueue,
}

/// Cluster-level autoscaling: standby nodes boot when the fleet runs hot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterAutoscale {
    /// Nodes active from time zero (the rest are standby).
    pub initial_nodes: usize,
    /// Boot the next standby node when total in-flight exceeds this many
    /// requests per active node.
    pub hi_inflight_per_node: f64,
    /// Boot delay, microseconds (snapshot-backed boots are milliseconds;
    /// cold boots hundreds of milliseconds — §3.5).
    pub boot_us: f64,
}

/// The rack fabric between the load balancer and the nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterNetConfig {
    /// One-way propagation, microseconds (the paper's external network
    /// uses 0.5 µs across the 10-server cluster; a rack-scale fabric sits
    /// in the same regime).
    pub one_way_us: f64,
    /// NIC egress bandwidth per endpoint, GB/s.
    pub nic_gbps: f64,
    /// Optional per-message propagation jitter distribution,
    /// microseconds; `None` keeps the fabric deterministic per message.
    pub jitter_us: Option<ServiceTimeDist>,
    /// Request-leg message size, bytes.
    pub request_bytes: u64,
    /// Response-leg message size, bytes.
    pub response_bytes: u64,
}

impl Default for ClusterNetConfig {
    fn default() -> Self {
        Self {
            one_way_us: 0.5,
            nic_gbps: 200.0,
            jitter_us: None,
            request_bytes: params::REQUEST_BYTES,
            response_bytes: params::RESPONSE_BYTES,
        }
    }
}

/// Configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-package configuration template. `servers` is forced to 1 (one
    /// package per node), `arrivals` to [`ArrivalProcess::Injected`],
    /// `seed` to `derive_seed(cluster seed, node)`, and `fault_plan` to
    /// the rack plan's per-node projection; everything else (machine,
    /// workload, mitigation, autoscale, …) applies to every node as
    /// written.
    pub node: SimConfig,
    /// Number of packages in the rack.
    pub nodes: usize,
    /// Offered load per node, requests per second: the load balancer's
    /// aggregate arrival rate is `rps_per_node * nodes`.
    pub rps_per_node: f64,
    /// Fleet arrival process at the load balancer.
    ///
    /// # Panics
    ///
    /// [`ClusterSim::new`] rejects [`ArrivalProcess::Injected`] here —
    /// the cluster layer *is* the injector.
    pub arrivals: ArrivalProcess,
    /// Arrival horizon, microseconds.
    pub horizon_us: f64,
    /// Requests arriving before this are executed but not recorded.
    pub warmup_us: f64,
    /// Master seed for the whole rack.
    pub seed: u64,
    /// Load-balancer routing policy.
    pub routing: RoutingPolicy,
    /// Per-node admission cap: at most this many requests in flight per
    /// node; excess waits in the LB's FIFO. `None` disables admission
    /// control. Must be at least 1 when set.
    pub max_in_flight: Option<usize>,
    /// Straggler-aware steering: route around nodes the fault plan marks
    /// degraded (engages only when a plan exists, so healthy runs are
    /// draw-for-draw identical with steering on or off).
    pub steer: bool,
    /// Cluster-level autoscaling; `None` keeps every node active.
    pub autoscale: Option<ClusterAutoscale>,
    /// The rack fabric.
    pub net: ClusterNetConfig,
    /// Rack-level fault plan; node index = the plan's server index.
    pub fault_plan: um_sim::fault::FaultPlan,
    /// Collect per-component breakdown distributions into
    /// [`ClusterReport::breakdown`].
    pub trace: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            node: SimConfig::default(),
            nodes: 4,
            rps_per_node: 5_000.0,
            arrivals: ArrivalProcess::Poisson,
            horizon_us: 20_000.0,
            warmup_us: 2_000.0,
            seed: 42,
            routing: RoutingPolicy::JsqD { d: 2 },
            max_in_flight: None,
            steer: false,
            autoscale: None,
            net: ClusterNetConfig::default(),
            fault_plan: um_sim::fault::FaultPlan::none(),
            trace: false,
        }
    }
}

/// Outcome of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Fleet end-to-end latency digest (client send to response receipt).
    pub latency: Summary,
    /// Cluster-hop share digest (LB wait + both fabric legs),
    /// microseconds.
    pub cluster_hop: Summary,
    /// Requests completed (including warm-up and gave-up requests).
    pub completed: u64,
    /// Requests recorded into the latency samples.
    pub recorded: u64,
    /// Requests that exhausted their RPC attempts inside a node.
    pub gave_up: u64,
    /// Requests the load balancer admitted that never got a response:
    /// stuck in its queue or in a node. Zero on a healthy run.
    pub stranded: u64,
    /// Requests dispatched to each node, by node index.
    pub dispatched_per_node: Vec<u64>,
    /// Largest LB admission-queue depth observed.
    pub peak_lb_queue: usize,
    /// Standby nodes booted by the autoscaler.
    pub boots: u64,
    /// Nodes active at the end of the run.
    pub active_nodes: usize,
    /// Events processed: node steps plus cluster-level events (the
    /// denominator of the rack benchmark's events/s).
    pub events: u64,
    /// Fleet-level conservation accounting over every completed request.
    pub conservation: ConservationStats,
    /// Per-component fleet breakdown distributions (with
    /// [`ClusterConfig::trace`]).
    pub breakdown: Option<BreakdownReport>,
    /// Each node's own [`RunReport`], in node order.
    pub node_reports: Vec<RunReport>,
}

/// One fleet request's load-balancer-side state, indexed by token.
#[derive(Clone, Copy, Debug)]
struct LbRequest {
    /// When the client handed the request to the LB.
    sent_at: Cycles,
    /// Node it was dispatched to (`None` while waiting in the LB queue).
    node: Option<usize>,
    /// LB queue wait + request-leg fabric cycles.
    hop_req: Cycles,
    /// Response-leg fabric cycles (set when the node finishes).
    hop_resp: Cycles,
    /// The node's in-package breakdown (set when the node finishes).
    node_bd: LatencyBreakdown,
    /// Whether the node gave the request up.
    gave_up: bool,
}

/// Cluster-level events on the global event queue (client arrivals
/// come from the [`ArrivalCursor`]).
#[derive(Clone, Copy, Debug)]
enum ClusterEvent {
    /// A node may have an internal event due now: replay its next step.
    /// Stale wakes (the node's next event moved) are skipped; the wake
    /// for the true next time is always on the calendar.
    NodeWake { node: usize },
    /// A node's response reaches the load balancer.
    Response { token: u64 },
    /// A standby node finishes booting and joins the active set.
    NodeUp { node: usize },
}

/// Package steps a node runs ahead of the rack clock at most, per batch:
/// bounds a step log's memory.
const RUN_AHEAD_STEPS: usize = 64;

/// Candidate sets drawn ahead, per node: the window holds this many
/// unrouted arrivals per node in the rack.
const LOOKAHEAD_PER_NODE: usize = 4;

/// The load balancer's candidate draws: the nodes one routing decision
/// may pick from, before it reads their load.
struct Router {
    policy: RoutingPolicy,
    rng: SmallRng,
    /// Round-robin cursor.
    rr_next: usize,
    /// The nodes eligible for the decision being drawn, ascending.
    eligible: Vec<usize>,
    /// The identity permutation of `0..nodes` between draws: JSQ(d)'s
    /// partial Fisher–Yates shuffles positions of `eligible` in it.
    pool: Vec<usize>,
}

impl Router {
    /// Appends one decision's candidates over `eligible` (non-empty) to
    /// `out`: one node for random and round-robin, `min(d, eligible)`
    /// distinct nodes for JSQ(d), every eligible node for the central
    /// queue.
    fn draw(&mut self, active: usize, out: &mut impl Extend<usize>) {
        let eligible = &self.eligible;
        match self.policy {
            RoutingPolicy::Random => {
                out.extend([eligible[self.rng.gen_range(0..eligible.len())]]);
            }
            RoutingPolicy::RoundRobin => {
                // Next eligible node at or after the cursor, cyclically.
                let next = eligible.partition_point(|&n| n < self.rr_next);
                let pick = eligible.get(next).copied().unwrap_or(eligible[0]);
                self.rr_next = (pick + 1) % active.max(1);
                out.extend([pick]);
            }
            RoutingPolicy::JsqD { d } => {
                assert!(d >= 1, "JSQ(d) needs d >= 1");
                let k = d.min(eligible.len());
                for i in 0..k {
                    let j = self.rng.gen_range(i..eligible.len());
                    self.pool.swap(i, j);
                    out.extend([eligible[self.pool[i]]]);
                }
                // Restore the identity. Only positions `0..k` and those
                // whose own value was drawn (values leave a position at
                // or past `k` only for the prefix) moved.
                for i in 0..k {
                    let v = self.pool[i];
                    if v >= k {
                        self.pool[v] = v;
                    }
                }
                for (i, slot) in self.pool[..k].iter_mut().enumerate() {
                    *slot = i;
                }
            }
            RoutingPolicy::CentralQueue => out.extend(eligible.iter().copied()),
        }
    }
}

/// Candidate sets drawn ahead of the arrivals they route. Used only when
/// the draw cannot depend on rack state (every node eligible, no cap, no
/// autoscale, no steering), so drawing early consumes the routing stream
/// in the same order.
struct Lookahead {
    /// Nodes per candidate set.
    k: usize,
    /// Index of the next arrival to draw.
    drawn: usize,
    /// Candidate sets of the drawn, unrouted arrivals, `k` nodes each,
    /// oldest first.
    sets: VecDeque<usize>,
    /// Per node, the times of the drawn, unrouted arrivals naming it,
    /// oldest first.
    named: Vec<VecDeque<Cycles>>,
}

impl Lookahead {
    /// Draws candidate sets for the arrivals after the last drawn one
    /// until the window is full or `times` runs out.
    fn top_up(&mut self, router: &mut Router, times: &[Cycles]) {
        let window = LOOKAHEAD_PER_NODE * self.named.len() * self.k;
        while self.sets.len() < window {
            let Some(&at) = times.get(self.drawn) else {
                return;
            };
            self.drawn += 1;
            let start = self.sets.len();
            // Every node is active in a rack that draws ahead.
            router.draw(self.named.len(), &mut self.sets);
            for &n in self.sets.range(start..) {
                self.named[n].push_back(at);
            }
        }
    }

    /// Moves the oldest drawn set, the next arrival's, into `out`.
    fn pop(&mut self, out: &mut Vec<usize>) {
        for n in self.sets.drain(..self.k) {
            self.named[n].pop_front();
            out.push(n);
        }
    }

    /// The earliest time an unrouted arrival could be routed to `node`:
    /// its first naming in the window, else the first arrival not drawn.
    fn horizon(&self, node: usize, times: &[Cycles]) -> Cycles {
        self.named[node]
            .front()
            .or_else(|| times.get(self.drawn))
            .copied()
            .unwrap_or(Cycles::MAX)
    }
}

/// Steps a node has taken ahead of the rack clock, each replayed by one
/// wake at its time.
#[derive(Default)]
struct StepLog {
    /// Each logged step's time and the number of completions it made,
    /// oldest first.
    steps: VecDeque<(Cycles, usize)>,
    /// The logged steps' completions, `(token, finished_at)`, in order.
    /// Their breakdowns go straight to the LB records, which nothing
    /// reads before the response arrives.
    done: VecDeque<(u64, Cycles)>,
}

/// The rack simulator. Construct with [`ClusterSim::new`], run with
/// [`ClusterSim::run`].
pub struct ClusterSim {
    cfg: ClusterConfig,
    events: EventQueue<ClusterEvent>,
    /// The fleet's client arrivals at the load balancer.
    arrivals: ArrivalCursor,
    nodes: Vec<SystemSim>,
    /// Each node's steps not yet replayed.
    logs: Vec<StepLog>,
    /// The rack fabric; endpoint `cfg.nodes` is the load balancer.
    fabric: ExternalNetwork,
    /// Requests in flight, by token; a token is recycled once its
    /// response reaches the load balancer.
    records: Slots<LbRequest>,
    /// Requests admitted at the load balancer so far.
    admitted: u64,
    /// Admission-queue FIFO of tokens waiting for a node slot.
    lb_queue: VecDeque<u64>,
    in_flight: Vec<u64>,
    /// Sum of `in_flight`.
    in_flight_total: u64,
    dispatched: Vec<u64>,
    /// Nodes `0..active` serve traffic; the rest are standby.
    active: usize,
    /// Whether a standby boot is in flight (one at a time).
    booting: bool,
    boots: u64,
    router: Router,
    /// Candidate sets drawn ahead; `None` draws each at its decision.
    lookahead: Option<Lookahead>,
    /// One decision's candidates, reused.
    candidates: Vec<usize>,
    jitter_rng: SmallRng,
    warmup: Cycles,
    // Statistics.
    latency: Samples,
    hop_us: Samples,
    completed: u64,
    recorded: u64,
    gave_up: u64,
    peak_lb_queue: usize,
    node_steps: u64,
    cluster_events: u64,
    breakdown: BreakdownCollector,
}

impl ClusterSim {
    /// Builds the rack: N seeded packages, the fabric, and the fleet
    /// arrival schedule.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations: zero nodes, a non-positive
    /// horizon, [`ArrivalProcess::Injected`] fleet arrivals, an admission
    /// cap of zero, or an autoscale window wider than the fleet.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(cfg.horizon_us > 0.0, "need a positive horizon");
        assert!(
            cfg.arrivals != ArrivalProcess::Injected,
            "the cluster layer is the injector; fleet arrivals must be Poisson or Bursty"
        );
        assert!(
            cfg.max_in_flight != Some(0),
            "an admission cap of zero would never dispatch"
        );
        let freq = cfg.node.machine.core.frequency;

        let active = match cfg.autoscale {
            Some(a) => {
                assert!(
                    a.initial_nodes >= 1 && a.initial_nodes <= cfg.nodes,
                    "autoscale initial_nodes must be in 1..=nodes"
                );
                a.initial_nodes
            }
            None => cfg.nodes,
        };

        // One package per node, fed by injection, seeded per node so no
        // two nodes share a random stream and a sweep point's rack is a
        // pure function of (cluster seed, node index).
        let nodes: Vec<SystemSim> = (0..cfg.nodes)
            .map(|i| {
                SystemSim::new(SimConfig {
                    servers: 1,
                    arrivals: ArrivalProcess::Injected,
                    seed: simrng::derive_seed(cfg.seed, i as u64),
                    rps_per_server: cfg.rps_per_node,
                    horizon_us: cfg.horizon_us,
                    warmup_us: cfg.warmup_us,
                    fault_plan: cfg.fault_plan.for_server(i),
                    trace: false,
                    ..cfg.node.clone()
                })
            })
            .collect();

        let fabric = ExternalNetwork::new(
            cfg.nodes + 1,
            Cycles::from_micros(cfg.net.one_way_us, freq),
            cfg.net.nic_gbps / freq.as_ghz(),
        );

        // Fleet arrivals: one merged stream at the aggregate rate (the
        // M/M/k oracle needs a single Poisson stream at λ = k·λ_node).
        let rate = cfg.rps_per_node * cfg.nodes as f64;
        let arrival_seed = simrng::stream(cfg.seed, "cluster-arrivals").gen::<u64>();
        let times = cfg.arrivals.times(rate, arrival_seed, cfg.horizon_us);
        let arrivals = ArrivalCursor::new(vec![times
            .into_iter()
            .map(|t| Cycles::from_micros(t, freq))
            .collect()]);

        // When no draw reads rack state, every candidate set can be drawn
        // ahead, and a node steps ahead to the first arrival naming it.
        let steering = cfg.steer && !cfg.fault_plan.is_empty();
        let lookahead = (cfg.routing != RoutingPolicy::CentralQueue
            && cfg.max_in_flight.is_none()
            && cfg.autoscale.is_none()
            && !steering)
            .then(|| Lookahead {
                k: match cfg.routing {
                    RoutingPolicy::JsqD { d } => d.min(cfg.nodes),
                    _ => 1,
                },
                drawn: 0,
                sets: VecDeque::new(),
                named: (0..cfg.nodes).map(|_| VecDeque::new()).collect(),
            });

        Self {
            events: EventQueue::new(),
            arrivals,
            logs: (0..cfg.nodes).map(|_| StepLog::default()).collect(),
            fabric,
            records: Slots::new(),
            admitted: 0,
            lb_queue: VecDeque::new(),
            in_flight: vec![0; cfg.nodes],
            in_flight_total: 0,
            dispatched: vec![0; cfg.nodes],
            active,
            booting: false,
            boots: 0,
            router: Router {
                policy: cfg.routing,
                rng: simrng::stream(cfg.seed, "cluster-routing"),
                rr_next: 0,
                eligible: (0..cfg.nodes).collect(),
                pool: (0..cfg.nodes).collect(),
            },
            lookahead,
            candidates: Vec::new(),
            jitter_rng: simrng::stream(cfg.seed, "cluster-jitter"),
            warmup: Cycles::from_micros(cfg.warmup_us, freq),
            latency: Samples::new(),
            hop_us: Samples::new(),
            completed: 0,
            recorded: 0,
            gave_up: 0,
            peak_lb_queue: 0,
            node_steps: 0,
            cluster_events: 0,
            breakdown: BreakdownCollector::new(cfg.trace),
            nodes,
            cfg,
        }
    }

    /// Runs the rack to completion (every admitted request has its
    /// response delivered to the load balancer) and returns the report.
    pub fn run(mut self) -> ClusterReport {
        while self.step() {}
        self.into_report()
    }

    /// Delivers the next client arrival when it is due no later than the
    /// calendar's next event, else the calendar's next event. Returns
    /// `false` when both are exhausted.
    fn step(&mut self) -> bool {
        if let Some((now, _)) = self.arrivals.pop_due(&self.events) {
            self.on_arrival(now);
        } else if let Some((now, event)) = self.events.pop() {
            match event {
                ClusterEvent::NodeWake { node } => self.on_node_wake(node, now),
                ClusterEvent::Response { token } => self.on_response(token, now),
                ClusterEvent::NodeUp { node } => self.on_node_up(node, now),
            }
        } else {
            return false;
        }
        self.cluster_events += 1;
        true
    }

    fn freq(&self) -> um_sim::Frequency {
        self.cfg.node.machine.core.frequency
    }

    /// The load balancer's fabric endpoint index.
    fn lb(&self) -> usize {
        self.cfg.nodes
    }

    /// Samples one fabric-jitter value, in cycles (zero without a
    /// distribution — no draw, so jitterless runs are draw-for-draw
    /// identical to runs predating the knob).
    fn sample_jitter(&mut self) -> Cycles {
        match &self.cfg.net.jitter_us {
            Some(dist) => {
                let us = dist.sample(&mut self.jitter_rng);
                Cycles::from_micros(us, self.freq())
            }
            None => Cycles::ZERO,
        }
    }

    // ---- event handlers ------------------------------------------------

    fn on_arrival(&mut self, now: Cycles) {
        self.admitted += 1;
        let token = self.records.insert(LbRequest {
            sent_at: now,
            node: None,
            hop_req: Cycles::ZERO,
            hop_resp: Cycles::ZERO,
            node_bd: LatencyBreakdown::new(),
            gave_up: false,
        }) as u64;
        match self.route(now, false) {
            Some(node) => self.dispatch(token, node, now),
            None => {
                self.lb_queue.push_back(token);
                self.peak_lb_queue = self.peak_lb_queue.max(self.lb_queue.len());
            }
        }
        self.maybe_scale_up(now);
    }

    /// Picks a node for one request, or `None` when admission control
    /// leaves no eligible node. `require_slot` restricts the choice to
    /// below-cap nodes (queue drain); the arrival path lets the policy
    /// pick freely and queues if the pick is at its cap, which is what
    /// "random routing with per-node admission" means.
    fn route(&mut self, now: Cycles, require_slot: bool) -> Option<usize> {
        let cap = self.cfg.max_in_flight.map_or(u64::MAX, |c| c as u64);
        self.candidates.clear();
        if let Some(ahead) = &mut self.lookahead {
            ahead.top_up(&mut self.router, self.arrivals.stream(0));
            ahead.pop(&mut self.candidates);
        } else {
            // Steering engages only when a fault plan exists (healthy runs
            // must not depend on the steer flag), and never empties the
            // candidate set.
            let steer = self.cfg.steer && !self.cfg.fault_plan.is_empty();
            let open = |n: usize| !require_slot || self.in_flight[n] < cap;
            let eligible = &mut self.router.eligible;
            eligible.clear();
            eligible.extend((0..self.active).filter(|&n| {
                open(n) && !(steer && self.cfg.fault_plan.is_degraded_server(n, now))
            }));
            if eligible.is_empty() {
                eligible.extend((0..self.active).filter(|&n| open(n)));
            }
            if eligible.is_empty() {
                return None;
            }
            self.router.draw(self.active, &mut self.candidates);
        }
        let pick = self
            .candidates
            .iter()
            .copied()
            .min_by_key(|&n| (self.in_flight[n], n))
            .expect("a candidate set is never empty");
        if !require_slot && self.in_flight[pick] >= cap {
            return None;
        }
        Some(pick)
    }

    fn dispatch(&mut self, token: u64, node: usize, now: Cycles) {
        let jitter = self.sample_jitter();
        let lb = self.lb();
        let tr =
            self.fabric
                .send_traced_jittered(lb, node, self.cfg.net.request_bytes, now, jitter);
        let rec = &mut self.records[token as usize];
        rec.node = Some(node);
        // LB queue wait (now - sent_at) plus the full request leg.
        rec.hop_req = tr.arrival - rec.sent_at;
        self.in_flight[node] += 1;
        self.in_flight_total += 1;
        self.dispatched[node] += 1;
        self.nodes[node].inject_arrival(tr.arrival, 0, token);
        self.wake(node);
    }

    /// Schedules a wake at the node's next step on the rack clock. Called
    /// after every operation that can change that time, so the calendar
    /// always holds a wake at exactly the node's true next event (plus
    /// possibly stale earlier ones, which `on_node_wake` skips).
    fn wake(&mut self, node: usize) {
        if let Some(t) = self.next_step(node) {
            self.events.schedule_at(t, ClusterEvent::NodeWake { node });
        }
    }

    /// The node's next step on the rack clock: its first logged step, or
    /// its next event when nothing is logged.
    fn next_step(&self, node: usize) -> Option<Cycles> {
        match self.logs[node].steps.front() {
            Some(&(at, _)) => Some(at),
            None => self.nodes[node].next_event_time(),
        }
    }

    fn on_node_wake(&mut self, node: usize, now: Cycles) {
        if self.next_step(node) != Some(now) {
            return; // Stale: the node's next event moved; its wake exists.
        }
        if self.logs[node].steps.is_empty() {
            self.run_ahead(node, now);
        }
        let (at, completions) = self.logs[node].steps.pop_front().expect("a logged step");
        debug_assert_eq!(at, now, "steps replay at their own time");
        self.node_steps += 1;
        for _ in 0..completions {
            let (token, finished_at) = self.logs[node]
                .done
                .pop_front()
                .expect("a logged completion");
            let jitter = self.sample_jitter();
            let lb = self.lb();
            let tr = self.fabric.send_traced_jittered(
                node,
                lb,
                self.cfg.net.response_bytes,
                finished_at,
                jitter,
            );
            self.records[token as usize].hop_resp = tr.arrival - finished_at;
            self.events
                .schedule_at(tr.arrival, ClusterEvent::Response { token });
        }
        self.wake(node);
    }

    /// Steps the node from its event due `now` while its next event comes
    /// strictly before the earliest arrival that could still be routed to
    /// it (at most [`RUN_AHEAD_STEPS`] steps), logging each step. Nothing
    /// but an injected arrival changes a package's course, so these are
    /// the steps it would take stepped one wake at a time. Without a
    /// lookahead window the bound is `now`: exactly the one due step.
    fn run_ahead(&mut self, node: usize, now: Cycles) {
        let horizon = match &self.lookahead {
            Some(ahead) => ahead.horizon(node, self.arrivals.stream(0)),
            None => now,
        };
        let (sim, log) = (&mut self.nodes[node], &mut self.logs[node]);
        while let Some(at) = sim.next_event_time() {
            if !log.steps.is_empty() && (at >= horizon || log.steps.len() == RUN_AHEAD_STEPS) {
                break;
            }
            sim.step();
            let before = log.done.len();
            for c in sim.drain_completions() {
                let rec = &mut self.records[c.token as usize];
                rec.node_bd = c.breakdown;
                rec.gave_up = c.gave_up;
                log.done.push_back((c.token, c.finished_at));
            }
            log.steps.push_back((at, log.done.len() - before));
        }
    }

    fn on_response(&mut self, token: u64, now: Cycles) {
        let rec = self.records[token as usize];
        self.records.release(token as usize);
        let node = rec.node.expect("response implies dispatch");
        self.in_flight[node] -= 1;
        self.in_flight_total -= 1;
        self.completed += 1;

        // Fleet end-to-end: LB wait + request leg + in-package lifetime +
        // response leg, plus the client RTT beyond the rack. The node's
        // breakdown covers exactly [injection, finished_at]; the hop
        // charges tile the rest, so conservation is cycle-exact.
        let rtt = Cycles::from_micros(params::CLIENT_RTT_US, self.freq());
        let mut bd = rec.node_bd;
        bd.charge(Component::ClusterHop, rec.hop_req + rec.hop_resp);
        bd.charge(Component::ExternalNet, rtt);
        self.breakdown.check(&bd, (now - rec.sent_at) + rtt);

        if rec.gave_up {
            self.gave_up += 1;
        } else if rec.sent_at >= self.warmup {
            let freq = self.freq();
            self.breakdown.record(&bd, freq);
            self.latency
                .record((now - rec.sent_at).as_micros(freq) + params::CLIENT_RTT_US);
            self.hop_us
                .record((rec.hop_req + rec.hop_resp).as_micros(freq));
            self.recorded += 1;
        }

        self.drain_lb_queue(now);
    }

    fn on_node_up(&mut self, node: usize, now: Cycles) {
        debug_assert_eq!(node, self.active, "nodes boot in index order");
        self.active += 1;
        self.booting = false;
        self.boots += 1;
        self.drain_lb_queue(now);
        self.maybe_scale_up(now);
    }

    /// Dispatches queued requests while a below-cap node exists.
    fn drain_lb_queue(&mut self, now: Cycles) {
        while !self.lb_queue.is_empty() {
            match self.route(now, true) {
                Some(node) => {
                    let token = self.lb_queue.pop_front().expect("nonempty");
                    self.dispatch(token, node, now);
                }
                None => break,
            }
        }
    }

    fn maybe_scale_up(&mut self, now: Cycles) {
        let Some(a) = self.cfg.autoscale else { return };
        if self.booting || self.active >= self.cfg.nodes {
            return;
        }
        let total = self.in_flight_total + self.lb_queue.len() as u64;
        if total as f64 > a.hi_inflight_per_node * self.active as f64 {
            self.booting = true;
            let boot = Cycles::from_micros(a.boot_us, self.freq());
            self.events
                .schedule_at(now + boot, ClusterEvent::NodeUp { node: self.active });
        }
    }

    fn into_report(self) -> ClusterReport {
        #[cfg(feature = "sim-sanitizer")]
        {
            // Fleet conservation: with the calendar drained, every
            // admitted request must have been dispatched and answered.
            if !self.lb_queue.is_empty() {
                um_sim::sanitizer::report(
                    "cluster-conservation",
                    format!(
                        "{} requests stranded in the LB queue at end of run",
                        self.lb_queue.len()
                    ),
                );
            }
            if let Some(n) = (0..self.cfg.nodes).find(|&n| self.in_flight[n] != 0) {
                um_sim::sanitizer::report(
                    "cluster-conservation",
                    format!(
                        "node {n} ended the run with {} requests in flight",
                        self.in_flight[n]
                    ),
                );
            }
            if self.completed != self.admitted {
                um_sim::sanitizer::report(
                    "cluster-conservation",
                    format!(
                        "{} responses for {} admitted requests",
                        self.completed, self.admitted
                    ),
                );
            }
            um_sim::sanitizer::assert_clean(&format!(
                "ClusterSim run (seed {}, {} nodes, {} requests)",
                self.cfg.seed, self.cfg.nodes, self.admitted
            ));
        }
        let conservation = self.breakdown.stats();
        let breakdown = self
            .cfg
            .trace
            .then(|| BreakdownReport::from_samples(&self.breakdown.samples));
        // Each node's own end-of-run checks (request conservation, fault
        // accounting) run inside `finish`.
        let node_reports: Vec<RunReport> = self.nodes.into_iter().map(SystemSim::finish).collect();
        ClusterReport {
            latency: self.latency.summary(),
            cluster_hop: self.hop_us.summary(),
            completed: self.completed,
            recorded: self.recorded,
            gave_up: self.gave_up,
            stranded: self.admitted - self.completed,
            dispatched_per_node: self.dispatched,
            peak_lb_queue: self.peak_lb_queue,
            boots: self.boots,
            active_nodes: self.active,
            events: self.node_steps + self.cluster_events,
            conservation,
            breakdown,
            node_reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use um_arch::config::TopologyShape;
    use um_arch::MachineConfig;
    use um_sim::fault::{FaultPlan, FaultWindow};

    fn tiny(routing: RoutingPolicy) -> ClusterConfig {
        ClusterConfig {
            node: SimConfig {
                machine: MachineConfig::umanycore_shaped(TopologyShape::new(2, 2, 4)),
                workload: Workload::social_mix(),
                ..SimConfig::default()
            },
            nodes: 3,
            rps_per_node: 4_000.0,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed: 7,
            routing,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn all_policies_complete_every_request() {
        for routing in [
            RoutingPolicy::Random,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JsqD { d: 2 },
            RoutingPolicy::CentralQueue,
        ] {
            let r = ClusterSim::new(tiny(routing)).run();
            assert_eq!(
                r.completed,
                r.dispatched_per_node.iter().sum::<u64>(),
                "{routing:?}"
            );
            assert!(r.recorded > 0, "{routing:?}");
            assert!(r.conservation.exact(), "{routing:?}");
            assert_eq!(r.node_reports.len(), 3);
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let a = ClusterSim::new(tiny(RoutingPolicy::JsqD { d: 2 })).run();
        let b = ClusterSim::new(tiny(RoutingPolicy::JsqD { d: 2 })).run();
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
        assert_eq!(a.events, b.events);
        let mut c = tiny(RoutingPolicy::JsqD { d: 2 });
        c.seed = 8;
        let c = ClusterSim::new(c).run();
        assert_ne!(a.latency.mean.to_bits(), c.latency.mean.to_bits());
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let r = ClusterSim::new(tiny(RoutingPolicy::RoundRobin)).run();
        let max = *r.dispatched_per_node.iter().max().unwrap();
        let min = *r.dispatched_per_node.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin imbalance: {max} vs {min}");
    }

    #[test]
    fn admission_cap_backs_up_into_the_lb_queue() {
        let mut cfg = tiny(RoutingPolicy::CentralQueue);
        cfg.max_in_flight = Some(1);
        let r = ClusterSim::new(cfg).run();
        assert!(r.peak_lb_queue > 0, "a cap of 1 must queue at this load");
        assert_eq!(r.completed, r.dispatched_per_node.iter().sum::<u64>());
        assert!(r.conservation.exact());
    }

    #[test]
    fn jitter_perturbs_but_preserves_conservation() {
        let mut cfg = tiny(RoutingPolicy::JsqD { d: 2 });
        cfg.net.jitter_us = Some(ServiceTimeDist::exponential(2.0));
        let jittered = ClusterSim::new(cfg).run();
        let plain = ClusterSim::new(tiny(RoutingPolicy::JsqD { d: 2 })).run();
        assert!(jittered.conservation.exact());
        assert_ne!(
            jittered.latency.mean.to_bits(),
            plain.latency.mean.to_bits()
        );
        assert!(jittered.latency.mean > plain.latency.mean);
    }

    #[test]
    fn autoscale_boots_standby_nodes_under_load() {
        let mut cfg = tiny(RoutingPolicy::JsqD { d: 2 });
        cfg.rps_per_node = 12_000.0;
        cfg.autoscale = Some(ClusterAutoscale {
            initial_nodes: 1,
            hi_inflight_per_node: 4.0,
            boot_us: 500.0,
        });
        let r = ClusterSim::new(cfg).run();
        assert!(r.boots > 0, "hot fleet must boot standby nodes");
        assert_eq!(r.active_nodes, 1 + r.boots as usize);
        assert!(r.conservation.exact());
    }

    #[test]
    fn steering_routes_around_a_degraded_node() {
        let horizon =
            Cycles::from_micros(8_000.0, um_arch::MachineConfig::umanycore().core.frequency);
        // Node 1 is a straggler for the whole run.
        let plan = FaultPlan::builder(3)
            .core_fail_slow(1, 0, 1, FaultWindow::new(Cycles::ZERO, horizon, 8.0))
            .build();
        let mut cfg = tiny(RoutingPolicy::Random);
        cfg.fault_plan = plan;
        cfg.steer = true;
        let steered = ClusterSim::new(cfg.clone()).run();
        cfg.steer = false;
        let unsteered = ClusterSim::new(cfg).run();
        assert!(
            steered.dispatched_per_node[1] < unsteered.dispatched_per_node[1],
            "steering must shed load from the degraded node: {} vs {}",
            steered.dispatched_per_node[1],
            unsteered.dispatched_per_node[1]
        );
        assert!(steered.conservation.exact() && unsteered.conservation.exact());
    }

    #[test]
    fn cluster_hop_component_is_charged() {
        let mut cfg = tiny(RoutingPolicy::CentralQueue);
        cfg.trace = true;
        let r = ClusterSim::new(cfg).run();
        let bd = r.breakdown.expect("trace on");
        assert!(
            bd.component(Component::ClusterHop).mean > 0.0,
            "every fleet request pays the rack fabric"
        );
        assert!(r.cluster_hop.mean > 0.0);
    }

    #[test]
    fn lb_records_follow_requests_in_flight_not_run_length() {
        // Tokens are recycled on response: a run four times as long
        // completes about four times the requests in about the same table.
        let table = |horizon_us: f64| {
            let mut sim = ClusterSim::new(ClusterConfig {
                node: SimConfig {
                    machine: MachineConfig::umanycore(),
                    workload: Workload::social_mix(),
                    ..SimConfig::default()
                },
                nodes: 2,
                rps_per_node: 20_000.0,
                horizon_us,
                warmup_us: horizon_us * 0.1,
                seed: 19,
                ..ClusterConfig::default()
            });
            while sim.step() {}
            (sim.completed, sim.records.len())
        };
        let (short_done, short_slots) = table(20_000.0);
        let (long_done, long_slots) = table(80_000.0);
        assert!(
            long_done as f64 >= 3.5 * short_done as f64,
            "completed {short_done} -> {long_done}"
        );
        assert!(
            long_slots as f64 <= 1.5 * short_slots as f64,
            "LB records {short_slots} -> {long_slots} for {short_done} -> {long_done} completed"
        );
    }

    impl ClusterSim {
        /// The rack without a lookahead window: each candidate set drawn
        /// at its decision and one package step per wake.
        fn stepwise(cfg: ClusterConfig) -> Self {
            let mut sim = Self::new(cfg);
            sim.lookahead = None;
            sim
        }
    }

    fn summary_bits(s: &Summary) -> [u64; 6] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.p50.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
            s.tail_to_avg.to_bits(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 64,
            ..proptest::ProptestConfig::default()
        })]

        /// Stepping packages ahead to their routing horizon reports
        /// exactly what stepping them one wake at a time does, for every
        /// policy, with and without caps, autoscale, jitter and steering.
        #[test]
        fn lookahead_matches_one_step_per_wake(
            shape in (0usize..4, 1usize..4, 2usize..13),
            knobs in (0usize..4, 0usize..4, 0usize..3, 0usize..3),
            load in (proptest::bool::ANY, 2_000.0f64..7_000.0, 0u64..1_000),
        ) {
            let (policy, d, nodes) = shape;
            let (cap, autoscale, jitter, steer) = knobs;
            let (bursty, rps, seed) = load;
            let mut cfg = tiny([
                RoutingPolicy::Random,
                RoutingPolicy::RoundRobin,
                RoutingPolicy::JsqD { d },
                RoutingPolicy::CentralQueue,
            ][policy]);
            cfg.nodes = nodes;
            cfg.rps_per_node = rps;
            cfg.seed = seed;
            cfg.horizon_us = 4_000.0;
            cfg.warmup_us = 400.0;
            if bursty {
                cfg.arrivals = ArrivalProcess::Bursty;
            }
            // Caps and autoscale each in a quarter of the cases, so that
            // about a quarter of the racks draw ahead. A cap small enough
            // to queue.
            cfg.max_in_flight = (cap == 3).then_some(1 + seed as usize % 4);
            if autoscale == 3 {
                cfg.autoscale = Some(ClusterAutoscale {
                    initial_nodes: 1 + seed as usize % nodes,
                    hi_inflight_per_node: 2.0 + (seed % 3) as f64,
                    boot_us: 300.0,
                });
            }
            if jitter > 0 {
                cfg.net.jitter_us = Some(ServiceTimeDist::exponential(0.5 * jitter as f64));
            }
            // Steering with an empty plan (ignored), or with one node
            // degraded for part of the run.
            cfg.steer = steer > 0;
            if steer == 2 {
                let freq = cfg.node.machine.core.frequency;
                let window = FaultWindow::new(
                    Cycles::from_micros(500.0, freq),
                    Cycles::from_micros(3_000.0, freq),
                    8.0,
                );
                cfg.fault_plan = FaultPlan::builder(seed)
                    .core_fail_slow(seed as usize % nodes, 0, 1, window)
                    .build();
            }
            let ahead = ClusterSim::new(cfg.clone()).run();
            let stepwise = ClusterSim::stepwise(cfg).run();
            proptest::prop_assert_eq!(summary_bits(&ahead.latency), summary_bits(&stepwise.latency));
            proptest::prop_assert_eq!(
                summary_bits(&ahead.cluster_hop),
                summary_bits(&stepwise.cluster_hop)
            );
            proptest::prop_assert_eq!(ahead.completed, stepwise.completed);
            proptest::prop_assert_eq!(ahead.recorded, stepwise.recorded);
            proptest::prop_assert_eq!(ahead.events, stepwise.events);
            proptest::prop_assert_eq!(&ahead.dispatched_per_node, &stepwise.dispatched_per_node);
            proptest::prop_assert_eq!(ahead.peak_lb_queue, stepwise.peak_lb_queue);
            proptest::prop_assert_eq!(ahead.boots, stepwise.boots);
            for (a, b) in ahead.node_reports.iter().zip(&stepwise.node_reports) {
                proptest::prop_assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
            }
        }
    }

    #[test]
    fn jsq_candidates_match_a_shuffled_copy() {
        // The in-place draw over `pool` against a partial Fisher-Yates of
        // a fresh copy of the eligible list, over full and filtered sets.
        let nodes = 9;
        let mut router = Router {
            policy: RoutingPolicy::JsqD { d: 1 },
            rng: simrng::stream(5, "cluster-routing"),
            rr_next: 0,
            eligible: Vec::new(),
            pool: (0..nodes).collect(),
        };
        let mut reference = simrng::stream(5, "cluster-routing");
        for round in 0..2_000usize {
            let d = 1 + round % 11;
            router.policy = RoutingPolicy::JsqD { d };
            router.eligible.clear();
            router
                .eligible
                .extend((0..nodes).filter(|n| (n * 7 + round) % 5 != 0 || round % 3 == 0));
            let mut got = Vec::new();
            router.draw(nodes, &mut got);

            let mut copy = router.eligible.clone();
            let k = d.min(copy.len());
            let mut want = Vec::new();
            for i in 0..k {
                let j = reference.gen_range(i..copy.len());
                copy.swap(i, j);
                want.push(copy[i]);
            }
            assert_eq!(got, want, "round {round}, d {d}");
            assert!(
                router.pool.iter().enumerate().all(|(i, &v)| i == v),
                "round {round}: the pool is back to the identity"
            );
        }
    }

    #[test]
    #[should_panic(expected = "the cluster layer is the injector")]
    fn injected_fleet_arrivals_are_rejected() {
        let mut cfg = tiny(RoutingPolicy::Random);
        cfg.arrivals = ArrivalProcess::Injected;
        let _ = ClusterSim::new(cfg);
    }
}
