//! The declarative scenario layer: one serializable description of a
//! whole experiment — machine, workload, fault plan, mitigation policy,
//! cluster shape and scale — that expands into a fully-specified config
//! list.
//!
//! A [`Scenario`] round-trips through the zero-dependency
//! [`crate::benchjson`] model (`to_json_text` / `from_json_text`), so
//! experiments can be committed, diffed and replayed as data. The
//! [`registry`] holds the named built-in scenarios behind the committed
//! `results/` tables, and [`run`] reproduces each committed text
//! byte-for-byte.
//!
//! Every expansion derives per-point seeds from the scenario's master
//! seed, and every run goes through the deterministic sweep runner —
//! results are bit-identical at any `UM_THREADS`.

use std::sync::atomic::{AtomicUsize, Ordering};

use um_arch::config::{IcnKind, MachineConfig, TopologyShape};
use um_sched::{CtxSwitchModel, HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::{FaultPlan, FaultRecipe};
use um_sim::rng;
use um_stats::summary::geomean;
use um_stats::table::{f1, Table};
use um_workload::synthetic::SyntheticWorkload;
use um_workload::ServiceTimeDist;
use umanycore::cluster::ClusterNetConfig;
use umanycore::experiments::{parallel, Scale};
use umanycore::report::RunReport;
use umanycore::{
    ClusterConfig, ClusterReport, ClusterSim, RoutingPolicy, SimConfig, SystemSim, Workload,
};

use crate::benchjson::{obj, rounded, Json};
use crate::header_text;

/// Largest integer JSON (f64) carries exactly; integer knobs above this
/// would silently lose precision through a round-trip, so validation
/// rejects them.
const MAX_EXACT_INT: u64 = 1 << 53;

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

/// Which paper machine a [`MachineSpec`] starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineBase {
    /// The 1024-core uManycore package.
    Umanycore,
    /// The 1024-core software-scheduled ScaleOut baseline.
    Scaleout,
    /// The iso-power server-class baseline.
    ServerClassIsoPower,
    /// The iso-area server-class baseline.
    ServerClassIsoArea,
}

/// A machine description: a paper machine plus the overrides the
/// experiments actually use. `build` applies them in a fixed order, so
/// equal specs yield identical [`MachineConfig`] values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Base machine.
    pub base: MachineBase,
    /// Topology override `[cores_per_village, villages_per_cluster,
    /// clusters]`; only valid on [`MachineBase::Umanycore`].
    pub shape: Option<[usize; 3]>,
    /// Hardware Request Queue entries per village.
    pub rq_capacity: Option<usize>,
    /// Fixed context-switch cost override, cycles
    /// ([`CtxSwitchModel::Custom`]).
    pub ctx_switch_cycles: Option<u64>,
    /// On-package interconnect override.
    pub icn: Option<IcnKind>,
}

impl MachineSpec {
    /// A bare base machine with no overrides.
    pub fn of(base: MachineBase) -> Self {
        Self {
            base,
            shape: None,
            rq_capacity: None,
            ctx_switch_cycles: None,
            icn: None,
        }
    }

    /// Materializes the [`MachineConfig`]. Call after validation: an
    /// invalid spec (e.g. a shape on a non-uManycore base) is ignored
    /// here, not rejected.
    pub fn build(&self) -> MachineConfig {
        let mut m = match (self.base, self.shape) {
            (MachineBase::Umanycore, Some(s)) => {
                MachineConfig::umanycore_shaped(TopologyShape::new(s[0], s[1], s[2]))
            }
            (MachineBase::Umanycore, None) => MachineConfig::umanycore(),
            (MachineBase::Scaleout, _) => MachineConfig::scaleout(),
            (MachineBase::ServerClassIsoPower, _) => MachineConfig::server_class_iso_power(),
            (MachineBase::ServerClassIsoArea, _) => MachineConfig::server_class_iso_area(),
        };
        if let Some(rq) = self.rq_capacity {
            m.rq_capacity = rq;
        }
        if let Some(cycles) = self.ctx_switch_cycles {
            m.ctx_switch = CtxSwitchModel::Custom(cycles);
        }
        if let Some(icn) = self.icn {
            m.icn = icn;
        }
        m
    }

    /// The RQ depth `build` would produce (override or the base
    /// machine's default) — what the cluster deadlock guard checks.
    pub fn effective_rq_capacity(&self) -> usize {
        self.build().rq_capacity
    }
}

/// Which request workload the scenario draws from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The uniform SocialNetwork eight-app mix.
    SocialMix,
    /// The uniform TrainTicket root-service mix.
    TrainMix,
    /// A synthetic uSuite-style workload: lognormal handler compute with
    /// the given mean/SCV and a uniform blocking-RPC count.
    Synthetic {
        /// Mean handler compute, microseconds.
        mean_us: f64,
        /// Squared coefficient of variation of the compute time.
        scv: f64,
        /// Minimum blocking RPCs per request.
        min_rpcs: u32,
        /// Maximum blocking RPCs per request.
        max_rpcs: u32,
    },
}

impl WorkloadSpec {
    /// Materializes the [`Workload`].
    pub fn build(&self) -> Workload {
        match *self {
            WorkloadSpec::SocialMix => Workload::social_mix(),
            WorkloadSpec::TrainMix => Workload::train_mix(),
            WorkloadSpec::Synthetic {
                mean_us,
                scv,
                min_rpcs,
                max_rpcs,
            } => Workload::Synthetic(SyntheticWorkload::new(
                ServiceTimeDist::lognormal_with_mean(mean_us, scv),
                min_rpcs,
                max_rpcs,
            )),
        }
    }
}

/// Timeout/retry knobs ([`RetryConfig`] as plain serializable data).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrySpec {
    /// Attempt timeout, microseconds.
    pub timeout_us: f64,
    /// Timeout multiplier per failed attempt.
    pub backoff: f64,
    /// Total attempts allowed, including the first.
    pub max_attempts: u32,
    /// Retry-budget earn rate per operation started.
    pub budget_fraction: f64,
}

impl RetrySpec {
    /// Mirrors [`RetryConfig::with_timeout_us`]: doubling backoff, three
    /// attempts, 10% budget.
    pub fn with_timeout_us(timeout_us: f64) -> Self {
        Self {
            timeout_us,
            backoff: 2.0,
            max_attempts: 3,
            budget_fraction: 0.1,
        }
    }
}

/// Tail-mitigation policy as serializable data.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MitigationSpec {
    /// Hedge after this fixed delay, microseconds.
    pub hedge_delay_us: Option<f64>,
    /// Timeout + exponential-backoff retry.
    pub retry: Option<RetrySpec>,
    /// Straggler-aware steering.
    pub steer: bool,
}

impl MitigationSpec {
    /// Materializes the [`MitigationConfig`].
    pub fn build(&self) -> MitigationConfig {
        MitigationConfig {
            hedge: self.hedge_delay_us.map(HedgeConfig::after_delay_us),
            retry: self.retry.map(|r| RetryConfig {
                timeout_us: r.timeout_us,
                backoff: r.backoff,
                max_attempts: r.max_attempts,
                budget_fraction: r.budget_fraction,
            }),
            steer: self.steer,
        }
    }
}

/// A routing policy with the display name the tables print.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedRouting {
    /// Table/row label, e.g. `jsq(2)`.
    pub name: String,
    /// The policy itself.
    pub policy: RoutingPolicy,
}

/// Rack-fabric jitter: lognormal with the given mean and SCV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitterSpec {
    /// Mean one-way jitter, microseconds.
    pub mean_us: f64,
    /// Squared coefficient of variation.
    pub scv: f64,
}

/// The cluster/serving-layer knobs: rack width, routing policies,
/// admission control and fabric jitter.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Packages in the rack. A grid's nodes axis sets each point's rack
    /// width, so expansion does not read this; it stays in the schema
    /// for compatibility.
    pub nodes: usize,
    /// Routing policies swept (display order).
    pub routing: Vec<NamedRouting>,
    /// Per-node admission cap; `None` disables admission control (see
    /// the deadlock guard in [`Scenario::validate`]).
    pub max_in_flight: Option<usize>,
    /// Rack-fabric jitter; `None` keeps the fabric deterministic.
    pub jitter: Option<JitterSpec>,
    /// Load-balancer straggler steering.
    pub steer: bool,
}

/// A machine row of a [`ScenarioKind::MachineCompare`] table.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedMachine {
    /// Row label.
    pub name: String,
    /// The machine in that row.
    pub machine: MachineSpec,
}

/// A mitigation policy axis value of a [`GridSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct NamedPolicy {
    /// Axis label, e.g. `retry`.
    pub name: String,
    /// The mitigation applied at this axis value.
    pub mitigation: MitigationSpec,
}

/// The generic sweep grid `um-sweep` expands: the cross product of
/// loads × (rack widths ×) (routings ×) policies × seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSpec {
    /// Offered loads, requests per second (per server / per node).
    pub loads: Vec<f64>,
    /// Seed axis; each value derives an independent replica stream.
    pub seeds: Vec<u64>,
    /// Rack widths. Empty runs single-node points; non-empty runs
    /// cluster points and requires [`Scenario::cluster`].
    pub nodes: Vec<usize>,
    /// Mitigation policy axis.
    pub policies: Vec<NamedPolicy>,
}

/// What the scenario measures. A kind exists only where something besides
/// its own committed result runs it: the machine comparison backs the
/// `compare10` benchmark workload, and the grid backs `um-sweep`, um-serve
/// and the other benchmark workloads.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// The abstract's headline comparison: several machines across a load
    /// sweep, with the first-vs-last geomean latency ratios as the
    /// headline (the `cluster10` table).
    MachineCompare {
        /// Offered loads swept, requests per second per server.
        loads: Vec<f64>,
        /// Machine rows, in display order; the headline ratios divide the
        /// first row's latency by the last row's.
        machines: Vec<NamedMachine>,
    },
    /// The generic `um-sweep` grid.
    Grid(GridSpec),
}

/// One self-contained experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry/display name.
    pub name: String,
    /// The machine every point runs (machine-compare rows override it).
    pub machine: MachineSpec,
    /// The request workload.
    pub workload: WorkloadSpec,
    /// Horizons, fleet width, master seed.
    pub scale: Scale,
    /// Scheduled faults, replayed through the seeded
    /// [`FaultPlan`] builder per point.
    pub faults: Vec<FaultRecipe>,
    /// Base mitigation policy. The grid's policy axis sets each point's
    /// mitigation, so expansion does not read this; it stays in the
    /// schema for compatibility.
    pub mitigation: MitigationSpec,
    /// Serving-layer knobs; required by a grid with a nodes axis.
    pub cluster: Option<ClusterSpec>,
    /// What to measure.
    pub kind: ScenarioKind,
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

fn validate_machine(path: &str, m: &MachineSpec) -> Result<(), String> {
    if let Some(shape) = m.shape {
        check(m.base == MachineBase::Umanycore, || {
            format!("{path}.shape: only valid with base `umanycore`")
        })?;
        check(shape.iter().all(|&d| d >= 1), || {
            format!("{path}.shape: every dimension must be at least 1")
        })?;
    }
    if let Some(rq) = m.rq_capacity {
        check(rq >= 1, || {
            format!("{path}.rq_capacity: must be at least 1")
        })?;
    }
    Ok(())
}

fn validate_mitigation(path: &str, m: &MitigationSpec) -> Result<(), String> {
    if let Some(d) = m.hedge_delay_us {
        check(d.is_finite() && d >= 0.0, || {
            format!("{path}.hedge_delay_us: must be a finite nonnegative delay")
        })?;
    }
    if let Some(r) = m.retry {
        check(r.timeout_us.is_finite() && r.timeout_us > 0.0, || {
            format!("{path}.retry.timeout_us: must be a positive timeout")
        })?;
        check(r.backoff.is_finite() && r.backoff >= 1.0, || {
            format!("{path}.retry.backoff: must be at least 1.0")
        })?;
        check(r.max_attempts >= 1, || {
            format!("{path}.retry.max_attempts: must be at least 1")
        })?;
        check((0.0..=1.0).contains(&r.budget_fraction), || {
            format!("{path}.retry.budget_fraction: must be within [0, 1]")
        })?;
    }
    Ok(())
}

fn validate_window(path: &str, from: u64, until: u64, slowdown: f64) -> Result<(), String> {
    check(from < until, || {
        format!("{path}: window start must precede its end")
    })?;
    check(slowdown.is_finite() && slowdown >= 1.0, || {
        format!("{path}: slowdown must be a finite factor >= 1 (serialize outages as a large finite slowdown)")
    })
}

fn validate_fault(path: &str, f: &FaultRecipe) -> Result<(), String> {
    match *f {
        FaultRecipe::MessageDrops { probability } => check(
            probability.is_finite() && (0.0..1.0).contains(&probability),
            || format!("{path}.probability: must be within [0, 1)"),
        ),
        FaultRecipe::CoreFailStop { .. } => Ok(()),
        FaultRecipe::CoreFailSlow {
            from_cycles,
            until_cycles,
            slowdown,
            cores,
            ..
        } => {
            check(cores >= 1, || format!("{path}.cores: must be at least 1"))?;
            validate_window(path, from_cycles, until_cycles, slowdown)
        }
        FaultRecipe::LinkFault {
            from_cycles,
            until_cycles,
            slowdown,
            ..
        } => validate_window(path, from_cycles, until_cycles, slowdown),
        FaultRecipe::FailSlowEveryVillage {
            servers,
            villages,
            cores,
            from_cycles,
            until_cycles,
            slowdown,
        } => {
            check(servers >= 1 && villages >= 1 && cores >= 1, || {
                format!("{path}: servers, villages and cores must be at least 1")
            })?;
            validate_window(path, from_cycles, until_cycles, slowdown)
        }
        FaultRecipe::RandomFailStops {
            servers,
            villages,
            horizon_cycles,
            ..
        } => check(servers >= 1 && villages >= 1 && horizon_cycles >= 1, || {
            format!("{path}: servers, villages and horizon_cycles must be at least 1")
        }),
        FaultRecipe::RandomLinkFaults {
            servers,
            links,
            horizon_cycles,
            mean_duration_cycles,
            slowdown,
            ..
        } => {
            check(
                servers >= 1 && links >= 1 && horizon_cycles >= 1 && mean_duration_cycles >= 1,
                || format!("{path}: index spaces and durations must be at least 1"),
            )?;
            check(slowdown.is_finite() && slowdown >= 1.0, || {
                format!("{path}.slowdown: must be a finite factor >= 1")
            })
        }
    }
}

fn validate_workload(path: &str, w: &WorkloadSpec) -> Result<(), String> {
    if let WorkloadSpec::Synthetic {
        mean_us,
        scv,
        min_rpcs,
        max_rpcs,
    } = *w
    {
        check(mean_us.is_finite() && mean_us > 0.0, || {
            format!("{path}.mean_us: must be a positive time")
        })?;
        check(scv.is_finite() && scv > 0.0, || {
            format!("{path}.scv: must be positive")
        })?;
        check(min_rpcs <= max_rpcs, || {
            format!("{path}.min_rpcs: must not exceed max_rpcs")
        })?;
    }
    Ok(())
}

fn validate_loads(path: &str, loads: &[f64]) -> Result<(), String> {
    check(!loads.is_empty(), || format!("{path}: must not be empty"))?;
    check(loads.iter().all(|&l| l.is_finite() && l > 0.0), || {
        format!("{path}: every load must be a positive rate")
    })
}

impl Scenario {
    /// Whether this scenario runs cluster simulations (and therefore
    /// needs a [`ClusterSpec`] and the RQ deadlock guard).
    pub fn runs_cluster(&self) -> bool {
        matches!(&self.kind, ScenarioKind::Grid(g) if !g.nodes.is_empty())
    }

    /// Checks every knob before expansion.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on the first
    /// violation — scenarios fail validation, they do not panic inside
    /// the simulator.
    pub fn validate(&self) -> Result<(), String> {
        check(!self.name.is_empty(), || {
            "scenario.name: must not be empty".to_string()
        })?;
        let s = &self.scale;
        check(s.horizon_us.is_finite() && s.horizon_us > 0.0, || {
            "scenario.scale.horizon_us: must be a positive horizon".to_string()
        })?;
        check(
            s.warmup_us.is_finite() && s.warmup_us >= 0.0 && s.warmup_us < s.horizon_us,
            || "scenario.scale.warmup_us: must be nonnegative and below horizon_us".to_string(),
        )?;
        check(s.servers >= 1, || {
            "scenario.scale.servers: must be at least 1".to_string()
        })?;
        check(s.seed < MAX_EXACT_INT, || {
            "scenario.scale.seed: must stay below 2^53 (JSON-exact)".to_string()
        })?;
        validate_machine("scenario.machine", &self.machine)?;
        validate_workload("scenario.workload", &self.workload)?;
        validate_mitigation("scenario.mitigation", &self.mitigation)?;
        for (i, f) in self.faults.iter().enumerate() {
            validate_fault(&format!("scenario.faults[{i}]"), f)?;
        }
        if let Some(c) = &self.cluster {
            check(c.nodes >= 1, || {
                "scenario.cluster.nodes: must be at least 1".to_string()
            })?;
            check(!c.routing.is_empty(), || {
                "scenario.cluster.routing: must not be empty".to_string()
            })?;
            for (i, r) in c.routing.iter().enumerate() {
                check(!r.name.is_empty(), || {
                    format!("scenario.cluster.routing[{i}].name: must not be empty")
                })?;
                if let RoutingPolicy::JsqD { d } = r.policy {
                    check(d >= 1, || {
                        format!("scenario.cluster.routing[{i}].d: must be at least 1")
                    })?;
                }
            }
            if let Some(cap) = c.max_in_flight {
                check(cap >= 1, || {
                    "scenario.cluster.max_in_flight: must be at least 1 when set".to_string()
                })?;
            }
            if let Some(j) = c.jitter {
                check(j.mean_us.is_finite() && j.mean_us > 0.0, || {
                    "scenario.cluster.jitter.mean_us: must be a positive time".to_string()
                })?;
                check(j.scv.is_finite() && j.scv > 0.0, || {
                    "scenario.cluster.jitter.scv: must be positive".to_string()
                })?;
            }
        }
        self.validate_kind()?;
        if self.runs_cluster() {
            let c = self
                .cluster
                .as_ref()
                .expect("validate_kind requires a cluster spec for cluster kinds");
            // The RQ deadlock guard (DESIGN.md, "Cluster layer"): on a
            // shallow RQ, blocked parents can fill every entry of a hot
            // village while their children wait in the NIC buffer —
            // admission control bounds the blocked population instead
            // (each admitted root holds at most two RQ slots), and a
            // >= 512-entry RQ is the committed deep-RQ regime.
            let rq = self.machine.effective_rq_capacity();
            let capped = c.max_in_flight.is_some_and(|cap| 2 * cap <= rq);
            check(rq >= 512 || capped, || {
                format!(
                    "scenario.cluster.max_in_flight: cluster scenarios with a shallow RQ \
                     (machine.rq_capacity = {rq}) can deadlock on RQ overflow; set \
                     cluster.max_in_flight to at most rq_capacity/2, or raise \
                     machine.rq_capacity to >= 512 (see DESIGN.md, \"Cluster layer\")"
                )
            })?;
        }
        Ok(())
    }

    fn validate_kind(&self) -> Result<(), String> {
        match &self.kind {
            ScenarioKind::MachineCompare { loads, machines } => {
                validate_loads("scenario.kind.loads", loads)?;
                check(machines.len() >= 2, || {
                    "scenario.kind.machines: need at least two rows (the headline ratios \
                     divide the first row by the last)"
                        .to_string()
                })?;
                for (i, m) in machines.iter().enumerate() {
                    check(!m.name.is_empty(), || {
                        format!("scenario.kind.machines[{i}].name: must not be empty")
                    })?;
                    validate_machine(&format!("scenario.kind.machines[{i}].machine"), &m.machine)?;
                }
                Ok(())
            }
            ScenarioKind::Grid(g) => {
                validate_loads("scenario.kind.loads", g.loads.as_slice())?;
                check(!g.seeds.is_empty(), || {
                    "scenario.kind.seeds: must not be empty".to_string()
                })?;
                for (i, &seed) in g.seeds.iter().enumerate() {
                    check(seed < MAX_EXACT_INT, || {
                        format!("scenario.kind.seeds[{i}]: must stay below 2^53 (JSON-exact)")
                    })?;
                }
                check(!g.policies.is_empty(), || {
                    "scenario.kind.policies: must not be empty".to_string()
                })?;
                for (i, p) in g.policies.iter().enumerate() {
                    check(!p.name.is_empty(), || {
                        format!("scenario.kind.policies[{i}].name: must not be empty")
                    })?;
                    validate_mitigation(
                        &format!("scenario.kind.policies[{i}].mitigation"),
                        &p.mitigation,
                    )?;
                }
                for (i, &n) in g.nodes.iter().enumerate() {
                    check(n >= 1, || {
                        format!("scenario.kind.nodes[{i}]: must be at least 1")
                    })?;
                }
                if !g.nodes.is_empty() {
                    check(self.cluster.is_some(), || {
                        "scenario.cluster: required by a grid with a nodes axis".to_string()
                    })?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------

/// One fully-specified sweep point.
#[derive(Clone, Debug)]
pub enum PointConfig {
    /// A single-node system run.
    Node(Box<SimConfig>),
    /// A whole-rack cluster run.
    Cluster(Box<ClusterConfig>),
}

/// Boxes a node config into a sweep point (keeps the enum variants the
/// same size, per clippy's `large_enum_variant`).
fn node_point(cfg: SimConfig) -> PointConfig {
    PointConfig::Node(Box::new(cfg))
}

impl Scenario {
    fn point_plan(&self, seed: u64) -> FaultPlan {
        if self.faults.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::from_recipes(seed, &self.faults)
        }
    }

    fn cluster_config(
        &self,
        c: &ClusterSpec,
        nodes: usize,
        rps_per_node: f64,
        routing: RoutingPolicy,
        seed: u64,
        mitigation: MitigationConfig,
    ) -> ClusterConfig {
        ClusterConfig {
            node: SimConfig {
                machine: self.machine.build(),
                workload: self.workload.build(),
                mitigation,
                ..Default::default()
            },
            nodes,
            rps_per_node,
            horizon_us: self.scale.horizon_us,
            warmup_us: self.scale.warmup_us,
            seed,
            routing,
            max_in_flight: c.max_in_flight,
            steer: c.steer,
            net: ClusterNetConfig {
                jitter_us: c
                    .jitter
                    .map(|j| ServiceTimeDist::lognormal_with_mean(j.mean_us, j.scv)),
                ..ClusterNetConfig::default()
            },
            fault_plan: self.point_plan(seed),
            ..ClusterConfig::default()
        }
    }

    /// Expands the scenario into its fully-specified point list, in the
    /// committed-results row order. The committed `results/` byte-diffs
    /// pin every point, per-point seeds included.
    ///
    /// # Errors
    ///
    /// Returns the first [`Scenario::validate`] violation.
    pub fn expand(&self) -> Result<Vec<PointConfig>, String> {
        self.validate()?;
        let scale = self.scale;
        let mut points = Vec::new();
        match &self.kind {
            ScenarioKind::MachineCompare { loads, machines } => {
                // The machines at one load share the seed so the
                // headline ratios stay paired.
                for &rps in loads {
                    for m in machines {
                        points.push(node_point(SimConfig {
                            machine: m.machine.build(),
                            workload: self.workload.build(),
                            rps_per_server: rps,
                            servers: scale.servers,
                            horizon_us: scale.horizon_us,
                            warmup_us: scale.warmup_us,
                            seed: scale.seed,
                            fault_plan: self.point_plan(scale.seed),
                            ..SimConfig::default()
                        }));
                    }
                }
            }
            ScenarioKind::Grid(g) => {
                if g.nodes.is_empty() {
                    for (li, &rps) in g.loads.iter().enumerate() {
                        for policy in &g.policies {
                            for &axis_seed in &g.seeds {
                                let seed = rng::derive_seed(
                                    rng::derive_seed(scale.seed, axis_seed),
                                    li as u64,
                                );
                                points.push(node_point(SimConfig {
                                    machine: self.machine.build(),
                                    workload: self.workload.build(),
                                    rps_per_server: rps,
                                    servers: scale.servers,
                                    horizon_us: scale.horizon_us,
                                    warmup_us: scale.warmup_us,
                                    seed,
                                    fault_plan: self.point_plan(seed),
                                    mitigation: policy.mitigation.build(),
                                    ..SimConfig::default()
                                }));
                            }
                        }
                    }
                } else {
                    let c = self.cluster.as_ref().expect("validated: cluster present");
                    for (li, &rps) in g.loads.iter().enumerate() {
                        for &nodes in &g.nodes {
                            for named in &c.routing {
                                for policy in &g.policies {
                                    for &axis_seed in &g.seeds {
                                        let seed = rng::derive_seed(
                                            rng::derive_seed(scale.seed, axis_seed),
                                            li as u64,
                                        );
                                        points.push(PointConfig::Cluster(Box::new(
                                            self.cluster_config(
                                                c,
                                                nodes,
                                                rps,
                                                named.policy,
                                                seed,
                                                policy.mitigation.build(),
                                            ),
                                        )));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

// ---------------------------------------------------------------------
// Running and rendering
// ---------------------------------------------------------------------

/// One finished sweep point.
enum PointReport {
    Node(Box<RunReport>),
    Cluster(Box<ClusterReport>),
}

impl PointReport {
    fn node(&self) -> &RunReport {
        match self {
            PointReport::Node(r) => r,
            PointReport::Cluster(_) => unreachable!("expansion produced a cluster point"),
        }
    }

    fn cluster(&self) -> &ClusterReport {
        match self {
            PointReport::Cluster(r) => r,
            PointReport::Node(_) => unreachable!("expansion produced a node point"),
        }
    }
}

/// What a scenario run produces: the text table (byte-identical to the
/// committed `results/<name>.txt` for registry scenarios) and, for grid
/// scenarios, the flat benchjson point array.
pub struct ScenarioOutput {
    /// The rendered table + prose, exactly as `um-sweep` prints it.
    pub text: String,
    /// Grid scenarios: the benchjson `points` array (wrap it in the
    /// bench envelope with a `bench` name and `scale` label).
    pub points: Option<Json>,
}

/// Runs the scenario on the process-default worker pool (`UM_THREADS`).
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run(s: &Scenario) -> Result<ScenarioOutput, String> {
    run_impl(s, None, None)
}

/// [`run`] with an explicit worker count; results are bit-identical at
/// any value.
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run_with_threads(s: &Scenario, threads: usize) -> Result<ScenarioOutput, String> {
    run_impl(s, Some(threads), None)
}

/// [`run`] with a progress callback, invoked once per completed point
/// with `(completed, total)`. The callback runs on the sweep worker
/// threads, possibly concurrently; completion order is nondeterministic
/// but the result is still bit-identical at any `UM_THREADS`.
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run_with_progress(
    s: &Scenario,
    on_progress: &(dyn Fn(usize, usize) + Sync),
) -> Result<ScenarioOutput, String> {
    run_impl(s, None, Some(on_progress))
}

fn run_impl(
    s: &Scenario,
    threads: Option<usize>,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<ScenarioOutput, String> {
    let points = s.expand()?;
    let total = points.len();
    let completed = AtomicUsize::new(0);
    let eval = |_: usize, p: PointConfig| {
        let report = match p {
            PointConfig::Node(cfg) => PointReport::Node(Box::new(SystemSim::new(*cfg).run())),
            PointConfig::Cluster(cfg) => {
                PointReport::Cluster(Box::new(ClusterSim::new(*cfg).run()))
            }
        };
        if let Some(cb) = progress {
            cb(completed.fetch_add(1, Ordering::Relaxed) + 1, total);
        }
        report
    };
    let reports = match threads {
        Some(n) => parallel::map_with_threads(n, points, eval),
        None => parallel::map(points, eval),
    };
    Ok(match &s.kind {
        ScenarioKind::MachineCompare { loads, machines } => {
            render_machine_compare(s, loads, machines, &reports)
        }
        ScenarioKind::Grid(g) => render_grid(s, g, &reports),
    })
}

fn render_machine_compare(
    s: &Scenario,
    loads: &[f64],
    machines: &[NamedMachine],
    reports: &[PointReport],
) -> ScenarioOutput {
    let mut out = header_text(
        &format!("Cluster of {} servers", s.scale.servers),
        &format!(
            "End-to-end latency of {}-server clusters under the SocialNetwork mix.",
            s.scale.servers
        ),
    );
    let mut t = Table::with_columns(&["machine", "load", "avg (us)", "p99 (us)", "cluster util"]);
    let mut avg_ratio = Vec::new();
    let mut tail_ratio = Vec::new();
    for (&rps, chunk) in loads.iter().zip(reports.chunks_exact(machines.len())) {
        for (m, r) in machines.iter().zip(chunk) {
            let r = r.node();
            t.row(vec![
                m.name.clone(),
                format!("{:.0}K/srv", rps / 1000.0),
                f1(r.latency.mean),
                f1(r.latency.p99),
                format!("{:.3}", r.utilization),
            ]);
        }
        let first = chunk
            .first()
            .expect("validated: two or more machines")
            .node();
        let last = chunk
            .last()
            .expect("validated: two or more machines")
            .node();
        avg_ratio.push(first.latency.mean / last.latency.mean);
        tail_ratio.push(first.latency.p99 / last.latency.p99);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "uManycore cluster vs iso-power ServerClass cluster: {:.1}x lower average,\n\
         {:.1}x lower tail (paper: 3.7x and 10.4x)\n",
        geomean(&avg_ratio),
        geomean(&tail_ratio)
    ));
    ScenarioOutput {
        text: out,
        points: None,
    }
}

fn render_grid(s: &Scenario, g: &GridSpec, reports: &[PointReport]) -> ScenarioOutput {
    let axes = if g.nodes.is_empty() {
        format!(
            "{} loads x {} policies x {} seeds",
            g.loads.len(),
            g.policies.len(),
            g.seeds.len()
        )
    } else {
        let routings = s
            .cluster
            .as_ref()
            .expect("validated: cluster present")
            .routing
            .len();
        format!(
            "{} loads x {} rack widths x {routings} routings x {} policies x {} seeds",
            g.loads.len(),
            g.nodes.len(),
            g.policies.len(),
            g.seeds.len()
        )
    };
    let mut out = header_text(
        &format!("Scenario sweep: {}", s.name),
        &format!(
            "{} grid points ({axes}), every point a fully specified config whose seed\n\
             derives from the scenario master seed; evaluated through the deterministic\n\
             sweep runner, bit-identical at any UM_THREADS.",
            reports.len()
        ),
    );
    let mut points = Vec::new();
    let mut it = reports.iter();
    if g.nodes.is_empty() {
        let mut t = Table::with_columns(&[
            "load",
            "policy",
            "seed",
            "p50 (us)",
            "p99 (us)",
            "mean (us)",
            "gave-up",
            "retries",
            "hedges",
        ]);
        for &rps in g.loads.iter() {
            for policy in &g.policies {
                for &axis_seed in &g.seeds {
                    let r = it.next().expect("one report per point").node();
                    t.row(vec![
                        format!("{rps:.0}"),
                        policy.name.clone(),
                        axis_seed.to_string(),
                        f1(r.latency.p50),
                        f1(r.latency.p99),
                        f1(r.latency.mean),
                        r.faults.gave_up_requests.to_string(),
                        r.faults.retries.to_string(),
                        r.faults.hedges.to_string(),
                    ]);
                    points.push(obj(vec![
                        ("load_rps", Json::Num(rps)),
                        ("policy", Json::Str(policy.name.clone())),
                        ("seed", Json::Num(axis_seed as f64)),
                        ("p50_us", Json::Num(rounded(r.latency.p50, 2))),
                        ("p99_us", Json::Num(rounded(r.latency.p99, 2))),
                        ("mean_us", Json::Num(rounded(r.latency.mean, 2))),
                        ("completed", Json::Num(r.completed as f64)),
                        ("gave_up", Json::Num(r.faults.gave_up_requests as f64)),
                        ("retries", Json::Num(r.faults.retries as f64)),
                        ("hedges", Json::Num(r.faults.hedges as f64)),
                    ]));
                }
            }
        }
        out.push_str(&t.render());
    } else {
        let c = s.cluster.as_ref().expect("validated: cluster present");
        let mut t = Table::with_columns(&[
            "load",
            "nodes",
            "routing",
            "policy",
            "seed",
            "p50 (us)",
            "p99 (us)",
            "mean (us)",
            "hop p99 (us)",
            "peak LB queue",
        ]);
        for &rps in &g.loads {
            for &nodes in &g.nodes {
                for named in &c.routing {
                    for policy in &g.policies {
                        for &axis_seed in &g.seeds {
                            let r = it.next().expect("one report per point").cluster();
                            t.row(vec![
                                format!("{rps:.0}"),
                                nodes.to_string(),
                                named.name.clone(),
                                policy.name.clone(),
                                axis_seed.to_string(),
                                f1(r.latency.p50),
                                f1(r.latency.p99),
                                f1(r.latency.mean),
                                f1(r.cluster_hop.p99),
                                r.peak_lb_queue.to_string(),
                            ]);
                            points.push(obj(vec![
                                ("load_rps", Json::Num(rps)),
                                ("nodes", Json::Num(nodes as f64)),
                                ("routing", Json::Str(named.name.clone())),
                                ("policy", Json::Str(policy.name.clone())),
                                ("seed", Json::Num(axis_seed as f64)),
                                ("p50_us", Json::Num(rounded(r.latency.p50, 2))),
                                ("p99_us", Json::Num(rounded(r.latency.p99, 2))),
                                ("mean_us", Json::Num(rounded(r.latency.mean, 2))),
                                ("hop_p99_us", Json::Num(rounded(r.cluster_hop.p99, 2))),
                                ("recorded", Json::Num(r.recorded as f64)),
                                ("peak_lb_queue", Json::Num(r.peak_lb_queue as f64)),
                            ]));
                        }
                    }
                }
            }
        }
        out.push_str(&t.render());
    }
    ScenarioOutput {
        text: out,
        points: Some(Json::Arr(points)),
    }
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

/// A value the scenario codec reads and writes. Every scenario type has
/// one entry in the `record!`/`tagged!`/`names!` tables below, so a new
/// field is one struct field plus one table entry; reading reports the
/// offending field path (`scenario.kind.policies[0].mitigation`).
pub trait Field: Sized {
    /// The canonical JSON value.
    fn write(&self) -> Json;

    /// Parses the value at `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `path` on the first structural violation.
    fn read(v: &Json, path: &str) -> Result<Self, String>;

    /// Whether the enclosing object leaves this field out (an absent
    /// `Option`).
    fn omitted(&self) -> bool {
        false
    }

    /// The value of a field whose key `key` is absent from the object at
    /// `path`: an error for every required field.
    ///
    /// # Errors
    ///
    /// Returns the missing-field message unless the field is optional.
    fn missing(path: &str, key: &str) -> Result<Self, String> {
        Err(format!("{path}: missing field `{key}`"))
    }
}

/// Checks that `v` is an object whose keys all appear in `allowed`.
///
/// # Errors
///
/// Returns `{path}: expected an object` or ``{path}: unknown field `k` ``.
pub fn check_keys(v: &Json, path: &str, allowed: &[&str]) -> Result<(), String> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| format!("{path}: expected an object"))?;
    match pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("{path}: unknown field `{k}`")),
        None => Ok(()),
    }
}

/// Reads field `key` of the object at `path`.
fn field<T: Field>(v: &Json, path: &str, key: &str) -> Result<T, String> {
    match v.get(key) {
        Some(x) => T::read(x, &format!("{path}.{key}")),
        None => T::missing(path, key),
    }
}

/// Appends field `key` to an object under construction unless omitted.
fn put<T: Field>(pairs: &mut Vec<(&'static str, Json)>, key: &'static str, value: &T) {
    if !value.omitted() {
        pairs.push((key, value.write()));
    }
}

impl Field for f64 {
    fn write(&self) -> Json {
        Json::Num(*self)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        v.as_num()
            .ok_or_else(|| format!("{path}: expected a number"))
    }
}

/// Integers must be exact in JSON's f64: nonnegative, integral and below
/// 2^53.
impl Field for u64 {
    fn write(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        let n = f64::read(v, path)?;
        if !(n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT_INT as f64) {
            return Err(format!("{path}: expected an exact nonnegative integer"));
        }
        Ok(n as u64)
    }
}

impl Field for usize {
    fn write(&self) -> Json {
        (*self as u64).write()
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        Ok(u64::read(v, path)? as usize)
    }
}

impl Field for u32 {
    fn write(&self) -> Json {
        u64::from(*self).write()
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        u32::try_from(u64::read(v, path)?)
            .map_err(|_| format!("{path}: value does not fit in 32 bits"))
    }
}

impl Field for bool {
    fn write(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{path}: expected a boolean")),
        }
    }
}

impl Field for String {
    fn write(&self) -> Json {
        Json::Str(self.clone())
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: expected a string"))
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(T::write).collect())
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| format!("{path}: expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| T::read(e, &format!("{path}[{i}]")))
            .collect()
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::write)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        T::read(v, path).map(Some)
    }
    fn omitted(&self) -> bool {
        self.is_none()
    }
    fn missing(_: &str, _: &str) -> Result<Self, String> {
        Ok(None)
    }
}

/// A topology shape, `[cores_per_village, villages_per_cluster, clusters]`.
impl Field for [usize; 3] {
    fn write(&self) -> Json {
        self.to_vec().write()
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        <[usize; 3]>::try_from(Vec::read(v, path)?).map_err(|_| {
            format!("{path}: expected [cores_per_village, villages_per_cluster, clusters]")
        })
    }
}

/// A struct as an object with its fields in table order; unknown keys
/// are rejected.
macro_rules! record {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl Field for $ty {
            fn write(&self) -> Json {
                let mut pairs = Vec::new();
                $(put(&mut pairs, stringify!($f), &self.$f);)*
                obj(pairs)
            }
            fn read(v: &Json, path: &str) -> Result<Self, String> {
                check_keys(v, path, &[$(stringify!($f)),*])?;
                Ok($ty { $($f: field(v, path, stringify!($f))?,)* })
            }
        }
    };
}

/// An enum as an object whose `type` tag names the variant, followed by
/// the variant's fields in table order.
macro_rules! tagged {
    ($ty:ident, $what:literal { $($tag:literal => $var:ident $({ $($f:ident),* })?,)* }) => {
        impl Field for $ty {
            fn write(&self) -> Json {
                match self {
                    $($ty::$var $({ $($f),* })? => {
                        #[allow(unused_mut, reason = "field-less variants push nothing")]
                        let mut pairs = vec![("type", Json::Str($tag.to_string()))];
                        $($(put(&mut pairs, stringify!($f), $f);)*)?
                        obj(pairs)
                    })*
                }
            }
            fn read(v: &Json, path: &str) -> Result<Self, String> {
                match field::<String>(v, path, "type")?.as_str() {
                    $($tag => {
                        check_keys(v, path, &["type" $($(, stringify!($f))*)?])?;
                        Ok($ty::$var $({ $($f: field(v, path, stringify!($f))?),* })?)
                    })*
                    other => Err(format!("{path}.type: unknown {} `{other}`", $what)),
                }
            }
        }
    };
}

/// A fieldless enum as one of a fixed set of strings.
macro_rules! names {
    ($ty:ident, $what:literal { $($name:literal => $var:ident,)* }) => {
        impl Field for $ty {
            fn write(&self) -> Json {
                Json::Str(match self { $($ty::$var => $name,)* }.to_string())
            }
            fn read(v: &Json, path: &str) -> Result<Self, String> {
                match String::read(v, path)?.as_str() {
                    $($name => Ok($ty::$var),)*
                    other => Err(format!("{path}: unknown {} `{other}`", $what)),
                }
            }
        }
    };
}

names!(MachineBase, "machine" {
    "umanycore" => Umanycore,
    "scaleout" => Scaleout,
    "server-class-iso-power" => ServerClassIsoPower,
    "server-class-iso-area" => ServerClassIsoArea,
});
names!(IcnKind, "interconnect" {
    "mesh" => Mesh,
    "fat-tree" => FatTree,
    "leaf-spine" => LeafSpine,
});
record!(MachineSpec {
    base,
    shape,
    rq_capacity,
    ctx_switch_cycles,
    icn
});
tagged!(WorkloadSpec, "workload" {
    "social-mix" => SocialMix,
    "train-mix" => TrainMix,
    "synthetic" => Synthetic { mean_us, scv, min_rpcs, max_rpcs },
});
record!(Scale {
    horizon_us,
    warmup_us,
    servers,
    seed
});
record!(RetrySpec {
    timeout_us,
    backoff,
    max_attempts,
    budget_fraction
});
record!(MitigationSpec {
    hedge_delay_us,
    retry,
    steer
});
record!(JitterSpec { mean_us, scv });
record!(ClusterSpec {
    nodes,
    routing,
    max_in_flight,
    jitter,
    steer
});
tagged!(FaultRecipe, "fault" {
    "message-drops" => MessageDrops { probability },
    "core-fail-stop" => CoreFailStop { server, village, at_cycles },
    "core-fail-slow" => CoreFailSlow { server, village, cores, from_cycles, until_cycles, slowdown },
    "link-fault" => LinkFault { server, link, from_cycles, until_cycles, slowdown },
    "fail-slow-every-village" => FailSlowEveryVillage {
        servers, villages, cores, from_cycles, until_cycles, slowdown
    },
    "random-fail-stops" => RandomFailStops { count, servers, villages, horizon_cycles },
    "random-link-faults" => RandomLinkFaults {
        count, servers, links, horizon_cycles, mean_duration_cycles, slowdown
    },
});
record!(NamedMachine { name, machine });
record!(NamedPolicy { name, mitigation });
record!(GridSpec {
    loads,
    seeds,
    nodes,
    policies
});
record!(Scenario {
    name,
    kind,
    machine,
    workload,
    scale,
    faults,
    mitigation,
    cluster
});

/// `{name, policy, d}`, with `d` present exactly for `jsq`.
impl Field for NamedRouting {
    fn write(&self) -> Json {
        let policy = match self.policy {
            RoutingPolicy::Random => "random",
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::JsqD { .. } => "jsq",
            RoutingPolicy::CentralQueue => "central-queue",
        };
        let mut pairs = vec![
            ("name", self.name.write()),
            ("policy", Json::Str(policy.to_string())),
        ];
        if let RoutingPolicy::JsqD { d } = self.policy {
            pairs.push(("d", d.write()));
        }
        obj(pairs)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        check_keys(v, path, &["name", "policy", "d"])?;
        let name = field(v, path, "name")?;
        let policy = match field::<String>(v, path, "policy")?.as_str() {
            "random" => RoutingPolicy::Random,
            "round-robin" => RoutingPolicy::RoundRobin,
            "jsq" => RoutingPolicy::JsqD {
                d: field(v, path, "d")?,
            },
            "central-queue" => RoutingPolicy::CentralQueue,
            other => return Err(format!("{path}.policy: unknown policy `{other}`")),
        };
        if !matches!(policy, RoutingPolicy::JsqD { .. }) && v.get("d").is_some() {
            return Err(format!("{path}.d: only valid with the `jsq` policy"));
        }
        Ok(NamedRouting { name, policy })
    }
}

/// A `type`-tagged object; the grid's fields sit beside the tag.
impl Field for ScenarioKind {
    fn write(&self) -> Json {
        let (tag, body) = match self {
            ScenarioKind::MachineCompare { loads, machines } => (
                "machine-compare",
                obj(vec![
                    ("loads", loads.write()),
                    ("machines", machines.write()),
                ]),
            ),
            ScenarioKind::Grid(g) => ("grid", g.write()),
        };
        let Json::Obj(mut pairs) = body else {
            unreachable!("kinds write objects")
        };
        pairs.insert(0, ("type".to_string(), Json::Str(tag.to_string())));
        Json::Obj(pairs)
    }
    fn read(v: &Json, path: &str) -> Result<Self, String> {
        let tag: String = field(v, path, "type")?;
        // What remains once the tag is read is the kind's own record.
        let body = Json::Obj(
            v.as_obj()
                .unwrap_or_default()
                .iter()
                .filter(|(k, _)| k != "type")
                .cloned()
                .collect(),
        );
        match tag.as_str() {
            "machine-compare" => {
                check_keys(&body, path, &["loads", "machines"])?;
                Ok(ScenarioKind::MachineCompare {
                    loads: field(&body, path, "loads")?,
                    machines: field(&body, path, "machines")?,
                })
            }
            "grid" => GridSpec::read(&body, path).map(ScenarioKind::Grid),
            other => Err(format!("{path}.type: unknown scenario kind `{other}`")),
        }
    }
}

impl Scenario {
    /// The canonical JSON document (fixed field order; optional fields
    /// omitted when absent, so serialize → parse → serialize is
    /// byte-stable).
    pub fn to_json(&self) -> Json {
        self.write()
    }

    /// [`Scenario::to_json`] rendered to text.
    pub fn to_json_text(&self) -> String {
        self.to_json().render()
    }

    /// Parses the canonical document, rejecting unknown fields with the
    /// offending path, then validates every knob.
    ///
    /// # Errors
    ///
    /// Returns the first structural or range violation.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let s = Scenario::read(doc, "scenario")?;
        s.validate()?;
        Ok(s)
    }

    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the first schema/range violation.
    pub fn from_json_text(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

// ---------------------------------------------------------------------
// Registry and environment
// ---------------------------------------------------------------------

/// The named built-in scenarios behind the committed `results/` tables.
pub mod registry {
    use super::*;

    /// The abstract's headline experiment: 10-server clusters of the
    /// four paper machines, committed as `results/cluster10.txt`.
    pub fn cluster10() -> Scenario {
        Scenario {
            name: "cluster10".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: Scale {
                servers: 10,
                ..Scale::default()
            },
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::MachineCompare {
                loads: vec![5_000.0, 10_000.0, 15_000.0],
                machines: vec![
                    NamedMachine {
                        name: "ServerClass-40".to_string(),
                        machine: MachineSpec::of(MachineBase::ServerClassIsoPower),
                    },
                    NamedMachine {
                        name: "ServerClass-128".to_string(),
                        machine: MachineSpec::of(MachineBase::ServerClassIsoArea),
                    },
                    NamedMachine {
                        name: "ScaleOut".to_string(),
                        machine: MachineSpec::of(MachineBase::Scaleout),
                    },
                    NamedMachine {
                        name: "uManycore".to_string(),
                        machine: MachineSpec::of(MachineBase::Umanycore),
                    },
                ],
            },
        }
    }

    /// The default `um-sweep` grid: 4 loads x 3 mitigation policies x 2
    /// seeds (24 points) on a uManycore under 1% message loss.
    pub fn sweep_default() -> Scenario {
        Scenario {
            name: "sweep_default".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: Scale {
                horizon_us: 60_000.0,
                warmup_us: 6_000.0,
                servers: 1,
                seed: 42,
            },
            faults: vec![FaultRecipe::MessageDrops { probability: 0.01 }],
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::Grid(GridSpec {
                loads: vec![2_000.0, 5_000.0, 8_000.0, 11_000.0],
                seeds: vec![42, 43],
                nodes: Vec::new(),
                policies: vec![
                    NamedPolicy {
                        name: "none".to_string(),
                        mitigation: MitigationSpec::default(),
                    },
                    NamedPolicy {
                        name: "retry".to_string(),
                        mitigation: MitigationSpec {
                            retry: Some(RetrySpec::with_timeout_us(1_500.0)),
                            ..MitigationSpec::default()
                        },
                    },
                    NamedPolicy {
                        name: "hedge".to_string(),
                        mitigation: MitigationSpec {
                            hedge_delay_us: Some(150.0),
                            ..MitigationSpec::default()
                        },
                    },
                ],
            }),
        }
    }

    /// Every built-in scenario, in display order.
    pub fn all() -> Vec<Scenario> {
        vec![cluster10(), sweep_default()]
    }

    /// Looks a built-in scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        all().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup_by_name() {
        assert_eq!(
            registry::by_name("cluster10").expect("exists").name,
            "cluster10"
        );
        assert!(registry::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let mut doc = registry::cluster10().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("surprise".to_string(), Json::Num(1.0)));
        }
        let err = Scenario::from_json(&doc).expect_err("unknown field");
        assert!(err.contains("unknown field `surprise`"), "{err}");

        let mut doc = registry::cluster10().to_json();
        if let Some(Json::Obj(pairs)) = doc.get("machine").cloned().as_mut() {
            pairs.push(("warp_factor".to_string(), Json::Num(9.0)));
            if let Json::Obj(top) = &mut doc {
                top.iter_mut()
                    .find(|(k, _)| k == "machine")
                    .expect("machine field")
                    .1 = Json::Obj(pairs.clone());
            }
        }
        let err = Scenario::from_json(&doc).expect_err("unknown machine field");
        assert!(err.contains("scenario.machine"), "{err}");
        assert!(err.contains("unknown field `warp_factor`"), "{err}");
    }

    #[test]
    fn out_of_range_knobs_fail_validation_not_panic() {
        let mut s = registry::cluster10();
        if let ScenarioKind::MachineCompare { machines, .. } = &mut s.kind {
            machines.truncate(1);
        }
        let err = s.validate().expect_err("one machine row");
        assert!(err.contains("scenario.kind.machines"), "{err}");

        let mut s = registry::cluster10();
        s.scale.warmup_us = s.scale.horizon_us * 2.0;
        assert!(s.validate().is_err());

        let mut s = registry::sweep_default();
        if let ScenarioKind::Grid(g) = &mut s.kind {
            g.policies[1].mitigation.retry = Some(RetrySpec {
                backoff: 0.5,
                ..RetrySpec::with_timeout_us(100.0)
            });
        }
        let err = s.validate().expect_err("bad backoff");
        assert!(err.contains("backoff"), "{err}");
    }

    #[test]
    fn grid_expands_the_full_cross_product() {
        let mut s = registry::sweep_default();
        crate::EnvScale {
            quick: true,
            seed: Some(7),
        }
        .apply(&mut s);
        assert_eq!(s.scale.seed, 7);
        let points = s.expand().expect("valid scenario");
        assert_eq!(points.len(), 24);
        // Every point is a node run, and distinct axis seeds derive
        // distinct per-point seeds.
        let seeds: std::collections::BTreeSet<u64> = points
            .iter()
            .map(|p| match p {
                PointConfig::Node(cfg) => cfg.seed,
                PointConfig::Cluster(_) => panic!("a grid without nodes runs node points"),
            })
            .collect();
        assert_eq!(seeds.len(), 8, "4 loads x 2 seed-axis values");
    }
}
