//! Drivers for the evaluation figures (§6).

use super::{grid, sweep, Scale};
use crate::qos::{self, QosResult};
use crate::report::RunReport;
use crate::system::SimConfig;
use crate::workload::Workload;
use um_arch::config::{CoherenceDomain, IcnKind, MachineConfig, TopologyShape};
use um_sched::CtxSwitchModel;
use um_workload::apps::SocialNetwork;
use um_workload::synthetic::SyntheticWorkload;
use um_workload::ServiceId;

/// The paper's three load levels, RPS per server (§5).
pub const LOADS: [f64; 3] = [5_000.0, 10_000.0, 15_000.0];

/// The three machines in figure order: ServerClass, ScaleOut, uManycore.
pub fn machines() -> [MachineConfig; 3] {
    [
        MachineConfig::server_class_iso_power(),
        MachineConfig::scaleout(),
        MachineConfig::umanycore(),
    ]
}

/// One application's results on the three machines at one load.
#[derive(Clone, Debug)]
pub struct AppRow {
    /// Application name.
    pub app: &'static str,
    /// Load in RPS.
    pub rps: f64,
    /// ServerClass report.
    pub server_class: RunReport,
    /// ScaleOut report.
    pub scaleout: RunReport,
    /// uManycore report.
    pub umanycore: RunReport,
}

impl AppRow {
    /// Tail latencies normalized to ServerClass (Figure 14 bars).
    pub fn norm_tails(&self) -> (f64, f64, f64) {
        let base = self.server_class.latency.p99;
        (
            1.0,
            self.scaleout.latency.p99 / base,
            self.umanycore.latency.p99 / base,
        )
    }
}

/// Every SocialNetwork root in figure order, each with its own row seed
/// derived from `scale.seed` and the root's position.
fn every_app(scale: Scale) -> Vec<(ServiceId, Scale)> {
    SocialNetwork::ALL
        .iter()
        .enumerate()
        .map(|(a, &root)| (root, scale.row(a)))
        .collect()
}

/// One sweep row per `(root, scale)`: that single app at `rps`.
fn app_configs(rows: &[(ServiceId, Scale)], rps: f64) -> Vec<SimConfig> {
    rows.iter()
        .map(|&(root, scale)| scale.config(Workload::social_app(root), rps))
        .collect()
}

/// Runs each `(root, scale)` row at `rps` on the three machines.
fn app_rows(rows: &[(ServiceId, Scale)], rps: f64) -> Vec<AppRow> {
    let graph = SocialNetwork::graph();
    rows.iter()
        .zip(sweep(&app_configs(rows, rps), &machines()))
        .map(|(&(root, _), reports)| {
            let [sc, so, um]: [RunReport; 3] = reports.try_into().expect("three machines");
            AppRow {
                app: graph.profile(root).name,
                rps,
                server_class: sc,
                scaleout: so,
                umanycore: um,
            }
        })
        .collect()
}

/// Runs one app at one load on all three machines (a Figure 14/16/17
/// cell), fanned out across the sweep worker pool.
///
/// The three machines share the row's seed (common random numbers), so
/// the normalized bars compare machines on the same arrival draws.
pub fn app_row(root: ServiceId, rps: f64, scale: Scale) -> AppRow {
    app_rows(&[(root, scale)], rps).remove(0)
}

/// Runs the full Figure 14/16/17 grid at one load: 8 apps x 3 machines,
/// all 24 points in parallel.
///
/// Each app row gets its own seed derived from `scale.seed` and the
/// row's index, so rows are statistically independent while the three
/// machines within a row stay seed-paired.
pub fn app_grid(rps: f64, scale: Scale) -> Vec<AppRow> {
    app_rows(&every_app(scale), rps)
}

// ---------------------------------------------------------------------
// Figure 15: ablation
// ---------------------------------------------------------------------

/// The cumulative ablation stages of Figure 15, applied to ScaleOut in
/// the paper's order: villages, leaf-spine ICN, hardware scheduling,
/// hardware context switching.
pub fn ablation_stages() -> Vec<(&'static str, MachineConfig)> {
    let mut stages = Vec::new();

    let scaleout = MachineConfig::scaleout();
    stages.push(("ScaleOut", scaleout.clone()));

    // + Villages: 8-core coherence domains; queues and migration shrink
    // from the 32-core cluster to the village.
    let mut villages = scaleout;
    villages.coherence = CoherenceDomain::Village;
    villages.shape = TopologyShape::new(8, 4, 32);
    villages.name = "+Villages";
    stages.push(("+Villages", villages.clone()));

    // + Leaf-spine ICN: the full on-package organization of Figure 12,
    // including the per-cluster memory-pool chiplets attached to the hubs
    // (Figures 10-11), which localize read-mostly traffic.
    let mut leafspine = villages;
    leafspine.icn = IcnKind::LeafSpine;
    leafspine.memory_pool = true;
    leafspine.name = "+Leaf-spine";
    stages.push(("+Leaf-spine", leafspine.clone()));

    // + Hardware scheduling: hardware RQs and NIC RPC processing (§4.3).
    let mut hw_sched = leafspine;
    hw_sched.hw_scheduling = true;
    hw_sched.sched_op_cost = MachineConfig::umanycore().sched_op_cost;
    hw_sched.rq_capacity = 64;
    hw_sched.name = "+HW-Sched";
    stages.push(("+HW-Sched", hw_sched.clone()));

    // + Hardware context switching: the full uManycore.
    let mut hw_cs = hw_sched;
    hw_cs.ctx_switch = CtxSwitchModel::Hardware;
    hw_cs.name = "+HW-CtxSw";
    stages.push(("+HW-CtxSw", hw_cs));

    stages
}

/// One Figure 15 column: per-stage tail-latency reduction over ScaleOut.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    /// Application name.
    pub app: &'static str,
    /// Reduction factor (ScaleOut tail / stage tail) per cumulative stage,
    /// in `ablation_stages()[1..]` order.
    pub reductions: Vec<f64>,
}

/// Runs each `(root, scale)` row's ablation at `rps` over every stage.
fn fig15_rows(rows: &[(ServiceId, Scale)], rps: f64) -> Vec<Fig15Row> {
    let stages: Vec<MachineConfig> = ablation_stages().into_iter().map(|(_, m)| m).collect();
    let graph = SocialNetwork::graph();
    rows.iter()
        .zip(sweep(&app_configs(rows, rps), &stages))
        .map(|(&(root, _), reports)| {
            let base = reports[0].latency.p99;
            Fig15Row {
                app: graph.profile(root).name,
                reductions: reports[1..].iter().map(|r| base / r.latency.p99).collect(),
            }
        })
        .collect()
}

/// Runs the Figure 15 ablation for one app at `rps` (the paper uses
/// 15 K RPS).
///
/// All stages share the seed: the reductions are paired ratios, so every
/// stage sees the same arrival draws.
pub fn fig15_row(root: ServiceId, rps: f64, scale: Scale) -> Fig15Row {
    fig15_rows(&[(root, scale)], rps).remove(0)
}

/// Runs the Figure 15 ablation for all eight apps: 8 apps x 5 stages,
/// all 40 points in parallel.
///
/// Each app derives its own seed from `scale.seed`; the stages within
/// an app share it (the reductions are paired ratios).
pub fn fig15_grid(rps: f64, scale: Scale) -> Vec<Fig15Row> {
    fig15_rows(&every_app(scale), rps)
}

// ---------------------------------------------------------------------
// Figure 18: QoS throughput
// ---------------------------------------------------------------------

/// One Figure 18 bar group.
#[derive(Clone, Debug)]
pub struct Fig18Row {
    /// Application name.
    pub app: &'static str,
    /// Max QoS-compliant throughput per machine, RPS.
    pub server_class: QosResult,
    /// ScaleOut result.
    pub scaleout: QosResult,
    /// uManycore result.
    pub umanycore: QosResult,
}

/// Runs the QoS throughput search for all eight apps: 8 apps x 3
/// machines, all 24 searches in parallel.
///
/// Each app derives its own seed from `scale.seed`; the three machines
/// within an app share it (the bars are normalized to ServerClass).
pub fn fig18_grid(scale: Scale, hi_rps: f64) -> Vec<Fig18Row> {
    // The search sets each probe's load; `hi_rps` is only a placeholder.
    let rows = app_configs(&every_app(scale), hi_rps);
    let results = qos::max_qos_throughput_many(grid(&rows, &machines()), hi_rps / 512.0, hi_rps);
    let graph = SocialNetwork::graph();
    SocialNetwork::ALL
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(&root, r)| Fig18Row {
            app: graph.profile(root).name,
            server_class: r[0],
            scaleout: r[1],
            umanycore: r[2],
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 19: topology sensitivity
// ---------------------------------------------------------------------

/// One Figure 19 bar group: per-shape tails for one app, normalized to
/// the default 8x4x32 shape.
#[derive(Clone, Debug)]
pub struct Fig19Row {
    /// Application name.
    pub app: &'static str,
    /// Normalized tails in `TopologyShape::FIG19_SWEEP` order.
    pub norm_tails: Vec<f64>,
}

/// Runs the Figure 19 shape sweep for all eight apps: 8 apps x
/// `FIG19_SWEEP.len()` shapes, all points in parallel.
///
/// Each app derives its own seed from `scale.seed`; the shapes within
/// an app share it (tails are normalized to the first shape).
pub fn fig19_grid(rps: f64, scale: Scale) -> Vec<Fig19Row> {
    let rows = app_configs(&every_app(scale), rps);
    let shapes: Vec<MachineConfig> = TopologyShape::FIG19_SWEEP
        .iter()
        .map(|&shape| MachineConfig::umanycore_shaped(shape))
        .collect();
    let graph = SocialNetwork::graph();
    SocialNetwork::ALL
        .iter()
        .zip(sweep(&rows, &shapes))
        .map(|(&root, reports)| Fig19Row {
            app: graph.profile(root).name,
            norm_tails: reports
                .iter()
                .map(|r| r.latency.p99 / reports[0].latency.p99)
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 20: synthetic service-time distributions
// ---------------------------------------------------------------------

/// One Figure 20 bar group.
#[derive(Clone, Debug)]
pub struct Fig20Row {
    /// Distribution label (Exp/Lgn/Bim).
    pub dist: &'static str,
    /// Load in RPS.
    pub rps: f64,
    /// ServerClass tail, microseconds (the figure's absolute annotation).
    pub server_class_tail_us: f64,
    /// ScaleOut tail normalized to ServerClass.
    pub scaleout_norm: f64,
    /// uManycore tail normalized to ServerClass.
    pub umanycore_norm: f64,
}

/// Runs the Figure 20 grid: three distributions x the given loads, all
/// machine runs in parallel.
///
/// Each (distribution, load) row derives its own seed; the three
/// machines within a row share it so the normalization is paired.
pub fn fig20_rows(scale: Scale, loads: &[f64], mean_service_us: f64) -> Vec<Fig20Row> {
    let mut row_meta = Vec::new();
    let mut rows = Vec::new();
    for (label, synth) in SyntheticWorkload::paper_suite(mean_service_us) {
        for &rps in loads {
            rows.push(
                scale
                    .row(rows.len())
                    .config(Workload::Synthetic(synth), rps),
            );
            row_meta.push((label, rps));
        }
    }
    row_meta
        .iter()
        .zip(sweep(&rows, &machines()))
        .map(|(&(label, rps), r)| Fig20Row {
            dist: label,
            rps,
            server_class_tail_us: r[0].latency.p99,
            scaleout_norm: r[1].latency.p99 / r[0].latency.p99,
            umanycore_norm: r[2].latency.p99 / r[0].latency.p99,
        })
        .collect()
}

// ---------------------------------------------------------------------
// §6.8: iso-area comparison
// ---------------------------------------------------------------------

/// The iso-area comparison report.
#[derive(Clone, Debug)]
pub struct IsoAreaRow {
    /// Load in RPS.
    pub rps: f64,
    /// 128-core ServerClass tail, microseconds.
    pub server_class_128_tail_us: f64,
    /// ScaleOut tail, microseconds.
    pub scaleout_tail_us: f64,
    /// uManycore tail, microseconds.
    pub umanycore_tail_us: f64,
}

/// Runs the §6.8 iso-area comparison at the given loads, all machine
/// runs in parallel.
///
/// Each load row derives its own seed; the three machines within a row
/// share it so the comparison is paired.
pub fn iso_area_rows(scale: Scale, loads: &[f64]) -> Vec<IsoAreaRow> {
    let rows: Vec<SimConfig> = loads
        .iter()
        .enumerate()
        .map(|(li, &rps)| scale.row(li).config(Workload::social_mix(), rps))
        .collect();
    let machines = [
        MachineConfig::server_class_iso_area(),
        MachineConfig::scaleout(),
        MachineConfig::umanycore(),
    ];
    loads
        .iter()
        .zip(sweep(&rows, &machines))
        .map(|(&rps, r)| IsoAreaRow {
            rps,
            server_class_128_tail_us: r[0].latency.p99,
            scaleout_tail_us: r[1].latency.p99,
            umanycore_tail_us: r[2].latency.p99,
        })
        .collect()
}

/// Area/power summary for the §6.8 table.
#[derive(Clone, Copy, Debug)]
pub struct AreaPowerRow {
    /// Machine label.
    pub name: &'static str,
    /// Cores.
    pub cores: usize,
    /// Package area, mm².
    pub area_mm2: f64,
    /// Package power, watts.
    pub power_w: f64,
}

/// Area and power of the four machine variants.
pub fn area_power_rows() -> Vec<AreaPowerRow> {
    [
        ("ServerClass-40", MachineConfig::server_class_iso_power()),
        ("ServerClass-128", MachineConfig::server_class_iso_area()),
        ("ScaleOut", MachineConfig::scaleout()),
        ("uManycore", MachineConfig::umanycore()),
    ]
    .into_iter()
    .map(|(name, m)| AreaPowerRow {
        name,
        cores: m.total_cores(),
        area_mm2: m.area_mm2(),
        power_w: m.power_watts(),
    })
    .collect()
}
