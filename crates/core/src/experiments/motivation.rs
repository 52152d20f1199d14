//! Drivers for the motivation/characterization figures (§2–§3).

use super::{parallel, sweep, Scale};
use crate::system::{SimConfig, SystemSim};
use crate::workload::Workload;
use um_arch::config::{IcnKind, MachineConfig};
use um_arch::uarch_opt::{OptKind, StallBreakdown};
use um_mem::footprint::{FootprintGenerator, FootprintProfile, SharingReport};
use um_mem::hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
use um_sched::CtxSwitchModel;
use um_sim::{rng, Cycles};
use um_stats::Cdf;
use um_workload::alibaba::AlibabaModel;
use um_workload::trace::{TraceGenerator, TraceProfile};

// ---------------------------------------------------------------------
// Figure 1: microarchitectural optimizations on monoliths vs microservices
// ---------------------------------------------------------------------

/// One Figure 1 bar group.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Row {
    /// The optimization.
    pub opt: OptKind,
    /// Speedup on monolithic applications (baseline = 1.0).
    pub mono_speedup: f64,
    /// Speedup on microservice applications.
    pub micro_speedup: f64,
}

/// Out-of-order cores hide short-latency misses; only cycles beyond this
/// threshold stall the pipeline.
const OOO_HIDE_CYCLES: u64 = 12;
/// Branch misprediction penalty, cycles.
const MISPREDICT_PENALTY: f64 = 15.0;

fn access_kind(r: um_workload::trace::MemRef) -> AccessKind {
    if r.instr {
        AccessKind::InstrFetch
    } else if r.write {
        AccessKind::DataWrite
    } else {
        AccessKind::DataRead
    }
}

/// Measures a stall breakdown by streaming a synthetic trace through the
/// ServerClass cache hierarchy (the original optimization papers evaluate
/// on big cores).
pub fn measured_breakdown(profile: TraceProfile, refs: usize, seed: u64) -> StallBreakdown {
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::server_class());
    let mut generator = TraceGenerator::new(profile, seed);
    // Warm one pass so compulsory misses do not masquerade as steady-state
    // stall (the original studies measure warmed-up applications).
    let mut now = Cycles::ZERO;
    for r in generator.generate(refs) {
        let kind = access_kind(r);
        let lat = hierarchy.access(r.addr, kind, now);
        now += lat; // serial single-core time
    }
    hierarchy.reset_stats();
    let mut d_stall = 0u64;
    let mut i_stall = 0u64;
    let mut instr_refs = 0u64;
    for r in generator.generate(refs) {
        if r.instr {
            instr_refs += 1;
        }
        let lat = hierarchy.access(r.addr, access_kind(r), now);
        now += lat; // serial single-core time
        if lat.raw() > OOO_HIDE_CYCLES {
            let stall = lat.raw() - OOO_HIDE_CYCLES;
            if r.instr {
                i_stall += stall;
            } else {
                d_stall += stall;
            }
        }
    }
    // Base execution: ~2.5 IPC on the 6-issue core.
    let base = (refs as f64 / 2.5).max(1.0);
    // Branch stalls: taken-branch density from the profile; misprediction
    // rate under a g-share-class predictor grows with out-of-line branch
    // entropy (footprint-driven, as §2.2 argues).
    let branches = instr_refs as f64 * profile.branch_out_p;
    let mispredict_rate = (0.55 * profile.branch_out_p + 0.005).min(0.2);
    let b_stall = branches * mispredict_rate * MISPREDICT_PENALTY;
    let total = base + d_stall as f64 + i_stall as f64 + b_stall;
    StallBreakdown::new(
        d_stall as f64 / total,
        i_stall as f64 / total,
        b_stall / total,
    )
}

/// Produces the Figure 1 rows from the calibrated reference stall
/// breakdowns (`um_arch::uarch_opt::reference`), which encode the original
/// papers' own measurements.
pub fn fig1_rows() -> Vec<Fig1Row> {
    let mono = um_arch::uarch_opt::reference::monolith();
    let micro = um_arch::uarch_opt::reference::microservice();
    OptKind::ALL
        .iter()
        .map(|&opt| Fig1Row {
            opt,
            mono_speedup: opt.speedup(&mono),
            micro_speedup: opt.speedup(&micro),
        })
        .collect()
}

/// Cross-check rows from trace-driven measurement: synthetic
/// monolith/microservice traces run through the cache hierarchy. The
/// *ordering* (monoliths stall far more than microservices, so the
/// optimizations help them far more) is reproduced mechanistically; the
/// absolute stall fractions of a first-order trace model are coarser than
/// the calibrated reference, so treat these as validation, not as the
/// figure.
pub fn fig1_rows_measured(seed: u64) -> Vec<Fig1Row> {
    let refs = 400_000;
    let mono = measured_breakdown(TraceProfile::monolith(), refs, seed);
    let micro = measured_breakdown(TraceProfile::microservice(), refs, seed);
    OptKind::ALL
        .iter()
        .map(|&opt| Fig1Row {
            opt,
            mono_speedup: opt.speedup(&mono),
            micro_speedup: opt.speedup(&micro),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 2, 4, 5: Alibaba trace CDFs
// ---------------------------------------------------------------------

/// Builds the Figure 2 CDF: requests per second received by a server.
pub fn fig2_cdf(seed: u64, samples: usize) -> Cdf {
    let mut m = AlibabaModel::new(seed);
    Cdf::from_samples((0..samples).map(|_| m.server_load_rps()))
}

/// Builds the Figure 4 CDF: CPU utilization per request.
pub fn fig4_cdf(seed: u64, samples: usize) -> Cdf {
    let mut m = AlibabaModel::new(seed);
    Cdf::from_samples((0..samples).map(|_| m.cpu_utilization()))
}

/// Builds the Figure 5 CDF: RPC invocations per request.
pub fn fig5_cdf(seed: u64, samples: usize) -> Cdf {
    let mut m = AlibabaModel::new(seed);
    Cdf::from_samples((0..samples).map(|_| m.rpc_count() as f64))
}

// ---------------------------------------------------------------------
// Figure 3: queue-count sweep on the 1024-core ScaleOut
// ---------------------------------------------------------------------

/// One Figure 3 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Row {
    /// Number of queues in the 1024-core manycore.
    pub queues: usize,
    /// Average response time without work stealing, microseconds.
    pub avg_us: f64,
    /// P99 response time without work stealing, microseconds.
    pub tail_us: f64,
    /// Average response time with work stealing, microseconds.
    pub avg_steal_us: f64,
    /// P99 response time with work stealing, microseconds.
    pub tail_steal_us: f64,
}

/// The paper's queue counts, 1024 down to 1.
pub const FIG3_QUEUES: [usize; 11] = [1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1];

/// Runs the Figure 3 sweep (50 K RPS Poisson on ScaleOut).
///
/// §3.2 isolates queue *structure*: requests are assigned to queues
/// randomly and run to completion on their core (no context switches).
/// Nested synchronous service calls would deadlock under strict
/// run-to-completion (every ancestor pins a core), so this sweep uses the
/// paper's synthetic request shape — a service time plus 2-6 blocking
/// storage accesses — which is also how prior-work queueing studies \[36\]
/// set up this experiment.
pub fn fig3_rows(scale: Scale, rps: f64) -> Vec<Fig3Row> {
    // Heavy-tailed multi-millisecond requests: long enough that one slow
    // request parked on a per-core queue visibly delays its successors.
    let synth = um_workload::synthetic::SyntheticWorkload::new(
        um_workload::ServiceTimeDist::lognormal_with_mean(4_000.0, 4.0),
        2,
        6,
    );
    // The whole figure is one paired comparison (every point is plotted
    // against every other), so all points share `scale.seed`; the sweep
    // fans out across queue counts, with the steal/no-steal pair for
    // each count evaluated back-to-back on the same worker.
    parallel::map(FIG3_QUEUES.to_vec(), |_, queues| {
        let run = |steal: bool| {
            let mut machine = MachineConfig::scaleout();
            machine.ctx_switch = CtxSwitchModel::Custom(0);
            SystemSim::new(SimConfig {
                machine,
                workload: Workload::Synthetic(synth),
                rps_per_server: rps,
                servers: scale.servers,
                horizon_us: scale.horizon_us,
                warmup_us: scale.warmup_us,
                seed: scale.seed,
                queues_override: Some(queues),
                work_stealing: steal,
                hold_core_while_blocked: true,
                // Queue structure is the variable under study; ICN
                // contention is studied separately (Figure 7).
                icn_contention: false,
                ..SimConfig::default()
            })
            .run()
        };
        let plain = run(false);
        let steal = run(true);
        Fig3Row {
            queues,
            avg_us: plain.latency.mean,
            tail_us: plain.latency.p99,
            avg_steal_us: steal.latency.mean,
            tail_steal_us: steal.latency.p99,
        }
    })
}

// ---------------------------------------------------------------------
// Figure 6: context-switch overhead sweep
// ---------------------------------------------------------------------

/// One Figure 6 point: normalized tail latency at one CS cost and load.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Row {
    /// Context-switch overhead in cycles.
    pub cs_cycles: u64,
    /// Load in RPS.
    pub rps: f64,
    /// Tail latency normalized to the zero-overhead run at the same load.
    pub norm_tail: f64,
}

/// The paper's CS sweep values.
pub const FIG6_CS: [u64; 10] = [0, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Runs the Figure 6 sweep on ScaleOut for the given loads, all points
/// in parallel.
///
/// Each load derives its own seed; all CS values at one load share it,
/// so the normalization to the zero-overhead run is paired (and the
/// `cs = 0` point is exactly 1.0).
pub fn fig6_rows(scale: Scale, loads: &[f64]) -> Vec<Fig6Row> {
    let rows: Vec<SimConfig> = loads
        .iter()
        .enumerate()
        .map(|(li, &rps)| SimConfig {
            // Context-switch cost is the variable under study; ICN
            // contention is studied separately (Figure 7).
            icn_contention: false,
            ..scale.row(li).config(Workload::social_mix(), rps)
        })
        .collect();
    let machines: Vec<MachineConfig> = FIG6_CS
        .iter()
        .map(|&cs| {
            let mut machine = MachineConfig::scaleout();
            machine.ctx_switch = CtxSwitchModel::Custom(cs);
            machine
        })
        .collect();
    // FIG6_CS[0] is 0, so each load's row leads with its baseline.
    loads
        .iter()
        .zip(sweep(&rows, &machines))
        .flat_map(|(&rps, reports)| {
            let base = reports[0].latency.p99;
            FIG6_CS.iter().zip(reports).map(move |(&cs, r)| Fig6Row {
                cs_cycles: cs,
                rps,
                norm_tail: r.latency.p99 / base,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7: ICN contention impact
// ---------------------------------------------------------------------

/// One Figure 7 bar: tail latency with contention normalized to the same
/// system without ICN contention.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Row {
    /// Load in RPS.
    pub rps: f64,
    /// Mesh tail, normalized to contention-free.
    pub mesh_norm_tail: f64,
    /// Fat-tree tail, normalized to contention-free.
    pub fat_tree_norm_tail: f64,
}

/// The four runs per Figure 7 load: ICN kind × contention on/off.
const FIG7_VARIANTS: [(IcnKind, bool); 4] = [
    (IcnKind::Mesh, true),
    (IcnKind::Mesh, false),
    (IcnKind::FatTree, true),
    (IcnKind::FatTree, false),
];

/// Runs the Figure 7 sweep on ScaleOut for the given loads, all points
/// in parallel.
///
/// Each load derives its own seed; its four runs (mesh and fat tree,
/// each with contention on and off) share it, so both normalizations
/// are paired.
pub fn fig7_rows(scale: Scale, loads: &[f64]) -> Vec<Fig7Row> {
    let points: Vec<(usize, IcnKind, bool)> = (0..loads.len())
        .flat_map(|li| FIG7_VARIANTS.iter().map(move |&(icn, c)| (li, icn, c)))
        .collect();
    let tails = parallel::map(points, |_, (li, icn, contention)| {
        let mut machine = MachineConfig::scaleout();
        // ICN contention is the variable under study; scheduling and
        // context-switch overheads are studied separately.
        machine.ctx_switch = CtxSwitchModel::Custom(0);
        machine.icn = icn;
        SystemSim::new(SimConfig {
            machine,
            workload: Workload::social_mix(),
            rps_per_server: loads[li],
            servers: scale.servers,
            horizon_us: scale.horizon_us,
            warmup_us: scale.warmup_us,
            seed: rng::derive_seed(scale.seed, li as u64),
            icn_contention: contention,
            ..SimConfig::default()
        })
        .run()
        .latency
        .p99
    });
    loads
        .iter()
        .zip(tails.chunks_exact(FIG7_VARIANTS.len()))
        .map(|(&rps, t)| Fig7Row {
            rps,
            mesh_norm_tail: t[0] / t[1],
            fat_tree_norm_tail: t[2] / t[3],
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 8: footprint sharing
// ---------------------------------------------------------------------

/// The two Figure 8 bar groups.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Rows {
    /// Handler vs another handler of the same instance.
    pub handler_handler: SharingReport,
    /// Handler vs the instance's initialization process.
    pub handler_init: SharingReport,
}

/// Measures footprint sharing over `pairs` sampled handler pairs.
pub fn fig8_rows(seed: u64, pairs: usize) -> Fig8Rows {
    let mut generator = FootprintGenerator::new(FootprintProfile::deathstar_default());
    let mut r = rng::stream(seed, "fig8");
    let init = generator.init();
    let mut hh = Vec::new();
    let mut hi = Vec::new();
    for _ in 0..pairs {
        let a = generator.handler(&mut r);
        let b = generator.handler(&mut r);
        hh.push(FootprintGenerator::sharing(&a, &b));
        hi.push(FootprintGenerator::sharing(&a, &init));
    }
    let mean = |v: &[SharingReport]| SharingReport {
        d_page: v.iter().map(|s| s.d_page).sum::<f64>() / v.len() as f64, // um-tidy: allow(float-accumulation) -- serial mean over a fixed-order sample vector
        d_line: v.iter().map(|s| s.d_line).sum::<f64>() / v.len() as f64, // um-tidy: allow(float-accumulation) -- serial mean over a fixed-order sample vector
        i_page: v.iter().map(|s| s.i_page).sum::<f64>() / v.len() as f64, // um-tidy: allow(float-accumulation) -- serial mean over a fixed-order sample vector
        i_line: v.iter().map(|s| s.i_line).sum::<f64>() / v.len() as f64, // um-tidy: allow(float-accumulation) -- serial mean over a fixed-order sample vector
    };
    Fig8Rows {
        handler_handler: mean(&hh),
        handler_init: mean(&hi),
    }
}

// ---------------------------------------------------------------------
// Figure 9: TLB and cache hit rates
// ---------------------------------------------------------------------

/// Figure 9's eight bars.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Rows {
    /// Data-side L1 TLB hit rate.
    pub d_l1_tlb: f64,
    /// Data-side L1 cache hit rate.
    pub d_l1_cache: f64,
    /// Data-side L2 TLB hit rate.
    pub d_l2_tlb: f64,
    /// Data-side L2 cache hit rate.
    pub d_l2_cache: f64,
    /// Instruction-side L1 TLB hit rate.
    pub i_l1_tlb: f64,
    /// Instruction-side L1 cache hit rate.
    pub i_l1_cache: f64,
    /// Instruction-side L2 TLB hit rate.
    pub i_l2_tlb: f64,
    /// Instruction-side L2 cache hit rate (shared L2; instr fraction).
    pub i_l2_cache: f64,
}

/// Streams a microservice handler trace through the Table 2 hierarchy and
/// reports hit rates. The L2 entries use the two-level ServerClass
/// structures (the only hierarchy with L2 TLBs).
pub fn fig9_rows(seed: u64, refs: usize) -> Fig9Rows {
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::server_class());
    let mut generator = TraceGenerator::new(TraceProfile::microservice(), seed);
    // Warm up with one pass, measure on the second: steady-state handlers.
    let mut now = Cycles::ZERO;
    for r in generator.generate(refs) {
        let lat = hierarchy.access(r.addr, access_kind(r), now);
        now += lat;
    }
    hierarchy.reset_stats();
    // Track instruction vs data L2 hits separately with shadow counters.
    let mut i_l2_acc = 0u64;
    let mut i_l2_hits = 0u64;
    let mut d_l2_acc = 0u64;
    let mut d_l2_hits = 0u64;
    for r in generator.generate(refs) {
        let before = hierarchy.stats();
        let lat = hierarchy.access(r.addr, access_kind(r), now);
        now += lat;
        let after = hierarchy.stats();
        let l2_new = after.l2.accesses - before.l2.accesses;
        let l2_new_hits = after.l2.hits - before.l2.hits;
        if l2_new > 0 {
            if r.instr {
                i_l2_acc += l2_new;
                i_l2_hits += l2_new_hits;
            } else {
                d_l2_acc += l2_new;
                d_l2_hits += l2_new_hits;
            }
        }
    }
    let s = hierarchy.stats();
    let rate = |hits: u64, acc: u64| {
        if acc == 0 {
            1.0
        } else {
            hits as f64 / acc as f64
        }
    };
    Fig9Rows {
        d_l1_tlb: s.dtlb.hit_rate(),
        d_l1_cache: s.l1d.hit_rate(),
        d_l2_tlb: s.tlb2.hit_rate(),
        d_l2_cache: rate(d_l2_hits, d_l2_acc),
        i_l1_tlb: s.itlb.hit_rate(),
        i_l1_cache: s.l1i.hit_rate(),
        i_l2_tlb: s.tlb2.hit_rate(),
        i_l2_cache: rate(i_l2_hits, i_l2_acc),
    }
}
