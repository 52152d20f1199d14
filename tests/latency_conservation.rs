//! The latency-provenance headline invariant: **every request's breakdown
//! components sum to its end-to-end latency, to the cycle**, on every
//! machine, topology, arrival process and scheduling policy — and the
//! measured breakdowns are bit-identical at any worker-pool size.
//!
//! These are release-mode-safe checks: the simulator's debug assertions
//! catch a conservation violation at the offending request, while the
//! [`ConservationStats`] totals asserted here catch it in any build.

use proptest::prelude::*;
use um_arch::config::IcnKind;
use um_arch::MachineConfig;
use um_sched::{HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::{FaultPlan, FaultWindow};
use um_sim::rng;
use um_sim::Cycles;
use umanycore::experiments::parallel;
use umanycore::{ArrivalProcess, RunReport, SimConfig, SystemSim, Workload};

fn machine(idx: usize) -> MachineConfig {
    match idx {
        0 => MachineConfig::umanycore(),
        1 => MachineConfig::scaleout(),
        _ => MachineConfig::server_class_iso_power(),
    }
}

fn assert_conserved(r: &RunReport) {
    assert!(r.completed > 0, "a run this long must finish requests");
    assert!(
        r.conservation.checked >= r.completed,
        "roots and RPC children are all checked"
    );
    assert_eq!(
        r.conservation.max_error_cycles, 0,
        "some request's breakdown missed cycles: {:?}",
        r.conservation
    );
    assert_eq!(
        r.conservation.breakdown_cycles, r.conservation.end_to_end_cycles,
        "aggregate attribution drifted: {:?}",
        r.conservation
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Conservation holds bit-exactly across the whole configuration
    /// cross-product the simulator supports.
    #[test]
    fn breakdown_sums_to_latency_on_any_config(
        machine_idx in 0usize..3,
        icn_idx in 0usize..3,
        rps in 2_000.0f64..12_000.0,
        seed in 0u64..1_000,
        hold_core in proptest::bool::ANY,
        work_stealing in proptest::bool::ANY,
        bursty in proptest::bool::ANY,
        trace in proptest::bool::ANY,
    ) {
        let mut machine = machine(machine_idx);
        let icn = [IcnKind::Mesh, IcnKind::FatTree, IcnKind::LeafSpine][icn_idx];
        // A fat tree needs a power-of-two cluster count; keep the
        // machine's own ICN where the override cannot apply.
        if icn != IcnKind::FatTree || machine.shape.clusters.is_power_of_two() {
            machine.icn = icn;
        }
        let r = SystemSim::new(SimConfig {
            machine,
            workload: Workload::social_mix(),
            rps_per_server: rps,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed,
            hold_core_while_blocked: hold_core,
            work_stealing,
            arrivals: if bursty {
                ArrivalProcess::Bursty
            } else {
                ArrivalProcess::Poisson
            },
            trace,
            ..SimConfig::default()
        })
        .run();
        assert_conserved(&r);
        prop_assert_eq!(r.breakdown.is_some(), trace);
        if hold_core {
            // Run-to-completion: a blocked request keeps its core, so
            // nothing is ever switched out.
            prop_assert_eq!(r.ctx_switches, 0);
        }
    }

    /// Conservation survives the resilience machinery: hedged attempts,
    /// timed-out retries, dropped messages, and abandoned operations all
    /// still charge every cycle of a request's lifetime to exactly one
    /// component. A cancelled hedge in particular must not double-charge
    /// the blocked span.
    #[test]
    fn conservation_holds_for_hedged_retried_and_abandoned_requests(
        drop_p in 0.0f64..0.08,
        hedge in proptest::bool::ANY,
        retry in proptest::bool::ANY,
        steer in proptest::bool::ANY,
        slow in 0u32..2,
        seed in 0u64..1_000,
    ) {
        let freq = MachineConfig::umanycore().core.frequency;
        let horizon = Cycles::from_micros(8_000.0, freq);
        let mut plan = FaultPlan::builder(seed ^ 0x5eed)
            .message_drops(drop_p);
        if slow > 0 {
            plan = plan.fail_slow_every_village(
                1,
                128,
                slow,
                FaultWindow::new(Cycles::ZERO, horizon, 5.0),
            );
        }
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::social_mix(),
            rps_per_server: 6_000.0,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed,
            fault_plan: plan.build(),
            mitigation: MitigationConfig {
                hedge: hedge.then(|| HedgeConfig::after_quantile(0.9, 300.0)),
                retry: retry.then(|| RetryConfig::with_timeout_us(1_200.0)),
                steer,
            },
            trace: true,
            ..SimConfig::default()
        })
        .run();
        assert_conserved(&r);
        // Mitigation accounting is internally consistent no matter the mix.
        prop_assert!(r.faults.rpc_attempts >= r.faults.rpc_ops);
        prop_assert_eq!(
            r.faults.rpc_attempts - r.faults.rpc_ops,
            r.faults.hedges + r.faults.retries,
            "extra attempts are exactly the hedges plus the retries"
        );
    }
}

/// The conservation accounting and the measured per-component digests are
/// bit-identical whether a sweep runs serially or on a worker pool — the
/// provenance layer inherits the runner's determinism contract.
#[test]
fn breakdowns_identical_across_worker_pool_sizes() {
    let configs: Vec<SimConfig> = (0..6)
        .map(|i| SimConfig {
            machine: machine(i % 3),
            workload: Workload::social_mix(),
            rps_per_server: 9_000.0,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed: rng::derive_seed(42, i as u64),
            trace: true,
            ..SimConfig::default()
        })
        .collect();
    let serial = parallel::map_with_threads(1, configs.clone(), |_, cfg| SystemSim::new(cfg).run());
    let pooled = parallel::map_with_threads(4, configs, |_, cfg| SystemSim::new(cfg).run());
    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert_conserved(s);
        assert_eq!(s.conservation, p.conservation, "point {i}");
        let sb = s.breakdown.as_ref().expect("traced run");
        let pb = p.breakdown.as_ref().expect("traced run");
        for (c, ss) in sb.components() {
            let ps = pb.component(c);
            assert_eq!(ss.count, ps.count, "point {i} {c}");
            assert_eq!(ss.mean.to_bits(), ps.mean.to_bits(), "point {i} {c}");
            assert_eq!(ss.p50.to_bits(), ps.p50.to_bits(), "point {i} {c}");
            assert_eq!(ss.p99.to_bits(), ps.p99.to_bits(), "point {i} {c}");
        }
    }
}

/// Queue overrides (the Figure 3 sweep) reshape where time is spent but
/// cannot break conservation — the single-queue extreme serializes every
/// dispatch through one lock, the longest-odds case for the accounting.
#[test]
fn conservation_survives_queue_layout_extremes() {
    for (queues, stealing) in [(1usize, false), (1024, true)] {
        let r = SystemSim::new(SimConfig {
            machine: MachineConfig::scaleout(),
            workload: Workload::social_mix(),
            rps_per_server: 8_000.0,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed: 5,
            queues_override: Some(queues),
            work_stealing: stealing,
            trace: true,
            ..SimConfig::default()
        })
        .run();
        assert_conserved(&r);
    }
}

/// A tiny hardware RQ forces NIC-buffer overflows; buffered requests'
/// waiting time still lands in `queue-wait` and conservation holds.
#[test]
fn conservation_survives_rq_overflow() {
    let mut machine = MachineConfig::umanycore();
    machine.rq_capacity = 2;
    let r = SystemSim::new(SimConfig {
        machine,
        workload: Workload::social_mix(),
        rps_per_server: 150_000.0,
        horizon_us: 10_000.0,
        warmup_us: 1_000.0,
        seed: 6,
        arrivals: ArrivalProcess::Bursty,
        trace: true,
        ..SimConfig::default()
    })
    .run();
    assert!(r.rq_overflows > 0, "capacity 2 must overflow at this load");
    assert_conserved(&r);
}

/// Heavy unmitigated message loss abandons operations outright; the
/// abandoned requests' whole blocked spans land in `resilience` and the
/// books still balance to the cycle.
#[test]
fn conservation_survives_abandoned_requests() {
    let r = SystemSim::new(SimConfig {
        machine: MachineConfig::umanycore(),
        workload: Workload::social_mix(),
        rps_per_server: 6_000.0,
        horizon_us: 20_000.0,
        warmup_us: 2_000.0,
        seed: 8,
        fault_plan: FaultPlan::builder(8).message_drops(0.05).build(),
        trace: true,
        ..SimConfig::default()
    })
    .run();
    assert!(r.faults.gave_up_ops > 0, "5% loss must abandon operations");
    assert!(
        r.faults.gave_up_requests > 0,
        "abandoned operations must surface at roots"
    );
    assert_conserved(&r);
}
