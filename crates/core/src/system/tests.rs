//! Unit tests of the system simulator.

use super::*;
use crate::report::RunReport;
use crate::workload::Workload;
use um_arch::config::MachineConfig;
use um_sched::{HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::{FaultPlan, FaultWindow};
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
fn drained_runs_strand_nothing() {
    for machine in [
        MachineConfig::server_class_iso_power(),
        MachineConfig::scaleout(),
        MachineConfig::umanycore(),
    ] {
        let r = quick(machine, 5_000.0, 3);
        assert!(r.completed > 50, "completed {}", r.completed);
        assert_eq!(r.stranded, 0, "{} requests stranded", r.stranded);
    }
    let rack = crate::ClusterSim::new(crate::ClusterConfig {
        node: SimConfig {
            machine: MachineConfig::umanycore_shaped(um_arch::config::TopologyShape::new(2, 2, 4)),
            ..SimConfig::default()
        },
        nodes: 3,
        rps_per_node: 4_000.0,
        horizon_us: 8_000.0,
        warmup_us: 800.0,
        seed: 7,
        ..crate::ClusterConfig::default()
    })
    .run();
    assert!(rack.completed > 50, "completed {}", rack.completed);
    assert_eq!(rack.stranded, 0, "{} requests stranded", rack.stranded);
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
