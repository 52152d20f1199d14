//! Property-based tests over the full-system simulator: invariants that
//! must hold for *any* configuration, not just the paper's points.

use proptest::prelude::*;
use um_arch::MachineConfig;
use umanycore::{SimConfig, SystemSim, Workload};

fn machine_strategy() -> impl Strategy<Value = MachineConfig> {
    prop_oneof![
        Just(MachineConfig::umanycore()),
        Just(MachineConfig::scaleout()),
        Just(MachineConfig::server_class_iso_power()),
        Just(MachineConfig::umanycore_heterogeneous(16)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full (small) simulation
        ..ProptestConfig::default()
    })]

    /// Every run conserves requests and produces sane statistics.
    #[test]
    fn run_invariants(
        machine in machine_strategy(),
        rps in 1_000.0f64..20_000.0,
        seed in 0u64..1_000,
        servers in 1usize..3,
    ) {
        let report = SystemSim::new(SimConfig {
            machine,
            workload: Workload::social_mix(),
            rps_per_server: rps,
            servers,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed,
            ..SimConfig::default()
        })
        .run();

        // Conservation: what we record is a subset of what completed
        // (completed counts child invocations of the call trees too).
        prop_assert!(report.recorded <= report.completed);
        let expected_roots = rps * 8_000.0 / 1e6 * servers as f64;
        // Recorded external requests track the Poisson arrival count.
        prop_assert!(
            (report.recorded as f64) < 3.0 * expected_roots + 50.0,
            "recorded {} vs expected roots {expected_roots}",
            report.recorded
        );
        // Trees average ~5 invocations and never exceed a few dozen.
        prop_assert!(
            (report.completed as f64) < 40.0 * expected_roots + 200.0,
            "completed {} vs expected roots {expected_roots}",
            report.completed
        );

        // Statistics sanity.
        prop_assert!((0.0..=1.0).contains(&report.utilization));
        prop_assert!(report.latency.p50 <= report.latency.p99);
        prop_assert!(report.latency.p99 <= report.latency.max);
        if report.recorded > 0 {
            // Nothing is faster than the client RTT floor.
            prop_assert!(
                report.latency_samples.min() >= 1.0,
                "latency below the 1us client RTT: {}",
                report.latency_samples.min()
            );
        }
        prop_assert!(report.queue_wait_us >= 0.0 && report.queue_wait_us.is_finite());
    }

    /// Queue-count overrides never lose requests (with or without
    /// stealing), across the whole sweep range.
    #[test]
    fn queue_overrides_conserve(
        queues_pow in 0u32..10,
        steal in proptest::bool::ANY,
        seed in 0u64..100,
    ) {
        let queues = 1usize << queues_pow; // 1..=512
        let report = SystemSim::new(SimConfig {
            machine: MachineConfig::scaleout(),
            workload: Workload::social_mix(),
            rps_per_server: 5_000.0,
            horizon_us: 6_000.0,
            warmup_us: 600.0,
            seed,
            queues_override: Some(queues),
            work_stealing: steal,
            ..SimConfig::default()
        })
        .run();
        prop_assert!(report.completed > 0);
        prop_assert!((0.0..=1.0).contains(&report.utilization));
    }

    /// The synthetic workloads obey the same invariants under every
    /// service-time family.
    #[test]
    fn synthetic_families(
        family in 0usize..3,
        mean in 20.0f64..500.0,
        seed in 0u64..100,
    ) {
        use um_workload::synthetic::SyntheticWorkload;
        use um_workload::ServiceTimeDist;
        let dist = match family {
            0 => ServiceTimeDist::exponential(mean),
            1 => ServiceTimeDist::lognormal_with_mean(mean, 2.0),
            _ => ServiceTimeDist::bimodal(mean / 1.9, mean * 10.0 / 1.9, 0.9),
        };
        let report = SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::Synthetic(SyntheticWorkload::new(dist, 2, 6)),
            rps_per_server: 10_000.0,
            horizon_us: 8_000.0,
            warmup_us: 800.0,
            seed,
            ..SimConfig::default()
        })
        .run();
        prop_assert!(report.completed > 0);
        prop_assert!(report.latency.mean > mean, "e2e must exceed service time");
    }
}
