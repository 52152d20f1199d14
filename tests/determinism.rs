//! Reproducibility guarantees: identical seeds produce identical results
//! across every stochastic component, and different seeds genuinely
//! differ.

use um_arch::MachineConfig;
use um_workload::apps::SocialNetwork;
use umanycore::{RunReport, SimConfig, SystemSim, Workload};

fn run(seed: u64, machine: MachineConfig) -> RunReport {
    SystemSim::new(SimConfig {
        machine,
        workload: Workload::social_mix(),
        rps_per_server: 8_000.0,
        horizon_us: 25_000.0,
        warmup_us: 2_500.0,
        seed,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn same_seed_bit_identical_reports() {
    for machine in [
        MachineConfig::umanycore(),
        MachineConfig::scaleout(),
        MachineConfig::server_class_iso_power(),
    ] {
        let a = run(1234, machine.clone());
        let b = run(1234, machine);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.recorded, b.recorded);
        assert_eq!(a.ctx_switches, b.ctx_switches);
        assert_eq!(a.icn_messages, b.icn_messages);
        assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert_eq!(a.queue_wait_us.to_bits(), b.queue_wait_us.to_bits());
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(1, MachineConfig::umanycore());
    let b = run(2, MachineConfig::umanycore());
    assert_ne!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
}

#[test]
fn per_app_workloads_are_deterministic() {
    let mk = || {
        SystemSim::new(SimConfig {
            machine: MachineConfig::umanycore(),
            workload: Workload::social_app(SocialNetwork::CPOST),
            rps_per_server: 4_000.0,
            horizon_us: 25_000.0,
            warmup_us: 2_500.0,
            seed: 77,
            ..SimConfig::default()
        })
        .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
    assert_eq!(a.completed, b.completed);
}

#[test]
fn experiment_drivers_are_deterministic() {
    use umanycore::experiments::{motivation, Scale};
    let bits = || -> Vec<(u64, u64)> {
        motivation::fig7_rows(Scale::quick(), &[10_000.0])
            .iter()
            .map(|r| (r.mesh_norm_tail.to_bits(), r.fat_tree_norm_tail.to_bits()))
            .collect()
    };
    assert_eq!(bits(), bits());
}
