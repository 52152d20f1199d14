//! The parallel sweep runner's contract: results are bit-identical to
//! the serial path at any worker-pool size, and per-point seed
//! derivation never collides within a sweep.

use proptest::prelude::*;
use um_arch::MachineConfig;
use um_sim::rng;
use um_workload::apps::SocialNetwork;
use umanycore::experiments::parallel;
use umanycore::{RunReport, SimConfig, SystemSim, Workload};

/// A fig14-style sweep: every SocialNetwork app on every machine, one
/// simulation per (app, machine) point, each point seeded by
/// [`rng::derive_seed`] from the master seed exactly as the drivers do.
fn fig14_style_configs() -> Vec<SimConfig> {
    let machines = [
        MachineConfig::server_class_iso_power(),
        MachineConfig::scaleout(),
        MachineConfig::umanycore(),
    ];
    (0..SocialNetwork::ALL.len())
        .flat_map(|a| {
            machines.clone().map(move |machine| SimConfig {
                machine,
                workload: Workload::social_app(SocialNetwork::ALL[a]),
                rps_per_server: 10_000.0,
                horizon_us: 10_000.0,
                warmup_us: 1_000.0,
                seed: rng::derive_seed(42, a as u64),
                ..SimConfig::default()
            })
        })
        .collect()
}

fn run_with_threads(threads: usize) -> Vec<RunReport> {
    parallel::map_with_threads(threads, fig14_style_configs(), |_, cfg| {
        SystemSim::new(cfg).run()
    })
}

/// `UM_THREADS=4` (and any other pool size) must reproduce the serial
/// sweep bit for bit — same completion counts, same percentile bits.
#[test]
fn four_workers_bit_identical_to_serial() {
    let serial = run_with_threads(1);
    assert_eq!(serial.len(), SocialNetwork::ALL.len() * 3);
    for threads in [4, 7] {
        let parallel = run_with_threads(threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.completed, p.completed, "point {i}");
            assert_eq!(s.recorded, p.recorded, "point {i}");
            assert_eq!(s.ctx_switches, p.ctx_switches, "point {i}");
            assert_eq!(s.icn_messages, p.icn_messages, "point {i}");
            assert_eq!(
                s.latency.mean.to_bits(),
                p.latency.mean.to_bits(),
                "point {i}"
            );
            assert_eq!(
                s.latency.p99.to_bits(),
                p.latency.p99.to_bits(),
                "point {i}"
            );
            assert_eq!(
                s.queue_wait_us.to_bits(),
                p.queue_wait_us.to_bits(),
                "point {i}"
            );
            assert_eq!(
                s.utilization.to_bits(),
                p.utilization.to_bits(),
                "point {i}"
            );
        }
    }
}

/// Distinct sweep points must get distinct derived seeds, or two rows
/// of a figure would silently share their randomness.
#[test]
fn derived_seeds_injective_over_sweep_indices() {
    let master = 42;
    let seeds: Vec<u64> = (0..4096).map(|i| rng::derive_seed(master, i)).collect();
    let mut deduped = seeds.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        seeds.len(),
        "collision within one master seed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Injectivity of the per-point seed derivation: for any master
    /// seed, two different point indices never map to the same seed,
    /// and the derived seed never degenerates back to the master.
    #[test]
    fn derive_seed_injective(master in 0u64..u64::MAX, a in 0u64..1 << 20, b in 0u64..1 << 20) {
        prop_assume!(a != b);
        prop_assert_ne!(rng::derive_seed(master, a), rng::derive_seed(master, b));
        prop_assert_ne!(rng::derive_seed(master, a), master);
    }

    /// Derivation is a pure function of `(master, index)` — repeated
    /// calls agree, so worker scheduling can never perturb a seed.
    #[test]
    fn derive_seed_stable(master in 0u64..u64::MAX, i in 0u64..u64::MAX) {
        prop_assert_eq!(rng::derive_seed(master, i), rng::derive_seed(master, i));
    }
}
