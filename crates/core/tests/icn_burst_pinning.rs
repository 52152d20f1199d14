//! Pins what the ICN's memory traffic makes of a run, bit for bit.
//!
//! Every dispatched segment sends its memory traffic as
//! `params::MEM_TRAFFIC_CHUNKS` equal messages over the package ICN. This
//! suite runs one quick-scale SocialNetwork point on each machine whose
//! traffic takes a different path through the network layer:
//!
//! - ServerClass-40: global coherence over the XY mesh (fixed routes);
//! - ScaleOut: global coherence over the fat tree (fixed routes);
//! - uManycore: village coherence with the memory pool, so every chunk is
//!   a self-send through the local hub;
//! - uManycore without the memory pool: chunks go to a random cluster
//!   across the leaf-spine, whose least-loaded router picks each chunk's
//!   path from the occupancy the previous chunk left behind.
//!
//! It asserts the run's ICN message count, the bits of its mean ICN
//! queueing and the bits of its latency p50 and p99. How the network
//! moves the chunks may change; what any run observes must not.

use um_arch::config::MachineConfig;
use umanycore::experiments::Scale;
use umanycore::{SimConfig, SystemSim, Workload};

/// Requests per second per server: enough that the mesh and the fat tree
/// queue the chunks behind each other.
const RPS: f64 = 10_000.0;

/// What one machine's run must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    icn_messages: u64,
    icn_mean_queue_bits: u64,
    p50_bits: u64,
    p99_bits: u64,
}

fn run(machine: MachineConfig) -> Pin {
    let report = SystemSim::new(SimConfig {
        machine,
        ..Scale::quick().config(Workload::social_mix(), RPS)
    })
    .run();
    Pin {
        icn_messages: report.icn_messages,
        icn_mean_queue_bits: report.icn_mean_queue_cycles.to_bits(),
        p50_bits: report.latency.p50.to_bits(),
        p99_bits: report.latency.p99.to_bits(),
    }
}

#[test]
fn server_class_mesh() {
    assert_eq!(
        run(MachineConfig::server_class_iso_power()),
        Pin {
            icn_messages: 22744,
            icn_mean_queue_bits: 0x40d09da021db7102,
            p50_bits: 0x4091fe85cd7b900b,
            p99_bits: 0x40b9681f92c5f92c,
        }
    );
}

#[test]
fn scaleout_fat_tree() {
    assert_eq!(
        run(MachineConfig::scaleout()),
        Pin {
            icn_messages: 21570,
            icn_mean_queue_bits: 0x4100894858f70d20,
            p50_bits: 0x40a0f29e353f7cee,
            p99_bits: 0x40c408389374bc6a,
        }
    );
}

#[test]
fn umanycore_local_pool() {
    assert_eq!(
        run(MachineConfig::umanycore()),
        Pin {
            icn_messages: 22616,
            icn_mean_queue_bits: 0x3f627929befb3358,
            p50_bits: 0x407cc6ac083126e9,
            p99_bits: 0x409c499eb851eb85,
        }
    );
}

#[test]
fn umanycore_without_pool_routes_each_chunk() {
    let machine = MachineConfig {
        memory_pool: false,
        ..MachineConfig::umanycore()
    };
    assert_eq!(
        run(machine),
        Pin {
            icn_messages: 21430,
            icn_mean_queue_bits: 0x4094db2ea91b11c0,
            p50_bits: 0x407bfa189374bc6a,
            p99_bits: 0x40a0567ba5e353f8,
        }
    );
}
