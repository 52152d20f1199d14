//! The hardware Request Queue's capacity is only a bound.
//!
//! A run in which no village's RQ ever fills cannot depend on how many
//! entries the RQ could have held: the same requests claim the same
//! entries in the same order at 64 entries as at 512. This pins that for
//! the rack benchmark's package shape (`[8, 2, 4]`, SocialMix, no
//! autoscaling), alone and behind an 8-node JSQ(2) rack. It is why a deep
//! RQ costs a `Dequeue` nothing beyond the entries it holds.

use um_arch::{MachineConfig, TopologyShape};
use umanycore::cluster::{ClusterConfig, ClusterSim, RoutingPolicy};
use umanycore::experiments::Scale;
use umanycore::{SimConfig, Workload};

/// Offered load per package: half the rack benchmark's per-node rate.
/// At the full rate a 64-entry RQ overflows (so capacity stops being
/// only a bound), and it already does at 40k.
const RPS_PER_NODE: f64 = 30_000.0;

/// The rack benchmark's package at `rq_capacity` entries per village,
/// on the quick test horizon.
fn package(rq_capacity: usize) -> SimConfig {
    let mut cfg = Scale::quick().config(Workload::social_mix(), RPS_PER_NODE);
    cfg.machine = MachineConfig {
        rq_capacity,
        ..MachineConfig::umanycore_shaped(TopologyShape::new(8, 2, 4))
    };
    cfg.autoscale = false;
    cfg
}

/// The report fields the capacity must not move, bit-exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    p50_bits: u64,
    p99_bits: u64,
    mean_bits: u64,
    completed: u64,
    ctx_switches: u64,
}

impl Fingerprint {
    fn new(latency: &um_stats::Summary, completed: u64, ctx_switches: u64) -> Self {
        Self {
            p50_bits: latency.p50.to_bits(),
            p99_bits: latency.p99.to_bits(),
            mean_bits: latency.mean.to_bits(),
            completed,
            ctx_switches,
        }
    }
}

/// One package run alone: its fingerprint and its RQ overflows.
fn lone(rq_capacity: usize) -> (Fingerprint, u64) {
    let r = umanycore::SystemSim::new(package(rq_capacity)).run();
    (
        Fingerprint::new(&r.latency, r.completed, r.ctx_switches),
        r.rq_overflows,
    )
}

/// An 8-node rack of the package: its fingerprint and the RQ overflows
/// summed over the nodes.
fn rack(rq_capacity: usize) -> (Fingerprint, u64) {
    let node = package(rq_capacity);
    let r = ClusterSim::new(ClusterConfig {
        nodes: 8,
        rps_per_node: RPS_PER_NODE,
        horizon_us: node.horizon_us,
        warmup_us: node.warmup_us,
        seed: node.seed,
        routing: RoutingPolicy::JsqD { d: 2 },
        node,
        ..ClusterConfig::default()
    })
    .run();
    let ctx_switches = r.node_reports.iter().map(|n| n.ctx_switches).sum();
    let overflows = r.node_reports.iter().map(|n| n.rq_overflows).sum();
    (
        Fingerprint::new(&r.latency, r.completed, ctx_switches),
        overflows,
    )
}

/// Runs `run` at 64 and 512 entries and checks the precondition (no RQ
/// ever filled) before the claim (identical runs).
fn assert_capacity_invisible(what: &str, run: fn(usize) -> (Fingerprint, u64)) {
    let (shallow, shallow_overflows) = run(64);
    let (deep, deep_overflows) = run(512);
    assert_eq!(
        (shallow_overflows, deep_overflows),
        (0, 0),
        "{what}: an RQ filled, so capacity is more than a bound here"
    );
    assert!(shallow.completed > 0, "{what}: nothing completed");
    assert_eq!(shallow, deep, "{what}: RQ capacity changed the run");
}

#[test]
fn lone_package_ignores_rq_capacity() {
    assert_capacity_invisible("lone package", lone);
}

#[test]
fn rack_ignores_rq_capacity() {
    assert_capacity_invisible("8-node rack", rack);
}
