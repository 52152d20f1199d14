//! Isolated layer costs. Each function drives one crate's public API
//! alone on a replay sized like the workload and returns host nanoseconds
//! per operation. A layer's share of a run is that cost times the
//! operations the run made, over the run's wall time — an estimate from
//! outside the program, so the residual is reported, never hidden.

use std::hint::black_box;
use std::time::Instant;

use um_arch::config::IcnKind;
use um_arch::MachineConfig;
use um_bench::engine;
use um_net::{ExternalNetwork, FatTree, LeafSpine, Mesh2D, Network, NetworkConfig, Topology};
use um_sched::{DequeuePolicy, RequestQueue};
use um_sim::{rng, Cycles, EventQueue, Frequency};
use um_workload::ServiceTimeDist;
use umanycore::Workload;

/// Replays longer than this add time, not precision.
const MAX_OPS: u64 = 200_000;

/// Bytes per replayed ICN message: the simulator's request size.
const ICN_BYTES: u64 = umanycore::params::REQUEST_BYTES;

fn ns_per_op(ops: u64, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// um-sim's event queue: [`engine::replay`] of a trace with the
/// workload's arrival backlog (`servers` Poisson streams at `rps` over
/// `horizon_us`), each arrival followed by a short event chain.
pub fn queue_ns_per_event(rps: f64, horizon_us: f64, servers: usize, seed: u64) -> f64 {
    let trace = engine::Workload::fig7(rps, horizon_us, servers, seed);
    let mut queue = EventQueue::with_capacity(trace.arrivals.len() + 64);
    let start = Instant::now();
    let replay = black_box(engine::replay(&mut queue, &trace));
    ns_per_op(replay.events.max(1), start)
}

/// um-net's on-package network: `Network::send_traced` on `machine`'s
/// topology, `msgs` messages spread evenly over `horizon` so links see the
/// run's offered load. A `local` fraction of them stay inside their
/// cluster (memory traffic a per-cluster pool keeps local); the rest go
/// between random clusters.
pub fn icn_ns_per_msg(
    machine: &MachineConfig,
    msgs: u64,
    local: f64,
    horizon: Cycles,
    seed: u64,
) -> f64 {
    let clusters = machine.shape.clusters;
    let config = NetworkConfig {
        seed,
        ..NetworkConfig::on_package()
    };
    // The topologies SystemSim builds for each ICN kind.
    match machine.icn {
        IcnKind::Mesh => send_replay(
            Network::new(Mesh2D::near_square(clusters), config),
            msgs,
            local,
            horizon,
            seed,
        ),
        IcnKind::FatTree => send_replay(
            Network::new(FatTree::new(clusters), config),
            msgs,
            local,
            horizon,
            seed,
        ),
        IcnKind::LeafSpine => {
            let pods = if clusters.is_multiple_of(8) {
                clusters / 8
            } else {
                1
            };
            send_replay(
                Network::new(LeafSpine::new(pods, clusters / pods, 4, 8), config),
                msgs,
                local,
                horizon,
                seed,
            )
        }
    }
}

fn send_replay<T: Topology>(
    mut net: Network<T>,
    msgs: u64,
    local: f64,
    horizon: Cycles,
    seed: u64,
) -> f64 {
    let n = msgs.clamp(1, MAX_OPS);
    let gap = horizon.raw() / n;
    let ends = net.topology().endpoints() as u64;
    let pairs: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            let h = rng::derive_seed(seed, i);
            let src = (h % ends) as usize;
            let unit = (h >> 40) as f64 / (1u64 << 24) as f64;
            let stays = unit < local;
            (
                src,
                if stays {
                    src
                } else {
                    ((h >> 16) % ends) as usize
                },
            )
        })
        .collect();
    let start = Instant::now();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        black_box(net.send_traced(src, dst, ICN_BYTES, Cycles::new(i as u64 * gap)));
    }
    ns_per_op(n, start)
}

/// um-net's external fabric: `ExternalNetwork::send_traced_jittered`
/// alternating between `hub` (the load balancer or the storage tier) and
/// random endpoints, `sends` messages over `horizon`. Jitter, when given,
/// is sampled before the clock starts.
pub fn fabric_ns_per_send(
    mut net: ExternalNetwork,
    hub: usize,
    sends: u64,
    horizon: Cycles,
    jitter: Option<(&ServiceTimeDist, Frequency)>,
    seed: u64,
) -> f64 {
    let n = sends.clamp(1, MAX_OPS);
    let gap = horizon.raw() / n;
    let ends = hub as u64;
    let mut draws = rng::stream(seed, "perf-fabric-jitter");
    let legs: Vec<(usize, usize, Cycles)> = (0..n)
        .map(|i| {
            let node = (rng::derive_seed(seed, i) % ends) as usize;
            let j = jitter.map_or(Cycles::ZERO, |(dist, freq)| {
                Cycles::from_micros(dist.sample(&mut draws), freq)
            });
            if i % 2 == 0 {
                (hub, node, j)
            } else {
                (node, hub, j)
            }
        })
        .collect();
    let start = Instant::now();
    for (i, &(src, dst, j)) in legs.iter().enumerate() {
        let depart = Cycles::new(i as u64 * gap);
        black_box(net.send_traced_jittered(src, dst, ICN_BYTES, depart, j));
    }
    ns_per_op(n, start)
}

/// um-sched's hardware request queue: one invocation's enqueue →
/// dequeue → block → unblock → dequeue → complete cycle.
pub fn rq_ns_per_inv(capacity: usize, invocations: u64) -> f64 {
    let n = invocations.clamp(1, MAX_OPS);
    let mut rq = RequestQueue::new(capacity);
    let start = Instant::now();
    for i in 0..n {
        let now = Cycles::new(i);
        let slot = rq.enqueue_at(0, i, now).expect("an empty RQ has room");
        rq.dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, now)
            .expect("the entry is ready");
        rq.block(slot).expect("running entries block");
        rq.unblock_at(slot, now).expect("blocked entries unblock");
        rq.dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, now)
            .expect("the entry is ready again");
        rq.complete(slot).expect("running entries complete");
    }
    black_box(&rq);
    ns_per_op(n, start)
}

/// um-workload's plan sampling: `Workload::sample_plan` for root services
/// drawn (before the clock starts) by `sample_root`.
pub fn plan_ns_per_sample(workload: &Workload, samples: u64, seed: u64) -> f64 {
    let n = samples.clamp(1, MAX_OPS);
    let mut draws = rng::stream(seed, "perf-plan-replay");
    let services: Vec<_> = (0..n).map(|_| workload.sample_root(&mut draws)).collect();
    let start = Instant::now();
    for &service in &services {
        black_box(workload.sample_plan(service, &mut draws));
    }
    ns_per_op(n, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_measures_a_positive_cost() {
        let machine = MachineConfig::umanycore();
        let freq = machine.core.frequency;
        let horizon = Cycles::from_micros(1_000.0, freq);
        let jitter = ServiceTimeDist::lognormal_with_mean(0.5, 4.0);
        let costs = [
            queue_ns_per_event(10_000.0, 1_000.0, 2, 1),
            icn_ns_per_msg(&machine, 500, 0.9, horizon, 1),
            icn_ns_per_msg(&MachineConfig::scaleout(), 500, 0.0, horizon, 1),
            fabric_ns_per_send(
                ExternalNetwork::paper_default(9, freq),
                8,
                500,
                horizon,
                Some((&jitter, freq)),
                1,
            ),
            rq_ns_per_inv(64, 500),
            plan_ns_per_sample(&Workload::social_mix(), 500, 1),
        ];
        for c in costs {
            assert!(c.is_finite() && c > 0.0, "{costs:?}");
        }
    }
}
