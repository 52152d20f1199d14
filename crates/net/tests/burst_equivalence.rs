//! Differential test: a burst equals the messages sent one by one.
//!
//! [`Network::send_burst`] routes a fixed route once and steps every
//! message along it; at a branch point it routes each message again. For
//! random mesh, fat-tree (with a random widening cap) and leaf-spine
//! networks, under every [`RouteStrategy`], with contention on and off,
//! random outage and slowdown windows on random links and random link
//! occupancy left by earlier sends, this suite sends one burst of 0 to 16
//! messages (self-sends included) on one copy of a network and the same
//! messages through [`Network::send_traced`] on another. The summed
//! queueing and the statistics must agree, and so must every result of a
//! probe sequence sent afterwards on both copies, which exposes any drift
//! in link occupancy or in the ECMP random stream.

use proptest::prelude::*;
use um_net::{FatTree, LeafSpine, Mesh2D, Network, NetworkConfig, RouteStrategy, Topology};
use um_sim::fault::FaultWindow;
use um_sim::Cycles;

const STRATEGIES: [RouteStrategy; 3] = [
    RouteStrategy::Deterministic,
    RouteStrategy::RandomEcmp,
    RouteStrategy::LeastLoaded,
];

/// One send: endpoints (taken modulo the endpoint count), bytes, depart.
type Send = (usize, usize, u64, u64);

/// One fault window: link (modulo the link count), start, length, and
/// either an outage or a slowdown factor.
type Fault = (usize, u64, u64, Option<f64>);

#[derive(Clone, Debug)]
struct Case {
    strategy: RouteStrategy,
    contention: bool,
    seed: u64,
    faults: Vec<Fault>,
    preload: Vec<Send>,
    burst: Send,
    self_send: bool,
    n: u64,
    probes: Vec<Send>,
}

fn send_strategy() -> impl Strategy<Value = Send> {
    (0usize..64, 0usize..64, 1u64..8_192, 0u64..3_000)
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let network = (
        0usize..3,
        proptest::bool::ANY,
        0u64..u64::MAX,
        proptest::collection::vec(
            (
                0usize..256,
                0u64..4_000,
                0u64..2_000,
                proptest::option::of(1.0f64..6.0),
            ),
            0..6,
        ),
        proptest::collection::vec(send_strategy(), 0..24),
    );
    // One burst in five is a self-send.
    let traffic = (
        send_strategy(),
        0u8..5,
        0u64..17,
        proptest::collection::vec(send_strategy(), 1..12),
    );
    (network, traffic).prop_map(
        |((strategy, contention, seed, faults, preload), (burst, self_send, n, probes))| Case {
            strategy: STRATEGIES[strategy],
            contention,
            seed,
            faults,
            preload,
            burst,
            self_send: self_send == 0,
            n,
            probes,
        },
    )
}

/// Runs `case` on `topo`: the burst on one copy of the loaded network,
/// `n` single sends on another, then the probes on both.
fn check<T: Topology + Clone>(topo: T, case: &Case) -> Result<(), TestCaseError> {
    let config = NetworkConfig {
        contention: case.contention,
        strategy: case.strategy,
        seed: case.seed,
        ..NetworkConfig::on_package()
    };
    let ends = topo.endpoints();
    let mut net = Network::new(topo, config);
    for &(link, from, len, slowdown) in &case.faults {
        let from = Cycles::new(from);
        let until = from + Cycles::new(len);
        net.inject_link_fault(
            link,
            FaultWindow::new(from, until, slowdown.unwrap_or(f64::INFINITY)),
        );
    }
    for &(src, dst, bytes, depart) in &case.preload {
        net.send(src % ends, dst % ends, bytes, Cycles::new(depart));
    }

    let (src, dst, bytes, depart) = case.burst;
    let src = src % ends;
    let dst = if case.self_send { src } else { dst % ends };
    let depart = Cycles::new(depart);
    let mut burst = net.clone();
    let mut single = net;
    let burst_queued = burst.send_burst(src, dst, bytes, depart, case.n);
    let mut single_queued = Cycles::ZERO;
    for _ in 0..case.n {
        single_queued += single.send_traced(src, dst, bytes, depart).1;
    }
    prop_assert_eq!(burst_queued, single_queued);
    prop_assert_eq!(burst.stats(), single.stats());

    for &(src, dst, bytes, depart) in &case.probes {
        let (src, dst, depart) = (src % ends, dst % ends, Cycles::new(depart));
        prop_assert_eq!(
            burst.send_full(src, dst, bytes, depart),
            single.send_full(src, dst, bytes, depart)
        );
    }
    prop_assert_eq!(burst.stats(), single.stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mesh_burst_equals_single_sends(
        cols in 1usize..7,
        rows in 1usize..5,
        case in case_strategy(),
    ) {
        check(Mesh2D::new(cols, rows), &case)?;
    }

    #[test]
    fn fat_tree_burst_equals_single_sends(
        log2 in 1u32..6,
        width_cap in 1.0f64..16.0,
        case in case_strategy(),
    ) {
        check(FatTree::with_width_cap(1 << log2, width_cap), &case)?;
    }

    #[test]
    fn leaf_spine_burst_equals_single_sends(
        pods in 1usize..4,
        leaves in 1usize..6,
        spines in 1usize..5,
        tops in 1usize..5,
        case in case_strategy(),
    ) {
        check(LeafSpine::new(pods, leaves, spines, tops), &case)?;
    }
}
