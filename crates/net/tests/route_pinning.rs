//! Pins the network's observable behaviour bit for bit.
//!
//! For each topology the simulator builds — the ServerClass meshes, the
//! ScaleOut fat tree and uManycore's leaf-spine — and each
//! [`RouteStrategy`], this suite drives a seeded stream of sends through a
//! contended [`Network`] with one injected link fault, and walks every
//! source/destination pair through [`Topology::route`] with a chooser that
//! mirrors the strategy. It asserts the final [`NetworkStats`] and FNV-1a
//! checksums of every arrival, every route's link sequence and every
//! candidate slice the leaf-spine hands to `choose`.
//!
//! Routing and transport sit under every ICN charge in `results/`, so a
//! change that moves any constant here moves simulated results.

use um_net::{
    FatTree, LeafSpine, LinkId, Mesh2D, Network, NetworkConfig, NetworkStats, RouteStrategy,
    Topology,
};
use um_sim::fault::FaultWindow;
use um_sim::Cycles;

const STRATEGIES: [RouteStrategy; 3] = [
    RouteStrategy::Deterministic,
    RouteStrategy::RandomEcmp,
    RouteStrategy::LeastLoaded,
];

/// Sends per pinned stream: 3 cycles apart, so links contend.
const SENDS: u64 = 2_000;

/// What one topology under one strategy must reproduce.
#[derive(Clone, Copy)]
struct Pin {
    stats: NetworkStats,
    /// Checksum of every send's arrival, queueing, serialization and hops.
    arrivals: u64,
    /// Checksum of every route's link sequence.
    routes: u64,
    /// Checksum of every candidate slice passed to `choose`.
    candidates: u64,
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the test's own seeded stream, independent of the crate's.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % n as u64) as usize
    }
}

/// `Topology::route` seen as a function returning the route. Implemented
/// for both shapes the method can take — returning a `Vec`, or filling a
/// caller-owned buffer — so this file checks its constants against either
/// without an edit.
trait RouteFn<T, Shape> {
    fn route_vec(
        &self,
        topo: &T,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
    ) -> Vec<LinkId>;
}

impl<T, F> RouteFn<T, fn() -> Vec<LinkId>> for F
where
    F: Fn(&T, usize, usize, &mut dyn FnMut(&[LinkId]) -> usize) -> Vec<LinkId>,
{
    fn route_vec(
        &self,
        topo: &T,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
    ) -> Vec<LinkId> {
        self(topo, src, dst, choose)
    }
}

impl<T, F> RouteFn<T, fn(&mut Vec<LinkId>)> for F
where
    F: Fn(&T, usize, usize, &mut dyn FnMut(&[LinkId]) -> usize, &mut Vec<LinkId>),
{
    fn route_vec(
        &self,
        topo: &T,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
    ) -> Vec<LinkId> {
        let mut route = Vec::new();
        self(topo, src, dst, choose, &mut route);
        route
    }
}

fn route_of<T, S>(
    method: impl RouteFn<T, S>,
    topo: &T,
    src: usize,
    dst: usize,
    choose: &mut dyn FnMut(&[LinkId]) -> usize,
) -> Vec<LinkId> {
    method.route_vec(topo, src, dst, choose)
}

/// Drives the seeded send stream; returns the final stats and the arrival
/// checksum.
fn drive<T: Topology + Clone>(topo: &T, strategy: RouteStrategy) -> (NetworkStats, u64) {
    let cfg = NetworkConfig {
        strategy,
        seed: 0x5eed,
        ..NetworkConfig::on_package()
    };
    let mut net = Network::new(topo.clone(), cfg);
    // One outage early in the stream on link 0: a mesh's first east link,
    // the fat tree's busiest up link into the root, leaf 0's first uplink.
    net.inject_link_fault(
        0,
        FaultWindow::new(Cycles::new(600), Cycles::new(2_400), f64::INFINITY),
    );
    let n = topo.endpoints();
    let mut rng = SplitMix(0x9e7_2026 ^ n as u64);
    let mut sum = Fnv::new();
    for i in 0..SENDS {
        let src = rng.below(n);
        let dst = rng.below(n);
        let bytes = 64u64 << rng.below(5);
        let tr = net.send_full(src, dst, bytes, Cycles::new(i * 3));
        sum.add(tr.arrival.raw());
        sum.add(tr.queued.raw());
        sum.add(tr.serialization.raw());
        sum.add(tr.hops as u64);
    }
    (net.stats(), sum.0)
}

/// Routes every ordered pair with a chooser that mirrors `strategy`:
/// first candidate, a seeded uniform draw, or the candidate used least so
/// far. Returns the route and candidate checksums.
fn walk<T: Topology>(topo: &T, strategy: RouteStrategy) -> (u64, u64) {
    let n = topo.endpoints();
    let mut rng = SplitMix(0x40_07e5 ^ n as u64);
    let mut uses = vec![0u64; topo.num_links()];
    let mut routes = Fnv::new();
    let mut candidates = Fnv::new();
    for src in 0..n {
        for dst in 0..n {
            let mut choose = |c: &[LinkId]| {
                candidates.add(c.len() as u64);
                for &l in c {
                    candidates.add(l as u64);
                }
                match strategy {
                    RouteStrategy::Deterministic => 0,
                    RouteStrategy::RandomEcmp => rng.below(c.len()),
                    RouteStrategy::LeastLoaded => (0..c.len())
                        .min_by_key(|&i| uses[c[i]])
                        .expect("candidates nonempty"),
                }
            };
            let route = route_of(T::route, topo, src, dst, &mut choose);
            routes.add(route.len() as u64);
            for &l in &route {
                routes.add(l as u64);
                uses[l] += 1;
            }
        }
    }
    (routes.0, candidates.0)
}

fn check<T: Topology + Clone>(topo: T, pins: [Pin; 3]) {
    for (strategy, pin) in STRATEGIES.into_iter().zip(pins) {
        let (stats, arrivals) = drive(&topo, strategy);
        let (routes, candidates) = walk(&topo, strategy);
        let got = format!(
            "stats {stats:?} arrivals {arrivals:#018x} routes {routes:#018x} \
             candidates {candidates:#018x}"
        );
        let want = format!(
            "stats {:?} arrivals {:#018x} routes {:#018x} candidates {:#018x}",
            pin.stats, pin.arrivals, pin.routes, pin.candidates
        );
        assert_eq!(got, want, "{} under {strategy:?}", topo.name());
    }
}

fn stats(queue_cycles: u64, hops: u64) -> NetworkStats {
    NetworkStats {
        messages: SENDS,
        queue_cycles,
        hops,
    }
}

/// Checksum of no words: topologies without branch points never call
/// `choose`.
const NO_CANDIDATES: u64 = 0xcbf2_9ce4_8422_2325;

/// A topology without branch points behaves the same under every strategy.
fn single_path(stats: NetworkStats, arrivals: u64, routes: u64) -> [Pin; 3] {
    [Pin {
        stats,
        arrivals,
        routes,
        candidates: NO_CANDIDATES,
    }; 3]
}

#[test]
fn mesh_5_is_pinned() {
    check(
        Mesh2D::near_square(5),
        single_path(
            stats(15_340_585, 3_174),
            0x9d48_df09_d36a_9b72,
            0x6517_e464_7ab4_4e45,
        ),
    );
}

#[test]
fn mesh_16_is_pinned() {
    check(
        Mesh2D::near_square(16),
        single_path(
            stats(2_566_363, 4_937),
            0xd640_0d54_870d_789d,
            0x4b3f_f815_2999_3865,
        ),
    );
}

#[test]
fn fat_tree_32_is_pinned() {
    check(
        FatTree::new(32),
        single_path(
            stats(1_437_914, 16_086),
            0x4aee_345d_a54d_da3e,
            0xb2c5_f58f_eef0_1ea5,
        ),
    );
}

#[test]
fn leaf_spine_4_8_4_8_is_pinned() {
    check(
        LeafSpine::new(4, 8, 4, 8),
        [
            Pin {
                stats: stats(14_869_281, 6_860),
                arrivals: 0xf6f1_2714_4169_0892,
                routes: 0x5271_4a23_5f68_e725,
                candidates: 0x49bf_9ab0_ad09_5125,
            },
            Pin {
                stats: stats(156_685, 6_860),
                arrivals: 0xdd05_1ad6_516a_e10d,
                routes: 0x776a_b034_0d0e_df1f,
                candidates: 0x16b3_3fc2_a7ae_e4e5,
            },
            Pin {
                stats: stats(86_376, 6_860),
                arrivals: 0xe450_ce66_c72d_7550,
                routes: 0x49b6_836a_abd7_cc5d,
                candidates: 0x7d11_21c4_194f_9125,
            },
        ],
    );
}
