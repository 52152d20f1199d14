//! Hand-computed hop-count and serialization anchors for all three
//! topologies plus the external network.
//!
//! These lock down the transit math the latency-provenance layer charges
//! to the `icn-transit` and `external-net` breakdown components: if a
//! routing or serialization change shifts any of these constants, the
//! measured breakdowns move with it and this suite points at the cause.

use um_net::{ExternalNetwork, FatTree, LeafSpine, Mesh2D, Network, NetworkConfig, Topology};
use um_sim::{Cycles, Frequency};

/// First-alternative chooser, equivalent to `um_net::topology::first_choice`.
fn first(_c: &[um_net::LinkId]) -> usize {
    0
}

// ---- 2D mesh ----

#[test]
fn mesh_line_transit_hand_computed() {
    // 4x1 line, 0 -> 3: 3 hops. 64 B on 8 B/cycle width-1 links is
    // 8 cycles serialization per hop, plus the 5-cycle hop latency.
    let mut net = Network::new(Mesh2D::new(4, 1), NetworkConfig::on_package());
    let tr = net.send_full(0, 3, 64, Cycles::ZERO);
    assert_eq!(tr.hops, 3);
    assert_eq!(tr.serialization, Cycles::new(3 * 8));
    assert_eq!(tr.queued, Cycles::ZERO);
    assert_eq!(tr.arrival, Cycles::new(3 * (8 + 5)));
}

#[test]
fn mesh_hops_is_manhattan_distance() {
    let m = Mesh2D::new(4, 4);
    // (0,0) -> (3,2): 3 + 2.
    assert_eq!(m.hops(0, 2 * 4 + 3), 5);
    assert_eq!(m.hops(5, 5), 0);
    assert_eq!(m.hops(0, 15), 6); // corner to corner
}

#[test]
fn mesh_hops_matches_route_everywhere() {
    let m = Mesh2D::new(4, 4);
    let mut route = Vec::new();
    for src in 0..m.endpoints() {
        for dst in 0..m.endpoints() {
            m.route(src, dst, &mut first, &mut route);
            assert_eq!(route.len(), m.hops(src, dst), "{src}->{dst}");
        }
    }
}

// ---- binary fat tree ----

#[test]
fn fat_tree_sibling_and_cross_root_transit() {
    // 4-leaf tree, depth 2. Siblings 0 -> 1 meet at their parent: 2 hops
    // over width-1 leaf links; 64 B costs 8 cycles each.
    let mut net = Network::new(FatTree::new(4), NetworkConfig::on_package());
    let tr = net.send_full(0, 1, 64, Cycles::ZERO);
    assert_eq!(tr.hops, 2);
    assert_eq!(tr.serialization, Cycles::new(2 * 8));
    assert_eq!(tr.arrival, Cycles::new(2 * (8 + 5)));

    // 0 -> 3 crosses the root: leaf links (width 1, 8 cyc) at both ends,
    // root-adjacent links (width 2, 4 cyc) in the middle. Fresh network:
    // the sibling send above occupied 0's uplink.
    let mut net = Network::new(FatTree::new(4), NetworkConfig::on_package());
    let tr = net.send_full(0, 3, 64, Cycles::ZERO);
    assert_eq!(tr.hops, 4);
    assert_eq!(tr.serialization, Cycles::new(8 + 4 + 4 + 8));
    assert_eq!(tr.arrival, Cycles::new((8 + 4 + 4 + 8) + 4 * 5));
}

#[test]
fn fat_tree_width_cap_limits_root_serialization() {
    // 32 leaves, depth 5: uncapped doubling would make root links 16x,
    // but the default cap holds them at 8x.
    let t = FatTree::new(32);
    let mut route = Vec::new();
    t.route(0, 31, &mut first, &mut route);
    let max_width = route
        .iter()
        .map(|&l| t.link_width(l))
        .fold(0.0f64, f64::max);
    assert_eq!(max_width, FatTree::DEFAULT_WIDTH_CAP);
}

#[test]
fn fat_tree_hops_matches_route_everywhere() {
    for leaves in [2usize, 4, 8, 32] {
        let t = FatTree::new(leaves);
        let mut route = Vec::new();
        for src in 0..leaves {
            for dst in 0..leaves {
                t.route(src, dst, &mut first, &mut route);
                assert_eq!(route.len(), t.hops(src, dst), "{leaves}: {src}->{dst}");
            }
        }
    }
}

#[test]
fn fat_tree_hops_hand_computed() {
    let t = FatTree::new(8);
    assert_eq!(t.hops(0, 0), 0);
    assert_eq!(t.hops(0, 1), 2); // siblings
    assert_eq!(t.hops(0, 2), 4); // cousins
    assert_eq!(t.hops(0, 7), 6); // across the root of a depth-3 tree
}

// ---- hierarchical leaf-spine ----

#[test]
fn leaf_spine_transit_hand_computed() {
    // Paper default: 4 pods x 8 leaves. All links are width 1, so 64 B is
    // 8 cycles per hop. Intra-pod = 2 hops, cross-pod = 4 hops.
    let mut net = Network::new(LeafSpine::paper_default(), NetworkConfig::on_package());
    let intra = net.send_full(0, 7, 64, Cycles::ZERO);
    assert_eq!(intra.hops, 2);
    assert_eq!(intra.arrival, Cycles::new(2 * (8 + 5)));
    let cross = net.send_full(0, 31, 64, Cycles::ZERO);
    assert_eq!(cross.hops, 4);
    assert_eq!(cross.arrival, Cycles::new(4 * (8 + 5)));
}

#[test]
fn leaf_spine_hops_matches_route_everywhere() {
    let t = LeafSpine::paper_default();
    let mut route = Vec::new();
    for src in 0..t.endpoints() {
        for dst in 0..t.endpoints() {
            t.route(src, dst, &mut first, &mut route);
            assert_eq!(route.len(), t.hops(src, dst), "{src}->{dst}");
        }
    }
}

#[test]
fn leaf_spine_hops_hand_computed() {
    let t = LeafSpine::paper_default();
    assert_eq!(t.hops(3, 3), 0);
    assert_eq!(t.hops(0, 7), 2); // both in pod 0
    assert_eq!(t.hops(7, 8), 4); // pod 0 -> pod 1
    assert_eq!(t.hops(0, 31), 4); // pod 0 -> pod 3
}

// ---- self-sends are uniform across topologies ----

#[test]
fn self_send_is_one_hop_latency_on_every_topology() {
    let cfg = NetworkConfig::on_package();
    let depart = Cycles::new(42);
    let expect = depart + cfg.hop_latency;
    let mut mesh = Network::new(Mesh2D::new(4, 4), cfg);
    let mut fat = Network::new(FatTree::new(8), cfg);
    let mut leaf = Network::new(LeafSpine::paper_default(), cfg);
    assert_eq!(mesh.send(3, 3, 4096, depart), expect);
    assert_eq!(fat.send(3, 3, 4096, depart), expect);
    assert_eq!(leaf.send(3, 3, 4096, depart), expect);
}

// ---- external (inter-server) network ----

#[test]
fn external_transit_hand_computed() {
    // Table 2 at 2 GHz: 0.5 us one-way = 1000 cycles, 200 GB/s = 100 B/cyc.
    let mut n = ExternalNetwork::paper_default(2, Frequency::ghz(2.0));
    let tr = n.send_traced(0, 1, 512, Cycles::ZERO);
    assert_eq!(tr.serialization, Cycles::new(6)); // ceil(512/100)
    assert_eq!(tr.propagation, Cycles::new(1000));
    assert_eq!(tr.queued, Cycles::ZERO);
    assert_eq!(tr.arrival, Cycles::new(1006));
    // A second message departing at the same instant queues behind the
    // first message's serialization.
    let tr2 = n.send_traced(0, 1, 512, Cycles::ZERO);
    assert_eq!(tr2.queued, Cycles::new(6));
    assert_eq!(tr2.arrival, Cycles::new(1012));
}
