//! Binary fat-tree topology with up/down routing.
//!
//! The ScaleOut baseline's ICN (Table 2 / §5): for 32 clusters the tree has
//! 63 network hubs and a worst-case path of 10 hops (5 up to the root, 5
//! down). Links widen towards the root ("fattening"), but — as in real
//! implementations — the widening is capped, so the root remains a
//! contention point under load. Figure 7 quantifies exactly that.

use crate::topology::{LinkId, Topology};

/// A binary fat tree over a power-of-two number of leaf endpoints.
///
/// Internal nodes are addressed as a binary heap: root is node 1, node `i`
/// has children `2i` and `2i+1`, and leaf endpoint `e` is node `leaves + e`.
///
/// # Examples
///
/// ```
/// use um_net::{topology::first_choice, FatTree, Topology};
///
/// let t = FatTree::new(32); // the ScaleOut configuration
/// assert_eq!(t.endpoints(), 32);
/// assert_eq!(t.total_hubs(), 63);
/// assert_eq!(t.diameter(), 10);
///
/// let mut route = Vec::new();
/// t.route(0, 31, &mut first_choice, &mut route); // through the root
/// assert_eq!(route.len(), t.diameter());
/// assert_eq!(t.link_width(route[4]), 8.0); // capped at the root
/// ```
#[derive(Clone, Debug)]
pub struct FatTree {
    leaves: usize,
    depth: u32,
    /// Relative bandwidth of each directed link, indexed by [`LinkId`]:
    /// doubling per level above the leaves, up to the widening cap.
    widths: Vec<f64>,
}

impl FatTree {
    /// Default widening cap: each level doubles, up to 8x a leaf link.
    /// That is half the full-bisection width for 32 leaves — enough that
    /// the tree degrades more gracefully than the mesh under uniform
    /// load (Figure 7: mesh 14.7x vs fat tree 7.5x), but the shared
    /// upper levels still congest well before a leaf-spine does.
    pub const DEFAULT_WIDTH_CAP: f64 = 8.0;

    /// Creates a fat tree over `leaves` endpoints with the default cap.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two and at least 2.
    pub fn new(leaves: usize) -> Self {
        Self::with_width_cap(leaves, Self::DEFAULT_WIDTH_CAP)
    }

    /// Creates a fat tree with an explicit link-widening cap.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two >= 2 and `width_cap >= 1.0`.
    pub fn with_width_cap(leaves: usize, width_cap: f64) -> Self {
        assert!(
            leaves.is_power_of_two() && leaves >= 2,
            "leaves must be a power of two >= 2, got {leaves}"
        );
        assert!(width_cap >= 1.0, "width cap below 1.0");
        let depth = leaves.trailing_zeros();
        // Link `l` joins heap node `l / 2 + 2` to its parent.
        let widths = (0..2 * (2 * leaves - 2))
            .map(|link| {
                let level = depth - Self::node_depth(link / 2 + 2);
                (2.0f64.powi(level as i32)).min(width_cap)
            })
            .collect();
        Self {
            leaves,
            depth,
            widths,
        }
    }

    /// Total number of hubs (leaves + internal nodes).
    pub fn total_hubs(&self) -> usize {
        2 * self.leaves - 1
    }

    /// Analytic hop count of the up/down route from `src` to `dst`: twice
    /// the distance to the lowest common ancestor. Always equals
    /// `route(src, dst, ..).len()`.
    ///
    /// # Panics
    ///
    /// Panics if either leaf is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        assert!(
            src < self.leaves && dst < self.leaves,
            "node out of range: {src} or {dst} >= {}",
            self.leaves
        );
        2 * Self::levels_to_lca(self.heap_of_leaf(src), self.heap_of_leaf(dst))
    }

    fn heap_of_leaf(&self, e: usize) -> usize {
        self.leaves + e
    }

    /// Levels two same-depth heap nodes climb to their lowest common
    /// ancestor: their indices agree above the highest differing bit.
    fn levels_to_lca(a: usize, b: usize) -> usize {
        (usize::BITS - (a ^ b).leading_zeros()) as usize
    }

    /// Directed link ids: for heap node `i` in `2..2*leaves`, the up link
    /// `i -> i/2` has id `2*(i-2)` and the down link `i/2 -> i` has id
    /// `2*(i-2) + 1`.
    fn up_link(i: usize) -> LinkId {
        2 * (i - 2)
    }

    fn down_link(i: usize) -> LinkId {
        2 * (i - 2) + 1
    }

    fn node_depth(i: usize) -> u32 {
        (usize::BITS - 1) - i.leading_zeros()
    }
}

impl Topology for FatTree {
    fn endpoints(&self) -> usize {
        self.leaves
    }

    fn num_links(&self) -> usize {
        2 * (2 * self.leaves - 2)
    }

    fn route(
        &self,
        src: usize,
        dst: usize,
        _choose: &mut dyn FnMut(&[LinkId]) -> usize,
        route: &mut Vec<LinkId>,
    ) {
        assert!(
            src < self.leaves && dst < self.leaves,
            "node out of range: {src} or {dst} >= {}",
            self.leaves
        );
        route.clear();
        let a = self.heap_of_leaf(src);
        let b = self.heap_of_leaf(dst);
        // Up from `src` to the lowest common ancestor, then down to `dst`.
        let levels = Self::levels_to_lca(a, b);
        route.extend((0..levels).map(|k| Self::up_link(a >> k)));
        route.extend((0..levels).rev().map(|k| Self::down_link(b >> k)));
    }

    fn link_width(&self, link: LinkId) -> f64 {
        self.widths[link]
    }

    fn name(&self) -> &'static str {
        "fat-tree"
    }

    fn diameter(&self) -> usize {
        2 * self.depth as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::{check_routing_invariants, route_vec};

    #[test]
    fn invariants_32() {
        check_routing_invariants(&FatTree::new(32));
    }

    #[test]
    fn paper_configuration() {
        let t = FatTree::new(32);
        assert_eq!(t.total_hubs(), 63);
        assert_eq!(t.diameter(), 10);
    }

    #[test]
    fn siblings_route_in_two_hops() {
        let t = FatTree::new(8);
        assert_eq!(route_vec(&t, 0, 1, &mut first_choice).len(), 2);
    }

    #[test]
    fn opposite_halves_cross_root() {
        let t = FatTree::new(8);
        let route = route_vec(&t, 0, 7, &mut first_choice);
        assert_eq!(route.len(), 6); // 3 up + 3 down for depth-3 tree
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let t = FatTree::new(16);
        for (a, b) in [(0, 15), (3, 9), (7, 8)] {
            let f = route_vec(&t, a, b, &mut first_choice).len();
            let r = route_vec(&t, b, a, &mut first_choice).len();
            assert_eq!(f, r);
        }
    }

    #[test]
    fn widths_grow_toward_root_and_cap() {
        let t = FatTree::new(32);
        let route = route_vec(&t, 0, 31, &mut first_choice); // through the root
        let widths: Vec<f64> = route.iter().map(|&l| t.link_width(l)).collect();
        // Going up: 1, 2, 4, 8, 8 then down again (doubling capped at 8).
        assert_eq!(widths[0], 1.0);
        assert_eq!(widths[1], 2.0);
        assert_eq!(widths[2], 4.0);
        assert_eq!(widths[4], 8.0); // capped at the root
        assert_eq!(*widths.last().expect("nonempty"), 1.0);
    }

    #[test]
    fn shared_root_links_for_cross_traffic() {
        // All cross-half traffic uses the same two root links: the
        // structural reason the fat tree congests in Figure 7.
        let t = FatTree::new(8);
        let r1 = route_vec(&t, 0, 4, &mut first_choice);
        let r2 = route_vec(&t, 1, 5, &mut first_choice);
        let shared: Vec<_> = r1.iter().filter(|l| r2.contains(l)).collect();
        assert!(
            !shared.is_empty(),
            "cross-half routes must share root links"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        FatTree::new(12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::{check_routing_invariants, route_vec};
    use proptest::prelude::*;

    proptest! {
        /// Routing invariants hold for every power-of-two size.
        #[test]
        fn invariants_any_size(log2 in 1u32..7) {
            let t = FatTree::new(1 << log2);
            check_routing_invariants(&t);
        }

        /// The up-phase and down-phase have equal length, and link widths
        /// along a route rise to the LCA then fall.
        #[test]
        fn route_is_a_tent(log2 in 2u32..7, a in 0usize..64, b in 0usize..64) {
            let leaves = 1usize << log2;
            let t = FatTree::new(leaves);
            let (src, dst) = (a % leaves, b % leaves);
            prop_assume!(src != dst);
            let route = route_vec(&t, src, dst, &mut first_choice);
            prop_assert_eq!(route.len() % 2, 0);
            let widths: Vec<f64> = route.iter().map(|&l| t.link_width(l)).collect();
            let half = widths.len() / 2;
            // Non-decreasing up, non-increasing down.
            for w in widths[..half].windows(2) {
                prop_assert!(w[0] <= w[1], "up-phase widths must not shrink");
            }
            for w in widths[half..].windows(2) {
                prop_assert!(w[0] >= w[1], "down-phase widths must not grow");
            }
        }
    }
}
