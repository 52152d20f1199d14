//! 2D mesh topology with dimension-ordered (XY) routing.
//!
//! The ServerClass baseline's on-chip network (Table 2), and one of the two
//! ICNs whose contention Figure 7 quantifies on the ScaleOut manycore.

use crate::topology::{LinkId, Topology};

/// Directions of an XY step, indexing a node's row of the link table.
const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

/// Table entry for a step off the edge of the mesh; XY routing never
/// takes one.
const NO_LINK: LinkId = LinkId::MAX;

/// A 2D mesh of endpoint routers with XY (X first, then Y) routing.
///
/// Every grid cell is both a router and an endpoint. Each physical channel
/// is two directed links.
///
/// # Examples
///
/// ```
/// use um_net::{topology::first_choice, Mesh2D, Topology};
///
/// let mesh = Mesh2D::new(8, 4); // 32 clusters as in the paper
/// assert_eq!(mesh.endpoints(), 32);
/// assert_eq!(mesh.diameter(), 7 + 3);
///
/// let mut route = Vec::new();
/// mesh.route(0, 31, &mut first_choice, &mut route); // corner to corner
/// assert_eq!(route.len(), mesh.hops(0, 31));
/// ```
#[derive(Clone, Debug)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
    /// Outgoing link of each node in each direction (`EAST`, `WEST`,
    /// `SOUTH`, `NORTH`), `NO_LINK` at the edges.
    links: Vec<[LinkId; 4]>,
    num_links: usize,
}

impl Mesh2D {
    /// Creates a `cols x rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        // Link ids are assigned in row-major node order, east pair before
        // south pair; fault injection addresses links by these ids.
        let mut links = vec![[NO_LINK; 4]; cols * rows];
        let mut next = 0;
        for here in 0..cols * rows {
            if (here + 1) % cols != 0 {
                links[here][EAST] = next;
                links[here + 1][WEST] = next + 1;
                next += 2;
            }
            if here + cols < cols * rows {
                links[here][SOUTH] = next;
                links[here + cols][NORTH] = next + 1;
                next += 2;
            }
        }
        Self {
            cols,
            rows,
            links,
            num_links: next,
        }
    }

    /// Creates a near-square mesh for `endpoints` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` has no factorization (it always does) or is 0.
    pub fn near_square(endpoints: usize) -> Self {
        assert!(endpoints > 0, "need at least one endpoint");
        let mut best = (1, endpoints);
        let mut c = 1;
        while c * c <= endpoints {
            if endpoints.is_multiple_of(c) {
                best = (endpoints / c, c);
            }
            c += 1;
        }
        Self::new(best.0, best.1)
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Analytic hop count of the XY route from `src` to `dst`: the
    /// Manhattan distance. Always equals `route(src, dst, ..).len()`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        assert!(
            src < self.endpoints() && dst < self.endpoints(),
            "node out of range"
        );
        let (sc, sr) = self.coords(src);
        let (dc, dr) = self.coords(dst);
        sc.abs_diff(dc) + sr.abs_diff(dr)
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.cols, node / self.cols)
    }

    /// Appends `steps` hops from `node` in direction `dir`, each moving the
    /// node index by `stride`; returns the node reached.
    fn walk(
        &self,
        mut node: usize,
        dir: usize,
        stride: isize,
        steps: usize,
        route: &mut Vec<LinkId>,
    ) -> usize {
        for _ in 0..steps {
            route.push(self.links[node][dir]);
            node = node.wrapping_add_signed(stride);
        }
        node
    }
}

impl Topology for Mesh2D {
    fn endpoints(&self) -> usize {
        self.cols * self.rows
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn route(
        &self,
        src: usize,
        dst: usize,
        _choose: &mut dyn FnMut(&[LinkId]) -> usize,
        route: &mut Vec<LinkId>,
    ) {
        assert!(
            src < self.endpoints() && dst < self.endpoints(),
            "node out of range"
        );
        route.clear();
        let (sc, sr) = self.coords(src);
        let (dc, dr) = self.coords(dst);
        let cols = self.cols as isize;
        let (x_dir, x_stride) = if dc > sc { (EAST, 1) } else { (WEST, -1) };
        let (y_dir, y_stride) = if dr > sr {
            (SOUTH, cols)
        } else {
            (NORTH, -cols)
        };
        let turn = self.walk(src, x_dir, x_stride, sc.abs_diff(dc), route);
        self.walk(turn, y_dir, y_stride, sr.abs_diff(dr), route);
    }

    fn name(&self) -> &'static str {
        "2d-mesh"
    }

    fn diameter(&self) -> usize {
        (self.cols - 1) + (self.rows - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::{check_routing_invariants, route_vec};

    #[test]
    fn invariants_8x4() {
        check_routing_invariants(&Mesh2D::new(8, 4));
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let m = Mesh2D::new(4, 4);
        // (0,0) -> (3,2): 3 + 2 hops.
        let route = route_vec(&m, 0, 2 * 4 + 3, &mut first_choice);
        assert_eq!(route.len(), 5);
    }

    #[test]
    fn xy_routing_is_deterministic() {
        let m = Mesh2D::new(4, 4);
        let a = route_vec(&m, 1, 14, &mut first_choice);
        let b = route_vec(&m, 1, 14, &mut first_choice);
        assert_eq!(a, b);
    }

    #[test]
    fn opposing_directions_use_distinct_links() {
        let m = Mesh2D::new(2, 1);
        let fwd = route_vec(&m, 0, 1, &mut first_choice);
        let rev = route_vec(&m, 1, 0, &mut first_choice);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn near_square_factorizations() {
        assert_eq!(Mesh2D::near_square(32).dims(), (8, 4));
        assert_eq!(Mesh2D::near_square(16).dims(), (4, 4));
        assert_eq!(Mesh2D::near_square(7).dims(), (7, 1));
        assert_eq!(Mesh2D::near_square(1).dims(), (1, 1));
    }

    #[test]
    fn link_count_matches_formula() {
        let m = Mesh2D::new(8, 4);
        // Directed links: 2 * (cols-1)*rows + 2 * cols*(rows-1).
        assert_eq!(m.num_links(), 2 * 7 * 4 + 2 * 8 * 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let m = Mesh2D::new(2, 2);
        route_vec(&m, 0, 99, &mut first_choice);
    }

    #[test]
    fn single_node_mesh() {
        let m = Mesh2D::new(1, 1);
        assert!(route_vec(&m, 0, 0, &mut first_choice).is_empty());
        assert_eq!(m.num_links(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::route_vec;
    use proptest::prelude::*;

    proptest! {
        /// A route from src to dst traverses exactly the Manhattan distance.
        #[test]
        fn manhattan(cols in 1usize..9, rows in 1usize..9, a in 0usize..64, b in 0usize..64) {
            let m = Mesh2D::new(cols, rows);
            let n = m.endpoints();
            let (src, dst) = (a % n, b % n);
            let route = route_vec(&m, src, dst, &mut first_choice);
            let (sc, sr) = (src % cols, src / cols);
            let (dc, dr) = (dst % cols, dst / cols);
            let manhattan = sc.abs_diff(dc) + sr.abs_diff(dr);
            prop_assert_eq!(route.len(), manhattan);
        }
    }
}
