//! The topology abstraction shared by all ICNs.

/// Index of a directed link in a topology's link table.
pub type LinkId = usize;

/// A static interconnect topology over a set of endpoint nodes.
///
/// Endpoints are the entities that inject and receive traffic — in this
/// reproduction, one endpoint per cluster (the cluster's network hub acts
/// as the attachment point). Links are *directed*: each physical cable
/// contributes one link per direction, so opposing flows never contend.
///
/// `route` writes one source-to-destination path into a caller-owned
/// buffer, so a sender routes every message without allocating. Where the
/// topology has redundant paths (the leaf-spine's multiple spines), the
/// `choose` callback picks among candidates; it receives the candidate
/// *first links* of each alternative so the caller can implement random or
/// least-loaded (adaptive) selection.
///
/// # Examples
///
/// ```
/// use um_net::{topology::first_choice, Mesh2D, Topology};
///
/// let mesh = Mesh2D::new(4, 1);
/// let mut route = Vec::new();
/// mesh.route(0, 3, &mut first_choice, &mut route);
/// assert_eq!(route.len(), 3);
/// mesh.route(2, 2, &mut first_choice, &mut route); // local delivery
/// assert!(route.is_empty());
/// ```
pub trait Topology {
    /// Number of endpoint nodes.
    fn endpoints(&self) -> usize;

    /// Total number of directed links.
    fn num_links(&self) -> usize;

    /// Replaces the contents of `route` with the route from `src` to `dst`
    /// as a sequence of directed links.
    ///
    /// The route is empty when `src == dst` (local delivery). `choose` is
    /// called at every branch point with the candidate link ids for the
    /// next step and must return an index into that slice. Implementations
    /// may stage those candidates in `route`'s spare capacity. A route
    /// built without calling `choose` must depend on `src` and `dst` alone:
    /// `Network::send_burst` reuses it for every message of a burst.
    ///
    /// # Panics
    ///
    /// Implementations panic if `src` or `dst` is out of range, or if
    /// `choose` returns an out-of-range index.
    fn route(
        &self,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
        route: &mut Vec<LinkId>,
    );

    /// Relative bandwidth of a link (1.0 = base link width). Fat trees
    /// widen links towards the root.
    fn link_width(&self, _link: LinkId) -> f64 {
        1.0
    }

    /// Human-readable topology name for reports.
    fn name(&self) -> &'static str;

    /// Worst-case hop count between any two endpoints.
    fn diameter(&self) -> usize;
}

/// Routes through `choose` that always picks the first candidate; useful
/// for tests and for deterministic baselines.
pub fn first_choice(candidates: &[LinkId]) -> usize {
    debug_assert!(!candidates.is_empty());
    0
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Routes `src` to `dst` into a fresh buffer.
    pub fn route_vec<T: Topology>(
        topo: &T,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
    ) -> Vec<LinkId> {
        let mut route = Vec::new();
        topo.route(src, dst, choose, &mut route);
        route
    }

    /// Exhaustively checks routing invariants for a topology:
    /// self-routes are empty, all links are in range, route length is
    /// bounded by the diameter.
    pub fn check_routing_invariants<T: Topology>(topo: &T) {
        let n = topo.endpoints();
        let mut route = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                topo.route(src, dst, &mut first_choice, &mut route);
                if src == dst {
                    assert!(route.is_empty(), "self route {src} not empty");
                    continue;
                }
                assert!(!route.is_empty(), "no route {src}->{dst}");
                assert!(
                    route.len() <= topo.diameter(),
                    "route {src}->{dst} has {} hops > diameter {}",
                    route.len(),
                    topo.diameter()
                );
                for &l in &route {
                    assert!(l < topo.num_links(), "link {l} out of range");
                }
            }
        }
    }
}
