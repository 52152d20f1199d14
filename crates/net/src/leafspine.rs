//! Hierarchical leaf-spine topology (paper §4.2, Figure 12).
//!
//! uManycore's ICN: each cluster's network hub is a *leaf*; within a pod,
//! every leaf connects all-to-all to the pod's second-level hubs; a third
//! level of hubs connects all pods, with every third-level hub linked to
//! every second-level hub. Any two leaves are at most 4 hops apart, and
//! every stage offers multiple equal-cost paths — the redundancy that lets
//! same-source/same-destination messages proceed in parallel and keeps
//! tail latency low.

use crate::topology::{LinkId, Topology};

/// The paper's hierarchical leaf-spine ICN.
///
/// # Examples
///
/// ```
/// use um_net::{LeafSpine, Topology};
///
/// let t = LeafSpine::paper_default();
/// assert_eq!(t.endpoints(), 32);   // 32 clusters
/// assert_eq!(t.total_hubs(), 56);  // 32 + 16 + 8 NHs
/// assert_eq!(t.diameter(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct LeafSpine {
    pods: usize,
    leaves_per_pod: usize,
    spines_per_pod: usize,
    top_spines: usize,
}

impl LeafSpine {
    /// The 1024-core uManycore configuration (§5): 4 pods x 8 leaves,
    /// 4 second-level NHs per pod, 8 third-level NHs.
    pub fn paper_default() -> Self {
        Self::new(4, 8, 4, 8)
    }

    /// Creates a hierarchical leaf-spine.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        pods: usize,
        leaves_per_pod: usize,
        spines_per_pod: usize,
        top_spines: usize,
    ) -> Self {
        assert!(pods > 0, "need at least one pod");
        assert!(leaves_per_pod > 0, "need at least one leaf per pod");
        assert!(spines_per_pod > 0, "need at least one spine per pod");
        assert!(top_spines > 0, "need at least one top spine");
        Self {
            pods,
            leaves_per_pod,
            spines_per_pod,
            top_spines,
        }
    }

    /// Total network hubs across all three levels.
    pub fn total_hubs(&self) -> usize {
        self.pods * (self.leaves_per_pod + self.spines_per_pod) + self.top_spines
    }

    /// Analytic hop count between two leaves: 0 to self, 2 within a pod,
    /// 4 across pods. Always equals `route(src, dst, ..).len()` for every
    /// chooser, since all equal-cost paths have the same length.
    ///
    /// # Panics
    ///
    /// Panics if either leaf is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let n = self.endpoints();
        assert!(
            src < n && dst < n,
            "node out of range: {src} or {dst} >= {n}"
        );
        if src == dst {
            0
        } else if self.pod_of(src) == self.pod_of(dst) {
            2
        } else {
            4
        }
    }

    fn pod_of(&self, leaf: usize) -> usize {
        leaf / self.leaves_per_pod
    }

    // ---- link numbering ----
    // Leaf<->L2 links come first: for leaf `l` (global) and spine `s`
    // (pod-local), up = ((l * S) + s) * 2, down = up + 1.
    // Then L2<->L3: for L2 `g` (global) and top `t`,
    // up = leaf_links + ((g * T) + t) * 2, down = up + 1.

    fn leaf_links(&self) -> usize {
        self.pods * self.leaves_per_pod * self.spines_per_pod * 2
    }

    fn leaf_up(&self, leaf: usize, spine: usize) -> LinkId {
        (leaf * self.spines_per_pod + spine) * 2
    }

    fn leaf_down(&self, leaf: usize, spine: usize) -> LinkId {
        self.leaf_up(leaf, spine) + 1
    }

    fn l2_global(&self, pod: usize, spine: usize) -> usize {
        pod * self.spines_per_pod + spine
    }

    fn l2_up(&self, l2: usize, top: usize) -> LinkId {
        self.leaf_links() + (l2 * self.top_spines + top) * 2
    }

    fn l2_down(&self, l2: usize, top: usize) -> LinkId {
        self.l2_up(l2, top) + 1
    }
}

impl Topology for LeafSpine {
    fn endpoints(&self) -> usize {
        self.pods * self.leaves_per_pod
    }

    fn num_links(&self) -> usize {
        self.leaf_links() + self.pods * self.spines_per_pod * self.top_spines * 2
    }

    fn route(
        &self,
        src: usize,
        dst: usize,
        choose: &mut dyn FnMut(&[LinkId]) -> usize,
        route: &mut Vec<LinkId>,
    ) {
        let n = self.endpoints();
        assert!(
            src < n && dst < n,
            "node out of range: {src} or {dst} >= {n}"
        );
        route.clear();
        if src == dst {
            return;
        }
        let sp = self.pod_of(src);
        let dp = self.pod_of(dst);
        let s_count = self.spines_per_pod;

        if sp == dp {
            // Two hops via any of the pod's spines.
            let s = pick(choose, route, (0..s_count).map(|s| self.leaf_up(src, s)));
            route.extend([self.leaf_up(src, s), self.leaf_down(dst, s)]);
            return;
        }

        // Four hops: leaf -> L2(src pod) -> L3 -> L2(dst pod) -> leaf.
        let s_src = pick(choose, route, (0..s_count).map(|s| self.leaf_up(src, s)));
        let l2_src = self.l2_global(sp, s_src);
        route.push(self.leaf_up(src, s_src));

        let top = pick(
            choose,
            route,
            (0..self.top_spines).map(|t| self.l2_up(l2_src, t)),
        );
        route.push(self.l2_up(l2_src, top));

        // Present the *final-hop* links as the stage-3 candidates: the
        // spine-to-leaf hop into a popular destination is the likelier
        // bottleneck, so an adaptive chooser should compare those.
        let s_dst = pick(choose, route, (0..s_count).map(|s| self.leaf_down(dst, s)));
        let l2_dst = self.l2_global(dp, s_dst);
        route.extend([self.l2_down(l2_dst, top), self.leaf_down(dst, s_dst)]);
    }

    fn name(&self) -> &'static str {
        "leaf-spine"
    }

    fn diameter(&self) -> usize {
        if self.pods == 1 {
            2
        } else {
            4
        }
    }
}

/// Stages `candidates` past the end of the partial `route`, applies the
/// chooser to them and validates its answer; leaves `route` as it found it.
/// Staging in the route buffer keeps routing allocation-free without
/// capping how many spines a level may have.
fn pick(
    choose: &mut dyn FnMut(&[LinkId]) -> usize,
    route: &mut Vec<LinkId>,
    candidates: impl Iterator<Item = LinkId>,
) -> usize {
    let start = route.len();
    route.extend(candidates);
    let count = route.len() - start;
    let idx = choose(&route[start..]);
    assert!(idx < count, "chooser returned {idx} for {count} candidates");
    route.truncate(start);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::{check_routing_invariants, route_vec};

    #[test]
    fn invariants_paper_default() {
        check_routing_invariants(&LeafSpine::paper_default());
    }

    #[test]
    fn paper_counts() {
        let t = LeafSpine::paper_default();
        assert_eq!(t.total_hubs(), 56);
    }

    #[test]
    fn intra_pod_is_two_hops() {
        let t = LeafSpine::paper_default();
        assert_eq!(route_vec(&t, 0, 7, &mut first_choice).len(), 2);
    }

    #[test]
    fn cross_pod_is_four_hops() {
        let t = LeafSpine::paper_default();
        assert_eq!(route_vec(&t, 0, 31, &mut first_choice).len(), 4);
    }

    #[test]
    fn redundant_paths_are_disjoint() {
        // Different spine choices yield link-disjoint routes — the paper's
        // "multiple messages with the same source and destination can
        // proceed in parallel".
        let t = LeafSpine::paper_default();
        let mut pick0 = |_c: &[LinkId]| 0usize;
        let mut pick1 = |_c: &[LinkId]| 1usize;
        let r0 = route_vec(&t, 0, 31, &mut pick0);
        let r1 = route_vec(&t, 0, 31, &mut pick1);
        assert!(r0.iter().all(|l| !r1.contains(l)), "{r0:?} vs {r1:?}");
    }

    #[test]
    fn chooser_sees_all_alternatives() {
        let t = LeafSpine::paper_default();
        let mut seen = Vec::new();
        let mut spy = |c: &[LinkId]| {
            seen.push(c.len());
            0
        };
        route_vec(&t, 0, 31, &mut spy);
        assert_eq!(seen, vec![4, 8, 4]); // spines, tops, dst spines
    }

    #[test]
    fn single_pod_diameter_two() {
        let t = LeafSpine::new(1, 8, 4, 1);
        assert_eq!(t.diameter(), 2);
        check_routing_invariants(&t);
    }

    #[test]
    fn link_ids_unique_across_stages() {
        let t = LeafSpine::paper_default();
        use std::collections::BTreeSet;
        let mut ids = BTreeSet::new();
        for leaf in 0..t.endpoints() {
            for s in 0..t.spines_per_pod {
                assert!(ids.insert(t.leaf_up(leaf, s)));
                assert!(ids.insert(t.leaf_down(leaf, s)));
            }
        }
        for l2 in 0..(t.pods * t.spines_per_pod) {
            for top in 0..t.top_spines {
                assert!(ids.insert(t.l2_up(l2, top)));
                assert!(ids.insert(t.l2_down(l2, top)));
            }
        }
        assert_eq!(ids.len(), t.num_links());
        assert_eq!(ids.iter().max(), Some(&(t.num_links() - 1)));
    }

    #[test]
    #[should_panic(expected = "chooser returned")]
    fn bad_chooser_panics() {
        let t = LeafSpine::paper_default();
        let mut bad = |_c: &[LinkId]| 999usize;
        route_vec(&t, 0, 1, &mut bad);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::first_choice;
    use crate::topology::testutil::{check_routing_invariants, route_vec};
    use proptest::prelude::*;

    proptest! {
        /// Routing invariants hold for arbitrary leaf-spine dimensions.
        #[test]
        fn invariants_any_dims(
            pods in 1usize..5,
            leaves in 1usize..9,
            spines in 1usize..5,
            tops in 1usize..9,
        ) {
            let t = LeafSpine::new(pods, leaves, spines, tops);
            check_routing_invariants(&t);
        }

        /// Every chooser answer in range produces a valid route whose
        /// links are unique within the route.
        #[test]
        fn any_choice_is_valid(
            src in 0usize..32,
            dst in 0usize..32,
            picks in proptest::collection::vec(0usize..8, 3),
        ) {
            let t = LeafSpine::paper_default();
            let mut i = 0;
            let mut choose = |c: &[LinkId]| {
                let p = picks[i % picks.len()] % c.len();
                i += 1;
                p
            };
            let route = route_vec(&t, src % 32, dst % 32, &mut choose);
            for &l in &route {
                prop_assert!(l < t.num_links());
            }
            let unique: std::collections::BTreeSet<_> = route.iter().collect();
            prop_assert_eq!(unique.len(), route.len(), "no repeated links");
            let _ = first_choice; // keep the import used under cfg(test)
        }
    }
}
