//! Services, request plans and RPC structure (paper §2.1, §3.3).
//!
//! A service request executes as a sequence of compute *segments* separated
//! by blocking RPCs — remote storage accesses or synchronous calls to
//! downstream services. This is the structure that makes context switching
//! and scheduling dominate tail latency: the Alibaba traces show a median
//! of 4.2 RPCs per request and ~14% CPU utilization (the rest is blocked
//! time).

use crate::dist::{sample_geometric, ServiceTimeDist};
use rand::Rng;
use std::sync::Arc;

/// Identifier of a service type (not an instance).
///
/// # Examples
///
/// ```
/// use um_workload::ServiceId;
///
/// let s = ServiceId::new(3);
/// assert_eq!(s.index(), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(u32);

impl ServiceId {
    /// Creates a service id.
    pub const fn new(raw: u32) -> Self {
        ServiceId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a usize index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

/// What a blocking RPC does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RpcKind {
    /// A read/write against remote storage (e.g. a key-value store on
    /// another server); `bytes` is the response payload size.
    Storage {
        /// Response payload bytes.
        bytes: u64,
    },
    /// A synchronous call into another service; the caller blocks until
    /// the callee's own request plan completes.
    Call {
        /// The downstream service.
        service: ServiceId,
    },
}

/// One compute segment, optionally followed by a blocking RPC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// CPU time of this segment in microseconds (on the reference core).
    pub compute_us: f64,
    /// The blocking RPC issued at the end of the segment, if any. The last
    /// segment of a plan has `None` (the request then completes).
    pub rpc: Option<RpcKind>,
}

/// A fully sampled execution plan for one request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestPlan {
    /// The service this request invokes.
    pub service: ServiceId,
    /// Compute segments; RPCs of all but the last segment block.
    pub segments: Vec<Segment>,
}

impl RequestPlan {
    /// Total CPU time across segments, in microseconds (excluding
    /// downstream callees).
    pub fn compute_us(&self) -> f64 {
        self.segments.iter().map(|s| s.compute_us).sum()
    }

    /// Number of blocking RPCs in this plan.
    pub fn rpc_count(&self) -> usize {
        self.segments.iter().filter(|s| s.rpc.is_some()).count()
    }

    /// Downstream service calls (excluding storage RPCs).
    pub fn callees(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.segments.iter().filter_map(|s| match s.rpc {
            Some(RpcKind::Call { service }) => Some(service),
            _ => None,
        })
    }
}

/// Statistical profile of one service type: how its requests are built.
///
/// # Examples
///
/// ```
/// use um_workload::{ServiceId, ServiceProfile};
/// use rand::SeedableRng;
///
/// let profile = ServiceProfile::storage_leaf("kv", ServiceId::new(0), 50.0, 2);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let plan = profile.sample_plan(&mut rng);
/// assert_eq!(plan.rpc_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceProfile {
    /// Service name (the paper's app abbreviations).
    pub name: &'static str,
    /// This service's id.
    pub id: ServiceId,
    /// Distribution of per-request total CPU time.
    pub compute: ServiceTimeDist,
    /// Fixed number of storage RPCs per request.
    pub storage_calls: u32,
    /// Extra storage RPCs added geometrically (models per-request
    /// variability in data-dependent fan-out); probability of each
    /// additional call.
    pub extra_storage_p: f64,
    /// Cap on extra storage calls.
    pub extra_storage_max: u32,
    /// Downstream services called synchronously, each with an independent
    /// invocation probability.
    pub downstream: Vec<(ServiceId, f64)>,
    /// Response bytes for storage RPCs.
    pub storage_bytes: u64,
}

impl ServiceProfile {
    /// A leaf service that only performs `storage_calls` storage RPCs.
    pub fn storage_leaf(
        name: &'static str,
        id: ServiceId,
        mean_compute_us: f64,
        storage_calls: u32,
    ) -> Self {
        Self {
            name,
            id,
            compute: ServiceTimeDist::lognormal_with_mean(mean_compute_us, 0.25),
            storage_calls,
            extra_storage_p: 0.2,
            extra_storage_max: 2,
            downstream: Vec::new(),
            storage_bytes: 512,
        }
    }

    /// A mid-tier service calling the given downstream services.
    pub fn mid_tier(
        name: &'static str,
        id: ServiceId,
        mean_compute_us: f64,
        storage_calls: u32,
        downstream: Vec<(ServiceId, f64)>,
    ) -> Self {
        Self {
            name,
            id,
            compute: ServiceTimeDist::lognormal_with_mean(mean_compute_us, 0.25),
            storage_calls,
            extra_storage_p: 0.15,
            extra_storage_max: 2,
            downstream,
            storage_bytes: 512,
        }
    }

    /// Samples a concrete request plan.
    ///
    /// The sampled CPU time is split uniformly (with ±25% jitter) across
    /// `rpcs + 1` segments; storage RPCs come first, then downstream calls,
    /// matching the read-then-aggregate structure of multi-tier services.
    pub fn sample_plan<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestPlan {
        let mut plan = RequestPlan {
            service: self.id,
            segments: Vec::new(),
        };
        self.sample_plan_into(rng, &mut plan);
        plan
    }

    /// [`Self::sample_plan`] into an existing plan, reusing its segment
    /// buffer: the same draws in the same order give the same plan, bit
    /// for bit, whatever `plan` held before.
    pub fn sample_plan_into<R: Rng + ?Sized>(&self, rng: &mut R, plan: &mut RequestPlan) {
        plan.service = self.id;
        let segments = &mut plan.segments;
        segments.clear();
        let storage = self.storage_calls
            + sample_geometric(rng, self.extra_storage_p, self.extra_storage_max);
        for _ in 0..storage {
            segments.push(Segment {
                compute_us: 0.0,
                rpc: Some(RpcKind::Storage {
                    bytes: self.storage_bytes,
                }),
            });
        }
        for &(svc, p) in &self.downstream {
            if rng.gen::<f64>() < p {
                segments.push(Segment {
                    compute_us: 0.0,
                    rpc: Some(RpcKind::Call { service: svc }),
                });
            }
        }
        segments.push(Segment {
            compute_us: 0.0,
            rpc: None,
        });

        let total_us = self.compute.sample(rng).max(1.0);
        // Jittered split that still sums to total_us.
        for s in segments.iter_mut() {
            s.compute_us = 0.75 + 0.5 * rng.gen::<f64>();
        }
        let wsum: f64 = segments.iter().map(|s| s.compute_us).sum(); // um-tidy: allow(float-accumulation) -- serial fold over the fixed per-plan weight order
        for s in segments.iter_mut() {
            s.compute_us *= total_us / wsum;
        }
    }

    /// Expected number of RPCs per request.
    pub fn mean_rpcs(&self) -> f64 {
        let extra: f64 = (1..=self.extra_storage_max)
            .map(|k| self.extra_storage_p.powi(k as i32))
            .sum(); // um-tidy: allow(float-accumulation) -- serial fold over a fixed geometric series
                    // um-tidy: allow(float-accumulation) -- serial fold over the fixed downstream-edge order
        self.storage_calls as f64 + extra + self.downstream.iter().map(|&(_, p)| p).sum::<f64>()
    }
}

/// A complete application: service profiles plus the subset that external
/// clients invoke directly (the *roots*).
///
/// This is the only application type: [`crate::apps::SocialNetwork::graph`]
/// and [`crate::trainticket::TrainTicket::graph`] each build one. The
/// graph is read-only once built, so clones share one copy: a rack's
/// packages all read the same profiles.
///
/// # Examples
///
/// ```
/// use um_workload::apps::SocialNetwork;
///
/// let graph = SocialNetwork::graph();
/// assert_eq!(graph.roots(), SocialNetwork::ALL);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceGraph {
    profiles: Arc<[ServiceProfile]>,
    roots: Arc<[ServiceId]>,
}

impl ServiceGraph {
    /// Builds a graph from profiles (indexed by `ServiceId`) and roots.
    ///
    /// # Panics
    ///
    /// Panics if profiles' ids are not dense `0..n`, roots reference
    /// unknown services, or any downstream edge dangles.
    pub fn new(profiles: Vec<ServiceProfile>, roots: Vec<ServiceId>) -> Self {
        assert!(!profiles.is_empty(), "a graph needs at least one service");
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.id.index(), i, "profile ids must be dense and in order");
            for &(callee, _) in &p.downstream {
                assert!(
                    callee.index() < profiles.len(),
                    "{}: dangling downstream edge to {callee}",
                    p.name
                );
            }
        }
        assert!(!roots.is_empty(), "a graph needs at least one root");
        for r in &roots {
            assert!(r.index() < profiles.len(), "unknown root {r}");
        }
        Self {
            profiles: profiles.into(),
            roots: roots.into(),
        }
    }

    /// Number of services (roots + internal tiers).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Never empty (construction rejects empty graphs).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The externally invocable services.
    pub fn roots(&self) -> &[ServiceId] {
        &self.roots
    }

    /// Profile of a service.
    ///
    /// # Panics
    ///
    /// Panics for an unknown id.
    pub fn profile(&self, id: ServiceId) -> &ServiceProfile {
        &self.profiles[id.index()]
    }

    /// Iterates over all profiles in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceProfile> {
        self.profiles.iter()
    }

    /// Samples a request plan for `service`.
    pub fn sample_plan<R: Rng + ?Sized>(&self, service: ServiceId, rng: &mut R) -> RequestPlan {
        self.profile(service).sample_plan(rng)
    }

    /// Samples a request plan for `service` into `plan`, reusing its
    /// segment buffer (see [`ServiceProfile::sample_plan_into`]).
    pub fn sample_plan_into<R: Rng + ?Sized>(
        &self,
        service: ServiceId,
        rng: &mut R,
        plan: &mut RequestPlan,
    ) {
        self.profile(service).sample_plan_into(rng, plan);
    }

    /// Expands a root plan into the full tree of plans it will trigger,
    /// root first.
    ///
    /// # Panics
    ///
    /// Panics if expansion exceeds 10 000 invocations (a cyclic graph).
    pub fn expand_tree<R: Rng + ?Sized>(&self, root: ServiceId, rng: &mut R) -> Vec<RequestPlan> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        let mut guard = 0;
        while let Some(svc) = stack.pop() {
            guard += 1;
            assert!(guard < 10_000, "call graph expansion runaway");
            let plan = self.sample_plan(svc, rng);
            stack.extend(plan.callees());
            out.push(plan);
        }
        out
    }

    /// Mean number of service invocations a request of `root` triggers.
    pub fn mean_tree_size<R: Rng + ?Sized>(
        &self,
        root: ServiceId,
        rng: &mut R,
        samples: usize,
    ) -> f64 {
        (0..samples)
            .map(|_| self.expand_tree(root, rng).len())
            .sum::<usize>() as f64
            / samples as f64
    }

    /// Mean CPU time per *invocation* over `samples` expanded trees of
    /// every root, in reference-core microseconds — the calibration figure
    /// behind the paper's "average execution time of a service request is
    /// 120 us" (§3.3).
    pub fn mean_invocation_compute_us<R: Rng + ?Sized>(&self, rng: &mut R, samples: usize) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for &root in self.roots() {
            for _ in 0..samples {
                for plan in self.expand_tree(root, rng) {
                    total += plan.compute_us();
                    count += 1;
                }
            }
        }
        total / count as f64
    }

    /// Asserts the call graph is acyclic (DFS from every root).
    ///
    /// # Panics
    ///
    /// Panics on the first cycle found.
    pub fn assert_acyclic(&self) {
        fn dfs(g: &ServiceGraph, id: ServiceId, path: &mut Vec<ServiceId>) {
            assert!(!path.contains(&id), "cycle through {id}");
            path.push(id);
            for &(callee, _) in &g.profile(id).downstream {
                dfs(g, callee, path);
            }
            path.pop();
        }
        for &root in self.roots() {
            dfs(self, root, &mut Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn plan_segments_bracket_rpcs() {
        let p = ServiceProfile::storage_leaf("kv", ServiceId::new(1), 100.0, 3);
        let mut r = rng();
        for _ in 0..100 {
            let plan = p.sample_plan(&mut r);
            assert_eq!(plan.segments.len(), plan.rpc_count() + 1);
            assert!(plan.segments.last().expect("nonempty").rpc.is_none());
        }
    }

    #[test]
    fn compute_splits_sum_to_total() {
        let p = ServiceProfile::storage_leaf("kv", ServiceId::new(1), 100.0, 2);
        let mut r = rng();
        let plan = p.sample_plan(&mut r);
        let total = plan.compute_us();
        assert!(total > 0.0);
        // Each segment got a positive share.
        for seg in &plan.segments {
            assert!(seg.compute_us > 0.0);
        }
    }

    #[test]
    fn downstream_probability_respected() {
        let callee = ServiceId::new(7);
        let p = ServiceProfile::mid_tier("agg", ServiceId::new(2), 50.0, 0, vec![(callee, 0.5)]);
        let mut r = rng();
        let calls = (0..10_000)
            .filter(|_| p.sample_plan(&mut r).callees().any(|c| c == callee))
            .count();
        let frac = calls as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "callee fraction {frac}");
    }

    #[test]
    fn always_invoked_downstream() {
        let callee = ServiceId::new(9);
        let p = ServiceProfile::mid_tier("agg", ServiceId::new(2), 50.0, 1, vec![(callee, 1.0)]);
        let mut r = rng();
        for _ in 0..50 {
            let plan = p.sample_plan(&mut r);
            assert!(plan.callees().any(|c| c == callee));
            assert!(plan.rpc_count() >= 2); // 1 storage + 1 call
        }
    }

    #[test]
    fn mean_rpcs_close_to_empirical() {
        let p = ServiceProfile::storage_leaf("kv", ServiceId::new(1), 100.0, 2);
        let mut r = rng();
        let emp: f64 = (0..20_000)
            .map(|_| p.sample_plan(&mut r).rpc_count() as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!(
            (emp - p.mean_rpcs()).abs() < 0.05,
            "emp {emp} vs {}",
            p.mean_rpcs()
        );
    }

    #[test]
    fn service_id_display() {
        assert_eq!(ServiceId::new(4).to_string(), "svc4");
    }

    #[test]
    fn service_graph_validates() {
        let leaf = ServiceProfile::storage_leaf("leaf", ServiceId::new(0), 50.0, 1);
        let root = ServiceProfile::mid_tier(
            "root",
            ServiceId::new(1),
            80.0,
            0,
            vec![(ServiceId::new(0), 1.0)],
        );
        let g = ServiceGraph::new(vec![leaf, root], vec![ServiceId::new(1)]);
        assert_eq!(g.len(), 2);
        g.assert_acyclic();
        let mut r = rng();
        let tree = g.expand_tree(ServiceId::new(1), &mut r);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn service_graph_rejects_dangling_edges() {
        let bad = ServiceProfile::mid_tier(
            "bad",
            ServiceId::new(0),
            80.0,
            0,
            vec![(ServiceId::new(9), 1.0)],
        );
        ServiceGraph::new(vec![bad], vec![ServiceId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn service_graph_rejects_misordered_ids() {
        let p = ServiceProfile::storage_leaf("x", ServiceId::new(3), 50.0, 1);
        ServiceGraph::new(vec![p], vec![ServiceId::new(0)]);
    }
}
