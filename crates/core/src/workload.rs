//! Workload selection for system runs.

use rand::Rng;
use um_workload::apps::SocialNetwork;
use um_workload::synthetic::SyntheticWorkload;
use um_workload::trainticket::TrainTicket;
use um_workload::{RequestPlan, ServiceGraph, ServiceId};

/// Which workload a system run draws requests from.
#[derive(Clone, Debug)]
pub enum Workload {
    /// An application graph (SocialNetwork, TrainTicket or a custom one);
    /// `root` pins one externally invoked service, `None` draws uniformly
    /// over the graph's roots. Nested calls still reach the whole graph.
    Graph {
        /// The application graph.
        graph: ServiceGraph,
        /// Optional fixed root.
        root: Option<ServiceId>,
    },
    /// A synthetic uSuite-style workload (Figure 20).
    Synthetic(SyntheticWorkload),
}

impl Workload {
    /// A single SocialNetwork root service (a Figure 14 per-app run).
    pub fn social_app(root: ServiceId) -> Self {
        Workload::Graph {
            graph: SocialNetwork::graph(),
            root: Some(root),
        }
    }

    /// The uniform mix over the eight SocialNetwork roots (Figures 3, 6, 7).
    pub fn social_mix() -> Self {
        Workload::Graph {
            graph: SocialNetwork::graph(),
            root: None,
        }
    }

    /// A uniform mix over the TrainTicket suite's root services (§3 also
    /// characterizes TrainTicket; see `um_workload::trainticket`).
    pub fn train_mix() -> Self {
        Workload::Graph {
            graph: TrainTicket::graph(),
            root: None,
        }
    }

    /// A single TrainTicket root service.
    pub fn train_app(root: ServiceId) -> Self {
        Workload::Graph {
            graph: TrainTicket::graph(),
            root: Some(root),
        }
    }

    /// All service ids this workload can enqueue (used to populate
    /// ServiceMaps).
    pub fn services(&self) -> Vec<ServiceId> {
        match self {
            Workload::Graph { graph, .. } => (0..graph.len() as u32).map(ServiceId::new).collect(),
            Workload::Synthetic(_) => vec![um_workload::synthetic::SYNTHETIC_SERVICE],
        }
    }

    /// Samples the root service for the next external request.
    pub fn sample_root<R: Rng + ?Sized>(&self, rng: &mut R) -> ServiceId {
        match self {
            Workload::Graph { graph, root } => {
                root.unwrap_or_else(|| graph.roots()[rng.gen_range(0..graph.roots().len())])
            }
            Workload::Synthetic(_) => um_workload::synthetic::SYNTHETIC_SERVICE,
        }
    }

    /// Mean handler compute of a service in reference-core microseconds —
    /// the weight used to steer heavy services to big-core villages in the
    /// heterogeneous-villages extension (§8).
    pub fn service_weight(&self, service: ServiceId) -> f64 {
        match self {
            Workload::Graph { graph, .. } => graph.profile(service).compute.mean(),
            Workload::Synthetic(w) => w.service_time.mean(),
        }
    }

    /// Samples an execution plan for a request of `service`.
    ///
    /// # Panics
    ///
    /// Panics if a synthetic workload is asked for a non-synthetic service.
    pub fn sample_plan<R: Rng + ?Sized>(&self, service: ServiceId, rng: &mut R) -> RequestPlan {
        let mut plan = RequestPlan {
            service,
            segments: Vec::new(),
        };
        self.sample_plan_into(service, rng, &mut plan);
        plan
    }

    /// [`Self::sample_plan`] into an existing plan, reusing its segment
    /// buffer: the same draws in the same order give the same plan, bit
    /// for bit, whatever `plan` held before.
    ///
    /// # Panics
    ///
    /// Panics if a synthetic workload is asked for a non-synthetic service.
    pub fn sample_plan_into<R: Rng + ?Sized>(
        &self,
        service: ServiceId,
        rng: &mut R,
        plan: &mut RequestPlan,
    ) {
        match self {
            Workload::Graph { graph, .. } => graph.sample_plan_into(service, rng, plan),
            Workload::Synthetic(w) => {
                assert_eq!(
                    service,
                    um_workload::synthetic::SYNTHETIC_SERVICE,
                    "synthetic workload only serves the synthetic service"
                );
                w.sample_plan_into(rng, plan)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use um_workload::ServiceTimeDist;

    #[test]
    fn social_app_always_roots_at_app() {
        let w = Workload::social_app(SocialNetwork::SGRAPH);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(w.sample_root(&mut rng), SocialNetwork::SGRAPH);
        }
        assert_eq!(w.services().len(), 11); // 8 roots + 3 backend tiers
    }

    #[test]
    fn mix_covers_all_roots() {
        let w = Workload::social_mix();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(w.sample_root(&mut rng));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn synthetic_single_service() {
        let w = Workload::Synthetic(SyntheticWorkload::new(
            ServiceTimeDist::exponential(100.0),
            2,
            6,
        ));
        let mut rng = SmallRng::seed_from_u64(3);
        let svc = w.sample_root(&mut rng);
        let plan = w.sample_plan(svc, &mut rng);
        assert_eq!(plan.service, svc);
        assert_eq!(w.services(), vec![svc]);
    }

    #[test]
    fn train_ticket_workload_runs() {
        let w = Workload::train_mix();
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(w.services().len(), 12);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let root = w.sample_root(&mut rng);
            seen.insert(root);
            let plan = w.sample_plan(root, &mut rng);
            assert_eq!(plan.service, root);
        }
        assert_eq!(seen.len(), 4, "all four TrainTicket roots appear");
        let pinned = Workload::train_app(um_workload::trainticket::TrainTicket::ORDER);
        assert_eq!(
            pinned.sample_root(&mut rng),
            um_workload::trainticket::TrainTicket::ORDER
        );
    }
}
