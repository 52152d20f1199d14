//! The TrainTicket application suite (paper §3).
//!
//! Besides DeathStarBench, the paper's characterization runs TrainTicket
//! \[96\], a train-booking system and the other large open-source
//! microservice benchmark. We model its booking-path core: query/order/
//! payment front services over station, train, route, seat and user
//! mid-tiers, backed by the same storage tiers as the SocialNetwork suite
//! (MySQL-like and Redis-like instances running on the cluster).
//!
//! The paper reports that its results "are similar for the other
//! applications of the benchmark suite"; the `other_suites` bench checks
//! that claim against this graph.

use crate::service::{ServiceGraph, ServiceId, ServiceProfile};

/// The TrainTicket booking-path application. Its ids and roots name the
/// services of the [`ServiceGraph`] that [`TrainTicket::graph`] builds.
///
/// # Examples
///
/// ```
/// use um_workload::trainticket::TrainTicket;
///
/// let graph = TrainTicket::graph();
/// assert_eq!(graph.len(), 12);
/// assert_eq!(graph.roots(), TrainTicket::ALL);
/// ```
pub enum TrainTicket {}

impl TrainTicket {
    /// Travel query: search trips between stations.
    pub const TRAVEL: ServiceId = ServiceId::new(0);
    /// Ticket ordering (the write path).
    pub const ORDER: ServiceId = ServiceId::new(1);
    /// Payment processing.
    pub const PAYMENT: ServiceId = ServiceId::new(2);
    /// Ticket cancellation / rebooking.
    pub const CANCEL: ServiceId = ServiceId::new(3);
    /// Station metadata service.
    pub const STATION: ServiceId = ServiceId::new(4);
    /// Train metadata service.
    pub const TRAIN: ServiceId = ServiceId::new(5);
    /// Route computation service.
    pub const ROUTE: ServiceId = ServiceId::new(6);
    /// Seat inventory service.
    pub const SEAT: ServiceId = ServiceId::new(7);
    /// User/auth service.
    pub const USER: ServiceId = ServiceId::new(8);
    /// Notification (email/push) service.
    pub const NOTIFY: ServiceId = ServiceId::new(9);
    /// MySQL-like relational store tier.
    pub const MYSQL: ServiceId = ServiceId::new(10);
    /// Redis-like cache tier.
    pub const REDIS: ServiceId = ServiceId::new(11);

    /// The root services external clients invoke.
    pub const ALL: [ServiceId; 4] = [Self::TRAVEL, Self::ORDER, Self::PAYMENT, Self::CANCEL];

    /// Builds the application graph, rooted at [`Self::ALL`].
    pub fn graph() -> ServiceGraph {
        let backend = |name, id, compute_us| {
            let mut p = ServiceProfile::storage_leaf(name, id, compute_us, 0);
            p.extra_storage_p = 0.08;
            p.extra_storage_max = 1;
            p
        };
        let profiles = vec![
            // Travel query: route + train + seat availability fan-out.
            ServiceProfile::mid_tier(
                "Travel",
                Self::TRAVEL,
                160.0,
                0,
                vec![
                    (Self::ROUTE, 1.0),
                    (Self::TRAIN, 0.9),
                    (Self::SEAT, 0.8),
                    (Self::REDIS, 0.6),
                ],
            ),
            // Order: the booking write path.
            ServiceProfile::mid_tier(
                "Order",
                Self::ORDER,
                190.0,
                0,
                vec![
                    (Self::USER, 1.0),
                    (Self::SEAT, 1.0),
                    (Self::MYSQL, 0.9),
                    (Self::NOTIFY, 0.5),
                ],
            ),
            // Payment: verify user, settle, persist.
            ServiceProfile::mid_tier(
                "Payment",
                Self::PAYMENT,
                140.0,
                0,
                vec![(Self::USER, 1.0), (Self::MYSQL, 1.0), (Self::NOTIFY, 0.4)],
            ),
            // Cancel: release seat, refund, notify.
            ServiceProfile::mid_tier(
                "Cancel",
                Self::CANCEL,
                130.0,
                0,
                vec![(Self::SEAT, 1.0), (Self::MYSQL, 0.8), (Self::NOTIFY, 0.7)],
            ),
            // Mid-tiers.
            ServiceProfile::mid_tier("Station", Self::STATION, 80.0, 0, vec![(Self::REDIS, 0.9)]),
            ServiceProfile::mid_tier(
                "Train",
                Self::TRAIN,
                90.0,
                0,
                vec![(Self::REDIS, 0.8), (Self::MYSQL, 0.4)],
            ),
            ServiceProfile::mid_tier(
                "Route",
                Self::ROUTE,
                150.0,
                0,
                vec![(Self::STATION, 1.0), (Self::REDIS, 0.7)],
            ),
            ServiceProfile::mid_tier(
                "Seat",
                Self::SEAT,
                100.0,
                0,
                vec![(Self::MYSQL, 0.9), (Self::REDIS, 0.6)],
            ),
            ServiceProfile::mid_tier(
                "User",
                Self::USER,
                110.0,
                0,
                vec![(Self::MYSQL, 0.9), (Self::REDIS, 0.5)],
            ),
            // Notification: fire-and-forget-ish leaf with occasional
            // external SMTP access.
            {
                let mut p = ServiceProfile::storage_leaf("Notify", Self::NOTIFY, 70.0, 0);
                p.extra_storage_p = 0.3;
                p.extra_storage_max = 1;
                p
            },
            backend("MySQL", Self::MYSQL, 150.0),
            backend("Redis", Self::REDIS, 85.0),
        ];
        ServiceGraph::new(profiles, Self::ALL.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn graph_is_valid_and_acyclic() {
        TrainTicket::graph().assert_acyclic();
    }

    #[test]
    fn roots_and_names() {
        let graph = TrainTicket::graph();
        let names: Vec<&str> = TrainTicket::ALL
            .iter()
            .map(|&id| graph.profile(id).name)
            .collect();
        assert_eq!(names, ["Travel", "Order", "Payment", "Cancel"]);
    }

    #[test]
    fn trees_are_multi_tier() {
        let graph = TrainTicket::graph();
        let mut r = rng();
        let travel = graph.mean_tree_size(TrainTicket::TRAVEL, &mut r, 400);
        assert!((4.0..10.0).contains(&travel), "Travel tree {travel}");
        let order = graph.mean_tree_size(TrainTicket::ORDER, &mut r, 400);
        assert!((5.0..11.0).contains(&order), "Order tree {order}");
    }

    #[test]
    fn mean_invocation_compute_near_social_network() {
        // §3.3's ~120 us per-invocation figure holds across suites.
        let graph = TrainTicket::graph();
        let mean = graph.mean_invocation_compute_us(&mut rng(), 300);
        assert!((95.0..155.0).contains(&mean), "mean invocation {mean} us");
    }

    #[test]
    fn backends_are_leaves() {
        let graph = TrainTicket::graph();
        let mut r = rng();
        for &leaf in &[TrainTicket::MYSQL, TrainTicket::REDIS, TrainTicket::NOTIFY] {
            for _ in 0..50 {
                assert_eq!(graph.sample_plan(leaf, &mut r).callees().count(), 0);
            }
        }
    }
}
