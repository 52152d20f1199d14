//! The DeathStarBench SocialNetwork application suite (paper §5).
//!
//! The paper evaluates the 8 Social Network front/mid-tier services
//! (Figure 14's x-axis): Text, SocialGraph (SGraph), User, PostStorage
//! (PstStr), UserMention (UsrMnt), HomeTimeline (HomeT), ComposePost
//! (CPost) and UrlShorten (UrlShort). In DeathStarBench these services do
//! not talk to an external database — the storage tier (Redis, MongoDB,
//! Memcached instances) runs as *more services on the same cluster*, so a
//! root request fans out into a multi-level tree of on-package service
//! invocations. We model the three backend tiers explicitly, which is what
//! gives root requests their realistic tree sizes (a ComposePost touches
//! around ten service instances) and puts the storage traffic
//! on the on-package ICN where the paper's contention analysis lives.
//!
//! Aggregate statistics are calibrated to the paper's characterization:
//! ~120 us mean per-invocation execution time and ~3 RPCs per request
//! (§3.3).

use crate::service::{ServiceGraph, ServiceId, ServiceProfile};

/// The SocialNetwork application: eight root services plus the three
/// storage-backend tiers they call. Its ids and roots name the services of
/// the [`ServiceGraph`] that [`SocialNetwork::graph`] builds.
///
/// # Examples
///
/// ```
/// use um_workload::apps::SocialNetwork;
///
/// let graph = SocialNetwork::graph();
/// assert_eq!(graph.len(), 11); // 8 apps + Redis + MongoDB + Memcached
/// assert_eq!(graph.profile(SocialNetwork::SGRAPH).name, "SGraph");
/// ```
pub enum SocialNetwork {}

impl SocialNetwork {
    /// Text processing service.
    pub const TEXT: ServiceId = ServiceId::new(0);
    /// Social graph service (storage heavy, frequently invoked).
    pub const SGRAPH: ServiceId = ServiceId::new(1);
    /// User service.
    pub const USER: ServiceId = ServiceId::new(2);
    /// Post storage service.
    pub const PST_STR: ServiceId = ServiceId::new(3);
    /// User mention service.
    pub const USR_MNT: ServiceId = ServiceId::new(4);
    /// Home timeline service (high fan-out reader).
    pub const HOME_T: ServiceId = ServiceId::new(5);
    /// Compose post service (the deepest call chain).
    pub const CPOST: ServiceId = ServiceId::new(6);
    /// URL shortening service (shallow leaf).
    pub const URL_SHORT: ServiceId = ServiceId::new(7);
    /// Redis-like in-memory store tier.
    pub const REDIS: ServiceId = ServiceId::new(8);
    /// MongoDB-like document store tier.
    pub const MONGO: ServiceId = ServiceId::new(9);
    /// Memcached-like cache tier.
    pub const MEMC: ServiceId = ServiceId::new(10);

    /// The eight *root* services in the paper's figure order (backends are
    /// only reached through these).
    pub const ALL: [ServiceId; 8] = [
        Self::TEXT,
        Self::SGRAPH,
        Self::USER,
        Self::PST_STR,
        Self::USR_MNT,
        Self::HOME_T,
        Self::CPOST,
        Self::URL_SHORT,
    ];

    /// Builds the application graph, rooted at [`Self::ALL`].
    pub fn graph() -> ServiceGraph {
        // A storage-backend tier: pure handler compute, no further service
        // calls; a small probability of one genuinely external storage
        // access (disk path / cross-cluster replication).
        let backend = |name, id, compute_us| {
            let mut p = ServiceProfile::storage_leaf(name, id, compute_us, 0);
            p.extra_storage_p = 0.08;
            p.extra_storage_max = 1;
            p
        };
        let profiles = vec![
            // Text: tokenizes the post, resolves urls and mentions.
            ServiceProfile::mid_tier(
                "Text",
                Self::TEXT,
                150.0,
                0,
                vec![
                    (Self::URL_SHORT, 0.9),
                    (Self::USR_MNT, 0.5),
                    (Self::MEMC, 0.4),
                ],
            ),
            // SGraph: follower/followee lookups against Redis + MongoDB.
            ServiceProfile::mid_tier(
                "SGraph",
                Self::SGRAPH,
                120.0,
                0,
                vec![(Self::REDIS, 1.0), (Self::REDIS, 0.6), (Self::MONGO, 0.8)],
            ),
            // User: profile lookups.
            ServiceProfile::mid_tier(
                "User",
                Self::USER,
                135.0,
                0,
                vec![(Self::MONGO, 1.0), (Self::MEMC, 0.8)],
            ),
            // PstStr: post read/write.
            ServiceProfile::mid_tier(
                "PstStr",
                Self::PST_STR,
                100.0,
                0,
                vec![(Self::MONGO, 1.0), (Self::REDIS, 0.8)],
            ),
            // UsrMnt: resolves mentioned users via the User service.
            ServiceProfile::mid_tier(
                "UsrMnt",
                Self::USR_MNT,
                105.0,
                0,
                vec![(Self::USER, 1.0), (Self::MEMC, 0.7)],
            ),
            // HomeT: reads the timeline: posts + social graph + cache.
            ServiceProfile::mid_tier(
                "HomeT",
                Self::HOME_T,
                130.0,
                0,
                vec![
                    (Self::PST_STR, 1.0),
                    (Self::SGRAPH, 0.8),
                    (Self::REDIS, 0.6),
                ],
            ),
            // CPost: the write path; touches nearly everything.
            ServiceProfile::mid_tier(
                "CPost",
                Self::CPOST,
                200.0,
                0,
                vec![
                    (Self::TEXT, 0.8),
                    (Self::PST_STR, 0.7),
                    (Self::HOME_T, 0.15),
                    (Self::MONGO, 0.6),
                ],
            ),
            // UrlShort: hash + one cache write.
            ServiceProfile::mid_tier(
                "UrlShort",
                Self::URL_SHORT,
                85.0,
                0,
                vec![(Self::MEMC, 1.0)],
            ),
            // Storage tiers.
            backend("Redis", Self::REDIS, 90.0),
            backend("MongoDB", Self::MONGO, 140.0),
            backend("Memcached", Self::MEMC, 70.0),
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
        SmallRng::seed_from_u64(2024)
    }

    #[test]
    fn roots_in_figure_order() {
        let graph = SocialNetwork::graph();
        let names: Vec<&str> = SocialNetwork::ALL
            .iter()
            .map(|&id| graph.profile(id).name)
            .collect();
        assert_eq!(
            names,
            ["Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost", "UrlShort"]
        );
        assert_eq!(graph.profile(SocialNetwork::REDIS).name, "Redis");
    }

    #[test]
    fn call_graph_is_acyclic() {
        SocialNetwork::graph().assert_acyclic();
    }

    #[test]
    fn mean_invocation_near_120us() {
        let graph = SocialNetwork::graph();
        let mut r = rng();
        let mean = graph.mean_invocation_compute_us(&mut r, 300);
        assert!(
            (95.0..150.0).contains(&mean),
            "mean invocation compute {mean} us, paper reports ~120"
        );
    }

    #[test]
    fn tree_sizes_are_multi_tier() {
        let graph = SocialNetwork::graph();
        let mut r = rng();
        let url = graph.mean_tree_size(SocialNetwork::URL_SHORT, &mut r, 500);
        let cpost = graph.mean_tree_size(SocialNetwork::CPOST, &mut r, 500);
        assert!((1.5..3.0).contains(&url), "UrlShort tree {url}");
        assert!((7.0..14.0).contains(&cpost), "CPost tree {cpost}");
        // Suite-wide average: several invocations per root.
        let mix: f64 = SocialNetwork::ALL
            .iter()
            .map(|&root| graph.mean_tree_size(root, &mut r, 200))
            .sum::<f64>()
            / 8.0;
        assert!((3.5..8.0).contains(&mix), "mean tree size {mix}");
    }

    #[test]
    fn rpcs_per_invocation_near_paper() {
        // Paper §3.3: requests average ~3 RPC invocations; our roots issue
        // 1-4 calls each.
        let graph = SocialNetwork::graph();
        let mut r = rng();
        let mut total = 0.0;
        let mut n = 0;
        for &root in &SocialNetwork::ALL {
            for _ in 0..2_000 {
                total += graph.sample_plan(root, &mut r).rpc_count() as f64;
                n += 1;
            }
        }
        let mean = total / n as f64;
        assert!((1.5..4.5).contains(&mean), "mean rpcs {mean}, paper ~3.1");
    }

    #[test]
    fn backends_are_leaves() {
        let graph = SocialNetwork::graph();
        let mut r = rng();
        for &leaf in &[
            SocialNetwork::REDIS,
            SocialNetwork::MONGO,
            SocialNetwork::MEMC,
        ] {
            for _ in 0..50 {
                let plan = graph.sample_plan(leaf, &mut r);
                assert_eq!(plan.callees().count(), 0);
            }
        }
    }

    #[test]
    fn backends_rarely_touch_external_storage() {
        let graph = SocialNetwork::graph();
        let mut r = rng();
        let with_storage = (0..10_000)
            .filter(|_| graph.sample_plan(SocialNetwork::REDIS, &mut r).rpc_count() > 0)
            .count();
        let frac = with_storage as f64 / 10_000.0;
        assert!(
            (0.04..0.13).contains(&frac),
            "external storage fraction {frac}"
        );
    }

    #[test]
    fn expansion_contains_transitive_callees() {
        let graph = SocialNetwork::graph();
        let mut r = rng();
        // CPost -> Text -> UsrMnt -> User -> MongoDB should appear often.
        let mut seen_mongo = 0;
        for _ in 0..200 {
            let tree = graph.expand_tree(SocialNetwork::CPOST, &mut r);
            if tree.iter().any(|p| p.service == SocialNetwork::MONGO) {
                seen_mongo += 1;
            }
        }
        assert!(
            seen_mongo > 150,
            "MongoDB reached in {seen_mongo}/200 trees"
        );
    }
}
