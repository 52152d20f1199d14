//! Microservice workload generation (paper §3, §5).
//!
//! The paper drives its evaluation with three workload sources, all rebuilt
//! here:
//!
//! 1. **DeathStarBench SocialNetwork** (§5): eight services with a
//!    multi-tier call graph, ~120 us mean request execution and ~3.1 RPC
//!    invocations per request. [`apps`] builds it as a [`ServiceGraph`] of
//!    statistical service profiles (as [`trainticket`] builds TrainTicket);
//!    [`service`] turns a profile into an executable [`RequestPlan`] —
//!    compute segments separated by blocking storage accesses and
//!    downstream service calls.
//! 2. **Alibaba production traces** (§3): [`alibaba`] synthesizes traces
//!    whose marginals match the published CDFs — per-server RPS burstiness
//!    (Figure 2), per-request CPU utilization (Figure 4) and RPC counts
//!    (Figure 5).
//! 3. **Synthetic uSuite-style benchmarks** (§5, §6.7): [`synthetic`]
//!    builds exponential / lognormal / bimodal service-time workloads with
//!    2–6 blocking calls.
//!
//! Supporting modules: [`dist`] (service-time distributions and samplers),
//! [`arrivals`] (Poisson and bursty MMPP arrival processes), and [`trace`]
//! (synthetic instruction/data address streams for the Figure 9 cache
//! experiment).
//!
//! # Examples
//!
//! ```
//! use um_workload::apps::SocialNetwork;
//! use rand::SeedableRng;
//!
//! let graph = SocialNetwork::graph();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let plan = graph.sample_plan(SocialNetwork::CPOST, &mut rng);
//! assert!(plan.segments.len() >= 2); // ComposePost always fans out
//! ```

#![warn(missing_docs)]

pub mod alibaba;
pub mod apps;
pub mod arrivals;
pub mod dist;
pub mod service;
pub mod synthetic;
pub mod trace;
pub mod trainticket;

pub use arrivals::{Mmpp, PoissonArrivals};
pub use dist::ServiceTimeDist;
pub use service::{RequestPlan, RpcKind, Segment, ServiceGraph, ServiceId, ServiceProfile};
