//! On-package and inter-server interconnect models (paper §3.4, §4.2).
//!
//! The paper shows that on-package interconnect (ICN) contention is a major
//! tail-latency source (Figure 7) and proposes a hierarchical leaf-spine
//! topology with many redundant low-hop paths (§4.2, Figure 12). This crate
//! implements the three ICNs the evaluation compares, plus the inter-server
//! datacenter network:
//!
//! - [`Mesh2D`]: the ServerClass 2D mesh with XY routing.
//! - [`FatTree`]: the ScaleOut binary fat tree (63 network hubs, 10-hop
//!   worst case for 32 clusters).
//! - [`LeafSpine`]: uManycore's 3-level hierarchical leaf-spine (32 leaf
//!   NHs, 4 pods of 4 second-level NHs, 8 third-level NHs; 4-hop worst
//!   case, ECMP over redundant paths).
//! - [`Network`]: wraps a topology with per-link serialization and
//!   backpressure, modelling contention as link occupancy (the on-package
//!   network is lossless with back-pressure, §4.1, so queueing — never
//!   loss — is the contention mechanism).
//! - [`ExternalNetwork`]: the 1 us-RTT, 200 GB/s inter-server fabric
//!   (Table 2).
//!
//! # Examples
//!
//! ```
//! use um_net::{LeafSpine, Network, NetworkConfig, Topology};
//!
//! let topo = LeafSpine::paper_default(); // 32 clusters, 4 pods
//! assert_eq!(topo.endpoints(), 32);
//! let mut net = Network::new(topo, NetworkConfig::on_package());
//! let arrive = net.send(0, 31, 256, um_sim::Cycles::ZERO);
//! assert!(arrive > um_sim::Cycles::ZERO);
//! ```

#![warn(missing_docs)]

pub mod external;
pub mod fattree;
pub mod leafspine;
pub mod mesh;
pub mod network;
pub mod topology;

pub use external::ExternalNetwork;
pub use fattree::FatTree;
pub use leafspine::LeafSpine;
pub use mesh::Mesh2D;
pub use network::{Network, NetworkConfig, NetworkStats, RouteStrategy};
pub use topology::{LinkId, Topology};
