//! # uManycore — a cloud-native manycore CPU simulator for tail at scale
//!
//! This crate is the top of the reproduction of *uManycore: A Cloud-Native
//! CPU for Tail at Scale* (ISCA 2023): a discrete-event, full-system
//! simulator that composes the substrate crates (`um-sim`, `um-mem`,
//! `um-net`, `um-sched`, `um-workload`, `um-arch`) into the paper's three
//! machines and runs the paper's experiments end to end.
//!
//! ## What is modelled
//!
//! - **Machines**: ServerClass (40/128 IceLake-class cores, 2D mesh,
//!   software scheduling), ScaleOut (1024 A15-class cores, global
//!   coherence, fat tree, software scheduling), and uManycore (1024 cores
//!   in 8-core villages, leaf-spine ICN, hardware request queues, hardware
//!   context switching).
//! - **Requests**: sampled from the DeathStarBench-like SocialNetwork
//!   graph or the synthetic uSuite-style workloads; each request executes
//!   compute segments separated by blocking storage RPCs and synchronous
//!   downstream service calls, exactly as §3.3 characterizes.
//! - **Overheads**: software RPC-layer processing on cores vs hardware NIC
//!   processing (§4.3), context-switch save/restore costs with a
//!   centralized software dispatcher for the baselines (§4.4), coherence
//!   and migration overheads by domain size (§4.1), and on-package ICN
//!   contention by topology (§4.2).
//!
//! ## Quick start
//!
//! ```
//! use umanycore::{SimConfig, SystemSim, Workload};
//! use um_arch::MachineConfig;
//!
//! let cfg = SimConfig {
//!     machine: MachineConfig::umanycore(),
//!     workload: Workload::social_mix(),
//!     rps_per_server: 5_000.0,
//!     servers: 1,
//!     horizon_us: 30_000.0,
//!     seed: 42,
//!     ..SimConfig::default()
//! };
//! let report = SystemSim::new(cfg).run();
//! assert!(report.latency.count > 50);
//! assert!(report.latency.p99 >= report.latency.mean);
//! ```
//!
//! The `um-bench` crate contains one binary per paper figure/table; see
//! EXPERIMENTS.md at the repository root for the index.

#![warn(missing_docs)]
// A function past clippy's default 100 lines (blanks and comments not
// counted) does more than one thing; split it by mechanism instead.
#![deny(clippy::too_many_lines)]

pub mod cluster;
pub mod experiments;
pub mod params;
pub mod qos;
pub mod report;
pub mod request;
pub mod system;
pub mod workload;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim, RoutingPolicy};
pub use report::{FaultStats, RunReport};
pub use system::{ArrivalProcess, SimConfig, SystemSim};
pub use workload::Workload;
