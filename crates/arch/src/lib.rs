//! Machine architecture models for the uManycore reproduction (paper §4, §5).
//!
//! This crate assembles the substrates into *machines* — the three systems
//! Table 2 parameterizes — and supplies the architecture-level models the
//! evaluation needs:
//!
//! - [`CoreModel`]: first-order out-of-order core timing (issue width, ROB,
//!   frequency → relative single-thread performance).
//! - [`MachineConfig`]: full descriptions of ServerClass (40/128 cores),
//!   ScaleOut (1024 cores) and uManycore (1024 cores in villages/clusters),
//!   including the Figure 19 topology-shape sweep.
//! - [`coherence`]: cache-coherence overhead as a function of domain size —
//!   the villages argument of §4.1.
//! - [`power`]: the analytic area/power model substituting CACTI + McPAT,
//!   calibrated to the paper's published absolute numbers (§5, §6.8).
//! - [`uarch_opt`]: effectiveness models of the four published
//!   microarchitectural optimizations behind Figure 1.
//! - [`ServiceMap`]: the top-level NIC's service-to-village dispatch table
//!   with round-robin forwarding (§4.2).
//!
//! # Examples
//!
//! ```
//! use um_arch::MachineConfig;
//!
//! let um = MachineConfig::umanycore();
//! let sc = MachineConfig::server_class_iso_power();
//! assert_eq!(um.total_cores(), 1024);
//! assert_eq!(sc.total_cores(), 40);
//! // Both burn roughly the same power (that is what iso-power means).
//! let ratio = um.power_watts() / sc.power_watts();
//! assert!((0.8..1.25).contains(&ratio));
//! ```

#![warn(missing_docs)]

pub mod coherence;
pub mod config;
pub mod core_model;
pub mod power;
pub mod servicemap;
pub mod uarch_opt;

pub use config::{MachineConfig, MachineKind, TopologyShape};
pub use core_model::CoreModel;
pub use servicemap::ServiceMap;
