//! Memory-system models for the uManycore reproduction.
//!
//! The paper's evaluation rests on a conventional cache/TLB hierarchy (Table
//! 2, Figure 9), a DRAM main memory (DRAMSim2 in the original), a
//! read-mostly SRAM *memory pool* chiplet holding service snapshots (§3.5,
//! §4.1), and a characterization of handler memory footprints and sharing
//! (Figure 8). This crate implements all of them from scratch:
//!
//! - [`Cache`]: set-associative, LRU, write-back cache with hit/miss
//!   statistics ([`cache`]).
//! - [`Tlb`]: a TLB as a page-granularity cache ([`tlb`]).
//! - [`MemoryHierarchy`]: composes L1I/L1D/L2(/L3) and TLB levels with the
//!   paper's round-trip latencies, bounding outstanding misses by the
//!   configured MSHR count ([`hierarchy`]).
//! - [`DramModel`]: channel/bank queueing main-memory model ([`dram`]).
//! - [`footprint`]: handler/initialization footprint sharing (Figure 8).
//! - [`pool`]: the per-cluster snapshot memory pool and instance boot-time
//!   model.
//!
//! # Examples
//!
//! ```
//! use um_mem::cache::{Cache, CacheConfig};
//!
//! // The paper's 64 KB, 8-way, 64 B-line L1.
//! let mut l1 = Cache::new(CacheConfig::new(64 * 1024, 8, 64));
//! l1.access(0x1000, false);
//! assert!(l1.access(0x1000, false).is_hit()); // second touch hits
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod footprint;
pub mod hierarchy;
pub mod pool;
pub mod tlb;

pub use cache::{AccessResult, Cache, CacheConfig};
pub use dram::DramModel;
pub use hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
pub use tlb::{Tlb, TlbConfig};
