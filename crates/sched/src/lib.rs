//! Request scheduling and context-switching substrates (paper §3.2, §3.3,
//! §4.3, §4.4).
//!
//! uManycore's thesis is that queuing, scheduling and context switching
//! dominate microservice tail latency on conventional hardware, and that
//! moving them into hardware removes the overhead. This crate provides both
//! sides of that comparison:
//!
//! - [`RequestQueue`]: the hardware Request Queue of §4.3 — a circular
//!   buffer with per-entry status, service id and a Request Context Memory
//!   slot, operated by `Enqueue`/`Dequeue`/`Complete`/`ContextSwitch`
//!   semantics, and modelled as the FIFO window of entries it holds.
//! - [`PartitionedRq`]: the §4.3 "more advanced design": an RQ_Map that
//!   partitions the RQ among co-located services (evaluated here as an
//!   extension/ablation; the paper describes but does not evaluate it).
//! - [`CtxSwitchModel`]: per-mechanism context-switch costs — Linux,
//!   ZygOS/Shinjuku/Shenango-class software schedulers, and the uManycore
//!   hardware mechanism (Figure 6's x-axis).
//! - [`Dispatcher`]: the centralized software dispatcher bottleneck that
//!   §4.4 measures for Shinjuku-style scheduling.
//! - [`DequeuePolicy`]: FCFS vs SRPT (§4.3 discusses why FCFS suffices).
//! - [`mitigation`]: tail-mitigation policies — request hedging,
//!   timeout/backoff retry with a token [`RetryBudget`], straggler-aware
//!   steering — applied by the system simulator under fault injection.
//!
//! # Examples
//!
//! ```
//! use um_sched::{RequestQueue, RqEntryStatus};
//!
//! let mut rq: RequestQueue<&str> = RequestQueue::new(64);
//! let slot = rq.enqueue(3, "request ctx").unwrap();
//! assert_eq!(rq.status(slot), Some(RqEntryStatus::Ready));
//! let (got, ctx) = rq.dequeue(3).unwrap();
//! assert_eq!(got, slot);
//! assert_eq!(*ctx, "request ctx");
//! ```

#![warn(missing_docs)]

pub mod ctxswitch;
pub mod mitigation;
pub mod policy;
pub mod rq;

pub use ctxswitch::{CtxSwitchModel, Dispatcher};
pub use mitigation::{HedgeConfig, MitigationConfig, RetryBudget, RetryConfig};
pub use policy::DequeuePolicy;
pub use rq::{PartitionedRq, RequestQueue, RqEntryStatus, RqError, RqSlot};
