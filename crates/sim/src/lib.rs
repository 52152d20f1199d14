//! Discrete-event simulation engine for the uManycore reproduction.
//!
//! The paper evaluates uManycore with the SST structural simulator driven by
//! Pin traces. This crate is the substitute substrate: a deterministic,
//! cycle-resolution discrete-event core that the system simulator in the
//! `umanycore` crate builds on.
//!
//! Contents:
//!
//! - [`Cycles`]: a typed cycle count with saturating arithmetic and
//!   wall-clock conversions at a given core frequency.
//! - [`EventQueue`]: a monotonic future-event list with deterministic FIFO
//!   tie-breaking, generic over the event payload type. Implemented as a
//!   binary heap ordered by `(time, seq)`: a run's queue holds only its
//!   in-flight events (hundreds at most), where a heap is the least code
//!   and as fast as anything.
//! - [`rng`]: reproducible per-component random streams split from one master
//!   seed, so every experiment is bit-reproducible.
//! - [`trace`]: per-request latency provenance — a component taxonomy and
//!   cycle-exact breakdown accumulator whose components sum to the
//!   request's end-to-end latency (the conservation invariant).
//!
//! # Examples
//!
//! Simulating two events in time order:
//!
//! ```
//! use um_sim::{Cycles, EventQueue};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(Cycles::new(100), "later");
//! q.schedule(Cycles::new(10), "sooner");
//! assert_eq!(q.pop(), Some((Cycles::new(10), "sooner")));
//! assert_eq!(q.pop(), Some((Cycles::new(100), "later")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]

pub mod fault;
mod queue;
pub mod rng;
#[cfg(feature = "sim-sanitizer")]
pub mod sanitizer;
mod time;
pub mod trace;

pub use queue::EventQueue;
pub use time::{Cycles, Frequency};
pub use trace::{Component, LatencyBreakdown};
