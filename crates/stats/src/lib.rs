//! Statistics utilities for the uManycore reproduction.
//!
//! Every experiment in the paper reports latency distributions (average, P99
//! tail, tail-to-average ratios), CDFs (Figures 2, 4 and 5) or throughput
//! tables. This crate provides the shared machinery:
//!
//! - [`Samples`]: an exact sample reservoir with percentile queries, used for
//!   per-request latency measurements.
//! - [`Histogram`]: a streaming log-bucketed histogram for high-volume
//!   measurements where exact storage would be wasteful.
//! - [`Cdf`]: empirical cumulative distribution functions, with fixed-point
//!   evaluation and inverse lookup.
//! - [`summary::Summary`]: the avg/P50/P99/max digest printed by the figure
//!   harnesses.
//! - [`table`]: plain-text table rendering so `cargo run -p um-bench --bin
//!   figN` prints the same rows/series as the paper.
//!
//! # Examples
//!
//! ```
//! use um_stats::Samples;
//!
//! let mut lat = Samples::new();
//! for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
//!     lat.record(v);
//! }
//! assert_eq!(lat.percentile(0.5), 3.0);
//! assert!(lat.mean() > 3.0); // the outlier pulls the mean up
//! ```

#![warn(missing_docs)]

mod cdf;
mod histogram;
mod samples;
pub mod summary;
pub mod table;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use samples::Samples;
pub use summary::Summary;
