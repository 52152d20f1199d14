//! `um-serve`: simulation-as-a-service on top of the declarative
//! scenario layer.
//!
//! A zero-dependency, std-only job service: a bounded admission queue
//! feeds a worker thread pool (sized by `UM_THREADS`) over
//! [`std::sync::mpsc`] channels, jobs are canonical
//! [`um_bench::scenario`] documents (the `machine-compare` and `grid`
//! kinds; `GET /registry` lists one of each) submitted over a minimal
//! hand-rolled HTTP/1.1 layer, and a content-addressed result cache
//! keyed by the canonical scenario bytes (seed folded in) serves repeat
//! submissions without re-simulating — cached and fresh results are
//! byte-identical.
//!
//! The determinism boundary: everything inside a job is the
//! deterministic sweep runner (bit-identical at any `UM_THREADS`), so
//! the service adds no nondeterminism to results — only to timing.
//! Admission (`429 Retry-After`) and scheduling order never change what
//! a job computes.
//!
//! ```text
//! POST /jobs                  submit a scenario (or {"scenario":…,"seed":N})
//! GET  /jobs/<id>             queued / running (with progress) / done / failed
//! GET  /jobs/<id>/result      the benchjson envelope um-sweep emits
//! GET  /jobs/<id>/result/text the rendered text table, byte-identical
//!                             to `um-sweep`'s stdout
//! GET  /registry              every built-in scenario, canonical JSON
//! GET  /healthz               liveness + job/cache counters
//! ```

pub mod client;
pub mod http;
pub mod server;
pub mod service;
