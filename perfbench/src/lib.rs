//! Wall-clock benchmark of the textjoin engine.
//!
//! One command runs one named workload per process: it generates the
//! world from a seed, times calls into the engine's public functions from
//! outside, checks every output against an independent reference join,
//! and prints end-to-end metrics (or, traced, per-layer metrics). See
//! `README.md` for the workloads, metrics and reference figures.

pub mod checks;
pub mod metrics;
pub mod queries;
pub mod reference;
pub mod spans;
pub mod workloads;
