//! End-to-end search benchmark of phylomic with a per-layer
//! breakdown. See `README.md` for the workloads and metrics.

pub mod bench;
pub mod ops;
pub mod report;
pub mod run;
pub mod timed;
pub mod workload;
