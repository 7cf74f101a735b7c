//! The repository benchmark: closed-loop APRO fleets over three workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separately traced one. See `README.md` in this directory.

pub mod drive;
pub mod stats;
pub mod trace;
pub mod workload;
