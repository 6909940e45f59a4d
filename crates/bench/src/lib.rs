//! Benchmark harness for the SuperOffload reproduction.
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation section (run via the `repro` binary: `cargo run -p
//! superoffload-bench --bin repro -- all`). [`realbench`] hosts the
//! real-execution measurements (GraceAdam latencies on the host CPU, the
//! STV training run) that back Table 3 and Fig. 14.

#![warn(missing_docs)]

pub mod analyze;
pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod diff;
pub mod experiments;
pub mod fleetview;
pub mod journal;
pub mod profile;
pub mod realbench;
pub mod roofline;
pub mod scale;
pub mod sysname;

/// Serializes CPU-hungry or timing-sensitive tests within this binary:
/// the realbench latency-ordering test measures wall time, and the journal
/// tests run real multi-threaded training loops — running them on the same
/// cores at once makes the measurement lie.
#[cfg(test)]
pub(crate) fn cpu_heavy_test_guard() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock, PoisonError};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}
