//! Shared helpers for baseline schedule builders.

/// Standard simulation iteration count for steady-state measurement.
pub const ITERATIONS: u32 = 4;
