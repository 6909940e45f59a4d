//! CPU-optimized optimizers for the SuperOffload reproduction.
//!
//! The paper's §4.6 introduces **GraceAdam**, an Adam implementation tuned
//! for the Grace ARM CPU (SVE vectorization, cache-tiled memory access,
//! OpenMP threading). ARM SVE intrinsics are not portable, so this crate
//! implements the same three-tier design space with portable equivalents and
//! *identical numerics*:
//!
//! - [`NaiveAdam`]: multiple full-array passes, one per Adam sub-expression —
//!   the memory-traffic profile of an unfused framework optimizer (the
//!   paper's "PT-CPU" baseline).
//! - [`CpuAdam`]: a single fused pass with manual 4-way unrolling — the
//!   DeepSpeed CPU-Adam design (originally AVX2/AVX512).
//! - [`GraceAdam`]: fused, cache-tiled chunks dispatched as tasks of the
//!   persistent worker pool (`tensorlite::Pool`), mirroring GraceAdam's
//!   tiling + dual-level parallelism.
//!
//! All three produce **bit-identical** parameter updates (verified by tests),
//! so the choice is purely a performance decision — exactly the property the
//! paper relies on when swapping optimizers.
//!
//! The crate also provides mixed-precision utilities ([`mixed_precision`]),
//! global gradient clipping ([`clip`]), and the in-place rollback guard
//! ([`rollback`]) that speculation-then-validation requires.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adam;
pub mod clip;
pub mod fp16_out;
pub mod mixed_precision;
pub mod rollback;

pub use adam::{AdamConfig, AdamState, AdamStepper, CpuAdam, GraceAdam, NaiveAdam};
pub use clip::{clip_factor, global_grad_norm};
pub use fp16_out::step_with_fp16_out;
pub use mixed_precision::{LossScaler, ScaleEvent};
pub use rollback::RollbackGuard;
