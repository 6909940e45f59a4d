//! Minimal numeric tensor library — the *numeric plane* substrate of the
//! SuperOffload reproduction.
//!
//! Provides exactly what a miniature mixed-precision LLM training stack
//! needs and nothing more:
//!
//! - [`F16`]/[`Bf16`]: software half-precision with IEEE round-to-nearest-even
//!   conversion, so mixed-precision casting costs and overflow behaviour
//!   (NaN/Inf detection, loss scaling) are real rather than mocked.
//! - [`Tensor`]: a dense row-major f32 tensor with the forward/backward
//!   kernels a GPT-style model requires (matmul, softmax, layernorm, GELU).
//! - [`cast`]: bulk f32↔f16 conversion with non-finite detection, mirroring
//!   the cast operators that §4.5 of the paper places on the GPU or CPU.
//! - [`Pool`]: a persistent worker pool that parallelizes the matrix and
//!   row kernels over disjoint output rows, so results stay bit-identical
//!   to serial execution at any thread count. A run's thread count and
//!   thresholds are a value scoped to its thread ([`Pool::scope`],
//!   [`pool::with_threads`]); the process default comes from
//!   `SUPEROFFLOAD_THREADS`.
//!
//! # Example
//!
//! ```
//! use tensorlite::{Tensor, F16};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//!
//! let h = F16::from_f32(1.0 / 3.0);
//! assert!((h.to_f32() - 1.0 / 3.0).abs() < 1e-3);
//! # Ok::<(), tensorlite::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cast;
pub mod counters;
pub mod error;
pub mod f16;
mod math;
pub mod ops;
pub mod pool;
pub mod recorder;
pub mod rng;
pub mod spans;
pub mod storage;
pub mod tensor;

pub use cast::{f16_to_f32_slice, f32_to_f16_slice, has_nonfinite};
pub use counters::{CounterSnapshot, OpKind};
pub use error::TensorError;
pub use f16::{Bf16, F16};
pub use pool::{KernelFamily, Pool};
pub use recorder::Recorder;
pub use rng::XorShiftRng;
pub use spans::SpanLog;
pub use storage::{Bf16Vec, StoragePrecision};
pub use tensor::{Tensor, TensorView};
