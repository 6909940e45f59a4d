//! Baseline distributed-training systems on the Superchip simulator.
//!
//! Implements every comparison system from the paper's evaluation (§5.1 and
//! Appendix B) as a schedule on the same simulator and cost models that
//! SuperOffload uses, so differences come only from placement and overlap
//! decisions:
//!
//! - [`ddp`] — PyTorch DistributedDataParallel (GPU-only, replicated state).
//! - [`deep_optimizer_states`] — hybrid CPU+GPU optimizer stepping (§2.2
//!   related work).
//! - [`megatron`] — Megatron-LM tensor model parallelism.
//! - [`pipeline`] — GPipe-style pipeline parallelism (background §2.2).
//! - [`zero`] — ZeRO-2 and ZeRO-3 sharded data parallelism (GPU-only).
//! - [`zero_offload`] — ZeRO-Offload (ZeRO-2 + synchronous CPU optimizer).
//! - [`zero_infinity`] — ZeRO-Infinity (weight-flow + CPU optimizer with
//!   small default buckets).
//! - [`fsdp_offload`] — PyTorch FSDP with CPU offloading (fully synchronous
//!   per-unit swapping and a single-threaded native CPU optimizer).
//!
//! Every system implements [`superoffload::system::OffloadSystem`], its
//! only public entry point, and is registered in
//! [`registry::standard_registry`], which the experiment drivers and
//! property tests iterate. Infeasible configurations surface as
//! typed [`superoffload::system::Infeasible`] reasons rather than a bare
//! "OOM" report.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod ddp;
pub mod deep_optimizer_states;
pub mod fsdp_offload;
pub mod megatron;
pub mod pipeline;
pub mod registry;
pub mod zero;
pub mod zero_infinity;
pub mod zero_offload;

pub use registry::standard_registry;
pub use superoffload::report::TrainReport;
pub use superoffload::system::{Infeasible, OffloadSystem, SystemRegistry};
