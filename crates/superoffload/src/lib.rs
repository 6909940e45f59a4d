//! SuperOffload: a Superchip-centric offloading system for LLM training.
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! has two halves that share the same policy code:
//!
//! - **Performance plane** — schedule builders that express SuperOffload
//!   (and its ablations) as task graphs on the [`superchip_sim`] simulator:
//!   [`schedule`] (single Superchip), [`zero_dp`] (multi-Superchip ZeRO-3
//!   integration), and [`ulysses`] (SuperOffload-Ulysses sequence
//!   parallelism). The first two are reached only through
//!   [`SuperOffload`]'s [`OffloadSystem`] impl, which dispatches on the
//!   rank count. Builders acquire node resources (capacity, links,
//!   collectives, schedule contexts) through [`fleet`] leases rather than
//!   ambient globals. The paper's throughput, scale, and utilization
//!   results are regenerated from these.
//! - **Numeric plane** — [`engine`], one real multi-threaded training
//!   executor over the miniature GPT of [`llm_model`] for both disciplines
//!   (speculation-then-validation and synchronous) at any data-parallel
//!   rank count, demonstrating that STV is an *exact* optimization
//!   (bit-identical to synchronous training) while overlapping optimizer
//!   work with validation.
//!
//! The individual techniques of §4 each have a module:
//!
//! | Paper section | Module |
//! |---|---|
//! | §4.1 SA-DFG                        | [`schedule`]'s task graph on [`superchip_sim`], costed with overlap by its event engine; placement from [`policy`], [`casting`], and [`bucket::min_retained`] with [`schedule::select_retention`] |
//! | §4.2 adaptive weight offloading     | [`policy`] |
//! | §4.3 bucketization repartitioning   | [`bucket`] |
//! | §4.4 speculation-then-validation    | [`engine`] (real), [`schedule`] (modeled) |
//! | §4.5 Superchip-aware casting        | [`casting`] |
//! | §4.6 GraceAdam                      | [`costs`] (model), `grace_optim` (real) |
//! | §4.7 multi-Superchip schedule       | [`zero_dp`], [`ulysses`], [`numa`] (modeled), [`engine`] (real, `ranks > 1`) |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bucket;
pub mod casting;
pub mod checkpoint;
pub mod costs;
pub mod engine;
pub mod fleet;
pub mod numa;
pub mod policy;
pub mod report;
pub mod schedule;
pub mod system;
pub mod trainer;
pub mod ulysses;
pub mod ulysses_numeric;
pub mod zero_dp;

pub use bucket::BucketPlan;
pub use casting::CastPlacement;
pub use checkpoint::Checkpoint;
pub use costs::OptimizerImpl;
pub use engine::{Engine, EngineSpans, SpanStats, StvStats};
pub use fleet::{FleetCtx, NodeLease};
pub use policy::WeightPolicy;
pub use report::{RunProfile, TrainReport};
pub use schedule::SuperOffloadOptions;
pub use system::{Infeasible, OffloadSystem, SuperOffload, SystemRegistry};
pub use trainer::{
    Discipline, JournalConfig, JournalSummary, StepJournal, StepRecord, StepTiming, Trainer,
    JOURNAL_SCHEMA,
};
