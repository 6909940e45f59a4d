//! Discrete-event simulator of tightly-coupled Superchip nodes.
//!
//! This crate is the *performance plane* of the SuperOffload reproduction: it
//! models the hardware that the paper evaluates on — Hopper GPUs, Grace CPUs,
//! the NVLink-C2C interconnect, HBM/DDR memory pools, NUMA affinity, and
//! multi-node fabrics — as a deterministic discrete-event simulation.
//!
//! Training systems (SuperOffload and its baselines) are expressed as *task
//! graphs*: compute and transfer operations with explicit dependencies, each
//! bound to a hardware resource. The [`engine::Simulator`] executes the graph
//! with an event-driven list scheduler, producing a [`trace::Trace`] from
//! which throughput, idle time, and utilization are derived.
//!
//! # Example
//!
//! ```
//! use superchip_sim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! // A GH200 Superchip, as described in Table 1 of the paper.
//! let chip = ChipSpec::gh200();
//! let mut sim = Simulator::new();
//! let gpu = sim.add_resource("gpu0");
//! let link = sim.add_resource("c2c0");
//!
//! // 10 TFLOP of GPU compute followed by a 64 MiB transfer to the CPU.
//! let compute = sim.add_task(
//!     TaskSpec::compute(gpu, chip.gpu.time_for_flops(10e12))
//!         .with_label("backward"),
//! )?;
//! let xfer = sim.add_task(
//!     TaskSpec::transfer(link, chip.c2c.transfer_time(64 << 20))
//!         .with_label("grad swap-out")
//!         .after(compute),
//! )?;
//! let trace = sim.run()?;
//! assert!(trace.end_time(xfer).unwrap() > trace.end_time(compute).unwrap());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod chrome_trace;
pub mod collective;
pub mod engine;
pub mod error;
pub mod events;
pub mod link;
pub mod memory;
pub mod presets;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;

pub use analysis::{
    analyze, diff_analyses, AnalysisDiff, AnalysisReport, CriticalEdgeDiff, EdgeChange,
    ResourceDelta, StallClass, TaskDelta, TaskKey,
};
pub use engine::{Simulator, TaskId, TaskKind, TaskLabel, TaskSpec, TaskTag};
pub use error::SimError;
pub use events::{Event, EventKind, EventLog};
pub use link::{BandwidthCurve, Link, LinkKind, TransferKeys};
pub use memory::MemoryPool;
pub use telemetry::{diff_metrics, CounterTrack, MetricsDiff, MetricsRecorder};
pub use time::SimTime;
pub use topology::{ChipSpec, ClusterSpec, ComputeDevice, NodeSpec, NumaBinding};
pub use trace::{ResourceStats, Trace};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::analysis::{analyze, AnalysisReport, StallClass, STALL_CLASSES};
    pub use crate::collective::{self, CollectiveCost};
    pub use crate::engine::{
        ResourceId, Simulator, TaskId, TaskKind, TaskLabel, TaskSpec, TaskTag,
    };
    pub use crate::error::SimError;
    pub use crate::link::{BandwidthCurve, Link, LinkKind, TransferKeys};
    pub use crate::memory::MemoryPool;
    pub use crate::presets;
    pub use crate::telemetry::{CounterTrack, MetricsRecorder};
    pub use crate::time::SimTime;
    pub use crate::topology::{ChipSpec, ClusterSpec, ComputeDevice, NodeSpec, NumaBinding};
    pub use crate::trace::{ResourceStats, Trace};
}

/// One gibibyte in bytes.
pub const GIB: u64 = 1 << 30;
/// One mebibyte in bytes.
pub const MIB: u64 = 1 << 20;
/// One kibibyte in bytes.
pub const KIB: u64 = 1 << 10;
/// One gigabyte (decimal, as used in hardware datasheets) in bytes.
pub const GB: u64 = 1_000_000_000;
