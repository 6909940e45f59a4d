//! Hardware topology: compute devices, Superchips, nodes, and clusters.

use crate::error::SimError;
use crate::link::{BandwidthCurve, Link, LinkKind};
use crate::time::SimTime;

/// A compute device (a GPU or a CPU) with its attached memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeDevice {
    /// Human-readable name ("H100", "Grace").
    pub name: String,
    /// Theoretical peak throughput in FLOP/s (tensor math precision).
    pub peak_flops: f64,
    /// Fraction of the theoretical peak achievable on dense training kernels.
    pub achievable_fraction: f64,
    /// Attached memory capacity in bytes (HBM for GPUs, DDR for CPUs).
    pub mem_bytes: u64,
    /// Attached memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Core count (used for parallel optimizer modeling on CPUs).
    pub cores: u32,
}

impl ComputeDevice {
    /// Achievable sustained throughput in FLOP/s.
    pub fn achievable_flops(&self) -> f64 {
        self.peak_flops * self.achievable_fraction
    }

    /// Time to execute `flops` floating-point operations at the achievable
    /// rate.
    pub fn time_for_flops(&self, flops: f64) -> SimTime {
        SimTime::from_secs(flops / self.achievable_flops())
    }

    /// Validates that the device parameters are physically meaningful.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] if any rate is non-positive or the
    /// achievable fraction is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.peak_flops <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: peak_flops must be positive",
                self.name
            )));
        }
        if !(self.achievable_fraction > 0.0 && self.achievable_fraction <= 1.0) {
            return Err(SimError::InvalidConfig(format!(
                "{}: achievable_fraction must be in (0, 1]",
                self.name
            )));
        }
        if self.mem_bandwidth <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: mem_bandwidth must be positive",
                self.name
            )));
        }
        Ok(())
    }
}

/// Whether a training process is bound to the CPU cores co-located with its
/// GPU on the same Superchip (§4.7 "NUMA binding").
///
/// An unbound process may land on a different Superchip's Grace CPU, forcing
/// GPU↔CPU traffic across the inter-Superchip fabric instead of NVLink-C2C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumaBinding {
    /// Process pinned to the local Grace CPU (SuperOffload's behaviour).
    #[default]
    Colocated,
    /// Process scheduled on a remote Superchip's CPU.
    Remote,
}

/// One Superchip: a GPU, a CPU, and the chip-to-chip interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Name of the chip ("GH200").
    pub name: String,
    /// The GPU die.
    pub gpu: ComputeDevice,
    /// The CPU die.
    pub cpu: ComputeDevice,
    /// GPU↔CPU interconnect (NVLink-C2C on GH200, PCIe on legacy nodes).
    pub c2c: Link,
    /// Fallback link used when a process is *not* NUMA-colocated and GPU↔CPU
    /// traffic crosses the node fabric.
    pub remote_link: Link,
}

impl ChipSpec {
    /// Ratio of achievable GPU FLOPS to achievable CPU FLOPS — the paper's
    /// key "compute gap" figure (≈330 for GH200, Table 1).
    pub fn flops_ratio(&self) -> f64 {
        self.gpu.peak_flops / self.cpu.peak_flops
    }

    /// The GPU↔CPU link as seen by a process with the given NUMA binding.
    pub fn gpu_cpu_link(&self, binding: NumaBinding) -> &Link {
        match binding {
            NumaBinding::Colocated => &self.c2c,
            NumaBinding::Remote => &self.remote_link,
        }
    }

    /// Validates both devices and the interconnect.
    ///
    /// # Errors
    /// Propagates [`SimError::InvalidConfig`] from device validation.
    pub fn validate(&self) -> Result<(), SimError> {
        self.gpu.validate()?;
        self.cpu.validate()?;
        Ok(())
    }
}

/// A node containing `chip_count` identical Superchips joined by an
/// intra-node link (NVLink on GH200-NVL2).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The chip replicated within the node.
    pub chip: ChipSpec,
    /// Number of Superchips in the node.
    pub chip_count: u32,
    /// GPU↔GPU link inside the node.
    pub intra_link: Link,
}

impl NodeSpec {
    /// Total GPU memory across the node.
    pub fn total_gpu_mem(&self) -> u64 {
        self.chip.gpu.mem_bytes * self.chip_count as u64
    }

    /// Total CPU memory across the node.
    pub fn total_cpu_mem(&self) -> u64 {
        self.chip.cpu.mem_bytes * self.chip_count as u64
    }
}

/// A cluster of identical nodes joined by an inter-node fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The node replicated across the cluster.
    pub node: NodeSpec,
    /// Number of nodes.
    pub node_count: u32,
    /// Node↔node fabric (Slingshot 11 in the paper's testbed).
    pub inter_link: Link,
}

impl ClusterSpec {
    /// Total number of GPUs (= Superchips) in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.node.chip_count * self.node_count
    }

    /// The narrowest link a collective spanning `ranks` GPUs must cross:
    /// the intra-node link if the ranks fit in one node, otherwise the
    /// inter-node fabric.
    ///
    /// # Panics
    /// Panics if `ranks` exceeds the cluster size or is zero. Capacity
    /// planners that want a typed error instead should use
    /// [`ClusterSpec::try_collective_link`].
    pub fn collective_link(&self, ranks: u32) -> &Link {
        assert!(ranks >= 1, "collective must span at least one rank");
        assert!(
            ranks <= self.total_gpus(),
            "collective spans {ranks} ranks but cluster has {}",
            self.total_gpus()
        );
        self.try_collective_link(ranks)
            .expect("bounds checked above")
    }

    /// Non-panicking form of [`ClusterSpec::collective_link`]: `None` when
    /// `ranks` is zero or the fabric does not connect that many GPU
    /// endpoints, so callers can surface a typed infeasibility instead of
    /// crashing.
    pub fn try_collective_link(&self, ranks: u32) -> Option<&Link> {
        if ranks == 0 || ranks > self.total_gpus() {
            return None;
        }
        Some(if ranks <= self.node.chip_count {
            &self.node.intra_link
        } else {
            &self.inter_link
        })
    }
}

/// Convenience constructor for a [`BandwidthCurve`] given decimal GB/s and
/// microseconds of latency.
pub fn curve_gbps(gigabytes_per_sec: f64, latency_us: f64) -> BandwidthCurve {
    BandwidthCurve::new(gigabytes_per_sec * 1e9, latency_us * 1e-6)
}

/// Convenience constructor for a [`Link`].
pub fn link_gbps(kind: LinkKind, gigabytes_per_sec: f64, latency_us: f64) -> Link {
    Link::new(kind, curve_gbps(gigabytes_per_sec, latency_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn gh200_flops_ratio_matches_table1() {
        let chip = ChipSpec::gh200();
        let ratio = chip.flops_ratio();
        assert!(
            (ratio - 330.0).abs() < 5.0,
            "GH200 FLOPS ratio should be ~330, got {ratio}"
        );
    }

    #[test]
    fn dgx2_ratio_matches_table1() {
        let chip = presets::dgx2_chip();
        assert!((chip.flops_ratio() - 60.39).abs() < 1.0);
    }

    #[test]
    fn dgx_a100_ratio_matches_table1() {
        let chip = presets::dgx_a100_chip();
        assert!((chip.flops_ratio() - 135.65).abs() < 2.0);
    }

    #[test]
    fn numa_binding_selects_link() {
        let chip = ChipSpec::gh200();
        let local = chip.gpu_cpu_link(NumaBinding::Colocated).peak_bandwidth();
        let remote = chip.gpu_cpu_link(NumaBinding::Remote).peak_bandwidth();
        assert!(local > 10.0 * remote, "C2C should dwarf the fabric path");
    }

    #[test]
    fn device_validation_rejects_nonsense() {
        let mut dev = ChipSpec::gh200().gpu;
        dev.achievable_fraction = 1.5;
        assert!(matches!(dev.validate(), Err(SimError::InvalidConfig(_))));
        dev.achievable_fraction = 0.5;
        dev.peak_flops = -1.0;
        assert!(dev.validate().is_err());
    }

    #[test]
    fn cluster_picks_narrowest_link() {
        let cluster = presets::gh200_nvl2_cluster(8);
        assert_eq!(cluster.total_gpus(), 16);
        let intra = cluster.collective_link(2).peak_bandwidth();
        let inter = cluster.collective_link(16).peak_bandwidth();
        assert!(intra > inter);
    }

    #[test]
    #[should_panic(expected = "cluster has")]
    fn oversized_collective_panics() {
        let cluster = presets::gh200_nvl2_cluster(1);
        let _ = cluster.collective_link(64);
    }

    #[test]
    fn try_collective_link_reports_capacity_without_panicking() {
        let cluster = presets::gh200_nvl2_cluster(1);
        assert!(cluster.try_collective_link(0).is_none());
        assert!(cluster.try_collective_link(64).is_none());
        // In-range ranks agree with the panicking accessor.
        for ranks in 1..=cluster.total_gpus() {
            assert_eq!(
                cluster.try_collective_link(ranks),
                Some(cluster.collective_link(ranks))
            );
        }
    }

    #[test]
    fn node_memory_totals() {
        let node = presets::gh200_nvl2_node();
        assert_eq!(node.chip_count, 2);
        assert_eq!(node.total_gpu_mem(), 2 * node.chip.gpu.mem_bytes);
        assert_eq!(node.total_cpu_mem(), 2 * node.chip.cpu.mem_bytes);
    }

    #[test]
    fn time_for_flops_scales_linearly() {
        let gpu = ChipSpec::gh200().gpu;
        let t1 = gpu.time_for_flops(1e12).as_secs();
        let t2 = gpu.time_for_flops(2e12).as_secs();
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }
}
