//! Simulated-plane experiments: one function per paper table/figure.
//!
//! Each function returns structured rows *and* can print them in a layout
//! that mirrors the paper, so `repro -- <experiment>` output is directly
//! comparable with the published numbers (see `EXPERIMENTS.md`).

use baselines::pipeline::{bubble_fraction, Pipeline};
use baselines::standard_registry;
use baselines::zero_offload::ZeroOffload;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::prelude::*;
use superchip_sim::{presets, single_chip_cluster, GIB, KIB, MIB};
use superoffload::casting::CastPlacement;
use superoffload::policy::flow_efficiency;
use superoffload::report::TrainReport;
use superoffload::schedule::SuperOffloadOptions;
use superoffload::system::{Infeasible, OffloadSystem, SuperOffload, SystemRegistry};
use superoffload::ulysses::{max_sequence_length, simulate_ulysses_traced, SequenceSystem};

/// The default per-GPU batch/seq used by the single-chip experiments.
pub const FIG10_BATCH: u32 = 8;
/// Sequence length used by throughput experiments.
pub const SEQ: u64 = 2048;

fn wl(name: &str, batch: u32) -> Workload {
    Workload::new(
        ModelConfig::by_name(name).unwrap_or_else(|| panic!("unknown model {name}")),
        batch,
        SEQ,
    )
}

fn fmt(r: &TrainReport) -> String {
    if r.feasible() {
        format!("{:.1}", r.tflops)
    } else {
        "OOM".to_string()
    }
}

/// Table 1: node-architecture comparison.
pub fn table1() -> Vec<(String, f64, f64, u32, f64, f64, f64)> {
    [
        presets::dgx2_chip(),
        presets::dgx_a100_chip(),
        presets::gh200_chip(),
    ]
    .into_iter()
    .map(|c| {
        (
            c.name.clone(),
            c.cpu.mem_bandwidth / 1e9,
            c.c2c.peak_bandwidth() / 1e9 * if c.name == "GH200" { 2.0 } else { 1.0 },
            c.cpu.cores,
            c.cpu.peak_flops / 1e12,
            c.gpu.peak_flops / 1e12,
            c.flops_ratio(),
        )
    })
    .collect()
}

/// Prints Table 1.
pub fn print_table1() {
    println!("# Table 1: GPU node comparison");
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>12} {:>12} {:>14}",
        "node", "cpu GB/s", "c2c GB/s", "cores", "cpu TFLOPS", "gpu TFLOPS", "gpu/cpu"
    );
    for (name, cpu_bw, c2c, cores, cpu_tf, gpu_tf, ratio) in table1() {
        println!(
            "{name:<10} {cpu_bw:>10.0} {c2c:>12.0} {cores:>10} {cpu_tf:>12.2} {gpu_tf:>12.1} {ratio:>14.1}"
        );
    }
}

/// Fig. 4: GPU/CPU idle fractions of ZeRO-Offload at its largest feasible
/// model, on one Superchip and on one NVL2 node.
pub fn fig4() -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    let single = single_chip_cluster(&presets::gh200_chip());
    let r1 = ZeroOffload.simulate(&single, 1, &wl("13B", FIG10_BATCH));
    rows.push((
        "1x GH200 (13B)".to_string(),
        1.0 - r1.gpu_util,
        1.0 - r1.cpu_util,
    ));
    let node = presets::gh200_nvl2_cluster(1);
    let r2 = ZeroOffload.simulate(&node, 2, &wl("13B", 2 * FIG10_BATCH));
    rows.push((
        "1x NVL2 node (13B)".to_string(),
        1.0 - r2.gpu_util,
        1.0 - r2.cpu_util,
    ));
    rows
}

/// Prints Fig. 4.
pub fn print_fig4() {
    println!("# Fig. 4: ZeRO-Offload idle time (paper: GPU idle 40-50%)");
    println!("{:<22} {:>10} {:>10}", "setting", "gpu idle", "cpu idle");
    for (name, gpu_idle, cpu_idle) in fig4() {
        println!(
            "{name:<22} {:>9.1}% {:>9.1}%",
            gpu_idle * 100.0,
            cpu_idle * 100.0
        );
    }
}

/// Fig. 6: weight-flow efficiency vs uni-directional bandwidth for batch
/// sizes 1..16 at seq 1024.
pub fn fig6() -> Vec<(f64, Vec<(u32, f64)>)> {
    let peak = presets::gh200_chip().gpu.peak_flops;
    [32e9, 64e9, 128e9, 256e9, 450e9, 900e9]
        .into_iter()
        .map(|bw| {
            let per_batch = [1u32, 2, 4, 8, 16]
                .into_iter()
                .map(|b| (b, flow_efficiency(b, 1024, bw, peak)))
                .collect();
            (bw, per_batch)
        })
        .collect()
}

/// Prints Fig. 6.
pub fn print_fig6() {
    println!("# Fig. 6: impact of bandwidth on weight-flow efficiency (seq 1024)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "bw GB/s", "b=1", "b=2", "b=4", "b=8", "b=16"
    );
    for (bw, per_batch) in fig6() {
        print!("{:<10.0}", bw / 1e9);
        for (_, eff) in per_batch {
            print!(" {:>7.1}%", eff * 100.0);
        }
        println!();
    }
    println!("(paper: at 450 GB/s, batch >= 4 needed to exceed 60%)");
}

/// Fig. 7: effective C2C bandwidth vs message size.
pub fn fig7() -> Vec<(u64, f64)> {
    let c2c = presets::nvlink_c2c();
    [
        64 * KIB,
        256 * KIB,
        MIB,
        4 * MIB,
        16 * MIB,
        64 * MIB,
        256 * MIB,
        GIB,
        4 * GIB,
    ]
    .into_iter()
    .map(|bytes| (bytes, c2c.effective_bandwidth(bytes) / 1e9))
    .collect()
}

/// Prints Fig. 7.
pub fn print_fig7() {
    println!("# Fig. 7: GH200 C2C bandwidth vs tensor size (saturates ~64 MiB)");
    println!("{:<12} {:>12}", "size", "GB/s");
    for (bytes, bw) in fig7() {
        let label = if bytes >= GIB {
            format!("{} GiB", bytes / GIB)
        } else if bytes >= MIB {
            format!("{} MiB", bytes / MIB)
        } else {
            format!("{} KiB", bytes / KIB)
        };
        println!("{label:<12} {bw:>12.1}");
    }
}

/// Fig. 9: round-trip time of the two casting strategies per tensor size.
pub fn fig9() -> Vec<(u64, f64, f64, f64)> {
    let chip = presets::gh200_chip();
    [
        MIB,
        16 * MIB,
        64 * MIB,
        256 * MIB,
        512 * MIB,
        GIB,
        2 * GIB,
        4 * GIB,
    ]
    .into_iter()
    .map(|bytes| {
        let elems = bytes / 4;
        let gpu = CastPlacement::GpuCastMoveFp32
            .round_trip_time(&chip, elems)
            .as_millis();
        let cpu = CastPlacement::CpuCastMoveFp16Pageable
            .round_trip_time(&chip, elems)
            .as_millis();
        (bytes, gpu, cpu, cpu / gpu)
    })
    .collect()
}

/// Prints Fig. 9.
pub fn print_fig9() {
    println!("# Fig. 9: casting cost, Cast_gpu+Move_fp32 vs Cast_cpu+Move_fp16");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "tensor", "gpu-cast ms", "cpu-cast ms", "ratio"
    );
    for (bytes, gpu_ms, cpu_ms, ratio) in fig9() {
        let label = if bytes >= GIB {
            format!("{} GiB", bytes / GIB)
        } else {
            format!("{} MiB", bytes / MIB)
        };
        println!("{label:<10} {gpu_ms:>14.2} {cpu_ms:>14.2} {ratio:>7.2}x");
    }
    println!("(paper: CPU-side casting takes ~2x longer on Superchips)");
}

/// Models used in the Fig. 10 single-chip sweep.
pub const FIG10_MODELS: [&str; 11] = [
    "1B", "2B", "3B", "4B", "5B", "8B", "10B", "13B", "15B", "20B", "25B",
];

/// Registry names of the systems in the Fig. 10 single-chip sweep, in
/// column order. The last column is SuperOffload; the one before it is the
/// ZeRO-Offload reference the speedup column compares against.
pub const FIG10_SYSTEMS: [&str; 5] = [
    "pytorch-ddp",
    "fsdp-offload",
    "zero-infinity",
    "zero-offload",
    "superoffload",
];

/// Registry names of the systems in the Fig. 11 multi-chip sweep.
pub const FIG11_SYSTEMS: [&str; 5] = [
    "megatron",
    "zero-2",
    "zero-3",
    "zero-offload",
    "superoffload",
];

/// Runs each named system from `reg` on the same workload, in order.
fn sweep(
    reg: &SystemRegistry,
    names: &[&str],
    cluster: &ClusterSpec,
    ranks: u32,
    w: &Workload,
) -> Vec<TrainReport> {
    names
        .iter()
        .map(|n| reg.expect(n).simulate(cluster, ranks, w))
        .collect()
}

/// Fig. 10: single-Superchip throughput, one report per [`FIG10_SYSTEMS`]
/// column.
pub fn fig10() -> Vec<(String, Vec<TrainReport>)> {
    let reg = standard_registry();
    let c = single_chip_cluster(&presets::gh200_chip());
    FIG10_MODELS
        .iter()
        .map(|name| {
            let w = wl(name, FIG10_BATCH);
            (name.to_string(), sweep(&reg, &FIG10_SYSTEMS, &c, 1, &w))
        })
        .collect()
}

/// Prints Fig. 10.
pub fn print_fig10() {
    println!("# Fig. 10: single-Superchip throughput (TFLOPS), batch {FIG10_BATCH}");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "model", "ddp", "fsdp-off", "zero-inf", "zero-off", "super", "vs zoff"
    );
    for (name, reports) in fig10() {
        let so_r = reports.last().expect("superoffload column");
        let zo_r = &reports[reports.len() - 2];
        let speedup = if zo_r.feasible() {
            format!("{:.2}x", so_r.tflops / zo_r.tflops)
        } else {
            "-".into()
        };
        print!("{name:>5}");
        for r in &reports {
            print!(" {:>9}", fmt(r));
        }
        println!(" {speedup:>9}");
    }
}

/// Fig. 11: per-GPU throughput on 4 and 16 Superchips, one report per
/// [`FIG11_SYSTEMS`] column.
pub fn fig11(ranks: u32) -> Vec<(String, Vec<TrainReport>)> {
    assert!(ranks == 4 || ranks == 16, "paper evaluates 4 and 16 GPUs");
    let reg = standard_registry();
    let cluster = presets::gh200_nvl2_cluster(ranks / 2);
    let batch = if ranks == 4 { 16 } else { 128 };
    let models: &[&str] = if ranks == 4 {
        &["5B", "8B", "10B", "13B", "15B", "20B", "25B", "50B"]
    } else {
        &["10B", "20B", "25B", "50B", "80B", "150B", "200B"]
    };
    models
        .iter()
        .map(|name| {
            let w = wl(name, batch);
            (
                name.to_string(),
                sweep(&reg, &FIG11_SYSTEMS, &cluster, ranks, &w),
            )
        })
        .collect()
}

/// Prints Fig. 11 for one rank count.
pub fn print_fig11(ranks: u32) {
    let batch = if ranks == 4 { 16 } else { 128 };
    println!("# Fig. 11: per-GPU throughput (TFLOPS) on {ranks} GH200, batch {batch}");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "model", "megatron", "zero-2", "zero-3", "zero-off", "super"
    );
    for (name, reports) in fig11(ranks) {
        print!("{name:>6}");
        for r in &reports {
            print!(" {:>9}", fmt(r));
        }
        println!();
    }
}

/// A ~30B configuration (the paper's second long-sequence model size).
pub fn model_30b() -> ModelConfig {
    let mut cfg = ModelConfig::new("30B", 36, 8192);
    cfg.max_seq = 1 << 21;
    cfg
}

/// One Fig. 12 ladder entry: `(seq, ulysses MFU, superoffload-ulysses MFU)`.
pub type MfuLadder = Vec<(u64, Option<f64>, Option<f64>)>;

/// One Fig. 12 row: `(model, ranks, ulysses max seq, so-ulysses max seq, MFU ladder)`.
pub type Fig12Row = (String, u32, Option<u64>, Option<u64>, MfuLadder);

/// Fig. 12 rows: per (model, ranks): max sequence for both systems and MFU
/// at a ladder of sequence lengths.
pub fn fig12() -> Vec<Fig12Row> {
    let opts = SuperOffloadOptions::default();
    let cluster = presets::gh200_nvl2_cluster(4);
    let mut cfg13 = ModelConfig::by_name("13B").unwrap();
    cfg13.max_seq = 1 << 21;
    let cfg30 = model_30b();
    let ceiling = 1u64 << 21;

    let mut rows = Vec::new();
    for (cfg, ranks) in [(&cfg13, 4u32), (&cfg13, 8), (&cfg30, 4), (&cfg30, 8)] {
        let max_v = max_sequence_length(
            &cluster,
            ranks,
            cfg,
            SequenceSystem::Ulysses,
            ceiling,
            &opts,
        );
        let max_s = max_sequence_length(
            &cluster,
            ranks,
            cfg,
            SequenceSystem::SuperOffloadUlysses,
            ceiling,
            &opts,
        );
        let ladder: MfuLadder = (0..)
            .map(|i| (16 * 1024u64) << i)
            .take_while(|&s| s <= ceiling)
            .map(|s| {
                let mfu = |system| {
                    simulate_ulysses_traced(&cluster, ranks, cfg, s, system, &opts)
                        .ok()
                        .map(|(r, _)| r.mfu)
                };
                (
                    s,
                    mfu(SequenceSystem::Ulysses),
                    mfu(SequenceSystem::SuperOffloadUlysses),
                )
            })
            .collect();
        rows.push((cfg.name.clone(), ranks, max_v, max_s, ladder));
    }
    rows
}

/// Prints Fig. 12.
pub fn print_fig12() {
    println!("# Fig. 12: max sequence length and MFU, Ulysses vs SuperOffload-Ulysses");
    for (model, ranks, max_v, max_s, ladder) in fig12() {
        let f = |x: Option<u64>| {
            x.map(|v| format!("{}k", v / 1024))
                .unwrap_or_else(|| "OOM".into())
        };
        let ratio = match (max_v, max_s) {
            (Some(v), Some(s)) => format!("{:.0}x", s as f64 / v as f64),
            _ => "-".into(),
        };
        println!(
            "\n{model} on {ranks} chips: ulysses max {} | superoffload-ulysses max {} ({ratio} longer)",
            f(max_v),
            f(max_s)
        );
        println!(
            "{:>8} {:>14} {:>14}",
            "seq", "ulysses MFU", "so-ulysses MFU"
        );
        for (s, v, o) in ladder {
            let p = |m: Option<f64>| {
                m.map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_else(|| "OOM".into())
            };
            println!("{:>7}k {:>14} {:>14}", s / 1024, p(v), p(o));
        }
    }
}

/// One Fig. 13 cell: the largest feasible Appendix-A model at a rank
/// count, plus the smallest infeasible model above it and the structured
/// reason it does not fit.
#[derive(Debug, Clone)]
pub struct Fig13Cell {
    /// Largest feasible model name, if any model fits.
    pub best: Option<String>,
    /// `(model, reason)` for the smallest model above `best` that fails.
    pub blocker: Option<(String, Infeasible)>,
}

/// The rank counts of the three Fig. 13 columns.
pub const FIG13_RANKS: [u32; 3] = [1, 4, 16];

/// One Fig. 13 column: walks every registered system up the (sorted)
/// Appendix-A ladder at `ranks` chips, recording the largest feasible model
/// and the structured reason the first larger model fails.
pub fn fig13_column(ranks: u32) -> Vec<(String, Fig13Cell)> {
    let reg = standard_registry();
    let mut ladder = ModelConfig::appendix_a();
    ladder.sort_by_key(|c| c.param_count());
    let cluster = if ranks == 1 {
        single_chip_cluster(&presets::gh200_chip())
    } else {
        presets::gh200_nvl2_cluster(ranks / 2)
    };
    let batch = match ranks {
        1 => FIG10_BATCH,
        4 => 16,
        _ => 128,
    };

    reg.iter()
        .map(|sys| {
            let mut cell = Fig13Cell {
                best: None,
                blocker: None,
            };
            for cfg in &ladder {
                let w = Workload::new(cfg.clone(), batch, SEQ);
                match sys.simulate_traced(&cluster, ranks, &w) {
                    Ok((r, _)) if r.feasible() => {
                        cell.best = Some(cfg.name.clone());
                        cell.blocker = None;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        if cell.blocker.is_none() {
                            cell.blocker = Some((cfg.name.clone(), e));
                        }
                    }
                }
            }
            (sys.name().to_string(), cell)
        })
        .collect()
}

/// Fig. 13: largest trainable Appendix-A model per registered system at
/// 1/4/16 chips, with the structured [`Infeasible`] reason for the first
/// model size that no longer fits.
pub fn fig13() -> Vec<(String, [Fig13Cell; 3])> {
    let columns: Vec<Vec<(String, Fig13Cell)>> =
        FIG13_RANKS.iter().map(|&r| fig13_column(r)).collect();
    columns[0]
        .iter()
        .enumerate()
        .map(|(i, (name, cell1))| {
            (
                name.clone(),
                [
                    cell1.clone(),
                    columns[1][i].1.clone(),
                    columns[2][i].1.clone(),
                ],
            )
        })
        .collect()
}

/// Prints Fig. 13, including why each system's next model size up fails.
pub fn print_fig13() {
    let rows = fig13();
    println!("# Fig. 13: largest trainable model (Appendix-A ladder)");
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "system", "1 chip", "4 chips", "16 chips"
    );
    for (name, cells) in &rows {
        let p = |c: &Fig13Cell| c.best.clone().unwrap_or_else(|| "-".into());
        println!(
            "{name:<22} {:>8} {:>8} {:>8}",
            p(&cells[0]),
            p(&cells[1]),
            p(&cells[2])
        );
    }
    println!("\n## why the next size up does not fit");
    for (name, cells) in &rows {
        for (cell, ranks) in cells.iter().zip(FIG13_RANKS) {
            if let Some((model, reason)) = &cell.blocker {
                println!("{name} @ {ranks} chip(s): {model} infeasible: {reason}");
            }
        }
    }
}

/// Table 2: the ablation ladder at 5B on one Superchip.
pub fn table2() -> Vec<(&'static str, TrainReport)> {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let w = wl("5B", FIG10_BATCH);
    [
        ("baseline (all off)", [false, false, false, false]),
        ("+ GraceAdam", [true, false, false, false]),
        ("+ SAC", [true, true, false, false]),
        ("+ STV", [true, true, true, false]),
        ("+ bucket repart.", [true, true, true, true]),
    ]
    .into_iter()
    .map(|(name, [grace_adam, sac, stv, repartition])| {
        let opts = SuperOffloadOptions::ablation(grace_adam, sac, stv, repartition);
        (
            name,
            SuperOffload::with_opts(opts).simulate(&cluster, 1, &w),
        )
    })
    .collect()
}

/// Prints Table 2.
pub fn print_table2() {
    println!("# Table 2: ablation at 5B (paper: 116.2 -> 128.2 -> 144.5 -> 209.4 -> 238.9)");
    println!("{:<20} {:>10} {:>8}", "configuration", "TFLOPS", "gain");
    let rows = table2();
    let mut prev: Option<f64> = None;
    for (name, r) in rows {
        let gain = prev
            .map(|p| format!("+{:.1}%", (r.tflops / p - 1.0) * 100.0))
            .unwrap_or_else(|| "-".into());
        println!("{name:<20} {:>10.2} {:>8}", r.tflops, gain);
        prev = Some(r.tflops);
    }
}

/// Fig. 15: SuperOffload utilization in the Fig. 4 setting.
pub fn fig15() -> (f64, f64) {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let r = SuperOffload::default().simulate(&cluster, 1, &wl("13B", FIG10_BATCH));
    (r.gpu_util, r.cpu_util)
}

/// Prints Fig. 15.
pub fn print_fig15() {
    let (gpu, cpu) = fig15();
    println!("# Fig. 15: SuperOffload utilization (13B, batch {FIG10_BATCH})");
    println!(
        "gpu busy {:.1}% (idle {:.1}%)",
        gpu * 100.0,
        (1.0 - gpu) * 100.0
    );
    println!("cpu busy {:.1}%", cpu * 100.0);
    println!("(paper: near-complete GPU utilization; compare Fig. 4's 40-50% idle)");
}

/// Fig. 3 (schedule diagram): the ZeRO-Offload timeline at 5B, rendered as
/// an ASCII Gantt chart plus a Chrome-trace JSON for Perfetto.
pub fn fig3_timeline() -> Option<(String, String)> {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let (_report, trace) = ZeroOffload
        .simulate_traced(&cluster, 1, &wl("5B", FIG10_BATCH))
        .ok()?;
    let ascii = trace.render_ascii(100);
    let chrome = superchip_sim::chrome_trace::to_chrome_trace(&trace);
    Some((ascii, chrome))
}

/// Fig. 8 (schedule diagram): the SuperOffload STV timeline at 5B.
pub fn fig8_timeline() -> Option<(String, String)> {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let (_report, trace) = SuperOffload::default()
        .simulate_traced(&cluster, 1, &wl("5B", FIG10_BATCH))
        .ok()?;
    let ascii = trace.render_ascii(100);
    let chrome = superchip_sim::chrome_trace::to_chrome_trace(&trace);
    Some((ascii, chrome))
}

/// Prints the Fig. 3 vs Fig. 8 schedule comparison and writes Chrome traces
/// into the working directory.
///
/// # Errors
/// A CLI-ready message if a trace cannot be written.
pub fn print_timelines() -> Result<(), String> {
    println!("# Fig. 3 vs Fig. 8: schedule timelines (5B, batch {FIG10_BATCH}, 4 iterations)");
    if let Some((ascii, chrome)) = fig3_timeline() {
        println!("\n## ZeRO-Offload (synchronize-then-execute) — note the GPU gaps:\n");
        print!("{ascii}");
        crate::cli::write_artifacts(&[("zero_offload_timeline.json", chrome)])?;
    }
    if let Some((ascii, chrome)) = fig8_timeline() {
        println!("\n## SuperOffload (speculation-then-validation) — near-solid GPU row:\n");
        print!("{ascii}");
        crate::cli::write_artifacts(&[("superoffload_timeline.json", chrome)])?;
    }
    Ok(())
}

/// §4.7 NUMA binding: the penalty of a rank whose CPU affinity lands on a
/// remote Superchip. Returns `(colocated, remote, remote_adaptive)` TFLOPS.
///
/// The first two pin the placement (weights stationary, no GPU retention) so
/// the raw link penalty is visible; the third lets the adaptive planner see
/// the degraded link — it responds by retaining optimizer state on the GPU,
/// largely routing around the bad binding (an emergent behaviour worth
/// reporting alongside the paper's explicit-binding fix).
pub fn numa_penalty() -> (f64, f64, f64) {
    let chip = presets::gh200_chip();
    let w = wl("13B", FIG10_BATCH);
    // The victim of a bad binding is the conventional STE pipeline, whose
    // exposed transfers sit on the critical path (SuperOffload's STV overlap
    // hides even an 18x slower link behind backward + optimizer work).
    let pinned = SuperOffload::with_opts(SuperOffloadOptions {
        retained_buckets: Some(0),
        weight_policy: Some(superoffload::policy::WeightPolicy::Stationary),
        ..SuperOffloadOptions::ablation(false, false, false, false)
    });
    let colocated = pinned.simulate(&single_chip_cluster(&chip), 1, &w);

    // An unbound process: every GPU<->CPU transfer crosses the fabric.
    let mut remote_chip = chip.clone();
    remote_chip.c2c = *chip.gpu_cpu_link(superchip_sim::topology::NumaBinding::Remote);
    let remote_cluster = single_chip_cluster(&remote_chip);
    let remote = pinned.simulate(&remote_cluster, 1, &w);
    let remote_adaptive = SuperOffload::default().simulate(&remote_cluster, 1, &w);

    (colocated.tflops, remote.tflops, remote_adaptive.tflops)
}

/// Prints the NUMA-binding experiment.
pub fn print_numa() {
    let (colocated, remote, remote_adaptive) = numa_penalty();
    let link_ratio = superoffload::numa::binding_penalty(
        &presets::gh200_chip(),
        superchip_sim::topology::NumaBinding::Remote,
    );
    println!("# NUMA binding (§4.7): co-located vs scattered rank placement, 13B");
    println!("co-located (NVLink-C2C path):        {colocated:>8.1} TFLOPS");
    println!("scattered  (fabric path, pinned):    {remote:>8.1} TFLOPS");
    println!("scattered  (fabric path, adaptive):  {remote_adaptive:>8.1} TFLOPS");
    println!(
        "raw penalty: {:.2}x slower (link bandwidth ratio {link_ratio:.0}x)",
        colocated / remote.max(1e-9)
    );
    println!("(the paper binds each rank to its local Grace cores to avoid this;");
    println!(" the adaptive planner also partially routes around a bad binding)");
}

/// §4.3 design-choice ablation: throughput as a function of transfer bucket
/// size (the paper picks 64 MiB at the C2C saturation knee).
pub fn bucket_sweep() -> Vec<(u64, f64)> {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let w = wl("5B", FIG10_BATCH);
    [MIB, 4 * MIB, 16 * MIB, 64 * MIB, 256 * MIB, GIB]
        .into_iter()
        .map(|bytes| {
            let opts = SuperOffloadOptions {
                bucket_bytes: bytes,
                ..SuperOffloadOptions::default()
            };
            let r = SuperOffload::with_opts(opts).simulate(&cluster, 1, &w);
            (bytes, r.tflops)
        })
        .collect()
}

/// Prints the bucket-size sweep.
pub fn print_bucket_sweep() {
    println!("# Bucket-size sweep (design choice of §4.3; paper picks 64 MiB)");
    println!("{:<10} {:>10}", "bucket", "TFLOPS");
    let rows = bucket_sweep();
    let best = rows
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::NEG_INFINITY, f64::max);
    // The design point: the smallest bucket already on the throughput
    // plateau — beyond it, bigger buckets only cost staging memory and
    // coarsen the rollback/overlap granularity.
    let knee = rows
        .iter()
        .find(|&&(_, t)| t >= 0.985 * best)
        .expect("non-empty sweep")
        .0;
    for (bytes, tflops) in &rows {
        let label = if *bytes >= GIB {
            format!("{} GiB", bytes / GIB)
        } else {
            format!("{} MiB", bytes / MIB)
        };
        let marker = if *bytes == knee {
            "  <- knee (smallest bucket on the plateau)"
        } else {
            ""
        };
        println!("{label:<10} {tflops:>10.1}{marker}");
    }
}

/// Pipeline-parallelism characterization (background §2.2, built as part of
/// the system inventory): bubble fraction vs micro-batch count, and the
/// capacity pipeline stages buy.
pub fn pipeline_rows() -> Vec<(u32, f64, f64, f64)> {
    let cluster = presets::gh200_nvl2_cluster(2);
    [4u32, 8, 16, 32]
        .into_iter()
        .map(|micro| {
            let w = wl("10B", micro);
            let r = Pipeline.simulate(&cluster, 4, &w);
            (micro, bubble_fraction(4, micro), r.gpu_util, r.tflops)
        })
        .collect()
}

/// Prints the system registry: every simulated system the experiment
/// drivers iterate, with a smoke-test report on a small single-chip
/// workload so each row proves the system actually runs.
pub fn print_systems() {
    let reg = standard_registry();
    let c = single_chip_cluster(&presets::gh200_chip());
    let w = wl("3B", FIG10_BATCH);
    println!(
        "# Registered systems ({}); smoke workload: 3B, 1 chip",
        reg.len()
    );
    println!(
        "{:<22} {:>10} {:>14} {:>14}",
        "system", "TFLOPS", "peak hbm (GiB)", "peak ddr (GiB)"
    );
    let gib = |b: Option<u64>| match b {
        Some(b) => format!("{:.2}", b as f64 / GIB as f64),
        None => "-".to_string(),
    };
    for sys in reg.iter() {
        match sys.simulate_profiled(&c, 1, &w) {
            Ok(p) => println!(
                "{:<22} {:>10.1} {:>14} {:>14}",
                sys.name(),
                p.report.tflops,
                gib(p.report.peak_bytes("hbm")),
                gib(p.report.peak_bytes("ddr"))
            ),
            Err(e) => println!("{:<22} {:>10} ({e})", sys.name(), "-"),
        }
    }
    println!("(to add a system: implement OffloadSystem and register it in");
    println!(" baselines::registry::standard_registry — see DESIGN.md §6)");
}

/// Prints the pipeline-parallelism characterization.
pub fn print_pipeline() {
    println!("# Pipeline parallelism (background system, 4 stages, 10B)");
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "micro-batch", "bubble (anal)", "gpu util (sim)", "TFLOPS"
    );
    for (micro, bubble, util, tflops) in pipeline_rows() {
        println!(
            "{micro:>12} {:>13.1}% {:>13.1}% {tflops:>10.1}",
            bubble * 100.0,
            util * 100.0
        );
    }
    println!("(the simulated utilization tracks 1 - bubble, validating the simulator)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_nodes_with_gh200_ratio() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        let gh = rows.iter().find(|r| r.0 == "GH200").unwrap();
        assert!((gh.6 - 330.0).abs() < 5.0);
        assert_eq!(gh.2, 900.0); // bidirectional C2C
    }

    #[test]
    fn fig4_idle_band_matches_paper() {
        let rows = fig4();
        // Single Superchip: the paper's 40-50% idle band (with margin).
        assert!(
            (0.30..0.60).contains(&rows[0].1),
            "single chip GPU idle {} outside band",
            rows[0].1
        );
        // NVL2 node: per-rank CPU shards halve, so idle shrinks but remains
        // substantial.
        assert!(
            rows[1].1 > 0.15,
            "node GPU idle {} should remain substantial",
            rows[1].1
        );
    }

    #[test]
    fn fig7_is_monotone_and_saturates() {
        let rows = fig7();
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        let last = rows.last().unwrap();
        assert!(last.1 > 400.0, "4 GiB should be near peak, got {}", last.1);
    }

    #[test]
    fn fig9_cpu_cast_about_2x() {
        for (bytes, _, _, ratio) in fig9() {
            if bytes >= 256 * MIB {
                assert!((1.8..3.4).contains(&ratio), "{bytes}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn fig10_superoffload_wins_everywhere_it_fits() {
        for (name, reports) in fig10() {
            let (so_r, others) = reports.split_last().expect("superoffload column");
            assert_eq!(so_r.system, "superoffload");
            assert!(so_r.feasible(), "{name}: SuperOffload OOM");
            for other in others {
                if other.feasible() {
                    assert!(
                        so_r.tflops >= other.tflops * 0.99,
                        "{name}: {} ({:.1}) beat superoffload ({:.1})",
                        other.system,
                        other.tflops,
                        so_r.tflops
                    );
                }
            }
        }
    }

    #[test]
    fn fig13_blockers_are_structured() {
        // Every system tops out below the largest Appendix-A model on one
        // chip and must report a typed reason for the first size that fails.
        for (name, cell) in fig13_column(1) {
            assert!(cell.best.is_some(), "{name}: nothing fits on one chip");
            let (model, reason) = cell
                .blocker
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: no blocker on one chip"));
            assert!(
                !format!("{reason}").is_empty(),
                "{name}: blocker for {model} has an empty reason"
            );
        }
    }

    #[test]
    fn table2_is_monotone_and_roughly_2x() {
        let rows = table2();
        for w in rows.windows(2) {
            assert!(
                w[1].1.tflops >= w[0].1.tflops * 0.98,
                "{} regressed vs {}",
                w[1].0,
                w[0].0
            );
        }
        let total = rows.last().unwrap().1.tflops / rows[0].1.tflops;
        assert!((1.5..2.8).contains(&total), "total gain {total}");
    }

    #[test]
    fn fig15_near_full_utilization() {
        let (gpu, _) = fig15();
        assert!(gpu > 0.8, "gpu util {gpu}");
    }

    #[test]
    fn numa_scatter_hurts_conventional_but_adaptive_recovers() {
        let (colocated, remote, remote_adaptive) = numa_penalty();
        assert!(
            colocated / remote > 1.3,
            "penalty {:.2}",
            colocated / remote
        );
        assert!(remote_adaptive > remote, "adaptive should route around");
    }

    #[test]
    fn timelines_show_the_fig3_vs_fig8_contrast() {
        let (zo_ascii, zo_json) = fig3_timeline().expect("zero-offload timeline");
        let (so_ascii, so_json) = fig8_timeline().expect("superoffload timeline");
        // The ZeRO-Offload GPU row has visible idle gaps; SuperOffload's is
        // nearly solid.
        let gpu_row = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("gpu"))
                .unwrap()
                .to_string()
        };
        let idle = |row: &str| row.chars().filter(|&c| c == '.').count();
        assert!(idle(&gpu_row(&zo_ascii)) > 3 * idle(&gpu_row(&so_ascii)));
        assert!(zo_json.contains("global-norm-sync"));
        assert!(so_json.contains("validate"));
    }
}
