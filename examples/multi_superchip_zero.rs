//! Multi-Superchip training: SuperOffload + ZeRO-DP against Megatron and
//! ZeRO-2/3 on 4 and 16 GH200s (the paper's Fig. 11 / Fig. 13 story).
//!
//! Run with: `cargo run --release --example multi_superchip_zero`

use baselines::standard_registry;
use llm_model::{ModelConfig, Workload};
use superchip_sim::presets;
use superoffload::report::TrainReport;
use superoffload::schedule::SuperOffloadOptions;
use superoffload::zero_dp;

fn cell(r: &TrainReport) -> String {
    if r.feasible() {
        format!("{:>8.1}", r.tflops)
    } else {
        format!("{:>8}", "OOM")
    }
}

fn main() {
    let registry = standard_registry();
    let systems = [
        "megatron",
        "zero-2",
        "zero-3",
        "zero-offload",
        "superoffload",
    ]
    .map(|name| registry.expect(name));
    for (ranks, batch, models) in [
        (4u32, 16u32, vec!["10B", "15B", "20B", "50B"]),
        (16, 128, vec!["20B", "50B", "80B", "200B"]),
    ] {
        let cluster = presets::gh200_nvl2_cluster(ranks / 2);
        println!("== {ranks} GH200 Superchips (global batch {batch}) — per-GPU TFLOPS ==");
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "model", "megatron", "zero-2", "zero-3", "z-off", "super"
        );
        for name in &models {
            let cfg = ModelConfig::by_name(name).expect("appendix-a model");
            let w = Workload::new(cfg, batch, 2048);
            print!("{name:>6}");
            for sys in systems {
                print!(" {}", cell(&sys.simulate(&cluster, ranks, &w)));
            }
            println!();
        }
        println!();
    }

    // Largest trainable model per rank count for SuperOffload.
    let opts = SuperOffloadOptions::default();
    for (ranks, batch) in [(4u32, 16u32), (16, 128)] {
        let cluster = presets::gh200_nvl2_cluster(ranks / 2);
        if let Some(cfg) = zero_dp::max_trainable_model(&cluster, ranks, batch, 2048, &opts) {
            println!(
                "largest SuperOffload model on {ranks} chips: {} ({:.0}B params)",
                cfg.name,
                cfg.param_billions()
            );
        }
    }
    println!("(paper: 50B on 4 Superchips, 200B on 16)");
}
