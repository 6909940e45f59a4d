//! Quickstart: configure a Superchip, describe a workload, and train it
//! with SuperOffload — the reproduction equivalent of the paper's Fig. 1
//! "a few lines of change".
//!
//! Run with: `cargo run --release --example quickstart`

use baselines::zero_offload::ZeroOffload;
use llm_model::{ModelConfig, Workload};
use superchip_sim::{presets, single_chip_cluster};
use superoffload::{OffloadSystem, SuperOffload};

fn main() {
    // A GH200 Superchip: Hopper GPU (96 GB HBM), Grace CPU (480 GB DDR),
    // NVLink-C2C at 900 GB/s.
    let chip = presets::gh200_chip();
    println!(
        "hardware: {} (GPU/CPU FLOPS ratio {:.0})",
        chip.name,
        chip.flops_ratio()
    );

    // Train a 5B-parameter GPT at batch 8, sequence length 2048 — the
    // paper's ablation workload.
    let model = ModelConfig::appendix_a_5b();
    println!(
        "model: {} ({:.2}B params, {} layers x {} hidden)",
        model.name,
        model.param_billions(),
        model.layers,
        model.hidden
    );
    let workload = Workload::new(model, 8, 2048);

    // Enable SuperOffload — all techniques on, parameters chosen adaptively
    // (weight policy, bucket retention via grid search, casting placement)
    // — on a one-chip cluster, one rank.
    let cluster = single_chip_cluster(&chip);
    let report = SuperOffload::default().simulate(&cluster, 1, &workload);

    println!("\n== SuperOffload training report ==");
    match &report.plan {
        Some(plan) => {
            println!("feasible:  yes");
            println!(
                "plan:      micro-batch {} x {} accumulation steps, checkpointing: {}",
                plan.micro_batch, plan.accum_steps, plan.checkpointing
            );
        }
        None => {
            println!("feasible:  no (out of memory)");
            return;
        }
    }
    println!("iteration: {}", report.iter_time);
    println!("tflops:    {:.1}", report.tflops);
    println!("mfu:       {:.1}%", report.mfu * 100.0);
    println!("gpu util:  {:.1}%", report.gpu_util * 100.0);
    println!("cpu util:  {:.1}%", report.cpu_util * 100.0);

    // Compare against ZeRO-Offload, the system SuperOffload improves on.
    let zo = ZeroOffload.simulate(&cluster, 1, &workload);
    println!(
        "\nvs ZeRO-Offload: {:.1} TFLOPS -> {:.2}x speedup",
        zo.tflops,
        report.tflops / zo.tflops
    );
}
