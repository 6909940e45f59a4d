//! Long-sequence training with SuperOffload-Ulysses: push a 13B model to a
//! million-token context on 8 Superchips (the paper's Fig. 12 headline).
//!
//! Run with: `cargo run --release --example long_sequence_ulysses`

use llm_model::ModelConfig;
use superchip_sim::presets;
use superoffload::schedule::SuperOffloadOptions;
use superoffload::ulysses::{max_sequence_length, simulate_ulysses_traced, SequenceSystem};

fn main() {
    let cluster = presets::gh200_nvl2_cluster(4); // 8 GH200 Superchips
    let ranks = 8;
    let mut model = ModelConfig::by_name("13B").expect("appendix-a 13B");
    model.max_seq = 1 << 21; // extend the context window (RoPE positions)
    let opts = SuperOffloadOptions::default();

    println!("13B model on {ranks} GH200 Superchips — sequence-length ladder\n");
    println!(
        "{:>8} {:>16} {:>22}",
        "seq", "ulysses", "superoffload-ulysses"
    );
    let mut seq = 32 * 1024u64;
    while seq <= (1 << 20) {
        let cell = |sys: SequenceSystem| match simulate_ulysses_traced(
            &cluster, ranks, &model, seq, sys, &opts,
        ) {
            Ok((r, _)) => format!("{:.1}% MFU", r.mfu * 100.0),
            Err(_) => "OOM".to_string(),
        };
        println!(
            "{:>7}k {:>16} {:>22}",
            seq / 1024,
            cell(SequenceSystem::Ulysses),
            cell(SequenceSystem::SuperOffloadUlysses)
        );
        seq *= 2;
    }

    let max_vanilla = max_sequence_length(
        &cluster,
        ranks,
        &model,
        SequenceSystem::Ulysses,
        1 << 21,
        &opts,
    );
    let max_ours = max_sequence_length(
        &cluster,
        ranks,
        &model,
        SequenceSystem::SuperOffloadUlysses,
        1 << 21,
        &opts,
    );
    let f = |x: Option<u64>| x.map(|v| format!("{}k", v / 1024)).unwrap_or("OOM".into());
    println!(
        "\nmax sequence: ulysses {} vs superoffload-ulysses {}",
        f(max_vanilla),
        f(max_ours)
    );
    if let (Some(v), Some(o)) = (max_vanilla, max_ours) {
        println!(
            "-> {}x longer sequences (paper: 8x, 1M tokens at ~55% MFU)",
            o / v
        );
    }
}
