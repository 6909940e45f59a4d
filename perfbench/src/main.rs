//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! lines before it carry the run's provenance and supplementary figures.
//! A result file (and, for a traced run, a Perfetto trace) is written
//! under `$CARGO_TARGET_DIR/perfbench-out/` (default
//! `perfbench/target/perfbench-out/`).
//!
//! `--emit-golden` prints the run's output digests as golden-table lines
//! instead of a result.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Golden, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload <sim-search|sim-observe|train-stv|train-wide> \
                     --seed <n> --seconds <s> --trace <0|1> [--emit-golden]";

fn parse_args(args: &[String]) -> Result<(RunConfig, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut emit_golden = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-golden" {
            emit_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let cfg = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        golden: Golden::committed(),
    };
    Ok((cfg, emit_golden))
}

/// Where result and trace files go: inside the build directory, which is
/// never committed.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, emit_golden) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    if emit_golden {
        for (key, digest) in &outcome.digests {
            println!("{} {key} {digest}", cfg.workload.name());
        }
        return ExitCode::SUCCESS;
    }

    let provenance = perfbench::provenance_json(&cfg);
    let details = perfbench::details_json(&outcome);
    let result = perfbench::result_json(&outcome);
    for m in &outcome.checks.messages {
        eprintln!("perfbench: check failed: {m}");
    }
    if let Some(tracer) = &outcome.tracer {
        for (name, t) in tracer.layer_times() {
            eprintln!(
                "perfbench: span {name:<32} n={:<7} total {:>10.4} s  self {:>10.4} s",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
    }

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            format!("{{\"provenance\":{provenance},\"details\":{details},\"result\":{result}}}\n"),
        )?;
        if let Some(tracer) = &outcome.tracer {
            std::fs::write(
                dir.join(format!("{stem}.perfetto.json")),
                tracer.chrome_trace_json(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write to {}: {e}", dir.display());
    }

    println!("{{\"provenance\":{provenance}}}");
    println!("{{\"details\":{details}}}");
    println!("{result}");
    ExitCode::SUCCESS
}
