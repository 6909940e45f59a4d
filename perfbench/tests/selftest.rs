//! Self-test of the benchmark: tiny runs of every workload report every
//! metric `BENCHMARK.json` names with its unit, a corrupted golden digest
//! is reported as a failure, and two seeds give different inputs under the
//! same metric names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the train workloads take 100 steps even in a tiny run).

use perfbench::{sim, train, Golden, Outcome, RunConfig, Workload, DEFAULT_SEED};
use superchip_sim::telemetry::{parse_json, JsonValue};

/// The entries listed under `section` in `BENCHMARK.json`.
fn section(section: &str) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    match doc.get(section) {
        Some(JsonValue::Arr(items)) => items.clone(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn field(entry: &JsonValue, key: &str) -> String {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .expect(key)
        .to_string()
}

/// `(name, unit)` of every metric listed under `section`.
fn declared(section_name: &str) -> Vec<(String, String)> {
    section(section_name)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.01,
        trace,
        golden: Golden::committed(),
    }
}

/// A tiny run: sim workloads over a cheap prefix of their configurations
/// (a prefix keeps each `sim-observe` diff partner, so golden digests
/// still apply).
fn tiny(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::SimSearch | Workload::SimObserve => {
            // 1B and 2B; or pytorch-ddp (infeasible at 4 ranks) and megatron.
            let n = if cfg.workload == Workload::SimSearch {
                2
            } else {
                6
            };
            let cases = sim::cases(cfg.workload, cfg.seed);
            sim::run(cfg, &cases[..n])
        }
        Workload::TrainStv | Workload::TrainWide => train::run(cfg, &train::Spec::of(cfg.workload)),
    }
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn tiny_runs_report_every_declared_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let names: Vec<String> = section("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(
        names,
        Workload::ALL.map(|w| w.name().to_string()).to_vec(),
        "BENCHMARK.json lists the workloads the binary runs"
    );
    for w in Workload::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = tiny(&config(w, DEFAULT_SEED, trace));
            assert_eq!(&reported(&out), want, "{} trace={trace}", w.name());
            assert!(out.checks.attempted > 0);
            assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
            assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
            if !trace {
                assert!(
                    out.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{}: {:?}",
                    w.name(),
                    out.metrics
                );
            }
            let json = perfbench::result_json(&out);
            parse_json(&json).expect("result line is JSON");
        }
    }
}

#[test]
fn corrupted_golden_digest_is_reported_as_a_failure() {
    for w in [Workload::SimObserve, Workload::TrainStv] {
        let clean = tiny(&config(w, DEFAULT_SEED, false));
        assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.messages);
        let (key, digest) = clean.digests.first().expect("a digest").clone();
        let mut cfg = config(w, DEFAULT_SEED, false);
        let flipped = if digest.starts_with('0') { "1" } else { "0" };
        cfg.golden
            .insert(w, &key, &format!("{flipped}{}", &digest[1..]));
        let out = tiny(&cfg);
        assert_eq!(out.checks.failed, 1, "{}", w.name());
        assert!(out.checks.messages.iter().any(|m| m.contains(&key)));
        assert!(!perfbench::result_json(&out).starts_with("{\"correct\":true"));
    }
}

#[test]
fn two_seeds_give_different_inputs_under_the_same_metric_names() {
    for w in [Workload::SimSearch, Workload::SimObserve] {
        assert_ne!(sim::cases(w, 1), sim::cases(w, 2), "{}", w.name());
        assert_eq!(sim::cases(w, 7), sim::cases(w, 7));
    }
    for w in [Workload::SimSearch, Workload::TrainStv] {
        let a = tiny(&config(w, 11, false));
        let b = tiny(&config(w, 12, false));
        assert_eq!(reported(&a), reported(&b));
        assert_ne!(a.digests, b.digests, "{}", w.name());
        assert_eq!(a.checks.failed + b.checks.failed, 0);
    }
}
