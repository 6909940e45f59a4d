//! The `repro` artifact contract. Each row of `cli::COMMANDS` has a case
//! that runs it with the arguments CI uses, into a fresh temp dir, and
//! asserts what its artifacts promise: conservation sums, paired flows,
//! self-contained HTML. Deterministic files must be byte-identical on a
//! one-thread rerun, and every non-trace JSON document (or JSONL header)
//! must carry a `superoffload.<name>/v<N>` schema key. Every deterministic
//! file is also pinned byte for byte: the four that have a committed
//! `ci/baselines/` snapshot against it, every other one against the FNV-1a
//! table in `golden/artifacts.digests`. `realbench` and `calibrate` write
//! into the cwd, so their cases build the documents through the library.
//! The cases run one after another in one test; each run records into its
//! own scoped `tensorlite::Recorder` (DESIGN.md §24), so none depends on
//! that order. The printed tables of the cheap simulated experiments
//! (`fig4`, `fig10`, `fig11`, `fig15`, `table2`, `bucket-sweep`, `numa`,
//! `pipeline`, `systems`) are pinned as well: a second test runs the
//! `repro` binary and compares each stdout with its FNV-1a row in
//! `golden/stdout.digests`.

use std::path::Path;

use superchip_sim::telemetry::{parse_json, JsonValue};
use superoffload_bench::cli::{self, COMMANDS};
use superoffload_bench::{calibrate, experiments, realbench};

/// How a case writes its artifacts into `{dir}`.
enum Run {
    /// `repro` lines; `{dir}` is the case's directory, `{ci}` the repo's
    /// `ci/` directory.
    Repro(&'static [&'static str]),
    /// Builds the documents through the library.
    Library(fn(&Path)),
}
use Run::{Library, Repro};

/// One artifact contract.
struct Case {
    /// The `COMMANDS` row (or experiment) it covers.
    name: &'static str,
    run: Run,
    /// Asserts the artifact invariants on what `run` wrote.
    check: fn(&Path),
    /// Whether a file's bytes must survive a one-thread rerun. Wall-clock
    /// files are exempt.
    stable: fn(&str) -> bool,
}

const CASES: &[Case] = &[
    Case {
        name: "profile",
        // SuperOffload records its own telemetry; ZeRO-Offload's profile is
        // derived from its trace (`RunProfile::from_trace`).
        run: Repro(&[
            "profile superoffload --out-dir {dir}",
            "profile zero-offload --out-dir {dir}",
        ]),
        check: check_profile,
        stable: |_| true,
    },
    Case {
        name: "analyze",
        run: Repro(&[
            "analyze superoffload --out {dir}/analysis_superoffload.json",
            "analyze zero_offload --out {dir}/analysis_zero-offload.json",
        ]),
        check: check_analyze,
        stable: |_| true,
    },
    Case {
        name: "scale",
        // `{dir}` does not exist yet: the writer creates it.
        run: Repro(&["scale --nodes 1..4 --system superoffload \
                      --out {dir}/scale_superoffload.json"]),
        check: check_scale,
        stable: |_| true,
    },
    Case {
        name: "fleetview",
        run: Repro(&["fleetview --nodes 4 --out-dir {dir}"]),
        check: check_fleetview,
        stable: |_| true,
    },
    Case {
        name: "diff",
        run: Repro(&[
            "diff superoffload superoffload --nodes 2 --seed-a 1 --seed-b 2 \
             --out-dir {dir}",
        ]),
        check: check_diff,
        stable: |_| true,
    },
    Case {
        name: "compare",
        run: Repro(&["compare {ci}/baselines/analysis_superoffload.json \
                      {ci}/baselines/analysis_superoffload.json --tolerance 0.02 \
                      --out {dir}/compare.verdict.json"]),
        check: |dir| {
            let v = doc(dir, "compare.verdict.json");
            assert!(flag(&v, "passed") && num(&v, "compared") > 0.0);
            assert!(list(&v, "regressions").is_empty());
        },
        stable: |_| true,
    },
    Case {
        name: "journal",
        run: Repro(&["journal --steps 3 --out-dir {dir}"]),
        check: check_journal,
        stable: |name| name == "journal.jsonl" || name == "journal_snapshot.json",
    },
    Case {
        name: "roofline",
        // Two threads, so worker and region rows exist on any host.
        run: Repro(&["roofline --steps 2 --threads 2 --out-dir {dir}"]),
        check: check_roofline,
        stable: |_| false,
    },
    Case {
        name: "realbench",
        // The default steps and seed, on a small GEMM.
        run: Library(|dir| {
            let (steps, seed) = (realbench::REALPLANE_STEPS, realbench::REALPLANE_SEED);
            write(
                dir,
                "BENCH_realplane.json",
                realbench::realplane(64, steps, seed).to_json(),
            );
        }),
        check: |dir| {
            let b = doc(dir, "BENCH_realplane.json");
            assert!(
                flag(&b, "train_step.bit_identical"),
                "parallel diverged from serial"
            );
        },
        stable: |_| false,
    },
    Case {
        name: "calibrate",
        run: Library(|dir| {
            write(
                dir,
                "calibration.json",
                calibrate::calibrate(262_144, 2).to_json(),
            );
        }),
        check: |dir| {
            let c = doc(dir, "calibration.json");
            assert_eq!(text(&c, "schema"), "superoffload.calibration/v1");
            assert!(num(&c, "fma_peak_gflops") > 0.0);
            assert_eq!(list(&c, "families").len(), 6);
            for f in list(&c, "families") {
                assert!(!list(f, "points").is_empty() && num(f, "default_threshold") > 0.0);
            }
        },
        stable: |_| false,
    },
    Case {
        name: "timelines",
        run: Library(|dir| {
            let (_, zero) = experiments::fig3_timeline().expect("ZeRO-Offload timeline");
            let (_, ours) = experiments::fig8_timeline().expect("SuperOffload timeline");
            write(dir, "zero_offload_timeline.json", zero);
            write(dir, "superoffload_timeline.json", ours);
        }),
        check: |dir| {
            for name in ["zero_offload_timeline.json", "superoffload_timeline.json"] {
                assert!(events(&doc(dir, name), "X").next().is_some(), "{name}");
            }
        },
        stable: |_| true,
    },
];

#[test]
fn every_command_has_a_contract() {
    for cmd in COMMANDS {
        let covered = CASES.iter().any(|c| c.name == cmd.name);
        assert!(covered, "`repro {}` has no artifact contract", cmd.name);
    }
}

/// Deterministic artifacts byte-compared against the committed
/// `ci/baselines/` snapshot of the same name.
const BASELINES: [&str; 4] = [
    "analysis_superoffload.json",
    "analysis_zero-offload.json",
    "scale_superoffload.json",
    "fleetview_superoffload.json",
];

/// Deterministic artifacts left unpinned: the compare verdict embeds the
/// paths of its inputs, which differ from one checkout to the next.
const UNPINNED: [&str; 1] = ["compare.verdict.json"];

/// `file length digest` rows: every deterministic artifact that is neither
/// in [`BASELINES`] nor in [`UNPINNED`].
const DIGESTS: &str = include_str!("golden/artifacts.digests");

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks one deterministic artifact against its pin and returns whether
/// it was a `DIGESTS` row.
fn check_pinned(dir: &Path, name: &str) -> bool {
    let body = std::fs::read(dir.join(name)).unwrap();
    if BASELINES.contains(&name) {
        let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/baselines");
        let pinned = std::fs::read(Path::new(baselines).join(name)).unwrap();
        assert!(body == pinned, "{name} differs from ci/baselines/{name}");
        return false;
    }
    if UNPINNED.contains(&name) {
        return false;
    }
    let line = format!("{name} {} {:016x}", body.len(), fnv1a(&body));
    let row = DIGESTS
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("{name} has no row in golden/artifacts.digests: {line}"));
    assert_eq!(
        row, line,
        "{name}: bytes drifted from golden/artifacts.digests"
    );
    true
}

#[test]
fn artifacts_keep_their_contracts() {
    let root = std::env::temp_dir().join(format!("artifact-contracts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut digests_checked = 0;
    for case in CASES {
        let dir = root.join(case.name);
        run(&case.run, &dir);
        (case.check)(&dir);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let stable: Vec<&String> = names.iter().filter(|n| (case.stable)(n)).collect();
        if !stable.is_empty() {
            let rerun = root.join(format!("{}-rerun", case.name));
            tensorlite::pool::with_threads(1, || run(&case.run, &rerun));
            for name in stable {
                let bytes = |d: &Path| std::fs::read(d.join(name)).unwrap();
                assert!(
                    bytes(&dir) == bytes(&rerun),
                    "{name} changed on a one-thread rerun"
                );
                digests_checked += usize::from(check_pinned(&dir, name));
            }
        }
        names.iter().for_each(|name| check_schema(&dir, name));
    }
    std::fs::remove_dir_all(&root).unwrap();
    let rows = DIGESTS.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(
        digests_checked, rows,
        "a golden/artifacts.digests row was not produced"
    );
}

/// `experiment length digest` rows: the stdout of `repro <experiment>`, one
/// per cheap simulated figure or table.
const STDOUT_DIGESTS: &str = include_str!("golden/stdout.digests");

#[test]
fn search_figures_keep_their_stdout() {
    for row in STDOUT_DIGESTS.lines().filter(|l| !l.starts_with('#')) {
        let name = row.split(' ').next().unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(name)
            .output()
            .unwrap_or_else(|e| panic!("repro {name}: {e}"));
        assert!(out.status.success(), "repro {name} exited {}", out.status);
        let line = format!("{name} {} {:016x}", out.stdout.len(), fnv1a(&out.stdout));
        assert_eq!(
            row,
            line,
            "repro {name}: stdout drifted from golden/stdout.digests:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

fn check_profile(dir: &Path) {
    for system in ["superoffload", "zero-offload"] {
        let trace = doc(dir, &format!("profile_{system}.trace.json"));
        let busy = events(&trace, "C").filter(|e| text(e, "name").starts_with("occupancy:"));
        assert!(busy.count() > 0, "{system}: no link busy track");
        let snapshot = read(dir, &format!("profile_{system}.json"));
        assert!(
            !snapshot.contains("\"active:"),
            "{system}: the busy signal is in the metrics too"
        );
    }
}

fn check_analyze(dir: &Path) {
    for file in ["analysis_superoffload.json", "analysis_zero-offload.json"] {
        let a = doc(dir, file);
        assert_eq!(text(&a, "schema"), "superoffload.analysis/v1");
        for r in list(&a, "stalls.resources") {
            assert_eq!(sum(r, "classes"), num(r, "idle_us"), "{file}: {r:?}");
        }
        let total = sum(&a, "stalls.by_class_us");
        assert_eq!(total, num(&a, "stalls.total_idle_us"), "{file}");
    }
}

fn check_scale(dir: &Path) {
    let d = doc(dir, "scale_superoffload.json");
    assert_eq!(text(&d, "schema"), "superoffload.scale/v1");
    assert_eq!(text(&d, "meta.nodes"), "1..4");
    let [system] = list(&d, "systems") else {
        panic!("expected one system");
    };
    assert_eq!(text(system, "name"), "superoffload");
    let points = list(system, "points");
    let nodes: Vec<f64> = points.iter().map(|p| num(p, "nodes")).collect();
    assert_eq!(nodes, [1.0, 2.0, 3.0, 4.0]);
    for p in points {
        assert_eq!(text(p, "name"), format!("nodes-{}", num(p, "nodes")));
        assert!(flag(p, "feasible"), "{p:?}");
        assert!(num(p, "tflops-per-node") > 0.0, "{p:?}");
        assert!(num(p, "comm-exposed-us") >= 0.0, "{p:?}");
    }
}

fn check_fleetview(dir: &Path) {
    let d = doc(dir, "fleetview_superoffload.json");
    assert_eq!(text(&d, "schema"), "superoffload.fleetview/v1");
    assert_eq!(text(&d, "meta.nodes"), "4");
    let nodes = list(&d, "nodes");
    assert_eq!((nodes.len(), list(&d, "stragglers").len()), (4, 4));
    for n in nodes {
        assert_eq!(sum(n, "stalls"), num(n, "idle-us"), "{n:?}");
    }
    let slowest = nodes
        .iter()
        .map(|n| num(n, "makespan-us"))
        .fold(0.0, f64::max);
    assert_eq!(num(&d, "fleet.makespan-us"), slowest);
    assert!(num(&d, "fleet.binding-collective.dur-us") > 0.0);

    let m = doc(dir, "fleetview_superoffload.metrics.json");
    assert_eq!(text(&m, "schema"), "superoffload.metrics/v1");
    assert_eq!(text(&m, "meta.kind"), "fleetview");
    assert!(matches!(at(&m, "histograms"), JsonValue::Obj(h) if !h.is_empty()));

    let log = read(dir, "fleetview_superoffload.events.jsonl");
    let lines: Vec<JsonValue> = log.lines().map(|l| parse_json(l).unwrap()).collect();
    assert_eq!(text(&lines[0], "schema"), "superoffload.events/v1");
    for kind in ["collective-begin", "lease-acquire"] {
        assert!(lines
            .iter()
            .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some(kind)));
    }
    assert!(lines
        .iter()
        .any(|e| e.get("scope").and_then(JsonValue::as_str) == Some("fleetview@node1")));

    let trace = doc(dir, "fleetview_superoffload.trace.json");
    let mut finishes: Vec<f64> = events(&trace, "f").map(|e| num(e, "id")).collect();
    finishes.sort_by(f64::total_cmp);
    let starts: Vec<f64> = events(&trace, "s").map(|e| num(e, "id")).collect();
    assert!(!starts.is_empty(), "no flow arrows");
    let paired = |id: &f64| finishes.binary_search_by(|f| f.total_cmp(id)).is_ok();
    assert!(starts.iter().all(paired), "unpaired flows");
    let mut pids: Vec<f64> = events(&trace, "X").map(|e| num(e, "pid")).collect();
    pids.sort_by(f64::total_cmp);
    pids.dedup();
    assert_eq!(pids, [0.0, 1.0, 2.0, 3.0]);
    assert!(events(&trace, "M").any(|e| text(e, "name") == "process_name"));
    assert_self_contained(dir, "fleetview_superoffload.html");
}

fn check_diff(dir: &Path) {
    let stem = "diff_superoffload-n2-s1_vs_superoffload-n2-s2";
    let d = doc(dir, &format!("{stem}.json"));
    assert_eq!(text(&d, "schema"), "superoffload.diff/v1");
    let delta = num(&d, "makespan_delta_us");
    assert_eq!(delta, num(&d, "makespan_b_us") - num(&d, "makespan_a_us"));
    assert!(!flag(&d, "zero"), "skew seeds 1 vs 2 must differ");
    let resources = list(&d, "resources");
    assert!(!resources.is_empty(), "no resource partitions");
    for r in resources {
        let (busy, idle) = (num(r, "busy_delta_us"), num(r, "idle_delta_us"));
        assert_eq!(busy + idle, delta, "{r:?}");
        assert_eq!(num(r, "task_delta_us"), busy, "{r:?}");
        assert_eq!(sum(r, "by_class_delta_us"), idle, "{r:?}");
    }
    assert!(!list(&d, "top_contributors").is_empty(), "no attribution");
    // Run A on even pids, run B on odd.
    let trace = doc(dir, &format!("{stem}.trace.json"));
    let pids: Vec<f64> = events(&trace, "X").map(|e| num(e, "pid")).collect();
    assert!(pids.iter().any(|p| p % 2.0 == 0.0) && pids.iter().any(|p| p % 2.0 == 1.0));
    assert_self_contained(dir, &format!("{stem}.html"));
}

fn check_journal(dir: &Path) {
    let jsonl = read(dir, "journal.jsonl");
    let lines: Vec<JsonValue> = jsonl.lines().map(|l| parse_json(l).unwrap()).collect();
    assert_eq!(lines.len(), 4, "header + 3 records");
    assert_eq!(text(&lines[0], "schema"), "superoffload.journal/v1");
    assert_eq!(num(&lines[0], "steps"), 3.0);
    for rec in &lines[1..] {
        let outcome = text(rec, "outcome");
        assert!(
            ["applied", "clipped", "skipped"].contains(&outcome),
            "{rec:?}"
        );
        assert!(
            num(rec, "flops") > 0.0 && num(rec, "tokens") > 0.0,
            "{rec:?}"
        );
    }
    doc(dir, "journal_timing.json");
    let snap = doc(dir, "journal_snapshot.json");
    assert_eq!(text(&snap, "meta.kind"), "superoffload.journal/v1");
    assert_self_contained(dir, "journal_dashboard.html");
}

fn check_roofline(dir: &Path) {
    let d = doc(dir, "roofline.json");
    assert_eq!(text(&d, "schema"), "superoffload.roofline/v1");
    assert_eq!(num(&d, "steps"), 2.0);
    let kernels = list(&d, "kernels");
    assert!(!kernels.is_empty(), "no kernel rows");
    let total = |key| kernels.iter().map(|k| num(k, key)).sum::<f64>();
    assert_eq!(total("flops"), num(&d, "total-flops"));
    assert_eq!(total("bytes"), num(&d, "total-bytes"));
    for k in kernels {
        assert!(num(k, "calls") > 0.0 && num(k, "busy-secs") >= 0.0, "{k:?}");
        assert!(["compute", "memory"].contains(&text(k, "bound")), "{k:?}");
    }
    let trace = doc(dir, "roofline_trace.json");
    assert!(events(&trace, "X").next().is_some(), "no slices");
    // One row per worker of the sidecar; the rows carry the busy signal,
    // so no counter track repeats it.
    let rows: Vec<&str> = events(&trace, "M").map(|e| text(e, "args.name")).collect();
    for w in list(&d, "workers") {
        let row = format!("worker-{}", num(w, "worker"));
        assert_eq!(
            rows.iter().filter(|&&r| r == row).count(),
            1,
            "{row} in {rows:?}"
        );
    }
    assert!(
        rows.iter().any(|r| r.ends_with(":regions")),
        "no region row in {rows:?}"
    );
    assert!(events(&trace, "C").next().is_none(), "counter records");
}

/// Every file is non-empty and parses; every non-trace JSON document and
/// every JSONL header carries a `superoffload.<name>/v<N>` schema key.
fn check_schema(dir: &Path, name: &str) {
    let body = read(dir, name);
    let parse = |s: &str| parse_json(s).unwrap_or_else(|e| panic!("{name}: {e}"));
    // Trace Event files follow an external format with no schema key.
    let versioned = if name.ends_with(".jsonl") {
        let mut lines = body.lines().map(parse);
        let header = lines.next();
        assert!(lines.count() > 0, "{name} carries no records");
        header
    } else if name.ends_with(".json") {
        let doc = parse(&body);
        (!name.ends_with("trace.json") && !name.ends_with("_timeline.json")).then_some(doc)
    } else {
        None
    };
    if let Some(doc) = versioned {
        let schema = text(&doc, "schema");
        let (kind, version) = schema
            .strip_prefix("superoffload.")
            .and_then(|rest| rest.split_once("/v"))
            .unwrap_or_default();
        let kind_ok = !kind.is_empty() && kind.chars().all(|c| c.is_ascii_lowercase() || c == '-');
        let version_ok = !version.is_empty() && version.chars().all(|c| c.is_ascii_digit());
        assert!(
            kind_ok && version_ok,
            "{name}: schema {schema:?} is not superoffload.<name>/v<N>"
        );
    }
}

fn assert_self_contained(dir: &Path, name: &str) {
    let html = read(dir, name);
    assert!(
        !html.contains("http") && !html.contains("src="),
        "{name}: external asset"
    );
}

fn run(run: &Run, dir: &Path) {
    match run {
        Repro(lines) => {
            let ci = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci");
            for line in *lines {
                let args: Vec<String> = line
                    .split_whitespace()
                    .map(|a| {
                        a.replace("{dir}", &dir.to_string_lossy())
                            .replace("{ci}", ci)
                    })
                    .collect();
                cli::dispatch(&args).unwrap_or_else(|f| panic!("repro {line}: {}", f.message));
            }
        }
        Library(build) => build(dir),
    }
}

fn write(dir: &Path, name: &str, body: String) {
    cli::write_artifacts(&[(dir.join(name), body)]).unwrap();
}

fn read(dir: &Path, name: &str) -> String {
    let body = std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(!body.is_empty(), "{name} is empty");
    body
}

fn doc(dir: &Path, name: &str) -> JsonValue {
    parse_json(&read(dir, name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The member at a dotted key path.
fn at<'a>(v: &'a JsonValue, path: &str) -> &'a JsonValue {
    let member = |v: &'a JsonValue, key| v.get(key).unwrap_or_else(|| panic!("no `{path}`"));
    path.split('.').fold(v, member)
}

fn num(v: &JsonValue, path: &str) -> f64 {
    at(v, path).as_f64().expect(path)
}

fn text<'a>(v: &'a JsonValue, path: &str) -> &'a str {
    at(v, path).as_str().expect(path)
}

fn flag(v: &JsonValue, path: &str) -> bool {
    at(v, path).as_bool().expect(path)
}

fn list<'a>(v: &'a JsonValue, path: &str) -> &'a [JsonValue] {
    match at(v, path) {
        JsonValue::Arr(items) => items,
        other => panic!("`{path}` is not an array: {other:?}"),
    }
}

/// The sum of an object's numeric members.
fn sum(v: &JsonValue, path: &str) -> f64 {
    match at(v, path) {
        JsonValue::Obj(members) => members.iter().map(|(_, x)| x.as_f64().unwrap()).sum(),
        other => panic!("`{path}` is not an object: {other:?}"),
    }
}

/// The Trace Event records of phase `ph`.
fn events<'a>(trace: &'a JsonValue, ph: &'a str) -> impl Iterator<Item = &'a JsonValue> {
    let JsonValue::Arr(all) = trace else {
        panic!("a trace is a JSON array");
    };
    all.iter()
        .filter(move |e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
}
