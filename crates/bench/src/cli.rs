//! The `repro` command line: one table of subcommands ([`COMMANDS`]), the
//! experiment list (`EXPERIMENTS`), the dispatcher that maps a failure
//! to an exit code, and [`write_artifacts`], the one place `repro` writes
//! a file. `bin/repro.rs` only calls [`dispatch`]. See DESIGN.md §20.

use std::path::Path;

use crate::{
    analyze, calibrate, compare, diff, experiments, fleetview, journal, profile, realbench,
    roofline, scale,
};

/// One `repro` subcommand.
pub struct Command {
    /// Subcommand name: `repro <name> ...`.
    pub name: &'static str,
    /// Positionals and flags after the name. Its `[--flag <value>]` entries
    /// are the declared flags; any other `--flag` is a usage error.
    pub usage: &'static str,
    /// `--help` text: what it does, what it writes, and the defaults.
    pub about: fn() -> String,
    /// Entry point; gets the arguments after the name.
    pub run: fn(&[String]) -> Result<(), String>,
}

/// Every `repro` subcommand. Each one writes artifacts, so each has a case
/// in `tests/artifact_contracts.rs`.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "profile",
        usage: "<system> [--out-dir <dir>]",
        about: || "Perfetto trace + metrics -> profile_<system>.trace.json, .json".into(),
        run: profile::run,
    },
    Command {
        name: "analyze",
        usage: "<system> [--out <path>]",
        about: || "critical path + stall attribution -> analysis_<system>.json".into(),
        run: analyze::run,
    },
    Command {
        name: "diff",
        usage: "<system-a> <system-b> [--nodes <N>] [--seed-a <S>] [--seed-b <S>] \
                [--out-dir <dir>]",
        about: || "conservation-exact causal run diff -> diff_<a>_vs_<b>.*".into(),
        run: diff::run,
    },
    Command {
        name: "compare",
        usage: "<baseline.json> <current.json> [--tolerance <frac>] [--out <path>]",
        about: || {
            format!(
                "exit 1 if metrics regress beyond the tolerance (default {});\n\
                 --out writes the {} verdict, pass or fail",
                compare::DEFAULT_TOLERANCE,
                compare::COMPARE_SCHEMA
            )
        },
        run: compare::run,
    },
    Command {
        name: "journal",
        usage: "[--steps <N>] [--seed <N>] [--peak-flops <F>] [--out-dir <dir>]",
        about: || {
            format!(
                "real journaled training run -> journal.jsonl, journal_timing.json,\n\
                 journal_snapshot.json, journal_dashboard.html (defaults: --steps {} --seed {})",
                journal::DEFAULT_STEPS,
                journal::DEFAULT_SEED
            )
        },
        run: journal::run,
    },
    Command {
        name: "realbench",
        usage: "[--steps <N>] [--seed <N>]",
        about: || {
            format!(
                "real-plane measurement -> BENCH_realplane.json (defaults: --steps {} --seed {})",
                realbench::REALPLANE_STEPS,
                realbench::REALPLANE_SEED
            )
        },
        run: realbench::run,
    },
    Command {
        name: "roofline",
        usage: "[--threads <N>] [--steps <N>] [--seed <N>] [--peak-flops <F>] [--peak-bw <B>] \
                [--out-dir <dir>]",
        about: || {
            format!(
                "measured kernel roofline -> roofline.json, roofline_trace.json\n\
                 (the run replayed as a simulator trace: driver, region and worker rows)\n\
                 (defaults: --threads 0 = all, --steps {}, --seed {}, --peak-flops {:.0e}, \
                 --peak-bw {:.0e})",
                realbench::REALPLANE_STEPS,
                realbench::REALPLANE_SEED,
                roofline::DEFAULT_PEAK_FLOPS,
                roofline::DEFAULT_PEAK_BW
            )
        },
        run: roofline::run,
    },
    Command {
        name: "calibrate",
        usage: "[--max-work <N>] [--reps <N>]",
        about: || {
            format!(
                "serial-vs-parallel crossover per kernel family -> calibration.json\n\
                 (defaults: --max-work {} --reps {})",
                calibrate::DEFAULT_MAX_WORK,
                calibrate::DEFAULT_REPS
            )
        },
        run: calibrate::run,
    },
    Command {
        name: "scale",
        usage: "[--nodes <A..B|N>] [--system <name>] [--out <path>]",
        about: || {
            format!(
                "multi-Superchip scaling sweep -> scale_sweep.json (or scale_<system>.json;\n\
                 defaults: --nodes {}..{}, systems {})",
                scale::DEFAULT_NODES.0,
                scale::DEFAULT_NODES.1,
                scale::DEFAULT_SYSTEMS.join(" ")
            )
        },
        run: scale::run,
    },
    Command {
        name: "fleetview",
        usage: "[--nodes <N>] [--system <name>] [--seed <N>] [--out-dir <dir>]",
        about: || {
            format!(
                "cross-node fleet observatory -> fleetview_<system>.json, .metrics.json,\n\
                 .events.jsonl, .trace.json, .html (defaults: --nodes {} --system {} --seed {})",
                fleetview::DEFAULT_FLEET_NODES,
                fleetview::DEFAULT_SYSTEM,
                fleetview::DEFAULT_SEED
            )
        },
        run: fleetview::run,
    },
];

/// A figure/table experiment: most only print, two also write files.
#[derive(Clone, Copy)]
pub(crate) enum Experiment {
    /// Prints to stdout.
    Print(fn()),
    /// Prints and writes artifacts; a failed write fails the run.
    Write(fn() -> Result<(), String>),
}

/// Every experiment, in `repro all` order.
pub(crate) const EXPERIMENTS: &[(&str, Experiment)] = {
    use Experiment::{Print, Write};
    &[
        ("table1", Print(experiments::print_table1)),
        ("fig4", Print(experiments::print_fig4)),
        ("fig6", Print(experiments::print_fig6)),
        ("fig7", Print(experiments::print_fig7)),
        ("fig9", Print(experiments::print_fig9)),
        ("fig10", Print(experiments::print_fig10)),
        ("fig11", Print(print_fig11_both)),
        ("fig12", Print(experiments::print_fig12)),
        ("fig13", Print(experiments::print_fig13)),
        ("table2", Print(experiments::print_table2)),
        ("table3", Print(realbench::print_table3)),
        ("fig14", Print(realbench::print_fig14)),
        ("realbench", Write(|| realbench::run(&[]))),
        ("fig15", Print(experiments::print_fig15)),
        ("timelines", Write(experiments::print_timelines)),
        ("numa", Print(experiments::print_numa)),
        ("bucket-sweep", Print(experiments::print_bucket_sweep)),
        ("pipeline", Print(experiments::print_pipeline)),
        ("systems", Print(experiments::print_systems)),
    ]
};

fn print_fig11_both() {
    experiments::print_fig11(4);
    println!();
    experiments::print_fig11(16);
}

/// A failed `repro` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The exit code: 2 for a bad command line (no arguments, an unknown
    /// name, an undeclared flag), 1 when a subcommand or experiment fails,
    /// a failed `compare` gate included.
    pub code: i32,
    /// The message for stderr.
    pub message: String,
}

fn usage_error(message: String) -> Failure {
    Failure { code: 2, message }
}

/// What an argument line asks for.
pub(crate) enum Invocation<'a> {
    /// `--help` or `-h` anywhere on the line.
    Help,
    /// Every argument names an experiment (or `all`).
    Experiments(Vec<&'static (&'static str, Experiment)>),
    /// A subcommand row and the arguments after its name.
    Command(&'static Command, &'a [String]),
}

/// Classifies `args` (the arguments after `repro`) without running them.
/// If every argument names an experiment, the line is an experiment list,
/// so `realbench table1` runs both. Otherwise the first argument must name
/// a [`COMMANDS`] row, and every `--flag` after it must be one the row
/// declares.
///
/// # Errors
/// An exit-2 [`Failure`] on an empty line, an unknown name, or an undeclared
/// flag.
pub(crate) fn classify(args: &[String]) -> Result<Invocation<'_>, Failure> {
    if args.is_empty() {
        return Err(usage_error(help()));
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Invocation::Help);
    }
    let experiment = |a: &str| EXPERIMENTS.iter().find(|(n, _)| *n == a);
    let Some(unknown) = args.iter().find(|a| *a != "all" && experiment(a).is_none()) else {
        return Ok(Invocation::Experiments(
            if args.iter().any(|a| a == "all") {
                EXPERIMENTS.iter().collect()
            } else {
                args.iter().filter_map(|a| experiment(a)).collect()
            },
        ));
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == args[0]) else {
        let message = format!("unknown subcommand or experiment `{unknown}`; run with --help");
        return Err(usage_error(message));
    };
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let declared = |t: &str| t.strip_prefix("[--") == Some(flag);
            if !cmd.usage.split_whitespace().any(declared) {
                let usage = format!("usage: repro {} {}", cmd.name, cmd.usage);
                return Err(usage_error(format!(
                    "{}: unknown flag `{arg}`\n{usage}",
                    cmd.name
                )));
            }
            rest.next(); // the flag's value
        }
    }
    Ok(Invocation::Command(cmd, &args[1..]))
}

/// Classifies and runs `args`; `--help` prints the help text to stderr.
///
/// # Errors
/// The [`Failure`] that sets `repro`'s exit code.
pub fn dispatch(args: &[String]) -> Result<(), Failure> {
    let failed = |name: &'static str| {
        move |msg| Failure {
            code: 1,
            message: format!("{name} failed: {msg}"),
        }
    };
    match classify(args)? {
        Invocation::Help => eprintln!("{}", help()),
        Invocation::Experiments(selected) => {
            for (i, (name, experiment)) in selected.iter().enumerate() {
                if i > 0 {
                    println!("\n{}\n", "=".repeat(72));
                }
                match experiment {
                    Experiment::Print(f) => f(),
                    Experiment::Write(f) => f().map_err(failed(name))?,
                }
            }
        }
        Invocation::Command(cmd, rest) => (cmd.run)(rest).map_err(failed(cmd.name))?,
    }
    Ok(())
}

/// The `--help` text, generated from [`COMMANDS`] and [`EXPERIMENTS`].
pub(crate) fn help() -> String {
    let mut out = String::from(
        "usage: repro <subcommand> [flags]\n\nsubcommands:\n  \
         <experiment>...    print one or more figure/table experiments\n  \
         all                print every experiment in order\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("  {} {}\n", cmd.name, cmd.usage));
        for line in (cmd.about)().lines() {
            out.push_str(&format!("                     {line}\n"));
        }
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    out.push_str(&format!(
        "\nexperiments: {} all\n\
         system names accept both spellings: zero-offload == zero_offload\n\
         exit codes: 0 ok, 1 a run or gate failed, 2 bad command line",
        names.join(" ")
    ));
    out
}

/// Pulls `--<name> <value>` out of `args`, parsing the value with `parse`.
///
/// Returns `Ok(None)` when the flag is absent, an error message when the
/// flag is present without a valid value.
pub fn parse_flag<T>(
    args: &[String],
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    match args.iter().position(|a| *a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| parse(v))
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value, e.g. `{flag} 8`")),
    }
}

/// Parses `--out-dir <dir>`, or `"."` (the cwd) when absent.
pub(crate) fn parse_out_dir(args: &[String]) -> Result<String, String> {
    Ok(parse_flag(args, "out-dir", |v| Some(v.to_string()))?.unwrap_or_else(|| ".".into()))
}

/// Writes every `(path, body)` pair: the one place `repro` writes a file.
///
/// Each file's parent directories are created, the file is written, and a
/// `wrote <path>` line is printed. JSON bodies are not re-parsed here: they
/// come from `superchip_sim::telemetry::JsonWriter`, which only writes
/// valid JSON, and `tests/artifact_contracts.rs` parses every artifact.
///
/// # Errors
/// A message naming the file on any I/O failure.
pub fn write_artifacts<P: AsRef<Path>, B: AsRef<str>>(files: &[(P, B)]) -> Result<(), String> {
    for (path, body) in files {
        let path = path.as_ref();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("could not create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, body.as_ref())
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::telemetry::{parse_json, JsonValue};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn all_experiment_names_are_an_experiment_list() {
        let names = |line: &str| match classify(&args(line)) {
            Ok(Invocation::Experiments(list)) => list.iter().map(|(n, _)| *n).collect(),
            _ => Vec::new(),
        };
        // `realbench` leads, but every argument names an experiment.
        assert_eq!(names("realbench table1"), ["realbench", "table1"]);
        assert_eq!(names("fig10 all").len(), EXPERIMENTS.len());
        // A flag makes the line the leading subcommand's.
        let line = args("realbench --steps 2");
        let row = classify(&line);
        assert!(
            matches!(row, Ok(Invocation::Command(c, rest)) if c.name == "realbench" && rest == &line[1..])
        );
        assert!(matches!(classify(&args("fig10 -h")), Ok(Invocation::Help)));
    }

    #[test]
    fn usage_errors_exit_2() {
        let no_args = dispatch(&[]).unwrap_err();
        assert_eq!(no_args.code, 2);
        assert!(COMMANDS.iter().all(|c| no_args.message.contains(c.usage)));
        let unknown = dispatch(&args("fig10 bogus")).unwrap_err();
        assert_eq!(unknown.code, 2);
        assert!(unknown.message.contains("`bogus`"), "{unknown:?}");
        // An undeclared flag fails before the run starts.
        let flag = dispatch(&args("journal --step 1 --out-dir j")).unwrap_err();
        assert_eq!(flag.code, 2);
        let usage = "usage: repro journal [--steps <N>] [--seed <N>]";
        let expected = format!("journal: unknown flag `--step`\n{usage}");
        assert!(flag.message.starts_with(&expected), "{flag:?}");
    }

    #[test]
    fn run_errors_exit_1() {
        // A bad flag value is the subcommand's error, not a usage error.
        let value = dispatch(&args("journal --steps 0")).unwrap_err();
        assert_eq!(value.message, "journal failed: --steps must be at least 1");
        assert_eq!(value.code, 1);
        let missing = dispatch(&args("compare /no/such/a.json /no/such/b.json")).unwrap_err();
        assert!(
            missing.code == 1 && missing.message.contains("cannot read"),
            "{missing:?}"
        );
        // So is a failed gate, which still writes its verdict.
        let dir = std::env::temp_dir().join(format!("repro-cli-gate-{}", std::process::id()));
        let (base, cur) = (dir.join("base.json"), dir.join("cur.json"));
        write_artifacts(&[
            (&base, r#"{"makespan_us": 1}"#),
            (&cur, r#"{"makespan_us": 2}"#),
        ])
        .unwrap();
        let out = dir.join("new").join("verdict.json");
        let line = format!(
            "compare {} {} --out {}",
            base.display(),
            cur.display(),
            out.display()
        );
        let gate = dispatch(&args(&line)).unwrap_err();
        assert_eq!(gate.code, 1);
        assert!(gate
            .message
            .starts_with("compare failed: 1 metric(s) regressed"));
        let verdict = std::fs::read_to_string(&out).unwrap();
        assert!(verdict.contains(compare::COMPARE_SCHEMA) && verdict.contains("\"passed\": false"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_writes_a_verdict_for_numbers_beyond_f64() {
        // `1e400` is valid JSON but overflows `f64` to infinity, which the
        // verdict writes as `null`; the gate outcome sets the exit code.
        let dir = std::env::temp_dir().join(format!("repro-cli-inf-{}", std::process::id()));
        let (big, small) = (dir.join("big.json"), dir.join("small.json"));
        write_artifacts(&[
            (&big, r#"{"makespan_us": 1e400}"#),
            (&small, r#"{"makespan_us": 5}"#),
        ])
        .unwrap();
        let verdict = dir.join("verdict.json");
        let compare = |base: &Path, cur: &Path| {
            let line = format!(
                "compare {} {} --out {}",
                base.display(),
                cur.display(),
                verdict.display()
            );
            let outcome = dispatch(&args(&line));
            let body = std::fs::read_to_string(&verdict).unwrap();
            let v = parse_json(&body).unwrap();
            let rows = |key| match v.get(key) {
                Some(JsonValue::Arr(rows)) => rows.clone(),
                other => panic!("`{key}` is not an array: {other:?}"),
            };
            let metric = rows("regressions").into_iter().chain(rows("drifts")).next();
            std::fs::remove_file(&verdict).unwrap();
            (outcome, metric.expect("the one metric is compared"))
        };
        // Shorter than an infinite baseline: an in-tolerance drift, exit 0.
        let (outcome, drift) = compare(&big, &small);
        assert_eq!(outcome, Ok(()));
        assert_eq!(drift.get("baseline"), Some(&JsonValue::Null));
        // Infinitely slower than the baseline: a regression, exit 1.
        let (outcome, regression) = compare(&small, &big);
        assert_eq!(outcome.unwrap_err().code, 1);
        assert_eq!(regression.get("current"), Some(&JsonValue::Null));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_creates_parents_and_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("repro-cli-writer-{}", std::process::id()));
        let nested = dir.join("new").join("sub").join("x.json");
        write_artifacts(&[(&nested, "{}")]).unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{}");
        // A parent that is a regular file cannot hold a file.
        let err = write_artifacts(&[(nested.join("y.json"), "{}")]).unwrap_err();
        assert!(err.starts_with("could not create"), "{err}");
        // Other extensions are written as they are.
        write_artifacts(&[(dir.join("page.html"), "<p>not json</p>")]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
