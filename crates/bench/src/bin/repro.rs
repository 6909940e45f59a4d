//! Regenerates every table and figure of the SuperOffload paper.
//!
//! ```text
//! cargo run --release -p superoffload-bench --bin repro -- all
//! cargo run --release -p superoffload-bench --bin repro -- fig10 table2
//! cargo run --release -p superoffload-bench --bin repro -- profile superoffload
//! cargo run --release -p superoffload-bench --bin repro -- analyze superoffload
//! cargo run --release -p superoffload-bench --bin repro -- compare base.json cur.json
//! cargo run --release -p superoffload-bench --bin repro -- journal --steps 24 --seed 42
//! cargo run --release -p superoffload-bench --bin repro -- realbench --steps 8
//! cargo run --release -p superoffload-bench --bin repro -- roofline --threads 4
//! cargo run --release -p superoffload-bench --bin repro -- scale --nodes 1..8
//! cargo run --release -p superoffload-bench --bin repro -- fleetview --nodes 4
//! cargo run --release -p superoffload-bench --bin repro -- calibrate
//! ```
//!
//! The subcommands live in `superoffload_bench::cli::COMMANDS`; exit codes
//! are 0 on success, 1 when a run or gate fails, 2 on a bad command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = superoffload_bench::cli::dispatch(&args) {
        eprintln!("{}", failure.message);
        std::process::exit(failure.code);
    }
}
