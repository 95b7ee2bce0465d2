//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-zipf|bank-open|txil-o4|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the workload's notes, a `meta` line with the run metadata and,
//! last, the result JSON. Exits 1 when an output check failed and 2 on
//! bad arguments.

use std::process::ExitCode;

use omt_perfbench::{meta_json, result_json, run, Opts, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag takes a value") };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 600.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds (0 < s <= 600) and --trace (0 or 1) are required",
        );
    };
    let opts = Opts { seed, seconds, trace };
    let names: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    let mut all_correct = true;
    for name in names {
        let Some(report) = run(name, &opts) else {
            return usage(&format!("unknown workload {name}"));
        };
        for note in &report.notes {
            println!("{name}: {note}");
        }
        for error in &report.errors {
            println!("{name}: CHECK FAILED: {error}");
        }
        println!("meta {}", meta_json(name, &opts, &report));
        println!("{}", result_json(&report, trace));
        all_correct &= report.errors.is_empty();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
