//! The benchmark's own checks: its metric tables match `BENCHMARK.json`,
//! every metric a run prints is declared there, and a seed regenerates
//! a byte-identical input stream.
//!
//! The workload runs are short but not tiny; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use omt_perfbench::{bank, kv, result_json, run, txil, Opts, END_TO_END, PER_LAYER, WORKLOADS};

/// The entries of the `section` list of `BENCHMARK.json`, as text,
/// read with plain string scanning.
fn entries(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{').skip(1).map(str::to_owned).collect()
}

/// The string value of `key` in one entry.
fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
    let rest = &entry[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = rest[open..].find('"').expect("closed string") + open;
    rest[open..close].to_owned()
}

/// `(name, unit)` of every metric in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    entries(section).iter().map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = entries("workloads").iter().map(|e| field(e, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_printed_metric_is_declared() {
    let declared_names =
        |section| declared(section).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    for trace in [false, true] {
        let names = declared_names(if trace { "per_layer" } else { "end_to_end" });
        for workload in WORKLOADS {
            let report =
                run(workload, &Opts { seed: 7, seconds: 0.4, trace }).expect("known workload");
            assert!(report.errors.is_empty(), "{workload}: {:?}", report.errors);
            let line = result_json(&report, trace);
            let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
            let pieces: Vec<&str> = metrics.split("{\"value\"").collect();
            let printed: Vec<&str> = pieces[..pieces.len() - 1]
                .iter()
                .map(|p| p.rsplit('"').nth(1).expect("a quoted name precedes each value"))
                .collect();
            assert_eq!(printed.len(), names.len(), "{workload}: {line}");
            for name in printed {
                assert!(names.iter().any(|n| n == name), "{workload} printed undeclared {name}");
            }
        }
    }
}

#[test]
fn one_seed_regenerates_identical_inputs() {
    let streams: [fn(u64) -> Vec<u8>; 3] = [
        |s| kv::input_bytes(s, 4096),
        |s| bank::input_bytes(s, 4096),
        |s| txil::input_bytes(s, 4096),
    ];
    for make in streams {
        let (a, b, other) = (make(11), make(11), make(12));
        assert!(!a.is_empty());
        assert_eq!(a, b, "the same seed gives the same bytes");
        assert_ne!(a, other, "another seed gives other inputs");
    }
}
