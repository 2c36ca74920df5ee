//! The benchmark's own tests: every workload, at a tiny size, emits every
//! metric `BENCHMARK.json` names with its unit; names are well formed; the
//! deterministic outcome metrics repeat exactly. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Deserialize;

use crate::harness::Metric;
use crate::parse_args;
use crate::workloads::{self, Size, WORKLOADS};

/// The parts of `BENCHMARK.json` the benchmark has to agree with.
#[derive(Deserialize)]
struct Declared {
    workloads: Vec<Entry>,
    end_to_end: Vec<Entry>,
    per_layer: Vec<Entry>,
}

#[derive(Deserialize)]
struct Entry {
    name: String,
    unit: Option<String>,
}

fn benchmark_json() -> Declared {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// No time budget: one pass over the tiny instances plus one repeat.
const TINY: f64 = 0.0;

fn tiny(name: &str, seed: u64, trace: bool) -> Vec<Metric> {
    let mut out = workloads::run(name, seed, TINY, trace, Size::Tiny).expect("known workload");
    let line = out.result_line();
    assert_eq!(
        out.failed, 0,
        "{name} (trace {trace}) failed checks: {:?}",
        out.notes
    );
    assert!(out.attempted >= 1, "{name}: nothing attempted");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    out.metrics
}

/// The `(name, unit)` pairs of one `BENCHMARK.json` section, in order.
fn pairs(entries: Vec<Entry>) -> Vec<(String, String)> {
    entries
        .into_iter()
        .map(|e| (e.name, e.unit.unwrap_or_default()))
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_with_their_units() {
    let declared = benchmark_json();
    let workloads: Vec<String> = declared.workloads.into_iter().map(|e| e.name).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = pairs(declared.end_to_end);
    let layers = pairs(declared.per_layer);
    for name in WORKLOADS {
        for (trace, section) in [(false, &e2e), (true, &layers)] {
            let got: Vec<(String, String)> = tiny(name, 7, trace)
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, section, "{name} trace {trace}");
        }
    }
}

#[test]
fn names_and_units_are_well_formed() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let declared = benchmark_json();
    let metrics: Vec<(String, String)> = pairs(declared.end_to_end)
        .into_iter()
        .chain(pairs(declared.per_layer))
        .collect();
    let mut names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
    names.extend(declared.workloads.into_iter().map(|e| e.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n}");
    }
    for (n, u) in &metrics {
        assert!(unit_ok(u), "bad unit {u} of {n}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn tiny_outcome_metrics_repeat_exactly() {
    for name in WORKLOADS {
        let outcome = |m: Vec<Metric>| -> Vec<(&'static str, u64)> {
            m.into_iter()
                .filter(|m| matches!(m.name, "peak" | "query_p50" | "query_p99"))
                .map(|m| (m.name, m.value.to_bits()))
                .collect()
        };
        let a = outcome(tiny(name, 3, false));
        assert_eq!(a.len(), 3);
        assert_eq!(a, outcome(tiny(name, 3, false)), "{name}");
        assert!(
            a.iter().all(|&(_, v)| f64::from_bits(v) > 0.0),
            "{name}: zero outcome {a:?}"
        );
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let p99 = |seed| {
        tiny("drift_sra", seed, false)
            .into_iter()
            .find(|m| m.name == "query_p99")
            .map(|m| m.value)
    };
    assert_ne!(p99(1), p99(2));
}

#[test]
fn args_are_parsed_strictly() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let ok = parse_args(&args(
        "--workload solve_web --seed 4 --seconds 2.5 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
        ("solve_web", 4, 2.5, true)
    );
    for bad in [
        "--workload solve_web --seed 4 --seconds 2",
        "--workload solve_web --seed -1 --seconds 2 --trace 0",
        "--workload solve_web --seed 4 --seconds 0 --trace 0",
        "--workload solve_web --seed 4 --seconds 2 --trace 2",
        "--workload solve_web --seed 4 --seconds 2 --trace 0 --seed 5",
        "--workload solve_web --seed 4 --seconds 2 --trace 0 --bogus 1",
        "--workload solve_web --seed 4 --seconds 2 --trace",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
    }
    let unknown = workloads::run("nope", 1, TINY, false, Size::Tiny);
    assert!(unknown.is_err());
}
