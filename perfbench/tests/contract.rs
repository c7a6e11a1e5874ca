//! Tests of the benchmark itself: `BENCHMARK.json` is well-formed, every
//! workload and metric it lists is emitted, and every workload completes a
//! tiny-size smoke run with no failed operation.

use std::path::Path;
use std::process::Command;

use pimulator::report::Json;

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn items(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        other => panic!("expected an array, got {}", other.render()),
    }
}

fn string(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("expected a string, got {}", other.render()),
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    items(field(doc, list))
        .iter()
        .map(|m| {
            let unit = match m {
                Json::Obj(pairs) if pairs.iter().any(|(k, _)| k == "unit") => {
                    string(field(m, "unit"))
                }
                _ => "",
            };
            (string(field(m, "name")).to_string(), unit.to_string())
        })
        .collect()
}

/// Runs the benchmark and returns `(correct, attempted, failed, metrics)`
/// from its last line, metrics as `(name, unit)` in emission order.
fn run(args: &[&str]) -> (bool, u64, u64, Vec<(String, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "{args:?} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    let Json::Obj(keys) = &doc else { panic!("result is not an object") };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    let correct = matches!(field(&doc, "correct"), Json::Bool(true));
    let count = |k| match field(&doc, k) {
        Json::UInt(v) => *v,
        other => panic!("`{k}` is not a whole number: {}", other.render()),
    };
    let Json::Obj(metrics) = field(&doc, "metrics") else { panic!("metrics is not an object") };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(field(m, "value"), Json::Num(_)), "{name} has no numeric value");
            (name.clone(), string(field(m, "unit")).to_string())
        })
        .collect();
    (correct, count("attempted"), count("failed"), metrics)
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_name_is_well_formed_and_unique() {
    let doc = benchmark_json();
    let mut seen = std::collections::BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in listed(&doc, list) {
            assert!(!name.is_empty() && name.len() <= 64, "{name}: length");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} does not match [A-Za-z0-9_.-]+"
            );
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}: first char");
            assert!(seen.insert(name.clone()), "{name} is listed twice");
        }
    }
    assert!(listed(&doc, "end_to_end").iter().any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_workload_emits_every_end_to_end_metric_in_a_clean_tiny_smoke() {
    let doc = benchmark_json();
    let want = sorted(listed(&doc, "end_to_end"));
    for (workload, _) in listed(&doc, "workloads") {
        let (correct, attempted, failed, got) = run(&[
            "--workload",
            &workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--size",
            "tiny",
        ]);
        assert!(correct && attempted > 0 && failed == 0, "{workload}: {failed}/{attempted} failed");
        assert_eq!(sorted(got), want, "{workload}: end-to-end metrics");
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric_in_a_clean_tiny_smoke() {
    let doc = benchmark_json();
    let want = sorted(listed(&doc, "per_layer"));
    let (correct, attempted, failed, got) = run(&[
        "--workload",
        "dense-issue",
        "--seed",
        "42",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--size",
        "tiny",
    ]);
    assert!(correct && attempted > 0 && failed == 0, "{failed}/{attempted} failed");
    assert_eq!(sorted(got), want);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in
        [&["--workload", "nope", "--seed", "1"][..], &["--workload", "multi-dpu"], &["--bogus"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
