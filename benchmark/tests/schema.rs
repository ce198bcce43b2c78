//! Holds `BENCHMARK.json` and the binary together: a smoke run of every
//! workload must emit exactly the declared metrics with the declared
//! units, and every count must repeat exactly between two runs.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use json::{metrics_from, Json};

/// (name, unit) of every entry of a `BENCHMARK.json` metric list.
fn declared(manifest: &Json, key: &str) -> BTreeMap<String, String> {
    manifest
        .get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

struct Smoke {
    detail: String,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// One smoke run of `workload` from the repository root, as the driver
/// would invoke the binary.
fn smoke(root: &Path, workload: &str, trace: bool) -> Smoke {
    let out = Command::new(env!("CARGO_BIN_EXE_eul3d-benchmark"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap()).unwrap();
    let keys: Vec<&String> = result.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{workload}"
    );
    Smoke {
        detail: lines.next().unwrap().to_string(),
        attempted: result.get("attempted").unwrap().as_f64().unwrap(),
        failed: result.get("failed").unwrap().as_f64().unwrap(),
        metrics: metrics_from(result.get("metrics").unwrap())
            .into_iter()
            .map(|m| (m.name, (m.value, m.unit)))
            .collect(),
    }
}

#[test]
fn smoke_runs_emit_the_declared_metrics_and_counts_repeat() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let manifest = Json::parse(&text).unwrap();
    let workloads: Vec<String> = manifest
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads.len(), 5);
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in workloads
        .iter()
        .chain(end_to_end.keys())
        .chain(per_layer.keys())
    {
        assert!(well_formed(name), "malformed name '{name}'");
    }

    for w in &workloads {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let (a, b) = (smoke(root, w, trace), smoke(root, w, trace));
            let got: BTreeMap<String, String> = a
                .metrics
                .iter()
                .map(|(n, (_, u))| (n.clone(), u.clone()))
                .collect();
            assert_eq!(&got, want, "{w} --trace {}", u8::from(trace));
            assert!(a.attempted >= 1.0 && a.failed == 0.0);
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
            assert_eq!(
                a.detail, b.detail,
                "{w}: cycles or history fingerprint moved"
            );
            for (name, (value, unit)) in &a.metrics {
                if ["count", "flop", "B"].contains(&unit.as_str()) {
                    assert_eq!(
                        *value, b.metrics[name].0,
                        "{w}: count {name} does not repeat"
                    );
                }
                if !trace {
                    assert!(*value > 0.0, "{w}: {name} must never be 0");
                }
            }
        }
    }
}
