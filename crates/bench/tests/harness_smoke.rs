//! Smoke tests of the table/figure harness binaries at tiny scale: each
//! must run to completion and emit its structural markers, and every
//! input it cannot run must exit 2 naming the key or flag at fault.
//! (Numeric assertions live in the solver tests; these pin the harness
//! plumbing.)

use std::process::Command;

/// The tiny case every run below uses, as flags.
const CASE: &[&str] = &["--nx", "10", "--levels", "2", "--cycles", "3"];

/// Run `bin` with `args`; returns the exit code, stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .env(
            "EUL3D_OUT",
            std::env::temp_dir()
                .join("eul3d_harness_smoke")
                .to_str()
                .unwrap(),
        )
        .output()
        .expect("failed to run harness");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stdout, stderr)
}

/// `bin` at the tiny case plus `extra` must succeed; returns stdout.
fn ok(bin: &str, extra: &[&str]) -> String {
    let (code, out, err) = run(bin, &[CASE, extra].concat());
    assert_eq!(code, Some(0), "{extra:?}:\n{out}\n{err}");
    out
}

/// `bin` with `args` must exit 2 with `needle` in its message.
fn refused(bin: &str, args: &[&str], needle: &str) {
    let (code, out, err) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}:\n{out}\n{err}");
    assert!(err.contains(needle), "{args:?}: {err}");
}

#[test]
fn fig1_prints_schedules() {
    let (code, out, _) = run(env!("CARGO_BIN_EXE_fig1"), &[]);
    assert_eq!(code, Some(0));
    assert!(out.contains("3 levels, V-cycle"));
    assert!(out.contains("5 levels, W-cycle"));
    assert!(out.contains("E0"));
}

#[test]
fn fig2_writes_csv_and_summary() {
    let out = ok(env!("CARGO_BIN_EXE_fig2"), &[]);
    assert!(out.contains("single grid"));
    assert!(out.contains("W-cycle"));
    assert!(out.contains("fig2_convergence.csv"));
}

#[test]
fn fig3_reports_every_level() {
    let out = ok(env!("CARGO_BIN_EXE_fig3"), &[]);
    assert!(out.contains("level-to-level node ratio"));
    assert!(out.contains("fig3_finest.vtk"));
}

#[test]
fn fig3_reads_the_mesh_flags() {
    let (code, out, err) = run(env!("CARGO_BIN_EXE_fig3"), &["--nx", "10"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("nx=10 fine"), "{out}");
}

#[test]
fn table1_prints_both_scales() {
    let out = ok(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(out.contains("Table 1a"));
    assert!(out.contains("Table 1c"));
    assert!(out.contains("at measured scale"));
    assert!(out.contains("extrapolated to paper scale"));
}

/// A `--set` key the harness has no flag for still reaches its solver.
#[test]
fn table1_reaches_any_key() {
    let residuals = |out: &str| -> Vec<String> {
        out.lines()
            .filter_map(|l| l.split("residual -> ").nth(1))
            .map(str::to_string)
            .collect()
    };
    let bin = env!("CARGO_BIN_EXE_table1");
    let plain = residuals(&ok(bin, &[]));
    let k2 = residuals(&ok(bin, &["--set", "solver.coarse_k2=0.25"]));
    assert_eq!(plain.len(), 3);
    assert_eq!(plain[0], k2[0], "the single grid has no coarse level");
    assert_ne!(plain[1..], k2[1..], "solver.coarse_k2 did not reach table1");
}

#[test]
fn table2_prints_cost_breakdown() {
    let out = ok(env!("CARGO_BIN_EXE_table2"), &["--ranks", "3,5"]);
    assert!(out.contains("Table 2a"));
    assert!(out.contains("Communication"));
    assert!(out.contains("table2_delta.csv"));
}

#[test]
fn table2_partition_method_is_honoured() {
    let out = ok(
        env!("CARGO_BIN_EXE_table2"),
        &["--ranks", "3", "--set", "partition.method=rcb"],
    );
    assert!(out.contains("partitioner rcb"));
}

/// Values the harness cannot run, and flags it would ignore.
#[test]
fn a_bad_case_exits_2_naming_its_key_or_flag() {
    let table2 = env!("CARGO_BIN_EXE_table2");
    refused(table2, &["--nx", "19O"], "--nx");
    refused(table2, &["--ranks", "3,x,5"], "--ranks");
    refused(table2, &["--ranks", ""], "--ranks");
    refused(
        table2,
        &["--set", "partition.method=rbc"],
        "partition.method",
    );
    // prcb cuts a power-of-two part count; it must not merge parts to
    // fit three ranks, and the refusal comes before the header.
    refused(
        table2,
        &["--ranks", "3", "--set", "partition.method=prcb"],
        "nparts",
    );
    let (_, out, _) = run(table2, &["--ranks", "3", "--set", "partition.method=prcb"]);
    assert_eq!(out, "", "a refused partition prints nothing");
    refused(table2, &["--set", "run.nranks=4"], "--ranks");
    refused(table2, &["--no-incremental", "0"], "takes no value");
    refused(table2, &["--nx", "--ranks", "3"], "--nx takes a value");
    let table1 = env!("CARGO_BIN_EXE_table1");
    refused(table1, &["--cycles", "0"], "cycles");
    refused(table1, &["--levels", "0"], "levels");
    refused(table1, &["--strategy", "v"], "run.strategy");
    refused(table1, &["--ranks", "3"], "unknown flag --ranks");
    // Keys no harness run reads, `[guard]` among them.
    let compare = env!("CARGO_BIN_EXE_compare");
    let scaling = env!("CARGO_BIN_EXE_scaling");
    for bin in [table2, compare, scaling] {
        refused(bin, &["--set", "run.backend=hybrid"], "run.backend");
    }
    refused(table2, &["--set", "run.threads=2"], "run.threads");
    refused(compare, &["--set", "run.faults=kill:1@2"], "run.faults");
    refused(
        scaling,
        &["--set", "run.checkpoint_every=2"],
        "run.checkpoint_every",
    );
    refused(
        table2,
        &["--set", "run.fault_timeout_ms=100"],
        "run.fault_timeout_ms",
    );
    refused(table1, &["--trace-capacity", "64"], "trace.capacity");
    refused(table2, &["--set", "trace.enabled=true"], "trace.enabled");
    refused(table1, &["--cfl-backoff", "0.25"], "guard.cfl_backoff");
    let guard = std::env::temp_dir().join(format!("eul3d-harness-{}.toml", std::process::id()));
    std::fs::write(&guard, "[guard]\n").unwrap();
    refused(scaling, &["--config", guard.to_str().unwrap()], "[guard]");
    std::fs::remove_file(guard).unwrap();
}

#[test]
fn a_distributed_harness_refuses_agglomeration() {
    let args = [CASE, &["--ranks", "3", "--coarse", "agglo"]].concat();
    refused(env!("CARGO_BIN_EXE_table2"), &args, "agglomeration");
}

#[test]
fn a_gate_without_its_number_exits_2() {
    refused(
        env!("CARGO_BIN_EXE_partition"),
        &["--gate"],
        "--gate takes a number",
    );
}

#[test]
fn scaling_emits_the_ladder() {
    let out = ok(env!("CARGO_BIN_EXE_scaling"), &["--ranks", "3,5"]);
    assert!(out.contains("efficiency"));
    assert!(out.contains("scaling.csv"));
}
