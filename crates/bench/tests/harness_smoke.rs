//! Smoke tests of the table/figure harness binaries at tiny scale: each
//! must run to completion and emit its structural markers. (Numeric
//! assertions live in the solver tests; these pin the harness plumbing.)

use std::process::Command;

fn run(bin: &str, env: &[(&str, &str)]) -> (bool, String) {
    let mut cmd = Command::new(bin);
    cmd.env("EUL3D_NX", "10")
        .env("EUL3D_LEVELS", "2")
        .env("EUL3D_CYCLES", "3")
        .env("EUL3D_RANKS", "3,5")
        .env(
            "EUL3D_OUT",
            std::env::temp_dir()
                .join("eul3d_harness_smoke")
                .to_str()
                .unwrap(),
        );
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("failed to run harness");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn fig1_prints_schedules() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_fig1"), &[]);
    assert!(ok);
    assert!(out.contains("3 levels, V-cycle"));
    assert!(out.contains("5 levels, W-cycle"));
    assert!(out.contains("E0"));
}

#[test]
fn fig2_writes_csv_and_summary() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_fig2"), &[]);
    assert!(ok, "{out}");
    assert!(out.contains("single grid"));
    assert!(out.contains("W-cycle"));
    assert!(out.contains("fig2_convergence.csv"));
}

#[test]
fn fig3_reports_every_level() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_fig3"), &[]);
    assert!(ok, "{out}");
    assert!(out.contains("level-to-level node ratio"));
    assert!(out.contains("fig3_finest.vtk"));
}

#[test]
fn table1_prints_both_scales() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(ok, "{out}");
    assert!(out.contains("Table 1a"));
    assert!(out.contains("Table 1c"));
    assert!(out.contains("at measured scale"));
    assert!(out.contains("extrapolated to paper scale"));
}

#[test]
fn table2_prints_cost_breakdown() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_table2"), &[]);
    assert!(ok, "{out}");
    assert!(out.contains("Table 2a"));
    assert!(out.contains("Communication"));
    assert!(out.contains("table2_delta.csv"));
}

#[test]
fn table2_partitioner_env_is_honoured() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_table2"), &[("EUL3D_PART", "rcb")]);
    assert!(ok, "{out}");
    assert!(out.contains("partitioner rcb"));
}

#[test]
fn a_gate_without_its_number_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_partition"))
        .arg("--gate")
        .output()
        .expect("failed to run harness");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--gate takes a number"));
}

#[test]
fn scaling_emits_the_ladder() {
    let (ok, out) = run(env!("CARGO_BIN_EXE_scaling"), &[]);
    assert!(ok, "{out}");
    assert!(out.contains("efficiency"));
    assert!(out.contains("scaling.csv"));
}
