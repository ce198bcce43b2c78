//! End-to-end tests of the `eul3d` binary.

use std::process::Command;

fn eul3d(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eul3d"))
        .args(args)
        .output()
        .expect("failed to run eul3d binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mesh_command_reports_levels() {
    let (ok, stdout, _) = eul3d(&["mesh", "--nx", "8", "--levels", "2"]);
    assert!(ok);
    assert!(stdout.contains("level"));
    assert!(stdout.contains("true"), "meshes must be valid: {stdout}");
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(['0', '1']))
            .count(),
        2
    );
}

#[test]
fn partition_command_all_methods() {
    for method in [
        "flat-rsb",
        "rsb",
        "multilevel",
        "ml",
        "rsb+kl",
        "rcb",
        "random",
        "prcb",
    ] {
        let (ok, stdout, stderr) = eul3d(&[
            "partition",
            "--nx",
            "8",
            "--parts",
            "4",
            "--partition-method",
            method,
        ]);
        assert!(ok, "method {method} failed: {stderr}");
        assert!(stdout.contains("cut edges"), "{stdout}");
        assert!(stdout.contains("comm volume"), "{stdout}");
    }
    // The same key through `--set`, and a misspelling names the key.
    let (ok, stdout, _) = eul3d(&["partition", "--nx", "8", "--set", "partition.method=rcb"]);
    assert!(ok && stdout.contains("via rcb"), "{stdout}");
    let (ok, _, stderr) = eul3d(&["partition", "--nx", "8", "--partition-method", "metis"]);
    assert!(!ok, "unknown method must be rejected");
    assert!(
        stderr.contains("partition.method") && stderr.contains("flat-rsb|multilevel"),
        "{stderr}"
    );
    // prcb cuts only a power-of-two part count.
    let (ok, _, stderr) = eul3d(&[
        "partition",
        "--nx",
        "8",
        "--parts",
        "6",
        "--set",
        "partition.method=prcb",
    ]);
    assert!(!ok);
    assert!(stderr.contains("nparts"), "{stderr}");
    // Keys the command does not read are refused, not ignored.
    let (ok, _, stderr) = eul3d(&["partition", "--nx", "8", "--levels", "2"]);
    assert!(!ok);
    assert!(stderr.contains("run.levels"), "{stderr}");
}

#[test]
fn partition_command_reports_plan_quality() {
    // Every method prints the full plan block: comm volume, mapped vs
    // identity hop volume, Fiedler work, and partition wall time.
    for method in ["multilevel", "rcb"] {
        let (ok, stdout, stderr) = eul3d(&[
            "partition",
            "--nx",
            "10",
            "--parts",
            "8",
            "--partition-method",
            method,
            "--partition-mapping",
            "topology",
            "--set",
            "partition.coarsen_target=32",
        ]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains(&format!("via {method}")), "{stdout}");
        for line in [
            "cut edges",
            "max imbalance",
            "boundary verts",
            "surface/volume",
            "comm volume",
            "hop volume",
            "(topology; identity",
            "fiedler iters",
            "partition time",
        ] {
            assert!(stdout.contains(line), "missing '{line}' in: {stdout}");
        }
    }

    let (ok, _, stderr) = eul3d(&["partition", "--nx", "8", "--partition-mapping", "torus"]);
    assert!(!ok);
    assert!(stderr.contains("identity|topology"), "{stderr}");
}

#[test]
fn solve_roundtrip_with_checkpoint() {
    let dir = std::env::temp_dir().join("eul3d_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("cli_state.ck");
    let ck_s = ck.to_str().unwrap();

    let (ok, stdout, stderr) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--levels",
        "2",
        "--cycles",
        "10",
        "--strategy",
        "v",
        "--checkpoint",
        ck_s,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("checkpointed"));

    let (ok2, stdout2, stderr2) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--levels",
        "2",
        "--cycles",
        "3",
        "--strategy",
        "v",
        "--restart",
        ck_s,
    ]);
    assert!(ok2, "{stderr2}");
    assert!(stdout2.contains("restarted"));
    std::fs::remove_file(&ck).ok();
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eul3d_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SMALL_W: &[&str] = &["solve", "--nx", "8", "--levels", "2", "--strategy", "w"];

#[test]
fn restart_continues_a_checkpointed_run_byte_for_byte() {
    let dir = scratch("restart");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let run = |extra: &[&str]| {
        let (ok, stdout, stderr) = eul3d(&[SMALL_W, extra].concat());
        assert!(ok, "{extra:?}: {stderr}");
        stdout
    };
    run(&["--cycles", "10", "--checkpoint", &path("a")]);
    run(&["--cycles", "5", "--checkpoint", &path("b")]);
    let out = run(&[
        "--cycles",
        "5",
        "--restart",
        &path("b"),
        "--checkpoint",
        &path("c"),
    ]);
    assert!(out.contains("restarted from"), "{out}");
    let a = std::fs::read(path("a")).unwrap();
    assert_eq!(a, std::fs::read(path("c")).unwrap(), "10 cycles = 5 + 5");
    assert!(!dir.join("c.tmp").exists(), "the atomic write cleans up");

    // Refused, never half-restored: another mesh's checkpoint, a cut
    // file, and a file that is not a checkpoint at all.
    let (ok, _, stderr) = eul3d(&[
        "solve",
        "--nx",
        "10",
        "--levels",
        "2",
        "--cycles",
        "1",
        "--checkpoint",
        &path("other_mesh"),
    ]);
    assert!(ok, "{stderr}");
    std::fs::write(path("cut"), &a[..a.len() - 9]).unwrap();
    std::fs::write(path("foreign"), b"# not a checkpoint\n").unwrap();
    for bad in ["other_mesh", "cut", "foreign"] {
        let (ok, _, stderr) =
            eul3d(&[SMALL_W, &["--cycles", "2", "--restart", &path(bad)]].concat());
        assert!(!ok, "restart from {bad} must fail");
        assert!(stderr.contains("error: restart:"), "{bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_and_fmg_are_one_start_state_too_many() {
    let (ok, _, stderr) = eul3d(&[SMALL_W, &["--cycles", "2", "--restart", "x", "--fmg"]].concat());
    assert!(
        !ok,
        "--restart with --fmg must be refused, not half-honoured"
    );
    assert!(stderr.contains("--restart and --fmg"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn the_guard_runs_on_from_a_restart() {
    let dir = scratch("guard_restart");
    let ck = dir.join("ck").to_str().unwrap().to_owned();
    let (ok, _, stderr) = eul3d(&[SMALL_W, &["--cycles", "3", "--checkpoint", &ck]].concat());
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) =
        eul3d(&[SMALL_W, &["--cycles", "3", "--guard", "--restart", &ck]].concat());
    assert!(ok, "{stderr}");
    assert!(stdout.contains("restarted from"), "{stdout}");
    assert!(stdout.contains("health guard:"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solve_threads_runs_the_full_cycle_on_the_shared_executor() {
    // The paper's C90 configuration: every strategy under --threads,
    // agreeing with the serial run on the printed residuals and flops.
    for strategy in ["sg", "v", "w"] {
        let run = |extra: &[&str]| {
            let base = [
                "solve",
                "--nx",
                "8",
                "--levels",
                "2",
                "--cycles",
                "4",
                "--strategy",
                strategy,
            ];
            let (ok, stdout, stderr) = eul3d(&[&base[..], extra].concat());
            assert!(ok, "--strategy {strategy} {extra:?}: {stderr}");
            let line = stdout.lines().find(|l| l.contains("orders")).unwrap();
            line.split_once("host: ").unwrap().1.to_owned()
        };
        assert_eq!(run(&[]), run(&["--threads", "2"]), "--strategy {strategy}");
    }
}

#[test]
fn agglomerated_solve_is_the_one_run_loop() {
    // The agglomerated hierarchy takes every flag the mesh sequence
    // takes: the team gives the serial bits, 5 + 5 restarted cycles the
    // 10-cycle checkpoint, and the guard and FMG arm as usual.
    let dir = scratch("agglo");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let run = |extra: &[&str]| {
        let base = ["solve", "--coarse", "agglo", "--nx", "8", "--levels", "3"];
        let (ok, stdout, stderr) = eul3d(&[&base[..], extra].concat());
        assert!(ok, "{extra:?}: {stderr}");
        assert!(stdout.contains("agglomerated levels"), "{stdout}");
        let line = stdout.lines().find(|l| l.contains("orders")).unwrap();
        (
            stdout.clone(),
            line.split_once("host: ").unwrap().1.to_owned(),
        )
    };
    let serial = run(&["--cycles", "4", "--checkpoint", &path("serial")]).1;
    let team = run(&[
        "--cycles",
        "4",
        "--checkpoint",
        &path("team"),
        "--threads",
        "2",
    ])
    .1;
    assert_eq!(serial, team);
    let read = |name: &str| std::fs::read(path(name)).unwrap();
    assert_eq!(read("serial"), read("team"));
    run(&["--cycles", "10", "--checkpoint", &path("a")]);
    run(&["--cycles", "5", "--checkpoint", &path("b")]);
    let out = run(&[
        "--cycles",
        "5",
        "--restart",
        &path("b"),
        "--checkpoint",
        &path("c"),
    ])
    .0;
    assert!(out.contains("restarted from"), "{out}");
    assert_eq!(read("a"), read("c"), "10 cycles = 5 + 5");
    assert!(run(&["--cycles", "2", "--guard"])
        .0
        .contains("health guard:"));
    assert!(run(&["--cycles", "2", "--fmg"]).0.contains("+FMG"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coarsening_is_checked_like_every_key() {
    // A misspelt kind is the key's error, not a silent mesh sequence.
    let (ok, _, stderr) = eul3d(&[
        "solve",
        "--coarse",
        "agglomerated",
        "--nx",
        "10",
        "--levels",
        "3",
        "--cycles",
        "2",
    ]);
    assert!(!ok, "a misspelt --coarse must be refused");
    assert!(stderr.contains("must be sequence|agglo"), "{stderr}");
    // A diverged agglomerated run fails like any other.
    let (ok, stdout, stderr) = eul3d(&[
        "solve", "--coarse", "agglo", "--nx", "10", "--levels", "3", "--cycles", "12", "--cfl",
        "30",
    ]);
    assert!(!ok, "a NaN run must not exit 0: {stdout}");
    assert!(stderr.contains("run diverged"), "{stderr}");
    // The distributed path partitions a mesh sequence.
    let (ok, _, stderr) = eul3d(&[
        "distributed",
        "--coarse",
        "agglo",
        "--nx",
        "8",
        "--levels",
        "2",
        "--ranks",
        "2",
        "--cycles",
        "2",
    ]);
    assert!(!ok, "distributed agglomeration must be refused");
    assert!(stderr.contains("solve path only"), "{stderr}");
}

#[test]
fn distributed_command_runs() {
    let (ok, stdout, stderr) = eul3d(&[
        "distributed",
        "--nx",
        "8",
        "--levels",
        "2",
        "--ranks",
        "4",
        "--cycles",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("modeled Delta cost"));
}

#[test]
fn distributed_with_mid_run_repartitioning() {
    // Migrations ride the hybrid backend's windows.
    for backend in ["delta", "hybrid"] {
        let (ok, stdout, stderr) = eul3d(&[
            "distributed",
            "--nx",
            "8",
            "--levels",
            "2",
            "--ranks",
            "4",
            "--cycles",
            "6",
            "--backend",
            backend,
            "--partition-method",
            "multilevel",
            "--partition-mapping",
            "topology",
            "--repartition-every",
            "3",
        ]);
        assert!(ok, "{stderr}");
        assert!(
            stdout.contains("multilevel partitioning of all levels"),
            "{stdout}"
        );
        assert!(
            stdout.contains("mid-run repartition every 3 cycles (multilevel, topology mapping)"),
            "{stdout}"
        );
        assert!(stdout.contains("modeled Delta cost"), "{stdout}");
        let hybrid = backend == "hybrid";
        assert_eq!(stdout.contains("hybrid threads"), hybrid, "{stdout}");
        assert_eq!(stdout.contains("hybrid wall time"), hybrid, "{stdout}");
    }

    let (ok, _, stderr) = eul3d(&["distributed", "--nx", "8", "--partition-method", "scotch"]);
    assert!(!ok, "unknown partition method must be rejected");
    assert!(stderr.contains("flat-rsb|multilevel"), "{stderr}");
}

#[test]
fn distributed_hybrid_backend_reports_wall_and_modeled_time() {
    let (ok, stdout, stderr) = eul3d(&[
        "distributed",
        "--nx",
        "8",
        "--levels",
        "2",
        "--ranks",
        "32",
        "--threads",
        "2",
        "--backend",
        "hybrid",
        "--cycles",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("on 2 hybrid threads"),
        "--threads must override --ranks under hybrid: {stdout}"
    );
    assert!(stdout.contains("modeled Delta cost"), "{stdout}");
    assert!(stdout.contains("hybrid wall time"), "{stdout}");

    let (ok, _, stderr) = eul3d(&["distributed", "--nx", "8", "--backend", "mpi"]);
    assert!(!ok, "unknown backend must be rejected");
    assert!(stderr.contains("delta|hybrid"), "{stderr}");
}

#[test]
fn distributed_with_faults_recovers_and_reports() {
    let (ok, stdout, stderr) = eul3d(&[
        "distributed",
        "--nx",
        "8",
        "--levels",
        "2",
        "--ranks",
        "4",
        "--cycles",
        "6",
        "--faults",
        "kill:1@2+5",
        "--checkpoint-every",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("recovery epoch"), "{stdout}");
    assert!(
        stdout.contains("rank 1 died") && stdout.contains("adopted by rank 2"),
        "{stdout}"
    );
    assert!(stdout.contains("modeled Delta cost"), "{stdout}");
}

#[test]
fn malformed_fault_spec_is_a_clean_error() {
    // A seeded plan needs two ranks to tamper between.
    for (ranks, spec) in [("4", "explode:everything"), ("1", "seeded:1#2@3")] {
        let (ok, _, stderr) = eul3d(&[
            "distributed",
            "--nx",
            "8",
            "--ranks",
            ranks,
            "--faults",
            spec,
        ]);
        assert!(!ok);
        assert!(stderr.contains("error: --faults:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    }
}

#[test]
fn zero_ranks_is_a_rank_count_error_not_a_fault_spec_error() {
    let (ok, _, stderr) = eul3d(&["distributed", "--nx", "8", "--ranks", "0"]);
    assert!(!ok, "zero ranks must be rejected");
    assert!(stderr.contains("ranks = 0"), "{stderr}");
    assert!(
        !stderr.contains("--faults"),
        "no fault plan was given: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn missing_restart_file_is_a_clean_error() {
    let bogus = std::env::temp_dir().join("eul3d_no_such_checkpoint.ck");
    std::fs::remove_file(&bogus).ok();
    let (ok, _, stderr) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--levels",
        "1",
        "--cycles",
        "1",
        "--restart",
        bogus.to_str().unwrap(),
    ]);
    assert!(!ok, "missing restart file must fail");
    assert!(stderr.contains("error: restart:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn zero_cycles_is_rejected() {
    let (ok, _, stderr) = eul3d(&["solve", "--nx", "8", "--levels", "1", "--cycles", "0"]);
    assert!(!ok);
    assert!(stderr.contains("cycles = 0 out of range"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    let (ok, _, stderr) = eul3d(&["solve", "--nonsense", "1", "--cycles", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn unknown_command_is_rejected() {
    let (ok, _, stderr) = eul3d(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn help_prints_usage() {
    let (ok, _, stderr) = eul3d(&["help"]);
    assert!(ok);
    assert!(stderr.contains("commands:"));
}

const STRETCHED: &[&str] = &[
    "--nx",
    "10",
    "--ny",
    "4",
    "--nz",
    "3",
    "--taper",
    "0.6",
    "--jitter",
    "0.1",
    "--levels",
    "2",
    "--cycles",
    "12",
    "--strategy",
    "v",
    "--cfl",
    "30",
    "--mach",
    "0.5",
];

#[test]
fn guard_recovers_a_run_that_diverges_unguarded() {
    let (ok, _, stderr) = eul3d(&[&["solve"], STRETCHED].concat());
    assert!(!ok, "CFL 30 on the stretched mesh must diverge unguarded");
    assert!(stderr.contains("run diverged"), "{stderr}");

    let (ok, stdout, stderr) =
        eul3d(&[&["solve"], STRETCHED, &["--guard", "--cfl-backoff", "0.25"]].concat());
    assert!(ok, "the guard must save the same run: {stderr}");
    assert!(stdout.contains("health guard:"), "{stdout}");
    assert!(stdout.contains("backoff epochs 1"), "{stdout}");
    assert!(
        stdout.contains("cfl 30.000 -> 7.500"),
        "one quarter backoff from the target: {stdout}"
    );
}

#[test]
fn guard_exhaustion_is_a_clean_typed_error() {
    let (ok, _, stderr) = eul3d(
        &[
            &["solve"],
            STRETCHED,
            &["--guard", "--cfl-backoff", "0.95", "--max-retries", "2"],
        ]
        .concat(),
    );
    assert!(!ok, "a 5% backoff cannot save CFL 30");
    assert!(stderr.contains("guard exhausted 2 retries"), "{stderr}");
    assert_eq!(
        stderr.matches("retry: cycle").count(),
        2,
        "the transcript lists both spent retries: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn guard_flags_are_validated() {
    let (ok, _, stderr) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--cycles",
        "2",
        "--cfl-backoff",
        "1.5",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("guard.cfl_backoff = 1.5 out of range"),
        "{stderr}"
    );

    let (ok, _, stderr) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--cycles",
        "2",
        "--guard",
        "--max-retries",
        "0",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("guard.max_retries = 0 out of range"),
        "{stderr}"
    );
}

#[test]
fn trace_flag_writes_chrome_trace_json() {
    let dir = std::env::temp_dir().join("eul3d_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serial.json");
    let path_s = path.to_str().unwrap();
    let (ok, stdout, stderr) = eul3d(&[
        "solve",
        "--nx",
        "8",
        "--levels",
        "2",
        "--cycles",
        "4",
        "--trace",
        path_s,
        "--trace-summary",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote trace"), "{stdout}");
    assert!(
        stdout.contains("slowest spans"),
        "--trace-summary must print the table: {stdout}"
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\": ["), "{trace}");
    assert!(trace.contains("\"thread_name\""), "lane metadata: {trace}");
    assert!(
        trace.contains("\"ph\": \"B\"") && trace.contains("\"ph\": \"E\""),
        "phase spans present"
    );
    assert!(trace.trim_end().ends_with('}'), "JSON must be closed");
    std::fs::remove_file(&path).ok();
}

/// What a distributed run reports of its numbers: the guard transcript,
/// the recovery epochs, who died and who adopted, and the residual line
/// less its host time.
fn run_report(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .skip_while(|l| !l.contains("partitioning of all levels"))
        .skip(1)
        .take_while(|l| !l.starts_with("modeled Delta cost"))
        .map(|l| l.split_once(" host: ").map_or(l, |(_, rest)| rest))
        .collect()
}

#[test]
fn fault_recovery_traces_are_byte_identical_across_reruns() {
    let dir = std::env::temp_dir().join("eul3d_cli_trace_det");
    std::fs::create_dir_all(&dir).unwrap();
    let mut traces = Vec::new();
    let mut reports = Vec::new();
    // The delta reruns stay on the modeled clock and export the very same
    // trace. The hybrid reruns recover on windows with real-time lanes, so
    // their stamps differ from run to run; they must report the delta
    // run's residuals, guard transcript and died/adopted lines instead.
    for backend in ["delta", "delta", "hybrid", "hybrid"] {
        let path = dir.join(format!("fault_{backend}_{}.json", reports.len()));
        let path_s = path.to_str().unwrap();
        let (ok, stdout, stderr) = eul3d(
            &[
                &["distributed"],
                STRETCHED,
                &[
                    "--ranks",
                    "4",
                    "--backend",
                    backend,
                    "--guard",
                    "--cfl-backoff",
                    "0.25",
                    "--faults",
                    "kill:1@6",
                    "--checkpoint-every",
                    "2",
                    "--fault-timeout-ms",
                    "60000",
                    "--trace",
                    path_s,
                ],
            ]
            .concat(),
        );
        assert!(ok, "{stderr}");
        assert!(stdout.contains("recovery epoch"), "{stdout}");
        assert!(stdout.contains("adopted by rank"), "{stdout}");
        let hybrid = backend == "hybrid";
        assert_eq!(stdout.contains("hybrid wall time"), hybrid, "{stdout}");
        let header = stdout.lines().next().unwrap_or_default();
        assert_eq!(header.contains("on 4 hybrid threads"), hybrid, "{header}");
        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(trace.contains("\"recovery\""), "recovery epoch lane");
        assert!(trace.contains("(adopted by"), "replica lane present");
        reports.push(run_report(&stdout).join("\n"));
        if !hybrid {
            traces.push(trace);
        }
    }
    assert_eq!(
        traces[1], traces[0],
        "guarded fault-injected delta runs must export byte-identical traces"
    );
    assert!(traces[0].contains("\"cfl-change\""), "CFL backoff marker");
    assert!(reports[0].contains("died in cycle"), "{}", reports[0]);
    for r in &reports[1..] {
        assert_eq!(
            r, &reports[0],
            "every rerun reports the delta run's numbers"
        );
    }
}

#[test]
fn config_file_loads_and_flags_override_it() {
    let dir = std::env::temp_dir().join("eul3d_cli_config_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.toml");
    std::fs::write(
        &path,
        "[mesh]\nnx = 8\nny = 4\nnz = 3\n\n[run]\ncycles = 4\nlevels = 2\n\n[solver]\ncfl = 4.0\n",
    )
    .unwrap();
    let path_s = path.to_str().unwrap();

    let (ok, stdout, stderr) = eul3d(&["solve", "--config", path_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cycles"), "{stdout}");

    // A flag overrides the file: forcing zero cycles must now fail.
    let (ok, _, stderr) = eul3d(&["solve", "--config", path_s, "--cycles", "0"]);
    assert!(!ok);
    assert!(stderr.contains("cycles = 0 out of range"), "{stderr}");

    // A malformed file is a clean, line-numbered error.
    std::fs::write(&path, "[mesh]\nnx = what\n").unwrap();
    let (ok, _, stderr) = eul3d(&["solve", "--config", path_s]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn distributed_guard_reports_the_same_recovery() {
    let (ok, stdout, stderr) = eul3d(
        &[
            &["distributed"],
            STRETCHED,
            &[
                "--ranks",
                "4",
                "--guard",
                "--cfl-backoff",
                "0.25",
                "--fault-timeout-ms",
                "60000",
            ],
        ]
        .concat(),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("health guard:"), "{stdout}");
    assert!(stdout.contains("backoff epochs 1"), "{stdout}");
    assert!(stdout.contains("cfl 30.000 -> 7.500"), "{stdout}");
    assert!(stdout.contains("modeled Delta cost"), "{stdout}");
}

/// The first output line of a run, which names its configuration hash.
fn header(args: &[&str]) -> String {
    let (ok, stdout, stderr) = eul3d(args);
    assert!(ok, "{args:?}: {stderr}");
    stdout.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn a_config_file_is_the_same_run_as_the_flags() {
    let dir = scratch("config_identity");
    let empty = dir.join("empty.toml");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    let run = |extra: &[&str]| {
        let args = [
            &["solve", "--nx", "8", "--levels", "2", "--cycles", "2"],
            extra,
        ]
        .concat();
        let (ok, stdout, stderr) = eul3d(&args);
        assert!(ok, "{extra:?}: {stderr}");
        let head = stdout.lines().next().unwrap_or_default().to_owned();
        let line = stdout
            .lines()
            .find(|l| l.contains("orders"))
            .unwrap_or_default();
        let residuals = line.split_once("host: ").map(|p| p.1.to_owned());
        (head, residuals)
    };
    let plain = run(&[]);
    assert!(plain.0.contains(" config "), "{}", plain.0);
    assert_eq!(
        plain,
        run(&["--config", empty]),
        "an empty file changes nothing"
    );
    let lever = run(&["--set", "solver.coarse_k2=0.25"]);
    assert_ne!(lever.0, plain.0, "another setting, another hash");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_alias_flag_is_its_key_on_the_command_line_and_in_a_file() {
    // (command, flag, key, value); each row also runs over a base that
    // leaves its own flag out.
    const ROWS: &[(&str, &str, &str, &str)] = &[
        ("solve", "nx", "mesh.nx", "7"),
        ("solve", "ny", "mesh.ny", "3"),
        ("solve", "nz", "mesh.nz", "4"),
        ("solve", "bump", "mesh.bump_height", "0.08"),
        ("solve", "taper", "mesh.taper", "0.3"),
        ("solve", "jitter", "mesh.jitter", "0.05"),
        ("solve", "seed", "mesh.seed", "9"),
        ("solve", "levels", "run.levels", "1"),
        ("solve", "coarse", "run.coarsening", "agglo"),
        ("solve", "cycles", "run.cycles", "2"),
        ("solve", "strategy", "run.strategy", "v"),
        ("solve", "scheme", "solver.scheme", "roe"),
        ("solve", "mach", "solver.mach", "0.5"),
        ("solve", "alpha", "solver.alpha_deg", "1.25"),
        ("solve", "cfl", "solver.cfl", "2"),
        ("solve", "max-retries", "guard.max_retries", "3"),
        ("solve", "cfl-backoff", "guard.cfl_backoff", "0.25"),
        ("solve", "health-window", "guard.window", "6"),
        ("solve", "trace-capacity", "trace.capacity", "512"),
        ("solve", "trace-top", "trace.top_n", "3"),
        ("distributed", "ranks", "run.nranks", "3"),
        ("distributed", "backend", "run.backend", "hybrid"),
        ("distributed", "threads", "run.threads", "2"),
        (
            "distributed",
            "checkpoint-every",
            "run.checkpoint_every",
            "1",
        ),
        (
            "distributed",
            "fault-timeout-ms",
            "run.fault_timeout_ms",
            "60000",
        ),
        ("distributed", "faults", "run.faults", "kill:1@2"),
        (
            "distributed",
            "partition-method",
            "partition.method",
            "multilevel",
        ),
        (
            "distributed",
            "partition-mapping",
            "partition.mapping",
            "topology",
        ),
        (
            "distributed",
            "repartition-every",
            "partition.repartition_every",
            "1",
        ),
    ];
    let base: &[(&str, &str)] = &[
        ("nx", "6"),
        ("levels", "2"),
        ("cycles", "3"),
        ("ranks", "2"),
    ];
    let dir = scratch("aliases");
    let file = dir.join("one_key.toml");
    let file_s = file.to_str().unwrap();
    for &(cmd, flag, key, value) in ROWS {
        let mut args = vec![cmd.to_owned()];
        for (f, v) in base {
            if *f != flag && (cmd == "distributed" || *f != "ranks") {
                args.extend([format!("--{f}"), v.to_string()]);
            }
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (section, name) = key.split_once('.').unwrap();
        let quoted = value.parse::<f64>().is_err();
        let entry = if quoted {
            format!("\"{value}\"")
        } else {
            value.to_owned()
        };
        std::fs::write(&file, format!("[{section}]\n{name} = {entry}\n")).unwrap();
        let by_flag = header(&[&args[..], &[&format!("--{flag}"), value]].concat());
        let setting = format!("{key}={value}");
        let by_set = header(&[&args[..], &["--set", &setting]].concat());
        let by_file = header(&[&args[..], &["--config", file_s]].concat());
        assert_eq!(by_flag, by_set, "--{flag} vs --set {setting}");
        assert_eq!(by_flag, by_file, "--{flag} vs [{section}] {name}");
        if key != "trace.top_n" {
            assert_ne!(
                by_flag,
                header(&args),
                "--{flag} {value} must change the run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
