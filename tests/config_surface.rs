//! One configuration surface: every entry point starts from one default
//! mesh, `mesh.nx` sizes the cross-section by one rule whatever the key
//! order, and every key of the file format reads back through the one
//! setter the CLI uses too. The one loader layers a base, a `--config`
//! file and the flags, and every example file loads. Library-only and
//! fast.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_core::health::GuardConfig;
use eul3d_core::runconfig::PartitionConfig;
use eul3d_core::{Args, Coarsening, RunConfig, Scope};
use eul3d_mesh::gen::BumpSpec;

#[test]
fn one_default_mesh_and_one_sizing_rule() {
    assert_eq!(RunConfig::default().mesh, BumpSpec::channel(24));
    let rc = RunConfig::from_toml("[mesh]\nnx = 96\n").unwrap();
    assert_eq!(rc.mesh, BumpSpec::channel(96));
    // 8 is channel(24)'s ny: were nx applied after it, ny would follow
    // nx to 14.
    let rc = RunConfig::from_toml("[mesh]\nny = 8\nnx = 40\n").unwrap();
    assert_eq!((rc.mesh.nx, rc.mesh.ny, rc.mesh.nz), (40, 8, 12));
}

#[test]
fn every_key_round_trips_through_the_setter() {
    // A configuration with every section armed, every optional string
    // present and the coarsening (left out at its default) off its
    // default, so every key has an entry.
    let mut rich = RunConfig {
        guard: Some(GuardConfig::default()),
        partition: Some(PartitionConfig::default()),
        faults: Some("kill:1@2".into()),
        coarsening: Coarsening::Agglo,
        ..RunConfig::default()
    };
    rich.trace.out = Some("t.json".into());
    let text = rich.to_toml();
    let mut keys = 0;
    for key in RunConfig::keys() {
        let value = rich
            .get(key)
            .unwrap_or_else(|| panic!("{key} has no entry"));
        let (section, name) = key.split_once('.').unwrap();
        assert!(
            text.contains(&format!("{name} = {value}\n")) && text.contains(&format!("[{section}]")),
            "{key} = {value} is not in the file"
        );
        let mut rc = RunConfig::default();
        rc.set(key, &value)
            .unwrap_or_else(|e| panic!("{key} = {value}: {e}"));
        assert_eq!(rc.get(key), Some(value), "{key}");
        keys += 1;
    }
    let entries = text.lines().filter(|l| l.contains(" = ")).count();
    assert_eq!(keys, entries, "the file has an entry for no other key");
}

/// A scratch file holding `text`, unique to this process and `name`.
fn scratch_file(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("eul3d-{}-{name}.toml", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn args(argv: &[&str]) -> Args {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    Args::parse(&argv).unwrap()
}

#[test]
fn the_loader_layers_base_then_file_then_flags() {
    let base = RunConfig {
        mesh: BumpSpec::channel(40),
        cycles: 20,
        ..RunConfig::default()
    };
    let file = scratch_file("layers", "[run]\ncycles = 7\nlevels = 2\n");
    let path = file.to_str().unwrap();

    // The file omits mesh.nx: the base's NX stays, not the default's.
    let rc = args(&["--config", path])
        .run_config(Scope::Solve, base.clone(), &[])
        .unwrap();
    assert_eq!(rc.mesh, BumpSpec::channel(40));
    assert_eq!((rc.cycles, rc.levels), (7, 2));

    // A flag beats the file; `--nx` resizes the base's channel.
    let a = args(&["--config", path, "--cycles", "9", "--nx", "10"]);
    let rc = a.run_config(Scope::Solve, base.clone(), &[]).unwrap();
    assert_eq!((rc.cycles, rc.levels), (9, 2));
    assert_eq!(rc.mesh, BumpSpec::channel(10));
    a.check_unknown().unwrap();

    // No file and no flags: the base itself.
    let rc = args(&[])
        .run_config(Scope::Solve, base.clone(), &[])
        .unwrap();
    assert_eq!(rc, base);
    std::fs::remove_file(file).unwrap();
}

#[test]
fn a_bad_value_names_its_key() {
    let base = RunConfig::default();
    let err = args(&["--nx", "19O"])
        .run_config(Scope::Solve, base.clone(), &[])
        .unwrap_err();
    assert!(err.contains("--nx") && err.contains("mesh.nx"), "{err}");
    let err = args(&["--set", "solver.mach=0,7"])
        .run_config(Scope::Solve, base.clone(), &[])
        .unwrap_err();
    assert!(err.contains("solver.mach"), "{err}");
    let err = args(&["--cycles", "0"])
        .run_config(Scope::Solve, base, &[])
        .unwrap_err();
    assert!(err.contains("cycles"), "{err}");
}

#[test]
fn a_key_the_caller_sweeps_is_refused() {
    let owned = [("run.nranks", "swept by --ranks")];
    let err = args(&["--set", "run.nranks=4"])
        .run_config(Scope::Solve, RunConfig::default(), &owned)
        .unwrap_err();
    assert!(
        err.contains("run.nranks") && err.contains("--ranks"),
        "{err}"
    );
    let file = scratch_file("owned", "[run]\nnranks = 32\n");
    let err = args(&["--config", file.to_str().unwrap()])
        .run_config(Scope::Solve, RunConfig::default(), &owned)
        .unwrap_err();
    assert!(err.contains("--config") && err.contains("--ranks"), "{err}");
    std::fs::remove_file(file).unwrap();
    // Other keys still pass.
    args(&["--set", "solver.coarse_k2=0.25"])
        .run_config(Scope::Solve, RunConfig::default(), &owned)
        .unwrap();
}

#[test]
fn an_owned_section_refuses_its_header_and_its_keys() {
    let owned = [("[guard]", "not read here")];
    let err = args(&["--cfl-backoff", "0.25"])
        .run_config(Scope::Solve, RunConfig::default(), &owned)
        .unwrap_err();
    assert!(err.contains("guard.cfl_backoff"), "{err}");
    // An empty header arms the section, so it is refused too.
    let file = scratch_file(
        "owned_section",
        "[guard]
",
    );
    let err = args(&["--config", file.to_str().unwrap()])
        .run_config(Scope::Solve, RunConfig::default(), &owned)
        .unwrap_err();
    assert!(err.contains("[guard] is not read here"), "{err}");
    std::fs::remove_file(file).unwrap();
    // A section that merely shares the prefix is not covered.
    args(&["--set", "solver.cfl=2"])
        .run_config(Scope::Solve, RunConfig::default(), &[("[solve]", "x")])
        .unwrap();
}

#[test]
fn every_example_config_parses_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let text = std::fs::read_to_string(&path).unwrap();
            RunConfig::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            names.push(path.file_name().unwrap().to_str().unwrap().to_string());
        }
    }
    names.sort();
    assert_eq!(
        names,
        ["diverging.toml", "paper.toml", "run.toml", "serve.toml"]
    );
}
