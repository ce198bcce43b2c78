//! One configuration surface: every entry point starts from one default
//! mesh, `mesh.nx` sizes the cross-section by one rule whatever the key
//! order, and every key of the file format reads back through the one
//! setter the CLI uses too. Library-only and fast.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_core::health::GuardConfig;
use eul3d_core::runconfig::PartitionConfig;
use eul3d_core::{Coarsening, RunConfig};
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
