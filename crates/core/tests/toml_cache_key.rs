//! The TOML ↔ cache-key contract that the service's content-addressed
//! cache stands on: every *spelling* of a configuration — key order,
//! section order, comments, whitespace, float formatting — collapses to
//! one canonical hash, while every *semantic* change (any field that
//! alters what is computed) produces a different one. Malformed inputs
//! that TOML forbids (duplicate keys, reopened sections, unknown keys)
//! are line-numbered errors rather than silent last-wins aliasing.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use eul3d_core::{Coarsening, GuardConfig, RunConfig};

/// Deterministic xorshift for spelling permutations (proptest feeds the
/// seed, so every case is reproducible from the failure report).
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn shuffle<T>(v: &mut [T], state: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (next(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Build a valid configuration from sampled primitives.
#[allow(clippy::too_many_arguments)]
fn sample_config(
    cycles: usize,
    levels: usize,
    nranks_pow: u32,
    cfl: f64,
    mach: f64,
    nx: usize,
    flags: u64,
    seed: u64,
) -> RunConfig {
    let mut rc = RunConfig {
        cycles,
        levels,
        nranks: 1 << nranks_pow,
        checkpoint_every: 1 + (flags % 4) as usize,
        ..RunConfig::default()
    };
    rc.solver.cfl = cfl;
    rc.solver.mach = mach;
    rc.mesh.nx = nx;
    // (8, 7) is the default channel's cross-section, which `mesh.nx`
    // re-derives unless it is read first: a shuffled file must not care.
    (rc.mesh.ny, rc.mesh.nz) = [(4, 3), (8, 7), (8, 3), (4, 7)][(flags >> 3) as usize % 4];
    rc.mesh.seed = seed;
    if flags & 1 != 0 {
        rc.guard = Some(GuardConfig::default());
    }
    if flags & 2 != 0 && rc.nranks > 1 {
        rc.faults = Some("kill:1@2".to_string());
    }
    rc.trace.enabled = flags & 4 != 0;
    rc.trace.capacity = 256 + (flags % 1024) as usize;
    if flags & 32 != 0 {
        rc.coarsening = Coarsening::Agglo;
    }
    rc.validate().expect("sampled config is valid");
    rc
}

/// Re-spell `toml` without changing its meaning: shuffle whole
/// sections, shuffle keys within each section, vary whitespace around
/// `=`, drop redundant `.0` suffixes, inject comments (standalone and
/// inline) and blank lines.
fn respell(toml: &str, state: &mut u64) -> String {
    // Split into (header, body-lines) section blocks; the preamble
    // comment lines before the first header are dropped (legal:
    // comments are not content).
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            sections.push((line.to_string(), Vec::new()));
        } else if !line.is_empty() && !line.starts_with('#') {
            if let Some(last) = sections.last_mut() {
                last.1.push(line.to_string());
            }
        }
    }
    shuffle(&mut sections, state);
    let mut out = String::from("# re-spelled by the invariance proptest\n");
    for (header, mut body) in sections {
        shuffle(&mut body, state);
        out.push_str(&header);
        out.push('\n');
        for line in body {
            let (key, val) = line.split_once('=').expect("key = value");
            let mut val = val.trim().to_string();
            // `N.0` → `N`: a float respelled as an integer literal.
            if let Some(stripped) = val.strip_suffix(".0") {
                if stripped.chars().all(|c| c.is_ascii_digit() || c == '-') && !stripped.is_empty()
                {
                    val = stripped.to_string();
                }
            }
            let pad = ["", " ", "  ", "\t"][(next(state) % 4) as usize];
            let quoted = val.starts_with('"') || val.starts_with('[');
            let inline = if !quoted && next(state).is_multiple_of(3) {
                " # inline noise"
            } else {
                ""
            };
            if next(state).is_multiple_of(4) {
                out.push_str("# interleaved comment\n");
            }
            out.push_str(&format!("{}{pad}={pad}{val}{inline}\n", key.trim()));
            if next(state).is_multiple_of(5) {
                out.push('\n');
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// `to_toml` is a serialization fixed point, so parse∘print is
    /// identity on the canonical hash (and on the canonical bytes).
    #[test]
    fn round_trip_is_a_fixed_point(
        cycles in 1usize..40,
        levels in 1usize..4,
        nranks_pow in 0u32..4,
        cfl in 1.0f64..60.0,
        mach in 0.1f64..0.9,
        nx in 4usize..16,
        flags in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let rc = sample_config(cycles, levels, nranks_pow, cfl, mach, nx, flags, seed);
        let parsed = RunConfig::from_toml(&rc.to_toml()).expect("own output parses");
        prop_assert_eq!(parsed.to_toml(), rc.to_toml());
        prop_assert_eq!(parsed.canonical_hash(), rc.canonical_hash());
    }

    /// Any re-spelling — key/section order, floats, comments,
    /// whitespace — hashes identically.
    #[test]
    fn spelling_never_changes_the_cache_key(
        cycles in 1usize..40,
        levels in 1usize..4,
        nranks_pow in 0u32..4,
        cfl in 1.0f64..60.0,
        mach in 0.1f64..0.9,
        nx in 4usize..16,
        flags in 0u64..u64::MAX,
        mut spell_seed in 0u64..u64::MAX,
    ) {
        let rc = sample_config(cycles, levels, nranks_pow, cfl, mach, nx, flags, flags);
        let variant = respell(&rc.to_toml(), &mut spell_seed);
        let parsed = RunConfig::from_toml(&variant)
            .unwrap_or_else(|e| panic!("re-spelled config must parse: {e}\n---\n{variant}"));
        prop_assert_eq!(parsed.canonical_hash(), rc.canonical_hash());
        prop_assert_eq!(parsed.canonical_toml(), rc.canonical_toml());
    }

    /// Any semantic field change moves the hash (no aliasing between
    /// genuinely different jobs).
    #[test]
    fn semantic_changes_always_move_the_cache_key(
        cycles in 1usize..40,
        levels in 1usize..4,
        nranks_pow in 1u32..4,
        cfl in 1.0f64..60.0,
        mach in 0.1f64..0.9,
        nx in 4usize..16,
        flags in 0u64..u64::MAX,
        selector in 0u8..10,
    ) {
        let rc = sample_config(cycles, levels, nranks_pow, cfl, mach, nx, flags, flags);
        let mut m = rc.clone();
        match selector {
            0 => m.cycles += 1,
            1 => m.levels += 1,
            2 => m.nranks *= 2,
            3 => m.solver.cfl += 1.0,
            4 => m.solver.mach += 0.05,
            5 => m.mesh.nx += 1,
            6 => m.mesh.seed = m.mesh.seed.wrapping_add(1),
            7 => m.trace.enabled = !m.trace.enabled,
            8 => m.guard = match m.guard {
                Some(_) => None,
                None => Some(GuardConfig::default()),
            },
            9 => m.coarsening = match m.coarsening {
                Coarsening::Sequence => Coarsening::Agglo,
                Coarsening::Agglo => Coarsening::Sequence,
            },
            _ => unreachable!(),
        }
        m.validate().expect("mutated config stays valid");
        prop_assert_ne!(m.canonical_hash(), rc.canonical_hash());
    }
}

#[test]
fn duplicate_keys_are_line_numbered_errors() {
    let toml = "[run]\nlevels = 2\ncycles = 3\ncycles = 4\n";
    let err = RunConfig::from_toml(toml).expect_err("duplicate must not last-win");
    let msg = err.to_string();
    assert!(
        msg.contains("line 4") && msg.contains("duplicate key 'cycles'") && msg.contains("line 3"),
        "error names both lines: {msg}"
    );
}

#[test]
fn reopened_sections_are_line_numbered_errors() {
    let toml = "[run]\nlevels = 2\n[mesh]\nnx = 8\n[run]\ncycles = 3\n";
    let err = RunConfig::from_toml(toml).expect_err("reopening must not alias");
    let msg = err.to_string();
    assert!(
        msg.contains("line 5") && msg.contains("[run] reopened") && msg.contains("line 1"),
        "{msg}"
    );
}

#[test]
fn unknown_keys_and_sections_are_line_numbered_errors() {
    let msg = RunConfig::from_toml("[run]\nlevels = 2\nwarp = 9\n")
        .expect_err("unknown key")
        .to_string();
    assert!(msg.contains("line 3") && msg.contains("warp"), "{msg}");
    let msg = RunConfig::from_toml("[run]\nlevels = 2\n\n[warpdrive]\nx = 1\n")
        .expect_err("unknown section")
        .to_string();
    assert!(msg.contains("line 4") && msg.contains("warpdrive"), "{msg}");
}

#[test]
fn integer_and_float_spellings_of_the_same_value_hash_identically() {
    let base =
        "[solver]\ncfl = 30{X}\n[run]\nlevels = 2\ncycles = 3\n[mesh]\nnx = 8\nny = 4\nnz = 3\n";
    let spellings = ["", ".0", ".00", "e0", ".0e0"];
    let hashes: Vec<u128> = spellings
        .iter()
        .map(|s| {
            RunConfig::from_toml(&base.replace("{X}", s))
                .unwrap_or_else(|e| panic!("cfl = 30{s}: {e}"))
                .canonical_hash()
        })
        .collect();
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "30 / 30.0 / 30.00 / 30e0 / 30.0e0 must alias: {hashes:x?}"
    );
    // ...but a different *value* does not.
    let other = RunConfig::from_toml(&base.replace("{X}", ".5"))
        .unwrap()
        .canonical_hash();
    assert_ne!(other, hashes[0]);
}

#[test]
fn presentation_fields_are_outside_the_identity() {
    let rc = RunConfig::default();
    let mut noisy = rc.clone();
    noisy.trace.out = Some("elsewhere.json".into());
    noisy.trace.summary = true;
    noisy.trace.top_n = rc.trace.top_n + 7;
    assert_eq!(noisy.canonical_hash(), rc.canonical_hash());
    // trace.capacity shapes the exported artifact: semantic.
    let mut deeper = rc.clone();
    deeper.trace.capacity += 1;
    assert_ne!(deeper.canonical_hash(), rc.canonical_hash());
}

#[test]
fn coarsening_is_written_only_off_its_default() {
    // Every file and cache key from before the key existed keeps its
    // bytes; the agglomerated hierarchy round-trips under `[run]`.
    let rc = RunConfig::default();
    assert!(!rc.to_toml().contains("coarsening"), "{}", rc.to_toml());
    let agglo = RunConfig {
        coarsening: Coarsening::Agglo,
        ..RunConfig::default()
    };
    assert!(agglo
        .to_toml()
        .contains("\n[run]\nstrategy = \"w\"\nlevels = 4\ncoarsening = \"agglo\"\n"));
    assert_eq!(RunConfig::from_toml(&agglo.to_toml()).unwrap(), agglo);
    let parsed = RunConfig::from_toml("[run]\ncoarsening = \"sequence\"\n").unwrap();
    assert_eq!(parsed.canonical_toml(), rc.canonical_toml());
    let err = RunConfig::from_toml("[run]\ncoarsening = \"agglomerated\"\n").unwrap_err();
    assert!(err.to_string().contains("must be sequence|agglo"), "{err}");
}
