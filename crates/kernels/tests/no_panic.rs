//! Codegen guard: the release build of this crate must contain no
//! implicit bounds-check panics.
//!
//! The edge kernels promise bounds-check-free inner loops (see the
//! crate docs): every hot index goes through `get_unchecked` or raw
//! pointer arithmetic validated once per call by `debug_assert!`s. A
//! stray `w[c * n + i]` in a hot path would silently reintroduce a
//! `core::panicking::panic_bounds_check` call and a branch per access.
//! This test disassembles the release rlib and fails if that symbol is
//! referenced anywhere in the crate's generated code.
//!
//! CI builds `--release --workspace --all-targets` before testing, so
//! the rlib is always present there; locally the test builds it on
//! demand. Hosts without `objdump` skip with a notice rather than fail.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

/// Newest `libeul3d_kernels-*.rlib` under `target/release/deps`, if any.
fn find_release_rlib() -> Option<PathBuf> {
    let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/release/deps");
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(target).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("libeul3d_kernels-") && name.ends_with(".rlib") {
            let mtime = entry.metadata().ok()?.modified().ok()?;
            if best.as_ref().is_none_or(|(t, _)| mtime > *t) {
                best = Some((mtime, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
}

#[test]
fn release_kernels_have_no_bounds_check_panics() {
    let rlib = match find_release_rlib() {
        Some(p) => p,
        None => {
            // Developer machine running a plain debug `cargo test`:
            // produce the release artifact first.
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let status = Command::new(cargo)
                .args(["build", "--release", "-p", "eul3d-kernels"])
                .status()
                .expect("spawn cargo build --release -p eul3d-kernels");
            assert!(status.success(), "release build of eul3d-kernels failed");
            find_release_rlib().expect("release rlib missing after successful build")
        }
    };

    let out = match Command::new("objdump")
        .args(["-d", "--demangle"])
        .arg(&rlib)
        .output()
    {
        Ok(out) if out.status.success() => out,
        Ok(out) => panic!(
            "objdump failed on {}: {}",
            rlib.display(),
            String::from_utf8_lossy(&out.stderr)
        ),
        Err(_) => {
            eprintln!("skipping: objdump not available on this host");
            return;
        }
    };
    let asm = String::from_utf8_lossy(&out.stdout);

    // Sanity: the kernels we are guarding must actually be in the
    // disassembly, or the check would pass vacuously.
    #[cfg(target_arch = "x86_64")]
    let required_mods = [
        "eul3d_kernels::edges::",
        "eul3d_kernels::edges::chunk_avx2",
        "eul3d_kernels::verts::jst_gather_verts",
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let required_mods = [
        "eul3d_kernels::edges::",
        "eul3d_kernels::verts::jst_gather_verts",
    ];
    for required in required_mods {
        assert!(
            asm.contains(required),
            "disassembly of {} lacks {required} symbols — stale or wrong rlib?",
            rlib.display()
        );
    }

    let hits: Vec<&str> = asm
        .lines()
        .filter(|l| l.contains("panic_bounds_check"))
        .collect();
    assert!(
        hits.is_empty(),
        "release codegen of eul3d-kernels references panic_bounds_check:\n{}",
        hits.join("\n")
    );
}
