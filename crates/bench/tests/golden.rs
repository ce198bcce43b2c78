//! Golden-file regression tests for the harness binaries' stdout.
//!
//! Everything these binaries print — counted flops, message and byte
//! totals, modeled seconds, residuals — is deterministic at a fixed case
//! size; only host wall-clock measurements and output paths are not, and
//! [`normalize`] scrubs exactly those. So the committed goldens pin the
//! entire observable behaviour of the reporting pipeline: a counter that
//! drifts, a cost-model constant that moves, or a table column that
//! disappears fails the diff.
//!
//! To re-bless after an intentional change:
//! `EUL3D_BLESS=1 cargo test -p eul3d-bench --test golden`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned golden case size, as flags.
const CASE: &[&str] = &["--nx", "10", "--levels", "2", "--cycles", "3"];

/// Run a harness binary at the pinned golden case size (plus its own
/// `extra` flags) and return its normalized stdout. `EUL3D_SEED` is
/// stripped so the CI seed matrix (which legitimately perturbs solver
/// tests) cannot perturb goldens.
fn run_normalized(bin: &str, extra: &[&str]) -> String {
    let out = Command::new(bin)
        .args(CASE)
        .args(extra)
        .env_remove("EUL3D_SEED")
        .env(
            "EUL3D_OUT",
            std::env::temp_dir().join("eul3d_golden").to_str().unwrap(),
        )
        .output()
        .expect("failed to run harness binary");
    assert!(
        out.status.success(),
        "harness failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    normalize(&String::from_utf8_lossy(&out.stdout))
}

/// Scrub the two nondeterministic ingredients: host wall-clock readings
/// (`host 1.2s` → `host *s`) and absolute output paths (`wrote /tmp/...`
/// → `wrote <basename>`). Hand-rolled on purpose — no regex dependency.
fn normalize(raw: &str) -> String {
    let mut lines: Vec<String> = Vec::new();
    for line in raw.lines() {
        let mut l = line.to_string();
        if let Some(rest) = l.strip_prefix("wrote ") {
            let base = rest.rsplit('/').next().unwrap_or(rest);
            l = format!("wrote {base}");
        }
        while let Some(i) = l.find("host ") {
            let start = i + "host ".len();
            let tail = &l[start..];
            let n = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .count();
            if n > 0 && tail[n..].starts_with('s') {
                l = format!("{}*s{}", &l[..start], &tail[n + 1..]);
            } else {
                break;
            }
        }
        lines.push(l);
    }
    lines.join("\n") + "\n"
}

fn check(name: &str, bin: &str, extra: &[&str]) {
    let got = run_normalized(bin, extra);
    let path = golden_dir().join(name);
    if std::env::var("EUL3D_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with EUL3D_BLESS=1", name));
    if got != want {
        let mismatch = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "{name}: output diverged from golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             (full output below; re-bless with EUL3D_BLESS=1 if intentional)\n{got}",
            mismatch + 1,
            want.lines().nth(mismatch).unwrap_or("<eof>"),
            got.lines().nth(mismatch).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn table1_matches_golden() {
    check("table1.txt", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn table2_matches_golden() {
    check(
        "table2.txt",
        env!("CARGO_BIN_EXE_table2"),
        &["--ranks", "3,5"],
    );
}

#[test]
fn compare_matches_golden() {
    check(
        "compare.txt",
        env!("CARGO_BIN_EXE_compare"),
        &["--ranks", "5"],
    );
}
