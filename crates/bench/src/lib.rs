//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every harness accepts environment overrides so the same binaries run
//! CI-scale by default and paper-scale when resources allow:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_NX` | fine-grid channel cells along x | 40 |
//! | `EUL3D_LEVELS` | multigrid levels | 4 |
//! | `EUL3D_CYCLES` | cycles per run | harness-specific |
//! | `EUL3D_RANKS` | comma list of Delta node counts | `256,512` |
//! | `EUL3D_MACH` | freestream Mach number | 0.675 |
//! | `EUL3D_OUT` | output directory for CSV/VTK | `target/experiments` |

use std::path::PathBuf;

use eul3d_core::SolverConfig;
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::MeshSequence;

/// One benchmark case: geometry, multigrid depth, flow conditions.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    pub nx: usize,
    pub levels: usize,
    pub cycles: usize,
    pub mach: f64,
    pub alpha_deg: f64,
    pub ranks: Vec<usize>,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl CaseSpec {
    /// Defaults (CI-scale), with environment overrides.
    pub fn from_env(default_cycles: usize) -> CaseSpec {
        let ranks = std::env::var("EUL3D_RANKS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_else(|| vec![256, 512]);
        CaseSpec {
            nx: env_parse("EUL3D_NX", 40),
            levels: env_parse("EUL3D_LEVELS", 4),
            cycles: env_parse("EUL3D_CYCLES", default_cycles),
            mach: env_parse("EUL3D_MACH", 0.675),
            alpha_deg: 0.0,
            ranks,
        }
    }

    /// Generate the multigrid sequence (includes the §2.4 preprocessing:
    /// inter-grid search).
    pub fn sequence(&self) -> MeshSequence {
        MeshSequence::bump_sequence(&BumpSpec::channel(self.nx), self.levels)
    }

    /// Solver configuration for this case.
    pub fn config(&self) -> SolverConfig {
        SolverConfig {
            mach: self.mach,
            alpha_deg: self.alpha_deg,
            ..SolverConfig::default()
        }
    }

    /// Output directory (created on demand).
    pub fn out_dir(&self) -> PathBuf {
        let dir = std::env::var("EUL3D_OUT").unwrap_or_else(|_| "target/experiments".into());
        let p = PathBuf::from(dir);
        std::fs::create_dir_all(&p).expect("cannot create output directory");
        p
    }
}

/// Write a simple CSV file: header plus rows.
pub fn write_csv(path: &std::path::Path, header: &[&str], rows: &[Vec<String>]) {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
}

/// The number after `flag` (`--gate`, `--gate-journal`) on the command
/// line, or `None` when the flag is absent. A missing or unparsable
/// value exits with status 2 instead of panicking.
pub fn gate_arg(args: &[String], flag: &str) -> Option<f64> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("{flag} takes a number");
            std::process::exit(2);
        }
    }
}

/// Index of the first non-finite entry of a residual history.
fn first_non_finite(history: &[f64]) -> Option<usize> {
    history.iter().position(|r| !r.is_finite())
}

/// A harness reports a run only if its residual history is finite: a
/// diverged solve does NaN arithmetic at a different speed and produces
/// no number worth printing next to the paper's. Exits with status 2,
/// naming the run and the (1-based) cycle, instead of returning.
pub fn finite_or_exit(history: &[f64], what: &str) {
    if let Some(i) = first_non_finite(history) {
        eprintln!(
            "{what}: residual is {} at cycle {} of {} — the run diverged; not reporting it \
             (ROADMAP item 1: the mesh sequence does not converge above NX≈90)",
            history[i],
            i + 1,
            history.len()
        );
        std::process::exit(2);
    }
}

/// Cycles needed to reduce the residual by `orders` decades relative to
/// the first entry (linear interpolation in log space); `None` if the
/// history never gets there.
pub fn cycles_to_orders(history: &[f64], orders: f64) -> Option<f64> {
    let r0 = history.first()?.log10();
    let target = r0 - orders;
    let mut prev = r0;
    for (i, &r) in history.iter().enumerate().skip(1) {
        let lr = r.log10();
        if lr <= target {
            let frac = (prev - target) / (prev - lr).max(1e-300);
            return Some((i - 1) as f64 + frac);
        }
        prev = lr;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_orders_interpolates() {
        // Residual drops one decade per cycle.
        let h = vec![1.0, 0.1, 0.01, 0.001];
        assert!((cycles_to_orders(&h, 2.0).unwrap() - 2.0).abs() < 1e-12);
        assert!((cycles_to_orders(&h, 1.5).unwrap() - 1.5).abs() < 1e-12);
        assert!(cycles_to_orders(&h, 5.0).is_none());
    }

    #[test]
    fn first_non_finite_names_the_cycle() {
        assert_eq!(first_non_finite(&[1.0, 0.5, 0.25]), None);
        assert_eq!(first_non_finite(&[]), None);
        assert_eq!(first_non_finite(&[1.0, f64::NAN, 0.25]), Some(1));
        assert_eq!(first_non_finite(&[1.0, 2.0, f64::INFINITY]), Some(2));
    }

    #[test]
    fn case_spec_defaults() {
        let c = CaseSpec::from_env(100);
        assert!(c.nx >= 4);
        assert!(c.levels >= 1);
        assert_eq!(c.alpha_deg, 0.0);
    }
}
