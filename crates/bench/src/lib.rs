//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every harness reads its case through the `eul3d` CLI's one
//! configuration loader ([`eul3d_core::args`]): [`base`] — the CI-scale
//! case — then `--config run.toml`, then the `solve` command's flags
//! (`--nx`, `--levels`, `--cycles`, `--mach`, `--coarse`, …) and any
//! `--set section.key=value`. The same binaries therefore run CI-scale
//! by default and paper-scale from `examples/paper.toml`. A harness's
//! own sweep axes are its own flags (`table2 --ranks 256,512`). Output
//! goes to `EUL3D_OUT` (default `target/experiments`).

use std::path::PathBuf;

use eul3d_core::{Args, PhaseCounters, RunConfig, Scope, SolverConfig, Strategy};
use eul3d_mesh::gen::BumpSpec;
use eul3d_perf::TextTable;

/// The harness case: the bump channel at NX = 40, 4 levels, M = 0.675,
/// `cycles` cycles of `strategy`.
pub fn base(cycles: usize, strategy: Strategy) -> RunConfig {
    RunConfig {
        mesh: BumpSpec::channel(40),
        levels: 4,
        cycles,
        strategy,
        solver: SolverConfig {
            mach: 0.675,
            ..SolverConfig::default()
        },
        ..RunConfig::default()
    }
}

/// The strategy sweep's key, for [`configure`]'s `owned`.
pub const STRATEGY_SWEEP: (&str, &str) = ("run.strategy", "swept over sg, v and w");
/// The `--ranks` sweep's key, for [`configure`]'s `owned`.
pub const RANKS_SWEEP: (&str, &str) = ("run.nranks", "swept by --ranks");

/// Keys no harness run reads, refused by every [`configure`]: the
/// harnesses price every distributed run on the modeled Delta clock with
/// one thread per rank, inject no faults, export no traces and arm no
/// guard.
const UNREAD: &[(&str, &str)] = &[
    ("run.backend", NOT_READ),
    ("run.threads", NOT_READ),
    ("run.faults", NOT_READ),
    ("run.checkpoint_every", NOT_READ),
    ("run.fault_timeout_ms", NOT_READ),
    ("[trace]", NOT_READ),
    ("[guard]", NOT_READ),
];
const NOT_READ: &str = "not read by the harnesses";

/// Print `e` and exit with status 2: the harnesses' answer to any input
/// they cannot run.
pub fn exit_2(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// This process's configuration: `base` under the `--config` file and
/// the `solve` flags ([`Args::run_config`]), plus what `own` reads of
/// the harness's own flags. Keys the harness sets itself or ignores
/// (`owned`, each with how, plus the keys no harness reads) are refused,
/// and so is any flag neither reads. Every error exits 2 naming its key
/// or flag.
pub fn configure<T>(
    base: RunConfig,
    owned: &[(&str, &str)],
    own: impl FnOnce(&Args) -> T,
) -> (RunConfig, T) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| exit_2(e));
    if let Some(tok) = &args.command {
        exit_2(format!("unexpected positional argument '{tok}'"));
    }
    let refused: Vec<_> = owned.iter().chain(UNREAD).copied().collect();
    let rc = args
        .run_config(Scope::Solve, base, &refused)
        .unwrap_or_else(|e| exit_2(e));
    let flags = own(&args);
    args.check_unknown().unwrap_or_else(|e| exit_2(e));
    (rc, flags)
}

/// `--ranks a,b,…`: the rank counts a harness sweeps (`default` when the
/// flag is absent). Every entry must parse and be a valid `run.nranks`;
/// anything else exits 2.
pub fn ranks_flag(args: &Args, default: &[usize]) -> Vec<usize> {
    let Some(list) = args.get_str("ranks") else {
        return default.to_vec();
    };
    list.split(',')
        .map(|s| {
            let mut rc = RunConfig::default();
            rc.set("run.nranks", s)
                .and_then(|()| rc.validate())
                .map(|()| rc.nranks)
                .unwrap_or_else(|e| exit_2(format!("--ranks '{list}': {e}")))
        })
        .collect()
}

/// Output directory (created on demand): `EUL3D_OUT`, default
/// `target/experiments`.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("EUL3D_OUT").unwrap_or_else(|_| "target/experiments".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("cannot create output directory");
    p
}

/// The per-phase comp/comm table of a distributed run, summed over its
/// ranks.
pub fn phase_table(per_rank: &[PhaseCounters]) -> String {
    let mut total = PhaseCounters::default();
    for p in per_rank {
        total.merge(p);
    }
    let mut t = TextTable::new(&["phase", "flops", "launches", "messages", "bytes", "allocs"]);
    for r in total.rows() {
        t.row(&[
            r.label.to_string(),
            format!("{:.3e}", r.flops),
            r.launches.to_string(),
            r.msgs.to_string(),
            r.bytes.to_string(),
            r.allocs.to_string(),
        ]);
    }
    t.render()
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
    let v = args.get(i + 1).and_then(|v| v.parse().ok());
    Some(v.unwrap_or_else(|| exit_2(format!("{flag} takes a number"))))
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
        exit_2(format!(
            "{what}: residual is {} at cycle {} of {} — the run diverged; not reporting it \
             (above NX≈90 try more --levels or --set solver.coarse_k2=0.25; ROADMAP item 1)",
            history[i],
            i + 1,
            history.len()
        ));
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
    fn the_base_case_is_the_ci_channel() {
        let rc = base(25, Strategy::WCycle);
        rc.validate().unwrap();
        assert_eq!(rc.mesh, BumpSpec::channel(40));
        assert_eq!((rc.levels, rc.cycles, rc.solver.mach), (4, 25, 0.675));
        assert_eq!(rc.solver.alpha_deg, 0.0);
    }
}
