//! `eul3d` — command-line driver for the EUL3D reproduction.
//!
//! ```text
//! eul3d mesh       --nx 24 [--levels 1] [--taper 0.0] [--vtk out.vtk]
//! eul3d partition  --nx 24 --parts 16 [--method flat-rsb|multilevel|rcb|random|prcb]
//!                  [--mapping identity|topology] [--coarsen-target N]
//!                  [--refine-passes N] [--kl]
//! eul3d solve      --nx 24 --levels 4 [--strategy sg|v|w] [--scheme jst|roe]
//!                  [--cycles 100] [--mach 0.675] [--alpha 0.0] [--fmg] [--threads N]
//!                  [--restart ck] [--checkpoint ck] [--vtk out.vtk] [--coarse sequence|agglo]
//! eul3d distributed --nx 24 --levels 4 --ranks 32 [--strategy sg|v|w]
//!                  [--cycles 100] [--no-incremental]
//!                  [--backend delta|hybrid] [--threads N]
//!                  [--faults SPEC] [--checkpoint-every N] [--fault-timeout-ms MS]
//!                  [--partition-method flat-rsb|multilevel]
//!                  [--partition-mapping identity|topology] [--repartition-every N]
//! eul3d serve      --socket /tmp/eul3d.sock [--workers N] [--queue N]
//!                  [--cache N] [--cache-bytes B] [--seed N]
//!                  [--retry-after-ms MS] [--state-dir DIR]
//!                  [--deadline-ms MS] [--drain-timeout-ms MS]
//! eul3d submit     --socket /tmp/eul3d.sock --config run.toml
//!                  [--distributed] [--force] [--artifacts] [--ndjson]
//!                  [--timeout-ms MS] [--retries N]
//! eul3d submit     --socket S (--cancel JOB | --stats | --shutdown)
//! ```
//!
//! `serve --state-dir DIR` makes the server **crash-safe**: every
//! submission is journaled before it is acknowledged, results persist
//! in a content-addressed store, and running solve jobs write CRC-framed
//! checkpoints — after a crash (`kill -9` included) a restarted server
//! with the same `--state-dir` resumes interrupted jobs from their last
//! checkpoint and reproduces byte-identical artifacts (DESIGN.md §12).
//! `SIGTERM` drains gracefully: running jobs finish (bounded by
//! `--drain-timeout-ms`), new submissions are refused, and anything
//! still unfinished resumes on the next start.
//!
//! `solve` and `distributed` additionally take the consolidated
//! run-configuration flags: `--config run.toml` loads a config file (see
//! `examples/run.toml`), and repeatable `--set section.key=value` sets
//! any of its keys. Each configuration flag is an alias of one key
//! (`eul3d_core::args::ALIASES`); flags apply after the file, and a key
//! given twice on the command line is an error. The loader lives in
//! `eul3d_core::args`, which the paper's reproduction bins
//! (`crates/bench`) share. The header ends with `config <hash>`
//! (16 hex digits of the canonical hash). Then the tracing flags `--trace out.json` (Chrome `trace_event` JSON, one
//! lane per rank — open in Perfetto or `chrome://tracing`),
//! `--trace-summary` (human table), `--trace-capacity N` (ring events
//! per lane), and `--trace-top N` (summary rows).
//!
//! `solve --threads N` runs any strategy (and `--fmg`, `--guard`)
//! through the shared-memory executor on a team of `N` threads.
//!
//! Every distributed run exchanges its halo, transfer and checkpoint
//! records through shared-memory windows, one OS thread per rank.
//! `--backend hybrid` reports it as real threads: wall time beside the
//! modeled Delta clock, and `--trace` lanes on the real-time clock
//! (`--threads N` sets the thread count, default one per `--ranks`).
//!
//! `--faults` takes a comma-separated fault plan (e.g.
//! `kill:1@3+5,corrupt:0>2#0@2`) injected deterministically into the
//! simulated machine; survivors roll back to the last `--checkpoint-every`
//! checkpoint, rebuild their schedules, and finish with bit-identical
//! residuals. `EUL3D_SEED` overrides the partitioner seed.
//!
//! `--partition-method`/`--partition-mapping` (or a `[partition]`
//! section in `--config run.toml`) pick the partitioner and the
//! part→rank placement for the distributed solve;
//! `--repartition-every N` additionally migrates the whole run onto a
//! fresh partition every N cycles (checkpoint, epoch-shifted schedule
//! rebuild, restore — deterministic, and composable with `--faults`).

mod commands;
mod service;

use eul3d_core::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_deref() {
        Some("mesh") => commands::mesh(&parsed),
        Some("partition") => commands::partition(&parsed),
        Some("solve") => commands::solve(&parsed),
        Some("distributed") => commands::distributed(&parsed),
        Some("serve") => service::serve(&parsed),
        Some("submit") => service::submit(&parsed),
        Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!("eul3d — parallel unstructured Euler solver (Mavriplis et al., SC'92 reproduction)");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  mesh         generate a bump-channel mesh family and report statistics");
    eprintln!("  partition    partition a mesh and report cut/balance quality");
    eprintln!("  solve        sequential or shared-memory flow solve");
    eprintln!("  distributed  SPMD solve on the simulated Touchstone Delta");
    eprintln!("  serve        host the multi-tenant job engine on a Unix socket");
    eprintln!("  submit       client: submit/cancel jobs, stats, shutdown");
    eprintln!();
    eprintln!("run `eul3d <command> --help-flags` is not needed: unknown flags are rejected");
    eprintln!("with a message; see crates/cli/src/main.rs for the full flag list.");
}
