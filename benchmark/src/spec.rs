//! The benchmark's dictionary: workloads, metric names and units, and
//! the two problem sizes (full and smoke). `BENCHMARK.json` declares the
//! same names with their bounds; `tests/schema.rs` holds the two
//! together.

use eul3d_core::{Phase, SolverConfig};
use eul3d_mesh::gen::BumpSpec;

pub const WORKLOADS: [&str; 5] = [
    "serial_w64",
    "shared_w64",
    "delta_w64",
    "hybrid_w64",
    "serve_mix",
];

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cycle_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
];

pub const KERNELS: [&str; 7] = [
    "conv_flux",
    "jst_pass1",
    "jst_pass2",
    "first_order_diss",
    "roe_diss",
    "radii",
    "smooth_accumulate",
];

/// The level-phase probes, in the order `probes::level_phases` times
/// them; reported once under `core.level.` and once under `core.shared.`.
pub const LEVEL_PHASES: [&str; 7] = [
    "pressure_s",
    "dissipation_s",
    "convection_s",
    "assemble_s",
    "smooth_s",
    "step_l0_s",
    "step_coarse_s",
];

/// Phases whose per-cycle flop and launch counts are reported. Exchange
/// carries no flops (its traffic is `parti.*_per_cycle`); checkpoint,
/// recovery and guard never run in these workloads.
pub const COUNTED_PHASES: [(Phase, &str); 10] = [
    (Phase::Pressure, "pressure"),
    (Phase::Radii, "radii"),
    (Phase::Dissipation, "dissipation"),
    (Phase::Convection, "convection"),
    (Phase::Boundary, "boundary"),
    (Phase::Assemble, "assemble"),
    (Phase::Smooth, "smooth"),
    (Phase::Update, "update"),
    (Phase::Transfer, "transfer"),
    (Phase::Monitor, "monitor"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`, in
/// reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("mesh.sequence_s", "s");
    add("mesh.nverts", "count");
    add("mesh.nedges", "count");
    add("partition.color_s", "s");
    add("partition.ncolors", "count");
    add("partition.min_group_len", "count");
    add("partition.plan_s", "s");
    add("partition.edge_cut", "count");
    add("partition.balance", "ratio");
    for k in KERNELS {
        add(&format!("kernels.{k}_s"), "s");
        add(&format!("kernels.{k}_gflops"), "GFLOP/s");
        add(&format!("kernels.{k}_gbs"), "GB/s");
    }
    add("host.triad_gbs", "GB/s");
    add("host.fma_gflops", "GFLOP/s");
    for layer in ["core.level", "core.shared"] {
        for p in LEVEL_PHASES {
            add(&format!("{layer}.{p}"), "s");
        }
    }
    add("core.shared.launch_overhead_s", "s");
    add("core.multigrid.other_s", "s");
    for (_, p) in COUNTED_PHASES {
        add(&format!("core.phase.{p}.flops"), "flop");
        add(&format!("core.phase.{p}.launches"), "count");
    }
    add("core.cycles_to_drop", "count");
    add("core.parallel_eff", "ratio");
    add("parti.build_s", "s");
    add("parti.msgs_per_cycle", "count");
    add("parti.bytes_per_cycle", "B");
    add("parti.gather_s", "s");
    add("parti.scatter_add_s", "s");
    add("parti.gather_shm_s", "s");
    add("parti.scatter_add_shm_s", "s");
    add("delta.allreduce_s", "s");
    add("delta.exchange_wait_frac", "frac");
    add("delta.rank_imbalance", "ratio");
    add("obs.trace_overhead_frac", "frac");
    add("core.job.run_s", "s");
    add("core.ckstore.append_s", "s");
    add("core.ckstore.bytes", "B");
    add("serve.journal.append_s", "s");
    add("serve.store.put_s", "s");
    add("serve.store.bytes", "B");
    add("serve.json_parse_s", "s");
    add("serve.canonical_toml_s", "s");
    add("serve.accept_s", "s");
    add("serve.miss_p50_s", "s");
    add("serve.hit_p50_s", "s");
    add("serve.miss_p95_s", "s");
    add("serve.hit_p90_s", "s");
    add("serve.jobs_per_s", "1/s");
    add("serve.durable_overhead_frac", "frac");
    add("serve.rejected", "count");
    add("serve.retries", "count");
    m
}

/// Multigrid levels of every solver workload.
pub const LEVELS: usize = 4;
/// Threads / ranks / clients / workers: this host's `nproc`.
pub const NPAR: usize = 2;
/// Lanczos iterations per Fiedler solve (the value every in-tree
/// distributed harness uses).
pub const LANCZOS_ITERS: usize = 40;
/// Share of a client's submissions that repeat one of its own earlier
/// configurations (cache hits).
pub const HIT_SHARE: f64 = 0.4;
/// `run_seconds` the repeat counts below were sized for.
pub const SIZED_FOR_SECONDS: f64 = 12.0;

/// When a cycle run counts as solved.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// Residual `orders` decades below the first cycle's, within `cap`
    /// cycles: time to a solution of stated accuracy.
    Drop { orders: f64, cap: usize },
    /// A fixed cycle count (smoke runs only: too short to converge).
    Cycles(usize),
}

/// The served job every `serve_mix` submission is a perturbation of.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub levels: usize,
    pub cycles: usize,
    pub checkpoint_every: usize,
}

impl JobShape {
    pub fn bump_spec(&self, seed: u64) -> BumpSpec {
        BumpSpec {
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            jitter: 0.12,
            seed,
            ..BumpSpec::default()
        }
    }

    /// The job's TOML as a client would write it.
    pub fn toml(&self, mach: f64, seed: u64) -> String {
        format!(
            "[solver]\nmach = {mach}\n[run]\nstrategy = \"w\"\nlevels = {}\ncycles = {}\ncheckpoint_every = {}\n\
             [mesh]\nnx = {}\nny = {}\nnz = {}\njitter = 0.12\nseed = {seed}\n",
            self.levels, self.cycles, self.checkpoint_every, self.nx, self.ny, self.nz
        )
    }
}

/// A mesh family and multigrid depth; `spec.seed` also seeds the
/// partitioner.
#[derive(Debug, Clone)]
pub struct Problem {
    pub spec: BumpSpec,
    pub levels: usize,
}

/// Problem size of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub smoke: bool,
    /// Fine-grid cells along the channel for the four solver workloads.
    pub nx: usize,
    pub target: Target,
    pub job: JobShape,
    /// Closed-loop submissions per client at `SIZED_FOR_SECONDS`.
    pub jobs_per_client: usize,
    /// `--seconds` as a share of `SIZED_FOR_SECONDS`.
    scale: f64,
}

impl Size {
    pub fn full(seconds: f64) -> Size {
        Size {
            smoke: false,
            nx: 64,
            target: Target::Drop {
                orders: 2.0,
                cap: 200,
            },
            job: JobShape {
                nx: 24,
                ny: 8,
                nz: 7,
                levels: 3,
                cycles: 30,
                checkpoint_every: 10,
            },
            jobs_per_client: 200,
            scale: seconds / SIZED_FOR_SECONDS,
        }
    }

    /// NX=16, 5 cycles, 20 jobs: exercises every code path in seconds.
    pub fn smoke() -> Size {
        Size {
            smoke: true,
            nx: 16,
            target: Target::Cycles(5),
            job: JobShape {
                nx: 8,
                ny: 4,
                nz: 3,
                levels: 2,
                cycles: 6,
                checkpoint_every: 2,
            },
            jobs_per_client: 10,
            scale: 1.0,
        }
    }

    fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    /// Measured repeats of a solver workload: sized so each workload
    /// measures 12–22 s at `run_seconds` = 12 on the reference host
    /// (serial 3 x 4.1 s, shared 1 x 22 s, delta 4 x 3.6 s, hybrid
    /// 5 x 2.4 s). A smoke run repeats twice so the across-repeat
    /// equality checks have something to compare.
    pub fn repeats(&self, workload: &str) -> usize {
        if self.smoke {
            return 2;
        }
        self.scaled(match workload {
            "serial_w64" => 3,
            "shared_w64" => 1,
            "delta_w64" => 4,
            "hybrid_w64" => 5,
            _ => 1,
        })
    }

    pub fn client_jobs(&self) -> usize {
        self.scaled(self.jobs_per_client)
    }

    /// The bump channel of the four solver workloads.
    pub fn solver_problem(&self, seed: u64) -> Problem {
        Problem {
            spec: BumpSpec {
                nx: self.nx,
                ny: self.nx * 7 / 20,
                nz: self.nx * 3 / 10,
                jitter: 0.12,
                seed,
                ..BumpSpec::default()
            },
            levels: LEVELS,
        }
    }

    /// The mesh every served job solves on.
    pub fn job_problem(&self, seed: u64) -> Problem {
        Problem {
            spec: self.job.bump_spec(seed),
            levels: self.job.levels,
        }
    }
}

pub fn solver_config() -> SolverConfig {
    SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    }
}

/// Coarse-level visits per W-cycle, as `core::multigrid` recurses: the
/// multiplicity doubles per level except onto the coarsest.
pub fn wcycle_visits(levels: usize) -> Vec<usize> {
    let mut v = vec![1usize; levels];
    for l in 1..levels {
        v[l] = v[l - 1] * if l + 1 == levels { 1 } else { 2 };
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        names.extend(WORKLOADS.iter().map(|n| n.to_string()));
        let total = names.len();
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn wcycle_visits_match_the_recursion() {
        assert_eq!(wcycle_visits(4), vec![1, 2, 4, 4]);
        assert_eq!(wcycle_visits(3), vec![1, 2, 2]);
        assert_eq!(wcycle_visits(2), vec![1, 1]);
        assert_eq!(wcycle_visits(1), vec![1]);
    }
}
