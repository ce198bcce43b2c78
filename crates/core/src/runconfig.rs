//! The consolidated run configuration: everything a full EUL3D run needs
//! — scheme tunables, multigrid strategy, mesh family, machine size,
//! health guard, fault plan, checkpoint cadence, and tracing — in one
//! struct, plus a dependency-free TOML codec for `--config run.toml`
//! files.
//!
//! [`RunConfig::validate`] returns typed [`Eul3dError`]s and every entry
//! point (CLI flags, config files, library callers) goes through it, so
//! all of them reject exactly the same inputs:
//!
//! ```
//! use eul3d_core::runconfig::RunConfig;
//! use eul3d_core::health::GuardConfig;
//!
//! let rc = RunConfig {
//!     cycles: 12,
//!     guard: Some(GuardConfig::default()),
//!     ..RunConfig::default()
//! };
//! rc.validate().expect("valid configuration");
//! assert_eq!(rc.cycles, 12);
//! ```
//!
//! The TOML subset is exactly what [`RunConfig::to_toml`] emits:
//! `[section]` headers, `key = value` entries with integer, float,
//! boolean, quoted-string, and float-array values, and `#` comments.
//! Floats are written with Rust's shortest-round-trip formatting, so
//! `RunConfig → TOML → RunConfig` is lossless.

use eul3d_mesh::gen::BumpSpec;
use eul3d_obs::DEFAULT_RING_CAPACITY;
use eul3d_partition::RankMapping;

use crate::config::{Scheme, SolverConfig};
use crate::dist::DistBackend;
use crate::error::{Eul3dError, SolverError};
use crate::health::GuardConfig;
use crate::multigrid::Strategy;

/// Observability configuration of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Arm a [`eul3d_obs::RingTracer`] on every lane.
    pub enabled: bool,
    /// Ring capacity in events per lane.
    pub capacity: usize,
    /// Write the Chrome `trace_event` JSON here after the run.
    pub out: Option<String>,
    /// Print the human trace summary table after the run.
    pub summary: bool,
    /// Rows in the slowest-spans section of the summary.
    pub top_n: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: DEFAULT_RING_CAPACITY,
            out: None,
            summary: false,
            top_n: 10,
        }
    }
}

/// Which partitioner cuts the mesh for the distributed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMethod {
    /// Flat recursive spectral bisection — the paper's §4.1 method and
    /// the historical default.
    #[default]
    FlatRsb,
    /// Multilevel RSB: coarsen by heavy-edge matching, bisect the small
    /// graph spectrally, project back with boundary refinement.
    Multilevel,
}

/// The canonical spelling of a partition method (inverse of
/// [`parse_partition_method`]).
pub fn partition_method_name(m: PartitionMethod) -> &'static str {
    match m {
        PartitionMethod::FlatRsb => "flat-rsb",
        PartitionMethod::Multilevel => "multilevel",
    }
}

/// Parse a partition method name (the CLI's `--method` grammar).
pub fn parse_partition_method(s: &str) -> Option<PartitionMethod> {
    match s {
        "flat-rsb" | "flat" => Some(PartitionMethod::FlatRsb),
        "multilevel" | "ml" => Some(PartitionMethod::Multilevel),
        _ => None,
    }
}

/// Partitioning policy of a run: which partitioner cuts the mesh, its
/// multilevel knobs, how parts are placed on ranks, and the optional
/// mid-run repartition cadence. Absent (`None` on [`RunConfig`]) means
/// the historical behaviour: flat RSB, identity placement, no mid-run
/// repartitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// The partitioner.
    pub method: PartitionMethod,
    /// Multilevel: stop coarsening at this many vertices.
    pub coarsen_target: usize,
    /// Multilevel: refinement sweeps per level while uncoarsening.
    pub refine_passes: usize,
    /// Part→rank placement policy.
    pub mapping: RankMapping,
    /// Repartition-and-migrate every this many committed cycles
    /// (0 = never).
    pub repartition_every: usize,
}

impl Default for PartitionConfig {
    fn default() -> PartitionConfig {
        PartitionConfig {
            method: PartitionMethod::FlatRsb,
            coarsen_target: 64,
            refine_passes: 4,
            mapping: RankMapping::Identity,
            repartition_every: 0,
        }
    }
}

/// The full description of one EUL3D run. Fill the public fields over
/// [`RunConfig::default`] and call [`RunConfig::validate`], or
/// deserialize with [`RunConfig::from_toml`] (which validates).
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Scheme tunables (Mach, CFL, dissipation, RK stages).
    pub solver: SolverConfig,
    /// Multigrid cycling strategy.
    pub strategy: Strategy,
    /// Mesh levels in the multigrid hierarchy.
    pub levels: usize,
    /// Solver cycles to run.
    pub cycles: usize,
    /// The bump-channel mesh family.
    pub mesh: BumpSpec,
    /// Simulated ranks for the distributed path.
    pub nranks: usize,
    /// Distributed transport backend.
    pub backend: DistBackend,
    /// Worker threads for the hybrid backend (0 = one per rank). The
    /// hybrid path maps ranks onto OS threads one-to-one, so a nonzero
    /// value overrides `nranks` when the backend is [`DistBackend::Hybrid`].
    pub threads: usize,
    /// Solver-health guard (`None` = unguarded).
    pub guard: Option<GuardConfig>,
    /// Distributed checkpoint cadence in cycles (0 = never).
    pub checkpoint_every: usize,
    /// Fault plan spec (the `--faults` grammar), `None` = fault-free.
    pub faults: Option<String>,
    /// Bounded-receive window for fault detection, in milliseconds.
    pub fault_timeout_ms: u64,
    /// Partitioning policy (`None` = flat RSB, identity placement, no
    /// mid-run repartitioning — the historical behaviour).
    pub partition: Option<PartitionConfig>,
    /// Observability configuration.
    pub trace: TraceConfig,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            solver: SolverConfig::default(),
            strategy: Strategy::WCycle,
            levels: 4,
            cycles: 100,
            mesh: BumpSpec::default(),
            nranks: 32,
            backend: DistBackend::Delta,
            threads: 0,
            guard: None,
            checkpoint_every: 0,
            faults: None,
            fault_timeout_ms: 1500,
            partition: None,
            trace: TraceConfig::default(),
        }
    }
}

fn range_err(field: &'static str, value: f64, expected: &'static str) -> Eul3dError {
    Eul3dError::Solver(SolverError::ConfigOutOfRange {
        field,
        value,
        expected,
    })
}

impl RunConfig {
    /// Validate every field (config-file, flag and library paths all
    /// call this, so every entry point rejects the same inputs).
    pub fn validate(&self) -> Result<(), Eul3dError> {
        let s = &self.solver;
        // `is_finite` first so NaN (and ±inf) always fails validation.
        if !s.gamma.is_finite() || s.gamma <= 1.0 {
            return Err(range_err("solver.gamma", s.gamma, "must exceed 1"));
        }
        if !s.mach.is_finite() || s.mach <= 0.0 {
            return Err(range_err("solver.mach", s.mach, "must be positive"));
        }
        if !s.cfl.is_finite() || s.cfl <= 0.0 {
            return Err(range_err("solver.cfl", s.cfl, "must be positive"));
        }
        if !(s.k2 >= 0.0 && s.k4 >= 0.0 && s.coarse_k2 >= 0.0) {
            return Err(range_err(
                "solver.k2/k4",
                s.k2.min(s.k4).min(s.coarse_k2),
                "dissipation constants must be non-negative",
            ));
        }
        if s.lanes == 0 || s.lanes > eul3d_kernels::MAX_LANES {
            return Err(range_err(
                "solver.lanes",
                s.lanes as f64,
                "lane width must be in 1..=16",
            ));
        }
        if self.levels == 0 {
            return Err(range_err("levels", 0.0, "need at least one mesh level"));
        }
        if self.cycles == 0 {
            return Err(range_err("cycles", 0.0, "need at least one cycle"));
        }
        const RANKS: &str = "need at least one rank and at most 2^20";
        eul3d_delta::check_nranks(self.nranks)
            .map_err(|_| range_err("ranks", self.nranks as f64, RANKS))?;
        if self.threads != 0 {
            eul3d_delta::check_nranks(self.threads)
                .map_err(|_| range_err("threads", self.threads as f64, RANKS))?;
        }
        if self.mesh.nx < 2 || self.mesh.ny < 2 || self.mesh.nz < 2 {
            return Err(range_err(
                "mesh.nx/ny/nz",
                self.mesh.nx.min(self.mesh.ny).min(self.mesh.nz) as f64,
                "each mesh dimension needs at least 2 cells",
            ));
        }
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err(range_err(
                "trace.capacity",
                0.0,
                "the ring needs room for at least one event",
            ));
        }
        if let Some(g) = &self.guard {
            g.validate()?;
        }
        if let Some(spec) = &self.faults {
            eul3d_delta::FaultPlan::parse(spec, self.effective_nranks())
                .map_err(Eul3dError::Delta)?;
        }
        if let Some(p) = &self.partition {
            if p.coarsen_target < 2 {
                return Err(range_err(
                    "partition.coarsen_target",
                    p.coarsen_target as f64,
                    "must be at least 2",
                ));
            }
            if p.refine_passes > 1000 {
                return Err(range_err(
                    "partition.refine_passes",
                    p.refine_passes as f64,
                    "must be at most 1000",
                ));
            }
            if p.repartition_every != 0 && p.repartition_every >= self.cycles {
                return Err(range_err(
                    "partition.repartition_every",
                    p.repartition_every as f64,
                    "must be below the cycle count (or 0 to disable)",
                ));
            }
        }
        Ok(())
    }

    /// The rank/thread count a distributed run of this configuration
    /// actually uses: on the hybrid backend a nonzero `threads` overrides
    /// `nranks` (one rank per OS thread).
    pub fn effective_nranks(&self) -> usize {
        if self.backend == DistBackend::Hybrid && self.threads != 0 {
            self.threads
        } else {
            self.nranks
        }
    }
}

// ---------------------------------------------------------------------
// TOML codec (hand-rolled: the workspace vendors no serde).
// ---------------------------------------------------------------------

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::SingleGrid => "sg",
        Strategy::VCycle => "v",
        Strategy::WCycle => "w",
    }
}

/// Parse a strategy name (the CLI's `--strategy` grammar).
pub fn parse_strategy(s: &str) -> Option<Strategy> {
    match s {
        "sg" | "single" => Some(Strategy::SingleGrid),
        "v" => Some(Strategy::VCycle),
        "w" => Some(Strategy::WCycle),
        _ => None,
    }
}

fn backend_name(b: DistBackend) -> &'static str {
    match b {
        DistBackend::Delta => "delta",
        DistBackend::Hybrid => "hybrid",
    }
}

/// Parse a backend name (the CLI's `--backend` grammar).
pub fn parse_backend(s: &str) -> Option<DistBackend> {
    match s {
        "delta" | "sim" => Some(DistBackend::Delta),
        "hybrid" => Some(DistBackend::Hybrid),
        _ => None,
    }
}

fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::CentralJst => "jst",
        Scheme::RoeUpwind => "roe",
    }
}

/// Parse a scheme name (the CLI's `--scheme` grammar).
pub fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "jst" => Some(Scheme::CentralJst),
        "roe" => Some(Scheme::RoeUpwind),
        _ => None,
    }
}

/// Shortest-round-trip float literal (always with a decimal point or
/// exponent so it reads back as a float).
fn toml_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

impl RunConfig {
    /// Serialize as a `run.toml` document. [`RunConfig::from_toml`]
    /// reads this back losslessly.
    pub fn to_toml(&self) -> String {
        let s = &self.solver;
        let mut out = String::from("# EUL3D run configuration (see `eul3d --help` for the flags\n");
        out.push_str("# each key mirrors; CLI flags override file values).\n\n[solver]\n");
        out.push_str(&format!("gamma = {}\n", toml_f64(s.gamma)));
        out.push_str(&format!("mach = {}\n", toml_f64(s.mach)));
        out.push_str(&format!("alpha_deg = {}\n", toml_f64(s.alpha_deg)));
        out.push_str(&format!("cfl = {}\n", toml_f64(s.cfl)));
        out.push_str(&format!("k2 = {}\n", toml_f64(s.k2)));
        out.push_str(&format!("k4 = {}\n", toml_f64(s.k4)));
        out.push_str(&format!("smooth_eps = {}\n", toml_f64(s.smooth_eps)));
        out.push_str(&format!("smooth_passes = {}\n", s.smooth_passes));
        out.push_str(&format!("coarse_first_order = {}\n", s.coarse_first_order));
        out.push_str(&format!("coarse_k2 = {}\n", toml_f64(s.coarse_k2)));
        out.push_str(&format!("scheme = \"{}\"\n", scheme_name(s.scheme)));
        let rk: Vec<String> = s.rk_alpha.iter().map(|&a| toml_f64(a)).collect();
        out.push_str(&format!("rk_alpha = [{}]\n", rk.join(", ")));
        out.push_str(&format!("lanes = {}\n", s.lanes));

        out.push_str("\n[run]\n");
        out.push_str(&format!(
            "strategy = \"{}\"\n",
            strategy_name(self.strategy)
        ));
        out.push_str(&format!("levels = {}\n", self.levels));
        out.push_str(&format!("cycles = {}\n", self.cycles));
        out.push_str(&format!("nranks = {}\n", self.nranks));
        out.push_str(&format!("backend = \"{}\"\n", backend_name(self.backend)));
        out.push_str(&format!("threads = {}\n", self.threads));
        out.push_str(&format!("checkpoint_every = {}\n", self.checkpoint_every));
        out.push_str(&format!("fault_timeout_ms = {}\n", self.fault_timeout_ms));
        if let Some(fp) = &self.faults {
            out.push_str(&format!("faults = \"{fp}\"\n"));
        }

        let m = &self.mesh;
        out.push_str("\n[mesh]\n");
        out.push_str(&format!("nx = {}\n", m.nx));
        out.push_str(&format!("ny = {}\n", m.ny));
        out.push_str(&format!("nz = {}\n", m.nz));
        out.push_str(&format!("bump_height = {}\n", toml_f64(m.bump_height)));
        out.push_str(&format!("taper = {}\n", toml_f64(m.taper)));
        out.push_str(&format!("jitter = {}\n", toml_f64(m.jitter)));
        out.push_str(&format!("seed = {}\n", m.seed));

        if let Some(g) = &self.guard {
            out.push_str("\n[guard]\n");
            out.push_str(&format!("max_retries = {}\n", g.max_retries));
            out.push_str(&format!("cfl_backoff = {}\n", toml_f64(g.cfl_backoff)));
            out.push_str(&format!("window = {}\n", g.window));
            out.push_str(&format!(
                "divergence_ratio = {}\n",
                toml_f64(g.divergence_ratio)
            ));
            out.push_str(&format!("reramp_after = {}\n", g.reramp_after));
            out.push_str(&format!("snapshot_every = {}\n", g.snapshot_every));
        }

        if let Some(p) = &self.partition {
            out.push_str("\n[partition]\n");
            out.push_str(&format!(
                "method = \"{}\"\n",
                partition_method_name(p.method)
            ));
            out.push_str(&format!("coarsen_target = {}\n", p.coarsen_target));
            out.push_str(&format!("refine_passes = {}\n", p.refine_passes));
            out.push_str(&format!("mapping = \"{}\"\n", p.mapping.label()));
            out.push_str(&format!("repartition_every = {}\n", p.repartition_every));
        }

        let t = &self.trace;
        out.push_str("\n[trace]\n");
        out.push_str(&format!("enabled = {}\n", t.enabled));
        out.push_str(&format!("capacity = {}\n", t.capacity));
        if let Some(p) = &t.out {
            out.push_str(&format!("out = \"{p}\"\n"));
        }
        out.push_str(&format!("summary = {}\n", t.summary));
        out.push_str(&format!("top_n = {}\n", t.top_n));
        out
    }

    /// Deserialize the TOML subset [`RunConfig::to_toml`] emits (plus
    /// comments and any key order). Unknown sections or keys are typed
    /// parse errors, as are malformed values and duplicate keys or
    /// reopened sections (TOML forbids both; silently last-winning would
    /// let two visually different files alias one canonical hash, so
    /// they are line-numbered errors instead). Fields absent from the
    /// file keep their defaults; a `[guard]` header (even empty) arms
    /// the guard with defaults for unset keys. The result is validated.
    pub fn from_toml(text: &str) -> Result<RunConfig, Eul3dError> {
        let mut rc = RunConfig::default();
        let mut guard = GuardConfig::default();
        let mut has_guard = false;
        let mut part = PartitionConfig::default();
        let mut has_partition = false;
        let mut section = String::new();
        // (section, key) -> first-definition line, for duplicate
        // detection; section headers are stored under an empty key.
        let mut seen: std::collections::HashMap<(String, String), usize> =
            std::collections::HashMap::new();

        for (k, raw_line) in text.lines().enumerate() {
            let lineno = k + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| parse_err(lineno, "unterminated section header"))?
                    .trim();
                if let Some(first) = seen.insert((name.to_string(), String::new()), lineno) {
                    return Err(parse_err(
                        lineno,
                        &format!("section [{name}] reopened (first defined at line {first})"),
                    ));
                }
                match name {
                    "solver" | "run" | "mesh" | "trace" => section = name.to_string(),
                    "guard" => {
                        section = name.to_string();
                        has_guard = true;
                    }
                    "partition" => {
                        section = name.to_string();
                        has_partition = true;
                    }
                    other => {
                        return Err(parse_err(lineno, &format!("unknown section [{other}]")));
                    }
                }
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| parse_err(lineno, "expected `key = value`"))?;
            let key = key.trim();
            if let Some(first) = seen.insert((section.clone(), key.to_string()), lineno) {
                return Err(parse_err(
                    lineno,
                    &format!("duplicate key '{key}' in [{section}] (first set at line {first})"),
                ));
            }
            // Strip a trailing comment from unquoted values.
            let val = val.trim();
            let val = if val.starts_with('"') || val.starts_with('[') {
                val
            } else {
                val.split('#').next().unwrap_or("").trim()
            };
            apply_entry(&mut rc, &mut guard, &mut part, &section, key, val, lineno)?;
        }
        if has_guard {
            rc.guard = Some(guard);
        }
        if has_partition {
            rc.partition = Some(part);
        }
        rc.validate()?;
        Ok(rc)
    }

    /// The canonical serialization underlying [`RunConfig::canonical_hash`]:
    /// the [`RunConfig::to_toml`] text of the configuration with its
    /// presentation-only fields normalized away. `to_toml` is a
    /// serialization fixed point (`to_toml ∘ from_toml ∘ to_toml =
    /// to_toml`), so every re-serialization, key-order permutation,
    /// comment, whitespace variant, and float spelling (`1.0` vs `1` vs
    /// `1e0`) of the same semantic configuration collapses to one byte
    /// string — while any semantic field change alters it.
    ///
    /// Normalized (excluded from identity) because they change where
    /// results are *delivered*, never what is computed: `trace.out`,
    /// `trace.summary`, `trace.top_n`. Everything else participates —
    /// including `trace.enabled`/`trace.capacity`, which shape the
    /// exported trace artifact itself.
    pub fn canonical_toml(&self) -> String {
        let mut c = self.clone();
        c.trace.out = None;
        c.trace.summary = false;
        c.trace.top_n = TraceConfig::default().top_n;
        c.to_toml()
    }

    /// Content-addressed identity of this configuration: FNV-1a 128 over
    /// [`RunConfig::canonical_toml`]. Two configurations hash equal iff
    /// they describe the same computation (see `canonical_toml` for the
    /// presentation-only exclusions). The service layer folds the job
    /// mode and partitioner seed on top of this to form cache keys.
    pub fn canonical_hash(&self) -> u128 {
        fnv1a_128(self.canonical_toml().as_bytes())
    }
}

/// FNV-1a 128-bit over `bytes`: the workspace's content-address hash
/// (dependency-free, deterministic across platforms — the standard
/// offset basis and prime).
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn parse_err(line: usize, msg: &str) -> Eul3dError {
    Eul3dError::Solver(SolverError::ConfigParse {
        line,
        msg: msg.to_string(),
    })
}

fn toml_str(val: &str, line: usize) -> Result<String, Eul3dError> {
    let body = val
        .strip_prefix('"')
        .ok_or_else(|| parse_err(line, "expected a double-quoted string"))?;
    let Some((inner, rest)) = body.split_once('"') else {
        return Err(parse_err(line, "unterminated string"));
    };
    let rest = rest.trim();
    if !rest.is_empty() && !rest.starts_with('#') {
        return Err(parse_err(line, "trailing content after string value"));
    }
    Ok(inner.to_string())
}

fn toml_num<T: std::str::FromStr>(val: &str, line: usize) -> Result<T, Eul3dError> {
    val.parse()
        .map_err(|_| parse_err(line, &format!("cannot parse '{val}' as a number")))
}

fn toml_bool(val: &str, line: usize) -> Result<bool, Eul3dError> {
    match val {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(parse_err(
            line,
            &format!("expected true/false, got '{val}'"),
        )),
    }
}

fn toml_f64_array<const N: usize>(val: &str, line: usize) -> Result<[f64; N], Eul3dError> {
    let inner = val
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| parse_err(line, "expected a [..] array"))?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() != N {
        return Err(parse_err(
            line,
            &format!("expected {N} elements, got {}", parts.len()),
        ));
    }
    let mut out = [0.0; N];
    for (slot, p) in out.iter_mut().zip(&parts) {
        *slot = toml_num(p, line)?;
    }
    Ok(out)
}

fn apply_entry(
    rc: &mut RunConfig,
    guard: &mut GuardConfig,
    part: &mut PartitionConfig,
    section: &str,
    key: &str,
    val: &str,
    line: usize,
) -> Result<(), Eul3dError> {
    match (section, key) {
        ("solver", "gamma") => rc.solver.gamma = toml_num(val, line)?,
        ("solver", "mach") => rc.solver.mach = toml_num(val, line)?,
        ("solver", "alpha_deg") => rc.solver.alpha_deg = toml_num(val, line)?,
        ("solver", "cfl") => rc.solver.cfl = toml_num(val, line)?,
        ("solver", "k2") => rc.solver.k2 = toml_num(val, line)?,
        ("solver", "k4") => rc.solver.k4 = toml_num(val, line)?,
        ("solver", "smooth_eps") => rc.solver.smooth_eps = toml_num(val, line)?,
        ("solver", "smooth_passes") => rc.solver.smooth_passes = toml_num(val, line)?,
        ("solver", "coarse_first_order") => rc.solver.coarse_first_order = toml_bool(val, line)?,
        ("solver", "coarse_k2") => rc.solver.coarse_k2 = toml_num(val, line)?,
        ("solver", "scheme") => {
            let name = toml_str(val, line)?;
            rc.solver.scheme = parse_scheme(&name)
                .ok_or_else(|| parse_err(line, &format!("scheme must be jst|roe, got '{name}'")))?;
        }
        ("solver", "rk_alpha") => rc.solver.rk_alpha = toml_f64_array(val, line)?,
        ("solver", "lanes") => rc.solver.lanes = toml_num(val, line)?,
        // Removed with the coloured sweep it tuned; run files and job
        // journals written by earlier builds still carry the line.
        ("solver", "edge_reorder") => {
            toml_bool(val, line)?;
        }
        ("run", "strategy") => {
            let name = toml_str(val, line)?;
            rc.strategy = parse_strategy(&name).ok_or_else(|| {
                parse_err(line, &format!("strategy must be sg|v|w, got '{name}'"))
            })?;
        }
        ("run", "levels") => rc.levels = toml_num(val, line)?,
        ("run", "cycles") => rc.cycles = toml_num(val, line)?,
        ("run", "nranks") => rc.nranks = toml_num(val, line)?,
        ("run", "backend") => {
            let name = toml_str(val, line)?;
            rc.backend = parse_backend(&name).ok_or_else(|| {
                parse_err(line, &format!("backend must be delta|hybrid, got '{name}'"))
            })?;
        }
        ("run", "threads") => rc.threads = toml_num(val, line)?,
        ("run", "checkpoint_every") => rc.checkpoint_every = toml_num(val, line)?,
        ("run", "fault_timeout_ms") => rc.fault_timeout_ms = toml_num(val, line)?,
        ("run", "faults") => rc.faults = Some(toml_str(val, line)?),
        ("mesh", "nx") => rc.mesh.nx = toml_num(val, line)?,
        ("mesh", "ny") => rc.mesh.ny = toml_num(val, line)?,
        ("mesh", "nz") => rc.mesh.nz = toml_num(val, line)?,
        ("mesh", "bump_height") => rc.mesh.bump_height = toml_num(val, line)?,
        ("mesh", "taper") => rc.mesh.taper = toml_num(val, line)?,
        ("mesh", "jitter") => rc.mesh.jitter = toml_num(val, line)?,
        ("mesh", "seed") => rc.mesh.seed = toml_num(val, line)?,
        ("guard", "max_retries") => guard.max_retries = toml_num(val, line)?,
        ("guard", "cfl_backoff") => guard.cfl_backoff = toml_num(val, line)?,
        ("guard", "window") => guard.window = toml_num(val, line)?,
        ("guard", "divergence_ratio") => guard.divergence_ratio = toml_num(val, line)?,
        ("guard", "reramp_after") => guard.reramp_after = toml_num(val, line)?,
        ("guard", "snapshot_every") => guard.snapshot_every = toml_num(val, line)?,
        ("partition", "method") => {
            let name = toml_str(val, line)?;
            part.method = parse_partition_method(&name).ok_or_else(|| {
                parse_err(
                    line,
                    &format!("method must be flat-rsb|multilevel, got '{name}'"),
                )
            })?;
        }
        ("partition", "coarsen_target") => part.coarsen_target = toml_num(val, line)?,
        ("partition", "refine_passes") => part.refine_passes = toml_num(val, line)?,
        ("partition", "mapping") => {
            let name = toml_str(val, line)?;
            part.mapping = RankMapping::parse(&name).ok_or_else(|| {
                parse_err(
                    line,
                    &format!("mapping must be identity|topology, got '{name}'"),
                )
            })?;
        }
        ("partition", "repartition_every") => part.repartition_every = toml_num(val, line)?,
        ("trace", "enabled") => rc.trace.enabled = toml_bool(val, line)?,
        ("trace", "capacity") => rc.trace.capacity = toml_num(val, line)?,
        ("trace", "out") => rc.trace.out = Some(toml_str(val, line)?),
        ("trace", "summary") => rc.trace.summary = toml_bool(val, line)?,
        ("trace", "top_n") => rc.trace.top_n = toml_num(val, line)?,
        ("", _) => {
            return Err(parse_err(line, "entry before the first [section] header"));
        }
        (sec, key) => {
            return Err(parse_err(line, &format!("unknown key '{key}' in [{sec}]")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_solver(edit: impl FnOnce(&mut SolverConfig)) -> RunConfig {
        let mut rc = RunConfig::default();
        edit(&mut rc.solver);
        rc
    }

    #[test]
    fn validate_checks_every_section() {
        let rc = RunConfig {
            guard: Some(GuardConfig::default()),
            trace: TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            },
            ..with_solver(|s| (s.mach, s.cfl) = (0.675, 3.0))
        };
        rc.validate().unwrap();
        assert_eq!(rc.solver.cfl, 3.0);
        assert!(rc.guard.is_some());
        assert!(rc.trace.enabled);

        let err = with_solver(|s| s.mach = -1.0).validate().unwrap_err();
        assert!(err.to_string().contains("solver.mach"), "{err}");
        let rc = RunConfig {
            cycles: 0,
            ..RunConfig::default()
        };
        let err = rc.validate().unwrap_err();
        assert!(err.to_string().contains("cycles"), "{err}");
        let rc = RunConfig {
            guard: Some(GuardConfig {
                cfl_backoff: 1.5,
                ..GuardConfig::default()
            }),
            ..RunConfig::default()
        };
        let err = rc.validate().unwrap_err();
        assert!(err.to_string().contains("cfl-backoff"), "{err}");
    }

    #[test]
    fn validate_checks_lane_width() {
        for bad in [0usize, eul3d_kernels::MAX_LANES + 1, 1000] {
            let err = with_solver(|s| s.lanes = bad).validate().unwrap_err();
            assert!(err.to_string().contains("solver.lanes"), "{bad}: {err}");
        }
        for good in [1usize, 4, eul3d_kernels::MAX_LANES] {
            let rc = with_solver(|s| s.lanes = good);
            rc.validate().unwrap();
            assert_eq!(rc.solver.lanes, good);
        }
    }

    #[test]
    fn lanes_survive_the_toml_codec_and_a_retired_key_still_reads() {
        let rc = with_solver(|s| s.lanes = 4);
        rc.validate().unwrap();
        let back = RunConfig::from_toml(&rc.to_toml()).unwrap();
        assert_eq!(back.solver.lanes, 4);
        // `edge_reorder` went with the coloured sweep: no longer
        // written, still accepted (earlier builds' journals carry it)
        // and without effect on the configuration's identity.
        assert!(!rc.to_toml().contains("edge_reorder"));
        let old = rc
            .to_toml()
            .replace("lanes = 4\n", "lanes = 4\nedge_reorder = true\n");
        assert_eq!(RunConfig::from_toml(&old).unwrap().to_toml(), rc.to_toml());
        assert!(RunConfig::from_toml("[solver]\nedge_reorder = 3\n").is_err());
        let err = RunConfig::from_toml("[solver]\nlanes = 0\n").unwrap_err();
        assert!(err.to_string().contains("solver.lanes"), "{err}");
    }

    #[test]
    fn validate_checks_fault_plan_against_nranks() {
        let rc = RunConfig {
            nranks: 2,
            faults: Some("kill:7@3".to_string()),
            ..RunConfig::default()
        };
        let err = rc.validate().unwrap_err();
        assert!(matches!(err, Eul3dError::Delta(_)), "{err}");
        let rc = RunConfig {
            nranks: 8,
            checkpoint_every: 2,
            ..rc
        };
        assert!(rc.validate().is_ok());

        // The plan is checked against the ranks that will run: hybrid
        // threads override nranks, in both directions.
        let few_threads = RunConfig {
            backend: DistBackend::Hybrid,
            threads: 2,
            nranks: 32,
            faults: Some("kill:5@3".to_string()),
            ..RunConfig::default()
        };
        let err = few_threads.validate().unwrap_err();
        assert!(matches!(err, Eul3dError::Delta(_)), "{err}");
        let many_threads = RunConfig {
            threads: 8,
            nranks: 2,
            ..few_threads
        };
        many_threads.validate().unwrap();
    }

    #[test]
    fn a_one_rank_seeded_fault_plan_is_an_error() {
        let err =
            RunConfig::from_toml("[run]\nnranks = 1\nfaults = \"seeded:1#2@3\"\n").unwrap_err();
        assert!(matches!(err, Eul3dError::Delta(_)), "{err}");
        assert!(err.to_string().contains("two ranks"), "{err}");
    }

    #[test]
    fn backend_and_threads_validate_and_round_trip() {
        let rc = RunConfig {
            backend: DistBackend::Hybrid,
            threads: 4,
            nranks: 32,
            ..RunConfig::default()
        };
        rc.validate().unwrap();
        assert_eq!(
            rc.effective_nranks(),
            4,
            "threads override nranks on hybrid"
        );
        let back = RunConfig::from_toml(&rc.to_toml()).unwrap();
        assert_eq!(back.backend, DistBackend::Hybrid);
        assert_eq!(back.threads, 4);

        let delta = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        delta.validate().unwrap();
        assert_eq!(
            delta.effective_nranks(),
            delta.nranks,
            "threads are inert on the delta backend"
        );

        let err = RunConfig::from_toml("[run]\nbackend = \"mpi\"\n").unwrap_err();
        assert!(err.to_string().contains("delta|hybrid"), "{err}");

        // Rank/thread counts funnel through the machine-wide cap and are
        // reported against their own field, not as a machine error.
        for (nranks, threads, field) in [
            (eul3d_delta::MAX_RANKS + 1, 0, "ranks"),
            (32, eul3d_delta::MAX_RANKS + 1, "threads"),
            (0, 0, "ranks"),
        ] {
            let rc = RunConfig {
                nranks,
                threads,
                ..RunConfig::default()
            };
            let err = rc.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    Eul3dError::Solver(SolverError::ConfigOutOfRange { field: f, .. }) if f == field
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn toml_round_trips_exactly() {
        let rc = RunConfig {
            strategy: Strategy::VCycle,
            levels: 3,
            cycles: 12,
            nranks: 4,
            guard: Some(GuardConfig {
                cfl_backoff: 0.25,
                ..GuardConfig::default()
            }),
            checkpoint_every: 2,
            faults: Some("kill:1@2+5".to_string()),
            trace: TraceConfig {
                enabled: true,
                capacity: 4096,
                out: Some("trace.json".to_string()),
                summary: true,
                top_n: 5,
            },
            ..with_solver(|s| (s.mach, s.alpha_deg, s.cfl) = (0.768, 1.116, 2.8))
        };
        rc.validate().unwrap();
        let text = rc.to_toml();
        let back = RunConfig::from_toml(&text).unwrap();
        assert_eq!(rc, back, "RunConfig -> TOML -> RunConfig must be lossless");
        // And the serialization itself is a fixed point.
        assert_eq!(text, back.to_toml());
    }

    #[test]
    fn toml_defaults_round_trip() {
        let rc = RunConfig::default();
        let back = RunConfig::from_toml(&rc.to_toml()).unwrap();
        assert_eq!(rc, back);
        assert!(back.guard.is_none(), "no [guard] section, no guard");
    }

    #[test]
    fn toml_rejects_unknowns_with_line_numbers() {
        let err = RunConfig::from_toml("[solver]\nwarp = 9\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("warp"), "{msg}");
        let err = RunConfig::from_toml("[hyperdrive]\n").unwrap_err();
        assert!(err.to_string().contains("hyperdrive"));
        let err = RunConfig::from_toml("mach = 0.5\n").unwrap_err();
        assert!(err.to_string().contains("before the first"));
    }

    #[test]
    fn toml_partial_file_keeps_defaults_and_comments_parse() {
        let text = "# comment\n[run]\ncycles = 7 # inline comment\n\n[guard]\n";
        let rc = RunConfig::from_toml(text).unwrap();
        assert_eq!(rc.cycles, 7);
        assert_eq!(rc.levels, RunConfig::default().levels);
        assert_eq!(rc.guard, Some(GuardConfig::default()));
    }

    #[test]
    fn partition_section_round_trips_and_validates() {
        let rc = RunConfig {
            cycles: 40,
            partition: Some(PartitionConfig {
                method: PartitionMethod::Multilevel,
                coarsen_target: 32,
                refine_passes: 6,
                mapping: RankMapping::Topology,
                repartition_every: 10,
            }),
            ..RunConfig::default()
        };
        rc.validate().unwrap();
        let text = rc.to_toml();
        assert!(text.contains("[partition]"), "{text}");
        assert!(text.contains("method = \"multilevel\""), "{text}");
        let back = RunConfig::from_toml(&text).unwrap();
        assert_eq!(rc, back);

        // No [partition] section: no policy, and the canonical text is
        // unchanged from the historical form.
        let plain = RunConfig::default();
        assert!(plain.partition.is_none());
        assert!(!plain.to_toml().contains("[partition]"));

        // An empty [partition] header arms the defaults.
        let rc = RunConfig::from_toml("[partition]\n").unwrap();
        assert_eq!(rc.partition, Some(PartitionConfig::default()));

        // Bad spellings are line-numbered errors.
        let err = RunConfig::from_toml("[partition]\nmethod = \"metis\"\n").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("flat-rsb|multilevel"),
            "{msg}"
        );
        let err = RunConfig::from_toml("[partition]\nmapping = \"ring\"\n").unwrap_err();
        assert!(err.to_string().contains("identity|topology"), "{err}");

        // Range validation.
        let rc = RunConfig {
            partition: Some(PartitionConfig {
                coarsen_target: 1,
                ..PartitionConfig::default()
            }),
            ..RunConfig::default()
        };
        let err = rc.validate().unwrap_err();
        assert!(err.to_string().contains("coarsen_target"), "{err}");
        let rc = RunConfig {
            cycles: 10,
            partition: Some(PartitionConfig {
                repartition_every: 10,
                ..PartitionConfig::default()
            }),
            ..RunConfig::default()
        };
        let err = rc.validate().unwrap_err();
        assert!(err.to_string().contains("repartition_every"), "{err}");
    }

    #[test]
    fn partition_policy_changes_the_canonical_hash() {
        let plain = RunConfig::default();
        let armed = RunConfig {
            partition: Some(PartitionConfig::default()),
            ..RunConfig::default()
        };
        assert_ne!(plain.canonical_hash(), armed.canonical_hash());
    }
}
