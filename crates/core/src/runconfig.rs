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
//! `RunConfig → TOML → RunConfig` is lossless. One table of keys drives
//! the writer, the reader and [`RunConfig::set`], the setter the CLI's
//! flags and `--set section.key=value` go through as well:
//!
//! ```
//! use eul3d_core::runconfig::RunConfig;
//!
//! let mut rc = RunConfig::default();
//! rc.set("solver.coarse_k2", "0.25").unwrap();
//! assert_eq!(rc.get("solver.coarse_k2").as_deref(), Some("0.25"));
//! assert_eq!(rc, RunConfig::from_toml("[solver]\ncoarse_k2 = 0.25\n").unwrap());
//! ```

use eul3d_mesh::gen::BumpSpec;
use eul3d_obs::DEFAULT_RING_CAPACITY;
use eul3d_partition::RankMapping;

use crate::config::{Scheme, SolverConfig};
use crate::dist::DistBackend;
use crate::error::{Eul3dError, SolverError};
use crate::health::GuardConfig;
use crate::multigrid::{Coarsening, Strategy};

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
    /// Levels in the multigrid hierarchy.
    pub levels: usize,
    /// How the coarse levels are made. The distributed path partitions
    /// a mesh sequence and refuses [`Coarsening::Agglo`].
    pub coarsening: Coarsening,
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
            coarsening: Coarsening::Sequence,
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

/// A value as a `run.toml` entry writes it and as [`RunConfig::set`]
/// reads it.
trait TomlValue: Sized {
    /// The entry's text; `None` leaves the entry out.
    fn show(&self) -> Option<String>;
    fn read(v: &str) -> Result<Self, String>;
}

macro_rules! parsed {
    ($($t:ty: $show:expr),+) => {$(
        impl TomlValue for $t {
            fn show(&self) -> Option<String> {
                Some($show(*self))
            }
            fn read(v: &str) -> Result<$t, String> {
                v.parse().map_err(|_| format!("cannot parse '{v}' as {}", stringify!($t)))
            }
        }
    )+};
}
parsed!(f64: toml_f64, usize: |n: usize| n.to_string(), u64: |n: u64| n.to_string(),
        bool: |b: bool| b.to_string());

impl<const N: usize> TomlValue for [f64; N] {
    fn show(&self) -> Option<String> {
        let items: Vec<String> = self.iter().map(|&a| toml_f64(a)).collect();
        Some(format!("[{}]", items.join(", ")))
    }
    fn read(v: &str) -> Result<[f64; N], String> {
        let inner = v.strip_prefix('[').and_then(|v| v.strip_suffix(']'));
        let items = inner.ok_or("expected a [..] array")?.split(',');
        let items: Vec<f64> = items
            .map(|p| f64::read(p.trim()))
            .collect::<Result<_, _>>()?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected {N} elements, got {n}"))
    }
}

/// A string: double-quoted as `to_toml` writes it, or bare as on a
/// command line.
fn unquote(v: &str) -> Result<String, String> {
    let Some(body) = v.strip_prefix('"') else {
        return Ok(v.to_string());
    };
    let Some((inner, rest)) = body.split_once('"') else {
        return Err("unterminated string".into());
    };
    let rest = rest.trim();
    if !rest.is_empty() && !rest.starts_with('#') {
        return Err("trailing content after string value".into());
    }
    Ok(inner.to_string())
}

impl TomlValue for Option<String> {
    fn show(&self) -> Option<String> {
        self.as_ref().map(|s| format!("\"{s}\""))
    }
    fn read(v: &str) -> Result<Option<String>, String> {
        unquote(v).map(Some)
    }
}

/// Enums travel as strings: written under the first spelling of their
/// variant, read from any.
macro_rules! named {
    ($($t:ident, $alts:literal: $($v:ident = $name:literal $(| $alias:literal)*),+;)+) => {$(
        impl TomlValue for $t {
            fn show(&self) -> Option<String> {
                Some(format!("\"{}\"", match self { $($t::$v => $name,)+ }))
            }
            fn read(v: &str) -> Result<$t, String> {
                match unquote(v)?.as_str() {
                    $($name $(| $alias)* => Ok($t::$v),)+
                    s => Err(format!("must be {}, got '{s}'", $alts)),
                }
            }
        }
    )+};
}
named! {
    Strategy, "sg|v|w": SingleGrid = "sg" | "single", VCycle = "v", WCycle = "w";
    Scheme, "jst|roe": CentralJst = "jst", RoeUpwind = "roe";
    DistBackend, "delta|hybrid": Delta = "delta" | "sim", Hybrid = "hybrid";
    PartitionMethod, "flat-rsb|multilevel":
        FlatRsb = "flat-rsb" | "flat", Multilevel = "multilevel" | "ml";
    Coarsening, "sequence|agglo": Sequence = "sequence", Agglo = "agglo";
}

impl TomlValue for RankMapping {
    fn show(&self) -> Option<String> {
        Some(format!("\"{}\"", self.label()))
    }
    fn read(v: &str) -> Result<RankMapping, String> {
        let s = unquote(v)?;
        RankMapping::parse(&s).ok_or_else(|| format!("must be identity|topology, got '{s}'"))
    }
}

/// One configuration key: its `section.key` name, its entry text and
/// its setter from that text.
struct Key {
    name: &'static str,
    get: fn(&RunConfig) -> Option<String>,
    set: fn(&mut RunConfig, &str) -> Result<(), String>,
}

/// A [`Key`] on a field path. `opt?.field` is a field of an optional
/// section, which [`RunConfig::set`] arms before the setter runs.
macro_rules! key {
    ($name:literal, $opt:ident ? . $f:ident) => {
        Key {
            name: $name,
            get: |rc| rc.$opt.as_ref().and_then(|s| s.$f.show()),
            set: |rc, v| {
                if let Some(s) = &mut rc.$opt {
                    s.$f = TomlValue::read(v)?;
                }
                Ok(())
            },
        }
    };
    ($name:literal, $($f:ident).+) => {
        Key {
            name: $name,
            get: |rc| rc.$($f).+.show(),
            set: |rc, v| {
                rc.$($f).+ = TomlValue::read(v)?;
                Ok(())
            },
        }
    };
}

/// Every key, in file order. This one table is the file format: it
/// drives [`RunConfig::to_toml`], [`RunConfig::from_toml`] and
/// [`RunConfig::set`], and so the CLI's flags and `--set` too.
const KEYS: &[Key] = &[
    key!("solver.gamma", solver.gamma),
    key!("solver.mach", solver.mach),
    key!("solver.alpha_deg", solver.alpha_deg),
    key!("solver.cfl", solver.cfl),
    key!("solver.k2", solver.k2),
    key!("solver.k4", solver.k4),
    key!("solver.smooth_eps", solver.smooth_eps),
    key!("solver.smooth_passes", solver.smooth_passes),
    key!("solver.coarse_first_order", solver.coarse_first_order),
    key!("solver.coarse_k2", solver.coarse_k2),
    key!("solver.scheme", solver.scheme),
    key!("solver.rk_alpha", solver.rk_alpha),
    key!("solver.lanes", solver.lanes),
    key!("run.strategy", strategy),
    key!("run.levels", levels),
    Key {
        name: "run.coarsening",
        // Left out at its default, so every file and cache key written
        // before the key existed keeps its bytes.
        get: |rc| (rc.coarsening != Coarsening::Sequence).then(|| rc.coarsening.show())?,
        set: |rc, v| TomlValue::read(v).map(|c| rc.coarsening = c),
    },
    key!("run.cycles", cycles),
    key!("run.nranks", nranks),
    key!("run.backend", backend),
    key!("run.threads", threads),
    key!("run.checkpoint_every", checkpoint_every),
    key!("run.fault_timeout_ms", fault_timeout_ms),
    key!("run.faults", faults),
    Key {
        name: "mesh.nx",
        get: |rc| rc.mesh.nx.show(),
        set: |rc, v| {
            rc.mesh.set_nx(TomlValue::read(v)?);
            Ok(())
        },
    },
    key!("mesh.ny", mesh.ny),
    key!("mesh.nz", mesh.nz),
    key!("mesh.bump_height", mesh.bump_height),
    key!("mesh.taper", mesh.taper),
    key!("mesh.jitter", mesh.jitter),
    key!("mesh.seed", mesh.seed),
    key!("guard.max_retries", guard?.max_retries),
    key!("guard.cfl_backoff", guard?.cfl_backoff),
    key!("guard.window", guard?.window),
    key!("guard.divergence_ratio", guard?.divergence_ratio),
    key!("guard.reramp_after", guard?.reramp_after),
    key!("guard.snapshot_every", guard?.snapshot_every),
    key!("partition.method", partition?.method),
    key!("partition.coarsen_target", partition?.coarsen_target),
    key!("partition.refine_passes", partition?.refine_passes),
    key!("partition.mapping", partition?.mapping),
    key!("partition.repartition_every", partition?.repartition_every),
    key!("trace.enabled", trace.enabled),
    key!("trace.capacity", trace.capacity),
    key!("trace.out", trace.out),
    key!("trace.summary", trace.summary),
    key!("trace.top_n", trace.top_n),
];

fn section_of(key: &str) -> &str {
    key.split_once('.').map_or("", |(s, _)| s)
}

impl RunConfig {
    /// Every `section.key` of the file format, in file order.
    pub fn keys() -> impl Iterator<Item = &'static str> {
        KEYS.iter().map(|k| k.name)
    }

    /// One key's value as [`RunConfig::to_toml`] writes it; `None` for
    /// an unknown key or an entry the file leaves out (an unarmed
    /// section, an unset optional string).
    pub fn get(&self, key: &str) -> Option<String> {
        KEYS.iter()
            .find(|k| k.name == key)
            .and_then(|k| (k.get)(self))
    }

    /// Set one `section.key` from its value text: the spelling
    /// [`RunConfig::to_toml`] writes, or a bare string. Setting any
    /// `guard.*` or `partition.*` key arms that section, and setting
    /// `mesh.nx` resizes a derived cross-section
    /// ([`BumpSpec::set_nx`]). Unknown keys and malformed values are
    /// [`SolverError::ConfigParse`] errors; ranges are
    /// [`RunConfig::validate`]'s business.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), Eul3dError> {
        let value = value.trim();
        let fail = |e: String| parse_err(0, &format!("{key}: {e}"));
        // Removed with the coloured sweep it tuned; run files and job
        // journals written by earlier builds still carry the line.
        if key == "solver.edge_reorder" {
            return <bool as TomlValue>::read(value).map(drop).map_err(fail);
        }
        let k = KEYS
            .iter()
            .find(|k| k.name == key)
            .ok_or_else(|| parse_err(0, &format!("unknown key '{key}'")))?;
        self.arm(section_of(key))?;
        (k.set)(self, value).map_err(fail)
    }

    /// [`RunConfig::set`] over `(key, value)` entries, `mesh.nx` first
    /// so that the order of the entries cannot change the result. A
    /// failure carries the index of its entry.
    pub fn set_all(&mut self, entries: &[(&str, &str)]) -> Result<(), (usize, Eul3dError)> {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].0 != "mesh.nx");
        for i in order {
            let (key, value) = entries[i];
            self.set(key, value).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Switch `section` on. `guard` and `partition` are optional: arming
    /// one gives it its defaults unless it is already on. A file's
    /// section header, the CLI's `--guard` and [`RunConfig::set`] of any
    /// key of the section all arm it here.
    pub fn arm(&mut self, section: &str) -> Result<(), Eul3dError> {
        match section {
            "guard" => {
                self.guard.get_or_insert_with(GuardConfig::default);
            }
            "partition" => {
                self.partition.get_or_insert_with(PartitionConfig::default);
            }
            s if KEYS.iter().any(|k| section_of(k.name) == s) => {}
            other => return Err(parse_err(0, &format!("unknown section [{other}]"))),
        }
        Ok(())
    }

    /// Serialize as a `run.toml` document. [`RunConfig::from_toml`]
    /// reads this back losslessly.
    pub fn to_toml(&self) -> String {
        let mut out = String::from("# EUL3D run configuration (see `eul3d --help` for the flags\n");
        out.push_str("# each key mirrors; CLI flags override file values).\n");
        let mut open = "";
        for k in KEYS {
            let Some(v) = (k.get)(self) else {
                continue;
            };
            let (section, name) = k.name.split_once('.').unwrap_or_default();
            if section != open {
                out.push_str(&format!("\n[{section}]\n"));
                open = section;
            }
            out.push_str(&format!("{name} = {v}\n"));
        }
        out
    }

    /// Deserialize the TOML subset [`RunConfig::to_toml`] emits (plus
    /// comments and any key order): [`RunConfig::merge_toml`] over
    /// [`RunConfig::default`].
    pub fn from_toml(text: &str) -> Result<RunConfig, Eul3dError> {
        let mut rc = RunConfig::default();
        rc.merge_toml(text)?;
        Ok(rc)
    }

    /// Layer a TOML document over `self` and validate the result;
    /// returns the `[section]` headers it opens and the `section.key`s it
    /// sets, in document order. Unknown sections or
    /// keys are typed parse errors, as are malformed values and
    /// duplicate keys or reopened sections (TOML forbids both; silently
    /// last-winning would let two visually different files alias one
    /// canonical hash, so they are line-numbered errors instead). Each
    /// entry goes through [`RunConfig::set_all`]: absent keys keep
    /// `self`'s values, `mesh.nx` applies first, and a `[guard]` or
    /// `[partition]` header (even empty) arms that section.
    pub fn merge_toml(&mut self, text: &str) -> Result<Vec<String>, Eul3dError> {
        let rc = self;
        let mut section = "";
        // `[section]` or `section.key` -> first-definition line, for
        // duplicate detection.
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let (mut entries, mut lines, mut names) = (Vec::new(), Vec::new(), Vec::new());

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
                if let Some(first) = seen.insert(format!("[{name}]"), lineno) {
                    return Err(parse_err(
                        lineno,
                        &format!("section [{name}] reopened (first defined at line {first})"),
                    ));
                }
                rc.arm(name).map_err(|e| at_line(e, lineno))?;
                section = name;
                names.push(format!("[{name}]"));
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| parse_err(lineno, "expected `key = value`"))?;
            if section.is_empty() {
                return Err(parse_err(lineno, "entry before the first [section] header"));
            }
            let key = key.trim();
            if let Some(first) = seen.insert(format!("{section}.{key}"), lineno) {
                return Err(parse_err(
                    lineno,
                    &format!("duplicate key '{key}' in [{section}] (first set at line {first})"),
                ));
            }
            // Strip a trailing comment from unquoted values, which TOML
            // allows to be numbers and booleans only (a command line may
            // leave a string bare; a file may not).
            let val = val.trim();
            let val = if val.starts_with('"') || val.starts_with('[') {
                val
            } else {
                let v = val.split('#').next().unwrap_or("").trim();
                if v.parse::<f64>().is_err() && v.parse::<bool>().is_err() {
                    let msg = format!("'{v}' is not a number or true/false (quote a string)");
                    return Err(parse_err(lineno, &msg));
                }
                v
            };
            entries.push((format!("{section}.{key}"), val));
            names.push(format!("{section}.{key}"));
            lines.push(lineno);
        }
        let pairs: Vec<(&str, &str)> = entries.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        rc.set_all(&pairs).map_err(|(i, e)| at_line(e, lines[i]))?;
        rc.validate()?;
        Ok(names)
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

/// Move a [`RunConfig::set`] error to its line of the file.
fn at_line(e: Eul3dError, line: usize) -> Eul3dError {
    match e {
        Eul3dError::Solver(SolverError::ConfigParse { msg, .. }) => parse_err(line, &msg),
        other => other,
    }
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
        assert!(err.to_string().contains("guard.cfl_backoff"), "{err}");
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
    fn set_names_the_key_and_arms_its_section() {
        let mut rc = RunConfig::default();
        rc.set("guard.cfl_backoff", "0.25").unwrap();
        let g = rc.guard.expect("any guard key arms the guard");
        assert_eq!((g.cfl_backoff, g.max_retries), (0.25, 4));
        rc.set("partition.method", "ml").unwrap();
        assert_eq!(
            rc.partition.as_ref().map(|p| p.method),
            Some(PartitionMethod::Multilevel)
        );
        rc.set("run.strategy", "\"v\"").unwrap();
        assert_eq!(rc.strategy, Strategy::VCycle);

        for (key, value, says) in [
            ("solver.warp", "9", "unknown key 'solver.warp'"),
            ("mesh.nx", "abc", "mesh.nx: cannot parse 'abc'"),
            ("run.backend", "mpi", "run.backend: must be delta|hybrid"),
            (
                "trace.enabled",
                "yes",
                "trace.enabled: cannot parse 'yes' as bool",
            ),
        ] {
            let err = RunConfig::default().set(key, value).unwrap_err();
            assert!(err.to_string().contains(says), "{key}: {err}");
        }
        let err = RunConfig::default().arm("hyperdrive").unwrap_err();
        assert!(err.to_string().contains("[hyperdrive]"), "{err}");
        // Only the command line may leave a string bare.
        let err = RunConfig::from_toml("[run]\nstrategy = v\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = RunConfig::from_toml("[mesh]\nnx = \"8\"\n").unwrap_err();
        assert!(err.to_string().contains("mesh.nx"), "{err}");
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
