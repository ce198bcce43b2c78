//! The partitioner API. [`PartitionMethod`] names every method, and
//! [`PartitionMethod::partition`] is the one entry that turns a mesh and
//! validated [`PartitionOptions`] into a [`PartitionPlan`]: the
//! assignment together with its quality accounting (edge-cut, comm
//! volume, balance, partition surface, hop-weighted volume, Fiedler
//! iterations). Every method's assignment goes through
//! [`PartitionPlan::from_assignment`], so every method gets the same
//! report and the same part→rank mapping.
//!
//! The graph-only spectral methods also implement the [`Partitioner`]
//! trait: [`FlatRsb`] (the paper's 1992 algorithm; the `table2` golden
//! pins its assignment) and [`MultilevelRsb`] (coarsen → coarse Fiedler
//! → refine, the parRSB recipe).

use std::fmt;

use eul3d_mesh::TetMesh;

use crate::kl::kl_refine;
use crate::mapping::{comm_matrix, hop_volume, topology_mapping, total_comm_volume};
use crate::multilevel::multilevel_rsb;
use crate::parallel::parallel_rcb;
use crate::rcb::rcb_partition;
use crate::rsb::rsb;

/// KL refinement after flat RSB (`rsb+kl`): part-size cap over ideal,
/// and passes.
const KL_TOL: f64 = 1.06;
const KL_PASSES: usize = 6;

/// Simulated ranks of a `prcb` run. Its assignment does not depend on
/// the rank count, so a fixed small machine bounds the thread count.
const PRCB_RANKS: usize = 8;

/// Which partitioner cuts the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMethod {
    /// Flat recursive spectral bisection — the paper's §4.1 method and
    /// the default.
    #[default]
    FlatRsb,
    /// Multilevel RSB: coarsen by heavy-edge matching, bisect the small
    /// graph spectrally, project back with boundary refinement.
    Multilevel,
    /// Flat RSB followed by Kernighan–Lin boundary refinement.
    RsbKl,
    /// Recursive coordinate bisection, the geometric baseline.
    Rcb,
    /// Uniform-random assignment from the options' seed.
    Random,
    /// RCB run SPMD on the simulated machine (power-of-two part counts).
    Prcb,
}

impl PartitionMethod {
    /// Every method, in the order the CLI and docs list them.
    pub const ALL: [PartitionMethod; 6] = [
        PartitionMethod::FlatRsb,
        PartitionMethod::Multilevel,
        PartitionMethod::RsbKl,
        PartitionMethod::Rcb,
        PartitionMethod::Random,
        PartitionMethod::Prcb,
    ];

    /// Parse the CLI/TOML spelling, aliases included.
    pub fn parse(s: &str) -> Option<PartitionMethod> {
        let s = match s {
            "flat" | "rsb" => "flat-rsb",
            "ml" => "multilevel",
            s => s,
        };
        Self::ALL.into_iter().find(|m| m.label() == s)
    }

    /// The CLI/TOML spelling.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionMethod::FlatRsb => "flat-rsb",
            PartitionMethod::Multilevel => "multilevel",
            PartitionMethod::RsbKl => "rsb+kl",
            PartitionMethod::Rcb => "rcb",
            PartitionMethod::Random => "random",
            PartitionMethod::Prcb => "prcb",
        }
    }

    /// Partition `mesh` into `opts.nparts` parts, or reject the options
    /// (`prcb` takes only a power-of-two part count).
    pub fn partition(
        self,
        mesh: &TetMesh,
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError> {
        opts.validate()?;
        let (nverts, edges, nparts) = (mesh.nverts(), &mesh.edges[..], opts.nparts);
        let (assignment, iters) = match self {
            PartitionMethod::FlatRsb => rsb(nverts, edges, nparts, opts.lanczos_iters, opts.seed),
            PartitionMethod::Multilevel => multilevel_rsb(nverts, edges, opts),
            PartitionMethod::RsbKl => {
                let (mut parts, iters) = rsb(nverts, edges, nparts, opts.lanczos_iters, opts.seed);
                kl_refine(nverts, edges, &mut parts, nparts, KL_TOL, KL_PASSES);
                (parts, iters)
            }
            PartitionMethod::Rcb => (rcb_partition(&mesh.coords, nparts), 0),
            PartitionMethod::Random => (crate::random_partition(nverts, nparts, opts.seed), 0),
            PartitionMethod::Prcb => {
                if !nparts.is_power_of_two() {
                    return Err(PartitionError {
                        field: "nparts",
                        reason: format!("prcb needs a power of two, got {nparts}"),
                    });
                }
                (parallel_rcb(&mesh.coords, nparts, PRCB_RANKS), 0)
            }
        };
        Ok(PartitionPlan::from_assignment(
            assignment, edges, opts, iters,
        ))
    }
}

/// How partitions are assigned to machine ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankMapping {
    /// Part `p` runs on rank `p` — the historical behaviour.
    #[default]
    Identity,
    /// Parts are permuted to minimize hop-weighted comm volume on the
    /// simulated Delta's 2-D mesh (never worse than identity).
    Topology,
}

impl RankMapping {
    /// Parse the CLI/TOML spelling.
    pub fn parse(s: &str) -> Option<RankMapping> {
        match s {
            "identity" => Some(RankMapping::Identity),
            "topology" => Some(RankMapping::Topology),
            _ => None,
        }
    }

    /// The CLI/TOML spelling.
    pub fn label(&self) -> &'static str {
        match self {
            RankMapping::Identity => "identity",
            RankMapping::Topology => "topology",
        }
    }
}

/// A rejected option set: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError {
    /// Offending option name.
    pub field: &'static str,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition option `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for PartitionError {}

/// Validated options for a partitioner, built fluently:
///
/// ```
/// use eul3d_partition::{PartitionOptions, RankMapping};
/// let opts = PartitionOptions::new(8)
///     .seed(7)
///     .mapping(RankMapping::Topology);
/// assert!(opts.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionOptions {
    /// Number of parts (≥ 1).
    pub nparts: usize,
    /// Seed for the Lanczos start vectors.
    pub seed: u64,
    /// Lanczos iteration cap per Fiedler solve.
    pub lanczos_iters: usize,
    /// Multilevel: stop coarsening at this many vertices.
    pub coarsen_target: usize,
    /// Multilevel: refinement sweeps per level while uncoarsening.
    pub refine_passes: usize,
    /// Multilevel: per-side weight cap as a multiple of ideal.
    pub balance_tol: f64,
    /// Part→rank placement policy.
    pub mapping: RankMapping,
}

impl PartitionOptions {
    /// Defaults matching the historical call sites: 40 Lanczos
    /// iterations, identity mapping.
    pub fn new(nparts: usize) -> PartitionOptions {
        PartitionOptions {
            nparts,
            seed: 7,
            lanczos_iters: 40,
            coarsen_target: 64,
            refine_passes: 4,
            balance_tol: 1.10,
            mapping: RankMapping::Identity,
        }
    }

    /// Set the Lanczos seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the Lanczos iteration cap.
    pub fn lanczos_iters(mut self, iters: usize) -> Self {
        self.lanczos_iters = iters;
        self
    }

    /// Set the multilevel coarsening target.
    pub fn coarsen_target(mut self, target: usize) -> Self {
        self.coarsen_target = target;
        self
    }

    /// Set the multilevel refinement passes per level.
    pub fn refine_passes(mut self, passes: usize) -> Self {
        self.refine_passes = passes;
        self
    }

    /// Set the refinement balance cap (multiple of ideal side weight).
    pub fn balance_tol(mut self, tol: f64) -> Self {
        self.balance_tol = tol;
        self
    }

    /// Set the part→rank mapping policy.
    pub fn mapping(mut self, mapping: RankMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Range-check every field.
    pub fn validate(&self) -> Result<(), PartitionError> {
        let err = |field: &'static str, reason: String| Err(PartitionError { field, reason });
        if self.nparts < 1 {
            return err("nparts", "must be at least 1".into());
        }
        if self.lanczos_iters < 2 {
            return err("lanczos_iters", "must be at least 2".into());
        }
        if self.coarsen_target < 2 {
            return err("coarsen_target", "must be at least 2".into());
        }
        if self.refine_passes > 1000 {
            return err("refine_passes", "more than 1000 passes is absurd".into());
        }
        if !(self.balance_tol >= 1.0 && self.balance_tol <= 2.0) {
            return err("balance_tol", format!("{} not in [1, 2]", self.balance_tol));
        }
        Ok(())
    }
}

/// A finished partition with its quality accounting. Byte-identical for
/// identical inputs and options — the determinism the service cache and
/// the repartition protocol rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Part id (= rank after mapping) of every vertex.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub nparts: usize,
    /// Edges whose endpoints land in different parts.
    pub edge_cut: usize,
    /// Total ghost copies: for each vertex, the number of *other* parts
    /// adjacent to it (matches `PartitionedMesh::total_ghosts()`).
    pub comm_volume: u64,
    /// Largest part size over the ideal size (1.0 = perfectly balanced).
    pub balance: f64,
    /// Vertices on at least one cut edge (the partition surface).
    pub boundary_vertices: usize,
    /// Mean over parts of the part's boundary vertices over its size.
    pub surface_to_volume: f64,
    /// Modeled hop-weighted comm volume of the final placement on the
    /// simulated Delta's 2-D mesh.
    pub hop_volume: u64,
    /// Same, for the identity placement — the mapping's baseline.
    pub hop_volume_identity: u64,
    /// Total Lanczos iterations spent in Fiedler solves.
    pub fiedler_iterations: usize,
}

impl PartitionPlan {
    /// Assemble a plan from a raw assignment: applies the mapping policy
    /// (relabelling parts onto ranks), records both hop volumes and
    /// counts the quality of the final assignment (§4.1: "the criteria
    /// for this partitioning is to reduce the volume of interprocessor
    /// data communication and also to ensure good load-balancing").
    pub fn from_assignment(
        mut assignment: Vec<u32>,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
        fiedler_iterations: usize,
    ) -> PartitionPlan {
        let nparts = opts.nparts;
        let hops = |a: usize, b: usize| eul3d_delta::mesh_hops(a, b, nparts);
        let mat = comm_matrix(&assignment, nparts, edges);
        let identity: Vec<u32> = (0..nparts as u32).collect();
        let hop_volume_identity = hop_volume(&mat, nparts, &identity, hops);
        let hop_volume_final = match opts.mapping {
            RankMapping::Identity => hop_volume_identity,
            RankMapping::Topology => {
                let perm = topology_mapping(&mat, nparts, hops);
                for p in assignment.iter_mut() {
                    *p = perm[*p as usize];
                }
                hop_volume(&mat, nparts, &perm, hops)
            }
        };

        let mut sizes = vec![0usize; nparts];
        for &p in &assignment {
            sizes[p as usize] += 1;
        }
        let ideal = assignment.len() as f64 / nparts as f64;
        let balance = sizes.iter().copied().max().unwrap_or(0) as f64 / ideal.max(1e-300);
        let mut edge_cut = 0usize;
        let mut on_boundary = vec![false; assignment.len()];
        for &[a, b] in edges {
            if assignment[a as usize] != assignment[b as usize] {
                edge_cut += 1;
                on_boundary[a as usize] = true;
                on_boundary[b as usize] = true;
            }
        }
        let mut bverts = vec![0usize; nparts];
        for (v, &onb) in on_boundary.iter().enumerate() {
            if onb {
                bverts[assignment[v] as usize] += 1;
            }
        }
        let surface_to_volume = bverts
            .iter()
            .zip(&sizes)
            .map(|(&b, &s)| if s > 0 { b as f64 / s as f64 } else { 0.0 })
            .sum::<f64>()
            / nparts as f64;

        PartitionPlan {
            assignment,
            nparts,
            edge_cut,
            comm_volume: total_comm_volume(&mat, nparts),
            balance,
            boundary_vertices: bverts.iter().sum(),
            surface_to_volume,
            hop_volume: hop_volume_final,
            hop_volume_identity,
            fiedler_iterations,
        }
    }
}

/// A graph partitioner: turns `(nverts, edges, options)` into a
/// [`PartitionPlan`]. Implementations must be deterministic — the same
/// inputs and options produce a byte-identical plan.
pub trait Partitioner {
    /// Short method name for reports and JSON (`"flat-rsb"`, …).
    fn name(&self) -> &'static str;

    /// Partition the graph, or reject invalid options.
    fn partition(
        &self,
        nverts: usize,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError>;
}

/// The paper's 1992 flat recursive spectral bisection: Lanczos on the
/// full induced subgraph at every recursion level.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatRsb;

impl Partitioner for FlatRsb {
    fn name(&self) -> &'static str {
        PartitionMethod::FlatRsb.label()
    }

    fn partition(
        &self,
        nverts: usize,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError> {
        opts.validate()?;
        let (assignment, iters) = rsb(nverts, edges, opts.nparts, opts.lanczos_iters, opts.seed);
        Ok(PartitionPlan::from_assignment(
            assignment, edges, opts, iters,
        ))
    }
}

/// Multilevel RSB (parRSB-style): coarsen by heavy-edge matching, run
/// the Fiedler bisection on the coarse graph, project back with
/// balance-constrained boundary refinement at every level. Orders of
/// magnitude less spectral work than [`FlatRsb`] at large meshes, with
/// an edge-cut that matches or beats it.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultilevelRsb;

impl Partitioner for MultilevelRsb {
    fn name(&self) -> &'static str {
        PartitionMethod::Multilevel.label()
    }

    fn partition(
        &self,
        nverts: usize,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError> {
        opts.validate()?;
        let (assignment, iters) = multilevel_rsb(nverts, edges, opts);
        Ok(PartitionPlan::from_assignment(
            assignment, edges, opts, iters,
        ))
    }
}

/// The plan of a given assignment under identity placement.
#[cfg(test)]
pub(crate) fn recount(parts: &[u32], nparts: usize, edges: &[[u32; 2]]) -> PartitionPlan {
    PartitionPlan::from_assignment(parts.to_vec(), edges, &PartitionOptions::new(nparts), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn plans_are_deterministic() {
        let m = unit_box(4, 0.2, 11);
        for method in PartitionMethod::ALL {
            for nparts in [2usize, 4, 8] {
                let opts = PartitionOptions::new(nparts)
                    .seed(5)
                    .mapping(RankMapping::Topology);
                let a = method.partition(&m, &opts).unwrap();
                let b = method.partition(&m, &opts).unwrap();
                assert_eq!(a, b, "{} not deterministic", method.label());
            }
        }
    }

    #[test]
    fn the_trait_and_the_method_entry_agree() {
        let m = unit_box(5, 0.1, 6);
        let opts = PartitionOptions::new(4).seed(3);
        let pairs = [
            (&FlatRsb as &dyn Partitioner, PartitionMethod::FlatRsb),
            (&MultilevelRsb, PartitionMethod::Multilevel),
        ];
        for (p, method) in pairs {
            assert_eq!(p.name(), method.label());
            let via_trait = p.partition(m.nverts(), &m.edges, &opts).unwrap();
            assert_eq!(via_trait, method.partition(&m, &opts).unwrap());
        }
    }

    /// Every quality field counted again from the edges, the slow way.
    fn assert_recounts(plan: &PartitionPlan, edges: &[[u32; 2]], what: &str) {
        let parts = &plan.assignment;
        let nparts = plan.nparts;
        let cut: Vec<&[u32; 2]> = edges
            .iter()
            .filter(|[a, b]| parts[*a as usize] != parts[*b as usize])
            .collect();
        assert_eq!(plan.edge_cut, cut.len(), "{what}: edge_cut");
        let size = |p: u32| parts.iter().filter(|&&q| q == p).count();
        let largest = (0..nparts as u32).map(size).max().unwrap();
        let ideal = parts.len() as f64 / nparts as f64;
        assert!(
            (plan.balance - largest as f64 / ideal).abs() < 1e-12,
            "{what}: balance"
        );
        // Ghost copies: the other parts adjacent to each vertex.
        let mut ghosts = 0u64;
        let mut boundary = 0usize;
        let mut per_part = vec![0usize; nparts];
        for v in 0..parts.len() {
            let mut others: Vec<u32> = edges
                .iter()
                .filter_map(|&[a, b]| match (a as usize == v, b as usize == v) {
                    (true, _) => Some(parts[b as usize]),
                    (_, true) => Some(parts[a as usize]),
                    _ => None,
                })
                .filter(|&q| q != parts[v])
                .collect();
            others.sort_unstable();
            others.dedup();
            ghosts += others.len() as u64;
            if !others.is_empty() {
                boundary += 1;
                per_part[parts[v] as usize] += 1;
            }
        }
        assert_eq!(plan.comm_volume, ghosts, "{what}: comm_volume");
        assert_eq!(
            plan.boundary_vertices, boundary,
            "{what}: boundary_vertices"
        );
        let s2v = (0..nparts)
            .map(|p| match size(p as u32) {
                0 => 0.0,
                n => per_part[p] as f64 / n as f64,
            })
            .sum::<f64>()
            / nparts as f64;
        assert!(
            (plan.surface_to_volume - s2v).abs() < 1e-12,
            "{what}: surface_to_volume"
        );
    }

    #[test]
    fn every_plan_field_matches_a_direct_recount() {
        let m = unit_box(4, 0.15, 3);
        for method in PartitionMethod::ALL {
            for nparts in [2usize, 4, 8] {
                let opts = PartitionOptions::new(nparts).mapping(RankMapping::Topology);
                let plan = method.partition(&m, &opts).unwrap();
                assert_recounts(&plan, &m.edges, method.label());
            }
        }
        // Hand cases: the path 0-1-2-3 split evenly and unevenly, and a
        // single part with no cut at all.
        let path = [[0u32, 1], [1, 2], [2, 3]];
        let even = recount(&[0, 0, 1, 1], 2, &path);
        assert_recounts(&even, &path, "even path");
        assert_eq!((even.edge_cut, even.boundary_vertices), (1, 2));
        assert!((even.balance - 1.0).abs() < 1e-12);
        assert!((even.surface_to_volume - 0.5).abs() < 1e-12);
        let uneven = recount(&[0, 0, 0, 1], 2, &path);
        assert_recounts(&uneven, &path, "uneven path");
        assert!((uneven.balance - 1.5).abs() < 1e-12);
        let whole = recount(&[0; 5], 1, &[[0, 1], [2, 3], [3, 4]]);
        assert_recounts(&whole, &[[0, 1], [2, 3], [3, 4]], "one part");
        assert_eq!((whole.edge_cut, whole.boundary_vertices), (0, 0));
    }

    #[test]
    fn multilevel_balances_and_covers() {
        let m = unit_box(6, 0.15, 2);
        for nparts in [2usize, 3, 4, 8] {
            let plan = MultilevelRsb
                .partition(m.nverts(), &m.edges, &PartitionOptions::new(nparts))
                .unwrap();
            assert!(
                plan.balance < 1.25,
                "nparts={nparts} balance {}",
                plan.balance
            );
            for r in 0..nparts as u32 {
                assert!(plan.assignment.contains(&r), "part {r} empty");
            }
        }
    }

    #[test]
    fn multilevel_edge_cut_competitive_with_flat() {
        let m = unit_box(6, 0.15, 4);
        let opts = PartitionOptions::new(8).seed(7);
        let flat = FlatRsb.partition(m.nverts(), &m.edges, &opts).unwrap();
        let ml = MultilevelRsb
            .partition(m.nverts(), &m.edges, &opts)
            .unwrap();
        assert!(
            ml.edge_cut <= flat.edge_cut,
            "multilevel {} vs flat {}",
            ml.edge_cut,
            flat.edge_cut
        );
    }

    #[test]
    fn topology_mapping_never_worse_than_identity() {
        let m = unit_box(6, 0.1, 1);
        for method in PartitionMethod::ALL {
            let opts = PartitionOptions::new(16).mapping(RankMapping::Topology);
            let plan = method.partition(&m, &opts).unwrap();
            assert!(
                plan.hop_volume <= plan.hop_volume_identity,
                "{}: {} > identity {}",
                method.label(),
                plan.hop_volume,
                plan.hop_volume_identity
            );
        }
    }

    #[test]
    fn mapping_only_relabels() {
        // Topology mapping must not change which vertices share a part —
        // only the part labels.
        let m = unit_box(5, 0.1, 8);
        let ident = FlatRsb
            .partition(m.nverts(), &m.edges, &PartitionOptions::new(8))
            .unwrap();
        let mapped = FlatRsb
            .partition(
                m.nverts(),
                &m.edges,
                &PartitionOptions::new(8).mapping(RankMapping::Topology),
            )
            .unwrap();
        assert_eq!(ident.edge_cut, mapped.edge_cut);
        assert_eq!(ident.comm_volume, mapped.comm_volume);
        assert_eq!(ident.balance, mapped.balance);
        // Same co-partition relation.
        for v in 0..m.nverts() {
            for u in 0..v {
                assert_eq!(
                    ident.assignment[v] == ident.assignment[u],
                    mapped.assignment[v] == mapped.assignment[u],
                );
            }
        }
    }

    #[test]
    fn invalid_options_are_rejected_with_the_field_name() {
        let m = unit_box(3, 0.0, 0);
        let bad = PartitionOptions::new(0);
        let err = FlatRsb.partition(m.nverts(), &m.edges, &bad).unwrap_err();
        assert_eq!(err.field, "nparts");
        let bad = PartitionOptions::new(4).lanczos_iters(1);
        let err = FlatRsb.partition(m.nverts(), &m.edges, &bad).unwrap_err();
        assert_eq!(err.field, "lanczos_iters");
        assert!(err.to_string().contains("lanczos_iters"));
        let bad = PartitionOptions::new(4).balance_tol(0.5);
        assert!(MultilevelRsb.partition(m.nverts(), &m.edges, &bad).is_err());
        // prcb cuts only a power-of-two part count.
        for nparts in [3usize, 5, 6] {
            let err = PartitionMethod::Prcb
                .partition(&m, &PartitionOptions::new(nparts))
                .unwrap_err();
            assert_eq!(err.field, "nparts");
            assert!(err.reason.contains(&nparts.to_string()), "{err}");
        }
    }
}
