//! The partitioner API: a [`Partitioner`] trait over validated
//! [`PartitionOptions`], returning a [`PartitionPlan`] that carries the
//! assignment together with its quality accounting (edge-cut, comm
//! volume, balance, hop-weighted volume, Fiedler iterations).
//!
//! Two implementations exist: [`FlatRsb`] (the paper's 1992 algorithm;
//! the `table2` golden pins its assignment) and [`MultilevelRsb`]
//! (coarsen → coarse Fiedler → refine, the parRSB recipe).

use std::fmt;

use crate::mapping::{comm_matrix, hop_volume, topology_mapping, total_comm_volume};
use crate::multilevel::{multilevel_bisect, MultilevelParams, WeightedGraph};
use crate::quality::PartitionQuality;
use crate::rsb::rsb_with_stats;

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
    /// Fiedler residual tolerance; `0.0` disables early stopping (the
    /// historical fixed-iteration behaviour).
    pub tolerance: f64,
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
    /// iterations, no tolerance, identity mapping.
    pub fn new(nparts: usize) -> PartitionOptions {
        PartitionOptions {
            nparts,
            seed: 7,
            lanczos_iters: 40,
            tolerance: 0.0,
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

    /// Set the Fiedler residual tolerance (0.0 = run to the cap).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
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
        if !(self.tolerance >= 0.0 && self.tolerance < 1.0) {
            return err("tolerance", format!("{} not in [0, 1)", self.tolerance));
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
    /// Modeled hop-weighted comm volume of the final placement on the
    /// simulated Delta's 2-D mesh.
    pub hop_volume: u64,
    /// Same, for the identity placement — the mapping's baseline.
    pub hop_volume_identity: u64,
    /// Total Lanczos iterations spent in Fiedler solves.
    pub fiedler_iterations: usize,
}

impl PartitionPlan {
    /// Assemble a plan from a raw assignment: computes quality metrics,
    /// applies the mapping policy (relabelling parts onto ranks), and
    /// records both hop volumes.
    fn from_assignment(
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
        let q = PartitionQuality::compute(&assignment, nparts, edges);
        PartitionPlan {
            assignment,
            nparts,
            edge_cut: q.cut_edges,
            comm_volume: total_comm_volume(&mat, nparts),
            balance: q.max_imbalance,
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
        "flat-rsb"
    }

    fn partition(
        &self,
        nverts: usize,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError> {
        opts.validate()?;
        let (assignment, iters) = rsb_with_stats(
            nverts,
            edges,
            opts.nparts,
            opts.lanczos_iters,
            opts.tolerance,
            opts.seed,
        );
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
        "multilevel"
    }

    fn partition(
        &self,
        nverts: usize,
        edges: &[[u32; 2]],
        opts: &PartitionOptions,
    ) -> Result<PartitionPlan, PartitionError> {
        opts.validate()?;
        let params = MultilevelParams {
            coarsen_target: opts.coarsen_target,
            refine_passes: opts.refine_passes,
            balance_tol: opts.balance_tol,
            lanczos_iters: opts.lanczos_iters,
            tolerance: opts.tolerance,
            seed: opts.seed,
        };
        let mut parts = vec![0u32; nverts];
        let mut fiedler_iters = 0usize;
        if opts.nparts > 1 && nverts > 0 {
            let all: Vec<u32> = (0..nverts as u32).collect();
            let mut local_of = vec![0u32; nverts];
            let mut stack = vec![(all, edges.to_vec(), 0u32, opts.nparts)];
            while let Some((verts, sub_edges, base, np)) = stack.pop() {
                if np == 1 || verts.len() <= 1 {
                    for &v in &verts {
                        parts[v as usize] = base;
                    }
                    continue;
                }
                let np_left = np / 2;
                let np_right = np - np_left;

                // Local renumbering of the induced subgraph through the
                // shared dense scratch map (each bisection overwrites
                // exactly the slots of its own vertices, and its edges
                // touch no others).
                let n = verts.len();
                for (l, &gv) in verts.iter().enumerate() {
                    local_of[gv as usize] = l as u32;
                }
                let local_edges: Vec<[u32; 2]> = sub_edges
                    .iter()
                    .map(|&[a, b]| [local_of[a as usize], local_of[b as usize]])
                    .collect();
                let g = WeightedGraph::unit_from_edges(n, &local_edges);
                let (side, iters) = multilevel_bisect(&g, np_left, np_right, &params);
                fiedler_iters += iters;

                let mut left = Vec::new();
                let mut right = Vec::new();
                for (l, &gv) in verts.iter().enumerate() {
                    if side[l] {
                        left.push(gv);
                    } else {
                        right.push(gv);
                    }
                }
                let mut le = Vec::new();
                let mut re = Vec::new();
                for &[a, b] in &local_edges {
                    match (side[a as usize], side[b as usize]) {
                        (true, true) => le.push([verts[a as usize], verts[b as usize]]),
                        (false, false) => re.push([verts[a as usize], verts[b as usize]]),
                        _ => {}
                    }
                }
                stack.push((left, le, base, np_left));
                stack.push((right, re, base + np_left as u32, np_right));
            }
        }
        Ok(PartitionPlan::from_assignment(
            parts,
            edges,
            opts,
            fiedler_iters,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn plans_are_deterministic() {
        let m = unit_box(4, 0.2, 11);
        for p in [&FlatRsb as &dyn Partitioner, &MultilevelRsb] {
            let opts = PartitionOptions::new(6)
                .seed(5)
                .mapping(RankMapping::Topology);
            let a = p.partition(m.nverts(), &m.edges, &opts).unwrap();
            let b = p.partition(m.nverts(), &m.edges, &opts).unwrap();
            assert_eq!(a, b, "{} not deterministic", p.name());
        }
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
        for p in [&FlatRsb as &dyn Partitioner, &MultilevelRsb] {
            let opts = PartitionOptions::new(16).mapping(RankMapping::Topology);
            let plan = p.partition(m.nverts(), &m.edges, &opts).unwrap();
            assert!(
                plan.hop_volume <= plan.hop_volume_identity,
                "{}: {} > identity {}",
                p.name(),
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
        let bad = PartitionOptions::new(4).tolerance(2.0);
        let err = FlatRsb.partition(m.nverts(), &m.edges, &bad).unwrap_err();
        assert_eq!(err.field, "tolerance");
        assert!(err.to_string().contains("tolerance"));
        let bad = PartitionOptions::new(4).balance_tol(0.5);
        assert!(MultilevelRsb.partition(m.nverts(), &m.edges, &bad).is_err());
    }

    #[test]
    fn tolerance_stops_early_and_is_reported() {
        let m = unit_box(6, 0.1, 3);
        let full = FlatRsb
            .partition(m.nverts(), &m.edges, &PartitionOptions::new(2))
            .unwrap();
        let early = FlatRsb
            .partition(
                m.nverts(),
                &m.edges,
                &PartitionOptions::new(2).tolerance(1e-3),
            )
            .unwrap();
        assert!(
            early.fiedler_iterations < full.fiedler_iterations,
            "tolerance should cut iterations: {} vs {}",
            early.fiedler_iterations,
            full.fiedler_iterations
        );
        // The split quality must stay in the same class.
        assert!(early.balance < 1.1);
    }
}
