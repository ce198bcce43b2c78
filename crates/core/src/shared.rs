//! The shared-memory executor (§3): the edge loops are divided into
//! recurrence-free **colour groups**; within a group the edges are split
//! into subgroups distributed over the CPUs — exactly the Cray
//! autotasking decomposition, with rayon playing the autotasking
//! compiler. Groups run one after another (each `install` is a barrier),
//! so no two concurrently-processed edges ever touch the same vertex.
//!
//! This module only provides the [`Executor`] backend; the solver kernels
//! themselves live in [`crate::level`] and are shared verbatim with the
//! sequential and distributed paths, and the driver is
//! [`crate::MultigridSolver::new_shared`] for every strategy.

use eul3d_mesh::TetMesh;
use eul3d_partition::{color_edges, validate_coloring, EdgeColoring};
use rayon::prelude::*;

use crate::counters::PhaseCounters;
use crate::executor::{EdgeSpan, Executor, HaloOp, Phase, ScatterAccess};

/// The shared-memory execution context: a validated edge colouring plus
/// a dedicated thread pool of `ncpus` workers.
pub struct SharedExecutor {
    pub coloring: EdgeColoring,
    pub ncpus: usize,
    pool: rayon::ThreadPool,
    /// Worker-block indices `0..ncpus`, prebuilt so vertex loops carve
    /// their ranges without per-call allocation.
    blocks: Vec<u32>,
}

impl SharedExecutor {
    /// Colour `mesh`'s edges and build the worker pool. The colouring is
    /// validated unconditionally — an invalid grouping would make the
    /// scatter loops racy, which is not a debug-only concern.
    pub fn new(mesh: &TetMesh, ncpus: usize) -> Result<SharedExecutor, String> {
        Self::with_coloring(mesh, color_edges(mesh), ncpus)
    }

    /// Build from a caller-supplied colouring (validated against `mesh`).
    pub fn with_coloring(
        mesh: &TetMesh,
        coloring: EdgeColoring,
        ncpus: usize,
    ) -> Result<SharedExecutor, String> {
        validate_coloring(mesh, &coloring).map_err(|e| format!("invalid edge colouring: {e}"))?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(ncpus)
            .build()
            .map_err(|e| format!("failed to build thread pool: {e}"))?;
        Ok(SharedExecutor {
            coloring,
            ncpus,
            pool,
            blocks: (0..ncpus.max(1) as u32).collect(),
        })
    }

    /// Subgroup length: each colour group divided over the CPUs, as in
    /// §3.1 ("further divide the colorized groups into subgroups").
    fn subgroup_len(&self, group_len: usize) -> usize {
        group_len.div_ceil(self.ncpus).max(1)
    }

    /// Sort the edge ids inside every colour group for gather locality
    /// (ascending endpoint order) — the within-colour reordering pass on
    /// top of the mesh-level cache reordering. The mesh edge array is
    /// untouched, so serial/distributed accumulation order — and the
    /// blessed golden histories — cannot change; within a colour group
    /// endpoints are disjoint, so the shared result is bit-identical
    /// too.
    pub fn reorder_within_colors(&mut self, edges: &[[u32; 2]]) {
        eul3d_partition::reorder::sort_groups_for_locality(&mut self.coloring, edges);
    }
}

impl Executor for SharedExecutor {
    fn edge_launches(&self) -> u64 {
        self.coloring.ncolors() as u64
    }

    fn for_edge_spans<F>(&mut self, nedges: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        assert_eq!(
            nedges,
            self.coloring.nedges(),
            "edge loop does not match the colouring's edge list"
        );
        let access = ScatterAccess::new(targets);
        for group in &self.coloring.groups {
            let sub = self.subgroup_len(group.len());
            self.pool.install(|| {
                group.par_chunks(sub).for_each(|chunk| {
                    f(&EdgeSpan::Ids(chunk), &access);
                });
            });
        }
    }

    fn for_vertex_spans<F>(&mut self, nverts: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(std::ops::Range<usize>, &ScatterAccess) + Sync,
    {
        if nverts == 0 {
            return;
        }
        let access = ScatterAccess::new(targets);
        let sub = self.subgroup_len(nverts);
        // sub = ceil(nverts / ncpus), so at most ncpus blocks.
        let nblocks = nverts.div_ceil(sub);
        let blocks = &self.blocks[..nblocks];
        self.pool.install(|| {
            blocks.par_chunks(1).for_each(|blk| {
                let lo = blk[0] as usize * sub;
                f(lo..(lo + sub).min(nverts), &access);
            });
        });
    }

    fn for_vertex_range<F>(
        &mut self,
        range: std::ops::Range<usize>,
        targets: &mut [&mut [f64]],
        f: F,
    ) where
        F: Fn(std::ops::Range<usize>, &ScatterAccess) + Sync,
    {
        let n = range.len();
        if n == 0 {
            return;
        }
        let base = range.start;
        let access = ScatterAccess::new(targets);
        let sub = self.subgroup_len(n);
        let nblocks = n.div_ceil(sub);
        let blocks = &self.blocks[..nblocks];
        self.pool.install(|| {
            blocks.par_chunks(1).for_each(|blk| {
                let lo = base + blk[0] as usize * sub;
                f(lo..(lo + sub).min(range.end), &access);
            });
        });
    }

    fn exchange_halo(
        &mut self,
        _phase: Phase,
        _op: HaloOp,
        _data: &mut [f64],
        _stride: usize,
        _counters: &mut PhaseCounters,
    ) {
        // Single address space: nothing to exchange.
    }

    fn reduce_sum(&mut self, _phase: Phase, _vals: &mut [f64], _counters: &mut PhaseCounters) {
        // Single address space: the local values already are the sum.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::executor::SerialExecutor;
    use crate::level::{time_step, LevelState};
    use crate::{MultigridSolver, Strategy};
    use eul3d_mesh::gen::{bump_channel, unit_box, BumpSpec};
    use eul3d_mesh::MeshSequence;

    fn perturbed_state(mesh: &TetMesh, cfg: &SolverConfig) -> LevelState {
        let mut st = LevelState::new(mesh, cfg);
        for (i, c) in mesh.coords.iter().enumerate() {
            let bump = 0.03 * (-10.0 * (c.x - 0.5).powi(2)).exp();
            st.w.add(i, 0, bump);
            st.w.add(i, 4, 2.0 * bump);
        }
        st
    }

    #[test]
    fn shared_matches_serial_one_step() {
        let mesh = unit_box(5, 0.15, 13);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut st_serial = perturbed_state(&mesh, &cfg);
        let mut st_shared = st_serial.clone();
        let mut c1 = PhaseCounters::default();
        let mut c2 = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st_serial,
            &cfg,
            false,
            &mut SerialExecutor,
            &mut c1,
        );
        let mut exec = SharedExecutor::new(&mesh, 4).unwrap();
        time_step(&mesh, &mut st_shared, &cfg, false, &mut exec, &mut c2);
        let mut max = 0.0f64;
        for (a, b) in st_serial.w.flat().iter().zip(st_shared.w.flat()) {
            max = max.max((a - b).abs());
        }
        assert!(
            max < 1e-11,
            "shared and serial must agree to accumulation-order round-off: {max:.3e}"
        );
        // Flop accounting is backend-independent — identical, not close.
        assert_eq!(c1.flops(), c2.flops());
        // Only the launch structure differs (one launch per colour group).
        assert!(c2.launches() > c1.launches());
    }

    #[test]
    fn shared_matches_serial_many_steps_residual() {
        let spec = BumpSpec {
            nx: 12,
            ny: 5,
            nz: 4,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        let mesh = bump_channel(&spec);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };

        let mut serial = crate::SingleGridSolver::new(mesh.clone(), cfg);
        let seq = MeshSequence::from_meshes(vec![mesh]);
        let mut shared = MultigridSolver::new_shared(seq, cfg, Strategy::SingleGrid, 3).unwrap();
        let hs = serial.solve(10);
        let hp = shared.solve(10);
        for (a, b) in hs.iter().zip(&hp) {
            assert!(
                (a - b).abs() < 1e-8 * a.abs().max(1e-30) + 1e-13,
                "residual histories diverge: {a} vs {b}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_answer_much() {
        let mesh = unit_box(4, 0.2, 21);
        let cfg = SolverConfig::default();
        let mut st1 = perturbed_state(&mesh, &cfg);
        let mut st4 = st1.clone();
        let mut e1 = SharedExecutor::new(&mesh, 1).unwrap();
        let mut e4 = SharedExecutor::new(&mesh, 4).unwrap();
        let mut c = PhaseCounters::default();
        time_step(&mesh, &mut st1, &cfg, false, &mut e1, &mut c);
        time_step(&mesh, &mut st4, &cfg, false, &mut e4, &mut c);
        for (a, b) in st1.w.flat().iter().zip(st4.w.flat()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn launch_count_reflects_color_groups() {
        let mesh = unit_box(3, 0.1, 2);
        let mut exec = SharedExecutor::new(&mesh, 2).unwrap();
        let ncolors = exec.coloring.ncolors() as u64;
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let mut counter = PhaseCounters::default();
        time_step(&mesh, &mut st, &cfg, false, &mut exec, &mut counter);
        // Per stage ≥ 1 coloured edge loop; 5 stages => ≥ 5·ncolors.
        assert!(counter.launches() >= 5 * ncolors);
    }

    #[test]
    fn roe_scheme_shared_matches_serial() {
        use crate::config::Scheme;
        let mesh = unit_box(4, 0.15, 31);
        let cfg = SolverConfig {
            mach: 0.6,
            scheme: Scheme::RoeUpwind,
            ..SolverConfig::default()
        };
        let mut st_serial = perturbed_state(&mesh, &cfg);
        let mut st_shared = st_serial.clone();
        let mut c = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st_serial,
            &cfg,
            false,
            &mut SerialExecutor,
            &mut c,
        );
        let mut exec = SharedExecutor::new(&mesh, 3).unwrap();
        time_step(&mesh, &mut st_shared, &cfg, false, &mut exec, &mut c);
        for (a, b) in st_serial.w.flat().iter().zip(st_shared.w.flat()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn freestream_preserved_by_shared_executor() {
        let mesh = unit_box(4, 0.2, 5);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let before = st.w.clone();
        let mut exec = SharedExecutor::new(&mesh, 4).unwrap();
        let mut c = PhaseCounters::default();
        time_step(&mesh, &mut st, &cfg, false, &mut exec, &mut c);
        for (a, b) in st.w.flat().iter().zip(before.flat()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn invalid_coloring_is_rejected_not_debug_asserted() {
        let mesh = unit_box(2, 0.0, 0);
        // Merge every edge into one group: guaranteed endpoint conflicts.
        let all: Vec<u32> = (0..mesh.nedges() as u32).collect();
        let bad = EdgeColoring { groups: vec![all] };
        let err = SharedExecutor::with_coloring(&mesh, bad, 2).err();
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("invalid edge colouring")),
            "conflicting colouring must be refused: {err:?}"
        );
    }
}
