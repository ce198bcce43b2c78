//! The shared-memory executor (§3): the edge loops are divided into
//! recurrence-free **colour groups**; within a group the edges are split
//! into subgroups distributed over the CPUs — exactly the Cray
//! autotasking decomposition, with a resident rayon team playing the
//! CPUs autotasking keeps running. One edge sweep is one dispatch to the
//! team: every member walks the colour groups in order, takes its
//! subgroup of each, and meets the others at a [`ColorBarrier`] before
//! the next colour, so no two concurrently-processed edges ever touch
//! the same vertex. A kernel panic on any member breaks the barrier,
//! the sweep ends early on every member, and the panic resumes on the
//! calling thread.
//!
//! This module only provides the [`Executor`] backend; the solver kernels
//! themselves live in [`crate::level`] and are shared verbatim with the
//! sequential and distributed paths, and the driver is
//! [`crate::MultigridSolver::new_shared`] for every strategy.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use eul3d_mesh::TetMesh;
use eul3d_partition::{color_edges, validate_coloring, EdgeColoring};

use crate::counters::PhaseCounters;
use crate::executor::{EdgeSpan, Executor, HaloOp, Phase, ScatterAccess};

/// The shared-memory execution context: a validated edge colouring plus
/// a resident team of `ncpus` members (the calling thread is one).
pub struct SharedExecutor {
    pub coloring: EdgeColoring,
    /// Members of the team; never 0.
    pub ncpus: usize,
    team: Arc<rayon::ThreadPool>,
}

/// A resident team of `ncpus` members (0: available parallelism).
pub(crate) fn build_team(ncpus: usize) -> Result<Arc<rayon::ThreadPool>, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(ncpus)
        .build()
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

impl SharedExecutor {
    /// Colour `mesh`'s edges and build a private team. The colouring is
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
        Self::with_team(mesh, coloring, build_team(ncpus)?)
    }

    /// Build on an existing team (one per solver, shared by its levels).
    pub(crate) fn with_team(
        mesh: &TetMesh,
        coloring: EdgeColoring,
        team: Arc<rayon::ThreadPool>,
    ) -> Result<SharedExecutor, String> {
        validate_coloring(mesh, &coloring).map_err(|e| format!("invalid edge colouring: {e}"))?;
        Ok(SharedExecutor {
            coloring,
            ncpus: team.current_num_threads(),
            team,
        })
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

    /// One dispatch of a vertex loop: member `t` maps block `t` of
    /// `range` split into `ncpus` near-equal blocks.
    fn vertex_blocks<F>(&self, range: Range<usize>, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let access = ScatterAccess::new(targets);
        let sub = subgroup_len(range.len(), self.ncpus);
        self.team.broadcast(|member| {
            let lo = range.start + member.index() * sub;
            if lo < range.end {
                f(lo..(lo + sub).min(range.end), &access);
            }
        });
    }
}

/// Subgroup length: each colour group divided over the CPUs, as in
/// §3.1 ("further divide the colorized groups into subgroups").
fn subgroup_len(group_len: usize, ncpus: usize) -> usize {
    group_len.div_ceil(ncpus).max(1)
}

/// Sense-reversing barrier between the colour groups of one sweep. Each
/// member keeps its own `sense`, flipped on every crossing; the last
/// arriver resets the count and publishes the new sense.
struct ColorBarrier {
    members: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    /// Set when a member unwinds out of the sweep: it will never
    /// arrive, so the others must stop waiting for it.
    broken: AtomicBool,
}

/// Busy-wait iterations before a barrier wait starts yielding (the
/// policy of `vendor/rayon` and `delta::shm`: a waiter that holds its
/// core keeps a descheduled member from arriving).
const BARRIER_SPINS: u32 = 200;

impl ColorBarrier {
    fn new(members: usize) -> ColorBarrier {
        ColorBarrier {
            members,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            broken: AtomicBool::new(false),
        }
    }

    /// Wait for every member; `false` if the barrier broke instead.
    ///
    /// Each arrival is an `AcqRel` increment, so the last arriver has
    /// acquired every earlier member's writes when its `Release` store
    /// of the sense hands them to the waiters' `Acquire` loads.
    fn wait(&self, sense: &mut bool) -> bool {
        *sense = !*sense;
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(*sense, Ordering::Release);
        }
        let mut step = 0u32;
        while self.sense.load(Ordering::Acquire) != *sense {
            if self.broken.load(Ordering::Relaxed) {
                return false;
            }
            step += 1;
            if step <= BARRIER_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Breaks the barrier unless the member reaches the end of its sweep.
struct BreakOnUnwind<'a>(&'a ColorBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.broken.store(true, Ordering::Relaxed);
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
        let groups = &self.coloring.groups;
        let ncpus = self.ncpus;
        let barrier = ColorBarrier::new(ncpus);
        self.team.broadcast(|member| {
            let t = member.index();
            let guard = BreakOnUnwind(&barrier);
            let mut sense = false;
            for (color, group) in groups.iter().enumerate() {
                if color > 0 && !barrier.wait(&mut sense) {
                    return;
                }
                let sub = subgroup_len(group.len(), ncpus);
                let lo = (t * sub).min(group.len());
                let hi = (lo + sub).min(group.len());
                if lo < hi {
                    f(&EdgeSpan::Ids(&group[lo..hi]), &access);
                }
            }
            std::mem::forget(guard);
        });
    }

    fn for_vertex_spans<F>(&mut self, nverts: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        self.vertex_blocks(0..nverts, targets, f);
    }

    fn for_vertex_range<F>(&mut self, range: Range<usize>, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        self.vertex_blocks(range, targets, f);
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
    fn thread_count_does_not_change_a_bit() {
        // Endpoints are disjoint within a colour, colours run in order
        // and vertex loops are pure maps: the member count only decides
        // who computes a value, never which value.
        let mesh = unit_box(4, 0.2, 21);
        let cfg = SolverConfig::default();
        let start = perturbed_state(&mesh, &cfg);
        let step_on = |ncpus: usize| {
            let mut st = start.clone();
            let mut exec = SharedExecutor::new(&mesh, ncpus).unwrap();
            assert!(exec.ncpus >= 1 && (ncpus == 0 || exec.ncpus == ncpus));
            time_step(
                &mesh,
                &mut st,
                &cfg,
                false,
                &mut exec,
                &mut PhaseCounters::default(),
            );
            st.w.flat()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u64>>()
        };
        let one = step_on(1);
        // 0 asks for the host's parallelism, whatever that is.
        for ncpus in [0, 2, 3, 8] {
            assert_eq!(step_on(ncpus), one, "ncpus = {ncpus}");
        }
    }

    #[test]
    fn kernel_panic_reaches_the_caller_and_the_executor_survives() {
        let mesh = unit_box(4, 0.15, 9);
        let mut exec = SharedExecutor::new(&mesh, 3).unwrap();
        // The first edge of member 1's subgroup of the second colour:
        // members 0 and 2 are inside or past that group when it fails.
        let group = &exec.coloring.groups[1];
        let bad_edge = group[subgroup_len(group.len(), 3)];
        let swept = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.for_edge_spans(mesh.nedges(), &mut [], |span, _| {
                let EdgeSpan::Ids(ids) = span else {
                    unreachable!("the coloured path hands out id slices")
                };
                if ids.contains(&bad_edge) {
                    panic!("kernel failed on edge {bad_edge}");
                }
                swept.fetch_add(ids.len(), Ordering::Relaxed);
            });
        }));
        let payload = caught.expect_err("the kernel's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("kernel failed on edge {bad_edge}").as_str())
        );
        // The sweep stopped at the broken barrier instead of finishing.
        assert!(swept.load(Ordering::Relaxed) < mesh.nedges());

        // Same executor, same team: the next step is the serial answer.
        let cfg = SolverConfig::default();
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
        time_step(&mesh, &mut st_shared, &cfg, false, &mut exec, &mut c);
        for (a, b) in st_serial.w.flat().iter().zip(st_shared.w.flat()) {
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
