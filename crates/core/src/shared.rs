//! The shared-memory executor: a resident rayon team over **block
//! ownership**. Member `t` owns one contiguous block of the vertices —
//! the block every vertex loop already gives it — and an edge sweep is
//! one dispatch to the team in which each member walks, in ascending id
//! order, every edge with an endpoint in its block and accumulates only
//! into the vertices it owns (the ownership-tested epilogue of
//! [`eul3d_kernels`]). An edge cut by a block boundary is computed by
//! both neighbours; nothing waits in line, and because every slot still
//! receives its contributions in ascending edge order the result is
//! bit-identical to [`crate::executor::SerialExecutor`] for any member
//! count. A kernel panic on any member is carried to the calling thread
//! by the team's `broadcast`.
//!
//! The paper's §3 decomposition — recurrence-free **colour groups**
//! split into subgroups per CPU — is what a C90 vector pipe wants and
//! what a cache machine does not: every colour streams all vertex
//! planes again and ends at a barrier. The colouring is still computed
//! and validated here, because it is what the C90 machine model
//! consumes: [`Executor::edge_launches`] returns the colour count, so
//! every edge loop is *charged* as the coloured sweep of the paper,
//! exactly as the vertex gathers of `crate::level` are charged as edge
//! loops.
//!
//! This module only provides the [`Executor`] backend; the solver kernels
//! themselves live in [`crate::level`] and are shared verbatim with the
//! sequential and distributed paths, and the driver is
//! [`crate::MultigridSolver::new_shared`] for every strategy.

use std::ops::Range;
use std::sync::Arc;

use eul3d_mesh::TetMesh;
use eul3d_partition::{color_edges, validate_coloring, EdgeColoring};

use crate::executor::{EdgeSpan, Executor, ScatterAccess};
use crate::level::SolverGrid;

/// The shared-memory execution context: a resident team of `ncpus`
/// members (the calling thread is one), each member's edge list, and
/// the colour count of the validated colouring the machine model
/// charges.
pub struct SharedExecutor {
    /// Colour groups of the mesh's edge colouring — the launches one
    /// edge loop costs on the modeled C90.
    pub ncolors: usize,
    /// Members of the team; never 0.
    pub ncpus: usize,
    /// Vertices of the mesh, split into one block per member.
    nverts: usize,
    nedges: usize,
    /// Per member: ascending ids of the edges touching its block.
    touching: Vec<Vec<u32>>,
    /// Per member: ascending ids of the boundary faces touching its
    /// block.
    touching_faces: Vec<Vec<u32>>,
    nfaces: usize,
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

/// Per member of a team of `parts`: ascending ids of the `items` (edges,
/// faces: their vertex lists) with a vertex in that member's block of
/// `0..nverts`.
fn touching_lists<const K: usize>(
    items: impl Iterator<Item = [u32; K]>,
    nverts: usize,
    parts: usize,
) -> Vec<Vec<u32>> {
    let len = block_len(nverts, parts);
    let mut lists = vec![Vec::new(); parts];
    for (id, vs) in (0u32..).zip(items) {
        let owners = vs.map(|v| v as usize / len);
        for (k, &t) in owners.iter().enumerate() {
            if !owners[..k].contains(&t) {
                lists[t].push(id);
            }
        }
    }
    // The lists live as long as the solver; the slack doubling growth
    // leaves behind would show in its peak memory.
    lists.iter_mut().for_each(Vec::shrink_to_fit);
    lists
}

/// Length of the near-equal contiguous blocks `n` items split into for
/// `parts` members (the last may be shorter, trailing ones empty).
fn block_len(n: usize, parts: usize) -> usize {
    n.div_ceil(parts).max(1)
}

/// Block `t` of `range` split into `parts` blocks of [`block_len`].
fn block_of(range: &Range<usize>, parts: usize, t: usize) -> Range<usize> {
    let len = block_len(range.len(), parts);
    let lo = (range.start + t * len).min(range.end);
    lo..(lo + len).min(range.end)
}

impl SharedExecutor {
    /// Colour `mesh`'s edges and build a private team. The colouring is
    /// validated unconditionally: the launch counts of every table come
    /// from it.
    pub fn new(mesh: &TetMesh, ncpus: usize) -> Result<SharedExecutor, String> {
        Self::with_team(mesh, color_edges(mesh), build_team(ncpus)?)
    }

    /// Build for any grid's edge list (a mesh, or agglomerated cells) on
    /// an existing team (one per solver, shared by its levels). Only the
    /// colour count outlives the validation; the id lists kept are the
    /// members'.
    pub(crate) fn with_team<G: SolverGrid + ?Sized>(
        grid: &G,
        coloring: EdgeColoring,
        team: Arc<rayon::ThreadPool>,
    ) -> Result<SharedExecutor, String> {
        let (edges, faces) = (grid.grid_edges(), grid.grid_bfaces());
        validate_coloring(edges, &coloring).map_err(|e| format!("invalid edge colouring: {e}"))?;
        let ncpus = team.current_num_threads();
        let nverts = grid.grid_nverts();
        Ok(SharedExecutor {
            ncolors: coloring.ncolors(),
            ncpus,
            nverts,
            nedges: edges.len(),
            touching: touching_lists(edges.iter().copied(), nverts, ncpus),
            touching_faces: touching_lists(faces.iter().map(|f| f.v), nverts, ncpus),
            nfaces: faces.len(),
            team,
        })
    }

    /// One dispatch of an edge or face loop: member `t` sweeps `lists[t]`
    /// through a view that owns block `t` of the vertices. The blocks
    /// are disjoint, so no two members own the same vertex — the
    /// conflict contract of the ownership-tested epilogue.
    fn owner_sweep<F>(&self, lists: &[Vec<u32>], targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        self.team.broadcast(|member| {
            let t = member.index();
            let own = access.restricted(block_of(&(0..self.nverts), self.ncpus, t));
            f(&EdgeSpan::Ids(&lists[t]), &own);
        });
    }
}

impl Executor for SharedExecutor {
    fn edge_launches(&self) -> u64 {
        self.ncolors as u64
    }

    fn for_edge_spans<F>(&mut self, nedges: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        assert_eq!(
            nedges, self.nedges,
            "edge loop does not match the executor's edge list"
        );
        self.owner_sweep(&self.touching, targets, f);
    }

    fn for_face_spans<F>(&mut self, nfaces: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        assert_eq!(
            nfaces, self.nfaces,
            "face loop does not match the executor's face list"
        );
        self.owner_sweep(&self.touching_faces, targets, f);
    }

    /// One dispatch: member `t` maps block `t` of `range`.
    fn for_vertex_range<F>(&mut self, range: Range<usize>, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let access = ScatterAccess::new(targets);
        self.team.broadcast(|member| {
            let block = block_of(&range, self.ncpus, member.index());
            if !block.is_empty() {
                f(block, &access);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SolverConfig};
    use crate::counters::PhaseCounters;
    use crate::executor::SerialExecutor;
    use crate::level::{time_step, LevelState};
    use crate::{MultigridSolver, Strategy};
    use eul3d_mesh::gen::{bump_channel, unit_box, BumpSpec};
    use eul3d_mesh::MeshSequence;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn perturbed_state(mesh: &TetMesh, cfg: &SolverConfig) -> LevelState {
        let mut st = LevelState::new(mesh, cfg);
        for (i, c) in mesh.coords.iter().enumerate() {
            let bump = 0.03 * (-10.0 * (c.x - 0.5).powi(2)).exp();
            st.w.add(i, 0, bump);
            st.w.add(i, 4, 2.0 * bump);
        }
        st
    }

    /// Every array of a level state ([`LevelState::arrays`]), as bit
    /// patterns.
    fn state_bits(st: &LevelState) -> Vec<Vec<u64>> {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect();
        st.arrays().into_iter().map(bits).collect()
    }

    /// `steps` time steps from `start` on `exec`, as [`state_bits`].
    fn stepped<E: Executor>(
        mesh: &TetMesh,
        start: &LevelState,
        cfg: &SolverConfig,
        is_coarse: bool,
        steps: usize,
        exec: &mut E,
    ) -> Vec<Vec<u64>> {
        let mut st = start.clone();
        let mut c = PhaseCounters::default();
        for _ in 0..steps {
            time_step(mesh, &mut st, cfg, is_coarse, exec, &mut c);
        }
        state_bits(&st)
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
        assert_eq!(state_bits(&st_serial), state_bits(&st_shared));
        // Flop accounting is backend-independent — identical, not close.
        assert_eq!(c1.flops(), c2.flops());
        // Only the charged launch structure differs (the modeled C90
        // launches once per colour group).
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

        let one_level = || MeshSequence::from_meshes(vec![mesh.clone()]);
        let mut serial = MultigridSolver::new(one_level(), cfg, Strategy::SingleGrid);
        let mut shared =
            MultigridSolver::new_shared(one_level(), cfg, Strategy::SingleGrid, 3).unwrap();
        let hs = serial.solve(10);
        let hp = shared.solve(10);
        for (a, b) in hs.iter().zip(&hp) {
            assert_eq!(a.to_bits(), b.to_bits(), "residual histories: {a} vs {b}");
        }
    }

    #[test]
    fn thread_count_does_not_change_a_bit() {
        // A slot is written by its owner alone, its contributions arrive
        // in ascending edge order, and vertex loops are pure maps: the
        // member count only decides who computes a value, never which
        // value — so every team is the serial executor, plane for plane.
        let mesh = unit_box(4, 0.2, 21);
        let jst = SolverConfig::default();
        let roe = SolverConfig {
            mach: 0.6,
            scheme: Scheme::RoeUpwind,
            ..jst
        };
        for (cfg, is_coarse) in [(jst, false), (jst, true), (roe, false)] {
            let start = perturbed_state(&mesh, &cfg);
            let serial = stepped(&mesh, &start, &cfg, is_coarse, 3, &mut SerialExecutor);
            // 0 asks for the host's parallelism, whatever that is.
            for ncpus in [0, 1, 2, 3, 8] {
                let mut exec = SharedExecutor::new(&mesh, ncpus).unwrap();
                assert!(exec.ncpus >= 1 && (ncpus == 0 || exec.ncpus == ncpus));
                assert_eq!(
                    stepped(&mesh, &start, &cfg, is_coarse, 3, &mut exec),
                    serial,
                    "{:?}, coarse {is_coarse}, ncpus = {ncpus}",
                    cfg.scheme
                );
            }
        }
    }

    #[test]
    fn vertex_range_visits_each_index_once() {
        // The one vertex hook: every index of the range once, nothing
        // outside it — whole level, ghost tail, empty, shorter than the
        // team.
        let mesh = unit_box(3, 0.1, 4);
        let n = mesh.nverts();
        let owned = n - 5;
        for ncpus in 1..=4 {
            let mut exec = SharedExecutor::new(&mesh, ncpus).unwrap();
            for range in [0..n, owned..n, 7..7, 0..0, 3..4, 10..12, n - 3..n] {
                let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                exec.for_vertex_range(range.clone(), &mut [], |r, _| {
                    r.for_each(|i| {
                        visits[i].fetch_add(1, Ordering::Relaxed);
                    })
                });
                for (i, v) in visits.iter().enumerate() {
                    let want = range.contains(&i) as usize;
                    assert_eq!(
                        v.load(Ordering::Relaxed),
                        want,
                        "{ncpus} members, {range:?}, index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn member_lists_cover_every_edge_and_double_only_the_cut() {
        let mesh = unit_box(4, 0.15, 9);
        for ncpus in [1, 2, 3, 200] {
            let exec = SharedExecutor::new(&mesh, ncpus).unwrap();
            let mut owners = vec![0usize; mesh.nedges()];
            for (t, ids) in exec.touching.iter().enumerate() {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending");
                let block = block_of(&(0..mesh.nverts()), ncpus, t);
                for &e in ids {
                    owners[e as usize] += 1;
                    assert!(mesh.edges[e as usize]
                        .iter()
                        .any(|&v| block.contains(&(v as usize))));
                }
            }
            for (e, [a, b]) in mesh.edges.iter().enumerate() {
                let block_index = |v: u32| {
                    (0..ncpus).position(|t| {
                        block_of(&(0..mesh.nverts()), ncpus, t).contains(&(v as usize))
                    })
                };
                let cut = block_index(*a) != block_index(*b);
                assert_eq!(owners[e], 1 + cut as usize, "edge {e}");
            }
        }
    }

    #[test]
    fn owners_alone_write_their_vertices() {
        // The conflict contract where ThreadSanitizer can see it: many
        // back-to-back edge and face sweeps whose kernel does nothing but
        // the ownership-tested store. Two members writing one slot would
        // be a reported race (and, here, a wrong count).
        let mesh = unit_box(5, 0.15, 17);
        let n = mesh.nverts();
        let (edges, bfaces) = (&mesh.edges, &mesh.bfaces);
        let rounds = 50;
        for ncpus in [2, 3, 7] {
            let mut exec = SharedExecutor::new(&mesh, ncpus).unwrap();
            let (mut by_edge, mut by_face) = (vec![0.0; n], vec![0.0; n]);
            for _ in 0..rounds {
                exec.for_edge_spans(edges.len(), &mut [&mut by_edge[..]], |span, s| {
                    span.for_each(|e| {
                        for v in edges[e].map(|v| v as usize) {
                            if s.owns(v) {
                                // SAFETY: `v < n`, owned by this member.
                                unsafe { s.add(0, v, 1.0) }
                            }
                        }
                    })
                });
                exec.for_face_spans(bfaces.len(), &mut [&mut by_face[..]], |span, s| {
                    span.for_each(|f| {
                        for v in bfaces[f].v.map(|v| v as usize) {
                            if s.owns(v) {
                                // SAFETY: `v < n`, owned by this member.
                                unsafe { s.add(0, v, 1.0) }
                            }
                        }
                    })
                });
            }
            let mut edge_deg = vec![0.0; n];
            let mut face_deg = vec![0.0; n];
            edges
                .iter()
                .flatten()
                .for_each(|&v| edge_deg[v as usize] += rounds as f64);
            bfaces
                .iter()
                .flat_map(|f| f.v)
                .for_each(|v| face_deg[v as usize] += rounds as f64);
            assert_eq!(by_edge, edge_deg, "{ncpus} members");
            assert_eq!(by_face, face_deg, "{ncpus} members");
        }
    }

    #[test]
    fn kernel_panic_reaches_the_caller_and_the_executor_survives() {
        let mesh = unit_box(4, 0.15, 9);
        let mut exec = SharedExecutor::new(&mesh, 3).unwrap();
        // An edge only member 1 sweeps: members 0 and 2 run their whole
        // lists while it fails.
        let bad_edge = *exec.touching[1]
            .iter()
            .find(|e| !exec.touching[0].contains(e) && !exec.touching[2].contains(e))
            .unwrap();
        let swept = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.for_edge_spans(mesh.nedges(), &mut [], |span, _| {
                let EdgeSpan::Ids(ids) = span else {
                    unreachable!("the team hands out member lists")
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
        // The other two members finished their sweeps first.
        assert_eq!(
            swept.load(Ordering::Relaxed),
            exec.touching[0].len() + exec.touching[2].len()
        );

        // Same executor, same team: the next step is the serial answer.
        let cfg = SolverConfig::default();
        let start = perturbed_state(&mesh, &cfg);
        assert_eq!(
            stepped(&mesh, &start, &cfg, false, 1, &mut exec),
            stepped(&mesh, &start, &cfg, false, 1, &mut SerialExecutor)
        );
    }

    #[test]
    fn launch_count_reflects_color_groups() {
        let mesh = unit_box(3, 0.1, 2);
        let mut exec = SharedExecutor::new(&mesh, 2).unwrap();
        let ncolors = exec.ncolors as u64;
        assert_eq!(ncolors, color_edges(&mesh).ncolors() as u64);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let mut counter = PhaseCounters::default();
        time_step(&mesh, &mut st, &cfg, false, &mut exec, &mut counter);
        // Per stage ≥ 1 edge loop charged per colour; 5 stages =>
        // ≥ 5·ncolors.
        assert!(counter.launches() >= 5 * ncolors);
    }

    #[test]
    fn roe_scheme_shared_matches_serial() {
        let mesh = unit_box(4, 0.15, 31);
        let cfg = SolverConfig {
            mach: 0.6,
            scheme: Scheme::RoeUpwind,
            ..SolverConfig::default()
        };
        let start = perturbed_state(&mesh, &cfg);
        let mut exec = SharedExecutor::new(&mesh, 3).unwrap();
        assert_eq!(
            stepped(&mesh, &start, &cfg, false, 1, &mut exec),
            stepped(&mesh, &start, &cfg, false, 1, &mut SerialExecutor)
        );
    }

    #[test]
    fn freestream_preserved_by_shared_executor() {
        let mesh = unit_box(4, 0.2, 5);
        let cfg = SolverConfig::default();
        let start = LevelState::new(&mesh, &cfg);
        let mut exec = SharedExecutor::new(&mesh, 4).unwrap();
        let mut st = start.clone();
        let mut c = PhaseCounters::default();
        time_step(&mesh, &mut st, &cfg, false, &mut exec, &mut c);
        for (a, b) in st.w.flat().iter().zip(start.w.flat()) {
            assert!((a - b).abs() < 1e-11);
        }
        assert_eq!(
            state_bits(&st),
            stepped(&mesh, &start, &cfg, false, 1, &mut SerialExecutor)
        );
    }

    #[test]
    fn invalid_coloring_is_rejected_not_debug_asserted() {
        let mesh = unit_box(2, 0.0, 0);
        // Merge every edge into one group: guaranteed endpoint conflicts.
        let all: Vec<u32> = (0..mesh.nedges() as u32).collect();
        let bad = EdgeColoring { groups: vec![all] };
        let err = SharedExecutor::with_team(&mesh, bad, build_team(2).unwrap()).err();
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("invalid edge colouring")),
            "conflicting colouring must be refused: {err:?}"
        );
    }
}
