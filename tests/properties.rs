//! Property-based tests (proptest) of the core invariants, across
//! randomized meshes, flow conditions and partitions.

use proptest::prelude::*;

use eul3d::mesh::dual::closure_residual;
use eul3d::mesh::gen::{bump_channel, unit_box, BumpSpec};
use eul3d::mesh::search::Locator;
use eul3d::mesh::stats::MeshStats;
use eul3d::mesh::InterpOps;
use eul3d::partition::{color_edges, validate_coloring, FlatRsb, PartitionOptions, Partitioner};
use eul3d::solver::level::{time_step, LevelState};
use eul3d::solver::SolverConfig;
use eul3d::solver::{PhaseCounters, SerialExecutor};

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The dual surface of every generated mesh closes exactly, whatever
    /// the resolution, jitter, or seed.
    #[test]
    fn dual_surface_always_closes(n in 2usize..5, jitter in 0.0f64..0.25, seed in 0u64..1000) {
        let m = unit_box(n, jitter, seed);
        let bf: Vec<_> = m.bfaces.iter().map(|f| (f.normal, f.v)).collect();
        let res = closure_residual(m.nverts(), &m.edges, &m.edge_coef, &bf);
        for r in res {
            prop_assert!(r.norm() < 1e-12);
        }
    }

    /// Greedy colouring is always a valid recurrence-free grouping.
    #[test]
    fn coloring_always_valid(n in 2usize..6, jitter in 0.0f64..0.25, seed in 0u64..1000) {
        let m = unit_box(n, jitter, seed);
        let c = color_edges(&m);
        prop_assert!(validate_coloring(&m.edges, &c).is_ok());
        prop_assert!(c.ncolors() >= m.max_degree());
    }

    /// Uniform flow is an exact fixed point of the full time step for
    /// any far-field mesh, Mach number and incidence.
    #[test]
    fn freestream_always_preserved(
        n in 2usize..5,
        seed in 0u64..500,
        mach in 0.1f64..1.8,
        alpha in -5.0f64..5.0,
    ) {
        let mesh = unit_box(n, 0.2, seed);
        let cfg = SolverConfig { mach, alpha_deg: alpha, ..SolverConfig::default() };
        let mut st = LevelState::new(&mesh, &cfg);
        let before = st.w.clone();
        let mut counter = PhaseCounters::default();
        time_step(&mesh, &mut st, &cfg, false, &mut SerialExecutor, &mut counter);
        for (a, b) in st.w.flat().iter().zip(before.flat()) {
            prop_assert!((a - b).abs() < 1e-10, "freestream drift {a} vs {b}");
        }
    }

    /// RSB always produces a balanced cover of all parts.
    #[test]
    fn rsb_always_balanced(n in 3usize..6, nparts in 2usize..9, seed in 0u64..100) {
        let m = unit_box(n, 0.15, seed);
        let opts = PartitionOptions::new(nparts).lanczos_iters(25).seed(seed);
        let parts = FlatRsb.partition(m.nverts(), &m.edges, &opts).unwrap().assignment;
        prop_assert!(parts.iter().all(|&p| (p as usize) < nparts));
        let sizes = (0..nparts as u32).map(|r| parts.iter().filter(|&&p| p == r).count());
        let imbalance = sizes.max().unwrap() as f64 * nparts as f64 / m.nverts() as f64;
        prop_assert!(imbalance < 1.35, "imbalance {imbalance}");
        for r in 0..nparts as u32 {
            prop_assert!(parts.contains(&r), "part {r} empty");
        }
    }

    /// Point location reproduces any interior point from its barycentric
    /// weights.
    #[test]
    fn locate_reconstructs_points(
        seed in 0u64..200,
        x in 0.05f64..0.95,
        y in 0.05f64..0.95,
        z in 0.05f64..0.95,
    ) {
        let m = unit_box(4, 0.2, seed);
        let loc = Locator::new(&m);
        let p = eul3d::mesh::Vec3::new(x, y, z);
        let r = loc.locate(p, 0);
        let t = m.tets[r.tet];
        let mut q = eul3d::mesh::Vec3::ZERO;
        for (&v, &bk) in t.iter().zip(&r.bary) {
            q += m.coords[v as usize] * bk;
        }
        prop_assert!((q - p).norm() < 1e-9);
    }

    /// Inter-grid interpolation reproduces affine fields exactly between
    /// any two meshes of the same domain.
    #[test]
    fn interpolation_exact_on_affine_fields(
        sa in 0u64..50, sb in 50u64..100,
        cx in -2.0f64..2.0, cy in -2.0f64..2.0, cz in -2.0f64..2.0,
    ) {
        let src = unit_box(3, 0.15, sa);
        let dst = unit_box(4, 0.15, sb);
        let ops = InterpOps::build(&src, &dst);
        let f = |p: eul3d::mesh::Vec3| cx * p.x + cy * p.y + cz * p.z + 0.7;
        let sv: Vec<f64> = src.coords.iter().map(|&p| f(p)).collect();
        let mut dv = vec![0.0; dst.nverts()];
        ops.interpolate(&sv, &mut dv);
        for (v, &p) in dst.coords.iter().enumerate() {
            prop_assert!((dv[v] - f(p)).abs() < 1e-9);
        }
    }

    /// Bump meshes stay valid over the whole parameter range the
    /// harnesses use.
    #[test]
    fn bump_meshes_always_valid(
        nx in 6usize..20,
        bump in 0.0f64..0.15,
        taper in 0.0f64..0.8,
        seed in 0u64..300,
    ) {
        let spec = BumpSpec {
            nx,
            ny: (nx / 3).max(2),
            nz: (nx / 4).max(2),
            bump_height: bump,
            taper,
            jitter: 0.15,
            seed,
        };
        let m = bump_channel(&spec);
        let s = MeshStats::compute(&m);
        prop_assert!(s.is_valid(), "{}", s.summary());
    }

    /// A few time steps never produce NaNs or negative density from
    /// small random perturbations.
    #[test]
    fn time_stepping_robust_to_perturbations(
        seed in 0u64..100,
        amp in 0.0f64..0.08,
        mach in 0.2f64..0.9,
    ) {
        let mesh = unit_box(3, 0.15, seed);
        let cfg = SolverConfig { mach, ..SolverConfig::default() };
        let mut st = LevelState::new(&mesh, &cfg);
        // Deterministic pseudo-random perturbation from the seed.
        for i in 0..st.n {
            let r = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33) as f64
                / (1u64 << 31) as f64
                - 1.0;
            st.w.set(i, 0, st.w.get(i, 0) * (1.0 + amp * r));
            st.w.set(i, 4, st.w.get(i, 4) * (1.0 + amp * r));
        }
        let mut counter = PhaseCounters::default();
        for _ in 0..5 {
            time_step(&mesh, &mut st, &cfg, false, &mut SerialExecutor, &mut counter);
        }
        for i in 0..st.n {
            prop_assert!(st.w.get(i, 0).is_finite());
            prop_assert!(st.w.get(i, 0) > 0.0, "density went non-positive");
        }
    }
}
