//! Cross-executor equivalence: the sequential reference, the coloured
//! shared-memory executor (§3), and the PARTI/Delta distributed executor
//! (§4) must produce the same flow solution on the same mesh — for the
//! central/JST scheme, the Roe upwind scheme, and the first-order coarse
//! dissipation path — and, since the kernels are written once over the
//! [`Executor`] trait, report *identical* total flop counts.

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::dist::{run_distributed, DistBackend, DistOptions, DistSetup};
use eul3d::solver::{MultigridSolver, Scheme, SingleGridSolver, SolverConfig, Strategy};

fn spec() -> BumpSpec {
    BumpSpec {
        nx: 12,
        ny: 5,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    }
}

fn max_dev(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Run one single-grid case through all three executors: check the states
/// agree and the flop totals are identical (serial vs shared vs the sum
/// over distributed ranks).
fn three_way_single_grid(scheme: Scheme) {
    let cfg = SolverConfig {
        mach: 0.55,
        scheme,
        ..SolverConfig::default()
    };
    let cycles = 8;

    let seq = MeshSequence::bump_sequence(&spec(), 1);
    let mesh = seq.meshes[0].clone();

    let mut serial = SingleGridSolver::new(mesh.clone(), cfg);
    let hs = serial.solve(cycles);

    // The single-grid strategy of the one multigrid driver *is* the
    // single-grid solver: same bits, not merely close.
    let one_level = || MeshSequence::from_meshes(vec![mesh.clone()]);
    let mut mg = MultigridSolver::new(one_level(), cfg, Strategy::SingleGrid);
    let hm = mg.solve(cycles);
    for (a, b) in hs.iter().zip(&hm) {
        assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?}: {a:e} vs {b:e}");
    }
    for (a, b) in serial.state().flat().iter().zip(mg.state().flat()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?}: state");
    }

    let mut shared = MultigridSolver::new_shared(one_level(), cfg, Strategy::SingleGrid, 3)
        .expect("valid colouring");
    let hp = shared.solve(cycles);
    for (a, b) in hs.iter().zip(&hp) {
        assert!(
            (a - b).abs() < 1e-8 * a.abs().max(1e-30) + 1e-13,
            "{scheme:?} residual histories diverge: {a} vs {b}"
        );
    }

    let setup = DistSetup::new(seq, 6, 25, 11);
    let dist = run_distributed(
        &setup,
        cfg,
        Strategy::SingleGrid,
        cycles,
        DistOptions::default(),
    );
    let wd = dist.global_state(setup.seq.meshes[0].nverts());

    let d1 = max_dev(serial.state().flat(), shared.state().flat());
    let d2 = max_dev(&serial.state().to_aos(), &wd);
    assert!(d1 < 1e-10, "{scheme:?} serial vs shared: {d1:.3e}");
    assert!(d2 < 1e-9, "{scheme:?} serial vs distributed: {d2:.3e}");

    // Flop accounting lives in the executor layer and counts the global
    // problem: all three backends must agree exactly. (Every per-kernel
    // constant is an integer, so the sums are exact in f64.)
    let serial_flops = serial.counter.flops();
    let shared_flops = shared.counter.flops();
    let dist_flops: f64 = dist.phase_counters().iter().map(|p| p.flops()).sum();
    assert_eq!(
        serial_flops, shared_flops,
        "{scheme:?}: serial vs shared flops"
    );
    assert_eq!(
        serial_flops, dist_flops,
        "{scheme:?}: serial vs distributed flops"
    );
}

#[test]
fn three_executors_one_answer_single_grid() {
    three_way_single_grid(Scheme::CentralJst);
}

#[test]
fn three_executors_one_answer_roe_upwind() {
    three_way_single_grid(Scheme::RoeUpwind);
}

#[test]
fn coarse_first_order_dissipation_matches_across_executors() {
    // Multigrid with the default first-order coarse dissipation exercises
    // the FO path (is_coarse) on every backend.
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    assert!(
        cfg.coarse_first_order,
        "default config must use FO coarse dissipation"
    );
    let cycles = 4;

    let mut serial = MultigridSolver::new(
        MeshSequence::bump_sequence(&spec(), 2),
        cfg,
        Strategy::VCycle,
    );
    let hs = serial.solve(cycles);

    let mut shared = MultigridSolver::new_shared(
        MeshSequence::bump_sequence(&spec(), 2),
        cfg,
        Strategy::VCycle,
        3,
    )
    .expect("valid colourings");
    let hp = shared.solve(cycles);

    let setup = DistSetup::new(MeshSequence::bump_sequence(&spec(), 2), 5, 25, 11);
    let dist = run_distributed(
        &setup,
        cfg,
        Strategy::VCycle,
        cycles,
        DistOptions::default(),
    );

    for (a, b) in hs.iter().zip(&hp) {
        assert!(
            (a - b).abs() < 1e-8 * a.max(1e-30),
            "serial {a} vs shared {b}"
        );
    }
    for (a, b) in hs.iter().zip(dist.history()) {
        assert!(
            (a - b).abs() < 1e-8 * a.max(1e-30),
            "serial {a} vs dist {b}"
        );
    }
    let wd = dist.global_state(setup.seq.meshes[0].nverts());
    let ds = max_dev(serial.state().flat(), shared.state().flat());
    let dd = max_dev(&serial.state().to_aos(), &wd);
    assert!(ds < 1e-9, "FO coarse, serial vs shared state: {ds:.3e}");
    assert!(dd < 1e-8, "FO coarse, serial vs dist state: {dd:.3e}");

    // Time-stepping flops are identical between the serial and shared
    // multigrid (same kernels, same counts, different launch structure).
    assert_eq!(serial.counter.flops(), shared.counter.flops());
}

#[test]
fn distributed_w_cycle_matches_serial_multigrid() {
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    let cycles = 4;

    let mut serial = MultigridSolver::new(
        MeshSequence::bump_sequence(&spec(), 3),
        cfg,
        Strategy::WCycle,
    );
    let hs = serial.solve(cycles);

    // One executor drives both halo transports: channels (Delta) and
    // shared-memory windows (Hybrid) must each match the serial solver.
    let run = |nranks: usize, backend: DistBackend| -> Vec<f64> {
        let setup = DistSetup::new(MeshSequence::bump_sequence(&spec(), 3), nranks, 25, 11);
        let opts = DistOptions {
            backend,
            ..DistOptions::default()
        };
        let dist = run_distributed(&setup, cfg, Strategy::WCycle, cycles, opts);
        assert_eq!(dist.transport, backend, "the transport asked for must run");
        for (a, b) in hs.iter().zip(dist.history()) {
            assert!(
                (a - b).abs() < 1e-8 * a.max(1e-30),
                "residual history on {nranks} {backend:?} ranks: serial {a} vs dist {b}"
            );
        }
        let wd = dist.global_state(setup.seq.meshes[0].nverts());
        let d = max_dev(&serial.state().to_aos(), &wd);
        assert!(
            d < 1e-8,
            "W-cycle states on {nranks} {backend:?} ranks: {d:.3e}"
        );
        dist.history().to_vec()
    };
    run(5, DistBackend::Delta);
    // ... and, on the same partition, agree with each other to the bit.
    let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(run(2, DistBackend::Delta)),
        bits(run(2, DistBackend::Hybrid)),
        "hybrid vs delta residual history"
    );
}

#[test]
fn rank_count_does_not_change_the_answer() {
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    let run = |nranks: usize| {
        let setup = DistSetup::new(MeshSequence::bump_sequence(&spec(), 2), nranks, 25, 3);
        let r = run_distributed(&setup, cfg, Strategy::VCycle, 5, DistOptions::default());
        r.global_state(setup.seq.meshes[0].nverts())
    };
    let w2 = run(2);
    let w7 = run(7);
    let d = max_dev(&w2, &w7);
    assert!(d < 1e-8, "2 vs 7 ranks: {d:.3e}");
}

#[test]
fn partitioner_choice_does_not_change_the_answer() {
    // RSB vs random partitioning: wildly different communication, same
    // numerics.
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    let seq_a = MeshSequence::bump_sequence(&spec(), 1);
    let nverts = seq_a.meshes[0].nverts();
    let setup_rsb = DistSetup::new(seq_a, 4, 25, 3);
    let setup_rand = DistSetup::with_partitioner(MeshSequence::bump_sequence(&spec(), 1), 4, |m| {
        eul3d::partition::random_partition(m.nverts(), 4, 99)
    });
    let a = run_distributed(
        &setup_rsb,
        cfg,
        Strategy::SingleGrid,
        5,
        DistOptions::default(),
    );
    let b = run_distributed(
        &setup_rand,
        cfg,
        Strategy::SingleGrid,
        5,
        DistOptions::default(),
    );
    let d = max_dev(&a.global_state(nverts), &b.global_state(nverts));
    assert!(d < 1e-9, "partitioner must not affect numerics: {d:.3e}");

    // ... but it must affect communication volume.
    let bytes = |r: &eul3d::solver::dist::DistRunResult| -> u64 {
        r.cycle_counters().iter().map(|c| c.total_bytes()).sum()
    };
    assert!(
        bytes(&b) > 2 * bytes(&a),
        "random partition should move far more data: rsb {} vs random {}",
        bytes(&a),
        bytes(&b)
    );

    // ... and the executor-layer *flop* accounting must not care either:
    // partitions cover the same edges and owned vertices.
    let flops = |r: &eul3d::solver::dist::DistRunResult| -> f64 {
        r.phase_counters().iter().map(|p| p.flops()).sum()
    };
    assert_eq!(
        flops(&a),
        flops(&b),
        "flop totals are partition-independent"
    );
}

#[test]
fn oversubscribed_team_gives_the_two_member_history() {
    // Four members per core: whenever a member waits — for a sweep, at
    // a colour barrier, for check-in — the one it waits for is probably
    // descheduled. A wait that held its core would turn this run from
    // seconds into minutes; the bits must not depend on the member count
    // either way.
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    let history = |ncpus: usize| -> Vec<u64> {
        MultigridSolver::new_shared(
            MeshSequence::bump_sequence(&spec(), 3),
            cfg,
            Strategy::WCycle,
            ncpus,
        )
        .expect("valid colourings")
        .solve(4)
        .iter()
        .map(|r| r.to_bits())
        .collect()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(history(4 * cores), history(2));
}
