//! Cross-executor equivalence: the sequential reference, the
//! shared-memory executor (§3), and the PARTI/Delta distributed executor
//! (§4) must produce the same flow solution on the same mesh — for the
//! central/JST scheme, the Roe upwind scheme, and the first-order coarse
//! dissipation path — and, since the kernels are written once over the
//! [`Executor`] trait, report *identical* total flop counts. The shared
//! executor (block ownership: every slot added into in the serial
//! loop's order) gives the serial **bits** for any team size, and the
//! serial and distributed histories are pinned to the values the
//! edge-scatter loops produced before the two neighbour sums became
//! vertex gathers.

use std::sync::Arc;

use eul3d::delta::FaultPlan;
use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::dist::{
    run_distributed, run_distributed_with_faults, DistBackend, DistOptions, DistRunResult,
    DistSetup, FaultOptions, RepartitionPolicy,
};
use eul3d::solver::level::{eval_dissipation, smooth_residual, time_step, LevelState};
use eul3d::solver::runconfig::{PartitionConfig, PartitionMethod};
use eul3d::solver::shared::SharedExecutor;
use eul3d::solver::{
    fnv1a_128, GuardConfig, MultigridSolver, PhaseCounters, Scheme, SerialExecutor, SolverConfig,
    Strategy,
};

fn spec() -> BumpSpec {
    BumpSpec {
        nx: 12,
        ny: 5,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    }
}

/// The options of a run on `backend` with every lane traced on the
/// modeled clock, for [`assert_same_lanes`].
fn traced(backend: DistBackend) -> DistOptions {
    DistOptions {
        backend,
        trace_capacity: Some(1 << 15),
        ..DistOptions::default()
    }
}

/// A traced delta run and a traced hybrid run record the same lanes,
/// event for event and stamp for stamp: the backends differ in their
/// report, not in what the ranks do.
fn assert_same_lanes(delta: &DistRunResult, hybrid: &DistRunResult, what: &str) {
    let (ld, lh) = (delta.lanes(), hybrid.lanes());
    assert_eq!(ld.len(), lh.len(), "{what}: lane count");
    for (d, h) in ld.iter().zip(&lh) {
        assert!(!d.events.is_empty(), "{what}: {} is traced", d.name);
        assert_eq!(
            (&d.name, d.dropped),
            (&h.name, h.dropped),
            "{what}: lane {}",
            d.id
        );
        let first = d.events.iter().zip(&h.events).position(|(a, b)| a != b);
        if let Some(k) = first {
            panic!(
                "{what}: {} parts at event {k}: {:?} vs {:?}",
                d.name, d.events[k], h.events[k]
            );
        }
        assert_eq!(d.events.len(), h.events.len(), "{what}: {} length", d.name);
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

    // The sequential reference: the single-grid strategy of the one
    // multigrid driver on the lone fine mesh.
    let one_level = || MeshSequence::from_meshes(vec![mesh.clone()]);
    let mut serial = MultigridSolver::new(one_level(), cfg, Strategy::SingleGrid);
    let hs = serial.solve(cycles);

    let mut shared = MultigridSolver::new_shared(one_level(), cfg, Strategy::SingleGrid, 3)
        .expect("valid colouring");
    let hp = shared.solve(cycles);
    for (a, b) in hs.iter().zip(&hp) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{scheme:?} shared: {a:e} vs {b:e}"
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

    for (a, b) in serial.state().flat().iter().zip(shared.state().flat()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?}: shared state");
    }
    let d2 = max_dev(&serial.state().to_aos(), &wd);
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
        assert_eq!(a.to_bits(), b.to_bits(), "serial {a:e} vs shared {b:e}");
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
    assert_eq!(ds, 0.0, "FO coarse, serial vs shared state");
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

    // Both backends must match the serial solver.
    let run = |nranks: usize, backend: DistBackend| -> DistRunResult {
        let setup = DistSetup::new(MeshSequence::bump_sequence(&spec(), 3), nranks, 25, 11);
        let dist = run_distributed(&setup, cfg, Strategy::WCycle, cycles, traced(backend));
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
        dist
    };
    run(5, DistBackend::Delta);
    // ... and, on the same partition, agree with each other to the bit
    // and to the event.
    let bits = |r: &DistRunResult| r.history().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (delta, hybrid) = (run(2, DistBackend::Delta), run(2, DistBackend::Hybrid));
    assert_eq!(
        bits(&delta),
        bits(&hybrid),
        "hybrid vs delta residual history"
    );
    assert_same_lanes(&delta, &hybrid, "clean W-cycle");
}

#[test]
fn guarded_migrating_hybrid_run_gives_the_channel_bits_and_transcript() {
    // Windows × migration × guard: a CFL-30 case that the guard must
    // back off, repartitioned every 3 cycles, on both backends — one
    // history to the bit, one transcript, one trace.
    let spec = BumpSpec {
        nx: 10,
        ny: 4,
        nz: 3,
        taper: 0.6,
        ..spec()
    };
    let cfg = SolverConfig {
        mach: 0.5,
        cfl: 30.0,
        ..SolverConfig::default()
    };
    let setup = DistSetup::new(MeshSequence::bump_sequence(&spec, 2), 4, 20, 7);
    let fopts = FaultOptions {
        recv_timeout_ms: 60_000,
        guard: Some(GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..GuardConfig::default()
        }),
        ..FaultOptions::default()
    };
    let run = |backend: DistBackend| {
        let opts = DistOptions {
            backend,
            repartition: Some(RepartitionPolicy {
                config: PartitionConfig {
                    method: PartitionMethod::Multilevel,
                    coarsen_target: 16,
                    refine_passes: 4,
                    mapping: eul3d::partition::RankMapping::Topology,
                    repartition_every: 3,
                },
                lanczos_iters: 20,
                seed: 7,
            }),
            ..traced(backend)
        };
        run_distributed_with_faults(&setup, cfg, Strategy::VCycle, 12, opts, &fopts)
            .expect("the guard recovers the CFL-30 case")
    };
    let outcome = |r: &DistRunResult| {
        let bits: Vec<u64> = r.history().iter().map(|x| x.to_bits()).collect();
        (bits, r.guard_outcome().cloned().expect("guarded"))
    };
    let (delta, hybrid) = (run(DistBackend::Delta), run(DistBackend::Hybrid));
    assert!(
        !outcome(&delta).1.transcript.is_empty(),
        "the guard must back off"
    );
    assert_eq!(
        outcome(&delta),
        outcome(&hybrid),
        "hybrid vs delta: history bits and guard outcome"
    );
    assert_same_lanes(&delta, &hybrid, "guarded migrating run");
    // A migration and a guard rollback are both silent: neither opens a
    // recovery epoch.
    for (what, r) in [("delta", &delta), ("hybrid", &hybrid)] {
        for (id, c) in r.run.counters.iter().enumerate() {
            assert_eq!(c.recoveries, 0, "{what} rank {id}: recovery epochs");
        }
    }
}

/// The tier-1 slice of the fault layer: every record fault the plan
/// names must fire on the stamped records of `backend`'s windows, and
/// the recovered run must still give the fault-free history and state,
/// bit for bit. Returns the traced faulted run.
fn faulted_records_recover_to_the_clean_bits(backend: DistBackend) -> DistRunResult {
    let spec = BumpSpec {
        nx: 8,
        ny: 4,
        nz: 3,
        ..spec()
    };
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let setup = DistSetup::new(MeshSequence::bump_sequence(&spec, 2), 4, 20, 7);
    let nverts = setup.seq.meshes[0].nverts();
    let cycles = 6;
    let clean = run_distributed(
        &setup,
        cfg,
        Strategy::WCycle,
        cycles,
        DistOptions::default(),
    );
    let fopts = FaultOptions {
        plan: Arc::new(
            FaultPlan::parse("corrupt:1>0#0@2,drop:2>3#0@3,dup:0>1#0@4", 4)
                .expect("valid fault spec"),
        ),
        checkpoint_every: 2,
        ..FaultOptions::default()
    };
    let faulted = run_distributed_with_faults(
        &setup,
        cfg,
        Strategy::WCycle,
        cycles,
        traced(backend),
        &fopts,
    )
    .expect("the faulted run recovers");
    // The corrupt (checksum) and the drop (sequence gap or timeout) each
    // force one recovery epoch on every rank; the duplicate is absorbed
    // by the receiver's sequence filter.
    for (vid, c) in faulted.run.counters.iter().enumerate() {
        assert_eq!(c.recoveries, 2, "{backend:?} rank {vid}: recovery epochs");
    }
    let dups: u64 = faulted.run.counters.iter().map(|c| c.dup_discards).sum();
    assert_eq!(dups, 1, "{backend:?}: the duplicate must be discarded once");
    assert!(clean.run.counters.iter().all(|c| c.recoveries == 0));
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(faulted.history()),
        bits(clean.history()),
        "{backend:?}: history"
    );
    assert_eq!(
        bits(&faulted.global_state(nverts)),
        bits(&clean.global_state(nverts)),
        "{backend:?}: final state"
    );
    faulted
}

#[test]
fn corrupted_dropped_and_duplicated_messages_recover_to_the_clean_bits() {
    faulted_records_recover_to_the_clean_bits(DistBackend::Delta);
}

#[test]
fn corrupted_dropped_and_duplicated_window_records_recover_to_the_clean_bits() {
    let delta = faulted_records_recover_to_the_clean_bits(DistBackend::Delta);
    let hybrid = faulted_records_recover_to_the_clean_bits(DistBackend::Hybrid);
    assert_same_lanes(&delta, &hybrid, "corrupt/drop/dup plan");
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
    let setup_rand = DistSetup::partitioned(
        Arc::new(MeshSequence::bump_sequence(&spec(), 1)),
        PartitionMethod::Random,
        &eul3d::partition::PartitionOptions::new(4).seed(99),
    )
    .unwrap();
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
    // Four members per core: whenever a member waits — for a sweep,
    // for check-in — the one it waits for is probably descheduled. A wait that held its core would turn this run from
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

/// The workspace's FNV-1a over the bit patterns of a residual history.
fn history_fnv(history: &[f64]) -> u128 {
    let bytes: Vec<u8> = history
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .collect();
    fnv1a_128(&bytes)
}

#[test]
fn gathered_neighbour_sums_keep_the_edge_loop_histories() {
    // 10 W-cycles on 3 levels at NX=16, serial and on 2 Delta ranks.
    // Each constant is what the commit *before* the neighbour sums left
    // the edge-scatter path printed for the same run: the gathers must
    // not move a bit of either history, for either scheme.
    let spec = BumpSpec {
        nx: 16,
        ny: 6,
        nz: 5,
        jitter: 0.1,
        seed: 19,
        ..BumpSpec::default()
    };
    for (scheme, serial_fnv, delta_fnv) in [
        (Scheme::CentralJst, SERIAL_JST_FNV, DELTA_JST_FNV),
        (Scheme::RoeUpwind, SERIAL_ROE_FNV, DELTA_ROE_FNV),
    ] {
        let cfg = SolverConfig {
            mach: 0.55,
            scheme,
            ..SolverConfig::default()
        };
        let seq = || MeshSequence::bump_sequence(&spec, 3);
        // Width 1 sends every edge through the `f64` instance of the
        // kernels' trees; the default width runs four-edge groups on an
        // AVX2 host.
        for lanes in [cfg.lanes, 1] {
            let cfg = SolverConfig { lanes, ..cfg };
            let hs = MultigridSolver::new(seq(), cfg, Strategy::WCycle).solve(10);
            assert!(hs.iter().all(|r| r.is_finite()), "{scheme:?}: {hs:?}");
            assert_eq!(
                history_fnv(&hs),
                serial_fnv,
                "{scheme:?} serial, lanes {lanes}: {:#034x}",
                history_fnv(&hs)
            );
        }
        // Both backends: one exchange path, so the same bits and the
        // same modeled traffic.
        let setup = DistSetup::new(seq(), 2, 25, 11);
        let runs = [DistBackend::Delta, DistBackend::Hybrid].map(|backend| {
            let opts = DistOptions {
                backend,
                ..DistOptions::default()
            };
            let dist = run_distributed(&setup, cfg, Strategy::WCycle, 10, opts);
            assert_eq!(
                history_fnv(dist.history()),
                delta_fnv,
                "{scheme:?} {backend:?}: {:#034x}",
                history_fnv(dist.history())
            );
            dist.cycle_counters()
        });
        for (d, h) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(d.sent, h.sent, "{scheme:?}: per-class traffic");
            assert_eq!(d.hops, h.hops, "{scheme:?}: hops");
        }
        // Block ownership keeps every slot's ascending edge order: the
        // team's history is the serial one, whatever its size.
        for ncpus in [1, 2, 3] {
            let hp = MultigridSolver::new_shared(seq(), cfg, Strategy::WCycle, ncpus)
                .expect("valid colourings")
                .solve(10);
            assert_eq!(
                history_fnv(&hp),
                serial_fnv,
                "{scheme:?} shared, {ncpus} members: {:#034x}",
                history_fnv(&hp)
            );
        }
    }
}

const SERIAL_JST_FNV: u128 = 0xfceb_aed0_9cdd_ae47_ac32_983a_e1e4_24a6;
const DELTA_JST_FNV: u128 = 0xa958_8c52_8a97_50fe_d611_8b3c_aa53_87b2;
const SERIAL_ROE_FNV: u128 = 0xf12d_88ad_c853_7dfb_2ce8_be6f_434c_1c02;
const DELTA_ROE_FNV: u128 = 0x1251_42a4_7130_a139_3e3a_3e7b_6138_77d6;

#[test]
fn shared_neighbour_sums_are_the_serial_bits() {
    // A gather writes each slot from one member, in row order, and an
    // owner-writes edge sweep adds into each slot in ascending edge
    // order: no accumulation-order freedom anywhere. `smooth_residual`
    // and both JST passes under the team are the serial bits for any
    // member count. Averaging runs first: it starts from the baseline
    // the last stage left in `r0`, and pass 1 then writes the sensor
    // sums into `r0` and the Laplacian over averaging's neighbour sums.
    let mesh = MeshSequence::bump_sequence(&spec(), 1).meshes.remove(0);
    let cfg = SolverConfig {
        mach: 0.55,
        ..SolverConfig::default()
    };
    // A developed, non-uniform state with a residual in place.
    let mut start = LevelState::new(&mesh, &cfg);
    let mut c = PhaseCounters::default();
    for _ in 0..2 {
        time_step(&mesh, &mut start, &cfg, false, &mut SerialExecutor, &mut c);
    }
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let run = |exec: &mut dyn FnMut(&mut LevelState, &mut PhaseCounters)| {
        let mut st = start.clone();
        exec(&mut st, &mut PhaseCounters::default());
        (
            bits(st.res.flat()),
            bits(st.lapl.flat()),
            bits(st.r0.planes(LevelState::SENS)),
            bits(st.diss.flat()),
        )
    };
    let serial = run(&mut |st, c| {
        smooth_residual(&mesh, st, &cfg, &mut SerialExecutor, c);
        eval_dissipation(&mesh, st, &cfg, false, &mut SerialExecutor, c);
    });
    assert!(serial.0.iter().any(|&b| b != 0) && serial.1.iter().any(|&b| b != 0));
    for ncpus in [1, 2, 3] {
        let mut exec = SharedExecutor::new(&mesh, ncpus).expect("valid colouring");
        let shared = run(&mut |st, c| {
            smooth_residual(&mesh, st, &cfg, &mut exec, c);
            eval_dissipation(&mesh, st, &cfg, false, &mut exec, c);
        });
        assert_eq!(shared.0, serial.0, "res, {ncpus} members");
        assert_eq!(shared.1, serial.1, "lapl, {ncpus} members");
        assert_eq!(shared.2, serial.2, "sens, {ncpus} members");
        assert_eq!(shared.3, serial.3, "diss, {ncpus} members");
    }
}

/// A zero receive window expires on every wait, so each recovery epoch
/// detects a fresh loss and never commits a cycle: the backstop ends the
/// run with a typed error, not a panic.
#[test]
fn a_livelocking_fault_plan_is_a_typed_error() {
    let spec = BumpSpec {
        nx: 6,
        ny: 3,
        nz: 3,
        ..BumpSpec::default()
    };
    let setup = DistSetup::new(MeshSequence::bump_sequence(&spec, 1), 2, 20, 7);
    let fopts = FaultOptions {
        plan: Arc::new(FaultPlan::parse("drop:0>1#5", 2).unwrap()),
        checkpoint_every: 1,
        recv_timeout_ms: 0,
        ..FaultOptions::default()
    };
    let cfg = SolverConfig::default();
    let opts = DistOptions::default();
    let err = run_distributed_with_faults(&setup, cfg, Strategy::SingleGrid, 4, opts, &fopts).err();
    assert!(
        matches!(
            err,
            Some(eul3d::solver::Eul3dError::Delta(
                eul3d::delta::DeltaError::RecoveryLivelock { epochs: 8, .. }
            ))
        ),
        "{err:?}"
    );
}
