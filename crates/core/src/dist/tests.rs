//! Equivalence tests: the distributed solver must reproduce the
//! sequential solver on the same mesh to accumulation-order round-off —
//! the paper's §4.4 observation that "the solution and convergence rates
//! obtained were, of course, identical".

use eul3d_delta::CommClass;
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::MeshSequence;

use crate::config::SolverConfig;
use crate::dist::{run_distributed, DistOptions, DistSetup};
use crate::gas::NVAR;
use crate::multigrid::{MultigridSolver, RunPlan, Strategy};

/// The serial reference: the paper's base solver on `seq`'s fine mesh.
fn single_grid(seq: &MeshSequence, cfg: SolverConfig) -> MultigridSolver {
    let one_level = MeshSequence::from_meshes(vec![seq.meshes[0].clone()]);
    MultigridSolver::new(one_level, cfg, Strategy::SingleGrid)
}

fn small_seq(levels: usize) -> MeshSequence {
    let spec = BumpSpec {
        nx: 10,
        ny: 4,
        nz: 3,
        jitter: 0.1,
        ..BumpSpec::default()
    };
    MeshSequence::bump_sequence(&spec, levels)
}

/// Partition seed, overridable via `EUL3D_SEED` so CI can sweep a small
/// seed matrix through the equivalence and traffic thresholds.
fn pseed() -> u64 {
    crate::env_seed(7)
}

fn compare_states(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    let mut max = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        max = max.max((x - y).abs());
    }
    assert!(
        max < tol,
        "{what}: max state deviation {max:.3e} exceeds {tol:.1e}"
    );
}

#[test]
fn distributed_single_grid_matches_serial() {
    let seq = small_seq(1);
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let mut serial = single_grid(&seq, cfg);
    let hs = serial.solve(4);

    let setup = DistSetup::new(seq, 4, 20, pseed());
    let result = run_distributed(&setup, cfg, Strategy::SingleGrid, 4, DistOptions::default());
    let hd = result.history();
    for (a, b) in hs.iter().zip(hd) {
        assert!(
            (a - b).abs() < 1e-9 * a.max(1e-30),
            "residual histories diverge: {a} vs {b}"
        );
    }
    let wd = result.global_state(setup.seq.meshes[0].nverts());
    compare_states(&serial.state().to_aos(), &wd, 1e-9, "single grid state");
}

#[test]
fn distributed_multigrid_matches_serial() {
    for strategy in [Strategy::VCycle, Strategy::WCycle] {
        let seq = small_seq(2);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let nverts = seq.meshes[0].nverts();
        let mut serial = MultigridSolver::new(small_seq(2), cfg, strategy);
        let hs = serial.solve(3);

        let setup = DistSetup::new(seq, 3, 20, pseed());
        let result = run_distributed(&setup, cfg, strategy, 3, DistOptions::default());
        for (a, b) in hs.iter().zip(result.history()) {
            assert!(
                (a - b).abs() < 1e-8 * a.max(1e-30),
                "{}: residual histories diverge: {a} vs {b}",
                strategy.label()
            );
        }
        let wd = result.global_state(nverts);
        compare_states(&serial.state().to_aos(), &wd, 1e-8, strategy.label());
    }
}

#[test]
fn single_rank_distributed_matches_serial_exactly_shaped() {
    let seq = small_seq(1);
    let cfg = SolverConfig::default();
    let mut serial = single_grid(&seq, cfg);
    let hs = serial.solve(2);
    let setup = DistSetup::new(seq, 1, 10, 0);
    let result = run_distributed(&setup, cfg, Strategy::SingleGrid, 2, DistOptions::default());
    for (a, b) in hs.iter().zip(result.history()) {
        assert!((a - b).abs() < 1e-13 * a.max(1e-30));
    }
    // No halo traffic on one rank.
    let cc = result.cycle_counters();
    assert_eq!(cc[0].sent[CommClass::Halo as usize].messages, 0);
}

#[test]
fn refetch_ablation_same_answer_more_traffic() {
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let run = |refetch: bool| {
        let setup = DistSetup::new(small_seq(1), 4, 20, pseed());
        let opts = DistOptions {
            refetch_per_loop: refetch,
            ..DistOptions::default()
        };
        let r = run_distributed(&setup, cfg, Strategy::SingleGrid, 3, opts);
        let halo_bytes: u64 = r
            .cycle_counters()
            .iter()
            .map(|c| c.sent[CommClass::Halo as usize].bytes)
            .sum();
        (
            r.history().to_vec(),
            r.global_state(setup.seq.meshes[0].nverts()),
            halo_bytes,
        )
    };
    let (h0, w0, b0) = run(false);
    let (h1, w1, b1) = run(true);
    for (a, b) in h0.iter().zip(&h1) {
        assert!((a - b).abs() < 1e-10 * a.max(1e-30), "answers must agree");
    }
    compare_states(&w0, &w1, 1e-10, "refetch ablation");
    assert!(
        b1 as f64 > b0 as f64 * 1.15,
        "refetching every loop must move materially more data: {b0} vs {b1}"
    );
}

#[test]
fn transfer_traffic_is_small_fraction() {
    // §4.4: "communication required for inter-grid transfers has been
    // found to constitute a small fraction of the total communication".
    let seq = small_seq(2);
    let cfg = SolverConfig::default();
    let setup = DistSetup::new(seq, 4, 20, crate::env_seed(3));
    let r = run_distributed(&setup, cfg, Strategy::VCycle, 5, DistOptions::default());
    let cc = r.cycle_counters();
    let halo: u64 = cc
        .iter()
        .map(|c| c.sent[CommClass::Halo as usize].bytes)
        .sum();
    let transfer: u64 = cc
        .iter()
        .map(|c| c.sent[CommClass::Transfer as usize].bytes)
        .sum();
    assert!(transfer > 0, "multigrid must move transfer data");
    assert!(
        (transfer as f64) < 0.35 * halo as f64,
        "transfers ({transfer}) should be a small fraction of halo traffic ({halo})"
    );
}

#[test]
fn roe_scheme_distributed_matches_serial_and_cuts_messages() {
    use crate::config::Scheme;
    let run_scheme = |scheme: Scheme| {
        let seq = small_seq(1);
        let cfg = SolverConfig {
            mach: 0.5,
            scheme,
            ..SolverConfig::default()
        };
        let mut serial = single_grid(&seq, cfg);
        let hs = serial.solve(3);
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let r = run_distributed(&setup, cfg, Strategy::SingleGrid, 3, DistOptions::default());
        for (a, b) in hs.iter().zip(r.history()) {
            assert!(
                (a - b).abs() < 1e-9 * a.max(1e-30),
                "{scheme:?}: {a} vs {b}"
            );
        }
        let wd = r.global_state(setup.seq.meshes[0].nverts());
        compare_states(&serial.state().to_aos(), &wd, 1e-9, "roe dist");
        let msgs: u64 = r
            .cycle_counters()
            .iter()
            .map(|c| c.sent[CommClass::Halo as usize].messages)
            .sum();
        msgs
    };
    let jst_msgs = run_scheme(Scheme::CentralJst);
    let roe_msgs = run_scheme(Scheme::RoeUpwind);
    // Roe needs no Laplacian/sensor exchanges: materially fewer messages.
    assert!(
        (roe_msgs as f64) < 0.9 * jst_msgs as f64,
        "Roe {roe_msgs} vs JST {jst_msgs} halo messages"
    );
}

#[test]
fn steady_state_cycles_are_allocation_free() {
    // The zero-allocation property: after warm-up cycles size every
    // rank's window records and staging buffer, the entire multigrid
    // cycle — halo gathers/scatters, inter-grid transfers, monitoring
    // collectives — must perform zero fresh communication-buffer
    // allocations.
    use crate::dist::DistSolver;
    use eul3d_delta::run_spmd;

    let seq = small_seq(2);
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let setup = DistSetup::new(seq, 4, 20, pseed());
    let run = run_spmd(setup.nranks, |rank| {
        let mut solver =
            DistSolver::build(rank, &setup, cfg, Strategy::VCycle, DistOptions::default());
        for _ in 0..2 {
            let (sum, n) = solver.cycle(rank);
            let mut parts = [sum, n];
            rank.all_reduce_sum_in_place(&mut parts);
        }
        let warm = rank.counters.comm_allocs;
        let warm_phase = solver.counter.allocs();
        for _ in 0..5 {
            let (sum, n) = solver.cycle(rank);
            let mut parts = [sum, n];
            rank.all_reduce_sum_in_place(&mut parts);
        }
        (
            warm,
            rank.counters.comm_allocs,
            warm_phase,
            solver.counter.allocs(),
        )
    });
    for (id, &(warm, steady, warm_phase, steady_phase)) in run.results.iter().enumerate() {
        assert!(warm > 0, "rank {id}: warm-up must size the buffers");
        assert_eq!(
            steady,
            warm,
            "rank {id}: steady-state cycles allocated {} fresh comm buffers",
            steady - warm
        );
        // The executor layer's per-phase accounting sees the same thing.
        assert_eq!(steady_phase, warm_phase, "rank {id}: phase accounting");
    }
}

mod faults {
    //! Fault-injection acceptance tests: a run that loses a rank
    //! mid-flight (plus corrupted/dropped messages) must detect, roll
    //! back to the last replicated checkpoint, rebuild its PARTI
    //! schedules, and converge to the **bit-identical** residual history
    //! and final state of the fault-free run.

    use std::sync::Arc;

    use eul3d_delta::FaultPlan;

    use super::*;
    use crate::dist::{run_distributed_with_faults, FaultOptions, RankFate};

    fn fault_opts(spec: &str, nranks: usize, checkpoint_every: usize) -> FaultOptions {
        FaultOptions {
            plan: Arc::new(FaultPlan::parse(spec, nranks).expect("valid fault spec")),
            checkpoint_every,
            ..FaultOptions::default()
        }
    }

    fn assert_bit_identical(
        clean: &super::super::DistRunResult,
        faulted: &super::super::DistRunResult,
        nverts: usize,
    ) {
        let (hc, hf) = (clean.history(), faulted.history());
        assert_eq!(hc.len(), hf.len(), "history length");
        for (i, (a, b)) in hc.iter().zip(hf).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cycle {i}: residuals diverge ({a:e} vs {b:e})"
            );
        }
        let (wc, wf) = (clean.global_state(nverts), faulted.global_state(nverts));
        for (i, (a, b)) in wc.iter().zip(&wf).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "state entry {i} diverges");
        }
    }

    #[test]
    fn kill_corrupt_and_drop_recover_bit_identical() {
        // The issue's acceptance scenario: one rank killed mid-cycle, one
        // corrupted message, one dropped message, on a 4-rank 2-level
        // V-cycle run with a 2-cycle checkpoint cadence.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let cycles = 8;

        let clean = run_distributed(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            DistOptions::default(),
        );
        let fopts = fault_opts("corrupt:1>0#0@2,drop:2>3#0@3,kill:2@5+7", 4, 2);
        let faulted = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            DistOptions::default(),
            &fopts,
        )
        .expect("faulted run completes");

        assert_bit_identical(&clean, &faulted, nverts);

        // Rank 2 died and its partition finished on rank 3 (its buddy).
        assert!(matches!(faulted.run.results[2].fate, RankFate::Died { .. }));
        let replica = faulted.instance(2).expect("vid 2 must complete somewhere");
        assert_eq!(replica.fate, RankFate::Completed);
        assert!(
            faulted.run.results[3].adopted.iter().any(|a| a.vid == 2),
            "rank 3 is the first live rank after 2 and must adopt it"
        );
        // Every fault forced its own recovery epoch on the survivors.
        for &vid in &[0usize, 1, 3] {
            assert!(
                faulted.run.counters[vid].recoveries >= 3,
                "rank {vid}: expected 3 recovery epochs, saw {}",
                faulted.run.counters[vid].recoveries
            );
        }
        // The fault-free run stays fault-free.
        assert!(clean.run.counters.iter().all(|c| c.recoveries == 0));
    }

    #[test]
    fn recovery_without_checkpoints_restarts_from_initial_state() {
        // checkpoint_every = 0: nobody has a rollback target, so the
        // agreement lands on "restart from initial conditions" — still
        // bit-identical, just pricier.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(1);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let cycles = 5;

        let clean = run_distributed(
            &setup,
            cfg,
            Strategy::SingleGrid,
            cycles,
            DistOptions::default(),
        );
        let fopts = fault_opts("kill:1@3+5", 4, 0);
        let faulted = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::SingleGrid,
            cycles,
            DistOptions::default(),
            &fopts,
        )
        .expect("faulted run completes");
        assert_bit_identical(&clean, &faulted, nverts);
        assert!(matches!(faulted.run.results[1].fate, RankFate::Died { .. }));
        assert!(
            faulted.run.results[2].adopted.iter().any(|a| a.vid == 1),
            "rank 2 must adopt rank 1"
        );
    }

    #[test]
    fn recovered_run_is_allocation_free_once_rewarmed() {
        // The zero-allocation invariant survives recovery: once the
        // post-recovery epoch's fresh windows re-warm, every remaining
        // cycle (including its checkpoint and monitor collectives) runs
        // on their records. Asserted per instance via the per-cycle
        // allocation trace — cross-run totals are not comparable because
        // where the abort catches each rank depends on thread timing.
        // The huge wait window keeps detection purely on death notices,
        // so no spurious timeout epochs perturb the tail.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let setup = DistSetup::new(small_seq(2), 4, 20, pseed());
        let cycles = 12;
        let fopts = FaultOptions {
            recv_timeout_ms: 60_000,
            ..fault_opts("kill:1@2+9", 4, 2)
        };
        let r = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            DistOptions::default(),
            &fopts,
        )
        .expect("faulted run completes");
        assert!(matches!(r.run.results[1].fate, RankFate::Died { .. }));
        let mut completed = 0;
        for (vid, out) in r.instances() {
            if out.fate != RankFate::Completed {
                continue;
            }
            completed += 1;
            let a = &out.cycle_allocs;
            assert_eq!(a.len(), cycles, "vid {vid}: one trace entry per cycle");
            assert!(
                a[cycles - 1] > 0,
                "vid {vid}: setup must allocate something"
            );
            // The kill lands in cycle 1 and rolls everyone back to the
            // cycle-0 checkpoint; re-warming the epoch's exchange,
            // monitor, and checkpoint streams is done well before the
            // last third of the run.
            for i in cycles - 4..cycles {
                assert_eq!(
                    a[i],
                    a[i - 1],
                    "vid {vid}: steady-state cycle {i} allocated {} fresh buffers",
                    a[i] - a[i - 1]
                );
            }
        }
        assert_eq!(completed, 4, "all four partitions must finish somewhere");
        // Exactly one recovery epoch: the kill, detected via death
        // notices, with no timeout-induced extras.
        for &vid in &[0usize, 2, 3] {
            assert_eq!(r.run.counters[vid].recoveries, 1, "rank {vid}");
        }
    }

    #[test]
    fn delayed_message_changes_cost_but_not_the_answer() {
        // A delay fault perturbs only the cost model: identical values,
        // non-zero fault ticks priced into the machine time.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(1);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let clean = run_distributed(&setup, cfg, Strategy::SingleGrid, 3, DistOptions::default());
        let fopts = fault_opts("delay:0>1#0@2=400", 4, 0);
        let faulted = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::SingleGrid,
            3,
            DistOptions::default(),
            &fopts,
        )
        .expect("faulted run completes");
        assert_bit_identical(&clean, &faulted, nverts);
        assert!(faulted.run.counters.iter().all(|c| c.recoveries == 0));
        let ticks: u64 = faulted.run.counters.iter().map(|c| c.fault_ticks).sum();
        assert_eq!(ticks, 400, "the delay must be charged to the cost model");
    }
}

#[test]
fn distributed_freestream_preservation() {
    // Uniform flow on an all-far-field box, distributed: residual must
    // be round-off and state unchanged.
    let seq = MeshSequence::box_sequence(5, 2, 0.15, 9);
    let cfg = SolverConfig::default();
    let nverts = seq.meshes[0].nverts();
    let fsw = cfg.freestream().w;
    let setup = DistSetup::new(seq, 4, 20, crate::env_seed(1));
    let r = run_distributed(&setup, cfg, Strategy::VCycle, 2, DistOptions::default());
    assert!(r.history().iter().all(|&x| x < 1e-11), "{:?}", r.history());
    let w = r.global_state(nverts);
    for i in 0..nverts {
        for c in 0..NVAR {
            assert!((w[i * NVAR + c] - fsw[c]).abs() < 1e-9);
        }
    }
}

mod guard {
    //! Solver-health guard on the distributed backend: the backoff +
    //! rollback decisions must match the serial guard event-for-event
    //! (same cycles, same rollback targets, bit-identical CFL schedule),
    //! the guard must compose with fault recovery bit-identically, and
    //! exhausted retries must surface as the same typed error.

    use std::sync::Arc;

    use eul3d_delta::FaultPlan;

    use super::*;
    use crate::dist::{run_distributed_with_faults, DistRunResult, FaultOptions, RankFate};
    use crate::error::{Eul3dError, SolverError};
    use crate::health::GuardConfig;

    /// The issue's seeded diverging case: a stretched (tapered) bump
    /// mesh on which CFL 30 blows up within a handful of cycles while
    /// CFL 7.5 converges cleanly.
    fn stretched_seq() -> MeshSequence {
        let spec = BumpSpec {
            nx: 10,
            ny: 4,
            nz: 3,
            taper: 0.6,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        MeshSequence::bump_sequence(&spec, 2)
    }

    fn aggressive_cfg() -> SolverConfig {
        SolverConfig {
            mach: 0.5,
            cfl: 30.0,
            ..SolverConfig::default()
        }
    }

    /// One decisive backoff (30 → 7.5) and no re-ramp inside the run, so
    /// the schedule stays easy to reason about across backends.
    fn guard_cfg() -> GuardConfig {
        GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..GuardConfig::default()
        }
    }

    /// Fault-free, guarded options with a receive window large enough
    /// that detection rests purely on death notices — no timeout epochs.
    /// No checkpoint cadence: [`crate::health::rollback_every`]'s 5.
    fn quiet_faults() -> FaultOptions {
        FaultOptions {
            recv_timeout_ms: 60_000,
            guard: Some(guard_cfg()),
            ..FaultOptions::default()
        }
    }

    fn killing_faults(spec: &str, nranks: usize) -> FaultOptions {
        FaultOptions {
            plan: Arc::new(FaultPlan::parse(spec, nranks).expect("valid fault spec")),
            ..quiet_faults()
        }
    }

    /// The stretched case on `setup` under `fopts`, 12 V-cycles at CFL 30.
    fn guarded(setup: &DistSetup, fopts: &FaultOptions) -> Result<DistRunResult, Eul3dError> {
        let opts = DistOptions::default();
        run_distributed_with_faults(setup, aggressive_cfg(), Strategy::VCycle, 12, opts, fopts)
    }

    #[test]
    fn distributed_guard_agrees_with_serial_decisions() {
        let cfg = aggressive_cfg();
        let guard = guard_cfg();
        let cycles = 12;

        let mut serial = MultigridSolver::new(stretched_seq(), cfg, Strategy::VCycle);
        let plan = RunPlan {
            guard: Some(&guard),
            ..RunPlan::cycles(cycles)
        };
        let (hs, os) = serial
            .run(plan, &mut |_, _| {})
            .expect("serial guarded run completes");
        let os = os.expect("an armed guard reports");
        assert!(
            !os.transcript.is_empty(),
            "the CFL-30 case must trigger at least one backoff epoch"
        );

        let setup = DistSetup::new(stretched_seq(), 4, 20, pseed());
        let r = guarded(&setup, &quiet_faults()).expect("distributed guarded run completes");
        let od = r.guard_outcome().expect("guarded run records an outcome");

        // Decision-for-decision agreement: same retry cycles, same
        // rollback targets, same verdict severities (the distributed
        // verdict is pooled, so per-vertex detail is canonicalised
        // away), and a bit-identical CFL schedule.
        assert_eq!(os.transcript.len(), od.transcript.len(), "retry count");
        for (a, b) in os.transcript.iter().zip(&od.transcript) {
            assert_eq!(a.cycle, b.cycle, "retry cycle");
            assert_eq!(a.rollback_to, b.rollback_to, "rollback target");
            assert_eq!(
                a.verdict.canonical(),
                b.verdict.canonical(),
                "verdict severity"
            );
            assert_eq!(a.cfl_before.to_bits(), b.cfl_before.to_bits());
            assert_eq!(a.cfl_after.to_bits(), b.cfl_after.to_bits());
        }
        assert_eq!(os.final_cfl.to_bits(), od.final_cfl.to_bits());
        assert_eq!(os.target_cfl.to_bits(), od.target_cfl.to_bits());
        assert!(od.exhausted.is_none());

        // Every rank reaches the same outcome — the agreement protocol
        // leaves no room for divergent transcripts.
        for (vid, out) in r.instances() {
            let g = out
                .guard
                .as_ref()
                .expect("every instance carries the outcome");
            assert_eq!(g.transcript.len(), od.transcript.len(), "vid {vid}");
            assert_eq!(g.final_cfl.to_bits(), od.final_cfl.to_bits(), "vid {vid}");
        }

        // The post-recovery residual history tracks the serial one to
        // accumulation-order round-off.
        let hd = r.history();
        assert_eq!(hs.len(), hd.len());
        for (i, (a, b)) in hs.iter().zip(hd).enumerate() {
            assert!(
                (a - b).abs() < 1e-8 * a.max(1e-30),
                "cycle {i}: residual histories diverge ({a:e} vs {b:e})"
            );
        }
    }

    #[test]
    fn guard_composes_with_fault_recovery_bit_identically() {
        // Two orderings of the two recovery kinds, each of which must
        // reproduce the guarded fault-free run bit-for-bit:
        //  * kill at cycle 2, before the guard trips at cycle 4 — fault
        //    rollback first, then the numeric backoff is re-detected
        //    during the replay;
        //  * kill at cycle 7, after the backoff — the cycle-5
        //    checkpoint's guard blob (carrying the retry event and the
        //    backed-off CFL) must survive the fault rollback.
        let seq = stretched_seq();
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());

        let clean = guarded(&setup, &quiet_faults()).expect("guarded fault-free run completes");
        let oc = clean.guard_outcome().expect("outcome");
        assert_eq!(oc.transcript.len(), 1, "exactly one backoff epoch");
        for c in &clean.run.counters {
            assert_eq!(c.recoveries, 0, "a guard rollback opens no epoch");
        }

        for (spec, victim, order) in [
            ("kill:2@2+9", 2usize, "kill before the guard trips"),
            ("kill:1@7+9", 1usize, "kill after the backoff"),
        ] {
            let faulted = guarded(&setup, &killing_faults(spec, 4))
                .unwrap_or_else(|e| panic!("{order}: guarded faulted run fails: {e}"));

            assert!(
                matches!(faulted.run.results[victim].fate, RankFate::Died { .. }),
                "{order}: rank {victim} must die"
            );
            let replica = faulted
                .instance(victim)
                .expect("victim partition finishes on its buddy");
            assert_eq!(replica.fate, RankFate::Completed);

            // Bitwise identity of the physics.
            let (hc, hf) = (clean.history(), faulted.history());
            assert_eq!(hc.len(), hf.len(), "{order}: history length");
            for (i, (a, b)) in hc.iter().zip(hf).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{order}: cycle {i} residuals diverge ({a:e} vs {b:e})"
                );
            }
            let (wc, wf) = (clean.global_state(nverts), faulted.global_state(nverts));
            for (i, (a, b)) in wc.iter().zip(&wf).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{order}: state entry {i}");
            }

            // ... and of the guard's view of the run, on every instance
            // including the adopted replica of the dead rank.
            for (vid, out) in faulted.instances() {
                if out.fate != RankFate::Completed {
                    continue;
                }
                let g = out.guard.as_ref().expect("outcome");
                assert_eq!(g.transcript.len(), oc.transcript.len(), "{order} vid {vid}");
                for (a, b) in oc.transcript.iter().zip(&g.transcript) {
                    assert_eq!(a.cycle, b.cycle, "{order} vid {vid}");
                    assert_eq!(a.rollback_to, b.rollback_to, "{order} vid {vid}");
                    assert_eq!(a.cfl_after.to_bits(), b.cfl_after.to_bits());
                }
                assert_eq!(g.final_cfl.to_bits(), oc.final_cfl.to_bits());
            }
            assert_eq!(
                faulted.guard_outcome(),
                Some(oc),
                "{order}: the same outcome, to the bit"
            );

            // Survivors see one epoch, the fault recovery: the guard
            // rollback opens none, and the replica merged into its
            // hosting buddy joins that epoch without opening another.
            for (vid, c) in faulted.run.counters.iter().enumerate() {
                if vid != victim {
                    assert_eq!(c.recoveries, 1, "{order}: rank {vid} epochs");
                }
            }
        }
    }

    #[test]
    fn a_guard_rollback_restores_in_place_without_an_epoch() {
        // The pooled reduction gives every rank the verdict and every
        // rank holds the same newest checkpoint, so each restores it in
        // place: no recovery epoch, no recovery traffic, and no second
        // set of windows — the rejecting run allocates what a guarded
        // run that never trips does.
        use eul3d_obs as obs;

        use crate::dist::DistBackend;
        use crate::executor::Phase;

        let setup = DistSetup::new(stretched_seq(), 4, 20, pseed());
        for backend in [DistBackend::Delta, DistBackend::Hybrid] {
            let run = |cfl: f64| {
                let opts = DistOptions {
                    backend,
                    trace_capacity: Some(1 << 15),
                    ..DistOptions::default()
                };
                let cfg = SolverConfig {
                    cfl,
                    ..aggressive_cfg()
                };
                run_distributed_with_faults(
                    &setup,
                    cfg,
                    Strategy::VCycle,
                    12,
                    opts,
                    &quiet_faults(),
                )
                .expect("guarded run completes")
            };
            let (tripped, calm) = (run(30.0), run(7.5));
            let o = tripped.guard_outcome().expect("outcome");
            assert_eq!(o.transcript.len(), 1, "{backend:?}: one backoff");
            assert!(calm.guard_outcome().expect("outcome").transcript.is_empty());
            for (vid, c) in tripped.run.counters.iter().enumerate() {
                assert_eq!(c.recoveries, 0, "{backend:?} rank {vid}: epochs");
            }
            for (vid, p) in tripped.phase_counters().iter().enumerate() {
                let msgs = p.comm_msgs[Phase::Recovery.index()];
                assert_eq!(msgs, 0, "{backend:?} rank {vid}: recovery messages");
            }
            for lane in tripped.lanes() {
                let has = |ev: fn(&obs::Event) -> bool| lane.events.iter().any(|s| ev(&s.ev));
                let name = &lane.name;
                assert!(
                    !has(|e| matches!(e, obs::Event::RecoveryBegin { .. })),
                    "{name}"
                );
                assert!(
                    has(|e| matches!(e, obs::Event::GuardVerdict { .. })),
                    "{name}"
                );
                assert!(has(|e| matches!(e, obs::Event::CflChange { .. })), "{name}");
            }
            let last = |r: &DistRunResult| -> Vec<u64> {
                let allocs = r.run.results.iter().map(|o| o.cycle_allocs.last().copied());
                allocs.map(|a| a.expect("12 cycles")).collect()
            };
            assert_eq!(
                last(&tripped),
                last(&calm),
                "{backend:?}: fresh allocations"
            );
        }
    }

    #[test]
    fn guarded_recovery_keeps_cycles_allocation_free() {
        // The zero-steady-state-allocation invariant survives both
        // rollback kinds: after the guard rollback (clean run) and
        // after guard + fault recovery (killed run), the per-cycle
        // allocation trace is flat over the tail of the run.
        let cycles = 12;
        let setup = DistSetup::new(stretched_seq(), 4, 20, pseed());

        for (fopts, label) in [
            (quiet_faults(), "guard rollback only"),
            (killing_faults("kill:1@7+9", 4), "guard + fault recovery"),
        ] {
            let r = guarded(&setup, &fopts).unwrap_or_else(|e| panic!("{label}: run fails: {e}"));
            let mut completed = 0;
            for (vid, out) in r.instances() {
                if out.fate != RankFate::Completed {
                    continue;
                }
                completed += 1;
                let a = &out.cycle_allocs;
                assert_eq!(a.len(), cycles, "{label} vid {vid}: one entry per cycle");
                for i in cycles - 3..cycles {
                    assert_eq!(
                        a[i],
                        a[i - 1],
                        "{label} vid {vid}: steady-state cycle {i} allocated {} fresh buffers",
                        a[i] - a[i - 1]
                    );
                }
            }
            assert_eq!(completed, 4, "{label}: all partitions must finish");
        }
    }

    #[test]
    fn distributed_retry_exhaustion_is_a_typed_error() {
        // A backoff too timid to matter (0.95) exhausts its two retries
        // and every rank stops deterministically; the driver converts
        // the agreed exhaustion into the same typed error the serial
        // guard returns, transcript included.
        let guard = GuardConfig {
            cfl_backoff: 0.95,
            max_retries: 2,
            reramp_after: 100,
            ..GuardConfig::default()
        };
        let setup = DistSetup::new(stretched_seq(), 4, 20, pseed());
        let fopts = FaultOptions {
            guard: Some(guard),
            ..quiet_faults()
        };
        let Err(err) = guarded(&setup, &fopts) else {
            panic!("a 0.95 backoff cannot save CFL 30")
        };
        match err {
            Eul3dError::Solver(SolverError::RetriesExhausted {
                cycle,
                transcript,
                max_retries,
                ..
            }) => {
                assert_eq!(max_retries, 2);
                assert_eq!(transcript.len(), 2, "one event per spent retry");
                assert!(
                    transcript[1].cfl_after < transcript[0].cfl_after,
                    "the schedule must still be strictly decreasing"
                );
                assert!(cycle >= transcript[1].cycle, "final failure comes last");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn the_entry_validates_the_guard() {
        // A guard that cannot make progress is refused before any rank
        // starts, with the serial driver's typed error.
        let setup = DistSetup::new(stretched_seq(), 2, 20, pseed());
        let fopts = FaultOptions {
            guard: Some(GuardConfig {
                cfl_backoff: 1.0,
                ..guard_cfg()
            }),
            ..quiet_faults()
        };
        let err = guarded(&setup, &fopts).err();
        assert!(matches!(
            err,
            Some(Eul3dError::Solver(SolverError::ConfigOutOfRange {
                field: "guard.cfl_backoff",
                ..
            }))
        ));
    }
}

mod hybrid {
    //! The hybrid backend: same schedules, same numerics, same windows,
    //! another report. Bit-identical to the delta backend — and
    //! therefore transitively to the serial/shared solvers within their
    //! established tolerances — and event-identical on the modeled
    //! clock, plus the wall time that distinguishes it. Migrations and
    //! fault recoveries give each new epoch's schedules fresh windows.

    use std::sync::Arc;

    use eul3d_delta::FaultPlan;
    use eul3d_obs as obs;

    use super::repartition::policy;
    use super::*;
    use crate::dist::{
        run_distributed_with_faults, DistBackend, DistRunResult, FaultOptions, RankFate,
    };
    use crate::executor::Phase;
    use crate::health::GuardConfig;

    fn hybrid_opts() -> DistOptions {
        DistOptions {
            backend: DistBackend::Hybrid,
            ..DistOptions::default()
        }
    }

    /// `opts` with every lane traced on the modeled clock, for
    /// [`assert_same_lanes`].
    fn traced(opts: DistOptions) -> DistOptions {
        DistOptions {
            trace_capacity: Some(1 << 15),
            ..opts
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

    fn assert_runs_bit_identical(
        a: &crate::dist::DistRunResult,
        b: &crate::dist::DistRunResult,
        nverts: usize,
        what: &str,
    ) {
        let (ha, hb) = (a.history(), b.history());
        assert_eq!(ha.len(), hb.len(), "{what}: history length");
        for (i, (x, y)) in ha.iter().zip(hb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: cycle {i} residuals diverge ({x:e} vs {y:e})"
            );
        }
        let (wa, wb) = (a.global_state(nverts), b.global_state(nverts));
        for (i, (x, y)) in wa.iter().zip(&wb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: state entry {i}");
        }
    }

    #[test]
    fn four_backends_one_answer_single_grid() {
        // The 4-way equivalence: serial and shared agree to round-off;
        // delta and hybrid agree *bitwise* (identical
        // pack/zero/accumulate orders), and both sit within round-off of
        // serial.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let cycles = 4;
        let seq = small_seq(1);
        let nverts = seq.meshes[0].nverts();

        let mut serial = single_grid(&seq, cfg);
        let hs = serial.solve(cycles);

        let mut shared = MultigridSolver::new_shared(small_seq(1), cfg, Strategy::SingleGrid, 3)
            .expect("shared solver builds");
        let hsh = shared.solve(cycles);

        let setup = DistSetup::new(seq, 4, 20, pseed());
        let delta = run_distributed(
            &setup,
            cfg,
            Strategy::SingleGrid,
            cycles,
            DistOptions::default(),
        );
        let hybrid = run_distributed(&setup, cfg, Strategy::SingleGrid, cycles, hybrid_opts());

        assert_runs_bit_identical(&delta, &hybrid, nverts, "hybrid vs delta");
        for (i, (a, b)) in hs.iter().zip(hybrid.history()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * a.max(1e-30),
                "cycle {i}: serial vs hybrid ({a:e} vs {b:e})"
            );
        }
        for (i, (a, b)) in hs.iter().zip(&hsh).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * a.max(1e-30),
                "cycle {i}: serial vs shared ({a:e} vs {b:e})"
            );
        }
        compare_states(
            &serial.state().to_aos(),
            &hybrid.global_state(nverts),
            1e-9,
            "serial vs hybrid state",
        );
    }

    #[test]
    fn hybrid_multigrid_matches_delta_bitwise_with_equal_modeled_cost() {
        // Multigrid stresses every stream kind (both halo tags per
        // level, transfers, collectives). Besides bitwise physics, the
        // *modeled* communication accounting must be identical: both
        // backends publish the same records at the same charge, so one
        // hybrid run still reports the simulated-Delta cost.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let delta = run_distributed(
            &setup,
            cfg,
            Strategy::VCycle,
            4,
            traced(DistOptions::default()),
        );
        let hybrid = run_distributed(&setup, cfg, Strategy::VCycle, 4, traced(hybrid_opts()));
        assert_runs_bit_identical(&delta, &hybrid, nverts, "vcycle hybrid vs delta");
        assert_same_lanes(&delta, &hybrid, "vcycle");
        assert!(
            hybrid.wall_seconds > 0.0,
            "the driver must measure the SPMD region"
        );

        let (cd, ch) = (delta.cycle_counters(), hybrid.cycle_counters());
        for (vid, (d, h)) in cd.iter().zip(&ch).enumerate() {
            assert_eq!(
                d.sent[CommClass::Halo as usize].messages,
                h.sent[CommClass::Halo as usize].messages,
                "rank {vid}: halo message parity"
            );
            assert_eq!(
                d.sent[CommClass::Halo as usize].bytes,
                h.sent[CommClass::Halo as usize].bytes,
                "rank {vid}: halo byte parity"
            );
            assert_eq!(
                d.total_messages(),
                h.total_messages(),
                "rank {vid}: total message parity"
            );
            assert_eq!(d.hops, h.hops, "rank {vid}: hop parity");
        }
    }

    #[test]
    fn hybrid_guard_composes_bit_identically() {
        // Guard × hybrid, with and without migrations: the guard
        // rollback path must reproduce the delta backend's guarded run
        // decision-for-decision, bit-for-bit and event-for-event.
        let spec = BumpSpec {
            nx: 10,
            ny: 4,
            nz: 3,
            taper: 0.6,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        let seq = MeshSequence::bump_sequence(&spec, 2);
        let nverts = seq.meshes[0].nverts();
        let cfg = SolverConfig {
            mach: 0.5,
            cfl: 30.0,
            ..SolverConfig::default()
        };
        let guard = GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..GuardConfig::default()
        };
        let fopts = FaultOptions {
            recv_timeout_ms: 60_000,
            guard: Some(guard),
            ..FaultOptions::default()
        };
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let run = |opts: DistOptions| {
            run_distributed_with_faults(&setup, cfg, Strategy::VCycle, 12, opts, &fopts)
                .expect("guarded run completes")
        };
        for repartition in [None, Some(policy(3))] {
            let what = format!("guarded hybrid vs delta, repartition {repartition:?}");
            let delta = run(traced(DistOptions {
                repartition,
                ..DistOptions::default()
            }));
            let hybrid = run(traced(DistOptions {
                repartition,
                ..hybrid_opts()
            }));
            assert_runs_bit_identical(&delta, &hybrid, nverts, &what);
            assert_same_lanes(&delta, &hybrid, &what);

            let (od, oh) = (
                delta.guard_outcome().expect("outcome"),
                hybrid.guard_outcome().expect("outcome"),
            );
            assert!(!od.transcript.is_empty(), "the CFL-30 case must back off");
            assert_eq!(
                od.transcript.len(),
                oh.transcript.len(),
                "{what}: retry count"
            );
            for (a, b) in od.transcript.iter().zip(&oh.transcript) {
                assert_eq!(a.cycle, b.cycle, "{what}");
                assert_eq!(a.rollback_to, b.rollback_to, "{what}");
                assert_eq!(a.cfl_after.to_bits(), b.cfl_after.to_bits(), "{what}");
            }
            assert_eq!(od.final_cfl.to_bits(), oh.final_cfl.to_bits(), "{what}");
        }
    }

    #[test]
    fn migrations_ride_fresh_windows_with_the_delta_bits_traffic_and_lanes() {
        // The epoch bump of a migration shifts every schedule tag, so
        // each era's rebuilt schedules get fresh windows: same bits,
        // same per-rank cycle traffic, same flops and same lanes on both
        // backends.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let flops =
            |r: &DistRunResult| -> f64 { r.phase_counters().iter().map(|p| p.flops()).sum() };
        for every in [2, 3] {
            let run = |backend| {
                let opts = traced(DistOptions {
                    backend,
                    repartition: Some(policy(every)),
                    ..DistOptions::default()
                });
                run_distributed(&setup, cfg, Strategy::WCycle, 9, opts)
            };
            let (delta, hybrid) = (run(DistBackend::Delta), run(DistBackend::Hybrid));
            let what = format!("every {every}");
            assert_runs_bit_identical(&delta, &hybrid, nverts, &what);
            assert_same_lanes(&delta, &hybrid, &what);
            let (cd, ch) = (delta.cycle_counters(), hybrid.cycle_counters());
            for (vid, (d, h)) in cd.iter().zip(&ch).enumerate() {
                assert_eq!(d.total_messages(), h.total_messages(), "{what}: rank {vid}");
                assert_eq!(d.total_bytes(), h.total_bytes(), "{what}: rank {vid}");
            }
            assert_eq!(flops(&delta), flops(&hybrid), "{what}: flops");
        }
    }

    #[test]
    fn migrated_hybrid_traces_are_byte_identical_across_reruns() {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let setup = DistSetup::new(small_seq(2), 4, 20, pseed());
        let opts = DistOptions {
            trace_capacity: Some(1 << 15),
            repartition: Some(policy(3)),
            ..hybrid_opts()
        };
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        let trace = || {
            let r = run_distributed(&setup, cfg, Strategy::WCycle, 9, opts);
            obs::chrome_trace(&r.lanes(), &labels)
        };
        let first = trace();
        assert!(first.contains("\"repartition\""), "migration spans");
        for _ in 0..3 {
            assert_eq!(
                trace(),
                first,
                "migrated hybrid traces must be byte-identical"
            );
        }
    }

    #[test]
    fn hybrid_with_fault_plan_recovers_on_windows() {
        // A fault plan acts on the hybrid backend's records as on the
        // delta backend's: the corrupt record fails its checksum, the
        // kill strikes mid-stream, and the run reproduces the
        // checkpoint/rollback/adoption story bit-for-bit on windows, the
        // adopted replica's included.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let cycles = 8;

        let clean = run_distributed(&setup, cfg, Strategy::VCycle, cycles, hybrid_opts());
        let fopts = FaultOptions {
            plan: Arc::new(
                FaultPlan::parse("corrupt:1>0#0@2,kill:2@5+7", 4).expect("valid fault spec"),
            ),
            checkpoint_every: 2,
            ..FaultOptions::default()
        };
        let faulted = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            hybrid_opts(),
            &fopts,
        )
        .expect("faulted run completes");
        assert_runs_bit_identical(&clean, &faulted, nverts, "hybrid faulted vs clean");
        assert!(matches!(faulted.run.results[2].fate, RankFate::Died { .. }));
        assert!(
            faulted.run.results[3].adopted.iter().any(|a| a.vid == 2),
            "rank 3 must adopt rank 2"
        );
    }

    /// Publishes and consumes rank `r` runs in fault cycle `c` (≥ 2) of
    /// a clean, traced, unguarded run without checkpoints: its lane's
    /// record events after the monitor reduction that closes cycle
    /// `c - 1`, through the one that closes cycle `c` — the only
    /// collective such a cycle runs.
    fn ops_in_cycle(run: &DistRunResult, r: usize, c: usize) -> u64 {
        let lanes = run.lanes();
        let lane = lanes
            .iter()
            .find(|l| l.id as usize == r)
            .expect("rank lane");
        assert_eq!(lane.dropped, 0, "the lane must hold the whole run");
        let (mut closed, mut ops) = (0, 0);
        for e in &lane.events {
            let (tag, consumed) = match e.ev {
                obs::Event::MsgSend { tag, .. } => (tag, false),
                obs::Event::MsgRecv { tag, .. } => (tag, true),
                _ => continue,
            };
            if closed == c - 1 {
                ops += 1;
            }
            if consumed && tag >= eul3d_delta::COLLECTIVE_TAG_BASE {
                closed += 1;
                if closed == c {
                    return ops;
                }
            }
        }
        panic!("the run has no cycle {c}")
    }

    /// Kill rank 1 under `spec` on both backends, with a 2-cycle
    /// checkpoint cadence: every waiter must unwind through the death
    /// notice into one recovery epoch (a wedge would fail the run) and
    /// the run must finish on the clean bits, rank 1 dead after
    /// `died_after` cycles.
    fn assert_kill_recovers(spec: impl Fn(&DistRunResult) -> String, died_after: usize) {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        for opts in [DistOptions::default(), hybrid_opts()] {
            let clean = run_distributed(&setup, cfg, Strategy::VCycle, 5, traced(opts));
            let spec = spec(&clean);
            let fopts = FaultOptions {
                plan: Arc::new(FaultPlan::parse(&spec, 4).expect("valid fault spec")),
                checkpoint_every: 2,
                ..FaultOptions::default()
            };
            let what = format!("{spec} on {:?}", opts.backend);
            let faulted =
                run_distributed_with_faults(&setup, cfg, Strategy::VCycle, 5, opts, &fopts)
                    .expect("the waiters recover instead of wedging");
            assert_runs_bit_identical(&clean, &faulted, nverts, &what);
            assert_eq!(
                faulted.run.results[1].fate,
                RankFate::Died { cycle: died_after },
                "{what}"
            );
            for vid in [0usize, 2, 3] {
                assert_eq!(
                    faulted.run.counters[vid].recoveries, 1,
                    "{what}: rank {vid}"
                );
            }
        }
    }

    #[test]
    fn a_kill_inside_a_collective_unwinds_its_waiters_into_recovery() {
        // Rank 1 dies at the publish of its part of cycle 4's monitor
        // reduction (its second-to-last operation of the cycle, which
        // takes no checkpoint at this cadence): rank 0 waits in the
        // fan-in, ranks 2 and 3 in the fan-out.
        assert_kill_recovers(
            |clean| format!("kill:1@4+{}", ops_in_cycle(clean, 1, 4) - 2),
            3,
        );
    }

    #[test]
    fn a_kill_inside_the_inspector_all_to_all_unwinds_its_waiters_into_recovery() {
        // Rank 1's first operations are the request publishes of the
        // set-up inspector's all-to-all: it dies at its second, with
        // every peer inside the exchange. Nobody holds a checkpoint yet,
        // so the survivors and rank 1's replica restart from the
        // initial state.
        assert_kill_recovers(|_| "kill:1@0+1".to_string(), 0);
    }

    #[test]
    fn hybrid_refetch_ablation_and_roe_scheme_hold() {
        // The §4.3 ablation and the Roe message-count economics carry
        // over unchanged to the window transport.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let run = |refetch: bool| {
            let setup = DistSetup::new(small_seq(1), 4, 20, pseed());
            let opts = DistOptions {
                refetch_per_loop: refetch,
                ..hybrid_opts()
            };
            let r = run_distributed(&setup, cfg, Strategy::SingleGrid, 3, opts);
            let halo_bytes: u64 = r
                .cycle_counters()
                .iter()
                .map(|c| c.sent[CommClass::Halo as usize].bytes)
                .sum();
            (r.history().to_vec(), halo_bytes)
        };
        let (h0, b0) = run(false);
        let (h1, b1) = run(true);
        for (a, b) in h0.iter().zip(&h1) {
            assert!((a - b).abs() < 1e-10 * a.max(1e-30), "answers must agree");
        }
        assert!(
            b1 as f64 > b0 as f64 * 1.15,
            "refetching every loop must move materially more data: {b0} vs {b1}"
        );
    }
}

mod trace {
    //! Observability on the distributed backend: arming a per-rank ring
    //! tracer must not change results or break the zero-allocation
    //! steady state, and identical runs must export byte-identical
    //! Chrome traces — including through fault recovery.

    use eul3d_obs as obs;

    use super::*;
    use crate::dist::{run_distributed_with_faults, DistSolver, RankFate};
    use crate::executor::Phase;

    fn traced(cap: usize) -> DistOptions {
        DistOptions {
            trace_capacity: Some(cap),
            ..DistOptions::default()
        }
    }

    fn labels() -> Vec<&'static str> {
        Phase::ALL.iter().map(|p| p.label()).collect()
    }

    #[test]
    fn armed_steady_state_stays_allocation_free() {
        // The zero-allocation tentpole holds with a RingTracer armed:
        // recording goes into the pre-allocated ring, so warm vs steady
        // comm-buffer allocation counts stay equal, and the ring itself
        // retained events without growing past its capacity.
        use eul3d_delta::run_spmd;

        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let setup = DistSetup::new(small_seq(2), 4, 20, pseed());
        let cap = 1 << 14;
        let run = run_spmd(setup.nranks, |rank| {
            obs::install(Box::new(obs::RingTracer::new(cap)));
            let mut solver =
                DistSolver::build(rank, &setup, cfg, Strategy::VCycle, DistOptions::default());
            for _ in 0..2 {
                let (sum, n) = solver.cycle(rank);
                let mut parts = [sum, n];
                rank.all_reduce_sum_in_place(&mut parts);
            }
            let warm = rank.counters.comm_allocs;
            for _ in 0..5 {
                let (sum, n) = solver.cycle(rank);
                let mut parts = [sum, n];
                rank.all_reduce_sum_in_place(&mut parts);
            }
            let t = obs::take().expect("tracer was armed");
            (warm, rank.counters.comm_allocs, t.snapshot().len())
        });
        for (id, &(warm, steady, nevents)) in run.results.iter().enumerate() {
            assert!(warm > 0, "rank {id}: warm-up must size the buffers");
            assert_eq!(
                steady, warm,
                "rank {id}: tracing must not cost fresh comm buffers"
            );
            assert!(nevents > 0, "rank {id}: the ring must have recorded");
            assert!(nevents <= cap, "rank {id}: ring overflowed its capacity");
        }
    }

    #[test]
    fn traces_are_deterministic_with_one_lane_per_rank() {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let setup = DistSetup::new(small_seq(2), 4, 20, pseed());

        let clean = run_distributed(&setup, cfg, Strategy::VCycle, 4, DistOptions::default());
        let a = run_distributed(&setup, cfg, Strategy::VCycle, 4, traced(1 << 15));
        let b = run_distributed(&setup, cfg, Strategy::VCycle, 4, traced(1 << 15));

        // Arming never changes the modeled run.
        assert_eq!(clean.history(), a.history(), "tracing changed residuals");

        let (la, lb) = (a.lanes(), b.lanes());
        assert_eq!(la.len(), setup.nranks, "one lane per rank");
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.events, y.events, "lane {}: events diverge", x.name);
            assert!(!x.events.is_empty(), "lane {}: no events", x.name);
        }
        // And so the exported artifact is byte-identical.
        assert_eq!(
            obs::chrome_trace(&la, &labels()),
            obs::chrome_trace(&lb, &labels())
        );
    }

    #[test]
    fn fault_recovery_trace_is_deterministic_with_epoch_markers() {
        // A guarded, fault-injected run on the diverging stretched case:
        // the trace must carry the recovery epoch (begin/end, own lane
        // for the adopted partition) and the guard's CFL-backoff marker,
        // and two identical runs must export byte-identical traces.
        let spec = BumpSpec {
            nx: 10,
            ny: 4,
            nz: 3,
            taper: 0.6,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        let setup = DistSetup::new(MeshSequence::bump_sequence(&spec, 2), 4, 20, pseed());
        let cfg = SolverConfig {
            mach: 0.5,
            cfl: 30.0,
            ..SolverConfig::default()
        };
        let guard = crate::health::GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..crate::health::GuardConfig::default()
        };
        let fopts = crate::dist::FaultOptions {
            plan: std::sync::Arc::new(
                eul3d_delta::FaultPlan::parse("kill:1@6+9", 4).expect("valid fault spec"),
            ),
            checkpoint_every: 2,
            recv_timeout_ms: 60_000,
            guard: Some(guard),
        };
        let run = |cap| {
            run_distributed_with_faults(&setup, cfg, Strategy::VCycle, 12, traced(cap), &fopts)
                .expect("guarded fault run completes")
        };
        let a = run(1 << 15);
        let b = run(1 << 15);

        assert!(matches!(a.run.results[1].fate, RankFate::Died { .. }));
        let la = a.lanes();
        assert_eq!(
            la.len(),
            setup.nranks + 1,
            "the adopted partition gets its own lane"
        );
        let all =
            |ev: fn(&obs::Event) -> bool| la.iter().flat_map(|l| &l.events).any(|s| ev(&s.ev));
        assert!(
            all(|e| matches!(e, obs::Event::RecoveryBegin { epoch } if *epoch > 0)),
            "recovery epoch missing from the trace"
        );
        assert!(
            all(|e| matches!(e, obs::Event::CflChange { .. })),
            "CFL-backoff marker missing from the trace"
        );
        assert!(
            all(|e| matches!(e, obs::Event::CheckpointBegin { .. })),
            "checkpoint spans missing from the trace"
        );

        let (ta, tb) = (
            obs::chrome_trace(&la, &labels()),
            obs::chrome_trace(&b.lanes(), &labels()),
        );
        assert_eq!(ta, tb, "fault-recovery traces must be byte-identical");
    }
}

mod repartition {
    //! Mid-run repartitioning: at every `repartition_every` committed
    //! cycles the machine checkpoints, bumps into a fresh epoch, rebuilds
    //! every schedule against a new partition plan, and resumes — a
    //! planned, deterministic migration riding the fault-recovery
    //! machinery.

    use std::sync::Arc;

    use eul3d_delta::FaultPlan;
    use eul3d_obs as obs;
    use eul3d_partition::RankMapping;

    use super::*;
    use crate::dist::{run_distributed_with_faults, FaultOptions, RankFate, RepartitionPolicy};
    use crate::runconfig::{PartitionConfig, PartitionMethod};

    pub(super) fn policy(every: usize) -> RepartitionPolicy {
        RepartitionPolicy {
            config: PartitionConfig {
                method: PartitionMethod::Multilevel,
                coarsen_target: 16,
                refine_passes: 4,
                mapping: RankMapping::Topology,
                repartition_every: every,
            },
            lanczos_iters: 20,
            seed: pseed(),
        }
    }

    fn repart_opts(every: usize) -> DistOptions {
        DistOptions {
            repartition: Some(policy(every)),
            ..DistOptions::default()
        }
    }

    #[test]
    fn migration_changes_ownership_and_reruns_bit_identical() {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let cycles = 9;

        let run = || run_distributed(&setup, cfg, Strategy::VCycle, cycles, repart_opts(3));
        let a = run();
        let b = run();

        // Planned migrations are silent epoch bumps, not recoveries.
        for (id, c) in a.run.counters.iter().enumerate() {
            assert_eq!(c.recoveries, 0, "rank {id}: migrations are not recoveries");
        }
        // Ownership genuinely changed: some rank's final owned set
        // differs from the era-0 partition it started with.
        let moved = a
            .run
            .results
            .iter()
            .enumerate()
            .any(|(id, r)| r.owned_globals != setup.pms[0].ranks[id].owned_globals);
        assert!(moved, "repartitioning must actually move vertices");
        assert!(a
            .run
            .results
            .iter()
            .all(|r| matches!(r.fate, RankFate::Completed)));

        // The migration is a pure function of the committed cycle, so a
        // rerun is bit-identical in history and state.
        assert_eq!(a.history().len(), cycles);
        for (x, y) in a.history().iter().zip(b.history()) {
            assert_eq!(x.to_bits(), y.to_bits(), "reruns must agree exactly");
        }
        let (wa, wb) = (a.global_state(nverts), b.global_state(nverts));
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.to_bits(), y.to_bits(), "rerun state must agree exactly");
        }

        // And the physics is unchanged: the migrated run tracks the
        // static-partition run to accumulation-order round-off.
        let still = run_distributed(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            DistOptions::default(),
        );
        for (x, y) in still.history().iter().zip(a.history()) {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1e-30),
                "migrated residual history diverged: {x} vs {y}"
            );
        }
        compare_states(
            &still.global_state(nverts),
            &wa,
            1e-9,
            "migrated vs static state",
        );
    }

    #[test]
    fn repartition_composes_with_fault_recovery_bit_identically() {
        // A rank killed in era 1 (after the first migration): recovery
        // must rebuild against the era-1 plan, roll back to a checkpoint
        // taken on it, and still land on the clean migrated answer bit
        // for bit.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let seq = small_seq(2);
        let nverts = seq.meshes[0].nverts();
        let setup = DistSetup::new(seq, 4, 20, pseed());
        let cycles = 10;

        let clean = run_distributed(&setup, cfg, Strategy::VCycle, cycles, repart_opts(4));
        let fopts = FaultOptions {
            plan: Arc::new(FaultPlan::parse("kill:1@7+9", 4).expect("valid fault spec")),
            checkpoint_every: 2,
            ..FaultOptions::default()
        };
        let faulted = run_distributed_with_faults(
            &setup,
            cfg,
            Strategy::VCycle,
            cycles,
            repart_opts(4),
            &fopts,
        )
        .expect("faulted run completes");

        assert!(matches!(faulted.run.results[1].fate, RankFate::Died { .. }));
        let replica = faulted.instance(1).expect("vid 1 must complete somewhere");
        assert_eq!(replica.fate, RankFate::Completed);

        let (hc, hf) = (clean.history(), faulted.history());
        assert_eq!(hc.len(), hf.len());
        for (i, (x, y)) in hc.iter().zip(hf).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "cycle {i}: fault recovery diverged from the migrated run"
            );
        }
        let (wc, wf) = (clean.global_state(nverts), faulted.global_state(nverts));
        for (i, (x, y)) in wc.iter().zip(&wf).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "state entry {i} diverges");
        }
    }

    #[test]
    fn repartition_spans_land_on_the_committed_timeline() {
        // Traced migrated runs carry the repartition markers and stay
        // deterministic down to the exported artifact.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let setup = DistSetup::new(small_seq(2), 4, 20, pseed());
        let traced = || DistOptions {
            trace_capacity: Some(1 << 15),
            ..repart_opts(3)
        };
        let a = run_distributed(&setup, cfg, Strategy::VCycle, 7, traced());
        let b = run_distributed(&setup, cfg, Strategy::VCycle, 7, traced());

        let la = a.lanes();
        let begins = la
            .iter()
            .flat_map(|l| &l.events)
            .filter(|s| matches!(s.ev, obs::Event::RepartitionBegin { cycle: 3 }))
            .count();
        assert_eq!(begins, setup.nranks, "one era-1 begin marker per rank");
        assert!(
            la.iter()
                .flat_map(|l| &l.events)
                .any(|s| matches!(s.ev, obs::Event::RepartitionEnd { cycle: 6 })),
            "era-2 end marker missing"
        );
        let labels: Vec<&str> = crate::executor::Phase::ALL
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(
            obs::chrome_trace(&la, &labels),
            obs::chrome_trace(&b.lanes(), &labels),
            "migrated traces must be byte-identical"
        );
    }
}
