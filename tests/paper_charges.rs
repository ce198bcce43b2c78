//! The paper's charges, pinned. The machine models of tables 1 and 2
//! price what the solver *charges* — flops and launches per paper loop,
//! messages and bytes per halo exchange — not what the host executes.
//! How the host sweeps the edges (one fused flow sweep per stage, or one
//! sweep per paper loop) must not move a single charge, so one W-cycle's
//! per-phase rows are held to the values the unfused sweeps charged:
//!
//! * flops and launches on the serial executor and on a two-member team
//!   (which charges one launch per colour group);
//! * messages and bytes of a two-rank Delta run, with the §4.3 flow
//!   gather once per stage and refetched before every loop, and the end
//!   of each rank's modeled clock.
//!
//! Every case is built from fixed seeds, so the rows hold for any
//! `EUL3D_SEED`.

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::dist::{run_distributed, DistOptions, DistSetup};
use eul3d::solver::{MultigridSolver, PhaseCounters, Scheme, SolverConfig, Strategy};

fn seq() -> MeshSequence {
    MeshSequence::bump_sequence(&BumpSpec::channel(8), 3)
}

fn config(scheme: Scheme) -> SolverConfig {
    SolverConfig {
        mach: 0.5,
        scheme,
        ..SolverConfig::default()
    }
}

/// `label flops launches` per phase that did work.
fn comp_rows(c: &PhaseCounters) -> Vec<String> {
    c.rows()
        .iter()
        .map(|r| format!("{} {} {}", r.label, r.flops, r.launches))
        .collect()
}

/// `label msgs bytes` per phase that communicated.
fn comm_rows(c: &PhaseCounters) -> Vec<String> {
    c.rows()
        .iter()
        .filter(|r| r.msgs != 0 || r.bytes != 0)
        .map(|r| format!("{} {} {}", r.label, r.msgs, r.bytes))
        .collect()
}

/// One W-cycle's counters, serial (`team == 0`) or on a team.
fn one_cycle(scheme: Scheme, team: usize) -> PhaseCounters {
    let (seq, cfg) = (seq(), config(scheme));
    let mut mg = if team == 0 {
        MultigridSolver::new(seq, cfg, Strategy::WCycle)
    } else {
        MultigridSolver::new_shared(seq, cfg, Strategy::WCycle, team).unwrap()
    };
    mg.counter.reset();
    mg.cycle();
    mg.counter
}

/// One two-rank W-cycle: the ranks' counters summed, and each rank's
/// modeled clock at its last traced event.
fn one_dist_cycle(scheme: Scheme, refetch_per_loop: bool) -> (PhaseCounters, Vec<u64>) {
    let setup = DistSetup::new(seq(), 2, 20, 7);
    let opts = DistOptions {
        refetch_per_loop,
        trace_capacity: Some(1 << 16),
        ..DistOptions::default()
    };
    let r = run_distributed(&setup, config(scheme), Strategy::WCycle, 1, opts);
    let mut sum = PhaseCounters::default();
    r.phase_counters().iter().for_each(|c| sum.merge(c));
    let ends = r
        .lanes()
        .iter()
        .map(|l| {
            assert_eq!(l.dropped, 0, "{} dropped events", l.name);
            l.events.last().map_or(0, |e| e.ts_ns)
        })
        .collect();
    (sum, ends)
}

fn assert_rows(got: Vec<String>, want: &[&str], what: &str) {
    assert_eq!(got, want, "{what}:\n{}", got.join("\n"));
}

#[test]
fn serial_and_team_charge_the_paper_loops() {
    assert_rows(
        comp_rows(&one_cycle(Scheme::CentralJst, 0)),
        SERIAL_JST,
        "serial JST",
    );
    assert_rows(
        comp_rows(&one_cycle(Scheme::RoeUpwind, 0)),
        SERIAL_ROE,
        "serial Roe",
    );
    assert_rows(
        comp_rows(&one_cycle(Scheme::CentralJst, 2)),
        TEAM_JST,
        "team JST",
    );
}

#[test]
fn delta_ranks_exchange_what_the_paper_loops_exchange() {
    for (scheme, refetch, comp, comm, ends) in [
        (
            Scheme::CentralJst,
            false,
            DELTA_JST_COMP,
            DELTA_JST_COMM,
            DELTA_JST_ENDS,
        ),
        (
            Scheme::CentralJst,
            true,
            DELTA_JST_COMP,
            DELTA_JST_REFETCH_COMM,
            DELTA_JST_REFETCH_ENDS,
        ),
        (
            Scheme::RoeUpwind,
            false,
            DELTA_ROE_COMP,
            DELTA_ROE_COMM,
            DELTA_ROE_ENDS,
        ),
    ] {
        let what = format!("{scheme:?}, refetch {refetch}");
        let (c, end) = one_dist_cycle(scheme, refetch);
        assert_rows(comp_rows(&c), comp, &what);
        assert_rows(comm_rows(&c), comm, &what);
        assert_eq!(end, ends, "{what}: modeled clocks");
    }
}

const SERIAL_JST: &[&str] = &[
    "pressure 19845 31",
    "radii/dt 36328 15",
    "dissipation 313452 19",
    "convection 669528 31",
    "boundary 160096 62",
    "assemble 22050 31",
    "smooth 204300 100",
    "update 30600 25",
    "transfer 27000 9",
];

const SERIAL_ROE: &[&str] = &[
    "pressure 19845 31",
    "radii/dt 36328 15",
    "dissipation 751950 16",
    "convection 669528 31",
    "boundary 160096 62",
    "assemble 22050 31",
    "smooth 204300 100",
    "update 30600 25",
    "transfer 27000 9",
];

const TEAM_JST: &[&str] = &[
    "pressure 19845 31",
    "radii/dt 36328 80",
    "dissipation 313452 266",
    "convection 669528 434",
    "boundary 160096 62",
    "assemble 22050 31",
    "smooth 204300 750",
    "update 30600 25",
    "transfer 27000 9",
];

const DELTA_JST_COMP: &[&str] = &[
    "exchange 0 0",
    "pressure 19845 62",
    "radii/dt 36328 30",
    "dissipation 313452 38",
    "convection 669528 62",
    "boundary 160096 124",
    "assemble 22050 62",
    "smooth 204300 200",
    "update 30600 50",
    "transfer 27000 18",
    "monitor 0 0",
];

const DELTA_JST_COMM: &[&str] = &[
    "exchange 62 21440",
    "radii/dt 10 696",
    "dissipation 56 20672",
    "convection 62 21440",
    "smooth 200 69600",
    "transfer 14 11600",
    "monitor 2 32",
];

const DELTA_JST_ENDS: &[u64] = &[236271338, 239309637];

const DELTA_JST_REFETCH_COMM: &[&str] = &[
    "exchange 162 57600",
    "radii/dt 10 696",
    "dissipation 56 20672",
    "convection 62 21440",
    "smooth 200 69600",
    "transfer 14 11600",
    "monitor 2 32",
];

const DELTA_JST_REFETCH_ENDS: &[u64] = &[241932288, 244794599];

const DELTA_ROE_COMP: &[&str] = &[
    "exchange 0 0",
    "pressure 19845 62",
    "radii/dt 36328 30",
    "dissipation 751950 32",
    "convection 669528 62",
    "boundary 160096 124",
    "assemble 22050 62",
    "smooth 204300 200",
    "update 30600 50",
    "transfer 27000 18",
    "monitor 0 0",
];

const DELTA_ROE_COMM: &[&str] = &[
    "exchange 62 21440",
    "radii/dt 10 696",
    "dissipation 32 11000",
    "convection 62 21440",
    "smooth 200 69600",
    "transfer 14 11600",
    "monitor 2 32",
];

const DELTA_ROE_ENDS: &[u64] = &[306354692, 312617917];
