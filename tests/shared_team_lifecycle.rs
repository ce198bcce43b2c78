//! The shared executor's resident team must die with its solver: the job
//! service builds and drops solvers all day. One test per process, so no
//! other test's threads show up in the count.

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn dropping_a_shared_solver_joins_its_team() {
    let Some(before) = os_threads() else {
        return;
    };
    let spec = BumpSpec {
        nx: 6,
        ny: 3,
        nz: 3,
        ..BumpSpec::default()
    };
    let cfg = SolverConfig::default();
    for _ in 0..200 {
        let seq = MeshSequence::bump_sequence(&spec, 2);
        let mut mg =
            MultigridSolver::new_shared(seq, cfg, Strategy::VCycle, 3).expect("valid colourings");
        // One team for both levels: two workers beside this thread.
        assert_eq!(os_threads(), Some(before + 2));
        assert!(mg.cycle().is_finite());
    }
    assert_eq!(os_threads(), Some(before));
}
