//! A solver level's memory budget: 44 `f64` planes per vertex slot, plus
//! the adjacency. Four buffers carry two roles each at phases that never
//! overlap (`LevelState`'s docs and DESIGN.md §9 list them); a field
//! brought back for one of those roles would show here as more planes.

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::dist::DistSetup;
use eul3d::solver::level::LevelState;
use eul3d::solver::SolverConfig;

const PLANES_PER_SLOT: usize = 44;

fn spec() -> BumpSpec {
    BumpSpec {
        nx: 12,
        ny: 5,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    }
}

fn assert_budget(what: &str, st: &LevelState) {
    let f64s: usize = st.arrays().iter().map(|a| a.len()).sum();
    assert_eq!(f64s, PLANES_PER_SLOT * st.n, "{what}: f64 planes per slot");
    let adj = (st.adj.offsets.len() + st.adj.items.len()) * std::mem::size_of::<u32>();
    assert_eq!(
        st.heap_bytes(),
        PLANES_PER_SLOT * st.n * std::mem::size_of::<f64>() + adj,
        "{what}: heap bytes"
    );
}

#[test]
fn a_fresh_level_holds_44_planes_per_slot() {
    let cfg = SolverConfig::default();
    let seq = MeshSequence::bump_sequence(&spec(), 2);
    for (l, mesh) in seq.meshes.iter().enumerate() {
        assert_budget(&format!("level {l}"), &LevelState::new(mesh, &cfg));
    }
}

#[test]
fn a_rank_local_level_holds_44_planes_per_owned_or_ghost_slot() {
    let cfg = SolverConfig::default();
    let setup = DistSetup::new(MeshSequence::bump_sequence(&spec(), 1), 2, 20, 7);
    for (r, rm) in setup.pms[0].ranks.iter().enumerate() {
        assert!(rm.n_ghost() > 0, "rank {r} has ghosts");
        let st = LevelState::new(&**rm, &cfg);
        assert_eq!(st.n, rm.n_local());
        assert_budget(&format!("rank {r}"), &st);
    }
}
