//! Set-up builds every level once, the finest beside the coarser ones,
//! and must produce exactly what the one-level-at-a-time builders give
//! for each level alone: the sequence's operators are the pairwise
//! `InterpOps::build`s, a distributed set-up's partitions are the
//! per-mesh `PartitionMethod::partition`s, and a shared solver's colour
//! counts are the per-level `color_edge_list`s.

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::par::SPLIT_MIN_VERTS;
use eul3d::mesh::{InterpOps, MeshSequence, TetMesh};
use eul3d::partition::coloring::color_edge_list;
use eul3d::partition::{PartitionMethod, PartitionOptions};
use eul3d::solver::dist::DistSetup;
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn bits(w: &[[f64; 4]]) -> Vec<[u64; 4]> {
    w.iter().map(|w| w.map(f64::to_bits)).collect()
}

fn assert_same_ops(name: &str, ours: &InterpOps, pairwise: &InterpOps) {
    assert_eq!(ours.nsrc, pairwise.nsrc, "{name}: nsrc");
    assert_eq!(ours.addr, pairwise.addr, "{name}: addresses");
    assert_eq!(bits(&ours.w), bits(&pairwise.w), "{name}: weight bits");
}

fn assert_pairwise(name: &str, seq: &MeshSequence) {
    assert_eq!(seq.to_coarse.len(), seq.levels() - 1, "{name}");
    assert_eq!(seq.to_fine.len(), seq.levels() - 1, "{name}");
    for l in 0..seq.levels() - 1 {
        let (fine, coarse) = (&seq.meshes[l], &seq.meshes[l + 1]);
        let down = InterpOps::build(fine, coarse);
        assert_same_ops(&format!("{name} to_coarse[{l}]"), &seq.to_coarse[l], &down);
        let up = InterpOps::build(coarse, fine);
        assert_same_ops(&format!("{name} to_fine[{l}]"), &seq.to_fine[l], &up);
    }
}

fn vec_bits(m: &TetMesh) -> Vec<u64> {
    let coords = m.coords.iter().flat_map(|p| [p.x, p.y, p.z]);
    let coef = m.edge_coef.iter().flat_map(|p| [p.x, p.y, p.z]);
    let normals = m
        .bfaces
        .iter()
        .flat_map(|f| [f.normal.x, f.normal.y, f.normal.z]);
    coords
        .chain(coef)
        .chain(normals)
        .chain(m.vol.iter().copied())
        .map(f64::to_bits)
        .collect()
}

fn spec(nx: usize) -> BumpSpec {
    BumpSpec::channel(nx)
}

/// A channel whose finest level is set up beside its coarser ones, and
/// one small enough to be set up on the calling thread alone.
const SPLIT_NX: usize = 36;
const ALONE_NX: usize = 16;

#[test]
fn the_sizes_take_both_paths() {
    let verts = |nx: usize| bump_channel(&spec(nx)).nverts();
    assert!(verts(SPLIT_NX) >= SPLIT_MIN_VERTS);
    assert!(verts(ALONE_NX) < SPLIT_MIN_VERTS);
}

#[test]
fn sequence_operators_are_the_pairwise_builds() {
    for (nx, levels) in [(ALONE_NX, 1), (ALONE_NX, 2), (SPLIT_NX, 2), (SPLIT_NX, 4)] {
        let seq = MeshSequence::bump_sequence(&spec(nx), levels);
        assert_eq!(seq.levels(), levels);
        assert_pairwise(&format!("bump nx {nx}, {levels} levels"), &seq);
        // Each level is the mesh its spec generates on its own.
        let mut s = spec(nx);
        for (l, m) in seq.meshes.iter().enumerate() {
            let alone = bump_channel(&s);
            assert_eq!(m.tets, alone.tets, "level {l}: tets");
            assert_eq!(m.edges, alone.edges, "level {l}: edges");
            assert_eq!(vec_bits(m), vec_bits(&alone), "level {l}: metric bits");
            s = s.coarsened();
        }
    }
    // Built from finished meshes: each level's search tables found afresh.
    assert_pairwise("box", &MeshSequence::box_sequence(8, 3, 0.15, 9));
    assert_pairwise("big box", &MeshSequence::box_sequence(17, 3, 0.15, 9));
    let nested = BumpSpec {
        nx: 6,
        ny: 3,
        nz: 2,
        jitter: 0.1,
        ..BumpSpec::default()
    };
    assert_pairwise("nested", &MeshSequence::nested_bump_sequence(&nested, 3));
}

#[test]
fn dist_setup_partitions_are_the_per_mesh_partitions() {
    let split = std::sync::Arc::new(MeshSequence::bump_sequence(&spec(SPLIT_NX), 3));
    let alone = std::sync::Arc::new(MeshSequence::bump_sequence(&spec(ALONE_NX), 3));
    for (seq, method, nparts) in [
        (&split, PartitionMethod::FlatRsb, 2),
        (&split, PartitionMethod::Rcb, 3),
        (&alone, PartitionMethod::FlatRsb, 3),
        (&alone, PartitionMethod::Multilevel, 4),
    ] {
        let opts = PartitionOptions::new(nparts).lanczos_iters(40).seed(42);
        let setup = DistSetup::partitioned(seq.clone(), method, &opts).expect("partitions");
        assert_eq!(setup.pms.len(), seq.levels());
        for (l, (pm, mesh)) in setup.pms.iter().zip(&seq.meshes).enumerate() {
            let plan = method.partition(mesh, &opts).expect("partitions");
            assert_eq!(
                pm.owner, plan.assignment,
                "{method:?} over {nparts}: level {l}"
            );
        }
    }
}

#[test]
fn shared_colour_counts_are_the_per_level_colourings() {
    for nx in [SPLIT_NX, ALONE_NX] {
        let seq = MeshSequence::bump_sequence(&spec(nx), 3);
        let expect: Vec<usize> = seq
            .meshes
            .iter()
            .map(|m| color_edge_list(m.nverts(), &m.edges).ncolors())
            .collect();
        let mg = MultigridSolver::new_shared(seq, SolverConfig::default(), Strategy::WCycle, 2)
            .expect("colourings validate");
        assert_eq!(mg.edge_colors(), Some(expect), "nx {nx}");
    }
    let serial = MultigridSolver::new(
        MeshSequence::bump_sequence(&spec(8), 2),
        SolverConfig::default(),
        Strategy::WCycle,
    );
    assert_eq!(serial.edge_colors(), None);
}
