//! Multigrid sequences of **unrelated meshes** (§2.3): each level is an
//! independently generated mesh of roughly half the resolution of the one
//! above it, with the inter-grid transfer operators precomputed in both
//! directions — exactly the preprocessing the paper performs once per mesh
//! family and amortizes over many flow solutions.

use crate::gen::{bump_channel, bump_channel_with_neighbors, unit_box, BumpSpec};
use crate::mesh::TetMesh;
use crate::par::join;
use crate::search::{face_neighbors, SearchTables};
use crate::transfer::InterpOps;

/// A fine-to-coarse sequence of meshes plus transfer operators.
///
/// `meshes[0]` is the finest level. For each pair of adjacent levels the
/// sequence stores:
/// * `to_coarse[l]` — operator interpolating **from level `l` onto level
///   `l+1`'s vertices**, used to move the *state* to the coarse grid;
/// * `to_fine[l]` — operator interpolating **from level `l+1` onto level
///   `l`** (prolongation of corrections).
///
/// Restriction of residuals uses `to_fine[l].restrict_transpose` (the
/// conservative transpose of prolongation), while restriction of states
/// uses `to_coarse[l].interpolate` (direct injection-like interpolation),
/// matching the standard practice for FAS on non-nested meshes.
pub struct MeshSequence {
    pub meshes: Vec<TetMesh>,
    /// `to_coarse[l]`: source = level `l` (fine), destination = `l+1`.
    pub to_coarse: Vec<InterpOps>,
    /// `to_fine[l]`: source = level `l+1` (coarse), destination = `l`.
    pub to_fine: Vec<InterpOps>,
}

/// The levels below the finest, built on the helper thread: their
/// meshes, the operators between them, and the search tables of the
/// first, which the operator onto the finest level still needs.
#[derive(Default)]
struct Coarse {
    meshes: Vec<TetMesh>,
    to_coarse: Vec<InterpOps>,
    to_fine: Vec<InterpOps>,
    head: Option<SearchTables>,
}

impl MeshSequence {
    /// Assemble a sequence from already-generated meshes, finest first.
    pub fn from_meshes(meshes: Vec<TetMesh>) -> MeshSequence {
        assert!(!meshes.is_empty());
        let fine_verts = meshes[0].nverts();
        MeshSequence::link(fine_verts, meshes, |mesh| {
            let nbrs = face_neighbors(&mesh);
            (mesh, nbrs)
        })
    }

    /// A bump-channel sequence with `levels` meshes, finest resolution
    /// given by `spec`, each coarser level independently generated (new
    /// seed) at half resolution.
    pub fn bump_sequence(spec: &BumpSpec, levels: usize) -> MeshSequence {
        assert!(levels >= 1);
        let mut specs = vec![spec.clone()];
        for l in 1..levels {
            let next = specs[l - 1].coarsened();
            specs.push(next);
        }
        let fine_verts = (spec.nx + 1) * (spec.ny + 1) * (spec.nz + 1);
        // Each level's search tables take over the face neighbours its
        // mesh build found.
        MeshSequence::link(fine_verts, specs, |spec| bump_channel_with_neighbors(&spec))
    }

    /// Build every level from its source with `level` (its mesh and
    /// face-neighbour table, from which the one set of search tables
    /// both of its operators walk is built) and the operators between
    /// adjacent levels. The finest level (of `fine_verts` vertices) is
    /// built on the calling thread and the coarser ones, with the
    /// operators between them, beside it (see [`join`]); then the two
    /// operators between the finest level and the next are built side by
    /// side, the finest level's tables on the way. Every operator is one
    /// sequential walk, so the result does not depend on the split.
    fn link<S: Send>(
        fine_verts: usize,
        sources: Vec<S>,
        level: impl Fn(S) -> (TetMesh, Vec<[u32; 4]>) + Sync,
    ) -> MeshSequence {
        let mut sources = sources.into_iter();
        let Some(finest) = sources.next() else {
            unreachable!("a sequence has at least one level")
        };
        let ((fine, fine_nbrs), coarse) = join(
            fine_verts,
            || level(finest),
            || MeshSequence::coarse(sources, &level),
        );
        let mut seq = MeshSequence {
            meshes: vec![fine],
            to_coarse: Vec::new(),
            to_fine: Vec::new(),
        };
        if let (Some(next), Some(next_tables)) = (coarse.meshes.first(), &coarse.head) {
            let fine = &seq.meshes[0];
            let (down, up) = join(
                fine_verts,
                || {
                    let tables = SearchTables::with_neighbors(fine, fine_nbrs);
                    InterpOps::located(fine, &tables, next)
                },
                || InterpOps::located(next, next_tables, fine),
            );
            seq.to_coarse.push(down);
            seq.to_fine.push(up);
        }
        seq.meshes.extend(coarse.meshes);
        seq.to_coarse.extend(coarse.to_coarse);
        seq.to_fine.extend(coarse.to_fine);
        seq
    }

    /// The levels below the finest, coarsening one after another.
    fn coarse<S>(
        sources: impl Iterator<Item = S>,
        level: &impl Fn(S) -> (TetMesh, Vec<[u32; 4]>),
    ) -> Coarse {
        let mut c = Coarse::default();
        // The tables of the last level built, until the next one is.
        let mut last: Option<SearchTables> = None;
        for source in sources {
            let (mesh, nbrs) = level(source);
            let tables = SearchTables::with_neighbors(&mesh, nbrs);
            if let (Some(prev), Some(prev_tables)) = (c.meshes.last(), &last) {
                c.to_coarse
                    .push(InterpOps::located(prev, prev_tables, &mesh));
                c.to_fine.push(InterpOps::located(&mesh, &tables, prev));
            }
            // Both operators of the level before are built, so its tables
            // go, except the first coarse level's: the operator onto the
            // finest level still walks them.
            let done = last.replace(tables);
            if c.head.is_none() {
                c.head = done;
            }
            c.meshes.push(mesh);
        }
        // With one coarse level, its tables are the last built.
        if c.head.is_none() {
            c.head = last;
        }
        c
    }

    /// A **nested** sequence built by uniform refinement of a coarse
    /// bump-channel mesh: the counterpoint to the paper's unrelated
    /// meshes (used by the nested-vs-unrelated transfer ablation). The
    /// finest level is `base` refined `levels - 1` times.
    pub fn nested_bump_sequence(spec: &crate::gen::BumpSpec, levels: usize) -> MeshSequence {
        assert!(levels >= 1);
        let mut meshes = vec![bump_channel(spec)];
        for _ in 1..levels {
            let finer = crate::refine::refine_uniform(&meshes[0]);
            meshes.insert(0, finer);
        }
        MeshSequence::from_meshes(meshes)
    }

    /// A unit-box far-field sequence (test workhorse).
    pub fn box_sequence(n_fine: usize, levels: usize, jitter: f64, seed: u64) -> MeshSequence {
        assert!(levels >= 1);
        let mut meshes = Vec::new();
        let mut n = n_fine;
        for l in 0..levels {
            meshes.push(unit_box(n.max(2), jitter, seed + l as u64));
            n /= 2;
        }
        MeshSequence::from_meshes(meshes)
    }

    pub fn levels(&self) -> usize {
        self.meshes.len()
    }

    /// Finest mesh.
    pub fn finest(&self) -> &TetMesh {
        &self.meshes[0]
    }

    /// Memory-overhead estimate of the multigrid strategy: vertices on all
    /// coarse levels (plus transfer coefficients) relative to the fine
    /// grid. The paper quotes ~33%.
    pub fn coarse_overhead_fraction(&self) -> f64 {
        let fine = self.meshes[0].nverts() as f64;
        let coarse: usize = self.meshes[1..].iter().map(|m| m.nverts()).sum();
        coarse as f64 / fine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_sequence_shrinks() {
        let seq = MeshSequence::box_sequence(8, 3, 0.15, 9);
        assert_eq!(seq.levels(), 3);
        assert!(seq.meshes[0].nverts() > seq.meshes[1].nverts());
        assert!(seq.meshes[1].nverts() > seq.meshes[2].nverts());
        assert_eq!(seq.to_coarse.len(), 2);
        assert_eq!(seq.to_fine.len(), 2);
    }

    #[test]
    fn transfer_dimensions_match() {
        let seq = MeshSequence::box_sequence(6, 2, 0.1, 4);
        assert_eq!(seq.to_coarse[0].nsrc, seq.meshes[0].nverts());
        assert_eq!(seq.to_coarse[0].ndst(), seq.meshes[1].nverts());
        assert_eq!(seq.to_fine[0].nsrc, seq.meshes[1].nverts());
        assert_eq!(seq.to_fine[0].ndst(), seq.meshes[0].nverts());
    }

    #[test]
    fn bump_sequence_levels_are_unrelated() {
        let seq = MeshSequence::bump_sequence(&BumpSpec::default(), 2);
        // Unrelated meshes: the coarse grid is NOT a subset of the fine.
        assert!(seq.meshes[1].nverts() < seq.meshes[0].nverts());
        assert_ne!(seq.meshes[0].nverts(), seq.meshes[1].nverts() * 8);
    }

    #[test]
    fn nested_sequence_is_nested() {
        use crate::gen::BumpSpec;
        let spec = BumpSpec {
            nx: 6,
            ny: 3,
            nz: 2,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        let seq = MeshSequence::nested_bump_sequence(&spec, 3);
        assert_eq!(seq.levels(), 3);
        // Refinement: each finer level has 8x the tets.
        assert_eq!(seq.meshes[0].ntets(), 8 * seq.meshes[1].ntets());
        assert_eq!(seq.meshes[1].ntets(), 8 * seq.meshes[2].ntets());
        // Nested: coarse vertices are exact fine vertices, so the
        // fine-from-coarse interpolation is exact injection there.
        let ops = &seq.to_fine[0];
        let coarse = &seq.meshes[1];
        let src: Vec<f64> = coarse.coords.iter().map(|p| p.x * 2.0 - p.y).collect();
        let mut out = vec![0.0; seq.meshes[0].nverts()];
        ops.interpolate(&src, &mut out);
        for (v, p) in seq.meshes[0].coords.iter().enumerate() {
            assert!((out[v] - (p.x * 2.0 - p.y)).abs() < 1e-9);
        }
    }

    #[test]
    fn coarse_overhead_near_paper_estimate() {
        let seq = MeshSequence::box_sequence(16, 4, 0.0, 0);
        let f = seq.coarse_overhead_fraction();
        // Halving resolution gives ~1/8 + 1/64 + ... ≈ 14% by vertex count;
        // anything in (5%, 50%) is the right order of magnitude.
        assert!(f > 0.05 && f < 0.5, "overhead fraction {f}");
    }
}
