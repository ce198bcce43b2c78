//! Preprocessing for parallel EUL3D (§2.4, §3.1, §4.1–4.2 of the paper):
//!
//! * **edge colouring** — divides the edge loop into groups free of data
//!   recurrences, the vectorization/autotasking decomposition used on the
//!   Cray Y-MP C90;
//! * **mesh partitioning** — recursive *spectral* bisection
//!   (Pothen–Simon–Liou), the method the paper uses for the Touchstone
//!   Delta, plus its multilevel and KL-refined variants, and recursive
//!   coordinate bisection (serial and SPMD) and random assignment as
//!   ablation baselines, all named by one [`PartitionMethod`];
//! * **node and edge reordering** — the cache optimizations of §4.2 that
//!   doubled the single-node i860 rate;
//! * **partitioned-mesh construction** — per-rank local meshes with ghost
//!   vertices, the input to the PARTI inspector.

//! ```
//! use eul3d_mesh::gen::unit_box;
//! use eul3d_partition::{
//!     color_edges, validate_coloring, PartitionMethod, PartitionOptions,
//! };
//!
//! let mesh = unit_box(4, 0.15, 7);
//! // §3.1: recurrence-free edge groups for the vector/parallel path.
//! let coloring = color_edges(&mesh);
//! assert!(validate_coloring(&mesh.edges, &coloring).is_ok());
//! // §4.1 modernized: multilevel spectral bisection for the
//! // distributed path.
//! let opts = PartitionOptions::new(4).seed(1);
//! let plan = PartitionMethod::Multilevel.partition(&mesh, &opts).unwrap();
//! assert!(plan.balance < 1.2);
//! assert!(plan.edge_cut > 0);
//! ```

pub mod api;
mod bisection;
pub mod coloring;
pub mod kl;
pub mod mapping;
pub mod multilevel;
pub mod parallel;
pub mod partitioned;
pub mod rcb;
pub mod reorder;
pub mod rsb;
pub mod spectral;

pub use api::{
    FlatRsb, MultilevelRsb, PartitionError, PartitionMethod, PartitionOptions, PartitionPlan,
    Partitioner, RankMapping,
};
pub use coloring::{color_edges, validate_coloring, EdgeColoring};
pub use kl::kl_refine;
pub use mapping::{comm_matrix, hop_volume, topology_mapping};
pub use multilevel::{
    coarsen, heavy_edge_matching, multilevel_bisect, rebalance_bisection, MultilevelParams,
    WeightedGraph,
};
pub use parallel::parallel_rcb;
pub use partitioned::{PartitionedMesh, RankMesh};
pub use rcb::rcb_partition;
pub use spectral::{fiedler_vector, FiedlerSolve};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Uniform-random partition baseline: decent balance, terrible locality.
pub fn random_partition(nverts: usize, nparts: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nverts)
        .map(|_| rng.random_range(0..nparts as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_partition_uses_all_parts() {
        let p = random_partition(1000, 8, 1);
        for r in 0..8u32 {
            assert!(p.contains(&r));
        }
        assert!(p.iter().all(|&r| r < 8));
    }

    #[test]
    fn random_partition_deterministic() {
        assert_eq!(random_partition(100, 4, 9), random_partition(100, 4, 9));
    }
}
