//! Sequential preprocessing for a distributed run: partition every mesh
//! level (recursive spectral bisection by default, §4.1) and build the
//! per-rank mesh pieces. Like the paper's, this phase is sequential and
//! its cost is amortized over many flow solutions.

use std::sync::Arc;

use eul3d_mesh::MeshSequence;
use eul3d_partition::{FlatRsb, MultilevelRsb, PartitionOptions, PartitionedMesh, Partitioner};

use crate::error::{Eul3dError, SolverError};
use crate::multigrid::Coarsening;
use crate::runconfig::{PartitionConfig, PartitionMethod, RunConfig};

/// Lanczos iteration cap per Fiedler solve of a configured run (the
/// partitioner's historical default).
pub(super) const LANCZOS_ITERS: usize = 40;

/// The statically-dispatched partitioner for a configured method.
pub fn partitioner_of(method: PartitionMethod) -> &'static dyn Partitioner {
    match method {
        PartitionMethod::FlatRsb => &FlatRsb,
        PartitionMethod::Multilevel => &MultilevelRsb,
    }
}

/// Everything the SPMD ranks need, shared read-only.
pub struct DistSetup {
    pub seq: Arc<MeshSequence>,
    /// One partitioned mesh per level.
    pub pms: Vec<Arc<PartitionedMesh>>,
    pub nranks: usize,
}

impl DistSetup {
    /// Partition all levels of `seq` over `nranks` ranks with flat RSB
    /// (the paper's partitioner and the default).
    pub fn new(seq: MeshSequence, nranks: usize, lanczos_iters: usize, seed: u64) -> DistSetup {
        let opts = PartitionOptions::new(nranks)
            .lanczos_iters(lanczos_iters)
            .seed(seed);
        Self::from_arc(Arc::new(seq), nranks, &FlatRsb, &opts)
    }

    /// Partition all levels for a configured run over its
    /// [`RunConfig::effective_nranks`]: by its [`PartitionConfig`] policy
    /// (method, multilevel knobs, rank mapping) when it has one, else
    /// with flat RSB. Agglomerated coarse levels are refused: the ranks
    /// run on the partitioned mesh sequence.
    pub fn for_run(seq: MeshSequence, rc: &RunConfig, seed: u64) -> Result<DistSetup, Eul3dError> {
        if rc.coarsening != Coarsening::Sequence {
            return Err(SolverError::AggloNotDistributed.into());
        }
        let nranks = rc.effective_nranks();
        Ok(match &rc.partition {
            Some(policy) => {
                let opts = partition_options(nranks, LANCZOS_ITERS, seed, policy);
                Self::from_arc(Arc::new(seq), nranks, partitioner_of(policy.method), &opts)
            }
            None => Self::new(seq, nranks, LANCZOS_ITERS, seed),
        })
    }

    /// Partition all levels of an already-shared mesh sequence with an
    /// arbitrary [`Partitioner`] — the entry point mid-run
    /// repartitioning uses to rebuild the per-rank layout without
    /// copying the meshes.
    pub fn from_arc(
        seq: Arc<MeshSequence>,
        nranks: usize,
        partitioner: &dyn Partitioner,
        opts: &PartitionOptions,
    ) -> DistSetup {
        let pms = seq
            .meshes
            .iter()
            .map(|m| {
                let plan = partitioner
                    .partition(m.nverts(), &m.edges, opts)
                    .unwrap_or_else(|e| panic!("partition options rejected: {e}"));
                Arc::new(PartitionedMesh::build(m, &plan.assignment, nranks))
            })
            .collect();
        DistSetup { seq, pms, nranks }
    }

    /// Partition with a caller-supplied partitioner (e.g. RCB or random,
    /// for the partitioning ablation).
    pub fn with_partitioner(
        seq: MeshSequence,
        nranks: usize,
        partitioner: impl Fn(&eul3d_mesh::TetMesh) -> Vec<u32>,
    ) -> DistSetup {
        let pms = seq
            .meshes
            .iter()
            .map(|m| Arc::new(PartitionedMesh::build(m, &partitioner(m), nranks)))
            .collect();
        DistSetup {
            seq: Arc::new(seq),
            pms,
            nranks,
        }
    }

    pub fn levels(&self) -> usize {
        self.seq.levels()
    }
}

/// Translate a [`PartitionConfig`] into validated [`PartitionOptions`].
pub fn partition_options(
    nranks: usize,
    lanczos_iters: usize,
    seed: u64,
    policy: &PartitionConfig,
) -> PartitionOptions {
    PartitionOptions::new(nranks)
        .lanczos_iters(lanczos_iters)
        .seed(seed)
        .coarsen_target(policy.coarsen_target)
        .refine_passes(policy.refine_passes)
        .mapping(policy.mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_partition::RankMapping;

    #[test]
    fn setup_partitions_every_level() {
        let seq = MeshSequence::box_sequence(6, 3, 0.1, 3);
        let setup = DistSetup::new(seq, 4, 20, 1);
        assert_eq!(setup.pms.len(), 3);
        for (pm, mesh) in setup.pms.iter().zip(&setup.seq.meshes) {
            assert_eq!(pm.nparts, 4);
            let owned: usize = pm.ranks.iter().map(|r| r.n_owned()).sum();
            assert_eq!(owned, mesh.nverts());
        }
    }

    #[test]
    fn policy_setup_partitions_every_level() {
        let seq = MeshSequence::box_sequence(5, 2, 0.1, 5);
        let policy = PartitionConfig {
            method: PartitionMethod::Multilevel,
            coarsen_target: 16,
            mapping: RankMapping::Topology,
            ..PartitionConfig::default()
        };
        let rc = RunConfig {
            nranks: 4,
            partition: Some(policy),
            ..RunConfig::default()
        };
        let agglo = RunConfig {
            coarsening: Coarsening::Agglo,
            ..rc.clone()
        };
        let err = DistSetup::for_run(MeshSequence::box_sequence(5, 2, 0.1, 5), &agglo, 7).err();
        assert_eq!(err, Some(SolverError::AggloNotDistributed.into()));
        let setup = DistSetup::for_run(seq, &rc, 7).unwrap();
        assert_eq!(setup.pms.len(), 2);
        for (pm, mesh) in setup.pms.iter().zip(&setup.seq.meshes) {
            assert_eq!(pm.nparts, 4);
            let owned: usize = pm.ranks.iter().map(|r| r.n_owned()).sum();
            assert_eq!(owned, mesh.nverts());
        }
    }

    #[test]
    fn from_arc_shares_the_sequence_and_changes_with_the_seed() {
        let seq = Arc::new(MeshSequence::box_sequence(5, 2, 0.1, 4));
        let opts_a = PartitionOptions::new(4).lanczos_iters(30).seed(1);
        let opts_b = PartitionOptions::new(4).lanczos_iters(30).seed(2);
        let a = DistSetup::from_arc(seq.clone(), 4, &FlatRsb, &opts_a);
        let b = DistSetup::from_arc(seq.clone(), 4, &FlatRsb, &opts_b);
        assert!(Arc::ptr_eq(&a.seq, &b.seq), "meshes are shared, not copied");
        assert_ne!(
            a.pms[0].owner, b.pms[0].owner,
            "different seeds must give a different assignment for \
             migration to be meaningful"
        );
    }

    #[test]
    fn custom_partitioner_is_used() {
        let seq = MeshSequence::box_sequence(4, 2, 0.0, 0);
        let setup = DistSetup::with_partitioner(seq, 2, |m| {
            (0..m.nverts() as u32).map(|v| v % 2).collect()
        });
        assert_eq!(setup.pms[0].nparts, 2);
    }
}
