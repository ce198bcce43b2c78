//! Preprocessing for a distributed run: partition every mesh level
//! (recursive spectral bisection by default, §4.1) and build the
//! per-rank mesh pieces. Like the paper's, this phase runs before the
//! ranks start and its cost is amortized over many flow solutions; the
//! finest level is partitioned beside the coarser ones.

use std::sync::Arc;

use eul3d_mesh::par::map_levels;
use eul3d_mesh::MeshSequence;
use eul3d_partition::{PartitionError, PartitionMethod, PartitionOptions, PartitionedMesh};

use crate::error::{Eul3dError, SolverError};
use crate::multigrid::Coarsening;
use crate::runconfig::{PartitionConfig, RunConfig};

/// Lanczos iteration cap per Fiedler solve of a configured run (the
/// partitioner's historical default).
pub const LANCZOS_ITERS: usize = 40;

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
        Self::partitioned(Arc::new(seq), PartitionMethod::FlatRsb, &opts)
            .unwrap_or_else(|e| panic!("partition options rejected: {e}"))
    }

    /// Partition all levels for a configured run over its
    /// [`RunConfig::effective_nranks`] by its [`PartitionConfig`] policy
    /// (method, multilevel knobs, rank mapping; flat RSB without one).
    /// Agglomerated coarse levels are refused: the ranks run on the
    /// partitioned mesh sequence.
    pub fn for_run(seq: MeshSequence, rc: &RunConfig, seed: u64) -> Result<DistSetup, Eul3dError> {
        if rc.coarsening != Coarsening::Sequence {
            return Err(SolverError::AggloNotDistributed.into());
        }
        let policy = rc.partition.unwrap_or_default();
        let opts = partition_options(rc.effective_nranks(), LANCZOS_ITERS, seed, &policy);
        Self::partitioned(Arc::new(seq), policy.method, &opts)
            .map_err(|e| SolverError::Partition(e).into())
    }

    /// Partition every level of an already-shared mesh sequence into
    /// `opts.nparts` ranks with `method` — also the entry mid-run
    /// repartitioning uses to rebuild the per-rank layout without
    /// copying the meshes.
    pub fn partitioned(
        seq: Arc<MeshSequence>,
        method: PartitionMethod,
        opts: &PartitionOptions,
    ) -> Result<DistSetup, PartitionError> {
        // Each level is partitioned on its own, the finest beside the
        // coarser ones.
        let pms = map_levels(seq.finest().nverts(), seq.meshes.iter().collect(), |m| {
            let plan = method.partition(m, opts)?;
            Ok(Arc::new(PartitionedMesh::build(
                m,
                &plan.assignment,
                opts.nparts,
            )))
        })
        .into_iter()
        .collect::<Result<_, PartitionError>>()?;
        Ok(DistSetup {
            seq,
            pms,
            nranks: opts.nparts,
        })
    }

    pub fn levels(&self) -> usize {
        self.seq.levels()
    }
}

/// Translate a [`PartitionConfig`] into [`PartitionOptions`].
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
        for method in PartitionMethod::ALL {
            let seq = MeshSequence::box_sequence(5, 2, 0.1, 5);
            let policy = PartitionConfig {
                method,
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
                assert_eq!(owned, mesh.nverts(), "{}", method.label());
            }
        }
    }

    #[test]
    fn partitioned_shares_the_sequence_and_changes_with_the_seed() {
        let seq = Arc::new(MeshSequence::box_sequence(5, 2, 0.1, 4));
        let opts_a = PartitionOptions::new(4).lanczos_iters(30).seed(1);
        let opts_b = PartitionOptions::new(4).lanczos_iters(30).seed(2);
        let flat = PartitionMethod::FlatRsb;
        let a = DistSetup::partitioned(seq.clone(), flat, &opts_a).unwrap();
        let b = DistSetup::partitioned(seq.clone(), flat, &opts_b).unwrap();
        assert!(Arc::ptr_eq(&a.seq, &b.seq), "meshes are shared, not copied");
        assert_ne!(
            a.pms[0].owner, b.pms[0].owner,
            "different seeds must give a different assignment for \
             migration to be meaningful"
        );
    }

    #[test]
    fn prcb_at_three_ranks_is_refused_naming_nparts() {
        let rc = RunConfig {
            nranks: 3,
            partition: Some(PartitionConfig {
                method: PartitionMethod::Prcb,
                ..PartitionConfig::default()
            }),
            ..RunConfig::default()
        };
        let err = DistSetup::for_run(MeshSequence::box_sequence(4, 1, 0.0, 0), &rc, 7)
            .err()
            .expect("prcb cuts only a power-of-two part count");
        let msg = err.to_string();
        assert!(
            msg.contains("partition.method") && msg.contains("nparts"),
            "{msg}"
        );
    }
}
