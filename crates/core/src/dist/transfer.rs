//! Distributed inter-grid transfer operators: the per-rank pieces of the
//! 4-address/4-weight interpolation of §2.4, with PARTI schedules moving
//! the off-rank source values (charged to [`CommClass::Transfer`] — the
//! traffic the paper found to be "a small fraction of the total
//! communication costs") as records on the rank's windows.
//! Owners pack from plane-major fields; the receiving side stages
//! vertex-major records (`nc` values per buffer slot).

use std::collections::BTreeMap;

use eul3d_delta::{CommClass, Rank};
use eul3d_mesh::InterpOps;
use eul3d_parti::{localize, Schedule, Translation};
use eul3d_partition::PartitionedMesh;

use crate::counters::{FlopCounter, FLOPS_TRANSFER_VERT};

/// One interpolation term: destination local index, four indices into a
/// staging buffer, four weights.
type Term = (u32, [u32; 4], [f64; 4]);

/// The rank-local piece of a fine↔coarse transfer pair.
pub struct TransferLink {
    /// State restriction: one term per *owned coarse* vertex, reading
    /// fine values staged in a buffer of `fine_buf_len` entries.
    state_terms: Vec<Term>,
    fine_buf_len: usize,
    /// Buffer entries whose fine source is owned locally: `(buf, local)`.
    fine_local: Vec<(u32, u32)>,
    /// Fetches the off-rank fine entries into the buffer.
    fine_sched: Schedule,

    /// Residual restriction / correction prolongation: one term per
    /// *owned fine* vertex, addressing coarse values staged in a buffer
    /// of `coarse_buf_len` entries.
    resid_terms: Vec<Term>,
    coarse_buf_len: usize,
    coarse_local: Vec<(u32, u32)>,
    coarse_sched: Schedule,
}

/// Output of [`build_terms`]: interpolation terms, staging-buffer size,
/// locally-satisfiable `(buf, local)` pairs, and the off-rank globals
/// with their buffer slots (the inspector's input).
type TermsBuild = (Vec<Term>, usize, Vec<(u32, u32)>, Vec<u32>, Vec<u32>);

fn build_terms(
    my_owned: &[u32],
    ops: &InterpOps,
    src_trans: &Translation,
    me: usize,
) -> TermsBuild {
    // Map every referenced source global to a staging-buffer index
    // (BTreeMap for a deterministic layout).
    let mut buf_of: BTreeMap<u32, u32> = BTreeMap::new();
    for &g in my_owned {
        for &src in &ops.addr[g as usize] {
            let next = buf_of.len() as u32;
            buf_of.entry(src).or_insert(next);
        }
    }
    let terms: Vec<Term> = my_owned
        .iter()
        .enumerate()
        .map(|(local, &g)| {
            let idxs = ops.addr[g as usize].map(|src| buf_of[&src]);
            (local as u32, idxs, ops.w[g as usize])
        })
        .collect();
    let mut local_pairs = Vec::new();
    let mut required = Vec::new();
    let mut slots = Vec::new();
    for (&src, &buf) in &buf_of {
        if src_trans.owner_of(src) == me {
            local_pairs.push((buf, src_trans.local_of(src)));
        } else {
            required.push(src);
            slots.push(buf);
        }
    }
    (terms, buf_of.len(), local_pairs, required, slots)
}

impl TransferLink {
    /// Build the link between level `l` (fine) and `l+1` (coarse). Must
    /// be called SPMD; uses tag space `[tag, tag+4)`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        rank: &mut Rank,
        to_coarse: &InterpOps,
        to_fine: &InterpOps,
        fine_pm: &PartitionedMesh,
        coarse_pm: &PartitionedMesh,
        tag: u32,
    ) -> TransferLink {
        let me = rank.id;
        let fine_trans = Translation::new(&fine_pm.owner, &fine_pm.owner_local);
        let coarse_trans = Translation::new(&coarse_pm.owner, &coarse_pm.owner_local);

        // State restriction: owned coarse vertices read fine sources.
        let (state_terms, fine_buf_len, fine_local, req_f, slots_f) = build_terms(
            &coarse_pm.ranks[me].owned_globals,
            to_coarse,
            &fine_trans,
            me,
        );
        let fine_sched = localize(
            rank,
            &fine_trans,
            &req_f,
            &slots_f,
            tag,
            CommClass::Transfer,
        );

        // Residual restriction + prolongation: owned fine vertices
        // address coarse entries.
        let (resid_terms, coarse_buf_len, coarse_local, req_c, slots_c) =
            build_terms(&fine_pm.ranks[me].owned_globals, to_fine, &coarse_trans, me);
        let coarse_sched = localize(
            rank,
            &coarse_trans,
            &req_c,
            &slots_c,
            tag + 2,
            CommClass::Transfer,
        );

        TransferLink {
            state_terms,
            fine_buf_len,
            fine_local,
            fine_sched,
            resid_terms,
            coarse_buf_len,
            coarse_local,
            coarse_sched,
        }
    }

    /// Interpolate a fine array onto owned coarse vertices (state moves
    /// down): `coarse_out[cv] = Σ w_k fine[addr_k]`. `fine` and
    /// `coarse_out` hold `nc` contiguous planes; the staging buffer and
    /// every message are vertex-major (`nc` values per record).
    pub fn restrict_state_planes(
        &self,
        rank: &mut Rank,
        fine: &[f64],
        coarse_out: &mut [f64],
        nc: usize,
        counter: &mut FlopCounter,
    ) {
        debug_assert!(fine.len().is_multiple_of(nc) && coarse_out.len().is_multiple_of(nc));
        let fplane = fine.len() / nc;
        let cplane = coarse_out.len() / nc;
        let mut buf = rank.take_f64(self.fine_buf_len * nc);
        buf.resize(self.fine_buf_len * nc, 0.0);
        for &(b, l) in &self.fine_local {
            let (b, l) = (b as usize * nc, l as usize);
            for c in 0..nc {
                buf[b + c] = fine[c * fplane + l];
            }
        }
        self.fine_sched.gather_begin(rank, fine, nc, (1, fplane));
        self.fine_sched.gather_finish(rank, &mut buf, nc, (nc, 1));
        for &(cv, idxs, w) in &self.state_terms {
            for c in 0..nc {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += w[k] * buf[idxs[k] as usize * nc + c];
                }
                coarse_out[c * cplane + cv as usize] = acc;
            }
        }
        rank.recycle_f64(buf);
        counter.add(self.state_terms.len(), FLOPS_TRANSFER_VERT);
    }

    /// Conservatively scatter owned fine values to coarse owners
    /// (residuals move down): `coarse_out[addr_k] += w_k fine[fv]`,
    /// accumulating into `coarse_out` (not zeroed here). Per-slot
    /// accumulation order: terms, then local pairs, then remote flush.
    pub fn restrict_residual_planes(
        &self,
        rank: &mut Rank,
        fine: &[f64],
        coarse_out: &mut [f64],
        nc: usize,
        counter: &mut FlopCounter,
    ) {
        debug_assert!(fine.len().is_multiple_of(nc) && coarse_out.len().is_multiple_of(nc));
        let fplane = fine.len() / nc;
        let cplane = coarse_out.len() / nc;
        let mut buf = rank.take_f64(self.coarse_buf_len * nc);
        buf.resize(self.coarse_buf_len * nc, 0.0);
        for &(fv, idxs, w) in &self.resid_terms {
            let fv = fv as usize;
            for k in 0..4 {
                let bb = idxs[k] as usize * nc;
                for c in 0..nc {
                    buf[bb + c] += w[k] * fine[c * fplane + fv];
                }
            }
        }
        for &(b, l) in &self.coarse_local {
            let (b, l) = (b as usize * nc, l as usize);
            for c in 0..nc {
                coarse_out[c * cplane + l] += buf[b + c];
            }
        }
        self.coarse_sched
            .scatter_add_begin(rank, &mut buf, nc, (nc, 1));
        self.coarse_sched
            .scatter_add_finish(rank, coarse_out, nc, (1, cplane));
        rank.recycle_f64(buf);
        counter.add(self.resid_terms.len(), FLOPS_TRANSFER_VERT);
    }

    /// Interpolate a coarse array onto owned fine vertices (corrections
    /// move up): `fine_out[fv] = Σ w_k coarse[addr_k]`.
    pub fn prolong_planes(
        &self,
        rank: &mut Rank,
        coarse: &[f64],
        fine_out: &mut [f64],
        nc: usize,
        counter: &mut FlopCounter,
    ) {
        debug_assert!(coarse.len().is_multiple_of(nc) && fine_out.len().is_multiple_of(nc));
        let cplane = coarse.len() / nc;
        let fplane = fine_out.len() / nc;
        let mut buf = rank.take_f64(self.coarse_buf_len * nc);
        buf.resize(self.coarse_buf_len * nc, 0.0);
        for &(b, l) in &self.coarse_local {
            let (b, l) = (b as usize * nc, l as usize);
            for c in 0..nc {
                buf[b + c] = coarse[c * cplane + l];
            }
        }
        self.coarse_sched
            .gather_begin(rank, coarse, nc, (1, cplane));
        self.coarse_sched.gather_finish(rank, &mut buf, nc, (nc, 1));
        for &(fv, idxs, w) in &self.resid_terms {
            let fv = fv as usize;
            for c in 0..nc {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += w[k] * buf[idxs[k] as usize * nc + c];
                }
                fine_out[c * fplane + fv] = acc;
            }
        }
        rank.recycle_f64(buf);
        counter.add(self.resid_terms.len(), FLOPS_TRANSFER_VERT);
    }
}
