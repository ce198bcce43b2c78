//! Communication schedules and their executors.

use eul3d_delta::{CommClass, Rank};

/// A reusable communication pattern for one rank: which of its *owned*
/// entries to send to each peer, and into which local *ghost* slots to
/// place data arriving from each peer. Built once by the inspector
/// ([`crate::localize`]), executed many times.
///
/// All messages to one peer are packed into a single buffer — PARTI's
/// "packing various small messages with the same destinations into one
/// large message" (§4.1).
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Base tag; executors offset it to keep gather and scatter distinct.
    pub tag: u32,
    /// Traffic class charged to the cost model.
    pub class: CommClass,
    /// `(peer, owned local indices to pack)` — ascending peer order.
    pub sends: Vec<(usize, Vec<u32>)>,
    /// `(peer, local ghost slots to fill)` — ascending peer order.
    pub recvs: Vec<(usize, Vec<u32>)>,
}

impl Schedule {
    /// An empty schedule (single-rank runs, or nothing off-processor).
    pub fn empty(tag: u32, class: CommClass) -> Schedule {
        Schedule {
            tag,
            class,
            sends: Vec::new(),
            recvs: Vec::new(),
        }
    }

    /// Number of ghost entries this schedule fills.
    pub fn nghosts(&self) -> usize {
        self.recvs.iter().map(|(_, s)| s.len()).sum()
    }

    /// Number of owned entries this schedule exports.
    pub fn nexports(&self) -> usize {
        self.sends.iter().map(|(_, s)| s.len()).sum()
    }

    /// **Gather executor**: fetch off-processor data into ghost slots.
    /// `data` holds `nplanes` contiguous planes of `data.len() / nplanes`
    /// vertices each (component `c` of vertex `i` at `c * plane_len + i`);
    /// owned and ghost slots live in the same array. Packing strides
    /// across the planes per vertex, so a message is a run of per-vertex
    /// records.
    ///
    /// Pack buffers come from the rank's [`CommBuffers`] pool via the
    /// persistent-send-buffer protocol: the receiver hands each consumed
    /// buffer straight back to its sender on the same stream
    /// ([`Rank::return_packed_f64`]), and the sender reclaims it before
    /// packing the next execution ([`Rank::take_pack_f64`]). After the
    /// first execution the same buffers ping-pong forever — zero
    /// steady-state allocation even for one-directional schedules
    /// (`eul3d_delta::RankCounters::comm_allocs` proves it). This is why
    /// schedules sharing a rank must reserve disjoint tags: the protocol
    /// relies on strict data/return alternation per `(peer, tag)` stream.
    ///
    /// [`CommBuffers`]: eul3d_delta::CommBuffers
    pub fn gather_planes(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        for (peer, idxs) in &self.sends {
            let mut buf = rank.take_pack_f64(*peer, self.tag, idxs.len() * nplanes);
            for &i in idxs {
                for c in 0..nplanes {
                    buf.push(data[c * plane + i as usize]);
                }
            }
            rank.send_packed_f64(*peer, self.tag, buf, self.class);
        }
        for (peer, slots) in &self.recvs {
            let buf = rank.recv_f64(*peer, self.tag);
            assert_eq!(
                buf.len(),
                slots.len() * nplanes,
                "gather buffer size mismatch"
            );
            for (k, &s) in slots.iter().enumerate() {
                for c in 0..nplanes {
                    data[c * plane + s as usize] = buf[k * nplanes + c];
                }
            }
            rank.return_packed_f64(*peer, self.tag, buf);
        }
    }

    /// **Scatter-add executor**: flush partial sums accumulated in ghost
    /// slots back to their owners, *adding* into the owners' entries, and
    /// zero the ghost slots afterwards (they are accumulators). Reverse
    /// direction of the gather: ghosts (recvs side) are packed per vertex
    /// across the planes and sent; owners (sends side) accumulate.
    pub fn scatter_add_planes(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        let tag = self.tag + 1;
        for (peer, slots) in &self.recvs {
            let mut buf = rank.take_pack_f64(*peer, tag, slots.len() * nplanes);
            for &s in slots {
                for c in 0..nplanes {
                    let j = c * plane + s as usize;
                    buf.push(data[j]);
                    data[j] = 0.0;
                }
            }
            rank.send_packed_f64(*peer, tag, buf, self.class);
        }
        for (peer, idxs) in &self.sends {
            let buf = rank.recv_f64(*peer, tag);
            assert_eq!(
                buf.len(),
                idxs.len() * nplanes,
                "scatter buffer size mismatch"
            );
            for (k, &i) in idxs.iter().enumerate() {
                for c in 0..nplanes {
                    data[c * plane + i as usize] += buf[k * nplanes + c];
                }
            }
            rank.return_packed_f64(*peer, tag, buf);
        }
    }

    /// Shared-memory-window twin of [`Schedule::gather_planes`], **begin
    /// half**: publish this rank's send regions straight into the peer
    /// windows (hybrid backend). The pack order per vertex is identical
    /// to the channel path — same strided per-vertex records, same
    /// lengths — so the published buffer is byte-for-byte the channel
    /// message, and the modeled cost charged by the publish matches the
    /// channel send exactly. Splitting begin/finish lets interior
    /// kernels run while peers catch up to their publishes.
    pub fn gather_planes_shm_begin(&self, rank: &mut Rank, data: &[f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        for (peer, idxs) in &self.sends {
            rank.window_publish_f64(*peer, self.tag, self.class, |buf| {
                for &i in idxs {
                    for c in 0..nplanes {
                        buf.push(data[c * plane + i as usize]);
                    }
                }
            });
        }
    }

    /// **Finish half** of the window gather: consume each peer's window
    /// in place into this rank's ghost slots (same fill order as the
    /// channel path). Must follow the matching
    /// [`Schedule::gather_planes_shm_begin`] on every rank, in the same
    /// global exchange order.
    pub fn gather_planes_shm_finish(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        for (peer, slots) in &self.recvs {
            rank.window_consume_f64(*peer, self.tag, |buf| {
                assert_eq!(
                    buf.len(),
                    slots.len() * nplanes,
                    "gather window size mismatch"
                );
                for (k, &s) in slots.iter().enumerate() {
                    for c in 0..nplanes {
                        data[c * plane + s as usize] = buf[k * nplanes + c];
                    }
                }
            });
        }
    }

    /// Shared-memory-window twin of [`Schedule::scatter_add_planes`],
    /// **begin half**: publish the ghost-slot accumulators to their
    /// owners' windows and zero them (they are accumulators), exactly as
    /// the channel path packs and zeroes.
    pub fn scatter_add_planes_shm_begin(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        let tag = self.tag + 1;
        for (peer, slots) in &self.recvs {
            rank.window_publish_f64(*peer, tag, self.class, |buf| {
                for &s in slots {
                    for c in 0..nplanes {
                        let j = c * plane + s as usize;
                        buf.push(data[j]);
                        data[j] = 0.0;
                    }
                }
            });
        }
    }

    /// **Finish half** of the window scatter-add: consume each peer's
    /// ghost contributions and add them into this rank's owned entries,
    /// in the channel path's `(record, plane)` order so the floating-
    /// point accumulation order — and therefore the result bits — are
    /// identical to the distributed backend.
    pub fn scatter_add_planes_shm_finish(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
        let plane = data.len() / nplanes;
        let tag = self.tag + 1;
        for (peer, idxs) in &self.sends {
            rank.window_consume_f64(*peer, tag, |buf| {
                assert_eq!(
                    buf.len(),
                    idxs.len() * nplanes,
                    "scatter window size mismatch"
                );
                for (k, &i) in idxs.iter().enumerate() {
                    for c in 0..nplanes {
                        data[c * plane + i as usize] += buf[k * nplanes + c];
                    }
                }
            });
        }
    }

    /// Like [`Schedule::gather_planes`] but with distinct source and
    /// destination arrays: owners pack from the plane-major `src`
    /// (owner-local indices), receivers fill the **vertex-major** staging
    /// buffer `dst` (buffer slots, `nplanes` values per slot). Used by
    /// the inter-grid transfer executors, where fetched data lands in a
    /// compact staging buffer instead of ghost slots of the same array.
    pub fn gather_planes_into(
        &self,
        rank: &mut Rank,
        src: &[f64],
        dst: &mut [f64],
        nplanes: usize,
    ) {
        debug_assert!(nplanes > 0 && src.len().is_multiple_of(nplanes));
        let plane = src.len() / nplanes;
        for (peer, idxs) in &self.sends {
            let mut buf = rank.take_pack_f64(*peer, self.tag, idxs.len() * nplanes);
            for &i in idxs {
                for c in 0..nplanes {
                    buf.push(src[c * plane + i as usize]);
                }
            }
            rank.send_packed_f64(*peer, self.tag, buf, self.class);
        }
        for (peer, slots) in &self.recvs {
            let buf = rank.recv_f64(*peer, self.tag);
            assert_eq!(
                buf.len(),
                slots.len() * nplanes,
                "gather_planes_into buffer size mismatch"
            );
            for (k, &s) in slots.iter().enumerate() {
                let base = s as usize * nplanes;
                dst[base..base + nplanes].copy_from_slice(&buf[k * nplanes..(k + 1) * nplanes]);
            }
            rank.return_packed_f64(*peer, self.tag, buf);
        }
    }

    /// Like [`Schedule::scatter_add_planes`] but with distinct arrays:
    /// staged partial sums in the **vertex-major** buffer `ghost_src`
    /// (buffer slots, zeroed after sending) are flushed to owners, who
    /// accumulate into the plane-major `dst` (owner-local indices). Used
    /// to push restricted residuals to coarse-grid owners.
    pub fn scatter_add_planes_into(
        &self,
        rank: &mut Rank,
        ghost_src: &mut [f64],
        dst: &mut [f64],
        nplanes: usize,
    ) {
        debug_assert!(nplanes > 0 && dst.len().is_multiple_of(nplanes));
        let plane = dst.len() / nplanes;
        let tag = self.tag + 1;
        for (peer, slots) in &self.recvs {
            let mut buf = rank.take_pack_f64(*peer, tag, slots.len() * nplanes);
            for &s in slots {
                let base = s as usize * nplanes;
                buf.extend_from_slice(&ghost_src[base..base + nplanes]);
                ghost_src[base..base + nplanes]
                    .iter_mut()
                    .for_each(|x| *x = 0.0);
            }
            rank.send_packed_f64(*peer, tag, buf, self.class);
        }
        for (peer, idxs) in &self.sends {
            let buf = rank.recv_f64(*peer, tag);
            assert_eq!(
                buf.len(),
                idxs.len() * nplanes,
                "scatter_add_planes_into size mismatch"
            );
            for (k, &i) in idxs.iter().enumerate() {
                for c in 0..nplanes {
                    dst[c * plane + i as usize] += buf[k * nplanes + c];
                }
            }
            rank.return_packed_f64(*peer, tag, buf);
        }
    }

    /// **Message aggregation across loops** (§4.3): combine several
    /// schedules into one whose executor sends a single message per peer.
    /// The inputs must address disjoint ghost slots (which incremental
    /// construction guarantees).
    pub fn merge(parts: &[&Schedule], tag: u32, class: CommClass) -> Schedule {
        let mut sends: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
        let mut recvs: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
        for s in parts {
            for (peer, idxs) in &s.sends {
                sends.entry(*peer).or_default().extend_from_slice(idxs);
            }
            for (peer, slots) in &s.recvs {
                recvs.entry(*peer).or_default().extend_from_slice(slots);
            }
        }
        Schedule {
            tag,
            class,
            sends: sends.into_iter().collect(),
            recvs: recvs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_delta::run_spmd;

    /// Hand-built two-rank schedule: rank 0 owns entries {0,1}, rank 1
    /// owns {0,1}; each has one ghost slot (index 2) mirroring the peer's
    /// entry 1.
    fn mirror_schedule(me: usize) -> Schedule {
        let other = 1 - me;
        Schedule {
            tag: 10,
            class: CommClass::Halo,
            sends: vec![(other, vec![1])],
            recvs: vec![(other, vec![2])],
        }
    }

    #[test]
    fn gather_fills_ghosts() {
        let run = run_spmd(2, |r| {
            let sched = mirror_schedule(r.id);
            // 3 vertices × 2 planes; ghost vertex 2 starts at -1.
            let base = r.id as f64 * 100.0;
            let mut data = vec![base, base + 1.0, -1.0, base + 10.0, base + 11.0, -1.0];
            sched.gather_planes(r, &mut data, 2);
            data
        });
        // Each ghost mirrors both planes of the peer's vertex 1.
        assert_eq!(run.results[0], vec![0.0, 1.0, 101.0, 10.0, 11.0, 111.0]);
        assert_eq!(run.results[1], vec![100.0, 101.0, 1.0, 110.0, 111.0, 11.0]);
    }

    #[test]
    fn scatter_add_flushes_and_zeros_ghosts() {
        let run = run_spmd(2, |r| {
            let sched = mirror_schedule(r.id);
            // 3 vertices × 2 planes; ghost accumulator at vertex 2.
            let g = 5.0 + r.id as f64;
            let mut data = vec![100.0, 100.0, g, 200.0, 200.0, g + 10.0];
            sched.scatter_add_planes(r, &mut data, 2);
            data
        });
        // Rank 0's owned vertex 1 += rank 1's ghost (6 / 16); ghosts zeroed.
        assert_eq!(run.results[0], vec![100.0, 106.0, 0.0, 200.0, 216.0, 0.0]);
        assert_eq!(run.results[1], vec![100.0, 105.0, 0.0, 200.0, 215.0, 0.0]);
    }

    #[test]
    fn executors_are_allocation_free_after_warm_up() {
        let run = run_spmd(2, |r| {
            let sched = mirror_schedule(r.id);
            let mut data = vec![1.0, 2.0, 0.0, 4.0, 5.0, 0.0];
            let src = vec![4.0, 5.0];
            let mut into = vec![0.0; 3];
            let mut staged = vec![0.0, 0.0, 3.0];
            let mut dst = vec![0.0, 0.0];
            // One round warms the pool: each executor's send buffer comes
            // back as the peer's recycled receive buffer.
            let mut round = |r: &mut Rank| {
                sched.gather_planes(r, &mut data, 2);
                sched.scatter_add_planes(r, &mut data, 2);
                sched.gather_planes_into(r, &src, &mut into, 1);
                staged[2] = 3.0;
                sched.scatter_add_planes_into(r, &mut staged, &mut dst, 1);
            };
            round(r);
            let warm = r.counters.comm_allocs;
            for _ in 0..20 {
                round(r);
            }
            (warm, r.counters.comm_allocs)
        });
        for &(warm, steady) in &run.results {
            assert!(warm > 0, "warm-up must populate the pool");
            assert_eq!(steady, warm, "steady-state executors must not allocate");
        }
    }

    #[test]
    fn merge_aggregates_per_peer() {
        let a = Schedule {
            tag: 1,
            class: CommClass::Halo,
            sends: vec![(1, vec![0])],
            recvs: vec![(1, vec![4])],
        };
        let b = Schedule {
            tag: 2,
            class: CommClass::Halo,
            sends: vec![(1, vec![2]), (2, vec![3])],
            recvs: vec![(2, vec![5])],
        };
        let m = Schedule::merge(&[&a, &b], 7, CommClass::Halo);
        assert_eq!(m.sends, vec![(1, vec![0, 2]), (2, vec![3])]);
        assert_eq!(m.recvs, vec![(1, vec![4]), (2, vec![5])]);
        assert_eq!(m.nexports(), 3);
        assert_eq!(m.nghosts(), 2);
    }

    #[test]
    fn merged_schedule_sends_fewer_messages() {
        // Two separate gathers vs one merged gather: same bytes moved,
        // half the messages (the aggregation win the cost model prices).
        let sched_pair = |me: usize, tag: u32, ghost: u32, own: u32| {
            let other = 1 - me;
            Schedule {
                tag,
                class: CommClass::Halo,
                sends: vec![(other, vec![own])],
                recvs: vec![(other, vec![ghost])],
            }
        };
        let separate = run_spmd(2, |r| {
            let s1 = sched_pair(r.id, 20, 2, 0);
            let s2 = sched_pair(r.id, 30, 3, 1);
            let mut data = vec![1.0, 2.0, 0.0, 0.0];
            s1.gather_planes(r, &mut data, 1);
            s2.gather_planes(r, &mut data, 1);
            data
        });
        let merged = run_spmd(2, |r| {
            let s1 = sched_pair(r.id, 20, 2, 0);
            let s2 = sched_pair(r.id, 30, 3, 1);
            let m = Schedule::merge(&[&s1, &s2], 40, CommClass::Halo);
            let mut data = vec![1.0, 2.0, 0.0, 0.0];
            m.gather_planes(r, &mut data, 1);
            data
        });
        assert_eq!(separate.results, merged.results, "same data either way");
        assert_eq!(separate.counters[0].total_messages(), 2);
        assert_eq!(merged.counters[0].total_messages(), 1);
        assert_eq!(
            separate.counters[0].total_bytes(),
            merged.counters[0].total_bytes()
        );
    }

    #[test]
    fn gather_planes_into_separate_arrays() {
        let run = run_spmd(2, |r| {
            let sched = mirror_schedule(r.id);
            let src = vec![r.id as f64 * 10.0, r.id as f64 * 10.0 + 1.0];
            let mut dst = vec![0.0; 3];
            sched.gather_planes_into(r, &src, &mut dst, 1);
            dst
        });
        assert_eq!(run.results[0][2], 11.0);
        assert_eq!(run.results[1][2], 1.0);
    }

    #[test]
    fn scatter_add_planes_into_separate_arrays() {
        let run = run_spmd(2, |r| {
            let sched = mirror_schedule(r.id);
            let mut staged = vec![0.0, 0.0, 7.0 + r.id as f64];
            let mut dst = vec![100.0, 100.0];
            sched.scatter_add_planes_into(r, &mut staged, &mut dst, 1);
            (staged, dst)
        });
        // Rank 0's dst[1] += rank 1's staged (8); staging buffer zeroed.
        assert_eq!(run.results[0].1, vec![100.0, 108.0]);
        assert_eq!(run.results[1].1, vec![100.0, 107.0]);
        assert_eq!(run.results[0].0[2], 0.0);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let run = run_spmd(2, |r| {
            let s = Schedule::empty(5, CommClass::Halo);
            let mut data = vec![1.0, 2.0];
            s.gather_planes(r, &mut data, 1);
            s.scatter_add_planes(r, &mut data, 1);
            data
        });
        assert_eq!(run.results[0], vec![1.0, 2.0]);
        assert_eq!(run.counters[0].total_messages(), 0);
    }
}
