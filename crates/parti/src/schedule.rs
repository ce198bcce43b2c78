//! Communication schedules and their executors.

use std::mem::take;

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

/// An `(index, plane)` stride pair: component `c` of entry `i` of a flat
/// array sits at `i * index + c * plane` — `(1, len / nplanes)` for a
/// plane-major field, `(nplanes, 1)` for a vertex-major staging buffer.
type Stride = (usize, usize);

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

    /// **Gather executor, begin half**: pack the owned entries of `src`
    /// (strides `at`) each peer ghosts and publish them as one buffer of
    /// per-entry records, `nplanes` values each. The transport is the
    /// rank's ([`Rank::publish_f64`]). Every rank begins an exchange
    /// before it finishes it, all in one global order; schedules sharing
    /// a rank reserve disjoint tags, so each stream strictly alternates
    /// publish and consume and reuses one buffer forever.
    pub fn gather_begin(&self, rank: &mut Rank, src: &[f64], nplanes: usize, at: Stride) {
        for (peer, idxs) in &self.sends {
            rank.publish_f64(*peer, self.tag, self.class, idxs.len() * nplanes, |buf| {
                pack(buf, idxs, nplanes, at, |j| src[j])
            });
        }
    }

    /// **Gather executor, finish half**: consume each peer's records
    /// into this rank's ghost slots of `dst` (strides `at`).
    pub fn gather_finish(&self, rank: &mut Rank, dst: &mut [f64], nplanes: usize, at: Stride) {
        for (peer, slots) in &self.recvs {
            rank.consume_f64(*peer, self.tag, |buf| {
                unpack(buf, slots, nplanes, at, |j, v| dst[j] = v)
            });
        }
    }

    /// **Scatter-add executor, begin half**, the reverse direction:
    /// publish the partial sums accumulated in the ghost slots of `src`
    /// to their owners and zero the slots (they are accumulators).
    pub fn scatter_add_begin(&self, rank: &mut Rank, src: &mut [f64], nplanes: usize, at: Stride) {
        for (peer, slots) in &self.recvs {
            rank.publish_f64(
                *peer,
                self.tag + 1,
                self.class,
                slots.len() * nplanes,
                |buf| pack(buf, slots, nplanes, at, |j| take(&mut src[j])),
            );
        }
    }

    /// **Scatter-add executor, finish half**: add each peer's records
    /// into the owned entries of `dst`, in `(peer, record, plane)` order
    /// on either transport — so the result bits do not depend on it.
    pub fn scatter_add_finish(&self, rank: &mut Rank, dst: &mut [f64], nplanes: usize, at: Stride) {
        for (peer, idxs) in &self.sends {
            rank.consume_f64(*peer, self.tag + 1, |buf| {
                unpack(buf, idxs, nplanes, at, |j, v| dst[j] += v)
            });
        }
    }

    /// Whole gather on one plane-major array (`nplanes` planes of
    /// `data.len() / nplanes` entries, owned and ghost slots together).
    pub fn gather_planes(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        let at = planes(data, nplanes);
        self.gather_begin(rank, data, nplanes, at);
        self.gather_finish(rank, data, nplanes, at);
    }

    /// Whole scatter-add on one plane-major array.
    pub fn scatter_add_planes(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        let at = planes(data, nplanes);
        self.scatter_add_begin(rank, data, nplanes, at);
        self.scatter_add_finish(rank, data, nplanes, at);
    }

    #[doc(hidden)]
    pub fn gather_planes_shm_begin(&self, rank: &mut Rank, data: &[f64], nplanes: usize) {
        self.gather_begin(rank, data, nplanes, planes(data, nplanes));
    }

    #[doc(hidden)]
    pub fn gather_planes_shm_finish(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        let at = planes(data, nplanes);
        self.gather_finish(rank, data, nplanes, at);
    }

    #[doc(hidden)]
    pub fn scatter_add_planes_shm_begin(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        let at = planes(data, nplanes);
        self.scatter_add_begin(rank, data, nplanes, at);
    }

    #[doc(hidden)]
    pub fn scatter_add_planes_shm_finish(&self, rank: &mut Rank, data: &mut [f64], nplanes: usize) {
        let at = planes(data, nplanes);
        self.scatter_add_finish(rank, data, nplanes, at);
    }
}

/// The strides of a plane-major array of `nplanes` planes.
fn planes(data: &[f64], nplanes: usize) -> Stride {
    debug_assert!(nplanes > 0 && data.len().is_multiple_of(nplanes));
    (1, data.len() / nplanes)
}

/// The one pack loop: append the `n`-value record of each entry `i` of
/// `idxs`, component `c` read by `get(i * index + c * plane)`.
fn pack(buf: &mut Vec<f64>, idxs: &[u32], n: usize, at: Stride, mut get: impl FnMut(usize) -> f64) {
    let (index, plane) = at;
    for &i in idxs {
        for c in 0..n {
            buf.push(get(i as usize * index + c * plane));
        }
    }
}

/// The one unpack loop: hand component `c` of record `k` to
/// `put(idxs[k] * index + c * plane, value)`.
fn unpack(buf: &[f64], idxs: &[u32], n: usize, at: Stride, mut put: impl FnMut(usize, f64)) {
    assert_eq!(buf.len(), idxs.len() * n, "schedule record size mismatch");
    let (index, plane) = at;
    for (k, &i) in idxs.iter().enumerate() {
        for c in 0..n {
            put(i as usize * index + c * plane, buf[k * n + c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use eul3d_delta::{run_spmd, MachineRun, WindowRegistry};

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

    /// Run `body` on two ranks, over shared-memory windows when
    /// `windows`, else over channels.
    fn run_on<T: Send>(windows: bool, body: impl Fn(&mut Rank) -> T + Sync) -> MachineRun<T> {
        let reg = WindowRegistry::new(2);
        run_spmd(2, |r| {
            if windows {
                r.install_windows(Arc::clone(&reg));
            }
            body(r)
        })
    }

    /// Run `body` over both transports: the data must be the same bits
    /// and every rank must be charged the same per-class traffic and
    /// hops. Returns the channel run.
    fn on_both_transports(body: impl Fn(&mut Rank) -> Vec<f64> + Sync) -> MachineRun<Vec<f64>> {
        let (chan, win) = (run_on(false, &body), run_on(true, &body));
        let bits = |run: &MachineRun<Vec<f64>>| -> Vec<Vec<u64>> {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect();
            run.results.iter().map(bits).collect()
        };
        assert_eq!(bits(&chan), bits(&win), "transports disagree on the data");
        for (c, w) in chan.counters.iter().zip(&win.counters) {
            assert_eq!(c.sent, w.sent, "per-class traffic");
            assert_eq!(c.hops, w.hops, "hops");
        }
        chan
    }

    #[test]
    fn gather_fills_ghosts() {
        let run = on_both_transports(|r| {
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
        assert_eq!(run.counters[0].sent[CommClass::Halo as usize].messages, 1);
    }

    #[test]
    fn scatter_add_flushes_and_zeros_ghosts() {
        let run = on_both_transports(|r| {
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
        for windows in [false, true] {
            let run = run_on(windows, |r| {
                let sched = mirror_schedule(r.id);
                let mut data = vec![1.0, 2.0, 0.0, 4.0, 5.0, 0.0];
                let src = vec![4.0, 5.0];
                let mut into = vec![0.0; 3];
                let mut staged = vec![0.0, 0.0, 3.0];
                let mut dst = vec![0.0, 0.0];
                // One round warms the pool: on channels each send buffer
                // comes back as the peer's recycled receive buffer.
                let mut round = |r: &mut Rank| {
                    sched.gather_planes(r, &mut data, 2);
                    sched.scatter_add_planes(r, &mut data, 2);
                    sched.gather_begin(r, &src, 1, (1, 2));
                    sched.gather_finish(r, &mut into, 1, (1, 1));
                    staged[2] = 3.0;
                    sched.scatter_add_begin(r, &mut staged, 1, (1, 1));
                    sched.scatter_add_finish(r, &mut dst, 1, (1, 2));
                };
                round(r);
                let warm = r.counters.comm_allocs;
                for _ in 0..20 {
                    round(r);
                }
                (warm, r.counters.comm_allocs)
            });
            for &(warm, steady) in &run.results {
                // Windows pack in place: no pool buffer at all.
                assert_eq!(warm > 0, !windows, "warm-up pool traffic");
                assert_eq!(steady, warm, "steady-state executors must not allocate");
            }
        }
    }

    #[test]
    fn gather_planes_into_separate_arrays() {
        // Owners pack from a plane-major source (2 entries × 2 planes);
        // receivers fill a vertex-major staging buffer (3 slots × 2).
        let run = on_both_transports(|r| {
            let sched = mirror_schedule(r.id);
            let src: Vec<f64> = (0..4).map(|k| (10 * r.id + k) as f64).collect();
            let mut dst = vec![0.0; 6];
            sched.gather_begin(r, &src, 2, (1, 2));
            sched.gather_finish(r, &mut dst, 2, (2, 1));
            dst
        });
        assert_eq!(run.results[0][4..], [11.0, 13.0]);
        assert_eq!(run.results[1][4..], [1.0, 3.0]);
    }

    #[test]
    fn scatter_add_planes_into_separate_arrays() {
        // Vertex-major staged sums (3 slots × 2) flushed into owners'
        // plane-major entries (2 entries × 2 planes).
        let run = on_both_transports(|r| {
            let sched = mirror_schedule(r.id);
            let g = 7.0 + r.id as f64;
            let mut staged = vec![0.0, 0.0, 0.0, 0.0, g, g + 10.0];
            let mut dst = vec![100.0, 100.0, 200.0, 200.0];
            sched.scatter_add_begin(r, &mut staged, 2, (2, 1));
            sched.scatter_add_finish(r, &mut dst, 2, (1, 2));
            [staged, dst].concat()
        });
        // Rank 0's entry 1 += rank 1's staged (8 / 18); staging zeroed.
        assert_eq!(run.results[0][4..], [0.0, 0.0, 100.0, 108.0, 200.0, 218.0]);
        assert_eq!(run.results[1][4..], [0.0, 0.0, 100.0, 107.0, 200.0, 217.0]);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let run = on_both_transports(|r| {
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
