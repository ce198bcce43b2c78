//! Operation-count accounting, the measurement methodology of §4.4: "the
//! computational rate (MFlops) obtained by counting the number of
//! operations in each loop". Each kernel has a documented per-item flop
//! constant; drivers report `items × constant`. The paper notes such
//! counts are ~10% more conservative than hardware monitors — fine,
//! since both our Table 1 and Table 2 use the same counts.

/// Flops per edge of the convective loop (flux average + accumulation,
/// with per-vertex pressures precomputed).
pub const FLOPS_CONV_EDGE: f64 = 68.0;
/// Flops per vertex of the pressure precomputation.
pub const FLOPS_PRESSURE_VERT: f64 = 9.0;
/// Flops per edge of dissipation pass 1 (Laplacian + pressure sensor).
pub const FLOPS_DISS_P1_EDGE: f64 = 26.0;
/// Flops per edge of dissipation pass 2 (switched blend + accumulation).
pub const FLOPS_DISS_P2_EDGE: f64 = 58.0;
/// Flops per edge of the first-order coarse-grid dissipation.
pub const FLOPS_DISS_FO_EDGE: f64 = 38.0;
/// Flops per edge of the Roe matrix dissipation (wave decomposition).
pub const FLOPS_DISS_ROE_EDGE: f64 = 150.0;
/// Flops per edge of the spectral-radius accumulation.
pub const FLOPS_RADII_EDGE: f64 = 16.0;
/// Flops per boundary face (characteristic far-field, the dear one).
pub const FLOPS_FARFIELD_FACE: f64 = 130.0;
/// Flops per boundary face (slip wall / symmetry: pressure flux only).
pub const FLOPS_WALL_FACE: f64 = 24.0;
/// Flops per vertex of one residual-averaging Jacobi update.
pub const FLOPS_SMOOTH_VERT: f64 = 12.0;
/// Flops per edge of one residual-averaging neighbour accumulation.
pub const FLOPS_SMOOTH_EDGE: f64 = 10.0;
/// Flops per vertex of one RK stage update (5 components × mul-add +
/// dt/vol scaling).
pub const FLOPS_UPDATE_VERT: f64 = 17.0;
/// Flops per vertex of the local time-step computation.
pub const FLOPS_DT_VERT: f64 = 3.0;
/// Flops per vertex of a 4-point inter-grid interpolation (5 comps).
pub const FLOPS_TRANSFER_VERT: f64 = 40.0;
/// Flops per vertex of assembling `R = Q - D + P` (5 comps).
pub const FLOPS_ASSEMBLE_VERT: f64 = 10.0;
/// Flops per vertex of one solver-health scan (finiteness of 5
/// conserved components + density sign + one pressure recomputation).
pub const FLOPS_GUARD_VERT: f64 = 12.0;

/// Accumulates flops and parallel-loop launches for one executor.
///
/// `launches` counts vectorizable loop invocations (on the
/// shared-memory path an edge loop is charged one per colour group, the
/// sweep the paper's C90 ran), which the Cray model charges a start-up
/// cost for.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlopCounter {
    pub flops: f64,
    pub launches: u64,
}

impl FlopCounter {
    #[inline]
    pub fn add(&mut self, items: usize, per_item: f64) {
        self.flops += items as f64 * per_item;
        self.launches += 1;
    }

    pub fn merge(&mut self, o: &FlopCounter) {
        self.flops += o.flops;
        self.launches += o.launches;
    }
}

/// Uniform per-phase computation/communication breakdown reported by
/// every executor backend — the common currency `table1`, `table2`, and
/// `compare` consume. Computation is a [`FlopCounter`] per
/// [`Phase`](crate::executor::Phase); communication is the message/byte
/// traffic the distributed backend charged to each phase (zero on the
/// serial and shared paths, which exchange nothing).
#[derive(Debug, Clone, Copy)]
pub struct PhaseCounters {
    pub comp: [FlopCounter; crate::executor::NPHASES],
    pub comm_msgs: [u64; crate::executor::NPHASES],
    pub comm_bytes: [u64; crate::executor::NPHASES],
    /// Fresh communication storage (window-record and staging-buffer
    /// growth) charged to each phase. Non-zero only while windows and
    /// buffers warm up; a steady-state cycle must report zero.
    pub comm_allocs: [u64; crate::executor::NPHASES],
}

impl Default for PhaseCounters {
    fn default() -> PhaseCounters {
        PhaseCounters {
            comp: [FlopCounter::default(); crate::executor::NPHASES],
            comm_msgs: [0; crate::executor::NPHASES],
            comm_bytes: [0; crate::executor::NPHASES],
            comm_allocs: [0; crate::executor::NPHASES],
        }
    }
}

/// A rank's cumulative message/byte/allocation totals at one instant:
/// the opening half of a communication bracket, closed by
/// [`PhaseCounters::add_comm_since`].
#[derive(Debug, Clone, Copy)]
pub struct CommMark {
    msgs: u64,
    bytes: u64,
    allocs: u64,
}

impl CommMark {
    pub fn of(rank: &eul3d_delta::Rank) -> CommMark {
        CommMark {
            msgs: rank.counters.total_messages(),
            bytes: rank.counters.total_bytes(),
            allocs: rank.counters.comm_allocs,
        }
    }
}

/// One reporting row of [`PhaseCounters::rows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    pub label: &'static str,
    pub flops: f64,
    pub launches: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub allocs: u64,
}

impl PhaseCounters {
    /// Mutable computation counter of one phase.
    #[inline]
    pub fn phase(&mut self, p: crate::executor::Phase) -> &mut FlopCounter {
        &mut self.comp[p.index()]
    }

    /// Record `msgs` messages totalling `bytes` (and `allocs` fresh
    /// communication allocations) charged to `p`.
    #[inline]
    pub fn add_comm(&mut self, p: crate::executor::Phase, msgs: u64, bytes: u64, allocs: u64) {
        self.comm_msgs[p.index()] += msgs;
        self.comm_bytes[p.index()] += bytes;
        self.comm_allocs[p.index()] += allocs;
    }

    /// Charge to `p` everything `rank` has sent (and freshly allocated
    /// for sending) since `mark`.
    pub fn add_comm_since(
        &mut self,
        p: crate::executor::Phase,
        rank: &eul3d_delta::Rank,
        mark: CommMark,
    ) {
        let now = CommMark::of(rank);
        self.add_comm(
            p,
            now.msgs - mark.msgs,
            now.bytes - mark.bytes,
            now.allocs - mark.allocs,
        );
    }

    /// Total flops across all phases.
    pub fn flops(&self) -> f64 {
        self.comp.iter().map(|c| c.flops).sum()
    }

    /// Total parallel-loop launches across all phases.
    pub fn launches(&self) -> u64 {
        self.comp.iter().map(|c| c.launches).sum()
    }

    /// Total messages across all phases.
    pub fn messages(&self) -> u64 {
        self.comm_msgs.iter().sum()
    }

    /// Total bytes across all phases.
    pub fn bytes(&self) -> u64 {
        self.comm_bytes.iter().sum()
    }

    /// Total fresh communication-buffer allocations across all phases.
    pub fn allocs(&self) -> u64 {
        self.comm_allocs.iter().sum()
    }

    pub fn merge(&mut self, o: &PhaseCounters) {
        for (a, b) in self.comp.iter_mut().zip(&o.comp) {
            a.merge(b);
        }
        for (a, b) in self.comm_msgs.iter_mut().zip(&o.comm_msgs) {
            *a += b;
        }
        for (a, b) in self.comm_bytes.iter_mut().zip(&o.comm_bytes) {
            *a += b;
        }
        for (a, b) in self.comm_allocs.iter_mut().zip(&o.comm_allocs) {
            *a += b;
        }
    }

    pub fn reset(&mut self) {
        *self = PhaseCounters::default();
    }

    /// Export into a [`eul3d_obs::MetricsRegistry`] — the registry view
    /// of this struct, one metric family per phase. Everything lands as
    /// additive counters (flops are integral — every per-item constant
    /// is a whole number — so the cast is exact), which makes
    /// [`eul3d_obs::MetricsRegistry::merge`] aggregate ranks correctly.
    pub fn to_metrics(&self, reg: &mut eul3d_obs::MetricsRegistry) {
        for row in self.rows() {
            let l = row.label;
            for (suffix, v) in [
                ("flops", row.flops as u64),
                ("launches", row.launches),
                ("msgs", row.msgs),
                ("bytes", row.bytes),
                ("allocs", row.allocs),
            ] {
                if v != 0 {
                    let id = reg.counter(&format!("phase.{l}.{suffix}"));
                    reg.inc(id, v);
                }
            }
        }
    }

    /// One [`PhaseRow`] for every phase that did any work, in reporting
    /// order.
    pub fn rows(&self) -> Vec<PhaseRow> {
        crate::executor::Phase::ALL
            .iter()
            .filter_map(|&p| {
                let i = p.index();
                let c = &self.comp[i];
                let (m, b, a) = (self.comm_msgs[i], self.comm_bytes[i], self.comm_allocs[i]);
                (c.flops != 0.0 || c.launches != 0 || m != 0 || b != 0 || a != 0).then_some(
                    PhaseRow {
                        label: p.label(),
                        flops: c.flops,
                        launches: c.launches,
                        msgs: m,
                        bytes: b,
                        allocs: a,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Phase;

    #[test]
    fn phase_counters_accumulate_and_merge() {
        let mut c = PhaseCounters::default();
        c.phase(Phase::Convection).add(100, FLOPS_CONV_EDGE);
        c.phase(Phase::Pressure).add(10, FLOPS_PRESSURE_VERT);
        c.add_comm(Phase::Exchange, 4, 320, 2);
        assert_eq!(
            c.flops(),
            100.0 * FLOPS_CONV_EDGE + 10.0 * FLOPS_PRESSURE_VERT
        );
        assert_eq!(c.launches(), 2);
        assert_eq!(c.messages(), 4);
        assert_eq!(c.bytes(), 320);
        assert_eq!(c.allocs(), 2);

        let mut d = PhaseCounters::default();
        d.merge(&c);
        assert_eq!(d.flops(), c.flops());
        assert_eq!(d.launches(), 2);
        assert_eq!(d.allocs(), 2);

        let rows = d.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "exchange");
        assert_eq!(rows[0].bytes, 320);
        assert_eq!(rows[0].allocs, 2);

        d.reset();
        assert_eq!(d.flops(), 0.0);
        assert!(d.rows().is_empty());
    }

    #[test]
    fn counter_accumulates() {
        let mut c = FlopCounter::default();
        c.add(100, FLOPS_CONV_EDGE);
        c.add(10, FLOPS_PRESSURE_VERT);
        assert_eq!(
            c.flops,
            100.0 * FLOPS_CONV_EDGE + 10.0 * FLOPS_PRESSURE_VERT
        );
        assert_eq!(c.launches, 2);
        let mut d = FlopCounter::default();
        d.merge(&c);
        assert_eq!(d.flops, c.flops);
    }
}
