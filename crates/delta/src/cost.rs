//! The machine cost model: maps counters accumulated by a run to the
//! wall-clock breakdown reported in Tables 2a–2c of the paper.
//!
//! The accounting mirrors how the paper measured the Delta:
//! * **computation seconds** — the *slowest rank's* flops divided by the
//!   effective per-node rate (so load imbalance shows up as lost time);
//! * **communication seconds** — the slowest rank's
//!   `messages × latency + bytes / bandwidth` (message aggregation pays
//!   off by reducing the latency term, exactly the §4.1 optimization);
//! * **total** = computation + communication (the paper reports them
//!   additively);
//! * **MFlops** = machine-total flops / total seconds, "obtained by
//!   counting the number of operations in each loop" (§4.4).
//!
//! [`CostModel::delta_i860`] also drives the traced lanes' modeled clock
//! on every backend: each [`crate::Rank`] send advances it by
//! [`CostModel::send_ns`], each charged kernel loop by [`CostModel::comp_ns`].

use crate::msg::{CommClass, RankCounters};

/// Calibrated machine constants. Defaults approximate a Touchstone Delta
/// node: an i860 sustaining ~3 MFlops on irregular edge loops *after* the
/// §4.2 reordering (the paper: 1496 MFlops / 512 nodes ≈ 2.9), NX-era
/// latency ~75 µs and ~10 MB/s effective point-to-point bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub mflops_per_rank: f64,
    pub latency_s: f64,
    pub bandwidth_bytes_per_s: f64,
    /// Extra latency per 2-D-mesh hop. Wormhole routing made distance
    /// nearly free on the real Delta (~a few hundred ns/hop), but the
    /// term exposes partition-placement quality in the model.
    pub hop_latency_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::delta_i860()
    }
}

impl CostModel {
    /// Touchstone Delta constants (post-reordering node rate).
    pub fn delta_i860() -> CostModel {
        CostModel {
            mflops_per_rank: 3.0,
            latency_s: 75e-6,
            bandwidth_bytes_per_s: 10e6,
            hop_latency_s: 0.3e-6,
        }
    }

    /// The same node *without* the §4.2 node/edge reordering: the paper
    /// reports the reordering "alone improved the single node
    /// computational rate by a factor of two".
    pub fn delta_i860_unordered() -> CostModel {
        CostModel {
            mflops_per_rank: 1.5,
            ..CostModel::delta_i860()
        }
    }

    /// Seconds of computation a single rank's flops take.
    pub fn comp_seconds(&self, flops: f64) -> f64 {
        flops / (self.mflops_per_rank * 1e6)
    }

    /// Seconds of communication for one rank's traffic.
    pub fn comm_seconds(&self, messages: u64, bytes: u64) -> f64 {
        self.comm_seconds_with_hops(messages, bytes, 0)
    }

    /// Seconds of communication including the per-hop routing term.
    pub fn comm_seconds_with_hops(&self, messages: u64, bytes: u64, hops: u64) -> f64 {
        messages as f64 * self.latency_s
            + bytes as f64 / self.bandwidth_bytes_per_s
            + hops as f64 * self.hop_latency_s
    }

    /// Modeled nanoseconds a kernel of `flops` floating-point operations
    /// takes on one rank — the quantum the observability clock advances
    /// by on compute charges (see `eul3d-obs`). Pure arithmetic on
    /// deterministic inputs: bit-identical across reruns.
    pub fn comp_ns(&self, flops: f64) -> u64 {
        (self.comp_seconds(flops) * 1e9) as u64
    }

    /// Modeled nanoseconds one message of `bytes` over `hops` mesh hops
    /// occupies the sender — the observability clock's send quantum.
    pub fn send_ns(&self, bytes: u64, hops: u64) -> u64 {
        (self.comm_seconds_with_hops(1, bytes, hops) * 1e9) as u64
    }

    /// Evaluate a full run.
    pub fn evaluate(&self, counters: &[RankCounters]) -> CostBreakdown {
        let comp = counters
            .iter()
            .map(|c| self.comp_seconds(c.flops))
            .fold(0.0, f64::max);
        let comm = counters
            .iter()
            .map(|c| {
                // Injected delivery delays are priced as extra latency
                // quanta on the sending rank.
                self.comm_seconds_with_hops(c.total_messages(), c.total_bytes(), c.hops)
                    + c.fault_ticks as f64 * self.latency_s
            })
            .fold(0.0, f64::max);
        let total_flops: f64 = counters.iter().map(|c| c.flops).sum();
        let mut class_seconds = [0.0f64; crate::msg::N_COMM_CLASSES];
        for (k, sec) in class_seconds.iter_mut().enumerate() {
            *sec = counters
                .iter()
                .map(|c| self.comm_seconds(c.sent[k].messages, c.sent[k].bytes))
                .fold(0.0, f64::max);
        }
        CostBreakdown {
            nranks: counters.len(),
            comp_seconds: comp,
            comm_seconds: comm,
            total_seconds: comp + comm,
            total_flops,
            mflops: total_flops / (comp + comm).max(1e-300) / 1e6,
            class_seconds,
        }
    }
}

/// The Table-2 row: per-run seconds and machine rate.
#[derive(Debug, Clone, Copy)]
pub struct CostBreakdown {
    pub nranks: usize,
    pub comp_seconds: f64,
    pub comm_seconds: f64,
    pub total_seconds: f64,
    pub total_flops: f64,
    /// Machine rate over the whole run.
    pub mflops: f64,
    /// Communication seconds split per [`CommClass`].
    pub class_seconds: [f64; crate::msg::N_COMM_CLASSES],
}

impl CostBreakdown {
    /// Communication-to-computation ratio (§5 reports ~50% at 512 nodes).
    pub fn comm_to_comp(&self) -> f64 {
        self.comm_seconds / self.comp_seconds.max(1e-300)
    }

    /// Seconds attributed to one traffic class.
    pub fn class(&self, c: CommClass) -> f64 {
        self.class_seconds[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CommClass;

    fn counters(flops: f64, msgs: u64, bytes_per_msg: u64) -> RankCounters {
        let mut c = RankCounters::default();
        c.add_flops(flops);
        for _ in 0..msgs {
            c.record_send(CommClass::Halo, bytes_per_msg);
        }
        c
    }

    #[test]
    fn comp_seconds_scale_with_rate() {
        let m = CostModel {
            mflops_per_rank: 2.0,
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1.0,
            hop_latency_s: 0.0,
        };
        assert!((m.comp_seconds(4e6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comm_seconds_latency_plus_bandwidth() {
        let m = CostModel {
            mflops_per_rank: 1.0,
            latency_s: 0.1,
            bandwidth_bytes_per_s: 100.0,
            hop_latency_s: 0.0,
        };
        // 3 messages, 50 bytes: 0.3 + 0.5
        assert!((m.comm_seconds(3, 50) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn evaluate_takes_slowest_rank() {
        let m = CostModel {
            mflops_per_rank: 1.0,
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e9,
            hop_latency_s: 0.0,
        };
        let cs = vec![counters(1e6, 0, 0), counters(3e6, 0, 0)];
        let b = m.evaluate(&cs);
        assert!(
            (b.comp_seconds - 3.0).abs() < 1e-12,
            "imbalance must cost time"
        );
        assert!((b.total_flops - 4e6).abs() < 1.0);
    }

    #[test]
    fn aggregation_cuts_latency_cost() {
        // Same bytes, fewer messages => cheaper (the PARTI aggregation
        // rationale).
        let m = CostModel::delta_i860();
        let many = m.comm_seconds(100, 100_000);
        let one = m.comm_seconds(1, 100_000);
        assert!(one < many);
        assert!((many - one - 99.0 * m.latency_s).abs() < 1e-12);
    }

    #[test]
    fn mflops_consistency() {
        let m = CostModel {
            mflops_per_rank: 1.0,
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e9,
            hop_latency_s: 0.0,
        };
        let cs = vec![counters(1e6, 0, 0); 4];
        let b = m.evaluate(&cs);
        // 4 Mflop in 1 second (perfectly balanced) = 4 MFlops.
        assert!((b.mflops - 4.0).abs() < 1e-9);
        assert!(b.comm_to_comp() < 1e-9);
    }

    #[test]
    fn class_breakdown_separates_traffic() {
        let m = CostModel {
            mflops_per_rank: 1.0,
            latency_s: 1.0,
            bandwidth_bytes_per_s: 1e9,
            hop_latency_s: 0.0,
        };
        let mut c = RankCounters::default();
        c.record_send(CommClass::Halo, 0);
        c.record_send(CommClass::Halo, 0);
        c.record_send(CommClass::Transfer, 0);
        let b = m.evaluate(&[c]);
        assert!((b.class(CommClass::Halo) - 2.0).abs() < 1e-12);
        assert!((b.class(CommClass::Transfer) - 1.0).abs() < 1e-12);
        assert!((b.class(CommClass::Inspector)).abs() < 1e-12);
    }

    #[test]
    fn unordered_model_is_slower() {
        let fast = CostModel::delta_i860();
        let slow = CostModel::delta_i860_unordered();
        assert!((fast.mflops_per_rank / slow.mflops_per_rank - 2.0).abs() < 1e-12);
    }
}
