//! The SPMD machine: `run_spmd` spawns one thread per rank, shares the
//! windows and the inboxes, runs the rank body, and collects results and
//! counters.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::error::DeltaError;
use crate::msg::{Inbox, RankCounters};
use crate::rank::Rank;
use crate::shm::WindowRegistry;

/// Most ranks (or hybrid threads) one machine supports. Rank ids travel
/// as `u32` in messages and trace events; capping well below `u32::MAX`
/// keeps every narrowing conversion provably lossless, and 2^20 ranks is
/// three orders of magnitude past the 512-node Delta.
pub const MAX_RANKS: usize = 1 << 20;

/// Validate a requested rank/thread count against the machine's limits.
pub fn check_nranks(nranks: usize) -> Result<(), DeltaError> {
    if nranks == 0 {
        return Err(DeltaError::NoRanks);
    }
    if nranks > MAX_RANKS {
        return Err(DeltaError::TooManyRanks {
            requested: nranks,
            max: MAX_RANKS,
        });
    }
    Ok(())
}

/// Result of an SPMD run: per-rank return values and accounting.
#[derive(Debug)]
pub struct MachineRun<T> {
    pub results: Vec<T>,
    pub counters: Vec<RankCounters>,
}

impl<T> MachineRun<T> {
    /// Machine-total flops.
    pub fn total_flops(&self) -> f64 {
        self.counters.iter().map(|c| c.flops).sum()
    }
}

/// Run `body` on `nranks` simulated ranks and wait for completion.
///
/// The ranks share one [`WindowRegistry`], which carries every record —
/// schedule streams ([`Rank::publish_f64`] / [`Rank::consume_f64`]),
/// collectives and the inspector's requests — and one inbox per rank for
/// the failure notices. Hundreds of ranks are fine on a single-core
/// host: a wait spins briefly and then yields its time slice, so the
/// scheduler interleaves them; determinism comes from fully-addressed
/// windows, not timing. Stacks default to 4 MiB — rank bodies keep
/// their big arrays on the heap.
pub fn run_spmd<T, F>(nranks: usize, body: F) -> MachineRun<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    if let Err(e) = check_nranks(nranks) {
        panic!("run_spmd: {e}");
    }
    // Every rank holds every inbox, so it can notify any peer and a
    // survivor can adopt a dead rank's inbox during fault recovery.
    let inboxes: Arc<[Inbox]> = (0..nranks).map(|_| Inbox::default()).collect();
    let windows = WindowRegistry::new(nranks);
    let body = &body;

    let mut slots: Vec<Option<(T, RankCounters)>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for id in 0..nranks {
            let inboxes = inboxes.clone();
            let windows = windows.clone();
            let h = std::thread::Builder::new()
                .name(format!("delta-rank-{id}"))
                .stack_size(4 << 20)
                .spawn_scoped(scope, move || {
                    let mut rank = Rank::new(id, nranks, windows, inboxes);
                    // A panicking rank poisons its peers so ranks blocked
                    // in a wait abort instead of wedging the scope join;
                    // the original panic is then re-raised.
                    match catch_unwind(AssertUnwindSafe(|| body(&mut rank))) {
                        Ok(out) => (out, rank.counters),
                        Err(e) => {
                            rank.poison_peers();
                            resume_unwind(e);
                        }
                    }
                })
                .unwrap_or_else(|e| unreachable!("spawn rank thread: {e}"));
            handles.push(h);
        }
        let mut panics = Vec::new();
        for (id, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(v) => slots[id] = Some(v),
                // Join every thread before re-raising, so no rank outlives
                // the scope.
                Err(e) => panics.push(e),
            }
        }
        if !panics.is_empty() {
            // Re-raise the originating panic, not a poison casualty —
            // casualties only say "some peer died".
            let k = panics
                .iter()
                .position(|e| !is_poison_casualty(e.as_ref()))
                .unwrap_or(0);
            resume_unwind(panics.swap_remove(k));
        }
    });

    let (results, counters) = slots.into_iter().map(Option::unwrap).unzip();
    MachineRun { results, counters }
}

/// True if a thread's panic payload is the secondary "peer died" panic
/// raised by [`Rank`]'s poison handling rather than an original failure.
fn is_poison_casualty(e: &(dyn std::any::Any + Send)) -> bool {
    let msg = e
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&'static str>().copied());
    msg.is_some_and(|m| m.contains("aborting blocked receive"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CommClass, CommStats};
    use std::sync::Barrier;

    /// Publish `vals` to `dst` as one halo record on stream `tag`.
    fn send(r: &mut Rank, dst: usize, tag: u32, vals: &[f64]) {
        r.publish_f64(dst, tag, CommClass::Halo, vals.len(), |b| {
            b.extend_from_slice(vals)
        });
    }

    /// Consume the next record from `src` on stream `tag`.
    fn recv(r: &mut Rank, src: usize, tag: u32) -> Vec<f64> {
        r.consume_f64(src, tag, <[f64]>::to_vec)
    }

    #[test]
    fn single_rank_runs() {
        let run = run_spmd(1, |r| r.id * 10);
        assert_eq!(run.results, vec![0]);
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its id to the next; receives from the previous.
        let n = 8;
        let run = run_spmd(n, |r| {
            let next = (r.id + 1) % r.nranks;
            let prev = (r.id + r.nranks - 1) % r.nranks;
            send(r, next, 1, &[r.id as f64]);
            recv(r, prev, 1)[0]
        });
        for (id, &got) in run.results.iter().enumerate() {
            assert_eq!(got as usize, (id + n - 1) % n);
        }
        // Each rank sent exactly one 8-byte record.
        for c in &run.counters {
            assert_eq!(c.total_messages(), 1);
            assert_eq!(c.total_bytes(), 8);
        }
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let run = run_spmd(2, |r| {
            if r.id == 0 {
                send(r, 1, 2, &[2.0]);
                send(r, 1, 1, &[1.0]);
                0.0
            } else {
                let first = recv(r, 0, 1);
                let second = recv(r, 0, 2);
                first[0] * 10.0 + second[0]
            }
        });
        assert_eq!(run.results[1], 12.0);
    }

    #[test]
    fn shm_all_reduce_sum_is_correct_and_deterministic() {
        let run1 = run_spmd(16, |r| r.all_reduce_sum(&[r.id as f64, 1.0]));
        let expect: f64 = (0..16).sum::<usize>() as f64;
        for v in &run1.results {
            assert_eq!(v[0], expect);
            assert_eq!(v[1], 16.0);
        }
        let run2 = run_spmd(16, |r| r.all_reduce_sum(&[r.id as f64, 1.0]));
        assert_eq!(run1.results, run2.results, "bitwise deterministic");
    }

    #[test]
    fn shm_oversubscribed_all_reduce_loop_finishes() {
        // Four ranks per core on the reference host, every one of them
        // waiting on a window most of the time: a wait that held its
        // core instead of yielding it would starve the rank it waits for.
        let run = run_spmd(8, |r| {
            let mut acc = [r.id as f64, 1.0];
            for _ in 0..400 {
                acc = [r.all_reduce_sum(&acc)[0] / 8.0, 1.0];
            }
            acc[0]
        });
        assert!(run.results.iter().all(|&v| v == 3.5), "{:?}", run.results);
    }

    #[test]
    fn shm_all_reduce_max() {
        let run = run_spmd(7, |r| r.all_reduce_max(&[-(r.id as f64), r.id as f64]));
        for v in &run.results {
            assert_eq!(v[0], 0.0);
            assert_eq!(v[1], 6.0);
        }
    }

    #[test]
    fn many_ranks_on_one_core() {
        // 256 ranks exchanging with neighbours must complete quickly.
        let run = run_spmd(256, |r| {
            let next = (r.id + 1) % r.nranks;
            let prev = (r.id + r.nranks - 1) % r.nranks;
            send(r, next, 7, &[r.id as f64; 100]);
            recv(r, prev, 7).iter().sum::<f64>()
        });
        assert_eq!(run.results.len(), 256);
        assert_eq!(run.counters[3].total_bytes(), 800);
    }

    #[test]
    fn shm_broadcast_reaches_everyone() {
        let run = run_spmd(9, |r| {
            let got = r.broadcast(3, &[r.id as f64 * 0.0 + 42.0, r.id as f64]);
            (got[0], got[1])
        });
        for &(a, b) in &run.results {
            assert_eq!(a, 42.0);
            assert_eq!(b, 3.0, "payload must come from the root");
        }
    }

    #[test]
    fn shm_gather_to_root_concatenates_in_rank_order() {
        let run = run_spmd(5, |r| r.gather_to_root(2, &[r.id as f64, -(r.id as f64)]));
        assert_eq!(
            run.results[2],
            vec![0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]
        );
        assert!(run.results[0].is_empty());
    }

    #[test]
    fn shm_all_to_all_u32_delivers_every_list_at_four_bytes_an_index() {
        // Rank p sends rank q the list [p, q] repeated q times: every
        // rank hears from every peer in rank order, empty lists included.
        let n = 5;
        let run = run_spmd(n, |r| {
            let lists: Vec<Vec<u32>> = (0..r.nranks)
                .map(|q| [r.id as u32, q as u32].repeat(q))
                .collect();
            let mut got = Vec::new();
            r.all_to_all_u32(9, CommClass::Inspector, &lists, |peer, req| {
                got.push((peer, req.to_vec()));
            });
            got
        });
        for (me, got) in run.results.iter().enumerate() {
            let want: Vec<(usize, Vec<u32>)> = (0..n)
                .filter(|&p| p != me)
                .map(|p| (p, [p as u32, me as u32].repeat(me)))
                .collect();
            assert_eq!(got, &want, "rank {me}");
        }
        for (p, c) in run.counters.iter().enumerate() {
            let idx: u64 = (0..n).filter(|&q| q != p).map(|q| 2 * q as u64).sum();
            assert_eq!(
                c.sent[CommClass::Inspector as usize],
                CommStats {
                    messages: n as u64 - 1,
                    bytes: 4 * idx
                },
                "rank {p}"
            );
        }
    }

    #[test]
    fn hop_accounting_uses_manhattan_distance() {
        // 16 ranks => 4x4 mesh. Rank 0 at (0,0) sends to rank 15 at (3,3):
        // 6 hops; to rank 1 at (0,1): 1 hop.
        let run = run_spmd(16, |r| {
            if r.id == 0 {
                send(r, 15, 1, &[0.0]);
                send(r, 1, 2, &[0.0]);
            }
            if r.id == 15 {
                recv(r, 0, 1);
            }
            if r.id == 1 {
                recv(r, 0, 2);
            }
            (r.hops_to(15), r.hops_to(1))
        });
        assert_eq!(run.results[0], (6, 1));
        assert_eq!(run.counters[0].hops, 7);
    }

    #[test]
    fn mesh_dims_is_an_exact_nearly_square_factorization() {
        use crate::rank::mesh_dims;
        // Property sweep: for every n the grid is exact (rows*cols == n,
        // so every rank id has a valid coordinate — no holes), rows <=
        // cols, and rows is the largest divisor not exceeding sqrt(n).
        for n in 1..=1000usize {
            let (rows, cols) = mesh_dims(n);
            assert_eq!(rows * cols, n, "n={n}: grid must be exact");
            assert!(rows <= cols, "n={n}: {rows}x{cols} not row-minor");
            for f in rows + 1..=n {
                if f * f > n {
                    break;
                }
                assert_ne!(n % f, 0, "n={n}: {f} is a larger near-square divisor");
            }
        }
        // The regression that motivated the fix: 8 ranks used to land on
        // a ragged 3x3 grid with a hole; now it is an exact 2x4.
        assert_eq!(mesh_dims(8), (2, 4));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(512), (16, 32)); // the Delta itself
    }

    #[test]
    fn hop_distances_are_symmetric_and_zero_on_self() {
        for n in [2usize, 3, 5, 6, 8, 12, 17, 24] {
            let run = run_spmd(n, |r| {
                (0..r.nranks).map(|d| r.hops_to(d)).collect::<Vec<_>>()
            });
            for a in 0..n {
                assert_eq!(run.results[a][a], 0, "n={n}: self-distance");
                for b in 0..n {
                    assert_eq!(
                        run.results[a][b], run.results[b][a],
                        "n={n}: hops({a},{b}) asymmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn nranks_cap_is_enforced() {
        assert_eq!(check_nranks(0), Err(crate::error::DeltaError::NoRanks));
        assert!(check_nranks(1).is_ok());
        assert!(check_nranks(MAX_RANKS).is_ok());
        assert_eq!(
            check_nranks(MAX_RANKS + 1),
            Err(crate::error::DeltaError::TooManyRanks {
                requested: MAX_RANKS + 1,
                max: MAX_RANKS
            })
        );
    }

    #[test]
    fn shm_consecutive_collectives_do_not_cross_talk() {
        let run = run_spmd(4, |r| {
            let a = r.all_reduce_sum(&[1.0])[0];
            let b = r.all_reduce_sum(&[2.0])[0];
            let c = r.all_reduce_max(&[r.id as f64])[0];
            (a, b, c)
        });
        for &(a, b, c) in &run.results {
            assert_eq!(a, 4.0);
            assert_eq!(b, 8.0);
            assert_eq!(c, 3.0);
        }
    }

    #[test]
    fn shm_collectives_are_allocation_free_after_warm_up() {
        let run = run_spmd(8, |r| {
            let mut v = [r.id as f64, 1.0, 2.0];
            let mut g = Vec::new();
            // Warm the control windows' records (and g's capacity).
            for _ in 0..3 {
                r.all_reduce_sum_in_place(&mut v);
                r.all_reduce_max_in_place(&mut v);
                r.broadcast_in_place(0, &mut v);
                r.gather_to_root_into(0, &v, &mut g);
            }
            let warm = r.counters.comm_allocs;
            for _ in 0..10 {
                r.all_reduce_sum_in_place(&mut v);
                r.all_reduce_max_in_place(&mut v);
                r.broadcast_in_place(0, &mut v);
                r.gather_to_root_into(0, &v, &mut g);
            }
            (warm, r.counters.comm_allocs)
        });
        for &(warm, steady) in &run.results {
            assert_eq!(
                steady, warm,
                "steady-state collectives must not allocate (warm-up: {warm})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "all_reduce_max length mismatch")]
    fn shm_all_reduce_max_rejects_mismatched_lengths() {
        run_spmd(3, |r| {
            // Rank 2 contributes a short vector; zip would silently drop
            // the longer ranks' trailing entries without the assert.
            if r.id == 2 {
                r.all_reduce_max(&[1.0])
            } else {
                r.all_reduce_max(&[1.0, 2.0])
            }
        });
    }

    #[test]
    #[should_panic(expected = "all_reduce length mismatch")]
    fn shm_all_reduce_sum_rejects_mismatched_lengths() {
        run_spmd(3, |r| {
            if r.id == 1 {
                r.all_reduce_sum(&[1.0, 2.0, 3.0])
            } else {
                r.all_reduce_sum(&[1.0])
            }
        });
    }

    #[test]
    #[should_panic(expected = "collides with reserved")]
    fn overlapping_tag_ranges_are_rejected() {
        run_spmd(2, |r| {
            r.reserve_tags(100, 102);
            r.reserve_tags(101, 103); // adjacent tags: overlap at 101
        });
    }

    #[test]
    fn disjoint_tag_ranges_are_accepted() {
        let run = run_spmd(2, |r| {
            r.reserve_tags(100, 102);
            r.reserve_tags(102, 104);
            r.reserve_tags(0, 2);
            true
        });
        assert!(run.results.iter().all(|&ok| ok));
    }

    #[test]
    #[should_panic(expected = "tag collides with collective space")]
    fn shm_schedule_streams_stay_below_the_control_windows() {
        run_spmd(2, |r| {
            if r.id == 0 {
                send(r, 1, crate::rank::COLLECTIVE_TAG_BASE, &[1.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "deliberate failure on rank 1")]
    fn shm_rank_panic_poisons_peers_blocked_on_a_window() {
        run_spmd(4, |r| {
            if r.id == 1 {
                panic!("deliberate failure on rank {}", r.id);
            }
            // Every other rank blocks on a record that will never come.
            recv(r, 1, 77)
        });
    }

    #[test]
    #[should_panic(expected = "deliberate failure on rank 2")]
    fn shm_rank_panic_poisons_peers_blocked_in_a_collective() {
        // Rank 0 waits in the fan-in for rank 2's part, ranks 1 and 3 in
        // the fan-out. The poison makes each an "aborting blocked
        // receive" casualty, and `run_spmd` re-raises rank 2's panic, not
        // a casualty's (nor a wedge, which would name no rank).
        run_spmd(4, |r| {
            if r.id == 2 {
                panic!("deliberate failure on rank {}", r.id);
            }
            r.all_reduce_sum(&[1.0])
        });
    }

    #[test]
    fn shm_planned_epoch_keeps_a_faster_peers_records_apart() {
        // Rank 1 runs ahead: it takes the planned epoch bump and
        // publishes its next-epoch collective part before rank 0 has
        // consumed its old-epoch one. Each epoch's control window holds
        // its own record; nothing is mixed up or held back.
        let ahead = Barrier::new(2);
        let run = run_spmd(2, |r| {
            if r.id == 1 {
                r.gather_to_root(0, &[10.0]);
                r.advance_epoch(1);
                r.gather_to_root(0, &[11.0]);
                ahead.wait();
                vec![vec![r.all_reduce_sum(&[2.0])[0]]]
            } else {
                ahead.wait();
                let old = r.gather_to_root(0, &[0.0]);
                r.advance_epoch(1);
                let new = r.gather_to_root(0, &[1.0]);
                vec![old, new, vec![r.all_reduce_sum(&[3.0])[0]]]
            }
        });
        assert_eq!(
            run.results[0],
            vec![vec![0.0, 10.0], vec![1.0, 11.0], vec![5.0]]
        );
        assert_eq!(run.results[1], vec![vec![5.0]]);
    }

    mod faults {
        use super::*;
        use crate::cost::CostModel;
        use crate::fault::{FaultCause, FaultPlan, FaultSignal};
        use std::sync::Arc;
        use std::time::Duration;

        const WINDOW: Duration = Duration::from_secs(5);

        /// Run `f`, returning the [`FaultSignal`] it unwound with.
        fn caught<R>(f: impl FnOnce() -> R) -> FaultSignal {
            let e = match catch_unwind(AssertUnwindSafe(f)) {
                Ok(_) => panic!("expected a fault"),
                Err(e) => e,
            };
            match e.downcast::<FaultSignal>() {
                Ok(s) => *s,
                Err(e) => resume_unwind(e),
            }
        }

        /// Two ranks under the fault plan `spec` and bounded timeout
        /// `timeout`, exchanging records on their windows.
        fn windowed<T: Send>(
            spec: &str,
            timeout: Duration,
            body: impl Fn(&mut Rank) -> T + Sync,
        ) -> MachineRun<T> {
            let plan = Arc::new(FaultPlan::parse(spec, 2).unwrap());
            run_spmd(2, |r| {
                r.install_faults(plan.clone(), Some(timeout));
                r.set_fault_cycle(0);
                body(r)
            })
        }

        fn publish(r: &mut Rank, vals: &[f64]) {
            send(r, 1 - r.id, 5, vals);
        }

        fn consume(r: &mut Rank) -> Vec<f64> {
            recv(r, 1 - r.id, 5)
        }

        #[test]
        fn shm_duplicated_record_is_discarded_by_seq_filter() {
            let run = windowed("dup:0>1#0", WINDOW, |r| {
                if r.id == 0 {
                    publish(r, &[1.0]);
                    publish(r, &[2.0]);
                    return 0.0;
                }
                // Without the sequence filter the duplicate of the first
                // record would shadow the second. One record, sieved
                // twice, adds no wait.
                consume(r)[0] + consume(r)[0]
            });
            assert_eq!(run.results[1], 3.0);
            assert_eq!(run.counters[1].dup_discards, 1);
        }

        #[test]
        fn shm_delay_fault_is_priced_as_latency() {
            let run = windowed("delay:0>1#0=500", WINDOW, |r| {
                if r.id == 0 {
                    publish(r, &[4.0]);
                    return 4.0;
                }
                consume(r)[0]
            });
            // Priced on the sender, delivered intact.
            assert_eq!(run.results, vec![4.0, 4.0]);
            assert_eq!(run.counters[0].fault_ticks, 500);
            let m = CostModel::delta_i860();
            let with = m.evaluate(&run.counters).comm_seconds;
            let mut clean = run.counters.clone();
            clean[0].fault_ticks = 0;
            let without = m.evaluate(&clean).comm_seconds;
            assert!((with - without - 500.0 * m.latency_s).abs() < 1e-12);
        }

        #[test]
        fn shm_dropped_record_raises_lost_on_the_gap() {
            let run = windowed("drop:0>1#0", WINDOW, |r| {
                if r.id == 0 {
                    publish(r, &[1.0]);
                    publish(r, &[2.0]);
                    return true;
                }
                // The second record arrives with seq 1 while seq 0 was
                // never seen: a detectable gap.
                matches!(
                    caught(|| consume(r)),
                    FaultSignal::Recover {
                        epoch: 1,
                        cause: FaultCause::Lost,
                        ..
                    }
                )
            });
            assert!(run.results.iter().all(|&ok| ok));
        }

        #[test]
        fn shm_silently_lost_record_hits_the_timeout() {
            // Drop the only record on the stream: no gap ever shows, so
            // the bounded wait is the detector of last resort.
            let run = windowed("drop:0>1#0", Duration::from_millis(50), |r| {
                if r.id == 0 {
                    publish(r, &[1.0]);
                    return true;
                }
                matches!(
                    caught(|| consume(r)),
                    FaultSignal::Recover {
                        epoch: 1,
                        cause: FaultCause::Timeout,
                        ..
                    }
                )
            });
            assert!(run.results.iter().all(|&ok| ok));
        }

        #[test]
        fn shm_slow_but_alive_peer_does_not_trip_the_silent_loss_detector() {
            // Regression for real preemptible threads: a peer that is
            // merely descheduled (here: sleeping far past the detection
            // window) must not be mistaken for a dropped record. The plan
            // carries faults — but none that can drop — so the bounded
            // wait must stay disarmed even though a timeout was
            // requested.
            let plan = Arc::new(FaultPlan::parse("delay:0>1#5=10", 2).unwrap());
            assert!(!plan.may_drop());
            let run = windowed("delay:0>1#5=10", Duration::from_millis(20), |r| {
                if r.id == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                    publish(r, &[9.0]);
                    9.0
                } else {
                    // Under a wall-clock detector this would unwind with
                    // FaultCause::Timeout after 20 ms.
                    consume(r)[0]
                }
            });
            assert_eq!(run.results, vec![9.0, 9.0]);
        }

        #[test]
        fn drop_capable_plan_still_arms_the_detector() {
            let plan = Arc::new(FaultPlan::parse("drop:0>1#0", 2).unwrap());
            assert!(plan.may_drop());
        }

        #[test]
        fn shm_corrupted_record_fails_its_checksum() {
            let run = windowed("corrupt:0>1#0", WINDOW, |r| {
                if r.id == 0 {
                    publish(r, &[1.0, 2.0]);
                    return true;
                }
                matches!(
                    caught(|| consume(r)),
                    FaultSignal::Recover {
                        epoch: 1,
                        cause: FaultCause::Corrupt,
                        ..
                    }
                )
            });
            assert!(run.results.iter().all(|&ok| ok));
        }

        #[test]
        fn shm_stale_epoch_records_are_never_delivered_after_recovery() {
            let run = run_spmd(2, |r| {
                if r.id == 1 {
                    r.gather_to_root(0, &[7.0]); // epoch 0, never consumed
                    r.begin_recovery(1);
                    r.gather_to_root(0, &[8.0]); // epoch 1
                    Vec::new()
                } else {
                    // This rank detected the (hypothetical) failure first
                    // and entered epoch 1 before consuming anything.
                    r.begin_recovery(1);
                    r.gather_to_root(0, &[0.0])
                }
            });
            assert_eq!(
                run.results[0],
                vec![0.0, 8.0],
                "the epoch-0 record must not be delivered"
            );
            // Each abort notice is charged as recovery traffic: the
            // epoch word and no dead ranks.
            for c in &run.counters {
                assert_eq!(
                    c.sent[CommClass::Recovery as usize],
                    CommStats {
                        messages: 1,
                        bytes: 4
                    }
                );
            }
        }

        #[test]
        fn shm_killed_rank_announces_death_and_its_windows_are_adoptable() {
            let plan = Arc::new(FaultPlan::parse("kill:1@0", 3).unwrap());
            let run = run_spmd(3, |r| {
                r.install_faults(plan.clone(), Some(WINDOW));
                r.set_fault_cycle(0);
                match r.id {
                    1 => {
                        // The kill fires on this rank's first comm op.
                        assert!(matches!(
                            caught(|| send(r, 0, 5, &[1.0])),
                            FaultSignal::Killed
                        ));
                        r.announce_death();
                        -1.0
                    }
                    0 => {
                        // Blocked on the dead rank; the death notice (or a
                        // peer's abort relaying it) unwinds the wait.
                        match caught(|| recv(r, 1, 5)) {
                            FaultSignal::Recover { epoch: 1, dead, .. } => {
                                assert_eq!(dead, vec![1]);
                            }
                            other => panic!("unexpected signal {other:?}"),
                        }
                        r.begin_recovery(1);
                        // Adopt the dead rank's partition: epoch-1 records
                        // addressed to rank 1 reach the adopted instance.
                        let mut v = r.adopt(1);
                        recv(&mut v, 2, 9)[0]
                    }
                    _ => {
                        match caught(|| recv(r, 1, 5)) {
                            FaultSignal::Recover { epoch: 1, dead, .. } => {
                                assert_eq!(dead, vec![1]);
                            }
                            other => panic!("unexpected signal {other:?}"),
                        }
                        r.begin_recovery(1);
                        r.publish_f64(1, 9, CommClass::Recovery, 1, |b| b.push(42.0));
                        0.0
                    }
                }
            });
            assert_eq!(run.results[0], 42.0, "the adopted rank must be reachable");
            assert!(run.counters[0].recoveries >= 1);
        }

        #[test]
        fn shm_dead_member_unwinds_peers_waiting_in_a_collective() {
            // Rank 1 dies at its first operation, the publish of its
            // part: rank 0 waits in the fan-in, ranks 2 and 3 in the
            // fan-out. The notice unwinds all three into recovery, and
            // the epoch-1 collective, with rank 1's part adopted by rank
            // 2, gives the fault-free sum.
            let plan = Arc::new(FaultPlan::parse("kill:1@0", 4).unwrap());
            let run = run_spmd(4, |r| {
                r.install_faults(plan.clone(), Some(WINDOW));
                r.set_fault_cycle(0);
                if r.id == 1 {
                    let sig = caught(|| r.all_reduce_sum(&[1.0]));
                    assert!(matches!(sig, FaultSignal::Killed));
                    r.announce_death();
                    return 0.0;
                }
                match caught(|| r.all_reduce_sum(&[1.0])) {
                    FaultSignal::Recover { epoch: 1, dead, .. } => assert_eq!(dead, vec![1]),
                    other => panic!("unexpected signal {other:?}"),
                }
                r.begin_recovery(1);
                if r.id != 2 {
                    return r.all_reduce_sum(&[1.0])[0];
                }
                let mut v = r.adopt(1);
                std::thread::scope(|s| {
                    let replica = s.spawn(move || v.all_reduce_sum(&[1.0])[0]);
                    let mine = r.all_reduce_sum(&[1.0])[0];
                    assert_eq!(replica.join().unwrap(), mine);
                    mine
                })
            });
            assert_eq!(run.results, vec![4.0, 0.0, 4.0, 4.0]);
        }

        #[test]
        fn shm_dead_publisher_unwinds_a_blocked_consumer() {
            // Rank 1 dies at its second publish; rank 0, blocked in the
            // window wait for that record, hears the death notice and
            // unwinds into recovery instead of waiting out the wedge
            // timeout.
            let first_read = Barrier::new(2);
            let run = windowed("kill:1@0+1", WINDOW, |r| {
                // The barrier keeps the death after the first consume: a
                // wait that hears the notice first may leave through it
                // even with the record there, which is just as correct.
                if r.id == 1 {
                    publish(r, &[1.0]);
                    first_read.wait();
                    assert!(matches!(caught(|| publish(r, &[2.0])), FaultSignal::Killed));
                    r.announce_death();
                    return true;
                }
                assert_eq!(consume(r), vec![1.0]);
                first_read.wait();
                match caught(|| consume(r)) {
                    FaultSignal::Recover {
                        epoch: 1,
                        dead,
                        cause: FaultCause::PeerDeath,
                    } => assert_eq!(dead, vec![1]),
                    other => panic!("unexpected signal {other:?}"),
                }
                r.begin_recovery(1);
                true
            });
            assert!(run.results.iter().all(|&ok| ok));
        }

        #[test]
        fn shm_dead_consumer_unwinds_a_blocked_publisher() {
            // Rank 1 dies at its first consume; rank 0's second publish
            // finds the window still full and leaves its wait through
            // the death notice.
            let run = windowed("kill:1@0", WINDOW, |r| {
                if r.id == 1 {
                    assert!(matches!(caught(|| consume(r)), FaultSignal::Killed));
                    r.announce_death();
                    return true;
                }
                publish(r, &[1.0]);
                matches!(
                    caught(|| publish(r, &[2.0])),
                    FaultSignal::Recover {
                        cause: FaultCause::PeerDeath,
                        ..
                    }
                )
            });
            assert!(run.results.iter().all(|&ok| ok));
        }
    }
}
