//! Property tests of the simulated machine: determinism, FIFO matching,
//! exact byte accounting and collective correctness over randomized
//! traffic on the windows.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use eul3d_delta::{run_spmd, CommClass, Rank};

/// Publish `vals` to `dst` as one halo record on stream `tag`.
fn send(r: &mut Rank, dst: usize, tag: u32, vals: &[f64]) {
    r.publish_f64(dst, tag, CommClass::Halo, vals.len(), |b| {
        b.extend_from_slice(vals)
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// all_reduce_sum equals the serial sum, bit-for-bit reproducibly,
    /// for arbitrary rank counts and values.
    #[test]
    fn all_reduce_matches_serial_sum(
        nranks in 1usize..12,
        base in proptest::collection::vec(-100.0f64..100.0, 1..6),
    ) {
        let expect: Vec<f64> = base
            .iter()
            .map(|b| (0..nranks).map(|r| b * (r as f64 + 1.0)).sum())
            .collect();
        let run1 = run_spmd(nranks, |r| {
            let mine: Vec<f64> = base.iter().map(|b| b * (r.id as f64 + 1.0)).collect();
            r.all_reduce_sum(&mine)
        });
        let run2 = run_spmd(nranks, |r| {
            let mine: Vec<f64> = base.iter().map(|b| b * (r.id as f64 + 1.0)).collect();
            r.all_reduce_sum(&mine)
        });
        for res in &run1.results {
            for (a, e) in res.iter().zip(&expect) {
                prop_assert!((a - e).abs() <= 1e-9 * e.abs().max(1.0));
            }
        }
        // Determinism: both runs bitwise identical.
        prop_assert_eq!(&run1.results, &run2.results);
    }

    /// Records on the same (src, tag) stream are consumed in publish
    /// order (FIFO), regardless of interleaving with another stream —
    /// whose records the consumer reads later than they were published.
    #[test]
    fn same_tag_messages_are_fifo(count in 1usize..20, noise_tag in 2u32..50) {
        let run = run_spmd(2, move |r| {
            if r.id == 0 {
                for k in 0..count {
                    if k % 3 == 0 {
                        send(r, 1, noise_tag, &[-1.0]);
                    }
                    send(r, 1, 1, &[k as f64]);
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for k in 0..count {
                    got.push(r.consume_f64(0, 1, |v| v[0]));
                    if k % 3 == 0 {
                        assert_eq!(r.consume_f64(0, noise_tag, |v| v[0]), -1.0);
                    }
                }
                got
            }
        });
        let got = &run.results[1];
        prop_assert_eq!(got.len(), count);
        for (k, &v) in got.iter().enumerate() {
            prop_assert_eq!(v, k as f64, "FIFO violated at position {}", k);
        }
    }

    /// Byte accounting is exact for arbitrary payload sizes.
    #[test]
    fn byte_accounting_is_exact(lens in proptest::collection::vec(0usize..50, 1..8)) {
        let expected: u64 = lens.iter().map(|&l| 8 * l as u64).sum();
        let lens2 = lens.clone();
        let run = run_spmd(2, move |r| {
            if r.id == 0 {
                for (k, &l) in lens2.iter().enumerate() {
                    send(r, 1, k as u32 + 1, &vec![0.0; l]);
                }
            } else {
                for k in 0..lens2.len() {
                    r.consume_f64(0, k as u32 + 1, |_| ());
                }
            }
        });
        prop_assert_eq!(run.counters[0].total_bytes(), expected);
        prop_assert_eq!(run.counters[0].total_messages(), lens.len() as u64);
        prop_assert_eq!(run.counters[1].total_messages(), 0);
    }

    /// Index lists are charged 4 bytes an index, empty lists included
    /// as messages, on the sender's inspector class.
    #[test]
    fn all_to_all_byte_accounting_is_exact(
        lens in proptest::collection::vec(0usize..50, 3..4),
    ) {
        let lens2 = lens.clone();
        let run = run_spmd(3, move |r| {
            let lists: Vec<Vec<u32>> = (0..3)
                .map(|q| vec![r.id as u32; lens2[(r.id + q) % 3]])
                .collect();
            let mut heard = 0;
            r.all_to_all_u32(1, CommClass::Inspector, &lists, |_, req| heard += req.len());
            heard
        });
        for (p, c) in run.counters.iter().enumerate() {
            let idx: usize = (0..3).filter(|&q| q != p).map(|q| lens[(p + q) % 3]).sum();
            let sent = c.sent[CommClass::Inspector as usize];
            prop_assert_eq!(sent.messages, 2);
            prop_assert_eq!(sent.bytes, 4 * idx as u64);
            prop_assert_eq!(c.total_messages(), 2);
        }
        let heard: usize = run.results.iter().sum();
        let sent: usize = (0..3)
            .map(|p| (0..3).filter(|&q| q != p).map(|q| lens[(p + q) % 3]).sum::<usize>())
            .sum();
        prop_assert_eq!(heard, sent);
    }

    /// Broadcast delivers the root's payload to everyone for any root.
    #[test]
    fn broadcast_from_any_root(nranks in 1usize..10, root_pick in 0usize..10) {
        let root = root_pick % nranks;
        let run = run_spmd(nranks, move |r| r.broadcast(root, &[r.id as f64 + 0.5]));
        for res in &run.results {
            prop_assert_eq!(res[0], root as f64 + 0.5);
        }
    }
}
