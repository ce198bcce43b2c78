//! Rank-level tag-reservation discipline across recovery epochs: the
//! scenarios a fault rebuild actually exercises, run on the simulated
//! machine so `Rank::reserve_tags` (not just allocator arithmetic) is
//! what accepts or rejects each range.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_delta::{run_spmd, CommClass, COLLECTIVE_TAG_BASE};
use eul3d_parti::TagAllocator;

/// A recovery rebuild re-runs the same `range` sequence from an
/// epoch-shifted allocator. The rank must accept the new ranges
/// alongside the still-reserved epoch-0 ranges, and traffic on the
/// new tags must flow.
#[test]
fn epoch_shifted_rebuild_reuses_the_rank() {
    let run = run_spmd(2, |r| {
        let mut t0 = TagAllocator::new(100);
        let a = t0.range(2);
        let b = t0.range(3);
        r.reserve_tags(a, a + 2);
        r.reserve_tags(b, b + 3);

        // "Recovery": same base, epoch 1 — same call sequence, fresh
        // tag space. Reservations from before the failure stay put.
        let mut t1 = TagAllocator::for_epoch(100, 1);
        let a1 = t1.range(2);
        let b1 = t1.range(3);
        r.reserve_tags(a1, a1 + 2);
        r.reserve_tags(b1, b1 + 3);
        assert!(a1 > b + 3, "epoch 1 must sit above every epoch-0 range");

        // The rebuilt schedule's tags carry traffic.
        let (peer, me) = (1 - r.id, r.id as f64);
        r.publish_f64(peer, a1, CommClass::Halo, 1, |b| b.push(me));
        r.consume_f64(peer, a1, |got| got[0])
    });
    assert_eq!(run.results, vec![1.0, 0.0]);
}

/// Rebuilding *without* an epoch shift replays the same ranges and must
/// be rejected loudly — this is the bug the epoch stride exists to
/// prevent.
#[test]
#[should_panic(expected = "collides with reserved")]
fn same_epoch_rebuild_is_rejected() {
    run_spmd(1, |r| {
        let mut t0 = TagAllocator::new(100);
        let a = t0.range(2);
        r.reserve_tags(a, a + 2);
        let mut again = TagAllocator::for_epoch(100, 0);
        let a2 = again.range(2);
        r.reserve_tags(a2, a2 + 2);
    });
}

/// A reservation reaching into the collective tag space is rejected by
/// the rank itself, even if it was computed without the allocator.
#[test]
#[should_panic(expected = "collides with collective space")]
fn rank_rejects_reservations_in_collective_space() {
    run_spmd(1, |r| {
        r.reserve_tags(COLLECTIVE_TAG_BASE - 1, COLLECTIVE_TAG_BASE + 1);
    });
}

/// The allocator refuses to hand out a range crossing into collective
/// space even when the starting epoch is valid: exhaustion inside an
/// epoch fails loudly instead of wrapping into another epoch's stride.
#[test]
#[should_panic(expected = "ran into the collective space")]
fn exhaustion_inside_an_epoch_fails_loudly() {
    let mut t = TagAllocator::for_epoch(0, 900);
    loop {
        t.range(1 << 20);
    }
}
