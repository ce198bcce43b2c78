//! The inspector: `localize`, PARTI's schedule-building primitive.
//!
//! "During program execution, the inspector examines the data references
//! made by a processor, and calculates what off-processor data needs to
//! be fetched" (§4.1). Here the references are presented as the list of
//! global indices a rank needs as ghosts, together with the local slots
//! they map to. The inspector deduplicates them (hash table, §4.3),
//! groups them by owner, and exchanges request lists with every peer so
//! owners learn what to export. The exchange itself runs on the simulated
//! machine and is charged to [`CommClass::Inspector`].

use std::collections::HashMap;

use eul3d_delta::{CommClass, Rank};

use crate::schedule::Schedule;
use crate::translation::Translation;

/// Build a communication [`Schedule`] for this rank.
///
/// * `required` — global indices this rank references but does not own;
/// * `slots` — the local (ghost) slot for each entry of `required`;
/// * `tag` — base tag for the schedule's executors. **Schedules sharing a
///   machine must use tags at least 2 apart** (scatter uses `tag + 1`);
///   `localize` *enforces* this by reserving `[tag, tag + 2)` on the rank
///   and panicking on overlap with any schedule built earlier;
/// * `class` — traffic class its *executors* will be charged to.
///
/// Duplicate `required` entries are deduplicated (first slot wins), the
/// paper's hash-table optimization. Every rank must call `localize` the
/// same number of times with the same tags (SPMD discipline).
pub fn localize(
    rank: &mut Rank,
    trans: &Translation,
    required: &[u32],
    slots: &[u32],
    tag: u32,
    class: CommClass,
) -> Schedule {
    assert_eq!(required.len(), slots.len());
    rank.reserve_tags(tag, tag + 2);
    let me = rank.id;

    // Hash-table dedup of off-processor references (§4.3).
    let mut seen: HashMap<u32, u32> = HashMap::with_capacity(required.len());
    // Requests per owner, in stable order of first reference.
    let mut want: Vec<Vec<u32>> = vec![Vec::new(); rank.nranks];
    let mut want_slots: Vec<Vec<u32>> = vec![Vec::new(); rank.nranks];
    for (&g, &s) in required.iter().zip(slots) {
        let owner = trans.owner_of(g);
        assert_ne!(owner, me, "required global {g} is owned locally");
        if seen.insert(g, s).is_none() {
            want[owner].push(g);
            want_slots[owner].push(s);
        }
    }

    // Request exchange: every rank sends its (possibly empty) request
    // list to every peer, so peers know what to export. Empty lists are
    // sent too — the inspector is a synchronizing all-to-all, exactly
    // once per schedule construction, amortized over many executions.
    for (peer, req) in want.iter().enumerate() {
        if peer != me {
            let mut buf = rank.take_u32(req.len());
            buf.extend_from_slice(req);
            rank.send_u32(peer, tag, buf, CommClass::Inspector);
        }
    }
    let mut sends: Vec<(usize, Vec<u32>)> = Vec::new();
    for peer in 0..rank.nranks {
        if peer == me {
            continue;
        }
        let req = rank.recv_u32(peer, tag);
        if !req.is_empty() {
            let locals: Vec<u32> = req
                .iter()
                .map(|&g| {
                    assert_eq!(trans.owner_of(g), me, "peer {peer} requested non-owned {g}");
                    trans.local_of(g)
                })
                .collect();
            sends.push((peer, locals));
        }
        rank.recycle_u32(req);
    }

    let recvs: Vec<(usize, Vec<u32>)> = want_slots
        .into_iter()
        .enumerate()
        .filter(|(p, s)| *p != me && !s.is_empty())
        .collect();

    Schedule {
        tag,
        class,
        sends,
        recvs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_delta::run_spmd;

    /// 8 globals block-distributed over 2 ranks (0..4 on rank 0).
    fn block_translation() -> Translation<'static> {
        let parts: Vec<u32> = (0..8).map(|g| (g / 4) as u32).collect();
        Translation::from_parts(&parts, 2)
    }

    #[test]
    fn localize_round_trip_gather() {
        let run = run_spmd(2, |r| {
            let trans = block_translation();
            // Each rank owns 4 entries (locals 0..4) and wants the first
            // two entries of the peer as ghosts in slots 4, 5.
            let required: Vec<u32> = if r.id == 0 { vec![4, 5] } else { vec![0, 1] };
            let sched = localize(r, &trans, &required, &[4, 5], 100, CommClass::Halo);
            let mut data: Vec<f64> = (0..4).map(|l| (r.id * 100 + l) as f64).collect();
            data.extend([0.0, 0.0]);
            sched.gather_planes(r, &mut data, 1);
            data
        });
        assert_eq!(&run.results[0][4..], &[100.0, 101.0]);
        assert_eq!(&run.results[1][4..], &[0.0, 1.0]);
    }

    #[test]
    fn localize_deduplicates_required() {
        let run = run_spmd(2, |r| {
            let trans = block_translation();
            // Duplicate references to the same global: only one ghost
            // entry should be scheduled.
            let required: Vec<u32> = if r.id == 0 {
                vec![4, 4, 4]
            } else {
                vec![0, 0, 0]
            };
            let sched = localize(r, &trans, &required, &[4, 4, 4], 100, CommClass::Halo);
            (sched.nghosts(), sched.nexports())
        });
        assert_eq!(run.results, vec![(1, 1), (1, 1)]);
    }

    #[test]
    fn localize_nothing_required() {
        let run = run_spmd(3, |r| {
            let parts = vec![0, 1, 2];
            let trans = Translation::from_parts(&parts, 3);
            let sched = localize(r, &trans, &[], &[], 100, CommClass::Halo);
            let mut data = vec![r.id as f64];
            sched.gather_planes(r, &mut data, 1);
            (sched.nghosts(), data[0])
        });
        for (id, &(g, d)) in run.results.iter().enumerate() {
            assert_eq!(g, 0);
            assert_eq!(d, id as f64);
        }
    }

    #[test]
    fn localize_then_scatter_add() {
        let run = run_spmd(2, |r| {
            let trans = block_translation();
            let required: Vec<u32> = if r.id == 0 { vec![4] } else { vec![3] };
            let sched = localize(r, &trans, &required, &[4], 100, CommClass::Halo);
            // Accumulate 2.5 into the ghost, flush to owner.
            let mut data = vec![1.0, 1.0, 1.0, 1.0, 2.5];
            sched.scatter_add_planes(r, &mut data, 1);
            data
        });
        // Rank 0's local 3 (global 3) received rank 1's ghost 2.5.
        assert_eq!(run.results[0], vec![1.0, 1.0, 1.0, 3.5, 0.0]);
        // Rank 1's local 0 (global 4) received rank 0's ghost 2.5.
        assert_eq!(run.results[1], vec![3.5, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn inspector_traffic_is_classified() {
        let run = run_spmd(2, |r| {
            let trans = block_translation();
            let required: Vec<u32> = if r.id == 0 { vec![4] } else { vec![0] };
            localize(r, &trans, &required, &[4], 100, CommClass::Halo);
        });
        for c in &run.counters {
            assert!(c.sent[CommClass::Inspector as usize].messages > 0);
            assert_eq!(c.sent[CommClass::Halo as usize].messages, 0);
        }
    }

    #[test]
    #[should_panic(expected = "collides with reserved")]
    fn adjacent_schedule_tags_are_rejected() {
        run_spmd(2, |r| {
            let trans = block_translation();
            let required: Vec<u32> = if r.id == 0 { vec![4] } else { vec![0] };
            localize(r, &trans, &required, &[4], 100, CommClass::Halo);
            // Tag 101 is the first schedule's scatter stream (tag + 1):
            // without enforcement this silently corrupts data.
            localize(r, &trans, &required, &[4], 101, CommClass::Halo);
        });
    }

    #[test]
    fn localize_many_ranks() {
        // 12 globals over 4 ranks; every rank wants one entry from every
        // other rank.
        let run = run_spmd(4, |r| {
            let parts: Vec<u32> = (0..12).map(|g| (g / 3) as u32).collect();
            let trans = Translation::from_parts(&parts, 4);
            let mut required = Vec::new();
            let mut slots = Vec::new();
            let mut slot = 3u32;
            for peer in 0..4 {
                if peer != r.id {
                    required.push((peer * 3) as u32);
                    slots.push(slot);
                    slot += 1;
                }
            }
            let sched = localize(r, &trans, &required, &slots, 100, CommClass::Halo);
            let mut data = vec![r.id as f64; 3];
            data.extend([f64::NAN; 3]);
            sched.gather_planes(r, &mut data, 1);
            data[3..].to_vec()
        });
        for (id, ghosts) in run.results.iter().enumerate() {
            let expected: Vec<f64> = (0..4).filter(|&p| p != id).map(|p| p as f64).collect();
            assert_eq!(ghosts, &expected);
        }
    }
}
