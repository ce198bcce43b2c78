//! Property tests of the PARTI primitives over randomized distributions
//! and reference patterns.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use eul3d_delta::{run_spmd, CommClass};
use eul3d_parti::{localize, Translation};

/// Strategy: a random ownership map of `n` globals over `nranks` ranks
/// (every rank guaranteed at least one global by round-robin seeding).
fn arb_distribution(n: usize, nranks: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..nranks as u32, n).prop_map(move |mut v| {
        for r in 0..nranks {
            v[r % n] = r as u32;
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// gather ∘ localize delivers exactly the owner's values into the
    /// requested ghost slots, for arbitrary ownership and request sets.
    #[test]
    fn gather_is_owner_identity(
        parts in arb_distribution(24, 4),
        wanted in proptest::collection::vec(0u32..24, 1..10),
    ) {
        let nranks = 4;
        let run = run_spmd(nranks, |r| {
            let trans = Translation::from_parts(&parts, nranks);
            // Each rank asks for the globals in `wanted` it does not own.
            let mut required = Vec::new();
            for &g in &wanted {
                if trans.owner_of(g) != r.id && !required.contains(&g) {
                    required.push(g);
                }
            }
            let n_owned = parts.iter().filter(|&&p| p as usize == r.id).count();
            let slots: Vec<u32> =
                (0..required.len() as u32).map(|k| n_owned as u32 + k).collect();
            let sched = localize(r, &trans, &required, &slots, 100, CommClass::Halo);

            // Local data: owned entries hold their global id as value.
            let mut data = vec![f64::NAN; n_owned + required.len()];
            for g in 0..parts.len() as u32 {
                if trans.owner_of(g) == r.id {
                    data[trans.local_of(g) as usize] = g as f64;
                }
            }
            sched.gather_planes(r, &mut data, 1);
            // Check every ghost got its global's value.
            required
                .iter()
                .zip(&slots)
                .map(|(&g, &s)| (g, data[s as usize]))
                .collect::<Vec<_>>()
        });
        for per_rank in &run.results {
            for &(g, v) in per_rank {
                prop_assert_eq!(v, g as f64);
            }
        }
    }

    /// scatter_add conserves the global sum: whatever the ghosts held is
    /// added to owners and zeroed locally.
    #[test]
    fn scatter_add_conserves_sums(
        parts in arb_distribution(20, 3),
        ghost_vals in proptest::collection::vec(-5.0f64..5.0, 20),
    ) {
        let nranks = 3;
        let run = run_spmd(nranks, |r| {
            let trans = Translation::from_parts(&parts, nranks);
            // Every rank requests ALL globals it does not own.
            let mut required = Vec::new();
            for g in 0..parts.len() as u32 {
                if trans.owner_of(g) != r.id {
                    required.push(g);
                }
            }
            let n_owned = parts.iter().filter(|&&p| p as usize == r.id).count();
            let slots: Vec<u32> =
                (0..required.len() as u32).map(|k| n_owned as u32 + k).collect();
            let sched = localize(r, &trans, &required, &slots, 100, CommClass::Halo);

            let mut data = vec![0.0; n_owned + required.len()];
            for (k, &g) in required.iter().enumerate() {
                data[n_owned + k] = ghost_vals[g as usize] * (r.id as f64 + 1.0);
            }
            let ghost_total: f64 = data[n_owned..].iter().sum();
            sched.scatter_add_planes(r, &mut data, 1);
            let owned_total: f64 = data[..n_owned].iter().sum();
            let ghost_after: f64 = data[n_owned..].iter().sum();
            (ghost_total, owned_total, ghost_after)
        });
        let sent: f64 = run.results.iter().map(|(g, _, _)| g).sum();
        let received: f64 = run.results.iter().map(|(_, o, _)| o).sum();
        prop_assert!((sent - received).abs() < 1e-9, "sent {sent} vs received {received}");
        for &(_, _, after) in &run.results {
            prop_assert_eq!(after, 0.0, "ghost slots must be zeroed");
        }
    }
}
