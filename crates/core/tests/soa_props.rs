//! Property tests of the plane-major [`SoaState`] layout: the
//! SoA↔AoS transpose must be a bitwise involution for every shape and
//! every representable value, since checkpoints and halo wire frames
//! rely on lossless conversion.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use eul3d_core::soa::SoaState;

/// Splice non-finite and signed-zero specials over a generated buffer
/// so every round-trip case exercises the values `f64` ranges cannot
/// produce. Bit patterns (not values) are what the layout must keep.
fn with_specials(mut vals: Vec<f64>) -> Vec<f64> {
    let specials = [
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE / 4.0, // subnormal
        f64::MAX,
    ];
    let stride = (vals.len() / specials.len()).max(1);
    for (k, s) in specials.iter().enumerate() {
        if let Some(slot) = vals.get_mut(k * stride) {
            *slot = *s;
        }
    }
    vals
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// `to_aos ∘ from_aos` is the identity on bit patterns for any
    /// vertex count and component count, NaN payloads and signed
    /// zeros included.
    #[test]
    fn aos_round_trip_is_bitwise_identity(
        n in 0usize..97,
        nc in 1usize..8,
        fill in proptest::collection::vec(-1e300f64..1e300, 97 * 8),
    ) {
        let aos = with_specials(fill[..n * nc].to_vec());
        let soa = SoaState::from_aos(&aos, nc);
        prop_assert_eq!(soa.n(), n);
        prop_assert_eq!(soa.nc(), nc);
        prop_assert_eq!(bits(&soa.to_aos()), bits(&aos));
    }

    /// `from_aos ∘ to_aos` restores the plane-major buffer bit-for-bit,
    /// and the transpose agrees with element-wise indexing: plane `c`
    /// of vertex `i` holds `aos[i*nc + c]`.
    #[test]
    fn soa_round_trip_and_indexing(
        n in 1usize..97,
        nc in 1usize..8,
        fill in proptest::collection::vec(-1e300f64..1e300, 97 * 8),
    ) {
        let mut soa = SoaState::new(n, nc);
        soa.flat_mut().copy_from_slice(&with_specials(fill[..n * nc].to_vec()));
        let aos = soa.to_aos();
        for i in 0..n {
            for c in 0..nc {
                prop_assert_eq!(aos[i * nc + c].to_bits(), soa.get(i, c).to_bits());
                prop_assert_eq!(soa.flat()[c * n + i].to_bits(), soa.get(i, c).to_bits());
            }
        }
        let back = SoaState::from_aos(&aos, nc);
        prop_assert_eq!(bits(back.flat()), bits(soa.flat()));
    }
}
