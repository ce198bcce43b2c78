//! Order statistics and the history fingerprint.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; NaN for an empty sample so a missing measurement can never
/// read as a fast one.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile, `q` in [0, 1].
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The lower decile (nearest rank below; the minimum of fewer than
/// eleven samples). Interference from outside the process only ever adds
/// time, so for repeated identical work this is the steadiest estimate of
/// what the work itself costs.
pub fn low_decile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[(v.len() - 1) / 10]
}

/// (q1, q2, q3) exactly as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) — the rule the driver applies to ten runs.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// FNV-1a 64 over the bit patterns of a residual history: equal
/// fingerprints mean bit-identical histories.
pub fn history_fnv(history: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in history {
        for b in r.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic generator for the serve job mix (xorshift64*).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 scramble so small consecutive seeds diverge at once
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn low_decile_is_the_minimum_of_a_handful() {
        assert_eq!(low_decile(&[3.0, 1.0, 2.0]), 1.0);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(low_decile(&xs), 10.0);
        assert!(low_decile(&[]).is_nan());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
    }

    #[test]
    fn fingerprint_sees_one_bit() {
        let a = [1.0, 0.5];
        let b = [1.0, f64::from_bits(0.5f64.to_bits() + 1)];
        assert_ne!(history_fnv(&a), history_fnv(&b));
    }
}
