//! The lane type every per-edge expression tree is written over: `f64`
//! (one edge) and, on x86-64, [`F64x4`] (four edges in one `__m256d`).
//! This module is the only place in the crate that names an intrinsic.
//!
//! # One rule per op
//! Each op is defined by a scalar rule that both impls follow lane by
//! lane, so a tree evaluated over [`F64x4`] leaves in lane `j` exactly
//! the bits the same tree over `f64` leaves on lane `j`'s inputs:
//!
//! * `+ − × ÷` and `sqrt` are IEEE correctly rounded; `neg` and `abs`
//!   flip and clear the sign bit. No FMA contraction, no reassociation.
//! * `max(a, b)` is `if b.is_nan() { a } else if a > b { a } else { b }`
//!   — `maxpd` plus a NaN blend. It is **not** `f64::max`, which returns
//!   the other zero for `(+0, −0)` and `(−0, +0)` and another payload
//!   for two NaNs.
//! * `lt(a, b)` is a mask: all bits set where `a < b` (ordered, so never
//!   for a NaN), else `+0.0`.
//! * `select(m, x, y)` is `x` where the sign bit of `m` is set, else `y`
//!   — the `blendvpd` rule, so a branch is evaluated on both sides and
//!   blended.
//!
//! The contract test below checks every op on a palette of specials.
//!
//! Helpers carrying lane values are `#[inline(always)]` functions, never
//! closures: a closure does not inherit its caller's
//! `#[target_feature]`, so its 256-bit ops would be legalized to split
//! 128-bit code with memory-ABI crossings.

use std::ops::{Add, Div, Mul, Neg, Sub};

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{avx2, F64x4};

/// A group of [`Lane::WIDTH`] edges' values of one quantity.
pub(crate) trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Edges per group.
    const WIDTH: usize;
    /// One index per lane (`[usize; WIDTH]`).
    type Idx: Copy + Default + AsRef<[usize]> + AsMut<[usize]>;
    /// The lanes in memory (`[f64; WIDTH]`).
    type Arr: Copy + Default + AsRef<[f64]> + AsMut<[f64]>;

    fn splat(x: f64) -> Self;
    fn load(a: Self::Arr) -> Self;
    fn store(self) -> Self::Arr;
    /// `base[idx[j]]` into lane `j`.
    ///
    /// # Safety
    /// Every `base.add(idx[j])` must be in bounds of one allocation.
    unsafe fn gather(base: *const f64, idx: &Self::Idx) -> Self;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn max(self, b: Self) -> Self;
    fn lt(self, b: Self) -> Self;
    fn select(m: Self, x: Self, y: Self) -> Self;
}

impl Lane for f64 {
    const WIDTH: usize = 1;
    type Idx = [usize; 1];
    type Arr = [f64; 1];

    #[inline(always)]
    fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn load([x]: [f64; 1]) -> f64 {
        x
    }
    #[inline(always)]
    fn store(self) -> [f64; 1] {
        [self]
    }
    #[inline(always)]
    unsafe fn gather(base: *const f64, [i]: &[usize; 1]) -> f64 {
        // SAFETY: forwarded bounds contract.
        unsafe { *base.add(*i) }
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, b: f64) -> f64 {
        if b.is_nan() || self > b {
            self
        } else {
            b
        }
    }
    #[inline(always)]
    fn lt(self, b: f64) -> f64 {
        if self < b {
            f64::from_bits(u64::MAX)
        } else {
            0.0
        }
    }
    #[inline(always)]
    fn select(m: f64, x: f64, y: f64) -> f64 {
        if m.is_sign_negative() {
            x
        } else {
            y
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! # Safety
    //! The ops below are safe functions around AVX intrinsics. The crate
    //! keeps one invariant for them: an [`F64x4`] is only created on a
    //! path that checked [`avx2`] first (the edge sweep's dispatch, the
    //! contract test).

    use core::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    use super::Lane;

    /// Runtime AVX2 check (result is cached by `std`).
    #[inline(always)]
    pub(crate) fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Four edges' values in one AVX register.
    #[derive(Clone, Copy)]
    pub(crate) struct F64x4(__m256d);

    macro_rules! binary {
        ($($op:ident :: $f:ident => $intrinsic:ident),*) => {$(
            impl $op for F64x4 {
                type Output = F64x4;
                #[inline(always)]
                fn $f(self, b: F64x4) -> F64x4 {
                    // SAFETY: AVX is present (module invariant).
                    F64x4(unsafe { $intrinsic(self.0, b.0) })
                }
            }
        )*};
    }
    binary!(Add::add => _mm256_add_pd, Sub::sub => _mm256_sub_pd,
            Mul::mul => _mm256_mul_pd, Div::div => _mm256_div_pd);

    impl Neg for F64x4 {
        type Output = F64x4;
        #[inline(always)]
        fn neg(self) -> F64x4 {
            // SAFETY: AVX is present (module invariant).
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    // SAFETY (every block below): AVX is present (module invariant).
    impl Lane for F64x4 {
        const WIDTH: usize = 4;
        type Idx = [usize; 4];
        type Arr = [f64; 4];

        #[inline(always)]
        fn splat(x: f64) -> F64x4 {
            F64x4(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn load(a: [f64; 4]) -> F64x4 {
            F64x4(unsafe { _mm256_loadu_pd(a.as_ptr()) })
        }
        #[inline(always)]
        fn store(self) -> [f64; 4] {
            let mut out = [0.0f64; 4];
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }
        /// Insert-chain loads: they beat `vgatherdpd` here, whose port
        /// occupancy stalls the scatter-heavy kernels on the machines we
        /// measured.
        #[inline(always)]
        unsafe fn gather(base: *const f64, idx: &[usize; 4]) -> F64x4 {
            // SAFETY: forwarded bounds contract; AVX as above.
            F64x4(unsafe {
                _mm256_set_pd(
                    *base.add(idx[3]),
                    *base.add(idx[2]),
                    *base.add(idx[1]),
                    *base.add(idx[0]),
                )
            })
        }
        #[inline(always)]
        fn sqrt(self) -> F64x4 {
            F64x4(unsafe { _mm256_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn abs(self) -> F64x4 {
            F64x4(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        /// `maxpd` returns `b` unless `a > b`; blend `a` back where `b`
        /// is NaN. The NaN test is integer arithmetic on the bits
        /// (`|b| > ∞`), which the compiler folds away for a constant `b`.
        #[inline(always)]
        fn max(self, b: F64x4) -> F64x4 {
            F64x4(unsafe {
                let abs =
                    _mm256_andnot_si256(_mm256_set1_epi64x(i64::MIN), _mm256_castpd_si256(b.0));
                let inf = _mm256_set1_epi64x(f64::INFINITY.to_bits() as i64);
                let b_nan = _mm256_castsi256_pd(_mm256_cmpgt_epi64(abs, inf));
                _mm256_blendv_pd(_mm256_max_pd(self.0, b.0), self.0, b_nan)
            })
        }
        #[inline(always)]
        fn lt(self, b: F64x4) -> F64x4 {
            F64x4(unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, b.0) })
        }
        #[inline(always)]
        fn select(m: F64x4, x: F64x4, y: F64x4) -> F64x4 {
            F64x4(unsafe { _mm256_blendv_pd(y.0, x.0, m.0) })
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use std::hint::black_box;

    use super::*;

    const PALETTE: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1.0,
        -1.0,
        1e150,
        -1e150,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// Every input tuple, `K` palette values each, cut into groups of
    /// four (the palette size makes the count a multiple of four).
    fn groups<const K: usize>() -> Vec<[[f64; 4]; K]> {
        let total = PALETTE.len().pow(K as u32);
        let tuple = |t: usize| -> [f64; K] {
            std::array::from_fn(|k| PALETTE[t / PALETTE.len().pow(k as u32) % PALETTE.len()])
        };
        (0..total / 4)
            .map(|g| std::array::from_fn(|k| std::array::from_fn(|j| tuple(4 * g + j)[k])))
            .collect()
    }

    /// Lane `j` of `vector` on the group against `scalar` on lane `j`'s
    /// inputs, as bits.
    fn agree<const K: usize>(
        name: &str,
        vector: fn([F64x4; K]) -> F64x4,
        scalar: fn([f64; K]) -> f64,
    ) {
        for group in groups::<K>() {
            let got = vector(black_box(group.map(F64x4::load))).store();
            for (j, got) in got.into_iter().enumerate() {
                let args = black_box(group.map(|lanes| lanes[j]));
                let want = scalar(args);
                assert_eq!(got.to_bits(), want.to_bits(), "{name}{args:?}");
            }
        }
    }

    #[test]
    fn every_op_gives_the_f64_bits_in_every_lane() {
        if !avx2() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        agree::<1>("neg", |[a]| -a, |[a]| -a);
        agree::<1>("abs", |[a]| a.abs(), |[a]| Lane::abs(a));
        agree::<1>("sqrt", |[a]| a.sqrt(), |[a]| Lane::sqrt(a));
        agree::<2>("add", |[a, b]| a + b, |[a, b]| a + b);
        agree::<2>("sub", |[a, b]| a - b, |[a, b]| a - b);
        agree::<2>("mul", |[a, b]| a * b, |[a, b]| a * b);
        agree::<2>("div", |[a, b]| a / b, |[a, b]| a / b);
        agree::<2>("max", |[a, b]| a.max(b), |[a, b]| Lane::max(a, b));
        agree::<2>("lt", |[a, b]| Lane::lt(a, b), |[a, b]| Lane::lt(a, b));
        agree::<3>(
            "select",
            |[m, x, y]| F64x4::select(m, x, y),
            |[m, x, y]| f64::select(m, x, y),
        );
        for v in PALETTE {
            let got = F64x4::splat(black_box(v)).store();
            assert_eq!(
                got.map(f64::to_bits),
                [f64::splat(v).to_bits(); 4],
                "splat {v}"
            );
        }
        // The gather: lane `j` reads `base[idx[j]]`.
        let idx = [7, 0, 11, 3];
        // SAFETY: every index is < PALETTE.len().
        let got = unsafe { F64x4::gather(PALETTE.as_ptr(), &idx) }.store();
        for (g, i) in got.iter().zip(idx) {
            let want = unsafe { f64::gather(PALETTE.as_ptr(), &[i]) };
            assert_eq!(g.to_bits(), want.to_bits(), "gather {i}");
        }
    }

    #[test]
    fn max_is_the_instruction_rule_not_f64_max() {
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(Lane::max(0.0, -0.0)), bits(-0.0));
        assert_eq!(bits(Lane::max(-0.0, 0.0)), bits(0.0));
        assert_eq!(bits(Lane::max(-f64::NAN, f64::NAN)), bits(-f64::NAN));
        assert_eq!(bits(Lane::max(f64::NAN, 1.0)), bits(1.0));
        assert_eq!(bits(Lane::max(1.0, f64::NAN)), bits(1.0));
    }
}
