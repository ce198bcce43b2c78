//! Host facts and the two-number roofline calibration measured in the
//! same traced run as the kernels it is held against.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Elements per triad array. Three arrays of this size are 384 MiB: more
/// than this host's 260 MiB shared L3, so a pass cannot be served from
/// cache, but well short of the 4 x LLC per array the HPC sheet asks for
/// (3.2 GiB here) — the README says so next to the number.
pub const TRIAD_LEN: usize = 16 << 20;

/// STREAM triad `a = b + s*c`, best of `passes`, in GB/s (24 bytes per
/// element: two reads and one write, write-allocate not counted).
pub fn triad_gbs(len: usize, passes: usize) -> f64 {
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for p in 0..passes {
        let s = 1.0 + p as f64;
        let t0 = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (24 * len) as f64 / best / 1e9
}

/// Peak double-precision multiply-add rate of one core, in GFLOP/s
/// (2 flops per fused multiply-add), best of three timings.
pub fn fma_gflops() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut best = f64::INFINITY;
    let mut flops = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        flops = fma_loop(ITERS);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops as f64 / best / 1e9
}

/// Run the multiply-add loop; returns the flops it performed.
fn fma_loop(iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the two features the function is compiled for were
        // just detected on the running CPU.
        return unsafe { fma_loop_avx2(iters) };
    }
    // Portable fallback: eight independent scalar chains.
    let (m, a) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    let mut acc = [1.0f64; 8];
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * m + a;
        }
    }
    black_box(acc);
    iters * 8 * 2
}

/// Ten independent 4-wide FMA chains: enough to cover the 4-cycle latency
/// of two FMA ports.
///
/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop_avx2(iters: u64) -> u64 {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    const CHAINS: usize = 10;
    let m = _mm256_set1_pd(black_box(1.000_000_1));
    let a = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, m, a);
        }
    }
    let mut sink = [0.0f64; 4];
    for x in &acc {
        // SAFETY: `sink` holds four f64, the width of one unaligned store.
        unsafe { _mm256_storeu_pd(sink.as_mut_ptr(), *x) };
        black_box(sink);
    }
    iters * CHAINS as u64 * 4 * 2
}
