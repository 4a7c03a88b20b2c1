//! What the benchmark knows about the machine it runs on: a fingerprint,
//! a calibration loop for the noise guard, two reference lines (peak FMA
//! rate, copy bandwidth) and the process's own CPU time and peak memory.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Value;

/// Worker threads every workload runs with: fixed by the benchmark, not
/// inherited from the environment, so two hosts with at least two cores
/// measure the same schedule.
pub fn bench_threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
    pub simd: String,
    pub cpu_model: String,
}

impl Host {
    pub fn fingerprint() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            threads: bench_threads(),
            simd: flux_tensor::simd::global_level().label().to_string(),
            cpu_model,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::object([
            ("nproc", Value::Num(self.nproc as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("simd", Value::Str(self.simd.clone())),
            ("cpu_model", Value::Str(self.cpu_model.clone())),
        ])
    }
}

/// A fixed amount of dependent integer work (about 25 ms on the reference
/// host), timed in milliseconds: the fastest of three passes, so a passing
/// interruption does not read as drift. Its only use is comparison with
/// itself: when it reads more than 10 % apart before and after a workload,
/// the machine itself changed speed under the measurement.
pub fn calib_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..13_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak single-core multiply-add rate in GFLOP/s: independent accumulator
/// chains, wide enough to hide the FMA latency, over data that stays in
/// registers. Uses 256-bit FMA when the CPU has it (the level the library's
/// best kernels dispatch to) and plain multiply-add chains otherwise.
pub fn fma_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        let start = Instant::now();
        // SAFETY: `fma_chains_avx2` requires the `avx2` and `fma` CPU
        // features, and the line above just detected both at run time.
        black_box(unsafe { fma_chains_avx2(ITERS) });
        // 10 chains × 8 lanes × 2 flops per iteration.
        return (ITERS * 160) as f64 / start.elapsed().as_secs_f64() / 1e9;
    }
    let start = Instant::now();
    let mut acc = [black_box(1.0f32); 32];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..ITERS {
        for v in &mut acc {
            *v = *v * a + b;
        }
    }
    black_box(acc);
    (ITERS * 64) as f64 / start.elapsed().as_secs_f64() / 1e9
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_cvtss_f32, _mm256_fmadd_ps, _mm256_set1_ps};
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm256_add_ps(sum, *v);
    }
    _mm256_cvtss_f32(sum)
}

/// Bytes per array of the copy-bandwidth probe.
pub const STREAM_ARRAY_BYTES: usize = 64 << 20;

/// Copy bandwidth in GB/s (bytes read plus bytes written per second) over
/// two [`STREAM_ARRAY_BYTES`] arrays: far beyond the 4 MiB L2 of the
/// reference host, though not beyond its 260 MiB L3, so it reads as the
/// sustainable rate of whatever level arrays of this size live in.
pub fn stream_gbps() -> f64 {
    let n = STREAM_ARRAY_BYTES / 4;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * STREAM_ARRAY_BYTES) as f64 / best / 1e9
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User plus system CPU seconds this process (all threads) has used, from
/// `/proc/self/stat`. The fields count clock ticks of 1/100 s — the unit
/// Linux reports to user space on every architecture — so a difference of
/// two readings resolves 10 ms.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may hold spaces; fields are
            // counted from the closing parenthesis. utime and stime are
            // fields 14 and 15.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_numbers() {
        assert!(bench_threads() >= 1 && bench_threads() <= 2);
        assert!(calib_ms() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        calib_ms();
        assert!(cpu_seconds() >= before);
        assert!(!Host::fingerprint().simd.is_empty());
    }
}
