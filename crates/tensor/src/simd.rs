//! Runtime-dispatched SIMD microkernels.
//!
//! The cache-blocked GEMM ([`crate::matrix`]) and the hot element-wise loops
//! (GELU forward/backward, AXPY accumulation, SPSA perturbation) funnel
//! through a small table of function pointers resolved **once per process**
//! from the host CPU and the `FLUX_SIMD` environment variable:
//!
//! | `FLUX_SIMD`      | meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `0` / `scalar`   | pinned scalar reference kernels                    |
//! | `1` / `auto` / _unset_ | best level the CPU supports (AVX2+FMA, else scalar) |
//! | `avx2`           | force AVX2+FMA (panics if unsupported)             |
//!
//! # Determinism contract
//!
//! Every kernel variant is **individually deterministic**: for a fixed
//! `FLUX_SIMD` setting the whole training stack produces bit-identical
//! results across `FLUX_THREADS` 1/4/8, schedules and arrival orders,
//! because the per-element accumulation association of each variant is
//! fixed and independent of blocking, row counts and column counts.
//!
//! Across variants the contract is tiered:
//!
//! - **AVX2+FMA agrees with scalar within tolerance.** The scalar GEMM
//!   kernels group four depth terms (`t = a₀b₀ + a₁b₁ + a₂b₂ + a₃b₃;
//!   acc += t`, left-associated, no FMA) — a loop the compiler already
//!   vectorises for the SSE2 baseline of x86-64, which is why there is no
//!   hand-written level between the two. The AVX2 kernels use one fused
//!   multiply-add per depth step (`acc = fma(aₚ, bₚⱼ, acc)`, sequential over
//!   the depth), which is *more* accurate than the scalar grouping but not
//!   bit-equal to it; scalar-vs-AVX2 agreement is pinned by tolerance
//!   proptests (≤1e-5 relative) and end-to-end score-equality tests.
//!   Column tails (`n mod 8`) run the same FMA chain under a lane mask, so
//!   tail columns round exactly like full vectors and nothing outside the
//!   `n` columns is read or written.
//! - **Element-wise kernels are bitwise level-independent.** AXPY, the SPSA
//!   perturbation and the GELU family deliberately avoid FMA and replicate
//!   the scalar association, so they are bit-identical at every level.
//!
//! The active level is process-global ([`global_level`], resolved lazily
//! from the environment); tests and benches compare variants in-process via
//! the scoped, thread-local [`with_level`] override. The override applies
//! to the **current thread only** — never wrap pool-parallel code in it, or
//! jobs executed by worker threads would run at a different level than jobs
//! drained inline by the caller.
//!
//! # The GEMM tile reads its operands where they lie
//!
//! One kernel per level ([`Kernels::tile`]) computes
//! `out[r][j] += Σₚ A[r][p] · B[p][j]` for a tile of `rows ≤ mr` output
//! rows, addressing `A` through a row stride and a depth stride
//! (`A[r][p] = a[r·rs + p·ds]`). Nothing is packed or transposed for it:
//! a row-major operand is `(rs, ds) = (lda, 1)`, a transposed one is
//! `(1, lda)`, the Gram slab is `(1, n)`, and a single row (`vecmat`, the
//! last rows of a matrix) is a tile of smaller height. Strides and heights
//! only say where values are fetched from and how work is grouped — they
//! never enter the arithmetic — so every driver in [`crate::matrix`] and
//! [`crate::gram`] produces the same bits as any other route to the same
//! operands. The safe table entries check every extent they are about to
//! touch (see [`TileKernel`]); the `unsafe` bodies rely on that alone.

use std::sync::atomic::{AtomicU8, Ordering};

/// Register-tile height of the scalar GEMM microkernel. Each level
/// publishes its own height via [`Kernels::mr`]; the drivers in `matrix.rs`
/// and `gram.rs` hand the tile at most that many rows at a time.
const MR4: usize = 4;

/// Register-tile height of the AVX2 GEMM microkernel: six rows × 16 columns
/// uses 12 accumulator registers + 2 `B` vectors + 1 broadcast (15 of the
/// 16 ymm registers) and is FMA-throughput-bound where the four-row tile is
/// load-bound.
const MR6: usize = 6;

/// A SIMD instruction-set level with a complete kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pinned scalar reference kernels (the pre-dispatch behavior).
    Scalar = 0,
    /// AVX2+FMA 256-bit kernels (tolerance-equivalent to scalar).
    Avx2 = 1,
}

impl SimdLevel {
    /// Short lowercase name (matches the `FLUX_SIMD` spellings).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => SimdLevel::Scalar,
            _ => SimdLevel::Avx2,
        }
    }
}

/// Whether this build/host can run the given level's kernels.
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Best level the host CPU supports.
pub fn detect_best() -> SimdLevel {
    if is_supported(SimdLevel::Avx2) {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

fn resolve_from_env() -> SimdLevel {
    match std::env::var("FLUX_SIMD").as_deref() {
        Ok("0") | Ok("scalar") => SimdLevel::Scalar,
        Ok("avx2") => {
            assert!(
                is_supported(SimdLevel::Avx2),
                "FLUX_SIMD=avx2 unsupported on this host"
            );
            SimdLevel::Avx2
        }
        Ok("1") | Ok("auto") | Ok("") | Err(_) => detect_best(),
        Ok(other) => {
            panic!("FLUX_SIMD: unrecognized value {other:?} (expected 0|1|auto|scalar|avx2)")
        }
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The process-wide kernel level, resolved from `FLUX_SIMD` on first use.
pub fn global_level() -> SimdLevel {
    match GLOBAL_LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let level = resolve_from_env();
            // A racing first resolution computes the same value (the env is
            // fixed), so a plain store is fine.
            GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Overrides the process-wide level (tests and benches that compare whole
/// training runs across levels, where work fans out to pool threads that a
/// thread-local override cannot reach). Returns the previous level. Must
/// only be called between runs — never while kernels may be executing on
/// other threads.
///
/// # Panics
///
/// Panics if the level is unsupported on this host.
pub fn set_global_level(level: SimdLevel) -> SimdLevel {
    assert!(
        is_supported(level),
        "{} kernels unsupported on this host",
        level.label()
    );
    let prev = global_level();
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
    prev
}

thread_local! {
    static OVERRIDE: std::cell::Cell<Option<SimdLevel>> = const { std::cell::Cell::new(None) };
}

/// The level kernels dispatch on for the current thread: the innermost
/// [`with_level`] override if one is active, else [`global_level`].
pub fn active_level() -> SimdLevel {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(global_level)
}

/// Runs `f` with kernels pinned to `level` **on the current thread**
/// (panic-safe, restores the previous override). For in-process variant
/// comparison in tests and microbenches; see the module docs for why this
/// must not wrap pool-parallel code.
///
/// # Panics
///
/// Panics if the level is unsupported on this host.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(
        is_supported(level),
        "{} kernels unsupported on this host",
        level.label()
    );
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

/// Register tile: `out[r][j] += Σₚ A[r][p] · B[p][j]` for `r < rows`,
/// `j < n`, `p < kc`, every operand read where it lies —
/// `A[r][p] = a[r·rs + p·ds]`, `B[p][j] = b[p·ldb + j]`,
/// `out[r][j] = out[r·ldc + j]`. `rows` is any height in `1..=mr`
/// ([`Kernels::mr`]); an empty tile (`rows`, `n` or `kc` zero) is a no-op.
/// Elements of `out` outside the `rows × n` window are never written.
///
/// # Panics
///
/// The table entries are safe functions: each checks, before touching
/// anything, that `rows ≤ mr`, that the furthest elements
/// `a[(rows−1)·rs + (kc−1)·ds]`, `b[(kc−1)·ldb + n − 1]` and
/// `out[(rows−1)·ldc + n − 1]` exist, and that output rows do not overlap
/// (`n ≤ ldc` when `rows > 1`), and panics otherwise.
pub type TileKernel = fn(
    rows: usize,
    a: &[f32],
    rs: usize,
    ds: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
);

/// `dst += scale * src`, element-wise.
pub type AxpyKernel = fn(dst: &mut [f32], src: &[f32], scale: f32);

/// `dst = base + scale * dir`, element-wise (the SPSA perturbation shape).
pub type PerturbKernel = fn(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32);

/// In-place element-wise map (GELU forward).
pub type MapKernel = fn(data: &mut [f32]);

/// `out = f'(x) ⊙ grad` (GELU backward recomputing the tanh).
pub type GradKernel = fn(x: &[f32], grad: &[f32], out: &mut [f32]);

/// `out = f'(x, y) ⊙ grad` reusing the cached forward output `y`.
pub type GradCachedKernel = fn(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]);

/// The complete kernel set of one SIMD level.
pub struct Kernels {
    /// Level these kernels implement.
    pub level: SimdLevel,
    /// Register-tile height of [`Kernels::tile`]: the most output rows the
    /// tile kernel accumulates at once. Row counts only group work — they
    /// never change any element's accumulation order — so differing heights
    /// per level cannot break a level's internal determinism.
    pub mr: usize,
    /// GEMM register-tile kernel over `1..=mr` rows of in-place operands.
    pub tile: TileKernel,
    /// `dst += scale * src` (bit-identical across levels).
    pub axpy: AxpyKernel,
    /// `dst = base + scale * dir` (bit-identical across levels).
    pub perturb: PerturbKernel,
    /// In-place GELU forward (bit-identical across levels).
    pub gelu: MapKernel,
    /// GELU backward (bit-identical across levels).
    pub gelu_grad: GradKernel,
    /// Cached-output GELU backward (bit-identical across levels).
    pub gelu_grad_cached: GradCachedKernel,
}

/// The kernel table for the current thread's [`active_level`].
pub fn active() -> &'static Kernels {
    kernels_for(active_level())
}

/// The kernel table of an explicit level (unsupported levels fall back to
/// scalar; dispatch paths only pass supported levels).
pub fn kernels_for(level: SimdLevel) -> &'static Kernels {
    match level {
        SimdLevel::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => &AVX2_KERNELS,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR_KERNELS,
    }
}

static SCALAR_KERNELS: Kernels = Kernels {
    level: SimdLevel::Scalar,
    mr: MR4,
    tile: tile_scalar,
    axpy: axpy_scalar,
    perturb: perturb_scalar,
    gelu: gelu_scalar_slice,
    gelu_grad: gelu_grad_scalar_slice,
    gelu_grad_cached: gelu_grad_cached_scalar_slice,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx2,
    mr: MR6,
    tile: tile_avx2_dispatch,
    axpy: axpy_avx2_dispatch,
    perturb: perturb_avx2_dispatch,
    gelu: gelu_avx2_dispatch,
    gelu_grad: gelu_grad_avx2_dispatch,
    gelu_grad_cached: gelu_grad_cached_avx2_dispatch,
};

// ---------------------------------------------------------------------------
// The bounds of a GEMM tile, checked once for both levels.
// ---------------------------------------------------------------------------

/// `(steps − 1) · stride + width`: one past the furthest offset a walk of
/// `steps ≥ 1` strided steps over `width` contiguous elements touches.
/// `None` on overflow.
fn span(steps: usize, stride: usize, width: usize) -> Option<usize> {
    (steps - 1).checked_mul(stride)?.checked_add(width)
}

/// The bounds half of the [`TileKernel`] contract, shared by both levels:
/// returns `false` for an empty tile and panics when a non-empty one would
/// reach outside `a`, `b` or `out`. Real assertions, not debug ones: the
/// AVX2 body dereferences raw pointers on the strength of exactly these
/// checks, and three comparisons per tile are noise next to its FMAs.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tile_in_bounds(
    mr: usize,
    rows: usize,
    a_len: usize,
    rs: usize,
    ds: usize,
    kc: usize,
    b_len: usize,
    ldb: usize,
    n: usize,
    out_len: usize,
    ldc: usize,
) -> bool {
    if rows == 0 || n == 0 || kc == 0 {
        return false;
    }
    assert!(rows <= mr, "tile of {rows} rows on an {mr}-row kernel");
    let a_end = span(rows, rs, 0).and_then(|r| span(kc, ds, 1)?.checked_add(r));
    assert!(
        a_end.is_some_and(|end| end <= a_len),
        "tile reads A past its end: rows {rows} rs {rs} kc {kc} ds {ds} len {a_len}"
    );
    assert!(
        span(kc, ldb, n).is_some_and(|end| end <= b_len),
        "tile reads B past its end: kc {kc} ldb {ldb} n {n} len {b_len}"
    );
    assert!(
        span(rows, ldc, n).is_some_and(|end| end <= out_len) && (rows == 1 || n <= ldc),
        "tile writes out of bounds: rows {rows} ldc {ldc} n {n} len {out_len}"
    );
    true
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the pinned pre-dispatch behavior).
// ---------------------------------------------------------------------------

/// Scalar tile: per element, the depth is consumed four terms at a time with
/// the grouping `t = a₀b₀ + a₁b₁ + a₂b₂ + a₃b₃; out += t` (left-associated,
/// no FMA), then one term at a time for the `kc mod 4` tail. Rows are
/// independent and the reference takes them one after another inside each
/// depth group (the four `B` rows stay hot across the tile), so a row
/// computed alone and a row computed inside a taller tile are bitwise equal
/// by construction.
#[allow(clippy::too_many_arguments)]
fn tile_scalar(
    rows: usize,
    a: &[f32],
    rs: usize,
    ds: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
) {
    if !tile_in_bounds(
        MR4,
        rows,
        a.len(),
        rs,
        ds,
        kc,
        b.len(),
        ldb,
        n,
        out.len(),
        ldc,
    ) {
        return;
    }
    let mut p = 0;
    while p + 4 <= kc {
        let b0 = &b[p * ldb..][..n];
        let b1 = &b[(p + 1) * ldb..][..n];
        let b2 = &b[(p + 2) * ldb..][..n];
        let b3 = &b[(p + 3) * ldb..][..n];
        for (r, out_row) in out.chunks_mut(ldc).take(rows).enumerate() {
            let out_row = &mut out_row[..n];
            let at = r * rs + p * ds;
            let (a0, a1, a2, a3) = (a[at], a[at + ds], a[at + 2 * ds], a[at + 3 * ds]);
            for j in 0..n {
                out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        }
        p += 4;
    }
    while p < kc {
        let b0 = &b[p * ldb..][..n];
        for (r, out_row) in out.chunks_mut(ldc).take(rows).enumerate() {
            let a0 = a[r * rs + p * ds];
            for (o, &v) in out_row[..n].iter_mut().zip(b0) {
                *o += a0 * v;
            }
        }
        p += 1;
    }
}

fn axpy_scalar(dst: &mut [f32], src: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += scale * b;
    }
}

fn perturb_scalar(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), base.len());
    debug_assert_eq!(dst.len(), dir.len());
    for ((o, &b), &d) in dst.iter_mut().zip(base).zip(dir) {
        *o = b + scale * d;
    }
}

fn gelu_scalar_slice(data: &mut [f32]) {
    for v in data {
        *v = crate::ops::gelu_scalar(*v);
    }
}

fn gelu_grad_scalar_slice(x: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    for (o, (&xi, &gi)) in out.iter_mut().zip(x.iter().zip(grad)) {
        *o = crate::ops::gelu_grad_scalar(xi) * gi;
    }
}

fn gelu_grad_cached_scalar_slice(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    for (o, ((&xi, &yi), &gi)) in out.iter_mut().zip(x.iter().zip(y).zip(grad)) {
        let d = if xi.abs() > CACHED_GRAD_CUTOFF {
            let t = (2.0 * yi / xi - 1.0).clamp(-1.0, 1.0);
            let sech2 = 1.0 - t * t;
            0.5 * (1.0 + t) + 0.5 * xi * sech2 * GELU_C * (1.0 + GELU_3A * xi * xi)
        } else {
            crate::ops::gelu_grad_scalar(xi)
        };
        *o = d * gi;
    }
}

/// `sqrt(2/π)`, the tanh-GELU constant (must match `ops::gelu_scalar`).
const GELU_C: f32 = 0.797_884_6;
/// The cubic coefficient of the tanh-GELU argument.
const GELU_A: f32 = 0.044715;
/// `3 · 0.044715` pre-folded at f32 precision, exactly as LLVM folds the
/// `3.0 * 0.044715` constant product in the scalar gradient formula.
const GELU_3A: f32 = 3.0 * 0.044715;
/// Below this |x| the cached-output gradient recovery is ill-conditioned
/// and the exact recompute path is used instead.
const CACHED_GRAD_CUTOFF: f32 = 1e-3;

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

/// Lane masks of the AVX2 column tail: `TAIL_MASKS[8 - lanes..][..8]` has
/// its first `lanes` lanes set (all ones) and the rest clear.
#[cfg(target_arch = "x86_64")]
static TAIL_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The safe face of the AVX2 tile, and the one place its `# Safety`
/// conditions are established (the bodies in [`x86`] only restate them).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn tile_avx2_dispatch(
    rows: usize,
    a: &[f32],
    rs: usize,
    ds: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
) {
    if !tile_in_bounds(
        MR6,
        rows,
        a.len(),
        rs,
        ds,
        kc,
        b.len(),
        ldb,
        n,
        out.len(),
        ldc,
    ) {
        return;
    }
    let lanes = n % 8;
    let mask: &[i32; 8] = TAIL_MASKS[8 - lanes..][..8]
        .try_into()
        .expect("eight mask lanes");
    debug_assert!(
        mask.iter()
            .enumerate()
            .all(|(lane, &m)| m == if lane < lanes { -1 } else { 0 }),
        "tail mask must cover exactly n mod 8 = {lanes} lanes"
    );
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    // SAFETY: the AVX2 table is only selected after `is_x86_feature_detected!`
    // confirmed avx2+fma (see `is_supported`). `tile_in_bounds` returned
    // `true`, so `1 ≤ rows ≤ 6`, every `a[r·rs + p·ds]`, `b[p·ldb + j]` and
    // `out[r·ldc + j]` with `r < rows`, `p < kc`, `j < n` lies inside its
    // slice, and output rows are disjoint; `mask` has exactly the first
    // `n mod 8` lanes set, so the masked tail touches columns `< n` only.
    unsafe {
        match rows {
            1 => x86::tile_avx2::<1>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
            2 => x86::tile_avx2::<2>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
            3 => x86::tile_avx2::<3>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
            4 => x86::tile_avx2::<4>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
            5 => x86::tile_avx2::<5>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
            _ => x86::tile_avx2::<MR6>(a, rs, ds, kc, b, ldb, n, out, ldc, mask),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn axpy_avx2_dispatch(dst: &mut [f32], src: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::axpy_avx2(dst, src, scale) }
}

#[cfg(target_arch = "x86_64")]
fn perturb_avx2_dispatch(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), base.len());
    debug_assert_eq!(dst.len(), dir.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::perturb_avx2(dst, base, dir, scale) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_avx2_dispatch(data: &mut [f32]) {
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_avx2(data) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_grad_avx2_dispatch(x: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_grad_avx2(x, grad, out) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_grad_cached_avx2_dispatch(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_grad_cached_avx2(x, y, grad, out) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies. Everything here is `unsafe fn` with a
    //! `#[target_feature]` attribute; the safe dispatch wrappers above hold
    //! the detection invariant.
    #![allow(clippy::missing_safety_doc)]

    use super::{CACHED_GRAD_CUTOFF, GELU_3A, GELU_A, GELU_C};
    use core::arch::x86_64::*;

    // -- AVX2+FMA GEMM: sequential depth-ordered FMA chains -----------------

    /// AVX2 tile of `R` rows: per element, `acc = fma(A[r][p], B[p][j], acc)`
    /// sequentially over the depth, starting from the value already in
    /// `out` — at every height and in every column path, so a row computed
    /// alone is bitwise equal to the same row inside a taller tile.
    ///
    /// Columns go 16 at a time; what is left (`n mod 16`) is one more pass of
    /// one or two vectors whose last vector is lane-masked when `n mod 8 ≠ 0`.
    /// At `R = 6` the 16-column pass keeps 12 accumulators, 2 `B` vectors
    /// and 1 broadcast live (15 ymm registers) and issues 12 FMAs per 8
    /// loads, so it is bound by FMA throughput; a four-row tile at the same
    /// width issues 8 FMAs per 6 loads and stalls on the load ports instead.
    ///
    /// # Safety
    ///
    /// Needs avx2+fma, `R ≥ 1`, and — for every `r < R`, `p < kc`, `j < n` —
    /// `a.add(r·rs + p·ds)`, `b.add(p·ldb + j)` readable and
    /// `out.add(r·ldc + j)` readable and writable, with the `R` output rows
    /// disjoint. `mask` must have exactly its first `n mod 8` lanes set.
    /// [`super::tile_avx2_dispatch`] establishes all of it.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_avx2<const R: usize>(
        a: *const f32,
        rs: usize,
        ds: usize,
        kc: usize,
        b: *const f32,
        ldb: usize,
        n: usize,
        out: *mut f32,
        ldc: usize,
        mask: &[i32; 8],
    ) {
        let mask = _mm256_loadu_si256(mask.as_ptr().cast());
        let mut j = 0;
        while j + 16 <= n {
            cols::<R, 2, false>(a, rs, ds, kc, b.add(j), ldb, out.add(j), ldc, mask);
            j += 16;
        }
        let (b, out) = (b.add(j), out.add(j));
        match n - j {
            0 => {}
            8 => cols::<R, 1, false>(a, rs, ds, kc, b, ldb, out, ldc, mask),
            1..=7 => cols::<R, 1, true>(a, rs, ds, kc, b, ldb, out, ldc, mask),
            _ => cols::<R, 2, true>(a, rs, ds, kc, b, ldb, out, ldc, mask),
        }
    }

    /// Loads vector `v` of `V` at `ptr`; the last one under `mask` when
    /// `MASKED` (masked-off lanes read as zero and are not accessed).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load<const V: usize, const MASKED: bool>(
        ptr: *const f32,
        v: usize,
        mask: __m256i,
    ) -> __m256 {
        if MASKED && v + 1 == V {
            _mm256_maskload_ps(ptr.add(8 * v), mask)
        } else {
            _mm256_loadu_ps(ptr.add(8 * v))
        }
    }

    /// One column pass of [`tile_avx2`]: `R` rows × `V` vectors starting at
    /// column 0 of `b` / `out` (the caller offsets both), the last vector
    /// under `mask` when `MASKED`. Same safety conditions, over the
    /// `8·V` columns (`8·(V−1) + n mod 8` when masked) it covers.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn cols<const R: usize, const V: usize, const MASKED: bool>(
        a: *const f32,
        rs: usize,
        ds: usize,
        kc: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldc: usize,
        mask: __m256i,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, lane) in row.iter_mut().enumerate() {
                *lane = load::<V, MASKED>(out.add(r * ldc), v, mask);
            }
        }
        for p in 0..kc {
            let bp = b.add(p * ldb);
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, lane) in bv.iter_mut().enumerate() {
                *lane = load::<V, MASKED>(bp, v, mask);
            }
            let ap = a.add(p * ds);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*ap.add(r * rs));
                for (lane, &bv) in row.iter_mut().zip(&bv) {
                    *lane = _mm256_fmadd_ps(av, bv, *lane);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &lane) in row.iter().enumerate() {
                let at = out.add(r * ldc + 8 * v);
                if MASKED && v + 1 == V {
                    _mm256_maskstore_ps(at, mask, lane);
                } else {
                    _mm256_storeu_ps(at, lane);
                }
            }
        }
    }

    // -- AVX2 element-wise kernels: bit-identical to scalar -----------------
    //
    // These deliberately use separate multiply/add intrinsics (never FMA) in
    // the scalar formulas' exact association, so every level produces the
    // same bits. Only "avx2" is enabled (not "fma") as a belt-and-braces
    // guard against contraction.

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], scale: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(sv, s)));
            i += 8;
        }
        while i < n {
            *dp.add(i) += scale * *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn perturb_avx2(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let bp = base.as_ptr();
        let rp = dir.as_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let b = _mm256_loadu_ps(bp.add(i));
            let d = _mm256_loadu_ps(rp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(b, _mm256_mul_ps(sv, d)));
            i += 8;
        }
        while i < n {
            *dp.add(i) = *bp.add(i) + scale * *rp.add(i);
            i += 1;
        }
    }

    /// Vector `fast_tanh`: the exact operation sequence of
    /// [`crate::ops::fast_tanh`] (same rational, same Horner association,
    /// same ±1 saturation at |x| ≥ 4.97), eight lanes at a time.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let x2 = _mm256_mul_ps(x, x);
        let p = _mm256_mul_ps(
            x,
            _mm256_add_ps(
                _mm256_set1_ps(135_135.0),
                _mm256_mul_ps(
                    x2,
                    _mm256_add_ps(
                        _mm256_set1_ps(17_325.0),
                        _mm256_mul_ps(x2, _mm256_add_ps(_mm256_set1_ps(378.0), x2)),
                    ),
                ),
            ),
        );
        let q = _mm256_add_ps(
            _mm256_set1_ps(135_135.0),
            _mm256_mul_ps(
                x2,
                _mm256_add_ps(
                    _mm256_set1_ps(62_370.0),
                    _mm256_mul_ps(
                        x2,
                        _mm256_add_ps(
                            _mm256_set1_ps(3_150.0),
                            _mm256_mul_ps(x2, _mm256_set1_ps(28.0)),
                        ),
                    ),
                ),
            ),
        );
        let rational = _mm256_div_ps(p, q);
        // Saturation: |x| ≥ 4.97 → sign(x) · 1.0 (matching the scalar
        // branch `if x > 0.0 { 1.0 } else { -1.0 }` for all such x).
        let sign_mask = _mm256_set1_ps(-0.0);
        let absx = _mm256_andnot_ps(sign_mask, x);
        let saturate = _mm256_cmp_ps::<_CMP_GE_OQ>(absx, _mm256_set1_ps(4.97));
        let signed_one = _mm256_or_ps(_mm256_and_ps(sign_mask, x), _mm256_set1_ps(1.0));
        _mm256_blendv_ps(rational, signed_one, saturate)
    }

    /// Vector GELU forward: `(0.5·x) · (1 + tanh(C · (x + ((A·x)·x)·x)))`,
    /// the exact association of [`crate::ops::gelu_scalar`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gelu8(x: __m256) -> __m256 {
        let ax = _mm256_mul_ps(_mm256_set1_ps(GELU_A), x);
        let x3 = _mm256_mul_ps(_mm256_mul_ps(ax, x), x);
        let u = _mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, x3));
        let t = tanh8(u);
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), x),
            _mm256_add_ps(_mm256_set1_ps(1.0), t),
        )
    }

    /// Vector GELU derivative, the exact association of
    /// [`crate::ops::gelu_grad_scalar`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gelu_grad8(x: __m256) -> __m256 {
        // x3 = (x·x)·x; inner = C · (x + A·x3).
        let x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
        let inner = _mm256_mul_ps(
            _mm256_set1_ps(GELU_C),
            _mm256_add_ps(x, _mm256_mul_ps(_mm256_set1_ps(GELU_A), x3)),
        );
        let t = tanh8(inner);
        let sech2 = _mm256_sub_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(t, t));
        grad_from_t(x, t, sech2)
    }

    /// `0.5·(1+t) + ((((0.5·x)·sech²)·C) · (1 + ((3A·x)·x)))` — the shared
    /// tail of both gradient formulas, in the scalar association.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn grad_from_t(x: __m256, t: __m256, sech2: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let term1 = _mm256_mul_ps(half, _mm256_add_ps(one, t));
        let coeff = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, x), sech2),
            _mm256_set1_ps(GELU_C),
        );
        let paren = _mm256_add_ps(
            one,
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_3A), x), x),
        );
        _mm256_add_ps(term1, _mm256_mul_ps(coeff, paren))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_avx2(data: &mut [f32]) {
        let n = data.len();
        let dp = data.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(dp.add(i), gelu8(_mm256_loadu_ps(dp.add(i))));
            i += 8;
        }
        while i < n {
            *dp.add(i) = crate::ops::gelu_scalar(*dp.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_grad_avx2(x: &[f32], grad: &[f32], out: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let gp = grad.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let d = gelu_grad8(_mm256_loadu_ps(xp.add(i)));
            _mm256_storeu_ps(op.add(i), _mm256_mul_ps(d, _mm256_loadu_ps(gp.add(i))));
            i += 8;
        }
        while i < n {
            *op.add(i) = crate::ops::gelu_grad_scalar(*xp.add(i)) * *gp.add(i);
            i += 1;
        }
    }

    /// Cached-output GELU backward: both the recovered-tanh formula and the
    /// exact recompute are evaluated for all lanes and blended on
    /// `|x| > 1e-3`, matching the scalar branch lane-for-lane. The division
    /// by near-zero `x` in masked-out lanes produces inf/NaN that the blend
    /// discards (IEEE divisions do not trap).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_grad_cached_avx2(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let gp = grad.as_ptr();
        let op = out.as_mut_ptr();
        let one = _mm256_set1_ps(1.0);
        let sign_mask = _mm256_set1_ps(-0.0);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(xp.add(i));
            let yv = _mm256_loadu_ps(yp.add(i));
            // t = clamp(2y/x − 1, −1, 1).
            let ratio = _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(2.0), yv), xv);
            let t_raw = _mm256_sub_ps(ratio, one);
            let t = _mm256_min_ps(_mm256_max_ps(t_raw, _mm256_set1_ps(-1.0)), one);
            let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
            let d_cached = grad_from_t(xv, t, sech2);
            let d_exact = gelu_grad8(xv);
            let absx = _mm256_andnot_ps(sign_mask, xv);
            let use_cached = _mm256_cmp_ps::<_CMP_GT_OQ>(absx, _mm256_set1_ps(CACHED_GRAD_CUTOFF));
            let d = _mm256_blendv_ps(d_exact, d_cached, use_cached);
            _mm256_storeu_ps(op.add(i), _mm256_mul_ps(d, _mm256_loadu_ps(gp.add(i))));
            i += 8;
        }
        while i < n {
            let xi = *xp.add(i);
            let d = if xi.abs() > CACHED_GRAD_CUTOFF {
                let t = (2.0 * *yp.add(i) / xi - 1.0).clamp(-1.0, 1.0);
                let sech2 = 1.0 - t * t;
                0.5 * (1.0 + t) + 0.5 * xi * sech2 * GELU_C * (1.0 + GELU_3A * xi * xi)
            } else {
                crate::ops::gelu_grad_scalar(xi)
            };
            *op.add(i) = d * *gp.add(i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SeededRng::new(seed);
        (0..len).map(|_| rng.normal_with(0.0, 1.5)).collect()
    }

    /// Runs a row-major GEMM through a level's tile the way `matrix.rs`
    /// drives it: `kern.mr`-row tiles, the last one of whatever height is
    /// left.
    fn run_gemm(level: SimdLevel, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let kern = kernels_for(level);
        let mut out = vec![0.0f32; m * n];
        let mut i0 = 0;
        while i0 < m {
            let rows = kern.mr.min(m - i0);
            (kern.tile)(rows, &a[i0 * k..], k, 1, k, b, n, n, &mut out[i0 * n..], n);
            i0 += rows;
        }
        out
    }

    #[test]
    fn env_spellings_resolve() {
        // Can't mutate the process env safely under parallel tests; check
        // the pure pieces instead.
        assert!(is_supported(SimdLevel::Scalar));
        assert!(detect_best() >= SimdLevel::Scalar);
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let base = active_level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(active_level(), SimdLevel::Scalar);
            assert_eq!(active().level, SimdLevel::Scalar);
        });
        assert_eq!(active_level(), base);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_gemm_matches_scalar_within_tolerance() {
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        for &(m, k, n) in &[
            (5usize, 7usize, 9usize),
            (4, 16, 16),
            (8, 33, 17),
            (6, 130, 21),
            (13, 20, 26),
        ] {
            let a = sample(m * k, 3000 + (m * 31 + k * 7 + n) as u64);
            let b = sample(k * n, 4000 + (m + k + n) as u64);
            let scalar = run_gemm(SimdLevel::Scalar, m, k, n, &a, &b);
            let avx2 = run_gemm(SimdLevel::Avx2, m, k, n, &a, &b);
            for (i, (&s, &v)) in scalar.iter().zip(&avx2).enumerate() {
                let tol = 1e-5 * s.abs().max(1.0) * k as f32;
                assert!((s - v).abs() <= tol, "({m},{k},{n}) elem {i}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn tiled_rows_match_rows_computed_alone() {
        // The per-variant determinism contract: a row's bits do not depend
        // on the height of the tile it was computed in. (The stride,
        // partial-height and masked-tail generalisation of this pin lives
        // in `tests/proptest_tensor.rs`.)
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            if !is_supported(level) {
                continue;
            }
            // m covers ≥2 full tiles of either height (4 or 6) plus a
            // remainder row; n covers the 16-wide and the masked column
            // paths of the AVX2 tile.
            let (m, k, n) = (13usize, 19usize, 26usize);
            let a = sample(m * k, 71);
            let b = sample(k * n, 72);
            let tiled = run_gemm(level, m, k, n, &a, &b);
            let kern = kernels_for(level);
            let mut by_rows = vec![0.0f32; m * n];
            for i in 0..m {
                (kern.tile)(1, &a[i * k..], 0, 1, k, &b, n, n, &mut by_rows[i * n..], n);
            }
            assert_eq!(tiled, by_rows, "{level:?}");
        }
    }

    #[test]
    fn tile_rejects_operands_it_would_overrun() {
        // The bounds are the safe wrapper's job at both levels, in release
        // builds too: the AVX2 body trusts them.
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            if !is_supported(level) {
                continue;
            }
            let tile = kernels_for(level).tile;
            // (what, rows, a.len(), rs, ds, kc, b.len(), ldb, n, out.len(), ldc):
            // a 2×6 · 6×2 product whose exact fit is 12 / 12 / 8 elements.
            let overruns = [
                ("A one short", 2, 11, 6, 1, 6, 12, 2, 2, 8, 6),
                ("B one short", 2, 12, 6, 1, 6, 11, 2, 2, 8, 6),
                ("out one short", 2, 12, 6, 1, 6, 12, 2, 2, 7, 6),
                ("overlapping output rows", 2, 12, 6, 1, 6, 12, 2, 2, 8, 1),
                (
                    "more rows than the kernel has",
                    7,
                    12,
                    1,
                    1,
                    1,
                    12,
                    1,
                    1,
                    12,
                    1,
                ),
                (
                    "a stride that overflows",
                    2,
                    12,
                    usize::MAX,
                    1,
                    6,
                    12,
                    2,
                    2,
                    8,
                    6,
                ),
            ];
            for (what, rows, a_len, rs, ds, kc, b_len, ldb, n, out_len, ldc) in overruns {
                let caught = std::panic::catch_unwind(|| {
                    let (a, b) = (vec![1.0f32; a_len], vec![1.0f32; b_len]);
                    tile(
                        rows,
                        &a,
                        rs,
                        ds,
                        kc,
                        &b,
                        ldb,
                        n,
                        &mut vec![0.0f32; out_len],
                        ldc,
                    );
                });
                assert!(caught.is_err(), "{level:?}: {what} went unnoticed");
            }
            let (a, b) = (vec![1.0f32; 12], vec![1.0f32; 12]);
            // The exact fit is accepted, and an empty tile touches nothing.
            tile(2, &a, 6, 1, 6, &b, 2, 2, &mut [0.0f32; 8], 6);
            tile(0, &[], 0, 0, 5, &[], 0, 5, &mut [], 0);
            tile(1, &[], 0, 0, 0, &[], 0, 5, &mut [], 0);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn elementwise_kernels_are_bit_identical_across_levels() {
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        let n = 103; // odd length exercises the tails
        let x = sample(n, 11);
        let y = sample(n, 12);
        let g = sample(n, 13);
        let scalar = kernels_for(SimdLevel::Scalar);
        let avx2 = kernels_for(SimdLevel::Avx2);

        let mut a1 = x.clone();
        let mut a2 = x.clone();
        (scalar.axpy)(&mut a1, &y, 0.37);
        (avx2.axpy)(&mut a2, &y, 0.37);
        assert_eq!(a1, a2, "axpy");

        let mut p1 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        (scalar.perturb)(&mut p1, &x, &y, -1.25);
        (avx2.perturb)(&mut p2, &x, &y, -1.25);
        assert_eq!(p1, p2, "perturb");

        let mut g1 = x.clone();
        let mut g2 = x.clone();
        (scalar.gelu)(&mut g1);
        (avx2.gelu)(&mut g2);
        assert_eq!(g1, g2, "gelu forward");

        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        (scalar.gelu_grad)(&x, &g, &mut d1);
        (avx2.gelu_grad)(&x, &g, &mut d2);
        assert_eq!(d1, d2, "gelu grad");

        // Cached backward: y must be the true forward output (g1 above),
        // plus a tiny-x element to hit the fallback lane.
        let mut xs = x.clone();
        xs[5] = 1e-4;
        xs[50] = 0.0;
        let mut ys = xs.clone();
        (scalar.gelu)(&mut ys);
        let mut c1 = vec![0.0; n];
        let mut c2 = vec![0.0; n];
        (scalar.gelu_grad_cached)(&xs, &ys, &g, &mut c1);
        (avx2.gelu_grad_cached)(&xs, &ys, &g, &mut c2);
        assert_eq!(c1, c2, "gelu grad cached");
    }

    #[test]
    fn gelu_saturation_region_matches_scalar_sign_branch() {
        // ±big inputs exercise the tanh saturation blend.
        let kern = kernels_for(detect_best());
        let mut v = vec![-100.0f32, -5.0, -4.97, 4.97, 5.0, 100.0, 0.0];
        let expect: Vec<f32> = v.iter().map(|&x| crate::ops::gelu_scalar(x)).collect();
        (kern.gelu)(&mut v);
        assert_eq!(v, expect);
    }
}
