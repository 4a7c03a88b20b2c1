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
//! A level is its arithmetic, not its register width: `1` and `avx2` mean
//! the AVX2 level's bits, computed 16 lanes wide where the CPU also has
//! `avx512f` (CPUID read once, then cached). There the level's table runs
//! its GEMM tile and the `f64` matrix-vector product of the PCA eigen-solver
//! ([`Kernels::matvec`]) in zmm registers; its element-wise entries are the
//! 256-bit table's. There is no separate setting for it. The tile is one
//! source, stamped at both register widths.
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
//!   Column tails (`n mod 8`, `n mod 16` in zmm registers) run the same FMA
//!   chain under a lane mask, so tail columns round exactly like full
//!   vectors and nothing outside the `n` columns is read or written. The
//!   256-bit and the 512-bit tile of the AVX2 level are one body written
//!   over a width's lane count, types and intrinsics, so they are
//!   bit-identical: each lane is one element's chain, whatever the width of
//!   the register holding it.
//! - **Element-wise kernels and the `f64` matvec are bitwise
//!   level-independent.** AXPY, the SPSA perturbation and the GELU family
//!   are one source compiled per level: the AVX2 table runs the scalar
//!   table's loops inside one `avx2`-enabled function, where the compiler
//!   vectorises them. Each element is the same scalar expression at every
//!   width, and Rust never contracts a multiply and an add into an FMA, so
//!   they are bit-identical at every level. [`Kernels::matvec`] keeps a
//!   512-bit body that avoids FMA and replicates the scalar association.
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
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Register-tile height of the scalar GEMM microkernel. Each level
/// publishes its own height via [`Kernels::mr`]; the drivers in `matrix.rs`
/// and `gram.rs` hand the tile at most that many rows at a time.
const MR4: usize = 4;

/// Register-tile height of the AVX2 GEMM microkernel: six rows × 16 columns
/// uses 12 accumulator registers + 2 `B` vectors + 1 broadcast (15 of the
/// 16 ymm registers) and is FMA-throughput-bound where the four-row tile is
/// load-bound.
const MR6: usize = 6;

/// Register-tile height of the AVX2 level's 512-bit GEMM body: twelve rows ×
/// 32 columns keep 24 accumulators + 2 `B` vectors + 1 broadcast live (27
/// of the 32 zmm registers), 24 FMAs per 14 loads.
const MR12: usize = 12;

/// A SIMD instruction-set level with a complete kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pinned scalar reference kernels (the pre-dispatch behavior).
    Scalar = 0,
    /// AVX2+FMA kernels (tolerance-equivalent to scalar). On an `avx512f`
    /// host the GEMM tile and the `f64` matvec run 512 bits wide, with the
    /// same bits.
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

/// `out = A·v` in `f64` for row-major `A` of `out.len()` rows of `v.len()`
/// columns. Each entry is the dot product of its row and `v` in one fixed
/// association: eight lane sums over the first `len − len mod 8` terms,
/// added pairwise, then the remaining terms' left-to-right sum.
pub type MatvecKernel = fn(a: &[f64], v: &[f64], out: &mut [f64]);

/// The complete kernel set of one SIMD level.
pub struct Kernels {
    /// Level these kernels implement.
    pub level: SimdLevel,
    /// Register-tile height of [`Kernels::tile`]: the most output rows the
    /// tile kernel accumulates at once — 4 for scalar, 6 for AVX2, 12 for
    /// the AVX2 level's 512-bit body. Row counts only group work — they
    /// never change any element's accumulation order — so differing heights
    /// per level or per host cannot break a level's determinism.
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
    /// `f64` matrix-vector product of the PCA eigen-solver (bit-identical
    /// across levels).
    pub matvec: MatvecKernel,
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
        SimdLevel::Avx2 => avx2_table(),
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR_KERNELS,
    }
}

/// The AVX2 level's table for this host, chosen from CPUID once: the 512-bit
/// bodies where `avx512f` is present too, the 256-bit ones where only
/// avx2+fma are, scalar otherwise. Every `unsafe` body behind the first two
/// relies on this being the only way to reach them.
#[cfg(target_arch = "x86_64")]
fn avx2_table() -> &'static Kernels {
    static TABLE: OnceLock<&'static Kernels> = OnceLock::new();
    TABLE.get_or_init(|| {
        if !is_supported(SimdLevel::Avx2) {
            &SCALAR_KERNELS
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            &AVX512_KERNELS
        } else {
            &AVX2_KERNELS
        }
    })
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
    matvec: matvec_scalar,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx2,
    mr: MR6,
    tile: tile_avx2_level::<false>,
    axpy: |dst, src, scale| {
        in_avx2(
            #[inline(always)]
            || axpy_scalar(dst, src, scale),
        )
    },
    perturb: |dst, base, dir, scale| {
        in_avx2(
            #[inline(always)]
            || perturb_scalar(dst, base, dir, scale),
        )
    },
    gelu: |data| {
        in_avx2(
            #[inline(always)]
            || gelu_scalar_slice(data),
        )
    },
    gelu_grad: |x, grad, out| {
        in_avx2(
            #[inline(always)]
            || gelu_grad_scalar_slice(x, grad, out),
        )
    },
    gelu_grad_cached: |x, y, grad, out| {
        in_avx2(
            #[inline(always)]
            || gelu_grad_cached_scalar_slice(x, y, grad, out),
        )
    },
    matvec: matvec_scalar,
};

/// The AVX2 level on an `avx512f` host: same arithmetic, zmm registers for
/// the GEMM tile and the matvec, the 256-bit table's element-wise entries.
#[cfg(target_arch = "x86_64")]
static AVX512_KERNELS: Kernels = Kernels {
    mr: MR12,
    tile: tile_avx2_level::<true>,
    matvec: matvec_avx512_dispatch,
    ..AVX2_KERNELS
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
    a: &[f32],
    rs: usize,
    ds: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &[f32],
    ldc: usize,
) -> bool {
    if rows == 0 || n == 0 || kc == 0 {
        return false;
    }
    let (a_len, b_len, out_len) = (a.len(), b.len(), out.len());
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
    if !tile_in_bounds(MR4, rows, a, rs, ds, kc, b, ldb, n, out, ldc) {
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

// The element-wise loops of every level: the scalar table runs them as they
// are, the AVX2 table compiles each for avx2 (through `in_avx2`).
// `#[inline(always)]` puts the loop inside that compilation.

#[inline(always)]
fn axpy_scalar(dst: &mut [f32], src: &[f32], scale: f32) {
    assert_eq!(dst.len(), src.len(), "axpy operand lengths");
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += scale * b;
    }
}

#[inline(always)]
fn perturb_scalar(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    assert_eq!(dst.len(), base.len(), "perturb operand lengths");
    assert_eq!(dst.len(), dir.len(), "perturb operand lengths");
    for ((o, &b), &d) in dst.iter_mut().zip(base).zip(dir) {
        *o = b + scale * d;
    }
}

#[inline(always)]
fn gelu_scalar_slice(data: &mut [f32]) {
    for v in data {
        *v = crate::ops::gelu_scalar(*v);
    }
}

#[inline(always)]
fn gelu_grad_scalar_slice(x: &[f32], grad: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), grad.len(), "gelu_grad operand lengths");
    assert_eq!(x.len(), out.len(), "gelu_grad operand lengths");
    for (o, (&xi, &gi)) in out.iter_mut().zip(x.iter().zip(grad)) {
        *o = crate::ops::gelu_grad_scalar(xi) * gi;
    }
}

#[inline(always)]
fn gelu_grad_cached_scalar_slice(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "gelu_grad_cached operand lengths");
    assert_eq!(x.len(), grad.len(), "gelu_grad_cached operand lengths");
    assert_eq!(x.len(), out.len(), "gelu_grad_cached operand lengths");
    for (o, ((&xi, &yi), &gi)) in out.iter_mut().zip(x.iter().zip(y).zip(grad)) {
        *o = crate::ops::gelu_grad_cached_scalar(xi, yi) * gi;
    }
}

/// `out = A·v`, one [`dot_f64`] per row: the body of [`Kernels::matvec`]
/// wherever there is no 512-bit one.
fn matvec_scalar(a: &[f64], v: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len() * v.len(), "matvec operand lengths");
    for (i, o) in out.iter_mut().enumerate() {
        *o = dot_f64(&a[i * v.len()..][..v.len()], v);
    }
}

/// Dot product with eight independent accumulators in a fixed association
/// order (deterministic, and wide enough to hide the add latency).
pub(crate) fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let body = a.len() - a.len() % 8;
    let mut acc = [0.0f64; 8];
    for (ca, cb) in a[..body].chunks_exact(8).zip(b[..body].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    reduce8(acc, &a[body..], &b[body..])
}

/// How [`dot_f64`] ends, shared with the 512-bit matvec: the `len mod 8`
/// tail summed left to right, the eight lane sums added pairwise, then the
/// tail.
fn reduce8(acc: [f64; 8], a_tail: &[f64], b_tail: &[f64]) -> f64 {
    let tail: f64 = a_tail.iter().zip(b_tail).map(|(x, y)| x * y).sum();
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

/// The safe face of the AVX2 level's tile at either register width (zmm
/// when `WIDE`, else ymm), and the one place the `# Safety` conditions of
/// the bodies in [`x86`] are established.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn tile_avx2_level<const WIDE: bool>(
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
    let tiles: &[x86::Tile] = if WIDE {
        &x86::zmm::TILES
    } else {
        &x86::ymm::TILES
    };
    let mr = tiles.len();
    if !tile_in_bounds(mr, rows, a, rs, ds, kc, b, ldb, n, out, ldc) {
        return;
    }
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    // SAFETY: `avx2_table` hands out the table holding this entry only after
    // CPUID showed avx2+fma, and avx512f as well for the `WIDE` one.
    // `tile_in_bounds` returned `true` for this width's height, so
    // `tiles[rows − 1]` is the body of exactly `rows` rows, every
    // `a[r·rs + p·ds]`, `b[p·ldb + j]` and `out[r·ldc + j]` with `r < rows`,
    // `p < kc`, `j < n` lies inside its slice, and output rows are disjoint.
    unsafe { tiles[rows - 1](a, rs, ds, kc, b, ldb, n, out, ldc) }
}

/// Runs `f` inside an avx2-enabled function. The AVX2 table's element-wise
/// entries are the scalar table's loops run through here: inlined into
/// this compilation, they are vectorised 8 lanes wide.
#[cfg(target_arch = "x86_64")]
fn in_avx2(f: impl FnOnce()) {
    #[target_feature(enable = "avx2")]
    fn avx2(f: impl FnOnce()) {
        f()
    }
    // SAFETY: only entries of the AVX2 level's tables call this, and
    // `avx2_table` hands those out only after CPUID showed avx2.
    unsafe { avx2(f) }
}

#[cfg(target_arch = "x86_64")]
fn matvec_avx512_dispatch(a: &[f64], v: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len() * v.len(), "matvec operand lengths");
    // SAFETY: `avx2_table` hands out this table only after CPUID showed
    // avx512f; the body reads `a` and `v` through checked slices.
    unsafe { x86::matvec_avx512(a, v, out) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies: the AVX2 level's GEMM tile, written
    //! once in `tile_at_width!` and stamped at both register widths
    //! ([`ymm`], [`zmm`]), and the 512-bit `f64` matvec. Each is an `unsafe
    //! fn` with a `#[target_feature]` attribute; the safe wrappers above hold
    //! the detection invariant and the bounds.
    #![allow(clippy::missing_safety_doc)]

    use super::{MR12, MR6};
    use core::arch::x86_64::*;

    /// A tile body of one height, on raw pointers: `(a, rs, ds, kc, b, ldb,
    /// n, out, ldc)` as in [`super::TileKernel`].
    pub type Tile =
        unsafe fn(*const f32, usize, usize, usize, *const f32, usize, usize, *mut f32, usize);

    /// Stamps the AVX2 level's tile at one register width as module
    /// `$width`: `TILES[R − 1]` is the body of `R` rows for every listed
    /// height (`1..=mr`). The width supplies its lane count, vector and
    /// mask types and the eight intrinsics the body is written in, each as a
    /// named expression over the names in parentheses; the tail mask has the
    /// first `l < lanes` lanes set.
    ///
    /// Per element the body is `acc = fma(A[r][p], B[p][j], acc)`
    /// sequentially over the depth, starting from the value already in
    /// `out`, at every height, width and column path — so a row computed
    /// alone equals the same row inside a taller tile, and the two widths
    /// agree bit for bit. Columns go two vectors at a time; what is left is
    /// one more pass of one or two vectors, the last masked to the columns
    /// it covers when `n` is not a whole number of vectors (masked-off
    /// lanes are neither read nor written). Two vectors per row at the
    /// widest height keep `2·mr` accumulators, 2 `B` vectors and 1
    /// broadcast live: 15 of 16 ymm registers at 6 rows, 27 of 32 zmm ones
    /// at 12, where the tile is bound by FMA throughput, not loads.
    ///
    /// # Safety
    ///
    /// A body needs its width's target features and, for every `r < R`,
    /// `p < kc`, `j < n`, `a.add(r·rs + p·ds)` and `b.add(p·ldb + j)`
    /// readable and `out.add(r·ldc + j)` readable and writable, with the `R`
    /// output rows disjoint. [`super::tile_avx2_level`] establishes all of
    /// it.
    macro_rules! tile_at_width {
        (
            $width:ident, $($feature:literal),+: $lanes:literal lanes,
                vector $vec:ty, mask $mask:ty, heights [$($h:literal)+] = $mr:ident;
            zero: $zero:expr,
            splat($sx:ident): $splat:expr,
            fma($fx:ident, $fy:ident, $facc:ident): $fma:expr,
            load($lp:ident): $load:expr,
            masked_load($mlp:ident, $mlm:ident): $masked_load:expr,
            store($sp:ident, $sv:ident): $store:expr,
            masked_store($msp:ident, $msm:ident, $msv:ident): $masked_store:expr,
            tail_mask($tl:ident): $tail_mask:expr,
        ) => {
            pub mod $width {
                use super::*;

                const LANES: usize = $lanes;

                /// The tile body of each height, by `rows − 1`.
                pub static TILES: [Tile; $mr] = [$(tile::<$h>),+];

                #[allow(clippy::too_many_arguments)]
                #[target_feature($(enable = $feature),+)]
                unsafe fn tile<const R: usize>(
                    a: *const f32,
                    rs: usize,
                    ds: usize,
                    kc: usize,
                    b: *const f32,
                    ldb: usize,
                    n: usize,
                    out: *mut f32,
                    ldc: usize,
                ) {
                    let mask: $mask = {
                        let $tl = n % LANES;
                        $tail_mask
                    };
                    let mut j = 0;
                    while j + 2 * LANES <= n {
                        cols::<R, 2, false>(a, rs, ds, kc, b.add(j), ldb, out.add(j), ldc, mask);
                        j += 2 * LANES;
                    }
                    let (b, out) = (b.add(j), out.add(j));
                    match n - j {
                        0 => {}
                        LANES => cols::<R, 1, false>(a, rs, ds, kc, b, ldb, out, ldc, mask),
                        left if left < LANES => {
                            cols::<R, 1, true>(a, rs, ds, kc, b, ldb, out, ldc, mask)
                        }
                        _ => cols::<R, 2, true>(a, rs, ds, kc, b, ldb, out, ldc, mask),
                    }
                }

                /// One column pass of [`tile`]: `R` rows × `V` vectors from
                /// column 0 of `b` / `out` (the caller offsets both), the
                /// last vector under `mask` when `MASKED`.
                #[allow(clippy::too_many_arguments)]
                #[target_feature($(enable = $feature),+)]
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
                    mask: $mask,
                ) {
                    let load = |ptr: *const f32, v: usize| -> $vec {
                        if MASKED && v + 1 == V {
                            let ($mlp, $mlm) = (ptr.add(LANES * v), mask);
                            $masked_load
                        } else {
                            let $lp = ptr.add(LANES * v);
                            $load
                        }
                    };
                    let mut acc: [[$vec; V]; R] = [[$zero; V]; R];
                    for (r, row) in acc.iter_mut().enumerate() {
                        for (v, lane) in row.iter_mut().enumerate() {
                            *lane = load(out.add(r * ldc), v);
                        }
                    }
                    for p in 0..kc {
                        let bp = b.add(p * ldb);
                        let mut bv: [$vec; V] = [$zero; V];
                        for (v, lane) in bv.iter_mut().enumerate() {
                            *lane = load(bp, v);
                        }
                        let ap = a.add(p * ds);
                        for (r, row) in acc.iter_mut().enumerate() {
                            let $sx = *ap.add(r * rs);
                            let av = $splat;
                            for (lane, &bv) in row.iter_mut().zip(&bv) {
                                let ($fx, $fy, $facc) = (av, bv, *lane);
                                *lane = $fma;
                            }
                        }
                    }
                    for (r, row) in acc.iter().enumerate() {
                        for (v, &lane) in row.iter().enumerate() {
                            let at = out.add(r * ldc + LANES * v);
                            if MASKED && v + 1 == V {
                                let ($msp, $msm, $msv) = (at, mask, lane);
                                $masked_store
                            } else {
                                let ($sp, $sv) = (at, lane);
                                $store
                            }
                        }
                    }
                }
            }
        };
    }

    tile_at_width! {
        ymm, "avx2", "fma": 8 lanes,
            vector __m256, mask __m256i, heights [1 2 3 4 5 6] = MR6;
        zero: _mm256_setzero_ps(),
        splat(x): _mm256_set1_ps(x),
        fma(x, y, acc): _mm256_fmadd_ps(x, y, acc),
        load(p): _mm256_loadu_ps(p),
        masked_load(p, m): _mm256_maskload_ps(p, m),
        store(p, v): _mm256_storeu_ps(p, v),
        masked_store(p, m, v): _mm256_maskstore_ps(p, m, v),
        tail_mask(l): _mm256_cmpgt_epi32(
            _mm256_set1_epi32(l as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        ),
    }

    tile_at_width! {
        zmm, "avx512f": 16 lanes,
            vector __m512, mask __mmask16, heights [1 2 3 4 5 6 7 8 9 10 11 12] = MR12;
        zero: _mm512_setzero_ps(),
        splat(x): _mm512_set1_ps(x),
        fma(x, y, acc): _mm512_fmadd_ps(x, y, acc),
        load(p): _mm512_loadu_ps(p),
        masked_load(p, m): _mm512_maskz_loadu_ps(m, p),
        store(p, v): _mm512_storeu_ps(p, v),
        masked_store(p, m, v): _mm512_mask_storeu_ps(p, m, v),
        tail_mask(l): (1u16 << l) - 1,
    }

    // -- AVX-512 f64 matvec: dot_f64's lanes, four rows per pass -------------

    /// `out = A·v` with each row's eight [`super::dot_f64`] accumulators in
    /// one zmm register, four rows per pass, so every load of `v` feeds four
    /// rows. Each lane is a separate multiply and add (no FMA), and the lane
    /// sums and the `len mod 8` tail end in `dot_f64`'s own
    /// [`super::reduce8`], so every entry is `dot_f64(row, v)` bit for bit.
    /// A last pass of fewer than four rows repeats its last row in the
    /// spare slots and stores only the real ones.
    ///
    /// # Safety
    ///
    /// Needs avx512f. `a` is read through checked row slices of `v.len()`
    /// elements, so a short `a` panics.
    // SAFETY: callers establish avx512f from the CPUID check behind
    // `avx2_table`; every load lies inside a checked slice.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matvec_avx512(a: &[f64], v: &[f64], out: &mut [f64]) {
        let n = v.len();
        let body = n - n % 8;
        for (pass, group) in out.chunks_mut(4).enumerate() {
            let last = group.len() - 1;
            let rows: [&[f64]; 4] =
                std::array::from_fn(|r| &a[(4 * pass + r.min(last)) * n..][..n]);
            let mut acc = [_mm512_setzero_pd(); 4];
            let mut i = 0;
            while i < body {
                let x = _mm512_loadu_pd(v.as_ptr().add(i));
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    let prod = _mm512_mul_pd(_mm512_loadu_pd(row.as_ptr().add(i)), x);
                    *acc = _mm512_add_pd(*acc, prod);
                }
                i += 8;
            }
            for ((o, &acc), row) in group.iter_mut().zip(&acc).zip(&rows) {
                let mut lanes = [0.0f64; 8];
                _mm512_storeu_pd(lanes.as_mut_ptr(), acc);
                *o = super::reduce8(lanes, &row[body..], &v[body..]);
            }
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

    /// Every kernel table this host can run, by name: scalar, and the AVX2
    /// level's 256-bit and 512-bit bodies.
    fn tables() -> Vec<(&'static str, &'static Kernels)> {
        let mut tables = vec![("scalar", &SCALAR_KERNELS)];
        #[cfg(target_arch = "x86_64")]
        if is_supported(SimdLevel::Avx2) {
            tables.push(("avx2 256-bit", &AVX2_KERNELS));
            if let Some(wide) = wide_table() {
                tables.push(("avx2 512-bit", wide));
            }
        }
        tables
    }

    /// The AVX2 level's 512-bit table, or `None` (saying why) on a host
    /// that cannot run it.
    #[cfg(target_arch = "x86_64")]
    fn wide_table() -> Option<&'static Kernels> {
        if is_supported(SimdLevel::Avx2) && std::arch::is_x86_feature_detected!("avx512f") {
            Some(&AVX512_KERNELS)
        } else {
            println!("no avx512f on this host: the 512-bit bodies are not exercised");
            None
        }
    }

    /// Runs a row-major GEMM through a table's tile the way `matrix.rs`
    /// drives it: `kern.mr`-row tiles, the last one of whatever height is
    /// left.
    fn run_gemm(kern: &Kernels, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
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
            let scalar = run_gemm(kernels_for(SimdLevel::Scalar), m, k, n, &a, &b);
            let avx2 = run_gemm(kernels_for(SimdLevel::Avx2), m, k, n, &a, &b);
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
        for (name, kern) in tables() {
            // m covers ≥2 full tiles of every height (4, 6 and 12) plus a
            // remainder row; n covers the full-width and the masked column
            // paths of both wide tiles.
            let (m, k, n) = (25usize, 19usize, 45usize);
            let a = sample(m * k, 71);
            let b = sample(k * n, 72);
            let tiled = run_gemm(kern, m, k, n, &a, &b);
            let mut by_rows = vec![0.0f32; m * n];
            for i in 0..m {
                (kern.tile)(1, &a[i * k..], 0, 1, k, &b, n, n, &mut by_rows[i * n..], n);
            }
            assert_eq!(tiled, by_rows, "{name}");
        }
    }

    /// The 512-bit tile is the AVX2 level's arithmetic at twice the width:
    /// on the same operands it leaves the same bits as the 256-bit tile
    /// (driven in six-row slices), at every height, every column tail of
    /// either width, every depth of a block, both strides of `A`, from a
    /// pre-filled `out`, and writes nothing past column `n` or the last row.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_tile_matches_the_256_bit_tile_bit_for_bit() {
        let Some(wide) = wide_table() else { return };
        let narrow = &AVX2_KERNELS;
        let canary = f32::from_bits(0x7fc0_0bad);
        let mut rng = SeededRng::new(35);
        let mut case = 0usize;
        for rows in 1..=wide.mr {
            // 1..=80 takes every `n mod 16` and `n mod 32` tail.
            for n in 1..=80usize {
                // 37 is odd, so `kc` takes every value in 1..=128 as the
                // cases go round.
                let kc = 1 + case * 37 % 128;
                case += 1;
                for transposed in [false, true] {
                    let (rs, ds, a_len) = if transposed {
                        (1, rows + 3, kc * (rows + 3))
                    } else {
                        (kc + 3, 1, rows * (kc + 3))
                    };
                    let a: Vec<f32> = (0..a_len).map(|_| rng.normal()).collect();
                    let ldb = n + 5;
                    let b: Vec<f32> = (0..kc * ldb).map(|_| rng.normal()).collect();
                    let ldc = n + 3;
                    let mut init = vec![canary; (rows + 1) * ldc];
                    for row in init.chunks_mut(ldc).take(rows) {
                        row[..n].iter_mut().for_each(|o| *o = rng.normal());
                    }
                    let mut want = init.clone();
                    for r0 in (0..rows).step_by(narrow.mr) {
                        let height = narrow.mr.min(rows - r0);
                        let (a, out) = (&a[r0 * rs..], &mut want[r0 * ldc..]);
                        (narrow.tile)(height, a, rs, ds, kc, &b, ldb, n, out, ldc);
                    }
                    let mut got = init;
                    (wide.tile)(rows, &a, rs, ds, kc, &b, ldb, n, &mut got, ldc);
                    for (at, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        let (r, j) = (at / ldc, at % ldc);
                        let what =
                            format!("({r},{j}) of {rows}x{kc}x{n}, transposed A {transposed}");
                        if r >= rows || j >= n {
                            assert_eq!(g.to_bits(), canary.to_bits(), "wrote {what}");
                        }
                        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
                    }
                }
            }
        }
    }

    /// Every AVX2-level tile this host runs (256-bit always, 512-bit where
    /// avx512f is present) leaves, bit for bit, what the scalar chain
    /// `acc = a.mul_add(b, acc)` leaves, taken over the depth in order from
    /// the value already in `out`: at every height, every column tail of
    /// either width, every depth of a block and both strides of `A`, and it
    /// writes nothing past column `n` or the last row.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tiles_are_the_sequential_mul_add_chain_bit_for_bit() {
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        let mut kernels = vec![("avx2 256-bit", &AVX2_KERNELS)];
        kernels.extend(wide_table().map(|wide| ("avx2 512-bit", wide)));
        let canary = f32::from_bits(0x7fc0_0bad);
        let mut rng = SeededRng::new(39);
        for (name, kern) in kernels {
            let mut case = 0usize;
            for rows in 1..=kern.mr {
                for n in 1..=80usize {
                    // 53 is odd, so `kc` takes every value in 1..=128 as
                    // the cases go round.
                    let kc = 1 + case * 53 % 128;
                    case += 1;
                    for transposed in [false, true] {
                        let (rs, ds, a_len) = if transposed {
                            (1, rows + 2, kc * (rows + 2))
                        } else {
                            (kc + 2, 1, rows * (kc + 2))
                        };
                        let a: Vec<f32> = (0..a_len).map(|_| rng.normal()).collect();
                        let ldb = n + 7;
                        let b: Vec<f32> = (0..kc * ldb).map(|_| rng.normal()).collect();
                        let ldc = n + 1;
                        let mut got = vec![canary; (rows + 1) * ldc];
                        for row in got.chunks_mut(ldc).take(rows) {
                            row[..n].iter_mut().for_each(|o| *o = rng.normal());
                        }
                        let mut want = got.clone();
                        for (r, row) in want.chunks_mut(ldc).take(rows).enumerate() {
                            for (j, o) in row[..n].iter_mut().enumerate() {
                                for p in 0..kc {
                                    *o = a[r * rs + p * ds].mul_add(b[p * ldb + j], *o);
                                }
                            }
                        }
                        (kern.tile)(rows, &a, rs, ds, kc, &b, ldb, n, &mut got, ldc);
                        for (at, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let (r, j) = (at / ldc, at % ldc);
                            let what = format!(
                                "{name} ({r},{j}) of {rows}x{kc}x{n}, transposed A {transposed}"
                            );
                            if r >= rows || j >= n {
                                assert_eq!(g.to_bits(), canary.to_bits(), "wrote {what}");
                            }
                            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
                        }
                    }
                }
            }
        }
    }

    /// Every table's matvec is [`dot_f64`] row by row, bit for bit: the
    /// 512-bit body's four-row passes (with a partial last pass) and its
    /// `len mod 8` tails included.
    #[test]
    fn matvec_is_dot_f64_row_by_row_in_every_table() {
        let mut rng = SeededRng::new(36);
        for (name, kern) in tables() {
            for n in 1..=70usize {
                for rows in 1..=9usize {
                    let a: Vec<f64> = (0..rows * n).map(|_| f64::from(rng.normal())).collect();
                    let v: Vec<f64> = (0..n).map(|_| f64::from(rng.normal()) * 1e3).collect();
                    let mut out = vec![f64::NAN; rows];
                    (kern.matvec)(&a, &v, &mut out);
                    for (r, &got) in out.iter().enumerate() {
                        let want = dot_f64(&a[r * n..][..n], &v);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} row {r} of {rows}, n {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_rejects_operands_it_would_overrun() {
        // The bounds are the safe wrapper's job in every table, in release
        // builds too: the SIMD bodies trust them.
        for (name, kern) in tables() {
            let (tile, mr) = (kern.tile, kern.mr);
            // (what, rows, a.len(), rs, ds, kc, b.len(), ldb, n, out.len(), ldc):
            // a 2×6 · 6×2 product whose exact fit is 12 / 12 / 8 elements,
            // and an `(mr + 1)`-row column whose operands would fit.
            let overruns = [
                ("A one short", 2, 11, 6, 1, 6, 12, 2, 2, 8, 6),
                ("B one short", 2, 12, 6, 1, 6, 11, 2, 2, 8, 6),
                ("out one short", 2, 12, 6, 1, 6, 12, 2, 2, 7, 6),
                ("overlapping output rows", 2, 12, 6, 1, 6, 12, 2, 2, 8, 1),
                (
                    "more rows than the kernel has",
                    mr + 1,
                    mr + 1,
                    1,
                    1,
                    1,
                    1,
                    1,
                    1,
                    mr + 1,
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
                assert!(caught.is_err(), "{name}: {what} went unnoticed");
            }
            let (a, b) = (vec![1.0f32; 12], vec![1.0f32; 12]);
            // The exact fits are accepted, and an empty tile touches nothing.
            tile(2, &a, 6, 1, 6, &b, 2, 2, &mut [0.0f32; 8], 6);
            tile(
                mr,
                &vec![1.0; mr],
                1,
                1,
                1,
                &[1.0],
                1,
                1,
                &mut vec![0.0; mr],
                1,
            );
            tile(0, &[], 0, 0, 5, &[], 0, 5, &mut [], 0);
            tile(1, &[], 0, 0, 0, &[], 0, 5, &mut [], 0);
        }
    }

    /// The element-wise entries and the matvec check their operand lengths
    /// in every table, in release builds too: the SIMD bodies index every
    /// operand by the first one's length.
    #[test]
    fn kernels_reject_mismatched_lengths() {
        type Case = (&'static str, fn(&Kernels));
        let cases: [Case; 9] = [
            ("axpy, short src", |k| {
                (k.axpy)(&mut [0.0; 16], &[1.0; 4], 1.0)
            }),
            ("axpy, long src", |k| {
                (k.axpy)(&mut [0.0; 4], &[1.0; 16], 1.0)
            }),
            ("perturb, short base", |k| {
                (k.perturb)(&mut [0.0; 16], &[1.0; 4], &[1.0; 16], 1.0)
            }),
            ("perturb, short dir", |k| {
                (k.perturb)(&mut [0.0; 16], &[1.0; 16], &[1.0; 4], 1.0)
            }),
            ("gelu_grad, short grad", |k| {
                (k.gelu_grad)(&[1.0; 16], &[1.0; 4], &mut [0.0; 16])
            }),
            ("gelu_grad, short out", |k| {
                (k.gelu_grad)(&[1.0; 16], &[1.0; 16], &mut [0.0; 4])
            }),
            ("gelu_grad_cached, short y", |k| {
                (k.gelu_grad_cached)(&[1.0; 16], &[1.0; 4], &[1.0; 16], &mut [0.0; 16])
            }),
            ("gelu_grad_cached, short grad", |k| {
                (k.gelu_grad_cached)(&[1.0; 16], &[1.0; 16], &[1.0; 4], &mut [0.0; 16])
            }),
            ("matvec, short A", |k| {
                (k.matvec)(&[1.0; 15], &[1.0; 4], &mut [0.0; 4])
            }),
        ];
        for (name, kern) in tables() {
            for (what, call) in cases {
                let caught = std::panic::catch_unwind(|| call(kern));
                assert!(caught.is_err(), "{name}: {what} went unnoticed");
            }
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
