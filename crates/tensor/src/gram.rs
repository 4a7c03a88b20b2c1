//! Symmetric Gram products `X·Xᵀ` over borrowed row slices.
//!
//! PCA of `n` samples with `d ≫ n` features only ever needs the `n×n`
//! matrix of inner products between samples (see [`crate::pca`]), and the
//! samples Flux clusters — flattened experts — live in separate buffers per
//! expert and per parameter block. [`accumulate_panel`] therefore takes the
//! rows as slices and computes a horizontal panel of the lower triangle, so
//! callers can split a large Gram matrix into row panels (one per task),
//! call once per parameter block, and never materialise the stacked `n×d`
//! matrix or its transpose.
//!
//! # Every entry is a pure function of its two rows
//!
//! The panel is driven through the dispatched GEMM microkernels
//! ([`crate::simd`]), whose per-element accumulation order is fixed and
//! independent of row counts, column counts and tile position. Depth
//! blocking restarts at the beginning of every call, so for a fixed SIMD
//! level `out[i][j]` depends on `rows[i]` and `rows[j]` alone — not on
//! which other rows are present, where the panel starts, or which thread
//! ran it. A Gram matrix computed over a subset of rows is bit-identical to
//! the corresponding sub-block of the Gram matrix over all rows, and
//! `out[i][j]` computed in one panel equals `out[j][i]` computed in another.

use crate::matrix::KC;
use crate::{scratch, simd};

/// Accumulates the inner products of `rows[first..]` against `rows` into
/// `out`, lower triangle only.
///
/// `out` is the `(rows.len() - first) × rows.len()` row-major panel of the
/// Gram matrix holding rows `first..`: on return
/// `out[(i - first) * rows.len() + j] += rows[i] · rows[j]` for every
/// `first <= i` and `j <= i`. Entries right of the diagonal may or may not
/// have been touched; callers read `(max(i, j), min(i, j))`.
///
/// # Panics
///
/// Panics when the rows differ in length or `out` has the wrong size.
pub fn accumulate_panel(rows: &[&[f32]], first: usize, out: &mut [f32]) {
    let n = rows.len();
    assert!(first <= n, "panel starts past the last row");
    assert_eq!(out.len(), (n - first) * n, "Gram panel shape");
    let depth = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == depth),
        "Gram rows must share one length"
    );
    if first == n || depth == 0 {
        return;
    }
    let kern = simd::active();
    let kc_max = KC.min(depth);
    // Slab rows are an odd multiple of eight floats apart. Expert counts are
    // powers of two, and at a row pitch of exactly 128 or 512 floats the
    // depth steps of a tile's column block fall into two or eight cache sets
    // and evict each other: 512 rows × 9 360 read 37 GFLOP/s against 57 for
    // 450 rows, and 60 with the pad.
    let ld = n.next_multiple_of(8) | 8;
    scratch::with(kc_max * ld, |slab| {
        // `slab` is the depth-major copy of one depth block of every row
        // (`slab[p * ld + j] = rows[j][k0 + p]`), 128 depth steps at a time
        // instead of a transposed copy of the whole input. It is both
        // operands of the tile: `B` as it stands, and `A` read in place —
        // rows `i..` of the panel are its columns `i..`, i.e. row stride 1
        // and depth stride `ld`.
        for k0 in (0..depth).step_by(KC) {
            let kc = KC.min(depth - k0);
            for (j, row) in rows.iter().enumerate() {
                for (p, &v) in row[k0..k0 + kc].iter().enumerate() {
                    slab[p * ld + j] = v;
                }
            }
            for i in (first..n).step_by(kern.mr) {
                let height = kern.mr.min(n - i);
                // Columns up to the tile's last diagonal entry.
                (kern.tile)(
                    height,
                    &slab[i..],
                    1,
                    ld,
                    kc,
                    slab,
                    ld,
                    i + height,
                    &mut out[(i - first) * n..],
                    n,
                );
            }
        }
    });
}

/// The full symmetric Gram matrix `X·Xᵀ` of `rows` as `f64`, row-major
/// `n×n` — one panel, mirrored. The form the eigen-solver of
/// [`crate::pca`] consumes.
pub(crate) fn gram_f64(rows: &[&[f32]]) -> Vec<f64> {
    let n = rows.len();
    let mut lower = vec![0.0f32; n * n];
    accumulate_panel(rows, 0, &mut lower);
    let mut gram = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let v = f64::from(lower[i * n + j]);
            gram[i * n + j] = v;
            gram[j * n + i] = v;
        }
    }
    gram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;
    use crate::{Matrix, SeededRng};

    fn rows_of(m: &Matrix) -> Vec<&[f32]> {
        (0..m.rows()).map(|r| m.row(r)).collect()
    }

    fn supported_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| simd::is_supported(l))
            .collect()
    }

    #[test]
    fn lower_triangle_matches_matmul_transb() {
        let mut rng = SeededRng::new(1);
        // Depth crosses two KC blocks with a ragged tail; 23 rows leave a
        // row remainder under every tile height.
        let x = Matrix::random_normal(23, 2 * KC + 37, 1.0, &mut rng);
        for level in supported_levels() {
            simd::with_level(level, || {
                let reference = x.matmul_transb(&x).unwrap();
                let mut out = vec![0.0f32; 23 * 23];
                accumulate_panel(&rows_of(&x), 0, &mut out);
                for i in 0..23 {
                    for j in 0..=i {
                        assert_eq!(
                            out[i * 23 + j].to_bits(),
                            reference.get(i, j).to_bits(),
                            "{} ({i},{j})",
                            level.label()
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn entries_depend_on_their_two_rows_only() {
        let mut rng = SeededRng::new(2);
        let x = Matrix::random_normal(41, KC + 19, 1.0, &mut rng);
        let all = rows_of(&x);
        for level in supported_levels() {
            simd::with_level(level, || {
                let mut full = vec![0.0f32; 41 * 41];
                accumulate_panel(&all, 0, &mut full);
                // Symmetric bit for bit where both halves were computed.
                let mut upper = vec![0.0f32; 41 * 41];
                let reversed: Vec<&[f32]> = all.iter().rev().copied().collect();
                accumulate_panel(&reversed, 0, &mut upper);
                for i in 0..41 {
                    for j in 0..=i {
                        let (ri, rj) = (40 - i, 40 - j);
                        assert_eq!(
                            full[i * 41 + j].to_bits(),
                            upper[rj * 41 + ri].to_bits(),
                            "{} symmetry ({i},{j})",
                            level.label()
                        );
                    }
                }
                // A panel starting anywhere equals the rows of the full one.
                for first in [0, 1, 5, 6, 17, 40, 41] {
                    let mut panel = vec![0.0f32; (41 - first) * 41];
                    accumulate_panel(&all, first, &mut panel);
                    for i in first..41 {
                        for j in 0..=i {
                            assert_eq!(
                                panel[(i - first) * 41 + j].to_bits(),
                                full[i * 41 + j].to_bits(),
                                "{} panel from {first} ({i},{j})",
                                level.label()
                            );
                        }
                    }
                }
                // A subset of the rows gives the sub-block.
                let picks = [3usize, 4, 9, 16, 17, 18, 30, 40];
                let subset: Vec<&[f32]> = picks.iter().map(|&r| all[r]).collect();
                let mut sub = vec![0.0f32; picks.len() * picks.len()];
                accumulate_panel(&subset, 0, &mut sub);
                for (a, &i) in picks.iter().enumerate() {
                    for (b, &j) in picks.iter().enumerate().take(a + 1) {
                        assert_eq!(
                            sub[a * picks.len() + b].to_bits(),
                            full[i * 41 + j].to_bits(),
                            "{} subset ({i},{j})",
                            level.label()
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn accumulates_across_calls_and_mirrors() {
        let mut rng = SeededRng::new(3);
        let a = Matrix::random_normal(7, 10, 1.0, &mut rng);
        let b = Matrix::random_normal(7, 3, 1.0, &mut rng);
        let mut out = vec![0.0f32; 49];
        accumulate_panel(&rows_of(&a), 0, &mut out);
        accumulate_panel(&rows_of(&b), 0, &mut out);
        let stacked = Matrix::hstack(&[&a, &b]).unwrap();
        let reference = stacked.matmul_transb(&stacked).unwrap();
        for i in 0..7 {
            for j in 0..=i {
                assert!((out[i * 7 + j] - reference.get(i, j)).abs() < 1e-4);
            }
        }
        let gram = gram_f64(&rows_of(&a));
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(gram[i * 7 + j], gram[j * 7 + i]);
            }
        }
        // Degenerate shapes are no-ops.
        accumulate_panel(&[], 0, &mut []);
        accumulate_panel(&[&[], &[]], 0, &mut [0.0; 4]);
    }
}
