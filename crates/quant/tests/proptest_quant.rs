//! Property-based tests for quantization round-trips.

use flux_quant::{
    quantization_relative_error, quantize_row, quantized_matmul, BitWidth, QuantizedMatrix,
};
use flux_tensor::{Matrix, SeededRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dequantized values never exceed the original row maximum (symmetric
    /// scheme cannot overshoot the clamping range).
    #[test]
    fn dequantized_values_bounded_by_row_max(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::random_normal(6, 10, 2.0, &mut rng);
        for &width in &BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, width).dequantize();
            for r in 0..w.rows() {
                let max_abs = w.row(r).iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                for &v in q.row(r) {
                    prop_assert!(v.abs() <= max_abs + 1e-4);
                }
            }
        }
    }

    /// Round-trip error is bounded by half a quantization step per element.
    #[test]
    fn round_trip_error_bounded_by_step(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::random_normal(4, 12, 1.5, &mut rng);
        for &width in &BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, width);
            let back = q.dequantize();
            for r in 0..w.rows() {
                let step = q.scales()[r];
                for (a, b) in w.row(r).iter().zip(back.row(r)) {
                    prop_assert!((a - b).abs() <= 0.5 * step + 1e-5);
                }
            }
        }
    }

    /// Higher precision never yields a larger relative error.
    #[test]
    fn precision_monotonicity(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::random_normal(8, 8, 1.0, &mut rng);
        let e2 = quantization_relative_error(&w, BitWidth::Int2);
        let e4 = quantization_relative_error(&w, BitWidth::Int4);
        let e8 = quantization_relative_error(&w, BitWidth::Int8);
        prop_assert!(e2 + 1e-6 >= e4);
        prop_assert!(e4 + 1e-6 >= e8);
    }

    /// The quantized matmul equals the full-precision matmul against the
    /// dequantized weight (the quantization error lives in the weights only).
    #[test]
    fn quantized_matmul_equals_dequantized_matmul(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let x = Matrix::random_normal(3, 6, 1.0, &mut rng);
        let w = Matrix::random_normal(6, 4, 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w, BitWidth::Int4);
        let a = quantized_matmul(&x, &q).unwrap();
        let b = x.matmul(&q.dequantize());
        for (x1, x2) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x1 - x2).abs() < 1e-3);
        }
    }

    /// Levels packed at 2, 4 and 8 bits come back unchanged, through the
    /// row reader and the element reader, for odd column counts (rows then
    /// start mid-byte) and every level in `±max_level`.
    #[test]
    fn packed_levels_round_trip(
        rows in 1usize..6,
        half_cols in 0usize..20,
        offset in 0usize..255,
    ) {
        let cols = 2 * half_cols + 1;
        for width in BitWidth::all() {
            let max = width.max_level();
            let span = (2 * max + 1) as usize;
            // Every level of the range appears whenever the matrix is big
            // enough, starting at a different one each case.
            let levels: Vec<i8> = (0..rows * cols)
                .map(|i| ((i + offset) % span) as i32 - max)
                .map(|l| l as i8)
                .collect();
            let q = QuantizedMatrix::from_levels(rows, cols, width, &levels, vec![0.5; rows]);
            let mut row = vec![0i8; cols];
            for r in 0..rows {
                q.levels_row_into(r, &mut row);
                prop_assert_eq!(&row[..], &levels[r * cols..(r + 1) * cols]);
                for (c, &level) in row.iter().enumerate() {
                    prop_assert_eq!(q.level(r, c), level);
                }
            }
            // Packed contiguously: levels at their width plus one f32 scale
            // per row, nothing else.
            prop_assert_eq!(
                q.storage_bytes(),
                (rows * cols * width.bits() as usize).div_ceil(8) + 4 * rows
            );
        }
    }

    /// Every dequantized element is exactly `level as f32 * scale`, through
    /// the whole-matrix, the reused-buffer and the row readers.
    #[test]
    fn dequantize_is_level_times_scale(seed in 0u64..1000, rows in 1usize..6, cols in 1usize..40) {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::random_normal(rows, cols, 3.0, &mut rng);
        let mut reused = Matrix::zeros(2, 3);
        let mut row = vec![f32::NAN; cols];
        for width in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, width);
            let whole = q.dequantize();
            q.dequantize_into(&mut reused);
            prop_assert_eq!(&reused, &whole);
            for r in 0..rows {
                q.dequantize_row_into(r, &mut row);
                for (c, value) in row.iter().enumerate() {
                    let want = (q.level(r, c) as f32 * q.scales()[r]).to_bits();
                    prop_assert_eq!(whole.get(r, c).to_bits(), want);
                    prop_assert_eq!(value.to_bits(), want);
                }
            }
        }
    }

    /// The row quantizer rounds like `f32::round` (half away from zero),
    /// on values that land on and around every tie, and on NaN, infinities
    /// and signed zeros.
    #[test]
    fn quantize_row_rounds_like_f32_round(seed in 0u64..1000, len in 1usize..40) {
        let mut rng = SeededRng::new(seed);
        for width in BitWidth::all() {
            let max = width.max_level() as f32;
            let mut values: Vec<f32> = (0..len)
                .map(|_| {
                    let tie = (rng.uniform() * 2.0 * max).round() - max + 0.5;
                    match rng.uniform() {
                        u if u < 0.3 => tie,
                        u if u < 0.45 => tie.next_up(),
                        u if u < 0.6 => tie.next_down(),
                        u => (u - 0.8) * 4.0 * max,
                    }
                })
                .collect();
            values.push(max);
            let special = [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY];
            values[seed as usize % len] = special[seed as usize % special.len()];
            let mut levels = vec![0i8; values.len()];
            let scale = quantize_row(&values, width, &mut levels);
            for (&v, &level) in values.iter().zip(&levels) {
                let want = (v / scale).round().clamp(-max, max) as i8;
                prop_assert_eq!(level, want, "{} at scale {}", v, scale);
            }
        }
    }
}
