//! Statistics helpers used throughout the Flux experiments.
//!
//! These back the paper's measurements: per-layer activation-frequency
//! variance (Fig. 2), the CDF of activation-frequency change (Fig. 6),
//! cosine-distance output error (Fig. 8, 15, 17), and gradient-distance
//! metrics (Fig. 18).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population variance; 0 for slices with fewer than two elements.
pub fn variance(values: &[f32]) -> f32 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f32>() / values.len() as f32
}

/// Population standard deviation.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// L2 norm of a vector.
pub fn l2_norm(values: &[f32]) -> f32 {
    values.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Dot product of two equally-long slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Cosine similarity in `[-1, 1]`; 0 when either vector is all-zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity`, the paper's output-error metric.
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// Euclidean distance between two vectors.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean distance of unequal lengths");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f32>()
        .sqrt()
}

/// Min–max normalization to `[0, 1]`.
///
/// Constant input maps to all zeros.
pub fn min_max_normalize(values: &[f32]) -> Vec<f32> {
    if values.is_empty() {
        return Vec::new();
    }
    let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if (max - min).abs() < f32::EPSILON {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - min) / (max - min)).collect()
}

/// Normalizes values to sum to 1 (a probability vector).
///
/// All-zero or empty input yields a uniform distribution.
pub fn normalize_to_distribution(values: &[f32]) -> Vec<f32> {
    if values.is_empty() {
        return Vec::new();
    }
    let sum: f32 = values.iter().map(|v| v.max(0.0)).sum();
    if sum <= 0.0 {
        return vec![1.0 / values.len() as f32; values.len()];
    }
    values.iter().map(|v| v.max(0.0) / sum).collect()
}

/// Empirical CDF evaluated at the given points.
///
/// Returns `(point, fraction_of_samples <= point)` pairs, one per entry of
/// `points`, in the order given.
pub fn empirical_cdf(samples: &[f32], points: &[f32]) -> Vec<(f32, f32)> {
    if samples.is_empty() {
        return points.iter().map(|&p| (p, 0.0)).collect();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    points
        .iter()
        .map(|&p| {
            let count = sorted.partition_point(|&s| s <= p);
            (p, count as f32 / sorted.len() as f32)
        })
        .collect()
}

/// Percentile (0–100) of a sample using nearest-rank.
///
/// Returns 0 for empty input.
pub fn percentile(samples: &[f32], pct: f32) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((pct / 100.0) * (sorted.len() as f32 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Argmax index; `None` for an empty slice.
pub fn argmax(values: &[f32]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}

/// Indices of the `k` largest values, in descending value order.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_identity_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_distance_is_one_minus_similarity() {
        let a = [0.3, 0.9, -0.2];
        let b = [1.0, -0.5, 0.4];
        assert!((cosine_distance(&a, &b) - (1.0 - cosine_similarity(&a, &b))).abs() < 1e-6);
    }

    #[test]
    fn euclidean_known_value() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn min_max_normalize_range() {
        let out = min_max_normalize(&[2.0, 4.0, 6.0]);
        assert_eq!(out, vec![0.0, 0.5, 1.0]);
        assert_eq!(min_max_normalize(&[3.0, 3.0]), vec![0.0, 0.0]);
        assert!(min_max_normalize(&[]).is_empty());
    }

    #[test]
    fn normalize_to_distribution_sums_to_one() {
        let d = normalize_to_distribution(&[1.0, 3.0]);
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(d, vec![0.25, 0.75]);
        let u = normalize_to_distribution(&[0.0, 0.0, 0.0]);
        assert_eq!(u, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn empirical_cdf_monotone() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let cdf = empirical_cdf(&samples, &[0.5, 2.0, 3.5, 10.0]);
        assert_eq!(cdf[0].1, 0.0);
        assert_eq!(cdf[1].1, 0.5);
        assert_eq!(cdf[2].1, 0.75);
        assert_eq!(cdf[3].1, 1.0);
    }

    #[test]
    fn empirical_cdf_empty_samples() {
        let cdf = empirical_cdf(&[], &[1.0]);
        assert_eq!(cdf, vec![(1.0, 0.0)]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 30.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn argmax_and_top_k() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(top_k_indices(&[0.1, 0.9, 0.5, 0.7], 2), vec![1, 3]);
        assert_eq!(top_k_indices(&[0.1], 5), vec![0]);
    }
}
