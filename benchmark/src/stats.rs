//! Order statistics: the percentile picker for round times and the
//! quartile picker used for every reported spread.

use crate::json::Value;

/// Percentile `p` (in `[0, 1]`) of `values` by linear interpolation between
/// the two nearest ranks. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// a spread computed here equals the one the acceptance driver computes.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One reported number: the median of its samples with their quartiles, or
/// a single exact value (`n == 1`, quartiles equal to the value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value that was counted or measured once.
    pub fn single(value: f64) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// `value` with the quartiles of a different sample set describing its
    /// run-to-run spread (used for pooled percentiles, whose spread comes
    /// from the per-repetition estimates).
    pub fn with_spread_of(value: f64, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::object([
            ("value", Value::Num(self.value)),
            ("unit", Value::Str(unit.to_string())),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(value: &Value) -> Option<(Self, String)> {
        Some((
            Self {
                value: value.get("value")?.as_f64()?,
                q1: value.get("q1")?.as_f64()?,
                q3: value.get("q3")?.as_f64()?,
                n: value.get("n")?.as_f64()? as usize,
            },
            value.get("unit")?.as_str()?.to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        // Rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3).
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn stat_spread_is_the_interquartile_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let stat = Stat::of(&v);
        assert_eq!(stat.value, 5.5);
        assert_eq!(stat.n, 10);
        assert!((stat.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Stat::single(3.0).spread(), 0.0);
    }
}
