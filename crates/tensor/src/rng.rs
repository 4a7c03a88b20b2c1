//! Deterministic random number generation.
//!
//! All stochastic components of the reproduction (weight initialization,
//! gating noise, dataset synthesis, non-IID partitioning, exploration
//! sampling, perturbation-based gradient estimation) draw from a
//! [`SeededRng`] so experiments are reproducible bit-for-bit across runs.
//!
//! The generator is splitmix64 (Steele, Lea & Flood): statistically solid
//! for simulation sampling and identical on every platform, which is all
//! the reproduction needs. It is NOT cryptographically secure. Its stream
//! is the determinism contract of every golden trace in the workspace and
//! is held to literals by `tests/rng_stream_pin.rs`.

/// The splitmix64 increment (2^64 / golden ratio): successive states of a
/// stream differ by it.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finaliser: a bijective avalanche mix of 64 bits. The
/// generator applies it to its advancing state; seed derivation and the
/// fault plan's hashes in `flux-fl` apply it to keys.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 pseudo-random number generator.
///
/// Sampling lives here and nowhere else, so downstream crates share one
/// stream definition and it is easy to audit which components consume
/// entropy.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
    seed: u64,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed, seed }
    }

    /// Advances the stream by one step and returns its 64 bits.
    ///
    /// This and the float samplers carry `#[inline]` because weight
    /// initialization is a loop over [`SeededRng::normal_with`] in other
    /// crates: left out of line, model setup measured ~9% slower.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Returns the seed the generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator.
    ///
    /// The child is seeded from the parent's seed and the provided `stream`
    /// identifier, so two children with different streams produce unrelated
    /// sequences while remaining reproducible.
    pub fn derive(&self, stream: u64) -> Self {
        // Mixing keeps child seeds well distributed even for consecutive
        // stream ids.
        let offset = GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1));
        Self::new(mix64(self.seed.wrapping_add(offset)))
    }

    /// Samples a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        // 24 high bits -> uniform in [0, 1) with full f32 mantissa coverage.
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Samples a uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Samples a standard normal variate using the Box–Muller transform.
    #[inline]
    pub fn normal(&mut self) -> f32 {
        // Avoid log(0) by clamping the first uniform away from zero.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Advances the stream past `n` calls of [`SeededRng::normal`] without
    /// computing them: each normal consumes exactly two uniforms, and a
    /// caller that would multiply the variates by zero needs only the
    /// stream position they leave behind.
    pub fn skip_normals(&mut self, n: usize) {
        for _ in 0..2 * n {
            self.next_u64();
        }
    }

    /// Samples a normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal()
    }

    /// Samples a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        (self.next_u64() % n as u64) as usize
    }

    /// Samples a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// Weights need not be normalized; non-positive weights are treated as
    /// zero. Falls back to a uniform draw if every weight is zero.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "weighted_index over empty weights");
        let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Samples `k` values from a symmetric Dirichlet distribution with
    /// concentration `alpha`.
    ///
    /// Used by the non-IID data partitioner (FedNLP-style label skew). Gamma
    /// variates are generated with the Marsaglia–Tsang method; for
    /// `alpha < 1` the boosting trick is applied.
    pub fn dirichlet(&mut self, alpha: f32, k: usize) -> Vec<f32> {
        assert!(k > 0, "dirichlet with k = 0");
        assert!(alpha > 0.0, "dirichlet requires alpha > 0");
        let mut draws: Vec<f32> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f32 = draws.iter().sum();
        if sum <= 0.0 {
            // Degenerate draw (all underflowed); fall back to uniform.
            return vec![1.0 / k as f32; k];
        }
        for d in &mut draws {
            *d /= sum;
        }
        draws
    }

    /// Samples from a Gamma(shape, 1) distribution.
    fn gamma(&mut self, shape: f32) -> f32 {
        if shape < 1.0 {
            // Boosting: Gamma(a) = Gamma(a + 1) * U^{1/a}.
            let u = self.uniform().max(1e-12);
            return self.gamma(shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform().max(1e-12);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// Shuffles a slice in place with the Fisher–Yates algorithm.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices from `[0, n)` uniformly at random.
    ///
    /// Returns fewer than `k` indices when `k > n`.
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 32);
    }

    #[test]
    fn derive_streams_are_independent() {
        let root = SeededRng::new(7);
        let mut c1 = root.derive(0);
        let mut c2 = root.derive(1);
        let equal = (0..64).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(equal < 8);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SeededRng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SeededRng::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn skip_normals_leaves_the_stream_where_normal_calls_do() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let root = SeededRng::new(seed);
            for rng in [root.derive(3), root.derive(3).derive(9)] {
                for n in [0usize, 1, 7, 4192] {
                    let mut drawn = rng.clone();
                    for _ in 0..n {
                        drawn.normal();
                    }
                    let mut skipped = rng.clone();
                    skipped.skip_normals(n);
                    for _ in 0..4 {
                        assert_eq!(drawn.normal().to_bits(), skipped.normal().to_bits());
                        assert_eq!(drawn.below(1000), skipped.below(1000));
                    }
                }
            }
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SeededRng::new(5);
        for &alpha in &[0.1f32, 0.5, 1.0, 5.0] {
            let draw = rng.dirichlet(alpha, 8);
            assert_eq!(draw.len(), 8);
            let sum: f32 = draw.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(draw.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_low_alpha_is_skewed() {
        let mut rng = SeededRng::new(9);
        // With alpha = 0.05 most of the mass should concentrate on few bins.
        let draw = rng.dirichlet(0.05, 10);
        let max = draw.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 0.5, "expected skew, max = {max}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SeededRng::new(13);
        let weights = [0.0, 0.0, 10.0, 0.1];
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[3]);
    }

    #[test]
    fn weighted_index_all_zero_falls_back_to_uniform() {
        let mut rng = SeededRng::new(17);
        let weights = [0.0f32; 5];
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.weighted_index(&weights)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(21);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_indices_distinct() {
        let mut rng = SeededRng::new(23);
        let picks = rng.choose_indices(20, 8);
        assert_eq!(picks.len(), 8);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn choose_indices_k_larger_than_n() {
        let mut rng = SeededRng::new(29);
        let picks = rng.choose_indices(3, 10);
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn below_and_range_bounds() {
        let mut rng = SeededRng::new(31);
        for _ in 0..200 {
            assert!(rng.below(7) < 7);
            let r = rng.range(3, 9);
            assert!((3..9).contains(&r));
        }
    }

    #[test]
    fn range_reaches_every_value_of_a_small_span() {
        let mut rng = SeededRng::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.range(2, 7) - 2] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0) is undefined")]
    fn below_zero_panics() {
        SeededRng::new(1).below(0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SeededRng::new(1).range(4, 4);
    }
}
