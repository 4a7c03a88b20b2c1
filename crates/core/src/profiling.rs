//! Quantization-based local expert-activation profiling (§4).
//!
//! Running the full-precision model over local data just to measure which
//! experts fire is unaffordable on a constrained participant. Flux instead
//! profiles with a low-bit quantized copy, whose *routing decisions* closely
//! track the full model even though its outputs are too noisy to train on.
//! [`LocalProfiler`] implements that measurement; [`StaleProfiler`]
//! implements the stale-profiling pipeline of §4.2, where round `r` uses the
//! profile computed during round `r-1`'s aggregation window so the profiling
//! cost is hidden behind server-side work.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flux_data::Dataset;
use flux_fl::sync::lock;
use flux_moe::{ActivationProfile, MoeModel, QuantizedMoe};
use flux_quant::BitWidth;

/// Round-scoped memoization of the quantized profiling model, one entry per
/// bit width.
///
/// Every participant used to quantize its own copy of the freshly
/// downloaded global model before profiling — identical work repeated once
/// per participant sharing a bit width. The driver opens one
/// `QuantizedModelCache` per round and every profiling (and FMQ
/// fine-tuning) path goes through it: the first participant at a width
/// quantizes, the rest reuse the identical [`QuantizedMoe`]. The entry holds
/// the weights packed at their width (3.2 MB at Int4 for the 32 × 16
/// paper shape, row scales and `f32` biases included, against 20.5 MB for
/// the `f32` model); profiling dequantizes one block at a time from it, and
/// FMQ dequantizes its own trainable copy.
///
/// Today every Flux participant profiles at the run's one configured width
/// (`ProfilingConfig::width`), so a round fills a single entry; the cache is
/// keyed by width so participants profiling at different widths would each
/// share theirs.
///
/// The cache must not outlive the round — the global model changes at every
/// aggregation, and a stale quantized model would silently profile last
/// round's weights.
///
/// Concurrency: lookups take a short registry lock, then a per-width slot
/// lock for the duration of the (first) quantization, so two participants
/// at the *same* width wait on each other instead of duplicating the work,
/// while different widths quantize concurrently. Quantization is
/// deterministic, so the memoized model is bit-identical to the one each
/// participant would have built.
#[derive(Debug, Default)]
pub struct QuantizedModelCache {
    slots: Mutex<HashMap<BitWidth, Arc<QuantizedSlot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// One bit width's memoization slot: locked while the first requester
/// quantizes so sharers wait instead of duplicating the work.
type QuantizedSlot = Mutex<Option<Arc<QuantizedMoe>>>;

impl QuantizedModelCache {
    /// Creates an empty cache for one round.
    pub fn new() -> Self {
        Self::default()
    }

    /// `model` quantized at `width`: computed on first request, shared on
    /// every subsequent one.
    pub fn get_or_quantize(&self, model: &MoeModel, width: BitWidth) -> Arc<QuantizedMoe> {
        let slot = {
            let mut slots = lock(&self.slots);
            Arc::clone(slots.entry(width).or_default())
        };
        let mut guard = lock(&slot);
        if let Some(cached) = &*guard {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let quantized = Arc::new(QuantizedMoe::quantize(model, width));
        *guard = Some(Arc::clone(&quantized));
        quantized
    }

    /// `(hits, misses)` so far — misses count actual quantizations.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Configuration of the local profiling module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingConfig {
    /// Quantization width used for the profiling copy. Weaker devices pick
    /// lower widths (cheaper, less accurate).
    pub width: BitWidth,
    /// Whether to use stale profiling (profile from the previous round) so
    /// profiling overlaps with aggregation.
    pub stale: bool,
    /// Largest number of samples to profile per round; profiling the whole
    /// shard is unnecessary once frequencies stabilize.
    pub max_samples: usize,
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        Self {
            width: BitWidth::Int4,
            stale: true,
            max_samples: 64,
        }
    }
}

impl ProfilingConfig {
    /// Uses the given quantization width.
    pub fn with_width(mut self, width: BitWidth) -> Self {
        self.width = width;
        self
    }

    /// Enables or disables stale profiling.
    pub fn with_stale(mut self, stale: bool) -> Self {
        self.stale = stale;
        self
    }
}

/// Profiles expert activation with a quantized model copy.
#[derive(Debug, Clone)]
pub struct LocalProfiler {
    config: ProfilingConfig,
}

impl LocalProfiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: ProfilingConfig) -> Self {
        Self { config }
    }

    /// The profiling configuration.
    pub fn config(&self) -> &ProfilingConfig {
        &self.config
    }

    /// Profiles `dataset` on `model` quantized at the configured width.
    ///
    /// Only the first `max_samples` samples are used; the model is quantized
    /// fresh so the profile reflects the latest downloaded parameters.
    pub fn profile(&self, model: &MoeModel, dataset: &Dataset) -> ActivationProfile {
        let quantized = QuantizedMoe::quantize(model, self.config.width);
        let subset = limit_samples(dataset, self.config.max_samples);
        quantized.profile(&subset)
    }

    /// Like [`LocalProfiler::profile`], but the quantized model comes from
    /// the round's shared [`QuantizedModelCache`]: participants sharing a
    /// bit width quantize the model once between them. Identical results —
    /// quantization is deterministic.
    pub fn profile_cached(
        &self,
        model: &MoeModel,
        dataset: &Dataset,
        cache: &QuantizedModelCache,
    ) -> ActivationProfile {
        let quantized = cache.get_or_quantize(model, self.config.width);
        let subset = limit_samples(dataset, self.config.max_samples);
        quantized.profile(&subset)
    }

    /// Profiles with the *full-precision* model. Used as ground truth when
    /// measuring the estimation error of quantized profiling (Fig. 5/14).
    pub fn profile_full_precision(&self, model: &MoeModel, dataset: &Dataset) -> ActivationProfile {
        let subset = limit_samples(dataset, self.config.max_samples);
        model.profile(&subset)
    }

    /// Estimation error (percent) of quantized profiling against the
    /// full-precision ground truth on the same data.
    pub fn estimation_error_pct(&self, model: &MoeModel, dataset: &Dataset) -> f32 {
        let estimated = self.profile(model, dataset);
        let truth = self.profile_full_precision(model, dataset);
        estimated.estimation_error_pct(&truth)
    }
}

/// Stale-profiling pipeline (§4.2).
///
/// Holds the most recent completed profile. At the start of round `r` the
/// participant *uses* the stale profile (computed from the round `r-1`
/// model) for merging and data selection, then refreshes the profile from
/// the newly downloaded model while the server is busy aggregating — hiding
/// the profiling latency.
#[derive(Debug, Clone)]
pub struct StaleProfiler {
    profiler: LocalProfiler,
    current: Option<ActivationProfile>,
    refreshes: usize,
}

impl StaleProfiler {
    /// Creates an empty stale profiler.
    pub fn new(config: ProfilingConfig) -> Self {
        Self {
            profiler: LocalProfiler::new(config),
            current: None,
            refreshes: 0,
        }
    }

    /// Rebuilds a stale profiler from checkpointed state (the profile
    /// computed before the crash plus how many refreshes produced it), so a
    /// restored run resumes with the exact stale view the interrupted round
    /// was using.
    pub fn from_parts(
        config: ProfilingConfig,
        current: Option<ActivationProfile>,
        refreshes: usize,
    ) -> Self {
        Self {
            profiler: LocalProfiler::new(config),
            current,
            refreshes,
        }
    }

    /// The profile available for use this round (stale), if any. The first
    /// round has no stale profile and must call
    /// [`StaleProfiler::refresh_blocking_cached`] instead.
    pub fn stale_profile(&self) -> Option<&ActivationProfile> {
        self.current.as_ref()
    }

    /// Number of refreshes performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Profiles `model` on `dataset` synchronously, keeps the result as the
    /// next round's stale profile, and returns it. The quantized copy comes
    /// from the round's shared [`QuantizedModelCache`], so it is built once
    /// per bit width per round instead of once per participant; a cache
    /// serves one model, so profiling a newer model takes a fresh cache.
    pub fn refresh_blocking_cached(
        &mut self,
        model: &MoeModel,
        dataset: &Dataset,
        cache: &QuantizedModelCache,
    ) -> ActivationProfile {
        let profile = self.profiler.profile_cached(model, dataset, cache);
        self.current = Some(profile.clone());
        self.refreshes += 1;
        profile
    }
}

/// The first `max` samples of `dataset`: borrowed when it already fits.
fn limit_samples(dataset: &Dataset, max: usize) -> Cow<'_, Dataset> {
    if dataset.len() <= max {
        return Cow::Borrowed(dataset);
    }
    let indices: Vec<usize> = (0..max).collect();
    Cow::Owned(dataset.subset(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};
    use flux_moe::MoeConfig;
    use flux_tensor::SeededRng;

    fn model_and_data() -> (MoeModel, Dataset) {
        let mut rng = SeededRng::new(1);
        let model = MoeModel::new(MoeConfig::tiny().with_classes(8), &mut rng);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Gsm8k, 64)
            .with_num_samples(20)
            .with_mean_seq_len(10);
        let data = DatasetGenerator::new(cfg).generate(&mut rng);
        (model, data)
    }

    #[test]
    fn quantized_profile_has_model_shape() {
        let (model, data) = model_and_data();
        let profiler = LocalProfiler::new(ProfilingConfig::default());
        let profile = profiler.profile(&model, &data);
        assert_eq!(profile.num_layers(), 4);
        assert_eq!(profile.frequencies[0].len(), 8);
    }

    #[test]
    fn estimation_error_decreases_with_precision() {
        let (model, data) = model_and_data();
        let err = |width| {
            LocalProfiler::new(ProfilingConfig::default().with_width(width))
                .estimation_error_pct(&model, &data)
        };
        let e2 = err(BitWidth::Int2);
        let e8 = err(BitWidth::Int8);
        assert!(
            e2 >= e8,
            "2-bit profiling should not beat 8-bit: {e2} vs {e8}"
        );
        // INT8 routing should be close to the full-precision routing.
        assert!(e8 < 30.0, "int8 error unexpectedly high: {e8}");
    }

    #[test]
    fn estimation_error_is_nonzero_for_low_bits() {
        let (model, data) = model_and_data();
        let e2 = LocalProfiler::new(ProfilingConfig::default().with_width(BitWidth::Int2))
            .estimation_error_pct(&model, &data);
        assert!(e2 > 0.0);
    }

    #[test]
    fn max_samples_limits_work() {
        let (model, data) = model_and_data();
        let small = LocalProfiler::new(ProfilingConfig {
            width: BitWidth::Int8,
            stale: true,
            max_samples: 3,
        });
        // Should run (on only 3 samples) and still produce a full-shape profile.
        let profile = small.profile(&model, &data);
        assert_eq!(profile.num_layers(), 4);
    }

    #[test]
    fn zero_max_samples_profiles_nothing_without_panicking() {
        let (model, data) = model_and_data();
        let profiler = LocalProfiler::new(ProfilingConfig {
            max_samples: 0,
            ..ProfilingConfig::default()
        });
        let profile = profiler.profile(&model, &data);
        let nothing = limit_samples(&data, 0);
        assert!(nothing.is_empty());
        assert_eq!(
            profile,
            model.quantized_copy(BitWidth::Int4).profile(&nothing)
        );
        assert!(profile.frequencies.iter().flatten().all(|&f| f == 0.0));
        let cache = QuantizedModelCache::new();
        assert_eq!(profiler.profile_cached(&model, &data, &cache), profile);
    }

    #[test]
    fn quantized_cache_reuses_one_copy_per_width() {
        let (model, data) = model_and_data();
        let cache = QuantizedModelCache::new();
        let a = cache.get_or_quantize(&model, BitWidth::Int4);
        let b = cache.get_or_quantize(&model, BitWidth::Int4);
        // Same allocation, not merely equal contents.
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get_or_quantize(&model, BitWidth::Int8);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), (1, 2)); // one hit, two quantizations
        assert_eq!(*a, QuantizedMoe::quantize(&model, BitWidth::Int4));
        assert_eq!(*c, QuantizedMoe::quantize(&model, BitWidth::Int8));
        let _ = data;
    }

    #[test]
    fn cached_profile_matches_uncached() {
        let (model, data) = model_and_data();
        let profiler = LocalProfiler::new(ProfilingConfig::default());
        let cache = QuantizedModelCache::new();
        let cached = profiler.profile_cached(&model, &data, &cache);
        let uncached = profiler.profile(&model, &data);
        assert_eq!(cached, uncached);
        // A second participant sharing the width hits the cache.
        let again = profiler.profile_cached(&model, &data, &cache);
        assert_eq!(again, uncached);
        assert_eq!(cache.stats().0, 1);
    }

    #[test]
    fn stale_profiler_lags_one_round_behind() {
        let (model, data) = model_and_data();
        let mut stale = StaleProfiler::new(ProfilingConfig::default());
        assert!(stale.stale_profile().is_none());
        let first = stale.refresh_blocking_cached(&model, &data, &QuantizedModelCache::new());
        assert_eq!(stale.refreshes(), 1);
        // The stale profile now equals the first profile even if the model
        // changes afterwards.
        let mut rng = SeededRng::new(99);
        let newer_model = MoeModel::new(MoeConfig::tiny().with_classes(8), &mut rng);
        let stale_view = stale.stale_profile().unwrap().clone();
        assert_eq!(stale_view, first);
        stale.refresh_blocking_cached(&newer_model, &data, &QuantizedModelCache::new());
        assert_eq!(stale.refreshes(), 2);
        assert_ne!(stale.stale_profile().unwrap(), &first);
    }

    #[test]
    fn stale_profile_error_is_modest_across_one_update_step() {
        // The justification for stale profiling (Fig. 6/14): one round of
        // fine-tuning changes activation frequencies only slightly.
        let (mut model, data) = model_and_data();
        let profiler = LocalProfiler::new(ProfilingConfig::default().with_width(BitWidth::Int8));
        let before = profiler.profile(&model, &data);
        // One small training step.
        model.train_step(&data.samples[..4], None, 1e-3);
        let after = profiler.profile(&model, &data);
        let drift = before.estimation_error_pct(&after);
        assert!(drift < 25.0, "one-step drift too large: {drift}%");
    }
}
