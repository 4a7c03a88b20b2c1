//! Inner products between experts, computed once and shared.
//!
//! Clustering reduces every non-tuning expert to a handful of PCA
//! coordinates, and PCA of `m` experts needs nothing but the `m×m` matrix of
//! inner products of their flattened parameters
//! ([`flux_tensor::pca::scores_from_gram`]). Forming that matrix is the only
//! step that touches the parameters — `O(m²·d)` — and every participant of
//! a round clusters a subset of the *same* global snapshot, so the driver
//! computes the inner products of **all** experts once per round
//! ([`ExpertGramCache`]) and each participant copies out the sub-block of
//! its own non-tuning experts.
//!
//! [`CompactModelPlan::build`](super::CompactModelPlan::build) without a
//! cache computes the Gram matrix of just the experts it clusters. Both
//! routes give the same plan bit for bit: an entry is a pure function of its
//! two experts ([`flux_tensor::gram`]), whatever other experts are present,
//! whichever panel holds it and whichever thread computed it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use flux_moe::{Expert, ExpertKey, MoeModel};
use flux_tensor::gram::accumulate_panel;
use threadpool::ThreadPool;

/// Rows per panel: a multiple of every GEMM tile height (4, 6 and 12), tall
/// enough that staging a depth block of the panel's columns is a few
/// percent of the multiply-adds it feeds, short enough that 128 experts
/// still split into three panels for two or more workers.
const PANEL_ROWS: usize = 48;

/// The four parameter blocks of an expert in
/// [`flatten_params`](Expert::flatten_params) order. The flattened vector
/// is never built: an inner product of two experts is the sum of the inner
/// products of their blocks.
const BLOCKS: [fn(&Expert) -> &[f32]; 4] = [
    |e| e.w1.as_slice(),
    |e| &e.b1,
    |e| e.w2.as_slice(),
    |e| &e.b2,
];

/// The lower triangle of the matrix of inner products between a list of
/// experts, held as row panels that are filled cooperatively: every thread
/// that asks for the matrix while it is incomplete claims unclaimed panels
/// and computes them, so a second requester helps instead of waiting, and
/// each panel is computed exactly once.
#[derive(Debug)]
pub(crate) struct ExpertGram {
    keys: Vec<ExpertKey>,
    row_of: HashMap<ExpertKey, usize>,
    /// Panel `p` covers rows `p·PANEL_ROWS..` and holds, for each of them,
    /// the columns up to the panel's last row.
    panels: Vec<OnceLock<Vec<f32>>>,
    claimed: AtomicUsize,
    computed: AtomicUsize,
}

impl ExpertGram {
    /// An empty matrix over `keys` (row `i` is `keys[i]`).
    fn new(keys: Vec<ExpertKey>) -> Self {
        let row_of = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let panels = (0..keys.len().div_ceil(PANEL_ROWS))
            .map(|_| OnceLock::new())
            .collect();
        Self {
            keys,
            row_of,
            panels,
            claimed: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
        }
    }

    /// The inner products between the experts `keys` of `model`.
    pub(crate) fn compute(model: &MoeModel, keys: Vec<ExpertKey>) -> Self {
        let gram = Self::new(keys);
        gram.complete(model);
        gram
    }

    /// Returns once every panel is filled, computing the ones nobody has
    /// claimed yet. `model` must be the model of every other call on this
    /// matrix.
    fn complete(&self, model: &MoeModel) {
        let fill = |panel: usize| {
            self.panels[panel].get_or_init(|| self.panel(model, panel));
        };
        // `claimed` hands out each panel once, the tallest (last) first; it
        // publishes no data — the panels' `OnceLock`s do.
        let claim = || {
            while let Some(panel) = self
                .panels
                .len()
                .checked_sub(1 + self.claimed.fetch_add(1, Ordering::Relaxed))
            {
                fill(panel);
            }
        };
        if self.claimed.load(Ordering::Relaxed) < self.panels.len() {
            // A nested region: idle workers join, and without any the
            // caller runs every claim loop itself.
            let pool = ThreadPool::from_env();
            pool.run(vec![claim; pool.threads()]);
        }
        // Panels other requesters claimed and are still computing: wait for
        // them (or, had their thread panicked, compute them here).
        (0..self.panels.len()).for_each(fill);
    }

    /// Rows `panel·PANEL_ROWS..` of the lower triangle.
    fn panel(&self, model: &MoeModel, panel: usize) -> Vec<f32> {
        let first = panel * PANEL_ROWS;
        let end = (first + PANEL_ROWS).min(self.keys.len());
        let experts: Vec<&Expert> = self.keys[..end].iter().map(|&k| model.expert(k)).collect();
        let mut out = vec![0.0f32; (end - first) * end];
        for block in BLOCKS {
            let rows: Vec<&[f32]> = experts.iter().map(|e| block(e)).collect();
            accumulate_panel(&rows, first, &mut out);
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// The symmetric `keys.len()²` sub-matrix over `keys`, row-major, as the
    /// `f64` the eigen-solver works in.
    ///
    /// # Panics
    ///
    /// Panics when a key is not one of this matrix's experts.
    pub(crate) fn block(&self, keys: &[ExpertKey]) -> Vec<f64> {
        let rows: Vec<usize> = keys
            .iter()
            .map(|k| {
                *self
                    .row_of
                    .get(k)
                    .expect("expert belongs to the Gram matrix")
            })
            .collect();
        let m = rows.len();
        let mut block = vec![0.0f64; m * m];
        for (a, &i) in rows.iter().enumerate() {
            for (b, &j) in rows.iter().enumerate().take(a + 1) {
                let (hi, lo) = (i.max(j), i.min(j));
                let first = hi / PANEL_ROWS * PANEL_ROWS;
                let width = (first + PANEL_ROWS).min(self.keys.len());
                let panel = self.panels[hi / PANEL_ROWS]
                    .get()
                    .expect("complete() filled every panel");
                let v = f64::from(panel[(hi - first) * width + lo]);
                block[a * m + b] = v;
                block[b * m + a] = v;
            }
        }
        block
    }
}

/// Round-scoped memoization of the inner products between *all* experts of
/// the round's global snapshot.
///
/// The driver opens one cache per round next to the
/// [`QuantizedModelCache`](crate::profiling::QuantizedModelCache) and every
/// Flux participant of the fan-out builds its plan through it
/// ([`CompactModelPlan::build_shared`](super::CompactModelPlan::build_shared)).
/// Like the quantized copy, the matrix describes one snapshot: the cache
/// must not outlive the round, or it would cluster last round's weights.
#[derive(Debug, Default)]
pub struct ExpertGramCache {
    gram: OnceLock<ExpertGram>,
    requests: AtomicUsize,
}

impl ExpertGramCache {
    /// Creates an empty cache for one round.
    pub fn new() -> Self {
        Self::default()
    }

    /// The complete Gram matrix of every expert of `model`. Concurrent
    /// callers share the work panel by panel; later callers find it done.
    pub(crate) fn gram(&self, model: &MoeModel) -> &ExpertGram {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let gram = self
            .gram
            .get_or_init(|| ExpertGram::new(model.expert_keys()));
        gram.complete(model);
        gram
    }

    /// The cache's ledger so far.
    pub fn stats(&self) -> GramCacheStats {
        let (panels, panels_computed) = self.gram.get().map_or((0, 0), |g| {
            (g.panels.len(), g.computed.load(Ordering::Relaxed))
        });
        GramCacheStats {
            requests: self.requests.load(Ordering::Relaxed),
            panels,
            panels_computed,
        }
    }
}

/// What one [`ExpertGramCache`] did: once any request has returned,
/// `panels_computed == panels` — however many requesters raced, each panel
/// was computed once — and a cache nobody asked stays at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GramCacheStats {
    /// Plans that asked the cache for the matrix.
    pub requests: usize,
    /// Row panels the matrix is split into.
    pub panels: usize,
    /// Panel computations performed.
    pub panels_computed: usize,
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use flux_moe::MoeConfig;
    use flux_tensor::SeededRng;

    use super::*;

    /// 120 experts over four layers: three panels, the last one ragged.
    fn model() -> MoeModel {
        let config = MoeConfig::tiny().with_experts_per_layer(vec![30; 4]);
        MoeModel::new(config, &mut SeededRng::new(1))
    }

    fn bits(block: &[f64]) -> Vec<u64> {
        block.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn entries_are_the_inner_products_of_the_flattened_experts() {
        let model = model();
        let keys = model.expert_keys();
        let block = ExpertGram::compute(&model, keys.clone()).block(&keys);
        let flat: Vec<Vec<f32>> = keys
            .iter()
            .map(|&k| model.expert(k).flatten_params())
            .collect();
        let n = keys.len();
        for i in (0..n).step_by(7) {
            for j in 0..n {
                let exact: f64 = flat[i]
                    .iter()
                    .zip(&flat[j])
                    .map(|(&x, &y)| f64::from(x) * f64::from(y))
                    .sum();
                let got = block[i * n + j];
                assert!(
                    (got - exact).abs() <= 1e-4 * exact.abs().max(1.0),
                    "({i},{j})"
                );
                assert_eq!(got.to_bits(), block[j * n + i].to_bits());
            }
        }
    }

    #[test]
    fn a_sub_block_of_the_shared_matrix_equals_the_standalone_one() {
        // What `CompactModelPlan::build` computes for its own keys must be
        // what `build_shared` copies out of the round's matrix, bit for
        // bit, for keys scattered over every panel in any order.
        let model = model();
        let cache = ExpertGramCache::new();
        let mut rng = SeededRng::new(2);
        for _ in 0..6 {
            let mut keys = model.expert_keys();
            rng.shuffle(&mut keys);
            keys.truncate(1 + rng.below(keys.len()));
            let shared = cache.gram(&model).block(&keys);
            let standalone = ExpertGram::compute(&model, keys.clone()).block(&keys);
            assert_eq!(bits(&shared), bits(&standalone), "{} keys", keys.len());
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.requests, stats.panels, stats.panels_computed),
            (6, 3, 3)
        );
    }

    #[test]
    fn concurrent_requesters_compute_each_panel_once() {
        let model = model();
        let keys = model.expert_keys();
        let cache = ExpertGramCache::new();
        assert_eq!(cache.stats(), GramCacheStats::default());
        let start = Barrier::new(2);
        let blocks: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let requesters: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.gram(&model).block(&keys)
                    })
                })
                .collect();
            requesters
                .into_iter()
                .map(|r| r.join().expect("requester panicked"))
                .collect()
        });
        let stats = cache.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.panels, 3);
        assert_eq!(
            stats.panels_computed, 3,
            "two requesters arriving together share one computation"
        );
        assert_eq!(bits(&blocks[0]), bits(&blocks[1]));
        // A later requester finds everything done.
        cache.gram(&model);
        assert_eq!(cache.stats().panels_computed, 3);
    }
}
