//! Similarity-based expert clustering (§5.2).
//!
//! Non-tuning experts are represented by PCA-reduced versions of their
//! flattened parameters and grouped with K-Means so that similar experts are
//! merged together. The PCA runs in Gram space: the features are the scores
//! [`scores_from_gram`] derives from the experts' inner products
//! (`merging::gram`), shared across a round's participants when the caller
//! holds an [`ExpertGramCache`] and clusters in `Fused` mode. Flux fuses
//! the per-layer clustering problems into one: every centroid carries a
//! layer label and experts may only join centroids of their own layer,
//! which removes the per-layer setup overhead (the 40× speedup of Fig. 16)
//! without changing the layer-local semantics.

use flux_moe::{ExpertKey, MoeModel};
use flux_tensor::kmeans::KMeans;
use flux_tensor::pca::scores_from_gram;
use flux_tensor::{Matrix, SeededRng};

use super::gram::{ExpertGram, ExpertGramCache};

/// Whether the clustering problems of different layers are fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringMode {
    /// One constrained K-Means over all layers (the Flux design).
    Fused,
    /// Independent K-Means per layer (the ablation baseline of Fig. 16).
    PerLayer,
}

/// Result of clustering the non-tuning experts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertClusters {
    /// `clusters[layer]` is a list of clusters; each cluster is a list of
    /// *original* expert ids in that layer.
    pub clusters: Vec<Vec<Vec<usize>>>,
}

impl ExpertClusters {
    /// All experts covered by the clustering, as keys.
    pub fn covered_experts(&self) -> Vec<ExpertKey> {
        let mut keys = Vec::new();
        for (layer, groups) in self.clusters.iter().enumerate() {
            for group in groups {
                for &expert in group {
                    keys.push(ExpertKey::new(layer, expert));
                }
            }
        }
        keys
    }
}

/// Clusters the non-tuning experts of every layer.
///
/// * `non_tuning[layer]` lists the original expert ids to cluster.
/// * `budgets[layer]` is the number of clusters for that layer (0 for layers
///   with nothing to merge).
/// * `pca_dims` bounds the feature dimensionality (clamped to the number of
///   experts being clustered).
///
/// Layers whose budget is zero or that have no non-tuning experts produce an
/// empty cluster list. A layer with fewer non-tuning experts than its budget
/// gets one singleton cluster per expert.
pub fn cluster_non_tuning_experts(
    model: &MoeModel,
    non_tuning: &[Vec<usize>],
    budgets: &[usize],
    mode: ClusteringMode,
    pca_dims: usize,
    rng: &mut SeededRng,
) -> ExpertClusters {
    cluster_non_tuning_experts_shared(model, non_tuning, budgets, mode, pca_dims, None, rng)
}

/// [`cluster_non_tuning_experts`] reading the experts' inner products from
/// `gram_cache` (the cache of `model`'s round) when there is one, instead
/// of computing those of the clustered experts. The clusters are the same
/// either way, bit for bit.
///
/// Only [`ClusteringMode::Fused`] reads the cache. `PerLayer` needs nothing
/// but within-layer inner products — a `1/L` sliver of the shared `E×E`
/// matrix — so each layer computes its own small matrix and the round's
/// matrix is never formed.
pub(crate) fn cluster_non_tuning_experts_shared(
    model: &MoeModel,
    non_tuning: &[Vec<usize>],
    budgets: &[usize],
    mode: ClusteringMode,
    pca_dims: usize,
    gram_cache: Option<&ExpertGramCache>,
    rng: &mut SeededRng,
) -> ExpertClusters {
    assert_eq!(non_tuning.len(), budgets.len(), "one budget per layer");
    assert_eq!(
        non_tuning.len(),
        model.layers.len(),
        "one expert list per model layer"
    );
    let features = |gram_cache| {
        move |keys: &[ExpertKey], rng: &mut SeededRng| {
            expert_features(model, keys, pca_dims, gram_cache, rng)
        }
    };
    match mode {
        ClusteringMode::Fused => cluster_fused(non_tuning, budgets, features(gram_cache), rng),
        ClusteringMode::PerLayer => cluster_per_layer(non_tuning, budgets, features(None), rng),
    }
}

/// Builds the PCA-reduced feature matrix for a set of experts: one row per
/// expert, `pca_dims` principal-component scores of its flattened
/// parameters (`[w1 | b1 | w2 | b2]`, the layout of
/// [`flatten_params`](flux_moe::Expert::flatten_params)) among `keys`.
///
/// The scores come from the experts' inner products alone, so the flattened
/// rows are only materialized where there is nothing to reduce — a single
/// expert, or parameters no longer than the requested dimensionality —
/// and the raw rows are the features.
fn expert_features(
    model: &MoeModel,
    keys: &[ExpertKey],
    pca_dims: usize,
    gram_cache: Option<&ExpertGramCache>,
    rng: &mut SeededRng,
) -> Matrix {
    let Some(&first_key) = keys.first() else {
        return Matrix::zeros(0, 0);
    };
    let cols = model.expert(first_key).num_params();
    let dims = pca_dims.clamp(1, cols.min(keys.len()).max(1));
    if keys.len() < 2 || dims >= cols {
        let rows: Vec<Vec<f32>> = keys
            .iter()
            .map(|&key| model.expert(key).flatten_params())
            .collect();
        return Matrix::from_rows(&rows);
    }
    let block = match gram_cache {
        Some(cache) => cache.gram(model).block(keys),
        None => ExpertGram::compute(model, keys.to_vec()).block(keys),
    };
    scores_from_gram(block, dims, rng).expect("a non-empty square Gram block and dims >= 1")
}

fn cluster_fused(
    non_tuning: &[Vec<usize>],
    budgets: &[usize],
    features: impl Fn(&[ExpertKey], &mut SeededRng) -> Matrix,
    rng: &mut SeededRng,
) -> ExpertClusters {
    // Collect every non-tuning expert (across all layers) into one point set.
    let mut keys: Vec<ExpertKey> = Vec::new();
    let mut point_labels: Vec<usize> = Vec::new();
    let mut centroid_labels: Vec<usize> = Vec::new();
    for (layer, experts) in non_tuning.iter().enumerate() {
        let budget = budgets[layer].min(experts.len());
        if experts.is_empty() || budget == 0 {
            continue;
        }
        for &e in experts {
            keys.push(ExpertKey::new(layer, e));
            point_labels.push(layer);
        }
        centroid_labels.extend(std::iter::repeat_n(layer, budget));
    }
    let mut clusters = vec![Vec::new(); non_tuning.len()];
    if keys.is_empty() {
        return ExpertClusters { clusters };
    }
    let features = features(&keys, rng);
    let result = KMeans::new(centroid_labels.len())
        .fit_constrained(&features, &point_labels, &centroid_labels, rng)
        .expect("constrained clustering inputs are validated above");
    // Convert centroid-indexed assignments back into per-layer groups.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); centroid_labels.len()];
    for (point, &cluster) in result.assignments.iter().enumerate() {
        groups[cluster].push(point);
    }
    for (cluster, members) in groups.into_iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let layer = centroid_labels[cluster];
        let experts: Vec<usize> = members.iter().map(|&p| keys[p].expert).collect();
        clusters[layer].push(experts);
    }
    ExpertClusters { clusters }
}

fn cluster_per_layer(
    non_tuning: &[Vec<usize>],
    budgets: &[usize],
    features: impl Fn(&[ExpertKey], &mut SeededRng) -> Matrix,
    rng: &mut SeededRng,
) -> ExpertClusters {
    let mut clusters = vec![Vec::new(); non_tuning.len()];
    for (layer, experts) in non_tuning.iter().enumerate() {
        let budget = budgets[layer].min(experts.len());
        if experts.is_empty() || budget == 0 {
            continue;
        }
        let keys: Vec<ExpertKey> = experts.iter().map(|&e| ExpertKey::new(layer, e)).collect();
        let features = features(&keys, rng);
        let result = KMeans::new(budget)
            .fit(&features, rng)
            .expect("layer clustering inputs are validated above");
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); result.centroids.rows()];
        for (point, &cluster) in result.assignments.iter().enumerate() {
            groups[cluster].push(experts[point]);
        }
        clusters[layer] = groups.into_iter().filter(|g| !g.is_empty()).collect();
    }
    ExpertClusters { clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_moe::MoeConfig;

    fn model() -> MoeModel {
        let mut rng = SeededRng::new(1);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    fn all_experts_non_tuning(model: &MoeModel) -> Vec<Vec<usize>> {
        model
            .experts_per_layer()
            .iter()
            .map(|&n| (0..n).collect())
            .collect()
    }

    #[test]
    fn fused_feature_rows_match_the_flatten_params_reference() {
        // Where there is nothing to reduce the features are the raw rows in
        // the `flatten_params` layout: a single expert, and parameters no
        // longer than the requested dimensionality.
        let model = model();
        let mut rng = SeededRng::new(9);
        let key = ExpertKey::new(0, 3);
        let single = expert_features(&model, &[key], 4, None, &mut rng);
        assert_eq!(single.row(0), &model.expert(key).flatten_params()[..]);

        let mut narrow = MoeConfig::tiny();
        (narrow.d_model, narrow.d_ff) = (1, 1);
        let narrow = MoeModel::new(narrow, &mut SeededRng::new(1));
        let keys: Vec<ExpertKey> = (0..6).map(|e| ExpertKey::new(0, e)).collect();
        assert_eq!(narrow.expert(keys[0]).num_params(), 4);
        let raw = expert_features(&narrow, &keys, 4, None, &mut rng);
        assert_eq!(raw.shape(), (6, 4));
        for (r, &key) in keys.iter().enumerate() {
            assert_eq!(raw.row(r), &narrow.expert(key).flatten_params()[..]);
        }

        // Empty key sets keep the legacy 0x0 shape.
        let empty = expert_features(&model, &[], 4, None, &mut rng);
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
    }

    #[test]
    fn gram_features_match_pca_of_the_flattened_rows() {
        // The Gram-space scores are the PCA projection of the flattened
        // rows: same pairwise geometry as `Pca::fit_transform` on the
        // stacked matrix (each component is defined up to sign, so compare
        // the distances K-Means sees), and identical whether the inner
        // products come from the round's cache or are computed for the keys.
        let model = model();
        let keys: Vec<ExpertKey> = (0..model.experts_per_layer()[0])
            .map(|e| ExpertKey::new(0, e))
            .chain((0..2).map(|e| ExpertKey::new(1, e)))
            .collect();
        let standalone = expert_features(&model, &keys, 4, None, &mut SeededRng::new(9));
        let cache = ExpertGramCache::new();
        let shared = expert_features(&model, &keys, 4, Some(&cache), &mut SeededRng::new(9));
        assert_eq!(standalone.shape(), (keys.len(), 4));
        assert_eq!(standalone.as_slice(), shared.as_slice());

        let rows: Vec<Vec<f32>> = keys
            .iter()
            .map(|&k| model.expert(k).flatten_params())
            .collect();
        let reference = flux_tensor::pca::Pca::fit_transform(
            &Matrix::from_rows(&rows),
            4,
            &mut SeededRng::new(9),
        )
        .unwrap();
        for a in 0..keys.len() {
            for b in 0..a {
                let ours =
                    flux_tensor::stats::euclidean_distance(standalone.row(a), standalone.row(b));
                let theirs =
                    flux_tensor::stats::euclidean_distance(reference.row(a), reference.row(b));
                assert!(
                    (ours - theirs).abs() <= 2e-2 * theirs.max(1.0),
                    "experts {a},{b}: {ours} vs {theirs}"
                );
            }
        }
    }

    #[test]
    fn fused_clustering_covers_every_non_tuning_expert() {
        let model = model();
        let mut rng = SeededRng::new(2);
        let non_tuning = all_experts_non_tuning(&model);
        let budgets = vec![3, 2, 2, 1];
        let clusters = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::Fused,
            4,
            &mut rng,
        );
        let covered = clusters.covered_experts();
        assert_eq!(covered.len(), 4 * 8);
        // Each layer has at most its budget of clusters, and at least one.
        for (layer, groups) in clusters.clusters.iter().enumerate() {
            assert!(!groups.is_empty());
            assert!(groups.len() <= budgets[layer]);
        }
    }

    #[test]
    fn per_layer_clustering_matches_budget() {
        let model = model();
        let mut rng = SeededRng::new(3);
        let non_tuning = all_experts_non_tuning(&model);
        let budgets = vec![2; 4];
        let clusters = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::PerLayer,
            4,
            &mut rng,
        );
        assert_eq!(clusters.covered_experts().len(), 32);
        for groups in &clusters.clusters {
            assert!(groups.len() <= 2 && !groups.is_empty());
        }
    }

    #[test]
    fn empty_layers_produce_empty_clusters() {
        let model = model();
        let mut rng = SeededRng::new(4);
        let mut non_tuning = all_experts_non_tuning(&model);
        non_tuning[1].clear();
        let budgets = vec![2, 2, 0, 2];
        let clusters = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::Fused,
            4,
            &mut rng,
        );
        assert!(clusters.clusters[1].is_empty());
        assert!(clusters.clusters[2].is_empty());
        assert!(!clusters.clusters[0].is_empty());
    }

    #[test]
    fn budget_larger_than_experts_gives_singletons() {
        let model = model();
        let mut rng = SeededRng::new(5);
        let mut non_tuning = vec![Vec::new(); 4];
        non_tuning[0] = vec![1, 5];
        let budgets = vec![10, 0, 0, 0];
        let clusters = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::Fused,
            4,
            &mut rng,
        );
        assert_eq!(clusters.clusters[0].len(), 2);
    }

    #[test]
    fn fused_and_per_layer_cover_identical_expert_sets() {
        let model = model();
        let non_tuning = all_experts_non_tuning(&model);
        let budgets = vec![2, 3, 2, 3];
        let fused = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::Fused,
            4,
            &mut SeededRng::new(6),
        );
        let layered = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::PerLayer,
            4,
            &mut SeededRng::new(6),
        );
        let mut a = fused.covered_experts();
        let mut b = layered.covered_experts();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn identical_experts_cluster_together() {
        let mut model = model();
        // Make experts 2 and 3 of layer 0 identical; with a budget of 2 over
        // experts {1,2,3,4} they must land in the same cluster.
        let clone = model.expert(ExpertKey::new(0, 2)).clone();
        model.set_expert(ExpertKey::new(0, 3), clone);
        let mut non_tuning = vec![Vec::new(); 4];
        non_tuning[0] = vec![1, 2, 3, 4];
        let budgets = vec![2, 0, 0, 0];
        let clusters = cluster_non_tuning_experts(
            &model,
            &non_tuning,
            &budgets,
            ClusteringMode::Fused,
            4,
            &mut SeededRng::new(7),
        );
        let together = clusters.clusters[0]
            .iter()
            .any(|group| group.contains(&2) && group.contains(&3));
        assert!(
            together,
            "identical experts should share a cluster: {:?}",
            clusters.clusters[0]
        );
    }
}
