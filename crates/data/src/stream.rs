//! Streaming access to datasets: cursors and lazy partition views.
//!
//! The eager [`Dataset`] materializes every sample up front, which is fine
//! for one corpus but not for a 10k-participant fleet where each client owns
//! a partition of a shared corpus. This module adds a streaming layer:
//! a [`SampleStream`] yields samples one at a time (next / reset / shuffle),
//! and a [`PartitionView`] is a lazy window over an `Arc`-shared corpus —
//! one participant's shard is just an index list, so per-participant memory
//! is O(batch) plus the indices instead of a full clone of the shard.
//!
//! [`SampleStream::materialize`] collapses a stream back into an eager
//! [`Dataset`] — bit-identical to [`Dataset::subset`] for an unshuffled
//! view, which is what keeps the lazy fleet path equivalent to the old
//! eager one.

use std::sync::Arc;

use flux_tensor::SeededRng;

use crate::dataset::{Dataset, DatasetKind, Sample};

/// A source of samples consumed one at a time.
///
/// Implementations hand out owned [`Sample`]s in a *visit order* that
/// [`SampleStream::shuffle`] may permute; the backing storage is never
/// reordered, so shuffling one participant's view cannot disturb another's.
pub trait SampleStream {
    /// Which dataset family the samples belong to.
    fn kind(&self) -> DatasetKind;

    /// Token vocabulary size of the samples.
    fn vocab_size(&self) -> usize;

    /// Number of samples in one full pass.
    fn len(&self) -> usize;

    /// Whether a full pass yields no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next sample of the current pass, or `None` once exhausted.
    fn next_sample(&mut self) -> Option<Sample>;

    /// Rewinds to the start of the pass, keeping the current visit order.
    fn reset(&mut self);

    /// Permutes the visit order and rewinds. Deterministic in `rng`.
    fn shuffle(&mut self, rng: &mut SeededRng);

    /// Collects one full pass into an eager [`Dataset`] and rewinds.
    ///
    /// For an unshuffled [`PartitionView`] this reproduces
    /// [`Dataset::subset`] of the view's indices bit-for-bit.
    fn materialize(&mut self) -> Dataset {
        self.reset();
        let mut samples = Vec::with_capacity(self.len());
        while let Some(s) = self.next_sample() {
            samples.push(s);
        }
        self.reset();
        Dataset {
            kind: self.kind(),
            vocab_size: self.vocab_size(),
            samples,
        }
    }
}

/// A lazy view of a subset of an `Arc`-shared corpus.
///
/// The view holds only the shared corpus handle, the subset's indices and a
/// cursor; samples are cloned out one at a time as the stream is consumed.
/// Cloning the view is cheap (two `Arc` bumps), so a 10k-client registry
/// can hold one per client without duplicating any sample storage.
#[derive(Debug, Clone)]
pub struct PartitionView {
    source: Arc<Dataset>,
    indices: Arc<Vec<usize>>,
    /// Visit order as positions into `indices`.
    order: Vec<usize>,
    cursor: usize,
}

impl PartitionView {
    /// A view over the given rows of `source` (visited in `indices` order
    /// until shuffled).
    pub fn new(source: Arc<Dataset>, indices: Arc<Vec<usize>>) -> Self {
        let order = (0..indices.len()).collect();
        Self {
            source,
            indices,
            order,
            cursor: 0,
        }
    }

    /// A view covering the whole corpus — how an eager [`Dataset`] enters
    /// the streaming world.
    pub fn full(source: Arc<Dataset>) -> Self {
        let indices = Arc::new((0..source.len()).collect::<Vec<_>>());
        Self::new(source, indices)
    }

    /// The corpus rows this view covers, in original (unshuffled) order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The shared corpus behind this view.
    pub fn source(&self) -> &Arc<Dataset> {
        &self.source
    }
}

impl SampleStream for PartitionView {
    fn kind(&self) -> DatasetKind {
        self.source.kind
    }

    fn vocab_size(&self) -> usize {
        self.source.vocab_size
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn next_sample(&mut self) -> Option<Sample> {
        while self.cursor < self.order.len() {
            let row = self.indices[self.order[self.cursor]];
            self.cursor += 1;
            // Mirror `Dataset::subset`: silently skip out-of-range rows.
            if let Some(sample) = self.source.samples.get(row) {
                return Some(sample.clone());
            }
        }
        None
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn shuffle(&mut self, rng: &mut SeededRng) {
        rng.shuffle(&mut self.order);
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetKind;
    use crate::generator::DatasetGenerator;

    fn corpus(seed: u64) -> Arc<Dataset> {
        let mut rng = SeededRng::new(seed);
        Arc::new(DatasetGenerator::for_kind(DatasetKind::Piqa, 256).generate(&mut rng))
    }

    #[test]
    fn unshuffled_view_materializes_like_subset() {
        let ds = corpus(1);
        let indices = vec![3, 0, 7, 7, 2];
        let mut view = PartitionView::new(Arc::clone(&ds), Arc::new(indices.clone()));
        let eager = view.materialize();
        assert_eq!(eager.samples, ds.subset(&indices).samples);
        assert_eq!(eager.kind, ds.kind);
        assert_eq!(eager.vocab_size, ds.vocab_size);
        // Materializing rewinds: a second pass yields the same thing.
        assert_eq!(view.materialize().samples, eager.samples);
    }

    #[test]
    fn views_share_storage_not_clones() {
        let ds = corpus(2);
        let indices = Arc::new((0..ds.len()).step_by(2).collect::<Vec<_>>());
        let a = PartitionView::new(Arc::clone(&ds), Arc::clone(&indices));
        let b = a.clone();
        assert!(Arc::ptr_eq(a.source(), b.source()));
        assert!(Arc::ptr_eq(a.source(), &ds));
        assert_eq!(b.indices(), &indices[..]);
    }

    #[test]
    fn full_view_streams_every_sample_in_order() {
        let ds = corpus(3);
        let mut view = PartitionView::full(Arc::clone(&ds));
        assert_eq!(view.len(), ds.len());
        for expected in &ds.samples {
            assert_eq!(view.next_sample().as_ref(), Some(expected));
        }
        assert!(view.next_sample().is_none());
        view.reset();
        assert_eq!(view.next_sample().as_ref(), ds.samples.first());
    }

    #[test]
    fn shuffle_permutes_deterministically_without_touching_source() {
        let ds = corpus(4);
        let mut a = PartitionView::full(Arc::clone(&ds));
        let mut b = PartitionView::full(Arc::clone(&ds));
        a.shuffle(&mut SeededRng::new(9));
        b.shuffle(&mut SeededRng::new(9));
        let pass_a = a.materialize();
        let pass_b = b.materialize();
        assert_eq!(pass_a.samples, pass_b.samples);
        // Same multiset, (almost surely) different order.
        assert_ne!(pass_a.samples, ds.samples);
        let mut sorted = pass_a
            .samples
            .iter()
            .map(|s| s.tokens.clone())
            .collect::<Vec<_>>();
        let mut original = ds
            .samples
            .iter()
            .map(|s| s.tokens.clone())
            .collect::<Vec<_>>();
        sorted.sort();
        original.sort();
        assert_eq!(sorted, original);
        // The backing corpus is untouched.
        assert_eq!(corpus(4).samples, ds.samples);
    }

    #[test]
    fn out_of_range_indices_are_skipped_like_subset() {
        let ds = corpus(7);
        let indices = vec![0, ds.len() + 100, 1];
        let mut view = PartitionView::new(Arc::clone(&ds), Arc::new(indices.clone()));
        assert_eq!(view.materialize().samples, ds.subset(&indices).samples);
    }
}
