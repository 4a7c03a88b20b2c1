//! Dense numeric substrate for the Flux reproduction.
//!
//! The Flux paper builds on PyTorch; this crate provides the small subset of
//! dense linear algebra that the scaled-down reproduction needs: a
//! row-major `f32` [`Matrix`], element-wise and reduction operations,
//! softmax/layer-norm/activation functions, seeded random initialization,
//! principal component analysis, K-Means clustering
//! (including the cross-layer "fused" variant used by Flux expert
//! clustering), and basic statistics helpers. As the lowest crate every
//! other one sees, it also hosts [`codec`], the one little-endian byte
//! reader/writer (and the two checksums) behind every on-disk format.
//!
//! Everything is deterministic given a seed so that experiments are
//! reproducible run-to-run.
//!
//! # Examples
//!
//! ```
//! use flux_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(1, 0), 3.0);
//! let probs = ops::softmax_row(&[1.0, 2.0, 3.0]);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

pub mod codec;
pub mod error;
pub mod gram;
pub mod init;
pub mod kmeans;
pub mod matrix;
pub mod ops;
pub mod pca;
pub mod rng;
pub mod scratch;
pub mod simd;
pub mod stats;

pub use error::TensorError;
pub use matrix::Matrix;
pub use rng::SeededRng;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
