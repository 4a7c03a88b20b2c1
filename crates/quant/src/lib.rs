//! Integer quantization used by Flux local profiling.
//!
//! The paper's key observation (§4.1) is that a low-bit quantized MoE model
//! is too inaccurate for fine-tuning but accurate enough for *profiling*
//! expert activation: the gating decisions of a 2/4/8-bit model closely
//! track those of the full-precision model, at a fraction of the compute and
//! memory. This crate provides symmetric per-row quantization of weight
//! matrices, dequantization, a quantized linear forward pass, and error
//! metrics, so the rest of the system can trade profiling precision for cost
//! exactly as the paper does.
//!
//! # Examples
//!
//! ```
//! use flux_tensor::{Matrix, SeededRng};
//! use flux_quant::{BitWidth, QuantizedMatrix};
//!
//! let mut rng = SeededRng::new(0);
//! let w = Matrix::random_normal(8, 8, 1.0, &mut rng);
//! let q = QuantizedMatrix::quantize(&w, BitWidth::Int4);
//! let back = q.dequantize();
//! // INT4 round-trip keeps the matrix within a few percent.
//! let err = w.sub(&back).unwrap().frobenius_norm() / w.frobenius_norm();
//! assert!(err < 0.2);
//! ```

pub mod error;
pub mod linear;
pub mod matrix;

pub use error::{quantization_mse, quantization_relative_error};
pub use linear::quantized_matmul;
pub use matrix::{quantize_row, BitWidth, QuantizedMatrix};
