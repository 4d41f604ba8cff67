//! # spi-dsp — signal-processing kernels for the SPI evaluation apps
//!
//! Functional implementations (plus cycle-cost models) of every kernel
//! the DATE 2008 SPI paper's two applications need:
//!
//! * [`fft`] — planned radix-2 FFT, its real-input form and the
//!   power-spectrum autocorrelation built on it (application 1, actor B);
//! * [`lpc`] — autocorrelation, **LU-decomposition** predictor
//!   solve, prediction error, quantization (actors C and D);
//! * [`huffman`] — canonical Huffman coding of the error symbols
//!   (actor E);
//! * [`particle`] — Paris-law crack-growth particle filter with the
//!   paper's three-step **distributed resampling** (application 2);
//! * [`fir`] — FIR filtering and polyphase decimation for the multirate
//!   filter-bank example.
//!
//! Every kernel is a pure function or small struct so it can run both
//! standalone (unit tests, examples) and inside `spi-platform` compute
//! closures (timed simulation).
//!
//! # Examples
//!
//! One frame of the application-1 pipeline, end to end:
//!
//! ```
//! use spi_dsp::lpc::{predictor_coefficients, prediction_error, Quantizer};
//! use spi_dsp::huffman::HuffmanCode;
//!
//! let frame: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
//! let coeffs = predictor_coefficients(&frame, 8)?;
//! let residual = prediction_error(&frame, &coeffs);
//! let q = Quantizer::new(1.0, 6);
//! let symbols: Vec<u16> = residual.iter().map(|&e| q.quantize(e)).collect();
//! let code = HuffmanCode::from_symbols(&symbols)?;
//! let (bits, bitlen) = code.encode(&symbols)?;
//! assert!(bitlen <= symbols.len() * 6, "compression must not expand 6-bit data");
//! # let _ = bits;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fft;
pub mod fir;
pub mod huffman;
pub mod lpc;
pub mod particle;
