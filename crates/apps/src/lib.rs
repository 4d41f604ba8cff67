//! # spi-apps — the DATE 2008 SPI evaluation applications
//!
//! The two signal-processing systems the paper demonstrates SPI on,
//! assembled end to end over the `spi` library:
//!
//! * [`SpeechApp`] — application 1 (§5.2): LPC acoustic data compression
//!   with the prediction-error stage parallelized over `n` PEs through
//!   `SPI_dynamic` edges;
//! * [`PrognosisApp`] — application 2 (§5.3): particle-filter
//!   crack-length prognosis with the paper's three-step distributed
//!   resampling, mixing `SPI_static` (weight sums) and `SPI_dynamic`
//!   (particle exchange) edges.
//!
//! Both run functionally (outputs validated against serial references in
//! the test suite) and cycle-timed (driving figures 6–7 and tables 1–2
//! through the `spi-bench` harness). Two extra subsystems round out the
//! suite: [`ErrorStageApp`], the hardware configuration the paper
//! actually synthesized (figures 3/6, table 1), and [`FilterBankApp`],
//! a cyclo-static multirate filter bank exercising the CSDF path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod error_stage;
pub mod filterbank;
pub mod prognosis;
pub mod speech;
pub mod util;

pub use error::{AppError, Result};
pub use error_stage::{ErrorStageApp, ErrorStageConfig};
pub use filterbank::{FilterBankApp, FilterBankConfig};
pub use prognosis::{PrognosisApp, PrognosisConfig};
pub use speech::{CompressedFrame, SpeechApp};
