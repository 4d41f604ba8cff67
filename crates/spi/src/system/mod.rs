//! The SPI system builder: from dataflow graph to running multiprocessor
//! implementation.
//!
//! This module realizes the paper's complete flow. Given an application
//! graph (possibly with dynamic-rate edges) and a processor assignment,
//! [`SpiSystemBuilder::build`]:
//!
//! 1. applies **VTS conversion** (§3) so dynamic edges become analyzable;
//! 2. expands the precedence graph and derives a **self-timed schedule**;
//! 3. builds the **IPC graph** (§4.1) and, per inter-processor edge,
//!    selects **SPI_BBS** when the eq. (2) buffer bound exists, else
//!    **SPI_UBS** with credit-based acknowledgements;
//! 4. derives the **synchronization graph** and runs
//!    **resynchronization** to drop redundant acknowledgement edges;
//! 5. lowers everything onto the simulated platform: one FIFO channel
//!    per inter-processor edge (sized by eq. (2) for BBS, by the credit
//!    window for UBS), `SPI_send` /
//!    `SPI_receive` actor pairs framing messages with the 2-byte
//!    (static) or 6-byte (dynamic) headers of §5.1, ack channels only
//!    where resynchronization could not prove them redundant;
//! 6. aggregates the **resource estimate** of the generated SPI library
//!    hardware (tables 1–2).
//!
//! The module is cut along that flow: [`build`] schedules the graph and
//! computes one [`EdgePlan`] per inter-processor edge (steps 1–4 and the
//! verification of the result), [`lower`] turns the plans into channels
//! and programs (step 5), and [`run`] is the built [`SpiSystem`] — its
//! accessors, its two engines and their reports (step 6).

mod build;
mod lower;
mod run;

pub use build::{EdgePlan, MessageCost, SchedulingMode, SpiSystemBuilder, ACK_BYTES};
pub use lower::{recorded_failure, root_failure};
pub use run::{BufferRow, SpiRunReport, SpiSystem};

#[cfg(test)]
mod tests;
