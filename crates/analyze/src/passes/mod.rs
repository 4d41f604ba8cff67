//! The built-in analysis passes.
//!
//! | Code   | Severity | Pass | Finding |
//! |--------|----------|------|---------|
//! | SPI001 | warning  | well-formedness | actor connected to no edge |
//! | SPI002 | error    | well-formedness | zero production/consumption rate |
//! | SPI003 | error    | well-formedness | self-loop with fewer initial tokens than one firing consumes |
//! | SPI004 | warning  | well-formedness | disconnected subgraph |
//! | SPI010 | error    | rate-consistency | inconsistent balance equations, with the offending cycle |
//! | SPI020 | error    | deadlock-witness | delay-free cycle (or starved actor set) that deadlocks the schedule |
//! | SPI030 | error    | vts-soundness | dynamic edge with `b_max = 0` (zero token size) |
//! | SPI031 | —        | retired | declared FIFO depth below the eq. (1) packed capacity (no caller declared depths) |
//! | SPI032 | warning  | vts-soundness | delimiter signalling: worst-case frame expansion |
//! | SPI040 | warning  | protocol-lints | UBS chosen although a static eq. (2) bound exists (§5.1 prefers BBS) |
//! | SPI041 | error    | protocol-lints | BBS chosen with no provable buffer bound |
//! | SPI042 | error    | protocol-lints | BBS capacity below the eq. (2) bound |
//! | SPI043 | —        | retired | declared transport capacity below the eq. (2) bytes (the builder sizes the channel from one slot count) |
//! | SPI044 | —        | retired | pointer-exchange pool below the channel's message capacity (the pool is derived from the capacity) |
//! | SPI045 | —        | retired | socket credit window below the eq. (2) bytes (the window is the in-memory channel's capacity) |
//! | SPI046 | —        | retired | record batch beyond half the credit window (`spi_sched::batch_plan`'s own tests hold it) |
//! | SPI050 | error    | sync-coverage | IPC edge not enforced by any synchronization path (data race) |
//! | SPI060 | warning  | resync-fixpoint | redundant synchronization edges remain after optimization |
//! | SPI061 | error    | resync-certification | removed sync edge whose redundancy proof is missing or does not re-verify |
//! | SPI062 | error    | resync-certification | resync addition that does not pay for itself, or inconsistent certificate totals |
//! | SPI070 | warning  | resource-overcommit | device utilization above 80 % (the design cannot place above 100 %) |
//!
//! The `SPI08x`–`SPI10x` ranges are reserved for the *runtime* replay
//! in `spi_trace::check` (`spi-lint trace-check`): one pass over a
//! captured, linearized execution trace holds it to the same static
//! bounds these passes verify up front, to the supervision budgets
//! (`SPI090`, `SPI092`–`SPI094`), and to the happens-before order its sends and
//! receives imply:
//!
//! | Code   | Severity | Pass | Finding |
//! |--------|----------|------|---------|
//! | SPI080 | error    | trace-check | observed occupancy exceeded the eq. (2) buffer bound |
//! | SPI081 | error    | trace-check | a message exceeded the eq. (1) packed-token size |
//! | SPI082 | error    | trace-check | per-channel FIFO order violated (digest mismatch) |
//! | SPI083 | error    | trace-check | observed makespan exceeded the predicted bound |
//! | SPI084 | warning  | trace-check | capture dropped events; checks ran on a partial stream |
//! | SPI085 | error    | trace-check | conservation violated: more receives than sends |
//! | SPI086 | error    | trace-check | a batched flush exceeded the channel's declared batching budget |
//! | SPI100 | error    | trace-check | receive precedes its matching send in the stream |
//! | SPI101 | error    | trace-check | unordered sends from different PEs on one channel |
//! | SPI102 | error    | trace-check | unordered receives from different PEs on one channel |
//! | SPI103 | error    | trace-check | buffer-slot reuse precedes the receive that frees the slot |
//! | SPI104 | warning  | trace-check | unpaired blocking-window marker (Block without Unblock) |
//! | SPI105 | warning  | trace-check | endpoint shared by several PEs (ordered, but fragile) |
//! | SPI091 | —        | retired | degraded-token budget: supervision delivers no stand-in token |
//! | SPI095 | —        | retired | degraded-token advisory, likewise |
//! | SPI106 | —        | retired | dropped events: SPI084 reports the same condition |

mod deadlock;
mod protocol;
mod rate_consistency;
mod resources;
mod resync;
mod resync_cert;
mod sync_coverage;
mod vts_soundness;
mod well_formed;

pub use deadlock::DeadlockWitness;
pub use protocol::ProtocolLints;
pub use rate_consistency::RateConsistency;
pub use resources::ResourceOvercommit;
pub use resync::ResyncFixpoint;
pub use resync_cert::ResyncCertification;
pub use sync_coverage::SyncCoverage;
pub use vts_soundness::VtsSoundness;
pub use well_formed::WellFormedness;
