//! Error types for the platform simulator.

use std::fmt;
use std::time::Duration;

use crate::sim::{ChannelId, PeId};

/// Errors from building or running a platform simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A send was attempted with a payload larger than the channel's
    /// total capacity — it could never be delivered.
    MessageExceedsCapacity {
        /// The channel.
        channel: ChannelId,
        /// Payload size in bytes.
        bytes: usize,
        /// Channel capacity in bytes.
        capacity: usize,
    },
    /// The simulation stopped advancing before every PE finished: PEs are
    /// mutually blocked on sends/receives (protocol deadlock).
    Deadlock {
        /// PEs still blocked when the event queue drained.
        blocked: Vec<PeId>,
        /// Per-PE description of what each blocked PE was waiting on,
        /// including the channel's observed fill — the difference
        /// between "something timed out" and an actionable report.
        detail: Vec<BlockedOp>,
    },
    /// The simulation exceeded its configured cycle budget.
    BudgetExceeded {
        /// The budget that was exceeded.
        budget_cycles: u64,
    },
    /// A zero-capacity channel was declared (nothing could ever be sent).
    ZeroCapacity {
        /// The channel.
        channel: ChannelId,
    },
    /// A rendezvous transfer was requested on an endpoint built without
    /// the reverse control channel the clear-to-send message needs.
    MissingControlChannel {
        /// The endpoint's data channel.
        data: ChannelId,
        /// The payload bound that pushed the transfer past the eager
        /// limit into the rendezvous protocol.
        payload_bound: usize,
    },
    /// A supervised channel operation exhausted its retry budget
    /// without completing; the fault on the named edge is not
    /// transient at the configured deadline and retry count.
    RetryBudgetExhausted {
        /// The supervised PE.
        pe: PeId,
        /// The faulted channel.
        channel: ChannelId,
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// Send- or receive-side operation.
        kind: BlockKind,
        /// How long the op that ran out of budget had been failing,
        /// from the start of its first failed attempt (a deadline miss
        /// began one deadline before it was seen). `attempts` deadlines'
        /// worth points at a dead link; less, at immediate failures
        /// such as injected drops or corrupt frames.
        idle: Duration,
    },
    /// Sequence-checked frames revealed tokens that were lost on the
    /// named edge: the run stops rather than deliver a token the
    /// schedule did not produce.
    TokensLost {
        /// The receiving PE.
        pe: PeId,
        /// The faulted channel.
        channel: ChannelId,
        /// Tokens missing from the sequence.
        missing: u32,
    },
    /// A supervised PE panicked more times than its restart budget
    /// allows.
    RestartBudgetExhausted {
        /// The failing PE.
        pe: PeId,
        /// Restarts already performed when the fatal panic hit.
        restarts: u32,
        /// Iteration the PE was executing.
        iter: u64,
    },
    /// An injected transport fault surfaced on an unsupervised run —
    /// nothing retried it, so the run cannot be trusted.
    ChannelFault {
        /// The faulted channel.
        channel: ChannelId,
        /// Description of the injected fault.
        detail: String,
    },
}

/// Which direction a PE was blocked in when a deadlock was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Waiting for space to send into a channel.
    Send,
    /// Waiting for a message to arrive on a channel.
    Recv,
}

/// One blocked PE in a [`PlatformError::Deadlock`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOp {
    /// The blocked PE.
    pub pe: PeId,
    /// The channel it was blocked on.
    pub channel: ChannelId,
    /// Send- or receive-side block.
    pub kind: BlockKind,
    /// Payload bytes occupying the channel when the deadlock was
    /// declared.
    pub occupied_bytes: usize,
    /// Messages occupying the channel.
    pub occupied_messages: usize,
    /// The channel's total capacity in bytes.
    pub capacity_bytes: usize,
    /// How long the peer side of the channel had shown no progress
    /// when the block was declared (from the transport's deadline
    /// error). `None` when the engine has no such observation (the
    /// DES declares deadlocks analytically, without waiting).
    pub idle: Option<Duration>,
}

impl fmt::Display for BlockedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.kind {
            BlockKind::Send => "send on",
            BlockKind::Recv => "recv from",
        };
        write!(
            f,
            "{} blocked to {} {} ({}/{} B, {} msg)",
            self.pe,
            verb,
            self.channel,
            self.occupied_bytes,
            self.capacity_bytes,
            self.occupied_messages
        )?;
        if let Some(idle) = self.idle {
            write!(f, " [peer idle {idle:?}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::MessageExceedsCapacity {
                channel,
                bytes,
                capacity,
            } => write!(
                f,
                "message of {bytes} bytes exceeds channel {channel} capacity of {capacity} bytes"
            ),
            PlatformError::Deadlock { blocked, detail } => {
                write!(
                    f,
                    "simulation deadlocked with {} blocked PE(s)",
                    blocked.len()
                )?;
                for (i, b) in detail.iter().enumerate() {
                    write!(f, "{} {b}", if i == 0 { ":" } else { ";" })?;
                }
                Ok(())
            }
            PlatformError::BudgetExceeded { budget_cycles } => {
                write!(
                    f,
                    "simulation exceeded its budget of {budget_cycles} cycles"
                )
            }
            PlatformError::ZeroCapacity { channel } => {
                write!(f, "channel {channel} has zero capacity")
            }
            PlatformError::MissingControlChannel {
                data,
                payload_bound,
            } => write!(
                f,
                "rendezvous transfer of up to {payload_bound} bytes on channel {data} \
                 requires a control channel, but the endpoint has none"
            ),
            PlatformError::RetryBudgetExhausted {
                pe,
                channel,
                attempts,
                kind,
                idle,
            } => {
                let verb = match kind {
                    BlockKind::Send => "send on",
                    BlockKind::Recv => "recv from",
                };
                write!(
                    f,
                    "supervised {pe} exhausted its retry budget ({attempts} attempts) \
                     trying to {verb} {channel} (failing for {idle:?})"
                )
            }
            PlatformError::TokensLost {
                pe,
                channel,
                missing,
            } => write!(
                f,
                "{missing} token(s) lost on {channel} before {pe}; \
                 supervision stops rather than substitute them"
            ),
            PlatformError::RestartBudgetExhausted { pe, restarts, iter } => write!(
                f,
                "supervised {pe} failed at iteration {iter} after {restarts} restart(s); \
                 restart budget exhausted"
            ),
            PlatformError::ChannelFault { channel, detail } => {
                write!(f, "unrecovered fault on {channel}: {detail}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PlatformError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = PlatformError::MessageExceedsCapacity {
            channel: ChannelId(1),
            bytes: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("64"));
    }

    #[test]
    fn deadlock_report_names_channels_and_fill() {
        let e = PlatformError::Deadlock {
            blocked: vec![PeId(0), PeId(1)],
            detail: vec![
                BlockedOp {
                    pe: PeId(0),
                    channel: ChannelId(3),
                    kind: BlockKind::Send,
                    occupied_bytes: 16,
                    occupied_messages: 2,
                    capacity_bytes: 16,
                    idle: Some(Duration::from_millis(250)),
                },
                BlockedOp {
                    pe: PeId(1),
                    channel: ChannelId(0),
                    kind: BlockKind::Recv,
                    occupied_bytes: 0,
                    occupied_messages: 0,
                    capacity_bytes: 64,
                    idle: None,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("ch3") && s.contains("ch0"), "{s}");
        assert!(s.contains("16/16 B") && s.contains("0/64 B"), "{s}");
        assert!(s.contains("send on") && s.contains("recv from"), "{s}");
        assert!(s.contains("peer idle 250ms"), "{s}");
    }

    #[test]
    fn supervision_errors_name_the_faulted_edge() {
        let e = PlatformError::RetryBudgetExhausted {
            pe: PeId(2),
            channel: ChannelId(1),
            attempts: 4,
            kind: BlockKind::Recv,
            idle: Duration::from_millis(200),
        };
        let s = e.to_string();
        assert!(s.contains("ch1") && s.contains("4 attempts"), "{s}");
        assert!(s.contains("recv from"), "{s}");

        let e = PlatformError::TokensLost {
            pe: PeId(1),
            channel: ChannelId(3),
            missing: 2,
        };
        let s = e.to_string();
        assert!(s.contains("ch3") && s.contains("2 token(s)"), "{s}");

        let e = PlatformError::RestartBudgetExhausted {
            pe: PeId(0),
            restarts: 1,
            iter: 7,
        };
        let s = e.to_string();
        assert!(s.contains("iteration 7") && s.contains("1 restart"), "{s}");

        let e = PlatformError::ChannelFault {
            channel: ChannelId(5),
            detail: "message dropped".into(),
        };
        assert!(e.to_string().contains("ch5"), "{e}");
    }
}
