//! A generic MPI-style message layer — the baseline SPI is measured
//! against.
//!
//! The paper's motivation (§1) is that MPI, being general-purpose, pays
//! overheads a dataflow-specialized interface avoids: full message
//! envelopes (source, destination, tag, datatype, length), receive-side
//! envelope matching, and a rendezvous handshake for flow control. This
//! module reproduces that baseline faithfully enough to measure the gap:
//! an `MpiEndpoint` lowers each logical transfer to the same platform
//! primitives SPI uses, but with the envelope bytes, matching cycles and
//! handshake round-trip included.
//!
//! The numbers come from the eager/rendezvous split used by real MPI
//! implementations (including TMD-MPI, the FPGA MPI the paper cites):
//! small messages go eagerly with an envelope; large ones negotiate a
//! request/clear-to-send exchange first.
//!
//! Because the lowering targets plain [`Op`] sequences, MPI transfers
//! are observable through the [`spi_platform::Tracer`] probe machinery with no
//! extra instrumentation: the `mpi:marshal` / `mpi:match` computes
//! appear as firings and the envelope/control/payload messages as
//! ordinary send/receive events on whichever engine executes them.

use spi_platform::{ChannelId, Op, PeLocal, PlatformError, Result};

/// Size of a full MPI envelope in bytes:
/// source (4) + dest (4) + tag (4) + datatype (4) + length (4) + comm (4).
pub const ENVELOPE_BYTES: usize = 24;

/// Cycles the receiver spends matching an incoming envelope against its
/// posted-receive queue (hash + compare, conservative small constant).
pub const MATCH_CYCLES: u64 = 12;

/// Cycles for the sender to marshal the envelope.
pub const MARSHAL_CYCLES: u64 = 6;

/// Messages at or below this payload size are sent eagerly; larger ones
/// use the rendezvous protocol (request-to-send / clear-to-send).
pub const EAGER_LIMIT_BYTES: usize = 256;

/// Size of a rendezvous control message (RTS or CTS).
pub const CONTROL_BYTES: usize = 8;

/// Builder of MPI-style operation sequences for one logical channel pair.
///
/// For rendezvous transfers the caller must supply a *reverse* control
/// channel (receiver→sender) used for the clear-to-send message.
#[derive(Debug, Clone, Copy)]
pub struct MpiEndpoint {
    /// Data channel (sender→receiver).
    pub data: ChannelId,
    /// Control channel (receiver→sender), required for rendezvous.
    pub control: Option<ChannelId>,
}

impl MpiEndpoint {
    /// Creates an endpoint over `data` and, for rendezvous, `control`.
    pub fn new(data: ChannelId, control: Option<ChannelId>) -> Self {
        MpiEndpoint { data, control }
    }

    /// Channel used for clear-to-send, or the typed construction error
    /// when the endpoint has none.
    fn control_for_rendezvous(&self, payload_bound: usize) -> Result<ChannelId> {
        self.control.ok_or(PlatformError::MissingControlChannel {
            data: self.data,
            payload_bound,
        })
    }

    /// Lowers `MPI_Send` of a payload produced by `payload` into platform
    /// ops. Rendezvous is chosen when the payload *bound* exceeds the
    /// eager limit (the protocol must be fixed at compile time since the
    /// program structure is static).
    ///
    /// # Errors
    ///
    /// [`PlatformError::MissingControlChannel`] if rendezvous is required
    /// but no control channel was supplied — a construction error caught
    /// at lowering time, not a run-time condition.
    pub fn send_ops(
        &self,
        payload_bound: usize,
        mut payload: impl FnMut(&mut PeLocal) -> Vec<u8> + Send + 'static,
    ) -> Result<Vec<Op>> {
        let mut ops = Vec::new();
        // Marshal the envelope.
        ops.push(Op::Compute {
            label: "mpi:marshal".into(),
            work: Box::new(|_| MARSHAL_CYCLES),
        });
        if payload_bound > EAGER_LIMIT_BYTES {
            let control = self.control_for_rendezvous(payload_bound)?;
            // Request-to-send carrying the envelope.
            ops.push(Op::Send {
                channel: self.data,
                payload: Box::new(|_| vec![0u8; ENVELOPE_BYTES]),
            });
            // Wait for clear-to-send.
            ops.push(Op::Recv { channel: control });
            ops.push(Op::Compute {
                label: "mpi:cts".into(),
                work: Box::new(move |l| {
                    let _ = l.take_from(control);
                    1
                }),
            });
            // Payload (envelope already delivered with the RTS).
            ops.push(Op::Send {
                channel: self.data,
                payload: Box::new(payload),
            });
        } else {
            // Eager: envelope + payload in one message.
            ops.push(Op::Send {
                channel: self.data,
                payload: Box::new(move |l| {
                    let mut msg = vec![0u8; ENVELOPE_BYTES];
                    msg.extend(payload(l));
                    msg
                }),
            });
        }
        Ok(ops)
    }

    /// Lowers `MPI_Recv` into platform ops; the received payload (with
    /// the envelope stripped) is pushed to the PE store under `store_key`.
    ///
    /// # Errors
    ///
    /// As [`MpiEndpoint::send_ops`].
    pub fn recv_ops(&self, payload_bound: usize, store_key: &str) -> Result<Vec<Op>> {
        let key = store_key.to_string();
        let data = self.data;
        let mut ops = Vec::new();
        if payload_bound > EAGER_LIMIT_BYTES {
            let control = self.control_for_rendezvous(payload_bound)?;
            // Receive the RTS, match it, send CTS, then the payload.
            ops.push(Op::Recv { channel: data });
            ops.push(Op::Compute {
                label: "mpi:match".into(),
                work: Box::new(move |l| {
                    let _ = l.take_from(data);
                    MATCH_CYCLES
                }),
            });
            ops.push(Op::Send {
                channel: control,
                payload: Box::new(|_| vec![0u8; CONTROL_BYTES]),
            });
            ops.push(Op::Recv { channel: data });
            ops.push(Op::Compute {
                label: "mpi:deliver".into(),
                work: Box::new(move |l| {
                    let msg = l.take_from(data).expect("payload follows CTS");
                    l.store.insert(key.clone(), msg);
                    1
                }),
            });
        } else {
            ops.push(Op::Recv { channel: data });
            ops.push(Op::Compute {
                label: "mpi:match+deliver".into(),
                work: Box::new(move |l| {
                    let msg = l.take_from(data).expect("eager message");
                    let payload = msg[ENVELOPE_BYTES.min(msg.len())..].to_vec();
                    l.store.insert(key.clone(), payload);
                    MATCH_CYCLES
                }),
            });
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_platform::{ChannelSpec, Machine, Program};

    #[test]
    fn eager_transfer_carries_envelope_overhead() {
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec {
            capacity_bytes: 4096,
            max_message_bytes: ENVELOPE_BYTES + 64,
        });
        let ep = MpiEndpoint::new(ch, None);
        let mut sender = ep.send_ops(64, |_| vec![7u8; 64]).unwrap();
        let mut s_ops = Vec::new();
        s_ops.append(&mut sender);
        m.add_pe(Program::new(s_ops, 1));
        m.add_pe(Program::new(ep.recv_ops(64, "msg").unwrap(), 1));
        let report = m.run().unwrap();
        // Bytes on the wire = payload + envelope.
        assert_eq!(report.channels[0].bytes, 64 + ENVELOPE_BYTES as u64);
        assert_eq!(report.locals[1].store["msg"], vec![7u8; 64]);
    }

    #[test]
    fn rendezvous_used_above_eager_limit() {
        let mut m = Machine::new();
        let n = EAGER_LIMIT_BYTES + 100;
        let data = m.add_channel(ChannelSpec {
            capacity_bytes: 8192,
            max_message_bytes: n,
        });
        let ctrl = m.add_channel(ChannelSpec {
            capacity_bytes: 4096,
            max_message_bytes: CONTROL_BYTES,
        });
        let ep = MpiEndpoint::new(data, Some(ctrl));
        m.add_pe(Program::new(
            ep.send_ops(n, move |_| vec![3u8; n]).unwrap(),
            1,
        ));
        m.add_pe(Program::new(ep.recv_ops(n, "big").unwrap(), 1));
        let report = m.run().unwrap();
        // Three messages: RTS, CTS, payload.
        assert_eq!(report.total_messages(), 3);
        assert_eq!(report.locals[1].store["big"].len(), n);
    }

    #[test]
    fn rendezvous_without_control_channel_is_a_typed_error() {
        let ep = MpiEndpoint::new(ChannelId(3), None);
        let err = ep.send_ops(100_000, |_| Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::MissingControlChannel {
                data: ChannelId(3),
                payload_bound: 100_000,
            }
        ));
        assert!(err.to_string().contains("control channel"));
        let err = ep.recv_ops(100_000, "sink").unwrap_err();
        assert!(matches!(err, PlatformError::MissingControlChannel { .. }));
        // Eager-sized transfers never need the control channel.
        assert!(ep.send_ops(EAGER_LIMIT_BYTES, |_| Vec::new()).is_ok());
        assert!(ep.recv_ops(EAGER_LIMIT_BYTES, "sink").is_ok());
    }

    #[test]
    fn repeated_eager_messages_in_order() {
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec {
            capacity_bytes: 4096,
            max_message_bytes: ENVELOPE_BYTES + 4,
        });
        let ep = MpiEndpoint::new(ch, None);
        m.add_pe(Program::new(
            ep.send_ops(4, |l| vec![l.iter as u8; 4]).unwrap(),
            5,
        ));
        let mut recv = ep.recv_ops(4, "last").unwrap();
        recv.push(Op::Compute {
            label: "accumulate".into(),
            work: Box::new(|l| {
                let v = l.store.get("last").cloned().unwrap_or_default();
                let mut acc = l.store.remove("acc").unwrap_or_default();
                acc.push(v[0]);
                l.store.insert("acc".into(), acc);
                1
            }),
        });
        m.add_pe(Program::new(recv, 5));
        let report = m.run().unwrap();
        assert_eq!(report.locals[1].store["acc"], vec![0, 1, 2, 3, 4]);
    }
}
