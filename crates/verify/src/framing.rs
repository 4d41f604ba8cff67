//! Exhaustive exploration of the supervision seq/crc framing protocol.
//!
//! Unlike [`crate::ring`] this engine does not interleave threads: the
//! framing protocol is a *sequential* codec plus a retry/dedup state
//! machine, so the adversary is the **channel**, not the scheduler. The
//! explorer enumerates every sequence of channel behaviors — deliver,
//! drop, corrupt a payload byte, corrupt a header byte, duplicate —
//! within a fault budget and drives the **shipped** protocol through
//! them: the [`spi_platform::protocol`] send-side and receive-side
//! machines that `ThreadedRunner`'s supervised port asks for every
//! decision (numbering, CRC discard, stale-duplicate dedup, gap
//! detection, retry / fail verdicts). Nothing here decodes a frame or
//! looks at a sequence number. What each receive op hands to its PE is
//! checked against the one contract, recover exactly or stop:
//!
//! * no corrupted payload is ever delivered (CRC must catch it);
//! * no message is delivered twice (dedup must catch duplicates);
//! * messages arrive in send order;
//! * a run that completes delivered everything — loss is only allowed
//!   to surface as a fail-stop.
//!
//! Header corruption is the interesting adversary move: the CRC covers
//! only the payload, so a flipped sequence byte yields a *valid* frame
//! with the wrong sequence number. The receiver's dedup/gap machinery
//! must handle it safely (discard, or stop on the gap), never
//! mis-deliver.
//!
//! Timing is not part of the adversary: a receive op waits for the
//! channel for as long as the sender is still working, and its deadline
//! only fires once the stream has run dry.

use std::collections::VecDeque;

use spi_platform::protocol::{RecvSide, RecvVerdict, SendSide, SendVerdict};
use spi_platform::{Token, FRAME_HEADER_BYTES};

/// Bounds and protocol parameters for [`explore_framing`].
#[derive(Debug, Clone, Copy)]
pub struct FramingOptions {
    /// Messages the sender pushes through the channel, and receive ops
    /// the receiver runs.
    pub messages: usize,
    /// Total adversarial actions (drop/corrupt/duplicate) per run.
    pub fault_budget: usize,
    /// Retransmissions per message before the sender stops the run.
    pub max_retries: u32,
}

impl Default for FramingOptions {
    fn default() -> Self {
        FramingOptions {
            messages: 3,
            fault_budget: 2,
            max_retries: 2,
        }
    }
}

/// One contract violation plus the adversary script that produced it.
#[derive(Debug, Clone)]
pub struct FramingViolation {
    /// What went wrong (`corrupt-delivered`, `duplicate-delivered`,
    /// `order-violation`, `lost-without-stop`).
    pub kind: &'static str,
    /// The channel behavior, one entry per transmission attempt.
    pub actions: Vec<&'static str>,
    /// Human-readable account of the delivered stream.
    pub detail: String,
}

/// Result of [`explore_framing`].
#[derive(Debug, Clone, Default)]
pub struct FramingExploration {
    /// Complete adversary scripts explored.
    pub states_explored: u64,
    /// Contract violations found (empty for the shipped protocol).
    pub violations: Vec<FramingViolation>,
}

const ACTIONS: [&str; 5] = [
    "deliver",
    "drop",
    "corrupt-payload",
    "corrupt-seq",
    "duplicate",
];

/// Every message is one token of the edge's declared size.
const TOKEN_BYTES: usize = 4;

fn payload_of(msg: usize) -> [u8; TOKEN_BYTES] {
    [(msg + 1) as u8; TOKEN_BYTES]
}

#[derive(Clone)]
struct Run {
    tx: SendSide,
    rx: RecvSide,
    /// Messages the transport took.
    done_msgs: usize,
    faults_used: usize,
    /// Frames the channel let through that the receiver has not read.
    wire: VecDeque<Vec<u8>>,
    /// What each finished receive op handed over.
    yields: Vec<Vec<u8>>,
    aborted: bool,
    script: Vec<&'static str>,
}

/// Exhaustively explores the framing protocol at the given bounds and
/// returns every contract violation (with its adversary script).
pub fn explore_framing(opts: &FramingOptions) -> FramingExploration {
    let mut out = FramingExploration::default();
    dfs(opts, Run::new(opts), &mut out);
    out
}

fn dfs(opts: &FramingOptions, run: Run, out: &mut FramingExploration) {
    if run.aborted || run.done_msgs == opts.messages {
        out.states_explored += 1;
        check_run(opts, &run, out);
        return;
    }
    let faults_left = run.faults_used < opts.fault_budget;
    for &action in ACTIONS.iter().filter(|&&a| a == "deliver" || faults_left) {
        let mut next = run.clone();
        next.attempt(opts, action);
        dfs(opts, next, out);
    }
}

impl Run {
    fn new(opts: &FramingOptions) -> Run {
        Run {
            tx: SendSide::new(opts.max_retries),
            rx: RecvSide::new(opts.max_retries),
            done_msgs: 0,
            faults_used: 0,
            wire: VecDeque::new(),
            yields: Vec::new(),
            aborted: false,
            script: Vec::new(),
        }
    }

    /// One transmission attempt of the message in flight, with the
    /// channel doing `action` to it.
    fn attempt(&mut self, opts: &FramingOptions, action: &'static str) {
        self.script.push(action);
        self.faults_used += usize::from(action != "deliver");
        let mut frame = Vec::new();
        self.tx.frame_into(&mut frame, &payload_of(self.done_msgs));
        // What the channel lets through, and whether the sender's
        // transport call reports success.
        let (arrivals, taken) = match action {
            "deliver" => (vec![frame], true),
            "drop" => (vec![], false),
            "corrupt-payload" => {
                frame[FRAME_HEADER_BYTES] ^= 0xFF;
                (vec![frame], false)
            }
            "corrupt-seq" => {
                // The CRC covers only the payload: this frame still
                // decodes cleanly, with the wrong sequence number.
                frame[0] ^= 0x01;
                (vec![frame], false)
            }
            "duplicate" => (vec![frame.clone(), frame], true),
            _ => unreachable!(),
        };
        self.wire.extend(arrivals);
        self.receive(opts, false);
        if self.aborted {
            // Fail-stop: the run ends here; check_run validates what
            // was delivered before the stop.
            return;
        }
        if taken {
            self.tx.sent();
            self.done_msgs += 1;
        } else {
            match self.tx.failed() {
                SendVerdict::Retry(_) => {}
                SendVerdict::Fail(_) => self.aborted = true,
            }
        }
        if self.done_msgs == opts.messages {
            self.receive(opts, true);
        }
    }

    /// Runs receive ops for as long as they have something to act on:
    /// a frame on the wire or — once the stream is `dry` — the
    /// deadline.
    fn receive(&mut self, opts: &FramingOptions, dry: bool) {
        while !self.aborted && self.yields.len() < opts.messages {
            let verdict = if let Some(frame) = self.wire.pop_front() {
                self.rx.frame(Token::Owned(frame), |_| {})
            } else if dry {
                self.rx.timeout(|_| {})
            } else {
                return;
            };
            match verdict {
                RecvVerdict::Read => {}
                RecvVerdict::Deliver(token) => self.yields.push(token.into_vec()),
                RecvVerdict::Lost(_) | RecvVerdict::Exhausted(_) => self.aborted = true,
            }
        }
    }
}

fn check_run(opts: &FramingOptions, run: &Run, out: &mut FramingExploration) {
    let mut violate = |kind: &'static str, detail: String| {
        out.violations.push(FramingViolation {
            kind,
            actions: run.script.clone(),
            detail,
        });
    };

    let mut genuine = Vec::new();
    for (pos, bytes) in run.yields.iter().enumerate() {
        match (0..opts.messages).find(|&m| bytes[..] == payload_of(m)) {
            Some(m) => genuine.push(m),
            None => violate(
                "corrupt-delivered",
                format!("receive op {pos} yielded {bytes:?}: no sent payload"),
            ),
        }
    }
    for w in genuine.windows(2) {
        if w[1] == w[0] {
            violate(
                "duplicate-delivered",
                format!("message {} delivered twice: {genuine:?}", w[0]),
            );
        } else if w[1] < w[0] {
            violate(
                "order-violation",
                format!("messages delivered out of order: {genuine:?}"),
            );
        }
    }
    if !run.aborted && genuine.len() < opts.messages {
        violate(
            "lost-without-stop",
            format!(
                "run completed with {}/{} messages delivered",
                genuine.len(),
                opts.messages
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explores `opts`; returns the script count. A violation fails
    /// with every violation listed, one a line: its kind, the adversary
    /// script and what was delivered.
    fn clean_count(opts: FramingOptions) -> u64 {
        let ex = explore_framing(&opts);
        let lines: Vec<String> = (ex.violations.iter())
            .map(|v| format!("{} {:?}: {}", v.kind, v.actions, v.detail))
            .collect();
        assert!(lines.is_empty(), "violations:\n{}", lines.join("\n"));
        ex.states_explored
    }

    // Exact pins, like the ring bounds: a moved count needs a DESIGN.md
    // §12 note saying why.
    #[test]
    fn shipped_protocol_clean_under_all_policies() {
        assert_eq!(clean_count(FramingOptions::default()), 81);
    }

    /// One retry and two faults is the smallest bound where the
    /// adversary can spend the sender's budget on message 0, so the run
    /// stops before the receiver has seen a single token.
    #[test]
    fn sender_budget_exhaustion_on_message_0_stops_cleanly() {
        let opts = FramingOptions {
            max_retries: 1,
            ..FramingOptions::default()
        };
        assert_eq!(clean_count(opts), 81);
        let mut run = Run::new(&opts);
        for action in ["drop", "drop"] {
            run.attempt(&opts, action);
        }
        assert!(run.aborted && run.yields.is_empty());
    }

    #[test]
    fn budget_zero_is_faultless_and_clean() {
        let ex = explore_framing(&FramingOptions {
            fault_budget: 0,
            ..FramingOptions::default()
        });
        assert_eq!(ex.states_explored, 1); // only all-deliver
        assert!(ex.violations.is_empty());
    }
}
