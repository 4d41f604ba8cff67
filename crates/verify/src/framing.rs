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
//! handling per [`DegradePolicy`], retry / skip / fail verdicts,
//! substitute sizing). Nothing here decodes a frame or looks at a
//! sequence number. What each receive op hands to its PE is checked
//! against the policy's contract:
//!
//! * no corrupted payload is ever delivered (CRC must catch it), and a
//!   stand-in for a lost token has the shape the policy promises (a
//!   zero token of the edge's size under `Substitute`, empty under
//!   `Skip`);
//! * no message is delivered twice (dedup must catch duplicates);
//! * genuine messages arrive in send order;
//! * under [`DegradePolicy::Fail`], a run that completes delivered
//!   everything — loss is only allowed to surface as a fail-stop.
//!
//! Header corruption is the interesting adversary move: the CRC covers
//! only the payload, so a flipped sequence byte yields a *valid* frame
//! with the wrong sequence number. The receiver's dedup/gap machinery
//! must degrade it safely (discard or policy-gap), never mis-deliver.
//!
//! Timing is not part of the adversary: a receive op waits for the
//! channel for as long as the sender is still working, and its deadline
//! only fires once the stream has run dry.

use std::collections::VecDeque;

use spi_platform::protocol::{RecvSide, RecvVerdict, SendSide, SendVerdict};
use spi_platform::{DegradePolicy, Token, FRAME_HEADER_BYTES};

/// Bounds and protocol parameters for [`explore_framing`].
#[derive(Debug, Clone, Copy)]
pub struct FramingOptions {
    /// Messages the sender pushes through the channel, and receive ops
    /// the receiver runs.
    pub messages: usize,
    /// Total adversarial actions (drop/corrupt/duplicate) per run.
    pub fault_budget: usize,
    /// Retransmissions per message before the sender degrades.
    pub max_retries: u32,
    /// Gap/loss handling contract being checked.
    pub policy: DegradePolicy,
}

impl Default for FramingOptions {
    fn default() -> Self {
        FramingOptions {
            messages: 3,
            fault_budget: 2,
            max_retries: 2,
            policy: DegradePolicy::Fail,
        }
    }
}

/// One contract violation plus the adversary script that produced it.
#[derive(Debug, Clone)]
pub struct FramingViolation {
    /// What went wrong (`corrupt-delivered`, `duplicate-delivered`,
    /// `order-violation`, `lost-under-fail`).
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
    /// Messages the sender is done with (transmitted or abandoned).
    done_msgs: usize,
    faults_used: usize,
    /// Frames the channel let through that the receiver has not read.
    wire: VecDeque<Vec<u8>>,
    /// A receive op has begun and is waiting for the channel.
    mid_op: bool,
    /// What each finished receive op handed over: `(genuine, bytes)`.
    yields: Vec<(bool, Vec<u8>)>,
    aborted: bool,
    script: Vec<&'static str>,
}

/// Exhaustively explores the framing protocol at the given bounds and
/// returns every contract violation (with its adversary script).
pub fn explore_framing(opts: &FramingOptions) -> FramingExploration {
    let rx = RecvSide::new(opts.policy, opts.max_retries, TOKEN_BYTES);
    explore(opts, rx)
}

/// [`explore_framing`] over a given receive-side machine (the shipped
/// one, or its seeded mutant).
fn explore(opts: &FramingOptions, rx: RecvSide) -> FramingExploration {
    let mut out = FramingExploration::default();
    let root = Run::new(opts, rx);
    dfs(opts, root, &mut out);
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
    fn new(opts: &FramingOptions, rx: RecvSide) -> Run {
        Run {
            tx: SendSide::new(opts.policy, opts.max_retries),
            rx,
            done_msgs: 0,
            faults_used: 0,
            wire: VecDeque::new(),
            mid_op: false,
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
                SendVerdict::Skip => self.done_msgs += 1,
                SendVerdict::Fail(_) => self.aborted = true,
            }
        }
        if self.done_msgs == opts.messages {
            self.receive(opts, true);
        }
    }

    /// Runs receive ops for as long as they have something to act on:
    /// a parked frame, a frame on the wire, or — once the stream is
    /// `dry` — the deadline.
    fn receive(&mut self, opts: &FramingOptions, dry: bool) {
        while !self.aborted && self.yields.len() < opts.messages {
            let verdict = if !std::mem::replace(&mut self.mid_op, true) {
                self.rx.begin(|_| {})
            } else if let Some(frame) = self.wire.pop_front() {
                self.rx.frame(Token::Owned(frame), |_| {})
            } else if dry {
                self.rx.timeout(|_| {})
            } else {
                return;
            };
            let (genuine, token) = match verdict {
                RecvVerdict::Read => continue,
                RecvVerdict::Deliver(token) => (true, token),
                RecvVerdict::StandIn(token) => (false, token),
                RecvVerdict::Lost(_) | RecvVerdict::Exhausted(_) => {
                    self.aborted = true;
                    return;
                }
            };
            self.yields.push((genuine, token.into_vec()));
            self.mid_op = false;
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

    let stand_in = match opts.policy {
        DegradePolicy::Substitute => vec![0u8; TOKEN_BYTES],
        DegradePolicy::Skip | DegradePolicy::Fail => Vec::new(),
    };
    let mut genuine = Vec::new();
    for (pos, (is_genuine, bytes)) in run.yields.iter().enumerate() {
        if !is_genuine && *bytes == stand_in {
            continue;
        }
        match (0..opts.messages).find(|&m| *is_genuine && bytes[..] == payload_of(m)) {
            Some(m) => genuine.push(m),
            None => violate(
                "corrupt-delivered",
                format!("receive op {pos} yielded {bytes:?}: no sent payload, no {stand_in:?}"),
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
    if opts.policy == DegradePolicy::Fail && !run.aborted && genuine.len() < opts.messages {
        violate(
            "lost-under-fail",
            format!(
                "run completed under Fail with {}/{} messages delivered",
                genuine.len(),
                opts.messages
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [DegradePolicy; 3] = [
        DegradePolicy::Fail,
        DegradePolicy::Skip,
        DegradePolicy::Substitute,
    ];

    /// Explores `opts` under each policy; returns the script counts.
    fn clean_counts(opts: FramingOptions) -> [u64; 3] {
        POLICIES.map(|policy| {
            let ex = explore_framing(&FramingOptions { policy, ..opts });
            let first = ex.violations.first();
            assert!(first.is_none(), "{policy:?}: {first:?}");
            ex.states_explored
        })
    }

    // Exact pins, like the ring bounds: a moved count needs a DESIGN.md
    // §12 note saying why.
    #[test]
    fn shipped_protocol_clean_under_all_policies() {
        assert_eq!(clean_counts(FramingOptions::default()), [81, 97, 97]);
    }

    /// One retry and two faults is the smallest bound where the
    /// adversary can make the sender abandon message 0, so the first
    /// thing the receiver ever sees is a gap — with no delivered token
    /// to size a substitute from.
    #[test]
    fn first_token_loss_is_clean_under_all_policies() {
        let opts = FramingOptions {
            max_retries: 1,
            ..FramingOptions::default()
        };
        assert_eq!(clean_counts(opts), [81, 97, 97]);
    }

    #[test]
    fn seeded_dedup_mutant_is_caught() {
        let opts = FramingOptions::default();
        let shipped = RecvSide::new(opts.policy, opts.max_retries, TOKEN_BYTES);
        let ex = explore(&opts, shipped.without_dedup());
        // A script that kills it must actually use the duplicate move
        // (a flipped sequence byte re-delivers a stale frame as well).
        let caught = |v: &FramingViolation| {
            v.kind == "duplicate-delivered" && v.actions.contains(&"duplicate")
        };
        assert!(ex.violations.iter().any(caught), "{:?}", ex.violations);
    }

    /// Two abandoned messages, then a delivery: the frame that arrives
    /// is two tokens early. The shipped receiver hands out one
    /// substitute per receive op and keeps the frame parked meanwhile.
    #[test]
    fn substitute_yields_one_token_per_receive_op() {
        let opts = FramingOptions {
            max_retries: 0,
            policy: DegradePolicy::Substitute,
            ..FramingOptions::default()
        };
        let rx = RecvSide::new(opts.policy, opts.max_retries, TOKEN_BYTES);
        let mut run = Run::new(&opts, rx);
        for action in ["drop", "drop", "deliver"] {
            run.attempt(&opts, action);
        }
        let zeros = vec![0u8; TOKEN_BYTES];
        let want = [
            (false, zeros.clone()),
            (false, zeros),
            (true, payload_of(2).to_vec()),
        ];
        assert_eq!(run.yields, want);
        assert!(explore_framing(&opts).violations.is_empty());
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
