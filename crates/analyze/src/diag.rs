//! Diagnostics: the unit of output of every analysis pass.

use std::fmt;

use spi_dataflow::{ActorId, EdgeId};
use spi_sched::ProcId;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; no action needed.
    Info,
    /// Likely suboptimal or fragile, but the system can still be built
    /// and run correctly.
    Warning,
    /// The system is wrong: it cannot be scheduled, would deadlock, race
    /// or overflow. Builds must be aborted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the system a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Locus {
    /// The system as a whole (or no more precise location exists).
    System,
    /// One actor.
    Actor(ActorId),
    /// One edge.
    Edge(EdgeId),
    /// A directed cycle through the listed actors.
    Cycle(Vec<ActorId>),
    /// A pair of processors whose interaction is at fault.
    Processors(ProcId, ProcId),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::System => write!(f, "system"),
            Locus::Actor(a) => write!(f, "actor {a}"),
            Locus::Edge(e) => write!(f, "edge {e}"),
            Locus::Cycle(actors) => {
                write!(f, "cycle ")?;
                for (i, a) in actors.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{a}")?;
                }
                if let Some(first) = actors.first() {
                    write!(f, " -> {first}")?;
                }
                Ok(())
            }
            Locus::Processors(a, b) => write!(f, "processors {a} and {b}"),
        }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`SPI001`…); see the crate docs for
    /// the full table.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable explanation, with actor/edge names resolved.
    pub message: String,
    /// Structural location of the finding.
    pub locus: Locus,
    /// What to do about it, when the analyzer has a concrete suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        locus: Locus,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            locus,
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// Renders in the compiler-style human format.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.locus
        );
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n  help: {s}"));
        }
        out
    }

    /// Renders as a JSON object (hand-rolled; stable field order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":{},", json_str(self.code)));
        out.push_str(&format!(
            "\"severity\":{},",
            json_str(&self.severity.to_string())
        ));
        out.push_str(&format!("\"message\":{},", json_str(&self.message)));
        out.push_str("\"locus\":");
        match &self.locus {
            Locus::System => out.push_str("{\"kind\":\"system\"}"),
            Locus::Actor(a) => out.push_str(&format!("{{\"kind\":\"actor\",\"actor\":{}}}", a.0)),
            Locus::Edge(e) => out.push_str(&format!("{{\"kind\":\"edge\",\"edge\":{}}}", e.0)),
            Locus::Cycle(actors) => {
                let ids: Vec<String> = actors.iter().map(|a| a.0.to_string()).collect();
                out.push_str(&format!(
                    "{{\"kind\":\"cycle\",\"actors\":[{}]}}",
                    ids.join(",")
                ));
            }
            Locus::Processors(a, b) => out.push_str(&format!(
                "{{\"kind\":\"processors\",\"src\":{},\"dst\":{}}}",
                a.0, b.0
            )),
        }
        match &self.suggestion {
            Some(s) => out.push_str(&format!(",\"suggestion\":{}", json_str(s))),
            None => out.push_str(",\"suggestion\":null"),
        }
        out.push('}');
        out
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn human_rendering_includes_code_locus_and_help() {
        let d = Diagnostic::new(
            "SPI001",
            Severity::Warning,
            Locus::Actor(ActorId(2)),
            "dangling",
        )
        .with_suggestion("connect it");
        let s = d.render_human();
        assert!(s.contains("warning[SPI001]"));
        assert!(s.contains("actor a2"));
        assert!(s.contains("help: connect it"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let d = Diagnostic::new(
            "SPI010",
            Severity::Error,
            Locus::Edge(EdgeId(3)),
            "rates \"2 -> 3\"\nline",
        );
        let j = d.render_json();
        assert!(j.contains("\\\"2 -> 3\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"edge\":3"));
    }

    #[test]
    fn cycle_locus_displays_closed() {
        let l = Locus::Cycle(vec![ActorId(0), ActorId(1)]);
        assert_eq!(l.to_string(), "cycle a0 -> a1 -> a0");
    }
}
