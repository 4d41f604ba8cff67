//! The pass pipeline and its report.

use spi_dataflow::VtsConversion;

use crate::diag::{Diagnostic, Severity};
use crate::input::AnalysisInput;
use crate::passes;

/// One analysis pass. Passes are stateless: they read the input and
/// append diagnostics.
pub trait Pass {
    /// Runs the pass, appending any findings to `out`.
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered pipeline of passes.
#[derive(Default)]
pub struct Analyzer {
    passes: Vec<Box<dyn Pass>>,
}

impl Analyzer {
    /// An empty pipeline; add passes with [`Analyzer::with_pass`].
    pub fn new() -> Self {
        Analyzer { passes: Vec::new() }
    }

    /// The full default pipeline, in dependency order: structural checks
    /// first, then rate/deadlock analysis, then VTS, protocol,
    /// synchronization and resource checks.
    pub fn default_pipeline() -> Self {
        Analyzer::new()
            .with_pass(passes::WellFormedness)
            .with_pass(passes::RateConsistency)
            .with_pass(passes::DeadlockWitness)
            .with_pass(passes::VtsSoundness)
            .with_pass(passes::ProtocolLints)
            .with_pass(passes::SyncCoverage)
            .with_pass(passes::ResyncFixpoint)
            .with_pass(passes::ResyncCertification)
            .with_pass(passes::ResourceOvercommit)
    }

    /// Appends a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs every pass over `input`. Without a VTS conversion in
    /// `input`, the graph is converted once here for every pass that
    /// reads it.
    pub fn run(&self, input: &AnalysisInput<'_>) -> AnalysisReport {
        let converted = match input.vts {
            Some(_) => None,
            // Conversion fails only on a zero rate bound, which SPI002
            // reports; the passes that need the conversion then stay
            // silent.
            None => VtsConversion::convert(input.graph).ok(),
        };
        let with_vts;
        let input = match &converted {
            Some(vts) => {
                with_vts = AnalysisInput {
                    vts: Some(vts),
                    ..*input
                };
                &with_vts
            }
            None => input,
        };
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(input, &mut diagnostics);
        }
        // Deterministic presentation: most severe first, then by code,
        // preserving per-pass emission order within a (severity, code).
        diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
        AnalysisReport { diagnostics }
    }
}

/// The collected findings of one analyzer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when at least one finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Findings with the given code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// True when no findings at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders all findings in the compiler-style human format.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// Renders the report as one JSON document.
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self.diagnostics.iter().map(|d| d.render_json()).collect();
        format!(
            "{{\"diagnostics\":[{}],\"errors\":{},\"warnings\":{}}}",
            body.join(","),
            self.errors().count(),
            self.warnings().count()
        )
    }
}
