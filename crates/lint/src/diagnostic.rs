//! Severities and structured diagnostics.

use std::collections::BTreeMap;
use std::fmt;

use crate::lint::Lint;

/// How seriously a reported finding is taken.
///
/// Severity is a *policy* attached to a lint code, not a property of
/// the finding itself: a run can promote or demote any code via
/// [`crate::LintConfig`], and `--deny-warnings` promotes every `Warn`
/// to `Deny`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: recorded in the report, never fails a run.
    Allow,
    /// A finding worth attention (the default for theorem-derived
    /// deadlock certificates: on a research corpus they are expected
    /// results, not spec errors).
    Warn,
    /// A spec error: the run fails.
    Deny,
}

impl Severity {
    /// Stable lowercase name used in JSON and human output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parse the stable name back (accepts the three [`Severity::name`]
    /// strings).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of one lint over one spec.
///
/// Everything in a diagnostic is a plain string with a stable,
/// deterministic rendering: entity references use the
/// `kind:description` convention (`node:r0`, `channel:n1->n2#0`,
/// `pair:Src->r3`, `cycle:c4->c5->c6`) and the witness is an ordered
/// key/value map, so diagnostics sort and serialize identically on
/// every run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`W0xx` structure, `W1xx` routing, `W2xx`
    /// CDG/theorems).
    pub code: &'static str,
    /// The lint's kebab-case name.
    pub lint: &'static str,
    /// Effective severity after per-run configuration.
    pub severity: Severity,
    /// One-line human message.
    pub message: String,
    /// References to the entities the finding is about.
    pub entities: Vec<String>,
    /// Concrete witness data (paths, counts, condition scorecards, …).
    pub witness: BTreeMap<String, String>,
}

impl Diagnostic {
    /// A diagnostic of `lint` with empty entities/witness, to be
    /// filled in. It starts at the lint's default severity;
    /// [`Findings::emit`](crate::lint::Findings::emit) stamps the run's
    /// effective one.
    pub fn new(lint: &dyn Lint, message: impl Into<String>) -> Self {
        Diagnostic {
            code: lint.code(),
            lint: lint.name(),
            severity: lint.default_severity(),
            message: message.into(),
            entities: Vec::new(),
            witness: BTreeMap::new(),
        }
    }

    /// Append an entity reference.
    pub fn entity(mut self, kind: &str, desc: impl fmt::Display) -> Self {
        self.entities.push(format!("{kind}:{desc}"));
        self
    }

    /// Insert a witness fact.
    pub fn fact(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.witness.insert(key.into(), value.to_string());
        self
    }

    /// Render the human-readable form (multi-line: header, entities,
    /// witness facts).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{}[{}] {}: {}",
            self.severity, self.code, self.lint, self.message
        );
        for e in &self.entities {
            let _ = write!(out, "\n  at {e}");
        }
        for (k, v) in &self.witness {
            let _ = write!(out, "\n  {k} = {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_names_round_trip() {
        for s in [Severity::Allow, Severity::Warn, Severity::Deny] {
            assert_eq!(Severity::parse(s.name()), Some(s));
        }
        assert_eq!(Severity::parse("error"), None);
        assert!(Severity::Allow < Severity::Warn && Severity::Warn < Severity::Deny);
    }

    #[test]
    fn render_includes_entities_and_witness() {
        let d = Diagnostic::new(&crate::lints::structure::SelfLoopChannel, "channel loops")
            .entity("channel", "n0->n0#0")
            .fact("index", 3);
        let r = d.render();
        assert!(r.starts_with("deny[W001] self-loop-channel: channel loops"));
        assert!(r.contains("at channel:n0->n0#0"));
        assert!(r.contains("index = 3"));
    }
}
