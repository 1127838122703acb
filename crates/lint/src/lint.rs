//! The [`Lint`] trait and the [`Findings`] sink its checks emit into.

use crate::diagnostic::{Diagnostic, Severity};
use crate::Analysis;

/// One named check over a routing specification.
///
/// A lint reads the shared [`Analysis`] and emits zero or more
/// [`Diagnostic`]s into a [`Findings`]. Implementations must be
/// deterministic (same spec, same diagnostics in the same order) and
/// must build every diagnostic with [`Diagnostic::new`] from
/// themselves, so it carries their own [`code`](Lint::code) and
/// [`name`](Lint::name) — [`Findings::emit`] asserts the code in
/// debug builds.
pub trait Lint {
    /// Stable code, `W` followed by three digits. The leading digit
    /// picks the range: 0 = structure, 1 = routing, 2 = CDG/theorems.
    fn code(&self) -> &'static str;

    /// Stable kebab-case name.
    fn name(&self) -> &'static str;

    /// One-line description for catalogs and docs.
    fn description(&self) -> &'static str;

    /// Which part of the paper the lint operationalizes (e.g.
    /// `"Theorem 4"`, `"Definition 8 / Corollary 2"`), or a hygiene
    /// note for structural lints.
    fn paper_anchor(&self) -> &'static str;

    /// Severity applied when the run's config has no override for this
    /// code.
    fn default_severity(&self) -> Severity;

    /// Run the check: decide what qualifies, and [`emit`](Findings::emit)
    /// one finding per diagnostic with a closure that renders it.
    fn check(&self, ctx: &Analysis<'_>, out: &mut Findings);
}

/// Where a lint's findings go.
///
/// A collecting sink (behind [`crate::Registry::check`]) runs every
/// [`emit`](Findings::emit) closure and keeps the diagnostic; a
/// counting sink (behind [`crate::Registry::summarize`]) only counts
/// and never runs one. So everything that only renders a finding —
/// formatting, `describe`, per-sharer geometry — belongs inside the
/// closure, and only the selection of what qualifies outside it.
#[derive(Debug)]
pub struct Findings {
    code: &'static str,
    severity: Severity,
    emitted: usize,
    diagnostics: Option<Vec<Diagnostic>>,
}

impl Findings {
    /// A sink that renders and keeps every diagnostic.
    pub(crate) fn collecting() -> Self {
        Findings {
            code: "",
            severity: Severity::Allow,
            emitted: 0,
            diagnostics: Some(Vec::new()),
        }
    }

    /// A sink that only counts.
    pub(crate) fn counting() -> Self {
        Findings {
            diagnostics: None,
            ..Findings::collecting()
        }
    }

    /// Start the next lint: its findings carry `severity`, and
    /// [`emitted`](Findings::emitted) restarts from zero.
    pub(crate) fn start(&mut self, lint: &dyn Lint, severity: Severity) {
        self.code = lint.code();
        self.severity = severity;
        self.emitted = 0;
    }

    /// Findings emitted since the last [`start`](Findings::start).
    pub(crate) fn emitted(&self) -> usize {
        self.emitted
    }

    /// Take the diagnostics a collecting sink kept.
    pub(crate) fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics.unwrap_or_default()
    }

    /// Record one finding. `build` renders it, and runs only when the
    /// sink collects; the run's effective severity is stamped on the
    /// result.
    pub fn emit(&mut self, build: impl FnOnce() -> Diagnostic) {
        self.emitted += 1;
        if let Some(diagnostics) = &mut self.diagnostics {
            let mut d = build();
            debug_assert_eq!(d.code, self.code, "lint emitted a mislabelled diagnostic");
            d.severity = self.severity;
            diagnostics.push(d);
        }
    }
}
