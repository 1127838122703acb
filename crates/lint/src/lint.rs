//! The [`Lint`] trait.

use crate::diagnostic::{Diagnostic, Severity};
use crate::Analysis;

/// One named check over a routing specification.
///
/// A lint reads the shared [`Analysis`] and emits zero or more
/// [`Diagnostic`]s. Implementations must be deterministic (same spec,
/// same diagnostics in the same order) and must stamp every diagnostic
/// with their own [`code`](Lint::code) and [`name`](Lint::name) — the
/// registry asserts this in debug builds.
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

    /// Run the check. `severity` is the already-resolved effective
    /// severity for this run; every emitted diagnostic must carry it.
    fn check(&self, ctx: &Analysis<'_>, severity: Severity) -> Vec<Diagnostic>;
}
