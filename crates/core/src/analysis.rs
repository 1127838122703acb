//! One analysis per (network, table, options): every derived fact the
//! verdict consumers read, computed once.
//!
//! The lint registry, the classifier, fault re-verification and the
//! `wormserve` verdict document all ask questions of the same routing
//! table: its Definition 7–9 properties, its channel dependency graph,
//! the graph's cycles, the static deadlock candidates on each cycle and
//! what Theorems 2–5 say about them, and whether the fabric admits any
//! deadlock-free routing at all. [`Analysis::build`] answers them once;
//! consumers are folds over the result:
//!
//! * `wormlint` formats diagnostics from it and folds the candidate
//!   classes into its static verdict;
//! * [`crate::classify::classify_analysis`] folds the same classes and
//!   runs exhaustive search only where the theorems leave a candidate
//!   open;
//! * [`crate::degraded::degrade`] reuses its CDG as the healthy
//!   baseline of a fault re-verification.
//!
//! `classify_static` is the single implementation of the Section 5
//! theorem procedure. How much is computed up front is the
//! [`Scope`]: lint reads everything, the classifier only what its fold
//! can reach. The existence verdict is computed on first use, so a
//! consumer that never reads it (the classifier, a degraded
//! re-classification) never runs the engine.

use std::sync::{Arc, OnceLock};

use wormcdg::sharing::{self, SharingAnalysis};
use wormcdg::{enumerate_candidates, Cdg, CdgCycle, DeadlockCandidate};
use wormexist::{ExistOptions, ExistenceReport};
use wormnet::Network;
use wormroute::properties::{self, PropertyReport};
use wormroute::TableRouting;

use crate::conditions::{eight_conditions, EightConditions};

/// What the Section 5 theorems say about one static candidate, with no
/// search assistance: what they leave open is
/// [`StaticClass::OutOfScope`].
#[derive(Clone, Debug)]
pub enum StaticClass {
    /// No channel shared outside the cycle — Theorem 2 (and
    /// Corollaries 1–3): the deadlock is reachable.
    NoOutsideSharing,
    /// One outside channel shared by exactly two messages — Theorem 4:
    /// the deadlock is reachable.
    TwoSharers,
    /// Minimal routing, one outside channel shared by every
    /// configuration message — Theorem 3: the deadlock is reachable.
    MinimalAllShare,
    /// One outside channel shared by exactly three messages —
    /// Theorem 5's eight conditions decide: unreachable iff all hold.
    ThreeSharers(EightConditions),
    /// Outside the theorems' scope (≥ 4 sharers on the single outside
    /// channel, several outside shared channels, or inapplicable
    /// geometry): static analysis cannot decide.
    OutOfScope,
}

impl StaticClass {
    /// `Some(true)` = the theorems certify a reachable deadlock,
    /// `Some(false)` = they certify the configuration unreachable,
    /// `None` = out of scope.
    pub fn reachable(&self) -> Option<bool> {
        match self {
            StaticClass::NoOutsideSharing
            | StaticClass::TwoSharers
            | StaticClass::MinimalAllShare => Some(true),
            StaticClass::ThreeSharers(ec) => Some(!ec.unreachable()),
            StaticClass::OutOfScope => None,
        }
    }
}

/// One static deadlock candidate with its sharing analysis and
/// theorem classification.
#[derive(Clone, Debug)]
pub struct CandidateAnalysis {
    /// The candidate configuration (shared with the classifier's
    /// verdicts, which cite it without copying).
    pub candidate: Arc<DeadlockCandidate>,
    /// Its shared channels (inside/outside the cycle).
    pub sharing: SharingAnalysis,
    /// What the theorems conclude.
    pub class: StaticClass,
}

/// One CDG cycle with its (bounded) candidate enumeration.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    /// The cycle.
    pub cycle: CdgCycle,
    /// Analyses of its static candidates.
    pub candidates: Vec<CandidateAnalysis>,
    /// Whether enumeration covered every candidate (false when the
    /// budget ran out — the cycle can then never be certified free).
    pub enumeration_complete: bool,
}

/// How much of a table an [`Analysis`] examines up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every fact lint reports on: the property walk runs first (its
    /// buffers are freed before the CDG is built, so the two never
    /// stack) and every enumerated candidate is classified.
    Complete,
    /// What the classifier's fold reads: the property walk runs only
    /// when a candidate reaches Theorem 3's minimality test (or on
    /// first [`Analysis::properties`] call), and each cycle's
    /// candidates are classified in enumeration order up to the first
    /// the theorems certify reachable — one reachable deadlock settles
    /// the cycle.
    Verdict,
}

/// Budgets for one [`Analysis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Keep at most this many elementary CDG cycles.
    pub max_cycles: usize,
    /// Enumerate at most this many candidates per cycle.
    pub max_candidates: usize,
    /// Budgets of the existence engine.
    pub exist: ExistOptions,
    /// How much is computed up front.
    pub scope: Scope,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            max_cycles: 10_000,
            max_candidates: 10_000,
            exist: ExistOptions::default(),
            scope: Scope::Complete,
        }
    }
}

/// Everything the verdict consumers read about one routing table.
#[derive(Debug)]
pub struct Analysis<'a> {
    /// The network under analysis.
    pub net: &'a Network,
    /// The routing table under analysis.
    pub table: &'a TableRouting,
    /// The channel dependency graph.
    pub cdg: Cdg,
    /// The Dally–Seitz channel numbering (one topological order of
    /// the CDG), when the CDG is acyclic.
    pub numbering: Option<Vec<usize>>,
    /// Elementary CDG cycles with candidate analyses (the first
    /// `max_cycles` in streamed order when the budget ran out). Under
    /// [`Scope::Verdict`] each cycle's analyses stop at the first
    /// theorem-certified reachable candidate.
    pub cycles: Vec<CycleAnalysis>,
    /// Whether `cycles` holds *every* elementary cycle. When `false`
    /// the cycle budget was exceeded: `Deadlockable` findings remain
    /// sound, but the table can never be certified free.
    pub cycles_complete: bool,
    scope: Scope,
    properties: OnceLock<PropertyReport>,
    exist: ExistOptions,
    existence: OnceLock<ExistenceReport>,
}

impl<'a> Analysis<'a> {
    /// Build the CDG, number its channels topologically and, when it
    /// is cyclic, enumerate and classify its cycles' candidates; walk
    /// the table's properties as `opts.scope` says.
    pub fn build(net: &'a Network, table: &'a TableRouting, opts: &AnalysisOptions) -> Self {
        let properties = OnceLock::new();
        if opts.scope == Scope::Complete {
            let _ = properties.set(properties::analyze(net, table));
        }
        let cdg = Cdg::build(net, table);
        let numbering = cdg.numbering();
        let (cycles, cycles_complete) = if numbering.is_some() {
            (Vec::new(), true)
        } else {
            let (raw, complete) = cdg.cycles_streamed(opts.max_cycles);
            // Theorem 3 needs the table-wide minimality predicate; the
            // table is walked for it only once a candidate asks.
            let minimal = || {
                properties
                    .get_or_init(|| properties::analyze(net, table))
                    .minimal
            };
            let cycles = raw
                .into_iter()
                .map(|cycle| analyze_cycle(net, table, &cdg, cycle, &minimal, opts))
                .collect();
            (cycles, complete)
        };
        Analysis {
            net,
            table,
            cdg,
            numbering,
            cycles,
            cycles_complete,
            scope: opts.scope,
            properties,
            exist: opts.exist.clone(),
            existence: OnceLock::new(),
        }
    }

    /// The table's Definition 7–9 properties with the `W101`–`W104`
    /// violation counts and witnesses (one fused walk), walked on
    /// first use unless the analysis already holds them.
    pub fn properties(&self) -> &PropertyReport {
        self.properties
            .get_or_init(|| properties::analyze(self.net, self.table))
    }

    /// Dally–Seitz: whether the CDG is acyclic, i.e. has a
    /// topological [`numbering`](Analysis::numbering).
    pub fn is_acyclic(&self) -> bool {
        self.numbering.is_some()
    }

    /// How much this analysis computed up front.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// Keep only the CDG, freeing the cycles, candidates, properties
    /// and existence report (a fault re-verification needs nothing
    /// else of the healthy table).
    pub fn into_cdg(self) -> Cdg {
        self.cdg
    }

    /// The existence engine's verdict for the *network* (independent of
    /// the table): does any deadlock-free routing exist at all? Decided
    /// under the analysis' existence budgets, on first use.
    pub fn existence(&self) -> &ExistenceReport {
        self.existence
            .get_or_init(|| wormexist::analyze(self.net, &self.exist))
    }

    /// The existence budgets this analysis runs under.
    pub fn exist_options(&self) -> &ExistOptions {
        &self.exist
    }

    /// Does the static pass certify *this* table deadlockable? The
    /// theorems alone, before any search assistance: Corollary 1, or a
    /// theorem-certified reachable candidate on a cyclic CDG.
    pub fn statically_deadlockable(&self) -> bool {
        !self.is_acyclic()
            && (self.properties().node_function
                || self
                    .candidates()
                    .any(|(_, ca)| ca.class.reachable() == Some(true)))
    }

    /// Iterate every candidate analysis across all enumerated cycles.
    pub fn candidates(&self) -> impl Iterator<Item = (&CycleAnalysis, &CandidateAnalysis)> {
        self.cycles
            .iter()
            .flat_map(|cy| cy.candidates.iter().map(move |ca| (cy, ca)))
    }
}

/// Enumerate at most `max_candidates` candidates of `cycle` and
/// classify them statically: all of them, or under [`Scope::Verdict`]
/// up to the first certified reachable.
fn analyze_cycle(
    net: &Network,
    table: &TableRouting,
    cdg: &Cdg,
    cycle: CdgCycle,
    minimal: &dyn Fn() -> bool,
    opts: &AnalysisOptions,
) -> CycleAnalysis {
    let (enumerated, enumeration_complete) = enumerate_candidates(cdg, &cycle, opts.max_candidates);
    let mut candidates = Vec::with_capacity(enumerated.len());
    for candidate in enumerated {
        let sharing = sharing::analyze(net, table, &cycle, &candidate);
        let class = classify_static(net, table, &cycle, &candidate, &sharing, minimal);
        let settled = class.reachable() == Some(true);
        candidates.push(CandidateAnalysis {
            candidate: Arc::new(candidate),
            sharing,
            class,
        });
        if settled && opts.scope == Scope::Verdict {
            break;
        }
    }
    CycleAnalysis {
        cycle,
        candidates,
        enumeration_complete,
    }
}

/// Theorems 2–5, in the paper's order, applied to one candidate: the
/// one implementation of the static decision procedure.
fn classify_static(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    candidate: &DeadlockCandidate,
    sharing: &SharingAnalysis,
    minimal: &dyn Fn() -> bool,
) -> StaticClass {
    let mut outside = sharing.outside();
    // Theorem 2 / Corollaries 1–3: no sharing outside the cycle means
    // every message reaches its blocking position independently.
    let Some(shared) = outside.next() else {
        return StaticClass::NoOutsideSharing;
    };
    if outside.next().is_some() {
        return StaticClass::OutOfScope;
    }
    // A shared channel's users are distinct (`sharing::analyze`).
    let sharers = shared.users.len();
    // Theorem 4: exactly two sharers.
    if sharers == 2 {
        return StaticClass::TwoSharers;
    }
    // Theorem 3: minimal routing, every configuration message shares.
    if sharers == candidate.segments.len() && minimal() {
        return StaticClass::MinimalAllShare;
    }
    // Theorem 5: exactly three sharers, decided by eight conditions.
    if sharers == 3 {
        if let Ok(ec) = eight_conditions(net, table, cycle, candidate, shared) {
            return StaticClass::ThreeSharers(ec);
        }
    }
    StaticClass::OutOfScope
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig1, fig2, fig3};
    use wormnet::topology::{ring_unidirectional, Mesh};
    use wormroute::algorithms::{clockwise_ring, dimension_order};

    fn build<'a>(net: &'a Network, table: &'a TableRouting) -> Analysis<'a> {
        Analysis::build(net, table, &AnalysisOptions::default())
    }

    #[test]
    fn ring_candidates_are_theorem2() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let a = build(&net, &table);
        assert!(!a.is_acyclic() && a.numbering.is_none());
        assert!(a.cycles_complete);
        assert_eq!(a.cycles.len(), 1);
        assert!(!a.cycles[0].candidates.is_empty());
        for ca in &a.cycles[0].candidates {
            assert!(matches!(ca.class, StaticClass::NoOutsideSharing));
            assert_eq!(ca.class.reachable(), Some(true));
        }
        assert!(a.statically_deadlockable());
    }

    #[test]
    fn acyclic_tables_carry_a_numbering_and_no_cycles() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let a = build(mesh.network(), &table);
        assert!(a.is_acyclic() && a.cycles.is_empty());
        let numbering = a.numbering.as_ref().expect("acyclic");
        for (&(c1, c2), _) in a.cdg.edges() {
            assert!(numbering[c1.index()] < numbering[c2.index()]);
        }
        assert!(!a.statically_deadlockable());
    }

    #[test]
    fn fig1_is_out_of_scope_statically() {
        // Four messages share c_s: Theorems 3–5 do not apply and
        // Theorem 2 is defeated by the outside sharing, so the static
        // pass must leave the candidate open.
        let c = fig1::cyclic_dependency();
        let a = build(&c.net, &c.table);
        let (_, ca) = a.candidates().next().expect("fig1 has its candidate");
        assert!(matches!(ca.class, StaticClass::OutOfScope));
        assert_eq!(ca.class.reachable(), None);
    }

    #[test]
    fn fig2_is_theorem4() {
        let c = fig2::two_message_deadlock();
        let a = build(&c.net, &c.table);
        let (_, ca) = a.candidates().next().expect("fig2 has its candidate");
        assert!(matches!(ca.class, StaticClass::TwoSharers));
    }

    #[test]
    fn fig3_scenarios_match_theorem5() {
        for s in fig3::all_scenarios() {
            let c = s.spec.build();
            let a = build(&c.net, &c.table);
            let three_sharer = a
                .candidates()
                .find_map(|(_, ca)| match &ca.class {
                    StaticClass::ThreeSharers(ec) => Some(ec.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("scenario ({}) must hit Theorem 5", s.name));
            assert_eq!(
                three_sharer.unreachable(),
                s.paper_unreachable,
                "scenario ({})",
                s.name
            );
        }
    }

    #[test]
    fn existence_is_decided_once_on_demand() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let a = build(mesh.network(), &table);
        assert!(a.properties().minimal);
        assert!(a.existence.get().is_none());
        assert_eq!(a.existence().verdict, wormexist::ExistenceVerdict::Exists);
        assert!(std::ptr::eq(a.existence(), a.existence()));
    }

    fn verdict_scope() -> AnalysisOptions {
        AnalysisOptions {
            scope: Scope::Verdict,
            ..AnalysisOptions::default()
        }
    }

    #[test]
    fn verdict_scope_walks_properties_on_demand() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let a = Analysis::build(mesh.network(), &table, &verdict_scope());
        assert!(
            a.properties.get().is_none(),
            "acyclic: nothing needs the walk"
        );
        assert_eq!(*a.properties(), properties::analyze(mesh.network(), &table));
        // The ring's candidates are settled by Theorem 2, before
        // Theorem 3 would ask whether the routing is minimal.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let a = Analysis::build(&net, &table, &verdict_scope());
        assert!(a.properties.get().is_none(), "Theorem 2 needs no walk");
        // Figure 1's candidate has every message on the one outside
        // shared channel, so Theorem 3's minimality test runs.
        let c = fig1::cyclic_dependency();
        let a = Analysis::build(&c.net, &c.table, &verdict_scope());
        assert!(a.properties.get().is_some(), "Theorem 3 walks the table");
    }

    #[test]
    fn verdict_scope_stops_at_the_first_reachable_candidate() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let full = build(&net, &table);
        let lean = Analysis::build(&net, &table, &verdict_scope());
        assert!(full.cycles[0].candidates.len() > 1);
        assert_eq!(lean.cycles[0].candidates.len(), 1);
        assert_eq!(lean.cycles[0].candidates[0].class.reachable(), Some(true));
        assert!(lean.cycles[0].enumeration_complete);
        assert_eq!(lean.cdg.edge_count(), full.cdg.edge_count());
    }
}
