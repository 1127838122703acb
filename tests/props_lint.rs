//! Differential tests for `wormlint`: every static claim the lints
//! make is cross-checked against the classifier
//! (`worm_core::classify`) and the exhaustive reachability search
//! (`wormsearch`).
//!
//! Three kinds of agreement are enforced:
//!
//! 1. **Verdict compatibility** — the lint verdict never contradicts
//!    `classify_algorithm` (which may additionally use search), on the
//!    whole corpus and on randomly generated routing tables.
//! 2. **"Provably free" means search-free** — whenever the lints
//!    declare a spec `free-acyclic`/`free-cyclic`, the exhaustive
//!    search over that spec's benchmark scenario finds no deadlock.
//! 3. **Certificates are reachable** — every Theorem 2/3/4/5
//!    reachable-deadlock certificate is confirmed by searching the
//!    certificate's own message set (sweeping small adversarial stall
//!    budgets: the paper's router can differ from this crate's
//!    conservative one by one stall on boundary geometries, see
//!    `verify_theorems_with_search` in `worm_core::classify`).

use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::algorithms::random_table;
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::serve::{compile, CompiledJob};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;
use rand::SeedableRng;
use wormbench::lintcorpus::corpus;
use wormbench::scenarios::search_scenarios;
use wormlint::{Analysis, LintConfig, Registry, StaticVerdict};

/// `true` when a lint verdict and a classifier verdict could describe
/// the same spec. The lint verdict is coarser (no search), so
/// `Undecided` is compatible with everything and the classifier's
/// `Unknown` contradicts nothing.
fn compatible(lint: StaticVerdict, classifier: &AlgorithmVerdict) -> bool {
    match lint {
        StaticVerdict::FreeAcyclic => {
            matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. })
        }
        StaticVerdict::FreeCyclic => matches!(
            classifier,
            AlgorithmVerdict::DeadlockFreeWithCycles { .. } | AlgorithmVerdict::Unknown { .. }
        ),
        StaticVerdict::Deadlockable => matches!(
            classifier,
            AlgorithmVerdict::Deadlockable { .. } | AlgorithmVerdict::Unknown { .. }
        ),
        StaticVerdict::Undecided => true,
    }
}

/// Search the candidate's own message set (minimum lengths) for any
/// deadlock, sweeping stall budgets `0..=2`.
fn certificate_confirmed(
    net: &Network,
    table: &TableRouting,
    ctx_candidate: &wormlint::CandidateAnalysis,
) -> bool {
    let specs: Vec<MessageSpec> = ctx_candidate
        .candidate
        .segments
        .iter()
        .map(|s| MessageSpec::new(s.msg.0, s.msg.1, s.channels.len()))
        .collect();
    let Ok(sim) = Sim::new(net, table, specs, Some(1)) else {
        return false;
    };
    (0..=2).any(|stall_budget| {
        explore(
            &sim,
            &SearchConfig {
                stall_budget,
                ..SearchConfig::default()
            },
        )
        .verdict
        .is_deadlock()
    })
}

/// 1a. Corpus-wide verdict compatibility with the classifier.
///
/// The exhaustive-search fallback makes classification of the larger
/// `G(k)` instances expensive in debug builds, so those are compared
/// without search (`Unknown` then contradicts nothing).
#[test]
fn corpus_lint_verdicts_agree_with_classifier() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    for t in corpus() {
        let report = t.run(&registry, &config);
        let opts = ClassifyOptions {
            use_search: !t.name.starts_with('g') && t.name != "fig1",
            ..ClassifyOptions::default()
        };
        let classifier = classify_algorithm(&t.net, &t.table, &opts);
        assert!(
            compatible(report.verdict, &classifier),
            "{}: lint {} vs classifier {classifier:?}",
            t.name,
            report.verdict
        );
    }
}

/// 1b. The search-assisted classifier agrees with the lint verdict on
/// the specs the theorems fully decide — including that `free-cyclic`
/// (Figure 3(a)/(b)) survives the classifier's exhaustive search.
#[test]
fn theorem_decided_corpus_verdicts_match_search_assisted_classifier() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    for t in corpus() {
        let report = t.run(&registry, &config);
        if report.verdict == StaticVerdict::Undecided {
            continue;
        }
        let classifier = classify_algorithm(&t.net, &t.table, &ClassifyOptions::default());
        let matches = match report.verdict {
            StaticVerdict::FreeAcyclic => {
                matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. })
            }
            StaticVerdict::FreeCyclic => {
                matches!(classifier, AlgorithmVerdict::DeadlockFreeWithCycles { .. })
            }
            StaticVerdict::Deadlockable => {
                matches!(classifier, AlgorithmVerdict::Deadlockable { .. })
            }
            StaticVerdict::Undecided => unreachable!(),
        };
        assert!(
            matches,
            "{}: lint {} vs search-assisted classifier {classifier:?}",
            t.name, report.verdict
        );
    }
}

/// 2. "Provably deadlock-free" lint verdicts agree with the search:
///    scenarios whose corpus target the lints certify free never
///    deadlock under exhaustive search, and `Deadlockable` targets'
///    scenarios do.
#[test]
fn lint_verdicts_agree_with_search_on_scenarios() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let verdicts: std::collections::BTreeMap<String, StaticVerdict> = corpus()
        .iter()
        .map(|t| (t.name.clone(), t.run(&registry, &config).verdict))
        .collect();
    let mut checked = 0;
    for s in search_scenarios() {
        // The larger family instances are too slow for debug-mode
        // exhaustive search here; they are covered by e2e_paper.rs.
        if matches!(s.name.as_str(), "g3" | "g4" | "g5") {
            continue;
        }
        let lint = verdicts[&s.name];
        let result = explore(&s.sim, &s.plain_config());
        match lint {
            StaticVerdict::FreeAcyclic | StaticVerdict::FreeCyclic => {
                assert!(
                    result.verdict.is_free(),
                    "{}: lint says free, search found a deadlock",
                    s.name
                );
            }
            StaticVerdict::Deadlockable => {
                assert!(
                    result.verdict.is_deadlock(),
                    "{}: lint certified a deadlock, search found none",
                    s.name
                );
            }
            StaticVerdict::Undecided => {} // no static claim to check
        }
        checked += 1;
    }
    assert!(checked >= 9, "scenario coverage collapsed ({checked})");
}

/// 3. Every Theorem 2/3/4/5 reachable-deadlock certificate in the
///    corpus is search-confirmed on the certificate's own message set.
#[test]
fn deadlock_certificates_are_search_confirmed() {
    let mut confirmed = 0;
    for t in corpus() {
        let ctx = Analysis::build(&t.net, &t.table, &LintConfig::default().analysis_options());
        for (_, ca) in ctx.candidates() {
            if ca.class.reachable() != Some(true) {
                continue;
            }
            assert!(
                certificate_confirmed(&t.net, &t.table, ca),
                "{}: certificate {:?} not search-confirmed",
                t.name,
                ca.candidate.describe(&t.net)
            );
            confirmed += 1;
        }
    }
    // fig2 + four reachable fig3 scenarios + the ring cycles all carry
    // certificates; if this count collapses the test went vacuous.
    assert!(confirmed >= 6, "only {confirmed} certificates confirmed");
}

/// The cyclic-fabric specs whose candidate counts make the counting
/// reader matter, by name. Clockwise ring 8 overruns the default
/// candidate budget.
fn cyclic_family_specs() -> Vec<(&'static str, CompiledJob)> {
    let named = |topology: &str, engine: &str| {
        format!("wormspec/1\ntopology {{\n{topology}}}\nrouting {{\n  engine = {engine}\n}}\n")
    };
    [
        (
            "ring-clockwise 8",
            named("  kind = ring\n  nodes = 8\n", "clockwise_ring"),
        ),
        (
            "dragonfly-novc 3x2",
            named(
                "  kind = dragonfly\n  groups = 3\n  routers = 2\n  local_lanes = [0]\n  global_lanes = [0]\n",
                "dragonfly_minimal",
            ),
        ),
        (
            "dragonfly-valiant 3x2 minimal-lanes",
            named(
                "  kind = dragonfly\n  groups = 3\n  routers = 2\n",
                "dragonfly_valiant",
            ),
        ),
        (
            "fullmesh-ring-detour 5",
            named("  kind = complete\n  nodes = 5\n", "fullmesh_ring_detour"),
        ),
    ]
    .into_iter()
    .map(|(name, text)| (name, compile(&text).expect("spec compiles")))
    .collect()
}

/// The counting reader `wormserve` renders from agrees with the full
/// report on every corpus target and on the cyclic fabric families,
/// under default and overridden severities.
#[test]
fn summaries_match_full_reports() {
    let registry = Registry::with_default_lints();
    let mut promoted = LintConfig {
        deny_warnings: true,
        ..LintConfig::default()
    };
    promoted
        .overrides
        .insert("W201".to_string(), wormlint::Severity::Warn);
    let mut denied = LintConfig::default();
    for code in ["W202", "W207"] {
        denied
            .overrides
            .insert(code.to_string(), wormlint::Severity::Deny);
    }
    let corpus = corpus();
    let families = cyclic_family_specs();
    let targets = corpus
        .iter()
        .map(|t| (t.name.as_str(), &t.net, &t.table))
        .chain(
            families
                .iter()
                .map(|(name, job)| (*name, job.network(), &job.table)),
        );
    for (name, net, table) in targets {
        for config in [&LintConfig::default(), &promoted, &denied] {
            let analysis = Analysis::build(net, table, &config.analysis_options());
            let report = registry.check(&analysis, config);
            let summary = registry.summarize(&analysis, config);
            assert_eq!(summary.counts, report.counts_by_code(), "{name}");
            assert_eq!(
                (summary.allow, summary.warn, summary.deny, summary.verdict),
                (
                    report.allow_count(),
                    report.warn_count(),
                    report.deny_count(),
                    report.verdict
                ),
                "{name}"
            );
            if name == "ring-clockwise 8" {
                // Every enumerated candidate plus the budget line.
                assert_eq!(summary.counts["W202"], 10_001, "{name}");
                assert_eq!(summary.counts["W207"], 1, "{name}");
            }
        }
    }
}

/// JSON reports are byte-deterministic across repeated runs (the
/// committed `LINT_corpus.json` relies on this; `tests/lint_snapshots.rs`
/// pins the actual bytes).
#[test]
fn json_reports_are_deterministic() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let render = || {
        let targets = corpus();
        let reports: Vec<(String, wormlint::LintReport)> = targets
            .iter()
            .map(|t| (t.name.clone(), t.run(&registry, &config)))
            .collect();
        let named: Vec<(&str, &wormlint::LintReport)> =
            reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
        wormlint::reports_to_json(&named)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert!(a.starts_with("{\n  \"schema\": \"wormlint/1\","));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random routing tables: the lint verdict never contradicts the
    /// search-assisted classifier, and certified-free specs really
    /// have no reachable candidate.
    #[test]
    fn random_tables_lint_agrees_with_classifier(seed in 0u64..400, detour in 0usize..3) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, detour).expect("routes");

        let report = Registry::with_default_lints().run(net, &table, &LintConfig::default());
        let classifier = classify_algorithm(net, &table, &ClassifyOptions::default());
        prop_assert!(
            compatible(report.verdict, &classifier),
            "seed {seed}: lint {} vs classifier {classifier:?}",
            report.verdict
        );

        // Structural sanity on the random spec's diagnostics: W2xx
        // diagnostics appear iff the CDG is cyclic.
        let has_cycle_diag = report.diagnostics.iter().any(|d| d.code.starts_with("W2"));
        let cyclic = !matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. });
        prop_assert_eq!(has_cycle_diag, cyclic, "seed {}", seed);
    }
}
