//! One analysis per `wormserve` job, counted: every `verdict_json`
//! builds the table's CDG once, runs the lint registry once, decides
//! existence once (plus once for the degraded fabric when the spec has
//! faults), and classifies the healthy table once.
//!
//! The `wormtrace` recorder is process-global, so this binary holds a
//! single test: nothing else may publish counters while it records.

use std::path::PathBuf;
use std::sync::Arc;

use cyclic_wormhole::serve::{compile, verdict_json};
use cyclic_wormhole::trace::{self as wormtrace, MemoryRecorder, Recorder, TraceReport};

/// Run `verdict_json` on `source` under a fresh recorder.
fn traced_verdict(source: &str) -> TraceReport {
    let job = compile(source).expect("spec compiles");
    let recorder = Arc::new(MemoryRecorder::new());
    wormtrace::install(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let _ = verdict_json(&job);
    wormtrace::uninstall();
    recorder.snapshot()
}

fn count(report: &TraceReport, name: &str) -> u64 {
    report.counters.get(name).copied().unwrap_or(0)
}

fn corpus(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("corpus/{name}.wspec"));
    std::fs::read_to_string(path).expect("committed corpus spec")
}

#[test]
fn every_verdict_is_one_pass_over_one_analysis() {
    let ring =
        "wormspec/1\ntopology { kind = ring nodes = 6 }\nrouting { engine = clockwise_ring }\n";
    let cases = [
        ("acyclic mesh", corpus("mesh_3x3_dor"), false),
        ("deadlockable ring", ring.to_string(), false),
        ("fig3 (a), free with cycles", corpus("fig3_a"), false),
        (
            "fig1 with the search fallback",
            format!("{}verify {{ engine = search }}\n", corpus("fig1")),
            false,
        ),
        (
            "faulted ring",
            format!("{ring}faults {{ down c2 @ 10 cycles }}\n"),
            true,
        ),
        (
            "faulted mesh",
            format!(
                "{}faults {{ down c3 @ 5 cycles }}\n",
                corpus("mesh_3x3_dor")
            ),
            true,
        ),
    ];
    for (name, source, faulted) in cases {
        let r = traced_verdict(&source);
        let degraded = u64::from(faulted);
        assert_eq!(count(&r, "lint.runs"), 1, "{name}: {:?}", r.counters);
        assert_eq!(
            count(&r, "classify.degraded.runs"),
            degraded,
            "{name}: {:?}",
            r.counters
        );
        // The healthy table's CDG is built once; a fault plan adds the
        // degraded table's.
        assert_eq!(
            count(&r, "cdg.builds"),
            1 + degraded,
            "{name}: {:?}",
            r.counters
        );
        assert_eq!(
            r.spans.get("cdg.build").map(|s| s.count),
            Some(1 + degraded),
            "{name}"
        );
        // One existence run for the fabric, one more for the degraded
        // fabric.
        assert_eq!(
            count(&r, "exist.runs"),
            1 + degraded,
            "{name}: {:?}",
            r.counters
        );
        // No second healthy classification: the faults block reuses
        // the classifier block's verdict.
        assert_eq!(
            count(&r, "classify.algorithms"),
            1 + degraded,
            "{name}: {:?}",
            r.counters
        );
        assert_eq!(count(&r, "fault.reverify_runs"), degraded, "{name}");
    }
}
