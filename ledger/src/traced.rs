//! The traced run: one thread, a span around every public call into
//! each layer, and a `wormtrace::MemoryRecorder` collecting the counters
//! the program already publishes.
//!
//! Every layer span is timed with the program's recorder off. The
//! recorder is process-global, so it is installed only around a second
//! run of each job's service path, timed as a whole, while nothing else
//! runs; that second run yields the counters and, against the first,
//! the tracing overhead. The layer probes are separate calls on the same compiled
//! job, mirroring what `verdict_json` runs for that job, so they overlap
//! one another and do not add up to the job's time.

use std::sync::Arc;
use std::time::Instant;

use wormcdg::Cdg;
use wormfault::{reverify, FaultRunner, RetryPolicy};
use wormlint::Registry;
use wormserve::{verdict_json, CompiledJob, ResultCache};
use wormsim::runner::{ArbitrationPolicy, Runner};
use wormsim::Sim;
use wormspec::ast::VerifyEngine;
use wormtrace::{MemoryRecorder, Recorder, TraceReport};

use crate::json;
use crate::measure::{batch_round, check_batch, compile_job, guarded, workers, Tally};
use crate::oracle::check;
use crate::text::{rewrite, Rng};
use crate::workloads::{Job, Workload};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the job in the workload's set.
    pub job: usize,
}

/// The spans of one run, kept in memory until it ends.
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` of `job`, nested in the open span.
    fn time<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> T {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f();
        self.open.pop();
        self.recs[id].end_ns = self.now();
        out
    }

    fn enter(&mut self, name: &'static str, job: usize) -> usize {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any span a panic left open inside it.
    fn exit(&mut self, id: usize) -> u64 {
        if let Some(pos) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(pos);
        }
        self.recs[id].end_ns = self.now();
        self.recs[id].end_ns - self.recs[id].start_ns
    }

    /// Total milliseconds over every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end_ns.saturating_sub(r.start_ns) as f64 / 1e6)
            .fold(0.0, |total, ms| total + ms)
    }

    /// Every span as one JSON array.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .recs
            .iter()
            .map(|r| {
                json::obj(&[
                    ("name", json::quote(r.name)),
                    ("start_ns", r.start_ns.to_string()),
                    ("end_ns", r.end_ns.to_string()),
                    ("parent", r.parent.map_or("null".into(), |p| p.to_string())),
                    ("job", r.job.to_string()),
                ])
            })
            .collect();
        format!("[{}]", body.join(",\n"))
    }
}

/// The traced run's output.
pub struct Traced {
    /// `(name, value, unit)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every span, for the record.
    pub spans: Spans,
    /// Attempts and failures.
    pub tally: Tally,
}

/// Work counts the probes read off their own results (no counter
/// exists for them).
#[derive(Default)]
struct ProbeCounts {
    bytes: u64,
    edges: u64,
    cycles: u64,
}

/// Run each layer the way `verdict_json` would for this job, one span
/// per call. `source` is the submitted text.
fn probe(spans: &mut Spans, i: usize, source: &str, job: &CompiledJob, counts: &mut ProbeCounts) {
    counts.bytes += source.len() as u64;
    let Ok(spec) = spans.time("spec.parse", i, || wormspec::parse(source)) else {
        return;
    };
    spans.time("spec.canonical", i, || {
        std::hint::black_box(wormspec::canonical(&spec));
        std::hint::black_box(wormspec::content_hash_hex(&spec));
    });
    let Ok(topology) = spans.time("net.build_topology", i, || {
        wormnet::spec::build_topology(&spec.topology)
    }) else {
        return;
    };
    let Ok(table) = spans.time("route.table_from_spec", i, || {
        wormroute::spec::table_from_spec(&spec.routing, &topology)
    }) else {
        return;
    };
    if let Some(traffic) = &spec.traffic {
        let _ = spans.time("sim.messages_from_spec", i, || {
            std::hint::black_box(wormsim::spec::messages_from_spec(
                traffic, &topology, &table,
            ))
        });
    }

    let net = job.network();
    spans.time("route.properties", i, || {
        std::hint::black_box(wormroute::properties::analyze(net, &job.table))
    });
    let cdg = spans.time("cdg.build", i, || Cdg::build(net, &job.table));
    counts.edges += cdg.edge_count() as u64;
    let numbering = spans.time("cdg.numbering", i, || cdg.numbering());
    if numbering.is_none() {
        let (cycles, _) = spans.time("cdg.cycles", i, || {
            cdg.cycles_streamed(job.classify_options.max_cycles)
        });
        counts.cycles += cycles.len() as u64;
    }
    spans.time("lint.run", i, || {
        std::hint::black_box(Registry::with_default_lints().run(net, &job.table, &job.lint_config))
    });
    spans.time("classify.algorithm", i, || {
        std::hint::black_box(worm_core::classify_algorithm(
            net,
            &job.table,
            &job.classify_options,
        ))
    });
    spans.time("exist.analyze", i, || {
        std::hint::black_box(wormexist::analyze(net, &job.exist_options))
    });
    if job.spec.faults.is_some() {
        spans.time("fault.reverify", i, || {
            std::hint::black_box(reverify(net, &job.table, &job.plan, &job.classify_options))
        });
    }
    let searched = matches!(job.engine, VerifyEngine::Search | VerifyEngine::Full);
    let count = job.messages.len();
    if searched && count > 0 && count <= wormserve::verdict::MAX_SEARCH_MESSAGES {
        spans.time("search.explore", i, || {
            if let Ok(sim) = Sim::new(net, &job.table, job.messages.clone(), job.capacity) {
                std::hint::black_box(wormsearch::explore(&sim, &job.search_config));
            }
        });
    }
    let simulated = matches!(job.engine, VerifyEngine::Sim | VerifyEngine::Full);
    if simulated && count > 0 {
        spans.time("sim.run", i, || {
            let Ok(sim) = Sim::new(net, &job.table, job.messages.clone(), job.capacity) else {
                return;
            };
            if job.plan.is_empty() {
                std::hint::black_box(
                    Runner::new(&sim, ArbitrationPolicy::LowestId)
                        .with_skew(job.skew.clone())
                        .run(job.horizon),
                );
            } else {
                std::hint::black_box(
                    FaultRunner::new(
                        net,
                        &sim,
                        ArbitrationPolicy::LowestId,
                        job.plan.clone(),
                        RetryPolicy::Passive,
                    )
                    .run(job.horizon),
                );
            }
        });
    }
}

fn counter(report: &TraceReport, name: &str) -> f64 {
    report.counters.get(name).copied().unwrap_or(0) as f64
}

/// Share of the run's seconds spent repeating the layer probes.
const PROBE_SHARE: f64 = 0.75;

/// The traced run over `workload`'s job set for `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &std::path::Path) -> Traced {
    let jobs: Vec<Job> = workload.generate(seed);
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let recorder = Arc::new(MemoryRecorder::new());
    let cache_dir = work.join("traced-cache");
    let recorded_dir = work.join("traced-recorded");
    for dir in [&cache_dir, &recorded_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (Ok(cache), Ok(recorded_cache)) = (
        ResultCache::open(&cache_dir),
        ResultCache::open(&recorded_dir),
    ) else {
        tally.fail("traced", "cannot open the cache directories".into());
        return Traced {
            metrics: Vec::new(),
            spans,
            tally,
        };
    };

    // The service path, cold: each job once with the program's
    // recorder off, one span per call (these give the `serve.*` times),
    // then once more with the recorder installed, which collects the
    // counters and, against the first, the tracing overhead.
    let mut plain_ns = 0u64;
    let mut recorded_ns = 0u64;
    let mut docs: Vec<Option<String>> = vec![None; jobs.len()];
    let mut compiled: Vec<Option<CompiledJob>> = (0..jobs.len()).map(|_| None).collect();
    let (mut lookups, mut hits) = (0u64, 0u64);
    for (i, job) in jobs.iter().enumerate() {
        let id = spans.enter("job", i);
        let plain_run = guarded(|| {
            let c = spans.time("serve.compile", i, || compile_job(job, &job.source))?;
            let hit = spans.time("serve.cache_lookup", i, || cache.lookup(&c.hash));
            lookups += 1;
            hits += u64::from(hit.is_some());
            let doc = spans.time("serve.verdict_json", i, || verdict_json(&c));
            spans
                .time("serve.cache_store", i, || cache.store(&c.hash, &doc))
                .map_err(|e| e.to_string())?;
            Ok((c, doc))
        });
        plain_ns += spans.exit(id);

        wormtrace::install(Arc::clone(&recorder) as Arc<dyn Recorder>);
        let id = spans.enter("job.recorded", i);
        let recorded = guarded(|| {
            let c = compile_job(job, &job.source)?;
            let _ = recorded_cache.lookup(&c.hash);
            let doc = verdict_json(&c);
            recorded_cache
                .store(&c.hash, &doc)
                .map_err(|e| e.to_string())?;
            Ok(doc)
        });
        recorded_ns += spans.exit(id);
        wormtrace::uninstall();

        let outcome = match (plain_run, recorded) {
            (Err(e), _) | (_, Err(e)) => Err(e),
            (Ok((_, a)), Ok(b)) if a != b => Err("recording changed the document".into()),
            (Ok((c, doc)), Ok(_)) => check(&doc, &job.expect).map(|()| (c, doc)),
        };
        let outcome = outcome.map(|(c, doc)| {
            docs[i] = Some(doc);
            compiled[i] = Some(c);
        });
        tally.record(&job.name, outcome);
    }
    let report = recorder.snapshot();

    // The service path, warm: one seeded rewrite per job.
    let mut rng = Rng::new(seed, 0x7472_6163_6564);
    for (i, job) in jobs.iter().enumerate() {
        let Ok(source) = rewrite(&job.base, &mut rng) else {
            tally.record(&job.name, Err("rewrite failed".into()));
            continue;
        };
        let id = spans.enter("replay", i);
        let result = guarded(|| {
            let c = spans.time("replay.compile", i, || compile_job(job, &source))?;
            Ok(spans.time("serve.cache_lookup", i, || cache.lookup(&c.hash)))
        });
        spans.exit(id);
        lookups += 1;
        let outcome = match result {
            Err(e) => Err(e),
            Ok(None) => Err("warm replay missed the cache".into()),
            Ok(Some(doc)) if Some(&doc) != docs[i].as_ref() => {
                Err("warm replay differs from its cold document".into())
            }
            Ok(Some(_)) => {
                hits += 1;
                Ok(())
            }
        };
        tally.record(&job.name, outcome);
    }

    // Layer probes, recorder removed, in whole passes until the run's
    // time is used; per-layer times are per-pass means.
    let started = Instant::now();
    let mut counts = ProbeCounts::default();
    let mut passes = 0u32;
    while passes == 0 || started.elapsed().as_secs_f64() < PROBE_SHARE * seconds {
        let mut pass_counts = ProbeCounts::default();
        for (i, (job, c)) in jobs.iter().zip(&compiled).enumerate() {
            if let Some(c) = c {
                let id = spans.enter("probe", i);
                let _ = guarded(|| {
                    probe(&mut spans, i, &job.source, c, &mut pass_counts);
                    Ok(())
                });
                spans.exit(id);
            }
        }
        if passes == 0 {
            counts = pass_counts;
        }
        passes += 1;
    }
    drop(compiled);

    // One batch on a fresh pool: time blocked in `submit`, and the
    // makespan for the parallel efficiency.
    let dir = work.join("traced-batch");
    let _ = std::fs::remove_dir_all(&dir);
    let (makespan_s, blocked_ms) = match batch_round(&jobs, dir.clone()) {
        Ok(batch) => {
            check_batch(&jobs, &docs, &batch.results, &mut tally);
            (batch.makespan_s, batch.submit_ms)
        }
        Err(e) => {
            tally.fail("batch", e.to_string());
            (f64::NAN, f64::NAN)
        }
    };
    for dir in [&cache_dir, &recorded_dir, &dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let n = jobs.len().max(1) as f64;
    let ms = |name| spans.total_ms(name) / f64::from(passes);
    let once = |name| spans.total_ms(name);
    let count = |name| counter(&report, name);
    let metrics = vec![
        ("spec.parse_ms", ms("spec.parse"), "ms"),
        ("spec.canonical_ms", ms("spec.canonical"), "ms"),
        ("spec.bytes", counts.bytes as f64, "bytes"),
        ("net.build_topology_ms", ms("net.build_topology"), "ms"),
        (
            "route.table_from_spec_ms",
            ms("route.table_from_spec"),
            "ms",
        ),
        ("serve.compile_ms", once("serve.compile"), "ms"),
        (
            "sim.messages_from_spec_ms",
            ms("sim.messages_from_spec"),
            "ms",
        ),
        ("route.properties_ms", ms("route.properties"), "ms"),
        ("cdg.build_ms", ms("cdg.build"), "ms"),
        ("cdg.edges", counts.edges as f64, "count"),
        ("cdg.numbering_ms", ms("cdg.numbering"), "ms"),
        ("cdg.cycles_ms", ms("cdg.cycles"), "ms"),
        ("cdg.cycles", counts.cycles as f64, "count"),
        ("lint.run_ms", ms("lint.run"), "ms"),
        ("lint.diagnostics", count("lint.diagnostics"), "count"),
        ("classify.algorithm_ms", ms("classify.algorithm"), "ms"),
        ("classify.candidates", count("classify.candidates"), "count"),
        ("classify.theorem2", count("classify.theorem2"), "count"),
        ("classify.theorem3", count("classify.theorem3"), "count"),
        ("classify.theorem4", count("classify.theorem4"), "count"),
        ("classify.theorem5", count("classify.theorem5"), "count"),
        (
            "classify.search_fallback",
            count("classify.search_fallback"),
            "count",
        ),
        ("exist.analyze_ms", ms("exist.analyze"), "ms"),
        ("exist.runs_per_job", count("exist.runs") / n, "runs/job"),
        ("fault.reverify_ms", ms("fault.reverify"), "ms"),
        ("search.explore_ms", ms("search.explore"), "ms"),
        ("search.states", count("search.states"), "count"),
        ("sim.run_ms", ms("sim.run"), "ms"),
        ("sim.cycles", count("sim.cycles"), "count"),
        ("sim.delivered", count("sim.delivered"), "count"),
        ("serve.verdict_json_ms", once("serve.verdict_json"), "ms"),
        ("serve.cache_lookup_ms", once("serve.cache_lookup"), "ms"),
        ("serve.cache_store_ms", once("serve.cache_store"), "ms"),
        (
            "serve.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        ("serve.submit_blocked_ms", blocked_ms, "ms"),
        (
            "serve.parallel_efficiency",
            plain_ns as f64 / 1e9 / (makespan_s * workers() as f64),
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            recorded_ns as f64 / plain_ns.max(1) as f64,
            "ratio",
        ),
    ];
    Traced {
        metrics,
        spans,
        tally,
    }
}
