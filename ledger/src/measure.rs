//! The untraced run: set-up, the cold closed loop, warm replays and
//! the worker-pool batch, all through `wormserve`'s public API only
//! (`compile`, `verdict_json`, `ResultCache`, `Server`), so refactors
//! of the layers underneath need no change here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wormserve::{compile, verdict_json, ResultCache, Server, ServerConfig};

use crate::oracle::check;
use crate::text::{rewrite, Rng};
use crate::workloads::{Job, Workload};

/// Cold and warm phases each time at least this many jobs, so the p90
/// has ten samples beyond it.
pub const MIN_TIMED_JOBS: usize = 100;
/// Set-ups timed before the first round; the median of all set-up
/// samples is reported.
pub const SETUP_REPEATS: usize = 10;
/// Set-ups timed after every round.
pub const SETUPS_PER_ROUND: usize = 10;
/// The batch phase runs at least this many rounds.
pub const MIN_BATCH_ROUNDS: usize = 3;

/// Attempted and failed job counts, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed: a compile error, a panic, an `error` block, a
    /// wrong verdict, or a broken byte-identity.
    pub failed: u64,
    /// The first failure messages.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Record one attempt.
    pub fn record(&mut self, job: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(job, reason);
        }
    }

    /// Record a failure of an already counted attempt.
    pub fn fail(&mut self, job: &str, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("{job}: {reason}"));
        }
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// Compile a spec, turning a spec error into its rendered message.
pub fn compile_job(job: &Job, source: &str) -> Result<wormserve::CompiledJob, String> {
    compile(source).map_err(|e| e.render(source, &job.name))
}

/// The worker count the batch phase uses: one per available CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over the documents, so two processes can compare their
/// output without shipping it.
pub fn digest<'a>(docs: impl IntoIterator<Item = &'a String>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for doc in docs {
        for b in doc.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One untraced run's raw samples.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Jobs in the workload's set.
    pub jobs: usize,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per cold job.
    pub verdict_ms: Vec<f64>,
    /// Milliseconds per warm replay.
    pub replay_ms: Vec<f64>,
    /// Jobs per second per batch round.
    pub batch_jobs_per_s: Vec<f64>,
    /// `VmHWM` at the end of the run.
    pub peak_rss_mb: f64,
    /// Digest of the cold documents in job order.
    pub digest: String,
    /// Attempts and failures across all phases.
    pub tally: Tally,
}

/// Fresh, empty directory under `work`.
fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_config(dir: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: workers(),
        cache_dir: Some(dir),
        ..ServerConfig::default()
    }
}

/// One batch round's outcome.
pub struct Batch {
    /// Seconds from the first `submit` until `shutdown` returned.
    pub makespan_s: f64,
    /// Milliseconds spent inside `submit` calls (blocked on a full
    /// queue, or pushing).
    pub submit_ms: f64,
    /// The pool's results in submission order.
    pub results: Vec<wormserve::JobResult>,
}

/// Submit every job at once to a fresh worker pool.
pub fn batch_round(jobs: &[Job], dir: PathBuf) -> std::io::Result<Batch> {
    let sources: Vec<(String, String)> = jobs
        .iter()
        .map(|j| (j.name.clone(), j.source.clone()))
        .collect();
    let server = Server::start(batch_config(dir))?;
    let t = Instant::now();
    let mut submit_ms = 0.0;
    for (name, source) in sources {
        let s = Instant::now();
        server.submit(name, source);
        submit_ms += s.elapsed().as_secs_f64() * 1e3;
    }
    let results = server.shutdown();
    Ok(Batch {
        makespan_s: seconds(t),
        submit_ms,
        results,
    })
}

/// Check a batch's results against the serial documents.
pub fn check_batch(
    jobs: &[Job],
    cold: &[Option<String>],
    results: &[wormserve::JobResult],
    tally: &mut Tally,
) {
    if results.len() != jobs.len() {
        tally.fail(
            "batch",
            format!("{} results for {} jobs", results.len(), jobs.len()),
        );
    }
    for ((job, want), got) in jobs.iter().zip(cold).zip(results) {
        let outcome = match (&got.verdict, want) {
            (Err(e), _) => Err(format!("batch error: {e}")),
            _ if got.cached => Err("batch job served from a fresh cache".into()),
            (Ok(doc), Some(want)) if doc != want => {
                Err("batch document differs from the serial pass".into())
            }
            (Ok(doc), _) => check(doc, &job.expect),
        };
        tally.record(&job.name, outcome);
    }
}

/// What the cold pass learned about each job: its canonical hash and
/// its first document, against which every later document is compared.
struct Reference {
    hashes: Vec<Option<String>>,
    docs: Vec<Option<String>>,
}

/// One cold closed-loop pass on a fresh cache at `dir`: compile ->
/// lookup (miss) -> `verdict_json` -> store, timed per job.
fn cold_pass(jobs: &[Job], dir: &Path, reference: &mut Reference, out: &mut Untraced) {
    let cache = match ResultCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => return out.tally.fail("cold", e.to_string()),
    };
    for (i, job) in jobs.iter().enumerate() {
        let t = Instant::now();
        let result = guarded(|| {
            let compiled = compile_job(job, &job.source)?;
            if cache.lookup(&compiled.hash).is_some() {
                return Err("cold lookup hit a fresh cache".into());
            }
            let doc = verdict_json(&compiled);
            cache
                .store(&compiled.hash, &doc)
                .map_err(|e| e.to_string())?;
            Ok((compiled.hash, doc))
        });
        out.verdict_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = result.and_then(|(hash, doc)| {
            check(&doc, &job.expect)?;
            match &reference.docs[i] {
                Some(first) if *first != doc => {
                    Err("a second cold pass produced a different document".into())
                }
                Some(_) => Ok(()),
                None => {
                    reference.docs[i] = Some(doc);
                    reference.hashes[i] = Some(hash);
                    Ok(())
                }
            }
        });
        out.tally.record(&job.name, outcome);
    }
}

/// One warm pass against the cache a cold pass filled: every job
/// resubmitted as a seeded surface rewrite, compile -> lookup (hit).
fn replay_pass(jobs: &[Job], dir: &Path, reference: &Reference, rng: &mut Rng, out: &mut Untraced) {
    let cache = match ResultCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => return out.tally.fail("replay", e.to_string()),
    };
    for (i, job) in jobs.iter().enumerate() {
        let source = match rewrite(&job.base, rng) {
            Ok(source) => source,
            Err(e) => {
                out.tally.record(&job.name, Err(e));
                continue;
            }
        };
        let t = Instant::now();
        let result = guarded(|| {
            let compiled = compile_job(job, &source)?;
            let doc = cache.lookup(&compiled.hash);
            Ok((compiled.hash, doc))
        });
        out.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = result.and_then(|(hash, doc)| match doc {
            _ if Some(&hash) != reference.hashes[i].as_ref() => {
                Err("the rewrite changed the canonical hash".into())
            }
            None => Err("warm replay missed the cache".into()),
            Some(doc) if Some(&doc) != reference.docs[i].as_ref() => {
                Err("warm replay differs from its cold document".into())
            }
            Some(_) => Ok(()),
        });
        out.tally.record(&job.name, outcome);
    }
}

/// Time `count` set-ups, each followed by an untimed shutdown, and
/// check that every one generates the same jobs as `expected` (or the
/// first one). Returns the generated jobs.
fn setups(
    workload: Workload,
    seed: u64,
    count: usize,
    work: &Path,
    expected: Option<&[Job]>,
    out: &mut Untraced,
) -> Vec<Job> {
    let mut first: Option<Vec<Job>> = None;
    for i in 0..count {
        let dir = fresh_dir(work, &format!("setup{i}"));
        let t = Instant::now();
        let generated = workload.generate(seed);
        let cache = ResultCache::open(dir.join("client"));
        let server = Server::start(batch_config(dir.join("pool")));
        out.setup_s.push(seconds(t));
        if let Err(e) = cache.and(server.map(Server::shutdown)) {
            out.tally.fail("setup", e.to_string());
        }
        let _ = std::fs::remove_dir_all(&dir);
        match expected.or(first.as_deref()) {
            Some(jobs) if jobs != generated.as_slice() => {
                out.tally
                    .fail("setup", "the same seed generated different specs".into());
            }
            Some(_) => {}
            None => first = Some(generated),
        }
    }
    first.unwrap_or_default()
}

/// The untraced run: the end-to-end metrics' raw samples.
///
/// After set-up the run repeats rounds of one cold pass, one replay
/// pass and one batch, until `budget_s` has passed and every phase has
/// its minimum sample count. Interleaving spreads each metric's samples
/// over the whole run, so a slow spell of a shared machine weighs on
/// every metric alike instead of on whichever phase it hit.
pub fn run(workload: Workload, seed: u64, budget_s: f64, work: &Path) -> Untraced {
    let mut out = Untraced::default();

    // Set-up: spec generation, cache-directory creation, Server::start.
    // It is sampled at the start and again in every round, so its median
    // spans the whole run like the other metrics.
    let jobs = setups(workload, seed, SETUP_REPEATS, work, None, &mut out);
    out.jobs = jobs.len();
    if jobs.is_empty() {
        return out;
    }

    let started = Instant::now();
    let mut reference = Reference {
        hashes: vec![None; jobs.len()],
        docs: vec![None; jobs.len()],
    };
    let mut rng = Rng::new(seed, 0x7265_706c_6179);
    for round in 0.. {
        let dir = fresh_dir(work, &format!("round{round}"));
        cold_pass(&jobs, &dir.join("cold"), &mut reference, &mut out);
        replay_pass(&jobs, &dir.join("cold"), &reference, &mut rng, &mut out);
        match batch_round(&jobs, dir.join("batch")) {
            Ok(batch) => {
                out.batch_jobs_per_s
                    .push(jobs.len() as f64 / batch.makespan_s);
                check_batch(&jobs, &reference.docs, &batch.results, &mut out.tally);
            }
            Err(e) => out.tally.fail("batch", e.to_string()),
        }
        let _ = std::fs::remove_dir_all(&dir);
        setups(
            workload,
            seed,
            SETUPS_PER_ROUND,
            work,
            Some(&jobs),
            &mut out,
        );
        let enough = out.verdict_ms.len() >= MIN_TIMED_JOBS
            && out.replay_ms.len() >= MIN_TIMED_JOBS
            && round + 1 >= MIN_BATCH_ROUNDS;
        // Failing jobs can starve a minimum; they are already counted,
        // so give up on the minimums at twice the budget.
        let elapsed = seconds(started);
        if elapsed >= budget_s && (enough || elapsed >= 2.0 * budget_s) {
            break;
        }
    }
    out.digest = digest(reference.docs.iter().flatten());
    out.peak_rss_mb = peak_rss_mb();
    out
}
