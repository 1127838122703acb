//! Smoke self-test of the ledger: generation is deterministic, and a
//! few cheap jobs of every workload — one per kind of expectation — go
//! through `wormserve` to the oracle's verdict, replay byte for byte
//! from a surface rewrite, and come back identical from a worker pool.
//!
//! Run with `cargo test --release --manifest-path ledger/Cargo.toml`.

use std::path::PathBuf;

use wormledger::measure::{batch_round, check_batch, compile_job, Tally};
use wormledger::oracle::check;
use wormledger::text::{rewrite, Rng};
use wormledger::workloads::{Job, Workload};
use wormserve::{verdict_json, ResultCache};

const SEED: u64 = 7;

/// The last (smallest) job whose name starts with each prefix.
fn few(workload: Workload) -> Vec<Job> {
    let prefixes: &[&str] = match workload {
        Workload::PaperCorpus => &[
            "fig2+search",
            "fig3_a+search",
            "fig1",
            "ring4_clockwise",
            "mesh_3x3_dor",
        ],
        Workload::FabricScale => &[
            "fattree k = 8",
            "fattree k = 10 +faults",
            "mesh dims = [8, 8]",
        ],
        Workload::CyclicRefute => &[
            "ring-clockwise 8",
            "dragonfly-novc 3x2",
            "fullmesh-ring-detour",
        ],
        Workload::SimTraffic => &[
            "mesh 4x4 uniform 0.02",
            "mesh 4x4 transpose",
            "mesh 4x4 hotspot",
        ],
    };
    let jobs = workload.generate(SEED);
    prefixes
        .iter()
        .map(|p| {
            jobs.iter()
                .rev()
                .find(|j| j.name == *p || j.name.starts_with(&format!("{p} ")))
                .unwrap_or_else(|| panic!("{}: no job named {p}", workload.name()))
                .clone()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn the_same_seed_generates_the_same_distinct_jobs() {
    for workload in Workload::ALL {
        let jobs = workload.generate(SEED);
        assert_eq!(jobs, workload.generate(SEED), "{}", workload.name());
        assert_ne!(jobs, workload.generate(SEED + 1), "{}", workload.name());
        let mut hashes: Vec<String> = jobs
            .iter()
            .map(|j| {
                let spec = wormspec::parse(&j.source).expect("generated specs parse");
                wormspec::content_hash_hex(&spec)
            })
            .collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(
            hashes.len(),
            jobs.len(),
            "{}: duplicate specs",
            workload.name()
        );
    }
}

#[test]
fn a_few_jobs_per_workload_meet_the_oracle_and_replay_exactly() {
    for workload in Workload::ALL {
        let cache = ResultCache::open(scratch(workload.name())).expect("cache dir");
        let mut rng = Rng::new(SEED, 1);
        for job in few(workload) {
            let cold = compile_job(&job, &job.source).expect("compiles");
            assert!(cache.lookup(&cold.hash).is_none());
            let doc = verdict_json(&cold);
            if let Err(e) = check(&doc, &job.expect) {
                panic!("{}: {e}\n{doc}", job.name);
            }
            cache.store(&cold.hash, &doc).expect("store");

            let source = rewrite(&job.base, &mut rng).expect("rewrite");
            assert_ne!(source, job.source, "{}: the rewrite is a no-op", job.name);
            let warm = compile_job(&job, &source).expect("rewrite compiles");
            assert_eq!(warm.hash, cold.hash, "{}:\n{source}", job.name);
            assert_eq!(cache.lookup(&warm.hash).as_deref(), Some(doc.as_str()));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}

#[test]
fn a_batch_equals_the_serial_pass() {
    let jobs = few(Workload::CyclicRefute);
    let serial: Vec<Option<String>> = jobs
        .iter()
        .map(|j| Some(verdict_json(&compile_job(j, &j.source).expect("compiles"))))
        .collect();
    let dir = scratch("batch");
    let batch = batch_round(&jobs, dir.clone()).expect("pool starts");
    let mut tally = Tally::default();
    check_batch(&jobs, &serial, &batch.results, &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (jobs.len() as u64, 0),
        "{:?}",
        tally.reasons
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_oracle_rejects_a_wrong_verdict() {
    let job = &few(Workload::CyclicRefute)[0];
    let doc = verdict_json(&compile_job(job, &job.source).expect("compiles"));
    let mut wrong = job.expect;
    wrong.free = true;
    assert!(check(&doc, &wrong).is_err());
    assert!(check(
        &doc.replace("\"schema\"", "\"error\":1,\"schema\""),
        &job.expect
    )
    .is_err());
}
