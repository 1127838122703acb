//! `wormledger` — run one workload once and print one JSON line.
//!
//! ```text
//! wormledger --workload NAME --seed N --seconds S --trace 0|1 --work DIR [--spans FILE]
//! ```
//!
//! `run.py` in this directory builds this binary and runs it in a child
//! process per workload; see README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use wormledger::json::{num, nums, obj, quote};
use wormledger::workloads::Workload;
use wormledger::{end_to_end, measure, traced};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work, mut spans) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: work.ok_or("--work is required")?,
        spans,
    })
}

fn metrics(list: &[(&str, f64, &str)]) -> String {
    let fields: Vec<(&str, String)> = list
        .iter()
        .map(|&(name, value, unit)| (name, obj(&[("value", num(value)), ("unit", quote(unit))])))
        .collect();
    obj(&fields)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wormledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("wormledger: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("workers", measure::workers().to_string()),
    ];
    let tally = if args.trace {
        let run = traced::run(args.workload, args.seed, args.seconds, &args.work);
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, run.spans.to_json()) {
                eprintln!("wormledger: cannot write spans: {e}");
            }
        }
        fields.push(("metrics", metrics(&run.metrics)));
        run.tally
    } else {
        let run = measure::run(args.workload, args.seed, args.seconds, &args.work);
        fields.extend([
            ("jobs", run.jobs.to_string()),
            ("digest", quote(&run.digest)),
            ("metrics", metrics(&end_to_end(&run))),
            (
                "samples",
                obj(&[
                    ("setup_s", nums(&run.setup_s)),
                    ("verdict_ms", nums(&run.verdict_ms)),
                    ("replay_ms", nums(&run.replay_ms)),
                    ("batch_jobs_per_s", nums(&run.batch_jobs_per_s)),
                ]),
            ),
        ]);
        run.tally
    };
    let reasons: Vec<String> = tally.reasons.iter().map(|r| quote(r)).collect();
    fields.extend([
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
        ("failures", format!("[{}]", reasons.join(","))),
    ]);
    let line = obj(&fields);
    println!("{line}");
    ExitCode::SUCCESS
}
