//! # wormledger — the `wormserve` verdict ledger
//!
//! A benchmark of the path a user of this repository hits: one `.wspec`
//! in, one `wormserve/1` verdict document out. It generates seeded
//! spec text for four workloads ([`workloads`]), times it through
//! `wormserve`'s public API from outside ([`measure`]), checks every
//! document against a hand-written oracle ([`oracle`]), and in a
//! separate traced run attributes the time to the layers underneath
//! ([`traced`]). `README.md` in this directory explains the workloads,
//! the layer → metric → workload map, and the baseline findings.

#![forbid(unsafe_code)]

pub mod json;
pub mod measure;
pub mod oracle;
pub mod text;
pub mod traced;
pub mod workloads;

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end metrics of an untraced run, in ledger order:
/// `(name, value, unit)`.
pub fn end_to_end(run: &measure::Untraced) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("verdict_ms_p50", percentile(&run.verdict_ms, 0.5), "ms"),
        ("verdict_ms_p90", percentile(&run.verdict_ms, 0.9), "ms"),
        ("replay_ms_p50", percentile(&run.replay_ms, 0.5), "ms"),
        ("replay_ms_p90", percentile(&run.replay_ms, 0.9), "ms"),
        (
            "batch_jobs_per_s",
            percentile(&run.batch_jobs_per_s, 0.5),
            "1/s",
        ),
        ("peak_rss_mb", run.peak_rss_mb, "MiB"),
        ("setup_s", percentile(&run.setup_s, 0.5), "s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
