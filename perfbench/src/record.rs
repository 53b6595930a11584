//! Workload dispatch and the two output lines of a run: the full result
//! record, and the summary line printed last.

use crate::workload::{Check, Config, Outcome};
use crate::{battery, pipeline, serve, sys};
use dk_metrics::json;
use std::path::Path;

/// Registered workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["paper_pipeline", "large_battery", "serve_mixed"];

/// Runs workload `name`.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "paper_pipeline" => pipeline::run(cfg),
        "large_battery" => battery::run(cfg),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Compares `digest` with the one stored for the same workload, size,
/// seed and source digest by an earlier run under `store`, storing it
/// when none is: the same seed must reproduce the same outputs across
/// runs, traced or not.
pub fn cross_run_digest(store: &Path, key: &str, digest: u64) -> Check {
    let path = store.join(format!("{key}.digest"));
    let now = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(before) => Check::new(
            "digest_repeats_across_runs",
            before.trim() == now,
            format!("stored {} now {now}", before.trim()),
        ),
        Err(_) => {
            let stored = std::fs::create_dir_all(store).and_then(|_| std::fs::write(&path, &now));
            Check::new(
                "digest_repeats_across_runs",
                stored.is_ok(),
                format!("first run for this key, stored {now}"),
            )
        }
    }
}

/// Whether every check held and no operation failed.
pub fn correct(out: &Outcome) -> bool {
    out.failed == 0 && out.checks.iter().all(|c| c.passed)
}

/// The summary line printed last: `correct`, `attempted`, `failed`, and
/// every metric with its unit.
pub fn summary_line(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name.clone(),
            json::object([
                ("value".into(), json::number(m.value)),
                ("unit".into(), format!("\"{}\"", json::escape(&m.unit))),
            ]),
        )
    });
    json::object([
        ("correct".into(), correct(out).to_string()),
        ("attempted".into(), out.attempted.max(1).to_string()),
        ("failed".into(), out.failed.to_string()),
        ("metrics".into(), json::object(metrics)),
    ])
}

/// The full result record of `workload` run under `cfg` from the source
/// tree at `root`: provenance (commit, source digest, cores, workers,
/// seed), workload parameters, exec plan, tail percentiles with sample
/// counts, every job time, the workload's own metric names, every
/// check, and the output digest.
pub fn record_json(workload: &str, cfg: &Config, root: &Path, out: &Outcome) -> String {
    let q = |s: &str| format!("\"{}\"", json::escape(s));
    let metrics = |ms: &[crate::workload::Metric]| {
        json::object(ms.iter().map(|m| {
            (
                m.name.clone(),
                json::object([
                    ("value".into(), json::number(m.value)),
                    ("unit".into(), q(&m.unit)),
                ]),
            )
        }))
    };
    json::object([
        ("workload".into(), q(workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), json::number(cfg.seconds)),
        ("trace".into(), cfg.trace.to_string()),
        ("commit".into(), q(&sys::commit(root))),
        ("source_digest".into(), q(&sys::source_digest(root))),
        ("nproc".into(), sys::nproc().to_string()),
        ("workers".into(), crate::workload::WORKERS.to_string()),
        ("setup_reps".into(), crate::workload::SETUP_REPS.to_string()),
        ("params".into(), json::object(out.params.clone())),
        (
            "exec_plan".into(),
            out.exec_plan
                .as_ref()
                .map_or("null".into(), crate::workload::plan_json),
        ),
        (
            "tails".into(),
            json::object(out.tails.iter().map(|(name, t)| {
                (
                    name.clone(),
                    json::object([
                        ("percentile".into(), q(&t.label)),
                        ("value".into(), json::number(t.value)),
                        ("samples".into(), t.samples.to_string()),
                        ("beyond".into(), t.beyond.to_string()),
                    ]),
                )
            })),
        ),
        (
            "job_ms".into(),
            json::array(out.job_ms.iter().map(|&x| json::number(x))),
        ),
        (
            "setup_times_s".into(),
            json::array(out.setup_times_s.iter().map(|&x| json::number(x))),
        ),
        (
            "job_peak_mb".into(),
            json::array(out.job_peak_mb.iter().map(|&x| json::number(x))),
        ),
        ("rss_reset".into(), out.rss_reset.to_string()),
        ("named".into(), metrics(&out.named)),
        ("metrics".into(), metrics(&out.metrics)),
        (
            "checks".into(),
            json::array(out.checks.iter().map(|c| {
                json::object([
                    ("name".into(), q(&c.name)),
                    ("passed".into(), c.passed.to_string()),
                    ("detail".into(), q(&c.detail)),
                ])
            })),
        ),
        ("attempted".into(), out.attempted.to_string()),
        ("failed".into(), out.failed.to_string()),
        ("digest".into(), q(&format!("{:016x}", out.digest))),
        ("spans".into(), out.spans.len().to_string()),
    ])
}
