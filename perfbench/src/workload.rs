//! What every workload shares: its configuration, the outcome it hands
//! back, the registered metric names, and the traced form of one
//! `Analyzer::analyze` call.

use crate::stats::Tail;
use crate::trace::{Ctx, Span};
use dk_graph::{traversal, CsrGraph, Graph};
use dk_metrics::metric::Dep;
use dk_metrics::report::{GraphSummary, MetricRecord};
use dk_metrics::Report;
use dk_metrics::{AnalysisCache, AnalyzeOptions, AnyMetric, ExecPlan, GccPolicy, MetricValue};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with units. Each
/// workload maps them onto its own unit of work (see `workloads.json`):
/// a pipeline, a battery, or a serve round.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.load_s", "s"),
    ("graph.traversal.gcc_s", "s"),
    ("graph.traversal.gcc_kept_frac", "ratio"),
    ("graph.csr.build_s", "s"),
    ("core.dist.extract_1k_s", "s"),
    ("core.dist.extract_2k_s", "s"),
    ("core.dist.extract_3k_s", "s"),
    ("core.dist.compare_s", "s"),
    ("core.generate.rewire_0k_s", "s"),
    ("core.generate.rewire_1k_s", "s"),
    ("core.generate.rewire_2k_s", "s"),
    ("core.generate.rewire_3k_s", "s"),
    ("core.generate.target_2k_s", "s"),
    ("mcmc.attempts", "count"),
    ("mcmc.accepted", "count"),
    ("mcmc.accept_ratio", "ratio"),
    ("metrics.cache.base_s", "s"),
    ("metrics.cache.triangles_s", "s"),
    ("metrics.cache.distances_s", "s"),
    ("metrics.cache.traversal_s", "s"),
    ("metrics.cache.sampled_s", "s"),
    ("metrics.sampled.sources", "count"),
    ("metrics.cache.sampled_distances_s", "s"),
    ("metrics.cache.sketch_s", "s"),
    ("metrics.sketch.rounds", "count"),
    ("metrics.cache.spectral_s", "s"),
    ("metrics.exec.streamed", "bool"),
    ("metrics.exec.shards", "count"),
    ("metrics.exec.workers", "count"),
    ("metrics.analyzer.compute_s", "s"),
    ("metrics.attack.sweep_s", "s"),
    ("metrics.emit_s", "s"),
    ("serve.handle.rewire_ms", "ms"),
    ("serve.handle.metric_ms", "ms"),
    ("serve.handle.compare_ms", "ms"),
    ("serve.handle.attack_ms", "ms"),
    ("serve.client.rewire_ms", "ms"),
    ("serve.transport_queue_ms", "ms"),
    ("serve.computed", "count"),
    ("serve.coalesced", "count"),
    ("serve.memo_hits", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("trace.e2e_ms", "ms"),
    ("trace.untraced_e2e_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_self_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Input sizes: the registered workloads, or the tiny ones the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` registers.
    Full,
    /// Seconds-long inputs for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for this run's inputs and daemon socket.
    pub dir: PathBuf,
}

/// Set-up repetitions per run; `setup_s` is their median or mean.
pub const SETUP_REPS: usize = 9;

/// Worker threads a workload uses at most: the container has two cores.
pub const WORKERS: usize = 2;

/// A named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Registered name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// One output check and whether it held.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// Builds a check.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// What a workload run hands back to the printer of the summary line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: graphs built and analyzed, or requests sent.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Output checks (failed ones fail the run).
    pub checks: Vec<Check>,
    /// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced) values.
    pub metrics: Vec<Metric>,
    /// The same run's figures under the workload's own names
    /// (`pipeline_s`, `serve_rps`, …), for the result record.
    pub named: Vec<Metric>,
    /// Which percentile each tail figure reports, over how many samples.
    pub tails: Vec<(String, Tail)>,
    /// Every untraced job time in ms, in run order (the samples behind
    /// `job_p50_ms` and `job_tail_ms`).
    pub job_ms: Vec<f64>,
    /// Every set-up repetition's time in seconds (`setup_s` is their
    /// median).
    pub setup_times_s: Vec<f64>,
    /// Peak RSS of every untraced job in MiB, in run order.
    pub job_peak_mb: Vec<f64>,
    /// Workload parameters (already-serialized JSON values).
    pub params: Vec<(String, String)>,
    /// Execution plan of the traversal passes, when one ran.
    pub exec_plan: Option<ExecPlan>,
    /// Digest of the outputs (reports, table, response bodies).
    pub digest: u64,
    /// Whether every peak-RSS reset (after set-up, and before each
    /// measured batch job) took effect.
    pub rss_reset: bool,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a check, counting a failed one as a failed operation.
    pub fn check(&mut self, check: Check) {
        if !check.passed {
            self.failed += 1;
        }
        self.checks.push(check);
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns every result with
/// every set-up time; a run reports their median (their mean where the
/// run measures every input set up), so work moved into set-up shows as
/// a steady figure rather than one noisy sample. Every
/// repetition but the last sets up a sibling input drawn from a seed
/// derived from `seed`; the last sets up `seed`'s own. The input generators stop early at a
/// seed-dependent point, so the median over several inputs of the
/// family, not one input's cost, is what set-up time reports.
pub fn timed_setup<T>(
    seed: u64,
    mut setup: impl FnMut(u64) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut outs = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        outs.push(setup(setup_seed(seed, rep))?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((outs, times))
}

/// The input seed of set-up repetition `rep` of a run seeded `seed`
/// (see [`timed_setup`]): `seed` itself for the last repetition.
pub fn setup_seed(seed: u64, rep: usize) -> u64 {
    if rep + 1 == SETUP_REPS {
        seed
    } else {
        dk_core::ensemble::derive_seed(seed ^ 0x05e7_0b00, rep as u64)
    }
}

/// What the measurement loop needs from one job.
pub struct JobResult {
    /// Digest of the job's outputs.
    pub digest: u64,
    /// The job's output checks.
    pub checks: Vec<Check>,
    /// Operations the job attempted.
    pub ops: u64,
}

/// Untraced job times of a run, grouped by input.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// `per_input[i]`: the untraced job times on input `i`, in ms.
    pub per_input: Vec<Vec<f64>>,
    /// `peak_mb[i]`: the lowest peak RSS of an untraced job on input
    /// `i`, in MiB, the mark reset before each job. A job's peak cannot
    /// fall below what an earlier job left resident, so the lowest one
    /// is the input's own.
    pub peak_mb: Vec<f64>,
}

impl Measured {
    /// Mean over inputs of each input's peak RSS: the family's inputs
    /// differ in footprint, and this moves far less with the seed than
    /// the highest of them.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_mb.iter().sum::<f64>() / self.peak_mb.len().max(1) as f64
    }

    /// Every untraced job time, in run order within each input.
    pub fn all(&self) -> Vec<f64> {
        self.per_input.iter().flatten().copied().collect()
    }

    /// Untraced jobs run.
    pub fn jobs(&self) -> usize {
        self.per_input.iter().map(Vec::len).sum()
    }
}

/// Runs `job(traced, input, trace_id)` over every input `0..inputs` in
/// turn, whole cycles at a time, until `cfg.seconds` have passed (at
/// least one cycle). Each job is untraced, or in a traced run an
/// untraced and a traced job on the same input back to back, so the
/// tracing overhead is measured under the same conditions. The
/// peak-RSS mark is reset before each job (see [`Measured::peak_mb`]).
/// Every failed check is recorded (and counted as a failed operation);
/// the passing checks of the last job, and whether every job's digest
/// was the first one's on the same input, close the record. The run's
/// digest folds the first digest of every input.
pub fn measure(
    cfg: &Config,
    out: &mut Outcome,
    inputs: usize,
    mut job: impl FnMut(bool, usize, u64) -> Result<JobResult, String>,
) -> Result<Measured, String> {
    let modes: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let mut m = Measured {
        per_input: vec![Vec::new(); inputs],
        peak_mb: vec![f64::INFINITY; inputs],
    };
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); inputs];
    let mut last = Vec::new();
    let start = Instant::now();
    let (mut cycles, mut trace_id) = (0u64, 0u64);
    while cycles == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        for (input, seen) in digests.iter_mut().enumerate() {
            for &traced in modes {
                let reset = crate::sys::reset_peak_rss();
                out.rss_reset &= reset;
                let t = Instant::now();
                let result = job(traced, input, trace_id)?;
                if traced {
                    trace_id += 1;
                } else {
                    m.per_input[input].push(t.elapsed().as_secs_f64() * 1e3);
                    let peak = crate::sys::peak_rss_mb().unwrap_or(f64::NAN);
                    m.peak_mb[input] = m.peak_mb[input].min(peak);
                    out.job_peak_mb.push(peak);
                }
                out.attempted += result.ops;
                for c in result.checks.iter().filter(|c| !c.passed) {
                    out.check(c.clone());
                }
                seen.push(result.digest);
                last = result.checks;
            }
        }
        cycles += 1;
    }
    out.checks.extend(last.into_iter().filter(|c| c.passed));
    let mismatched = digests
        .iter()
        .filter(|d| d.iter().any(|&x| x != d[0]))
        .count();
    out.check(Check::new(
        "digest_repeats_within_run",
        mismatched == 0,
        format!(
            "{} jobs on {inputs} inputs, {mismatched} inputs with differing digests",
            digests.iter().map(Vec::len).sum::<usize>()
        ),
    ));
    let mut h = crate::sys::Fnv::default();
    for d in &digests {
        h.write(&d[0].to_le_bytes());
    }
    out.digest = h.finish();
    out.job_ms = m.all();
    Ok(m)
}

/// The [`END_TO_END`] metrics from their values, in registration order:
/// `setup_s`, `job_p50_ms`, `job_tail_ms`, `ops_per_s`, `peak_rss_mb`.
pub fn end_to_end(values: [f64; 5]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// Counters the traced analysis records where the work happens.
#[derive(Clone, Debug, Default)]
pub struct LayerCounters {
    /// MCMC moves attempted (rewiring and targeting).
    pub mcmc_attempts: u64,
    /// MCMC moves accepted.
    pub mcmc_accepted: u64,
    /// Pivot sources of the last sampled pass.
    pub sampled_sources: usize,
    /// HyperANF rounds of the last sketch pass.
    pub sketch_rounds: usize,
    /// Plan of the last traversal-shaped pass.
    pub exec: Option<ExecPlan>,
    /// Retained GCC share of every analyzed graph.
    pub gcc_kept: Vec<f64>,
}

/// The cache pass a metric reads, named as its layer: passes the
/// analyzer fuses (distances into the Brandes traversal, sampled
/// distances into the sampled traversal) follow the fused pass when the
/// battery contains its reader.
fn pass_of(m: AnyMetric, union: &[Dep]) -> &'static str {
    let deps = m.deps();
    let has = |d: Dep| deps.contains(&d);
    if has(Dep::Betweenness) || (has(Dep::Distances) && union.contains(&Dep::Betweenness)) {
        "metrics.cache.traversal"
    } else if has(Dep::Distances) {
        "metrics.cache.distances"
    } else if has(Dep::Sampled) || (has(Dep::SampledDistances) && union.contains(&Dep::Sampled)) {
        "metrics.cache.sampled"
    } else if has(Dep::SampledDistances) {
        "metrics.cache.sampled_distances"
    } else if has(Dep::Sketch) {
        "metrics.cache.sketch"
    } else if has(Dep::Spectral) {
        "metrics.cache.spectral"
    } else if has(Dep::Triangles) {
        "metrics.cache.triangles"
    } else {
        "metrics.cache.base"
    }
}

/// `Analyzer::analyze(g)` under `opts` (GCC extracted), taken apart
/// into the layers it runs: GCC extraction, the CSR snapshot, one
/// `AnalysisCache::build` per dep pass on the extracted GCC under
/// [`GccPolicy::Whole`] with only the metrics that read that pass, and
/// each metric's compute. Every call is public API, and the assembled
/// report is the one `Analyzer::analyze` returns byte for byte (the
/// workloads check this through their digests).
///
/// Each pass build makes its own CSR snapshot internally; the traced
/// CSR build time of this graph is attributed to `graph.csr.build`
/// inside each such span (its self time is the build minus the CSR).
pub fn analyze_traced(
    cx: Ctx<'_>,
    g: &Graph,
    metrics: &[AnyMetric],
    opts: &AnalyzeOptions,
    counters: &Mutex<LayerCounters>,
) -> Report {
    let (gcc, _) = cx.span("graph.traversal.gcc", |_| traversal::giant_component(g));
    // `AnalysisCache`'s retained-fraction convention (1.0 on an empty input)
    let kept = if g.node_count() == 0 {
        1.0
    } else {
        gcc.node_count() as f64 / g.node_count() as f64
    };
    let csr_s = cx.span("graph.csr.build", |_| {
        let t = Instant::now();
        std::hint::black_box(CsrGraph::from_graph(&gcc));
        t.elapsed().as_secs_f64()
    });
    let union: Vec<Dep> = metrics.iter().flat_map(|m| m.deps()).copied().collect();
    let whole = AnalyzeOptions {
        gcc: GccPolicy::Whole,
        ..*opts
    };
    let mut values: Vec<Option<MetricValue>> = vec![None; metrics.len()];
    let mut passes: Vec<&'static str> = metrics.iter().map(|&m| pass_of(m, &union)).collect();
    passes.sort_unstable();
    passes.dedup();
    for pass in passes {
        let idx: Vec<usize> = (0..metrics.len())
            .filter(|&i| pass_of(metrics[i], &union) == pass)
            .collect();
        let group: Vec<AnyMetric> = idx.iter().map(|&i| metrics[i]).collect();
        let needs_csr = group.iter().flat_map(|m| m.deps()).any(|d| d.implies_csr());
        let inner = needs_csr.then_some(("graph.csr.build", csr_s));
        let cache = cx.span_with(pass, inner, |_| AnalysisCache::build(&gcc, &group, &whole));
        {
            let mut c = counters.lock().expect("counter lock");
            match pass {
                "metrics.cache.sampled" => c.sampled_sources = cache.sampled().sources,
                "metrics.cache.sampled_distances" => {
                    c.sampled_sources = cache.sampled_distances().sources
                }
                "metrics.cache.sketch" => c.sketch_rounds = cache.sketch().neighborhood.len(),
                _ => {}
            }
            if !matches!(pass, "metrics.cache.base" | "metrics.cache.spectral") {
                c.exec = Some(cache.exec_plan());
            }
        }
        for &i in &idx {
            let m = metrics[i];
            let layer = if m.name() == "attack_threshold" {
                "metrics.attack.sweep"
            } else {
                "metrics.analyzer.compute"
            };
            let v = if m.name() == "gcc_fraction" {
                MetricValue::Scalar(kept)
            } else {
                cx.span(layer, |_| m.compute(&cache))
            };
            values[i] = Some(v);
        }
    }
    counters.lock().expect("counter lock").gcc_kept.push(kept);
    Report {
        graph: GraphSummary {
            nodes: g.node_count(),
            edges: g.edge_count(),
            analyzed_nodes: gcc.node_count(),
            analyzed_edges: gcc.edge_count(),
            gcc_fraction: kept,
            gcc_applied: true,
        },
        records: metrics
            .iter()
            .zip(values)
            .map(|(&metric, value)| MetricRecord {
                metric,
                value: value.expect("every metric belongs to one pass"),
            })
            .collect(),
    }
}

/// Median over the traces `keep` selects of each layer's self time, in
/// seconds, keyed by the span name with `_s` appended.
pub fn layer_medians(spans: &[Span], keep: impl Fn(u64) -> bool) -> Vec<(String, f64)> {
    let mut bd = crate::trace::breakdown(spans);
    bd.layers.retain(|&t, _| keep(t));
    let mut names: Vec<&'static str> = bd.layers.values().flat_map(|l| l.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let per: Vec<f64> = bd
                .layers
                .values()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            (format!("{name}_s"), crate::stats::median(&per))
        })
        .collect()
}

/// Fills [`PER_LAYER`] in order from `values` (missing layers read 0).
pub fn per_layer_metrics(values: &[(String, f64)]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric::new(name, v, unit)
        })
        .collect()
}

/// The trace-accounting figures of a traced run over the traces `keep`
/// selects: traced and untraced job time, overhead, summed layer self
/// time, and the share of traced time no layer span covers (container
/// spans' own self time). Each figure is the mean over `group`s of the
/// per-group median, as the untraced serve figures are per client.
pub fn trace_figures(
    spans: &[Span],
    keep: impl Fn(u64) -> bool,
    group: impl Fn(u64) -> u64,
    untraced_ms: f64,
    containers: &[&str],
) -> Vec<(String, f64)> {
    let mut bd = crate::trace::breakdown(spans);
    bd.layers.retain(|&t, _| keep(t));
    bd.roots.retain(|&t, _| keep(t));
    // mean over groups (serve clients) of each group's median, the same
    // aggregation as the untraced figure it is compared with
    let grouped = |per_trace: Vec<(u64, f64)>| {
        let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (t, v) in per_trace {
            groups.entry(group(t)).or_default().push(v);
        }
        let medians: Vec<f64> = groups.values().map(|v| crate::stats::median(v)).collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    };
    let traced = grouped(bd.roots.iter().map(|(&t, s)| (t, s * 1e3)).collect());
    let in_containers = |l: &BTreeMap<&'static str, f64>, inside: bool| -> f64 {
        l.iter()
            .filter(|(n, _)| containers.contains(n) == inside)
            .map(|(_, s)| s)
            .sum()
    };
    let self_ms = grouped(
        bd.layers
            .iter()
            .map(|(&t, l)| (t, in_containers(l, false) * 1e3))
            .collect(),
    );
    let unattributed = grouped(
        bd.layers
            .iter()
            .map(|(&t, l)| {
                (
                    t,
                    in_containers(l, true) / bd.roots[&t].max(f64::MIN_POSITIVE),
                )
            })
            .collect(),
    );
    vec![
        ("trace.e2e_ms".into(), traced),
        ("trace.untraced_e2e_ms".into(), untraced_ms),
        ("trace.overhead_ms".into(), traced - untraced_ms),
        (
            "trace.overhead_frac".into(),
            (traced - untraced_ms) / untraced_ms,
        ),
        ("trace.layer_self_ms".into(), self_ms),
        ("trace.unattributed_frac".into(), unattributed),
        (
            "trace.spans".into(),
            spans.iter().filter(|s| keep(s.trace)).count() as f64,
        ),
    ]
}

/// The counter-derived per-layer values.
pub fn counter_values(c: &LayerCounters) -> Vec<(String, f64)> {
    let mut v = vec![
        ("mcmc.attempts".to_string(), c.mcmc_attempts as f64),
        ("mcmc.accepted".into(), c.mcmc_accepted as f64),
        (
            "mcmc.accept_ratio".into(),
            if c.mcmc_attempts == 0 {
                0.0
            } else {
                c.mcmc_accepted as f64 / c.mcmc_attempts as f64
            },
        ),
        ("metrics.sampled.sources".into(), c.sampled_sources as f64),
        ("metrics.sketch.rounds".into(), c.sketch_rounds as f64),
        (
            "graph.traversal.gcc_kept_frac".into(),
            crate::stats::median(&c.gcc_kept),
        ),
    ];
    if let Some(p) = c.exec {
        v.push((
            "metrics.exec.streamed".into(),
            f64::from(u8::from(p.streamed)),
        ));
        v.push(("metrics.exec.shards".into(), p.shards as f64));
        v.push(("metrics.exec.workers".into(), p.workers as f64));
    }
    v
}

/// JSON value of an execution plan.
pub fn plan_json(p: &ExecPlan) -> String {
    dk_metrics::json::object([
        ("streamed".into(), p.streamed.to_string()),
        ("shards".into(), p.shards.to_string()),
        ("workers".into(), p.workers.to_string()),
    ])
}
