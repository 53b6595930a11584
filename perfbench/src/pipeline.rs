//! `paper_pipeline`: the paper's own loop (Table 6 protocol) on
//! skitter-like AS inputs, from the edge file on disk to the rendered
//! table.
//!
//! One pipeline loads the file; extracts 1K, 2K and 3K; builds dK-random
//! replicas for d = 0..3 by dK-randomizing rewiring plus one 2K graph by
//! targeting the extracted JDD; runs the paper's default battery on
//! every GCC; computes D_d of each replica against the original by
//! re-extraction; and renders the table. Replicas fan out over
//! [`WORKERS`] ensemble workers. A run cycles over several inputs of
//! the family (see [`run`]).

use crate::stats;
use crate::sys::{self, Fnv};
use crate::trace::{self, Ctx, Tracer};
use crate::workload::{
    self, Check, Config, JobResult, LayerCounters, Metric, Outcome, Size, WORKERS,
};
use dk_core::dist::{AnyDist, Dist1K, Dist2K, Dist3K};
use dk_core::generate::rewire::{self, RewireOptions};
use dk_core::generate::target::{self, Bootstrap, TargetOptions};
use dk_graph::{io, Graph};
use dk_metrics::json;
use dk_metrics::{AnalysisCache, AnalyzeOptions, Analyzer, AnyMetric, MetricTable, Report};
use dk_topologies::as_like::{self, AsLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One graph of the ensemble: what it is and how it is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replica {
    /// The input itself (analyzed, not built).
    Original,
    /// dK-randomizing rewiring at order `d`.
    Rewire(u8),
    /// 2K-targeting construction from the extracted JDD.
    Target2K,
}

impl Replica {
    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            Replica::Original => "skitter",
            Replica::Rewire(0) => "0K",
            Replica::Rewire(1) => "1K",
            Replica::Rewire(2) => "2K",
            Replica::Rewire(_) => "3K",
            Replica::Target2K => "2K-targ",
        }
    }

    /// The D_d orders compared against the original: d and d + 1 (up
    /// to 3) for a dK-random replica, 1 and 2 for the 2K-targeted graph.
    pub fn compared_orders(self) -> Vec<u8> {
        match self {
            Replica::Original => vec![],
            Replica::Rewire(d) => (d..=(d + 1).min(3)).collect(),
            Replica::Target2K => vec![1, 2],
        }
    }
}

/// Ensemble jobs, slowest first so the two workers finish together.
const JOBS: [Replica; 6] = [
    Replica::Target2K,
    Replica::Rewire(3),
    Replica::Rewire(2),
    Replica::Rewire(1),
    Replica::Rewire(0),
    Replica::Original,
];

/// Table row order.
const ROWS: [Replica; 6] = [
    Replica::Original,
    Replica::Rewire(0),
    Replica::Rewire(1),
    Replica::Rewire(2),
    Replica::Rewire(3),
    Replica::Target2K,
];

/// One ensemble job's result.
#[derive(Clone, Debug)]
pub struct JobOut {
    /// Which graph.
    pub replica: Replica,
    /// Its battery report (`None` when the build failed).
    pub report: Option<Report>,
    /// `(d, D_d(original, replica))`.
    pub dists: Vec<(u8, f64)>,
    /// The targeting run's own final D_2 (2K-targeted graph only).
    pub target_distance: Option<f64>,
    /// Build error, if any.
    pub error: Option<String>,
}

/// One pipeline's outputs.
#[derive(Clone, Debug)]
pub struct PipelineOut {
    /// Jobs in table-row order.
    pub jobs: Vec<JobOut>,
    /// The rendered table.
    pub table: String,
}

impl PipelineOut {
    /// Digest of the table, every report, and every D_d.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.write_str(&self.table);
        for j in &self.jobs {
            h.write_str(j.replica.label());
            if let Some(r) = &j.report {
                h.write_str(&r.to_json());
            }
            for (d, dist) in &j.dists {
                h.write_str(&format!("D{d}={dist:e}"));
            }
        }
        h.finish()
    }
}

/// Whether two D_d values computed by different code paths agree (they
/// sum the same squares in possibly different orders).
fn same_distance(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The output checks of one pipeline:
///
/// * a dK-random replica is at D_d = 0 from the original by
///   re-extraction, and for d < 3 at D_{d+1} > 0 (rewiring moved the
///   graph: a generator that hands back its reference fails here);
/// * the 2K-targeted graph has the original's degrees exactly
///   (D_1 = 0, the matching bootstrap's guarantee) and its re-extracted
///   D_2 equals the targeting run's own final distance;
/// * every build succeeded.
pub fn check_pipeline(out: &PipelineOut) -> Vec<Check> {
    let mut checks = Vec::new();
    for j in &out.jobs {
        let label = j.replica.label();
        if let Some(e) = &j.error {
            checks.push(Check::new(format!("build_{label}"), false, e.clone()));
            continue;
        }
        for &(d, dist) in &j.dists {
            let shown = format!("D{d} = {dist}");
            let (what, ok, detail) = match j.replica {
                Replica::Rewire(k) if k == d => ("zero", dist == 0.0, shown),
                Replica::Rewire(_) => ("moved", dist > 0.0, shown),
                Replica::Target2K if d == 1 => ("zero", dist == 0.0, shown),
                _ => {
                    let want = j.target_distance.unwrap_or(f64::NAN);
                    let detail = format!("{shown}, targeting reported {want}");
                    ("matches_targeting", same_distance(dist, want), detail)
                }
            };
            checks.push(Check::new(format!("D{d}_{what}_{label}"), ok, detail));
        }
    }
    checks
}

/// The skitter-like generator's parameters at each size. The full size
/// is 2000 nodes, between the CI-scale preset (900) and the paper's
/// Table 6 input (9204), with the anneal budget scaled alike: the same
/// degree tail, mean degree and clustering target, on the same
/// in-memory route. At the paper's size one pipeline takes 12–17 s on
/// two cores, so a run would time only one or two of them; at this
/// size it takes about a second and a run's median rests on dozens.
pub fn params(size: Size) -> AsLikeParams {
    match size {
        Size::Full => AsLikeParams {
            nodes: 2000,
            anneal_attempts: 650_000,
            ..AsLikeParams::default()
        },
        Size::Tiny => AsLikeParams::small(),
    }
}

fn analyze_options() -> AnalyzeOptions {
    // the ensemble runner's per-replica setting: the fan-out owns the
    // workers, each analysis runs on one thread
    AnalyzeOptions {
        threads: 1,
        ..AnalyzeOptions::default()
    }
}

/// The original's order-0..3 distributions (a span per extraction
/// when traced).
pub fn extract_all(g: &Graph, cx: Option<Ctx<'_>>) -> Vec<AnyDist> {
    let d1 = trace::span(cx, "core.dist.extract_1k", |_| {
        AnyDist::D1(Dist1K::from_graph(g))
    });
    let d0 = AnyDist::D0(d1.as_1k().expect("order 1").to_0k());
    let d2 = trace::span(cx, "core.dist.extract_2k", |_| {
        AnyDist::D2(Dist2K::from_graph(g))
    });
    let d3 = trace::span(cx, "core.dist.extract_3k", |_| {
        AnyDist::D3(Dist3K::from_graph(g))
    });
    vec![d0, d1, d2, d3]
}

fn extract_span(d: u8) -> &'static str {
    match d {
        0 | 1 => "core.dist.extract_1k",
        2 => "core.dist.extract_2k",
        _ => "core.dist.extract_3k",
    }
}

/// `(d, D_d)` of `g` against the original's distributions `orig` for
/// each order in `orders`, re-extracting `g` (spans when traced).
pub fn compare(g: &Graph, orig: &[AnyDist], orders: &[u8], cx: Option<Ctx<'_>>) -> Vec<(u8, f64)> {
    orders
        .iter()
        .map(|&d| {
            let mine = trace::span(cx, extract_span(d), |_| AnyDist::from_graph(d, g))
                .expect("a graph has every order's distribution");
            let dist = trace::span(cx, "core.dist.compare", |_| {
                orig[d as usize].distance_sq(&mine)
            });
            (d, dist.expect("same order"))
        })
        .collect()
}

fn table_of(jobs: &[JobOut]) -> String {
    let mut table = MetricTable::new();
    for j in jobs {
        if let Some(r) = &j.report {
            table.push(j.replica.label(), r.clone());
        }
    }
    let mut text = table.render();
    for j in jobs {
        for (d, dist) in &j.dists {
            text.push_str(&format!(
                "\nD{d}({}, skitter) = {dist:e}",
                j.replica.label()
            ));
        }
    }
    text
}

fn generate_span(d: u8) -> &'static str {
    match d {
        0 => "core.generate.rewire_0k",
        1 => "core.generate.rewire_1k",
        2 => "core.generate.rewire_2k",
        _ => "core.generate.rewire_3k",
    }
}

/// Builds one replica (`None` for the original): `rewire::randomize`
/// on a clone of the reference, or `target::generate_2k_random` from
/// the extracted JDD — what the `Generator` facade's rewiring and
/// targeting methods run, called directly so their MCMC counters can be
/// read. Returns the graph and the targeting run's final D_2.
fn build(
    replica: Replica,
    g: &Graph,
    orig: &[AnyDist],
    rng: &mut StdRng,
    cx: Option<Ctx<'_>>,
    counters: &Mutex<LayerCounters>,
) -> Result<(Option<Graph>, Option<f64>), String> {
    let (built, attempts, accepted, target_distance) = match replica {
        Replica::Original => return Ok((None, None)),
        Replica::Rewire(d) => {
            let (graph, stats) = trace::span(cx, generate_span(d), |_| {
                let mut graph = g.clone();
                let stats = rewire::randomize(&mut graph, d, &RewireOptions::default(), rng);
                (graph, stats)
            });
            (graph, stats.attempts, stats.accepted, None)
        }
        Replica::Target2K => {
            let (graph, stats) = trace::span(cx, "core.generate.target_2k", |_| {
                target::generate_2k_random(
                    orig[2].as_2k().expect("order 2"),
                    Bootstrap::default(),
                    &TargetOptions::default(),
                    rng,
                )
            })
            .map_err(|e| e.to_string())?;
            let fin = Some(stats.final_distance);
            (graph, stats.attempts, stats.accepted, fin)
        }
    };
    let mut c = counters.lock().expect("counter lock");
    c.mcmc_attempts += attempts;
    c.mcmc_accepted += accepted;
    Ok((Some(built), target_distance))
}

/// One pipeline, from the edge file on disk to the rendered table. The
/// untraced run (`cx` = `None`) analyzes through `Analyzer::analyze`;
/// the traced run takes the analysis apart into its layers
/// ([`workload::analyze_traced`]) and wraps every other call in a span.
/// Both build the same graphs from the same seed.
pub fn run_pipeline(
    path: &Path,
    seed: u64,
    cx: Option<Ctx<'_>>,
    counters: &Mutex<LayerCounters>,
) -> Result<PipelineOut, String> {
    trace::span(cx, "pipeline", |cx| {
        let g = trace::span(cx, "graph.io.load", |_| io::load_edge_list(path))
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let orig = extract_all(&g, cx);
        let opts = analyze_options();
        let metrics = AnyMetric::default_set();
        let analyze = |graph: &Graph, cx: Option<Ctx<'_>>| match cx {
            Some(cx) => workload::analyze_traced(cx, graph, &metrics, &opts, counters),
            None => Analyzer::new().threads(opts.threads).analyze(graph),
        };
        let mut jobs = trace::span(cx, "pipeline.fanout", |cx| {
            dk_core::ensemble::run(JOBS.len() as u64, seed, WORKERS, |i, rng| {
                let replica = JOBS[i as usize];
                trace::span(cx, "pipeline.replica", |cx| {
                    match build(replica, &g, &orig, rng, cx, counters) {
                        Err(e) => JobOut {
                            replica,
                            report: None,
                            dists: vec![],
                            target_distance: None,
                            error: Some(e),
                        },
                        Ok((built, target_distance)) => {
                            let graph = built.as_ref().unwrap_or(&g);
                            JobOut {
                                replica,
                                report: Some(analyze(graph, cx)),
                                dists: compare(graph, &orig, &replica.compared_orders(), cx),
                                target_distance,
                                error: None,
                            }
                        }
                    }
                })
            })
        });
        jobs.sort_by_key(|j| ROWS.iter().position(|&r| r == j.replica));
        let table = trace::span(cx, "metrics.emit", |_| {
            for j in &jobs {
                if let Some(r) = &j.report {
                    std::hint::black_box(r.to_json());
                }
            }
            table_of(&jobs)
        });
        Ok(PipelineOut { jobs, table })
    })
}

/// Writes the skitter-like input for `seed` to `cfg.dir`; returns its
/// path and `(n, m)`.
fn setup(cfg: &Config, seed: u64) -> Result<(PathBuf, (usize, usize)), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = as_like::skitter_like(&params(cfg.size), &mut rng);
    let path = cfg.dir.join(format!("skitter_like-{seed}.edges"));
    io::save_edge_list(&g, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, (g.node_count(), g.edge_count())))
}

/// Runs the workload: set-up, then pipelines for `cfg.seconds` through
/// [`workload::measure`], cycling over every input the set-up wrote
/// (the seed's own and its siblings): the skitter-like family's cost
/// varies from one input to the next (its degree tail is heavy), so a
/// figure over several inputs moves far less with the seed than one
/// input's would.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (mut inputs, setup_times_s) = workload::timed_setup(cfg.seed, |seed| setup(cfg, seed))?;
    // smallest first: memory a larger input leaves resident would
    // otherwise raise the first peak of every input after it
    inputs.sort_by_key(|(_, (_, m))| *m);
    // every set-up writes an input the run measures, so set-up time is
    // their mean: one input's anneal stops after one chunk or after
    // several, and a median over nine jumped between those two modes
    let setup_s = setup_times_s.iter().sum::<f64>() / setup_times_s.len() as f64;
    let mut out = Outcome {
        rss_reset: sys::reset_peak_rss(),
        setup_times_s,
        ..Outcome::default()
    };
    // the ensemble's master seed, kept apart from the input generator's
    let ens_seed = cfg.seed ^ 0x007a_b1e6;
    let tracer = Tracer::default();
    let mut counters = LayerCounters::default();
    let measured = workload::measure(cfg, &mut out, inputs.len(), |traced, i, trace| {
        let c = Mutex::new(LayerCounters::default());
        let cx = traced.then(|| tracer.root(trace));
        let result = run_pipeline(&inputs[i].0, ens_seed, cx, &c)?;
        if traced {
            counters = c.into_inner().expect("counter lock");
        }
        Ok(JobResult {
            digest: result.digest(),
            checks: check_pipeline(&result),
            ops: JOBS.len() as u64,
        })
    })?;
    let peak = measured.peak_rss_mb();
    let (p50, tail) = stats::grouped(&measured.per_input, 90);
    out.named = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("pipeline_s", p50 / 1e3, "s"),
        Metric::new("pipeline_tail_s", tail.value / 1e3, "s"),
        Metric::new("peak_rss_mb", peak, "MiB"),
        Metric::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    out.tails.push(("pipeline_s".into(), tail.clone()));
    out.params = vec![
        ("input".into(), "\"skitter_like\"".into()),
        ("nodes".into(), params(cfg.size).nodes.to_string()),
        (
            "inputs_n_m".into(),
            json::array(inputs.iter().map(|(_, (n, m))| format!("[{n},{m}]"))),
        ),
        ("replicas".into(), (JOBS.len() - 1).to_string()),
        ("battery".into(), "\"default\"".into()),
        ("ensemble_workers".into(), WORKERS.to_string()),
        ("pipelines".into(), measured.jobs().to_string()),
    ];
    if cfg.trace {
        let spans = tracer.into_spans();
        let mut values = workload::layer_medians(&spans, |_| true);
        values.extend(workload::counter_values(&counters));
        // traced job `t` ran on input `t mod inputs`, as its untraced twin
        let k = inputs.len() as u64;
        values.extend(workload::trace_figures(
            &spans,
            |_| true,
            |t| t % k,
            p50,
            &["pipeline", "pipeline.fanout", "pipeline.replica"],
        ));
        out.exec_plan = counters.exec;
        out.metrics = workload::per_layer_metrics(&values);
        out.spans = spans;
    } else {
        let path = &inputs[inputs.len() - 1].0;
        let g = io::load_edge_list(path).map_err(|e| format!("load {}: {e}", path.display()))?;
        out.exec_plan = Some(AnalysisCache::build(&g, &[], &analyze_options()).exec_plan());
        let busy_s = measured.all().iter().sum::<f64>() / 1e3;
        let ops_per_s = (JOBS.len() * measured.jobs()) as f64 / busy_s;
        out.metrics = workload::end_to_end([setup_s, p50, tail.value, ops_per_s, peak]);
    }
    Ok(out)
}
