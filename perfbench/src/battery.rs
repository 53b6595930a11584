//! `large_battery`: a Barabási–Albert graph large enough that the
//! analyzer auto-selects the streamed shard executor, loaded from an
//! edge file and run through the sampled battery plus the sketch pair
//! and the attack threshold.

use crate::stats;
use crate::sys::{self, digest};
use crate::trace::{self, Ctx, Tracer};
use crate::workload::{self, Check, Config, JobResult, LayerCounters, Metric, Outcome, Size};
use dk_graph::io;
use dk_metrics::{AnalysisCache, AnalyzeOptions, Analyzer, AnyMetric, Report};
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Mutex;

/// `perf_shard`'s sampled battery plus the sketch pair and the attack
/// threshold.
pub const BATTERY: &str = "n,m,gcc_fraction,k_avg,r,c_mean,s,s2,kcore_max,distance_approx,\
betweenness_approx,avg_distance_sketch,effective_diameter_sketch,attack_threshold";

/// Pivot sources of the sampled metrics (the analyzer default).
pub const SAMPLES: usize = 64;
/// HyperLogLog register bits of the sketch metrics, two below the
/// analyzer default: 64 registers a node keep the two register arrays
/// at about 19 MiB instead of 77 MiB, so a battery leans less on the
/// memory bandwidth that neighbouring tenants of a shared host contend
/// for, and a run times about twice as many batteries.
pub const SKETCH_BITS: u32 = 6;

/// Percentile of `battery_tail_s` (`job_tail_ms`).
pub const TAIL_PCT: u32 = 75;

/// Analyzer threads. One: the shard executor's two workers meet at a
/// barrier every round, so a core taken by another tenant stalls both,
/// and with a competing busy thread two workers slowed by about 45%
/// against 15% for one.
pub const THREADS: usize = 1;

/// The generator's parameters at each size. The full size sits above
/// the analyzer's 131 072-node streaming threshold.
pub fn params(size: Size) -> BaParams {
    BaParams {
        nodes: match size {
            Size::Full => 150_000,
            Size::Tiny => 3_000,
        },
        edges_per_node: 2,
        seed_nodes: 3,
    }
}

fn options() -> AnalyzeOptions {
    AnalyzeOptions {
        threads: THREADS,
        samples: SAMPLES,
        sketch_bits: SKETCH_BITS,
        ..AnalyzeOptions::default()
    }
}

fn metrics() -> Vec<AnyMetric> {
    AnyMetric::parse_list(BATTERY).expect("battery names are registered")
}

/// Relative error bound of `avg_distance_sketch` against the sampled
/// `distance_approx`: three HyperLogLog standard errors `1.04/√2^b`.
pub fn sketch_bound(bits: u32) -> f64 {
    3.0 * 1.04 / f64::from(1u32 << bits).sqrt()
}

/// Output checks of one battery report: n and m are the generator's
/// (`m = C(s, 2) + k·(n − s)` for a seed clique of `s` nodes and `k`
/// edges per arriving node), `kcore_max` is `max(k, s − 1)`, the GCC is
/// the whole graph, and the sketch and sampled mean distances agree
/// within [`sketch_bound`].
pub fn check_report(report: &Report, p: &BaParams, bits: u32) -> Vec<Check> {
    let s = p.seed_nodes;
    let want_m = s * (s - 1) / 2 + p.edges_per_node * (p.nodes - s);
    let want_core = p.edges_per_node.max(s - 1);
    let get = |name| report.scalar(name).unwrap_or(f64::NAN);
    let (sketch, sampled) = (get("avg_distance_sketch"), get("distance_approx"));
    let rel = (sketch - sampled).abs() / sampled;
    vec![
        Check::new(
            "n_matches_generator",
            get("n") == p.nodes as f64,
            format!("n = {} want {}", get("n"), p.nodes),
        ),
        Check::new(
            "m_matches_generator",
            get("m") == want_m as f64,
            format!("m = {} want {want_m}", get("m")),
        ),
        Check::new(
            "kcore_max_matches_generator",
            get("kcore_max") == want_core as f64,
            format!("kcore_max = {} want {want_core}", get("kcore_max")),
        ),
        Check::new(
            "gcc_is_whole_graph",
            get("gcc_fraction") == 1.0,
            format!("gcc_fraction = {}", get("gcc_fraction")),
        ),
        Check::new(
            "sketch_distance_within_hll_bound",
            rel <= sketch_bound(bits),
            format!(
                "|{sketch} - {sampled}| / {sampled} = {rel} (bound {})",
                sketch_bound(bits)
            ),
        ),
    ]
}

/// One battery, from the edge file to the report JSON. The untraced
/// run (`cx` = `None`) analyzes through `Analyzer::analyze`; the traced
/// run takes the analysis apart into its layers
/// ([`workload::analyze_traced`]) and wraps the load and the emission
/// in spans.
pub fn run_battery(
    path: &Path,
    cx: Option<Ctx<'_>>,
    counters: &Mutex<LayerCounters>,
) -> Result<(Report, String), String> {
    trace::span(cx, "battery", |cx| {
        let g = trace::span(cx, "graph.io.load", |_| io::load_edge_list(path))
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let report = match cx {
            Some(cx) => workload::analyze_traced(cx, &g, &metrics(), &options(), counters),
            None => Analyzer::new()
                .metrics(metrics())
                .threads(THREADS)
                .sample_sources(SAMPLES)
                .sketch_bits(SKETCH_BITS)
                .analyze(&g),
        };
        let json = trace::span(cx, "metrics.emit", |_| report.to_json());
        Ok((report, json))
    })
}

/// Runs the workload: set-up, then batteries for `cfg.seconds` through
/// [`workload::measure`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let p = params(cfg.size);
    let path = cfg.dir.join("ba.edges");
    // every set-up writes the same file; the last one, the seed's own
    // graph, is the one measured (BA graphs of one size cost alike)
    let (ns, setup_times_s) = workload::timed_setup(cfg.seed, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(&p, &mut rng);
        io::save_edge_list(&g, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(g.node_count())
    })?;
    let setup_s = stats::median(&setup_times_s);
    let mut out = Outcome {
        rss_reset: sys::reset_peak_rss(),
        setup_times_s,
        ..Outcome::default()
    };
    let tracer = Tracer::default();
    let mut counters = LayerCounters::default();
    let measured = workload::measure(cfg, &mut out, 1, |traced, _, trace| {
        let c = Mutex::new(LayerCounters::default());
        let (report, json) = run_battery(&path, traced.then(|| tracer.root(trace)), &c)?;
        if traced {
            counters = c.into_inner().expect("counter lock");
        }
        Ok(JobResult {
            digest: digest(&json),
            checks: check_report(&report, &p, SKETCH_BITS),
            ops: 1,
        })
    })?;
    let peak = measured.peak_rss_mb();
    // about ten batteries a run: their p90 is set by the slowest two
    // and spread half again as much between runs as their p75
    let (p50, tail) = stats::grouped(&measured.per_input, TAIL_PCT);
    let g = io::load_edge_list(&path).map_err(|e| e.to_string())?;
    let plan = AnalysisCache::build(&g, &[], &options()).exec_plan();
    out.exec_plan = Some(plan);
    out.named = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("battery_s", p50 / 1e3, "s"),
        Metric::new("battery_tail_s", tail.value / 1e3, "s"),
        Metric::new("peak_rss_mb", peak, "MiB"),
        Metric::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    out.tails.push(("battery_s".into(), tail.clone()));
    out.params = vec![
        ("input".into(), "\"barabasi_albert\"".into()),
        ("n".into(), ns[ns.len() - 1].to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("edges_per_node".into(), p.edges_per_node.to_string()),
        ("battery".into(), format!("\"{BATTERY}\"")),
        ("samples".into(), SAMPLES.to_string()),
        ("analyzer_threads".into(), THREADS.to_string()),
        ("sketch_bits".into(), SKETCH_BITS.to_string()),
        ("batteries".into(), measured.jobs().to_string()),
    ];
    if cfg.trace {
        let spans = tracer.into_spans();
        let mut values = workload::layer_medians(&spans, |_| true);
        values.extend(workload::counter_values(&counters));
        values.extend(workload::trace_figures(
            &spans,
            |_| true,
            |_| 0,
            p50,
            &["battery"],
        ));
        out.metrics = workload::per_layer_metrics(&values);
        out.spans = spans;
    } else {
        let busy_s = measured.all().iter().sum::<f64>() / 1e3;
        let ops_per_s = measured.jobs() as f64 / busy_s;
        out.metrics = workload::end_to_end([setup_s, p50, tail.value, ops_per_s, peak]);
    }
    Ok(out)
}
