//! The benchmark's own tests: tiny-size runs of every workload print
//! exactly the metric names `BENCHMARK.json` registers, and every output
//! check fires on a deliberately broken input.

use dk_core::generate::rewire::{self, RewireOptions};
use dk_core::generate::target::{self, Bootstrap, TargetOptions};
use dk_graph::{builders, Graph};
use dk_json::JsonValue;
use dk_metrics::{Analyzer, MetricValue};
use dk_perfbench::battery;
use dk_perfbench::pipeline::{self, JobOut, PipelineOut, Replica};
use dk_perfbench::record;
use dk_perfbench::serve::{self, ClientLog};
use dk_perfbench::workload::{Config, Size, END_TO_END, PER_LAYER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    JsonValue::parse(&text).unwrap()
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn registered(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn tiny(name: &str, trace: bool) -> Config {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Config {
        seed: 5,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        dir,
    }
}

/// Runs `workload` at tiny size, untraced and traced, and checks that
/// the summary line is correct and names exactly the registered metrics
/// with their units.
fn tiny_run_prints_registered_metrics(workload: &str) {
    for trace in [false, true] {
        let out = record::run_workload(workload, &tiny(workload, trace)).unwrap();
        let line = JsonValue::parse(&record::summary_line(&out)).unwrap();
        assert_eq!(
            line.get("correct").and_then(JsonValue::as_bool),
            Some(true),
            "{workload} trace={trace}: {:?}",
            out.checks
        );
        assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
        let printed: Vec<(String, String)> = line
            .get("metrics")
            .and_then(JsonValue::entries)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        let key = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(printed, registered(key), "{workload} trace={trace}");
        if !trace {
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                out.metrics
            );
        }
    }
}

#[test]
fn benchmark_json_registers_the_workloads_and_metric_lists() {
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, record::WORKLOADS);
    assert_eq!(registered("end_to_end"), owned(END_TO_END));
    assert_eq!(registered("per_layer"), owned(PER_LAYER));
}

#[test]
fn workload_docs_cover_every_workload_with_registered_layers() {
    let text = std::fs::read_to_string(root().join("perfbench/workloads.json")).unwrap();
    let docs = JsonValue::parse(&text).unwrap();
    let e2e: Vec<String> = registered("end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let layers: Vec<String> = registered("per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mut held_out = Vec::new();
    for w in record::WORKLOADS {
        let doc = docs.get("workloads").and_then(|d| d.get(w)).unwrap();
        for key in ["why", "loop", "input"] {
            assert!(
                doc.get(key).and_then(JsonValue::as_str).is_some(),
                "{w}.{key}"
            );
        }
        for key in ["stresses", "bypasses", "named_metrics", "checks"] {
            assert!(!doc
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .is_empty());
        }
        for (layer, target) in doc
            .get("layer_to_e2e")
            .and_then(JsonValue::entries)
            .unwrap()
        {
            assert!(layers.contains(layer), "{w}: unregistered layer {layer}");
            assert!(
                e2e.contains(&target.as_str().unwrap().to_string()),
                "{w}: {layer}"
            );
        }
        held_out.push(
            doc.get("held_out_seed")
                .and_then(JsonValue::as_u64)
                .unwrap(),
        );
    }
    held_out.sort_unstable();
    held_out.dedup();
    assert_eq!(held_out.len(), record::WORKLOADS.len());
}

#[test]
fn paper_pipeline_tiny_run() {
    tiny_run_prints_registered_metrics("paper_pipeline");
}

#[test]
fn large_battery_tiny_run() {
    tiny_run_prints_registered_metrics("large_battery");
}

#[test]
fn serve_mixed_tiny_run() {
    tiny_run_prints_registered_metrics("serve_mixed");
}

/// The `JobOut` of `replica` built as `built` from `g`, compared at the
/// replica's orders.
fn job(g: &Graph, replica: Replica, built: &Graph, target_distance: Option<f64>) -> JobOut {
    let orig = pipeline::extract_all(g, None);
    JobOut {
        replica,
        report: None,
        dists: pipeline::compare(built, &orig, &replica.compared_orders(), None),
        target_distance,
        error: None,
    }
}

fn failed_pipeline_checks(jobs: Vec<JobOut>) -> Vec<String> {
    let out = PipelineOut {
        jobs,
        table: String::new(),
    };
    pipeline::check_pipeline(&out)
        .into_iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect()
}

/// Swaps one edge `(a, b)` of `g` for an absent `(a, c)`: the degree
/// sequence changes, so every D_d with d ≥ 1 leaves 0.
fn swap_one_edge(g: &Graph) -> Graph {
    let mut h = g.clone();
    let (a, b) = h.edges()[0];
    let c = (0..h.node_count() as u32)
        .find(|&c| c != a && c != b && !h.has_edge(a, c))
        .unwrap();
    h.remove_edge(a, b).unwrap();
    h.add_edge(a, c).unwrap();
    h
}

#[test]
fn pipeline_checks_fire_on_broken_replicas() {
    let g = builders::karate_club();
    let rewired = |d: u8| {
        let mut h = g.clone();
        let mut rng = StdRng::seed_from_u64(3 + u64::from(d));
        rewire::randomize(&mut h, d, &RewireOptions::default(), &mut rng);
        h
    };
    let good: Vec<JobOut> = (0..=3u8)
        .map(|d| job(&g, Replica::Rewire(d), &rewired(d), None))
        .collect();
    assert_eq!(failed_pipeline_checks(good), Vec::<String>::new());

    // one edge swapped in a "2K-random" graph: D_2 leaves 0
    let broken = job(&g, Replica::Rewire(2), &swap_one_edge(&rewired(2)), None);
    assert_eq!(failed_pipeline_checks(vec![broken]), ["D2_zero_2K"]);

    // a generator that hands back its reference: D_{d+1} stays 0
    let unmoved = job(&g, Replica::Rewire(1), &g, None);
    assert_eq!(failed_pipeline_checks(vec![unmoved]), ["D2_moved_1K"]);

    let d2 = pipeline::extract_all(&g, None)[2].as_2k().unwrap().clone();
    let (targeted, stats) = target::generate_2k_random(
        &d2,
        Bootstrap::default(),
        &TargetOptions::default(),
        &mut StdRng::seed_from_u64(3),
    )
    .unwrap();
    let fin = Some(stats.final_distance);
    assert_eq!(
        failed_pipeline_checks(vec![job(&g, Replica::Target2K, &targeted, fin)]),
        Vec::<String>::new()
    );
    // one edge swapped in the targeted graph: degrees and D_2 both move
    let broken = job(&g, Replica::Target2K, &swap_one_edge(&targeted), fin);
    assert_eq!(
        failed_pipeline_checks(vec![broken]),
        ["D1_zero_2K-targ", "D2_matches_targeting_2K-targ"]
    );

    let errored = JobOut {
        error: Some("targeting failed".into()),
        ..job(&g, Replica::Rewire(1), &rewired(1), None)
    };
    assert_eq!(failed_pipeline_checks(vec![errored]), ["build_1K"]);
}

#[test]
fn battery_checks_fire_on_wrong_size_and_tampered_sketch() {
    let p = battery::params(Size::Tiny);
    let mut rng = StdRng::seed_from_u64(9);
    let g = dk_topologies::ba::barabasi_albert(&p, &mut rng);
    let report = Analyzer::new()
        .metric_names(battery::BATTERY)
        .unwrap()
        .analyze(&g);
    let bits = battery::SKETCH_BITS;
    assert!(battery::check_report(&report, &p, bits)
        .iter()
        .all(|c| c.passed));

    // a generator that was asked for one node more
    let bigger = dk_topologies::ba::BaParams {
        nodes: p.nodes + 1,
        ..p
    };
    let failed: Vec<String> = battery::check_report(&report, &bigger, bits)
        .into_iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect();
    assert_eq!(failed, ["n_matches_generator", "m_matches_generator"]);

    // a sketch estimate pushed just past the HLL bound
    let mut tampered = report.clone();
    let sampled = report.scalar("distance_approx").unwrap();
    for r in &mut tampered.records {
        if r.metric.to_string() == "avg_distance_sketch" {
            r.value = MetricValue::Scalar(sampled * (1.0 + battery::sketch_bound(bits) * 1.01));
        }
        if r.metric.to_string() == "kcore_max" {
            r.value = MetricValue::Scalar(3.0);
        }
    }
    let failed: Vec<String> = battery::check_report(&tampered, &p, bits)
        .into_iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect();
    assert_eq!(
        failed,
        [
            "kcore_max_matches_generator",
            "sketch_distance_within_hll_bound"
        ]
    );
}

#[test]
fn serve_checks_fire_on_truncated_or_failed_responses() {
    let good = r#"{"ok":true,"op":"metric","graph":"g0"}"#;
    assert!(serve::response_ok(good));
    assert!(!serve::response_ok(&good[..good.len() - 1]), "truncated");
    assert!(!serve::response_ok(
        r#"{"ok":false,"error":{"code":"io","message":"x"}}"#
    ));

    let log = |failed, memo_mismatches| ClientLog {
        sent: 7,
        failed,
        memo_mismatches,
        ..ClientLog::default()
    };
    assert!(serve::check_logs(&[log(0, 0)]).iter().all(|c| c.passed));
    let failed = |logs: &[ClientLog]| -> Vec<String> {
        serve::check_logs(logs)
            .into_iter()
            .filter(|c| !c.passed)
            .map(|c| c.name)
            .collect()
    };
    assert_eq!(failed(&[log(0, 0), log(1, 0)]), ["every_response_ok"]);
    assert_eq!(failed(&[log(0, 1)]), ["memo_replay_identical"]);
}

#[test]
fn digest_check_fires_on_a_tampered_digest() {
    let store = Path::new(env!("CARGO_TARGET_TMPDIR")).join("digests");
    let _ = std::fs::remove_dir_all(&store);
    assert!(
        record::cross_run_digest(&store, "w-s1", 0xabc).passed,
        "first run stores"
    );
    assert!(
        record::cross_run_digest(&store, "w-s1", 0xabc).passed,
        "same output"
    );
    assert!(
        !record::cross_run_digest(&store, "w-s1", 0xabd).passed,
        "changed output"
    );
    std::fs::write(store.join("w-s2.digest"), "tampered").unwrap();
    assert!(!record::cross_run_digest(&store, "w-s2", 0xabc).passed);
}

#[test]
fn failed_check_makes_the_summary_line_incorrect() {
    let mut out = dk_perfbench::workload::Outcome {
        attempted: 3,
        ..Default::default()
    };
    out.check(dk_perfbench::workload::Check::new("x", false, "broken"));
    let line = JsonValue::parse(&record::summary_line(&out)).unwrap();
    assert_eq!(
        line.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(1));
}
