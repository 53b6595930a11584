//! Structured analysis reports (and the legacy scalar battery wrapper).
//!
//! A [`Report`] is what [`Analyzer::analyze`](crate::analyzer::Analyzer::analyze)
//! returns: a graph summary plus one [`MetricValue`] per selected metric,
//! in selection order. It renders as an aligned text block
//! ([`Report::to_text`]) or as machine-readable JSON ([`Report::to_json`],
//! hand-rolled — the workspace builds offline without serde).
//!
//! [`MetricReport`] — the fixed-field scalar battery every pre-facade
//! call site used — survives as a thin compatibility wrapper that runs
//! the analyzer and copies scalars out. New code should use
//! [`Analyzer`] directly.

use crate::analyzer::Analyzer;
use crate::json;
use crate::metric::{AnyMetric, MetricValue};

/// Bookkeeping about the analyzed graph carried by every [`Report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphSummary {
    /// Nodes in the original input graph.
    pub nodes: usize,
    /// Edges in the original input graph.
    pub edges: usize,
    /// Nodes actually analyzed (the GCC under the default policy).
    pub analyzed_nodes: usize,
    /// Edges actually analyzed.
    pub analyzed_edges: usize,
    /// Fraction of original nodes retained (§5.2 GCC convention).
    pub gcc_fraction: f64,
    /// Whether GCC extraction was applied.
    pub gcc_applied: bool,
}

impl GraphSummary {
    pub(crate) fn to_json(&self) -> String {
        json::object([
            ("nodes".into(), self.nodes.to_string()),
            ("edges".into(), self.edges.to_string()),
            ("analyzed_nodes".into(), self.analyzed_nodes.to_string()),
            ("analyzed_edges".into(), self.analyzed_edges.to_string()),
            ("gcc_fraction".into(), json::number(self.gcc_fraction)),
            ("gcc".into(), self.gcc_applied.to_string()),
        ])
    }
}

/// One computed metric inside a [`Report`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRecord {
    /// The registry handle (name, kind, cost).
    pub metric: AnyMetric,
    /// Its value on this graph.
    pub value: MetricValue,
}

/// Analysis result: graph summary + metric values in selection order.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// What was analyzed.
    pub graph: GraphSummary,
    /// The computed metrics.
    pub records: Vec<MetricRecord>,
}

impl Report {
    /// Scalar value of metric `name` (canonical name or alias);
    /// `None` if absent or undefined on this graph.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.record(name).and_then(|r| r.value.as_scalar())
    }

    /// Series value of metric `name`; `None` if absent or not a series.
    pub fn series(&self, name: &str) -> Option<&[(usize, f64)]> {
        self.record(name).and_then(|r| r.value.as_series())
    }

    /// The full record for metric `name`.
    pub fn record(&self, name: &str) -> Option<&MetricRecord> {
        let m = AnyMetric::get(name)?;
        self.records.iter().find(|r| r.metric == m)
    }

    /// Aligned text rendering: one row per scalar, then one indented
    /// block per series.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "n = {}, m = {}{}\n",
            self.graph.nodes,
            self.graph.edges,
            if self.graph.gcc_applied {
                format!(
                    " (GCC: {} nodes, {} edges, fraction {:.3})",
                    self.graph.analyzed_nodes, self.graph.analyzed_edges, self.graph.gcc_fraction
                )
            } else {
                " (whole graph, no GCC extraction)".to_string()
            }
        );
        for rec in &self.records {
            if let MetricValue::Series(_) = rec.value {
                continue;
            }
            out.push_str(&format!(
                "{:<13} {}\n",
                rec.metric.name(),
                match rec.value {
                    MetricValue::Scalar(x) => fmt_scalar(x),
                    _ => "-".to_string(),
                }
            ));
        }
        for rec in &self.records {
            if let MetricValue::Series(s) = &rec.value {
                out.push_str(&format!("{}:\n", rec.metric.name()));
                for (x, y) in s {
                    out.push_str(&format!("  {x} {y}\n"));
                }
            }
        }
        out
    }

    /// Machine-readable JSON:
    /// `{"graph": {...}, "metrics": {"k_avg": 4.59, "d_x": [[1, 0.39], ...],
    /// "lambda1": null}}` — undefined metrics serialize as `null`.
    pub fn to_json(&self) -> String {
        json::object([
            ("graph".into(), self.graph.to_json()),
            (
                "metrics".into(),
                json::object(
                    self.records
                        .iter()
                        .map(|rec| (rec.metric.name().to_string(), metric_value_json(&rec.value))),
                ),
            ),
        ])
    }
}

fn metric_value_json(value: &MetricValue) -> String {
    match value {
        MetricValue::Scalar(x) => json::number(*x),
        MetricValue::Undefined => "null".to_string(),
        MetricValue::Series(s) => json::array(
            s.iter()
                .map(|&(x, y)| json::array([x.to_string(), json::number(y)])),
        ),
    }
}

fn fmt_scalar(x: f64) -> String {
    // integer-valued scalars (counts, diameters) and large magnitudes
    // print without a fractional part
    if (x.fract() == 0.0 && x.abs() < 1e15) || x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

// ---------------------------------------------------------------------
// Legacy fixed-field battery (thin wrapper over the analyzer)
// ---------------------------------------------------------------------

/// Which (potentially expensive) metric families to compute.
///
/// Legacy knob set, retained for the [`MetricReport`] wrapper; new code
/// selects metrics by name on [`Analyzer`].
#[derive(Clone, Copy, Debug)]
pub struct ReportOptions {
    /// Compute `λ1`/`λ_{n−1}` (certified Lanczos).
    pub spectral: bool,
    /// Ceiling on Lanczos steps for the spectral extremes.
    pub lanczos_iter: usize,
    /// Compute the exact distance distribution (all-source BFS).
    pub distances: bool,
    /// Compute max normalized betweenness (all-source Brandes).
    pub betweenness: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            spectral: true,
            lanczos_iter: 300,
            distances: true,
            betweenness: false,
        }
    }
}

impl ReportOptions {
    /// The equivalent analyzer (same metric selection, same GCC policy).
    pub fn to_analyzer(&self) -> Analyzer {
        let mut names = vec!["n", "m", "gcc_fraction", "k_avg", "r", "c_mean", "s", "s2"];
        if self.distances {
            names.extend(["d_avg", "d_std"]);
        }
        if self.spectral {
            names.extend(["lambda1", "lambda_n"]);
        }
        if self.betweenness {
            names.push("b_max");
        }
        Analyzer::new()
            .metrics(names.iter().map(|n| AnyMetric::get(n).expect("registered")))
            .lanczos_iter(self.lanczos_iter)
    }
}

/// Scalar metric battery of one graph (computed on its GCC).
///
/// Thin compatibility wrapper: construction dispatches through
/// [`Analyzer`] (shared-computation cache included) and copies the
/// scalars into the historical fixed fields.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricReport {
    /// Nodes in the GCC.
    pub nodes: usize,
    /// Edges in the GCC.
    pub edges: usize,
    /// Fraction of the original nodes retained by the GCC.
    pub gcc_fraction: f64,
    /// Average degree `k̄` (of the GCC).
    pub k_avg: f64,
    /// Assortativity coefficient `r`.
    pub assortativity: f64,
    /// Mean clustering `C̄` (degree ≥ 2 convention).
    pub mean_clustering: f64,
    /// Average distance `d̄` (None if distances were not computed).
    pub avg_distance: Option<f64>,
    /// Distance standard deviation `σ_d`.
    pub distance_std: Option<f64>,
    /// Likelihood `S`.
    pub likelihood_s: f64,
    /// Second-order likelihood `S2`.
    pub likelihood_s2: f64,
    /// Smallest nonzero normalized-Laplacian eigenvalue `λ1`.
    pub lambda1: Option<f64>,
    /// Largest normalized-Laplacian eigenvalue `λ_{n−1}`.
    pub lambda_max: Option<f64>,
    /// Maximum normalized betweenness (None unless requested).
    pub max_betweenness: Option<f64>,
}

impl MetricReport {
    /// Full battery with default options.
    pub fn compute(g: &dk_graph::Graph) -> Self {
        Self::compute_with(g, &ReportOptions::default())
    }

    /// Battery with explicit options. The graph may be disconnected; the
    /// GCC is extracted internally.
    pub fn compute_with(g: &dk_graph::Graph, opts: &ReportOptions) -> Self {
        Self::from_report(&opts.to_analyzer().analyze(g))
    }

    /// Cheap subset (no distances/spectral/betweenness) — used inside
    /// rewiring convergence probes where the battery runs repeatedly.
    pub fn compute_cheap(g: &dk_graph::Graph) -> Self {
        Self::compute_with(
            g,
            &ReportOptions {
                spectral: false,
                distances: false,
                betweenness: false,
                lanczos_iter: 0,
            },
        )
    }

    /// Copies the battery scalars out of a structured [`Report`]
    /// (missing metrics become zeros/`None`s).
    pub fn from_report(rep: &Report) -> Self {
        let s = |name: &str| rep.scalar(name);
        MetricReport {
            nodes: s("n").map_or(0, |x| x as usize),
            edges: s("m").map_or(0, |x| x as usize),
            gcc_fraction: s("gcc_fraction").unwrap_or(1.0),
            k_avg: s("k_avg").unwrap_or(0.0),
            assortativity: s("r").unwrap_or(0.0),
            mean_clustering: s("c_mean").unwrap_or(0.0),
            avg_distance: s("d_avg"),
            distance_std: s("d_std"),
            likelihood_s: s("s").unwrap_or(0.0),
            likelihood_s2: s("s2").unwrap_or(0.0),
            lambda1: s("lambda1"),
            lambda_max: s("lambda_n"),
            max_betweenness: s("b_max"),
        }
    }

    /// Paper-style table row: `k̄  r  C̄  d̄  σd  λ1  λn-1`.
    pub fn table_row(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "-".into(), |x| format!("{x:.3}"))
        }
        format!(
            "{:>8.2} {:>8.3} {:>8.3} {:>8} {:>8} {:>8} {:>8}",
            self.k_avg,
            self.assortativity,
            self.mean_clustering,
            opt(self.avg_distance),
            opt(self.distance_std),
            opt(self.lambda1),
            opt(self.lambda_max),
        )
    }

    /// Header matching [`MetricReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "k_avg", "r", "C_mean", "d_avg", "d_std", "l1", "ln-1"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn full_battery_on_karate() {
        let r = MetricReport::compute(&builders::karate_club());
        assert_eq!(r.nodes, 34);
        assert_eq!(r.edges, 78);
        assert_eq!(r.gcc_fraction, 1.0);
        assert!((r.k_avg - 2.0 * 78.0 / 34.0).abs() < 1e-12);
        assert!(r.assortativity < -0.4);
        assert!(r.mean_clustering > 0.4); // known ≈ 0.59 (deg ≥ 2 nodes)
        assert!(r.avg_distance.unwrap() > 2.0 && r.avg_distance.unwrap() < 3.0);
        assert!(r.lambda1.unwrap() > 0.0);
        assert!(r.lambda_max.unwrap() <= 2.0);
        assert!(r.max_betweenness.is_none());
    }

    #[test]
    fn gcc_extraction_is_applied() {
        // path(4) plus 2 isolated nodes: metrics must describe the path
        let mut g = builders::path(4);
        g.add_node();
        g.add_node();
        let r = MetricReport::compute_cheap(&g);
        assert_eq!(r.nodes, 4);
        assert_eq!(r.edges, 3);
        assert!((r.gcc_fraction - 4.0 / 6.0).abs() < 1e-12);
        assert!((r.k_avg - 1.5).abs() < 1e-12);
        assert!(r.avg_distance.is_none());
    }

    #[test]
    fn betweenness_opt_in() {
        let opts = ReportOptions {
            betweenness: true,
            ..Default::default()
        };
        let r = MetricReport::compute_with(&builders::star(5), &opts);
        assert!((r.max_betweenness.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_row_formats() {
        let r = MetricReport::compute_cheap(&builders::cycle(5));
        let row = r.table_row();
        assert!(row.contains("2.00"));
        assert!(row.contains('-')); // skipped metrics print as dashes
        assert_eq!(
            MetricReport::table_header().split_whitespace().count(),
            row.split_whitespace().count()
        );
    }

    #[test]
    fn empty_graph_report() {
        let r = MetricReport::compute(&Graph::new());
        assert_eq!(r.nodes, 0);
        assert_eq!(r.k_avg, 0.0);
        assert_eq!(r.gcc_fraction, 1.0);
    }

    #[test]
    fn report_text_and_json_render() {
        let rep = Analyzer::new()
            .metric_names("n,m,k_avg,d_x")
            .unwrap()
            .analyze(&builders::cycle(5));
        let text = rep.to_text();
        assert!(text.contains("k_avg         2\n"), "{text}");
        assert!(text.contains("d_x:"), "{text}");
        let js = rep.to_json();
        assert!(js.starts_with("{\"graph\":{\"nodes\":5,"), "{js}");
        assert!(js.contains("\"k_avg\":2"), "{js}");
        assert!(js.contains("\"d_x\":[[1,"), "{js}");
    }

    #[test]
    fn json_undefined_is_null() {
        let rep = Analyzer::new()
            .metric_names("lambda1")
            .unwrap()
            .analyze(&builders::path(1));
        assert!(rep.to_json().contains("\"lambda1\":null"));
        assert_eq!(rep.scalar("lambda1"), None);
    }

    #[test]
    fn report_lookup_accepts_aliases() {
        let rep = Analyzer::new().analyze(&builders::complete(4));
        assert_eq!(rep.scalar("avg_degree"), rep.scalar("k_avg"));
        assert!(rep.scalar("b_max").is_none()); // not selected
    }
}
