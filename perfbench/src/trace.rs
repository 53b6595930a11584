//! In-memory spans for the traced run.
//!
//! The traced run wraps each call into a layer's public API in a span
//! (name, start, end, parent span, and the trace id shared by every span
//! of one pipeline, battery, or serve round). Spans stay in memory and
//! are written out when the run ends. A span's **self time** is its
//! duration minus the part of it that its child spans cover; summed per
//! layer name, self times partition the traced time of each trace.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, `crate.module.function`-style (`graph.csr.build`).
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, `None` for a trace's root.
    pub parent: Option<usize>,
    /// Id shared by every span of one pipeline / battery / serve round.
    pub trace: u64,
    /// Part of this span's self time spent in another layer that the
    /// benchmark cannot wrap from outside (the CSR snapshot every
    /// `AnalysisCache::build` makes internally), as `(layer, seconds)`.
    pub inner: Option<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder shared by every thread of a traced run.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A context whose spans open trace `trace` as roots.
    pub fn root(&self, trace: u64) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
            trace,
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no thread panicked while recording a span")
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// Where the next span hangs: tracer, parent span, and trace id. `Copy`,
/// so a worker thread can carry its parent across the fan-out.
#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    tracer: &'t Tracer,
    parent: Option<usize>,
    trace: u64,
}

impl<'t> Ctx<'t> {
    /// Runs `f` inside a span named `name`; `f` gets the context its own
    /// child spans hang from.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> T) -> T {
        self.span_with(name, None, f)
    }

    /// As [`Ctx::span`], attributing `inner.1` seconds of the span's self
    /// time to layer `inner.0` (see [`Span::inner`]).
    pub fn span_with<T>(
        &self,
        name: &'static str,
        inner: Option<(&'static str, f64)>,
        f: impl FnOnce(Ctx<'t>) -> T,
    ) -> T {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start: self.tracer.now(),
                end: f64::NAN,
                parent: self.parent,
                trace: self.trace,
                inner,
            });
            spans.len() - 1
        };
        let out = f(Ctx {
            parent: Some(id),
            ..*self
        });
        let end = self.tracer.now();
        self.lock()[id].end = end;
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.tracer
            .spans
            .lock()
            .expect("no thread panicked while recording a span")
    }
}

/// Runs `f` inside a span named `name` when `cx` is a traced context,
/// bare otherwise; `f` gets the context its own child spans hang from.
/// One code path then serves the traced and the untraced run.
pub fn span<'t, T>(
    cx: Option<Ctx<'t>>,
    name: &'static str,
    f: impl FnOnce(Option<Ctx<'t>>) -> T,
) -> T {
    match cx {
        Some(cx) => cx.span(name, |inner| f(Some(inner))),
        None => f(None),
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on parallel workers overlap, so the
/// union, not the sum, is what the parent did not spend itself).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Per trace: self time summed per layer name (with [`Span::inner`]
/// attributions moved to their layer), and the trace's root duration.
pub struct TraceBreakdown {
    /// `trace id → layer → self seconds`.
    pub layers: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// `trace id → summed duration of its root spans`.
    pub roots: BTreeMap<u64, f64>,
}

/// Groups self times by trace and layer.
pub fn breakdown(spans: &[Span]) -> TraceBreakdown {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut roots: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let per = layers.entry(s.trace).or_default();
        let moved = s.inner.map_or(0.0, |(_, secs)| secs.clamp(0.0, own));
        *per.entry(s.name).or_default() += own - moved;
        if let Some((layer, _)) = s.inner {
            *per.entry(layer).or_default() += moved;
        }
        if s.parent.is_none() {
            *roots.entry(s.trace).or_default() += s.duration();
        }
    }
    TraceBreakdown { layers, roots }
}

/// Spans as JSON lines (`id`, `name`, `start_s`, `end_s`, `parent`,
/// `trace`, and `inner_layer`/`inner_s` where set).
pub fn to_json_lines(spans: &[Span]) -> String {
    use dk_metrics::json;
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let mut fields = vec![
            ("id".to_string(), id.to_string()),
            ("name".into(), format!("\"{}\"", s.name)),
            ("start_s".into(), json::number(s.start)),
            ("end_s".into(), json::number(s.end)),
            (
                "parent".into(),
                s.parent.map_or("null".into(), |p| p.to_string()),
            ),
            ("trace".into(), s.trace.to_string()),
        ];
        if let Some((layer, secs)) = s.inner {
            fields.push(("inner_layer".into(), format!("\"{layer}\"")));
            fields.push(("inner_s".into(), json::number(secs)));
        }
        out.push_str(&json::object(fields));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            trace: 7,
            inner: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // overlaps `a` (a parallel worker): counted once
            span("b", 3.0, 6.0, Some(0)),
            span("c", 2.0, 3.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![5.0, 2.0, 3.0, 1.0]);
        let bd = breakdown(&spans);
        assert_eq!(bd.roots[&7], 10.0);
        let total: f64 = bd.layers[&7].values().sum();
        // overlap of the two workers is the only excess over the root
        assert_eq!(total, 11.0);
    }

    #[test]
    fn inner_attribution_moves_time_between_layers() {
        let mut s = span("metrics.cache.triangles", 0.0, 2.0, None);
        s.inner = Some(("graph.csr.build", 0.5));
        let bd = breakdown(&[s]);
        assert_eq!(bd.layers[&7]["metrics.cache.triangles"], 1.5);
        assert_eq!(bd.layers[&7]["graph.csr.build"], 0.5);
    }

    #[test]
    fn recorder_nests_spans() {
        let t = Tracer::default();
        let v = t.root(3).span("outer", |cx| cx.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 3 && s.end >= s.start));
    }
}
