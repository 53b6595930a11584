//! `serve_mixed`: an in-process `dk serve` daemon on a Unix socket with
//! two daemon threads, driven by two closed-loop clients (each waits for
//! every reply, as a `dk client` script does).
//!
//! Each client owns [`GRAPHS_PER_CLIENT`] small graphs of one of the
//! paper's two CI-scale families (client 0 skitter-like, client 1
//! HOT-like); a read-only reference graph is loaded at set-up. Each
//! client repeats one round, on its graphs in turn: a `rewire` write
//! that bumps the graph's epoch, then reads that find every warm state
//! stale — fused exact Brandes, sampled DOBFS distances, the cheap
//! battery, the first read again (a memo hit), an attack sweep, and a
//! compare against the reference (whose side stays warm).
//!
//! The traced run first drives the socket daemon for half its time,
//! then replays the same script through `dk_serve::handle_line` on an
//! in-process `Registry` without sockets. Replay rounds alternate
//! between untraced and traced (a span per request), so the tracing
//! overhead compares like with like. After the replay, probe traces
//! time the layers a round's reads run (GCC, CSR, the exact traversal,
//! the sampled distances, the attack sweep) on the rewired graphs.

use crate::stats;
use crate::sys::{self, Fnv};
use crate::trace::{Ctx, Tracer};
use crate::workload::{self, Check, Config, LayerCounters, Metric, Outcome, Size};
use dk_graph::{io, traversal, CsrGraph, Graph};
use dk_json::JsonValue;
use dk_metrics::attack::{attack_sweep_cached, AttackOptions};
use dk_metrics::{AnalysisCache, AnalyzeOptions, AnyMetric, GccPolicy};
use dk_serve::{handle_line, Client, Registry, Server, ServerConfig};
use dk_topologies::{as_like, hot_like};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Closed-loop clients, one connection each; the daemon answers each on
/// its own connection thread.
pub const CLIENTS: usize = 2;
/// Thread budget of each analysis pass inside the daemon: the two
/// connection threads each run one single-threaded pass at a time, so
/// the daemon keeps at most `nproc` = 2 workers busy instead of
/// oversubscribing the cores with 2 × 2.
pub const PASS_THREADS: usize = 1;
/// Graphs each client owns; its rounds cycle over them. The family's
/// graphs differ in size from seed to seed, so a figure over several
/// moves less with the seed than one graph's would.
pub const GRAPHS_PER_CLIENT: usize = 3;
/// Rounds per client whose responses enter the digest (one on each of
/// its graphs); every run completes at least this many.
pub const DIGEST_ROUNDS: usize = GRAPHS_PER_CLIENT;
/// Window of the throughput figure, in seconds: a round takes well
/// under a tenth of it, and a run spans tens of them.
pub const RATE_WINDOW_S: f64 = 1.0;
/// Marks probe traces apart from round traces.
const PROBE: u64 = 1 << 63;
/// Rounds per client whose rewired graph the traced run probes.
const PROBE_ROUNDS: usize = 16;

/// The script steps of one round: label and request template (`{g}` is
/// the client's graph, `{seed}` the round's rewire seed).
pub const STEPS: [(&str, &str); 7] = [
    (
        "rewire",
        r#"{"op":"rewire","graph":"{g}","d":2,"seed":{seed}}"#,
    ),
    (
        "metric_exact",
        r#"{"op":"metric","graph":"{g}","metrics":"b_max,d_avg"}"#,
    ),
    (
        "metric_sampled",
        r#"{"op":"metric","graph":"{g}","metrics":"distance_approx"}"#,
    ),
    (
        "metric_cheap",
        r#"{"op":"metric","graph":"{g}","metrics":"cheap"}"#,
    ),
    (
        "metric_memo",
        r#"{"op":"metric","graph":"{g}","metrics":"b_max,d_avg"}"#,
    ),
    ("attack", r#"{"op":"attack","graph":"{g}"}"#),
    ("compare", r#"{"op":"compare","a":"{g}","b":"ref"}"#),
];

/// Request line of step `step` for client graph `graph`.
pub fn request(step: usize, graph: &str, seed: u64) -> String {
    STEPS[step]
        .1
        .replace("{g}", graph)
        .replace("{seed}", &seed.to_string())
}

/// The protocol op a step sends.
fn op_of(step: usize) -> &'static str {
    match STEPS[step].0 {
        "rewire" => "rewire",
        "attack" => "attack",
        "compare" => "compare",
        _ => "metric",
    }
}

/// Whether a response line is a complete JSON object with `"ok":true`.
pub fn response_ok(line: &str) -> bool {
    JsonValue::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

fn graph_name(client: usize, i: usize) -> String {
    format!("g{client}-{i}")
}

/// The reference and the client graphs (client 0's skitter-like, client
/// 1's HOT-like), generated from `seed`.
pub fn inputs(seed: u64, size: Size) -> Vec<(String, Graph)> {
    let rng = |i: u64| StdRng::seed_from_u64(dk_core::ensemble::derive_seed(seed, i));
    let skitter = match size {
        Size::Full => as_like::AsLikeParams::small(),
        Size::Tiny => as_like::AsLikeParams {
            nodes: 200,
            anneal_attempts: 20_000,
            ..as_like::AsLikeParams::small()
        },
    };
    let hot = match size {
        Size::Full => hot_like::HotLikeParams::default(),
        Size::Tiny => hot_like::HotLikeParams::small(),
    };
    let mut graphs = vec![(
        "ref".to_string(),
        as_like::skitter_like(&skitter, &mut rng(0)),
    )];
    for i in 0..GRAPHS_PER_CLIENT {
        let k = (1 + 2 * i) as u64;
        graphs.push((
            graph_name(0, i),
            as_like::skitter_like(&skitter, &mut rng(k)),
        ));
        graphs.push((graph_name(1, i), hot_like::hot_like(&hot, &mut rng(k + 1))));
    }
    graphs
}

/// A set-up daemon: the server, its socket, and `(n, m)` of every
/// loaded graph.
struct Daemon {
    server: Server,
    socket: PathBuf,
    sizes: Vec<(usize, usize)>,
}

/// Writes the inputs for `seed`, spawns the daemon, loads every graph
/// and warms the reference side.
fn setup_once(cfg: &Config, seed: u64, rep: usize) -> Result<Daemon, String> {
    let socket = cfg.dir.join(format!("dk{rep}.sock"));
    let server = Server::spawn(&ServerConfig {
        socket: socket.clone(),
        memory_budget: None,
        threads: PASS_THREADS,
    })
    .map_err(|e| format!("spawn daemon on {}: {e}", socket.display()))?;
    let mut client =
        Client::connect(&socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let mut sizes = Vec::new();
    for (name, g) in inputs(seed, cfg.size) {
        let path = cfg.dir.join(format!("{name}.edges"));
        io::save_edge_list(&g, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
        sizes.push((g.node_count(), g.edge_count()));
        load_into(
            &mut |r| client.request(r).map_err(|e| e.to_string()),
            &name,
            &path,
        )?;
    }
    warm_reference(&mut |r| client.request(r).map_err(|e| e.to_string()))?;
    Ok(Daemon {
        server,
        socket,
        sizes,
    })
}

fn load_into(
    send: &mut dyn FnMut(&str) -> Result<String, String>,
    name: &str,
    path: &Path,
) -> Result<(), String> {
    let req = dk_metrics::json::object([
        ("op".into(), "\"load\"".into()),
        ("graph".into(), format!("\"{name}\"")),
        (
            "path".into(),
            format!("\"{}\"", dk_metrics::json::escape(&path.to_string_lossy())),
        ),
    ]);
    let resp = send(&req)?;
    if response_ok(&resp) {
        Ok(())
    } else {
        Err(format!("load {name}: {resp}"))
    }
}

fn warm_reference(send: &mut dyn FnMut(&str) -> Result<String, String>) -> Result<(), String> {
    let resp = send(r#"{"op":"metric","graph":"ref","metrics":"cheap"}"#)?;
    if response_ok(&resp) {
        Ok(())
    } else {
        Err(format!("warm reference: {resp}"))
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency of the untraced rounds, from sending `rewire` to the
    /// round's last reply.
    pub rounds_ms: Vec<f64>,
    /// Latency per script step.
    pub step_ms: Vec<Vec<f64>>,
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed or came back without `ok`.
    pub failed: u64,
    /// When each `ok` response arrived.
    pub done: Vec<Instant>,
    /// Rounds whose memo replay differed from the cold read.
    pub memo_mismatches: u64,
    /// Digest of the first [`DIGEST_ROUNDS`] rounds' responses.
    pub digest: u64,
    /// `(attempts, accepted)` of every `rewire` response.
    pub mcmc: Vec<(u64, u64)>,
    /// The traced replay's graph after each of the first
    /// [`PROBE_ROUNDS`] rewires.
    pub snapshots: Vec<Arc<Graph>>,
}

/// Runs client `client`'s closed loop until `deadline` (and at least
/// [`DIGEST_ROUNDS`] rounds). With a tracer and the registry it talks
/// to, every odd round is a `serve.round` trace with a span per request
/// (even rounds stay untraced, for the overhead figure), and the
/// rewired graph of the first [`PROBE_ROUNDS`] rounds is kept for
/// [`probe`].
fn client_loop(
    send: &mut dyn FnMut(&str) -> Result<String, String>,
    client: usize,
    seed: u64,
    deadline: Instant,
    traced: Option<(&Tracer, &Registry)>,
) -> ClientLog {
    let mut log = ClientLog {
        step_ms: vec![Vec::new(); STEPS.len()],
        ..ClientLog::default()
    };
    let mut digest = Fnv::default();
    let mut round = 0usize;
    while round < DIGEST_ROUNDS || Instant::now() < deadline {
        // JSON numbers carry integers exactly only up to 2^53
        let rewire_seed =
            dk_core::ensemble::derive_seed(seed ^ (client as u64 + 1), round as u64) >> 32;
        let trace_id = ((client as u64) << 32) | round as u64;
        let graph = graph_name(client, round % GRAPHS_PER_CLIENT);
        let mut bodies: Vec<String> = Vec::with_capacity(STEPS.len());
        let mut run_round = |cx: Option<Ctx<'_>>| {
            let t0 = Instant::now();
            for step in 0..STEPS.len() {
                let req = request(step, &graph, rewire_seed);
                let t = Instant::now();
                let resp = match cx {
                    Some(cx) => cx.span(handle_span(step), |_| send(&req)),
                    None => send(&req),
                };
                log.step_ms[step].push(t.elapsed().as_secs_f64() * 1e3);
                log.sent += 1;
                let body = resp.unwrap_or_else(|e| format!("transport error: {e}"));
                if response_ok(&body) {
                    log.done.push(Instant::now());
                } else {
                    log.failed += 1;
                }
                bodies.push(body);
            }
            if cx.is_none() {
                log.rounds_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        };
        match traced.filter(|_| round % 2 == 1) {
            Some((tracer, _)) => tracer
                .root(trace_id)
                .span("serve.round", |cx| run_round(Some(cx))),
            None => run_round(None),
        }
        if bodies[1] != bodies[4] {
            log.memo_mismatches += 1;
        }
        if let Ok(v) = JsonValue::parse(&bodies[0]) {
            let get = |k| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            log.mcmc.push((get("attempts"), get("accepted")));
        }
        if round < DIGEST_ROUNDS {
            bodies.iter().for_each(|b| digest.write_str(b));
        }
        if let Some((_, reg)) = traced.filter(|_| round < PROBE_ROUNDS) {
            if let Ok(slot) = reg.slot(&graph) {
                log.snapshots
                    .push(dk_serve::registry::lock(&slot).graph.clone());
            }
        }
        round += 1;
    }
    log.digest = digest.finish();
    log
}

/// Untraced round times per client. A client's rounds cycle evenly
/// over its graphs, so each client's samples mix them in fixed shares;
/// the two clients' families differ in size, so figures are taken per
/// client ([`stats::grouped`]).
fn per_client(logs: &[ClientLog]) -> Vec<Vec<f64>> {
    logs.iter().map(|l| l.rounds_ms.clone()).collect()
}

fn handle_span(step: usize) -> &'static str {
    match op_of(step) {
        "rewire" => "serve.handle.rewire",
        "attack" => "serve.handle.attack",
        "compare" => "serve.handle.compare",
        _ => "serve.handle.metric",
    }
}

/// Times, on a rewired client graph, the layers a round's reads run
/// inside the daemon: GCC extraction, the CSR snapshot, the fused exact
/// traversal, the sampled distance pass, and the attack sweep, each
/// through its public entry point. Probes run after the replay, so they
/// do not contend with its requests.
fn probe(cx: Ctx<'_>, g: &Graph, counters: &Mutex<LayerCounters>) {
    cx.span("serve.probe", |cx| {
        let opts = AnalyzeOptions {
            threads: PASS_THREADS,
            gcc: GccPolicy::Whole,
            ..AnalyzeOptions::default()
        };
        let (gcc, _) = cx.span("graph.traversal.gcc", |_| traversal::giant_component(g));
        let csr_s = cx.span("graph.csr.build", |_| {
            let t = Instant::now();
            std::hint::black_box(CsrGraph::from_graph(&gcc));
            t.elapsed().as_secs_f64()
        });
        let inner = Some(("graph.csr.build", csr_s));
        let pass = |names: &str| AnyMetric::parse_list(names).expect("registered metrics");
        let exact = cx.span_with("metrics.cache.traversal", inner, |_| {
            AnalysisCache::build(&gcc, &pass("b_max,d_avg"), &opts)
        });
        let sampled = cx.span_with("metrics.cache.sampled_distances", inner, |_| {
            AnalysisCache::build(&gcc, &pass("distance_approx"), &opts)
        });
        let base = cx.span_with("metrics.cache.base", inner, |_| {
            AnalysisCache::build(&gcc, &pass("attack_threshold"), &opts)
        });
        cx.span("metrics.attack.sweep", |_| {
            std::hint::black_box(attack_sweep_cached(&base, &AttackOptions::default()))
        });
        let mut c = counters.lock().expect("counter lock");
        c.exec = Some(exact.exec_plan());
        c.sampled_sources = sampled.sampled_distances().sources;
        c.gcc_kept
            .push(gcc.node_count() as f64 / g.node_count().max(1) as f64);
    });
}

/// Both clients' logs from one phase, its start and its wall time.
struct Phase {
    logs: Vec<ClientLog>,
    start: Instant,
    wall_s: f64,
}

impl Phase {
    /// Requests answered with `ok` per second: the median over the
    /// phase's whole [`RATE_WINDOW_S`] windows ([`stats::windowed_rate`]).
    fn ok_rate(&self) -> f64 {
        let at: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.done.iter())
            .map(|t| t.duration_since(self.start).as_secs_f64())
            .collect();
        stats::windowed_rate(&at, self.wall_s, RATE_WINDOW_S)
    }
}

fn socket_phase(socket: &Path, seed: u64, seconds: f64) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<ClientLog, String> {
                    let mut client = Client::connect(socket)
                        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
                    let mut send = |r: &str| client.request(r).map_err(|e| e.to_string());
                    Ok(client_loop(&mut send, c, seed, deadline, None))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase {
        logs,
        start,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

fn replay_phase(
    cfg: &Config,
    seconds: f64,
    tracer: &Tracer,
    counters: &Mutex<LayerCounters>,
) -> Result<Phase, String> {
    let reg = Registry::new(None, PASS_THREADS);
    let mut send = |r: &str| -> Result<String, String> { Ok(handle_line(&reg, r)) };
    for (name, _) in inputs(cfg.seed, cfg.size) {
        load_into(&mut send, &name, &cfg.dir.join(format!("{name}.edges")))?;
    }
    warm_reference(&mut send)?;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let reg = &reg;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut send = |r: &str| -> Result<String, String> { Ok(handle_line(reg, r)) };
                    client_loop(&mut send, c, cfg.seed, deadline, Some((tracer, reg)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    for (c, log) in logs.iter().enumerate() {
        for (r, g) in log.snapshots.iter().enumerate() {
            probe(
                tracer.root(PROBE | (c as u64) << 32 | r as u64),
                g,
                counters,
            );
        }
    }
    Ok(Phase {
        logs,
        start,
        wall_s,
    })
}

/// The daemon's `stats` counters: `(computed, coalesced, memo_hits)`.
fn stats_counters(socket: &Path) -> Result<(u64, u64, u64), String> {
    let resp = dk_serve::one_shot(socket, r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
    let v = JsonValue::parse(&resp).map_err(|e| format!("stats: {e}"))?;
    let c = v.get("counters").ok_or("stats without counters")?;
    let get = |k| c.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok((get("computed"), get("coalesced"), get("memo_hits")))
}

fn merged(logs: &[ClientLog], f: impl Fn(&ClientLog) -> &[f64]) -> Vec<f64> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// Output checks of one phase: every response had `ok`, and every memo
/// replay matched its cold read byte for byte.
pub fn check_logs(logs: &[ClientLog]) -> Vec<Check> {
    let sent: u64 = logs.iter().map(|l| l.sent).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mismatched: u64 = logs.iter().map(|l| l.memo_mismatches).sum();
    vec![
        Check::new(
            "every_response_ok",
            failed == 0,
            format!("{failed} of {sent} responses without ok"),
        ),
        Check::new(
            "memo_replay_identical",
            mismatched == 0,
            format!("{mismatched} memo replays differ from the cold read"),
        ),
    ]
}

fn digest_of(logs: &[ClientLog]) -> u64 {
    let mut h = Fnv::default();
    for l in logs {
        h.write(&l.digest.to_le_bytes());
    }
    h.finish()
}

/// Runs the workload: set-up, then the socket phase for `cfg.seconds`
/// (half of it in a traced run, followed by the traced replay).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut times = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..workload::SETUP_REPS {
        let t = Instant::now();
        let fresh = setup_once(cfg, workload::setup_seed(cfg.seed, rep), rep)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(fresh) {
            old.server.stop();
        }
    }
    let setup_s = stats::median(&times);
    let Daemon {
        server,
        socket,
        sizes,
    } = daemon.expect("at least one set-up ran");
    let mut out = Outcome {
        rss_reset: sys::reset_peak_rss(),
        setup_times_s: times,
        ..Outcome::default()
    };
    let socket_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let phase = socket_phase(&socket, cfg.seed, socket_seconds);
    let counters = stats_counters(&socket);
    server.stop();
    let (phase, (computed, coalesced, memo_hits)) = (phase?, counters?);
    let peak = sys::peak_rss_mb().unwrap_or(f64::NAN);

    let sent: u64 = phase.logs.iter().map(|l| l.sent).sum();
    let failed: u64 = phase.logs.iter().map(|l| l.failed).sum();
    out.attempted = sent;
    out.failed = failed;
    out.checks = check_logs(&phase.logs);
    // a memo replay that differs from its cold read is a failed read too
    out.failed += phase.logs.iter().map(|l| l.memo_mismatches).sum::<u64>();
    out.digest = digest_of(&phase.logs);
    let rounds: Vec<f64> = per_client(&phase.logs).concat();
    let writes = merged(&phase.logs, |l| &l.step_ms[0]);
    let (p50, tail) = stats::grouped(&per_client(&phase.logs), 90);
    out.job_ms = rounds.clone();
    let rps = phase.ok_rate();
    let reads = sent - sent / STEPS.len() as u64;
    out.named = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("serve_rps", rps, "req/s"),
        Metric::new("remeasure_p50_ms", p50, "ms"),
        Metric::new("remeasure_p90_ms", tail.value, "ms"),
        Metric::new("write_p50_ms", stats::median(&writes), "ms"),
        Metric::new("peak_rss_mb", peak, "MiB"),
        Metric::new(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    out.tails.push(("remeasure_ms".into(), tail.clone()));
    out.params = vec![
        ("clients".into(), CLIENTS.to_string()),
        ("connection_threads".into(), CLIENTS.to_string()),
        ("pass_threads".into(), PASS_THREADS.to_string()),
        ("loop".into(), "\"closed\"".into()),
        (
            "graphs".into(),
            dk_metrics::json::array(sizes.iter().map(|(n, m)| format!("[{n},{m}]"))),
        ),
        (
            "script".into(),
            dk_metrics::json::array(STEPS.iter().map(|(label, _)| format!("\"{label}\""))),
        ),
        ("rewire_d".into(), "2".into()),
        (
            "samples".into(),
            AnalyzeOptions::default().samples.to_string(),
        ),
        ("rounds".into(), rounds.len().to_string()),
        ("requests".into(), sent.to_string()),
    ];
    let g0 = io::load_edge_list(cfg.dir.join(format!("{}.edges", graph_name(0, 0))))
        .map_err(|e| e.to_string())?;
    let plan_opts = AnalyzeOptions {
        threads: PASS_THREADS,
        ..AnalyzeOptions::default()
    };
    out.exec_plan = Some(AnalysisCache::build(&g0, &[], &plan_opts).exec_plan());

    if cfg.trace {
        let tracer = Tracer::default();
        let counters = Mutex::new(LayerCounters::default());
        let replay = replay_phase(cfg, cfg.seconds / 2.0, &tracer, &counters)?;
        for c in check_logs(&replay.logs) {
            if !c.passed {
                out.check(c);
            }
        }
        out.check(Check::new(
            "replay_digest_matches_socket",
            digest_of(&replay.logs) == out.digest,
            "handle_line replay answers the script byte for byte as the socket daemon",
        ));
        out.attempted += replay.logs.iter().map(|l| l.sent).sum::<u64>();
        let spans = tracer.into_spans();
        let mut values = workload::layer_medians(&spans, |t| t & PROBE != 0);
        let mut c = counters.into_inner().expect("counter lock");
        let mcmc: Vec<(u64, u64)> = replay.logs.iter().flat_map(|l| l.mcmc.clone()).collect();
        let median_of = |f: &dyn Fn(&(u64, u64)) -> u64| {
            stats::median(&mcmc.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
        };
        c.mcmc_attempts = median_of(&|x| x.0) as u64;
        c.mcmc_accepted = median_of(&|x| x.1) as u64;
        values.extend(workload::counter_values(&c));
        // per op: the daemon's own handling time, and what the socket
        // transport and queueing add on top of it
        let mut transport = Vec::new();
        for step in 0..STEPS.len() {
            let client = stats::median(&merged(&phase.logs, |l| &l.step_ms[step]));
            let handle = stats::median(&merged(&replay.logs, |l| &l.step_ms[step]));
            transport.push(client - handle);
        }
        for op in ["rewire", "metric", "compare", "attack"] {
            let ms: Vec<f64> = (0..STEPS.len())
                .filter(|&s| op_of(s) == op)
                .flat_map(|s| merged(&replay.logs, |l| &l.step_ms[s]))
                .collect();
            values.push((format!("serve.handle.{op}_ms"), stats::median(&ms)));
        }
        values.push(("serve.client.rewire_ms".into(), stats::median(&writes)));
        values.push(("serve.transport_queue_ms".into(), stats::median(&transport)));
        values.push(("serve.computed".into(), computed as f64));
        values.push(("serve.coalesced".into(), coalesced as f64));
        values.push(("serve.memo_hits".into(), memo_hits as f64));
        values.push((
            "serve.memo_hit_ratio".into(),
            memo_hits as f64 / reads.max(1) as f64,
        ));
        // traced against untraced rounds of the same replay, aggregated
        // per client alike
        values.extend(workload::trace_figures(
            &spans,
            |t| t & PROBE == 0,
            |t| t >> 32,
            stats::grouped(&per_client(&replay.logs), 90).0,
            &["serve.round"],
        ));
        out.exec_plan = c.exec;
        out.metrics = workload::per_layer_metrics(&values);
        out.spans = spans;
    } else {
        out.metrics = workload::end_to_end([setup_s, p50, tail.value, rps, peak]);
    }
    Ok(out)
}
