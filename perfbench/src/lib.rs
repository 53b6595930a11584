//! # dk-perfbench — the dK loop's end-to-end and per-layer benchmark
//!
//! One command per workload (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- --workload W --seed N --seconds S --trace
//! 0|1`) generates the workload's inputs from the seed, drives the
//! system through its public entry points, checks the outputs, and
//! prints one result line. `--trace 0` measures the end-to-end metrics
//! with nothing traced; `--trace 1` is the separate traced run that
//! wraps each layer's public calls in spans ([`trace`]) and reports
//! per-layer self times, counters, and the tracing overhead.
//!
//! Workloads (documented in `perfbench/workloads.json`):
//!
//! * [`pipeline`] — `paper_pipeline`, the paper's Table 6 loop;
//! * [`battery`] — `large_battery`, the streamed sampled battery;
//! * [`serve`] — `serve_mixed`, a `dk serve` read/write mix.

pub mod battery;
pub mod pipeline;
pub mod record;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
