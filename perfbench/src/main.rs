//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_pipeline|large_battery|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs, digests, result records and
//! spans go under `.bench_out/` there. The last stdout line is the
//! summary result; the line before it is the full record. A
//! failed output check exits with code 1, a bad argument or set-up
//! failure with code 2.

use dk_perfbench::record;
use dk_perfbench::sys;
use dk_perfbench::trace;
use dk_perfbench::workload::{Config, Size};
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: --workload {} --seed N --seconds S --trace 0|1",
        record::WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !record::WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository root")
        .to_path_buf();
    let out_root = PathBuf::from(".bench_out");
    let dir = out_root.join(format!(
        "{}-s{}-t{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        usage(&format!("cannot create {}: {e}", dir.display()));
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        dir: dir.clone(),
    };
    let mut out = match record::run_workload(&args.workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    };
    let key = format!(
        "{}-full-s{}-{}",
        args.workload,
        args.seed,
        sys::source_digest(&root)
    );
    out.check(record::cross_run_digest(
        &out_root.join("digests"),
        &key,
        out.digest,
    ));
    // inputs are regenerated from the seed; keep only records and spans
    let _ = std::fs::remove_dir_all(&dir);
    let rec = record::record_json(&args.workload, &cfg, &root, &out);
    let stem = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let results = out_root.join("results");
    let saved = std::fs::create_dir_all(&results)
        .and_then(|_| std::fs::write(results.join(format!("{stem}.json")), format!("{rec}\n")));
    if let Err(e) = saved {
        eprintln!("warning: result record not saved: {e}");
    }
    if args.trace {
        let spans = out_root.join("spans");
        let saved = std::fs::create_dir_all(&spans).and_then(|_| {
            std::fs::write(
                spans.join(format!("{stem}.jsonl")),
                trace::to_json_lines(&out.spans),
            )
        });
        if let Err(e) = saved {
            eprintln!("warning: spans not saved: {e}");
        }
    }
    for c in out.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {} ({})", c.name, c.detail);
    }
    println!("{rec}");
    println!("{}", record::summary_line(&out));
    if !record::correct(&out) {
        std::process::exit(1);
    }
}
