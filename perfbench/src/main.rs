//! End-to-end and per-layer benchmark of `hyperline`.
//!
//! Three closed-loop workloads, one request class each, sized so that no
//! layer is oversubscribed on a 2-core host:
//!
//! * `build` — one caller runs the five-stage pipeline
//!   (`run_pipeline`, s = 2, two workers) on the `activeDNS` profile;
//! * `serve-warm` — two clients read the full s = 2 edge list of the
//!   `genomics` profile, gzip-encoded, from a warm artifact cache;
//! * `serve-miss` — two clients each reload their own copy of `genomics`
//!   and query it (`/slg`, sampled `/betweenness`), so every op misses
//!   both cache tiers.
//!
//! ```text
//! bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured in
//! [`PROCESSES`] fresh processes that each get an equal share of the
//! time; `--trace 1` prints the per-layer metrics of one process (spans
//! go to `.bench_trace/`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Set-up errors
//! and a failed Nagle guard exit non-zero without a result.

mod client;
mod host;
mod phase;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use phase::Phase;
use report::{Layer, Report};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Closed-loop clients of the server workloads (`build` has one).
pub const CLIENTS: usize = 2;
/// Compute workers: the build's worker count and the server's pool.
pub const WORKERS: usize = 2;

/// Fresh processes per untraced run. Each sets up once and measures an
/// equal share of the time; their latencies pool, `setup_s` is the
/// median of their set-ups and `peak_rss_mb` the mean of their peaks.
/// The allocator settles on a different resident footprint in each
/// process (up to ~30% apart for `build`), so a single process would
/// report whichever one it happened to get.
const PROCESSES: usize = 3;

/// Prefix of the line carrying a child process's results.
const SEGMENT_TAG: &str = "SEGMENT ";

const WORKLOADS: [&str; 3] = ["build", "serve-warm", "serve-miss"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run as one of the [`PROCESSES`] children of an untraced run.
    pub segment: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut segment = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--segment" => segment = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        segment,
    })
}

/// Scratch directory for this run's input files, inside the working
/// directory; removed when the run ends.
pub fn data_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_data").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// Writes the traced phase's spans to `.bench_trace/`.
pub fn write_trace(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let origin = spans
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(std::time::Instant::now);
    trace::write_jsonl(&path, spans, origin)?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

/// `trace.overhead_ms`: traced minus untraced median op latency.
pub fn overhead_layer(untraced: &Phase, traced: &Phase) -> Layer {
    let (a, b) = (
        stats::median(&untraced.latencies_ms),
        stats::median(&traced.latencies_ms),
    );
    Layer::new(
        "trace.overhead_ms",
        b - a,
        "ms",
        format!("traced p50 {b:.4} ms - untraced p50 {a:.4} ms (each half the run)"),
    )
}

/// Runs the workload in this process.
fn run_here(args: &Args) -> Result<Report, String> {
    let dir = data_dir(args);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| match args.workload.as_str() {
            "build" => pipeline::run(args),
            "serve-warm" => serve::run(args, serve::Kind::Warm, &dir),
            _ => serve::run(args, serve::Kind::Miss, &dir),
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_data");
    result
}

/// Runs the workload in [`PROCESSES`] children, one after another, and
/// merges their results.
fn run_processes(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = (args.seconds / PROCESSES as f64).to_string();
    let seed = args.seed.to_string();
    let mut merged: Option<Report> = None;
    for i in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--segment"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start process {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {i} failed: {}", out.status));
        }
        let mut segment = None;
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            match line.strip_prefix(SEGMENT_TAG) {
                Some(json) => segment = Some(Report::from_json(json)?),
                None => println!("[process {i}] {line}"),
            }
        }
        let segment = segment.ok_or(format!("process {i} reported no result"))?;
        match &mut merged {
            Some(m) => m.merge(segment),
            None => merged = Some(segment),
        }
    }
    merged.ok_or_else(|| "no process ran".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Load-shape guard: the workloads are sized for two cores; more
    // clients or workers would time-share them.
    const _: () = assert!(CLIENTS <= 2 && WORKERS <= 2);
    if args.segment {
        match run_here(&args) {
            Ok(report) => {
                for line in &report.notes {
                    println!("{line}");
                }
                println!("{SEGMENT_TAG}{}", report.to_json());
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: available_parallelism={} clients={} workers={} builds_in_flight<=1 processes={}",
        host::cores(),
        if args.workload == "build" { 1 } else { CLIENTS },
        WORKERS,
        if args.trace { 1 } else { PROCESSES }
    );
    let result = if args.trace {
        run_here(&args)
    } else {
        run_processes(&args)
    };
    match result {
        Ok(report) => report::print(&report, args.trace),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
