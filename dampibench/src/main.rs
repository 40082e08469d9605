//! End-to-end and per-layer benchmark of the DAMPI verifier.
//!
//! ```text
//! cargo run --release --offline --manifest-path dampibench/Cargo.toml -- \
//!     --workload <adlb_explore|adlb_warm|parmetis_scale|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no spans
//! recorded; with `--trace 1` they are the per-layer ones, derived from
//! spans the benchmark records around its own calls into each layer (and
//! written to `<target>/dampibench/spans-<workload>-seed<n>.jsonl`). Exits
//! non-zero when any output check fails. `--workload all` runs each
//! workload in a child process of its own, so peak memory is per workload.

mod adlb;
mod harness;
mod metrics;
mod parmetis;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use harness::{Ctx, Outcome};

/// A workload: its name and its run.
type Workload = (&'static str, fn(&Ctx) -> Outcome);

/// Workloads by name, in the order `all` runs them.
const WORKLOADS: [Workload; 3] = [
    ("adlb_explore", adlb::explore),
    ("adlb_warm", adlb::warm),
    ("parmetis_scale", parmetis::scale),
];

/// Where the benchmark keeps temporary caches and span files: inside the
/// build directory of the checkout it runs in.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("dampibench")
}

/// Remove temporary caches left by benchmark processes that no longer
/// exist (killed before their own clean-up ran).
fn sweep_orphans() {
    let Ok(rd) = std::fs::read_dir(bench_dir()) else {
        return;
    };
    for e in rd.filter_map(Result::ok) {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name
            .strip_prefix("cache-")
            .and_then(|r| r.split('-').next());
        if let Some(pid) = pid {
            if !std::path::Path::new("/proc").join(pid).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// Write a traced run's spans (nothing for an untraced run).
pub fn write_spans(spans: &spans::Spans, workload: &str, ctx: &Ctx) {
    if !ctx.trace {
        return;
    }
    let path = bench_dir().join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("warning: cannot write spans to {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_one(name: &str, run: fn(&Ctx) -> Outcome, args: &Args) -> ExitCode {
    let ctx = Ctx {
        seconds: Duration::from_secs(args.seconds),
        seed: args.seed,
        trace: args.trace,
    };
    println!(
        "dampibench {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = run(&ctx);
    for (n, v, u) in out.metrics.rows() {
        println!("  {n:<32} {v:>18.9} {u}");
    }
    if let Some(rate) = out.replays_per_s {
        println!("  {:<32} {rate:>16.6} 1/s", "replays_per_s");
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<32} {frac:>16.6} ratio ({} of {})",
        "failed_frac", out.failed, out.attempted
    );
    let samples: Vec<String> = out.samples.iter().map(|t| format!("{t:.3}")).collect();
    println!("  operation wall times (s): {}", samples.join(" "));
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lines = Vec::new();
    for (name, _) in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot run workload {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let mut body: Vec<&str> = stdout.lines().collect();
        let last = body.pop().unwrap_or("");
        for l in body {
            println!("{l}");
        }
        correct &= child.status.success() && last.starts_with("{\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        lines.push(format!("\"{name}\": {last}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}, \"workloads\": {{{}}}}}",
        attempted.max(1),
        lines.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dampibench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::FAILURE;
        }
    };
    sweep_orphans();
    if args.workload == "all" {
        return run_all(&args);
    }
    let (name, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("parse checked the name");
    run_one(name, *run, &args)
}
