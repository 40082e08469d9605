//! Pieces every workload shares: the run context and its outcome, the
//! traced twin of `DampiVerifier::verify`, the `mpi`/`tool` layer probe
//! and the scheduler metrics derived from spans.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dampi_core::decisions::DecisionSet;
use dampi_core::epoch::ToolRunStats;
use dampi_core::scheduler::{self, Exploration, ExploreOptions, RunResult};
use dampi_core::{DampiVerifier, VerificationReport};
use dampi_mpi::{run_native, FnProgram, Mpi, MpiProgram, SimConfig};

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, quantile, tail_percentile};

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Measuring time (`--seconds`).
    pub seconds: Duration,
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Traced run (`--trace 1`): derive per-layer metrics from spans.
    pub trace: bool,
}

impl Ctx {
    /// The untraced measuring window: all of it, or half of it in a traced
    /// run, whose other half times the same operation under spans.
    #[must_use]
    pub fn untraced_window(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (replays).
    pub attempted: u64,
    /// Operations failed: replay timeouts, quarantines, failed checks.
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// The metrics this run reports.
    pub metrics: Metrics,
    /// Wall times in seconds of the untraced timed operations.
    pub samples: Vec<f64>,
    /// Committed interleavings per second of campaign, on workloads whose
    /// campaign explores more than one interleaving.
    pub replays_per_s: Option<f64>,
}

impl Outcome {
    /// A fresh outcome reporting the catalogue the run mode asks for.
    #[must_use]
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::zeroed(if ctx.trace { PER_LAYER } else { END_TO_END }),
            samples: Vec::new(),
            replays_per_s: None,
        }
    }

    /// Record an output check; a failed one fails one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Account a finished campaign: its replays, the ones the watchdog or
    /// the supervisor gave up on, and the checks every campaign must pass.
    pub fn campaign(&mut self, label: &str, r: &VerificationReport) {
        self.attempted += r.interleavings;
        self.failed += r.timeouts.len() as u64 + r.quarantined;
        self.check(!r.budget_exhausted, || {
            format!("{label}: interleaving budget exhausted")
        });
    }

    /// Keep the untraced operation times and report their median as
    /// `campaign_s`, which is returned.
    pub fn campaign_times(&mut self, times: Vec<f64>) -> f64 {
        let campaign_s = median(&times);
        self.set("campaign_s", campaign_s);
        self.samples = times;
        campaign_s
    }

    /// Set a metric of the run mode's catalogue; a metric of the other
    /// mode is dropped, so workloads can set both unconditionally.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        if self.metrics.rows().any(|(n, _, _)| n == name) {
            self.metrics.set(name, value);
        }
    }
}

/// Run `op` at least once and until `window` has passed, handing each
/// result to `check` outside the timed region. Returns the wall time in
/// seconds of each `op` call.
pub fn repeat_for<T>(
    window: Duration,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let result = op();
        times.push(t.elapsed().as_secs_f64());
        check(result);
        if start.elapsed() >= window {
            return times;
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The exploration options `DampiVerifier::verify` derives from the
/// verifier's configuration. A field added to `ExploreOptions` later takes
/// its default here; [`parity`] catches one that `verify` sets otherwise.
#[must_use]
#[allow(clippy::needless_update)]
pub fn explore_options(v: &DampiVerifier) -> ExploreOptions {
    ExploreOptions {
        bound: v.cfg.bound,
        honor_regions: v.cfg.honor_regions,
        max_interleavings: v.cfg.max_interleavings,
        stop_on_first_error: v.cfg.stop_on_first_error,
        branch_on_guided: v.cfg.branch_on_guided,
        divergence_retries: v.cfg.divergence_retries,
        retry_backoff: v.cfg.retry_backoff,
        checkpoint: v.cfg.journal.clone(),
        jobs: v.cfg.jobs,
        metrics: v.metrics.clone(),
        trace: v.trace.clone(),
        prune: v.prune.clone(),
        cache: v.cache.clone(),
        ..ExploreOptions::default()
    }
}

/// One traced campaign: the exploration plus the spans that timed it.
pub struct Traced {
    /// What the walk produced.
    pub ex: Exploration,
    /// The `scheduler.explore` span.
    pub explore: SpanId,
    /// Calls of the run closure, including the `SELF_RUN` served from
    /// `first` and divergence retries.
    pub run_calls: u64,
}

/// `DampiVerifier::verify` (or `verify_with_first_run` when `first` is
/// given), with the run closure of `scheduler::explore_parallel` wrapped in
/// a `scheduler.replay` span under one `scheduler.explore` span.
pub fn traced_verify(
    spans: &Spans,
    parent: Option<SpanId>,
    v: &DampiVerifier,
    program: &dyn MpiProgram,
    first: Option<RunResult>,
) -> Traced {
    let opts = explore_options(v);
    let first = Mutex::new(first);
    let calls = AtomicU64::new(0);
    let open = spans.open("scheduler.explore", parent);
    let explore = open.id();
    let ex = scheduler::explore_parallel(
        |ds: &DecisionSet| {
            calls.fetch_add(1, Ordering::Relaxed);
            if ds.is_self_run() {
                if let Some(run) = first.lock().expect("first-run slot never poisoned").take() {
                    return run;
                }
            }
            let _replay = spans.open("scheduler.replay", Some(explore));
            v.instrumented_run(program, ds)
        },
        &opts,
    );
    drop(open);
    Traced {
        ex,
        explore,
        run_calls: calls.load(Ordering::Relaxed),
    }
}

/// Check that a traced campaign reproduced an untraced one exactly:
/// interleavings, errors (with their schedules), discovered matches and
/// timeouts. Returns what differs.
#[must_use]
pub fn parity(report: &VerificationReport, ex: &Exploration) -> Option<String> {
    let mut diff = String::new();
    if report.interleavings != ex.interleavings {
        let _ = write!(
            diff,
            "interleavings {} vs {}; ",
            report.interleavings, ex.interleavings
        );
    }
    if format!("{:?}", report.errors) != format!("{:?}", ex.errors) {
        let _ = write!(diff, "error sets differ; ");
    }
    if report.discovered != ex.discovered {
        let _ = write!(diff, "discovered matches differ; ");
    }
    if report.timeouts.len() != ex.timeouts.len() {
        let _ = write!(
            diff,
            "timeouts {} vs {}; ",
            report.timeouts.len(),
            ex.timeouts.len()
        );
    }
    (!diff.is_empty()).then_some(diff)
}

/// Scheduler-layer metrics over one or more traced campaigns run with
/// `jobs` workers. Counts are means per campaign.
pub fn scheduler_metrics(out: &mut Outcome, spans: &Spans, campaigns: &[Traced], jobs: usize) {
    let replays: Vec<_> = spans
        .named("scheduler.replay")
        .into_iter()
        .filter(|s| campaigns.iter().any(|c| s.parent == Some(c.explore.id)))
        .collect();
    let ms: Vec<f64> = replays.iter().map(|s| s.ms()).collect();
    let pct = tail_percentile(ms.len(), 99.0);
    out.set("scheduler.replay_ms.p50", median(&ms));
    out.set("scheduler.replay_ms.p99", quantile(&ms, pct));
    out.set("scheduler.replay_ms.p99_pct", pct);
    let self_s: Vec<f64> = campaigns
        .iter()
        .map(|c| spans.self_ns(c.explore.id) as f64 / 1e9)
        .collect();
    out.set("scheduler.self_s", median(&self_s));
    let explore_ns: u64 = spans
        .named("scheduler.explore")
        .iter()
        .filter(|s| campaigns.iter().any(|c| c.explore.id == s.at.id))
        .map(|s| s.ns())
        .sum();
    let busy_ns: u64 = replays.iter().map(|s| s.ns()).sum();
    if explore_ns > 0 {
        out.set(
            "scheduler.worker_util",
            busy_ns as f64 / (explore_ns as f64 * jobs.max(1) as f64),
        );
    }
    let n = campaigns.len().max(1) as f64;
    let calls: u64 = campaigns.iter().map(|c| c.run_calls).sum();
    let committed: u64 = campaigns.iter().map(|c| c.ex.interleavings).sum();
    out.set("scheduler.run_calls", calls as f64 / n);
    if calls > 0 {
        out.set("scheduler.useful_ratio", committed as f64 / calls as f64);
    }
    let mean =
        |f: fn(&Exploration) -> u64| campaigns.iter().map(|c| f(&c.ex)).sum::<u64>() as f64 / n;
    out.set("scheduler.interleavings", mean(|ex| ex.interleavings));
    out.set("scheduler.divergences", mean(|ex| ex.divergences));
    out.set("scheduler.retries", mean(|ex| ex.retries));
    out.set(
        "prune.alternates_pruned",
        mean(|ex| {
            ex.alternates_pruned + ex.refined_alternates_pruned + ex.protocol_alternates_pruned
        }),
    );
    out.set(
        "prune.wildcards_deterministic",
        mean(|ex| {
            ex.wildcards_deterministic
                + ex.refined_wildcards_deterministic
                + ex.protocol_wildcards_deterministic
        }),
    );
}

/// Median wall times of the `mpi` layer for one world: an empty program
/// (init and finalize only) and `program`, both under `run_native`.
pub fn mpi_curve(
    spans: &Spans,
    sim: &SimConfig,
    program: &dyn MpiProgram,
    reps: usize,
) -> (f64, f64) {
    let empty = FnProgram(|_: &mut dyn Mpi| Ok(()));
    let curve = spans.open("mpi.curve", None);
    let id = curve.id();
    for _ in 0..reps {
        spans.time("mpi.empty_run", Some(id), || run_native(sim, &empty));
        spans.time("mpi.native_run", Some(id), || run_native(sim, program));
    }
    drop(curve);
    (
        median(&spans.ms_under("mpi.empty_run", id)),
        median(&spans.ms_under("mpi.native_run", id)),
    )
}

/// The `mpi` and `tool` layers on the workload's own program in the
/// workload's own world: `reps` rounds of an empty program, a native run
/// and an instrumented `SELF_RUN`, back to back so each instrumented run
/// pairs with the native run just before it.
pub fn layer_probe(
    out: &mut Outcome,
    spans: &Spans,
    v: &DampiVerifier,
    program: &dyn MpiProgram,
    reps: usize,
) {
    let empty = FnProgram(|_: &mut dyn Mpi| Ok(()));
    let probe = spans.open("layer.probe", None);
    let id = probe.id();
    let mut stats = ToolRunStats::default();
    for _ in 0..reps {
        spans.time("mpi.empty_run", Some(id), || v.native_run(&empty));
        spans.time("mpi.native_run", Some(id), || v.native_run(program));
        let run = spans.time("tool.self_run", Some(id), || {
            v.instrumented_run(program, &DecisionSet::self_run())
        });
        stats = run.stats;
    }
    drop(probe);
    let native = spans.ms_under("mpi.native_run", id);
    let inst = spans.ms_under("tool.self_run", id);
    let paired: Vec<f64> = inst.iter().zip(&native).map(|(i, n)| i - n).collect();
    out.set(
        "mpi.empty_run_ms",
        median(&spans.ms_under("mpi.empty_run", id)),
    );
    out.set("mpi.native_run_ms", median(&native));
    out.set("tool.self_run_ms", median(&inst));
    out.set("tool.overhead_ms", median(&paired));
    if median(&native) > 0.0 {
        out.set("tool.slowdown_x", median(&inst) / median(&native));
    }
    out.set("tool.pb_wire_bytes", stats.pb_wire_bytes as f64);
    out.set("tool.pb_messages", stats.pb_messages as f64);
    out.set("tool.messages_analyzed", stats.messages_analyzed as f64);
    out.set("tool.late_messages", stats.late_messages as f64);
}
