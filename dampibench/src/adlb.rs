//! `adlb_explore` and `adlb_warm`: one long campaign of tiny replays over
//! a fixed tree, uncached and served from a warm replay cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dampi_core::scheduler::RunResult;
use dampi_core::{
    ClockMode, DampiConfig, DampiVerifier, MixingBound, ReplayCache, VerificationReport,
};
use dampi_mpi::{MatchPolicy, Mpi, MpiProgram, SimConfig};
use dampi_workloads::adlb::{Adlb, AdlbParams};

use crate::harness::{
    layer_probe, parity, peak_rss_mb, repeat_for, scheduler_metrics, traced_verify, Ctx, Outcome,
};
use crate::spans::{SpanId, Spans};
use crate::stats::median;

const NP: usize = 16;
/// Replay worker threads; at most the two cores the benchmark is sized for.
const JOBS: usize = 2;
/// Setups per run; `setup_s` is their median. A warm set-up runs the
/// whole cold campaign, so it repeats fewer times.
const SETUPS: usize = 15;
const WARM_SETUPS: usize = 3;

/// ADLB at np=16 with every campaign-shaping setting pinned: the
/// deterministic scheduler (the only mode whose tree repeats run to run),
/// lowest-rank matching, Lamport clocks, k=1 bounded mixing, two replay
/// workers, no launch cost.
fn verifier() -> DampiVerifier {
    let sim = SimConfig::new(NP)
        .with_policy(MatchPolicy::LowestRank)
        .with_deterministic(true);
    let cfg = DampiConfig::default()
        .with_clock_mode(ClockMode::Lamport)
        .with_bound(MixingBound::K(1))
        .with_max_interleavings(100_000)
        .with_jobs(JOBS);
    DampiVerifier::with_config(sim, cfg)
}

/// The ADLB program, counting how many replays actually execute it (rank
/// 0 runs once per executed replay; a cache hit runs nothing).
struct Counted {
    inner: Adlb,
    executions: AtomicU64,
}

impl Counted {
    fn new() -> Self {
        Self {
            inner: Adlb::new(AdlbParams::default()),
            executions: AtomicU64::new(0),
        }
    }

    fn take(&self) -> u64 {
        self.executions.swap(0, Ordering::Relaxed)
    }
}

impl MpiProgram for Counted {
    fn run(&self, mpi: &mut dyn Mpi) -> dampi_mpi::Result<()> {
        if mpi.world_rank() == 0 {
            self.executions.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.run(mpi)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The `--prune-static` path: a traced free run, its static analysis,
/// and the plan installed on the verifier. Returns the verifier and the
/// run to reuse as every campaign's `SELF_RUN`.
fn prepare(
    out: &mut Outcome,
    spans: &Spans,
    parent: SpanId,
    program: &Counted,
) -> (DampiVerifier, RunResult) {
    let v = verifier();
    let (events, first) = spans.time("analysis.traced_run", Some(parent), || {
        v.traced_run(program)
    });
    let plan = spans.time("analysis.analyze", Some(parent), || {
        dampi_analysis::analyze(program.name(), NP, &events, &first).prune_plan()
    });
    let facts = plan.infeasible.len()
        + plan.deterministic.len()
        + plan.orbits.len()
        + plan.refined_infeasible.len()
        + plan.refined_deterministic.len()
        + plan.protocol_infeasible.len()
        + plan.protocol_deterministic.len();
    out.set("analysis.plan_facts", facts as f64);
    out.check(!plan.is_empty(), || {
        "static analysis produced an empty prune plan".to_owned()
    });
    (v.with_prune_plan(plan), first)
}

/// The checks every ADLB campaign passes.
fn check_clean(out: &mut Outcome, label: &str, r: &VerificationReport) {
    out.campaign(label, r);
    out.check(r.errors.is_empty(), || {
        format!("{label}: {} error(s) found", r.errors.len())
    });
    out.check(r.timeouts.is_empty(), || {
        format!("{label}: {} replay timeout(s)", r.timeouts.len())
    });
}

fn analysis_metrics(out: &mut Outcome, spans: &Spans) {
    out.set(
        "analysis.traced_run_ms",
        median(&spans.ms("analysis.traced_run")),
    );
    out.set("analysis.analyze_ms", median(&spans.ms("analysis.analyze")));
}

/// `adlb_explore`: repeated uncached campaigns; `analysis` is set-up.
pub fn explore(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let spans = Spans::new(ctx.trace);
    let program = Counted::new();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let setup = spans.open("setup", None);
        prepared = Some(prepare(&mut out, &spans, setup.id(), &program));
        drop(setup);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (v, first) = prepared.expect("at least one setup");
    out.set("setup_s", median(&setups));

    let mut reference: Option<VerificationReport> = None;
    let mut counts = Vec::new();
    let times = repeat_for(
        ctx.untraced_window(),
        || v.verify_with_first_run(&program, first.clone()),
        |r| {
            check_clean(&mut out, "campaign", &r);
            if let Some(first_report) = &reference {
                out.check(first_report.to_json() == r.to_json(), || {
                    "campaign differs from the first campaign of this run".to_owned()
                });
            }
            counts.push(r.interleavings as f64);
            reference.get_or_insert(r);
        },
    );
    let campaign_s = out.campaign_times(times);
    out.replays_per_s = Some(median(&counts) / campaign_s);
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        let reference = reference.expect("at least one campaign");
        let mut traced = Vec::new();
        let traced_times = repeat_for(
            ctx.seconds - ctx.untraced_window(),
            || traced_verify(&spans, None, &v, &program, Some(first.clone())),
            |c| {
                if let Some(diff) = parity(&reference, &c.ex) {
                    out.check(false, || format!("traced campaign diverged: {diff}"));
                }
                traced.push(c);
            },
        );
        scheduler_metrics(&mut out, &spans, &traced, JOBS);
        analysis_metrics(&mut out, &spans);
        layer_probe(&mut out, &spans, &v, &program, 20);
        out.set("trace_overhead_x", median(&traced_times) / campaign_s);
    }
    crate::write_spans(&spans, "adlb_explore", ctx);
    out
}

/// A temporary cache root inside the build directory, removed when
/// dropped — on success, on a failed check and on a panic alike.
struct TempCache {
    root: PathBuf,
}

impl TempCache {
    fn new(n: usize) -> Self {
        let root = crate::bench_dir().join(format!("cache-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root }
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size in bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Keyspace digest of the pinned ADLB configuration (the cache key's
/// program half; the plan half comes from the installed plan).
const PROGRAM_DIGEST: u64 = 0xadb1_0016_0001_0002;

/// `adlb_warm`: set-up fills a fresh cache with the cold campaign; the
/// timed operation is the warm rerun, served from that cache.
pub fn warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let spans = Spans::new(ctx.trace);
    let program = Counted::new();
    let mut setups = Vec::new();
    let mut state = None;
    for n in 0..WARM_SETUPS {
        // The previous set-up's cache goes before the next one fills.
        drop(state.take());
        let t = Instant::now();
        let setup = spans.open("setup", None);
        let dir = TempCache::new(n);
        let (v, first) = prepare(&mut out, &spans, setup.id(), &program);
        let plan = dampi_core::cache::plan_digest(v.prune.as_deref());
        let cache = match ReplayCache::open(&dir.root, PROGRAM_DIGEST, plan, false) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                out.check(false, || format!("cannot open the replay cache: {e}"));
                return out;
            }
        };
        let v = v.with_cache(Arc::clone(&cache));
        program.take();
        let cold = spans.time("cache.cold_fill", Some(setup.id()), || {
            v.verify_with_first_run(&program, first.clone())
        });
        check_clean(&mut out, "cold campaign", &cold);
        let executed = program.take();
        drop(setup);
        setups.push(t.elapsed().as_secs_f64());
        state = Some((dir, cache, v, first, cold, executed));
    }
    let (dir, cache, v, first, cold, cold_executed) = state.expect("at least one setup");
    out.set("setup_s", median(&setups));
    let entries = cache.entries().unwrap_or(0) as u64;
    out.check(entries > 0 && cold_executed > 0, || {
        format!("cold fill stored {entries} entries from {cold_executed} executed replays")
    });
    let cold_json = cold.to_json();

    let mut counts = Vec::new();
    let times = repeat_for(
        ctx.untraced_window(),
        || v.verify_with_first_run(&program, first.clone()),
        |r| {
            check_clean(&mut out, "warm campaign", &r);
            out.check(r.to_json() == cold_json, || {
                "warm report differs from the cold report".to_owned()
            });
            let executed = program.take();
            out.check(executed == 0, || {
                format!("warm campaign executed {executed} replays (hit rate below 1)")
            });
            counts.push(r.interleavings as f64);
        },
    );
    out.check(cache.stale_count() == 0, || {
        format!("{} stale cache entries", cache.stale_count())
    });
    let campaign_s = out.campaign_times(times);
    out.replays_per_s = Some(median(&counts) / campaign_s);
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        let mut traced = Vec::new();
        let traced_times = repeat_for(
            ctx.seconds - ctx.untraced_window(),
            || traced_verify(&spans, None, &v, &program, Some(first.clone())),
            |c| {
                if let Some(diff) = parity(&cold, &c.ex) {
                    out.check(false, || format!("traced warm campaign diverged: {diff}"));
                }
                let lookups = c.ex.cache_hits + c.ex.cache_misses;
                out.check(lookups > 0 && c.ex.cache_hits == lookups, || {
                    format!(
                        "traced warm campaign: {} hits of {lookups} lookups",
                        c.ex.cache_hits
                    )
                });
                traced.push(c);
            },
        );
        let hits: u64 = traced.iter().map(|c| c.ex.cache_hits).sum();
        let lookups: u64 = traced
            .iter()
            .map(|c| c.ex.cache_hits + c.ex.cache_misses)
            .sum();
        out.set("cache.hit_rate", hits as f64 / lookups.max(1) as f64);
        let warm_self: Vec<f64> = traced
            .iter()
            .map(|c| spans.self_ns(c.explore.id) as f64 / 1e9)
            .collect();
        out.set("cache.warm_self_s", median(&warm_self));
        out.set("cache.entries", entries as f64);
        out.set("cache.bytes", dir_bytes(&dir.root) as f64);
        scheduler_metrics(&mut out, &spans, &traced, JOBS);
        analysis_metrics(&mut out, &spans);
        layer_probe(&mut out, &spans, &v, &program, 20);
        out.set("trace_overhead_x", median(&traced_times) / campaign_s);
    }
    drop(dir);
    crate::write_spans(&spans, "adlb_warm", ctx);
    out
}
