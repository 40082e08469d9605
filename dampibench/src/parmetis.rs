//! `parmetis_scale`: the paper's scale axis. One interleaving at np=1024
//! (no wildcards), so the `mpi` and `tool` layers carry the whole cost and
//! the scheduler is bypassed.

use std::time::Instant;

use dampi_core::{ClockMode, DampiConfig, DampiVerifier, MixingBound, VerificationReport};
use dampi_isp::IspVerifier;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};

use crate::harness::{
    layer_probe, mpi_curve, parity, peak_rss_mb, repeat_for, scheduler_metrics, traced_verify, Ctx,
    Outcome,
};
use crate::spans::Spans;
use crate::stats::median;

/// World size of the timed campaign.
const NP: usize = 1024;
/// Smaller worlds of the traced scaling curve.
const CURVE: [(usize, &str, &str, usize); 4] = [
    (4, "mpi.empty_run_ms.np4", "mpi.native_run_ms.np4", 20),
    (16, "mpi.empty_run_ms.np16", "mpi.native_run_ms.np16", 20),
    (64, "mpi.empty_run_ms.np64", "mpi.native_run_ms.np64", 10),
    (256, "mpi.empty_run_ms.np256", "mpi.native_run_ms.np256", 5),
];
/// Workload loop scale (`ParmetisParams::nominal`).
const SCALE: f64 = 0.2;
/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Constructions timed together in one set-up sample.
const SETUP_BATCH: usize = 1000;
/// World size at which the traced run compares ISP, vector-clock and
/// Lamport-clock verification of the same program.
const COMPARE_NP: usize = 64;

/// Parmetis at `np` ranks with the campaign-shaping settings pinned: the
/// free scheduler (one interleaving, so thread timing cannot change the
/// result), lowest-rank matching, Lamport clocks, one replay worker (a
/// pool has nothing to run beside the single run).
fn verifier(np: usize) -> (DampiVerifier, Parmetis) {
    let sim = SimConfig::new(np)
        .with_policy(MatchPolicy::LowestRank)
        .with_deterministic(false);
    let cfg = DampiConfig::default()
        .with_clock_mode(ClockMode::Lamport)
        .with_bound(MixingBound::Unbounded)
        .with_max_interleavings(100_000)
        .with_jobs(1);
    (
        DampiVerifier::with_config(sim, cfg),
        Parmetis::new(ParmetisParams::nominal(np, SCALE)),
    )
}

/// `parmetis_scale`: repeated `DampiVerifier::verify` at np=1024.
pub fn scale(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let spans = Spans::new(ctx.trace);
    // Set-up is verifier and program construction only, which takes well
    // under a microsecond: each sample times a batch and reports the time
    // of one construction.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        let t = Instant::now();
        spans.time("setup", None, || {
            for _ in 0..SETUP_BATCH {
                batch.push(verifier(NP));
            }
        });
        setups.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    out.set("setup_s", median(&setups));
    let (v, program) = verifier(NP);

    let mut reference = None;
    let times = repeat_for(
        ctx.untraced_window(),
        || v.verify(&program),
        |r| {
            out.campaign("campaign", &r);
            out.check(r.interleavings == 1, || {
                format!("{} interleavings, expected 1", r.interleavings)
            });
            out.check(r.errors.is_empty(), || {
                format!("{} error(s) found", r.errors.len())
            });
            reference.get_or_insert(r);
        },
    );
    let campaign_s = out.campaign_times(times);
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        let reference = reference.expect("at least one campaign");
        let mut traced = Vec::new();
        let traced_times = repeat_for(
            ctx.seconds - ctx.untraced_window(),
            || traced_verify(&spans, None, &v, &program, None),
            |c| {
                if let Some(diff) = parity(&reference, &c.ex) {
                    out.check(false, || format!("traced campaign diverged: {diff}"));
                }
                traced.push(c);
            },
        );
        scheduler_metrics(&mut out, &spans, &traced, v.cfg.jobs);
        for (np, empty_name, native_name, reps) in CURVE {
            let (v, program) = verifier(np);
            let (empty, native) = mpi_curve(&spans, &v.sim, &program, reps);
            out.set(empty_name, empty);
            out.set(native_name, native);
        }
        compare_modes(&mut out, &spans);
        layer_probe(&mut out, &spans, &v, &program, 1);
        out.set(
            "mpi.empty_run_ms.np1024",
            out.metrics.get("mpi.empty_run_ms"),
        );
        out.set(
            "mpi.native_run_ms.np1024",
            out.metrics.get("mpi.native_run_ms"),
        );
        out.set("trace_overhead_x", median(&traced_times) / campaign_s);
    }
    crate::write_spans(&spans, "parmetis_scale", ctx);
    out
}

/// `isp` and `clocks`: the same Parmetis world verified by the centralized
/// ISP baseline and by DAMPI under vector and Lamport clocks.
fn compare_modes(out: &mut Outcome, spans: &Spans) {
    let (lamport, program) = verifier(COMPARE_NP);
    let vector = DampiVerifier::with_config(
        lamport.sim.clone(),
        lamport.cfg.clone().with_clock_mode(ClockMode::Vector),
    );
    let isp = IspVerifier::new(lamport.sim.clone());
    let mut check = |mode: &str, r: VerificationReport| {
        out.campaign(mode, &r);
        out.check(r.interleavings == 1 && r.errors.is_empty(), || {
            format!(
                "{mode} at np={COMPARE_NP}: {} interleavings, {} errors",
                r.interleavings,
                r.errors.len()
            )
        });
    };
    for _ in 0..5 {
        check(
            "isp",
            spans.time("isp.verify", None, || isp.verify(&program)),
        );
        check(
            "vector",
            spans.time("clocks.vector_verify", None, || vector.verify(&program)),
        );
        check(
            "lamport",
            spans.time("clocks.lamport_verify", None, || lamport.verify(&program)),
        );
    }
    out.set("isp.verify_ms", median(&spans.ms("isp.verify")));
    out.set(
        "clocks.vector_verify_ms",
        median(&spans.ms("clocks.vector_verify")),
    );
    out.set(
        "clocks.lamport_verify_ms",
        median(&spans.ms("clocks.lamport_verify")),
    );
}
