//! `sgperf`: one benchmark for every performance claim about the
//! SuperGlue reproduction.
//!
//! A run executes one workload ([`workload::Workload`]) closed loop on
//! one thread for a fixed host-time budget, checks its outputs, and
//! reports end-to-end metrics. A traced run also reruns the workload's
//! first pass with spans around every library call and runs the
//! per-layer probes ([`probe`]) afterwards, so the probes cannot
//! perturb what they explain. See `README.md` for the workloads, the
//! metrics and the compare protocol.

pub mod compare;
pub mod probe;
pub mod report;
pub mod rig;
pub mod span;
pub mod stats;
pub mod workload;

use std::time::{Duration, Instant};

use composite::{LatencyStat, Mechanism, MetricsSnapshot, MECHANISMS};

use crate::report::{manifest, Kind, Metric, RunReport};
use crate::rig::IFACES;
use crate::span::Spans;
use crate::stats::{median, nearest_rank, tail_percentile};
use crate::workload::{run_timed, setup, Pass, Sizes, Timed, Violation, Workload};

/// The seed `sgperf run` uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Host-time budget of the timed loop (pass 0 always completes).
    pub seconds: f64,
    /// Rerun pass 0 with spans and run the per-layer probes.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// Peak resident set of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn invocations(m: &MetricsSnapshot) -> u64 {
    m.rows.values().map(|r| r.invocations).sum()
}

fn recovery_latency(m: &MetricsSnapshot) -> LatencyStat {
    let mut all = LatencyStat::default();
    for r in m.rows.values() {
        all.merge(&r.recovery_latency);
    }
    all
}

/// Run one workload and assemble its report.
#[must_use]
pub fn run(opts: &RunOptions) -> RunReport {
    let (w, sizes) = (opts.workload, &opts.sizes);
    let manifest = manifest(w, opts.seed, opts.seconds, opts.trace, sizes);

    for _ in 0..sizes.setup_warmups {
        drop(setup(w, opts.seed, sizes));
    }
    let time_setup = || {
        let t = Instant::now();
        let d = setup(w, opts.seed, sizes);
        (t.elapsed().as_secs_f64(), d)
    };
    let (first, mut driver) = time_setup();
    let mut setup_s = vec![first];
    // The other set-ups are spread over the timed loop, between units,
    // so their median samples the host over the whole run rather than
    // one moment of it.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let interval = budget / u32::try_from(sizes.setups.max(1)).unwrap_or(u32::MAX);
    let mut due = Instant::now();
    let mut timed = run_timed(&mut *driver, budget, &mut Spans::new(false), &mut || {
        while setup_s.len() < sizes.setups && Instant::now() >= due {
            setup_s.push(time_setup().0);
            due += interval;
        }
    });
    while setup_s.len() < sizes.setups {
        setup_s.push(time_setup().0);
    }
    drop(driver);
    let rss = peak_rss_mb();

    let mut notes = Vec::new();
    let mut violations = std::mem::take(&mut timed.violations);
    let end_to_end = end_to_end(w, &timed, median(&mut setup_s), rss, &mut notes);
    if rss.is_none() {
        notes.push("peak_rss_mb unavailable: /proc/self/status has no VmHWM".into());
    }

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if opts.trace {
        let mut recorder = Spans::new(true);
        let mut fresh = setup(w, opts.seed, sizes);
        let traced = run_timed(&mut *fresh, Duration::ZERO, &mut recorder, &mut || {});
        drop(fresh);
        if !traced.pass.same_outputs(&timed.pass) {
            violations.push(Violation::TraceDiverged);
        }
        match probe::run_all(&mut recorder, sizes) {
            Ok(probes) => {
                per_layer = probes;
                per_layer.extend(workload_layers(w, &timed, &traced, &recorder, &per_layer));
            }
            Err(e) => violations.push(Violation::Call(e)),
        }
        spans = recorder.spans().to_vec();
    }

    RunReport {
        manifest,
        workload: w,
        seed: opts.seed,
        traced: opts.trace,
        attempted: timed.ops,
        failed: timed.failed,
        violations,
        end_to_end,
        per_layer,
        spans,
        notes,
    }
}

fn end_to_end(
    w: Workload,
    timed: &Timed,
    setup_s: f64,
    rss: Option<f64>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let pass = &timed.pass;
    let mut samples = timed.samples.clone();
    samples.sort_by(f64::total_cmp);
    let pct = |pm| {
        if samples.is_empty() {
            0.0
        } else {
            nearest_rank(&samples, pm)
        }
    };
    // Interference from other work on the host only ever adds time, so
    // the fastest tenth of units tracks the code's own cost.
    let mut out = vec![
        Metric::end_to_end("op_us_p10", pct(100)),
        Metric::end_to_end("setup_s", setup_s),
        Metric::end_to_end("peak_rss_mb", rss.unwrap_or(0.0)),
        Metric::end_to_end(
            "ops_per_s",
            timed.ops as f64 / (timed.host_ns.max(1) as f64 / 1e9),
        ),
        Metric::end_to_end("op_us_p50", pct(500)),
    ];
    // The tail with at least ten samples beyond it at these sizes: a
    // campaign run times a few hundred rounds, an invoke run thousands.
    match w {
        Workload::Campaign => out.push(Metric::end_to_end("op_us_p90", pct(900))),
        Workload::Invoke => out.push(Metric::end_to_end("op_us_p99", pct(990))),
        _ => {}
    }
    out.push(Metric::end_to_end(
        "fail_ratio",
        pass.failed as f64 / pass.ops.max(1) as f64,
    ));
    if matches!(w, Workload::Web | Workload::Pipeline) {
        out.push(Metric::end_to_end(
            "sim_throughput",
            pass.ops as f64 / (pass.sim_ns.max(1) as f64 / 1e9),
        ));
    }
    if w != Workload::Invoke {
        let lat = recovery_latency(&pass.metrics);
        out.push(Metric::end_to_end(
            "sim_recovery_us_p50",
            lat.quantile_ns(0.5) as f64 / 1e3,
        ));
        out.push(Metric::end_to_end(
            "sim_recovery_us_p99",
            lat.quantile_ns(0.99) as f64 / 1e3,
        ));
    }
    if matches!(w, Workload::Campaign | Workload::CampaignTraced) {
        out.push(Metric::end_to_end(
            "sim_success_rate",
            pass.row.success_rate(),
        ));
    }

    let tail = tail_percentile(samples.len())
        .map_or("none has 10 samples beyond it".into(), |pm| {
            format!("p{} = {:.4} us", f64::from(pm) / 10.0, pct(pm))
        });
    notes.push(format!(
        "{} timed units, {} ops, {:.3} s; {} op_us samples, highest reportable tail {tail}",
        timed.units,
        timed.ops,
        timed.host_ns as f64 / 1e9,
        samples.len()
    ));
    notes.push(format!(
        "pass 0: {} ops, {} failed, {} boots, {:.3} s host, {:.3} s simulated",
        pass.ops,
        pass.failed,
        pass.boots,
        pass.host_ns as f64 / 1e9,
        pass.sim_ns as f64 / 1e9
    ));
    if matches!(w, Workload::Campaign | Workload::CampaignTraced) {
        let r = &pass.row;
        notes.push(format!(
            "pass 0 Table II: injected {} recovered {} segfault {} propagated {} other {} undetected {} degraded {}",
            r.injected, r.recovered, r.segfault, r.propagated, r.other, r.undetected, r.degraded
        ));
    }
    out
}

fn reading(layers: &[Metric], name: &str) -> f64 {
    layers
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Per-layer metrics of the workload itself: shares of host time and
/// counts per op, from pass 0 of the untraced run and its traced rerun.
fn workload_layers(
    w: Workload,
    timed: &Timed,
    traced: &Timed,
    recorder: &Spans,
    probes: &[Metric],
) -> Vec<Metric> {
    let pass: &Pass = &timed.pass;
    let kops = pass.ops.max(1) as f64 / 1e3;
    let host_ns = pass.host_ns.max(1) as f64;
    let calls = invocations(&pass.metrics).max(1) as f64;
    let boot_us = match w {
        Workload::Campaign | Workload::CampaignTraced | Workload::Web => {
            reading(probes, "testbed.build_us.superglue")
        }
        Workload::Pipeline => reading(probes, "testbed.build_us.pipeline"),
        Workload::Invoke => 0.0,
    };
    let span_ns = |prefix: &str| -> f64 {
        recorder
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold(0.0, |sum, s| sum + s.duration_ns() as f64)
    };
    let reboots: u64 = pass.metrics.rows.values().map(|r| r.reboots).sum();
    let det = |n: &str, u: &str, v: f64| Metric::layer(n, u, Kind::Deterministic, v);
    let host = |n: &str, u: &str, v: f64| Metric::layer(n, u, Kind::Host, v);
    let mut out = vec![
        host(
            "trace_overhead_pct",
            "%",
            (traced.pass.host_ns as f64 / host_ns - 1.0) * 100.0,
        ),
        host(
            "wl.boot_share_pct",
            "%",
            pass.boots as f64 * boot_us * 1e3 / host_ns * 100.0,
        ),
        host(
            "wl.artifact_share_pct",
            "%",
            span_ns("artifact.") / traced.host_ns.max(1) as f64 * 100.0,
        ),
        det(
            "wl.invocations_per_op",
            "1/op",
            calls / pass.ops.max(1) as f64,
        ),
        host("wl.ns_per_invocation", "ns", host_ns / calls),
        det("wl.boots_per_kop", "1/kop", pass.boots as f64 / kops),
        det("wl.reboots_per_kop", "1/kop", reboots as f64 / kops),
    ];
    out.extend(MECHANISMS.iter().map(|&m: &Mechanism| {
        det(
            &format!("mech.{}_per_kop", m.name()),
            "1/kop",
            pass.metrics.mechanism_total(m) as f64 / kops,
        )
    }));
    if matches!(w, Workload::Campaign | Workload::CampaignTraced) {
        for iface in IFACES {
            let (ops, ns) = timed
                .by_label
                .get(iface.name())
                .copied()
                .unwrap_or_default();
            out.push(host(
                &format!("swifi.{}.ops_per_s", iface.name()),
                "1/s",
                ops as f64 / (ns.max(1) as f64 / 1e9),
            ));
        }
        out.push(det("swifi.boots", "count", pass.boots as f64));
    }
    if w == Workload::CampaignTraced {
        let events = traced.pass.events.max(1) as f64;
        out.extend([
            det(
                "wl.artifact.trace_events",
                "count",
                traced.pass.events as f64,
            ),
            det(
                "wl.artifact.bytes_per_event",
                "B",
                traced.pass.bytes as f64 / events,
            ),
            host(
                "wl.artifact.jsonl_ns_per_event",
                "ns",
                span_ns("artifact.jsonl") / events,
            ),
            host(
                "wl.artifact.chrome_ns_per_event",
                "ns",
                span_ns("artifact.chrome") / events,
            ),
            host(
                "wl.artifact.series_us",
                "us",
                span_ns("artifact.series") / 1e3 / traced.units.max(1) as f64,
            ),
        ]);
    }
    out
}
