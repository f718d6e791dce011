//! Fig 6 harness: (a) descriptor-tracking infrastructure overhead,
//! (b) per-descriptor recovery overhead, (c) lines of recovery code —
//! SuperGlue vs C³ for all six system services.
//!
//! Run with `cargo run -p sg-bench --release --bin fig6`. Wall-clock
//! numbers are means ± stdev over repeated batches. Fig 6(a) times the
//! four variants of a service in turns, round by round, so a slow phase
//! of the host falls on all of them alike; its overhead ratios are the
//! medians of the per-round ratios.
//!
//! `--trace PATH` records one flight-recorder trace of a single
//! fault → recover cycle per (service, variant) — the Fig 6(b) recovery
//! path, causally annotated — as JSON-lines at PATH.
//!
//! `--bench-json PATH` writes the Fig 6(a) measurements as a JSON
//! document (per-component base/C³/SuperGlue/SuperGlue-elided
//! µs/iteration, mean ± stdev ± min over the rounds, the median ratios
//! and their unresolved rounds, plus run metadata) for CI artifacts and
//! regression diffing.
//! `--check-ratio X` exits nonzero if any component's SG/C³ overhead
//! ratio — fully tracked *or* elided — exceeds X, or if most of its
//! rounds are unresolved: the CI bench-smoke gate.
//! `--elide` interprets the certified tracking-elision stubs on the
//! Fig 6(b) recovery measurements and `--trace` shards; trace bytes
//! must be identical to a run without the flag.
//!
//! `--series PATH` dumps windowed recovery telemetry of the same
//! fault → recover cycles as JSON-lines for `sgstat series`
//! (`--series-window NS` overrides the 1ms default window).
//!
//! `--loc` stops after Fig 6(c); `--emit DIR` writes the twelve
//! generated stub sources to `DIR/<iface>_{cstub,sstub}.rs.gen`. Every
//! artifact of a run lands together after the run, before the
//! `--check-ratio` gate can exit 1, or none does.

use std::path::Path;
use std::time::Instant;

use composite::json::Json;
use composite::{
    InterfaceCall as _, KernelAccess as _, SeriesSnapshot, SimTime, TraceShard,
    DEFAULT_SERIES_WINDOW, DEFAULT_TRACE_CAPACITY,
};
use sg_bench::{
    handwritten_loc, rig_elided, rustc_version, Artifacts, HarnessArgs, Rig, C3_STUB_SOURCES,
    SERVICES,
};
use superglue::testbed::Variant;

/// Fig 6(a) rounds per service; each times every variant once.
const ROUNDS: usize = 21;
/// Timed iterations per variant per round.
const ROUND_ITERS: u64 = 3_333;
/// Fig 6(b) repetitions per measurement.
const REPS: usize = 7;

/// The Fig 6(a) variants in column order: base (no FT), C³, SuperGlue,
/// and SuperGlue interpreting the certified tracking-elision stubs.
const VARIANTS: [(Variant, bool); 4] = [
    (Variant::Bare, false),
    (Variant::C3, false),
    (Variant::SuperGlue, false),
    (Variant::SuperGlue, true),
];

const USAGE: &str = "usage: fig6 [--loc] [--elide] [--emit DIR] [--bench-json PATH] \
                     [--check-ratio X] [--trace PATH] [--series PATH] [--series-window NS]";

fn label(iface: &str) -> &'static str {
    match iface {
        "sched" => "Sched",
        "mm" => "MM",
        "fs" => "FS",
        "lock" => "Lock",
        "evt" => "Event",
        "tmr" => "Timer",
        _ => "?",
    }
}

/// Summary of one measurement's repetitions.
#[derive(Clone, Copy)]
struct Meas {
    mean: f64,
    stdev: f64,
    min: f64,
}

/// Mean, stdev and min of a sample.
fn stats(xs: &[f64]) -> Meas {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    Meas {
        mean,
        stdev: var.sqrt(),
        min,
    }
}

/// Wall-clock microseconds per iteration of `iface`'s workload under
/// each of [`VARIANTS`]: one sample per variant per round, each on a
/// fresh, warmed rig.
fn paired_rounds(iface: &str) -> [Vec<f64>; 4] {
    let mut samples: [Vec<f64>; 4] = Default::default();
    for round in 0..ROUNDS {
        for k in 0..VARIANTS.len() {
            // Rotate the order, so that no variant always runs first.
            let v = (round + k) % VARIANTS.len();
            let (variant, elide) = VARIANTS[v];
            let mut r: Rig = rig_elided(variant, elide);
            for seq in 0..200 {
                r.run_iteration(iface, seq).expect("iteration");
            }
            let start = Instant::now();
            for seq in 0..ROUND_ITERS {
                r.run_iteration(iface, 1_000 + seq).expect("iteration");
            }
            samples[v].push(start.elapsed().as_secs_f64() * 1e6 / ROUND_ITERS as f64);
        }
    }
    samples
}

/// Wall-clock microseconds to recover one descriptor (fault → reboot →
/// walk → redo), with the plain-call cost subtracted.
fn recovery_us(variant: Variant, iface: &str, elide: bool) -> Meas {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let cycles = 300u32;
        let mut total_us = 0.0;
        let mut r: Rig = rig_elided(variant, elide);
        let (client, thread, svc, fname, args) = r.setup_recovery_victim(iface);
        for _ in 0..cycles {
            r.tb.runtime.inject_fault(svc);
            let start = Instant::now();
            r.tb.runtime
                .interface_call(client, thread, svc, fname, &args)
                .expect("recovery succeeds");
            total_us += start.elapsed().as_secs_f64() * 1e6;
        }
        let start = Instant::now();
        for _ in 0..cycles {
            r.tb.runtime
                .interface_call(client, thread, svc, fname, &args)
                .expect("plain call succeeds");
        }
        let plain_us = start.elapsed().as_secs_f64() * 1e6;
        samples.push(((total_us - plain_us) / f64::from(cycles)).max(0.0));
    }
    stats(&samples)
}

/// One traced fault → recover cycle for a service under a variant: the
/// causally-annotated version of the path [`recovery_us`] times, plus
/// its windowed telemetry when `series_window > 0`.
fn traced_recovery_capture(
    variant: Variant,
    iface: &str,
    elide: bool,
    series_window: u64,
) -> (TraceShard, SeriesSnapshot) {
    let vname = if variant == Variant::C3 {
        "c3"
    } else {
        // The shard label is deliberately elide-independent: the CI
        // differential diffs `--elide` traces byte-for-byte against
        // fully tracked ones.
        "superglue"
    };
    let mut shard = TraceShard::labeled(&format!("fig6b/{iface}/{vname}"));
    let mut r: Rig = rig_elided(variant, elide);
    r.tb.runtime
        .kernel_mut()
        .enable_tracing(DEFAULT_TRACE_CAPACITY);
    if series_window > 0 {
        r.tb.runtime
            .kernel_mut()
            .enable_telemetry(SimTime(series_window));
    }
    let (client, thread, svc, fname, args) = r.setup_recovery_victim(iface);
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(client, thread, svc, fname, &args)
        .expect("recovery succeeds");
    let series = SeriesSnapshot::from_kernel(r.tb.runtime.kernel());
    let label = shard.label.clone();
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&label));
    (shard, series)
}

/// The median of `xs`, which is not empty.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One measured Fig 6(a) row.
struct Fig6aRow {
    iface: &'static str,
    base: Meas,
    c3: Meas,
    sg: Meas,
    /// SuperGlue interpreting the certified tracking-elision stubs.
    sg_elided: Meas,
    /// (SG − base) / (C³ − base): the median over the rounds whose
    /// C³ − base is positive, or infinite (failing the gate) when most
    /// rounds are unresolved.
    ratio: f64,
    /// The same for the elided stubs; `sm_elide` fast paths must only
    /// ever lower it relative to `ratio`.
    elided_ratio: f64,
    /// Rounds whose C³ − base is not positive: dividing by it would read
    /// the host, not the stubs, so they have no ratio.
    unresolved: usize,
}

impl Fig6aRow {
    fn measure(iface: &'static str) -> Fig6aRow {
        let s = paired_rounds(iface);
        let resolved: Vec<usize> = (0..ROUNDS).filter(|&r| s[1][r] > s[0][r]).collect();
        let ratio = |sg: usize| {
            if 2 * resolved.len() < ROUNDS {
                return f64::INFINITY;
            }
            let per_round = resolved
                .iter()
                .map(|&r| (s[sg][r] - s[0][r]).max(0.0) / (s[1][r] - s[0][r]));
            median(per_round.collect())
        };
        Fig6aRow {
            iface,
            base: stats(&s[0]),
            c3: stats(&s[1]),
            sg: stats(&s[2]),
            sg_elided: stats(&s[3]),
            ratio: ratio(2),
            elided_ratio: ratio(3),
            unresolved: ROUNDS - resolved.len(),
        }
    }
}

fn bench_doc(rows: &[Fig6aRow]) -> Json {
    let mut doc = Json::object();
    doc.push("bench", "fig6a_tracking");
    doc.push("unit", "us_per_iteration");
    doc.push("rounds", ROUNDS);
    doc.push("iterations_per_round", ROUND_ITERS);
    doc.push("ratio", "median over rounds of (SG - base) / (C3 - base)");
    // The §V-B micro-workloads are seq-driven and fully deterministic;
    // the seed is recorded for schema stability, not varied.
    doc.push("seed", 0u64);
    doc.push("rustc", rustc_version());
    let mut arr = Vec::new();
    for row in rows {
        let mut o = Json::object();
        o.push("component", label(row.iface));
        o.push("interface", row.iface);
        o.push("base_us_mean", row.base.mean);
        o.push("base_us_stdev", row.base.stdev);
        o.push("base_us_min", row.base.min);
        o.push("c3_us_mean", row.c3.mean);
        o.push("c3_us_stdev", row.c3.stdev);
        o.push("c3_us_min", row.c3.min);
        o.push("superglue_us_mean", row.sg.mean);
        o.push("superglue_us_stdev", row.sg.stdev);
        o.push("superglue_us_min", row.sg.min);
        o.push("sg_over_c3_ratio", row.ratio);
        o.push("superglue_elided_us_mean", row.sg_elided.mean);
        o.push("superglue_elided_us_stdev", row.sg_elided.stdev);
        o.push("superglue_elided_us_min", row.sg_elided.min);
        o.push("sg_elided_over_c3_ratio", row.elided_ratio);
        o.push("unresolved_rounds", row.unresolved);
        arr.push(o);
    }
    doc.push("rows", arr);
    doc
}

/// The CI bench-smoke gate: whether every component's SG/C³ overhead
/// ratio, fully tracked and elided, is within `max`. It covers both
/// interpreters: the certified-elision fast paths may only improve.
fn ratio_gate_holds(rows: &[Fig6aRow], max: f64) -> bool {
    let worst = rows
        .iter()
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
        .expect("rows nonempty");
    let worst_elided = rows
        .iter()
        .max_by(|a, b| a.elided_ratio.total_cmp(&b.elided_ratio))
        .expect("rows nonempty");
    let holds = worst.ratio <= max && worst_elided.elided_ratio <= max;
    let tracked = format!("{:.2} ({})", worst.ratio, label(worst.iface));
    let elided = format!(
        "{:.2} ({})",
        worst_elided.elided_ratio,
        label(worst_elided.iface)
    );
    if holds {
        println!(
            "check-ratio: worst SG/C3 overhead ratio {tracked}, elided {elided}, within the {max:.2} gate"
        );
    } else {
        eprintln!(
            "FAIL: SG/C3 overhead ratio {tracked} / elided {elided} exceeds the {max:.2} gate"
        );
    }
    holds
}

fn main() {
    let mut args = HarnessArgs::from_env(USAGE);
    let loc_only = args.flag("--loc");
    // --elide interprets the certified tracking-elision stubs on the
    // Fig 6(b) recovery path and traces; the trace bytes must be
    // identical to a run without the flag.
    let elide = args.flag("--elide");
    let emit_dir = args.string("--emit");
    let check_ratio: Option<f64> = args.parsed_in("--check-ratio", 0.0..);
    let mut out = Artifacts::from_args(
        &mut args,
        &["--trace", "--series", "--bench-json"],
        DEFAULT_SERIES_WINDOW.0,
    );
    args.finish([]);

    println!("== Fig 6(c): lines of recovery code per system service ==");
    println!(
        "{:<6} {:>12} {:>16} {:>18}",
        "Comp", "IDL LOC", "generated LOC", "hand-written C3"
    );
    let compiled = superglue::compile_all().expect("shipped IDL compiles");
    let sources: std::collections::BTreeMap<_, _> = superglue::idl_sources().into_iter().collect();
    let mut idl_total = 0usize;
    for iface in SERVICES {
        let idl = superglue_idl::idl_loc(sources[iface]);
        idl_total += idl;
        let generated = compiled.get(iface).expect("compiled").generated_loc();
        let hand = C3_STUB_SOURCES
            .iter()
            .find(|(n, _)| *n == iface)
            .map(|(_, s)| handwritten_loc(s))
            .expect("stub source");
        println!(
            "{:<6} {:>12} {:>16} {:>18}",
            label(iface),
            idl,
            generated,
            hand
        );
    }
    if let Some(dir) = &emit_dir {
        // `<iface>_cstub.rs.gen` / `<iface>_sstub.rs.gen`: the artifacts a
        // user inspects, mirroring the paper's generated C files.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot write {dir}: {e}");
            std::process::exit(2);
        }
        let stubs = SERVICES.iter().flat_map(|iface| {
            let c = compiled.get(iface).expect("compiled");
            let path = |side: &str| Path::new(dir).join(format!("{iface}_{side}stub.rs.gen"));
            [
                (path("c"), c.client_source.clone()),
                (path("s"), c.server_source.clone()),
            ]
        });
        out.stage(stubs, format!("generated stub sources written to {dir}/"));
    }
    println!(
        "average IDL file: {} LOC (paper: 37 LOC, an order of magnitude below the recovery code it replaces)",
        idl_total / SERVICES.len()
    );
    if loc_only {
        out.commit();
        return;
    }

    println!();
    println!(
        "== Fig 6(a): infrastructure overhead with descriptor state tracking (us/iteration, wall clock) =="
    );
    println!(
        "{:<6} {:>14} {:>18} {:>18} {:>18} {:>10} {:>10}",
        "Comp", "base (no FT)", "C3", "SuperGlue", "SG-elided", "SG/C3", "SGe/C3"
    );
    let mut rows = Vec::with_capacity(SERVICES.len());
    for iface in SERVICES {
        let row = Fig6aRow::measure(iface);
        println!(
            "{:<6} {:>12.3}us {:>11.3}+-{:>4.2} {:>11.3}+-{:>4.2} {:>11.3}+-{:>4.2} {:>9.2}x {:>9.2}x",
            label(row.iface),
            row.base.mean,
            row.c3.mean,
            row.c3.stdev,
            row.sg.mean,
            row.sg.stdev,
            row.sg_elided.mean,
            row.sg_elided.stdev,
            row.ratio,
            row.elided_ratio
        );
        if row.unresolved > 0 {
            println!(
                "       {} of {ROUNDS} rounds unresolved (C3 no slower than base)",
                row.unresolved
            );
        }
        rows.push(row);
    }
    out.bench_json(|| bench_doc(&rows));
    let gate_holds = check_ratio.is_none_or(|max| ratio_gate_holds(&rows, max));

    println!();
    println!("== Fig 6(b): per-descriptor recovery overhead (us, wall clock) ==");
    println!("{:<6} {:>18} {:>18}", "Comp", "C3", "SuperGlue");
    for iface in SERVICES {
        let c3 = recovery_us(Variant::C3, iface, false);
        let sg = recovery_us(Variant::SuperGlue, iface, elide);
        println!(
            "{:<6} {:>11.3}+-{:>4.2} {:>11.3}+-{:>4.2}",
            label(iface),
            c3.mean,
            c3.stdev,
            sg.mean,
            sg.stdev
        );
    }
    println!();
    println!("note: recovery cost ordering tracks the mechanism count of SIII-C");
    println!("      (Event uses R0+T0+T1+D1+G0+U0; Lock only R0+T0+T1).");

    if out.trace.is_some() || out.series.is_some() {
        let mut shards = Vec::new();
        let mut sections = Vec::new();
        for iface in SERVICES {
            for variant in [Variant::C3, Variant::SuperGlue] {
                let (shard, series) =
                    traced_recovery_capture(variant, iface, elide, out.series_window);
                sections.push((shard.label.clone(), series));
                shards.push(shard);
            }
        }
        out.trace(shards);
        out.series(sections.iter().map(|(c, s)| (c.clone(), s)));
    }
    out.commit();
    if !gate_holds {
        std::process::exit(1);
    }
}
