//! Per-layer probes: each times one layer's public entry point on a
//! fixed input, after the workload has finished, so a probe never
//! perturbs the workload it is reported with.

use std::hint::black_box;
use std::time::Instant;

use composite::{
    step_in_place, AdmitOutcome, Event, KernelAccess as _, MetricsSnapshot, Reply, SeriesSnapshot,
    SimTime, DEFAULT_TRACE_CAPACITY,
};
use sg_pipeline::{build_pipeline, PipelineConfig, PipelineVariant};
use sg_swifi::{run_shard, CampaignConfig};
use superglue::testbed::{Testbed, Variant};
use superglue_compiler::{emit, ir, ElisionFacts, ModelPredicates};
use superglue_idl::{parser, validate};

use crate::report::{Kind, Metric};
use crate::rig::{CallFailed, Rig, IFACES};
use crate::span::Spans;
use crate::stats::median;
use crate::workload::Sizes;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn reading(name: impl Into<String>, unit: &str, value: f64) -> Metric {
    Metric::layer(name, unit, Kind::Host, value)
}

/// Run every probe; the metrics come back in the order of
/// [`crate::report::per_layer_names`].
///
/// # Errors
///
/// A call the system under test rejected.
pub fn run_all(spans: &mut Spans, sizes: &Sizes) -> Result<Vec<Metric>, CallFailed> {
    let mut out = spans.record("probe.idl_compiler", 0, |_| stages(sizes));
    out.extend(spans.record("probe.testbed_build", 0, |_| builds(sizes)));
    out.extend(spans.record("probe.invoke_mix", 0, |_| invoke_mix(sizes))?);
    out.extend(spans.record("probe.core_step", 0, |_| core_step(sizes, &out)));
    out.extend(spans.record("probe.fold_snapshot", 0, |_| snapshot(sizes))?);
    out.extend(spans.record("probe.recovery", 0, |_| recovery(sizes))?);
    out.extend(spans.record("probe.artifact", 0, |_| artifact(sizes)));
    Ok(out)
}

/// Each IDL and compiler stage over the six shipped specs.
fn stages(sizes: &Sizes) -> Vec<Metric> {
    let sources = superglue::idl_sources();
    let mut t = [(); 5].map(|()| Vec::with_capacity(sizes.stage_reps));
    for _ in 0..sizes.stage_reps {
        let mut rep = [0.0; 5];
        for (name, src) in sources {
            let s = Instant::now();
            let file = parser::parse(src).expect("shipped IDL parses");
            rep[0] += ns_since(s);
            let s = Instant::now();
            let spec = validate::validate(name, &file).expect("shipped IDL validates");
            rep[1] += ns_since(s);
            let s = Instant::now();
            let stub = ir::lower(&spec);
            rep[2] += ns_since(s);
            let s = Instant::now();
            black_box(emit::emit_both(&spec, &stub, &ModelPredicates::of(&spec)));
            rep[3] += ns_since(s);
            let mut elided = stub.clone();
            let s = Instant::now();
            ElisionFacts::certify(&elided)
                .apply(&mut elided)
                .expect("shipped elisions certify");
            rep[4] += ns_since(s);
            black_box(elided);
        }
        for (v, ns) in t.iter_mut().zip(rep) {
            v.push(ns / 1e3);
        }
    }
    let names = [
        "idl.parse_us",
        "idl.validate_us",
        "compiler.lower_us",
        "compiler.emit_us",
        "compiler.elide_us",
    ];
    names
        .into_iter()
        .zip(t)
        .map(|(n, mut v)| reading(n, "us", median(&mut v)))
        .collect()
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let s = Instant::now();
            f();
            ns_since(s) / 1e3
        })
        .collect();
    median(&mut v)
}

/// Fresh system builds, per protection variant and for the pipeline.
fn builds(sizes: &Sizes) -> Vec<Metric> {
    let mut out: Vec<Metric> = [
        ("bare", Variant::Bare),
        ("c3", Variant::C3),
        ("superglue", Variant::SuperGlue),
    ]
    .into_iter()
    .map(|(n, v)| {
        let us = median_us(sizes.setups, || {
            black_box(Testbed::build(v).expect("shipped IDL compiles"));
        });
        reading(format!("testbed.build_us.{n}"), "us", us)
    })
    .collect();
    let cfg = PipelineConfig::default();
    let us = median_us(sizes.setups, || {
        black_box(build_pipeline(
            PipelineVariant::SuperGlue { faults: true },
            &cfg,
        ));
    });
    out.push(reading("testbed.build_us.pipeline", "us", us));
    out
}

/// The rigs the invoke-mix probe compares: (variant, elided stubs,
/// effect sink turned on).
const MIX_RIGS: [(Variant, bool, Fold); 6] = [
    (Variant::Bare, false, Fold::Off),
    (Variant::SuperGlue, false, Fold::Off),
    (Variant::SuperGlue, true, Fold::Off),
    (Variant::C3, false, Fold::Off),
    (Variant::SuperGlue, false, Fold::Trace),
    (Variant::SuperGlue, false, Fold::Series),
];

#[derive(Clone, Copy)]
enum Fold {
    Off,
    Trace,
    Series,
}

/// The invoke mix on Bare, SuperGlue, elided SuperGlue and C³ rigs, and
/// on SuperGlue with the flight recorder or the telemetry series on.
/// Each layer's cost is the difference from the rig without it. The
/// rigs take turns batch by batch, so a drift in host speed shifts all
/// of them alike instead of landing in one difference.
fn invoke_mix(sizes: &Sizes) -> Result<Vec<Metric>, CallFailed> {
    let mut rigs: Vec<Rig> = MIX_RIGS
        .iter()
        .map(|&(variant, elide, fold)| {
            let mut rig = Rig::build(variant, elide);
            let kernel = rig.tb.runtime.kernel_mut();
            match fold {
                Fold::Off => {}
                Fold::Trace => kernel.enable_tracing(DEFAULT_TRACE_CAPACITY),
                Fold::Series => kernel.enable_telemetry(SimTime(1_000_000)),
            }
            rig
        })
        .collect();
    let mut calls = [0.0; 6];
    for rig in &mut rigs {
        for (k, iface) in IFACES.into_iter().enumerate() {
            for seq in 0..sizes.probe_iters.min(100) {
                calls[k] = f64::from(rig.iteration(iface, seq)?);
            }
        }
    }
    let mut times = vec![[(); 6].map(|()| Vec::with_capacity(sizes.probe_reps)); rigs.len()];
    for _ in 0..sizes.probe_reps {
        for (k, iface) in IFACES.into_iter().enumerate() {
            for (rig, t) in rigs.iter_mut().zip(&mut times) {
                let s = Instant::now();
                for seq in 0..sizes.probe_iters {
                    rig.iteration(iface, seq)?;
                }
                t[k].push(ns_since(s) / sizes.probe_iters as f64);
            }
        }
    }
    // ns per iteration, per rig and service; ns per call over the mix.
    let per_iter: Vec<[f64; 6]> = times
        .iter_mut()
        .map(|t| [0, 1, 2, 3, 4, 5].map(|k| median(&mut t[k])))
        .collect();
    let per_call: Vec<f64> = per_iter
        .iter()
        .map(|it| it.iter().sum::<f64>() / calls.iter().sum::<f64>())
        .collect();
    let [bare, sg, elided, c3, traced, series] = [0, 1, 2, 3, 4, 5].map(|r| per_call[r]);
    let mut out = vec![
        reading("kernel.invoke_ns", "ns", bare),
        reading("stub.ns_per_call", "ns", sg - bare),
        reading("stub.elided_ns_per_call", "ns", elided - bare),
        reading("c3.ns_per_call", "ns", c3 - bare),
    ];
    for (k, iface) in IFACES.into_iter().enumerate() {
        out.push(reading(
            format!("stub.{}.ns_per_iter", iface.name()),
            "ns",
            per_iter[1][k] - per_iter[0][k],
        ));
    }
    out.push(reading("fold.trace_ns_per_call", "ns", traced - sg));
    out.push(reading("fold.series_ns_per_call", "ns", series - sg));
    Ok(out)
}

/// `step_in_place` alone over an admit/finish stream on a state shaped
/// like a built testbed; the kernel shell is what `kernel.invoke_ns`
/// spends beyond the two steps of each call.
fn core_step(sizes: &Sizes, earlier: &[Metric]) -> Vec<Metric> {
    let rig = Rig::build(Variant::Bare, false);
    let (client, thread) = (rig.tb.ids.app1, rig.thread());
    let events: Vec<Event> = IFACES
        .into_iter()
        .flat_map(|iface| {
            let target = rig.component(iface);
            [
                Event::InvokeAdmit {
                    client,
                    thread,
                    target,
                    bypass_caps: false,
                },
                Event::InvokeFinish {
                    thread,
                    target,
                    ok: true,
                },
            ]
        })
        .collect();
    let mut state = rig.tb.runtime.kernel().snapshot();
    for ev in &events {
        let fx = step_in_place(&mut state, ev);
        if matches!(ev, Event::InvokeAdmit { .. }) {
            assert_eq!(
                fx.reply,
                Reply::Admit(AdmitOutcome::Admitted),
                "the probe stream must time admitted calls"
            );
        }
    }
    let rounds = sizes.probe_iters * 10;
    let mut reps: Vec<f64> = (0..sizes.probe_reps)
        .map(|_| {
            let s = Instant::now();
            for _ in 0..rounds {
                for ev in &events {
                    black_box(step_in_place(&mut state, black_box(ev)));
                }
            }
            ns_since(s) / (rounds as f64 * events.len() as f64)
        })
        .collect();
    let step_ns = median(&mut reps);
    let invoke_ns = earlier
        .iter()
        .find(|m| m.name == "kernel.invoke_ns")
        .map_or(0.0, |m| m.value);
    vec![
        reading("core.step_ns", "ns", step_ns),
        reading("kernel.shell_ns", "ns", invoke_ns - 2.0 * step_ns),
    ]
}

/// Taking the metrics and series snapshots of a used system (a campaign
/// takes both at every reboot).
fn snapshot(sizes: &Sizes) -> Result<Vec<Metric>, CallFailed> {
    let mut rig = Rig::build(Variant::SuperGlue, false);
    rig.tb
        .runtime
        .kernel_mut()
        .enable_telemetry(SimTime(1_000_000));
    for seq in 0..sizes.probe_iters {
        for iface in IFACES {
            rig.iteration(iface, seq)?;
        }
    }
    let kernel = rig.tb.runtime.kernel();
    let us = median_us(sizes.probe_reps * 40, || {
        black_box(MetricsSnapshot::from_kernel(kernel));
        black_box(SeriesSnapshot::from_kernel(kernel));
    });
    Ok(vec![reading("fold.snapshot_us", "us", us)])
}

/// The Fig 6(b) victim call right after a fault, minus the same call
/// with nothing to recover.
fn recovery(sizes: &Sizes) -> Result<Vec<Metric>, CallFailed> {
    let cycles = sizes.recovery_cycles;
    let mut out = Vec::new();
    for iface in IFACES {
        let mut rig = Rig::build(Variant::SuperGlue, false);
        let victim = rig.victim(iface)?;
        let mut reps = Vec::with_capacity(sizes.probe_reps);
        for _ in 0..sizes.probe_reps {
            let mut faulted = 0.0;
            for _ in 0..cycles {
                rig.inject_fault(&victim);
                let s = Instant::now();
                rig.call_victim(&victim)?;
                faulted += ns_since(s);
            }
            let s = Instant::now();
            for _ in 0..cycles {
                rig.call_victim(&victim)?;
            }
            let plain = ns_since(s);
            reps.push((faulted - plain) / f64::from(cycles) / 1e3);
        }
        out.push(reading(
            format!("recovery.{}_us", iface.name()),
            "us",
            median(&mut reps),
        ));
    }
    Ok(out)
}

/// Encoding one fixed traced campaign shard: JSON lines, Chrome
/// trace_event and the telemetry series.
fn artifact(sizes: &Sizes) -> Vec<Metric> {
    let cfg = CampaignConfig {
        injections: sizes.artifact_injections,
        seed: 0xA27F,
        trace: true,
        series_window_ns: 1_000_000,
        ..CampaignConfig::default()
    };
    let res = run_shard("lock", &cfg, 0);
    let events = res
        .trace
        .iter()
        .map(|s| s.events.len())
        .sum::<usize>()
        .max(1) as f64;
    let mut bytes = 0;
    let jsonl = median_us(sizes.probe_reps, || {
        bytes = black_box(composite::shards_to_jsonl(&res.trace)).len();
    });
    let chrome = median_us(sizes.probe_reps, || {
        black_box(composite::shards_to_chrome(&res.trace));
    });
    let series = median_us(sizes.probe_reps, || {
        black_box(res.series.to_json_lines("lock"));
    });
    vec![
        reading("artifact.jsonl_ns_per_event", "ns", jsonl * 1e3 / events),
        reading("artifact.chrome_ns_per_event", "ns", chrome * 1e3 / events),
        reading("artifact.bytes_per_event", "B", bytes as f64 / events),
        reading("artifact.series_us", "us", series),
    ]
}
