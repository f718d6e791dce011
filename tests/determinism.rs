//! Determinism regression tests for the parallel evaluation engine.
//!
//! The sharded SWIFI campaign and the Fig 7 repetition fan-out must be
//! **bit-identical for every worker count**: each shard/repetition draws
//! from its own seeded RNG stream (`mix(campaign_seed, shard_index)`)
//! and results are merged in shard order, so `--jobs 1` and `--jobs 8`
//! may differ only in wall-clock time.

use composite::{
    parallel_map_indexed, shards_to_chrome, shards_to_jsonl, InterfaceCall as _, KernelAccess as _,
    MetricsSnapshot, SimTime, TraceShard,
};
use sg_bench::stat::{avail_report, parse_trace_text};
use sg_bench::{rig, series_to_jsonl, Rig, SERVICES};
use sg_c3::RecoveryStats;
use sg_swifi::{run_campaign_parallel, CampaignConfig};
use sg_webserver::{run_fig7_rep, Fig7Config, WebVariant};
use superglue::testbed::Variant;

#[test]
fn mini_campaign_tallies_identical_across_jobs() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let cfg = CampaignConfig {
            variant,
            injections: 50,
            seed: 0x0D15_EA5E,
            ..CampaignConfig::default()
        };
        let serial = run_campaign_parallel("lock", &cfg, 1);
        let sharded = run_campaign_parallel("lock", &cfg, 8);
        assert_eq!(
            serial.row, sharded.row,
            "{variant:?}: Table II tallies must not depend on --jobs"
        );
        assert_eq!(
            serial.metrics, sharded.metrics,
            "{variant:?}: mechanism counters must not depend on --jobs"
        );
        assert_eq!(
            serial.metrics.to_json_lines("campaign/lock"),
            sharded.metrics.to_json_lines("campaign/lock"),
            "{variant:?}: emitted JSON-lines must be byte-identical"
        );
        assert_eq!(serial.row.injected, 50, "{variant:?}: full quota injected");
    }
}

#[test]
fn campaign_shard_results_are_independent_of_schedule() {
    // Odd jobs counts exercise unbalanced work-stealing schedules; the
    // merged result must still be the jobs=1 result.
    let cfg = CampaignConfig {
        injections: 50,
        seed: 0xFEED_F00D,
        ..CampaignConfig::default()
    };
    let baseline = run_campaign_parallel("evt", &cfg, 1);
    for jobs in [2, 3, 5] {
        assert_eq!(
            baseline,
            run_campaign_parallel("evt", &cfg, jobs),
            "jobs = {jobs}"
        );
    }
}

#[test]
fn campaign_traces_byte_identical_across_jobs() {
    let cfg = CampaignConfig {
        injections: 50,
        seed: 0x7EAC_E5EED,
        trace: true,
        ..CampaignConfig::default()
    };
    let serial = run_campaign_parallel("lock", &cfg, 1);
    let sharded = run_campaign_parallel("lock", &cfg, 8);
    assert!(
        !serial.trace.is_empty(),
        "tracing enabled: shards must carry traces"
    );
    assert_eq!(
        shards_to_jsonl(&serial.trace),
        shards_to_jsonl(&sharded.trace),
        "merged JSON-lines trace must not depend on --jobs"
    );
    assert_eq!(
        shards_to_chrome(&serial.trace),
        shards_to_chrome(&sharded.trace),
        "Chrome trace rendering must not depend on --jobs"
    );
}

#[test]
fn fig7_repetitions_identical_across_jobs() {
    let cfg = Fig7Config {
        duration: composite::SimTime::from_secs(3),
        fault_period: composite::SimTime::from_secs(1),
        repetitions: 4,
        seed: 0xF167_0007,
        ..Fig7Config::default()
    };
    let variant = WebVariant::SuperGlue { faults: true };
    let reps = cfg.repetitions as usize;
    let run = |jobs: usize| {
        parallel_map_indexed(reps, jobs, |rep| run_fig7_rep(variant, &cfg, rep as u64))
    };
    let serial = run(1);
    let sharded = run(8);
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(a.series.buckets(), b.series.buckets());
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.unrecovered, b.unrecovered);
        assert_eq!(a.metrics, b.metrics);
    }
    // Repetitions exist for variance: phase-shifted fault schedules must
    // actually differ between repetitions.
    assert!(
        serial
            .iter()
            .any(|r| r.series.buckets() != serial[0].series.buckets()),
        "phase-shifted repetitions should not all be identical"
    );
}

// ---------------------------------------------------------------------
// Hot-path invariance: the compiled-dispatch/slab/cheap-clone rewrite of
// the invoke path may change only wall-clock time. These tests pin the
// observable results of the Fig 6(a) workload — counters, virtual time,
// tracked-descriptor population, and the byte-exact trace — so any
// future interpreter "optimization" that changes behavior fails loudly.
// ---------------------------------------------------------------------

/// Run the Fig 6(a) micro-workload for every service on a fresh rig with
/// tracing enabled, plus one fault/recovery cycle per service, and
/// return everything a benchmark could observe.
fn fig6_observables(variant: Variant) -> (MetricsSnapshot, RecoveryStats, SimTime, String) {
    let mut r: Rig = rig(variant);
    r.tb.runtime.kernel_mut().enable_tracing(1 << 20);
    for iface in SERVICES {
        for seq in 0..50 {
            r.run_iteration(iface, seq).unwrap();
        }
    }
    if variant != Variant::Bare {
        // Bare has no stubs: a fault would simply surface. Exercise the
        // recovery path only under the protected variants.
        for iface in SERVICES {
            let (c, t, svc, f, a) = r.setup_recovery_victim(iface);
            r.tb.runtime.inject_fault(svc);
            r.tb.runtime
                .interface_call(c, t, svc, f, &a)
                .expect("victim recovers");
        }
    }
    let snap = MetricsSnapshot::from_kernel(r.tb.runtime.kernel());
    let stats = r.tb.runtime.stats().clone();
    let now = r.tb.runtime.kernel().now();
    let mut shard = TraceShard::labeled("determinism/fig6");
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&shard.label.clone()));
    let jsonl = shards_to_jsonl(std::slice::from_ref(&shard));
    (snap, stats, now, jsonl)
}

#[test]
fn fig6_workload_results_identical_across_reruns() {
    for variant in [Variant::Bare, Variant::C3, Variant::SuperGlue] {
        let (snap_a, stats_a, now_a, trace_a) = fig6_observables(variant);
        let (snap_b, stats_b, now_b, trace_b) = fig6_observables(variant);
        assert_eq!(
            snap_a, snap_b,
            "{variant:?}: metrics must not depend on the run"
        );
        assert_eq!(
            stats_a, stats_b,
            "{variant:?}: recovery stats must not depend on the run"
        );
        assert_eq!(now_a, now_b, "{variant:?}: virtual time must be replayable");
        assert_eq!(
            trace_a, trace_b,
            "{variant:?}: the flight-recorder dump must be byte-identical"
        );
    }
}

#[test]
fn table2_campaign_rows_identical_across_reruns() {
    let cfg = CampaignConfig {
        variant: Variant::SuperGlue,
        injections: 50,
        seed: 0x7AB1_E002,
        ..CampaignConfig::default()
    };
    let a = run_campaign_parallel("evt", &cfg, 2);
    let b = run_campaign_parallel("evt", &cfg, 2);
    assert_eq!(a.row, b.row, "Table II rows must be rerun-stable");
    assert_eq!(
        a.metrics.to_json_lines("campaign/evt"),
        b.metrics.to_json_lines("campaign/evt"),
        "Table II metrics dump must be byte-identical across reruns"
    );
}

#[test]
fn fig7_series_identical_across_reruns() {
    let cfg = Fig7Config {
        duration: composite::SimTime::from_secs(2),
        fault_period: composite::SimTime::from_secs(1),
        repetitions: 1,
        seed: 0xF167_0008,
        ..Fig7Config::default()
    };
    let a = run_fig7_rep(WebVariant::SuperGlue { faults: true }, &cfg, 0);
    let b = run_fig7_rep(WebVariant::SuperGlue { faults: true }, &cfg, 0);
    assert_eq!(a.series.buckets(), b.series.buckets());
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.unrecovered, b.unrecovered);
    assert_eq!(a.metrics, b.metrics);
}

/// The committed flight-recorder golden must be reproduced byte-for-byte
/// by today's hot path (same fixed episode as
/// `flight_recorder::golden_episode_snapshot`, re-asserted here so the
/// perf suite fails even when run in isolation).
#[test]
fn flight_recorder_golden_unchanged_by_hot_path() {
    let mut r: Rig = rig(Variant::SuperGlue);
    r.tb.runtime.kernel_mut().enable_tracing(1 << 20);
    let (c, t, svc, f, a) = r.setup_recovery_victim("evt");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("recovery succeeds");
    let mut shard = TraceShard::labeled("golden/evt/superglue");
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&shard.label.clone()));
    let actual = shards_to_jsonl(std::slice::from_ref(&shard));
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/flight_recorder_episode.jsonl");
    let expected = std::fs::read_to_string(&path).expect("golden exists");
    assert_eq!(
        actual, expected,
        "hot-path changes must leave the recovery episode byte-identical \
         (regenerate intentionally via the flight_recorder test's UPDATE_GOLDEN=1)"
    );
}

// ---------------------------------------------------------------------
// Wrapper/core equivalence: the runtime Kernel is a thin shell over the
// pure step function
// ---------------------------------------------------------------------

use composite::{
    step_in_place, AdmitOutcome, ComponentId, CostModel, EscalationPolicy, Event, Kernel,
    KernelState, Priority, RebootOutcome, Reply, Service, ServiceCtx, ServiceError, SplitMix64,
    ThreadId, Value,
};

/// Service with one function per thread-state transition, so the walk
/// can exercise block/sleep/wake through the real invoke path.
#[derive(Debug, Default)]
struct WalkService;

impl Service for WalkService {
    fn interface(&self) -> &'static str {
        "walk"
    }
    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "get" => Ok(Value::Unit),
            "block" => Err(ctx.block_current()),
            "sleep" => {
                let until = ctx.now() + SimTime(args[0].int()? as u64);
                Err(ctx.sleep_current_until(until))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {}
}

/// Mirror of `Kernel::invoke` in raw core events: the admission loop,
/// the service body's kernel side effects, and the completion event.
fn mirror_invoke(
    shadow: &mut KernelState,
    client: ComponentId,
    thread: ThreadId,
    svc: ComponentId,
    fname: &str,
    sleep_dt: u64,
) {
    loop {
        let fx = step_in_place(
            shadow,
            &Event::InvokeAdmit {
                client,
                thread,
                target: svc,
                bypass_caps: false,
            },
        );
        let Reply::Admit(outcome) = fx.reply else {
            unreachable!("InvokeAdmit replies Admit")
        };
        match outcome {
            AdmitOutcome::Admitted => {
                let ok = match fname {
                    "get" => true,
                    "block" => {
                        step_in_place(
                            shadow,
                            &Event::BlockThread {
                                thread,
                                in_component: svc,
                            },
                        );
                        false
                    }
                    "sleep" => {
                        let until = shadow.time + SimTime(sleep_dt);
                        step_in_place(shadow, &Event::SleepThread { thread, until });
                        false
                    }
                    other => unreachable!("walk never calls {other}"),
                };
                step_in_place(
                    shadow,
                    &Event::InvokeFinish {
                        thread,
                        target: svc,
                        ok,
                    },
                );
                return;
            }
            AdmitOutcome::NeedColdRestart => {
                step_in_place(shadow, &Event::ColdRestart { component: svc });
            }
            // Faulty / Degraded / capability failures: the wrapper
            // fails fast with no further state transition.
            _ => return,
        }
    }
}

/// One random walk driving the runtime `Kernel` through its public API
/// while a raw [`KernelState`] replays the identical core events; the
/// two must agree after every operation.
fn equivalence_walk(seed: u64, ops: usize) -> (Kernel, MetricsSnapshot, String) {
    let mut k = Kernel::with_costs(CostModel::paper_defaults());
    k.enable_tracing(1 << 16);
    let mut shadow = k.snapshot();

    let client = k.add_client_component("app");
    step_in_place(&mut shadow, &Event::AddComponent { has_service: false });
    let svc = k.add_component("walk", Box::new(WalkService));
    step_in_place(&mut shadow, &Event::AddComponent { has_service: true });
    k.grant(client, svc);
    step_in_place(
        &mut shadow,
        &Event::Grant {
            client,
            server: svc,
        },
    );
    let t = k.create_thread(client, Priority(10));
    step_in_place(
        &mut shadow,
        &Event::AddThread {
            home: client,
            priority: Priority(10),
        },
    );
    let policy = EscalationPolicy {
        reboot_window: SimTime::from_millis(1),
        max_reboots_in_window: 2,
        degraded_cooldown: SimTime::from_millis(5),
        reboot_backoff: SimTime(10_000),
    };
    k.set_escalation(policy);
    step_in_place(&mut shadow, &Event::SetEscalation(policy));
    assert_eq!(k.state(), &shadow, "setup must already agree");

    let mut rng = SplitMix64::new(seed);
    for i in 0..ops {
        match rng.gen_range(10) {
            0..=3 => {
                let _ = k.invoke(client, t, svc, "get", &[]);
                mirror_invoke(&mut shadow, client, t, svc, "get", 0);
            }
            4 => {
                let _ = k.invoke(client, t, svc, "block", &[]);
                mirror_invoke(&mut shadow, client, t, svc, "block", 0);
            }
            5 => {
                let dt = 1 + rng.gen_range(1_000_000);
                let _ = k.invoke(client, t, svc, "sleep", &[Value::Int(dt as i64)]);
                mirror_invoke(&mut shadow, client, t, svc, "sleep", dt);
            }
            6 => {
                let _ = k.wake_thread(t);
                step_in_place(&mut shadow, &Event::WakeThread { thread: t });
            }
            7 => {
                k.fault(svc);
                step_in_place(&mut shadow, &Event::Fault { component: svc });
            }
            8 => {
                k.micro_reboot(svc).expect("walk service reboots");
                let fx = step_in_place(&mut shadow, &Event::MicroReboot { component: svc });
                let Reply::Reboot(RebootOutcome::Done { mark_degraded }) = fx.reply else {
                    unreachable!("service component reboots")
                };
                if let Some(until) = mark_degraded {
                    step_in_place(
                        &mut shadow,
                        &Event::MarkDegraded {
                            component: svc,
                            until,
                        },
                    );
                }
            }
            _ => {
                let target = shadow.time + SimTime(1 + rng.gen_range(2_000_000));
                k.advance_to(target);
                step_in_place(&mut shadow, &Event::AdvanceTo(target));
            }
        }
        assert_eq!(
            k.state(),
            &shadow,
            "wrapper and raw core diverged after op {i} (seed {seed:#x})"
        );
    }
    let snap = MetricsSnapshot::from_kernel(&k);
    let shard = k.take_trace("equivalence-walk");
    let jsonl = shards_to_jsonl(std::slice::from_ref(&shard));
    (k, snap, jsonl)
}

/// The runtime wrapper holds no kernel state of its own: random walks
/// through the public API leave its `KernelState` identical to a raw
/// state driven by the same core events.
#[test]
fn step_wrapper_matches_raw_core_on_random_walks() {
    for seed in [0xE0_1D_u64, 0xBEEF, 0x5EED_5EED] {
        equivalence_walk(seed, 300);
    }
}

/// The same walk run twice produces byte-identical traces, identical
/// metrics snapshots, and equal descriptor-free kernel state.
#[test]
fn step_wrapper_walk_is_deterministic() {
    let (ka, snap_a, trace_a) = equivalence_walk(0xD15C, 300);
    let (kb, snap_b, trace_b) = equivalence_walk(0xD15C, 300);
    assert_eq!(ka.state(), kb.state());
    assert_eq!(snap_a, snap_b);
    assert_eq!(trace_a, trace_b, "walk traces must be byte-identical");
}

// ---------------------------------------------------------------------
// Recovery-SLO analytics: the `--series` telemetry and the `sgstat
// avail` summaries are derived artifacts of the campaign — they must
// inherit the byte-identical-for-any-jobs contract, and reruns must
// reproduce them exactly.
// ---------------------------------------------------------------------

/// One campaign with series + trace capture; returns the exact
/// `--series` file bytes and the exact `sgstat avail` summary text.
fn campaign_analytics(iface: &'static str, jobs: usize) -> (String, String) {
    let cfg = CampaignConfig {
        injections: 50,
        seed: 0x5105_7A70,
        trace: true,
        series_window_ns: composite::DEFAULT_SERIES_WINDOW.0,
        ..CampaignConfig::default()
    };
    let result = run_campaign_parallel(iface, &cfg, jobs);
    let series = series_to_jsonl(
        cfg.series_window_ns,
        &[(format!("table2/{iface}/superglue"), &result.series)],
    );
    let jsonl = shards_to_jsonl(&result.trace);
    let shards = parse_trace_text(&jsonl).expect("trace parses");
    let avail = avail_report(&shards).render();
    (series, avail)
}

#[test]
fn series_bytes_identical_across_jobs_and_reruns() {
    let (series_1, avail_1) = campaign_analytics("evt", 1);
    let (series_8, avail_8) = campaign_analytics("evt", 8);
    assert_eq!(
        series_1, series_8,
        "--series output must not depend on --jobs"
    );
    assert_eq!(
        avail_1, avail_8,
        "sgstat avail summaries must not depend on --jobs"
    );
    let (series_again, avail_again) = campaign_analytics("evt", 8);
    assert_eq!(series_1, series_again, "--series must be replayable");
    assert_eq!(avail_1, avail_again, "sgstat avail must be replayable");
    assert!(
        series_1.lines().count() > 1,
        "series capture must produce rows, not just the header"
    );
    assert!(
        avail_1.contains("conservation: OK"),
        "fixed-seed campaign books must balance:\n{avail_1}"
    );
}

#[test]
fn odd_job_counts_preserve_series_bytes() {
    let (baseline, avail_base) = campaign_analytics("lock", 1);
    for jobs in [2, 3, 5] {
        let (series, avail) = campaign_analytics("lock", jobs);
        assert_eq!(baseline, series, "jobs = {jobs}");
        assert_eq!(avail_base, avail, "jobs = {jobs}");
    }
}
