//! Flight-recorder integration tests.
//!
//! Three properties the kernel flight recorder must keep:
//!
//! 1. **Counters == trace.** Every mechanism firing goes through the
//!    single `Kernel::record_mechanism` choke point, which counts it in
//!    the kernel's `Counters` *and* emits the matching trace event — so
//!    for every mechanism, the counter total and the sum of traced `n`
//!    values must agree exactly.
//! 2. **Latency conservation.** For every recovery episode, the timed
//!    spans recorded on the faulted component must re-sum to exactly
//!    the episode's kernel-attributed latency.
//! 3. **Golden bytes.** The JSON-lines and Chrome dumps of one
//!    fixed-seed recovery episode
//!    (`tests/golden/flight_recorder_episode{.jsonl,.chrome.json}`) and
//!    of one hand-built shard covering every event kind and escaping
//!    case (`tests/golden/handbuilt_shard{.jsonl,.chrome.json}`) are
//!    pinned as snapshots; regenerate an intentional change with
//!    `UPDATE_GOLDEN=1 cargo test -p sg-bench --test flight_recorder`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use composite::{
    shards_to_chrome, shards_to_jsonl, ComponentId, CostModel, Epoch, InterfaceCall as _, Kernel,
    KernelAccess as _, Mechanism, MetricsSnapshot, Priority, Service, ServiceCtx, ServiceError,
    SimTime, ThreadId, TraceEvent, TraceEventKind, TraceShard, Value, MECHANISMS,
};
use sg_bench::{rig, Rig, SERVICES};
use sg_webserver::{run_fig7_rep, Fig7Config, WebVariant};
use superglue::testbed::Variant;

const TEST_CAPACITY: usize = 1 << 20;

/// Fault and recover a few services with tracing on; return the final
/// counter snapshot and the drained trace.
fn traced_scenario(variant: Variant) -> (MetricsSnapshot, TraceShard) {
    let mut r: Rig = rig(variant);
    r.tb.runtime.kernel_mut().enable_tracing(TEST_CAPACITY);
    for iface in SERVICES {
        r.run_iteration(iface, 0);
    }
    for iface in ["mm", "evt", "fs", "lock"] {
        let (c, t, svc, f, a) = r.setup_recovery_victim(iface);
        r.tb.runtime.inject_fault(svc);
        r.tb.runtime
            .interface_call(c, t, svc, f, &a)
            .expect("victim recovers");
        r.tb.runtime.recover_now(svc, t).expect("quiesce sweep");
    }
    let snap = MetricsSnapshot::from_kernel(r.tb.runtime.kernel());
    let shard = r.tb.runtime.kernel_mut().take_trace("test/scenario");
    (snap, shard)
}

/// Sum of `MechanismFired` increments per mechanism in a shard.
fn traced_mechanism_totals(shard: &TraceShard) -> BTreeMap<Mechanism, u64> {
    let mut totals = BTreeMap::new();
    for ev in &shard.events {
        if let TraceEventKind::MechanismFired { mech, n } = &ev.kind {
            *totals.entry(*mech).or_insert(0) += n;
        }
    }
    totals
}

#[test]
fn mechanism_counters_equal_trace_event_sums() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let (snap, shard) = traced_scenario(variant);
        assert_eq!(shard.dropped, 0, "{variant:?}: test ring must not drop");
        assert_eq!(shard.dropped_recovery, 0, "{variant:?}");
        let traced = traced_mechanism_totals(&shard);
        for m in MECHANISMS {
            assert_eq!(
                snap.mechanism_total(m),
                traced.get(&m).copied().unwrap_or(0),
                "{variant:?}: {} counter disagrees with the trace",
                m.name()
            );
        }
        // The scenario is chosen to actually fire the core mechanisms —
        // agreement over all-zeros would prove nothing.
        for m in [Mechanism::R0, Mechanism::D0, Mechanism::G0, Mechanism::U0] {
            assert!(
                snap.mechanism_total(m) > 0,
                "{variant:?}: scenario never fired {}",
                m.name()
            );
        }
    }
}

/// Re-derive every episode's attributed latency from its timed events
/// and compare against the kernel's `episode_end` record.
fn check_conservation(shard: &TraceShard) -> usize {
    assert_eq!(
        shard.dropped_recovery, 0,
        "recovery events dropped; conservation unverifiable"
    );
    let mut open: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut episodes = 0;
    for ev in &shard.events {
        match &ev.kind {
            TraceEventKind::FaultInjected { .. } => {
                open.insert(ev.component.0, SimTime::ZERO);
            }
            TraceEventKind::EpisodeEnd { attributed } => {
                let resummed = open
                    .remove(&ev.component.0)
                    .expect("episode_end without fault");
                assert_eq!(
                    resummed, *attributed,
                    "episode on comp {} violates latency conservation",
                    ev.component.0
                );
                episodes += 1;
            }
            _ => {
                if ev.dur > SimTime::ZERO {
                    if let Some(acc) = open.get_mut(&ev.component.0) {
                        *acc += ev.dur;
                    }
                }
            }
        }
    }
    assert!(open.is_empty(), "take_trace must close every open episode");
    episodes
}

#[test]
fn episode_latency_attribution_is_conserved() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let (_, shard) = traced_scenario(variant);
        let episodes = check_conservation(&shard);
        assert!(episodes >= 4, "{variant:?}: one episode per injected fault");
    }
}

#[test]
fn fig7_trace_conserves_attribution_and_survives_ambient_flood() {
    let cfg = Fig7Config {
        duration: SimTime::from_secs(3),
        fault_period: SimTime::from_secs(1),
        seed: 0xF11_6487,
        trace: true,
        ..Fig7Config::default()
    };
    let res = run_fig7_rep(WebVariant::SuperGlue { faults: true }, &cfg, 0);
    let shard = res.trace.expect("tracing was enabled");
    assert!(res.faults_injected > 0, "faults must occur in the window");
    // The throughput workload floods the ambient ring; the recovery
    // record must survive regardless.
    let episodes = check_conservation(&shard);
    assert_eq!(episodes as u64, res.faults_injected);
}

/// Compare `actual` with `tests/golden/<file>`, or rewrite the file
/// when `UPDATE_GOLDEN` is set.
fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{file} drifted from the golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// One fixed recovery episode — the evt service recovered under
/// SuperGlue, the richest mechanism mix (R0+G0+U0 via the foreign
/// creator path).
fn golden_episode_shard() -> TraceShard {
    let mut r: Rig = rig(Variant::SuperGlue);
    r.tb.runtime.kernel_mut().enable_tracing(TEST_CAPACITY);
    let (c, t, svc, f, a) = r.setup_recovery_victim("evt");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("recovery succeeds");
    let mut shard = TraceShard::labeled("golden/evt/superglue");
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&shard.label.clone()));
    shard
}

#[test]
fn golden_episode_snapshot() {
    let shard = golden_episode_shard();
    assert_golden(
        "flight_recorder_episode.jsonl",
        &shards_to_jsonl(std::slice::from_ref(&shard)),
    );
}

#[test]
fn golden_episode_chrome_snapshot() {
    let shard = golden_episode_shard();
    assert_golden(
        "flight_recorder_episode.chrome.json",
        &shards_to_chrome(std::slice::from_ref(&shard)),
    );
}

fn event(
    span: u64,
    parent: Option<u64>,
    time: u64,
    dur: u64,
    component: u32,
    kind: TraceEventKind,
) -> TraceEvent {
    TraceEvent {
        span,
        parent,
        time: SimTime(time),
        dur: SimTime(dur),
        thread: ThreadId(1 + (span % 3) as u32),
        component: ComponentId(component),
        epoch: Epoch((span / 7) as u32),
        kind,
    }
}

/// A shard no kernel run produces: every event kind, both optional-field
/// cases (`"parent":null`, `"desc":null`, nested `"depth"`), a component
/// id past the name table (rendered `"?"`), integer extremes, timestamps
/// whose microsecond rendering is fractional or exponential, and names,
/// labels and functions that need every kind of escaping.
fn handbuilt_shard() -> TraceShard {
    use TraceEventKind as K;
    let mut shard = TraceShard::labeled("hand/\"built\"\\shard\t\u{1}é");
    shard.names = vec![
        "booter".to_owned(),
        "lo\"ck\\".to_owned(),
        "fs\nq\u{1}".to_owned(),
        "ümlaut→Ω".to_owned(),
    ];
    shard.events = vec![
        event(
            0,
            None,
            0,
            0,
            1,
            K::InvokeEnter {
                function: "take\"\\\n\u{2}é".to_owned(),
                client: ComponentId(0),
            },
        ),
        event(1, Some(0), 1_234_567, 0, 1, K::InvokeExit { outcome: "ok" }),
        event(2, Some(0), 1_500, 0, 2, K::Block),
        event(
            3,
            None,
            2_000,
            0,
            2,
            K::Sleep {
                until: SimTime(5_000_001),
            },
        ),
        event(4, None, 5_000_001, 0, 2, K::Wake),
        event(5, None, 6_000_000, 0, 1, K::FaultInjected { depth: 0 }),
        event(6, Some(5), 6_000_100, 0, 1, K::FaultInjected { depth: 2 }),
        event(7, Some(5), 6_000_200, 0, 3, K::WatchdogFired),
        event(
            8,
            Some(5),
            6_000_300,
            0,
            3,
            K::DegradedMarked {
                until: SimTime(9_000_000),
            },
        ),
        event(9, Some(5), 9_000_000, 0, 3, K::ColdRestart),
        event(10, Some(5), 6_001_000, 250_000, 1, K::Reboot),
        event(
            11,
            Some(10),
            6_251_000,
            0,
            1,
            K::MechanismFired {
                mech: Mechanism::T1,
                n: 3,
            },
        ),
        event(
            12,
            Some(10),
            6_251_001,
            1_001,
            1,
            K::WalkStep {
                function: "lock_take".to_owned(),
                desc: Some(-4),
                mech: Mechanism::R0,
            },
        ),
        event(
            13,
            Some(10),
            6_252_002,
            7,
            1,
            K::WalkStep {
                function: "c3\\walk".to_owned(),
                desc: None,
                mech: Mechanism::T1,
            },
        ),
        event(
            14,
            Some(5),
            6_252_009,
            0,
            2,
            K::DescriptorCreated { desc: 42 },
        ),
        event(
            15,
            Some(5),
            6_252_010,
            0,
            2,
            K::DescriptorClosed {
                desc: 42,
                dropped: 3,
            },
        ),
        event(
            16,
            Some(5),
            6_252_011,
            900,
            2,
            K::Upcall {
                function: "fs_restore\u{1f}".to_owned(),
            },
        ),
        event(
            17,
            Some(5),
            6_252_911,
            0,
            9,
            K::DeadLetter {
                desc: i64::MAX,
                msg: i64::MIN,
                deliveries: u64::MAX,
            },
        ),
        TraceEvent {
            span: 18,
            parent: Some(5),
            time: SimTime(u64::MAX),
            dur: SimTime(u64::MAX),
            thread: ThreadId(u32::MAX),
            component: ComponentId(1),
            epoch: Epoch(u32::MAX),
            kind: K::EpisodeEnd {
                attributed: SimTime(u64::MAX),
            },
        },
    ];
    shard.dropped = 5;
    shard.dropped_recovery = 2;
    shard.span_count = 19;
    shard
}

/// The hand-built shard, followed by a shard with no events, pinned in
/// both encodings.
#[test]
fn golden_handbuilt_shard_snapshot() {
    let shards = [handbuilt_shard(), TraceShard::labeled("empty")];
    let kinds: std::collections::BTreeSet<&str> =
        shards[0].events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds.len(), 17, "every TraceEventKind is covered");
    assert_golden("handbuilt_shard.jsonl", &shards_to_jsonl(&shards));
    assert_golden("handbuilt_shard.chrome.json", &shards_to_chrome(&shards));
}

#[test]
fn empty_dumps_are_pinned() {
    assert_eq!(shards_to_jsonl(&[]), "");
    assert_eq!(
        shards_to_chrome(&[]),
        "{\n  \"traceEvents\": [],\n  \"displayTimeUnit\": \"ns\"\n}"
    );
    let empty = [TraceShard::labeled("e")];
    assert_eq!(
        shards_to_jsonl(&empty),
        "{\"v\":1,\"shard\":\"e\",\"names\":[],\"events\":0,\"dropped\":0,\
         \"dropped_recovery\":0,\"span_count\":0}\n"
    );
    assert_eq!(
        shards_to_chrome(&empty),
        "{\n  \"traceEvents\": [\n    {\n      \"ph\": \"M\",\n      \"pid\": 0,\n      \
         \"name\": \"process_name\",\n      \"args\": {\n        \"name\": \"e\"\n      }\n    \
         }\n  ],\n  \"displayTimeUnit\": \"ns\"\n}"
    );
}

// ---------------------------------------------------------------------
// Ring edge cases: tier overflow accounting and shard absorption
// ---------------------------------------------------------------------

/// Trivial service for bare-kernel ring tests; the calls that matter
/// never reach it (faulty admission rejects before dispatch).
#[derive(Debug, Default)]
struct Echo;

impl Service for Echo {
    fn interface(&self) -> &'static str {
        "echo"
    }
    fn call(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        fname: &str,
        _args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "ping" => Ok(Value::Unit),
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {}
}

fn tiny_traced_kernel(capacity: usize) -> (Kernel, ComponentId, ComponentId, ThreadId) {
    let mut k = Kernel::with_costs(CostModel::free());
    k.enable_tracing(capacity);
    let client = k.add_client_component("app");
    let svc = k.add_component("echo", Box::new(Echo));
    k.grant(client, svc);
    let t = k.create_thread(client, Priority(10));
    (k, client, svc, t)
}

/// Ambient traffic flooding a tiny ring while a recovery episode is
/// open must evict only ambient events: the episode's fault, reboot,
/// and episode-end records all survive, `dropped` counts the evictions
/// exactly, and `dropped_recovery` stays zero — so latency conservation
/// is still verifiable from the shard.
#[test]
fn ambient_overflow_during_open_episode_preserves_recovery_record() {
    let (mut k, client, svc, t) = tiny_traced_kernel(8);
    k.fault(svc);
    // Each rejected invocation of the faulty service emits an ambient
    // InvokeEnter/InvokeExit pair: 50 calls -> 100 ambient events into
    // a ring that retains 8 per tier.
    for _ in 0..50 {
        let err = k.invoke(client, t, svc, "ping", &[]);
        assert!(matches!(err, Err(composite::CallError::Fault { .. })));
    }
    k.micro_reboot(svc).expect("echo reboots");
    let shard = k.take_trace("edge/ambient-flood");

    assert_eq!(shard.dropped, 92, "100 ambient events, 8 retained");
    assert_eq!(
        shard.dropped_recovery, 0,
        "ambient flood must never evict recovery events"
    );
    let ambient_retained = shard
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::InvokeEnter { .. } | TraceEventKind::InvokeExit { .. }
            )
        })
        .count();
    assert_eq!(ambient_retained, 8);
    for kind in ["fault", "reboot", "episode_end"] {
        assert_eq!(
            shard
                .events
                .iter()
                .filter(|e| e.kind.name() == kind)
                .count(),
            1,
            "exactly one {kind} must survive the flood"
        );
    }
    assert_eq!(check_conservation(&shard), 1);
}

/// Recovery-tier overflow is accounted separately from ambient drops:
/// a reboot storm against a tiny ring evicts old recovery events into
/// `dropped_recovery`, leaves `dropped` untouched, and retains the most
/// recent recovery events in emission order.
#[test]
fn recovery_tier_overflow_counts_into_dropped_recovery() {
    let (mut k, _client, svc, _t) = tiny_traced_kernel(4);
    // Ten fault+reboot cycles. Per cycle: FaultInjected + Reboot; each
    // next top-level fault closes the previous episode (EpisodeEnd),
    // and take_trace closes the last -> 10 + 10 + 10 = 30 recovery
    // events through a tier retaining 4.
    for _ in 0..10 {
        k.fault(svc);
        k.micro_reboot(svc).expect("echo reboots");
    }
    let shard = k.take_trace("edge/reboot-storm");

    assert_eq!(shard.dropped_recovery, 26, "30 recovery events, 4 retained");
    assert_eq!(shard.dropped, 0, "no ambient traffic occurred");
    assert_eq!(shard.events.len(), 4);
    let kinds: Vec<&str> = shard.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        ["episode_end", "fault", "reboot", "episode_end"],
        "the newest recovery events survive, in emission order"
    );
}

fn instant(span: u64, parent: Option<u64>, component: u32, kind: TraceEventKind) -> TraceEvent {
    TraceEvent {
        span,
        parent,
        time: SimTime::ZERO,
        dur: SimTime::ZERO,
        thread: ThreadId(1),
        component: ComponentId(component),
        epoch: Epoch::default(),
        kind,
    }
}

/// `TraceShard::absorb` with empty shards on either side: absorbing an
/// empty shard is a no-op (except for additive drop counters), an empty
/// shard absorbing a populated one takes its events at offset zero and
/// adopts its name table, and an existing name table is never replaced.
#[test]
fn absorb_handles_empty_shards() {
    let populated = || {
        let mut s = TraceShard::labeled("donor");
        s.names = vec!["booter".to_owned(), "echo".to_owned()];
        s.events = vec![
            instant(0, None, 1, TraceEventKind::FaultInjected { depth: 0 }),
            instant(1, Some(0), 1, TraceEventKind::Reboot),
        ];
        s.span_count = 2;
        s.dropped = 3;
        s.dropped_recovery = 1;
        s
    };

    // Empty absorbs empty: still empty.
    let mut a = TraceShard::labeled("empty");
    a.absorb(TraceShard::default());
    assert!(a.events.is_empty() && a.names.is_empty());
    assert_eq!((a.dropped, a.dropped_recovery, a.span_count), (0, 0, 0));

    // Populated absorbs empty: events and names untouched, label kept.
    let mut b = populated();
    b.absorb(TraceShard::labeled("empty"));
    assert_eq!(b.label, "donor");
    assert_eq!(b.events, populated().events);
    assert_eq!(b.names, populated().names);
    assert_eq!((b.dropped, b.dropped_recovery, b.span_count), (3, 1, 2));

    // Empty absorbs populated: events arrive at offset zero (span ids
    // unchanged), names adopted, counters copied.
    let mut c = TraceShard::labeled("merged");
    c.absorb(populated());
    assert_eq!(c.label, "merged");
    assert_eq!(c.events, populated().events);
    assert_eq!(c.names, populated().names);
    assert_eq!((c.dropped, c.dropped_recovery, c.span_count), (3, 1, 2));

    // Empty-but-named absorbs populated: the existing name table wins.
    let mut d = TraceShard::labeled("named");
    d.names = vec!["other".to_owned()];
    d.absorb(populated());
    assert_eq!(d.names, vec!["other".to_owned()]);

    // Populated absorbs populated: spans renumber past span_count and
    // parents follow; drop counters add.
    let mut e = populated();
    e.absorb(populated());
    assert_eq!(e.span_count, 4);
    assert_eq!(e.events.len(), 4);
    assert_eq!(e.events[2].span, 2);
    assert_eq!(e.events[3].span, 3);
    assert_eq!(e.events[3].parent, Some(2));
    assert_eq!((e.dropped, e.dropped_recovery), (6, 2));
}

/// A finished harness run whose artifact path cannot be written reports
/// the path and exits 2 instead of panicking (exit 101), and leaves no
/// file: `--trace`, `--json` and `--metrics` on `table2`, and
/// `--bench-json` on `fig7`.
#[test]
fn unwritable_trace_path_exits_2() {
    let missing = std::env::temp_dir()
        .join(format!("sg-bench-no-such-dir-{}", std::process::id()))
        .join("t.jsonl");
    let table2 = env!("CARGO_BIN_EXE_table2");
    let fig7 = env!("CARGO_BIN_EXE_fig7");
    for (bin, args) in [
        (table2, &["--injections", "1", "--trace"][..]),
        (table2, &["--injections", "1", "--json"][..]),
        (table2, &["--injections", "1", "--metrics"][..]),
        (
            fig7,
            &["--seconds", "1", "--repetitions", "1", "--bench-json"][..],
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .arg(&missing)
            .output()
            .expect("harness runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("cannot write"), "{args:?}: {stderr}");
        assert!(!missing.parent().expect("parent").exists(), "{args:?}");
    }
}

/// The artifacts of one run land together or not at all: a `--trace`
/// path that cannot be written also takes back the `--json` rows that
/// could have been.
#[test]
fn unwritable_trace_path_leaves_no_rows_file() {
    let dir = std::env::temp_dir().join(format!("sg-bench-half-writable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--injections", "1", "--json"])
        .arg(dir.join("rows.json"))
        .arg("--trace")
        .arg(dir.join("missing").join("t.jsonl"))
        .output()
        .expect("harness runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert_eq!(
        std::fs::read_dir(&dir).expect("read dir").count(),
        0,
        "no artifact of the run is left behind"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}
