//! Differential C³ ↔ SuperGlue test layer.
//!
//! The paper's central claim (§IV) is that the stubs *generated* from a
//! few lines of IDL are behaviorally equivalent to the hand-written C³
//! recovery code they replace. These tests run the **same deterministic
//! workload and fault schedule** under both protection variants and
//! require the observable behavior to match:
//!
//! * every interface-call outcome classifies identically (same values,
//!   same would-block points, same errors);
//! * the post-recovery descriptor tables have the same shape (tracked
//!   count, zero still-faulty descriptors);
//! * the runtime's recovery bookkeeping agrees (faults handled, nothing
//!   unrecovered);
//! * every recovery mechanism the scenario suite exercises —
//!   R0/T0/T1/D0/D1/G0/G1/U0 — actually fired, per the observability
//!   counters.

use composite::{
    CallError, InterfaceCall as _, KernelAccess as _, Mechanism, MetricsSnapshot, Priority, Value,
    MECHANISMS,
};
use sg_bench::{rig, Rig, SERVICES};
use superglue::testbed::Variant;

/// Classify one call outcome for cross-variant comparison.
fn classify(result: &Result<Value, CallError>) -> String {
    match result {
        Ok(v) => format!("ok({v:?})"),
        Err(CallError::WouldBlock) => "would-block".to_owned(),
        Err(e) => format!("err({e:?})"),
    }
}

/// Everything observable from one scripted run under one variant.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    outcomes: Vec<String>,
    tracked: usize,
    faulty: usize,
    faults_handled: u64,
    unrecovered: u64,
}

/// The deterministic differential script for one service: warm the
/// descriptor table with the §V-B micro-workload, then run three
/// fault → recovering-call → more-workload rounds against one victim
/// descriptor. The fault schedule is positional (after the same calls in
/// both variants), so the two systems see identical fault timing.
fn run_script(variant: Variant, iface: &str) -> Trace {
    let mut r = rig(variant);
    for seq in 0..3 {
        r.run_iteration(iface, seq).unwrap();
    }
    let (client, thread, svc, fname, args) = r.setup_recovery_victim(iface);
    let mut outcomes = Vec::new();
    for seq in 0..3 {
        r.tb.runtime.inject_fault(svc);
        let res =
            r.tb.runtime
                .interface_call(client, thread, svc, fname, &args);
        outcomes.push(classify(&res));
        r.run_iteration(iface, 100 + seq).unwrap();
    }
    // On-demand recovery is lazy per touched descriptor; quiesce the
    // rest so the final table shapes are comparable across variants.
    r.tb.runtime
        .recover_now(svc, thread)
        .expect("quiesce sweep");
    let stub = r.tb.runtime.stub(client, svc).expect("stub installed");
    Trace {
        outcomes,
        tracked: stub.tracked_count(),
        faulty: stub.faulty_count(),
        faults_handled: r.tb.runtime.stats().faults_handled,
        unrecovered: r.tb.runtime.stats().unrecovered,
    }
}

#[test]
fn c3_and_superglue_traces_match_for_all_services() {
    for iface in SERVICES {
        let c3 = run_script(Variant::C3, iface);
        let sg = run_script(Variant::SuperGlue, iface);
        assert_eq!(
            c3, sg,
            "{iface}: C³ and SuperGlue recovery behavior diverges"
        );
        assert_eq!(sg.faulty, 0, "{iface}: descriptors must be fully recovered");
        assert_eq!(sg.unrecovered, 0, "{iface}: no unrecovered faults");
        assert!(
            sg.faults_handled >= 3,
            "{iface}: every injected fault handled"
        );
    }
}

/// Drive a scenario suite chosen so that, between them, all eight
/// recovery mechanisms fire, and return the final metrics snapshot.
fn exercise_all_mechanisms(variant: Variant) -> MetricsSnapshot {
    let mut r = rig(variant);
    let app = r.tb.ids.app1;
    let app2 = r.tb.ids.app2;
    let compid = Value::from(app.0);

    // D0: every service's teardown path (the frees/releases in the
    // micro-workload iterations).
    for iface in SERVICES {
        r.run_iteration(iface, 0).unwrap();
    }

    // R0 + D1: recovering the mm alias forces parent-first recovery of
    // the root mapping.
    let (c, t, svc, f, a) = r.setup_recovery_victim("mm");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("mm victim recovers");

    // G0 + U0: the event victim is recovered from the *foreign* client,
    // via the storage creator lookup and the upcall into the creator.
    let (c, t, svc, f, a) = r.setup_recovery_victim("evt");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("evt victim recovers");

    // G1: the reboot loses the RamFS contents; the next read re-fetches
    // the redundant copy from storage.
    let (c, t, svc, f, a) = r.setup_recovery_victim("fs");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("fs victim recovers");
    r.tb.runtime
        .interface_call(
            c,
            t,
            svc,
            "tread",
            &[a[0].clone(), a[1].clone(), Value::Int(3)],
        )
        .expect("post-recovery read re-fetches data");

    // T0 (+ T1 for the walk-replaying stubs): a waiter blocked inside
    // the event manager at fault time is eagerly woken by the reboot,
    // and the creator-side recovery of its mid-wait descriptor must
    // defer the thread-affine blocking step.
    let evt = r.tb.ids.evt;
    let id =
        r.tb.runtime
            .interface_call(
                app,
                r.thread,
                evt,
                "evt_split",
                &[compid.clone(), Value::Int(0), Value::Int(1)],
            )
            .expect("split")
            .int()
            .expect("id");
    let blocked =
        r.tb.runtime
            .interface_call(app, r.thread, evt, "evt_wait", &[compid, Value::Int(id)])
            .expect_err("no pending trigger: the waiter blocks");
    assert_eq!(blocked, CallError::WouldBlock);
    r.tb.runtime.inject_fault(evt);
    r.tb.runtime
        .interface_call(
            app2,
            r.thread2,
            evt,
            "evt_trigger",
            &[Value::from(app2.0), Value::Int(id)],
        )
        .expect("foreign trigger recovers the waiter's descriptor");

    // T1 (generated-walk path): a descriptor whose *recorded* state
    // follows a blocking call (a wait satisfied by a pending trigger)
    // is recovered by a different thread — the blocking step is
    // thread-affine, so the remainder of the walk must be deferred.
    let compid = Value::from(app.0);
    let id =
        r.tb.runtime
            .interface_call(
                app,
                r.thread,
                evt,
                "evt_split",
                &[compid.clone(), Value::Int(0), Value::Int(1)],
            )
            .expect("split")
            .int()
            .expect("id");
    r.tb.runtime
        .interface_call(
            app,
            r.thread,
            evt,
            "evt_trigger",
            &[compid.clone(), Value::Int(id)],
        )
        .expect("trigger");
    r.tb.runtime
        .interface_call(
            app,
            r.thread,
            evt,
            "evt_wait",
            &[compid.clone(), Value::Int(id)],
        )
        .expect("pending trigger: the wait returns immediately");
    r.tb.runtime.inject_fault(evt);
    let t3 = r.tb.spawn_thread(app, Priority(5));
    r.tb.runtime
        .interface_call(app, t3, evt, "evt_trigger", &[compid, Value::Int(id)])
        .expect("foreign-thread trigger recovers the waited descriptor");

    // T1 (hand-written lock path): a lock taken by one thread and
    // recovered by another restores the hold for the recorded owner.
    let lock = r.tb.ids.lock;
    let compid = Value::from(app.0);
    let lid =
        r.tb.runtime
            .interface_call(
                app,
                r.thread,
                lock,
                "lock_alloc",
                std::slice::from_ref(&compid),
            )
            .expect("alloc")
            .int()
            .expect("id");
    r.tb.runtime
        .interface_call(
            app,
            r.thread,
            lock,
            "lock_take",
            &[compid.clone(), Value::Int(lid)],
        )
        .expect("take");
    r.tb.runtime.inject_fault(lock);
    let t2 = r.tb.spawn_thread(app, Priority(5));
    let contended =
        r.tb.runtime
            .interface_call(app, t2, lock, "lock_take", &[compid, Value::Int(lid)]);
    assert_eq!(
        contended,
        Err(CallError::WouldBlock),
        "recovery restored the original owner's hold, so the contender blocks"
    );

    assert_eq!(r.tb.runtime.stats().unrecovered, 0);
    MetricsSnapshot::from_kernel(r.tb.runtime.kernel())
}

/// The paper's eight mechanisms — the channel extensions (DL0/CR0)
/// only fire on the pipeline workload and are pinned nonzero by the
/// `crates/pipeline` suite and `tests/pipeline_e2e.rs`.
fn paper_mechanisms() -> impl Iterator<Item = Mechanism> {
    MECHANISMS
        .into_iter()
        .filter(|m| !matches!(m, Mechanism::Dl0 | Mechanism::Cr0))
}

#[test]
fn all_eight_mechanism_counters_fire_under_c3() {
    let snap = exercise_all_mechanisms(Variant::C3);
    for m in paper_mechanisms() {
        assert!(snap.mechanism_total(m) > 0, "C³: {} never fired", m.name());
    }
}

#[test]
fn all_eight_mechanism_counters_fire_under_superglue() {
    let snap = exercise_all_mechanisms(Variant::SuperGlue);
    for m in paper_mechanisms() {
        assert!(
            snap.mechanism_total(m) > 0,
            "SuperGlue: {} never fired",
            m.name()
        );
    }
}

/// The counters are attributed to the *failed* component: the mm rounds
/// of the differential script must show up on `mm`, not on the client.
#[test]
fn counters_attribute_to_the_failed_component() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let mut r: Rig = rig(variant);
        let (c, t, svc, f, a) = r.setup_recovery_victim("mm");
        r.tb.runtime.inject_fault(svc);
        r.tb.runtime
            .interface_call(c, t, svc, f, &a)
            .expect("mm victim recovers");
        let snap = MetricsSnapshot::from_kernel(r.tb.runtime.kernel());
        assert!(snap.mechanism_count("mm", Mechanism::R0) > 0, "{variant:?}");
        assert_eq!(
            snap.mechanism_count("lock", Mechanism::R0),
            0,
            "{variant:?}"
        );
    }
}

/// The compiler's §III-C map covers what the runtime does: every
/// mechanism the kernel counted on a component during one 25-injection
/// SuperGlue campaign shard is in that interface's
/// `ModelPredicates::mechanisms`. D0 is left out: the runtime counts it
/// on every teardown, while §III-C's D0 is recursive revocation.
#[test]
fn campaign_mechanisms_are_in_the_models_map() {
    let cfg = sg_swifi::CampaignConfig {
        variant: Variant::SuperGlue,
        injections: 25,
        ..sg_swifi::CampaignConfig::default()
    };
    for (iface, src) in superglue::sources::idl_sources() {
        let spec = superglue_idl::compile_interface(iface, src).expect("shipped IDL compiles");
        let map = superglue_compiler::ModelPredicates::of(&spec).mechanisms();
        let metrics = sg_swifi::run_shard(iface, &cfg, 0).metrics;
        for m in paper_mechanisms().filter(|&m| m != Mechanism::D0) {
            let fired = metrics.mechanism_count(iface, m);
            assert!(
                fired == 0 || map.contains(&m),
                "{iface}: {} fired {fired} times but the map is {map:?}",
                m.name()
            );
        }
    }
}
