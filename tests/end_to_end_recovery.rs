//! End-to-end recovery integration tests: the full simulated OS, all six
//! §V-B workloads concurrently, faults injected into every system
//! service, under both fault-tolerance variants and both recovery
//! policies.

use composite::{
    Executor, InterfaceCall as _, KernelAccess as _, Priority, RunExit, ThreadId, Value,
};
use sg_c3::{FtRuntime, RecoveryPolicy};
use sg_services::api::ClientEnd;
use sg_services::workloads::{
    shared_desc, EventTrigger, EventWaiter, FsOpenWriteRead, LockContender, LockOwner,
    MmGrantAliasRevoke, SchedPingPong, TimerPeriodic,
};
use superglue::testbed::{Testbed, Variant};

fn attach_all(tb: &mut Testbed, ex: &mut Executor<FtRuntime>, rounds: u32) -> Vec<ThreadId> {
    let ids = tb.ids;
    let t1 = tb.spawn_thread(ids.app1, Priority(5));
    let t2 = tb.spawn_thread(ids.app1, Priority(5));
    ex.attach(
        t1,
        Box::new(SchedPingPong::new(
            ClientEnd::new(ids.app1, t1, ids.sched),
            t2,
            rounds,
            true,
        )),
    );
    ex.attach(
        t2,
        Box::new(SchedPingPong::new(
            ClientEnd::new(ids.app1, t2, ids.sched),
            t1,
            rounds,
            false,
        )),
    );
    let t3 = tb.spawn_thread(ids.app1, Priority(5));
    let t4 = tb.spawn_thread(ids.app1, Priority(5));
    let shared = shared_desc();
    ex.attach(
        t3,
        Box::new(LockOwner::new(
            ClientEnd::new(ids.app1, t3, ids.lock),
            shared.clone(),
            rounds,
            2,
        )),
    );
    ex.attach(
        t4,
        Box::new(LockContender::new(
            ClientEnd::new(ids.app1, t4, ids.lock),
            shared,
            rounds,
        )),
    );
    let t5 = tb.spawn_thread(ids.app1, Priority(5));
    let t6 = tb.spawn_thread(ids.app2, Priority(5));
    let shared_e = shared_desc();
    ex.attach(
        t5,
        Box::new(EventWaiter::new(
            ClientEnd::new(ids.app1, t5, ids.evt),
            shared_e.clone(),
            rounds,
        )),
    );
    ex.attach(
        t6,
        Box::new(EventTrigger::new(
            ClientEnd::new(ids.app2, t6, ids.evt),
            shared_e,
            rounds,
        )),
    );
    let t7 = tb.spawn_thread(ids.app1, Priority(5));
    ex.attach(
        t7,
        Box::new(TimerPeriodic::new(
            ClientEnd::new(ids.app1, t7, ids.tmr),
            500_000,
            rounds,
        )),
    );
    let t8 = tb.spawn_thread(ids.app1, Priority(5));
    ex.attach(
        t8,
        Box::new(MmGrantAliasRevoke::new(
            ClientEnd::new(ids.app1, t8, ids.mm),
            ids.app2,
            rounds,
        )),
    );
    let t9 = tb.spawn_thread(ids.app1, Priority(5));
    ex.attach(
        t9,
        Box::new(FsOpenWriteRead::new(
            ClientEnd::new(ids.app1, t9, ids.fs),
            rounds,
        )),
    );
    vec![t1, t2, t3, t4, t5, t6, t7, t8, t9]
}

fn storm(variant: Variant, policy: RecoveryPolicy, fault_rounds: u32) {
    let mut tb = Testbed::build_with(variant, composite::CostModel::paper_defaults(), policy)
        .expect("testbed builds");
    let mut ex: Executor<FtRuntime> = Executor::new();
    attach_all(&mut tb, &mut ex, 40);
    let targets = tb.ids.targets();
    for round in 0..fault_rounds {
        for (_, svc) in targets {
            ex.run(&mut tb.runtime, 150 + u64::from(round) * 37);
            tb.runtime.inject_fault(svc);
            if policy == RecoveryPolicy::Eager {
                tb.runtime
                    .handle_fault_now(svc, composite::BOOT_THREAD)
                    .expect("eager recovery");
            }
        }
    }
    assert_eq!(
        ex.run(&mut tb.runtime, 3_000_000),
        RunExit::AllDone,
        "{variant:?}/{policy:?}: workloads must finish"
    );
    assert_eq!(tb.runtime.stats().unrecovered, 0, "{variant:?}/{policy:?}");
    // Re-injections into a still-faulted (never re-invoked) component
    // coalesce into one reboot, so the handled count is a lower bound.
    assert!(
        tb.runtime.stats().faults_handled >= 4,
        "rounds = {fault_rounds}"
    );
}

#[test]
fn superglue_survives_a_fault_storm_on_demand() {
    storm(Variant::SuperGlue, RecoveryPolicy::OnDemand, 3);
}

#[test]
fn c3_survives_a_fault_storm_on_demand() {
    storm(Variant::C3, RecoveryPolicy::OnDemand, 3);
}

#[test]
fn superglue_survives_a_fault_storm_eager() {
    storm(Variant::SuperGlue, RecoveryPolicy::Eager, 2);
}

#[test]
fn c3_survives_a_fault_storm_eager() {
    storm(Variant::C3, RecoveryPolicy::Eager, 2);
}

#[test]
fn bare_composite_loses_workloads_to_the_same_storm() {
    let mut tb = Testbed::build(Variant::Bare).expect("testbed builds");
    let mut ex: Executor<FtRuntime> = Executor::new();
    let threads = attach_all(&mut tb, &mut ex, 40);
    ex.run(&mut tb.runtime, 120);
    for (_, svc) in tb.ids.targets() {
        tb.runtime.inject_fault(svc);
    }
    ex.run(&mut tb.runtime, 3_000_000);
    let crashed = threads
        .iter()
        .filter(|&&t| {
            tb.runtime.kernel().thread(t).map(|th| th.state) == Ok(composite::ThreadState::Crashed)
        })
        .count();
    assert!(
        crashed >= 3,
        "only {crashed} workloads crashed without fault tolerance"
    );
}

#[test]
fn recovery_statistics_are_consistent() {
    let mut tb = Testbed::build(Variant::SuperGlue).expect("testbed builds");
    let mut ex: Executor<FtRuntime> = Executor::new();
    attach_all(&mut tb, &mut ex, 20);
    ex.run(&mut tb.runtime, 200);
    for (_, svc) in tb.ids.targets() {
        tb.runtime.inject_fault(svc);
        ex.run(&mut tb.runtime, 400);
    }
    assert_eq!(ex.run(&mut tb.runtime, 2_000_000), RunExit::AllDone);
    let s = tb.runtime.stats();
    // Every reboot must be observed as a handled fault by the kernel too.
    assert_eq!(
        s.faults_handled,
        tb.runtime.kernel().counters().total(|r| r.reboots)
    );
    // Recovery implies walk replays (some descriptors need zero-step
    // walks, so >= not ==).
    assert!(s.descriptors_recovered <= s.walk_steps_replayed + s.descriptors_recovered);
}

#[test]
fn descriptor_state_survives_recovery_exactly() {
    // A single fd's offset and contents, byte for byte, across three
    // consecutive faults.
    let mut tb = Testbed::build(Variant::SuperGlue).expect("testbed builds");
    let t = tb.spawn_thread(tb.ids.app1, Priority(5));
    let (app, fs) = (tb.ids.app1, tb.ids.fs);
    let fd = tb
        .runtime
        .interface_call(
            app,
            t,
            fs,
            "tsplit",
            &[Value::Int(1), Value::Int(0), Value::from("ledger")],
        )
        .unwrap()
        .int()
        .unwrap();
    for round in 0..3u8 {
        tb.runtime
            .interface_call(
                app,
                t,
                fs,
                "twrite",
                &[Value::Int(1), Value::Int(fd), Value::from(vec![round])],
            )
            .unwrap();
        tb.runtime.inject_fault(fs);
        // The next call triggers recovery; offset must resume where the
        // write left it.
        let r = tb
            .runtime
            .interface_call(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd), Value::Int(8)],
            )
            .unwrap();
        assert_eq!(
            r,
            Value::from(vec![]),
            "offset restored to EOF after round {round}"
        );
    }
    tb.runtime
        .interface_call(
            app,
            t,
            fs,
            "tseek",
            &[Value::Int(1), Value::Int(fd), Value::Int(0)],
        )
        .unwrap();
    let r = tb
        .runtime
        .interface_call(
            app,
            t,
            fs,
            "tread",
            &[Value::Int(1), Value::Int(fd), Value::Int(8)],
        )
        .unwrap();
    assert_eq!(
        r,
        Value::from(vec![0, 1, 2]),
        "contents accumulated across three recoveries"
    );
}
