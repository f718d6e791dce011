//! Edge cases of the recovery environment: storage helpers without a
//! storage component, upcalls to unknown edges, recovery-time
//! accounting, and retry bookkeeping.

use composite::{
    CostModel, InterfaceCall as _, Kernel, KernelAccess as _, Mechanism, Priority, ServiceError,
    SimTime, TraceEventKind, Value, DEFAULT_TRACE_CAPACITY,
};
use sg_c3::stubs::C3LockStub;
use sg_c3::{FtRuntime, RuntimeConfig};
use sg_services::lock::LockService;
use sg_services::storage::StorageService;

fn runtime(
    with_storage: bool,
) -> (
    FtRuntime,
    composite::ComponentId,
    composite::ComponentId,
    composite::ThreadId,
) {
    let mut k = Kernel::with_costs(CostModel::paper_defaults());
    let app = k.add_client_component("app");
    let storage = k.add_component("storage", Box::new(StorageService::new()));
    let lock = k.add_component("lock", Box::new(LockService::new()));
    let t = k.create_thread(app, Priority(5));
    let cfg = RuntimeConfig {
        storage: with_storage.then_some(storage),
        ..RuntimeConfig::default()
    };
    let mut rt = FtRuntime::new(k, cfg);
    rt.install_stub(app, lock, Box::new(C3LockStub::new()));
    (rt, app, lock, t)
}

/// Simulated time of `server`'s `reboot` and `walk_step` trace spans.
fn traced_recovery_time(rt: &mut FtRuntime, server: composite::ComponentId) -> SimTime {
    let shard = rt.kernel_mut().take_trace("env");
    let recovery = shard.events.iter().filter(|e| {
        e.component == server
            && matches!(
                e.kind,
                TraceEventKind::Reboot | TraceEventKind::WalkStep { .. }
            )
    });
    recovery.fold(SimTime::ZERO, |sum, e| sum + e.dur)
}

#[test]
fn recovery_time_is_attributed_to_the_faulted_server() {
    let (mut rt, app, lock, t) = runtime(true);
    rt.kernel_mut().enable_tracing(DEFAULT_TRACE_CAPACITY);
    let id = rt
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap()
        .int()
        .unwrap();
    assert_eq!(traced_recovery_time(&mut rt, lock), SimTime::ZERO);
    rt.inject_fault(lock);
    rt.interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    let spent = traced_recovery_time(&mut rt, lock);
    // At least the micro-reboot plus one replayed walk step.
    let costs = CostModel::paper_defaults();
    assert!(
        spent >= costs.micro_reboot + costs.recovery_step,
        "spent {spent}"
    );
}

#[test]
fn handle_fault_now_is_idempotent_on_healthy_components() {
    let (mut rt, _app, lock, t) = runtime(true);
    // No fault pending: a no-op, no reboot counted.
    rt.handle_fault_now(lock, t).unwrap();
    assert_eq!(rt.stats().faults_handled, 0);
}

#[test]
fn stats_expose_walk_and_descriptor_counters() {
    let (mut rt, app, lock, t) = runtime(true);
    let id = rt
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap()
        .int()
        .unwrap();
    rt.interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    rt.inject_fault(lock);
    rt.interface_call(
        app,
        t,
        lock,
        "lock_release",
        &[Value::Int(1), Value::Int(id)],
    )
    .unwrap();
    let r0 = rt
        .kernel()
        .counters()
        .total(|r| r.mechanisms[Mechanism::R0.index()]);
    assert_eq!(r0, 1);
    let s = rt.stats();
    // Taken lock by the same thread: alloc + take replayed.
    assert_eq!(s.walk_steps_replayed, 2);
    assert_eq!(s.unrecovered, 0);
}

#[test]
fn config_is_inspectable() {
    let (rt, _, _, _) = runtime(false);
    assert!(rt.config().storage.is_none());
    assert_eq!(rt.config().max_retries, 3);
}

#[test]
fn t0_wakeups_are_counted_for_blocked_threads() {
    let (mut rt, app, lock, t) = runtime(true);
    let t2 = {
        use composite::KernelAccess as _;
        rt.kernel_mut().create_thread(app, Priority(6))
    };
    let id = rt
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap()
        .int()
        .unwrap();
    rt.interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    // t2 blocks contending the lock.
    let err = rt
        .interface_call(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap_err();
    assert_eq!(err, composite::CallError::WouldBlock);
    rt.inject_fault(lock);
    // The owner's next call handles the fault; the kernel released t2,
    // the contending thread, when the fault was raised.
    rt.interface_call(
        app,
        t,
        lock,
        "lock_release",
        &[Value::Int(1), Value::Int(id)],
    )
    .unwrap();
    assert_eq!(rt.stats().faults_handled, 1);
    let row = rt.kernel().counters().row(lock).unwrap();
    assert_eq!(row.mechanisms[Mechanism::T0.index()], 1);
}

#[test]
fn service_errors_pass_through_untouched() {
    let (mut rt, app, lock, t) = runtime(true);
    // Freeing an unknown id: the service's NotFound is not translated.
    let err = rt
        .interface_call(app, t, lock, "lock_free", &[Value::Int(1), Value::Int(999)])
        .unwrap_err();
    assert!(matches!(
        err,
        composite::CallError::Service(ServiceError::NotFound)
    ));
}
