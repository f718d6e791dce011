//! Edge cases of the generic compiled stub that the happy-path testbed
//! tests do not reach: unknown functions, invalid transitions counted as
//! detections, storage-less configurations, retry exhaustion, and stub
//! introspection.

use std::sync::Arc;

use composite::{
    CallError, ComponentId, CostModel, InterfaceCall as _, Kernel, KernelAccess as _, Priority,
    ServiceError, ThreadId, Value,
};
use sg_c3::{FtRuntime, RuntimeConfig};
use superglue::testbed::{Testbed, Variant};
use superglue::CompiledStub;

fn superglue_testbed() -> (Testbed, ThreadId) {
    let mut tb = Testbed::build(Variant::SuperGlue).expect("testbed builds");
    let t = tb.spawn_thread(tb.ids.app1, Priority(5));
    (tb, t)
}

#[test]
fn unknown_function_passes_through_with_fault_handling() {
    let (mut tb, t) = superglue_testbed();
    let (app, lock) = (tb.ids.app1, tb.ids.lock);
    // `lock_query` is not in the IDL: the stub passes it through and the
    // server rejects it.
    let err = tb
        .runtime
        .interface_call(app, t, lock, "lock_query", &[])
        .unwrap_err();
    assert!(matches!(
        err,
        CallError::Service(ServiceError::NoSuchFunction(_))
    ));
    // Same while the server is faulty: the pass-through reboots first.
    tb.runtime.inject_fault(lock);
    let err = tb
        .runtime
        .interface_call(app, t, lock, "lock_query", &[])
        .unwrap_err();
    assert!(matches!(
        err,
        CallError::Service(ServiceError::NoSuchFunction(_))
    ));
    assert!(
        !tb.runtime.kernel().is_faulty(lock),
        "pass-through must have rebooted"
    );
}

#[test]
fn invalid_transitions_are_counted_as_detections() {
    let (mut tb, t) = superglue_testbed();
    let (app, lock) = (tb.ids.app1, tb.ids.lock);
    let id = tb
        .runtime
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap()
        .int()
        .unwrap();
    // Releasing a never-taken lock is an invalid σ branch; the service
    // also rejects it, so only the service error surfaces — but a
    // *successful* out-of-order call is the detection case: take twice.
    tb.runtime
        .interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    let before = tb.runtime.stats().invalid_transitions;
    // take→take has no σ edge but succeeds at the server (idempotent
    // re-take): the stub records the invalid branch and resynchronizes.
    tb.runtime
        .interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    assert_eq!(tb.runtime.stats().invalid_transitions, before + 1);
    // Tracking resynchronized: the descriptor still recovers correctly.
    tb.runtime.inject_fault(lock);
    tb.runtime
        .interface_call(
            app,
            t,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
}

#[test]
fn global_recovery_without_storage_fails_gracefully() {
    // Build a runtime with NO storage component configured: G0 recovery
    // of a foreign event must fail with NotFound, not panic or hang.
    let mut k = Kernel::with_costs(CostModel::free());
    let app1 = k.add_client_component("app1");
    let app2 = k.add_client_component("app2");
    let evt = k.add_component("evt", Box::new(sg_services::event::EventService::new()));
    let t1 = k.create_thread(app1, Priority(5));
    let t2 = k.create_thread(app2, Priority(5));
    let spec = &superglue::compile_all().unwrap()["evt"].stub_spec;
    let mut rt = FtRuntime::new(
        k,
        RuntimeConfig {
            storage: None,
            ..RuntimeConfig::default()
        },
    );
    rt.install_stub(app1, evt, Box::new(CompiledStub::new(Arc::clone(spec))));
    rt.install_stub(app2, evt, Box::new(CompiledStub::new(Arc::clone(spec))));

    let id = rt
        .interface_call(
            app1,
            t1,
            evt,
            "evt_split",
            &[Value::from(app1.0), Value::Int(0), Value::Int(1)],
        )
        .unwrap()
        .int()
        .unwrap();
    rt.inject_fault(evt);
    // The foreign client cannot discover the creator without storage.
    let err = rt
        .interface_call(
            app2,
            t2,
            evt,
            "evt_trigger",
            &[Value::from(app2.0), Value::Int(id)],
        )
        .unwrap_err();
    assert!(matches!(err, CallError::Service(ServiceError::NotFound)));
    // The creator itself CAN still restore (its own metadata suffices).
    rt.interface_call(
        app1,
        t1,
        evt,
        "evt_trigger",
        &[Value::from(app1.0), Value::Int(id)],
    )
    .unwrap();
}

#[test]
fn stub_introspection_reports_interface_and_counts() {
    let (mut tb, t) = superglue_testbed();
    let (app, lock) = (tb.ids.app1, tb.ids.lock);
    for _ in 0..3 {
        tb.runtime
            .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
            .unwrap();
    }
    let stub = tb.runtime.stub(app, lock).expect("installed");
    assert_eq!(stub.interface(), "lock");
    assert_eq!(stub.tracked_count(), 3);
    assert_eq!(stub.faulty_count(), 0);
    tb.runtime.inject_fault(tb.ids.lock);
    // Marking happens when the fault is *handled*; drive one call.
    tb.runtime
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap();
    let stub = tb.runtime.stub(app, lock).expect("installed");
    assert_eq!(stub.tracked_count(), 4);
    // The three pre-fault descriptors are marked faulty until touched.
    assert_eq!(stub.faulty_count(), 3);
}

#[test]
fn total_tracked_spans_all_edges() {
    let (mut tb, t) = superglue_testbed();
    let t2 = tb.spawn_thread(tb.ids.app2, Priority(5));
    let (a1, a2, lock) = (tb.ids.app1, tb.ids.app2, tb.ids.lock);
    tb.runtime
        .interface_call(a1, t, lock, "lock_alloc", &[Value::Int(1)])
        .unwrap();
    tb.runtime
        .interface_call(a2, t2, lock, "lock_alloc", &[Value::Int(2)])
        .unwrap();
    assert_eq!(tb.total_tracked(), 2);
}

#[test]
fn retry_budget_bounds_repeated_faulting() {
    // A service that refaults on every single call can only consume the
    // configured retry budget before the fault surfaces to the client.
    #[derive(Debug)]
    struct Refaulter {
        me: ComponentId,
    }
    impl composite::Service for Refaulter {
        fn interface(&self) -> &'static str {
            "lock"
        }
        fn call(
            &mut self,
            ctx: &mut composite::ServiceCtx<'_>,
            _f: &str,
            _a: &[Value],
        ) -> Result<Value, ServiceError> {
            ctx.raise_fault(self.me);
            Ok(Value::Int(1))
        }
        fn reset(&mut self) {}
    }
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let svc = k.add_component("lock", Box::new(Refaulter { me: ComponentId(2) }));
    let t = k.create_thread(app, Priority(5));
    let spec = Arc::clone(&superglue::compile_all().unwrap()["lock"].stub_spec);
    let mut rt = FtRuntime::new(
        k,
        RuntimeConfig {
            max_retries: 2,
            ..RuntimeConfig::default()
        },
    );
    rt.install_stub(app, svc, Box::new(CompiledStub::new(spec)));
    let err = rt
        .interface_call(app, t, svc, "lock_alloc", &[Value::Int(1)])
        .unwrap_err();
    assert!(matches!(err, CallError::Fault { .. }));
    assert!(rt.stats().unrecovered >= 1);
    // Exactly max_retries reboots were attempted.
    assert_eq!(rt.stats().faults_handled, 2);
}
