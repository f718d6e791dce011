//! Edge-case coverage for the simulated kernel beyond the module unit
//! tests: metadata queries, time accounting, reboot corner cases, and
//! executor/thread interplay.

use composite::{
    CallError, ComponentId, CostModel, Executor, Kernel, KernelError, Priority, RunExit, Service,
    ServiceCtx, ServiceError, SimTime, StepResult, ThreadState, Value, BOOTER, BOOT_THREAD,
};

#[derive(Debug, Default)]
struct Echo;

impl Service for Echo {
    fn interface(&self) -> &'static str {
        "echo"
    }
    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "id" => Ok(args.first().cloned().unwrap_or(Value::Unit)),
            "work" => {
                ctx.charge(SimTime::from_micros(5));
                Ok(Value::Unit)
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {}
}

#[test]
fn booter_and_boot_thread_exist_from_birth() {
    let k = Kernel::new();
    assert_eq!(k.component_name(BOOTER), Some("booter"));
    assert!(k.thread(BOOT_THREAD).is_ok());
    assert_eq!(k.thread(BOOT_THREAD).unwrap().priority, Priority::HIGHEST);
    assert_eq!(k.component_count(), 1);
    assert_eq!(k.thread_count(), 1);
}

#[test]
fn component_metadata_queries() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let svc = k.add_component("echo", Box::new(Echo));
    assert_eq!(k.component_name(svc), Some("echo"));
    assert_eq!(k.interface_of(svc), Some("echo"));
    assert_eq!(
        k.interface_of(app),
        None,
        "client components export no interface"
    );
    assert_eq!(k.component_name(ComponentId(99)), None);
    assert_eq!(k.component_ids().count(), 3);
}

#[test]
fn service_charge_advances_virtual_time() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let svc = k.add_component("echo", Box::new(Echo));
    k.grant(app, svc);
    let t = k.create_thread(app, Priority(5));
    k.invoke(app, t, svc, "work", &[]).unwrap();
    assert_eq!(k.now(), SimTime::from_micros(5));
}

#[test]
fn micro_reboot_of_active_component_is_allowed_and_epoch_bumps() {
    // A proactive (rejuvenation-style) reboot is legal.
    let mut k = Kernel::with_costs(CostModel::free());
    let svc = k.add_component("echo", Box::new(Echo));
    let e0 = k.epoch_of(svc).unwrap();
    k.micro_reboot(svc).unwrap();
    assert_eq!(k.epoch_of(svc).unwrap(), e0.next());
    assert!(!k.is_faulty(svc));
}

#[test]
fn micro_reboot_of_unknown_component_fails() {
    let mut k = Kernel::new();
    assert_eq!(
        k.micro_reboot(ComponentId(42)),
        Err(KernelError::NoSuchComponent(ComponentId(42)))
    );
}

#[test]
fn waking_terminal_threads_is_rejected() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let t = k.create_thread(app, Priority(5));
    k.thread_mut(t).unwrap().state = ThreadState::Completed;
    assert_eq!(k.wake_thread(t), Err(KernelError::BadThreadState(t)));
    assert_eq!(
        k.wake_thread(composite::ThreadId(99)),
        Err(KernelError::NoSuchThread(composite::ThreadId(99)))
    );
}

#[test]
fn waking_a_runnable_thread_is_a_noop() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let t = k.create_thread(app, Priority(5));
    let wakeups_before = k.counters().wakeups;
    k.wake_thread(t).unwrap();
    assert_eq!(k.counters().wakeups, wakeups_before);
}

#[test]
fn fault_on_unknown_component_is_ignored() {
    let mut k = Kernel::new();
    k.fault(ComponentId(77)); // must not panic
    assert_eq!(k.counters().total(|r| r.faults), 0);
}

#[test]
fn invocations_into_booter_are_rejected_as_clients() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    k.grant(app, BOOTER);
    let t = k.create_thread(app, Priority(5));
    // The booter exports no service.
    let err = k.invoke(app, t, BOOTER, "x", &[]).unwrap_err();
    assert!(matches!(err, CallError::NoSuchComponent(_)));
}

#[test]
fn executor_dispatch_targets_a_specific_thread() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let a = k.create_thread(app, Priority(5));
    let b = k.create_thread(app, Priority(5));
    let mut ex: Executor<Kernel> = Executor::new();
    ex.attach_fn(a, |_, _| StepResult::Done);
    ex.attach_fn(b, |_, _| StepResult::Done);
    // Dispatch b explicitly even though a would be picked first.
    ex.dispatch(&mut k, b);
    assert!(k.thread(b).unwrap().state.is_terminal());
    assert!(k.thread(a).unwrap().state.is_runnable());
}

#[test]
fn executor_with_no_workloads_reports_all_done() {
    let mut k = Kernel::with_costs(CostModel::free());
    let mut ex: Executor<Kernel> = Executor::new();
    assert_eq!(ex.run(&mut k, 10), RunExit::AllDone);
}

#[test]
fn time_advance_wakes_multiple_sleepers_in_order() {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let a = k.create_thread(app, Priority(5));
    let b = k.create_thread(app, Priority(5));
    k.sleep_thread_public(a, SimTime(100));
    k.sleep_thread_public(b, SimTime(200));
    assert_eq!(k.earliest_wakeup(), Some(SimTime(100)));
    k.advance_to(SimTime(150));
    assert!(k.thread(a).unwrap().state.is_runnable());
    assert!(!k.thread(b).unwrap().state.is_runnable());
    k.advance_to(SimTime(200));
    assert!(k.thread(b).unwrap().state.is_runnable());
}

/// Helper trait: tests need the crate-private sleep entry point; the
/// public path goes through a service's `sleep_current_until`.
trait SleepExt {
    fn sleep_thread_public(&mut self, t: composite::ThreadId, d: SimTime);
}

#[derive(Debug)]
struct Sleeper;
impl Service for Sleeper {
    fn interface(&self) -> &'static str {
        "sleeper"
    }
    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        _fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        let d = SimTime(args[0].int()? as u64);
        Err(ctx.sleep_current_until(d))
    }
    fn reset(&mut self) {}
}

impl SleepExt for Kernel {
    fn sleep_thread_public(&mut self, t: composite::ThreadId, d: SimTime) {
        // Install a one-off sleeper service lazily (idempotent enough for
        // tests: a new component per call is fine).
        let app = self.thread(t).expect("thread exists").home;
        let sleeper = self.add_component("sleeper", Box::new(Sleeper));
        self.grant(app, sleeper);
        let err = self
            .invoke(app, t, sleeper, "sleep", &[Value::Int(d.as_nanos() as i64)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
    }
}
