//! The fault-tolerant runtime: kernel + per-edge stubs + recovery
//! orchestration (§III-D steps 1–9).
//!
//! [`FtRuntime`] implements [`composite::InterfaceCall`], so workloads
//! written against that trait transparently gain interface-driven
//! recovery. C³ populates the edge map with hand-written stubs; SuperGlue
//! populates it with compiler-generated ones — everything else is shared,
//! mirroring the paper ("SuperGlue, an infrastructure built on top of the
//! predictable recovery mechanisms of C³").

use composite::{
    CallError, ComponentId, EdgeMap, EscalationPolicy, InterfaceCall, Kernel, KernelAccess,
    ThreadId, Value,
};

use crate::env::{RecoveryStats, StubEnv};
use crate::stub::InterfaceStub;

/// When descriptor recovery work is performed (§III-C, T0/T1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Recover each descriptor lazily when a thread touches it, at that
    /// thread's priority (**T1**) — the paper's preferred policy.
    #[default]
    OnDemand,
    /// Recover every descriptor of every client edge immediately at
    /// fault-handling time (**T0**-style eager recovery, used by the
    /// ablation benchmarks).
    Eager,
}

/// Runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Eager vs on-demand recovery.
    pub policy: RecoveryPolicy,
    /// The storage component for G0/G1, if present.
    pub storage: Option<ComponentId>,
    /// Fault-handling retry budget per call.
    pub max_retries: u32,
    /// Reboot-storm escalation policy, installed into the kernel at
    /// construction. Disabled by default (classic C³ behaviour).
    pub escalation: EscalationPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            policy: RecoveryPolicy::OnDemand,
            storage: None,
            max_retries: 3,
            escalation: EscalationPolicy::disabled(),
        }
    }
}

/// Depth bound for re-entrant eager recovery: a correlated fault during
/// an eager sweep opens at most this many child recovery episodes before
/// the fault is surfaced to the caller.
pub const MAX_NESTED_RECOVERY: u32 = 4;

/// The fault-tolerant system: a kernel plus interface stubs on every
/// protected (client, server) edge.
#[derive(Debug)]
pub struct FtRuntime {
    kernel: Kernel,
    stubs: EdgeMap<Box<dyn InterfaceStub>>,
    config: RuntimeConfig,
    stats: RecoveryStats,
}

impl FtRuntime {
    /// Wrap a kernel with an empty edge map.
    #[must_use]
    pub fn new(mut kernel: Kernel, config: RuntimeConfig) -> Self {
        kernel.set_escalation(config.escalation);
        Self {
            kernel,
            stubs: EdgeMap::new(),
            config,
            stats: RecoveryStats::new(),
        }
    }

    /// Install a stub on the (client, server) edge, replacing any
    /// previous stub. Also grants the client the invocation capability
    /// and, when storage is configured, a capability to reach it for
    /// G0/G1 round trips.
    pub fn install_stub(
        &mut self,
        client: ComponentId,
        server: ComponentId,
        stub: Box<dyn InterfaceStub>,
    ) {
        self.kernel.grant(client, server);
        if let Some(storage) = self.config.storage {
            self.kernel.grant(client, storage);
        }
        self.stubs.insert(client, server, stub);
    }

    /// The recovery statistics.
    #[must_use]
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// The runtime configuration.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Immutable access to a stub (tests/benches).
    #[must_use]
    pub fn stub(&self, client: ComponentId, server: ComponentId) -> Option<&dyn InterfaceStub> {
        self.stubs.get(client, server).map(AsRef::as_ref)
    }

    /// Inject a fail-stop fault into a component (test/campaign entry
    /// point). The fault is handled lazily: the next invocation of the
    /// component triggers micro-reboot and recovery.
    pub fn inject_fault(&mut self, server: ComponentId) {
        self.kernel.fault(server);
    }

    /// Handle a pending fault in `server` immediately (reboot + fault
    /// marking + eager recovery when configured), without waiting for
    /// the next client call. Used by eager-policy tests and benches.
    ///
    /// # Errors
    ///
    /// [`CallError::Fault`] when recovery is impossible.
    pub fn handle_fault_now(
        &mut self,
        server: ComponentId,
        thread: ThreadId,
    ) -> Result<(), CallError> {
        if !self.kernel.is_faulty(server) {
            return Ok(());
        }
        // Reboot via a detached env (no active edge); use the booter as
        // the "client".
        let mut env = StubEnv {
            kernel: &mut self.kernel,
            stubs: &mut self.stubs,
            stats: &mut self.stats,
            client: composite::BOOTER,
            thread,
            server,
            storage: self.config.storage,
            retries_left: self.config.max_retries,
        };
        env.ensure_rebooted()?;
        if self.config.policy == RecoveryPolicy::Eager {
            self.eager_recover(server, thread)?;
        }
        Ok(())
    }

    /// Eagerly sweep every still-faulty descriptor on every edge of
    /// `server`, regardless of the configured recovery policy. On-demand
    /// recovery is lazy per touched descriptor; this quiesces the rest —
    /// harnesses use it before comparing descriptor-table shapes.
    ///
    /// # Errors
    ///
    /// [`CallError::Fault`] when recovery is impossible.
    pub fn recover_now(&mut self, server: ComponentId, thread: ThreadId) -> Result<(), CallError> {
        self.eager_recover(server, thread)
    }

    /// Recover every descriptor of every edge of `server` right now.
    fn eager_recover(&mut self, server: ComponentId, thread: ThreadId) -> Result<(), CallError> {
        self.eager_recover_depth(server, thread, 0)
    }

    /// Re-entrant eager sweep: a fault raised *while the sweep is in
    /// flight* (a correlated fault) opens a child recovery episode — the
    /// culprit is rebooted and the sweep restarted — instead of aborting
    /// the parent recovery. Depth is bounded by
    /// [`MAX_NESTED_RECOVERY`]; past that the fault surfaces.
    fn eager_recover_depth(
        &mut self,
        server: ComponentId,
        thread: ThreadId,
        depth: u32,
    ) -> Result<(), CallError> {
        let mut restarts = 0u32;
        'sweep: loop {
            // clients_of is ascending by client id, matching the former
            // BTreeMap key order (recovery order is observable in traces).
            for client in self.stubs.clients_of(server) {
                let Some(mut stub) = self.stubs.take(client, server) else {
                    continue;
                };
                self.kernel.begin_recovery(server);
                let mut env = StubEnv {
                    kernel: &mut self.kernel,
                    stubs: &mut self.stubs,
                    stats: &mut self.stats,
                    client,
                    thread,
                    server,
                    storage: self.config.storage,
                    retries_left: self.config.max_retries,
                };
                let r = stub.recover_all(&mut env);
                self.kernel.end_recovery(server);
                self.stubs.insert(client, server, stub);
                if let Err(CallError::Fault { component }) = r {
                    if depth >= MAX_NESTED_RECOVERY || restarts >= MAX_NESTED_RECOVERY {
                        return r;
                    }
                    restarts += 1;
                    self.stats.nested_recoveries += 1;
                    // Child episode: reboot the culprit (which may be a
                    // *different* component — the cascade case), recover
                    // its edges one level deeper, then restart this sweep.
                    self.reboot_detached(component, thread)?;
                    if component != server {
                        self.eager_recover_depth(component, thread, depth + 1)?;
                    }
                    continue 'sweep;
                }
                r?;
            }
            return Ok(());
        }
    }

    /// Reboot `server` through a detached env (no active edge).
    fn reboot_detached(&mut self, server: ComponentId, thread: ThreadId) -> Result<(), CallError> {
        let mut env = StubEnv {
            kernel: &mut self.kernel,
            stubs: &mut self.stubs,
            stats: &mut self.stats,
            client: composite::BOOTER,
            thread,
            server,
            storage: self.config.storage,
            retries_left: self.config.max_retries,
        };
        env.ensure_rebooted().map(|_| ())
    }
}

impl KernelAccess for FtRuntime {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }
    fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}

impl InterfaceCall for FtRuntime {
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        // take/insert is two O(1) row indexes — the edge map is dense in
        // (client, server), so checkout does not search or allocate.
        let Some(mut stub) = self.stubs.take(client, server) else {
            // Unprotected edge: raw invocation (and raw fault exposure).
            return self.kernel.invoke(client, thread, server, fname, args);
        };
        // The per-invocation price of descriptor-state tracking — the
        // infrastructure overhead Fig 6(a) measures.
        let tracking = self.kernel.costs().tracking;
        self.kernel.charge(tracking);
        let mut env = StubEnv {
            kernel: &mut self.kernel,
            stubs: &mut self.stubs,
            stats: &mut self.stats,
            client,
            thread,
            server,
            storage: self.config.storage,
            retries_left: self.config.max_retries,
        };
        let mut result = stub.call(&mut env, fname, args);

        // Eager policy: a fault handled inside the call also recovers
        // every other edge of the server immediately.
        if self.config.policy == RecoveryPolicy::Eager {
            let rebooted_mid_call = env.retries_left < self.config.max_retries;
            let _ = env;
            self.stubs.insert(client, server, stub);
            if rebooted_mid_call {
                self.eager_recover(server, thread)?;
            }
            return result;
        }
        let _ = env;

        // On-demand: if the stub gave up (fault surfaced), record it.
        if matches!(result, Err(CallError::Fault { .. })) {
            self.stats.unrecovered += 1;
            result = Err(CallError::Fault { component: server });
        }
        self.stubs.insert(client, server, stub);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CostModel, Priority, ServiceError};

    /// A pass-through stub used to test the runtime plumbing.
    #[derive(Debug, Default)]
    struct NullStub {
        faulted: bool,
        calls: u64,
    }

    impl InterfaceStub for NullStub {
        fn interface(&self) -> &'static str {
            "null"
        }
        fn call(
            &mut self,
            env: &mut StubEnv<'_>,
            fname: &str,
            args: &[Value],
        ) -> Result<Value, CallError> {
            self.calls += 1;
            loop {
                match env.invoke(fname, args) {
                    Err(CallError::Fault { .. }) => {
                        env.ensure_rebooted()?;
                        self.faulted = false;
                    }
                    other => return other,
                }
            }
        }
        fn recover_descriptor(
            &mut self,
            _env: &mut StubEnv<'_>,
            _desc: i64,
        ) -> Result<(), CallError> {
            Ok(())
        }
        fn mark_faulty(&mut self) {
            self.faulted = true;
        }
        fn recover_all(&mut self, _env: &mut StubEnv<'_>) -> Result<(), CallError> {
            self.faulted = false;
            Ok(())
        }
        fn tracked_count(&self) -> usize {
            0
        }
        fn faulty_count(&self) -> usize {
            usize::from(self.faulted)
        }
    }

    #[derive(Debug, Default)]
    struct Counter {
        n: i64,
    }
    impl composite::Service for Counter {
        fn interface(&self) -> &'static str {
            "counter"
        }
        fn call(
            &mut self,
            _ctx: &mut composite::ServiceCtx<'_>,
            fname: &str,
            _args: &[Value],
        ) -> Result<Value, ServiceError> {
            match fname {
                "add" => {
                    self.n += 1;
                    Ok(Value::Int(self.n))
                }
                _ => Err(ServiceError::NoSuchFunction(fname.into())),
            }
        }
        fn reset(&mut self) {
            self.n = 0;
        }
    }

    fn setup() -> (FtRuntime, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let svc = k.add_component("counter", Box::new(Counter::default()));
        let t = k.create_thread(app, Priority(5));
        let mut rt = FtRuntime::new(k, RuntimeConfig::default());
        rt.install_stub(app, svc, Box::new(NullStub::default()));
        (rt, app, svc, t)
    }

    #[test]
    fn calls_route_through_stub() {
        let (mut rt, app, svc, t) = setup();
        let r = rt.interface_call(app, t, svc, "add", &[]).unwrap();
        assert_eq!(r, Value::Int(1));
    }

    #[test]
    fn fault_triggers_reboot_and_redo() {
        let (mut rt, app, svc, t) = setup();
        rt.interface_call(app, t, svc, "add", &[]).unwrap();
        rt.inject_fault(svc);
        // The stub's redo loop reboots the server and retries; the reset
        // counter restarts from zero.
        let r = rt.interface_call(app, t, svc, "add", &[]).unwrap();
        assert_eq!(r, Value::Int(1));
        assert_eq!(rt.stats().faults_handled, 1);
        assert!(!rt.kernel().is_faulty(svc));
    }

    #[test]
    fn unprotected_edges_pass_through_raw() {
        let (mut rt, app, _svc, t) = setup();
        let other = rt
            .kernel_mut()
            .add_component("counter2", Box::new(Counter::default()));
        rt.kernel_mut().grant(app, other);
        rt.interface_call(app, t, other, "add", &[]).unwrap();
        rt.inject_fault(other);
        // No stub: the fault surfaces raw.
        let err = rt.interface_call(app, t, other, "add", &[]).unwrap_err();
        assert!(matches!(err, CallError::Fault { .. }));
    }

    #[test]
    fn handle_fault_now_reboots_without_a_call() {
        let (mut rt, _app, svc, t) = setup();
        rt.inject_fault(svc);
        rt.handle_fault_now(svc, t).unwrap();
        assert!(!rt.kernel().is_faulty(svc));
        assert_eq!(rt.stats().faults_handled, 1);
    }

    #[test]
    fn repeated_faults_exhaust_retry_budget() {
        // A service that re-faults itself on every call.
        #[derive(Debug)]
        struct Refaulter {
            me: ComponentId,
        }
        impl composite::Service for Refaulter {
            fn interface(&self) -> &'static str {
                "refaulter"
            }
            fn call(
                &mut self,
                ctx: &mut composite::ServiceCtx<'_>,
                _f: &str,
                _a: &[Value],
            ) -> Result<Value, ServiceError> {
                ctx.raise_fault(self.me);
                Ok(Value::Unit)
            }
            fn reset(&mut self) {}
        }
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let svc = k.add_component("refaulter", Box::new(Refaulter { me: ComponentId(2) }));
        let t = k.create_thread(app, Priority(5));
        let mut rt = FtRuntime::new(k, RuntimeConfig::default());
        rt.install_stub(app, svc, Box::new(NullStub::default()));
        let err = rt.interface_call(app, t, svc, "x", &[]).unwrap_err();
        assert!(matches!(err, CallError::Fault { .. }));
        assert!(rt.stats().unrecovered >= 1);
    }

    #[test]
    fn eager_policy_recovers_all_edges_on_handle() {
        let mut k = Kernel::with_costs(CostModel::free());
        let app1 = k.add_client_component("a1");
        let app2 = k.add_client_component("a2");
        let svc = k.add_component("counter", Box::new(Counter::default()));
        let t = k.create_thread(app1, Priority(5));
        let mut rt = FtRuntime::new(
            k,
            RuntimeConfig {
                policy: RecoveryPolicy::Eager,
                ..RuntimeConfig::default()
            },
        );
        rt.install_stub(app1, svc, Box::new(NullStub::default()));
        rt.install_stub(app2, svc, Box::new(NullStub::default()));
        rt.inject_fault(svc);
        rt.handle_fault_now(svc, t).unwrap();
        // Both edges were recovered eagerly.
        assert_eq!(rt.stub(app1, svc).unwrap().faulty_count(), 0);
        assert_eq!(rt.stub(app2, svc).unwrap().faulty_count(), 0);
    }
}
