//! Full-system assembly: the simulated COMPOSITE OS in the three
//! protection variants the paper evaluates.
//!
//! | Variant | Stubs | Corresponds to |
//! |---|---|---|
//! | [`Variant::Bare`] | none | base COMPOSITE (a fault crashes clients) |
//! | [`Variant::C3`] | hand-written ([`sg_c3::stubs`]) | COMPOSITE + C³ |
//! | [`Variant::SuperGlue`] | compiler-generated ([`crate::CompiledStub`]) | COMPOSITE + SuperGlue |

use composite::{ComponentId, CostModel, Kernel, Priority, ThreadId};
use sg_c3::stubs::{C3EvtStub, C3FsStub, C3LockStub, C3MmStub, C3SchedStub, C3TmrStub};
use sg_c3::{FtRuntime, RecoveryPolicy, RuntimeConfig};
use sg_services::cbuf::CbufService;
use sg_services::event::EventService;
use sg_services::lock::LockService;
use sg_services::mm::MemoryManager;
use sg_services::ramfs::RamFs;
use sg_services::scheduler::Scheduler;
use sg_services::storage::StorageService;
use sg_services::timer::TimerService;
use superglue_idl::IdlError;

use crate::sources::{compile_all, compile_all_elided};
use crate::stub::CompiledStub;

/// Which fault-tolerance layer protects the system services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No stubs: the base COMPOSITE comparator.
    Bare,
    /// Hand-written C³ stubs.
    C3,
    /// SuperGlue compiler-generated stubs.
    SuperGlue,
}

impl Variant {
    /// The lower-case label artifacts carry: `bare`, `c3` or
    /// `superglue`.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Variant::Bare => "bare",
            Variant::C3 => "c3",
            Variant::SuperGlue => "superglue",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Variant::Bare => "COMPOSITE",
            Variant::C3 => "COMPOSITE+C3",
            Variant::SuperGlue => "COMPOSITE+SuperGlue",
        })
    }
}

/// Component ids of the assembled system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemIds {
    /// First application/client component.
    pub app1: ComponentId,
    /// Second application/client component (cross-component workloads).
    pub app2: ComponentId,
    /// Scheduler service.
    pub sched: ComponentId,
    /// Memory manager service.
    pub mm: ComponentId,
    /// RAM filesystem service.
    pub fs: ComponentId,
    /// Lock service.
    pub lock: ComponentId,
    /// Event manager service.
    pub evt: ComponentId,
    /// Timer manager service.
    pub tmr: ComponentId,
    /// Storage component (unprotected infrastructure).
    pub storage: ComponentId,
    /// Zero-copy buffer component (unprotected infrastructure).
    pub cbuf: ComponentId,
}

impl SystemIds {
    /// The six fault-injection targets in the paper's Table II row order.
    #[must_use]
    pub fn targets(&self) -> [(&'static str, ComponentId); 6] {
        [
            ("Sched", self.sched),
            ("MM", self.mm),
            ("FS", self.fs),
            ("Lock", self.lock),
            ("Event", self.evt),
            ("Timer", self.tmr),
        ]
    }
}

/// A fully assembled system: runtime + component ids.
#[derive(Debug)]
pub struct Testbed {
    /// The fault-tolerant runtime (kernel + stubs).
    pub runtime: FtRuntime,
    /// Component ids.
    pub ids: SystemIds,
    /// Which variant was built.
    pub variant: Variant,
}

impl Testbed {
    /// Build the full system with the paper-calibrated cost model and
    /// the on-demand recovery policy.
    ///
    /// # Errors
    ///
    /// [`IdlError`] if the shipped IDL fails to compile (SuperGlue
    /// variant only).
    pub fn build(variant: Variant) -> Result<Self, IdlError> {
        Self::build_elided(variant, false)
    }

    /// Build with explicit cost model and recovery policy.
    ///
    /// # Errors
    ///
    /// [`IdlError`] if the shipped IDL fails to compile (SuperGlue
    /// variant only).
    pub fn build_with(
        variant: Variant,
        costs: CostModel,
        policy: RecoveryPolicy,
    ) -> Result<Self, IdlError> {
        Self::assemble(variant, costs, policy, false)
    }

    /// [`Testbed::build`] with certified tracking elision toggled: when
    /// `elide` is true the SuperGlue variant interprets
    /// [`crate::sources::compile_all_elided`] stub specs (σ-constant
    /// fast paths, dead-store suppression). Recovery behavior and
    /// traces are byte-identical either way — only dead bookkeeping is
    /// skipped. The toggle is a no-op for `Bare` and `C3`.
    ///
    /// # Errors
    ///
    /// [`IdlError`] if the shipped IDL fails to compile or an
    /// `sm_elide` request cannot be proven (SuperGlue variant only).
    pub fn build_elided(variant: Variant, elide: bool) -> Result<Self, IdlError> {
        Self::assemble(
            variant,
            CostModel::paper_defaults(),
            RecoveryPolicy::OnDemand,
            elide,
        )
    }

    /// The one constructor behind the public builds. SuperGlue stubs
    /// share the process-wide compiled specs, so no build after the
    /// process's first does IDL work or copies a spec.
    fn assemble(
        variant: Variant,
        costs: CostModel,
        policy: RecoveryPolicy,
        elide: bool,
    ) -> Result<Self, IdlError> {
        let mut k = Kernel::with_costs(costs);
        let app1 = k.add_client_component("app1");
        let app2 = k.add_client_component("app2");
        let storage = k.add_component("storage", Box::new(StorageService::new()));
        let cbuf = k.add_component("cbuf", Box::new(CbufService::new()));
        let sched = k.add_component("sched", Box::new(Scheduler::new()));
        let mm = k.add_component("mm", Box::new(MemoryManager::new()));
        let fs = k.add_component("fs", Box::new(RamFs::new(storage, cbuf)));
        let lock = k.add_component("lock", Box::new(LockService::new()));
        let evt = k.add_component("evt", Box::new(EventService::new()));
        let tmr = k.add_component("tmr", Box::new(TimerService::new()));
        // RamFS persists through storage + cbuf (G1).
        k.grant(fs, storage);
        k.grant(fs, cbuf);

        let ids = SystemIds {
            app1,
            app2,
            sched,
            mm,
            fs,
            lock,
            evt,
            tmr,
            storage,
            cbuf,
        };
        let config = RuntimeConfig {
            policy,
            storage: Some(storage),
            max_retries: 3,
            ..RuntimeConfig::default()
        };
        let mut runtime = FtRuntime::new(k, config);

        let services = [sched, mm, fs, lock, evt, tmr];
        match variant {
            Variant::Bare => {
                for app in [app1, app2] {
                    for svc in services {
                        runtime.kernel_mut_pub().grant(app, svc);
                    }
                }
            }
            Variant::C3 => {
                for app in [app1, app2] {
                    runtime.install_stub(app, sched, Box::new(C3SchedStub::new()));
                    runtime.install_stub(app, mm, Box::new(C3MmStub::new()));
                    runtime.install_stub(app, fs, Box::new(C3FsStub::new()));
                    runtime.install_stub(app, lock, Box::new(C3LockStub::new()));
                    runtime.install_stub(app, evt, Box::new(C3EvtStub::new()));
                    runtime.install_stub(app, tmr, Box::new(C3TmrStub::new()));
                }
            }
            Variant::SuperGlue => {
                let compiled = if elide {
                    compile_all_elided()?
                } else {
                    compile_all()?
                };
                for app in [app1, app2] {
                    for (iface, svc) in [
                        ("sched", sched),
                        ("mm", mm),
                        ("fs", fs),
                        ("lock", lock),
                        ("evt", evt),
                        ("tmr", tmr),
                    ] {
                        let spec = std::sync::Arc::clone(&compiled[iface].stub_spec);
                        runtime.install_stub(app, svc, Box::new(CompiledStub::new(spec)));
                    }
                }
            }
        }
        Ok(Self {
            runtime,
            ids,
            variant,
        })
    }

    /// Spawn a runnable thread homed in `home`.
    pub fn spawn_thread(&mut self, home: ComponentId, priority: Priority) -> ThreadId {
        self.runtime.kernel_mut_pub().create_thread(home, priority)
    }

    /// Sum of descriptors tracked across every installed stub.
    #[must_use]
    pub fn total_tracked(&self) -> usize {
        let mut n = 0;
        for app in [self.ids.app1, self.ids.app2] {
            for (_, svc) in self.ids.targets() {
                if let Some(s) = self.runtime.stub(app, svc) {
                    n += s.tracked_count();
                }
            }
        }
        n
    }
}

/// Extension trait making `kernel_mut` usable from the testbed without
/// importing `KernelAccess` at every call site.
trait KernelMutExt {
    fn kernel_mut_pub(&mut self) -> &mut Kernel;
}

impl KernelMutExt for FtRuntime {
    fn kernel_mut_pub(&mut self) -> &mut Kernel {
        use composite::KernelAccess as _;
        self.kernel_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{Executor, InterfaceCall as _, KernelAccess as _, Mechanism, RunExit, Value};
    use sg_services::api::ClientEnd;
    use sg_services::workloads::{
        shared_desc, EventTrigger, EventWaiter, FsOpenWriteRead, LockContender, LockOwner,
        MmGrantAliasRevoke, SchedPingPong, TimerPeriodic,
    };

    /// Firings of `m` across every component, from the kernel counters.
    fn fired(tb: &Testbed, m: Mechanism) -> u64 {
        let counters = tb.runtime.kernel().counters();
        counters.total(|r| r.mechanisms[m.index()])
    }

    fn attach_all(tb: &mut Testbed, ex: &mut Executor<FtRuntime>, rounds: u32) -> Vec<ThreadId> {
        let ids = tb.ids;
        let mut threads = Vec::new();
        // Sched ping-pong.
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
        // Lock owner/contender.
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
        // Event waiter/trigger across components.
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
        // Timer.
        let t7 = tb.spawn_thread(ids.app1, Priority(5));
        ex.attach(
            t7,
            Box::new(TimerPeriodic::new(
                ClientEnd::new(ids.app1, t7, ids.tmr),
                1_000_000,
                rounds,
            )),
        );
        // MM.
        let t8 = tb.spawn_thread(ids.app1, Priority(5));
        ex.attach(
            t8,
            Box::new(MmGrantAliasRevoke::new(
                ClientEnd::new(ids.app1, t8, ids.mm),
                ids.app2,
                rounds,
            )),
        );
        // FS.
        let t9 = tb.spawn_thread(ids.app1, Priority(5));
        ex.attach(
            t9,
            Box::new(FsOpenWriteRead::new(
                ClientEnd::new(ids.app1, t9, ids.fs),
                rounds,
            )),
        );
        threads.extend([t1, t2, t3, t4, t5, t6, t7, t8, t9]);
        threads
    }

    #[test]
    fn bare_variant_crashes_on_fault() {
        let mut tb = Testbed::build(Variant::Bare).unwrap();
        let mut ex: Executor<FtRuntime> = Executor::new();
        let threads = attach_all(&mut tb, &mut ex, 30);
        ex.run(&mut tb.runtime, 50);
        tb.runtime.inject_fault(tb.ids.fs);
        tb.runtime.inject_fault(tb.ids.lock);
        ex.run(&mut tb.runtime, 100_000);
        let crashed = threads
            .iter()
            .filter(|&&t| {
                tb.runtime.kernel().thread(t).unwrap().state == composite::ThreadState::Crashed
            })
            .count();
        assert!(crashed > 0, "bare COMPOSITE must lose workloads to faults");
    }

    #[test]
    fn all_workloads_complete_without_faults_under_superglue() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let mut ex: Executor<FtRuntime> = Executor::new();
        attach_all(&mut tb, &mut ex, 8);
        assert_eq!(ex.run(&mut tb.runtime, 1_000_000), RunExit::AllDone);
        assert_eq!(tb.runtime.stats().faults_handled, 0);
    }

    #[test]
    fn all_workloads_survive_faults_in_every_service_under_superglue() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let mut ex: Executor<FtRuntime> = Executor::new();
        attach_all(&mut tb, &mut ex, 25);
        let targets = tb.ids.targets();
        for (_, svc) in targets {
            ex.run(&mut tb.runtime, 120);
            tb.runtime.inject_fault(svc);
        }
        assert_eq!(ex.run(&mut tb.runtime, 2_000_000), RunExit::AllDone);
        assert_eq!(
            tb.runtime.stats().unrecovered,
            0,
            "{:#?}",
            tb.runtime.stats()
        );
        assert!(tb.runtime.stats().faults_handled >= 1);
    }

    #[test]
    fn all_workloads_survive_faults_under_c3() {
        let mut tb = Testbed::build(Variant::C3).unwrap();
        let mut ex: Executor<FtRuntime> = Executor::new();
        attach_all(&mut tb, &mut ex, 25);
        let targets = tb.ids.targets();
        for (_, svc) in targets {
            ex.run(&mut tb.runtime, 120);
            tb.runtime.inject_fault(svc);
        }
        assert_eq!(ex.run(&mut tb.runtime, 2_000_000), RunExit::AllDone);
        assert_eq!(tb.runtime.stats().unrecovered, 0);
    }

    #[test]
    fn superglue_lock_descriptor_survives_reboot() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let t = tb.spawn_thread(tb.ids.app1, Priority(5));
        let (app, lock) = (tb.ids.app1, tb.ids.lock);
        let id = tb
            .runtime
            .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
            .unwrap()
            .int()
            .unwrap();
        tb.runtime
            .interface_call(app, t, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        tb.runtime.inject_fault(lock);
        // Release after the fault: recovery replays alloc+take (same
        // thread), then the release goes through.
        tb.runtime
            .interface_call(
                app,
                t,
                lock,
                "lock_release",
                &[Value::Int(1), Value::Int(id)],
            )
            .unwrap();
        assert_eq!(tb.runtime.stats().faults_handled, 1);
        assert!(fired(&tb, Mechanism::R0) >= 1);
    }

    #[test]
    fn superglue_event_keeps_global_id_across_recovery() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let t1 = tb.spawn_thread(tb.ids.app1, Priority(5));
        let t2 = tb.spawn_thread(tb.ids.app2, Priority(5));
        let (a1, a2, evt) = (tb.ids.app1, tb.ids.app2, tb.ids.evt);
        let id = tb
            .runtime
            .interface_call(
                a1,
                t1,
                evt,
                "evt_split",
                &[Value::from(a1.0), Value::Int(0), Value::Int(7)],
            )
            .unwrap()
            .int()
            .unwrap();
        tb.runtime.inject_fault(evt);
        // The foreign client triggers: G0 lookup + U0 upcall restore the
        // event under its original id.
        tb.runtime
            .interface_call(
                a2,
                t2,
                evt,
                "evt_trigger",
                &[Value::from(a2.0), Value::Int(id)],
            )
            .unwrap();
        assert!(fired(&tb, Mechanism::U0) >= 1);
        let got = tb
            .runtime
            .interface_call(
                a1,
                t1,
                evt,
                "evt_wait",
                &[Value::from(a1.0), Value::Int(id)],
            )
            .unwrap();
        assert_eq!(got, Value::Int(id));
    }

    #[test]
    fn superglue_fs_offset_restored_from_accumulated_retvals() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let t = tb.spawn_thread(tb.ids.app1, Priority(5));
        let (app, fs) = (tb.ids.app1, tb.ids.fs);
        let fd = tb
            .runtime
            .interface_call(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("f.bin")],
            )
            .unwrap()
            .int()
            .unwrap();
        tb.runtime
            .interface_call(
                app,
                t,
                fs,
                "twrite",
                &[Value::Int(1), Value::Int(fd), Value::from(vec![1, 2, 3])],
            )
            .unwrap();
        tb.runtime.inject_fault(fs);
        // Recovery replays tsplit + tseek(offset=3 from accumulated
        // twrite return values); the read at the restored offset sees
        // EOF.
        let r = tb
            .runtime
            .interface_call(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![]));
        // And the persisted data survives (G1): rewind and read.
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
                &[Value::Int(1), Value::Int(fd), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![1, 2, 3]));
    }

    #[test]
    fn superglue_mm_alias_recovery_crosses_edges() {
        let mut tb = Testbed::build(Variant::SuperGlue).unwrap();
        let t1 = tb.spawn_thread(tb.ids.app1, Priority(5));
        let t2 = tb.spawn_thread(tb.ids.app2, Priority(5));
        let (a1, a2, mm) = (tb.ids.app1, tb.ids.app2, tb.ids.mm);
        // app1 creates a root mapping; app2 aliases from it.
        let root = tb
            .runtime
            .interface_call(
                a1,
                t1,
                mm,
                "mman_get_page",
                &[Value::from(a1.0), Value::Int(0x1000)],
            )
            .unwrap()
            .int()
            .unwrap();
        tb.runtime
            .interface_call(
                a2,
                t2,
                mm,
                "mman_alias_page",
                &[
                    Value::from(a2.0),
                    Value::Int(root),
                    Value::from(a2.0),
                    Value::Int(0x9000),
                ],
            )
            .unwrap();
        tb.runtime.inject_fault(mm);
        // app2 creates another alias: the parent (owned by app1's edge)
        // is recovered through a storage lookup + upcall.
        tb.runtime
            .interface_call(
                a2,
                t2,
                mm,
                "mman_alias_page",
                &[
                    Value::from(a2.0),
                    Value::Int(root),
                    Value::from(a2.0),
                    Value::Int(0xa000),
                ],
            )
            .unwrap();
        assert!(fired(&tb, Mechanism::U0) >= 1);
        assert_eq!(
            tb.runtime.kernel().pages().translate(a1, 0x1000),
            tb.runtime.kernel().pages().translate(a2, 0xa000)
        );
    }

    #[test]
    fn variant_display_names() {
        assert_eq!(Variant::Bare.to_string(), "COMPOSITE");
        assert_eq!(Variant::C3.to_string(), "COMPOSITE+C3");
        assert_eq!(Variant::SuperGlue.to_string(), "COMPOSITE+SuperGlue");
    }
}
