//! Hand-written C³ stub for the `sched` interface.
//!
//! The scheduler's descriptors are thread records keyed by kernel thread
//! id, so recovered descriptors keep their ids (no translation). The
//! replay is `sched_setup` only: a thread's *blocked-ness* is
//! re-established by its own retried `sched_blk` (the paper's "re-blocks
//! the thread to match the client's expectations"), and wakeups that were
//! pending at fault time are conservatively re-pended so no wakeup is
//! ever lost across a micro-reboot.

use std::collections::BTreeMap;

use composite::{CallError, Value};

use crate::env::StubEnv;
use crate::stub::{is_server_fault, InterfaceStub};

/// Pass-through invocation that still honors the fault exception: the
/// server is micro-rebooted (and this stub's descriptors marked faulty)
/// before the call is redone, so untracked-descriptor calls observe
/// post-reboot semantics (e.g. NotFound) rather than the raw fault.
macro_rules! passthrough {
    ($self:ident, $env:ident, $fname:ident, $args:ident) => {
        loop {
            match $env.invoke($fname, $args) {
                Err(e) if is_server_fault(&e, $env.server) => {
                    $env.ensure_rebooted()?;
                    $self.mark_faulty();
                }
                other => return other,
            }
        }
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedState {
    /// Registered; last observed running.
    Ready,
    /// A wakeup was sent and may not have been consumed yet.
    WakeupPending,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedDesc {
    state: SchedState,
    faulty: bool,
}

/// Hand-written C³ client stub for the scheduler.
#[derive(Debug, Default)]
pub struct C3SchedStub {
    descs: BTreeMap<i64, SchedDesc>,
}

impl C3SchedStub {
    /// An empty stub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl InterfaceStub for C3SchedStub {
    fn interface(&self) -> &'static str {
        "sched"
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        if fname == "sched_setup" {
            loop {
                match env.invoke(fname, args) {
                    Ok(v) => {
                        let id = v.int().map_err(|e| CallError::Service(e.into()))?;
                        self.descs.insert(
                            id,
                            SchedDesc {
                                state: SchedState::Ready,
                                faulty: false,
                            },
                        );
                        return Ok(v);
                    }
                    Err(e) if is_server_fault(&e, env.server) => {
                        env.ensure_rebooted()?;
                        self.mark_faulty();
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        let desc = args.get(1).and_then(|v| v.int().ok()).unwrap_or(-1);
        if !self.descs.contains_key(&desc) {
            passthrough!(self, env, fname, args);
        }

        loop {
            if self.descs.get(&desc).is_some_and(|d| d.faulty) {
                self.recover_descriptor(env, desc)?;
            }
            match env.invoke(fname, args) {
                Ok(v) => {
                    let d = self.descs.get_mut(&desc).expect("tracked above");
                    match fname {
                        "sched_blk" => d.state = SchedState::Ready,
                        "sched_wakeup" => d.state = SchedState::WakeupPending,
                        "sched_exit" => {
                            self.descs.remove(&desc);
                            env.note_teardown(1);
                        }
                        _ => {}
                    }
                    return Ok(v);
                }
                Err(CallError::WouldBlock) => return Err(CallError::WouldBlock),
                Err(e) if is_server_fault(&e, env.server) => {
                    env.ensure_rebooted()?;
                    self.mark_faulty();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc: i64) -> Result<(), CallError> {
        let Some(d) = self.descs.get(&desc) else {
            return Ok(());
        };
        if !d.faulty {
            return Ok(());
        }
        let state = d.state;
        let compid = Value::from(env.client.0);
        // Replay the registration (ids are stable: the thread id).
        env.replay("sched_setup", &[compid.clone(), Value::Int(desc)])?;
        // Re-pend a possibly unconsumed wakeup so it is not lost across
        // the reboot; a spurious extra wakeup only costs one non-blocking
        // sched_blk.
        if state == SchedState::WakeupPending {
            env.replay("sched_wakeup", &[compid, Value::Int(desc)])?;
        }
        let d = self.descs.get_mut(&desc).expect("still tracked");
        d.faulty = false;
        env.note_descriptor_recovered();
        Ok(())
    }

    fn mark_faulty(&mut self) {
        for d in self.descs.values_mut() {
            d.faulty = true;
        }
    }

    fn recover_all(&mut self, env: &mut StubEnv<'_>) -> Result<(), CallError> {
        let ids: Vec<i64> = self
            .descs
            .iter()
            .filter(|(_, d)| d.faulty)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            match self.recover_descriptor(env, id) {
                Ok(()) => {}
                // Freed elsewhere before the fault: drop the stale record.
                Err(CallError::Service(composite::ServiceError::NotFound)) => {
                    self.descs.remove(&id);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn tracked_count(&self) -> usize {
        self.descs.len()
    }

    fn faulty_count(&self) -> usize {
        self.descs.values().filter(|d| d.faulty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{
        ComponentId, CostModel, Executor, InterfaceCall as _, Kernel, Mechanism, Priority, RunExit,
        ThreadId,
    };
    use sg_services::api::ClientEnd;
    use sg_services::scheduler::Scheduler;
    use sg_services::workloads::SchedPingPong;

    use crate::runtime::{FtRuntime, RuntimeConfig};

    fn setup() -> (FtRuntime, ComponentId, ComponentId, ThreadId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let sched = k.add_component("sched", Box::new(Scheduler::new()));
        let t1 = k.create_thread(app, Priority(5));
        let t2 = k.create_thread(app, Priority(5));
        let mut rt = FtRuntime::new(k, RuntimeConfig::default());
        rt.install_stub(app, sched, Box::new(C3SchedStub::new()));
        (rt, app, sched, t1, t2)
    }

    #[test]
    fn setup_tracks_descriptor() {
        let (mut rt, app, sched, t1, _) = setup();
        rt.interface_call(
            app,
            t1,
            sched,
            "sched_setup",
            &[Value::Int(1), Value::from(t1.0)],
        )
        .unwrap();
        assert_eq!(rt.stub(app, sched).unwrap().tracked_count(), 1);
    }

    #[test]
    fn wakeup_recovers_descriptor_after_fault() {
        let (mut rt, app, sched, t1, _) = setup();
        rt.interface_call(
            app,
            t1,
            sched,
            "sched_setup",
            &[Value::Int(1), Value::from(t1.0)],
        )
        .unwrap();
        rt.inject_fault(sched);
        rt.interface_call(
            app,
            t1,
            sched,
            "sched_wakeup",
            &[Value::Int(1), Value::from(t1.0)],
        )
        .unwrap();
        assert_eq!(rt.stats().faults_handled, 1);
        assert!(crate::stubs::fired(&rt, Mechanism::R0) >= 1);
    }

    #[test]
    fn pending_wakeup_survives_recovery() {
        let (mut rt, app, sched, t1, _) = setup();
        rt.interface_call(
            app,
            t1,
            sched,
            "sched_setup",
            &[Value::Int(1), Value::from(t1.0)],
        )
        .unwrap();
        rt.interface_call(
            app,
            t1,
            sched,
            "sched_wakeup",
            &[Value::Int(1), Value::from(t1.0)],
        )
        .unwrap();
        rt.inject_fault(sched);
        // After recovery, the pending wakeup is re-pended, so blk does
        // not block.
        let r = rt
            .interface_call(
                app,
                t1,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::from(t1.0)],
            )
            .unwrap();
        assert_eq!(r, Value::Int(0));
    }

    #[test]
    fn ping_pong_survives_mid_run_fault() {
        let (mut rt, app, sched, t1, t2) = setup();
        let mut ex: Executor<FtRuntime> = Executor::new();
        ex.attach(
            t1,
            Box::new(SchedPingPong::new(
                ClientEnd::new(app, t1, sched),
                t2,
                20,
                true,
            )),
        );
        ex.attach(
            t2,
            Box::new(SchedPingPong::new(
                ClientEnd::new(app, t2, sched),
                t1,
                20,
                false,
            )),
        );
        // Run a bit, crash the scheduler, keep running: the workload
        // completes across the fault.
        ex.run(&mut rt, 50);
        rt.inject_fault(sched);
        assert_eq!(ex.run(&mut rt, 100_000), RunExit::AllDone);
        assert_eq!(rt.stats().faults_handled, 1);
        assert_eq!(rt.stats().unrecovered, 0);
    }

    #[test]
    fn repeated_faults_are_each_recovered() {
        let (mut rt, app, sched, t1, t2) = setup();
        let mut ex: Executor<FtRuntime> = Executor::new();
        ex.attach(
            t1,
            Box::new(SchedPingPong::new(
                ClientEnd::new(app, t1, sched),
                t2,
                30,
                true,
            )),
        );
        ex.attach(
            t2,
            Box::new(SchedPingPong::new(
                ClientEnd::new(app, t2, sched),
                t1,
                30,
                false,
            )),
        );
        for _ in 0..3 {
            ex.run(&mut rt, 40);
            rt.inject_fault(sched);
        }
        assert_eq!(ex.run(&mut rt, 100_000), RunExit::AllDone);
        assert_eq!(rt.stats().faults_handled, 3);
        assert_eq!(rt.stats().unrecovered, 0);
    }
}
