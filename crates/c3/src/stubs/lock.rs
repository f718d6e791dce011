//! Hand-written C³ stub for the `lock` interface.
//!
//! Tracks each lock's expected state with an explicit three-state enum
//! and replays `lock_alloc` (+ `lock_take` when the recovering thread is
//! the holder) after a server micro-reboot. A lock held by a *different*
//! thread cannot be re-taken on the recovering thread's behalf — the
//! retake is deferred until the holder next touches the descriptor
//! (thread-affine completion).

use std::collections::BTreeMap;

use composite::{CallError, ServiceError, ThreadId, Value};

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
enum LockState {
    /// Allocated, not held.
    Available,
    /// Held by `state_thread`.
    Taken,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct LockDesc {
    /// Current id at the server (changes across recoveries).
    server_id: i64,
    state: LockState,
    /// The thread whose call produced the current state.
    state_thread: Option<ThreadId>,
    faulty: bool,
    /// The holder must replay `lock_take` before its next operation.
    pending_retake: bool,
}

/// Hand-written C³ client stub for the lock service.
#[derive(Debug, Default)]
pub struct C3LockStub {
    descs: BTreeMap<i64, LockDesc>,
}

impl C3LockStub {
    /// An empty stub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrite the descriptor argument (position 1) to the current
    /// server id.
    fn rewrite_args(&self, desc: i64, args: &[Value]) -> Vec<Value> {
        let mut out = args.to_vec();
        if let Some(d) = self.descs.get(&desc) {
            out[1] = Value::Int(d.server_id);
        }
        out
    }

    fn complete_pending(&mut self, env: &mut StubEnv<'_>, desc: i64) -> Result<(), CallError> {
        let Some(d) = self.descs.get(&desc) else {
            return Ok(());
        };
        if !d.pending_retake || d.state_thread != Some(env.thread) {
            return Ok(());
        }
        let server_id = d.server_id;
        let compid = Value::from(env.client.0);
        env.replay("lock_take", &[compid, Value::Int(server_id)])?;
        self.descs
            .get_mut(&desc)
            .expect("checked above")
            .pending_retake = false;
        env.note_descriptor_recovered();
        Ok(())
    }
}

impl InterfaceStub for C3LockStub {
    fn interface(&self) -> &'static str {
        "lock"
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        // lock_alloc creates; everything else acts on args[1].
        if fname == "lock_alloc" {
            loop {
                match env.invoke(fname, args) {
                    Ok(v) => {
                        let id = v.int().map_err(|e| CallError::Service(e.into()))?;
                        self.descs.insert(
                            id,
                            LockDesc {
                                server_id: id,
                                state: LockState::Available,
                                state_thread: Some(env.thread),
                                faulty: false,
                                pending_retake: false,
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
            // Untracked descriptor: pass through (and surface errors raw).
            passthrough!(self, env, fname, args);
        }

        loop {
            if self.descs.get(&desc).is_some_and(|d| d.faulty) {
                self.recover_descriptor(env, desc)?;
            }
            self.complete_pending(env, desc)?;
            let real_args = self.rewrite_args(desc, args);
            match env.invoke(fname, &real_args) {
                Ok(v) => {
                    let d = self.descs.get_mut(&desc).expect("tracked above");
                    match fname {
                        "lock_take" => {
                            d.state = LockState::Taken;
                            d.state_thread = Some(env.thread);
                        }
                        "lock_release" => {
                            d.state = LockState::Available;
                            d.state_thread = Some(env.thread);
                        }
                        "lock_free" => {
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
                    // loop: recover + redo
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
        let (state, state_thread) = (d.state, d.state_thread);
        let compid = Value::from(env.client.0);

        // Replay the creation to obtain a fresh server id.
        let v = env.replay("lock_alloc", std::slice::from_ref(&compid))?;
        let new_id = v.int().map_err(|e| CallError::Service(e.into()))?;

        let d = self.descs.get_mut(&desc).expect("still tracked");
        d.server_id = new_id;
        d.faulty = false;
        match state {
            LockState::Available => {}
            LockState::Taken => {
                if state_thread == Some(env.thread) {
                    env.replay("lock_take", &[compid, Value::Int(new_id)])?;
                } else {
                    // Thread-affine: restore the hold for the *recorded*
                    // owner so the recovering thread cannot usurp it.
                    let owner = state_thread.map_or(0, |t| i64::from(t.0));
                    env.replay(
                        "lock_restore",
                        &[compid, Value::Int(new_id), Value::Int(owner)],
                    )?;
                    env.note_deferred_completion();
                }
            }
        }
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

/// Surface NotFound-style errors for callers needing them (kept for
/// parity with the generated stubs' error taxonomy).
#[must_use]
pub fn is_not_found(e: &CallError) -> bool {
    matches!(e, CallError::Service(ServiceError::NotFound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{ComponentId, CostModel, Kernel, Mechanism, Priority};
    use sg_services::lock::LockService;

    use crate::runtime::{FtRuntime, RuntimeConfig};
    use composite::InterfaceCall as _;

    fn setup() -> (FtRuntime, ComponentId, ComponentId, ThreadId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let lock = k.add_component("lock", Box::new(LockService::new()));
        let t1 = k.create_thread(app, Priority(5));
        let t2 = k.create_thread(app, Priority(5));
        let mut rt = FtRuntime::new(k, RuntimeConfig::default());
        rt.install_stub(app, lock, Box::new(C3LockStub::new()));
        (rt, app, lock, t1, t2)
    }

    fn alloc(rt: &mut FtRuntime, app: ComponentId, lock: ComponentId, t: ThreadId) -> i64 {
        rt.interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
            .unwrap()
            .int()
            .unwrap()
    }

    #[test]
    fn tracks_descriptors_through_lifecycle() {
        let (mut rt, app, lock, t1, _) = setup();
        let id = alloc(&mut rt, app, lock, t1);
        assert_eq!(rt.stub(app, lock).unwrap().tracked_count(), 1);
        rt.interface_call(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        rt.interface_call(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
        rt.interface_call(app, t1, lock, "lock_free", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        assert_eq!(rt.stub(app, lock).unwrap().tracked_count(), 0);
    }

    #[test]
    fn available_lock_recovers_transparently() {
        let (mut rt, app, lock, t1, _) = setup();
        let id = alloc(&mut rt, app, lock, t1);
        rt.inject_fault(lock);
        // The take triggers fault handling + recovery + redo.
        rt.interface_call(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        assert_eq!(rt.stats().faults_handled, 1);
        assert!(crate::stubs::fired(&rt, Mechanism::R0) >= 1);
    }

    #[test]
    fn taken_lock_recovers_for_the_holder() {
        let (mut rt, app, lock, t1, _) = setup();
        let id = alloc(&mut rt, app, lock, t1);
        rt.interface_call(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        rt.inject_fault(lock);
        // The holder's release triggers recovery: replay alloc + take,
        // then redo release.
        rt.interface_call(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
        assert_eq!(rt.stats().faults_handled, 1);
    }

    #[test]
    fn taken_lock_defers_retake_for_other_threads() {
        let (mut rt, app, lock, t1, t2) = setup();
        let id = alloc(&mut rt, app, lock, t1);
        rt.interface_call(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        rt.inject_fault(lock);
        // t2 contends: recovery replays alloc and then restores the hold
        // for t1 (the recorded owner), so t2's take blocks — exactly the
        // pre-fault expectation.
        let err = rt
            .interface_call(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert!(crate::stubs::fired(&rt, Mechanism::T1) >= 1);
        // The owner's release still works and wakes t2.
        rt.interface_call(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
    }

    #[test]
    fn server_ids_are_translated_after_recovery() {
        let (mut rt, app, lock, t1, _) = setup();
        let id = alloc(&mut rt, app, lock, t1);
        rt.inject_fault(lock);
        rt.interface_call(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        // The client keeps using the original id even though the server
        // allocated a fresh one during recovery.
        rt.interface_call(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
        rt.interface_call(app, t1, lock, "lock_free", &[Value::Int(1), Value::Int(id)])
            .unwrap();
    }

    #[test]
    fn untracked_descriptor_passes_through() {
        let (mut rt, app, lock, t1, _) = setup();
        let err = rt
            .interface_call(
                app,
                t1,
                lock,
                "lock_take",
                &[Value::Int(1), Value::Int(777)],
            )
            .unwrap_err();
        assert!(is_not_found(&err));
    }
}
