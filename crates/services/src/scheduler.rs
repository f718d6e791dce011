//! The scheduler component (`sched` interface).
//!
//! Exposes blocking/wakeup of threads, the service the paper's **Sched**
//! workload ping-pongs on (§V-B: "Two threads perform a ping-pong,
//! blocking and waking each other in turn using `sched_blk` and
//! `sched_wakeup`").
//!
//! Interface (the descriptor is a *scheduler thread record*, keyed by the
//! kernel thread id it describes):
//!
//! | function | role | effect |
//! |---|---|---|
//! | `sched_setup(compid, thdid)` → desc | create | register a thread with the scheduler |
//! | `sched_blk(compid, desc)` | block | block the *calling* thread on the record |
//! | `sched_wakeup(compid, desc)` | wakeup | wake the record's thread (or pend the wakeup) |
//! | `sched_exit(compid, desc)` | terminate | deregister |
//!
//! Wakeup-before-block is remembered with a pending flag, the standard
//! race-free semantic. On a fault, the records are lost; client stubs
//! replay `sched_setup` (and `sched_blk` for threads expected blocked),
//! and [`Scheduler::post_reboot`] reflects on the kernel to re-learn
//! which threads are physically blocked inside the scheduler (§II-F).

use std::collections::BTreeMap;

use composite::{Service, ServiceCtx, ServiceError, ThreadId, Value};

/// One scheduler record (the resource behind a `sched` descriptor).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ThdRecord {
    /// The kernel thread this record describes.
    thread: ThreadId,
    /// Whether the thread blocked via `sched_blk` and has not been woken.
    blocked: bool,
    /// A wakeup arrived while the thread was not blocked; the next
    /// `sched_blk` consumes it without blocking.
    pending_wakeup: bool,
}

/// The scheduler service component.
#[derive(Debug, Default)]
pub struct Scheduler {
    records: BTreeMap<i64, ThdRecord>,
}

impl Scheduler {
    /// A fresh scheduler with no registered threads.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Service for Scheduler {
    fn interface(&self) -> &'static str {
        "sched"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // sched_setup(compid, thdid) -> desc (the thdid itself)
            "sched_setup" => {
                let _compid = args[0].int()?;
                let thdid = args[1].int()?;
                // Replay-idempotent: re-creating an existing record keeps
                // its (kernel-reflected) block state.
                self.records.entry(thdid).or_insert(ThdRecord {
                    thread: ThreadId(thdid as u32),
                    blocked: false,
                    pending_wakeup: false,
                });
                Ok(Value::Int(thdid))
            }
            // sched_blk(compid, desc(thdid)) — blocks the calling thread
            "sched_blk" => {
                let thdid = args[1].int()?;
                let rec = self.records.get_mut(&thdid).ok_or(ServiceError::NotFound)?;
                if rec.thread != ctx.thread {
                    // Only a thread may block itself.
                    return Err(ServiceError::InvalidArg);
                }
                if rec.pending_wakeup {
                    rec.pending_wakeup = false;
                    rec.blocked = false;
                    return Ok(Value::Int(0));
                }
                rec.blocked = true;
                Err(ctx.block_current())
            }
            // sched_wakeup(compid, desc(thdid))
            "sched_wakeup" => {
                let thdid = args[1].int()?;
                let rec = self.records.get_mut(&thdid).ok_or(ServiceError::NotFound)?;
                // Always pend the wakeup: the woken thread *retries* its
                // sched_blk invocation, which consumes the pending flag
                // and returns without re-blocking.
                rec.pending_wakeup = true;
                if rec.blocked {
                    rec.blocked = false;
                    ctx.wake(rec.thread).map_err(|_| ServiceError::InvalidArg)?;
                }
                Ok(Value::Int(0))
            }
            // sched_exit(compid, desc(thdid))
            "sched_exit" => {
                let thdid = args[1].int()?;
                self.records.remove(&thdid).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        self.records.clear();
    }

    fn post_reboot(&mut self, ctx: &mut ServiceCtx<'_>) {
        // Kernel reflection (§II-F): re-learn which threads are blocked
        // inside this component so a replayed sched_setup yields a record
        // consistent with physical thread state. The records themselves
        // are rebuilt by client stubs on demand.
        for t in ctx.threads_blocked_in(ctx.this) {
            self.records.insert(
                i64::from(t.0),
                ThdRecord {
                    thread: t,
                    blocked: true,
                    pending_wakeup: false,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, ComponentId, CostModel, Kernel, Priority, ThreadState};

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let sched = k.add_component("sched", Box::new(Scheduler::new()));
        k.grant(app, sched);
        let t1 = k.create_thread(app, Priority(5));
        let t2 = k.create_thread(app, Priority(5));
        (k, app, sched, t1, t2)
    }

    fn setup_thread(k: &mut Kernel, app: ComponentId, sched: ComponentId, t: ThreadId) {
        k.invoke(
            app,
            t,
            sched,
            "sched_setup",
            &[Value::Int(1), Value::Int(i64::from(t.0))],
        )
        .unwrap();
    }

    #[test]
    fn setup_returns_descriptor() {
        let (mut k, app, sched, t1, _) = setup();
        let r = k
            .invoke(
                app,
                t1,
                sched,
                "sched_setup",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap();
        assert_eq!(r, Value::Int(i64::from(t1.0)));
    }

    #[test]
    fn block_then_wakeup() {
        let (mut k, app, sched, t1, t2) = setup();
        setup_thread(&mut k, app, sched, t1);
        setup_thread(&mut k, app, sched, t2);
        let err = k
            .invoke(
                app,
                t1,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert!(matches!(
            k.thread(t1).unwrap().state,
            ThreadState::Blocked { .. }
        ));

        k.invoke(
            app,
            t2,
            sched,
            "sched_wakeup",
            &[Value::Int(1), Value::Int(i64::from(t1.0))],
        )
        .unwrap();
        assert!(k.thread(t1).unwrap().state.is_runnable());
        // The retried sched_blk sees... no pending wakeup, so it blocks
        // again only if called again; here we emulate the woken thread
        // proceeding without re-calling.
    }

    #[test]
    fn wakeup_before_block_pends() {
        let (mut k, app, sched, t1, t2) = setup();
        setup_thread(&mut k, app, sched, t1);
        k.invoke(
            app,
            t2,
            sched,
            "sched_wakeup",
            &[Value::Int(1), Value::Int(i64::from(t1.0))],
        )
        .unwrap();
        // The pending wakeup makes the next blk a no-op.
        let r = k
            .invoke(
                app,
                t1,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap();
        assert_eq!(r, Value::Int(0));
        assert!(k.thread(t1).unwrap().state.is_runnable());
    }

    #[test]
    fn blk_on_unknown_descriptor_not_found() {
        let (mut k, app, sched, t1, _) = setup();
        let err = k
            .invoke(
                app,
                t1,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::Int(42)],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn cannot_block_another_thread() {
        let (mut k, app, sched, t1, t2) = setup();
        setup_thread(&mut k, app, sched, t1);
        let err = k
            .invoke(
                app,
                t2,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn exit_removes_record() {
        let (mut k, app, sched, t1, _) = setup();
        setup_thread(&mut k, app, sched, t1);
        k.invoke(
            app,
            t1,
            sched,
            "sched_exit",
            &[Value::Int(1), Value::Int(i64::from(t1.0))],
        )
        .unwrap();
        let err = k
            .invoke(
                app,
                t1,
                sched,
                "sched_blk",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn reset_clears_records_and_post_reboot_reflects() {
        let (mut k, app, sched, t1, _t2) = setup();
        setup_thread(&mut k, app, sched, t1);
        let _ = k.invoke(
            app,
            t1,
            sched,
            "sched_blk",
            &[Value::Int(1), Value::Int(i64::from(t1.0))],
        );
        // Fault wakes t1 (kernel behavior); reboot reflects on kernel
        // state — t1 is no longer physically blocked, so no record is
        // recreated and the client stub must rebuild it.
        k.fault(sched);
        k.micro_reboot(sched).unwrap();
        let err = k
            .invoke(
                app,
                t1,
                sched,
                "sched_wakeup",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn setup_is_replay_idempotent() {
        let (mut k, app, sched, t1, _) = setup();
        setup_thread(&mut k, app, sched, t1);
        setup_thread(&mut k, app, sched, t1);
        // Still exactly one record: exit succeeds once, then NotFound.
        k.invoke(
            app,
            t1,
            sched,
            "sched_exit",
            &[Value::Int(1), Value::Int(i64::from(t1.0))],
        )
        .unwrap();
        let err = k
            .invoke(
                app,
                t1,
                sched,
                "sched_exit",
                &[Value::Int(1), Value::Int(i64::from(t1.0))],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }
}
