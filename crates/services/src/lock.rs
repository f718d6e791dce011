//! The lock component (`lock` interface) — §III-B's running example.
//!
//! | function | role | effect |
//! |---|---|---|
//! | `lock_alloc(compid)` → lockid | create | allocate a lock, initially available |
//! | `lock_take(compid, desc)` | block | acquire; blocks while held by another thread |
//! | `lock_release(compid, desc)` | wakeup | release; wakes all contenders (they re-contend) |
//! | `lock_free(compid, desc)` | terminate | destroy the lock |
//!
//! Contenders are woken on release and retry `lock_take`; the executor's
//! priority order decides who wins, giving deterministic priority
//! acquisition.

use std::collections::BTreeMap;

use composite::{Service, ServiceCtx, ServiceError, ThreadId, Value};

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Lock {
    owner: Option<ThreadId>,
    waiters: Vec<ThreadId>,
}

/// The lock service component.
#[derive(Debug, Default)]
pub struct LockService {
    locks: BTreeMap<i64, Lock>,
    next_id: i64,
}

impl LockService {
    /// A fresh lock service.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Service for LockService {
    fn interface(&self) -> &'static str {
        "lock"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // lock_alloc(compid) -> lockid
            "lock_alloc" => {
                let _compid = args[0].int()?;
                self.next_id += 1;
                let id = self.next_id;
                self.locks.insert(id, Lock::default());
                Ok(Value::Int(id))
            }
            // lock_take(compid, desc(lockid))
            "lock_take" => {
                let id = args[1].int()?;
                let me = ctx.thread;
                let lock = self.locks.get_mut(&id).ok_or(ServiceError::NotFound)?;
                match lock.owner {
                    None => {
                        lock.owner = Some(me);
                        lock.waiters.retain(|&w| w != me);
                        Ok(Value::Int(0))
                    }
                    Some(owner) if owner == me => {
                        // Recovery replay of a lock we already hold.
                        Ok(Value::Int(0))
                    }
                    Some(_) => {
                        if !lock.waiters.contains(&me) {
                            lock.waiters.push(me);
                        }
                        Err(ctx.block_current())
                    }
                }
            }
            // lock_release(compid, desc(lockid))
            "lock_release" => {
                let id = args[1].int()?;
                let lock = self.locks.get_mut(&id).ok_or(ServiceError::NotFound)?;
                if lock.owner != Some(ctx.thread) {
                    return Err(ServiceError::InvalidArg);
                }
                lock.owner = None;
                // Hand off: wake the first live waiter only (no
                // thundering herd); it re-contends and the next release
                // wakes the next one.
                while !lock.waiters.is_empty() {
                    let w = lock.waiters.remove(0);
                    if ctx.wake(w).is_ok() {
                        break;
                    }
                }
                Ok(Value::Int(0))
            }
            // lock_restore(compid, lockid, owner_thdid) — recovery-only:
            // re-establish a lock (under a replayed id) as held by the
            // *recorded* owner thread, so recovery driven by a different
            // thread cannot usurp the hold.
            "lock_restore" => {
                let id = args[1].int()?;
                let owner = args[2].int()?;
                let lock = self.locks.entry(id).or_default();
                lock.owner = if owner > 0 {
                    Some(ThreadId(owner as u32))
                } else {
                    None
                };
                Ok(Value::Int(id))
            }
            // lock_free(compid, desc(lockid))
            "lock_free" => {
                let id = args[1].int()?;
                let lock = self.locks.remove(&id).ok_or(ServiceError::NotFound)?;
                // Freeing a contended lock releases its waiters.
                for w in lock.waiters {
                    let _ = ctx.wake(w);
                }
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        self.locks.clear();
        // Keep next_id monotone across reboots so recreated locks never
        // collide with descriptors still tracked by other clients.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, ComponentId, CostModel, Kernel, Priority, ThreadState};

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let lock = k.add_component("lock", Box::new(LockService::new()));
        k.grant(app, lock);
        let t1 = k.create_thread(app, Priority(5));
        let t2 = k.create_thread(app, Priority(6));
        (k, app, lock, t1, t2)
    }

    fn alloc(k: &mut Kernel, app: ComponentId, lock: ComponentId, t: ThreadId) -> i64 {
        k.invoke(app, t, lock, "lock_alloc", &[Value::Int(1)])
            .unwrap()
            .int()
            .unwrap()
    }

    #[test]
    fn alloc_take_release_free() {
        let (mut k, app, lock, t1, _) = setup();
        let id = alloc(&mut k, app, lock, t1);
        assert_eq!(
            k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
                .unwrap(),
            Value::Int(0)
        );
        k.invoke(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
        k.invoke(app, t1, lock, "lock_free", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        let err = k
            .invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn contention_blocks_and_release_wakes() {
        let (mut k, app, lock, t1, t2) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        let err = k
            .invoke(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert!(matches!(
            k.thread(t2).unwrap().state,
            ThreadState::Blocked { .. }
        ));

        k.invoke(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
        assert!(k.thread(t2).unwrap().state.is_runnable());
        // The retried take now succeeds.
        k.invoke(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
    }

    #[test]
    fn retake_by_owner_is_replay_idempotent() {
        let (mut k, app, lock, t1, _) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
    }

    #[test]
    fn release_by_non_owner_rejected() {
        let (mut k, app, lock, t1, t2) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        let err = k
            .invoke(
                app,
                t2,
                lock,
                "lock_release",
                &[Value::Int(1), Value::Int(id)],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn free_wakes_waiters() {
        let (mut k, app, lock, t1, t2) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        let _ = k.invoke(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)]);
        k.invoke(app, t1, lock, "lock_free", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        assert!(k.thread(t2).unwrap().state.is_runnable());
    }

    #[test]
    fn lock_ids_monotone_across_reboot() {
        let (mut k, app, lock, t1, _) = setup();
        let id1 = alloc(&mut k, app, lock, t1);
        k.fault(lock);
        k.micro_reboot(lock).unwrap();
        let id2 = alloc(&mut k, app, lock, t1);
        assert!(
            id2 > id1,
            "descriptor ids must not be recycled across reboots"
        );
    }

    #[test]
    fn restore_reestablishes_recorded_owner() {
        let (mut k, app, lock, t1, t2) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        k.fault(lock);
        k.micro_reboot(lock).unwrap();
        // Recovery (driven by t2) restores the hold for t1.
        k.invoke(
            app,
            t2,
            lock,
            "lock_restore",
            &[Value::Int(1), Value::Int(id), Value::Int(i64::from(t1.0))],
        )
        .unwrap();
        // t2 contends; t1 releases successfully.
        let err = k
            .invoke(app, t2, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        k.invoke(
            app,
            t1,
            lock,
            "lock_release",
            &[Value::Int(1), Value::Int(id)],
        )
        .unwrap();
    }

    #[test]
    fn reset_drops_all_locks() {
        let (mut k, app, lock, t1, _) = setup();
        let id = alloc(&mut k, app, lock, t1);
        k.fault(lock);
        k.micro_reboot(lock).unwrap();
        let err = k
            .invoke(app, t1, lock, "lock_take", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }
}
