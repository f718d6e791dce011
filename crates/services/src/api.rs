//! Typed client wrappers over the dynamic service interfaces.
//!
//! All wrappers go through [`composite::InterfaceCall`], so the same
//! client code runs bare (no fault tolerance), under C³ stubs, and under
//! SuperGlue stubs — the three systems the evaluation compares.

use composite::{CallError, ComponentId, InterfaceCall, ThreadId, Value};

/// One client's connection to one server interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientEnd {
    /// The invoking client component.
    pub client: ComponentId,
    /// The invoking thread.
    pub thread: ThreadId,
    /// The server component.
    pub server: ComponentId,
}

impl ClientEnd {
    /// Construct a client end.
    #[must_use]
    pub fn new(client: ComponentId, thread: ThreadId, server: ComponentId) -> Self {
        Self {
            client,
            thread,
            server,
        }
    }

    /// Raw call through the interface-call layer.
    ///
    /// # Errors
    ///
    /// Propagates the layer's [`CallError`].
    pub fn call<C: InterfaceCall>(
        &self,
        ctx: &mut C,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        ctx.interface_call(self.client, self.thread, self.server, fname, args)
    }

    fn compid(&self) -> Value {
        Value::from(self.client.0)
    }
}

/// Scheduler (`sched`) client API.
pub mod sched {
    use super::*;

    /// Register a thread; returns its scheduler descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn setup<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        thdid: ThreadId,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(ctx, "sched_setup", &[end.compid(), Value::from(thdid.0)])?
            .int()
            .unwrap_or(-1))
    }

    /// Block the calling thread on its descriptor.
    ///
    /// # Errors
    ///
    /// [`CallError::WouldBlock`] until woken; other [`CallError`]s as-is.
    pub fn blk<C: InterfaceCall>(ctx: &mut C, end: &ClientEnd, desc: i64) -> Result<(), CallError> {
        end.call(ctx, "sched_blk", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Wake the thread behind a descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn wakeup<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "sched_wakeup", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Deregister a descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn exit<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "sched_exit", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }
}

/// Lock (`lock`) client API.
pub mod lock {
    use super::*;

    /// Allocate a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn alloc<C: InterfaceCall>(ctx: &mut C, end: &ClientEnd) -> Result<i64, CallError> {
        Ok(end
            .call(ctx, "lock_alloc", &[end.compid()])?
            .int()
            .unwrap_or(-1))
    }

    /// Take (acquire) a lock; blocks under contention.
    ///
    /// # Errors
    ///
    /// [`CallError::WouldBlock`] while contended.
    pub fn take<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "lock_take", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Release a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn release<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "lock_release", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Free a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn free<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "lock_free", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }
}

/// Event manager (`evt`) client API.
pub mod evt {
    use super::*;

    /// Create an event (0 = no parent).
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn split<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        parent: i64,
        grp: i64,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(
                ctx,
                "evt_split",
                &[end.compid(), Value::Int(parent), Value::Int(grp)],
            )?
            .int()
            .unwrap_or(-1))
    }

    /// Wait for the event; blocks until triggered.
    ///
    /// # Errors
    ///
    /// [`CallError::WouldBlock`] until triggered.
    pub fn wait<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(ctx, "evt_wait", &[end.compid(), Value::Int(desc)])?
            .int()
            .unwrap_or(-1))
    }

    /// Trigger the event.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn trigger<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "evt_trigger", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Destroy the event.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn free<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "evt_free", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }
}

/// Timer manager (`tmr`) client API.
pub mod tmr {
    use super::*;

    /// Create a periodic timer.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn create<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        period_ns: i64,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(ctx, "tmr_create", &[end.compid(), Value::Int(period_ns)])?
            .int()
            .unwrap_or(-1))
    }

    /// Sleep until the next period boundary.
    ///
    /// # Errors
    ///
    /// [`CallError::WouldBlock`] until the deadline.
    pub fn wait<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "tmr_wait", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }

    /// Destroy the timer.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn free<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        desc: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "tmr_free", &[end.compid(), Value::Int(desc)])
            .map(|_| ())
    }
}

/// Memory manager (`mm`) client API.
pub mod mman {
    use super::*;

    /// Create a root mapping for `vaddr` in the calling component.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn get_page<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        vaddr: u64,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(
                ctx,
                "mman_get_page",
                &[end.compid(), Value::Int(vaddr as i64)],
            )?
            .int()
            .unwrap_or(-1))
    }

    /// Alias the mapping named by `src_key` (a descriptor returned by
    /// [`get_page`]/[`alias_page`]) into `(dst, dst_vaddr)`.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn alias_page<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        src_key: i64,
        dst: ComponentId,
        dst_vaddr: u64,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(
                ctx,
                "mman_alias_page",
                &[
                    end.compid(),
                    Value::Int(src_key),
                    Value::from(dst.0),
                    Value::Int(dst_vaddr as i64),
                ],
            )?
            .int()
            .unwrap_or(-1))
    }

    /// Revoke the mapping named by `key` and its subtree of aliases.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn release_page<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        key: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "mman_release_page", &[end.compid(), Value::Int(key)])
            .map(|_| ())
    }
}

/// RAM filesystem (`fs`) client API.
pub mod fs {
    use super::*;

    /// Open a file relative to a parent descriptor (0 = root).
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn split<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        parent: i64,
        path: &str,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(
                ctx,
                "tsplit",
                &[end.compid(), Value::Int(parent), Value::from(path)],
            )?
            .int()
            .unwrap_or(-1))
    }

    /// Reposition the descriptor offset.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn seek<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        fd: i64,
        offset: i64,
    ) -> Result<(), CallError> {
        end.call(
            ctx,
            "tseek",
            &[end.compid(), Value::Int(fd), Value::Int(offset)],
        )
        .map(|_| ())
    }

    /// Read up to `len` bytes at the current offset.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn read<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        fd: i64,
        len: i64,
    ) -> Result<Vec<u8>, CallError> {
        let v = end.call(
            ctx,
            "tread",
            &[end.compid(), Value::Int(fd), Value::Int(len)],
        )?;
        match v {
            Value::Bytes(b) => Ok(b.to_vec()),
            _ => Ok(Vec::new()),
        }
    }

    /// Write bytes at the current offset.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn write<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        fd: i64,
        data: Vec<u8>,
    ) -> Result<i64, CallError> {
        Ok(end
            .call(
                ctx,
                "twrite",
                &[end.compid(), Value::Int(fd), Value::from(data)],
            )?
            .int()
            .unwrap_or(0))
    }

    /// Close a descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`CallError`].
    pub fn release<C: InterfaceCall>(
        ctx: &mut C,
        end: &ClientEnd,
        fd: i64,
    ) -> Result<(), CallError> {
        end.call(ctx, "trelease", &[end.compid(), Value::Int(fd)])
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CostModel, Kernel, Priority};

    use crate::lock::LockService;

    #[test]
    fn client_end_routes_through_interface_call() {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let lk = k.add_component("lock", Box::new(LockService::new()));
        k.grant(app, lk);
        let t = k.create_thread(app, Priority(5));
        let end = ClientEnd::new(app, t, lk);
        let id = lock::alloc(&mut k, &end).unwrap();
        lock::take(&mut k, &end, id).unwrap();
        lock::release(&mut k, &end, id).unwrap();
        lock::free(&mut k, &end, id).unwrap();
        assert!(lock::take(&mut k, &end, id).is_err());
    }
}
