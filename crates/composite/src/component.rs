//! The [`Service`] trait simulated components implement, and the
//! [`ServiceCtx`] kernel facilities available to them during a call.

use std::fmt;

use crate::error::{CallError, KernelError, ServiceError};
use crate::ids::{ComponentId, Epoch, FrameId, ThreadId};
use crate::kernel::Kernel;
use crate::pages::VAddr;
use crate::time::SimTime;
use crate::value::Value;

/// A simulated user-level component implementing a system service.
///
/// The implementor's fields are the component's private memory image:
/// a transient fault conceptually corrupts them, and the booter's
/// micro-reboot ([`Kernel::micro_reboot`]) calls [`Service::reset`] to
/// restore the pristine image — after which the recovery runtime rebuilds
/// the lost state through the interface.
pub trait Service: fmt::Debug {
    /// The interface name this component exports (e.g. `"lock"`).
    fn interface(&self) -> &'static str;

    /// Handle one interface invocation.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::WouldBlock`] after the service called
    ///   [`ServiceCtx::block_current`] (or a sleep variant) — the kernel
    ///   suspends the invoking thread and the client retries on wakeup;
    /// * [`ServiceError::NotFound`] / [`ServiceError::InvalidArg`] for
    ///   descriptor lookups that fail — after a micro-reboot this is the
    ///   signal the server-side stub turns into **G0** recovery;
    /// * [`ServiceError::NoSuchFunction`] for unknown function names.
    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError>;

    /// Restore the pristine boot image (the booter's `memcpy`). All
    /// descriptor/resource bookkeeping must be dropped; kernel-held state
    /// (page tables, thread states) survives outside the component.
    fn reset(&mut self);

    /// Post-reboot re-initialization upcall (step 4 of §III-D). The
    /// default does nothing; services that must reconcile with kernel
    /// state (e.g. the scheduler reflecting on blocked threads) override
    /// it.
    fn post_reboot(&mut self, ctx: &mut ServiceCtx<'_>) {
        let _ = ctx;
    }
}

/// Kernel facilities exposed to a service during
/// [`Service::call`] — blocking/wakeup, nested invocations, page-table
/// manipulation, and the reflection APIs recovery depends on.
#[derive(Debug)]
pub struct ServiceCtx<'k> {
    pub(crate) kernel: &'k mut Kernel,
    /// The component currently executing.
    pub this: ComponentId,
    /// The component that invoked it.
    pub client: ComponentId,
    /// The invoking thread.
    pub thread: ThreadId,
    /// Progress ticks reported during this call (watchdog accounting).
    pub(crate) ticks: u64,
}

impl ServiceCtx<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Block the invoking thread inside this component and return the
    /// error the service should propagate. The client's invocation
    /// returns [`CallError::WouldBlock`] and is retried after wakeup.
    #[must_use]
    pub fn block_current(&mut self) -> ServiceError {
        self.kernel.block_thread(self.thread, self.this);
        ServiceError::WouldBlock
    }

    /// Put the invoking thread to sleep until `deadline` and return the
    /// error the service should propagate.
    #[must_use]
    pub fn sleep_current_until(&mut self, deadline: SimTime) -> ServiceError {
        self.kernel.sleep_thread(self.thread, deadline);
        ServiceError::WouldBlock
    }

    /// Wake a thread previously blocked or sleeping.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] for unknown ids. Waking a runnable
    /// or terminal thread is a no-op recorded as a pending wakeup is NOT
    /// kept — services needing wakeup-before-block semantics keep their
    /// own pending flags.
    pub fn wake(&mut self, thread: ThreadId) -> Result<(), KernelError> {
        self.kernel.wake_thread(thread)
    }

    /// Count one firing of a recovery mechanism attributed to this
    /// component (e.g. RamFS noting a **G1** data re-fetch). Routed
    /// through the kernel's [`Kernel::record_mechanism`] choke point so
    /// the counter and the trace event stay in lockstep.
    pub fn note_mechanism(&mut self, m: crate::metrics::Mechanism) {
        self.kernel
            .record_mechanism(self.this, m, 1, self.thread, SimTime::ZERO);
    }

    /// Count one dead-letter escalation (**DL0**) attributed to this
    /// component and emit the matching
    /// [`TraceEventKind`](crate::trace::TraceEventKind::DeadLetter)
    /// flight-recorder event: message `msg` on channel descriptor `desc`
    /// faulted its consumer `deliveries` times and is routed to the
    /// dead-letter queue instead of being re-delivered.
    pub fn note_dead_letter(&mut self, desc: i64, msg: i64, deliveries: u64) {
        self.kernel.record_mechanism(
            self.this,
            crate::metrics::Mechanism::Dl0,
            1,
            self.thread,
            SimTime::ZERO,
        );
        self.kernel.trace_instant(
            self.this,
            self.thread,
            crate::trace::TraceEventKind::DeadLetter {
                desc,
                msg,
                deliveries,
            },
        );
    }

    /// Nested synchronous invocation from this component to another
    /// (e.g. RamFS → storage).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`].
    pub fn invoke(
        &mut self,
        target: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.kernel
            .invoke(self.this, self.thread, target, fname, args)
    }

    /// Allocate a physical frame (memory-manager privilege).
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfFrames`] when exhausted.
    pub fn alloc_frame(&mut self) -> Result<FrameId, KernelError> {
        self.kernel.pages_mut().alloc_frame()
    }

    /// Install a page mapping, idempotently (recovery replay re-grants
    /// surviving mappings as a no-op).
    ///
    /// # Errors
    ///
    /// [`KernelError::AlreadyMapped`] when the vaddr maps another frame.
    pub fn map_page(
        &mut self,
        component: ComponentId,
        vaddr: VAddr,
        frame: FrameId,
    ) -> Result<(), KernelError> {
        self.kernel
            .pages_mut()
            .map_idempotent(component, vaddr, frame)
    }

    /// Remove a page mapping.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotMapped`] when absent.
    pub fn unmap_page(
        &mut self,
        component: ComponentId,
        vaddr: VAddr,
    ) -> Result<FrameId, KernelError> {
        self.kernel.pages_mut().unmap(component, vaddr)
    }

    /// Translate a mapping.
    #[must_use]
    pub fn translate(&self, component: ComponentId, vaddr: VAddr) -> Option<FrameId> {
        self.kernel.pages().translate(component, vaddr)
    }

    /// Kernel reflection: all mappings of a component.
    #[must_use]
    pub fn mappings_of(&self, component: ComponentId) -> Vec<(VAddr, FrameId)> {
        self.kernel.pages().mappings_of(component).collect()
    }

    /// Kernel reflection: all (component, vaddr) pairs mapping a frame.
    #[must_use]
    pub fn mappers_of(&self, frame: FrameId) -> Vec<(ComponentId, VAddr)> {
        self.kernel.pages().mappers_of(frame).collect()
    }

    /// Kernel reflection: threads currently blocked inside a component —
    /// what a recovering scheduler consults to rebuild its block list
    /// (§II-F: "recovering the thread scheduler … requires reflecting on
    /// kernel data structures").
    #[must_use]
    pub fn threads_blocked_in(&self, component: ComponentId) -> Vec<ThreadId> {
        self.kernel.threads_blocked_in(component)
    }

    /// The current epoch (micro-reboot generation) of a component.
    #[must_use]
    pub fn epoch_of(&self, component: ComponentId) -> Option<Epoch> {
        self.kernel.epoch_of(component)
    }

    /// Charge virtual CPU time for work performed inside the service
    /// (application/handler work in macro-benchmarks).
    pub fn charge(&mut self, cost: SimTime) {
        self.kernel.charge(cost);
    }

    /// Raise a fail-stop fault against a component (the hardware
    /// exception path; used by fault-injection harnesses to crash the
    /// currently executing service mid-call).
    pub fn raise_fault(&mut self, component: ComponentId) {
        self.kernel.fault(component);
    }

    /// Report one unit of forward progress to the kernel watchdog.
    ///
    /// Long-running or loop-heavy services call this once per iteration;
    /// when the kernel's per-invocation step budget
    /// ([`Kernel::set_watchdog_budget`]) is exceeded, the watchdog
    /// converts the hang into a detected fault against this component.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unavailable`] once the watchdog has fired — the
    /// service must unwind immediately (the kernel has already marked it
    /// faulty, so the client observes [`CallError::Fault`]).
    pub fn progress(&mut self) -> Result<(), ServiceError> {
        self.ticks += 1;
        if self
            .kernel
            .watchdog_tick(self.this, self.thread, self.ticks)
        {
            return Err(ServiceError::Unavailable);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServiceError;
    use crate::ids::Priority;

    /// A trivial service used by kernel-level tests: `ping` returns its
    /// argument + 1; `block` blocks the caller; `wake` wakes a thread id.
    #[derive(Debug, Default)]
    pub struct Echo {
        pub calls: u64,
    }

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
            self.calls += 1;
            match fname {
                "ping" => Ok(Value::Int(args[0].int()? + 1)),
                "block" => Err(ctx.block_current()),
                "wake" => {
                    let tid = ThreadId(args[0].int()? as u32);
                    ctx.wake(tid).map_err(|_| ServiceError::InvalidArg)?;
                    Ok(Value::Unit)
                }
                other => Err(ServiceError::NoSuchFunction(other.to_owned())),
            }
        }

        fn reset(&mut self) {
            self.calls = 0;
        }
    }

    #[test]
    fn echo_service_counts_calls_and_resets() {
        let mut k = Kernel::new();
        let client = k.add_client_component("client");
        let echo = k.add_component("echo", Box::new(Echo::default()));
        k.grant(client, echo);
        let t = k.create_thread(client, Priority(5));
        let r = k
            .invoke(client, t, echo, "ping", &[Value::Int(41)])
            .unwrap();
        assert_eq!(r, Value::Int(42));
    }
}
