//! The benchmark's own copy of the §V-B micro-workload: one
//! non-blocking call sequence per system service, on a built system
//! with two client threads.
//!
//! The sequences mirror the Fig 6 harness but live here, so a refactor
//! of the harness crate cannot change what the benchmark measures.

use std::fmt;

use composite::{ComponentId, InterfaceCall as _, Priority, ThreadId, Value};
use superglue::testbed::{Testbed, Variant};

/// The six protected system services, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Iface {
    /// Scheduler.
    Sched,
    /// Memory manager.
    Mm,
    /// RAM filesystem.
    Fs,
    /// Lock service.
    Lock,
    /// Event manager.
    Evt,
    /// Timer manager.
    Tmr,
}

/// All six services, in row order.
pub const IFACES: [Iface; 6] = [
    Iface::Sched,
    Iface::Mm,
    Iface::Fs,
    Iface::Lock,
    Iface::Evt,
    Iface::Tmr,
];

impl Iface {
    /// The interface name the IDL and the campaign use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Iface::Sched => "sched",
            Iface::Mm => "mm",
            Iface::Fs => "fs",
            Iface::Lock => "lock",
            Iface::Evt => "evt",
            Iface::Tmr => "tmr",
        }
    }
}

/// A call the system under test rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFailed {
    /// The service called.
    pub iface: &'static str,
    /// The interface function called.
    pub fname: &'static str,
    /// The error the runtime returned.
    pub detail: String,
}

impl fmt::Display for CallFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{} failed: {}", self.iface, self.fname, self.detail)
    }
}

/// The call that triggers on-demand recovery of one prepared
/// descriptor (the Fig 6(b) victim).
#[derive(Debug, Clone)]
pub struct Victim {
    iface: Iface,
    client: ComponentId,
    thread: ThreadId,
    fname: &'static str,
    args: Vec<Value>,
}

/// A built system plus two runnable client threads.
#[derive(Debug)]
pub struct Rig {
    /// The system under test.
    pub tb: Testbed,
    thread: ThreadId,
    thread2: ThreadId,
}

impl Rig {
    /// Build a rig for a protection variant (`elide` selects the
    /// certified tracking-elision stubs of the SuperGlue variant).
    ///
    /// # Panics
    ///
    /// Panics if the shipped IDL fails to compile, which the
    /// repository's own tests rule out.
    #[must_use]
    pub fn build(variant: Variant, elide: bool) -> Self {
        let mut tb = Testbed::build_elided(variant, elide).expect("shipped IDL compiles");
        let thread = tb.spawn_thread(tb.ids.app1, Priority(5));
        let thread2 = tb.spawn_thread(tb.ids.app2, Priority(5));
        Self {
            tb,
            thread,
            thread2,
        }
    }

    /// The first client thread (homed in `app1`).
    #[must_use]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The component implementing `iface`.
    #[must_use]
    pub fn component(&self, iface: Iface) -> ComponentId {
        let ids = &self.tb.ids;
        match iface {
            Iface::Sched => ids.sched,
            Iface::Mm => ids.mm,
            Iface::Fs => ids.fs,
            Iface::Lock => ids.lock,
            Iface::Evt => ids.evt,
            Iface::Tmr => ids.tmr,
        }
    }

    fn call_as(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        iface: Iface,
        fname: &'static str,
        args: &[Value],
    ) -> Result<Value, CallFailed> {
        let svc = self.component(iface);
        self.tb
            .runtime
            .interface_call(client, thread, svc, fname, args)
            .map_err(|e| CallFailed {
                iface: iface.name(),
                fname,
                detail: e.to_string(),
            })
    }

    fn call(
        &mut self,
        iface: Iface,
        fname: &'static str,
        args: &[Value],
    ) -> Result<Value, CallFailed> {
        let (app, t) = (self.tb.ids.app1, self.thread);
        self.call_as(app, t, iface, fname, args)
    }

    fn call_int(
        &mut self,
        iface: Iface,
        fname: &'static str,
        args: &[Value],
    ) -> Result<i64, CallFailed> {
        self.call(iface, fname, args)?
            .int()
            .map_err(|e| CallFailed {
                iface: iface.name(),
                fname,
                detail: e.to_string(),
            })
    }

    /// Run one iteration of the §V-B sequence for `iface`; returns the
    /// number of interface calls it made. `seq` varies the MM address
    /// and the FS path so iterations touch a small working set.
    ///
    /// # Errors
    ///
    /// The first call the system rejected.
    pub fn iteration(&mut self, iface: Iface, seq: u64) -> Result<u32, CallFailed> {
        let me = Value::from(self.tb.ids.app1.0);
        let c = || me.clone();
        Ok(match iface {
            Iface::Sched => {
                let d = Value::from(self.thread.0);
                self.call(iface, "sched_setup", &[c(), d.clone()])?;
                self.call(iface, "sched_wakeup", &[c(), d.clone()])?;
                // The pending wakeup makes this blk non-blocking.
                self.call(iface, "sched_blk", &[c(), d.clone()])?;
                self.call(iface, "sched_exit", &[c(), d])?;
                4
            }
            Iface::Lock => {
                let id = Value::Int(self.call_int(iface, "lock_alloc", &[c()])?);
                self.call(iface, "lock_take", &[c(), id.clone()])?;
                self.call(iface, "lock_release", &[c(), id.clone()])?;
                self.call(iface, "lock_free", &[c(), id])?;
                4
            }
            Iface::Evt => {
                let id = self.call_int(iface, "evt_split", &[c(), Value::Int(0), Value::Int(1)])?;
                let id = Value::Int(id);
                self.call(iface, "evt_trigger", &[c(), id.clone()])?;
                // The pending trigger makes the wait return at once.
                self.call(iface, "evt_wait", &[c(), id.clone()])?;
                self.call(iface, "evt_free", &[c(), id])?;
                4
            }
            Iface::Tmr => {
                let id = Value::Int(self.call_int(
                    iface,
                    "tmr_create",
                    &[c(), Value::Int(1_000_000)],
                )?);
                self.call(
                    iface,
                    "tmr_period",
                    &[c(), id.clone(), Value::Int(2_000_000)],
                )?;
                self.call(iface, "tmr_free", &[c(), id])?;
                3
            }
            Iface::Mm => {
                let vaddr = 0x1000 + (seq % 512) * 0x1000;
                let vaddr = i64::try_from(vaddr).expect("a 2 MiB window fits i64");
                let root =
                    Value::Int(self.call_int(iface, "mman_get_page", &[c(), Value::Int(vaddr)])?);
                let app2 = Value::from(self.tb.ids.app2.0);
                let alias = Value::Int(0x8_0000_0000 + vaddr);
                self.call(iface, "mman_alias_page", &[c(), root.clone(), app2, alias])?;
                self.call(iface, "mman_release_page", &[c(), root])?;
                3
            }
            Iface::Fs => {
                let path = format!("bench-{}.dat", seq % 8);
                let fd = self.call_int(
                    iface,
                    "tsplit",
                    &[c(), Value::Int(0), Value::from(path.as_str())],
                )?;
                let fd = Value::Int(fd);
                self.call(iface, "twrite", &[c(), fd.clone(), Value::from(vec![0x42])])?;
                self.call(iface, "tseek", &[c(), fd.clone(), Value::Int(0)])?;
                self.call(iface, "tread", &[c(), fd.clone(), Value::Int(1)])?;
                self.call(iface, "trelease", &[c(), fd])?;
                5
            }
        })
    }

    /// Create one descriptor in a recoverable state and return the call
    /// that recovers it on demand after a fault. For the event manager
    /// the recovering caller is the foreign client, so the path includes
    /// the G0 storage lookup and the U0 upcall into the creator.
    ///
    /// # Errors
    ///
    /// The first set-up call the system rejected.
    pub fn victim(&mut self, iface: Iface) -> Result<Victim, CallFailed> {
        let (app, t) = (self.tb.ids.app1, self.thread);
        let me = Value::from(app.0);
        let c = || me.clone();
        let victim = |fname, args| Victim {
            iface,
            client: app,
            thread: t,
            fname,
            args,
        };
        Ok(match iface {
            Iface::Sched => {
                let d = Value::from(t.0);
                self.call(iface, "sched_setup", &[c(), d.clone()])?;
                victim("sched_wakeup", vec![c(), d])
            }
            Iface::Lock => {
                let id = Value::Int(self.call_int(iface, "lock_alloc", &[c()])?);
                self.call(iface, "lock_take", &[c(), id.clone()])?;
                // lock_take is idempotent for the owner, so the victim
                // call repeats across fault/recover cycles.
                victim("lock_take", vec![c(), id])
            }
            Iface::Evt => {
                let id = self.call_int(iface, "evt_split", &[c(), Value::Int(0), Value::Int(1)])?;
                self.call(iface, "evt_trigger", &[c(), Value::Int(id)])?;
                let app2 = self.tb.ids.app2;
                Victim {
                    iface,
                    client: app2,
                    thread: self.thread2,
                    fname: "evt_trigger",
                    args: vec![Value::from(app2.0), Value::Int(id)],
                }
            }
            Iface::Tmr => {
                let id = Value::Int(self.call_int(
                    iface,
                    "tmr_create",
                    &[c(), Value::Int(1_000_000)],
                )?);
                victim("tmr_period", vec![c(), id, Value::Int(1_000_000)])
            }
            Iface::Mm => {
                let root = Value::Int(self.call_int(
                    iface,
                    "mman_get_page",
                    &[c(), Value::Int(0x4000)],
                )?);
                // Re-aliasing the same destination is idempotent, and each
                // cycle recovers the root mapping parent-first (D1).
                let app2 = Value::from(self.tb.ids.app2.0);
                victim("mman_alias_page", vec![c(), root, app2, Value::Int(0x9000)])
            }
            Iface::Fs => {
                let fd = self.call_int(
                    iface,
                    "tsplit",
                    &[c(), Value::Int(0), Value::from("victim.dat")],
                )?;
                let fd = Value::Int(fd);
                self.call(
                    iface,
                    "twrite",
                    &[c(), fd.clone(), Value::from(vec![1, 2, 3])],
                )?;
                victim("tseek", vec![c(), fd, Value::Int(0)])
            }
        })
    }

    /// Make the victim call once.
    ///
    /// # Errors
    ///
    /// The system rejected the call (recovery failed).
    pub fn call_victim(&mut self, v: &Victim) -> Result<(), CallFailed> {
        self.call_as(v.client, v.thread, v.iface, v.fname, &v.args)
            .map(drop)
    }

    /// Crash the service behind a victim (fail-stop).
    pub fn inject_fault(&mut self, v: &Victim) {
        let svc = self.component(v.iface);
        self.tb.runtime.inject_fault(svc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sequence_runs_on_every_variant_and_victims_recover() {
        for (variant, elide) in [
            (Variant::Bare, false),
            (Variant::C3, false),
            (Variant::SuperGlue, false),
            (Variant::SuperGlue, true),
        ] {
            let mut rig = Rig::build(variant, elide);
            for iface in IFACES {
                for seq in 0..3 {
                    assert!(rig.iteration(iface, seq).expect("call succeeds") >= 3);
                }
            }
        }
        for iface in IFACES {
            let mut rig = Rig::build(Variant::SuperGlue, false);
            let v = rig.victim(iface).expect("victim set-up");
            rig.inject_fault(&v);
            rig.call_victim(&v).expect("on-demand recovery");
            assert_eq!(rig.tb.runtime.stats().faults_handled, 1, "{iface:?}");
        }
    }
}
