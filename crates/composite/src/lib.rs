//! Deterministic simulation of the COMPOSITE component-based μ-kernel.
//!
//! COMPOSITE (§II-B of the SuperGlue paper) is a small kernel plus
//! user-level components implementing system services (scheduling, memory
//! management, files, locks, events, timers). Components expose interfaces
//! of functions; invoking one triggers a *component invocation* — a
//! synchronous, thread-migrating IPC mediated by capability-based access
//! control. Hardware page tables isolate component memory, so faults can
//! propagate only through interface data.
//!
//! This crate simulates that substrate deterministically in user space:
//!
//! * [`kernel::Kernel`] — components, threads, capabilities, simulated
//!   page tables, virtual time, and the synchronous invocation path;
//! * [`component::Service`] — the trait a simulated component implements;
//!   its private state *is* the "memory image" that a fault corrupts and
//!   a micro-reboot resets;
//! * [`thread::RegisterFile`] — each thread carries 8 simulated 32-bit
//!   registers (EAX…EDI, ESP, EBP) so the SWIFI crate can flip real bits
//!   with mechanistic consequences;
//! * [`executor::Executor`] — a priority-driven dispatcher that runs
//!   client *workloads* (explicit state machines standing in for
//!   application threads);
//! * micro-reboot and reflection — the booter's `memcpy` of a fresh image
//!   is [`kernel::Kernel::micro_reboot`] (a [`component::Service::reset`]
//!   call plus epoch bump), and kernel reflection APIs let recovering
//!   services re-discover kernel-held state, as §II-C describes for the
//!   scheduler.
//!
//! Faults never propagate *through* this crate's kernel: as in the paper
//! (§II-E), the kernel itself is assumed protected; a fault in a
//! component makes every subsequent invocation of it return
//! [`error::CallError::Fault`] until the booter micro-reboots it and the
//! recovery runtime (the `sg-c3` / `superglue` crates) rebuilds its
//! state.

// The pure state-machine core lives in the dependency-free
// `composite-core` crate (`step(KernelState, Event) -> (KernelState,
// Effects)` plus the property-based model checker); this crate is the
// runtime shell — trace ring, counters, service objects, executor — and
// re-exports the moved modules under their historical paths.
pub use composite_core::{capability, error, ids, pages, rng, thread, time, value};

pub mod component;
pub mod executor;
pub mod intern;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod par;
pub mod store;
pub mod telemetry;
pub mod trace;

pub use component::{Service, ServiceCtx};
pub use composite_core::{
    run_check, step, step_in_place, AdmitOutcome, CheckConfig, CheckReport, Counterexample, Effect,
    Effects, Event, KernelState, KernelWalk, Model, RebootOutcome, Reply, Violation, WakeOutcome,
};
pub use error::{CallError, KernelError, ServiceError};
pub use executor::{Executor, RunExit, StepResult, Workload};
pub use ids::{ComponentId, Epoch, FrameId, Priority, ThreadId};
pub use intern::{DispatchTable, Interner, NameId};
pub use json::Json;
pub use kernel::{EscalationPolicy, InterfaceCall, Kernel, KernelAccess, BOOTER, BOOT_THREAD};
pub use metrics::{
    Counters, LatencyStat, Mechanism, MetricsRow, MetricsSnapshot, MECHANISMS,
    METRICS_SCHEMA_VERSION,
};
pub use par::{default_jobs, parallel_map_indexed};
pub use rng::{mix, SplitMix64};
pub use store::{EdgeMap, IdSlab};
pub use telemetry::{series_header, SeriesSnapshot, DEFAULT_SERIES_WINDOW, SERIES_SCHEMA_VERSION};
pub use thread::{RegisterFile, ThreadState, NUM_REGISTERS};
pub use time::{CostModel, SimTime};
pub use trace::{
    shards_to_chrome, shards_to_jsonl, FlightRecorder, TraceEvent, TraceEventKind, TraceScope,
    TraceShard, DEFAULT_TRACE_CAPACITY, MAX_EPISODE_DEPTH, TRACE_SCHEMA_VERSION,
};
pub use value::{ArgVec, Bytes, SmallStr, Value};

/// Checks of the per-component run totals that [`Kernel::counters`]
/// keeps.
#[cfg(test)]
mod stats {
    mod tests {
        use crate::metrics::tests::counted;
        use crate::metrics::Count::{Fault, FaultedInvocation, Invocation, Reboot};
        use crate::{ComponentId, MetricsRow};

        #[test]
        fn counters_accumulate() {
            let counts = [Invocation, Invocation, Fault, Reboot, FaultedInvocation];
            let t = counted(None, &counts.map(|what| (3, 0, what)));
            let row = t.row(ComponentId(3)).expect("counted");
            assert_eq!((row.invocations, row.faulted_invocations), (2, 1));
            assert_eq!(t.total(|r| r.invocations), 2);
            assert_eq!(t.total(|r| r.faults), 1);
            assert_eq!(t.total(|r| r.reboots), 1);
        }

        #[test]
        fn totals_span_components() {
            let t = counted(None, &[(1, 0, Invocation), (2, 0, Invocation)]);
            assert_eq!(t.total(|r| r.invocations), 2);
        }

        #[test]
        fn counter_vec_equality_ignores_trailing_zeros() {
            // A component never counted reads 0: below the highest id
            // counted as an all-zero row, past it as no row.
            let t = counted(None, &[(1, 0, Invocation), (5, 0, Invocation)]);
            assert_eq!(t.row(ComponentId(2)), Some(&MetricsRow::default()));
            assert_eq!(t.row(ComponentId(9)).map_or(0, |r| r.invocations), 0);
            assert_eq!(t.row(ComponentId(5)).map(|r| r.invocations), Some(1));
        }
    }
}
