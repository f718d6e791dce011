//! The pure state-machine core of the COMPOSITE kernel simulation.
//!
//! Everything in this crate is deterministic data-in/data-out: the
//! kernel's entire observable behavior is the fold
//!
//! ```text
//! step(KernelState, Event) -> (KernelState, Effects)
//! ```
//!
//! with **no interior mutability and no I/O** — no trace ring, no
//! counters table, no clocks, no randomness beyond the caller-seeded
//! [`rng::SplitMix64`]. The `composite` crate wraps this core in a thin
//! runtime shell (`composite::kernel::Kernel`) that owns the flight
//! recorder, metrics, and service objects and merely drives `step` and
//! applies the returned [`effect::Effect`]s.
//!
//! The split follows the `zos-kernel-core` idiom: the pure core is the
//! primary verification target. [`check`] implements an in-repo
//! property-testing harness (deterministic generators + shrinking) and
//! [`model`] random-walks event sequences — fault injections, nested
//! episodes, watchdog expiries, reboot storms — checking recovery
//! invariants after every step. [`state::KernelState`] is cheaply
//! snapshottable (`Arc`-shared tables, O(1) clone), which the checker
//! uses for shrinking and `sgtrace replay --to` uses for time travel.
//!
//! Purity is enforced at crate granularity: this crate has **zero
//! dependencies**, so it cannot reach the trace ring or metrics even by
//! accident, and a lint-level test (`tests/purity.rs`) bans interior
//! mutability and hidden I/O in the sources.

#![forbid(unsafe_code)]

pub mod capability;
pub mod check;
pub mod effect;
pub mod error;
pub mod event;
pub mod ids;
pub mod mechanism;
pub mod model;
pub mod pages;
pub mod rng;
pub mod state;
pub mod step;
pub mod thread;
pub mod time;
pub mod value;

pub use capability::CapTable;
pub use check::{run_check, CheckConfig, CheckReport, Counterexample, Model, Violation};
pub use effect::{Effect, Effects};
pub use error::{CallError, KernelError, ServiceError};
pub use event::{AdmitOutcome, Event, RebootOutcome, Reply, WakeOutcome};
pub use ids::{ComponentId, Epoch, FrameId, Priority, ThreadId};
pub use mechanism::{Mechanism, MECHANISMS};
pub use model::KernelWalk;
pub use pages::{PageTables, VAddr};
pub use rng::{mix, SplitMix64};
pub use state::{
    ComponentMeta, ComponentState, EscalationPolicy, KernelState, BOOTER, BOOT_THREAD,
};
pub use step::{step, step_in_place};
pub use thread::{RegisterFile, Thread, ThreadState, NUM_REGISTERS};
pub use time::{CostModel, SimTime};
pub use value::{ArgVec, Bytes, SmallStr, TypeMismatch, Value};
