//! Descriptor-resource model and descriptor state machines.
//!
//! This crate implements the formal core of SuperGlue (§III of the paper):
//!
//! * the **descriptor-resource model** `DR = (B_r, D_r, G_dr, P_dr, C_dr,
//!   Y_dr, D_dr)` describing how a system service's resources and the
//!   descriptors naming them behave ([`model`]);
//! * the **descriptor state machine** `SM = (I, S, σ, s0, s_f)` that tracks
//!   the state of each descriptor as interface functions are invoked
//!   ([`machine`]);
//! * the **shortest recovery walk** through a state machine, which is the
//!   sequence of interface functions a client stub replays to bring a
//!   descriptor from the faulty state back to its expected state ([`walk`]);
//! * the **machine-level elision facts** (resync-state domain, constant
//!   σ-successors, replay read-set) that the tracking-elision certifier
//!   builds on ([`facts`]).
//!
//! The crate is substrate-independent: it knows nothing about the simulated
//! μ-kernel, the IDL surface syntax, or the recovery runtime. The IDL front
//! end, the compiler, the linter and the compiled-stub interpreter consume
//! the types defined here. Runtime descriptor tracking is not part of it:
//! the SuperGlue stub keeps its descriptor tables in `superglue`'s
//! `CompiledStub`, and the hand-written C³ stubs keep theirs.
//!
//! # Example
//!
//! Model the lock service from §III-B of the paper and compute the walk
//! that re-creates a *taken* lock after its server is micro-rebooted:
//!
//! ```
//! use superglue_sm::machine::{StateMachineBuilder, State};
//!
//! let mut b = StateMachineBuilder::new("lock");
//! let alloc = b.function("lock_alloc");
//! let take = b.function("lock_take");
//! let release = b.function("lock_release");
//! let free = b.function("lock_free");
//! b.creation(alloc);
//! b.terminal(free);
//! b.block(take);
//! b.wakeup(release);
//! b.transition(alloc, take);
//! b.transition(take, release);
//! b.transition(release, take);
//! b.transition(release, free);
//! b.transition(alloc, free);
//! let sm = b.build()?;
//!
//! // A lock last touched by `lock_take` is in state After(take); the
//! // shortest recovery walk re-creates and re-takes it.
//! let walk = sm.recovery_walk(State::After(take))?;
//! assert_eq!(walk, vec![alloc, take]);
//! # Ok::<(), superglue_sm::Error>(())
//! ```

pub mod facts;
pub mod machine;
pub mod model;
pub mod walk;

mod error;

pub use error::Error;
pub use facts::MachineFacts;
pub use machine::{FnId, State, StateMachine, StateMachineBuilder};
pub use model::{DescriptorResourceModel, ParentPolicy};
pub use walk::RecoveryWalks;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
