//! SuperGlue: IDL-based, system-level fault tolerance.
//!
//! This crate is the paper's primary contribution assembled end-to-end:
//!
//! 1. the six system services' interfaces are described *declaratively*
//!    in SuperGlue IDL (`idl/*.sg`, embedded in [`sources`]);
//! 2. the [`superglue_idl`] front end and [`superglue_compiler`] back end
//!    turn each description into a
//!    [`CompiledStubSpec`](superglue_compiler::CompiledStubSpec) plus
//!    generated stub source;
//! 3. the generic [`stub::CompiledStub`] interprets a compiled spec as a
//!    live interface stub — one object per (client, server) edge —
//!    plugged into the shared C³ recovery runtime
//!    ([`sg_c3::FtRuntime`]);
//! 4. [`testbed`] assembles the full simulated COMPOSITE OS (kernel, six
//!    services, storage, cbuf, client components) in three protection
//!    variants — **Bare**, **C³** (hand-written stubs), **SuperGlue**
//!    (generated stubs) — the exact systems the paper's evaluation
//!    compares.
//!
//! # Quickstart
//!
//! ```
//! use superglue::testbed::{Testbed, Variant};
//!
//! // Build a full OS protected by SuperGlue-generated stubs.
//! let mut tb = Testbed::build(Variant::SuperGlue)?;
//! let t = tb.spawn_thread(tb.ids.app1, composite::Priority(5));
//!
//! // Allocate a lock through the generated stub, crash the lock server,
//! // and keep using the same descriptor: recovery is transparent.
//! let end = sg_services::api::ClientEnd::new(tb.ids.app1, t, tb.ids.lock);
//! let id = sg_services::api::lock::alloc(&mut tb.runtime, &end)?;
//! tb.runtime.inject_fault(tb.ids.lock);
//! sg_services::api::lock::take(&mut tb.runtime, &end, id)?;
//! assert_eq!(tb.runtime.stats().faults_handled, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod sources;
pub mod stub;
pub mod testbed;

pub use sources::{compile_all, idl_sources};
pub use stub::CompiledStub;
pub use testbed::{Testbed, Variant};
