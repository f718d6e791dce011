//! The SuperGlue compiler (§IV-B of the paper).
//!
//! The paper's compiler is a pipeline: C preprocessor → `pycparser` front
//! end → intermediate representation encoding the descriptor-resource and
//! state-machine models → a back end of **72 template–predicate pairs**
//! that emits client and server stub code, where a template is included
//! only when its predicate holds for the interface's model.
//!
//! This crate is the Rust equivalent. The front end lives in
//! [`superglue_idl`]; from a validated
//! [`InterfaceSpec`] this crate produces:
//!
//! * an executable **stub specification** ([`ir::CompiledStubSpec`]) that
//!   the `superglue` runtime interprets — the semantic payload of the
//!   generated code (descriptor tracking tables, recovery walks, id
//!   translation, G0/G1/U0 interactions);
//! * **generated stub source text** ([`emit`]) for the client and server
//!   sides, rendered from the same template–predicate network — this is
//!   what Fig 6(c) counts as "generated LOC" against the IDL's
//!   hand-written-replacement LOC.
//!
//! # Example
//!
//! ```
//! let idl = r#"
//! sm_creation(lock_alloc);
//! sm_terminal(lock_free);
//! sm_transition(lock_alloc, lock_take);
//! sm_transition(lock_take, lock_release);
//! sm_transition(lock_release, lock_take);
//! sm_transition(lock_release, lock_free);
//! sm_transition(lock_alloc, lock_free);
//! desc_data_retval(long, lockid)
//! lock_alloc(componentid_t compid);
//! int lock_take(componentid_t compid, desc(long lockid));
//! int lock_release(componentid_t compid, desc(long lockid));
//! int lock_free(componentid_t compid, desc(long lockid));
//! "#;
//! let spec = superglue_idl::compile_interface("lock", idl)?;
//! let out = superglue_compiler::compile(&spec);
//! assert_eq!(out.stub_spec.interface, "lock");
//! assert!(out.client_source.contains("lock_take"));
//! assert!(out.generated_loc() > superglue_idl::idl_loc(idl));
//! # Ok::<(), superglue_idl::IdlError>(())
//! ```

pub mod elide;
pub mod emit;
pub mod ir;
pub mod predicates;
pub mod templates;

pub use elide::{ElisionFacts, FnElision};
pub use ir::{ArgSource, CompiledFn, CompiledStubSpec, RestoreArg, RetvalSpec};
pub use predicates::ModelPredicates;

use std::sync::Arc;

use superglue_idl::InterfaceSpec;

/// Everything the compiler produces for one interface.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The runtime-interpretable stub specification. Immutable once
    /// compiled: every stub interpreting it shares this one allocation.
    pub stub_spec: Arc<CompiledStubSpec>,
    /// Generated client-stub source text.
    pub client_source: String,
    /// Generated server-stub source text.
    pub server_source: String,
    /// Which template–predicate pairs fired, by template name (for
    /// inspection and for the template-count invariant tests).
    pub templates_used: Vec<&'static str>,
    /// The elision certificate (deterministic JSON) when the spec
    /// requested any `sm_elide` fast path; `None` for unannotated
    /// interfaces, which stay bit-for-bit on the fully tracked path.
    pub elision_cert: Option<String>,
}

impl Compilation {
    /// Lines of generated stub code, client + server — the "generated
    /// LOC" series of Fig 6(c).
    #[must_use]
    pub fn generated_loc(&self) -> usize {
        count_loc(&self.client_source) + count_loc(&self.server_source)
    }
}

/// Count non-blank, non-comment lines of generated source.
#[must_use]
pub fn count_loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
        })
        .count()
}

/// Compile a validated interface into a stub spec plus generated source.
///
/// The fully tracked build: `sm_elide` requests are carried through to
/// the IR (and rendered as fast-path stubs in the generated source)
/// but **not** applied to the runtime spec. Use [`compile_elided`] to
/// also certify and install the requested fast paths.
#[must_use]
pub fn compile(spec: &InterfaceSpec) -> Compilation {
    let stub_spec = ir::lower(spec);
    let preds = ModelPredicates::of(spec);
    let (client_source, server_source, templates_used) = emit::emit_both(spec, &stub_spec, &preds);
    let elision_cert = (!stub_spec.elide_requests.is_empty())
        .then(|| ElisionFacts::certify(&stub_spec).to_json(&stub_spec.meta_names));
    Compilation {
        stub_spec: Arc::new(stub_spec),
        client_source,
        server_source,
        templates_used,
        elision_cert,
    }
}

/// Compile with the certified tracking elisions applied to the runtime
/// stub specification.
///
/// The generated source and certificate are identical to [`compile`]'s
/// (both are rendered from the certifier's facts, so there is a single
/// golden set); only the interpreted [`CompiledStubSpec`] differs, in
/// exactly the proven-invisible writes.
///
/// # Errors
///
/// Returns the certifier's message when the spec requests an elision
/// that cannot be proven (see [`ElisionFacts::apply`]).
pub fn compile_elided(spec: &InterfaceSpec) -> Result<Compilation, String> {
    let mut out = compile(spec);
    let stub = Arc::get_mut(&mut out.stub_spec).expect("a fresh compilation is unshared");
    ElisionFacts::certify(stub).apply(stub)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_loc_skips_blank_and_comment_lines() {
        assert_eq!(count_loc("a\n\n// c\nb\n"), 2);
    }
}
