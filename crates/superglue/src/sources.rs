//! The shipped SuperGlue IDL files and their compilation products.
//!
//! The six `.sg` files under `idl/` are the complete declarative
//! replacement for the hand-written C³ stub code — the artifact Fig 6(c)
//! measures. They are embedded here so every consumer (runtime, fault
//! campaign, benches, examples) compiles the identical specifications.
//! Because the sources are constants, each compilation runs once per
//! process and every later call shares its result.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use superglue_compiler::{compile, compile_elided, Compilation};
use superglue_idl::IdlError;

/// The six (interface name, IDL source) pairs, in the paper's Table II
/// row order.
#[must_use]
pub fn idl_sources() -> [(&'static str, &'static str); 6] {
    [
        ("sched", include_str!("../../../idl/sched.sg")),
        ("mm", include_str!("../../../idl/mm.sg")),
        ("fs", include_str!("../../../idl/fs.sg")),
        ("lock", include_str!("../../../idl/lock.sg")),
        ("evt", include_str!("../../../idl/evt.sg")),
        ("tmr", include_str!("../../../idl/tmr.sg")),
    ]
}

type Compiled = Result<BTreeMap<&'static str, Compilation>, IdlError>;

/// Parse, validate and compile all six shipped IDL files: specs, stub
/// specs, generated sources, keyed by interface name. The first call
/// compiles; every later call, from any thread, returns the same map.
///
/// # Errors
///
/// The first [`IdlError`] across the files, tagged with the file name in
/// the message path.
pub fn compile_all() -> Result<&'static BTreeMap<&'static str, Compilation>, IdlError> {
    static TRACKED: OnceLock<Compiled> = OnceLock::new();
    TRACKED
        .get_or_init(|| compile_each(false))
        .as_ref()
        .map_err(Clone::clone)
}

/// [`compile_all`] with every certified tracking elision applied to the
/// runtime stub specs (`--elide` mode): σ-constant fast paths, dead
/// harvest/store suppression and the pending/affinity/translation probe
/// skips, each backed by an SG060–SG065 proof. Generated sources and
/// certificates are identical to [`compile_all`]'s; the stub specs are
/// separate allocations.
///
/// # Errors
///
/// The first [`IdlError`] across the files; an unprovable `sm_elide`
/// request surfaces as a semantic error (the linter reports it as
/// SG060–SG065 with spans).
pub fn compile_all_elided() -> Result<&'static BTreeMap<&'static str, Compilation>, IdlError> {
    static ELIDED: OnceLock<Compiled> = OnceLock::new();
    ELIDED
        .get_or_init(|| compile_each(true))
        .as_ref()
        .map_err(Clone::clone)
}

fn compile_each(elide: bool) -> Compiled {
    idl_sources()
        .into_iter()
        .map(|(name, src)| {
            let spec = superglue_idl::compile_interface(name, src)?;
            let c = if elide {
                compile_elided(&spec).map_err(|message| IdlError::Semantic {
                    message: format!("{name}: {message}"),
                })?
            } else {
                compile(&spec)
            };
            Ok((name, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_idl_files_compile() {
        let c = compile_all().expect("shipped IDL must be valid");
        assert_eq!(c.len(), 6);
        for iface in ["sched", "mm", "fs", "lock", "evt", "tmr"] {
            assert!(c.get(iface).is_some(), "{iface} missing");
        }
    }

    #[test]
    fn idl_files_average_around_paper_size() {
        // §VII: "The average SuperGlue IDL file ... is 37 lines of code".
        let total: usize = idl_sources()
            .iter()
            .map(|(_, s)| superglue_idl::idl_loc(s))
            .sum();
        let avg = total / 6;
        assert!(
            (15..=60).contains(&avg),
            "average IDL LOC {avg} out of expected band"
        );
    }

    #[test]
    fn generated_loc_is_an_order_of_magnitude_larger() {
        let c = compile_all().unwrap();
        for (name, src) in idl_sources() {
            let idl = superglue_idl::idl_loc(src);
            let generated = c.get(name).unwrap().generated_loc();
            assert!(
                generated >= 4 * idl,
                "{name}: generated {generated} LOC vs IDL {idl} LOC — expected a large expansion"
            );
        }
    }

    #[test]
    fn evt_is_global_and_fs_has_resource_data() {
        let c = compile_all().unwrap();
        assert!(c.get("evt").unwrap().stub_spec.model.global);
        assert!(c.get("fs").unwrap().stub_spec.model.resource_has_data);
        assert!(c.get("mm").unwrap().stub_spec.model.close_children);
        assert!(c.get("lock").unwrap().stub_spec.model.blocks);
    }
}
