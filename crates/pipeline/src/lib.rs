//! The streaming actor-pipeline macro-benchmark: peek-before-commit
//! channel recovery with dead-letter escalation.
//!
//! A Generator → Worker → Logger pipeline of components communicates
//! over two bounded channels, each a SuperGlue-protected
//! [`channel::ChannelService`] described by `idl/chan.sg`. The spec's
//! `sm_channel`/`sm_cursor` annotations make the consumer's committed
//! cursor tracked σ-state, so a micro-rebooted channel is re-seated at
//! the last commit by the ordinary G0 restore upcall (**CR0**) and the
//! pipeline's committed output is exactly-once under fault injection.
//! Messages that fault their consumer `poison_limit` times escalate to
//! the dead-letter queue (**DL0**) instead of a reboot storm.
//!
//! * [`channel`] — the bounded-channel service (ring persisted through
//!   storage, volatile endpoint seats, per-message fault counters);
//! * [`stages`] — the three stages as executor workloads plus typed
//!   `chan` client wrappers;
//! * [`bed`] — assembly, SWIFI fault schedule, and the run driver with
//!   a closed-form expected-output oracle.

pub mod bed;
pub mod channel;
pub mod stages;

pub use bed::{
    build_pipeline, expected_output, pipeline_cost_model, run_pipeline_rep, run_pipeline_variant,
    PipelineBed, PipelineConfig, PipelineResult, PipelineVariant,
};
pub use channel::ChannelService;

/// Channel number of the Generator → Worker edge.
pub const CHAN_A: i64 = 0;
/// Channel number of the Worker → Logger edge.
pub const CHAN_B: i64 = 1;

/// The channel interface's SuperGlue IDL source (`idl/chan.sg`).
pub const CHAN_IDL: &str = include_str!("../../../idl/chan.sg");

/// Compile the channel interface to its stub spec and artifacts. The
/// first call compiles; every later call, from any thread, returns the
/// same compilation.
///
/// # Panics
///
/// If the shipped `chan.sg` fails to compile — a build-breaking bug, not
/// a runtime condition (the lint suite and CI gate the spec).
#[must_use]
pub fn compile_chan() -> &'static superglue_compiler::Compilation {
    static CHAN: std::sync::OnceLock<superglue_compiler::Compilation> = std::sync::OnceLock::new();
    CHAN.get_or_init(|| {
        let spec = superglue_idl::compile_interface("chan", CHAN_IDL)
            .expect("shipped chan.sg must be valid");
        superglue_compiler::compile(&spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_idl_compiles_with_channel_cursor_annotations() {
        let c = compile_chan();
        let s = &c.stub_spec;
        assert!(s.model.global, "endpoints live in a global namespace");
        assert!(s.channel.is_some(), "sm_channel must be lowered");
        assert!(s.cursor_commit.is_some(), "sm_cursor must be lowered");
        let slot = s.cursor_slot.expect("cursor metadata slot interned");
        assert_eq!(s.meta_names[slot], "cursor");
    }
}
