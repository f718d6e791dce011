//! CI-facing model-check smoke: the property-based recovery checker
//! must pass its pinned budgets on every commit.
//!
//! The `modelcheck` binary runs the same layers with shrinking and
//! artifact output; this test pins the CI acceptance floor — ten
//! thousand random-walk steps through the pure core with all five
//! recovery invariants checked after every step — so a regression fails
//! `cargo test` even without the workflow step.

use composite::{run_check, step, CheckConfig, KernelWalk, Model, SplitMix64};
use sg_bench::modelck::{
    event_from_json, event_to_json, ElideDiffWalk, SystemWalk, ELIDE_SEED_MIX, SYSTEM_SEED_MIX,
};

/// The acceptance floor: 10k steps, fixed seed, no violation.
#[test]
fn core_walk_survives_ten_thousand_steps() {
    let mut walk = KernelWalk::new();
    let report = run_check(
        &mut walk,
        &CheckConfig {
            seed: 0xC3_5EED,
            steps: 10_000,
            max_shrink_iters: 4_000,
        },
    );
    assert_eq!(report.steps_run, 10_000);
    assert!(
        report.passed(),
        "core invariant violated: {:?}",
        report.counterexample.map(|c| c.violation)
    );
}

/// Seed diversity: shorter walks from unrelated streams.
#[test]
fn core_walk_holds_across_seeds() {
    for seed in [1_u64, 0xFACADE, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let mut walk = KernelWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed,
                steps: 2_000,
                max_shrink_iters: 2_000,
            },
        );
        assert!(
            report.passed(),
            "seed {seed:#x} violated: {:?}",
            report.counterexample.map(|c| c.violation)
        );
    }
}

/// The system layer: a short walk through the full SuperGlue testbed,
/// including the trace-level checks that only run at quiescence.
#[test]
fn system_walk_smoke_with_trace_checks() {
    let mut walk = SystemWalk::new();
    let report = run_check(
        &mut walk,
        &CheckConfig {
            seed: 0x5157_3A11,
            steps: 150,
            max_shrink_iters: 200,
        },
    );
    assert!(
        report.passed(),
        "system invariant violated: {:?}",
        report.counterexample.map(|c| c.violation)
    );
    let trace_violations = walk.finish();
    assert!(
        trace_violations.is_empty(),
        "trace-level violations: {trace_violations:?}"
    );
}

/// Reboot storms that degrade a service in the middle of a workload
/// iteration: at `modelcheck --seed` 3, 8 and 16 the system walk, the
/// elision walk or both meet a `Degraded` rejection after the
/// iteration started, which must count as the fail-fast window, not as
/// a violation or a panic.
#[test]
fn walks_hold_when_a_storm_degrades_a_service_mid_iteration() {
    let config = |seed| CheckConfig {
        seed,
        steps: 3_000,
        max_shrink_iters: 400,
    };
    for seed in [3_u64, 8, 16] {
        let mut system = SystemWalk::new();
        let report = run_check(&mut system, &config(seed ^ SYSTEM_SEED_MIX));
        assert!(
            report.passed(),
            "seed {seed}: system invariant violated: {:?}",
            report.counterexample.map(|c| c.violation)
        );
        assert_eq!(system.finish(), Vec::new(), "seed {seed}");
        let mut elide = ElideDiffWalk::new();
        let report = run_check(&mut elide, &config(seed ^ ELIDE_SEED_MIX));
        assert!(
            report.passed(),
            "seed {seed}: elided run diverged: {:?}",
            report.counterexample.map(|c| c.violation)
        );
        assert_eq!(elide.finish(), Vec::new(), "seed {seed}");
    }
}

/// Counterexample artifacts round-trip: every event a walk generates
/// serializes to JSON, parses back, and replays through the pure step
/// function to the same final state — the contract `sgtrace replay`
/// depends on.
#[test]
fn artifact_events_round_trip_and_replay() {
    let mut walk = KernelWalk::new();
    walk.reset();
    let mut rng = SplitMix64::new(0x2E1A);
    let mut events = Vec::new();
    for _ in 0..500 {
        let ev = walk.generate(&mut rng);
        walk.apply(&ev).expect("clean walk holds invariants");
        events.push(ev);
    }

    // Serialize, parse back, and compare.
    let decoded: Vec<_> = events
        .iter()
        .map(|ev| {
            let j = event_to_json(ev);
            event_from_json(&j).unwrap_or_else(|e| panic!("round-trip failed for {j:?}: {e}"))
        })
        .collect();
    assert_eq!(events, decoded);

    // Replay the decoded sequence over the same initial topology.
    let mut fresh = KernelWalk::new();
    fresh.reset();
    let mut state = fresh.state.clone();
    for ev in &decoded {
        state = step(&state, ev).0;
    }
    assert_eq!(
        state, walk.state,
        "replayed decoded events must reach the identical state"
    );
}
