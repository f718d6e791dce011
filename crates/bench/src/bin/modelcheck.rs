//! `modelcheck`: the property-based recovery model checker.
//!
//! Two layers, both driven by the same deterministic
//! generate/apply/shrink harness (`composite_core::check`):
//!
//! * **core** — [`composite::KernelWalk`] random-walks the pure kernel
//!   transition function (`step`) through fault injections, nested
//!   episodes, watchdog expiries, reboot storms, and admission traffic,
//!   recomputing five recovery invariants from independent shadow state
//!   after every step.
//! * **system** — [`sg_bench::modelck::SystemWalk`] random-walks a full
//!   SuperGlue testbed (IDL stubs, storage, booter runtime) and checks
//!   the paper-level invariants: no lost wakeups, bounded episode depth,
//!   descriptor-leak freedom at quiescence, σ-table/trace-counter
//!   agreement, and episode-latency conservation.
//!
//! On a violation the harness shrinks the event sequence to a minimal
//! reproducer, writes it as a JSON artifact (`--out`, consumable by
//! `sgtrace replay` for the core layer), prints it, and exits 1. A
//! usage error, or an `--out` whose directory is missing, exits 2
//! before any walk; an `--out` that still cannot be written exits 2
//! after it.
//!
//! * **elide** — [`sg_bench::modelck::ElideDiffWalk`] drives a
//!   fully-tracked and a certified-elision testbed through the identical
//!   randomized fault schedule and requires them observationally
//!   indistinguishable after every operation, down to byte-identical
//!   flight-recorder traces (the dynamic check behind SG060–SG065).
//!
//! ```text
//! modelcheck [--core-steps N] [--system-steps N] [--elide-steps N] [--seed S] [--out PATH]
//! ```

use std::process::ExitCode;

use composite::{run_check, CheckConfig, Counterexample, Json, KernelWalk};
use sg_bench::modelck::{
    event_to_json, sysop_to_json, ElideDiffWalk, SystemWalk, ELIDE_SEED_MIX, SYSTEM_SEED_MIX,
};
use sg_bench::{Artifacts, HarnessArgs};

const USAGE: &str = "usage: modelcheck [--core-steps N] [--system-steps N] [--elide-steps N] \
                     [--seed S] [--out PATH]";

/// Print the shrunk counterexample and return it, with its layer, as
/// the JSON artifact `--out` receives.
fn report_failure<E, F: Fn(&E) -> Json>(
    layer: &'static str,
    seed: u64,
    cex: &Counterexample<E>,
    to_json: F,
) -> (&'static str, Json) {
    println!(
        "FAIL [{layer}] invariant {:?} violated: {}",
        cex.violation.invariant, cex.violation.detail
    );
    println!(
        "  shrunk to {} events (from {} generated, {} shrink iterations):",
        cex.events.len(),
        cex.original_len,
        cex.shrink_iterations
    );
    let mut lines: Vec<Json> = Vec::new();
    for (i, ev) in cex.events.iter().enumerate() {
        let mut j = to_json(ev);
        j.push("span", i as u64);
        println!("    [{i:>3}] {}", j.to_line());
        lines.push(j);
    }
    let mut artifact = Json::object();
    artifact
        .push("model", layer)
        .push("seed", seed)
        .push("invariant", cex.violation.invariant)
        .push("detail", cex.violation.detail.as_str())
        .push("original_len", cex.original_len as u64)
        .push("shrink_iterations", cex.shrink_iterations)
        .push("events", lines);
    (layer, artifact)
}

fn main() -> ExitCode {
    let mut args = HarnessArgs::from_env(USAGE);
    let core_steps: usize = args.parsed("--core-steps").unwrap_or(10_000);
    let system_steps: usize = args.parsed("--system-steps").unwrap_or(300);
    let elide_steps: usize = args.parsed("--elide-steps").unwrap_or(300);
    let seed = args
        .parse_with("--seed", |v| {
            v.strip_prefix("0x")
                .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16))
        })
        .unwrap_or(0xC3_5EED);
    let path = args.string("--out");
    if let Some(path) = &path {
        args.require_dir_of(path);
    }
    let path = path.unwrap_or_else(|| "target/modelcheck-counterexample.json".to_owned());
    args.finish([]);
    let mut failed = false;
    // The last failing layer's counterexample, which `--out` receives.
    let mut last: Option<(&str, Json)> = None;

    if core_steps > 0 {
        let mut walk = KernelWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed,
                steps: core_steps,
                max_shrink_iters: 4_000,
            },
        );
        match &report.counterexample {
            None => println!(
                "ok   [core]   {} random-walk steps, 5 invariants checked after every step \
                 (seed {:#x})",
                report.steps_run, seed
            ),
            Some(cex) => {
                failed = true;
                last = Some(report_failure("core", seed, cex, event_to_json));
            }
        }
    }

    if system_steps > 0 {
        let mut walk = SystemWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: seed ^ SYSTEM_SEED_MIX,
                steps: system_steps,
                max_shrink_iters: 400,
            },
        );
        match &report.counterexample {
            None => {
                // Per-step invariants held; now the trace-level pair.
                let trace_violations = walk.finish();
                if trace_violations.is_empty() {
                    println!(
                        "ok   [system] {} operations against the SuperGlue testbed, \
                         trace/σ-table agreement and latency conservation verified",
                        report.steps_run
                    );
                } else {
                    failed = true;
                    for v in &trace_violations {
                        println!("FAIL [system] invariant {:?}: {}", v.invariant, v.detail);
                    }
                }
            }
            Some(cex) => {
                failed = true;
                last = Some(report_failure("system", seed, cex, sysop_to_json));
            }
        }
    }

    if elide_steps > 0 {
        let mut walk = ElideDiffWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: seed ^ ELIDE_SEED_MIX,
                steps: elide_steps,
                max_shrink_iters: 400,
            },
        );
        match &report.counterexample {
            None => {
                let trace_violations = walk.finish();
                if trace_violations.is_empty() {
                    println!(
                        "ok   [elide]  {} lock-step operations: certified-elision stubs \
                         observationally identical to fully tracked (incl. trace bytes)",
                        report.steps_run
                    );
                } else {
                    failed = true;
                    for v in &trace_violations {
                        println!("FAIL [elide] invariant {:?}: {}", v.invariant, v.detail);
                    }
                }
            }
            Some(cex) => {
                failed = true;
                last = Some(report_failure("elide", seed, cex, sysop_to_json));
            }
        }
    }

    let mut out = Artifacts::default();
    if let Some((layer, artifact)) = last {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut done = format!("  counterexample written to {path}");
        if layer == "core" {
            done.push_str(&format!(
                "\n  time-travel through it with: sgtrace replay {path} --to <span>"
            ));
        }
        out.stage([(path.into(), artifact.to_pretty())], done);
    }
    out.commit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
