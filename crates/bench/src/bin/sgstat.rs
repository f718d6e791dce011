//! `sgstat`: recovery-SLO analytics over the harnesses' JSON-lines
//! artifacts (`--trace`, `--series`, `--metrics`).
//!
//! Where `sgtrace` answers *what happened* inside individual recovery
//! episodes, `sgstat` answers *how well the system kept its promises*:
//!
//! * `sgstat series SERIES.jsonl` — per-component summary of the
//!   windowed telemetry a harness wrote with `--series`: invocation /
//!   fault / mechanism totals plus the worst window by fault count and
//!   by recovery-latency p99.
//! * `sgstat avail TRACE.jsonl` — availability, MTTR, and MTBF per
//!   component from fault → `episode_end` spans (nested episodes,
//!   watchdog fires, degraded windows, and cold restarts included),
//!   with a conservation audit: independently re-summed timed spans
//!   must equal the kernel-attributed downtime (exit 1 on mismatch,
//!   SKIP when the ring dropped recovery-class events).
//! * `sgstat critpath TRACE.jsonl [--collapse]` — the dominant
//!   mechanism chain of every episode and whole-trace bucket ranking;
//!   `--collapse` emits flamegraph collapsed stacks instead.
//! * `sgstat export METRICS.jsonl` — the `--metrics` dump re-rendered
//!   as an OpenMetrics text exposition (quantiles recomputed from the
//!   shipped log₂ histograms).
//! * `sgstat slo TRACE.jsonl [--max-p99-ns N] [--min-availability X]`
//!   — gate a trace against an SLO policy; any violation (including a
//!   failed conservation audit) exits 1, so CI can enforce
//!   recovery-latency and availability budgets.
//! * `sgstat agree METRICS.jsonl [--series SERIES.jsonl] [--trace
//!   TRACE.jsonl]` — re-derive the metrics from the series (per context
//!   and component) and from the trace (per component, SKIP where the
//!   ring dropped events); exit 1 naming every (context, component,
//!   field) that disagrees.
//!
//! Exit status: 0 clean, 1 a finding, 2 a usage error or an unreadable
//! or malformed input.

use std::process::ExitCode;

use sg_bench::stat::{
    agree, avail_report, collapsed_stacks, critpath_report, evaluate_slo, openmetrics_from_metrics,
    parse_metrics, parse_series, parse_trace, series_report, us, Conservation, SloPolicy,
};
use sg_bench::HarnessArgs;

fn cmd_series(path: &str) -> Result<ExitCode, String> {
    print!("{}", series_report(&parse_series(path)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_avail(path: &str) -> Result<ExitCode, String> {
    let report = avail_report(&parse_trace(path)?);
    print!("{}", report.render());
    Ok(match report.conservation() {
        Conservation::Mismatch(_) => ExitCode::FAILURE,
        Conservation::Ok | Conservation::Skip => ExitCode::SUCCESS,
    })
}

fn cmd_critpath(path: &str, collapse: bool) -> Result<ExitCode, String> {
    let report = if collapse {
        collapsed_stacks
    } else {
        critpath_report
    };
    print!("{}", report(&parse_trace(path)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_export(path: &str) -> Result<ExitCode, String> {
    print!("{}", openmetrics_from_metrics(&parse_metrics(path)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_slo(path: &str, policy: &SloPolicy) -> Result<ExitCode, String> {
    let slo = evaluate_slo(&avail_report(&parse_trace(path)?), policy);
    println!(
        "observed: availability {:.6}%, p99 recovery {:.1}us over {} episode(s)",
        slo.availability * 100.0,
        us(slo.p99_ns),
        slo.episodes
    );
    if slo.conservation_skipped {
        println!("conservation: SKIP (ring dropped recovery-class events)");
    }
    if slo.violations.is_empty() {
        println!("SLO: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("SLO: FAIL");
        for v in &slo.violations {
            println!("  {v}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_agree(
    path: &str,
    series: Option<String>,
    trace: Option<String>,
) -> Result<ExitCode, String> {
    if series.is_none() && trace.is_none() {
        return Err("agree needs --series or --trace".to_owned());
    }
    let metrics = parse_metrics(path)?;
    let series = series.as_deref().map(parse_series).transpose()?;
    let trace = trace.as_deref().map(parse_trace).transpose()?;
    let report = agree(&metrics, series.as_ref(), trace.as_deref());
    for line in &report.lines {
        println!("{line}");
    }
    Ok(if report.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const USAGE: &str = "usage: sgstat series SERIES.jsonl \
                     | sgstat avail TRACE.jsonl \
                     | sgstat critpath TRACE.jsonl [--collapse] \
                     | sgstat export METRICS.jsonl \
                     | sgstat slo TRACE.jsonl [--max-p99-ns N] [--min-availability X] \
                     | sgstat agree METRICS.jsonl [--series SERIES.jsonl] [--trace TRACE.jsonl]";

fn main() -> ExitCode {
    let mut args = HarnessArgs::from_env(USAGE);
    let result = match args.subcommand().as_str() {
        "series" => cmd_series(&args.finish(["SERIES"])[0]),
        "avail" => cmd_avail(&args.finish(["TRACE"])[0]),
        "critpath" => {
            let collapse = args.flag("--collapse");
            cmd_critpath(&args.finish(["TRACE"])[0], collapse)
        }
        "export" => cmd_export(&args.finish(["METRICS"])[0]),
        "slo" => {
            let policy = SloPolicy {
                max_p99_ns: args.parsed("--max-p99-ns"),
                min_availability: args.parsed_in("--min-availability", 0.0..=1.0),
            };
            cmd_slo(&args.finish(["TRACE"])[0], &policy)
        }
        "agree" => {
            let (series, trace) = (args.string("--series"), args.string("--trace"));
            cmd_agree(&args.finish(["METRICS"])[0], series, trace)
        }
        other => args.fail(&format!("unknown subcommand {other:?}")),
    };
    sg_bench::analyzer_exit(result)
}
