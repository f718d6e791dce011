//! `sgperf` command line.
//!
//! ```text
//! sgperf run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--spans PATH] [--record PATH]
//! sgperf compare PARENT_DIR/*.json CHANGE_DIR/*.json
//! ```
//!
//! `run` prints the report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. It exits 0 when every
//! output check passed and 2 (after the report) when one failed, or on a
//! usage error. The seed defaults to [`sg_perf::DEFAULT_SEED`], the
//! time budget to 10 s; the benchmark harness passes both. `--trace 1`
//! writes the spans as JSON lines to `--spans` (default
//! `.sgperf/spans-NAME-SEED.jsonl`); `--record` writes the full record
//! `compare` reads.

use std::path::Path;
use std::process::ExitCode;

use sg_perf::workload::{Sizes, Workload};
use sg_perf::{compare, run, span, RunOptions, DEFAULT_SEED};

const USAGE: &str = "usage:
  sgperf run --workload campaign|campaign-traced|web|pipeline|invoke [--seed N]
             [--seconds S] [--trace 0|1] [--spans PATH] [--record PATH]
  sgperf compare PARENT_DIR/*.json CHANGE_DIR/*.json";

struct RunArgs {
    opts: RunOptions,
    spans: Option<String>,
    record: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds takes a non-negative number, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--spans" => spans = Some(value()?.clone()),
            "--record" => record = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        opts: RunOptions {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            sizes: Sizes::FULL,
        },
        spans,
        record,
    })
}

/// Write `text` to `path` through a temporary file and a rename, so a
/// reader never sees half a file.
fn write_atomic(path: &str, text: &str) -> Result<(), String> {
    let p = Path::new(path);
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, p).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let report = run(&a.opts);
    print!("{}", report.human());
    if a.opts.trace {
        let path = a.spans.unwrap_or_else(|| {
            format!(
                ".sgperf/spans-{}-{}.jsonl",
                a.opts.workload.name(),
                a.opts.seed
            )
        });
        let text = span::to_jsonl(&report.spans, a.opts.workload.name(), &report.manifest);
        write_atomic(&path, &text)?;
        println!("spans written to {path} ({} spans)", report.spans.len());
    }
    if let Some(path) = &a.record {
        write_atomic(path, &report.record().to_pretty())?;
        println!("record written to {path}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &report.violations {
            eprintln!("sgperf: check failed: {v}");
        }
        if report.violations.is_empty() {
            eprintln!("sgperf: check failed: {} ops failed", report.failed);
        }
        Ok(ExitCode::from(2))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() > 1 => compare::compare(&args[1..]).map(|text| {
            print!("{text}");
            ExitCode::SUCCESS
        }),
        _ => Err("no command given".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("sgperf: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
