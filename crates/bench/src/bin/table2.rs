//! Table II harness: the SWIFI fault-injection campaign over all six
//! system services, sharded across worker threads.
//!
//! Run with `cargo run -p sg-bench --release --bin table2`. Options:
//!
//! * `--injections N` — faults per service (default 500, the paper's
//!   count);
//! * `--seed S` — RNG seed (printed for reproducibility);
//! * `--variant c3|superglue` — which protection runs (default
//!   superglue);
//! * `--jobs N` — worker threads (default: available parallelism).
//!   Output is bit-identical for every value of `--jobs`;
//! * `--json PATH` — additionally dump the rows as JSON;
//! * `--metrics PATH` — dump per-component recovery-mechanism counters
//!   as JSON-lines (one line per component per service campaign);
//! * `--trace PATH` — record a flight-recorder trace of every shard as
//!   JSON-lines at PATH (analyze with `sgtrace`; `sgtrace chrome` renders
//!   it for Perfetto). Byte-identical for every `--jobs` value;
//! * `--series PATH` — dump windowed recovery telemetry (per component,
//!   per simulated-time window: invocations, faults, mechanism firings,
//!   recovery-latency quantiles) as JSON-lines for `sgstat series`.
//!   Byte-identical for every `--jobs` value;
//! * `--series-window NS` — window width in simulated nanoseconds
//!   (default 1,000,000 = 1ms);
//! * `--correlated` — run the Table II-B correlated-fault campaign
//!   instead: every service under the `burst`, `during-recovery`, and
//!   `cascade` regimes, with the degraded / watchdog-detected /
//!   nested-recovered columns;
//! * `--elide` — interpret the certified tracking-elision stub specs
//!   (`sm_elide` fast paths). Every output byte — rows, `--json`,
//!   `--metrics`, `--trace` — must be identical to a run without the
//!   flag; the CI differential diffs the two.

use std::time::Instant;

use composite::{default_jobs, parallel_map_indexed, Json};
use sg_bench::{Artifacts, HarnessArgs};
use sg_swifi::{
    merge_shards, run_shard, shard_sizes, CampaignConfig, CampaignMode, CampaignResult,
};
use superglue::testbed::Variant;

const IFACES: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];

/// The Table II-B correlated regimes, in output order.
const MODES: [(&str, CampaignMode); 3] = [
    ("burst", CampaignMode::Burst { flips: 3 }),
    ("during-recovery", CampaignMode::DuringRecovery),
    ("cascade", CampaignMode::Cascade),
];

const USAGE: &str = "usage: table2 [--injections N] [--seed S] [--variant c3|superglue] \
                     [--mask HEX] [--jobs N] [--correlated] [--elide] [--json PATH] \
                     [--metrics PATH] [--trace PATH] [--series PATH] [--series-window NS]";

fn main() {
    let mut args = HarnessArgs::from_env(USAGE);
    let mut cfg = CampaignConfig::default();
    let correlated = args.flag("--correlated");
    // Interpret the certified-elision stubs. Every output byte (rows,
    // json, metrics, traces) must be identical to a run without the
    // flag — only proven-dead bookkeeping differs.
    cfg.elide = args.flag("--elide");
    cfg.injections = args.parsed("--injections").unwrap_or(cfg.injections);
    cfg.seed = args.parsed("--seed").unwrap_or(cfg.seed);
    cfg.variant = args
        .parse_with("--variant", |v| match v {
            "c3" => Ok(Variant::C3),
            "superglue" => Ok(Variant::SuperGlue),
            _ => Err("expected c3 or superglue"),
        })
        .unwrap_or(cfg.variant);
    cfg.fault_mask = args
        .parse_with("--mask", |v| {
            u32::from_str_radix(v.trim_start_matches("0x"), 16)
        })
        .unwrap_or(cfg.fault_mask);
    let jobs = args.parsed("--jobs").unwrap_or_else(default_jobs);
    let mut out = Artifacts::from_args(
        &mut args,
        &["--json", "--metrics", "--trace", "--series"],
        composite::DEFAULT_SERIES_WINDOW.0,
    );
    cfg.trace = out.trace.is_some();
    cfg.series_window_ns = out.series_window;
    if let Err(e) = cfg.validate() {
        args.fail(&e.to_string());
    }
    args.finish([]);

    let variant_name = match cfg.variant {
        Variant::SuperGlue => "COMPOSITE+SuperGlue",
        Variant::C3 => "COMPOSITE+C3",
        Variant::Bare => "COMPOSITE (bare)",
    };
    println!(
        "SWIFI fault-injection campaign: {} injections/component, seed 0x{:X}, mask 0x{:08X}, {variant_name}, {jobs} jobs",
        cfg.injections, cfg.seed, cfg.fault_mask,
    );

    if correlated {
        run_correlated(&cfg, jobs, &mut out);
    } else {
        run_single(&cfg, jobs, &mut out);
    }
    out.commit();
}

/// The Table II campaign: every (service, shard) pair in one task pool
/// so all workers stay busy across service boundaries, merged per
/// service in shard order — bit-identical for any job count.
fn run_single(cfg: &CampaignConfig, jobs: usize, out: &mut Artifacts) {
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let start = Instant::now();
    let shard_results = parallel_map_indexed(IFACES.len() * shards_per_iface, jobs, |task| {
        run_shard(
            IFACES[task / shards_per_iface],
            cfg,
            task % shards_per_iface,
        )
    });
    let results: Vec<CampaignResult> = shard_results
        .chunks(shards_per_iface)
        .zip(IFACES)
        .map(|(chunk, iface)| merge_shards(iface, chunk.iter()))
        .collect();
    let elapsed = start.elapsed();

    println!("{}", sg_swifi::CampaignRow::table_header());
    for r in &results {
        println!("{}", r.row.table_line());
    }

    println!();
    println!("paper (Table II, 500 injections/component): activation 93.8-98.4%,");
    println!("success 88.6-96.1%, Sched worst for segfaults (10.8% of injections),");
    println!("propagation <=0.4%, hangs <=0.8%.");
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    out.rows(results.iter().map(|r| {
        let mut j = Json::object();
        j.push("component", r.row.component.as_str())
            .push("injected", r.row.injected)
            .push("recovered", r.row.recovered)
            .push("segfault", r.row.segfault)
            .push("propagated", r.row.propagated)
            .push("other", r.row.other)
            .push("undetected", r.row.undetected)
            .push("activation_ratio", r.row.activation_ratio())
            .push("success_rate", r.row.success_rate());
        j
    }));
    let variant = cfg.variant.slug();
    let context = |iface: &str| format!("table2/{iface}/{variant}");
    out.metrics(
        IFACES
            .iter()
            .zip(&results)
            .map(|(iface, r)| r.metrics.to_json_lines(&context(iface))),
    );
    out.trace(results.iter().flat_map(|r| r.trace.iter().cloned()));
    out.series(
        IFACES
            .iter()
            .zip(&results)
            .map(|(iface, r)| (context(iface), &r.series)),
    );
}

/// The Table II-B campaign: every (mode, service, shard) triple in one
/// flattened task pool, merged per (mode, service) in shard order —
/// byte-identical output for any `--jobs` value.
fn run_correlated(cfg: &CampaignConfig, jobs: usize, out: &mut Artifacts) {
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let per_mode = IFACES.len() * shards_per_iface;
    let start = Instant::now();
    let shard_results = parallel_map_indexed(MODES.len() * per_mode, jobs, |task| {
        let mut mcfg = *cfg;
        mcfg.mode = MODES[task / per_mode].1;
        let rest = task % per_mode;
        run_shard(
            IFACES[rest / shards_per_iface],
            &mcfg,
            rest % shards_per_iface,
        )
    });
    let results: Vec<(usize, &str, CampaignResult)> = shard_results
        .chunks(shards_per_iface)
        .enumerate()
        .map(|(i, chunk)| {
            let iface = IFACES[i % IFACES.len()];
            (i / IFACES.len(), iface, merge_shards(iface, chunk.iter()))
        })
        .collect();
    let elapsed = start.elapsed();

    for (mode_i, (mode_name, mode)) in MODES.iter().enumerate() {
        let regime = match mode {
            CampaignMode::Burst { flips } => format!("{mode_name} ({flips} flips/injection)"),
            _ => (*mode_name).to_owned(),
        };
        println!();
        println!("Table II-B (correlated faults) — regime: {regime}");
        println!("{}", sg_swifi::CampaignRow::correlated_header());
        for (_, _, r) in results.iter().filter(|(m, _, _)| *m == mode_i) {
            println!("{}", r.row.correlated_line());
        }
    }
    println!();
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    out.rows(results.iter().map(|(mode_i, _, r)| {
        let mut j = Json::object();
        j.push("mode", MODES[*mode_i].0)
            .push("component", r.row.component.as_str())
            .push("injected", r.row.injected)
            .push("recovered", r.row.recovered)
            .push("segfault", r.row.segfault)
            .push("propagated", r.row.propagated)
            .push("other", r.row.other)
            .push("undetected", r.row.undetected)
            .push("degraded", r.row.degraded)
            .push("watchdog_detected", r.row.watchdog_detected)
            .push("nested_recovered", r.row.nested_recovered)
            .push("success_rate", r.row.success_rate());
        j
    }));
    let variant = cfg.variant.slug();
    let context =
        |mode_i: usize, iface: &str| format!("table2b/{}/{iface}/{variant}", MODES[mode_i].0);
    out.metrics(
        results
            .iter()
            .map(|(mode_i, iface, r)| r.metrics.to_json_lines(&context(*mode_i, iface))),
    );
    out.trace(results.iter().flat_map(|(_, _, r)| r.trace.iter().cloned()));
    out.series(
        results
            .iter()
            .map(|(mode_i, iface, r)| (context(*mode_i, iface), &r.series)),
    );
}
