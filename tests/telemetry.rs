//! End-to-end tests for the recovery-SLO analytics layer: the windowed
//! `--series` telemetry, the `sgstat` availability accounting, and the
//! cross-artifact conservation laws that tie them together.
//!
//! 1. **Golden series.** The `--series` bytes of a fixed-seed Table II
//!    campaign are pinned byte-for-byte
//!    (`tests/golden/table2_series.jsonl`). The CI smoke regenerates
//!    the same file via the `table2` binary and `cmp`s it, so the
//!    in-process path here and the harness path can never diverge.
//!    Regenerate an intentional change with
//!    `UPDATE_GOLDEN=1 cargo test -p sg-bench --test telemetry`.
//! 2. **Conservation across artifacts.** For one campaign, the series,
//!    metrics, and trace are three views of the same event stream:
//!    fault totals, recovery-latency totals, and downtime must agree
//!    exactly between them.
//! 3. **Window semantics.** Series windows index simulated time from
//!    virtual 0, so every shard buckets the same post-boot interval and
//!    shard merges are well defined.

use std::collections::BTreeMap;
use std::path::PathBuf;

use composite::{
    shards_to_jsonl, MetricsRow, SeriesSnapshot, SimTime, TraceEventKind, DEFAULT_SERIES_WINDOW,
    MECHANISMS, SERIES_SCHEMA_VERSION,
};
use sg_bench::stat::{
    avail_report, collapsed_stacks, component_name, evaluate_slo, parse_series_text,
    parse_trace_text, series_report, Conservation, SloPolicy,
};
use sg_bench::{series_to_jsonl, SERVICES};
use sg_swifi::{run_campaign_parallel, CampaignConfig, CampaignMode};

/// The fixed-seed campaign the golden file and the CI smoke pin: it
/// must stay in lockstep with the `table2 --injections 40 --seed 7
/// --series ...` invocation in `.github/workflows/ci.yml`.
fn golden_cfg() -> CampaignConfig {
    CampaignConfig {
        injections: 40,
        seed: 7,
        series_window_ns: DEFAULT_SERIES_WINDOW.0,
        ..CampaignConfig::default()
    }
}

/// Rebuild exactly what `table2 --series` writes for [`golden_cfg`].
fn golden_series_bytes(jobs: usize) -> String {
    let results: Vec<_> = SERVICES
        .iter()
        .map(|iface| run_campaign_parallel(iface, &golden_cfg(), jobs))
        .collect();
    let sections: Vec<(String, &SeriesSnapshot)> = SERVICES
        .iter()
        .zip(&results)
        .map(|(iface, r)| (format!("table2/{iface}/superglue"), &r.series))
        .collect();
    series_to_jsonl(DEFAULT_SERIES_WINDOW.0, &sections)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/table2_series.jsonl")
}

#[test]
fn golden_series_snapshot() {
    let actual = golden_series_bytes(4);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "fixed-seed series drifted from the golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn series_parses_back_and_matches_snapshot_totals() {
    let cfg = golden_cfg();
    let result = run_campaign_parallel("evt", &cfg, 2);
    let text = series_to_jsonl(
        cfg.series_window_ns,
        &[("table2/evt/superglue".to_owned(), &result.series)],
    );
    // The reader accepts only the writer's schema version.
    let parsed = parse_series_text(&text).expect("series parses");
    assert_eq!(parsed.window_ns, cfg.series_window_ns);
    assert_eq!(parsed.rows.len(), result.series.rows.len());
    assert_eq!(
        parsed
            .rows
            .iter()
            .map(|r| r.counts.invocations)
            .sum::<u64>(),
        result.series.total_invocations()
    );
    assert_eq!(
        parsed.rows.iter().map(|r| r.counts.faults).sum::<u64>(),
        result.series.total_faults()
    );
    let report = series_report(&parsed);
    assert!(report.contains("evt"), "report names the component");
    assert!(report.contains(&format!("v{SERIES_SCHEMA_VERSION}")));
}

/// The series, metrics, and trace are three renderings of one event
/// stream — they must agree exactly, per component.
#[test]
fn series_metrics_and_trace_totals_agree() {
    let cfg = CampaignConfig {
        injections: 40,
        seed: 0x5105_7E57,
        trace: true,
        series_window_ns: DEFAULT_SERIES_WINDOW.0,
        mode: CampaignMode::DuringRecovery,
        ..CampaignConfig::default()
    };
    let result = run_campaign_parallel("lock", &cfg, 3);

    // What a series row writes: invocations, faults, the recovery-latency
    // count and total, then each mechanism.
    let fields = |r: &MetricsRow| {
        let lat = &r.recovery_latency;
        let mut v = vec![r.invocations, r.faults, lat.count, lat.total_ns];
        v.extend(r.mechanisms);
        v
    };
    // Series windows summed per component == that component's metrics
    // row, field by field.
    let mut series: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for ((name, _), row) in &result.series.rows {
        let sum = series
            .entry(name)
            .or_insert_with(|| vec![0; 4 + MECHANISMS.len()]);
        for (s, n) in sum.iter_mut().zip(fields(row)) {
            *s += n;
        }
    }
    let metrics: BTreeMap<&str, Vec<u64>> = result
        .metrics
        .rows
        .iter()
        .map(|(name, row)| (name.as_str(), fields(row)))
        .filter(|(_, v)| v.iter().any(|&n| n > 0))
        .collect();
    assert_eq!(series, metrics, "per-component series sums diverge");
    let lock = &metrics["lock"];
    assert!(lock[..4].iter().all(|&n| n > 0), "lock recovered: {lock:?}");

    // Trace-side: downtime conservation plus per-component fault events.
    let jsonl = shards_to_jsonl(&result.trace);
    let shards = parse_trace_text(&jsonl).expect("trace parses");
    let report = avail_report(&shards);
    match report.conservation() {
        Conservation::Ok => {
            let mut trace_faults: BTreeMap<&str, u64> = BTreeMap::new();
            for shard in &shards {
                let faults = shard
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, TraceEventKind::FaultInjected { .. }));
                for ev in faults {
                    *trace_faults
                        .entry(component_name(shard, ev.component))
                        .or_default() += 1;
                }
            }
            let series_faults: BTreeMap<&str, u64> = series
                .iter()
                .filter(|(_, v)| v[1] > 0)
                .map(|(&name, v)| (name, v[1]))
                .collect();
            assert_eq!(
                trace_faults, series_faults,
                "trace fault events diverge from series fault totals"
            );
            let downtime: u64 = report.components.values().map(|c| c.downtime_ns).sum();
            assert_eq!(
                downtime,
                report
                    .components
                    .values()
                    .map(|c| c.resummed_ns)
                    .sum::<u64>(),
                "episode spans must account for all downtime"
            );
        }
        Conservation::Skip => {
            // Ring overflow: attribution incomplete, nothing to check.
        }
        Conservation::Mismatch(bad) => panic!("conservation mismatch: {bad:?}"),
    }
}

#[test]
fn avail_slo_and_critpath_run_on_campaign_trace() {
    let cfg = CampaignConfig {
        injections: 40,
        seed: 7,
        trace: true,
        ..CampaignConfig::default()
    };
    let result = run_campaign_parallel("sched", &cfg, 2);
    let jsonl = shards_to_jsonl(&result.trace);
    let shards = parse_trace_text(&jsonl).expect("trace parses");
    let report = avail_report(&shards);
    let sched = report.components.get("sched").expect("sched row");
    assert!(sched.episodes > 0, "campaign must open episodes");
    assert!(sched.downtime_ns > 0);
    assert!(sched.availability() < 1.0 && sched.availability() > 0.0);
    assert!(sched.mttr_ns() > 0);

    // A generous SLO passes; an impossible one reports both violations.
    let pass = evaluate_slo(
        &report,
        &SloPolicy {
            max_p99_ns: Some(u64::MAX),
            min_availability: Some(0.0),
        },
    );
    assert!(pass.violations.is_empty());
    let fail = evaluate_slo(
        &report,
        &SloPolicy {
            max_p99_ns: Some(1),
            min_availability: Some(1.0),
        },
    );
    assert_eq!(fail.violations.len(), 2);

    // Collapsed stacks carry the component and at least the reboot
    // bucket, with positive values.
    let stacks = collapsed_stacks(&shards);
    assert!(stacks.lines().any(|l| l.starts_with("sched;reboot ")));
    for line in stacks.lines() {
        let (_, value) = line.rsplit_once(' ').expect("value field");
        assert!(value.parse::<u64>().expect("numeric") > 0);
    }
}

/// Windows index simulated time from virtual 0 in every shard, so the
/// same window describes the same post-boot interval and merges sum
/// cell-wise.
#[test]
fn windows_bucket_simulated_time() {
    let cfg = CampaignConfig {
        injections: 40,
        seed: 7,
        series_window_ns: DEFAULT_SERIES_WINDOW.0,
        ..CampaignConfig::default()
    };
    let merged = run_campaign_parallel("tmr", &cfg, 4);
    assert_eq!(merged.series.window_ns, DEFAULT_SERIES_WINDOW.0);
    assert!(!merged.series.rows.is_empty());
    for (component, window) in merged.series.rows.keys() {
        assert!(!component.is_empty());
        // Window indices are dense-ish small integers, not raw
        // timestamps: each covers [w*W, (w+1)*W).
        assert!(
            window.checked_mul(DEFAULT_SERIES_WINDOW.0).is_some(),
            "window {window} must be an index, not a timestamp"
        );
    }
    // The emitted t_start_ns must be the window origin.
    let text = series_to_jsonl(
        cfg.series_window_ns,
        &[("table2/tmr/superglue".to_owned(), &merged.series)],
    );
    let parsed = parse_series_text(&text).expect("parses");
    for row in &parsed.rows {
        assert_eq!(row.t_start_ns, row.window * parsed.window_ns);
    }
}

/// Merging snapshots with different window widths is a logic error and
/// must fail loudly rather than silently misbucket.
#[test]
#[should_panic(expected = "different window widths")]
fn merging_mismatched_windows_panics() {
    let a = SeriesSnapshot {
        window_ns: 1_000,
        ..SeriesSnapshot::default()
    };
    let mut b = SeriesSnapshot {
        window_ns: 2_000,
        ..SeriesSnapshot::default()
    };
    // Insert a row into each so neither merge side is the empty
    // identity.
    let row = MetricsRow {
        invocations: 1,
        ..MetricsRow::default()
    };
    b.rows.insert(("x".to_owned(), 0), row.clone());
    let mut a = a;
    a.rows.insert(("x".to_owned(), 0), row);
    a.merge(&b);
}

/// `window_ns = 0` would divide by zero on the hot path; enabling it
/// must be rejected up front.
#[test]
#[should_panic(expected = "window must be positive")]
fn zero_window_rejected() {
    let mut k = composite::Kernel::new();
    k.enable_telemetry(SimTime(0));
}
