//! Windowed recovery telemetry: per-component, per-simulated-time-window
//! activity series.
//!
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) answers "what
//! happened over the whole run"; this module answers "*when* did it
//! happen". While a harness's `--series` flag is on, the kernel's
//! [`Counters`](crate::metrics::Counters) table keeps a [`MetricsRow`]
//! per component per fixed-width simulated-time window beside the run
//! totals, written by the same call that writes the totals — so the
//! series sums to the totals by construction.
//!
//! Harnesses snapshot the window rows per run into a [`SeriesSnapshot`]
//! (name-keyed plain data, `Send`) and merge snapshots shard-by-shard in
//! shard order, exactly like metrics: every campaign shard simulates its
//! own machine from virtual time zero, so window `w` of shard `a` and
//! window `w` of shard `b` describe the same post-boot interval and sum
//! meaningfully. The merged dump is byte-identical for any `--jobs`
//! value. Quantiles are estimated from the existing
//! [`LatencyStat::quantile_ns`](crate::metrics::LatencyStat::quantile_ns)
//! log₂ histogram — no extra hot-path state.

use std::collections::BTreeMap;

use crate::json::{Json, JsonWriter};
use crate::kernel::Kernel;
use crate::metrics::{MetricsRow, MECHANISMS};
use crate::time::SimTime;

/// Schema version of the `--series` JSON-lines emitter (the `"v"` field
/// on the header and every row). Bump when a field changes meaning.
///
/// * **v2** — the per-window `mechanisms` object gained the `DL0` and
///   `CR0` channel-recovery counters, appended after `U0` (same change
///   as metrics schema v2).
/// * **v1** — initial schema: the paper's eight mechanisms (R0–U0).
pub const SERIES_SCHEMA_VERSION: u64 = 2;

/// Default window width for the harnesses' `--series` flag: 1 ms of
/// simulated time, fine enough to resolve individual recovery episodes
/// in the micro-campaigns.
pub const DEFAULT_SERIES_WINDOW: SimTime = SimTime(1_000_000);

/// A point-in-time, name-resolved copy of the series — plain data,
/// `Send`, mergeable across campaign shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width in simulated nanoseconds (0 for an empty default
    /// snapshot; set on first merge or capture).
    pub window_ns: u64,
    /// Window rows keyed `(component name, window index)` — BTreeMap,
    /// so dump order is deterministic.
    pub rows: BTreeMap<(String, u64), MetricsRow>,
}

impl SeriesSnapshot {
    /// Snapshot the window rows of the kernel's counters, resolving
    /// component ids to names (empty while the windows are off). A
    /// window whose only counts are fields the series omits (reboots,
    /// faulted invocations, ...) has no row.
    #[must_use]
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let counters = kernel.counters();
        if counters.window_ns() == 0 {
            return Self::default();
        }
        let mut rows: BTreeMap<(String, u64), MetricsRow> = BTreeMap::new();
        for c in kernel.component_ids() {
            let (Some(name), Some(windows)) = (kernel.component_name(c), counters.windows(c))
            else {
                continue;
            };
            for (&w, row) in windows.iter().filter(|(_, row)| row.in_series()) {
                rows.entry((name.to_owned(), w)).or_default().merge(row);
            }
        }
        Self {
            window_ns: counters.window_ns(),
            rows,
        }
    }

    /// Merge another snapshot into this one (order-insensitive sums over
    /// aligned windows, so merging shard snapshots in shard order is
    /// bit-identical for any thread count).
    ///
    /// # Panics
    ///
    /// Panics when the two snapshots were captured with different window
    /// widths — their windows would not describe the same intervals.
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        if other.window_ns == 0 {
            return;
        }
        if self.window_ns == 0 {
            self.window_ns = other.window_ns;
        }
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge series with different window widths"
        );
        for (key, row) in &other.rows {
            self.rows.entry(key.clone()).or_default().merge(row);
        }
    }

    /// Render as JSON-lines: one object per `(component, window)` row in
    /// key order, each carrying the harness-supplied `context` label and
    /// p50/p90/p99 recovery-latency quantiles estimated from the log₂
    /// histogram. The caller prepends one [`series_header`] line per
    /// file. Each row is streamed straight into the output.
    #[must_use]
    pub fn to_json_lines(&self, context: &str) -> String {
        let mut out = String::new();
        for ((name, window), row) in &self.rows {
            let mut w = JsonWriter::compact(&mut out);
            w.begin_object();
            w.key("v").u64(SERIES_SCHEMA_VERSION);
            w.key("context").str(context);
            w.key("component").str(name);
            w.key("window").u64(*window);
            w.key("t_start_ns").u64(*window * self.window_ns);
            w.key("invocations").u64(row.invocations);
            w.key("faults").u64(row.faults);
            w.key("mechanisms").begin_object();
            for m in MECHANISMS {
                w.key(m.name()).u64(row.mechanisms[m.index()]);
            }
            w.end_object();
            let lat = &row.recovery_latency;
            w.key("recovery_latency").begin_object();
            w.key("count").u64(lat.count);
            w.key("total_ns").u64(lat.total_ns);
            w.key("min_ns").u64(lat.min_ns);
            w.key("max_ns").u64(lat.max_ns);
            w.key("p50_ns").u64(lat.quantile_ns(0.50));
            w.key("p90_ns").u64(lat.quantile_ns(0.90));
            w.key("p99_ns").u64(lat.quantile_ns(0.99));
            w.end_object().end_object();
            out.push('\n');
        }
        out
    }

    /// Total invocations across every row (diagnostics / tests).
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.rows.values().map(|c| c.invocations).sum()
    }

    /// Total faults across every row (diagnostics / tests).
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.rows.values().map(|c| c.faults).sum()
    }
}

/// The one header line a `--series` file starts with: schema version and
/// the window width every row's `window` index is in units of.
#[must_use]
pub fn series_header(window_ns: u64) -> String {
    let mut j = Json::object();
    j.push("v", SERIES_SCHEMA_VERSION)
        .push("kind", "series")
        .push("window_ns", window_ns);
    let mut line = j.to_line();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::counted;
    use crate::metrics::{Count, Counters, Mechanism};
    use crate::ComponentId;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mech = Count::Mechanism(Mechanism::R0, 2);
        let t = counted(
            None,
            &[Count::Invocation, Count::Fault, mech].map(|what| (1, 5, what)),
        );
        assert_eq!(t.window_ns(), 0);
        assert!(t.windows(ComponentId(1)).is_none());
    }

    #[test]
    fn events_bucket_by_window() {
        // Window `w` holds the counts at times in [w·100, (w+1)·100).
        let c = 2;
        let t = counted(
            Some(100),
            &[
                (c, 0, Count::Invocation),
                (c, 99, Count::Invocation),
                (c, 100, Count::Invocation),
                (c, 250, Count::Fault),
                (c, 250, Count::Mechanism(Mechanism::T0, 3)),
                (c, 250, Count::Latency(SimTime(40))),
            ],
        );
        let w = t.windows(ComponentId(c)).expect("window rows exist");
        assert_eq!(w[&0].invocations, 2);
        assert_eq!(w[&1].invocations, 1);
        assert_eq!(w[&2].faults, 1);
        assert_eq!(w[&2].mechanisms[Mechanism::T0.index()], 3);
        assert_eq!(w[&2].recovery_latency.count, 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        Counters::default().enable_series(SimTime::ZERO);
    }

    #[test]
    fn snapshot_merge_is_commutative_and_window_checked() {
        let mut a = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        a.rows.entry(("fs".into(), 0)).or_default().invocations = 2;
        let mut b = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        b.rows.entry(("fs".into(), 0)).or_default().invocations = 3;
        b.rows.entry(("mm".into(), 4)).or_default().faults = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rows[&("fs".into(), 0)].invocations, 5);

        // Merging an empty default in either direction is the identity.
        let mut with_empty = ab.clone();
        with_empty.merge(&SeriesSnapshot::default());
        assert_eq!(with_empty, ab);
        let mut empty = SeriesSnapshot::default();
        empty.merge(&ab);
        assert_eq!(empty, ab);
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn mismatched_windows_refuse_to_merge() {
        let mut a = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        let b = SeriesSnapshot {
            window_ns: 200,
            rows: BTreeMap::new(),
        };
        a.merge(&b);
    }

    #[test]
    fn json_lines_shape() {
        let mut s = SeriesSnapshot {
            window_ns: 1_000_000,
            rows: BTreeMap::new(),
        };
        let cell = s.rows.entry(("lock".into(), 3)).or_default();
        cell.invocations = 7;
        cell.mechanisms[Mechanism::U0.index()] = 2;
        cell.recovery_latency.record(SimTime(900));
        let dump = s.to_json_lines("test/ctx");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with(r#"{"v":2,"#));
        assert!(lines[0].contains(r#""component":"lock""#));
        assert!(lines[0].contains(r#""window":3"#));
        assert!(lines[0].contains(r#""t_start_ns":3000000"#));
        assert!(lines[0].contains(r#""U0":2"#));
        assert!(lines[0].contains(r#""p99_ns":900"#));
        let header = series_header(s.window_ns);
        assert!(header.contains(r#""window_ns":1000000"#));
    }
}
