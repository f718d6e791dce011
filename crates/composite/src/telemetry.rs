//! Windowed recovery telemetry: per-component, per-simulated-time-window
//! activity series.
//!
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) answers "what
//! happened over the whole run"; this module answers "*when* did it
//! happen". The kernel carries a [`Telemetry`] accumulator (off by
//! default, enabled by the harnesses' `--series` flag) that buckets
//! invocations, faults, mechanism firings, and recovery latencies into
//! fixed-width simulated-time windows at the same choke points that feed
//! the metrics registry — so the series and the totals can never
//! disagree.
//!
//! Harnesses snapshot the accumulator per run into a [`SeriesSnapshot`]
//! (name-keyed plain data, `Send`) and merge snapshots shard-by-shard in
//! shard order, exactly like metrics: every campaign shard simulates its
//! own machine from virtual time zero, so window `w` of shard `a` and
//! window `w` of shard `b` describe the same post-boot interval and sum
//! meaningfully. The merged dump is byte-identical for any `--jobs`
//! value. Quantiles are estimated from the existing
//! [`LatencyStat::quantile_ns`] log₂ histogram — no extra hot-path state.

use std::collections::BTreeMap;

use crate::ids::ComponentId;
use crate::json::{Json, JsonWriter};
use crate::kernel::Kernel;
use crate::metrics::{LatencyStat, Mechanism, MECHANISMS};
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

/// One window's activity for one component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesCell {
    /// Component invocations that *started* in the window.
    pub invocations: u64,
    /// Faults raised in the window (top-level and nested).
    pub faults: u64,
    /// Mechanism firings attributed to the window the firing started in,
    /// indexed like [`MECHANISMS`].
    pub mechanisms: [u64; 10],
    /// Recovery-episode latencies attributed to the window the episode
    /// started in (so a window's downtime never exceeds lookahead).
    pub recovery_latency: LatencyStat,
}

impl SeriesCell {
    fn merge(&mut self, other: &SeriesCell) {
        self.invocations += other.invocations;
        self.faults += other.faults;
        for (a, b) in self.mechanisms.iter_mut().zip(other.mechanisms.iter()) {
            *a += *b;
        }
        self.recovery_latency.merge(&other.recovery_latency);
    }

    fn is_empty(&self) -> bool {
        self.invocations == 0
            && self.faults == 0
            && self.mechanisms.iter().all(|&m| m == 0)
            && self.recovery_latency.count == 0
    }
}

/// The kernel-side accumulator: dense per-component-id slots, each a
/// sparse window map. All recording methods are single-branch no-ops
/// while disabled, so the invocation hot path stays flat.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Window width in simulated nanoseconds; 0 = disabled.
    window_ns: u64,
    cells: Vec<BTreeMap<u64, SeriesCell>>,
}

impl Telemetry {
    /// Turn the accumulator on with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (it would put everything in window 0 of
    /// an infinitely wide bucket — always a configuration bug).
    pub fn enable(&mut self, window: SimTime) {
        assert!(window.0 > 0, "telemetry window must be positive");
        self.window_ns = window.0;
    }

    /// Whether the accumulator is recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.window_ns > 0
    }

    /// The configured window width (0 while disabled).
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    #[inline]
    fn cell(&mut self, c: ComponentId, t: SimTime) -> &mut SeriesCell {
        let i = c.0 as usize;
        if i >= self.cells.len() {
            self.cells.resize_with(i + 1, BTreeMap::new);
        }
        self.cells[i].entry(t.0 / self.window_ns).or_default()
    }

    /// Count one invocation of `c` starting at `t`.
    #[inline]
    pub fn record_invocation(&mut self, c: ComponentId, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.cell(c, t).invocations += 1;
    }

    /// Count one fault raised on `c` at `t`.
    #[inline]
    pub fn record_fault(&mut self, c: ComponentId, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.cell(c, t).faults += 1;
    }

    /// Count `n` firings of mechanism `m` on `c` starting at `t`.
    #[inline]
    pub fn record_mechanism(&mut self, c: ComponentId, m: Mechanism, n: u64, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.cell(c, t).mechanisms[m.index()] += n;
    }

    /// Record one recovery episode on `c` of duration `d` that started
    /// at `t`.
    #[inline]
    pub fn record_recovery_latency(&mut self, c: ComponentId, d: SimTime, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.cell(c, t).recovery_latency.record(d);
    }

    pub(crate) fn component_windows(&self, c: ComponentId) -> Option<&BTreeMap<u64, SeriesCell>> {
        self.cells.get(c.0 as usize)
    }
}

/// A point-in-time, name-resolved copy of the series — plain data,
/// `Send`, mergeable across campaign shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width in simulated nanoseconds (0 for an empty default
    /// snapshot; set on first merge or capture).
    pub window_ns: u64,
    /// Cells keyed `(component name, window index)` — BTreeMap, so dump
    /// order is deterministic.
    pub rows: BTreeMap<(String, u64), SeriesCell>,
}

impl SeriesSnapshot {
    /// Snapshot the kernel's telemetry accumulator, resolving component
    /// ids to names (empty when telemetry is disabled).
    #[must_use]
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let telemetry = kernel.telemetry();
        let mut rows = BTreeMap::new();
        if !telemetry.is_enabled() {
            return Self::default();
        }
        for c in kernel.component_ids() {
            let Some(name) = kernel.component_name(c) else {
                continue;
            };
            let Some(windows) = telemetry.component_windows(c) else {
                continue;
            };
            for (&w, cell) in windows {
                if cell.is_empty() {
                    continue;
                }
                let slot: &mut SeriesCell = rows.entry((name.to_owned(), w)).or_default();
                slot.merge(cell);
            }
        }
        Self {
            window_ns: telemetry.window_ns(),
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
        for (key, cell) in &other.rows {
            self.rows.entry(key.clone()).or_default().merge(cell);
        }
    }

    /// Render as JSON-lines: one object per `(component, window)` cell in
    /// key order, each carrying the harness-supplied `context` label and
    /// p50/p90/p99 recovery-latency quantiles estimated from the log₂
    /// histogram. The caller prepends one [`series_header`] line per
    /// file. Each row is streamed straight into the output.
    #[must_use]
    pub fn to_json_lines(&self, context: &str) -> String {
        let mut out = String::new();
        for ((name, window), cell) in &self.rows {
            let mut w = JsonWriter::compact(&mut out);
            w.begin_object();
            w.key("v").u64(SERIES_SCHEMA_VERSION);
            w.key("context").str(context);
            w.key("component").str(name);
            w.key("window").u64(*window);
            w.key("t_start_ns").u64(*window * self.window_ns);
            w.key("invocations").u64(cell.invocations);
            w.key("faults").u64(cell.faults);
            w.key("mechanisms").begin_object();
            for m in MECHANISMS {
                w.key(m.name()).u64(cell.mechanisms[m.index()]);
            }
            w.end_object();
            let lat = &cell.recovery_latency;
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

    /// Total invocations across every cell (diagnostics / tests).
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.rows.values().map(|c| c.invocations).sum()
    }

    /// Total faults across every cell (diagnostics / tests).
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

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::default();
        t.record_invocation(ComponentId(1), SimTime(5));
        t.record_fault(ComponentId(1), SimTime(5));
        t.record_mechanism(ComponentId(1), Mechanism::R0, 2, SimTime(5));
        assert!(!t.is_enabled());
        assert!(t.component_windows(ComponentId(1)).is_none());
    }

    #[test]
    fn events_bucket_by_window() {
        let mut t = Telemetry::default();
        t.enable(SimTime(100));
        let c = ComponentId(2);
        t.record_invocation(c, SimTime(0));
        t.record_invocation(c, SimTime(99));
        t.record_invocation(c, SimTime(100));
        t.record_fault(c, SimTime(250));
        t.record_mechanism(c, Mechanism::T0, 3, SimTime(250));
        t.record_recovery_latency(c, SimTime(40), SimTime(250));
        let w = t.component_windows(c).expect("slots exist");
        assert_eq!(w[&0].invocations, 2);
        assert_eq!(w[&1].invocations, 1);
        assert_eq!(w[&2].faults, 1);
        assert_eq!(w[&2].mechanisms[Mechanism::T0.index()], 3);
        assert_eq!(w[&2].recovery_latency.count, 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        Telemetry::default().enable(SimTime::ZERO);
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
