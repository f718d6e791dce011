//! Recovery-observability metrics: per-component counters for the
//! SuperGlue/C³ recovery mechanisms plus simulated-time recovery
//! latency.
//!
//! The paper names eight mechanisms that together reconstruct a failed
//! service (§III): **R0** recovery-walk replay, **T0** eager thread
//! wakeup, **T1** on-demand (thread-affine, deferred) recovery, **D0**
//! descriptor/subtree teardown, **D1** parent-first recovery ordering,
//! **G0** storage creator lookup/record, **G1** redundant data storage,
//! and **U0** upcall to the creating component. The streaming-pipeline
//! workload appends two channel-recovery mechanisms: **DL0** dead-letter
//! routing of showstopper messages and **CR0** committed-cursor replay
//! after an endpoint reboot. The recovery runtimes
//! (`sg-c3` hand-written stubs and the `superglue` compiled-stub
//! interpreter) count each firing through `Kernel::record_mechanism` at
//! the moment the mechanism fires; the harness binaries snapshot the
//! counters per run and dump JSON-lines for offline analysis.
//!
//! The [`Counters`] table lives in the [`Kernel`] so that stubs (which
//! only see a kernel handle) and services alike can reach it. It holds
//! one [`MetricsRow`] per component for the kernel's event counts and
//! the mechanism counts alike, plus the `--series` window rows.
//! Snapshots are keyed by component *name* — stable across testbed
//! rebuilds and across the campaign shards whose merged totals must be
//! bit-identical regardless of thread count.

use std::collections::BTreeMap;

use crate::ids::ComponentId;
use crate::json::Json;
use crate::kernel::Kernel;
use crate::time::SimTime;

// The mechanism taxonomy lives in the pure core (the model checker's
// effect stream names mechanisms too); re-exported here under its
// historical path.
pub use composite_core::mechanism::{Mechanism, MECHANISMS};

/// Schema version of the `--metrics` JSON-lines emitter (the `"v"` field
/// on every row). Bump when a field changes meaning.
///
/// * **v2** — the `mechanisms` object gained the `DL0` (dead-letter
///   routing) and `CR0` (committed-cursor replay) channel-recovery
///   counters, appended after `U0`. Existing keys are unchanged, so v1
///   consumers that index by name keep working; strict-shape consumers
///   must accept the two new keys.
/// * **v1** — initial schema: the paper's eight mechanisms (R0–U0).
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Simulated-time latency statistic: count/sum/min/max plus a log₂
/// histogram of nanosecond durations (bucket `i` holds durations in
/// `[2^i, 2^(i+1))`; bucket 0 also holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStat {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub log2_buckets: [u64; 64],
}

impl Default for LatencyStat {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            log2_buckets: [0; 64],
        }
    }
}

impl LatencyStat {
    /// Record one duration.
    pub fn record(&mut self, d: SimTime) {
        let ns = d.0;
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.count += 1;
        // Saturate rather than wrap: a campaign long enough to overflow
        // u64 nanoseconds should degrade the mean, not panic the kernel.
        self.total_ns = self.total_ns.saturating_add(ns);
        self.log2_buckets[63 - (ns | 1).leading_zeros() as usize] += 1;
    }

    /// Merge another statistic into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (a, b) in self.log2_buckets.iter_mut().zip(other.log2_buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds from the
    /// log₂ histogram: find the bucket holding the nearest-rank order
    /// statistic, interpolate linearly inside it by rank position, and
    /// clamp to the recorded `[min_ns, max_ns]` (so single-bucket
    /// populations report exactly their extremes at q=0/q=1). Returns 0
    /// when empty. Pure integer arithmetic after the rank computation —
    /// deterministic across platforms.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based nearest rank; q=0 maps to the first sample.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are known exactly — report them rather than
        // an interpolated bucket estimate, so q=0/q=1 always equal the
        // recorded min/max.
        if rank == 1 {
            return self.min_ns;
        }
        if rank == self.count {
            return self.max_ns;
        }
        let mut seen = 0u64;
        for (i, &n) in self.log2_buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                let pos = rank - seen - 1; // 0-based within the bucket
                let est = lo + (u128::from(hi - lo) * u128::from(pos) / u128::from(n)) as u64;
                return est.clamp(self.min_ns, self.max_ns);
            }
            seen += n;
        }
        self.max_ns
    }

    fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.push("count", self.count)
            .push("total_ns", self.total_ns)
            .push("min_ns", self.min_ns)
            .push("max_ns", self.max_ns)
            .push("mean_ns", self.mean_ns());
        // Histogram as a sparse object {bit_length: count} — compact and
        // deterministic.
        let mut hist = Json::object();
        for (i, &n) in self.log2_buckets.iter().enumerate() {
            if n > 0 {
                hist.push(&i.to_string(), n);
            }
        }
        j.push("log2_hist", hist);
        j
    }
}

/// One counted fact: the [`MetricsRow`] field a [`Counters::count`]
/// call adds to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Count {
    Invocation,
    FaultedInvocation,
    Fault,
    NestedFault,
    Reboot,
    ColdRestart,
    WatchdogFire,
    DegradedRejection,
    /// `n` firings of one mechanism.
    Mechanism(Mechanism, u64),
    /// One recovery episode that took this long.
    Latency(SimTime),
}

/// The kernel's one counters table: a dense [`MetricsRow`] of run
/// totals per component id and, while the `--series` windows are on, a
/// row per (component, window). One function writes both, so the
/// series rows of a component sum to its totals.
///
/// The totals are always on and never derived from the windows: the
/// harnesses turn the windows on after the kernel is built.
#[derive(Debug, Default)]
pub struct Counters {
    totals: Vec<MetricsRow>,
    /// Window width in simulated nanoseconds; 0 while the windows are
    /// off.
    window_ns: u64,
    /// Window rows per component id, keyed by window index: window `w`
    /// holds what was counted at times in `[w·W, (w+1)·W)`.
    windows: Vec<BTreeMap<u64, MetricsRow>>,
    /// Threads made runnable again, kernel-wide.
    pub wakeups: u64,
    /// Upcalls dispatched, kernel-wide.
    pub upcalls: u64,
}

impl Counters {
    /// Count `what` on `c`: into its run totals, and, while the windows
    /// are on, into the window holding `at`.
    #[inline]
    pub(crate) fn count(&mut self, c: ComponentId, at: SimTime, what: Count) {
        let i = c.0 as usize;
        if i >= self.totals.len() {
            self.totals.resize_with(i + 1, MetricsRow::default);
        }
        self.totals[i].add(what);
        if let Some(w) = at.0.checked_div(self.window_ns) {
            if i >= self.windows.len() {
                self.windows.resize_with(i + 1, BTreeMap::new);
            }
            self.windows[i].entry(w).or_default().add(what);
        }
    }

    /// Turn the series windows on with the given width.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (it would put everything in window 0 of
    /// an infinitely wide bucket — always a configuration bug).
    pub(crate) fn enable_series(&mut self, window: SimTime) {
        assert!(window.0 > 0, "telemetry window must be positive");
        self.window_ns = window.0;
    }

    /// The series window width in simulated nanoseconds (0 while off).
    pub(crate) fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The run totals of `c` (`None` past the highest id ever counted).
    #[must_use]
    pub fn row(&self, c: ComponentId) -> Option<&MetricsRow> {
        self.totals.get(c.0 as usize)
    }

    /// `field` of the run totals, summed over every component.
    pub fn total(&self, field: impl Fn(&MetricsRow) -> u64) -> u64 {
        self.totals.iter().map(field).sum()
    }

    /// The window rows of `c`, keyed by window index.
    pub(crate) fn windows(&self, c: ComponentId) -> Option<&BTreeMap<u64, MetricsRow>> {
        self.windows.get(c.0 as usize)
    }
}

/// One component's counters, keyed by component name in a
/// [`MetricsSnapshot`]: the run totals, or one series window's share of
/// them. A `--series` row writes four of the fields: `invocations`,
/// `faults`, `mechanisms` and `recovery_latency`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRow {
    /// Calls into the component whose service body returned `Ok`,
    /// counted when the call returns; a series window holds the calls
    /// that returned in it.
    pub invocations: u64,
    /// Calls rejected because the component was faulty.
    pub faulted_invocations: u64,
    /// Faults raised on the component, top-level and nested.
    pub faults: u64,
    /// Micro-reboots of the component.
    pub reboots: u64,
    /// Watchdog step-budget expirations converted into faults.
    pub watchdog_fires: u64,
    /// Calls rejected fast because the component was degraded.
    pub degraded_rejections: u64,
    /// Faults raised while another recovery was in flight.
    pub nested_faults: u64,
    /// Cold restarts by the booter to clear a degraded mark.
    pub cold_restarts: u64,
    /// Mechanism firings attributed to the component, indexed like
    /// [`MECHANISMS`]; a series window holds the firings that started
    /// in it.
    pub mechanisms: [u64; 10],
    /// Simulated time of each recovery episode on the component; a
    /// series window holds the episodes that started in it.
    pub recovery_latency: LatencyStat,
}

impl MetricsRow {
    #[inline]
    fn add(&mut self, what: Count) {
        match what {
            Count::Invocation => self.invocations += 1,
            Count::FaultedInvocation => self.faulted_invocations += 1,
            Count::Fault => self.faults += 1,
            Count::NestedFault => self.nested_faults += 1,
            Count::Reboot => self.reboots += 1,
            Count::ColdRestart => self.cold_restarts += 1,
            Count::WatchdogFire => self.watchdog_fires += 1,
            Count::DegradedRejection => self.degraded_rejections += 1,
            Count::Mechanism(m, n) => self.mechanisms[m.index()] += n,
            Count::Latency(d) => self.recovery_latency.record(d),
        }
    }

    pub(crate) fn merge(&mut self, other: &MetricsRow) {
        self.invocations += other.invocations;
        self.faulted_invocations += other.faulted_invocations;
        self.faults += other.faults;
        self.reboots += other.reboots;
        self.watchdog_fires += other.watchdog_fires;
        self.degraded_rejections += other.degraded_rejections;
        self.nested_faults += other.nested_faults;
        self.cold_restarts += other.cold_restarts;
        for (a, b) in self.mechanisms.iter_mut().zip(other.mechanisms.iter()) {
            *a += *b;
        }
        self.recovery_latency.merge(&other.recovery_latency);
    }

    /// Whether any of the four fields a `--series` row writes is
    /// nonzero.
    pub(crate) fn in_series(&self) -> bool {
        self.invocations > 0
            || self.faults > 0
            || self.mechanisms.iter().any(|&m| m > 0)
            || self.recovery_latency.count > 0
    }
}

/// A point-in-time, name-resolved copy of every counter — plain data,
/// `Send`, mergeable across campaign shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Rows keyed by component name (BTreeMap: deterministic dump order).
    pub rows: BTreeMap<String, MetricsRow>,
}

impl MetricsSnapshot {
    /// Snapshot the run totals of `kernel`, resolving component ids to
    /// names.
    #[must_use]
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let mut rows: BTreeMap<String, MetricsRow> = BTreeMap::new();
        for c in kernel.component_ids() {
            let (Some(name), Some(row)) = (kernel.component_name(c), kernel.counters().row(c))
            else {
                continue;
            };
            rows.entry(name.to_owned()).or_default().merge(row);
        }
        // Drop all-zero rows (pure clients that never recovered) to keep
        // dumps focused on services.
        rows.retain(|_, r| *r != MetricsRow::default());
        Self { rows }
    }

    /// Merge another snapshot into this one (order-insensitive sums, so
    /// merging shard snapshots in shard order is bit-identical for any
    /// thread count).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, row) in &other.rows {
            self.rows.entry(name.clone()).or_default().merge(row);
        }
    }

    /// Total count of one mechanism across all components.
    #[must_use]
    pub fn mechanism_total(&self, m: Mechanism) -> u64 {
        self.rows.values().map(|r| r.mechanisms[m.index()]).sum()
    }

    /// Count of one mechanism on one component (0 when absent).
    #[must_use]
    pub fn mechanism_count(&self, component: &str, m: Mechanism) -> u64 {
        self.rows
            .get(component)
            .map_or(0, |r| r.mechanisms[m.index()])
    }

    /// Render as JSON-lines: one object per component (sorted by name),
    /// each carrying a `context` label supplied by the harness (e.g.
    /// `"table2/fs/superglue"`), then one `total` line summing every row.
    #[must_use]
    pub fn to_json_lines(&self, context: &str) -> String {
        let mut out = String::new();
        let mut total = MetricsRow::default();
        for (name, row) in &self.rows {
            total.merge(row);
            out.push_str(&row_json(context, name, row).to_line());
            out.push('\n');
        }
        out.push_str(&row_json(context, "*total*", &total).to_line());
        out.push('\n');
        out
    }
}

fn row_json(context: &str, name: &str, row: &MetricsRow) -> Json {
    let mut j = Json::object();
    j.push("v", METRICS_SCHEMA_VERSION)
        .push("context", context)
        .push("component", name)
        .push("invocations", row.invocations)
        .push("faulted_invocations", row.faulted_invocations)
        .push("faults", row.faults)
        .push("reboots", row.reboots)
        .push("watchdog_fires", row.watchdog_fires)
        .push("degraded_rejections", row.degraded_rejections)
        .push("nested_faults", row.nested_faults)
        .push("cold_restarts", row.cold_restarts);
    let mut mech = Json::object();
    for m in MECHANISMS {
        mech.push(m.name(), row.mechanisms[m.index()]);
    }
    j.push("mechanisms", mech);
    j.push("recovery_latency", row.recovery_latency.to_json());
    j
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Count `what` on `c` at time `at` in a fresh table.
    pub(crate) fn counted(window: Option<u64>, counts: &[(u32, u64, Count)]) -> Counters {
        let mut t = Counters::default();
        if let Some(w) = window {
            t.enable_series(SimTime(w));
        }
        for &(c, at, what) in counts {
            t.count(ComponentId(c), SimTime(at), what);
        }
        t
    }

    #[test]
    fn record_and_count() {
        let c = 4;
        let t = counted(
            None,
            &[
                (c, 5, Count::Mechanism(Mechanism::R0, 1)),
                (c, 5, Count::Mechanism(Mechanism::T0, 3)),
            ],
        );
        let row = t.row(ComponentId(c)).expect("counted");
        assert_eq!(row.mechanisms[Mechanism::R0.index()], 1);
        assert_eq!(row.mechanisms[Mechanism::T0.index()], 3);
        assert_eq!(row.mechanisms[Mechanism::U0.index()], 0);
        assert_eq!(t.row(ComponentId(9)).map_or(0, |r| r.mechanisms[0]), 0);
    }

    /// Random counts of every kind at random times, with the series on
    /// from the start: each component's window rows sum to its totals,
    /// field by field, and a window holding only fields the series
    /// omits is not a series row (`SeriesSnapshot::from_kernel` skips
    /// it; `kernel::tests::reboot_only_window_has_no_series_row`).
    #[test]
    fn window_rows_sum_to_totals() {
        let mut rng = crate::SplitMix64::new(0xC0_4E75);
        let mut counts = Vec::new();
        for _ in 0..5_000 {
            let c = rng.gen_range(6) as u32;
            let at = rng.gen_range(50_000);
            let what = match rng.gen_range(10) {
                0 => Count::Invocation,
                1 => Count::FaultedInvocation,
                2 => Count::Fault,
                3 => Count::NestedFault,
                4 => Count::Reboot,
                5 => Count::ColdRestart,
                6 => Count::WatchdogFire,
                7 => Count::DegradedRejection,
                8 => Count::Mechanism(MECHANISMS[rng.gen_index(10)], rng.gen_range(4)),
                _ => Count::Latency(SimTime(rng.gen_range(1 << 20))),
            };
            counts.push((c, at, what));
        }
        // One window past the others that counts only a reboot.
        counts.push((1, 1_000_000, Count::Reboot));
        let t = counted(Some(1_000), &counts);
        for c in (0..6).map(ComponentId) {
            let mut sum = MetricsRow::default();
            for row in t.windows(c).expect("counted").values() {
                sum.merge(row);
            }
            assert_eq!(Some(&sum), t.row(c), "component {c:?}");
        }
        let reboot_only = &t.windows(ComponentId(1)).expect("counted")[&1_000];
        assert_eq!(reboot_only.reboots, 1);
        assert!(!reboot_only.in_series());
    }

    #[test]
    fn latency_stat_tracks_extremes_and_histogram() {
        let mut s = LatencyStat::default();
        s.record(SimTime(0));
        s.record(SimTime(1));
        s.record(SimTime(1000));
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.total_ns, 1001);
        assert_eq!(s.log2_buckets[0], 2); // 0 and 1 both land in bucket 0|1
        assert_eq!(s.log2_buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn merge_is_commutative_on_totals() {
        let mut a = MetricsSnapshot::default();
        a.rows.entry("fs".into()).or_default().mechanisms[0] = 2;
        let mut b = MetricsSnapshot::default();
        b.rows.entry("fs".into()).or_default().mechanisms[0] = 3;
        b.rows.entry("mm".into()).or_default().faults = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.mechanism_total(Mechanism::R0), 5);
    }

    #[test]
    fn json_lines_shape() {
        let mut s = MetricsSnapshot::default();
        let row = s.rows.entry("lock".into()).or_default();
        row.invocations = 7;
        row.mechanisms[Mechanism::U0.index()] = 2;
        let dump = s.to_json_lines("test/ctx");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "one component + total");
        assert!(lines[0].starts_with(r#"{"v":2,"#), "schema version leads");
        assert!(lines[0].contains(r#""component":"lock""#));
        assert!(lines[0].contains(r#""U0":2"#));
        assert!(lines[1].contains(r#""component":"*total*""#));
        assert!(lines[1].contains(r#""invocations":7"#));
    }

    #[test]
    fn latency_stat_zero_duration_record() {
        let mut s = LatencyStat::default();
        s.record(SimTime(0));
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (1, 0, 0, 0));
        assert_eq!(s.log2_buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.quantile_ns(0.5), 0);
        assert_eq!(s.quantile_ns(1.0), 0);
    }

    #[test]
    fn latency_stat_bucket_boundaries() {
        // 2^i must land in bucket i, 2^i - 1 in bucket i-1, for every
        // representable edge including the top bucket.
        let mut s = LatencyStat::default();
        for i in 1..64u32 {
            s.record(SimTime(1u64 << i));
            s.record(SimTime((1u64 << i) - 1));
        }
        s.record(SimTime(u64::MAX));
        for i in 1..64usize {
            // 2^i itself plus 2^(i+1) - 1 (from the next edge's -1) land
            // in bucket i; the top bucket holds 2^63 and u64::MAX.
            assert_eq!(s.log2_buckets[i], 2, "bucket {i}");
        }
        assert_eq!(s.log2_buckets[0], 1, "duration 1 only");
        assert_eq!(s.max_ns, u64::MAX);
        assert_eq!(s.quantile_ns(1.0), u64::MAX, "top clamps to max");
    }

    #[test]
    fn latency_stat_merge_with_empty_both_directions() {
        let mut populated = LatencyStat::default();
        populated.record(SimTime(5));
        populated.record(SimTime(700));

        let mut a = populated.clone();
        a.merge(&LatencyStat::default());
        assert_eq!(a, populated, "merging an empty RHS is the identity");

        let mut b = LatencyStat::default();
        b.merge(&populated);
        assert_eq!(b, populated, "merging into an empty LHS copies");
        // In particular min_ns must not be poisoned by the empty side's
        // default 0.
        assert_eq!(b.min_ns, 5);
    }

    #[test]
    fn latency_stat_merge_associative_and_commutative() {
        let mut shards = Vec::new();
        for seed in 0..3u64 {
            let mut s = LatencyStat::default();
            for k in 0..10 {
                s.record(SimTime((seed + 1) * 97 + k * k * 13));
            }
            shards.push(s);
        }
        // (a+b)+c == a+(b+c) == c+b+a: shard merge order is irrelevant,
        // the property the --jobs determinism contract rests on.
        let mut ab_c = shards[0].clone();
        ab_c.merge(&shards[1]);
        ab_c.merge(&shards[2]);
        let mut bc = shards[1].clone();
        bc.merge(&shards[2]);
        let mut a_bc = shards[0].clone();
        a_bc.merge(&bc);
        let mut cba = shards[2].clone();
        cba.merge(&shards[1]);
        cba.merge(&shards[0]);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, cba);
    }

    #[test]
    fn quantile_estimates_are_monotone_and_clamped() {
        let mut s = LatencyStat::default();
        for ns in [3u64, 9, 17, 33, 120, 1000, 4096, 70_000] {
            s.record(SimTime(ns));
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| s.quantile_ns(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone: {qs:?}");
        assert!(qs[0] >= s.min_ns && *qs.last().unwrap() <= s.max_ns);
        assert_eq!(s.quantile_ns(1.0), s.max_ns);
        assert_eq!(LatencyStat::default().quantile_ns(0.99), 0, "empty");
    }
}
