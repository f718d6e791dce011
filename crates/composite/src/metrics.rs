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
//! interpreter) increment these counters at the moment the mechanism
//! fires; the harness binaries snapshot them per run and dump JSON-lines
//! for offline analysis.
//!
//! The registry lives in the [`Kernel`] so that
//! stubs (which only see a kernel handle) and services alike can reach
//! it. Snapshots are keyed by component *name* — stable across testbed
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

/// Live per-component mechanism counters, written on recovery hot paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ComponentCounters {
    mechanisms: [u64; 10],
    recovery_latency: LatencyStat,
}

/// The registry the kernel carries. Recovery runtimes call
/// [`MetricsRegistry::record`] at mechanism chokepoints; harnesses take
/// [`MetricsSnapshot`]s. Counters are stored densely by component id so
/// the mechanism chokepoint on the recovery hot path indexes an array
/// rather than walking a tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    per_component: Vec<ComponentCounters>,
}

impl MetricsRegistry {
    #[inline]
    fn slot(&mut self, c: ComponentId) -> &mut ComponentCounters {
        let i = c.0 as usize;
        if i >= self.per_component.len() {
            self.per_component.resize_with(i + 1, Default::default);
        }
        &mut self.per_component[i]
    }

    /// Count one firing of `m` attributed to component `c` (the failed /
    /// recovering service).
    pub fn record(&mut self, c: ComponentId, m: Mechanism) {
        self.record_many(c, m, 1);
    }

    /// Count `n` firings at once (e.g. T0 waking several threads).
    pub fn record_many(&mut self, c: ComponentId, m: Mechanism, n: u64) {
        self.slot(c).mechanisms[m.index()] += n;
    }

    /// Record the simulated time one recovery episode took on `c`.
    pub fn record_recovery_latency(&mut self, c: ComponentId, d: SimTime) {
        self.slot(c).recovery_latency.record(d);
    }

    /// Raw count for one component/mechanism (0 when never recorded).
    #[must_use]
    pub fn count(&self, c: ComponentId, m: Mechanism) -> u64 {
        self.per_component
            .get(c.0 as usize)
            .map_or(0, |p| p.mechanisms[m.index()])
    }

    pub(crate) fn component(&self, c: ComponentId) -> Option<&ComponentCounters> {
        self.per_component.get(c.0 as usize)
    }
}

/// One component's row in a snapshot: kernel event counters joined with
/// mechanism counters, keyed by component name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRow {
    pub invocations: u64,
    pub faulted_invocations: u64,
    pub faults: u64,
    pub reboots: u64,
    pub watchdog_fires: u64,
    pub degraded_rejections: u64,
    pub nested_faults: u64,
    pub cold_restarts: u64,
    pub mechanisms: [u64; 10],
    pub recovery_latency: LatencyStat,
}

impl MetricsRow {
    fn merge(&mut self, other: &MetricsRow) {
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
}

/// A point-in-time, name-resolved copy of every counter — plain data,
/// `Send`, mergeable across campaign shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Rows keyed by component name (BTreeMap: deterministic dump order).
    pub rows: BTreeMap<String, MetricsRow>,
}

impl MetricsSnapshot {
    /// Snapshot every counter of `kernel`, resolving component ids to
    /// names. Kernel event counters (invocations, faults, reboots) come
    /// from [`Kernel::stats`]; mechanism counters from the registry.
    #[must_use]
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let mut rows: BTreeMap<String, MetricsRow> = BTreeMap::new();
        let stats = kernel.stats();
        let ids: Vec<ComponentId> = kernel.component_ids().collect();
        for c in ids {
            let Some(name) = kernel.component_name(c).map(str::to_owned) else {
                continue;
            };
            let row = rows.entry(name).or_default();
            row.invocations += stats.invocations.get(&c).copied().unwrap_or(0);
            row.faulted_invocations += stats.faulted_invocations.get(&c).copied().unwrap_or(0);
            row.faults += stats.faults.get(&c).copied().unwrap_or(0);
            row.reboots += stats.reboots.get(&c).copied().unwrap_or(0);
            row.watchdog_fires += stats.watchdog_fires.get(&c).copied().unwrap_or(0);
            row.degraded_rejections += stats.degraded_rejections.get(&c).copied().unwrap_or(0);
            row.nested_faults += stats.nested_faults.get(&c).copied().unwrap_or(0);
            row.cold_restarts += stats.cold_restarts.get(&c).copied().unwrap_or(0);
            if let Some(p) = kernel.metrics().component(c) {
                for (a, b) in row.mechanisms.iter_mut().zip(p.mechanisms.iter()) {
                    *a += *b;
                }
                row.recovery_latency.merge(&p.recovery_latency);
            }
        }
        // Drop all-zero rows (pure clients that never recovered) to keep
        // dumps focused on services.
        rows.retain(|_, r| {
            r.invocations + r.faulted_invocations + r.faults + r.reboots > 0
                || r.watchdog_fires + r.degraded_rejections + r.nested_faults + r.cold_restarts > 0
                || r.mechanisms.iter().any(|&m| m > 0)
                || r.recovery_latency.count > 0
        });
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
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut r = MetricsRegistry::default();
        let c = ComponentId(4);
        r.record(c, Mechanism::R0);
        r.record_many(c, Mechanism::T0, 3);
        assert_eq!(r.count(c, Mechanism::R0), 1);
        assert_eq!(r.count(c, Mechanism::T0), 3);
        assert_eq!(r.count(c, Mechanism::U0), 0);
        assert_eq!(r.count(ComponentId(9), Mechanism::R0), 0);
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
