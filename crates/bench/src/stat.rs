//! The one reader of the harnesses' JSON-lines artifacts, and the
//! recovery-SLO analytics built on it, shared by the `sgtrace` and
//! `sgstat` binaries and the test suite.
//!
//! A trace reads back into the kernel's own [`TraceShard`]s and a
//! metrics dump into its own [`MetricsRow`]s, so the analyzers match
//! [`TraceEventKind`] and read `MetricsRow` fields. A reader rejects,
//! naming the line, whatever its writer would not have written.
//!
//! Everything here is a pure function from the JSON-lines artifacts the
//! harnesses emit (`--trace`, `--series`, `--metrics`) to deterministic
//! reports — no clocks, no randomness, no ordering dependence beyond
//! the (already deterministic) order of the input files. That is what
//! lets `tests/determinism.rs` assert that `sgstat avail` summaries are
//! byte-identical for any `--jobs` value. Sums of input durations and
//! counts saturate at `u64::MAX`, so a hand-written file with huge
//! values reports a clamped total instead of overflowing.
//!
//! * [`parse_trace_text`] / [`episodes_of`] — the flight-recorder
//!   reader mirroring the kernel-side episode stacks (innermost-open
//!   attribution, so nested episodes never double count).
//! * [`avail_report`] — availability / MTTR / MTBF accounting from
//!   fault → `episode_end` spans, plus the degraded-time split and a
//!   conservation audit (re-summed timed spans must equal the recorded
//!   attributed latency for every component).
//! * [`critpath_report`] / [`collapsed_stacks`] — dominant mechanism
//!   chain per episode and a flamegraph-ready collapsed-stack export.
//! * [`parse_series_text`] / [`series_report`] — windowed-telemetry
//!   summaries from `--series` dumps.
//! * [`parse_metrics_text`] / [`openmetrics_from_metrics`] — `--metrics`
//!   rows, and the same rows re-rendered as an OpenMetrics text
//!   exposition (quantiles recomputed from the shipped log₂ histograms
//!   via [`LatencyStat::quantile_ns`]).
//! * [`agree`] — re-derive the metrics rows from a series file and from
//!   a trace, naming every (context, component, field) that differs.
//! * [`evaluate_slo`] — gate a trace against `--max-p99-ns` /
//!   `--min-availability` thresholds; violations make `sgstat slo`
//!   exit nonzero.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use composite::{
    ComponentId, Epoch, Json, LatencyStat, Mechanism, MetricsRow, SimTime, ThreadId, TraceEvent,
    TraceEventKind, TraceShard, MECHANISMS, METRICS_SCHEMA_VERSION, SERIES_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
};

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// The JSON value and 1-based number of each non-blank line of `text`.
pub fn json_lines(text: &str) -> impl Iterator<Item = Result<(usize, Json), String>> + '_ {
    let lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    lines.map(|(i, line)| {
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        Ok((i + 1, j))
    })
}

/// The value of `key` in `j`, converted by `conv`.
fn field<'j, T>(j: &'j Json, key: &str, conv: fn(&'j Json) -> Option<T>) -> Result<T, String> {
    let v = j.get(key).ok_or_else(|| format!("missing key {key:?}"))?;
    conv(v).ok_or_else(|| format!("key {key:?} has the wrong type or range"))
}

pub(crate) fn uint(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key, Json::as_u64)
}

pub(crate) fn uint32(j: &Json, key: &str) -> Result<u32, String> {
    field(j, key, |v| u32::try_from(v.as_u64()?).ok())
}

/// `conv` of a value the writer may write as `null`.
fn or_null<T>(v: &Json, conv: fn(&Json) -> Option<T>) -> Option<Option<T>> {
    match v {
        Json::Null => Some(None),
        v => conv(v).map(Some),
    }
}

pub(crate) fn text<'j>(j: &'j Json, key: &str) -> Result<&'j str, String> {
    field(j, key, Json::as_str)
}

fn object<'j>(j: &'j Json, key: &str) -> Result<&'j [(String, Json)], String> {
    field(j, key, |v| match v {
        Json::Object(pairs) => Some(pairs),
        _ => None,
    })
}

/// Reject a line whose `"v"` is not `want`, its writer's version.
fn version(j: &Json, want: u64) -> Result<(), String> {
    match uint(j, "v")? {
        v if v == want => Ok(()),
        v => Err(format!("schema version {v}: this reader reads {want}")),
    }
}

/// The mechanism called `name`.
fn mechanism(name: &str) -> Result<Mechanism, String> {
    let known = MECHANISMS.into_iter().find(|m| m.name() == name);
    known.ok_or_else(|| format!("unknown mechanism {name:?}"))
}

/// Read the file at `path` with `parse`, naming the file in any error.
fn read_file<T>(path: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse a `--trace` JSON-lines dump (possibly many shards) from text;
/// an error names the first line the trace writer would not write.
pub fn parse_trace_text(text: &str) -> Result<Vec<TraceShard>, String> {
    let mut shards: Vec<TraceShard> = Vec::new();
    // Per shard, its header's line and the event count it declares.
    let mut declared = Vec::new();
    for line in json_lines(text) {
        let (no, j) = line?;
        let at = |e: String| format!("line {no}: {e}");
        if j.get("shard").is_some() {
            let (shard, events) = shard_header(&j).map_err(at)?;
            shards.push(shard);
            declared.push((no, events));
        } else {
            let shard = shards.last_mut();
            let shard = shard.ok_or_else(|| at("event before any shard header".to_owned()))?;
            shard.events.push(trace_event(&j).map_err(at)?);
        }
    }
    for (shard, (no, events)) in shards.iter().zip(declared) {
        if shard.events.len() as u64 != events {
            let follow = shard.events.len();
            return Err(format!(
                "line {no}: the shard header declares {events} event(s), {follow} follow"
            ));
        }
    }
    Ok(shards)
}

/// Parse a `--trace` dump from a file path.
pub fn parse_trace(path: &str) -> Result<Vec<TraceShard>, String> {
    read_file(path, parse_trace_text)
}

/// A shard header line, and the event count it declares.
fn shard_header(j: &Json) -> Result<(TraceShard, u64), String> {
    version(j, TRACE_SCHEMA_VERSION)?;
    let names = field(j, "names", |v| {
        let names = v.as_array()?.iter().map(|n| n.as_str().map(str::to_owned));
        names.collect()
    })?;
    let shard = TraceShard {
        label: text(j, "shard")?.to_owned(),
        names,
        events: Vec::new(),
        dropped: uint(j, "dropped")?,
        dropped_recovery: uint(j, "dropped_recovery")?,
        span_count: uint(j, "span_count")?,
    };
    Ok((shard, uint(j, "events")?))
}

/// An event line; its `name` is the header's name for `comp`, not read.
fn trace_event(j: &Json) -> Result<TraceEvent, String> {
    use TraceEventKind as K;
    let function = || text(j, "function").map(str::to_owned);
    let mech = || mechanism(text(j, "mech")?);
    let until = || uint(j, "until").map(SimTime);
    let int = |key| field(j, key, Json::as_i64);
    let kind = match text(j, "kind")? {
        "invoke_enter" => K::InvokeEnter {
            function: function()?,
            client: ComponentId(uint32(j, "client")?),
        },
        "invoke_exit" => {
            let name = text(j, "outcome")?;
            let outcome = ["ok", "fault", "would-block", "err"]
                .into_iter()
                .find(|o| *o == name);
            let outcome = outcome.ok_or_else(|| format!("unknown outcome {name:?}"))?;
            K::InvokeExit { outcome }
        }
        "block" => K::Block,
        "sleep" => K::Sleep { until: until()? },
        "wake" => K::Wake,
        // The writer leaves out a top-level fault's depth of 0.
        "fault" => K::FaultInjected {
            depth: j.get("depth").map_or(Ok(0), |_| uint32(j, "depth"))?,
        },
        "watchdog" => K::WatchdogFired,
        "degraded" => K::DegradedMarked { until: until()? },
        "cold_restart" => K::ColdRestart,
        "reboot" => K::Reboot,
        "mechanism" => K::MechanismFired {
            mech: mech()?,
            n: uint(j, "n")?,
        },
        "walk_step" => K::WalkStep {
            function: function()?,
            desc: field(j, "desc", |v| or_null(v, Json::as_i64))?,
            mech: mech()?,
        },
        "desc_created" => K::DescriptorCreated { desc: int("desc")? },
        "desc_closed" => K::DescriptorClosed {
            desc: int("desc")?,
            dropped: uint(j, "dropped")?,
        },
        "upcall" => K::Upcall {
            function: function()?,
        },
        "dead_letter" => K::DeadLetter {
            desc: int("desc")?,
            msg: int("msg")?,
            deliveries: uint(j, "deliveries")?,
        },
        "episode_end" => K::EpisodeEnd {
            attributed: SimTime(uint(j, "attributed")?),
        },
        other => return Err(format!("unknown kind {other:?}")),
    };
    Ok(TraceEvent {
        span: uint(j, "span")?,
        parent: field(j, "parent", |v| or_null(v, Json::as_u64))?,
        time: SimTime(uint(j, "ts")?),
        dur: SimTime(uint(j, "dur")?),
        thread: ThreadId(uint32(j, "tid")?),
        component: ComponentId(uint32(j, "comp")?),
        epoch: Epoch(uint32(j, "epoch")?),
        kind,
    })
}

/// The name of component `c` in `shard`'s name table (`?` outside it).
#[must_use]
pub fn component_name(shard: &TraceShard, c: ComponentId) -> &str {
    shard.names.get(c.0 as usize).map_or("?", String::as_str)
}

/// Nanoseconds as microseconds, the unit every report prints.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

// ---------------------------------------------------------------------
// Episode reconstruction
// ---------------------------------------------------------------------

/// One reconstructed recovery episode (fault → `episode_end`).
#[derive(Debug, Clone, Default)]
pub struct Episode {
    pub component: String,
    pub start: u64,
    /// Latency the kernel attributed (from the `episode_end` event).
    pub attributed: u64,
    /// Latency independently re-summed from this episode's timed spans.
    pub resummed: u64,
    /// Timed-span buckets: label -> (count, total ns).
    pub buckets: BTreeMap<String, (u64, u64)>,
    /// σ-walk replays in order: (descriptor, mechanism, function).
    pub walk_steps: Vec<(Option<i64>, Mechanism, String)>,
    /// Mechanism firings inside the episode: mechanism name -> total n.
    pub mech_counts: BTreeMap<&'static str, u64>,
    /// 0 for a top-level fault, >0 for a correlated fault raised while
    /// this component's recovery was already in flight (a child in the
    /// episode tree).
    pub depth: usize,
    pub closed: bool,
}

/// Linear scan mirroring the kernel-side recorder: a `fault` on
/// component `c` pushes an episode on `c`'s stack, each `episode_end`
/// pops the innermost, and timed events accumulate into the innermost
/// open episode alone — so durations are never double counted between a
/// parent episode and its nested children, and attribution conservation
/// holds independently for every node of the episode tree.
#[must_use]
pub fn episodes_of(shard: &TraceShard) -> Vec<Episode> {
    use TraceEventKind as K;
    let mut open: BTreeMap<ComponentId, Vec<usize>> = BTreeMap::new();
    let mut eps: Vec<Episode> = Vec::new();
    for ev in &shard.events {
        match &ev.kind {
            K::FaultInjected { .. } => {
                let stack = open.entry(ev.component).or_default();
                eps.push(Episode {
                    component: component_name(shard, ev.component).to_owned(),
                    start: ev.time.0,
                    depth: stack.len(),
                    ..Episode::default()
                });
                stack.push(eps.len() - 1);
            }
            K::EpisodeEnd { attributed } => {
                if let Some(idx) = open.get_mut(&ev.component).and_then(Vec::pop) {
                    let ep = &mut eps[idx];
                    (ep.attributed, ep.closed) = (attributed.0, true);
                }
            }
            kind => {
                let Some(&idx) = open.get(&ev.component).and_then(|s| s.last()) else {
                    continue;
                };
                let ep = &mut eps[idx];
                if ev.dur > SimTime::ZERO {
                    ep.resummed = ep.resummed.saturating_add(ev.dur.0);
                    let bucket = match kind {
                        K::WalkStep { mech, .. } => format!("{}-walk", mech.name()),
                        K::MechanismFired { mech, .. } => mech.name().to_owned(),
                        other => other.name().to_owned(),
                    };
                    let b = ep.buckets.entry(bucket).or_insert((0, 0));
                    b.0 += 1;
                    b.1 = b.1.saturating_add(ev.dur.0);
                }
                match kind {
                    K::WalkStep {
                        function,
                        desc,
                        mech,
                    } => ep.walk_steps.push((*desc, *mech, function.clone())),
                    K::MechanismFired { mech, n } => {
                        let sum = ep.mech_counts.entry(mech.name()).or_insert(0);
                        *sum = sum.saturating_add(*n);
                    }
                    _ => {}
                }
            }
        }
    }
    eps
}

// ---------------------------------------------------------------------
// Availability / MTTR / MTBF
// ---------------------------------------------------------------------

/// Per-component availability accounting over every shard it appears in.
#[derive(Debug, Clone, Default)]
pub struct ComponentAvail {
    /// Simulated time observed: the sum of the wall lengths of every
    /// shard in which this component logged recovery-class activity.
    pub observed_ns: u64,
    /// Total attributed recovery latency (top-level + nested episodes;
    /// innermost attribution keeps the spans disjoint).
    pub downtime_ns: u64,
    /// Independently re-summed timed spans — must equal `downtime_ns`
    /// for conservation to hold.
    pub resummed_ns: u64,
    /// Time spent in a degraded window (`degraded` mark → `until`,
    /// clamped to the shard horizon). Degraded time is availability at
    /// reduced service, reported separately from downtime.
    pub degraded_ns: u64,
    /// Top-level (depth 0) recovery episodes.
    pub episodes: u64,
    /// Nested (correlated-fault) episodes.
    pub nested_episodes: u64,
    pub watchdog_fires: u64,
    pub cold_restarts: u64,
    pub reboots: u64,
    /// Attributed latencies of top-level episodes, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl ComponentAvail {
    /// Availability as a fraction of observed simulated time; 0 when
    /// the attributed downtime exceeds it.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.observed_ns == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (1.0 - self.downtime_ns as f64 / self.observed_ns as f64).max(0.0)
        }
    }

    /// Mean time to recover: downtime per top-level episode.
    #[must_use]
    pub fn mttr_ns(&self) -> u64 {
        self.downtime_ns.checked_div(self.episodes).unwrap_or(0)
    }

    /// Mean time between failures: uptime per top-level episode.
    #[must_use]
    pub fn mtbf_ns(&self) -> u64 {
        self.observed_ns
            .saturating_sub(self.downtime_ns)
            .checked_div(self.episodes)
            .unwrap_or(0)
    }
}

/// Exact nearest-rank quantile over a sorted latency list.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Outcome of the attribution-conservation audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conservation {
    /// Every component's re-summed spans equal its attributed latency.
    Ok,
    /// The ring dropped recovery-class events; the audit is unsound and
    /// was skipped.
    Skip,
    /// At least one component's books don't balance (messages inside).
    Mismatch(Vec<String>),
}

/// Whole-trace availability report.
#[derive(Debug, Clone, Default)]
pub struct AvailReport {
    pub components: BTreeMap<String, ComponentAvail>,
    /// Sum of shard wall lengths across the whole trace.
    pub horizon_ns: u64,
    pub shards: usize,
    pub dropped_recovery: u64,
}

impl AvailReport {
    /// Totals across every component row.
    #[must_use]
    pub fn total(&self) -> ComponentAvail {
        let mut t = ComponentAvail::default();
        for c in self.components.values() {
            t.observed_ns = t.observed_ns.saturating_add(c.observed_ns);
            t.downtime_ns = t.downtime_ns.saturating_add(c.downtime_ns);
            t.resummed_ns = t.resummed_ns.saturating_add(c.resummed_ns);
            t.degraded_ns = t.degraded_ns.saturating_add(c.degraded_ns);
            t.episodes += c.episodes;
            t.nested_episodes += c.nested_episodes;
            t.watchdog_fires += c.watchdog_fires;
            t.cold_restarts += c.cold_restarts;
            t.reboots += c.reboots;
            t.latencies_ns.extend_from_slice(&c.latencies_ns);
        }
        t.latencies_ns.sort_unstable();
        t
    }

    /// Run the conservation audit: per component, re-summed timed spans
    /// must equal the kernel-attributed episode latency.
    #[must_use]
    pub fn conservation(&self) -> Conservation {
        if self.dropped_recovery > 0 {
            return Conservation::Skip;
        }
        let mut bad = Vec::new();
        for (name, c) in &self.components {
            if c.resummed_ns != c.downtime_ns {
                bad.push(format!(
                    "{name}: re-summed spans {:.1}us != attributed {:.1}us",
                    us(c.resummed_ns),
                    us(c.downtime_ns)
                ));
            }
        }
        if bad.is_empty() {
            Conservation::Ok
        } else {
            Conservation::Mismatch(bad)
        }
    }

    /// Deterministic text rendering (what `sgstat avail` prints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "availability over {} shard(s), {:.1}us simulated",
            self.shards,
            us(self.horizon_ns)
        );
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "component",
            "avail",
            "eps",
            "downtime_us",
            "degraded_us",
            "mttr_us",
            "mtbf_us",
            "p99_us"
        );
        let t = self.total();
        for (name, c) in self.components.iter().chain([(&"TOTAL".to_owned(), &t)]) {
            let _ = writeln!(
                out,
                "{:<10} {:>11.6}% {:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                name,
                c.availability() * 100.0,
                c.episodes,
                us(c.downtime_ns),
                us(c.degraded_ns),
                us(c.mttr_ns()),
                us(c.mtbf_ns()),
                us(exact_quantile(&c.latencies_ns, 0.99))
            );
        }
        let _ = writeln!(
            out,
            "episodes: {} top-level, {} nested; {} watchdog fire(s), {} cold restart(s), {} reboot(s)",
            t.episodes, t.nested_episodes, t.watchdog_fires, t.cold_restarts, t.reboots
        );
        match self.conservation() {
            Conservation::Ok => {
                let _ = writeln!(out, "conservation: OK (spans account for 100% of downtime)");
            }
            Conservation::Skip => {
                let _ = writeln!(
                    out,
                    "conservation: SKIP ({} recovery-class event(s) dropped)",
                    self.dropped_recovery
                );
            }
            Conservation::Mismatch(bad) => {
                let _ = writeln!(out, "conservation: MISMATCH");
                for b in &bad {
                    let _ = writeln!(out, "  {b}");
                }
            }
        }
        out
    }
}

/// Build the availability report from parsed shards.
#[must_use]
pub fn avail_report(shards: &[TraceShard]) -> AvailReport {
    let mut report = AvailReport {
        shards: shards.len(),
        ..AvailReport::default()
    };
    for shard in shards {
        report.dropped_recovery = report
            .dropped_recovery
            .saturating_add(shard.dropped_recovery);
        let horizon = shard
            .events
            .iter()
            .map(|e| e.time.0.saturating_add(e.dur.0))
            .max()
            .unwrap_or(0);
        report.horizon_ns = report.horizon_ns.saturating_add(horizon);
        // Components with recovery-class activity in this shard: their
        // observed time grows by the shard's wall length.
        let active: BTreeSet<ComponentId> = shard
            .events
            .iter()
            .filter(|ev| {
                use TraceEventKind as K;
                matches!(
                    ev.kind,
                    K::FaultInjected { .. }
                        | K::EpisodeEnd { .. }
                        | K::WatchdogFired
                        | K::DegradedMarked { .. }
                        | K::ColdRestart
                )
            })
            .map(|ev| ev.component)
            .collect();
        for c in active {
            let row = report.components.entry(component_name(shard, c).to_owned());
            let observed = &mut row.or_default().observed_ns;
            *observed = observed.saturating_add(horizon);
        }
        // Rows exist for components active here or (reboots) earlier.
        for ev in &shard.events {
            let Some(c) = report
                .components
                .get_mut(component_name(shard, ev.component))
            else {
                continue;
            };
            match ev.kind {
                TraceEventKind::WatchdogFired => c.watchdog_fires += 1,
                TraceEventKind::ColdRestart => c.cold_restarts += 1,
                TraceEventKind::Reboot => c.reboots += 1,
                TraceEventKind::DegradedMarked { until } => {
                    // A degraded window may be declared to end past the
                    // last recorded event; report the full declared span.
                    let degraded = until.0.saturating_sub(ev.time.0);
                    c.degraded_ns = c.degraded_ns.saturating_add(degraded);
                }
                _ => {}
            }
        }
        for ep in episodes_of(shard) {
            let c = report.components.entry(ep.component.clone()).or_default();
            c.downtime_ns = c.downtime_ns.saturating_add(ep.attributed);
            c.resummed_ns = c.resummed_ns.saturating_add(ep.resummed);
            if ep.depth == 0 {
                c.episodes += 1;
                c.latencies_ns.push(ep.attributed);
            } else {
                c.nested_episodes += 1;
            }
        }
    }
    for c in report.components.values_mut() {
        c.latencies_ns.sort_unstable();
    }
    report
}

// ---------------------------------------------------------------------
// Critical-path profiling
// ---------------------------------------------------------------------

/// Dominant-chain report: per episode, the attribution buckets ranked
/// by time; plus whole-trace bucket totals with percentages.
#[must_use]
pub fn critpath_report(shards: &[TraceShard]) -> String {
    let mut out = String::new();
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut grand = 0u64;
    for shard in shards {
        let eps = episodes_of(shard);
        if eps.is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {} ==", shard.label);
        for (i, ep) in eps.iter().enumerate() {
            let mut ranked: Vec<(&String, &(u64, u64))> = ep.buckets.iter().collect();
            // Sort by time descending; bucket name breaks ties so the
            // ordering is total.
            ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
            let chain = ranked
                .iter()
                .map(|(k, (n, ns))| format!("{k} {n}x{:.1}us", us(*ns)))
                .collect::<Vec<_>>()
                .join(" -> ");
            let tag = if ep.depth > 0 { " nested" } else { "" };
            let _ = writeln!(
                out,
                "  #{i:<3} {:<8}{tag} {:>10.1}us | {chain}",
                ep.component,
                us(ep.attributed)
            );
            for (k, (n, ns)) in &ep.buckets {
                let t = totals.entry(k.clone()).or_insert((0, 0));
                t.0 += n;
                t.1 = t.1.saturating_add(*ns);
                grand = grand.saturating_add(*ns);
            }
        }
    }
    let _ = writeln!(out, "critical-path buckets (whole trace):");
    let mut ranked: Vec<(&String, &(u64, u64))> = totals.iter().collect();
    ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    for (k, (n, ns)) in ranked {
        #[allow(clippy::cast_precision_loss)]
        let pct = if grand == 0 {
            0.0
        } else {
            *ns as f64 * 100.0 / grand as f64
        };
        let _ = writeln!(out, "  {k:<10} {n:>8}x {:>14.1}us {pct:>6.1}%", us(*ns));
    }
    out
}

/// Flamegraph-ready collapsed stacks: one `component;bucket value`
/// line per (component, attribution bucket), aggregated over every
/// episode, value in nanoseconds. Feed to `flamegraph.pl` or any
/// collapsed-stack viewer.
#[must_use]
pub fn collapsed_stacks(shards: &[TraceShard]) -> String {
    let mut agg: BTreeMap<(String, String), u64> = BTreeMap::new();
    for shard in shards {
        for ep in episodes_of(shard) {
            for (bucket, (_, ns)) in &ep.buckets {
                let sum = agg
                    .entry((ep.component.clone(), bucket.clone()))
                    .or_insert(0);
                *sum = sum.saturating_add(*ns);
            }
        }
    }
    let mut out = String::new();
    for ((comp, bucket), ns) in &agg {
        let _ = writeln!(out, "{comp};{bucket} {ns}");
    }
    out
}

// ---------------------------------------------------------------------
// Series (windowed telemetry)
// ---------------------------------------------------------------------

/// One parsed `--series` row.
#[derive(Debug, Clone, Default)]
pub struct SeriesRow {
    pub context: String,
    pub component: String,
    pub window: u64,
    pub t_start_ns: u64,
    /// The [`MetricsRow`] fields a series row carries.
    pub counts: MetricsRow,
    /// The recovery-latency p99 the writer estimated.
    pub p99_ns: u64,
}

/// A parsed `--series` file: header plus rows in file order.
#[derive(Debug, Clone, Default)]
pub struct SeriesFile {
    pub window_ns: u64,
    pub rows: Vec<SeriesRow>,
}

/// Parse a `--series` JSON-lines dump from text. A row needs its
/// component, window, invocations and faults.
pub fn parse_series_text(text: &str) -> Result<SeriesFile, String> {
    let mut file: Option<SeriesFile> = None;
    for line in json_lines(text) {
        let (no, j) = line?;
        series_line(&mut file, &j).map_err(|e| format!("line {no}: {e}"))?;
    }
    file.ok_or_else(|| "no series header found".to_owned())
}

/// One series line: the header, or a row of the file it opened.
fn series_line(file: &mut Option<SeriesFile>, j: &Json) -> Result<(), String> {
    version(j, SERIES_SCHEMA_VERSION)?;
    if j.get("kind").and_then(Json::as_str) == Some("series") {
        file.get_or_insert_with(SeriesFile::default).window_ns = uint(j, "window_ns")?;
        return Ok(());
    }
    let file = file.as_mut().ok_or("row before series header")?;
    let mut counts = MetricsRow {
        invocations: uint(j, "invocations")?,
        faults: uint(j, "faults")?,
        ..MetricsRow::default()
    };
    if let Some(Json::Object(pairs)) = j.get("mechanisms") {
        for (name, n) in pairs {
            counts.mechanisms[mechanism(name)?.index()] = n.as_u64().unwrap_or(0);
        }
    }
    let latency = |key| {
        let latency = j.get("recovery_latency");
        latency.and_then(|l| l.get(key)?.as_u64()).unwrap_or(0)
    };
    counts.recovery_latency.count = latency("count");
    counts.recovery_latency.total_ns = latency("total_ns");
    file.rows.push(SeriesRow {
        context: j
            .get("context")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        component: text(j, "component")?.to_owned(),
        window: uint(j, "window")?,
        t_start_ns: j.get("t_start_ns").and_then(Json::as_u64).unwrap_or(0),
        counts,
        p99_ns: latency("p99_ns"),
    });
    Ok(())
}

/// Parse a `--series` dump from a file path.
pub fn parse_series(path: &str) -> Result<SeriesFile, String> {
    read_file(path, parse_series_text)
}

/// Deterministic per-component summary of a series file (what
/// `sgstat series` prints): totals plus the worst window by faults and
/// by recovery-latency p99.
#[must_use]
pub fn series_report(file: &SeriesFile) -> String {
    #[derive(Default)]
    struct Agg {
        windows: u64,
        invocations: u64,
        faults: u64,
        mech: u64,
        worst_fault_window: u64,
        worst_faults: u64,
        worst_p99_window: u64,
        worst_p99: u64,
    }
    let mut per: BTreeMap<String, Agg> = BTreeMap::new();
    for row in &file.rows {
        let a = per.entry(row.component.clone()).or_default();
        a.windows += 1;
        let counts = &row.counts;
        a.invocations = a.invocations.saturating_add(counts.invocations);
        a.faults = a.faults.saturating_add(counts.faults);
        for n in counts.mechanisms {
            a.mech = a.mech.saturating_add(n);
        }
        if counts.faults > a.worst_faults {
            a.worst_faults = counts.faults;
            a.worst_fault_window = row.window;
        }
        if row.p99_ns > a.worst_p99 {
            a.worst_p99 = row.p99_ns;
            a.worst_p99_window = row.window;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "series: window {:.1}us, {} row(s), v{SERIES_SCHEMA_VERSION}",
        us(file.window_ns),
        file.rows.len()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>8} {:>8} {:>18} {:>20}",
        "component",
        "windows",
        "invocations",
        "faults",
        "mechs",
        "worst-faults@win",
        "worst-p99us@win"
    );
    for (name, a) in &per {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>8} {:>8} {:>12}@{:<5} {:>13.1}@{:<6}",
            name,
            a.windows,
            a.invocations,
            a.faults,
            a.mech,
            a.worst_faults,
            a.worst_fault_window,
            us(a.worst_p99),
            a.worst_p99_window
        );
    }
    out
}

// ---------------------------------------------------------------------
// Metrics rows
// ---------------------------------------------------------------------

/// The eight kernel counters of a `--metrics` row, in file order, each
/// with the help text of its OpenMetrics family.
const METRICS_COUNTERS: [(&str, &str); 8] = [
    ("invocations", "Component invocations"),
    ("faulted_invocations", "Invocations that returned a fault"),
    ("faults", "Faults injected"),
    ("reboots", "Micro-reboots"),
    ("watchdog_fires", "Watchdog firings"),
    ("degraded_rejections", "Calls rejected while degraded"),
    ("nested_faults", "Correlated faults during recovery"),
    ("cold_restarts", "Cold restarts"),
];

/// A row's eight kernel counters, in [`METRICS_COUNTERS`] order.
fn counters(r: &MetricsRow) -> [u64; 8] {
    [
        r.invocations,
        r.faulted_invocations,
        r.faults,
        r.reboots,
        r.watchdog_fires,
        r.degraded_rejections,
        r.nested_faults,
        r.cold_restarts,
    ]
}

/// Parse a `--metrics` JSON-lines dump from text: each line's context,
/// component and row, in file order.
pub fn parse_metrics_text(text: &str) -> Result<Vec<(String, String, MetricsRow)>, String> {
    let mut rows = Vec::new();
    for line in json_lines(text) {
        let (no, j) = line?;
        rows.push(metrics_line(&j).map_err(|e| format!("line {no}: {e}"))?);
    }
    if rows.is_empty() {
        return Err("no metrics rows found".to_owned());
    }
    Ok(rows)
}

/// Parse a `--metrics` dump from a file path.
pub fn parse_metrics(path: &str) -> Result<Vec<(String, String, MetricsRow)>, String> {
    read_file(path, parse_metrics_text)
}

/// One metrics line: its context, component and row.
fn metrics_line(j: &Json) -> Result<(String, String, MetricsRow), String> {
    version(j, METRICS_SCHEMA_VERSION)?;
    let latency = field(j, "recovery_latency", Some)?;
    let mut row = MetricsRow {
        invocations: uint(j, "invocations")?,
        faulted_invocations: uint(j, "faulted_invocations")?,
        faults: uint(j, "faults")?,
        reboots: uint(j, "reboots")?,
        watchdog_fires: uint(j, "watchdog_fires")?,
        degraded_rejections: uint(j, "degraded_rejections")?,
        nested_faults: uint(j, "nested_faults")?,
        cold_restarts: uint(j, "cold_restarts")?,
        recovery_latency: latency_stat(latency).map_err(|e| format!("recovery_latency: {e}"))?,
        ..MetricsRow::default()
    };
    let mechanisms = field(j, "mechanisms", Some)?;
    for (name, _) in object(j, "mechanisms")? {
        mechanism(name)?;
    }
    for m in MECHANISMS {
        row.mechanisms[m.index()] = uint(mechanisms, m.name())?;
    }
    let context = text(j, "context")?.to_owned();
    Ok((context, text(j, "component")?.to_owned(), row))
}

/// A `recovery_latency` object, histogram included.
fn latency_stat(j: &Json) -> Result<LatencyStat, String> {
    let (min_ns, max_ns) = (uint(j, "min_ns")?, uint(j, "max_ns")?);
    if min_ns > max_ns {
        return Err(format!("min_ns {min_ns} exceeds max_ns {max_ns}"));
    }
    let (count, total_ns) = (uint(j, "count")?, uint(j, "total_ns")?);
    let mut log2_buckets = [0; 64];
    for (key, n) in object(j, "log2_hist")? {
        let bucket = key
            .parse()
            .ok()
            .and_then(|i: usize| log2_buckets.get_mut(i));
        let bucket = bucket.ok_or_else(|| format!("log2_hist key {key:?} is not below 64"))?;
        *bucket = n.as_u64().ok_or("a log2_hist count is not a count")?;
    }
    // What `quantile_ns` relies on: min <= max, and buckets sum to count.
    let sum = log2_buckets.iter().try_fold(0u64, |s, &n| s.checked_add(n));
    if sum != Some(count) {
        return Err(format!("log2_hist does not sum to count {count}"));
    }
    Ok(LatencyStat {
        count,
        total_ns,
        min_ns,
        max_ns,
        log2_buckets,
    })
}

// ---------------------------------------------------------------------
// OpenMetrics export
// ---------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Re-render `--metrics` rows as an OpenMetrics text exposition, each
/// row's mechanisms in name order. Quantiles are recomputed from the
/// shipped log₂ histograms, so the export carries p50/p90/p99 even
/// though the JSON rows only store buckets.
#[must_use]
pub fn openmetrics_from_metrics(rows: &[(String, String, MetricsRow)]) -> String {
    let mut out = String::new();
    for (i, (name, help)) in METRICS_COUNTERS.into_iter().enumerate() {
        let _ = writeln!(out, "# TYPE sg_{name} counter");
        let _ = writeln!(out, "# HELP sg_{name} {help}");
        for (context, component, row) in rows {
            let _ = writeln!(
                out,
                "sg_{name}_total{{context=\"{}\",component=\"{}\"}} {}",
                escape_label(context),
                escape_label(component),
                counters(row)[i]
            );
        }
    }
    let mut by_name = MECHANISMS;
    by_name.sort_by_key(|m| m.name());
    let _ = writeln!(out, "# TYPE sg_mechanism counter");
    let _ = writeln!(out, "# HELP sg_mechanism Recovery mechanism firings");
    for (context, component, row) in rows {
        for m in by_name {
            let _ = writeln!(
                out,
                "sg_mechanism_total{{context=\"{}\",component=\"{}\",mech=\"{}\"}} {}",
                escape_label(context),
                escape_label(component),
                m.name(),
                row.mechanisms[m.index()]
            );
        }
    }
    let _ = writeln!(out, "# TYPE sg_recovery_latency_ns summary");
    let _ = writeln!(
        out,
        "# HELP sg_recovery_latency_ns Recovery latency per episode"
    );
    for (context, component, row) in rows {
        let latency = &row.recovery_latency;
        if latency.count == 0 {
            continue;
        }
        let labels = format!(
            "context=\"{}\",component=\"{}\"",
            escape_label(context),
            escape_label(component)
        );
        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "sg_recovery_latency_ns{{{labels},quantile=\"{qs}\"}} {}",
                latency.quantile_ns(q)
            );
        }
        let _ = writeln!(
            out,
            "sg_recovery_latency_ns_count{{{labels}}} {}",
            latency.count
        );
        let _ = writeln!(
            out,
            "sg_recovery_latency_ns_sum{{{labels}}} {}",
            latency.total_ns
        );
    }
    out.push_str("# EOF\n");
    out
}

// ---------------------------------------------------------------------
// Cross-artifact agreement
// ---------------------------------------------------------------------

/// Counts keyed by (context, component), then by field name.
type Tally = BTreeMap<(String, String), BTreeMap<String, u64>>;

fn tally(t: &mut Tally, context: &str, component: &str, field: &str, n: u64) {
    let row = t
        .entry((context.to_owned(), component.to_owned()))
        .or_default();
    let count = row.entry(field.to_owned()).or_default();
    *count = count.saturating_add(n);
}

/// Tally the fields of `row` that a series row carries.
fn tally_series_fields(t: &mut Tally, context: &str, component: &str, row: &MetricsRow) {
    let mut add = |field: &str, n| tally(t, context, component, field, n);
    add("invocations", row.invocations);
    add("faults", row.faults);
    add("latency.count", row.recovery_latency.count);
    add("latency.total_ns", row.recovery_latency.total_ns);
    for m in MECHANISMS {
        add(m.name(), row.mechanisms[m.index()]);
    }
}

/// What `sgstat agree` found: one line per comparison it made or
/// skipped, each disagreeing (context, component, field) on a line of
/// its own under its comparison.
#[derive(Debug, Default)]
pub struct Agreement {
    pub lines: Vec<String>,
    /// How many (context, component, field) triples disagree.
    pub mismatches: usize,
}

impl Agreement {
    /// Compare the metrics tally with the `other` artifact's over the
    /// union of their keys (`unit` names them) and fields; a missing
    /// count reads 0.
    fn compare(&mut self, what: &str, unit: &str, metrics: &Tally, other: &Tally) {
        let keys: BTreeSet<&(String, String)> = metrics.keys().chain(other.keys()).collect();
        let mut bad = Vec::new();
        for key in &keys {
            let sides = [metrics.get(*key), other.get(*key)];
            let fields: BTreeSet<&String> = sides.iter().flatten().flat_map(|m| m.keys()).collect();
            for field in fields {
                let [m, o] = sides.map(|side| side.and_then(|s| s.get(field)).map_or(0, |n| *n));
                if m != o {
                    let (context, component) = key;
                    bad.push(format!(
                        "  {context} {component} {field}: metrics {m}, {what} {o}"
                    ));
                }
            }
        }
        self.lines.push(if bad.is_empty() {
            format!("{what}: {} {unit} agree", keys.len())
        } else {
            format!(
                "{what}: {} mismatch(es) over {} {unit}",
                bad.len(),
                keys.len()
            )
        });
        self.mismatches += bad.len();
        self.lines.append(&mut bad);
    }
}

/// Re-derive the metrics rows from a series file and from a trace.
///
/// * Against the series, per (context, component): invocations,
///   faults, each mechanism, and the recovery-latency count and total.
/// * Against the trace, per component name summed over every shard and
///   context (`*`): the `fault` event count while no shard dropped a
///   recovery-class event, and the summed `n` of `mechanism` events
///   while no shard dropped any event. Steady-state mechanism firings
///   are ambient, so a ring that overflowed lost some of them.
#[must_use]
pub fn agree(
    metrics: &[(String, String, MetricsRow)],
    series: Option<&SeriesFile>,
    trace: Option<&[TraceShard]>,
) -> Agreement {
    let mut out = Agreement::default();
    let rows: Vec<&(String, String, MetricsRow)> = metrics
        .iter()
        .filter(|(_, component, _)| component != "*total*")
        .collect();
    if let Some(series) = series {
        let (mut want, mut got) = (Tally::new(), Tally::new());
        for (context, component, row) in &rows {
            tally_series_fields(&mut want, context, component, row);
        }
        for r in &series.rows {
            tally_series_fields(&mut got, &r.context, &r.component, &r.counts);
        }
        out.compare("series", "(context, component) pair(s)", &want, &got);
    }
    if let Some(shards) = trace {
        let sum = |f: fn(&TraceShard) -> u64| shards.iter().map(f).fold(0, u64::saturating_add);
        let (dropped, dropped_recovery) = (sum(|s| s.dropped), sum(|s| s.dropped_recovery));
        if dropped_recovery > 0 {
            out.lines.push(format!(
                "trace: SKIP (the ring dropped {dropped_recovery} recovery-class event(s))"
            ));
            return out;
        }
        let mechanisms = dropped == 0;
        let (mut want, mut got) = (Tally::new(), Tally::new());
        for (_, component, row) in &rows {
            tally(&mut want, "*", component, "faults", row.faults);
            for m in MECHANISMS.into_iter().filter(|_| mechanisms) {
                tally(
                    &mut want,
                    "*",
                    component,
                    m.name(),
                    row.mechanisms[m.index()],
                );
            }
        }
        for shard in shards {
            for ev in &shard.events {
                let name = component_name(shard, ev.component);
                match ev.kind {
                    TraceEventKind::FaultInjected { .. } => tally(&mut got, "*", name, "faults", 1),
                    TraceEventKind::MechanismFired { mech, n } if mechanisms => {
                        tally(&mut got, "*", name, mech.name(), n);
                    }
                    _ => {}
                }
            }
        }
        out.compare("trace", "component(s)", &want, &got);
        if !mechanisms {
            out.lines.push(format!(
                "trace mechanisms: SKIP (the ring dropped {dropped} ambient event(s))"
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// SLO evaluation
// ---------------------------------------------------------------------

/// Thresholds for `sgstat slo`. `None` disables a check.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloPolicy {
    /// Maximum tolerated p99 top-level recovery latency.
    pub max_p99_ns: Option<u64>,
    /// Minimum tolerated whole-system availability (fraction, e.g.
    /// 0.999).
    pub min_availability: Option<f64>,
}

/// What `sgstat slo` observed against the policy.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    pub p99_ns: u64,
    pub availability: f64,
    pub episodes: u64,
    /// Human-readable violation lines; empty means the SLO holds.
    pub violations: Vec<String>,
    /// The conservation audit could not run (ring overflow).
    pub conservation_skipped: bool,
    /// The conservation audit ran and failed — the analytics are
    /// untrustworthy, reported as a violation too.
    pub conservation_failed: bool,
}

/// Evaluate the SLO policy against an availability report. The
/// conservation audit runs first: a trace whose books don't balance
/// fails the SLO outright, because none of its numbers can be trusted.
#[must_use]
pub fn evaluate_slo(report: &AvailReport, policy: &SloPolicy) -> SloReport {
    let total = report.total();
    let mut slo = SloReport {
        p99_ns: exact_quantile(&total.latencies_ns, 0.99),
        availability: total.availability(),
        episodes: total.episodes,
        ..SloReport::default()
    };
    match report.conservation() {
        Conservation::Ok => {}
        Conservation::Skip => slo.conservation_skipped = true,
        Conservation::Mismatch(bad) => {
            slo.conservation_failed = true;
            for b in bad {
                slo.violations.push(format!("conservation: {b}"));
            }
        }
    }
    if let Some(max) = policy.max_p99_ns {
        if slo.p99_ns > max {
            slo.violations.push(format!(
                "p99 recovery latency {:.1}us exceeds budget {:.1}us",
                us(slo.p99_ns),
                us(max)
            ));
        }
    }
    if let Some(min) = policy.min_availability {
        if slo.availability < min {
            slo.violations.push(format!(
                "availability {:.6}% below floor {:.6}%",
                slo.availability * 100.0,
                min * 100.0
            ));
        }
    }
    slo
}

#[cfg(test)]
mod tests {
    use composite::MetricsSnapshot;

    use super::*;

    fn synth_trace() -> Vec<TraceShard> {
        // One shard, one component ("srv"), one top-level episode of
        // 300ns (reboot 200 + walk 100) and a degraded window of 150ns.
        let text = concat!(
            r#"{"v":1,"shard":"t","names":["boot","srv"],"events":5,"dropped":0,"dropped_recovery":0,"span_count":5}"#,
            "\n",
            r#"{"span":0,"parent":null,"ts":1000,"dur":0,"tid":1,"comp":1,"name":"srv","epoch":0,"kind":"fault"}"#,
            "\n",
            r#"{"span":1,"parent":0,"ts":1000,"dur":200,"tid":1,"comp":1,"name":"srv","epoch":1,"kind":"reboot"}"#,
            "\n",
            r#"{"span":2,"parent":0,"ts":1200,"dur":100,"tid":1,"comp":1,"name":"srv","epoch":1,"kind":"walk_step","function":"f","desc":null,"mech":"T0"}"#,
            "\n",
            r#"{"span":3,"parent":0,"ts":1300,"dur":0,"tid":1,"comp":1,"name":"srv","epoch":1,"kind":"degraded","until":1450}"#,
            "\n",
            r#"{"span":4,"parent":0,"ts":1300,"dur":0,"tid":1,"comp":1,"name":"srv","epoch":1,"kind":"episode_end","attributed":300}"#,
            "\n",
        );
        parse_trace_text(text).expect("parse")
    }

    #[test]
    fn avail_accounts_downtime_and_degraded() {
        let shards = synth_trace();
        let report = avail_report(&shards);
        let srv = report.components.get("srv").expect("srv row");
        assert_eq!(srv.downtime_ns, 300);
        assert_eq!(srv.resummed_ns, 300);
        assert_eq!(srv.degraded_ns, 150);
        assert_eq!(srv.episodes, 1);
        assert_eq!(srv.reboots, 1);
        assert_eq!(report.conservation(), Conservation::Ok);
        // Horizon is max(ts+dur) = 1300; availability = 1 - 300/1300.
        assert_eq!(report.horizon_ns, 1300);
        assert!((srv.availability() - (1.0 - 300.0 / 1300.0)).abs() < 1e-12);
        assert_eq!(srv.mttr_ns(), 300);
    }

    #[test]
    fn conservation_flags_unbalanced_books() {
        let mut shards = synth_trace();
        // Tamper: claim more attributed latency than the spans carry.
        for ev in &mut shards[0].events {
            if let TraceEventKind::EpisodeEnd { attributed } = &mut ev.kind {
                *attributed = SimTime(999);
            }
        }
        let report = avail_report(&shards);
        assert!(matches!(report.conservation(), Conservation::Mismatch(_)));
        let slo = evaluate_slo(&report, &SloPolicy::default());
        assert!(slo.conservation_failed);
        assert!(!slo.violations.is_empty());
    }

    #[test]
    fn conservation_skips_on_ring_overflow() {
        let mut shards = synth_trace();
        shards[0].dropped_recovery = 3;
        let report = avail_report(&shards);
        assert_eq!(report.conservation(), Conservation::Skip);
        let slo = evaluate_slo(&report, &SloPolicy::default());
        assert!(slo.conservation_skipped && !slo.conservation_failed);
    }

    #[test]
    fn slo_thresholds_gate() {
        let shards = synth_trace();
        let report = avail_report(&shards);
        let ok = evaluate_slo(
            &report,
            &SloPolicy {
                max_p99_ns: Some(1_000),
                min_availability: Some(0.5),
            },
        );
        assert!(ok.violations.is_empty());
        let bad = evaluate_slo(
            &report,
            &SloPolicy {
                max_p99_ns: Some(10),
                min_availability: Some(0.9999),
            },
        );
        assert_eq!(bad.violations.len(), 2);
    }

    #[test]
    fn critpath_ranks_reboot_first() {
        let shards = synth_trace();
        let report = critpath_report(&shards);
        assert!(report.contains("reboot 1x0.2us -> T0-walk 1x0.1us"));
        let stacks = collapsed_stacks(&shards);
        assert_eq!(stacks, "srv;T0-walk 100\nsrv;reboot 200\n");
    }

    #[test]
    fn sums_of_u64_max_latencies_saturate() {
        // Two shards, each with two `u64::MAX`-attributed episodes on one
        // component, a `u64::MAX` reboot span, mechanism count and
        // degraded window: every sum clamps instead of overflowing.
        const MAX: u64 = u64::MAX;
        let mut text = String::new();
        for shard in ["a", "b"] {
            let _ = writeln!(
                text,
                r#"{{"v":1,"shard":"{shard}","names":["boot","srv"],"events":10,"dropped":0,"dropped_recovery":0,"span_count":10}}"#
            );
            for ep in [0, 4] {
                for line in [
                    format!(r#""ts":{ep},"dur":0,"kind":"fault""#),
                    format!(r#""ts":{ep},"dur":{MAX},"kind":"reboot""#),
                    format!(r#""ts":{ep},"dur":0,"kind":"mechanism","mech":"R0","n":{MAX}"#),
                    format!(r#""ts":{ep},"dur":0,"kind":"degraded","until":{MAX}"#),
                    format!(r#""ts":{ep},"dur":0,"kind":"episode_end","attributed":{MAX}"#),
                ] {
                    let _ = writeln!(
                        text,
                        r#"{{"span":0,"parent":null,"tid":1,"comp":1,"name":"srv","epoch":0,{line}}}"#
                    );
                }
            }
        }
        let shards = parse_trace_text(&text).expect("parse");
        let report = avail_report(&shards);
        assert_eq!(report.horizon_ns, MAX);
        let srv = &report.components["srv"];
        assert_eq!(
            [
                srv.observed_ns,
                srv.downtime_ns,
                srv.resummed_ns,
                srv.degraded_ns
            ],
            [MAX; 4]
        );
        assert_eq!((srv.episodes, srv.availability()), (4, 0.0));
        assert_eq!(report.conservation(), Conservation::Ok);
        assert_eq!(report.total().downtime_ns, MAX);
        assert_eq!(episodes_of(&shards[0])[0].mech_counts["R0"], MAX);
        let critpath = critpath_report(&shards);
        assert!(
            critpath.ends_with("4x 18446744073709552.0us  100.0%\n"),
            "{critpath}"
        );
        assert_eq!(collapsed_stacks(&shards), format!("srv;reboot {MAX}\n"));

        // Downtime beyond the 4 ns observed clamps availability at 0.
        let mut short = shards[..1].to_vec();
        short[0]
            .events
            .iter_mut()
            .for_each(|ev| ev.dur = SimTime::ZERO);
        let srv = &avail_report(&short).components["srv"];
        assert_eq!(
            (srv.observed_ns, srv.downtime_ns, srv.availability()),
            (4, MAX, 0.0)
        );

        // Two series rows of `u64::MAX` invocations, faults and mechanisms.
        let row = format!(
            r#"{{"v":2,"component":"srv","window":0,"invocations":{MAX},"faults":{MAX},"mechanisms":{{"R0":{MAX},"T0":{MAX}}}}}"#
        );
        let series = format!("{{\"v\":2,\"kind\":\"series\",\"window_ns\":1}}\n{row}\n{row}\n");
        let report = series_report(&parse_series_text(&series).expect("parse"));
        assert!(
            report.contains(&format!(" 2 {MAX} {MAX} {MAX} ")),
            "{report}"
        );
    }

    #[test]
    fn series_roundtrip_and_report() {
        let text = concat!(
            r#"{"v":2,"kind":"series","window_ns":1000}"#,
            "\n",
            r#"{"v":2,"context":"t/a","component":"srv","window":3,"t_start_ns":3000,"invocations":10,"faults":2,"mechanisms":{"R0":1,"T0":0,"T1":0,"D0":0,"D1":0,"G0":0,"G1":0,"U0":0},"recovery_latency":{"count":2,"total_ns":600,"min_ns":200,"max_ns":400,"p50_ns":200,"p90_ns":400,"p99_ns":400}}"#,
            "\n",
        );
        let file = parse_series_text(text).expect("parse");
        assert_eq!(file.window_ns, 1000);
        assert_eq!(file.rows.len(), 1);
        assert_eq!(file.rows[0].counts.mechanisms[Mechanism::R0.index()], 1);
        assert_eq!(file.rows[0].p99_ns, 400);
        let report = series_report(&file);
        assert!(report.contains("srv"));
        assert!(report.contains("window 1.0us"));
    }

    #[test]
    fn agree_names_each_disagreeing_field() {
        let mut srv = MetricsRow {
            invocations: 5,
            faults: 1,
            reboots: 1,
            ..MetricsRow::default()
        };
        srv.mechanisms[Mechanism::R0.index()] = 1;
        srv.recovery_latency.record(SimTime(300));
        let snapshot = MetricsSnapshot {
            rows: [("srv".to_owned(), srv)].into(),
        };
        let metrics = parse_metrics_text(&snapshot.to_json_lines("t")).expect("metrics");
        let series = concat!(
            r#"{"v":2,"kind":"series","window_ns":1000}"#,
            "\n",
            r#"{"v":2,"context":"t","component":"srv","window":0,"invocations":3,"faults":1,"mechanisms":{"R0":1},"recovery_latency":{"count":1,"total_ns":300}}"#,
            "\n",
            r#"{"v":2,"context":"t","component":"srv","window":1,"invocations":2,"faults":0}"#,
            "\n",
        );
        let ok = agree(
            &metrics,
            Some(&parse_series_text(series).expect("series")),
            None,
        );
        assert_eq!(ok.mismatches, 0, "{:?}", ok.lines);
        assert_eq!(ok.lines, ["series: 1 (context, component) pair(s) agree"]);

        // One hand-edited series row: window 1 claims one more call.
        let edited = series.replace(r#""invocations":2"#, r#""invocations":3"#);
        let bad = agree(
            &metrics,
            Some(&parse_series_text(&edited).expect("series")),
            None,
        );
        assert_eq!(bad.mismatches, 1);
        assert_eq!(
            bad.lines,
            [
                "series: 1 mismatch(es) over 1 (context, component) pair(s)",
                "  t srv invocations: metrics 5, series 6"
            ]
        );

        // The trace holds srv's one fault but no mechanism event: the R0
        // count disagrees while nothing was dropped, is skipped once
        // ambient events were, and the whole trace is skipped once
        // recovery-class events were.
        let mut shards = synth_trace();
        let full = agree(&metrics, None, Some(&shards));
        assert_eq!(full.mismatches, 1);
        assert_eq!(full.lines[1], "  * srv R0: metrics 1, trace 0");
        shards[0].dropped = 5;
        let ambient = agree(&metrics, None, Some(&shards));
        assert_eq!(ambient.mismatches, 0);
        assert_eq!(
            ambient.lines,
            [
                "trace: 1 component(s) agree",
                "trace mechanisms: SKIP (the ring dropped 5 ambient event(s))"
            ]
        );
        shards[0].dropped_recovery = 2;
        let skipped = agree(&metrics, None, Some(&shards));
        assert_eq!(skipped.mismatches, 0);
        assert!(skipped.lines[0].starts_with("trace: SKIP"));
    }

    #[test]
    fn openmetrics_renders_quantiles_and_eof() {
        let text = concat!(
            r#"{"v":2,"context":"t","component":"srv","invocations":5,"faulted_invocations":1,"faults":1,"reboots":1,"watchdog_fires":0,"degraded_rejections":0,"nested_faults":0,"cold_restarts":0,"mechanisms":{"R0":1,"T0":0,"T1":0,"D0":0,"D1":0,"G0":0,"G1":0,"U0":0,"DL0":0,"CR0":0},"recovery_latency":{"count":1,"total_ns":300,"min_ns":300,"max_ns":300,"mean_ns":300,"log2_hist":{"8":1}}}"#,
            "\n",
        );
        let om = openmetrics_from_metrics(&parse_metrics_text(text).expect("parse"));
        assert!(om.contains(r#"sg_invocations_total{context="t",component="srv"} 5"#));
        assert!(om.contains(r#"sg_mechanism_total{context="t",component="srv",mech="R0"} 1"#));
        assert!(om.contains(r#"quantile="0.99"} 300"#));
        assert!(om.ends_with("# EOF\n"));
    }
}
