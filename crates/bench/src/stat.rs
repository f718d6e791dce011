//! The one reader of the harnesses' JSON-lines artifacts, and the
//! recovery-SLO analytics built on it, shared by the `sgtrace` and
//! `sgstat` binaries and the test suite.
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
//! * [`openmetrics_from_metrics`] — `--metrics` rows re-rendered as an
//!   OpenMetrics text exposition (quantiles recomputed from the shipped
//!   log₂ histograms via [`LatencyStat::quantile_ns`]).
//! * [`evaluate_slo`] — gate a trace against `--max-p99-ns` /
//!   `--min-availability` thresholds; violations make `sgstat slo`
//!   exit nonzero.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use composite::{Json, LatencyStat};

// ---------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------

/// One parsed flight-recorder shard: the header line plus its events.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    pub label: String,
    pub names: Vec<String>,
    pub dropped: u64,
    /// Recovery-class events lost to ring overflow; when zero, latency
    /// attribution is complete even if ambient `dropped > 0`.
    pub dropped_recovery: u64,
    pub events: Vec<Ev>,
}

/// One parsed trace event: the fields both analyzers read.
#[derive(Debug, Clone, Default)]
pub struct Ev {
    pub span: u64,
    /// The causal parent span (`None` for a root such as a top-level
    /// fault).
    pub parent: Option<u64>,
    pub ts: u64,
    pub dur: u64,
    pub comp: u64,
    pub epoch: u64,
    pub kind: String,
    pub function: Option<String>,
    pub mech: Option<String>,
    pub n: Option<u64>,
    pub desc: Option<i64>,
    pub outcome: Option<String>,
    pub attributed: Option<u64>,
    /// Nesting depth of a correlated fault (present only when > 0).
    pub depth: Option<u64>,
    pub until: Option<u64>,
}

impl Ev {
    fn from_json(j: &Json) -> Result<Ev, String> {
        Ok(Ev {
            span: j.get("span").and_then(Json::as_u64).ok_or("missing span")?,
            parent: j.get("parent").and_then(Json::as_u64),
            ts: j.get("ts").and_then(Json::as_u64).ok_or("missing ts")?,
            dur: j.get("dur").and_then(Json::as_u64).unwrap_or(0),
            comp: j.get("comp").and_then(Json::as_u64).unwrap_or(0),
            epoch: j.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing kind")?
                .to_owned(),
            function: j.get("function").and_then(Json::as_str).map(str::to_owned),
            mech: j.get("mech").and_then(Json::as_str).map(str::to_owned),
            n: j.get("n").and_then(Json::as_u64),
            desc: j.get("desc").and_then(Json::as_i64),
            outcome: j.get("outcome").and_then(Json::as_str).map(str::to_owned),
            attributed: j.get("attributed").and_then(Json::as_u64),
            depth: j.get("depth").and_then(Json::as_u64),
            until: j.get("until").and_then(Json::as_u64),
        })
    }
}

/// Parse a `--trace` JSON-lines dump (possibly many shards) from text.
pub fn parse_trace_text(text: &str) -> Result<Vec<Shard>, String> {
    let mut shards: Vec<Shard> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(label) = j.get("shard").and_then(Json::as_str) {
            shards.push(Shard {
                label: label.to_owned(),
                names: j
                    .get("names")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default(),
                dropped: j.get("dropped").and_then(Json::as_u64).unwrap_or(0),
                dropped_recovery: j
                    .get("dropped_recovery")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                events: Vec::new(),
            });
        } else {
            let ev = Ev::from_json(&j).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            shards
                .last_mut()
                .ok_or_else(|| format!("line {}: event before any shard header", lineno + 1))?
                .events
                .push(ev);
        }
    }
    Ok(shards)
}

/// Parse a `--trace` dump from a file path.
pub fn parse_trace(path: &str) -> Result<Vec<Shard>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace_text(&text).map_err(|e| format!("{path}: {e}"))
}

impl Shard {
    /// The name of component `comp`, or `?` outside the name table.
    #[must_use]
    pub fn name(&self, comp: u64) -> &str {
        self.names.get(comp as usize).map_or("?", String::as_str)
    }
}

/// Nanoseconds as microseconds, the unit every report prints.
#[must_use]
pub fn us(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        ns as f64 / 1000.0
    }
}

// ---------------------------------------------------------------------
// Episode reconstruction
// ---------------------------------------------------------------------

/// One reconstructed recovery episode (fault → `episode_end`).
#[derive(Debug, Clone, Default)]
pub struct Episode {
    pub component: String,
    pub start: u64,
    pub end: u64,
    /// Latency the kernel attributed (from the `episode_end` event).
    pub attributed: u64,
    /// Latency independently re-summed from this episode's timed spans.
    pub resummed: u64,
    /// Timed-span buckets: label -> (count, total ns).
    pub buckets: BTreeMap<String, (u64, u64)>,
    /// σ-walk replays in order: (descriptor, mechanism, function).
    pub walk_steps: Vec<(Option<i64>, String, String)>,
    /// Mechanism firings inside the episode: mech -> total n.
    pub mech_counts: BTreeMap<String, u64>,
    /// 0 for a top-level fault, >0 for a correlated fault raised while
    /// this component's recovery was already in flight (a child in the
    /// episode tree).
    pub depth: usize,
    pub closed: bool,
}

/// The attribution bucket of one timed event.
fn bucket_of(ev: &Ev) -> String {
    match ev.kind.as_str() {
        "reboot" => "reboot".to_owned(),
        "walk_step" => format!("{}-walk", ev.mech.as_deref().unwrap_or("?")),
        "mechanism" => ev.mech.clone().unwrap_or_else(|| "?".to_owned()),
        other => other.to_owned(),
    }
}

/// Linear scan mirroring the kernel-side recorder: a `fault` on
/// component `c` pushes an episode on `c`'s stack, each `episode_end`
/// pops the innermost, and timed events accumulate into the innermost
/// open episode alone — so durations are never double counted between a
/// parent episode and its nested children, and attribution conservation
/// holds independently for every node of the episode tree.
pub fn episodes_of(shard: &Shard) -> Vec<Episode> {
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut eps: Vec<Episode> = Vec::new();
    for ev in &shard.events {
        match ev.kind.as_str() {
            "fault" => {
                let stack = open.entry(ev.comp).or_default();
                let idx = eps.len();
                eps.push(Episode {
                    component: shard.name(ev.comp).to_owned(),
                    start: ev.ts,
                    end: ev.ts,
                    depth: stack.len(),
                    ..Episode::default()
                });
                stack.push(idx);
            }
            "episode_end" => {
                if let Some(idx) = open.get_mut(&ev.comp).and_then(Vec::pop) {
                    eps[idx].attributed = ev.attributed.unwrap_or(0);
                    eps[idx].end = ev.ts;
                    eps[idx].closed = true;
                }
            }
            _ => {
                if let Some(&idx) = open.get(&ev.comp).and_then(|s| s.last()) {
                    let ep = &mut eps[idx];
                    if ev.dur > 0 {
                        ep.resummed = ep.resummed.saturating_add(ev.dur);
                        let b = ep.buckets.entry(bucket_of(ev)).or_insert((0, 0));
                        b.0 += 1;
                        b.1 = b.1.saturating_add(ev.dur);
                    }
                    if ev.kind == "walk_step" {
                        ep.walk_steps.push((
                            ev.desc,
                            ev.mech.clone().unwrap_or_default(),
                            ev.function.clone().unwrap_or_default(),
                        ));
                    }
                    if ev.kind == "mechanism" {
                        let n = ep
                            .mech_counts
                            .entry(ev.mech.clone().unwrap_or_default())
                            .or_insert(0);
                        *n = n.saturating_add(ev.n.unwrap_or(0));
                    }
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

    /// p99 of top-level episode recovery latency across all components
    /// (exact nearest-rank, not a histogram estimate).
    #[must_use]
    pub fn p99_recovery_ns(&self) -> u64 {
        exact_quantile(&self.total().latencies_ns, 0.99)
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
        for (name, c) in &self.components {
            let p99 = exact_quantile(&c.latencies_ns, 0.99);
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
                us(p99)
            );
        }
        let t = self.total();
        let _ = writeln!(
            out,
            "{:<10} {:>11.6}% {:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            "TOTAL",
            t.availability() * 100.0,
            t.episodes,
            us(t.downtime_ns),
            us(t.degraded_ns),
            us(t.mttr_ns()),
            us(t.mtbf_ns()),
            us(exact_quantile(&t.latencies_ns, 0.99))
        );
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
pub fn avail_report(shards: &[Shard]) -> AvailReport {
    let mut report = AvailReport {
        shards: shards.len(),
        ..AvailReport::default()
    };
    for shard in shards {
        report.dropped_recovery += shard.dropped_recovery;
        let horizon = shard
            .events
            .iter()
            .map(|e| e.ts.saturating_add(e.dur))
            .max()
            .unwrap_or(0);
        report.horizon_ns = report.horizon_ns.saturating_add(horizon);
        // Components with recovery-class activity in this shard: their
        // observed time grows by the shard's wall length.
        let mut active: BTreeMap<u64, ()> = BTreeMap::new();
        for ev in &shard.events {
            match ev.kind.as_str() {
                "fault" | "episode_end" | "watchdog" | "degraded" | "cold_restart" => {
                    active.insert(ev.comp, ());
                }
                _ => {}
            }
        }
        for &comp in active.keys() {
            let c = report.components.entry(shard.name(comp).to_owned());
            let observed = &mut c.or_default().observed_ns;
            *observed = observed.saturating_add(horizon);
        }
        for ev in &shard.events {
            let slot = || shard.name(ev.comp).to_owned();
            match ev.kind.as_str() {
                "watchdog" => {
                    report.components.entry(slot()).or_default().watchdog_fires += 1;
                }
                "cold_restart" => {
                    report.components.entry(slot()).or_default().cold_restarts += 1;
                }
                "reboot" => {
                    if let Some(c) = report.components.get_mut(&slot()) {
                        c.reboots += 1;
                    }
                }
                "degraded" => {
                    // A degraded window may be declared to end past the
                    // last recorded event; report the full declared span.
                    let until = ev.until.unwrap_or(ev.ts);
                    let degraded = &mut report.components.entry(slot()).or_default().degraded_ns;
                    *degraded = degraded.saturating_add(until.saturating_sub(ev.ts));
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
pub fn critpath_report(shards: &[Shard]) -> String {
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
pub fn collapsed_stacks(shards: &[Shard]) -> String {
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
    pub invocations: u64,
    pub faults: u64,
    pub mechanisms: BTreeMap<String, u64>,
    pub latency_count: u64,
    pub latency_total_ns: u64,
    pub p99_ns: u64,
}

/// A parsed `--series` file: header plus rows in file order.
#[derive(Debug, Clone, Default)]
pub struct SeriesFile {
    pub version: u64,
    pub window_ns: u64,
    pub rows: Vec<SeriesRow>,
}

/// Parse a `--series` JSON-lines dump from text.
pub fn parse_series_text(text: &str) -> Result<SeriesFile, String> {
    let mut file = SeriesFile::default();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if j.get("kind").and_then(Json::as_str) == Some("series") {
            file.version = j.get("v").and_then(Json::as_u64).unwrap_or(0);
            file.window_ns = j
                .get("window_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: header missing window_ns", lineno + 1))?;
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(format!("line {}: row before series header", lineno + 1));
        }
        let mut row = SeriesRow {
            context: j
                .get("context")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            component: j
                .get("component")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing component", lineno + 1))?
                .to_owned(),
            window: j.get("window").and_then(Json::as_u64).unwrap_or(0),
            t_start_ns: j.get("t_start_ns").and_then(Json::as_u64).unwrap_or(0),
            invocations: j.get("invocations").and_then(Json::as_u64).unwrap_or(0),
            faults: j.get("faults").and_then(Json::as_u64).unwrap_or(0),
            ..SeriesRow::default()
        };
        if let Some(Json::Object(pairs)) = j.get("mechanisms") {
            for (k, v) in pairs {
                if let Some(n) = v.as_u64() {
                    if n > 0 {
                        row.mechanisms.insert(k.clone(), n);
                    }
                }
            }
        }
        if let Some(l) = j.get("recovery_latency") {
            row.latency_count = l.get("count").and_then(Json::as_u64).unwrap_or(0);
            row.latency_total_ns = l.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
            row.p99_ns = l.get("p99_ns").and_then(Json::as_u64).unwrap_or(0);
        }
        file.rows.push(row);
    }
    if !saw_header {
        return Err("no series header found".to_owned());
    }
    Ok(file)
}

/// Parse a `--series` dump from a file path.
pub fn parse_series(path: &str) -> Result<SeriesFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_series_text(&text).map_err(|e| format!("{path}: {e}"))
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
        a.invocations = a.invocations.saturating_add(row.invocations);
        a.faults = a.faults.saturating_add(row.faults);
        for n in row.mechanisms.values() {
            a.mech = a.mech.saturating_add(*n);
        }
        if row.faults > a.worst_faults {
            a.worst_faults = row.faults;
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
        "series: window {:.1}us, {} row(s), v{}",
        us(file.window_ns),
        file.rows.len(),
        file.version
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
// OpenMetrics export
// ---------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Re-render a `--metrics` JSON-lines dump as an OpenMetrics text
/// exposition. Quantiles are recomputed from the shipped log₂
/// histograms, so the export carries p50/p90/p99 even though the JSON
/// rows only store buckets.
pub fn openmetrics_from_metrics(text: &str) -> Result<String, String> {
    struct Row {
        context: String,
        component: String,
        counters: Vec<(&'static str, u64)>,
        mechanisms: BTreeMap<String, u64>,
        latency: LatencyStat,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut row = Row {
            context: j
                .get("context")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            component: j
                .get("component")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            counters: vec![
                ("invocations", get("invocations")),
                ("faulted_invocations", get("faulted_invocations")),
                ("faults", get("faults")),
                ("reboots", get("reboots")),
                ("watchdog_fires", get("watchdog_fires")),
                ("degraded_rejections", get("degraded_rejections")),
                ("nested_faults", get("nested_faults")),
                ("cold_restarts", get("cold_restarts")),
            ],
            mechanisms: BTreeMap::new(),
            latency: LatencyStat::default(),
        };
        if let Some(Json::Object(pairs)) = j.get("mechanisms") {
            for (k, v) in pairs {
                if let Some(n) = v.as_u64() {
                    row.mechanisms.insert(k.clone(), n);
                }
            }
        }
        if let Some(l) = j.get("recovery_latency") {
            row.latency.count = l.get("count").and_then(Json::as_u64).unwrap_or(0);
            row.latency.total_ns = l.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
            row.latency.min_ns = l.get("min_ns").and_then(Json::as_u64).unwrap_or(0);
            row.latency.max_ns = l.get("max_ns").and_then(Json::as_u64).unwrap_or(0);
            if let Some(Json::Object(hist)) = l.get("log2_hist") {
                for (k, v) in hist {
                    if let (Ok(i), Some(n)) = (k.parse::<usize>(), v.as_u64()) {
                        if i < 64 {
                            row.latency.log2_buckets[i] = n;
                        }
                    }
                }
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err("no metrics rows found".to_owned());
    }

    let mut out = String::new();
    for (name, help) in [
        ("invocations", "Component invocations"),
        ("faulted_invocations", "Invocations that returned a fault"),
        ("faults", "Faults injected"),
        ("reboots", "Micro-reboots"),
        ("watchdog_fires", "Watchdog firings"),
        ("degraded_rejections", "Calls rejected while degraded"),
        ("nested_faults", "Correlated faults during recovery"),
        ("cold_restarts", "Cold restarts"),
    ] {
        let _ = writeln!(out, "# TYPE sg_{name} counter");
        let _ = writeln!(out, "# HELP sg_{name} {help}");
        for row in &rows {
            let v = row
                .counters
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v);
            let _ = writeln!(
                out,
                "sg_{name}_total{{context=\"{}\",component=\"{}\"}} {v}",
                escape_label(&row.context),
                escape_label(&row.component)
            );
        }
    }
    let _ = writeln!(out, "# TYPE sg_mechanism counter");
    let _ = writeln!(out, "# HELP sg_mechanism Recovery mechanism firings");
    for row in &rows {
        for (mech, n) in &row.mechanisms {
            let _ = writeln!(
                out,
                "sg_mechanism_total{{context=\"{}\",component=\"{}\",mech=\"{}\"}} {n}",
                escape_label(&row.context),
                escape_label(&row.component),
                escape_label(mech)
            );
        }
    }
    let _ = writeln!(out, "# TYPE sg_recovery_latency_ns summary");
    let _ = writeln!(
        out,
        "# HELP sg_recovery_latency_ns Recovery latency per episode"
    );
    for row in &rows {
        if row.latency.count == 0 {
            continue;
        }
        let labels = format!(
            "context=\"{}\",component=\"{}\"",
            escape_label(&row.context),
            escape_label(&row.component)
        );
        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "sg_recovery_latency_ns{{{labels},quantile=\"{qs}\"}} {}",
                row.latency.quantile_ns(q)
            );
        }
        let _ = writeln!(
            out,
            "sg_recovery_latency_ns_count{{{labels}}} {}",
            row.latency.count
        );
        let _ = writeln!(
            out,
            "sg_recovery_latency_ns_sum{{{labels}}} {}",
            row.latency.total_ns
        );
    }
    out.push_str("# EOF\n");
    Ok(out)
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
    use super::*;

    fn synth_trace() -> Vec<Shard> {
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
            if ev.kind == "episode_end" {
                ev.attributed = Some(999);
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
                r#"{{"v":1,"shard":"{shard}","names":["boot","srv"],"events":8,"dropped":0,"dropped_recovery":0,"span_count":8}}"#
            );
            for ep in [0, 4] {
                for line in [
                    format!(r#""ts":{ep},"dur":0,"kind":"fault""#),
                    format!(r#""ts":{ep},"dur":{MAX},"kind":"reboot""#),
                    format!(r#""ts":{ep},"dur":0,"kind":"mechanism","mech":"R0","n":{MAX}"#),
                    format!(r#""ts":{ep},"dur":0,"kind":"degraded","until":{MAX}"#),
                    format!(r#""ts":{ep},"dur":0,"kind":"episode_end","attributed":{MAX}"#),
                ] {
                    let _ = writeln!(text, r#"{{"span":0,"comp":1,{line}}}"#);
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
        short[0].events.iter_mut().for_each(|ev| ev.dur = 0);
        let srv = &avail_report(&short).components["srv"];
        assert_eq!(
            (srv.observed_ns, srv.downtime_ns, srv.availability()),
            (4, MAX, 0.0)
        );

        // Two series rows of `u64::MAX` invocations, faults and mechanisms.
        let row = format!(
            r#"{{"component":"srv","invocations":{MAX},"faults":{MAX},"mechanisms":{{"R0":{MAX},"T0":{MAX}}}}}"#
        );
        let series = format!("{{\"v\":1,\"kind\":\"series\",\"window_ns\":1}}\n{row}\n{row}\n");
        let report = series_report(&parse_series_text(&series).expect("parse"));
        assert!(
            report.contains(&format!(" 2 {MAX} {MAX} {MAX} ")),
            "{report}"
        );
    }

    #[test]
    fn series_roundtrip_and_report() {
        let text = concat!(
            r#"{"v":1,"kind":"series","window_ns":1000}"#,
            "\n",
            r#"{"v":1,"context":"t/a","component":"srv","window":3,"t_start_ns":3000,"invocations":10,"faults":2,"mechanisms":{"R0":1,"T0":0,"T1":0,"D0":0,"D1":0,"G0":0,"G1":0,"U0":0},"recovery_latency":{"count":2,"total_ns":600,"min_ns":200,"max_ns":400,"p50_ns":200,"p90_ns":400,"p99_ns":400}}"#,
            "\n",
        );
        let file = parse_series_text(text).expect("parse");
        assert_eq!(file.window_ns, 1000);
        assert_eq!(file.rows.len(), 1);
        assert_eq!(file.rows[0].mechanisms.get("R0"), Some(&1));
        assert_eq!(file.rows[0].p99_ns, 400);
        let report = series_report(&file);
        assert!(report.contains("srv"));
        assert!(report.contains("window 1.0us"));
    }

    #[test]
    fn openmetrics_renders_quantiles_and_eof() {
        let text = concat!(
            r#"{"v":1,"context":"t","component":"srv","invocations":5,"faulted_invocations":1,"faults":1,"reboots":1,"watchdog_fires":0,"degraded_rejections":0,"nested_faults":0,"cold_restarts":0,"mechanisms":{"R0":1,"T0":0,"T1":0,"D0":0,"D1":0,"G0":0,"G1":0,"U0":0},"recovery_latency":{"count":1,"total_ns":300,"min_ns":300,"max_ns":300,"mean_ns":300,"log2_hist":{"8":1}}}"#,
            "\n",
        );
        let om = openmetrics_from_metrics(text).expect("render");
        assert!(om.contains(r#"sg_invocations_total{context="t",component="srv"} 5"#));
        assert!(om.contains(r#"sg_mechanism_total{context="t",component="srv",mech="R0"} 1"#));
        assert!(om.contains(r#"quantile="0.99"} 300"#));
        assert!(om.ends_with("# EOF\n"));
    }
}
