//! The kernel flight recorder: a bounded ring buffer of structured,
//! causally linked trace events.
//!
//! The kernel's [`Counters`](crate::metrics::Counters) answer *how
//! often* each of the paper's recovery mechanisms fired; this module
//! answers *what happened*: which fault triggered which micro-reboot,
//! which σ-walk replays it caused, in what order D1/T0/U0 fired, and
//! where the simulated nanoseconds went. Every [`TraceEvent`] is stamped with the virtual
//! [`SimTime`], the driving thread, the component it concerns, that
//! component's micro-reboot [`Epoch`], a monotonically assigned span id
//! and a *causal parent* span id — so a whole recovery episode forms a
//! tree rooted at the fault event.
//!
//! Design constraints (mirrored by the determinism test suite):
//!
//! * **Off by default, near-zero cost when disabled.** Every emission
//!   site is guarded by one branch on [`FlightRecorder::is_enabled`].
//! * **Bounded.** Events are retained in two rings of at most `capacity`
//!   each, dropping the *oldest* on overflow (flight-recorder semantics:
//!   the most recent window survives). *Ambient* events — invocations,
//!   block/wake/sleep, descriptor create/close — share one ring;
//!   *recovery-class* events — faults, reboots, σ-walk steps, upcalls,
//!   episode ends, and mechanism firings on a component inside an open
//!   episode — live in their own ring, so a flood of steady-state
//!   request traffic (a Fig 7 throughput run emits millions of ambient
//!   events) can never evict the recovery record. Every timed event that
//!   attributes to an episode is recovery-class, so latency attribution
//!   survives ambient overflow intact. Drops are counted per tier, never
//!   silent.
//! * **Deterministic.** Events depend only on simulated execution, never
//!   on wall clock or host scheduling; per-shard buffers are renumbered
//!   and merged in shard order ([`TraceShard::absorb`]), so `--jobs 1`
//!   and `--jobs 8` produce byte-identical dumps.
//!
//! ## Episodes and latency attribution
//!
//! A **recovery episode** for component `c` opens at a
//! [`TraceEventKind::FaultInjected`] on `c` and closes at the next fault
//! of `c` or when the trace is drained, emitting a
//! [`TraceEventKind::EpisodeEnd`] carrying the total simulated time
//! attributed to the episode. A fault raised *while a recovery is in
//! flight* (correlated faults) instead pushes a **child episode** on the
//! component's episode stack — bounded by [`MAX_EPISODE_DEPTH`] — and
//! the `EpisodeEnd` pops innermost-first, so the dump forms a proper
//! episode tree. Timed events (`dur > 0`: reboots, σ-walk steps, storage
//! round trips, upcalls) accumulate into the *innermost* open episode of
//! their component (no double counting across the tree); the `sgtrace
//! timeline` analyzer independently re-sums them and checks
//! conservation: the per-mechanism spans of an episode must account for
//! 100% of its attributed latency.

use std::collections::{BTreeMap, VecDeque};

use crate::ids::{ComponentId, Epoch, ThreadId};
use std::fmt::Write as _;

use crate::json::{Json, JsonWriter};
use crate::metrics::Mechanism;
use crate::time::SimTime;

/// Default ring capacity used by the harness `--trace` flags.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Schema version of the `--trace` JSON-lines emitter (the `"v"` field
/// on every shard header). Bump when an event field changes meaning.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Hard bound on nested recovery-episode depth: a fault raised while a
/// recovery is in flight opens a *child* episode, but the tree can never
/// grow deeper than this (the kernel clamps, keeping pathological
/// correlated-fault storms bounded and the analyzers' recursion finite).
pub const MAX_EPISODE_DEPTH: u32 = 8;

/// What one trace event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A component invocation began (`function`, on behalf of `client`).
    InvokeEnter {
        function: String,
        client: ComponentId,
    },
    /// The invocation identified by `parent` returned; `outcome` is one
    /// of `"ok"`, `"fault"`, `"would-block"`, `"err"`.
    InvokeExit { outcome: &'static str },
    /// The event's thread blocked inside the event's component.
    Block,
    /// The event's thread went to sleep until `until`.
    Sleep { until: SimTime },
    /// The event's thread was made runnable again.
    Wake,
    /// A fail-stop fault was injected into the event's component. Roots
    /// a new recovery episode; `depth > 0` marks a *nested* fault raised
    /// while another recovery episode was already in flight (the new
    /// episode becomes a child in the episode tree).
    FaultInjected { depth: u32 },
    /// The kernel watchdog converted an expired per-invocation step
    /// budget into a detected fault on the event's component.
    WatchdogFired,
    /// The component was marked degraded after a reboot storm; clients
    /// fail fast until `until`, when the booter cold-restarts it.
    DegradedMarked { until: SimTime },
    /// The booter cold-restarted the event's component, clearing its
    /// degraded mark.
    ColdRestart,
    /// The booter micro-rebooted the event's component; `dur` spans the
    /// reboot cost plus the post-reboot initialization upcall.
    Reboot,
    /// `n` firings of recovery mechanism `mech` (the same increment the
    /// [`Counters`](crate::metrics::Counters) table counted — both are
    /// written by the single `Kernel::record_mechanism` choke point, so
    /// counters and trace can never disagree).
    MechanismFired { mech: Mechanism, n: u64 },
    /// One σ-walk function replay (`function`) rebuilding descriptor
    /// `desc` (`None` for the hand-written C³ stubs, which do not expose
    /// descriptor ids); `mech` is the walk flavor (R0 normal, T1
    /// deferred-completion substitution). `dur` spans the recovery-step
    /// charge plus the replayed invocation.
    WalkStep {
        function: String,
        desc: Option<i64>,
        mech: Mechanism,
    },
    /// A stub began tracking descriptor `desc`.
    DescriptorCreated { desc: i64 },
    /// Close semantics dropped descriptor `desc` and `dropped` tracked
    /// descriptors in total (itself plus any revoked subtree).
    DescriptorClosed { desc: i64, dropped: u64 },
    /// A kernel/booter-initiated upcall dispatched `function`.
    Upcall { function: String },
    /// A showstopper message was routed to the dead-letter queue:
    /// message `msg` on channel descriptor `desc` faulted its consumer
    /// `deliveries` times and is escalated past further re-delivery (the
    /// DL0 mechanism, sitting between watchdog detection and the
    /// reboot-storm backoff in the escalation ladder).
    DeadLetter {
        desc: i64,
        msg: i64,
        deliveries: u64,
    },
    /// The recovery episode rooted at `parent` closed; `attributed` is
    /// the total simulated time its timed events accumulated.
    EpisodeEnd { attributed: SimTime },
}

impl TraceEventKind {
    /// Stable snake_case name used in JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::InvokeEnter { .. } => "invoke_enter",
            TraceEventKind::InvokeExit { .. } => "invoke_exit",
            TraceEventKind::Block => "block",
            TraceEventKind::Sleep { .. } => "sleep",
            TraceEventKind::Wake => "wake",
            TraceEventKind::FaultInjected { .. } => "fault",
            TraceEventKind::WatchdogFired => "watchdog",
            TraceEventKind::DegradedMarked { .. } => "degraded",
            TraceEventKind::ColdRestart => "cold_restart",
            TraceEventKind::Reboot => "reboot",
            TraceEventKind::MechanismFired { .. } => "mechanism",
            TraceEventKind::WalkStep { .. } => "walk_step",
            TraceEventKind::DescriptorCreated { .. } => "desc_created",
            TraceEventKind::DescriptorClosed { .. } => "desc_closed",
            TraceEventKind::Upcall { .. } => "upcall",
            TraceEventKind::DeadLetter { .. } => "dead_letter",
            TraceEventKind::EpisodeEnd { .. } => "episode_end",
        }
    }

    /// Whether the event kind occurs only during recovery (faults,
    /// reboots, σ-walk steps, upcalls, episode ends) and is therefore
    /// always retained in the recovery ring tier. Mechanism firings are
    /// *not* listed: D0/G0/G1 also fire on every steady-state descriptor
    /// operation, so the recorder routes them by whether their component
    /// has an open recovery episode.
    #[must_use]
    pub fn is_recovery_class(&self) -> bool {
        matches!(
            self,
            TraceEventKind::FaultInjected { .. }
                | TraceEventKind::WatchdogFired
                | TraceEventKind::DegradedMarked { .. }
                | TraceEventKind::ColdRestart
                | TraceEventKind::Reboot
                | TraceEventKind::WalkStep { .. }
                | TraceEventKind::Upcall { .. }
                | TraceEventKind::DeadLetter { .. }
                | TraceEventKind::EpisodeEnd { .. }
        )
    }
}

/// One flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonically assigned span id, unique within a [`TraceShard`].
    pub span: u64,
    /// Causal parent span (`None` for roots: fault injections and
    /// top-level invocations outside any recovery).
    pub parent: Option<u64>,
    /// Simulated start time of the event.
    pub time: SimTime,
    /// Simulated duration (zero for instant events).
    pub dur: SimTime,
    /// The thread driving the event.
    pub thread: ThreadId,
    /// The component the event concerns (the failed/recovering server
    /// for recovery events).
    pub component: ComponentId,
    /// That component's micro-reboot epoch when the event fired.
    pub epoch: Epoch,
    pub kind: TraceEventKind,
}

/// An in-flight timed span opened by `Kernel::trace_open` and closed —
/// with its measured duration — by `Kernel::trace_close`.
#[derive(Debug, Clone, Copy)]
pub struct TraceScope {
    pub(crate) span: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) start: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Episode {
    root: u64,
    attributed: SimTime,
}

/// Per-component stack of open episodes: the last entry is the innermost
/// (nested) episode; timed events attribute to it alone, so the episode
/// tree conserves latency without double counting.
type EpisodeStack = Vec<Episode>;

/// The bounded event ring the kernel carries. All methods are cheap
/// no-ops while disabled.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    /// Ambient tier: invocations, block/wake/sleep, descriptor events.
    /// Entries carry a push sequence number so `drain` can interleave
    /// the tiers back into emission order.
    ambient: VecDeque<(u64, TraceEvent)>,
    /// Recovery tier: never evicted by ambient traffic.
    recovery: VecDeque<(u64, TraceEvent)>,
    next_seq: u64,
    dropped: u64,
    dropped_recovery: u64,
    next_span: u64,
    /// Spans of in-flight kernel invocations (innermost last); the
    /// simulation is single-threaded, so one stack suffices.
    invoke_stack: Vec<u64>,
    /// Spans of in-flight recovery scopes (reboots, σ-walk steps, U0
    /// upcalls) — consulted before the invoke stack so that events
    /// emitted during recovery hang off the recovery tree.
    recovery_stack: Vec<u64>,
    /// Open recovery episodes per component (innermost last).
    episodes: BTreeMap<ComponentId, EpisodeStack>,
}

impl FlightRecorder {
    /// Turn recording on with the given ring capacity (minimum 1).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity.max(1);
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events currently retained (both tiers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ambient.len() + self.recovery.len()
    }

    /// Whether both tiers are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ambient.is_empty() && self.recovery.is_empty()
    }

    /// Allocate the next span id.
    pub(crate) fn alloc_span(&mut self) -> u64 {
        let s = self.next_span;
        self.next_span += 1;
        s
    }

    pub(crate) fn push_invoke(&mut self, span: u64) {
        self.invoke_stack.push(span);
    }

    pub(crate) fn pop_invoke(&mut self) {
        self.invoke_stack.pop();
    }

    pub(crate) fn push_scope(&mut self, span: u64) {
        self.recovery_stack.push(span);
    }

    pub(crate) fn pop_scope(&mut self) {
        self.recovery_stack.pop();
    }

    /// The causal parent for a new event concerning `c`: the innermost
    /// open recovery scope, else the innermost in-flight invocation,
    /// else the root of `c`'s open recovery episode.
    pub(crate) fn causal_parent(&self, c: ComponentId) -> Option<u64> {
        self.recovery_stack
            .last()
            .or_else(|| self.invoke_stack.last())
            .copied()
            .or_else(|| self.episodes.get(&c).and_then(|s| s.last()).map(|e| e.root))
    }

    /// Number of currently open episodes on `c` (nesting depth).
    pub(crate) fn episode_depth(&self, c: ComponentId) -> u32 {
        self.episodes.get(&c).map_or(0, |s| s.len() as u32)
    }

    /// Append an event, attributing its duration to the open episode of
    /// its component and dropping the oldest event of its tier on
    /// overflow.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if ev.dur > SimTime::ZERO {
            // Attribute to the innermost open episode only — the episode
            // tree conserves latency without double counting.
            if let Some(ep) = self
                .episodes
                .get_mut(&ev.component)
                .and_then(|s| s.last_mut())
            {
                ep.attributed += ev.dur;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // Mechanism firings belong to the recovery record exactly when
        // their component is inside an episode (those are the firings
        // whose durations attribute); steady-state firings are ambient.
        let recovery_class = ev.kind.is_recovery_class()
            || (matches!(ev.kind, TraceEventKind::MechanismFired { .. })
                && self.episodes.contains_key(&ev.component));
        let tier = if recovery_class {
            &mut self.recovery
        } else {
            &mut self.ambient
        };
        if tier.len() >= self.capacity {
            tier.pop_front();
            if recovery_class {
                self.dropped_recovery += 1;
            } else {
                self.dropped += 1;
            }
        }
        tier.push_back((seq, ev));
    }

    /// Open a recovery episode for `c` rooted at `root`, pushed on top of
    /// any episode already in flight (nested faults).
    pub(crate) fn begin_episode(&mut self, c: ComponentId, root: u64) {
        self.episodes.entry(c).or_default().push(Episode {
            root,
            attributed: SimTime::ZERO,
        });
    }

    /// Close `c`'s *innermost* open episode (if any), emitting its
    /// [`TraceEventKind::EpisodeEnd`].
    pub(crate) fn end_episode(
        &mut self,
        c: ComponentId,
        epoch: Epoch,
        time: SimTime,
        thread: ThreadId,
    ) {
        let Some(stack) = self.episodes.get_mut(&c) else {
            return;
        };
        let Some(ep) = stack.pop() else { return };
        if stack.is_empty() {
            self.episodes.remove(&c);
        }
        let span = self.alloc_span();
        self.record(TraceEvent {
            span,
            parent: Some(ep.root),
            time,
            dur: SimTime::ZERO,
            thread,
            component: c,
            epoch,
            kind: TraceEventKind::EpisodeEnd {
                attributed: ep.attributed,
            },
        });
    }

    /// Components with an open episode — one entry per open episode, in
    /// id order — drained by `Kernel::take_trace`, which must close them
    /// all (each `end_episode` call pops one nesting level).
    pub(crate) fn open_episode_components(&self) -> Vec<ComponentId> {
        self.episodes
            .iter()
            .flat_map(|(c, s)| std::iter::repeat_n(*c, s.len()))
            .collect()
    }

    /// Drain all recorded events and counters, resetting the recorder
    /// for continued use. The two tiers are interleaved back into
    /// emission order. Returns
    /// `(events, dropped_ambient, dropped_recovery, span_count)`.
    pub(crate) fn drain(&mut self) -> (Vec<TraceEvent>, u64, u64, u64) {
        let mut ambient = std::mem::take(&mut self.ambient);
        let mut recovery = std::mem::take(&mut self.recovery);
        let mut events = Vec::with_capacity(ambient.len() + recovery.len());
        loop {
            let take_ambient = match (ambient.front(), recovery.front()) {
                (Some((sa, _)), Some((sr, _))) => sa < sr,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let src = if take_ambient {
                &mut ambient
            } else {
                &mut recovery
            };
            events.push(src.pop_front().expect("front checked").1);
        }
        let dropped = std::mem::take(&mut self.dropped);
        let dropped_recovery = std::mem::take(&mut self.dropped_recovery);
        let span_count = std::mem::take(&mut self.next_span);
        self.next_seq = 0;
        self.invoke_stack.clear();
        self.recovery_stack.clear();
        self.episodes.clear();
        (events, dropped, dropped_recovery, span_count)
    }
}

/// One drained, self-contained slice of trace: the events of one kernel
/// (or several absorbed in deterministic order), plus the component-name
/// table resolving ids. Plain data, `Send`, mergeable across campaign
/// shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceShard {
    /// Harness-assigned context label, e.g. `"table2/lock/superglue/shard0"`.
    pub label: String,
    /// Component names indexed by component id.
    pub names: Vec<String>,
    pub events: Vec<TraceEvent>,
    /// Ambient events lost to ring overflow.
    pub dropped: u64,
    /// Recovery-class events lost to ring overflow. When zero, every
    /// fault/reboot/walk/mechanism/upcall event — and thus the full
    /// latency attribution of every episode — is present even if
    /// `dropped > 0`.
    pub dropped_recovery: u64,
    /// Span ids `0..span_count` are in use (absorbing renumbers by this
    /// offset, keeping spans unique within the merged shard).
    pub span_count: u64,
}

impl TraceShard {
    /// An empty shard carrying only a label.
    #[must_use]
    pub fn labeled(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            ..Self::default()
        }
    }

    /// Append another shard's events, renumbering its spans past this
    /// shard's. Used when one logical shard spans several kernel
    /// lifetimes (machine reboots rebuild the testbed) and when harness
    /// tasks are merged in deterministic order.
    pub fn absorb(&mut self, other: TraceShard) {
        let offset = self.span_count;
        self.events.reserve(other.events.len());
        for mut ev in other.events {
            ev.span += offset;
            if let Some(p) = ev.parent.as_mut() {
                *p += offset;
            }
            self.events.push(ev);
        }
        self.span_count += other.span_count;
        self.dropped += other.dropped;
        self.dropped_recovery += other.dropped_recovery;
        if self.names.is_empty() {
            self.names = other.names;
        }
    }

    /// The shard-header JSON-lines object. Leads with the emitter's
    /// schema version so downstream tooling (`sgtrace`, `sgstat`) can
    /// detect drift.
    #[must_use]
    pub fn header_json(&self) -> Json {
        let mut j = Json::object();
        j.push("v", TRACE_SCHEMA_VERSION)
            .push("shard", self.label.as_str())
            .push(
                "names",
                Json::Array(self.names.iter().map(|n| Json::from(n.as_str())).collect()),
            )
            .push("events", self.events.len())
            .push("dropped", self.dropped)
            .push("dropped_recovery", self.dropped_recovery)
            .push("span_count", self.span_count);
        j
    }
}

/// The name of component `c` in a shard's name table, `"?"` when the
/// table does not cover it.
fn component_name(names: &[String], c: ComponentId) -> &str {
    names.get(c.0 as usize).map_or("?", String::as_str)
}

/// Render shards as JSON-lines: one header object per shard followed by
/// its events, in shard order (byte-identical for any `--jobs`). Each
/// event is streamed straight into the output.
#[must_use]
pub fn shards_to_jsonl(shards: &[TraceShard]) -> String {
    let mut out = String::new();
    for shard in shards {
        shard
            .header_json()
            .write(&mut JsonWriter::compact(&mut out));
        out.push('\n');
        for ev in &shard.events {
            write_event_line(&mut out, ev, component_name(&shard.names, ev.component));
            out.push('\n');
        }
    }
    out
}

/// One event as a JSON-lines object; `name` is its component's name.
fn write_event_line(out: &mut String, ev: &TraceEvent, name: &str) {
    let mut w = JsonWriter::compact(out);
    w.begin_object();
    w.key("span").u64(ev.span);
    w.key("parent");
    match ev.parent {
        Some(p) => w.u64(p),
        None => w.null(),
    };
    w.key("ts").u64(ev.time.0);
    w.key("dur").u64(ev.dur.0);
    w.key("tid").u64(ev.thread.0.into());
    w.key("comp").u64(ev.component.0.into());
    w.key("name").str(name);
    w.key("epoch").u64(ev.epoch.0.into());
    w.key("kind").str(ev.kind.name());
    match &ev.kind {
        TraceEventKind::InvokeEnter { function, client } => {
            w.key("function").str(function);
            w.key("client").u64(client.0.into());
        }
        TraceEventKind::InvokeExit { outcome } => {
            w.key("outcome").str(outcome);
        }
        TraceEventKind::Sleep { until } | TraceEventKind::DegradedMarked { until } => {
            w.key("until").u64(until.0);
        }
        TraceEventKind::MechanismFired { mech, n } => {
            w.key("mech").str(mech.name());
            w.key("n").u64(*n);
        }
        TraceEventKind::WalkStep {
            function,
            desc,
            mech,
        } => {
            w.key("function").str(function);
            w.key("desc");
            match desc {
                Some(d) => w.i64(*d),
                None => w.null(),
            };
            w.key("mech").str(mech.name());
        }
        TraceEventKind::DescriptorCreated { desc } => {
            w.key("desc").i64(*desc);
        }
        TraceEventKind::DescriptorClosed { desc, dropped } => {
            w.key("desc").i64(*desc);
            w.key("dropped").u64(*dropped);
        }
        TraceEventKind::Upcall { function } => {
            w.key("function").str(function);
        }
        TraceEventKind::DeadLetter {
            desc,
            msg,
            deliveries,
        } => {
            w.key("desc").i64(*desc);
            w.key("msg").i64(*msg);
            w.key("deliveries").u64(*deliveries);
        }
        TraceEventKind::EpisodeEnd { attributed } => {
            w.key("attributed").u64(attributed.0);
        }
        TraceEventKind::FaultInjected { depth } => {
            // Emitted only for nested faults so that the established
            // single-fault dumps stay byte-identical.
            if *depth > 0 {
                w.key("depth").u64((*depth).into());
            }
        }
        TraceEventKind::Block
        | TraceEventKind::Wake
        | TraceEventKind::WatchdogFired
        | TraceEventKind::ColdRestart
        | TraceEventKind::Reboot => {}
    }
    w.end_object();
}

/// Human label for one event in the Chrome viewer, appended to `label`;
/// `comp` is its component's name.
fn chrome_name(label: &mut String, ev: &TraceEvent, comp: &str) {
    let _ = match &ev.kind {
        TraceEventKind::InvokeEnter { function, .. } => write!(label, "call {comp}.{function}"),
        TraceEventKind::InvokeExit { outcome } => write!(label, "ret {outcome}"),
        TraceEventKind::Block => write!(label, "block in {comp}"),
        TraceEventKind::Sleep { .. } => write!(label, "sleep"),
        TraceEventKind::Wake => write!(label, "wake ({comp})"),
        TraceEventKind::FaultInjected { depth: 0 } => write!(label, "FAULT {comp}"),
        TraceEventKind::FaultInjected { depth } => {
            write!(label, "FAULT {comp} (nested x{depth})")
        }
        TraceEventKind::WatchdogFired => write!(label, "WATCHDOG {comp}"),
        TraceEventKind::DegradedMarked { .. } => write!(label, "degraded {comp}"),
        TraceEventKind::ColdRestart => write!(label, "cold restart {comp}"),
        TraceEventKind::Reboot => write!(label, "reboot {comp}"),
        TraceEventKind::MechanismFired { mech, n } => {
            write!(label, "{} x{n} ({comp})", mech.name())
        }
        TraceEventKind::WalkStep { function, mech, .. } => {
            write!(label, "{} replay {comp}.{function}", mech.name())
        }
        TraceEventKind::DescriptorCreated { desc } => write!(label, "{comp} desc+{desc}"),
        TraceEventKind::DescriptorClosed { desc, .. } => write!(label, "{comp} desc-{desc}"),
        TraceEventKind::Upcall { function } => write!(label, "upcall {comp}.{function}"),
        TraceEventKind::DeadLetter {
            msg, deliveries, ..
        } => write!(label, "DEAD-LETTER {comp} msg {msg} (x{deliveries})"),
        TraceEventKind::EpisodeEnd { .. } => write!(label, "episode end {comp}"),
    };
}

/// Render shards in Chrome `trace_event` JSON (loadable in
/// `chrome://tracing` and Perfetto): one process per shard, one track
/// per thread; timed events become complete (`"X"`) slices, instants
/// become `"i"` markers. Timestamps are microseconds (fractional: the
/// simulation is nanosecond-granular). Each event is streamed straight
/// into the output, its label formatted in one reused buffer.
#[must_use]
pub fn shards_to_chrome(shards: &[TraceShard]) -> String {
    let mut out = String::new();
    let mut label = String::new();
    let mut w = JsonWriter::pretty(&mut out);
    w.begin_object().key("traceEvents").begin_array();
    for (pid, shard) in shards.iter().enumerate() {
        let pid = pid as u64;
        w.begin_object();
        w.key("ph").str("M");
        w.key("pid").u64(pid);
        w.key("name").str("process_name");
        w.key("args").begin_object();
        w.key("name").str(&shard.label);
        w.end_object().end_object();
        for ev in &shard.events {
            label.clear();
            chrome_name(&mut label, ev, component_name(&shard.names, ev.component));
            w.begin_object();
            w.key("name").str(&label);
            w.key("cat").str(ev.kind.name());
            w.key("pid").u64(pid);
            w.key("tid").u64(ev.thread.0.into());
            w.key("ts").f64(ev.time.0 as f64 / 1000.0);
            if ev.dur > SimTime::ZERO {
                w.key("ph").str("X");
                w.key("dur").f64(ev.dur.0 as f64 / 1000.0);
            } else {
                w.key("ph").str("i");
                w.key("s").str("t");
            }
            w.key("args").begin_object();
            w.key("span").u64(ev.span);
            if let Some(p) = ev.parent {
                w.key("parent").u64(p);
            }
            w.key("epoch").u64(ev.epoch.0.into());
            w.end_object().end_object();
        }
    }
    w.end_array().key("displayTimeUnit").str("ns").end_object();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, parent: Option<u64>, c: u32, dur: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            span,
            parent,
            time: SimTime(10),
            dur: SimTime(dur),
            thread: ThreadId(1),
            component: ComponentId(c),
            epoch: Epoch::default(),
            kind,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::default();
        assert!(!r.is_enabled());
        assert!(r.is_empty());
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut r = FlightRecorder::default();
        r.enable(2);
        for i in 0..4 {
            let s = r.alloc_span();
            r.record(ev(s, None, 1, 0, TraceEventKind::Wake));
            let _ = i;
        }
        let (events, dropped, dropped_recovery, span_count) = r.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 2);
        assert_eq!(dropped_recovery, 0);
        assert_eq!(span_count, 4);
        assert_eq!(events[0].span, 2, "oldest events dropped first");
    }

    #[test]
    fn ambient_flood_cannot_evict_recovery_events() {
        let mut r = FlightRecorder::default();
        r.enable(2);
        let root = r.alloc_span();
        r.record(ev(
            root,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        let s = r.alloc_span();
        r.record(ev(s, Some(root), 1, 40, TraceEventKind::Reboot));
        // A flood of steady-state traffic overflows the ambient tier...
        for _ in 0..10 {
            let s = r.alloc_span();
            r.record(ev(s, None, 1, 0, TraceEventKind::Wake));
        }
        let (events, dropped, dropped_recovery, _) = r.drain();
        assert_eq!(dropped, 8);
        assert_eq!(dropped_recovery, 0);
        // ...but the fault and the timed reboot survive, in emission
        // order ahead of the retained ambient tail.
        assert_eq!(events[0].kind, TraceEventKind::FaultInjected { depth: 0 });
        assert_eq!(events[1].kind, TraceEventKind::Reboot);
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn episode_accumulates_timed_events_only_for_its_component() {
        let mut r = FlightRecorder::default();
        r.enable(64);
        let root = r.alloc_span();
        r.record(ev(
            root,
            None,
            3,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        r.begin_episode(ComponentId(3), root);
        let s = r.alloc_span();
        r.record(ev(s, Some(root), 3, 500, TraceEventKind::Reboot));
        let s = r.alloc_span();
        // A timed event on another component must not leak in.
        r.record(ev(s, None, 4, 999, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(20), ThreadId(0));
        let (events, _, _, _) = r.drain();
        let end = events.last().unwrap();
        assert_eq!(end.parent, Some(root));
        assert_eq!(
            end.kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(500)
            }
        );
    }

    #[test]
    fn nested_episodes_pop_innermost_first_and_attribute_to_the_top() {
        let mut r = FlightRecorder::default();
        r.enable(64);
        let outer = r.alloc_span();
        r.record(ev(
            outer,
            None,
            3,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        r.begin_episode(ComponentId(3), outer);
        let s = r.alloc_span();
        r.record(ev(s, Some(outer), 3, 100, TraceEventKind::Reboot));
        // A correlated fault on the same component opens a child episode.
        let inner = r.alloc_span();
        r.record(ev(
            inner,
            Some(s),
            3,
            0,
            TraceEventKind::FaultInjected { depth: 1 },
        ));
        r.begin_episode(ComponentId(3), inner);
        assert_eq!(r.episode_depth(ComponentId(3)), 2);
        let s = r.alloc_span();
        r.record(ev(s, Some(inner), 3, 40, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(20), ThreadId(0));
        let s = r.alloc_span();
        r.record(ev(s, Some(outer), 3, 7, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(30), ThreadId(0));
        let (events, _, _, _) = r.drain();
        let ends: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::EpisodeEnd { .. }))
            .collect();
        assert_eq!(ends.len(), 2);
        // Innermost closes first, owning only its own timed events; the
        // outer episode resumes accumulating after the child closes.
        assert_eq!(ends[0].parent, Some(inner));
        assert_eq!(
            ends[0].kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(40)
            }
        );
        assert_eq!(ends[1].parent, Some(outer));
        assert_eq!(
            ends[1].kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(107)
            }
        );
    }

    #[test]
    fn absorb_renumbers_spans_and_parents() {
        let mut a = TraceShard::labeled("a");
        a.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        a.span_count = 1;
        let mut b = TraceShard::labeled("b");
        b.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        b.events.push(ev(1, Some(0), 1, 7, TraceEventKind::Reboot));
        b.span_count = 2;
        b.dropped = 3;
        a.absorb(b);
        assert_eq!(a.span_count, 3);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.events[1].span, 1);
        assert_eq!(a.events[2].span, 2);
        assert_eq!(a.events[2].parent, Some(1));
    }

    #[test]
    fn causal_parent_prefers_recovery_scope() {
        let mut r = FlightRecorder::default();
        r.enable(16);
        assert_eq!(r.causal_parent(ComponentId(1)), None);
        r.begin_episode(ComponentId(1), 9);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(9));
        r.push_invoke(11);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(11));
        r.push_scope(12);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(12));
        r.pop_scope();
        r.pop_invoke();
        assert_eq!(r.causal_parent(ComponentId(1)), Some(9));
    }

    #[test]
    fn jsonl_lines_carry_kind_fields() {
        let mut shard = TraceShard::labeled("t");
        shard.names = vec!["booter".into(), "lock".into()];
        shard.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::WalkStep {
                function: "lock_take".into(),
                desc: Some(4),
                mech: Mechanism::R0,
            },
        ));
        shard.span_count = 1;
        let dump = shards_to_jsonl(std::slice::from_ref(&shard));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""shard":"t""#));
        assert!(lines[1].contains(r#""kind":"walk_step""#));
        assert!(lines[1].contains(r#""function":"lock_take""#));
        assert!(lines[1].contains(r#""name":"lock""#));
        assert!(lines[1].contains(r#""desc":4"#));
    }

    #[test]
    fn chrome_dump_is_loadable_shape() {
        let mut shard = TraceShard::labeled("t");
        shard.names = vec!["booter".into(), "lock".into()];
        shard.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        shard
            .events
            .push(ev(1, Some(0), 1, 250, TraceEventKind::Reboot));
        shard.span_count = 2;
        let dump = shards_to_chrome(&[shard]);
        assert!(dump.contains(r#""traceEvents""#));
        assert!(dump.contains(r#""ph": "M""#));
        assert!(dump.contains(r#""ph": "i""#));
        assert!(dump.contains(r#""ph": "X""#));
        assert!(dump.contains(r#""dur": 0.25"#));
    }
}
