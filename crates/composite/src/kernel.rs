//! The runtime shell around the pure kernel core.
//!
//! All kernel *decisions* live in `composite-core`:
//! [`step`](fn@composite_core::step) consumes a [`KernelState`] and an
//! [`Event`] and returns the successor state plus an ordered
//! [`Effects`] list. This module owns everything the pure core cannot:
//! the flight-recorder ring, the [`Counters`] table, the component-name
//! interner, and the `Box<dyn Service>` images — and merely drives
//! `step` and folds the returned effects into those facilities. Effect
//! order mirrors the order the imperative kernel used to perform its
//! trace and counter writes, so traces stay byte-identical across the
//! split.
//!
//! The public API is unchanged: callers still see `Kernel::invoke`,
//! `fault`, `micro_reboot`, and friends. New here: [`Kernel::state`]
//! exposes the core state snapshot (O(1) clone, `Arc`-shared tables)
//! for the model checker's equivalence harness and `sgtrace replay`
//! time travel.

use composite_core::effect::{Effect, Effects};
use composite_core::event::{AdmitOutcome, Event, RebootOutcome, Reply, WakeOutcome};
use composite_core::state::KernelState;
pub use composite_core::state::{ComponentState, EscalationPolicy, BOOTER, BOOT_THREAD};
use composite_core::step::step_in_place;

use crate::capability::CapTable;
use crate::component::{Service, ServiceCtx};
use crate::error::{CallError, KernelError, ServiceError};
use crate::ids::{ComponentId, Epoch, Priority, ThreadId};
use crate::intern::{Interner, NameId};
use crate::metrics::{Count, Counters, Mechanism};
use crate::pages::PageTables;
use crate::thread::{Thread, ThreadState};
use crate::time::{CostModel, SimTime};
use crate::trace::{
    FlightRecorder, TraceEvent, TraceEventKind, TraceScope, TraceShard, MAX_EPISODE_DEPTH,
};
use crate::value::Value;

/// The simulated kernel: the pure core state plus the runtime
/// facilities the core describes through effects. See the
/// [module docs](self) and the [crate docs](crate) for the big
/// picture.
#[derive(Debug)]
pub struct Kernel {
    /// The pure core state — the single source of truth for every
    /// kernel decision.
    state: KernelState,
    names: Interner,
    /// Interned component names, indexed by [`ComponentId`]; resolved
    /// only on cold paths (trace dumps, snapshots).
    comp_names: Vec<NameId>,
    /// Service images, indexed by [`ComponentId`]. `None` for pure
    /// client components, or while a service is checked out during one
    /// of its own calls (the core's `has_service` flag distinguishes
    /// the two).
    services: Vec<Option<Box<dyn Service>>>,
    counters: Counters,
    trace: FlightRecorder,
}

impl Kernel {
    /// A fresh kernel with the paper-calibrated [`CostModel`], containing
    /// only the booter component and the boot thread.
    #[must_use]
    pub fn new() -> Self {
        Self::with_costs(CostModel::paper_defaults())
    }

    /// A fresh kernel with an explicit cost model.
    #[must_use]
    pub fn with_costs(costs: CostModel) -> Self {
        let mut k = Self {
            state: KernelState::with_costs(costs),
            names: Interner::new(),
            comp_names: Vec::new(),
            services: Vec::new(),
            counters: Counters::default(),
            trace: FlightRecorder::default(),
        };
        let booter = k.add_client_component("booter");
        debug_assert_eq!(booter, BOOTER);
        let boot_thread = k.create_thread(BOOTER, Priority::HIGHEST);
        debug_assert_eq!(boot_thread, BOOT_THREAD);
        k
    }

    // ------------------------------------------------------------------
    // The step/effect pump
    // ------------------------------------------------------------------

    /// Drive one event through the pure core and fold its effects into
    /// the runtime facilities. Returns the core's typed reply.
    fn apply(&mut self, ev: Event) -> Reply {
        let fx = step_in_place(&mut self.state, &ev);
        self.absorb(&fx);
        fx.reply
    }

    /// Like [`Kernel::apply`], but returns the trace span of the last
    /// mechanism firing the effects produced (for scoping nested
    /// recovery work under a U0 upcall).
    fn apply_span(&mut self, ev: Event) -> Option<u64> {
        let fx = step_in_place(&mut self.state, &ev);
        self.absorb(&fx)
    }

    /// Fold one effect list, in order, into the counters and the flight
    /// recorder. The order is the replay contract: it matches the
    /// sequence of writes the imperative kernel performed, so the
    /// resulting trace is byte-identical.
    fn absorb(&mut self, fx: &Effects) -> Option<u64> {
        let mut fault_span: Option<u64> = None;
        let mut last_mech: Option<u64> = None;
        let now = self.state.time;
        for e in fx.iter() {
            match *e {
                Effect::CountInvocation(c) => self.counters.count(c, now, Count::Invocation),
                Effect::CountFaultedInvocation(c) => {
                    self.counters.count(c, now, Count::FaultedInvocation);
                }
                Effect::CountFault(c) => self.counters.count(c, now, Count::Fault),
                Effect::CountNestedFault(c) => self.counters.count(c, now, Count::NestedFault),
                Effect::CountReboot(c) => self.counters.count(c, now, Count::Reboot),
                Effect::CountColdRestart(c) => self.counters.count(c, now, Count::ColdRestart),
                Effect::CountWatchdogFire(c) => self.counters.count(c, now, Count::WatchdogFire),
                Effect::CountDegradedRejection(c) => {
                    self.counters.count(c, now, Count::DegradedRejection);
                }
                Effect::CountUpcall => self.counters.upcalls += 1,
                Effect::ThreadBlocked {
                    thread,
                    in_component,
                } => self.trace_instant(in_component, thread, TraceEventKind::Block),
                Effect::ThreadSlept {
                    thread,
                    home,
                    until,
                } => self.trace_instant(home, thread, TraceEventKind::Sleep { until }),
                Effect::ThreadWoken { thread, site } => {
                    self.counters.wakeups += 1;
                    self.trace_instant(site, thread, TraceEventKind::Wake);
                }
                Effect::FaultRaised {
                    component,
                    epoch,
                    nested,
                } => {
                    fault_span = self.on_fault_raised(component, epoch, nested);
                }
                Effect::FaultWoke { component, thread } => {
                    self.counters.wakeups += 1;
                    if self.trace.is_enabled() {
                        let wake = TraceEventKind::Wake;
                        self.emit(component, thread, fault_span, SimTime::ZERO, wake);
                    }
                }
                Effect::WatchdogFired { component, thread } => {
                    self.trace_instant(component, thread, TraceEventKind::WatchdogFired);
                }
                Effect::DegradedMarked { component, until } => {
                    let kind = TraceEventKind::DegradedMarked { until };
                    self.trace_instant(component, BOOT_THREAD, kind);
                }
                Effect::MechanismFired {
                    component,
                    mech,
                    n,
                    thread,
                    dur,
                } => {
                    last_mech = self.record_mechanism(component, mech, n, thread, dur);
                }
            }
        }
        last_mech
    }

    /// The episode bookkeeping a raised fault triggers: clamp or close
    /// episodes, emit `fault_injected`, and open the new episode rooted
    /// at its span. Returns the fault span (when tracing) so the
    /// subsequent eager wakeups parent to it.
    fn on_fault_raised(&mut self, c: ComponentId, epoch: Epoch, nested: bool) -> Option<u64> {
        if !self.trace.is_enabled() {
            return None;
        }
        let (parent, depth) = if nested {
            // Keep the in-flight episode open; the new fault becomes
            // a child in the episode tree. Clamp the stack depth by
            // force-closing the innermost episode first.
            if self.trace.episode_depth(c) >= MAX_EPISODE_DEPTH {
                self.trace
                    .end_episode(c, epoch, self.state.time, BOOT_THREAD);
            }
            (self.trace.causal_parent(c), self.trace.episode_depth(c))
        } else {
            // The fault roots a new top-level episode: close any
            // episode still open from the previous fault of this
            // component first.
            self.trace
                .end_episode(c, epoch, self.state.time, BOOT_THREAD);
            (None, 0)
        };
        debug_assert_eq!(Some(epoch), self.epoch_of(c), "fault keeps its epoch");
        let kind = TraceEventKind::FaultInjected { depth };
        let span = self.emit(c, BOOT_THREAD, parent, SimTime::ZERO, kind);
        self.trace.begin_episode(c, span);
        Some(span)
    }

    // ------------------------------------------------------------------
    // Component management
    // ------------------------------------------------------------------

    /// Register a service component. Returns its id.
    pub fn add_component(&mut self, name: &str, service: Box<dyn Service>) -> ComponentId {
        let reply = self.apply(Event::AddComponent { has_service: true });
        let Reply::Component(id) = reply else {
            unreachable!("AddComponent always assigns an id")
        };
        self.comp_names.push(self.names.intern(name));
        self.services.push(Some(service));
        debug_assert_eq!(self.comp_names.len(), self.state.components.len());
        id
    }

    /// Register a pure client component (an application protection domain
    /// exporting no interface).
    pub fn add_client_component(&mut self, name: &str) -> ComponentId {
        let reply = self.apply(Event::AddComponent { has_service: false });
        let Reply::Component(id) = reply else {
            unreachable!("AddComponent always assigns an id")
        };
        self.comp_names.push(self.names.intern(name));
        self.services.push(None);
        id
    }

    /// Grant `client` the capability to invoke `server`.
    pub fn grant(&mut self, client: ComponentId, server: ComponentId) {
        let _ = self.apply(Event::Grant { client, server });
    }

    /// The capability table (read-only).
    #[must_use]
    pub fn caps(&self) -> &CapTable {
        &self.state.caps
    }

    /// The pure core state (read-only). O(1) to clone: every table is
    /// `Arc`-shared, so a snapshot costs a handful of refcount bumps —
    /// the model checker's equivalence harness and `sgtrace replay`
    /// time travel build on this.
    #[must_use]
    pub fn state(&self) -> &KernelState {
        &self.state
    }

    /// An O(1) snapshot of the core state (copy-on-write tables).
    #[must_use]
    pub fn snapshot(&self) -> KernelState {
        self.state.clone()
    }

    /// A component's name.
    #[must_use]
    pub fn component_name(&self, c: ComponentId) -> Option<&str> {
        self.comp_names
            .get(c.0 as usize)
            .map(|&n| self.names.resolve(n))
    }

    /// The interface exported by a component, if it is a service.
    #[must_use]
    pub fn interface_of(&self, c: ComponentId) -> Option<&'static str> {
        self.services
            .get(c.0 as usize)
            .and_then(|s| s.as_deref())
            .map(Service::interface)
    }

    /// Number of components (including the booter).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.state.components.len()
    }

    /// All component ids, in creation order.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        (0..self.state.components.len() as u32).map(ComponentId)
    }

    /// Whether a component is currently faulty.
    #[must_use]
    pub fn is_faulty(&self, c: ComponentId) -> bool {
        self.state.is_faulty(c)
    }

    /// The micro-reboot epoch of a component.
    #[must_use]
    pub fn epoch_of(&self, c: ComponentId) -> Option<Epoch> {
        self.state.epoch_of(c)
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Create a runnable thread homed in `home` with the given fixed
    /// priority.
    pub fn create_thread(&mut self, home: ComponentId, priority: Priority) -> ThreadId {
        let reply = self.apply(Event::AddThread { home, priority });
        let Reply::Thread(id) = reply else {
            unreachable!("AddThread always assigns an id")
        };
        id
    }

    /// Immutable thread access.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] for unknown ids.
    pub fn thread(&self, t: ThreadId) -> Result<&Thread, KernelError> {
        self.state.thread(t).ok_or(KernelError::NoSuchThread(t))
    }

    /// Mutable thread access (executor privilege: dispatch accounting
    /// and workload-driven state transitions happen outside the event
    /// alphabet).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] for unknown ids.
    pub fn thread_mut(&mut self, t: ThreadId) -> Result<&mut Thread, KernelError> {
        let idx = t.0 as usize;
        if idx >= self.state.threads.len() {
            return Err(KernelError::NoSuchThread(t));
        }
        Ok(&mut self.state.threads_mut()[idx])
    }

    /// Number of threads.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.state.threads.len()
    }

    /// All thread ids.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.state.threads.len() as u32).map(ThreadId)
    }

    /// Mark a thread blocked inside `component` (called via
    /// [`ServiceCtx::block_current`]).
    pub(crate) fn block_thread(&mut self, t: ThreadId, component: ComponentId) {
        let _ = self.apply(Event::BlockThread {
            thread: t,
            in_component: component,
        });
    }

    /// Put a thread to sleep until `deadline`.
    pub(crate) fn sleep_thread(&mut self, t: ThreadId, deadline: SimTime) {
        let _ = self.apply(Event::SleepThread {
            thread: t,
            until: deadline,
        });
    }

    /// Wake a blocked or sleeping thread. Waking a runnable thread is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] for unknown ids,
    /// [`KernelError::BadThreadState`] for completed/crashed threads.
    pub fn wake_thread(&mut self, t: ThreadId) -> Result<(), KernelError> {
        match self.apply(Event::WakeThread { thread: t }) {
            Reply::Wake(WakeOutcome::Woken | WakeOutcome::AlreadyRunnable) => Ok(()),
            Reply::Wake(WakeOutcome::NoSuchThread) => Err(KernelError::NoSuchThread(t)),
            Reply::Wake(WakeOutcome::BadState) => Err(KernelError::BadThreadState(t)),
            _ => unreachable!("WakeThread replies Wake"),
        }
    }

    /// Threads currently blocked inside `component` (kernel reflection
    /// used by T0 eager wakeup and scheduler recovery).
    #[must_use]
    pub fn threads_blocked_in(&self, component: ComponentId) -> Vec<ThreadId> {
        self.state
            .threads
            .iter()
            .filter(|t| {
                t.state
                    == ThreadState::Blocked {
                        in_component: component,
                    }
            })
            .map(|t| t.id)
            .collect()
    }

    /// The runnable thread to dispatch next: highest priority, ties
    /// broken by fewest dispatches then lowest id (round-robin-ish and
    /// fully deterministic).
    #[must_use]
    pub fn next_runnable(&self) -> Option<ThreadId> {
        self.state
            .threads
            .iter()
            .filter(|t| t.state.is_runnable())
            .min_by_key(|t| (t.priority, t.dispatches, t.id))
            .map(|t| t.id)
    }

    /// The earliest pending sleep deadline, if any thread is sleeping.
    #[must_use]
    pub fn earliest_wakeup(&self) -> Option<SimTime> {
        self.state
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::SleepingUntil(d) => Some(d),
                _ => None,
            })
            .min()
    }

    /// Advance virtual time to `t` (never backwards) and wake every
    /// sleeper whose deadline has passed.
    pub fn advance_to(&mut self, t: SimTime) {
        let _ = self.apply(Event::AdvanceTo(t));
    }

    // ------------------------------------------------------------------
    // Time, costs, stats, pages
    // ------------------------------------------------------------------

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.state.time
    }

    /// Charge an explicit virtual-time cost (used by the recovery
    /// runtime for walks, storage round trips, upcalls).
    pub fn charge(&mut self, cost: SimTime) {
        let _ = self.apply(Event::Charge(cost));
    }

    /// The cost model.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.state.costs
    }

    /// Replace the cost model.
    pub fn set_costs(&mut self, costs: CostModel) {
        let _ = self.apply(Event::SetCosts(costs));
    }

    /// The counters table: per-component run totals and, while the
    /// `--series` windows are on, per-window rows. Harnesses snapshot it
    /// via [`crate::metrics::MetricsSnapshot::from_kernel`] and
    /// [`crate::telemetry::SeriesSnapshot::from_kernel`].
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Record the simulated time one recovery episode on `c` took, in
    /// the run totals and in the series window the episode started in.
    pub fn record_recovery_latency(&mut self, c: ComponentId, d: SimTime) {
        let start = self.state.time.saturating_sub(d);
        self.counters.count(c, start, Count::Latency(d));
    }

    /// Turn the `--series` windows of the counters table on with the
    /// given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn enable_telemetry(&mut self, window: SimTime) {
        self.counters.enable_series(window);
    }

    /// Count a **U0** upcall dispatch into the creator of a descriptor
    /// of `server` (the recovery runtime calls this when it performs
    /// U0): charges the upcall cost and records the mechanism through
    /// the [`Kernel::record_mechanism`] choke point, so the counter and
    /// the trace event cannot disagree. Returns the trace span (when
    /// tracing) for scoping the nested creator-side recovery.
    pub fn count_upcall(&mut self, server: ComponentId, thread: ThreadId) -> Option<u64> {
        self.apply_span(Event::ChargeUpcall { server, thread })
    }

    // ------------------------------------------------------------------
    // Correlated-fault hardening: escalation, watchdog, nested recovery
    // ------------------------------------------------------------------

    /// Install a reboot-storm [`EscalationPolicy`] (disabled by default).
    pub fn set_escalation(&mut self, policy: EscalationPolicy) {
        let _ = self.apply(Event::SetEscalation(policy));
    }

    /// The active escalation policy.
    #[must_use]
    pub fn escalation(&self) -> &EscalationPolicy {
        &self.state.escalation
    }

    /// Arm the per-invocation watchdog: a service that calls
    /// [`ServiceCtx::progress`](crate::component::ServiceCtx::progress)
    /// more than `budget` times inside one invocation is declared hung
    /// and converted into a detected fault. Zero disables the watchdog.
    pub fn set_watchdog_budget(&mut self, budget: u64) {
        let _ = self.apply(Event::SetWatchdogBudget(budget));
    }

    /// The per-invocation watchdog step budget (0 = disabled).
    #[must_use]
    pub fn watchdog_budget(&self) -> u64 {
        self.state.watchdog_budget
    }

    /// Whether `c` is currently degraded (clients fail fast until the
    /// booter's cold restart).
    #[must_use]
    pub fn is_degraded(&self, c: ComponentId) -> bool {
        self.state.is_degraded(c)
    }

    /// The virtual time at which `c`'s degraded mark clears, if marked.
    #[must_use]
    pub fn degraded_until(&self, c: ComponentId) -> Option<SimTime> {
        self.state.degraded_until(c)
    }

    /// Mark the start of a recovery action (micro-reboot, walk replay,
    /// creator upcall) on `c`. While at least one recovery is in flight,
    /// any fault raised is *nested*: it opens a child recovery episode
    /// instead of tearing down the in-flight one. Also the point where an
    /// armed during-recovery fault fires (see
    /// [`Kernel::arm_fault_during_recovery`]). Must be paired with
    /// [`Kernel::end_recovery`].
    pub fn begin_recovery(&mut self, c: ComponentId) {
        let _ = self.apply(Event::BeginRecovery { component: c });
    }

    /// Close the innermost recovery action on `c` opened by
    /// [`Kernel::begin_recovery`].
    pub fn end_recovery(&mut self, c: ComponentId) {
        let _ = self.apply(Event::EndRecovery { component: c });
    }

    /// How many recovery actions are currently in flight.
    #[must_use]
    pub fn recovery_depth(&self) -> usize {
        self.state.recovery_depth()
    }

    /// Whether any recovery action is in flight.
    #[must_use]
    pub fn recovery_active(&self) -> bool {
        !self.state.active_recoveries.is_empty()
    }

    /// Arm a one-shot fault on `victim` that fires the moment the next
    /// recovery action begins — the SWIFI `during-recovery` injection
    /// hook (deterministic: the trigger is a simulation event, not a
    /// timer).
    pub fn arm_fault_during_recovery(&mut self, victim: ComponentId) {
        let _ = self.apply(Event::ArmRecoveryFault { victim });
    }

    /// Drop an armed during-recovery fault that never fired (no recovery
    /// action began while it was armed).
    pub fn disarm_recovery_fault(&mut self) {
        let _ = self.apply(Event::DisarmRecoveryFault);
    }

    /// Declare the in-flight invocation on `c` hung: counts a watchdog
    /// fire, emits the [`TraceEventKind::WatchdogFired`] marker, and
    /// converts the hang into a detected fail-stop fault so it enters
    /// the ordinary recovery machinery.
    pub fn watchdog_expire(&mut self, c: ComponentId, thread: ThreadId) {
        let _ = self.apply(Event::WatchdogExpire {
            component: c,
            thread,
        });
    }

    /// One watchdog tick from [`ServiceCtx::progress`]: returns `true`
    /// once `ticks` exceeds the armed budget. The expiry itself fires
    /// exactly once, on the first tick past the budget — a hung service
    /// that keeps reporting progress after the watchdog has fired must
    /// not re-fault the component (which would re-count the fault and
    /// re-open recovery episodes on every subsequent tick).
    pub(crate) fn watchdog_tick(&mut self, c: ComponentId, thread: ThreadId, ticks: u64) -> bool {
        let budget = self.state.watchdog_budget;
        if budget == 0 || ticks <= budget {
            return false;
        }
        if ticks == budget + 1 {
            self.watchdog_expire(c, thread);
        }
        true
    }

    // ------------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------------

    /// Turn the flight recorder on with the given ring capacity.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// Whether the flight recorder is recording.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Drain the flight recorder into a self-contained [`TraceShard`]:
    /// closes every open recovery episode (emitting its `episode_end`),
    /// snapshots the component-name table, and resets the recorder for
    /// continued use.
    pub fn take_trace(&mut self, label: &str) -> TraceShard {
        for c in self.trace.open_episode_components() {
            let epoch = self.epoch_of(c).unwrap_or_default();
            self.trace
                .end_episode(c, epoch, self.state.time, BOOT_THREAD);
        }
        let (events, dropped, dropped_recovery, span_count) = self.trace.drain();
        TraceShard {
            label: label.to_owned(),
            names: self
                .comp_names
                .iter()
                .map(|&n| self.names.resolve(n).to_owned())
                .collect(),
            events,
            dropped,
            dropped_recovery,
            span_count,
        }
    }

    /// The single choke point through which every mechanism firing is
    /// counted: adds to the [`Counters`] *and* (when tracing) emits the
    /// matching [`TraceEventKind::MechanismFired`] event, so the two
    /// views are equal by construction. `dur` is the simulated time the
    /// firing itself consumed (already charged by the caller); the
    /// returned span can parent nested recovery work.
    pub fn record_mechanism(
        &mut self,
        c: ComponentId,
        m: Mechanism,
        n: u64,
        thread: ThreadId,
        dur: SimTime,
    ) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let start = self.state.time.saturating_sub(dur);
        self.counters.count(c, start, Count::Mechanism(m, n));
        if !self.trace.is_enabled() {
            return None;
        }
        let parent = self.trace.causal_parent(c);
        let kind = TraceEventKind::MechanismFired { mech: m, n };
        Some(self.emit(c, thread, parent, dur, kind))
    }

    /// Emit one instant (zero-duration) trace event; no-op while
    /// disabled. Stubs use this for descriptor create/teardown markers.
    pub fn trace_instant(&mut self, c: ComponentId, thread: ThreadId, kind: TraceEventKind) {
        if self.trace.is_enabled() {
            let parent = self.trace.causal_parent(c);
            self.emit(c, thread, parent, SimTime::ZERO, kind);
        }
    }

    /// Record `kind` on `c` under `parent` as a fresh span: an event that
    /// ends now, after `dur`, stamped with `c`'s current epoch. Returns
    /// the span. The caller checks that tracing is on.
    fn emit(
        &mut self,
        c: ComponentId,
        thread: ThreadId,
        parent: Option<u64>,
        dur: SimTime,
        kind: TraceEventKind,
    ) -> u64 {
        let span = self.trace.alloc_span();
        let epoch = self.epoch_of(c).unwrap_or_default();
        self.trace.record(TraceEvent {
            span,
            parent,
            time: self.state.time.saturating_sub(dur),
            dur,
            thread,
            component: c,
            epoch,
            kind,
        });
        span
    }

    /// Open a timed recovery scope on `c`: pre-assigns the span (so
    /// nested events parent to it) and remembers the start time. Pair
    /// with [`Kernel::trace_close`]. Returns `None` while disabled.
    pub fn trace_open(&mut self, c: ComponentId) -> Option<TraceScope> {
        self.trace_open_at(c, self.state.time)
    }

    /// [`Kernel::trace_open`] with an explicit start time: the reboot
    /// path charges the core *before* opening the scope, but the scope
    /// must span the charge.
    fn trace_open_at(&mut self, c: ComponentId, start: SimTime) -> Option<TraceScope> {
        if !self.trace.is_enabled() {
            return None;
        }
        let parent = self.trace.causal_parent(c);
        let span = self.trace.alloc_span();
        self.trace.push_scope(span);
        Some(TraceScope {
            span,
            parent,
            start,
        })
    }

    /// Close a scope opened by [`Kernel::trace_open`], emitting `kind`
    /// with the measured simulated duration.
    pub fn trace_close(
        &mut self,
        scope: Option<TraceScope>,
        c: ComponentId,
        thread: ThreadId,
        kind: TraceEventKind,
    ) {
        let Some(s) = scope else { return };
        self.trace.pop_scope();
        let epoch = self.epoch_of(c).unwrap_or_default();
        self.trace.record(TraceEvent {
            span: s.span,
            parent: s.parent,
            time: s.start,
            dur: self.state.time.saturating_sub(s.start),
            thread,
            component: c,
            epoch,
            kind,
        });
    }

    /// Push an already-emitted span as the current recovery scope (used
    /// to hang creator-side U0 recovery under the upcall event). No-op
    /// on `None`.
    pub fn trace_push_scope(&mut self, span: Option<u64>) {
        if let Some(s) = span {
            self.trace.push_scope(s);
        }
    }

    /// Pop the scope pushed by [`Kernel::trace_push_scope`]. No-op on
    /// `None`.
    pub fn trace_pop_scope(&mut self, span: Option<u64>) {
        if span.is_some() {
            self.trace.pop_scope();
        }
    }

    /// Simulated page tables (read-only reflection).
    #[must_use]
    pub fn pages(&self) -> &PageTables {
        &self.state.pages
    }

    /// Simulated page tables (mutation — memory-manager privilege).
    pub fn pages_mut(&mut self) -> &mut PageTables {
        self.state.pages_mut()
    }

    // ------------------------------------------------------------------
    // Invocation path
    // ------------------------------------------------------------------

    /// Synchronous, thread-migrating component invocation.
    ///
    /// Checks the capability, rejects faulty targets, migrates the thread
    /// into the server, runs [`Service::call`], and migrates back.
    ///
    /// # Errors
    ///
    /// * [`CallError::NoSuchComponent`] / [`CallError::NoCapability`] for
    ///   bad targets;
    /// * [`CallError::Fault`] when the target is faulty — the
    ///   inter-component exception that triggers stub recovery;
    /// * [`CallError::WouldBlock`] when the service blocked the thread;
    /// * [`CallError::Reentrant`] when the thread already executes in the
    ///   target;
    /// * [`CallError::Service`] for server-level errors.
    pub fn invoke(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        target: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.invoke_inner(client, thread, target, fname, args, false)
    }

    fn invoke_inner(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        target: ComponentId,
        fname: &str,
        args: &[Value],
        bypass_caps: bool,
    ) -> Result<Value, CallError> {
        // Admission loop: the core decides whether the call may proceed;
        // a degraded target whose cooldown elapsed needs one cold
        // restart (which clears the mark, so the loop runs at most
        // twice).
        loop {
            let reply = self.apply(Event::InvokeAdmit {
                client,
                thread,
                target,
                bypass_caps,
            });
            let Reply::Admit(outcome) = reply else {
                unreachable!("InvokeAdmit replies Admit")
            };
            match outcome {
                AdmitOutcome::Admitted => break,
                AdmitOutcome::NoSuchComponent | AdmitOutcome::NoSuchThread => {
                    return Err(CallError::NoSuchComponent(target));
                }
                AdmitOutcome::NoCapability => {
                    return Err(CallError::NoCapability { client, target });
                }
                AdmitOutcome::Degraded => {
                    // Fail fast while the degraded cooldown holds: no
                    // thread migration, no recovery work, just a cheap
                    // rejection (already counted by the core).
                    return Err(CallError::Degraded { component: target });
                }
                AdmitOutcome::NeedColdRestart => {
                    // Cooldown elapsed: the booter performs the cold
                    // restart that clears the mark, then the call
                    // proceeds normally.
                    self.cold_restart(target)
                        .map_err(|_| CallError::NoSuchComponent(target))?;
                }
                AdmitOutcome::Faulty => {
                    if self.trace.is_enabled() {
                        let parent = self.trace.causal_parent(target);
                        let function = fname.to_owned();
                        let enter = TraceEventKind::InvokeEnter { function, client };
                        let span = self.emit(target, thread, parent, SimTime::ZERO, enter);
                        let exit = TraceEventKind::InvokeExit { outcome: "fault" };
                        self.emit(target, thread, Some(span), SimTime::ZERO, exit);
                    }
                    return Err(CallError::Fault { component: target });
                }
                AdmitOutcome::Reentrant => return Err(CallError::Reentrant(target)),
            }
        }
        // The thread has migrated and the invocation cost is charged.
        let enter_span = if self.trace.is_enabled() {
            let parent = self.trace.causal_parent(target);
            let function = fname.to_owned();
            let enter = TraceEventKind::InvokeEnter { function, client };
            let span = self.emit(target, thread, parent, SimTime::ZERO, enter);
            self.trace.push_invoke(span);
            Some(span)
        } else {
            None
        };

        // Check the service out so it can re-enter the kernel.
        let mut service = match self.services[target.0 as usize].take() {
            Some(s) => s,
            None => {
                let _ = self.apply(Event::InvokeAbort { thread, target });
                if let Some(enter) = enter_span {
                    self.trace.pop_invoke();
                    let exit = TraceEventKind::InvokeExit { outcome: "err" };
                    self.emit(target, thread, Some(enter), SimTime::ZERO, exit);
                }
                return Err(CallError::NoSuchComponent(target));
            }
        };
        let mut ctx = ServiceCtx {
            kernel: self,
            this: target,
            client,
            thread,
            ticks: 0,
        };
        let result = service.call(&mut ctx, fname, args);
        self.services[target.0 as usize] = Some(service);
        let _ = self.apply(Event::InvokeFinish {
            thread,
            target,
            ok: result.is_ok(),
        });

        let ret = match result {
            Ok(v) => {
                // The server may itself have faulted mid-call (injected
                // while executing): surface that instead of the value.
                if self.state.is_faulty(target) {
                    Err(CallError::Fault { component: target })
                } else {
                    Ok(v)
                }
            }
            Err(ServiceError::WouldBlock) => Err(CallError::WouldBlock),
            // A service error from a now-faulty server means the fault
            // interrupted the call (e.g. the watchdog fired mid-call):
            // surface the inter-component exception so stubs recover.
            Err(_) if self.state.is_faulty(target) => Err(CallError::Fault { component: target }),
            Err(e) => Err(CallError::Service(e)),
        };
        if let Some(enter) = enter_span {
            self.trace.pop_invoke();
            let outcome = match &ret {
                Ok(_) => "ok",
                Err(CallError::Fault { .. }) => "fault",
                Err(CallError::WouldBlock) => "would-block",
                Err(_) => "err",
            };
            let exit = TraceEventKind::InvokeExit { outcome };
            self.emit(target, thread, Some(enter), SimTime::ZERO, exit);
        }
        ret
    }

    /// Upcall into a component (bypasses the capability check — upcalls
    /// are kernel/booter-initiated, step (4)/(8) of §III-D). The bypass
    /// is admission-level: the capability table is *not* modified (an
    /// earlier version leaked a permanent booter→target grant here).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`], minus the capability check.
    pub fn upcall(
        &mut self,
        target: ComponentId,
        thread: ThreadId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        let scope = self.trace.is_enabled();
        if scope {
            let parent = self.trace.causal_parent(target);
            let function = fname.to_owned();
            let kind = TraceEventKind::Upcall { function };
            let span = self.emit(target, thread, parent, SimTime::ZERO, kind);
            self.trace.push_scope(span);
        }
        let r = self.invoke_inner(BOOTER, thread, target, fname, args, true);
        if scope {
            self.trace.pop_scope();
        }
        let _ = self.apply(Event::NoteUpcall);
        r
    }

    // ------------------------------------------------------------------
    // Faults and micro-reboot
    // ------------------------------------------------------------------

    /// Crash a component (fail-stop). Every thread blocked inside it is
    /// made runnable so its retried invocation observes the fault and
    /// enters recovery; the number of threads so woken is returned.
    ///
    /// A fault raised while a recovery action is in flight (see
    /// [`Kernel::begin_recovery`]) is **nested**: instead of closing the
    /// in-flight episode it opens a *child* episode — parented into the
    /// recovery tree, carrying its nesting depth, bounded by
    /// [`MAX_EPISODE_DEPTH`] — and bumps the nested-fault counter.
    pub fn fault(&mut self, c: ComponentId) -> u64 {
        match self.apply(Event::Fault { component: c }) {
            Reply::Woken(n) => n,
            _ => unreachable!("Fault replies Woken"),
        }
    }

    /// Booter micro-reboot (steps (3)–(4) of §III-D): `memcpy` a pristine
    /// image ([`Service::reset`]), bump the epoch, reactivate, and make
    /// the post-reboot initialization upcall.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchComponent`] when `c` does not name a service
    /// component.
    pub fn micro_reboot(&mut self, c: ComponentId) -> Result<(), KernelError> {
        if !self.state.component(c).is_some_and(|m| m.has_service) {
            return Err(KernelError::NoSuchComponent(c));
        }
        let mut service = self.services[c.0 as usize]
            .take()
            .ok_or(KernelError::NoSuchComponent(c))?;
        service.reset();
        // The reboot's trace scope spans the reboot charge (and any
        // escalation backoff), so capture the start time before the
        // core transition advances the clock.
        let start = self.state.time;
        let reply = self.apply(Event::MicroReboot { component: c });
        let Reply::Reboot(RebootOutcome::Done { mark_degraded }) = reply else {
            unreachable!("validated service component reboots")
        };
        let scope = self.trace_open_at(c, start);
        let mut ctx = ServiceCtx {
            kernel: self,
            this: c,
            client: BOOTER,
            thread: BOOT_THREAD,
            ticks: 0,
        };
        service.post_reboot(&mut ctx);
        self.services[c.0 as usize] = Some(service);
        self.trace_close(scope, c, BOOT_THREAD, TraceEventKind::Reboot);
        if let Some(until) = mark_degraded {
            // Applied after the reboot scope closes so the trace keeps
            // the established event order.
            let _ = self.apply(Event::MarkDegraded {
                component: c,
                until,
            });
        }
        Ok(())
    }

    /// Booter cold restart: the escalation endpoint that clears a
    /// degraded mark. Identical to [`Kernel::micro_reboot`] mechanically
    /// (pristine image, epoch bump, post-reboot upcall) but counted and
    /// traced separately, resets the storm history, and never re-enters
    /// escalation accounting.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchComponent`] when `c` does not name a service
    /// component.
    pub fn cold_restart(&mut self, c: ComponentId) -> Result<(), KernelError> {
        if !self.state.component(c).is_some_and(|m| m.has_service) {
            return Err(KernelError::NoSuchComponent(c));
        }
        let mut service = self.services[c.0 as usize]
            .take()
            .ok_or(KernelError::NoSuchComponent(c))?;
        service.reset();
        let start = self.state.time;
        let reply = self.apply(Event::ColdRestart { component: c });
        debug_assert!(matches!(reply, Reply::Reboot(RebootOutcome::Done { .. })));
        let scope = self.trace_open_at(c, start);
        let mut ctx = ServiceCtx {
            kernel: self,
            this: c,
            client: BOOTER,
            thread: BOOT_THREAD,
            ticks: 0,
        };
        service.post_reboot(&mut ctx);
        self.services[c.0 as usize] = Some(service);
        self.trace_close(scope, c, BOOT_THREAD, TraceEventKind::ColdRestart);
        Ok(())
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Access to the kernel embedded in a larger runtime context — what the
/// [`Executor`](crate::executor::Executor) requires of its context type.
pub trait KernelAccess {
    /// Shared access.
    fn kernel(&self) -> &Kernel;
    /// Exclusive access.
    fn kernel_mut(&mut self) -> &mut Kernel;
}

impl KernelAccess for Kernel {
    fn kernel(&self) -> &Kernel {
        self
    }
    fn kernel_mut(&mut self) -> &mut Kernel {
        self
    }
}

/// How client code reaches a server interface. Implemented by the bare
/// [`Kernel`] (no fault tolerance: a fault surfaces as
/// [`CallError::Fault`]) and by the C³/SuperGlue runtimes (which
/// interpose stubs that track descriptors and drive recovery). Workloads
/// written against this trait run unchanged under all three systems —
/// exactly the comparison the paper's evaluation needs.
pub trait InterfaceCall {
    /// Perform one interface invocation on behalf of `client`/`thread`.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`]; fault-tolerant implementations swallow
    /// recoverable [`CallError::Fault`]s.
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError>;
}

impl InterfaceCall for Kernel {
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.invoke(client, thread, server, fname, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal service for kernel tests.
    #[derive(Debug, Default)]
    struct Counter {
        count: i64,
        post_reboots: u32,
    }

    impl Service for Counter {
        fn interface(&self) -> &'static str {
            "counter"
        }
        fn call(
            &mut self,
            ctx: &mut ServiceCtx<'_>,
            fname: &str,
            args: &[Value],
        ) -> Result<Value, ServiceError> {
            match fname {
                "add" => {
                    self.count += args[0].int()?;
                    Ok(Value::Int(self.count))
                }
                "get" => Ok(Value::Int(self.count)),
                "block" => Err(ctx.block_current()),
                "sleep" => {
                    let d = ctx.now() + SimTime(args[0].int()? as u64);
                    Err(ctx.sleep_current_until(d))
                }
                "wake" => {
                    ctx.wake(ThreadId(args[0].int()? as u32))
                        .map_err(|_| ServiceError::InvalidArg)?;
                    Ok(Value::Unit)
                }
                other => Err(ServiceError::NoSuchFunction(other.to_owned())),
            }
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn post_reboot(&mut self, _ctx: &mut ServiceCtx<'_>) {
            self.post_reboots += 1;
        }
    }

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let client = k.add_client_component("app");
        let svc = k.add_component("counter", Box::new(Counter::default()));
        k.grant(client, svc);
        let t = k.create_thread(client, Priority(10));
        (k, client, svc, t)
    }

    #[test]
    fn invoke_happy_path() {
        let (mut k, client, svc, t) = setup();
        assert_eq!(
            k.invoke(client, t, svc, "add", &[Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(k.invoke(client, t, svc, "get", &[]).unwrap(), Value::Int(5));
        assert_eq!(k.counters().total(|r| r.invocations), 2);
    }

    #[test]
    fn invoke_without_capability_rejected() {
        let (mut k, _client, svc, t) = setup();
        let stranger = k.add_client_component("stranger");
        let err = k.invoke(stranger, t, svc, "get", &[]).unwrap_err();
        assert!(matches!(err, CallError::NoCapability { .. }));
    }

    #[test]
    fn invoke_unknown_component_rejected() {
        let (mut k, client, _svc, t) = setup();
        let err = k
            .invoke(client, t, ComponentId(99), "get", &[])
            .unwrap_err();
        assert!(matches!(err, CallError::NoSuchComponent(_)));
    }

    #[test]
    fn invoke_client_component_rejected() {
        let (mut k, client, _svc, t) = setup();
        let other = k.add_client_component("other");
        k.grant(client, other);
        let err = k.invoke(client, t, other, "get", &[]).unwrap_err();
        assert!(matches!(err, CallError::NoSuchComponent(_)));
    }

    #[test]
    fn faulty_component_raises_fault_on_invoke() {
        let (mut k, client, svc, t) = setup();
        k.fault(svc);
        assert!(k.is_faulty(svc));
        let err = k.invoke(client, t, svc, "get", &[]).unwrap_err();
        assert_eq!(err, CallError::Fault { component: svc });
        assert_eq!(k.counters().row(svc).unwrap().faulted_invocations, 1);
    }

    #[test]
    fn micro_reboot_resets_state_and_bumps_epoch() {
        let (mut k, client, svc, t) = setup();
        k.invoke(client, t, svc, "add", &[Value::Int(7)]).unwrap();
        k.fault(svc);
        let e0 = k.epoch_of(svc).unwrap();
        k.micro_reboot(svc).unwrap();
        assert!(!k.is_faulty(svc));
        assert_eq!(k.epoch_of(svc).unwrap(), e0.next());
        // State was wiped by reset().
        assert_eq!(k.invoke(client, t, svc, "get", &[]).unwrap(), Value::Int(0));
        assert_eq!(k.counters().total(|r| r.reboots), 1);
    }

    #[test]
    fn reboot_only_window_has_no_series_row() {
        let (mut k, client, svc, t) = setup();
        k.enable_telemetry(SimTime(100));
        k.invoke(client, t, svc, "get", &[]).unwrap();
        k.advance_to(SimTime(1_000));
        k.fault(svc);
        k.advance_to(SimTime(2_000));
        k.micro_reboot(svc).unwrap();
        let series = crate::SeriesSnapshot::from_kernel(&k);
        let windows: Vec<u64> = series.rows.keys().map(|&(_, w)| w).collect();
        assert_eq!(windows, [0, 10], "window 20 counted only a reboot");
        assert_eq!(k.counters().windows(svc).unwrap()[&20].reboots, 1);
        let metrics = crate::MetricsSnapshot::from_kernel(&k);
        assert_eq!(metrics.rows["counter"].reboots, 1);
    }

    #[test]
    fn micro_reboot_of_client_component_rejected() {
        let (mut k, client, _svc, _t) = setup();
        assert!(k.micro_reboot(client).is_err());
    }

    #[test]
    fn blocking_and_waking() {
        let (mut k, client, svc, t) = setup();
        let err = k.invoke(client, t, svc, "block", &[]).unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert_eq!(
            k.thread(t).unwrap().state,
            ThreadState::Blocked { in_component: svc }
        );
        assert_eq!(k.threads_blocked_in(svc), vec![t]);

        let t2 = k.create_thread(client, Priority(10));
        k.invoke(client, t2, svc, "wake", &[Value::Int(i64::from(t.0))])
            .unwrap();
        assert!(k.thread(t).unwrap().state.is_runnable());
    }

    #[test]
    fn fault_wakes_blocked_threads() {
        let (mut k, client, svc, t) = setup();
        let _ = k.invoke(client, t, svc, "block", &[]);
        k.fault(svc);
        assert!(k.thread(t).unwrap().state.is_runnable());
        // Retried invocation observes the fault.
        assert!(matches!(
            k.invoke(client, t, svc, "block", &[]),
            Err(CallError::Fault { .. })
        ));
    }

    #[test]
    fn sleeping_and_time_advance() {
        let (mut k, client, svc, t) = setup();
        let err = k
            .invoke(client, t, svc, "sleep", &[Value::Int(1000)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert_eq!(k.earliest_wakeup(), Some(SimTime(1000)));
        k.advance_to(SimTime(999));
        assert!(!k.thread(t).unwrap().state.is_runnable());
        k.advance_to(SimTime(1000));
        assert!(k.thread(t).unwrap().state.is_runnable());
        assert_eq!(k.earliest_wakeup(), None);
    }

    #[test]
    fn advance_never_goes_backwards() {
        let mut k = Kernel::with_costs(CostModel::free());
        k.advance_to(SimTime(500));
        k.advance_to(SimTime(100));
        assert_eq!(k.now(), SimTime(500));
    }

    #[test]
    fn next_runnable_respects_priority_and_round_robin() {
        let mut k = Kernel::with_costs(CostModel::free());
        let c = k.add_client_component("app");
        let hi = k.create_thread(c, Priority(1));
        let lo = k.create_thread(c, Priority(5));
        // Boot thread is priority 0 — park it.
        k.thread_mut(BOOT_THREAD).unwrap().state = ThreadState::Completed;
        assert_eq!(k.next_runnable(), Some(hi));
        k.thread_mut(hi).unwrap().dispatches += 1;
        // Same priority class unchanged: hi still beats lo on priority.
        assert_eq!(k.next_runnable(), Some(hi));
        k.thread_mut(hi).unwrap().state = ThreadState::Completed;
        assert_eq!(k.next_runnable(), Some(lo));
    }

    #[test]
    fn invocation_cost_advances_time() {
        let mut k = Kernel::with_costs(CostModel::paper_defaults());
        let client = k.add_client_component("app");
        let svc = k.add_component("counter", Box::new(Counter::default()));
        k.grant(client, svc);
        let t = k.create_thread(client, Priority(3));
        let before = k.now();
        k.invoke(client, t, svc, "get", &[]).unwrap();
        assert_eq!(k.now(), before + CostModel::paper_defaults().invocation);
    }

    #[test]
    fn upcall_bypasses_capabilities_and_counts() {
        let (mut k, _client, svc, _t) = setup();
        let r = k.upcall(svc, BOOT_THREAD, "get", &[]).unwrap();
        assert_eq!(r, Value::Int(0));
        assert_eq!(k.counters().upcalls, 1);
    }

    #[test]
    fn upcall_does_not_mutate_the_capability_table() {
        // Regression: the upcall path used to leak a permanent
        // booter→target grant into the capability table, so a later
        // *ordinary* invoke from the booter would silently pass the
        // capability check it should fail.
        let (mut k, _client, svc, _t) = setup();
        let grants_before = k.caps().len();
        assert!(!k.caps().allows(BOOTER, svc));
        k.upcall(svc, BOOT_THREAD, "get", &[]).unwrap();
        assert_eq!(k.caps().len(), grants_before, "upcall must not grant");
        assert!(!k.caps().allows(BOOTER, svc));
        let err = k.invoke(BOOTER, BOOT_THREAD, svc, "get", &[]).unwrap_err();
        assert!(matches!(err, CallError::NoCapability { .. }));
    }

    #[test]
    fn watchdog_fires_once_per_hung_call() {
        // Regression: a hung service that keeps reporting progress
        // after the watchdog has fired used to re-fault the component
        // on every subsequent tick, inflating the fault counter and
        // re-opening recovery episodes.
        #[derive(Debug)]
        struct Stubborn;
        impl Service for Stubborn {
            fn interface(&self) -> &'static str {
                "stubborn"
            }
            fn call(
                &mut self,
                ctx: &mut ServiceCtx<'_>,
                _fname: &str,
                _args: &[Value],
            ) -> Result<Value, ServiceError> {
                // Ignores the watchdog's verdict and spins on.
                for _ in 0..32 {
                    let _ = ctx.progress();
                }
                Err(ServiceError::Unavailable)
            }
            fn reset(&mut self) {}
        }
        let mut k = Kernel::with_costs(CostModel::free());
        let client = k.add_client_component("app");
        let svc = k.add_component("stubborn", Box::new(Stubborn));
        k.grant(client, svc);
        let t = k.create_thread(client, Priority(3));
        k.set_watchdog_budget(4);
        let err = k.invoke(client, t, svc, "go", &[]).unwrap_err();
        assert_eq!(err, CallError::Fault { component: svc });
        let fires = k.counters().total(|r| r.watchdog_fires);
        assert_eq!(fires, 1, "fired once, not 28×");
        assert_eq!(k.counters().row(svc).map_or(0, |r| r.faults), 1);
    }

    #[test]
    fn post_reboot_hook_runs() {
        let (mut k, client, svc, t) = setup();
        k.fault(svc);
        k.micro_reboot(svc).unwrap();
        // post_reboots survives reset() because reset only clears count.
        // Verify indirectly: counter still works.
        assert_eq!(k.invoke(client, t, svc, "get", &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn snapshot_is_o1_and_shares_tables() {
        let (k, _client, _svc, _t) = setup();
        let snap = k.snapshot();
        assert!(std::sync::Arc::ptr_eq(&snap.threads, &k.state().threads));
        assert_eq!(&snap, k.state());
    }

    #[test]
    fn reentrant_invocation_rejected() {
        // A service that calls back into itself.
        #[derive(Debug)]
        struct Reenter {
            me: ComponentId,
        }
        impl Service for Reenter {
            fn interface(&self) -> &'static str {
                "reenter"
            }
            fn call(
                &mut self,
                ctx: &mut ServiceCtx<'_>,
                _fname: &str,
                _args: &[Value],
            ) -> Result<Value, ServiceError> {
                match ctx.invoke(self.me, "again", &[]) {
                    Err(CallError::Reentrant(_)) => Ok(Value::Int(1)),
                    _ => Ok(Value::Int(0)),
                }
            }
            fn reset(&mut self) {}
        }
        let mut k = Kernel::with_costs(CostModel::free());
        let client = k.add_client_component("app");
        let svc = k.add_component("reenter", Box::new(Reenter { me: ComponentId(2) }));
        k.grant(client, svc);
        let t = k.create_thread(client, Priority(3));
        assert_eq!(k.invoke(client, t, svc, "go", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn mid_call_fault_surfaces_as_fault() {
        // A service that faults itself during the call (the SWIFI case).
        #[derive(Debug)]
        struct SelfFault {
            me: ComponentId,
        }
        impl Service for SelfFault {
            fn interface(&self) -> &'static str {
                "selffault"
            }
            fn call(
                &mut self,
                ctx: &mut ServiceCtx<'_>,
                _fname: &str,
                _args: &[Value],
            ) -> Result<Value, ServiceError> {
                ctx.kernel.fault(self.me);
                Ok(Value::Int(7))
            }
            fn reset(&mut self) {}
        }
        let mut k = Kernel::with_costs(CostModel::free());
        let client = k.add_client_component("app");
        let svc = k.add_component("selffault", Box::new(SelfFault { me: ComponentId(2) }));
        k.grant(client, svc);
        let t = k.create_thread(client, Priority(3));
        let err = k.invoke(client, t, svc, "go", &[]).unwrap_err();
        assert_eq!(err, CallError::Fault { component: svc });
    }
}
