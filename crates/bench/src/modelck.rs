//! System-level random-walk model checking over a full [`Rig`].
//!
//! The pure-core model checker ([`composite::KernelWalk`]) verifies the
//! kernel transition function in isolation; this module closes the loop
//! at the *system* level: a [`SystemWalk`] drives a complete SuperGlue
//! testbed — IDL-generated stubs, storage components, the booter's
//! recovery runtime — through a random interleaving of workload
//! iterations, fault injections, during-recovery (correlated) fault
//! arms, and time advances, checking the recovery invariants the paper
//! relies on after every operation:
//!
//! 1. **No lost wakeups** — every worker thread is runnable again once
//!    an operation completes (T0 eager wakeup did its job).
//! 2. **Bounded episode depth** — nested recovery never exceeds
//!    [`MAX_EPISODE_DEPTH`] (checked live on the recovery stack and
//!    post-hoc on every `fault` trace event).
//! 3. **Descriptor-leak freedom at quiescence** — after each complete
//!    operation the stubs track exactly the baseline descriptor set:
//!    recovery rebuilt what it had to and leaked nothing.
//! 4. **σ-table/trace-counter agreement** — mechanism counts summed
//!    from the drained flight-recorder shard equal the kernel's
//!    [`Counters`](composite::Counters) totals.
//! 5. **Episode-latency conservation** — re-summing the timed spans of
//!    every closed recovery episode reproduces its attributed latency
//!    exactly (the same check `sgtrace timeline` performs offline).
//!
//! Invariants 1–3 are cheap and run after every step inside
//! [`Model::apply`]; 4–5 need the drained trace and run once at the end
//! via [`SystemWalk::finish`]. Both phases feed the same
//! [`Violation`]/counterexample machinery as the core checker, so a
//! failing system walk shrinks to a minimal operation sequence too.
//!
//! This module also provides the JSON (de)serialization for core
//! [`Event`]s that the `modelcheck` binary uses to write counterexample
//! artifacts and `sgtrace replay` uses to time-travel through them.

use composite::{
    CallError, ComponentId, CostModel, EscalationPolicy, Event, InterfaceCall as _, Json,
    KernelAccess as _, MetricsSnapshot, Model, Priority, SimTime, SplitMix64, ThreadId,
    TraceEventKind, Violation, DEFAULT_TRACE_CAPACITY, MAX_EPISODE_DEPTH, MECHANISMS,
};
use superglue::testbed::Variant;

use crate::stat::{episodes_of, text, uint, uint32};
use crate::{rig, rig_elided, Rig, SERVICES};

// ---------------------------------------------------------------------
// The system-level operation alphabet
// ---------------------------------------------------------------------

/// One system-level operation of a [`SystemWalk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOp {
    /// Run one complete §V-B micro-workload iteration against a service
    /// (triggers transparent recovery first when the service is faulty).
    Iteration {
        /// Index into [`SERVICES`].
        iface: usize,
        /// Workload sequence number (keeps mm/fs arguments fresh).
        seq: u64,
    },
    /// Inject a fail-stop fault into a service (SWIFI).
    Fault {
        /// Index into [`SERVICES`].
        iface: usize,
    },
    /// Arm a one-shot fault that fires the moment the next recovery
    /// action begins — the correlated-fault (nested episode) case.
    ArmNestedFault {
        /// Index into [`SERVICES`] naming the victim.
        iface: usize,
    },
    /// Advance virtual time (ages escalation windows and degraded
    /// cooldowns).
    Advance {
        /// Nanoseconds to advance by.
        dt: u64,
    },
}

// ---------------------------------------------------------------------
// SystemWalk
// ---------------------------------------------------------------------

/// A random walk over a full SuperGlue testbed. See the
/// [module docs](self) for the invariants checked.
#[derive(Debug)]
pub struct SystemWalk {
    /// The system under test (rebuilt on every [`Model::reset`]).
    pub rig: Rig,
    baseline_tracked: usize,
    seq: u64,
}

/// XORed into `modelcheck --seed` for the system walk's own stream.
pub const SYSTEM_SEED_MIX: u64 = 0x5157_EA11;
/// XORed into `modelcheck --seed` for the elision walk's own stream.
pub const ELIDE_SEED_MIX: u64 = 0xE11D_E0FF;

/// The storm policy the walk arms: tight enough that repeated fault
/// injections actually trip escalation, short enough that degraded
/// cooldowns elapse within a walk's time advances.
fn walk_escalation() -> EscalationPolicy {
    EscalationPolicy {
        reboot_window: SimTime(2_000_000),
        max_reboots_in_window: 4,
        degraded_cooldown: SimTime(20_000_000),
        reboot_backoff: SimTime(10_000),
    }
}

impl SystemWalk {
    /// A fresh walk (builds the testbed once; [`Model::reset`] rebuilds
    /// it for every check run).
    #[must_use]
    pub fn new() -> Self {
        let mut w = Self {
            rig: rig(Variant::SuperGlue),
            baseline_tracked: 0,
            seq: 0,
        };
        w.arm();
        w
    }

    fn arm(&mut self) {
        let k = self.rig.tb.runtime.kernel_mut();
        k.set_escalation(walk_escalation());
        k.enable_tracing(DEFAULT_TRACE_CAPACITY);
        self.baseline_tracked = self.rig.tb.total_tracked();
    }

    /// The worker threads whose runnability invariant 1 asserts.
    fn workers(&self) -> [ThreadId; 2] {
        [self.rig.thread, self.rig.thread2]
    }

    /// Invariants 1–3, checked after every operation.
    fn check_step_invariants(&self) -> Result<(), Violation> {
        let k = self.rig.tb.runtime.kernel();
        // 1. No lost wakeups: the workload never leaves a thread parked;
        // any block a fault interrupted must have been T0-woken.
        for t in self.workers() {
            let state = k.thread(t).map_err(|e| Violation {
                invariant: "no-lost-wakeups",
                detail: format!("worker {t:?} vanished: {e}"),
            })?;
            if !state.state.is_runnable() {
                return Err(Violation {
                    invariant: "no-lost-wakeups",
                    detail: format!("worker {t:?} left non-runnable: {:?}", state.state),
                });
            }
        }
        // 2. Bounded episode depth, live view: every recovery action
        // opened during the operation must have closed again, and the
        // stack never wedges open.
        let depth = k.recovery_depth();
        if depth != 0 {
            return Err(Violation {
                invariant: "bounded-episode-depth",
                detail: format!("recovery stack not balanced at quiescence: depth {depth}"),
            });
        }
        // 3. Descriptor-leak freedom: each iteration frees what it
        // created, and recovery rebuilds tracked descriptors without
        // duplicating them.
        let tracked = self.rig.tb.total_tracked();
        if tracked != self.baseline_tracked {
            return Err(Violation {
                invariant: "descriptor-leak-freedom",
                detail: format!(
                    "stubs track {tracked} descriptors at quiescence, baseline {}",
                    self.baseline_tracked
                ),
            });
        }
        Ok(())
    }

    /// Invariants 4–5 (trace-level), checked once after the walk by
    /// draining the flight recorder. Also re-verifies the episode-depth
    /// bound against the recorded `fault` events.
    pub fn finish(&mut self) -> Vec<Violation> {
        let mut out = Vec::new();
        // A leftover armed fault (no recovery followed the arm) must not
        // leak into the drained trace accounting.
        self.rig.tb.runtime.kernel_mut().disarm_recovery_fault();
        let snapshot = MetricsSnapshot::from_kernel(self.rig.tb.runtime.kernel());
        let shard = self.rig.tb.runtime.kernel_mut().take_trace("system-walk");

        // 2 (post-hoc). Bounded episode depth as recorded.
        for ev in &shard.events {
            if let TraceEventKind::FaultInjected { depth } = ev.kind {
                if depth > MAX_EPISODE_DEPTH {
                    out.push(Violation {
                        invariant: "bounded-episode-depth",
                        detail: format!(
                            "fault event at {:?} carries depth {depth} > {MAX_EPISODE_DEPTH}",
                            ev.time
                        ),
                    });
                }
            }
        }

        if shard.dropped_recovery > 0 {
            // The recovery tier overflowed: counter agreement and latency
            // conservation are unverifiable on an incomplete record (the
            // same SKIP rule `sgtrace timeline` applies).
            return out;
        }

        // 4. σ-table/trace-counter agreement.
        let mut trace_counts = [0u64; MECHANISMS.len()];
        for ev in &shard.events {
            if let TraceEventKind::MechanismFired { mech, n } = ev.kind {
                trace_counts[mech.index()] += n;
            }
        }
        for m in MECHANISMS {
            let metric = snapshot.mechanism_total(m);
            let traced = trace_counts[m.index()];
            if metric != traced {
                out.push(Violation {
                    invariant: "state-effect-agreement",
                    detail: format!(
                        "{m:?}: kernel counters counted {metric}, trace recorded {traced}"
                    ),
                });
            }
        }

        // 5. Episode-latency conservation, on the episodes `sgtrace
        // timeline` reconstructs.
        for ep in episodes_of(&shard) {
            if ep.closed && ep.resummed != ep.attributed {
                out.push(Violation {
                    invariant: "episode-latency-conservation",
                    detail: format!(
                        "episode on {} starting at {}ns: re-summed spans total {}ns but \
                         episode_end attributes {}ns",
                        ep.component, ep.start, ep.resummed, ep.attributed
                    ),
                });
            }
        }
        out
    }
}

impl Default for SystemWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl Model for SystemWalk {
    type Event = SysOp;

    fn reset(&mut self) {
        self.rig = rig(Variant::SuperGlue);
        self.seq = 0;
        self.arm();
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> SysOp {
        random_sysop(rng, &mut self.seq)
    }

    fn apply(&mut self, op: &SysOp) -> Result<(), Violation> {
        apply_op(&mut self.rig, op).map_err(|detail| Violation {
            invariant: "state-effect-agreement",
            detail,
        })?;
        self.check_step_invariants()
    }
}

/// Apply one operation to a rig. Returns the `Degraded` rejection a
/// workload iteration met, if any: the service was degraded before the
/// iteration, or a reboot storm degraded it during the iteration. Any
/// other rejection, or a degraded service that accepts a call, is the
/// `Err` detail.
fn apply_op(r: &mut Rig, op: &SysOp) -> Result<Option<CallError>, String> {
    match *op {
        SysOp::Iteration { iface, seq } => {
            let svc = r.component_of(SERVICES[iface]);
            let degraded = r.tb.runtime.kernel().is_degraded(svc);
            let result = if degraded {
                // Degraded fail-fast window: the workload cannot run;
                // probe what clients actually see.
                let app = r.tb.ids.app1;
                let compid = composite::Value::from(app.0);
                let probe = probe_fn(iface);
                r.tb.runtime
                    .interface_call(app, r.thread, svc, probe, &[compid])
                    .map(|_| 0)
            } else {
                r.run_iteration(SERVICES[iface], seq)
            };
            let now_degraded = |c| r.tb.runtime.kernel().is_degraded(c);
            return match result {
                Ok(_) if !degraded => Ok(None),
                Err(e @ CallError::Degraded { component }) if now_degraded(component) => {
                    Ok(Some(e))
                }
                other => Err(format!(
                    "{} was {} but a call returned {other:?}",
                    SERVICES[iface],
                    if degraded { "degraded" } else { "healthy" }
                )),
            };
        }
        SysOp::Fault { iface } => {
            let svc = r.component_of(SERVICES[iface]);
            r.tb.runtime.inject_fault(svc);
        }
        SysOp::ArmNestedFault { iface } => {
            let svc = r.component_of(SERVICES[iface]);
            r.tb.runtime.kernel_mut().arm_fault_during_recovery(svc);
        }
        SysOp::Advance { dt } => {
            let now = r.tb.runtime.kernel().now();
            r.tb.runtime.kernel_mut().advance_to(now + SimTime(dt));
        }
    }
    Ok(None)
}

/// The shared operation distribution of [`SystemWalk`] and
/// [`ElideDiffWalk`]: mostly workload iterations, a healthy dose of
/// fault injections, occasional nested-fault arms and time advances.
fn random_sysop(rng: &mut SplitMix64, seq: &mut u64) -> SysOp {
    let roll = rng.gen_range(100);
    match roll {
        0..=54 => {
            *seq += 1;
            SysOp::Iteration {
                iface: rng.gen_index(SERVICES.len()),
                seq: *seq,
            }
        }
        55..=74 => SysOp::Fault {
            iface: rng.gen_index(SERVICES.len()),
        },
        75..=84 => SysOp::ArmNestedFault {
            iface: rng.gen_index(SERVICES.len()),
        },
        _ => SysOp::Advance {
            dt: 100_000 * (1 + rng.gen_range(30)),
        },
    }
}

// ---------------------------------------------------------------------
// ElideDiffWalk: certified elision vs full tracking, lock-step
// ---------------------------------------------------------------------

/// A random walk that drives **two** SuperGlue testbeds through the
/// identical operation sequence — one interpreting the fully tracked
/// stub specs, one the certified tracking-elision fast paths — and
/// asserts after every operation that they are observationally
/// indistinguishable: same call results, same simulated time, same
/// runtime statistics (including invalid-transition detections), same
/// kernel counters (every mechanism count, fault, reboot and recovery
/// latency), same per-edge tracked/faulty descriptor sets, same
/// degraded windows. At
/// [`ElideDiffWalk::finish`] the two flight-recorder traces must render
/// to byte-identical JSON-lines.
///
/// This is the dynamic half of the SG060–SG065 elision certificate: the
/// lint proves each skipped write is never read; this walk checks the
/// proof against the running system under randomized SWIFI schedules.
#[derive(Debug)]
pub struct ElideDiffWalk {
    /// The fully tracked reference system.
    pub tracked: Rig,
    /// The certified-elision system under test.
    pub elided: Rig,
    seq: u64,
}

impl ElideDiffWalk {
    /// A fresh differential walk (both testbeds built; [`Model::reset`]
    /// rebuilds them per check run).
    #[must_use]
    pub fn new() -> Self {
        let mut w = Self {
            tracked: rig(Variant::SuperGlue),
            elided: rig_elided(Variant::SuperGlue, true),
            seq: 0,
        };
        w.arm();
        w
    }

    fn arm(&mut self) {
        for r in [&mut self.tracked, &mut self.elided] {
            let k = r.tb.runtime.kernel_mut();
            k.set_escalation(walk_escalation());
            k.enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
    }

    /// The first observable difference between the two systems, if any.
    fn divergence(&self) -> Option<String> {
        let (kt, ke) = (
            self.tracked.tb.runtime.kernel(),
            self.elided.tb.runtime.kernel(),
        );
        if kt.now() != ke.now() {
            return Some(format!(
                "simulated time diverged: tracked {:?}, elided {:?}",
                kt.now(),
                ke.now()
            ));
        }
        let (st, se) = (
            self.tracked.tb.runtime.stats(),
            self.elided.tb.runtime.stats(),
        );
        if st != se {
            return Some(format!(
                "runtime statistics diverged:\n  tracked: {st:?}\n  elided:  {se:?}"
            ));
        }
        let (mt, me) = (
            MetricsSnapshot::from_kernel(kt),
            MetricsSnapshot::from_kernel(ke),
        );
        if mt != me {
            let (jt, je) = (mt.to_json_lines("step"), me.to_json_lines("step"));
            return Some(format!(
                "kernel counters diverged: {}",
                first_difference(&jt, &je)
            ));
        }
        for iface in SERVICES {
            let svc_t = self.tracked.component_of(iface);
            let svc_e = self.elided.component_of(iface);
            if kt.is_degraded(svc_t) != ke.is_degraded(svc_e) {
                return Some(format!("{iface}: degraded windows diverged"));
            }
            for (app_t, app_e) in [
                (self.tracked.tb.ids.app1, self.elided.tb.ids.app1),
                (self.tracked.tb.ids.app2, self.elided.tb.ids.app2),
            ] {
                let t = self.tracked.tb.runtime.stub(app_t, svc_t);
                let e = self.elided.tb.runtime.stub(app_e, svc_e);
                let (tc, tf) = t.map_or((0, 0), |s| (s.tracked_count(), s.faulty_count()));
                let (ec, ef) = e.map_or((0, 0), |s| (s.tracked_count(), s.faulty_count()));
                if (tc, tf) != (ec, ef) {
                    return Some(format!(
                        "{iface}: tracked/faulty sets diverged: tracked run \
                         ({tc}, {tf}), elided run ({ec}, {ef})"
                    ));
                }
            }
        }
        None
    }

    /// Drain both flight recorders and require byte-identical renderings
    /// (the in-process twin of the CI `--elide` trace differential).
    pub fn finish(&mut self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut shards = Vec::new();
        for r in [&mut self.tracked, &mut self.elided] {
            r.tb.runtime.kernel_mut().disarm_recovery_fault();
            shards.push(r.tb.runtime.kernel_mut().take_trace("elide-diff"));
        }
        let full = composite::shards_to_jsonl(&shards[..1]);
        let elided = composite::shards_to_jsonl(&shards[1..]);
        if full != elided {
            out.push(Violation {
                invariant: "elide-trace-identity",
                detail: format!("traces {}", first_difference(&full, &elided)),
            });
        }
        out
    }
}

impl Default for ElideDiffWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl Model for ElideDiffWalk {
    type Event = SysOp;

    fn reset(&mut self) {
        self.tracked = rig(Variant::SuperGlue);
        self.elided = rig_elided(Variant::SuperGlue, true);
        self.seq = 0;
        self.arm();
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> SysOp {
        random_sysop(rng, &mut self.seq)
    }

    fn apply(&mut self, op: &SysOp) -> Result<(), Violation> {
        let run = |name: &str, r: &mut Rig| {
            apply_op(r, op).map_err(|detail| Violation {
                invariant: "elide-equivalence",
                detail: format!("{name} run: {detail}"),
            })
        };
        let (t, e) = (
            run("tracked", &mut self.tracked)?,
            run("elided", &mut self.elided)?,
        );
        if t != e {
            return Err(Violation {
                invariant: "elide-equivalence",
                detail: format!("results diverged: tracked run {t:?}, elided run {e:?}"),
            });
        }
        if let Some(detail) = self.divergence() {
            return Err(Violation {
                invariant: "elide-equivalence",
                detail,
            });
        }
        Ok(())
    }
}

/// Where two renderings first differ, as "diverge at line N: ..." or
/// "differ in length: ...".
fn first_difference(tracked: &str, elided: &str) -> String {
    let first = tracked
        .lines()
        .zip(elided.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    match first {
        Some((i, (a, b))) => format!("diverge at line {i}:\n  tracked: {a}\n  elided:  {b}"),
        None => format!(
            "differ in length: tracked {} lines, elided {} lines",
            tracked.lines().count(),
            elided.lines().count()
        ),
    }
}

/// A cheap probe function per interface: used only to observe the
/// degraded fail-fast rejection, never expected to execute.
fn probe_fn(iface: usize) -> &'static str {
    match SERVICES[iface] {
        "sched" => "sched_wakeup",
        "mm" => "mman_get_page",
        "fs" => "tsplit",
        "lock" => "lock_alloc",
        "evt" => "evt_split",
        "tmr" => "tmr_create",
        _ => unreachable!("SERVICES is fixed"),
    }
}

// ---------------------------------------------------------------------
// Core-event JSON (de)serialization
// ---------------------------------------------------------------------

/// Serialize one core [`Event`] as a JSON object (stable tag names,
/// consumed by [`event_from_json`] and `sgtrace replay`).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn event_to_json(ev: &Event) -> Json {
    let mut j = Json::object();
    match *ev {
        Event::AddComponent { has_service } => {
            j.push("ev", "add_component")
                .push("has_service", has_service);
        }
        Event::AddThread { home, priority } => {
            j.push("ev", "add_thread")
                .push("home", home.0)
                .push("priority", u64::from(priority.0));
        }
        Event::Grant { client, server } => {
            j.push("ev", "grant")
                .push("client", client.0)
                .push("server", server.0);
        }
        Event::SetCosts(c) => {
            j.push("ev", "set_costs")
                .push("invocation", c.invocation.0)
                .push("tracking", c.tracking.0)
                .push("micro_reboot", c.micro_reboot.0)
                .push("recovery_step", c.recovery_step.0)
                .push("storage_round_trip", c.storage_round_trip.0)
                .push("upcall", c.upcall.0);
        }
        Event::SetEscalation(p) => {
            j.push("ev", "set_escalation")
                .push("reboot_window", p.reboot_window.0)
                .push("max_reboots_in_window", p.max_reboots_in_window)
                .push("degraded_cooldown", p.degraded_cooldown.0)
                .push("reboot_backoff", p.reboot_backoff.0);
        }
        Event::SetWatchdogBudget(b) => {
            j.push("ev", "set_watchdog_budget").push("budget", b);
        }
        Event::Charge(t) => {
            j.push("ev", "charge").push("cost", t.0);
        }
        Event::AdvanceTo(t) => {
            j.push("ev", "advance_to").push("t", t.0);
        }
        Event::BlockThread {
            thread,
            in_component,
        } => {
            j.push("ev", "block_thread")
                .push("thread", thread.0)
                .push("in_component", in_component.0);
        }
        Event::SleepThread { thread, until } => {
            j.push("ev", "sleep_thread")
                .push("thread", thread.0)
                .push("until", until.0);
        }
        Event::WakeThread { thread } => {
            j.push("ev", "wake_thread").push("thread", thread.0);
        }
        Event::BeginRecovery { component } => {
            j.push("ev", "begin_recovery")
                .push("component", component.0);
        }
        Event::EndRecovery { component } => {
            j.push("ev", "end_recovery").push("component", component.0);
        }
        Event::ArmRecoveryFault { victim } => {
            j.push("ev", "arm_recovery_fault").push("victim", victim.0);
        }
        Event::DisarmRecoveryFault => {
            j.push("ev", "disarm_recovery_fault");
        }
        Event::Fault { component } => {
            j.push("ev", "fault").push("component", component.0);
        }
        Event::WatchdogExpire { component, thread } => {
            j.push("ev", "watchdog_expire")
                .push("component", component.0)
                .push("thread", thread.0);
        }
        Event::InvokeAdmit {
            client,
            thread,
            target,
            bypass_caps,
        } => {
            j.push("ev", "invoke_admit")
                .push("client", client.0)
                .push("thread", thread.0)
                .push("target", target.0)
                .push("bypass_caps", bypass_caps);
        }
        Event::InvokeAbort { thread, target } => {
            j.push("ev", "invoke_abort")
                .push("thread", thread.0)
                .push("target", target.0);
        }
        Event::InvokeFinish { thread, target, ok } => {
            j.push("ev", "invoke_finish")
                .push("thread", thread.0)
                .push("target", target.0)
                .push("ok", ok);
        }
        Event::ChargeUpcall { server, thread } => {
            j.push("ev", "charge_upcall")
                .push("server", server.0)
                .push("thread", thread.0);
        }
        Event::NoteUpcall => {
            j.push("ev", "note_upcall");
        }
        Event::MicroReboot { component } => {
            j.push("ev", "micro_reboot").push("component", component.0);
        }
        Event::ColdRestart { component } => {
            j.push("ev", "cold_restart").push("component", component.0);
        }
        Event::MarkDegraded { component, until } => {
            j.push("ev", "mark_degraded")
                .push("component", component.0)
                .push("until", until.0);
        }
    }
    j
}

fn jbool(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(true)))
}

/// Deserialize one core [`Event`] written by [`event_to_json`].
///
/// # Errors
///
/// Returns a message naming the unknown tag or missing field.
pub fn event_from_json(j: &Json) -> Result<Event, String> {
    let tag = text(j, "ev")?;
    Ok(match tag {
        "add_component" => Event::AddComponent {
            has_service: jbool(j, "has_service"),
        },
        "add_thread" => Event::AddThread {
            home: ComponentId(uint32(j, "home")?),
            priority: Priority(u8::try_from(uint(j, "priority")?).map_err(|e| e.to_string())?),
        },
        "grant" => Event::Grant {
            client: ComponentId(uint32(j, "client")?),
            server: ComponentId(uint32(j, "server")?),
        },
        "set_costs" => Event::SetCosts(CostModel {
            invocation: SimTime(uint(j, "invocation")?),
            tracking: SimTime(uint(j, "tracking")?),
            micro_reboot: SimTime(uint(j, "micro_reboot")?),
            recovery_step: SimTime(uint(j, "recovery_step")?),
            storage_round_trip: SimTime(uint(j, "storage_round_trip")?),
            upcall: SimTime(uint(j, "upcall")?),
        }),
        "set_escalation" => Event::SetEscalation(EscalationPolicy {
            reboot_window: SimTime(uint(j, "reboot_window")?),
            max_reboots_in_window: uint32(j, "max_reboots_in_window")?,
            degraded_cooldown: SimTime(uint(j, "degraded_cooldown")?),
            reboot_backoff: SimTime(uint(j, "reboot_backoff")?),
        }),
        "set_watchdog_budget" => Event::SetWatchdogBudget(uint(j, "budget")?),
        "charge" => Event::Charge(SimTime(uint(j, "cost")?)),
        "advance_to" => Event::AdvanceTo(SimTime(uint(j, "t")?)),
        "block_thread" => Event::BlockThread {
            thread: ThreadId(uint32(j, "thread")?),
            in_component: ComponentId(uint32(j, "in_component")?),
        },
        "sleep_thread" => Event::SleepThread {
            thread: ThreadId(uint32(j, "thread")?),
            until: SimTime(uint(j, "until")?),
        },
        "wake_thread" => Event::WakeThread {
            thread: ThreadId(uint32(j, "thread")?),
        },
        "begin_recovery" => Event::BeginRecovery {
            component: ComponentId(uint32(j, "component")?),
        },
        "end_recovery" => Event::EndRecovery {
            component: ComponentId(uint32(j, "component")?),
        },
        "arm_recovery_fault" => Event::ArmRecoveryFault {
            victim: ComponentId(uint32(j, "victim")?),
        },
        "disarm_recovery_fault" => Event::DisarmRecoveryFault,
        "fault" => Event::Fault {
            component: ComponentId(uint32(j, "component")?),
        },
        "watchdog_expire" => Event::WatchdogExpire {
            component: ComponentId(uint32(j, "component")?),
            thread: ThreadId(uint32(j, "thread")?),
        },
        "invoke_admit" => Event::InvokeAdmit {
            client: ComponentId(uint32(j, "client")?),
            thread: ThreadId(uint32(j, "thread")?),
            target: ComponentId(uint32(j, "target")?),
            bypass_caps: jbool(j, "bypass_caps"),
        },
        "invoke_abort" => Event::InvokeAbort {
            thread: ThreadId(uint32(j, "thread")?),
            target: ComponentId(uint32(j, "target")?),
        },
        "invoke_finish" => Event::InvokeFinish {
            thread: ThreadId(uint32(j, "thread")?),
            target: ComponentId(uint32(j, "target")?),
            ok: jbool(j, "ok"),
        },
        "charge_upcall" => Event::ChargeUpcall {
            server: ComponentId(uint32(j, "server")?),
            thread: ThreadId(uint32(j, "thread")?),
        },
        "note_upcall" => Event::NoteUpcall,
        "micro_reboot" => Event::MicroReboot {
            component: ComponentId(uint32(j, "component")?),
        },
        "cold_restart" => Event::ColdRestart {
            component: ComponentId(uint32(j, "component")?),
        },
        "mark_degraded" => Event::MarkDegraded {
            component: ComponentId(uint32(j, "component")?),
            until: SimTime(uint(j, "until")?),
        },
        other => return Err(format!("unknown event tag {other:?}")),
    })
}

/// Serialize a [`SysOp`] (system-walk counterexample artifacts).
#[must_use]
pub fn sysop_to_json(op: &SysOp) -> Json {
    let mut j = Json::object();
    match *op {
        SysOp::Iteration { iface, seq } => {
            j.push("op", "iteration")
                .push("iface", SERVICES[iface])
                .push("seq", seq);
        }
        SysOp::Fault { iface } => {
            j.push("op", "fault").push("iface", SERVICES[iface]);
        }
        SysOp::ArmNestedFault { iface } => {
            j.push("op", "arm_nested_fault")
                .push("iface", SERVICES[iface]);
        }
        SysOp::Advance { dt } => {
            j.push("op", "advance").push("dt", dt);
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{run_check, CheckConfig};

    #[test]
    fn event_json_round_trips() {
        let events = [
            Event::AddComponent { has_service: true },
            Event::AddThread {
                home: ComponentId(1),
                priority: Priority(5),
            },
            Event::Grant {
                client: ComponentId(1),
                server: ComponentId(2),
            },
            Event::SetCosts(CostModel::paper_defaults()),
            Event::SetEscalation(EscalationPolicy::storm_defaults()),
            Event::SetWatchdogBudget(16),
            Event::Charge(SimTime(123)),
            Event::AdvanceTo(SimTime(9_999)),
            Event::BlockThread {
                thread: ThreadId(2),
                in_component: ComponentId(3),
            },
            Event::SleepThread {
                thread: ThreadId(2),
                until: SimTime(77),
            },
            Event::WakeThread {
                thread: ThreadId(2),
            },
            Event::BeginRecovery {
                component: ComponentId(4),
            },
            Event::EndRecovery {
                component: ComponentId(4),
            },
            Event::ArmRecoveryFault {
                victim: ComponentId(5),
            },
            Event::DisarmRecoveryFault,
            Event::Fault {
                component: ComponentId(2),
            },
            Event::WatchdogExpire {
                component: ComponentId(2),
                thread: ThreadId(1),
            },
            Event::InvokeAdmit {
                client: ComponentId(1),
                thread: ThreadId(1),
                target: ComponentId(2),
                bypass_caps: true,
            },
            Event::InvokeAbort {
                thread: ThreadId(1),
                target: ComponentId(2),
            },
            Event::InvokeFinish {
                thread: ThreadId(1),
                target: ComponentId(2),
                ok: false,
            },
            Event::ChargeUpcall {
                server: ComponentId(2),
                thread: ThreadId(1),
            },
            Event::NoteUpcall,
            Event::MicroReboot {
                component: ComponentId(2),
            },
            Event::ColdRestart {
                component: ComponentId(2),
            },
            Event::MarkDegraded {
                component: ComponentId(2),
                until: SimTime(1_000_000),
            },
        ];
        for ev in &events {
            let line = event_to_json(ev).to_line();
            let parsed = Json::parse(&line).expect("parses");
            assert_eq!(&event_from_json(&parsed).expect("decodes"), ev, "{line}");
        }
    }

    #[test]
    fn short_system_walk_holds_all_invariants() {
        let mut walk = SystemWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: 0xC3_5EED,
                steps: 120,
                max_shrink_iters: 200,
            },
        );
        assert!(
            report.passed(),
            "system walk violated an invariant: {:?}",
            report.counterexample.map(|c| (c.violation, c.events))
        );
        let trace_violations = walk.finish();
        assert!(trace_violations.is_empty(), "{trace_violations:?}");
    }

    #[test]
    fn short_elide_diff_walk_is_observationally_identical() {
        let mut walk = ElideDiffWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: 0xE11D_E5EED,
                steps: 100,
                max_shrink_iters: 200,
            },
        );
        assert!(
            report.passed(),
            "elided run diverged from fully tracked run: {:?}",
            report.counterexample.map(|c| (c.violation, c.events))
        );
        let trace_violations = walk.finish();
        assert!(trace_violations.is_empty(), "{trace_violations:?}");
    }

    #[test]
    fn elide_diff_walk_traces_match_after_a_faulty_sweep() {
        // Deterministic fault-heavy sweep: every service faults, then
        // runs an iteration; the elided interpreter must shadow the
        // tracked one event for event.
        let mut walk = ElideDiffWalk::new();
        Model::reset(&mut walk);
        for iface in 0..SERVICES.len() {
            walk.apply(&SysOp::Fault { iface }).unwrap();
            walk.apply(&SysOp::Iteration {
                iface,
                seq: iface as u64 + 1,
            })
            .unwrap();
        }
        let violations = walk.finish();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn elide_diff_walk_compares_kernel_counters() {
        // The runtimes count mechanism firings only in the kernel
        // counters, so one extra firing on one side must diverge.
        let mut walk = ElideDiffWalk::new();
        Model::reset(&mut walk);
        let (lock, t) = (walk.elided.component_of("lock"), walk.elided.thread);
        let k = walk.elided.tb.runtime.kernel_mut();
        k.record_mechanism(lock, composite::Mechanism::R0, 1, t, SimTime::ZERO);
        let v = walk.apply(&SysOp::Advance { dt: 1 }).unwrap_err();
        assert!(v.detail.starts_with("kernel counters diverged"), "{v:?}");
    }

    #[test]
    fn mechanism_counts_agree_after_a_faulty_walk() {
        // Deterministic, fault-heavy mini-walk: agreement must hold with
        // real recovery traffic in the trace, not just on the empty walk.
        let mut walk = SystemWalk::new();
        Model::reset(&mut walk);
        for iface in 0..SERVICES.len() {
            walk.apply(&SysOp::Fault { iface }).unwrap();
            walk.apply(&SysOp::Iteration {
                iface,
                seq: iface as u64 + 1,
            })
            .unwrap();
        }
        let violations = walk.finish();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
