//! The fault-injection campaign (§V-D, Table II).
//!
//! For each target service, the §V-B workload runs continuously on the
//! full assembled system while faults are injected one at a time:
//! a random bit of a random register of the thread invoking the target
//! is flipped, the invocation's μ-program consumes (or kills, or
//! ignores) the taint, and the mechanistic consequence plays out through
//! the real recovery machinery. Successful recovery is judged by the
//! paper's criterion: "continued execution that abides by the target
//! component and workload specifications post-recovery."
//!
//! The paper paces injections one per second of wall time; the
//! simulation instead separates injections by a settle window of
//! executor steps (long enough for recovery to complete and the workload
//! to demonstrate correct progress), which preserves the at-most-one-
//! live-fault property the Poisson argument of §V-A establishes.

use std::fmt;

use composite::{
    mix, parallel_map_indexed, CallError, ComponentId, EscalationPolicy, Executor, InterfaceCall,
    Kernel, KernelAccess, MetricsSnapshot, Priority, RunExit, SeriesSnapshot, SimTime, ThreadId,
    ThreadState, TraceShard, Value, DEFAULT_TRACE_CAPACITY,
};
use sg_services::api::ClientEnd;
use sg_services::workloads::{
    shared_desc, EventTrigger, EventWaiter, FsOpenWriteRead, LockContender, LockOwner,
    MmGrantAliasRevoke, SchedPingPong, TimerPeriodic,
};
use superglue::testbed::{Testbed, Variant};

use crate::inject::Injector;
use crate::outcome::{CampaignRow, Outcome};
use crate::program::program_for;
use crate::simcpu::{classify_execution, ExecEvent};

/// How faults are scheduled within a campaign: the classic one-at-a-time
/// Table II regime, or one of the correlated-fault regimes of Table II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignMode {
    /// One independent flip at a time, fully settled before the next
    /// (the paper's Table II regime).
    #[default]
    Single,
    /// `flips` back-to-back flips inside one settle window; each burst
    /// counts as a single injection.
    Burst {
        /// Bit flips per burst (must be nonzero).
        flips: u32,
    },
    /// Each primary flip arms a second fault in the *same* component
    /// that fires the moment its recovery begins (gated on an active
    /// recovery episode), exercising nested recovery.
    DuringRecovery,
    /// Each primary flip arms a second fault in a *different* component
    /// that fires the moment the primary's recovery begins,
    /// exercising cross-component fault cascades.
    Cascade,
}

/// A [`CampaignConfig`] that cannot produce a meaningful campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `injections` was zero: the campaign would inject nothing.
    ZeroInjections,
    /// `fault_mask` was zero: no bit would ever be injectable.
    ZeroFaultMask,
    /// `Burst { flips: 0 }`: a burst must contain at least one flip.
    ZeroBurst,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::ZeroInjections => "campaign config: injections must be nonzero",
            ConfigError::ZeroFaultMask => "campaign config: fault mask must have at least one bit",
            ConfigError::ZeroBurst => "campaign config: burst mode needs at least one flip",
        })
    }
}

impl std::error::Error for ConfigError {}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Which protection variant to exercise.
    pub variant: Variant,
    /// Faults to inject per target component (the paper uses 500).
    pub injections: u64,
    /// RNG seed (printed by harnesses for reproducibility).
    pub seed: u64,
    /// Executor steps granted for recovery + workload progress before an
    /// activated fault is judged.
    pub settle_steps: u64,
    /// Calls a latent flip may survive unconsumed before it is declared
    /// undetected.
    pub latent_call_cap: u32,
    /// The 32-bit fault mask (§V-A): only bits set here are injectable.
    /// The paper's campaigns use `0xFFFF_FFFF`.
    pub fault_mask: u32,
    /// Record a flight-recorder trace of every shard (off by default;
    /// enabled by the harnesses' `--trace` flag).
    pub trace: bool,
    /// Windowed-telemetry window width in simulated nanoseconds; 0 (the
    /// default) disables the series. Enabled by the harnesses'
    /// `--series` flag.
    pub series_window_ns: u64,
    /// Fault-scheduling regime (single / burst / during-recovery /
    /// cascade). Non-[`CampaignMode::Single`] modes also arm the
    /// kernel's reboot-storm escalation.
    pub mode: CampaignMode,
    /// Interpret the certified-elision stub specs (`--elide`). Outcomes
    /// and traces must be byte-identical to the fully tracked run; only
    /// proven-dead bookkeeping is skipped. No-op for non-SuperGlue
    /// variants.
    pub elide: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            variant: Variant::SuperGlue,
            injections: 500,
            seed: 0xC3C3_5EED,
            settle_steps: 700,
            latent_call_cap: 48,
            fault_mask: 0xFFFF_FFFF,
            trace: false,
            series_window_ns: 0,
            mode: CampaignMode::Single,
            elide: false,
        }
    }
}

impl CampaignConfig {
    /// Reject configurations that would silently do nothing: zero
    /// injections, an empty fault mask, or an empty burst.
    ///
    /// # Errors
    ///
    /// The corresponding [`ConfigError`] variant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.injections == 0 {
            return Err(ConfigError::ZeroInjections);
        }
        if self.fault_mask == 0 {
            return Err(ConfigError::ZeroFaultMask);
        }
        if matches!(self.mode, CampaignMode::Burst { flips: 0 }) {
            return Err(ConfigError::ZeroBurst);
        }
        Ok(())
    }
}

/// How one injection resolved inside the interposer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Classified {
    /// Outcome fully determined (no settle window needed).
    Final(Outcome),
    /// Activated and detected; judge recovery after the settle window.
    NeedsSettle,
}

/// The campaign context: the full system plus the injection interposer
/// on calls into the target component.
struct CampaignCtx {
    tb: Testbed,
    target: ComponentId,
    target_iface: &'static str,
    /// Armed flip, applied to the next thread invoking the target.
    armed: Option<(usize, u32)>,
    /// Applied flip not yet consumed: (thread, bit, calls survived).
    latent: Option<(ThreadId, u32, u32)>,
    latent_call_cap: u32,
    /// Private state corrupted; the next target invocation detects it.
    corrupt: bool,
    /// Classification of the current injection, once known.
    classified: Option<Classified>,
    /// A segfault/propagation took the whole system down.
    system_down: bool,
    /// Correlated-fault victim: armed as a during-recovery fault every
    /// time the primary injection faults the target (`DuringRecovery`
    /// arms the target itself; `Cascade` arms a second component).
    recovery_victim: Option<ComponentId>,
}

impl KernelAccess for CampaignCtx {
    fn kernel(&self) -> &Kernel {
        self.tb.runtime.kernel()
    }
    fn kernel_mut(&mut self) -> &mut Kernel {
        self.tb.runtime.kernel_mut()
    }
}

impl InterfaceCall for CampaignCtx {
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        if self.system_down {
            return Err(CallError::Fault { component: server });
        }
        if server == self.target {
            // Deferred assertion: corrupted private state is detected by
            // the next invocation's consistency checks (fail-stop).
            if self.corrupt {
                self.corrupt = false;
                self.tb.runtime.inject_fault(server);
                self.arm_correlated();
            }
            // Apply an armed flip to the invoking thread's registers.
            if let Some((reg, bit)) = self.armed.take() {
                if let Ok(th) = self.tb.runtime.kernel_mut().thread_mut(thread) {
                    th.registers.flip_bit(reg, bit);
                }
                self.latent = Some((thread, bit, 0));
            }
            // Execute the invocation's μ-program against the thread's
            // registers, consuming live taint mechanistically.
            if let Some((t, bit, calls)) = self.latent {
                if t == thread {
                    let program = program_for(self.target_iface);
                    let ev = {
                        let th = self
                            .tb
                            .runtime
                            .kernel_mut()
                            .thread_mut(thread)
                            .expect("workload thread exists");
                        classify_execution(&mut th.registers, program, bit)
                    };
                    match ev {
                        ExecEvent::Latent => {
                            if calls + 1 >= self.latent_call_cap {
                                self.clear_taint(t);
                                self.classified = Some(Classified::Final(Outcome::Undetected));
                            } else {
                                self.latent = Some((t, bit, calls + 1));
                            }
                        }
                        ExecEvent::Overwritten => {
                            self.latent = None;
                            self.classified = Some(Classified::Final(Outcome::Undetected));
                        }
                        ExecEvent::ValueCorruption | ExecEvent::WildAccess => {
                            self.clear_taint(t);
                            self.corrupt = true;
                            self.classified = Some(Classified::NeedsSettle);
                        }
                        ExecEvent::AccessException => {
                            self.clear_taint(t);
                            self.tb.runtime.inject_fault(server);
                            self.arm_correlated();
                            self.classified = Some(Classified::NeedsSettle);
                        }
                        ExecEvent::Propagation => {
                            self.clear_taint(t);
                            self.system_down = true;
                            self.classified = Some(Classified::Final(Outcome::Propagated));
                            return Err(CallError::Fault { component: server });
                        }
                        ExecEvent::StackSegfault => {
                            self.clear_taint(t);
                            self.system_down = true;
                            self.classified = Some(Classified::Final(Outcome::Segfault));
                            return Err(CallError::Fault { component: server });
                        }
                        ExecEvent::Hang => {
                            // Loop-counter corruption livelocks the call.
                            // The kernel watchdog detects the hang and
                            // converts it into a fail-stop fault, after
                            // which the ordinary recovery machinery (and
                            // the settle-window judgment) runs.
                            self.clear_taint(t);
                            self.tb.runtime.kernel_mut().watchdog_expire(server, thread);
                            self.arm_correlated();
                            self.classified = Some(Classified::NeedsSettle);
                        }
                    }
                }
            }
        }
        self.tb
            .runtime
            .interface_call(client, thread, server, fname, args)
    }
}

impl CampaignCtx {
    fn clear_taint(&mut self, t: ThreadId) {
        self.latent = None;
        if let Ok(th) = self.tb.runtime.kernel_mut().thread_mut(t) {
            th.registers.clear_taint();
        }
    }

    /// Arm the correlated second fault (if this campaign mode has one)
    /// so it fires the moment the primary fault's recovery begins.
    fn arm_correlated(&mut self) {
        if let Some(v) = self.recovery_victim {
            self.tb.runtime.kernel_mut().arm_fault_during_recovery(v);
        }
    }
}

/// The per-target workload rig: threads + attached §V-B workloads.
fn attach_target_workload(
    tb: &mut Testbed,
    ex: &mut Executor<CampaignCtx>,
    iface: &'static str,
) -> Vec<ThreadId> {
    const ROUNDS: u32 = u32::MAX / 2;
    let ids = tb.ids;
    match iface {
        "sched" => {
            let t1 = tb.spawn_thread(ids.app1, Priority(5));
            let t2 = tb.spawn_thread(ids.app1, Priority(5));
            ex.attach(
                t1,
                Box::new(SchedPingPong::new(
                    ClientEnd::new(ids.app1, t1, ids.sched),
                    t2,
                    ROUNDS,
                    true,
                )),
            );
            ex.attach(
                t2,
                Box::new(SchedPingPong::new(
                    ClientEnd::new(ids.app1, t2, ids.sched),
                    t1,
                    ROUNDS,
                    false,
                )),
            );
            vec![t1, t2]
        }
        "lock" => {
            let t1 = tb.spawn_thread(ids.app1, Priority(5));
            let t2 = tb.spawn_thread(ids.app1, Priority(5));
            let shared = shared_desc();
            ex.attach(
                t1,
                Box::new(LockOwner::new(
                    ClientEnd::new(ids.app1, t1, ids.lock),
                    shared.clone(),
                    ROUNDS,
                    1,
                )),
            );
            ex.attach(
                t2,
                Box::new(LockContender::new(
                    ClientEnd::new(ids.app1, t2, ids.lock),
                    shared,
                    ROUNDS,
                )),
            );
            vec![t1, t2]
        }
        "evt" => {
            let t1 = tb.spawn_thread(ids.app1, Priority(5));
            let t2 = tb.spawn_thread(ids.app2, Priority(5));
            let shared = shared_desc();
            ex.attach(
                t1,
                Box::new(EventWaiter::new(
                    ClientEnd::new(ids.app1, t1, ids.evt),
                    shared.clone(),
                    ROUNDS,
                )),
            );
            ex.attach(
                t2,
                Box::new(EventTrigger::new(
                    ClientEnd::new(ids.app2, t2, ids.evt),
                    shared,
                    ROUNDS,
                )),
            );
            vec![t1, t2]
        }
        "tmr" => {
            let t = tb.spawn_thread(ids.app1, Priority(5));
            ex.attach(
                t,
                Box::new(TimerPeriodic::new(
                    ClientEnd::new(ids.app1, t, ids.tmr),
                    50_000,
                    ROUNDS,
                )),
            );
            vec![t]
        }
        "mm" => {
            let t = tb.spawn_thread(ids.app1, Priority(5));
            ex.attach(
                t,
                Box::new(MmGrantAliasRevoke::new(
                    ClientEnd::new(ids.app1, t, ids.mm),
                    ids.app2,
                    ROUNDS,
                )),
            );
            vec![t]
        }
        "fs" => {
            let t = tb.spawn_thread(ids.app1, Priority(5));
            ex.attach(
                t,
                Box::new(FsOpenWriteRead::new(
                    ClientEnd::new(ids.app1, t, ids.fs),
                    ROUNDS,
                )),
            );
            vec![t]
        }
        other => panic!("unknown campaign target {other:?}"),
    }
}

fn target_component(tb: &Testbed, iface: &str) -> ComponentId {
    match iface {
        "sched" => tb.ids.sched,
        "mm" => tb.ids.mm,
        "fs" => tb.ids.fs,
        "lock" => tb.ids.lock,
        "evt" => tb.ids.evt,
        "tmr" => tb.ids.tmr,
        other => panic!("unknown campaign target {other:?}"),
    }
}

/// The paper's row label for an interface.
#[must_use]
pub fn row_label(iface: &str) -> &'static str {
    match iface {
        "sched" => "Sched",
        "mm" => "MM",
        "fs" => "FS",
        "lock" => "Lock",
        "evt" => "Event",
        "tmr" => "Timer",
        _ => "?",
    }
}

/// Injections per shard of a sharded campaign. The shard plan is a
/// function of the configured injection count **only** — never of the
/// worker-thread count — so the injection streams (and therefore the
/// merged tallies) are bit-identical for any `--jobs` value.
pub const SHARD_INJECTIONS: u64 = 25;

/// The shard plan for a campaign of `injections` faults: each entry is
/// one shard's injection quota.
#[must_use]
pub fn shard_sizes(injections: u64) -> Vec<u64> {
    let full = injections / SHARD_INJECTIONS;
    let rem = injections % SHARD_INJECTIONS;
    let mut sizes = vec![SHARD_INJECTIONS; full as usize];
    if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

/// One shard's (or one merged campaign's) result: the Table II tallies
/// plus the recovery-observability metrics accumulated across every
/// machine (re)boot the shard performed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignResult {
    pub row: CampaignRow,
    pub metrics: MetricsSnapshot,
    /// Flight-recorder shards (one per campaign shard, in shard order;
    /// empty unless [`CampaignConfig::trace`] is set).
    pub trace: Vec<TraceShard>,
    /// Windowed telemetry accumulated across every machine (re)boot the
    /// shard performed (empty unless
    /// [`CampaignConfig::series_window_ns`] is nonzero).
    pub series: SeriesSnapshot,
}

/// Run one shard of the campaign against `iface`.
///
/// The shard's injector stream is seeded `mix(seed ^ fxhash(iface),
/// shard)` — the `hash(campaign_seed, shard_index)` derivation — so the
/// shard never observes which worker ran it or what ran before it.
///
/// # Panics
///
/// Panics if `iface` is not one of the six target interfaces or the
/// testbed fails to build (shipped IDL is validated by tests).
#[must_use]
pub fn run_shard(iface: &'static str, cfg: &CampaignConfig, shard: usize) -> CampaignResult {
    cfg.validate().expect("campaign config is valid");
    let quota = *shard_sizes(cfg.injections)
        .get(shard)
        .expect("shard index within plan");
    let mut row = CampaignRow::new(row_label(iface));
    let mut metrics = MetricsSnapshot::default();
    let mut series = SeriesSnapshot::default();
    let vname = cfg.variant.slug();
    let mut trace = TraceShard::labeled(&format!("table2/{iface}/{vname}/shard{shard}"));
    let mut injector =
        Injector::with_mask(mix(cfg.seed ^ fxhash(iface), shard as u64), cfg.fault_mask);

    'reboot: while row.injected < quota {
        // (Re)boot the machine: fresh system + workloads.
        let mut tb = Testbed::build_elided(cfg.variant, cfg.elide).expect("testbed builds");
        if cfg.trace {
            tb.runtime
                .kernel_mut()
                .enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
        if cfg.series_window_ns > 0 {
            tb.runtime
                .kernel_mut()
                .enable_telemetry(SimTime(cfg.series_window_ns));
        }
        if cfg.mode != CampaignMode::Single {
            // Correlated regimes also arm reboot-storm escalation so
            // repeated reboots degrade gracefully instead of thrashing.
            tb.runtime
                .kernel_mut()
                .set_escalation(EscalationPolicy::storm_defaults());
        }
        let target = target_component(&tb, iface);
        let recovery_victim = match cfg.mode {
            CampaignMode::DuringRecovery => Some(target),
            CampaignMode::Cascade => Some(target_component(&tb, cascade_partner(iface))),
            CampaignMode::Single | CampaignMode::Burst { .. } => None,
        };
        let mut ctx = CampaignCtx {
            tb,
            target,
            target_iface: iface,
            armed: None,
            latent: None,
            latent_call_cap: cfg.latent_call_cap,
            corrupt: false,
            classified: None,
            system_down: false,
            recovery_victim,
        };
        let mut ex: Executor<CampaignCtx> = Executor::new();
        let threads = attach_target_workload(&mut ctx.tb, &mut ex, iface);

        // Warm up so descriptors exist before the first injection.
        ex.run(&mut ctx, 40);

        while row.injected < quota {
            let flips = match cfg.mode {
                CampaignMode::Burst { flips } => flips,
                _ => 1,
            };
            let wd_before = ctx.kernel().counters().total(|r| r.watchdog_fires);
            let nested_before = ctx.kernel().counters().total(|r| r.nested_faults)
                + ctx.tb.runtime.stats().nested_recoveries;
            let mut needs_settle = false;
            let mut finals: Option<Outcome> = None;
            let mut wedged = false;

            // Arm the injection's flip(s) and run until each classifies.
            // A burst arms its flips back to back, all inside the one
            // settle window that follows.
            'flips: for _ in 0..flips {
                ctx.classified = None;
                ctx.armed = Some(injector.choose());
                let mut windows = 0;
                while ctx.classified.is_none() {
                    let exit = ex.run(&mut ctx, 64);
                    windows += 1;
                    if ctx.classified.is_some() {
                        break;
                    }
                    if exit != RunExit::StepLimit || windows > 4_000 {
                        // Workloads ended or wedged before the flip
                        // resolved: treat an armed-but-unapplied flip as
                        // undetected and reboot.
                        wedged = true;
                        break 'flips;
                    }
                }
                match ctx.classified.take() {
                    Some(Classified::Final(o)) => {
                        finals = Some(merge_outcomes(finals, o));
                        if ctx.system_down {
                            break 'flips;
                        }
                    }
                    Some(Classified::NeedsSettle) => needs_settle = true,
                    None => {}
                }
            }

            let outcome = if wedged {
                // The workloads stopped before the flip(s) resolved.
                // Under the correlated regimes that usually means the
                // target went degraded and clients failed fast; judge
                // that as graceful degradation, an activated fault that
                // reached the settle machinery as a recovery failure,
                // and only a genuinely unapplied flip as undetected.
                if ctx.kernel().is_degraded(target) {
                    Outcome::Degraded
                } else if needs_settle || finals.is_some() {
                    Outcome::Other
                } else {
                    Outcome::Undetected
                }
            } else if ctx.system_down {
                finals.expect("system-down implies a final classification")
            } else if needs_settle {
                let before_unrecovered = ctx.tb.runtime.stats().unrecovered;
                ex.run(&mut ctx, cfg.settle_steps);
                let crashed = threads.iter().any(|&t| {
                    ctx.tb.runtime.kernel().thread(t).map(|th| th.state) == Ok(ThreadState::Crashed)
                });
                if ctx.kernel().is_degraded(target) {
                    Outcome::Degraded
                } else if crashed || ctx.tb.runtime.stats().unrecovered > before_unrecovered {
                    Outcome::Other
                } else {
                    Outcome::Recovered
                }
            } else {
                finals.unwrap_or(Outcome::Undetected)
            };
            // An armed correlated fault whose trigger never came dies
            // with its injection.
            ctx.kernel_mut().disarm_recovery_fault();
            row.record(outcome);
            if ctx.kernel().counters().total(|r| r.watchdog_fires) > wd_before {
                row.watchdog_detected += 1;
            }
            let nested_now = ctx.kernel().counters().total(|r| r.nested_faults)
                + ctx.tb.runtime.stats().nested_recoveries;
            if nested_now > nested_before && outcome == Outcome::Recovered {
                row.nested_recovered += 1;
            }
            if wedged || ctx.system_down || matches!(outcome, Outcome::Other | Outcome::Degraded) {
                // Segfault/propagation, failed recovery, or a degraded
                // target: the paper reboots the machine before
                // continuing (degradation awaits the booter's cold
                // restart, which the fresh boot embodies).
                metrics.merge(&MetricsSnapshot::from_kernel(ctx.tb.runtime.kernel()));
                series.merge(&SeriesSnapshot::from_kernel(ctx.tb.runtime.kernel()));
                drain_trace(&mut trace, &mut ctx);
                continue 'reboot;
            }
        }
        metrics.merge(&MetricsSnapshot::from_kernel(ctx.tb.runtime.kernel()));
        series.merge(&SeriesSnapshot::from_kernel(ctx.tb.runtime.kernel()));
        drain_trace(&mut trace, &mut ctx);
        break;
    }
    let trace = if cfg.trace { vec![trace] } else { Vec::new() };
    CampaignResult {
        row,
        metrics,
        trace,
        series,
    }
}

/// Fold one machine boot's flight-recorder buffer into the shard's
/// trace, renumbering spans so episodes from successive reboots stay
/// distinct. A no-op when tracing is disabled.
fn drain_trace(trace: &mut TraceShard, ctx: &mut CampaignCtx) {
    let kernel = ctx.tb.runtime.kernel_mut();
    if kernel.tracing_enabled() {
        let label = trace.label.clone();
        trace.absorb(kernel.take_trace(&label));
    }
}

/// The second component a [`CampaignMode::Cascade`] campaign faults:
/// deterministically the next protected service after the target.
#[must_use]
pub fn cascade_partner(iface: &str) -> &'static str {
    const TARGETS: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];
    let i = TARGETS.iter().position(|&t| t == iface).unwrap_or(0);
    TARGETS[(i + 1) % TARGETS.len()]
}

/// Fold one flip's final classification into the burst's: the most
/// severe classification wins.
fn merge_outcomes(acc: Option<Outcome>, next: Outcome) -> Outcome {
    fn rank(o: Outcome) -> u8 {
        match o {
            Outcome::Segfault => 5,
            Outcome::Propagated => 4,
            Outcome::Other => 3,
            Outcome::Degraded => 2,
            Outcome::Recovered => 1,
            Outcome::Undetected => 0,
        }
    }
    match acc {
        Some(a) if rank(a) >= rank(next) => a,
        _ => next,
    }
}

/// Run the full campaign against one target service, sharded across up
/// to `jobs` worker threads. Shard results are merged in shard-index
/// order, so the output is bit-identical for every `jobs >= 1`.
///
/// # Panics
///
/// As for [`run_shard`].
#[must_use]
pub fn run_campaign_parallel(
    iface: &'static str,
    cfg: &CampaignConfig,
    jobs: usize,
) -> CampaignResult {
    let shards = shard_sizes(cfg.injections).len();
    let results = parallel_map_indexed(shards, jobs, |i| run_shard(iface, cfg, i));
    merge_shards(iface, results.iter())
}

/// [`run_campaign_parallel`] with the configuration validated up front.
///
/// # Errors
///
/// [`ConfigError`] when the configuration would silently do nothing
/// (zero injections, empty fault mask, empty burst).
pub fn try_run_campaign_parallel(
    iface: &'static str,
    cfg: &CampaignConfig,
    jobs: usize,
) -> Result<CampaignResult, ConfigError> {
    cfg.validate()?;
    Ok(run_campaign_parallel(iface, cfg, jobs))
}

/// Merge shard results (in the given order) into one campaign result.
pub fn merge_shards<'a>(
    iface: &str,
    shards: impl Iterator<Item = &'a CampaignResult>,
) -> CampaignResult {
    let mut out = CampaignResult {
        row: CampaignRow::new(row_label(iface)),
        metrics: MetricsSnapshot::default(),
        trace: Vec::new(),
        series: SeriesSnapshot::default(),
    };
    for s in shards {
        out.row.merge(&s.row);
        out.metrics.merge(&s.metrics);
        out.trace.extend(s.trace.iter().cloned());
        out.series.merge(&s.series);
    }
    out
}

/// Run the fault-injection campaign against one target service on the
/// calling thread. Equivalent to [`run_campaign_parallel`] with
/// `jobs = 1`, kept as the simple entry point for tests and examples.
///
/// # Panics
///
/// As for [`run_shard`].
#[must_use]
pub fn run_campaign(iface: &'static str, cfg: &CampaignConfig) -> CampaignRow {
    run_campaign_parallel(iface, cfg, 1).row
}

fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(variant: Variant) -> CampaignConfig {
        CampaignConfig {
            variant,
            injections: 60,
            seed: 7,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn lock_campaign_mostly_recovers_under_superglue() {
        let row = run_campaign("lock", &quick_cfg(Variant::SuperGlue));
        assert_eq!(row.injected, 60);
        assert!(
            row.activation_ratio() > 0.7,
            "activation {:.2}",
            row.activation_ratio()
        );
        assert!(
            row.success_rate() > 0.7,
            "success {:.2} ({row:?})",
            row.success_rate()
        );
    }

    #[test]
    fn sched_campaign_has_segfaults() {
        let row = run_campaign("sched", &quick_cfg(Variant::SuperGlue));
        assert!(
            row.segfault > 0,
            "sched is the segfault-heavy target: {row:?}"
        );
    }

    #[test]
    fn fs_campaign_recovers_under_c3_too() {
        let row = run_campaign("fs", &quick_cfg(Variant::C3));
        assert_eq!(row.injected, 60);
        assert!(row.success_rate() > 0.6, "{row:?}");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign("tmr", &quick_cfg(Variant::SuperGlue));
        let b = run_campaign("tmr", &quick_cfg(Variant::SuperGlue));
        assert_eq!(a, b);
    }

    #[test]
    fn mm_and_evt_campaigns_run() {
        for iface in ["mm", "evt"] {
            let row = run_campaign(iface, &quick_cfg(Variant::SuperGlue));
            assert_eq!(row.injected, 60, "{iface}");
            assert!(row.recovered > 0, "{iface}: {row:?}");
        }
    }
}
