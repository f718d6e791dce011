//! The pipeline fault-injection campaign (the streaming macro-benchmark
//! counterpart of Table II).
//!
//! Where the classic campaign flips register bits inside request/response
//! services, the pipeline campaign aims faults at the *channel* layer of
//! the Generator → Worker → Logger pipeline, timed to land in the
//! windows the peek-before-commit protocol must survive:
//!
//! * **mid-peek** — the channel faults while a consumer's `chan_peek`
//!   is in flight: a message has been handed out but no cursor moved;
//! * **pre-commit** — the channel faults on the consumer's
//!   `chan_commit`, after the message was processed but before the
//!   cursor advance lands: the classic duplicate-risk window;
//! * **during-recovery** — a second fault fires the moment the first
//!   fault's recovery begins, exercising nested channel recovery.
//!
//! Recovery is judged by the pipeline's own specification: the
//! committed-output log of the faulted run must be **byte-identical** to
//! the closed-form fault-free log (no loss, no duplication), with zero
//! unrecovered faults. A *showstopper sub-campaign* additionally poisons
//! every `poison_every`-th job and proves dead-letter routing caps the
//! reboot count at exactly `poison_limit` micro-reboots per poisoned
//! message — escalation instead of a reboot storm.
//!
//! Every campaign unit (phase × repetition, plus each showstopper
//! repetition) is an independent deterministic run, merged in unit
//! order, so the rows are bit-identical for any `--jobs` worker count.

use composite::{
    mix, parallel_map_indexed, CallError, ComponentId, Executor, InterfaceCall, Kernel,
    KernelAccess, Mechanism, MetricsSnapshot, RunExit, SeriesSnapshot, SimTime, ThreadId,
    TraceShard, Value,
};
use sg_pipeline::{build_pipeline, expected_output, PipelineConfig, PipelineVariant};

use crate::campaign::seed_salt;
use crate::outcome::{CampaignRow, Outcome};

/// The injection window a pipeline campaign phase targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinePhase {
    /// Fault the channel while a `chan_peek` is in flight.
    MidPeek,
    /// Fault the channel on a `chan_commit`, before the cursor lands.
    PreCommit,
    /// Fault on a peek *and* arm a second fault that fires the moment
    /// the first fault's recovery begins (nested recovery).
    DuringRecovery,
}

impl PipelinePhase {
    /// All phases, in row order.
    pub const ALL: [PipelinePhase; 3] = [
        PipelinePhase::MidPeek,
        PipelinePhase::PreCommit,
        PipelinePhase::DuringRecovery,
    ];

    /// The row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PipelinePhase::MidPeek => "Peek",
            PipelinePhase::PreCommit => "Commit",
            PipelinePhase::DuringRecovery => "Nested",
        }
    }

    /// The channel function whose Nth arrival triggers the injection.
    fn trigger_fn(self) -> &'static str {
        match self {
            PipelinePhase::MidPeek | PipelinePhase::DuringRecovery => "chan_peek",
            PipelinePhase::PreCommit => "chan_commit",
        }
    }
}

/// Pipeline campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct PipelineCampaignConfig {
    /// Injections per phase (one per repetition).
    pub injections: u64,
    /// Showstopper repetitions (each a full poisoned pipeline run).
    pub showstoppers: u64,
    /// Every `poison_every`-th job of a showstopper run is poisoned.
    pub poison_every: u64,
    /// Campaign seed: derives each unit's injection trigger point.
    pub seed: u64,
    /// The per-repetition pipeline (jobs, capacity, dead-letter K, …).
    /// `poison_every`/`trace`/`series_window` are overridden per unit.
    pub pipeline: PipelineConfig,
    /// Record a flight-recorder trace of every unit.
    pub trace: bool,
    /// Windowed-telemetry window width in simulated nanoseconds
    /// (0 = off).
    pub series_window_ns: u64,
}

impl Default for PipelineCampaignConfig {
    fn default() -> Self {
        Self {
            injections: 12,
            showstoppers: 4,
            poison_every: 40,
            seed: 0x51BE_11AE,
            pipeline: PipelineConfig {
                jobs: 160,
                duration: SimTime::from_secs(30),
                ..PipelineConfig::default()
            },
            trace: false,
            series_window_ns: 0,
        }
    }
}

/// The showstopper sub-campaign's verdict: dead-letter routing must cap
/// the reboot count at exactly `poison_limit` micro-reboots per
/// poisoned message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShowstopperReport {
    /// Table II-style tallies (label `DeadLtr`); a repetition counts as
    /// recovered only when every poisoned job dead-lettered, every
    /// clean job was delivered exactly once, and the reboot count hit
    /// the cap exactly.
    pub row: CampaignRow,
    /// Messages routed to the dead-letter queue across all repetitions.
    pub dead_letters: u64,
    /// Micro-reboots the poisoned messages actually caused.
    pub reboots: u64,
    /// The cap: `Σ poison_count × poison_limit` over the repetitions.
    pub reboot_cap: u64,
}

impl ShowstopperReport {
    /// One-line rendering of the reboot-cap proof.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "showstoppers: {} dead-lettered, {} reboots (cap {}) — {}",
            self.dead_letters,
            self.reboots,
            self.reboot_cap,
            if self.reboots == self.reboot_cap && self.row.recovered == self.row.injected {
                "dead-letter escalation capped the reboot count"
            } else {
                "CAP VIOLATED"
            }
        )
    }
}

/// The merged pipeline campaign result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineCampaignResult {
    /// One row per [`PipelinePhase`], in [`PipelinePhase::ALL`] order.
    pub phases: Vec<CampaignRow>,
    /// The showstopper sub-campaign verdict.
    pub showstopper: ShowstopperReport,
    /// Recovery-observability counters merged across every unit.
    pub metrics: MetricsSnapshot,
    /// Windowed telemetry merged across every unit (empty unless
    /// [`PipelineCampaignConfig::series_window_ns`] is nonzero).
    pub series: SeriesSnapshot,
    /// Flight-recorder shards, one per unit in unit order (empty unless
    /// [`PipelineCampaignConfig::trace`] is set).
    pub trace: Vec<TraceShard>,
}

/// One campaign unit's result (internal).
#[derive(Debug, Clone)]
struct UnitResult {
    outcome: Outcome,
    nested: bool,
    dead_letters: u64,
    reboots: u64,
    reboot_cap: u64,
    metrics: MetricsSnapshot,
    series: SeriesSnapshot,
    trace: Option<TraceShard>,
}

/// The injecting interposer: delegates every call to the real runtime,
/// and on the `trigger_at`-th arrival of `trigger_fn` at the target
/// channel injects the fault (plus, for the nested phase, arms a second
/// fault gated on the recovery episode that follows).
struct PipelineCtx {
    runtime: sg_c3::FtRuntime,
    target: ComponentId,
    trigger_fn: &'static str,
    trigger_at: u64,
    seen: u64,
    nested: bool,
    injected: bool,
}

impl KernelAccess for PipelineCtx {
    fn kernel(&self) -> &Kernel {
        self.runtime.kernel()
    }
    fn kernel_mut(&mut self) -> &mut Kernel {
        self.runtime.kernel_mut()
    }
}

impl InterfaceCall for PipelineCtx {
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        if !self.injected && server == self.target && fname == self.trigger_fn {
            self.seen += 1;
            if self.seen >= self.trigger_at {
                self.injected = true;
                self.runtime.inject_fault(self.target);
                if self.nested {
                    self.runtime
                        .kernel_mut()
                        .arm_fault_during_recovery(self.target);
                }
            }
        }
        self.runtime
            .interface_call(client, thread, server, fname, args)
    }
}

/// Run one phase injection: a fault timed to the unit's trigger call,
/// judged against the closed-form expected output.
fn run_phase_unit(phase: PipelinePhase, cfg: &PipelineCampaignConfig, rep: u64) -> UnitResult {
    let mut pcfg = cfg.pipeline;
    pcfg.poison_every = 0;
    pcfg.trace = cfg.trace;
    pcfg.series_window = SimTime(cfg.series_window_ns);

    let bed = build_pipeline(PipelineVariant::SuperGlue { faults: false }, &pcfg);
    let mut ex: Executor<PipelineCtx> = Executor::new();
    bed.attach_stages(&mut ex, &pcfg);
    // Alternate the target between the two channels; land the trigger
    // somewhere in the first half of the stream, varied per repetition.
    let target = bed.rotation()[(rep % 2) as usize];
    let phase_salt = seed_salt(phase.label());
    let trigger = 1 + mix(cfg.seed ^ phase_salt, rep) % (pcfg.jobs / 2).max(1);
    let output = bed.output.clone();
    let mut ctx = PipelineCtx {
        runtime: bed.runtime,
        target,
        trigger_fn: phase.trigger_fn(),
        trigger_at: trigger,
        seen: 0,
        nested: phase == PipelinePhase::DuringRecovery,
        injected: false,
    };

    while ctx.kernel().now() < pcfg.duration {
        if ex.run(&mut ctx, 256) != RunExit::StepLimit {
            break;
        }
    }
    // An armed nested fault whose recovery never began dies with the
    // unit.
    ctx.kernel_mut().disarm_recovery_fault();

    let nested = ctx.kernel().counters().total(|r| r.nested_faults)
        + ctx.runtime.stats().nested_recoveries
        > 0;
    let unrecovered = ctx.runtime.stats().unrecovered;
    let metrics = MetricsSnapshot::from_kernel(ctx.runtime.kernel());
    let series = SeriesSnapshot::from_kernel(ctx.runtime.kernel());
    let trace = take_unit_trace(
        &mut ctx.runtime,
        &format!("pipeline-campaign/{}/rep{rep}", phase.label()),
    );
    drop(ex);
    let out = output.borrow().clone();

    let outcome = if !ctx.injected {
        Outcome::Undetected
    } else if unrecovered == 0 && out == expected_output(&pcfg) {
        Outcome::Recovered
    } else {
        Outcome::Other
    };
    UnitResult {
        outcome,
        nested,
        dead_letters: 0,
        reboots: 0,
        reboot_cap: 0,
        metrics,
        series,
        trace,
    }
}

/// Run one showstopper repetition: a poisoned pipeline with no injected
/// faults — every fault is raised by the poisoned messages themselves —
/// judged on exact dead-letter routing and the reboot cap.
fn run_showstopper_unit(cfg: &PipelineCampaignConfig, rep: u64) -> UnitResult {
    let mut pcfg = cfg.pipeline;
    // Repetitions differ in stream length (and therefore in poison
    // placement), not just in label.
    pcfg.jobs += rep * 23;
    pcfg.poison_every = cfg.poison_every.max(2);
    pcfg.trace = cfg.trace;
    pcfg.series_window = SimTime(cfg.series_window_ns);

    let bed = build_pipeline(PipelineVariant::SuperGlue { faults: false }, &pcfg);
    let mut ex: Executor<PipelineCtx> = Executor::new();
    bed.attach_stages(&mut ex, &pcfg);
    let output = bed.output.clone();
    let target = bed.chan_ab;
    let mut ctx = PipelineCtx {
        runtime: bed.runtime,
        target,
        trigger_fn: "chan_noop",
        trigger_at: u64::MAX,
        seen: 0,
        nested: false,
        injected: true, // no interposed injection: poison does the faulting
    };

    while ctx.kernel().now() < pcfg.duration {
        if ex.run(&mut ctx, 256) != RunExit::StepLimit {
            break;
        }
    }

    let metrics = MetricsSnapshot::from_kernel(ctx.runtime.kernel());
    let series = SeriesSnapshot::from_kernel(ctx.runtime.kernel());
    let trace = take_unit_trace(
        &mut ctx.runtime,
        &format!("pipeline-campaign/DeadLtr/rep{rep}"),
    );
    let dead_letters = metrics.mechanism_total(Mechanism::Dl0);
    let reboots = ctx.runtime.stats().faults_handled;
    let reboot_cap = pcfg.poison_count() * pcfg.poison_limit;
    let unrecovered = ctx.runtime.stats().unrecovered;
    drop(ex);
    let out = output.borrow().clone();

    let outcome = if unrecovered == 0
        && dead_letters == pcfg.poison_count()
        && reboots == reboot_cap
        && out == expected_output(&pcfg)
    {
        Outcome::Recovered
    } else {
        Outcome::Other
    };
    UnitResult {
        outcome,
        nested: false,
        dead_letters,
        reboots,
        reboot_cap,
        metrics,
        series,
        trace,
    }
}

fn take_unit_trace(runtime: &mut sg_c3::FtRuntime, label: &str) -> Option<TraceShard> {
    if runtime.kernel().tracing_enabled() {
        let mut shard = TraceShard::labeled(label);
        shard.absorb(runtime.kernel_mut().take_trace(label));
        Some(shard)
    } else {
        None
    }
}

/// Run the full pipeline campaign, sharded across up to `jobs` worker
/// threads. Units are merged in unit order, so the result is
/// bit-identical for every `jobs >= 1`.
#[must_use]
pub fn run_pipeline_campaign_parallel(
    cfg: &PipelineCampaignConfig,
    jobs: usize,
) -> PipelineCampaignResult {
    let per_phase = cfg.injections as usize;
    let phase_units = PipelinePhase::ALL.len() * per_phase;
    let total = phase_units + cfg.showstoppers as usize;
    let units = parallel_map_indexed(total, jobs, |i| {
        if i < phase_units {
            run_phase_unit(
                PipelinePhase::ALL[i / per_phase],
                cfg,
                (i % per_phase) as u64,
            )
        } else {
            run_showstopper_unit(cfg, (i - phase_units) as u64)
        }
    });

    let mut out = PipelineCampaignResult::default();
    for phase in PipelinePhase::ALL {
        out.phases.push(CampaignRow::new(phase.label()));
    }
    out.showstopper.row = CampaignRow::new("DeadLtr");
    for (i, u) in units.iter().enumerate() {
        if i < phase_units {
            let row = &mut out.phases[i / per_phase];
            row.record(u.outcome);
            if u.nested && u.outcome == Outcome::Recovered {
                row.nested_recovered += 1;
            }
        } else {
            out.showstopper.row.record(u.outcome);
            out.showstopper.dead_letters += u.dead_letters;
            out.showstopper.reboots += u.reboots;
            out.showstopper.reboot_cap += u.reboot_cap;
        }
        out.metrics.merge(&u.metrics);
        out.series.merge(&u.series);
        out.trace.extend(u.trace.iter().cloned());
    }
    out
}

/// [`run_pipeline_campaign_parallel`] on the calling thread.
#[must_use]
pub fn run_pipeline_campaign(cfg: &PipelineCampaignConfig) -> PipelineCampaignResult {
    run_pipeline_campaign_parallel(cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> PipelineCampaignConfig {
        PipelineCampaignConfig {
            injections: 4,
            showstoppers: 2,
            seed: 11,
            pipeline: PipelineConfig {
                jobs: 120,
                duration: SimTime::from_secs(30),
                ..PipelineConfig::default()
            },
            ..PipelineCampaignConfig::default()
        }
    }

    #[test]
    fn every_phase_injection_recovers_exactly_once() {
        let r = run_pipeline_campaign(&quick_cfg());
        for row in &r.phases {
            assert_eq!(row.injected, 4, "{row:?}");
            assert_eq!(
                row.recovered, row.injected,
                "every channel fault must recover with byte-identical output: {row:?}"
            );
        }
    }

    #[test]
    fn during_recovery_phase_exercises_nested_recovery() {
        let r = run_pipeline_campaign(&quick_cfg());
        let nested = &r.phases[2];
        assert_eq!(nested.component, "Nested");
        assert!(
            nested.nested_recovered > 0,
            "the armed second fault must land mid-recovery: {nested:?}"
        );
    }

    #[test]
    fn showstoppers_cap_reboots_at_k_per_poisoned_message() {
        let r = run_pipeline_campaign(&quick_cfg());
        let s = &r.showstopper;
        assert_eq!(s.row.recovered, s.row.injected, "{s:?}");
        assert!(s.dead_letters > 0, "{s:?}");
        assert_eq!(
            s.reboots, s.reboot_cap,
            "dead-letter escalation must cap reboots at K per poison: {s:?}"
        );
    }

    #[test]
    fn campaign_is_deterministic_for_any_job_count() {
        let cfg = quick_cfg();
        let a = run_pipeline_campaign_parallel(&cfg, 1);
        let b = run_pipeline_campaign_parallel(&cfg, 4);
        assert_eq!(a, b);
    }
}
