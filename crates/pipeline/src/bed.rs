//! Assembly and driver for the actor-pipeline macro-benchmark.
//!
//! The system under test is a three-stage streaming pipeline
//!
//! ```text
//! Generator ──chan A──▶ Worker ──chan B──▶ Logger
//! ```
//!
//! where the two bounded channels are *protected* SuperGlue components
//! (one [`ChannelService`] each, both persisting through one shared,
//! unprotected storage component) and the three stages are client
//! components driven by the discrete-event executor. Faulted runs
//! micro-reboot a rotating channel every `fault_period` (the paper's
//! SWIFI schedule); showstopper runs additionally poison every
//! `poison_every`-th job, exercising the dead-letter escalation ladder.
//!
//! The run's observable effect is the Logger's committed-output log.
//! [`expected_output`] computes the fault-free ground truth in closed
//! form, so any duplicate, loss, or reorder under fault injection is a
//! byte-level diff — the exactly-once acceptance criterion.

use std::cell::RefCell;
use std::rc::Rc;

use composite::{
    mix, ComponentId, CostModel, Executor, InterfaceCall, KernelAccess, Mechanism, MetricsSnapshot,
    Priority, RunExit, SeriesSnapshot, SimTime, ThreadId, TraceShard, DEFAULT_TRACE_CAPACITY,
};
use sg_c3::{FtRuntime, RecoveryPolicy, RuntimeConfig};
use sg_services::api::ClientEnd;
use sg_services::storage::StorageService;
use superglue::CompiledStub;

use crate::channel::ChannelService;
use crate::stages::{Generator, SinkLogger, Worker};
use crate::{compile_chan, CHAN_A, CHAN_B};

/// Which protection layer guards the channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineVariant {
    /// No stubs: the first channel fault crashes the pipeline.
    Bare {
        /// Inject a fault into a rotating channel every period.
        faults: bool,
    },
    /// SuperGlue-generated stubs on every stage↔channel edge.
    SuperGlue {
        /// Inject a fault into a rotating channel every period.
        faults: bool,
    },
}

impl std::fmt::Display for PipelineVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineVariant::Bare { faults: false } => f.write_str("COMPOSITE"),
            PipelineVariant::Bare { faults: true } => f.write_str("COMPOSITE (faults)"),
            PipelineVariant::SuperGlue { faults: false } => f.write_str("COMPOSITE+SuperGlue"),
            PipelineVariant::SuperGlue { faults: true } => {
                f.write_str("COMPOSITE+SuperGlue (faults)")
            }
        }
    }
}

/// Pipeline experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Jobs the generator emits.
    pub jobs: u64,
    /// Hard virtual-time cap on the run.
    pub duration: SimTime,
    /// Worker processing cost per message.
    pub work: SimTime,
    /// Ring capacity of each channel.
    pub capacity: i64,
    /// Every `poison_every`-th job is a showstopper (0 = none).
    pub poison_every: u64,
    /// Dead-letter threshold K: a message faults its consumer exactly
    /// this many times before it is routed to the dead-letter queue.
    /// Must stay within the runtime's per-call retry budget (3).
    pub poison_limit: u64,
    /// Fault-injection period for the faulted variant.
    pub fault_period: SimTime,
    /// Experiment seed: repetition `rep` phase-shifts the fault schedule
    /// by `mix(seed, rep) % fault_period` (repetition 0 keeps phase 0).
    pub seed: u64,
    /// Repetitions (differ only in fault-schedule phase).
    pub repetitions: u64,
    /// Record a flight-recorder trace of each run.
    pub trace: bool,
    /// Windowed-telemetry window width ([`SimTime::ZERO`] = off).
    pub series_window: SimTime,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            jobs: 2_000,
            duration: SimTime::from_secs(60),
            work: SimTime::from_micros(40),
            capacity: 8,
            poison_every: 0,
            poison_limit: 3,
            fault_period: SimTime::from_secs(10),
            seed: 0x9E37_0001,
            repetitions: 1,
            trace: false,
            series_window: SimTime::ZERO,
        }
    }
}

impl PipelineConfig {
    /// Phase offset for repetition `rep`'s fault schedule, in
    /// `[0, fault_period)`; repetition 0 keeps phase 0 so a single run
    /// reproduces the unphased schedule exactly.
    #[must_use]
    pub fn fault_phase(&self, rep: u64) -> SimTime {
        if rep == 0 || self.fault_period.as_nanos() == 0 {
            SimTime::ZERO
        } else {
            SimTime(mix(self.seed, rep) % self.fault_period.as_nanos())
        }
    }

    /// Showstoppers among the `jobs` this config generates.
    #[must_use]
    pub fn poison_count(&self) -> u64 {
        (0..self.jobs)
            .filter(|&n| Generator::is_poison(n, self.poison_every))
            .count() as u64
    }

    /// Jobs that must reach the committed-output log (poisoned jobs are
    /// dead-lettered before the worker ever sees them).
    #[must_use]
    pub fn expected_delivered(&self) -> u64 {
        self.jobs - self.poison_count()
    }
}

/// The fault-free ground-truth committed-output log, in closed form:
/// every non-poisoned job, transformed by the worker, in order.
#[must_use]
pub fn expected_output(cfg: &PipelineConfig) -> Vec<String> {
    (0..cfg.jobs)
        .filter(|&n| !Generator::is_poison(n, cfg.poison_every))
        .map(|n| {
            String::from_utf8_lossy(&Worker::transform(&Generator::payload(n, cfg.poison_every)))
                .into_owned()
        })
        .collect()
}

/// Calibrated virtual-time costs for the pipeline experiment (the
/// web-server model's ratios with SuperGlue tracking).
#[must_use]
pub fn pipeline_cost_model(variant: PipelineVariant) -> CostModel {
    let tracking = match variant {
        PipelineVariant::Bare { .. } => SimTime::ZERO,
        PipelineVariant::SuperGlue { .. } => SimTime(1_130),
    };
    CostModel {
        invocation: SimTime(700),
        tracking,
        micro_reboot: SimTime::from_millis(250),
        recovery_step: SimTime::from_micros(30),
        storage_round_trip: SimTime::from_micros(3),
        upcall: SimTime::from_micros(10),
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Which system ran.
    pub variant: PipelineVariant,
    /// Jobs the generator emitted.
    pub generated: u64,
    /// Records in the committed-output log.
    pub delivered: u64,
    /// The committed-output log itself — the exactly-once witness.
    pub output: Vec<String>,
    /// Messages routed to the dead-letter queue (DL0 total).
    pub dead_letters: u64,
    /// Cursor re-seatings during recovery (CR0 total).
    pub cursor_restores: u64,
    /// Faults injected by the SWIFI schedule.
    pub faults_injected: u64,
    /// Faults absorbed by stub-level recovery.
    pub faults_handled: u64,
    /// Unrecovered faults (must stay 0 for the protected variant).
    pub unrecovered: u64,
    /// Virtual time when the run ended.
    pub wall: SimTime,
    /// Per-component recovery-observability counters.
    pub metrics: MetricsSnapshot,
    /// Windowed telemetry (empty unless `series_window` is nonzero).
    pub telemetry: SeriesSnapshot,
    /// Flight-recorder trace (when `trace`).
    pub trace: Option<TraceShard>,
}

/// The assembled pipeline system, before its stage workloads are bound
/// to an executor: the runtime (kernel + stubs already installed), the
/// component and thread ids, and the shared committed-output log.
///
/// [`build_pipeline`] wires everything; [`PipelineBed::attach_stages`]
/// then binds the three stages to *any* executor context that reaches
/// the runtime — the bench driver runs `Executor<FtRuntime>` directly,
/// while the SWIFI pipeline campaign wraps the runtime in a
/// call-interposing injector to land faults mid-peek or pre-commit.
pub struct PipelineBed {
    /// The fault-tolerant runtime owning the kernel.
    pub runtime: FtRuntime,
    /// Generator / Worker / Logger client components.
    pub gen: ComponentId,
    /// Worker component.
    pub work: ComponentId,
    /// Logger component.
    pub log: ComponentId,
    /// The shared unprotected storage both channels persist through.
    pub storage: ComponentId,
    /// The Generator → Worker channel component.
    pub chan_ab: ComponentId,
    /// The Worker → Logger channel component.
    pub chan_bc: ComponentId,
    /// Generator / Worker / Logger threads, in stage order.
    pub threads: [ThreadId; 3],
    /// The Logger's committed-output log — the exactly-once witness.
    pub output: Rc<RefCell<Vec<String>>>,
    /// Whether the variant's periodic SWIFI schedule is armed.
    pub faults: bool,
}

/// Assemble the pipeline system for `variant`: kernel with calibrated
/// costs, storage + two protected channels, stage components and
/// threads, and (for the SuperGlue variant) compiled stubs on all four
/// stage↔channel edges.
#[must_use]
pub fn build_pipeline(variant: PipelineVariant, cfg: &PipelineConfig) -> PipelineBed {
    let mut k = composite::Kernel::with_costs(pipeline_cost_model(variant));
    if cfg.trace {
        k.enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    if cfg.series_window > SimTime::ZERO {
        k.enable_telemetry(cfg.series_window);
    }

    let gen = k.add_client_component("gen");
    let work = k.add_client_component("work");
    let log = k.add_client_component("log");
    let storage = k.add_component("storage", Box::new(StorageService::new()));
    let chan_ab = k.add_component(
        "chan_ab",
        Box::new(ChannelService::new(storage, cfg.capacity, cfg.poison_limit)),
    );
    let chan_bc = k.add_component(
        "chan_bc",
        Box::new(ChannelService::new(storage, cfg.capacity, cfg.poison_limit)),
    );
    // G1: both channels persist their rings through shared storage
    // (disjoint keyspaces — the channel number prefixes every key).
    k.grant(chan_ab, storage);
    k.grant(chan_bc, storage);

    let config = RuntimeConfig {
        policy: RecoveryPolicy::OnDemand,
        storage: Some(storage),
        max_retries: 3,
        ..RuntimeConfig::default()
    };
    let mut runtime = FtRuntime::new(k, config);

    let faults = match variant {
        PipelineVariant::Bare { faults } => {
            for (client, server) in [
                (gen, chan_ab),
                (work, chan_ab),
                (work, chan_bc),
                (log, chan_bc),
            ] {
                runtime.kernel_mut().grant(client, server);
            }
            faults
        }
        PipelineVariant::SuperGlue { faults } => {
            let spec = &compile_chan().stub_spec;
            for (client, server) in [
                (gen, chan_ab),
                (work, chan_ab),
                (work, chan_bc),
                (log, chan_bc),
            ] {
                runtime.install_stub(client, server, Box::new(CompiledStub::new(spec.clone())));
            }
            faults
        }
    };

    let tg = runtime.kernel_mut().create_thread(gen, Priority(5));
    let tw = runtime.kernel_mut().create_thread(work, Priority(5));
    let tl = runtime.kernel_mut().create_thread(log, Priority(5));

    PipelineBed {
        runtime,
        gen,
        work,
        log,
        storage,
        chan_ab,
        chan_bc,
        threads: [tg, tw, tl],
        output: Rc::new(RefCell::new(Vec::new())),
        faults,
    }
}

impl PipelineBed {
    /// Bind the three stage workloads to `ex`. Generic over the executor
    /// context so interposing drivers (the SWIFI campaign) reuse the
    /// exact same stage wiring as the plain bench driver.
    pub fn attach_stages<Ctx: InterfaceCall + KernelAccess>(
        &self,
        ex: &mut Executor<Ctx>,
        cfg: &PipelineConfig,
    ) {
        let [tg, tw, tl] = self.threads;
        ex.attach(
            tg,
            Box::new(Generator::new(
                ClientEnd::new(self.gen, tg, self.chan_ab),
                CHAN_A,
                cfg.jobs,
                cfg.poison_every,
            )),
        );
        ex.attach(
            tw,
            Box::new(Worker::new(
                ClientEnd::new(self.work, tw, self.chan_ab),
                ClientEnd::new(self.work, tw, self.chan_bc),
                CHAN_A,
                CHAN_B,
                cfg.work,
            )),
        );
        ex.attach(
            tl,
            Box::new(SinkLogger::new(
                ClientEnd::new(self.log, tl, self.chan_bc),
                CHAN_B,
                Some(cfg.expected_delivered()),
                self.output.clone(),
            )),
        );
    }

    /// The SWIFI rotation: the two protected channel components.
    #[must_use]
    pub fn rotation(&self) -> [ComponentId; 2] {
        [self.chan_ab, self.chan_bc]
    }
}

/// Run one repetition of a pipeline variant. Every `(variant, rep)`
/// pair is an independent, deterministic unit of work — repetitions
/// differ only in the fault-schedule phase — so results are
/// byte-identical for any `--jobs` worker count.
#[must_use]
pub fn run_pipeline_rep(
    variant: PipelineVariant,
    cfg: &PipelineConfig,
    rep: u64,
) -> PipelineResult {
    let bed = build_pipeline(variant, cfg);
    let mut ex: Executor<FtRuntime> = Executor::new();
    bed.attach_stages(&mut ex, cfg);
    let PipelineBed {
        mut runtime,
        chan_ab,
        chan_bc,
        output,
        faults,
        ..
    } = bed;

    let rotation = [chan_ab, chan_bc];
    let mut next_fault = cfg.fault_period + cfg.fault_phase(rep);
    let mut faults_injected = 0u64;

    // Short executor slices keep the fault schedule interleaved with
    // the run: a whole small run fits in one 8k-step slice, which would
    // break out before the first scheduled fault ever fires.
    while runtime.kernel().now() < cfg.duration {
        if faults && runtime.kernel().now() >= next_fault {
            let target = rotation[(faults_injected as usize) % rotation.len()];
            runtime.inject_fault(target);
            faults_injected += 1;
            next_fault += cfg.fault_period;
        }
        if ex.run(&mut runtime, 128) != RunExit::StepLimit {
            break;
        }
    }

    let metrics = MetricsSnapshot::from_kernel(runtime.kernel());
    let telemetry = SeriesSnapshot::from_kernel(runtime.kernel());
    let trace = if runtime.kernel().tracing_enabled() {
        let mut shard = TraceShard::labeled(&format!("pipeline/{variant}/rep{rep}"));
        let label = shard.label.clone();
        shard.absorb(runtime.kernel_mut().take_trace(&label));
        Some(shard)
    } else {
        None
    };
    let wall = runtime.kernel().now();
    drop(ex);
    let output = Rc::try_unwrap(output)
        .expect("workloads dropped")
        .into_inner();

    PipelineResult {
        variant,
        generated: cfg.jobs,
        delivered: output.len() as u64,
        dead_letters: metrics.mechanism_total(Mechanism::Dl0),
        cursor_restores: metrics.mechanism_total(Mechanism::Cr0),
        faults_injected,
        faults_handled: runtime.stats().faults_handled,
        unrecovered: runtime.stats().unrecovered,
        wall,
        output,
        metrics,
        telemetry,
        trace,
    }
}

/// Run repetition 0 of a pipeline variant.
#[must_use]
pub fn run_pipeline_variant(variant: PipelineVariant, cfg: &PipelineConfig) -> PipelineResult {
    run_pipeline_rep(variant, cfg, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            jobs: 200,
            duration: SimTime::from_secs(30),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn fault_free_run_delivers_everything_in_order() {
        let cfg = small_cfg();
        let r = run_pipeline_variant(PipelineVariant::SuperGlue { faults: false }, &cfg);
        assert_eq!(r.delivered, cfg.jobs);
        assert_eq!(r.output, expected_output(&cfg));
        assert_eq!(r.unrecovered, 0);
        assert_eq!(r.dead_letters, 0);
    }

    #[test]
    fn faulted_run_output_is_byte_identical_to_fault_free() {
        // ~74µs of virtual time per job: a 1ms period lands a dozen
        // faults inside the run.
        let cfg = PipelineConfig {
            fault_period: SimTime::from_millis(1),
            ..small_cfg()
        };
        let r = run_pipeline_variant(PipelineVariant::SuperGlue { faults: true }, &cfg);
        assert!(r.faults_injected > 0, "schedule must fire: {r:?}");
        assert_eq!(r.unrecovered, 0);
        assert_eq!(
            r.output,
            expected_output(&cfg),
            "exactly-once: committed output must not duplicate or drop"
        );
        assert!(
            r.cursor_restores > 0,
            "recovery must re-seat cursors (CR0): {:?}",
            r.metrics
        );
    }

    #[test]
    fn poisoned_jobs_dead_letter_and_rest_delivers() {
        let cfg = PipelineConfig {
            poison_every: 50,
            ..small_cfg()
        };
        let r = run_pipeline_variant(PipelineVariant::SuperGlue { faults: false }, &cfg);
        assert_eq!(r.dead_letters, cfg.poison_count());
        assert_eq!(r.delivered, cfg.expected_delivered());
        assert_eq!(r.output, expected_output(&cfg));
        assert_eq!(r.unrecovered, 0);
        // Dead-letter escalation caps the reboots: exactly K per poison.
        assert_eq!(r.faults_handled, cfg.poison_count() * cfg.poison_limit);
    }

    #[test]
    fn bare_pipeline_dies_on_first_fault() {
        let cfg = PipelineConfig {
            fault_period: SimTime::from_millis(1),
            ..small_cfg()
        };
        let r = run_pipeline_variant(PipelineVariant::Bare { faults: true }, &cfg);
        assert!(
            r.delivered < cfg.jobs,
            "an unprotected fault must kill the pipeline: {r:?}"
        );
    }

    #[test]
    fn repetitions_differ_only_in_phase_and_rep0_is_unphased() {
        let cfg = small_cfg();
        assert_eq!(cfg.fault_phase(0), SimTime::ZERO);
        let p1 = cfg.fault_phase(1);
        let p2 = cfg.fault_phase(2);
        assert!(p1 < cfg.fault_period && p2 < cfg.fault_period);
        assert_ne!(p1, p2);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = PipelineConfig {
            poison_every: 40,
            fault_period: SimTime::from_millis(1),
            ..small_cfg()
        };
        let a = run_pipeline_variant(PipelineVariant::SuperGlue { faults: true }, &cfg);
        let b = run_pipeline_variant(PipelineVariant::SuperGlue { faults: true }, &cfg);
        assert_eq!(a.output, b.output);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.faults_handled, b.faults_handled);
        assert_eq!(a.dead_letters, b.dead_letters);
    }
}
