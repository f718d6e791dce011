//! The five workloads and their closed-loop, single-threaded drivers.
//!
//! A workload is an endless sequence of *units* whose inputs are a pure
//! function of the seed and the unit index: a campaign round (one shard
//! of each service), a web or pipeline repetition, or a batch of invoke
//! rounds. The first
//! [`Driver::pass_units`] units form *pass 0*: every run completes it,
//! and the deterministic and simulated metrics are taken over it alone,
//! so they repeat exactly for a seed however fast the host is. Host-time
//! metrics cover every unit run before the deadline.

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

use composite::{mix, KernelAccess as _, MetricsSnapshot, SimTime, SplitMix64};
use sg_c3::RecoveryPolicy;
use sg_pipeline::{
    build_pipeline, expected_output, run_pipeline_rep, PipelineConfig, PipelineVariant,
};
use sg_swifi::{run_shard, shard_sizes, CampaignConfig, CampaignRow};
use sg_webserver::loadgen::web_cost_model;
use sg_webserver::{run_fig7_rep, Fig7Config, WebVariant};
use superglue::testbed::{Testbed, Variant};

use crate::rig::{CallFailed, Iface, Rig, IFACES};
use crate::span::Spans;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II single-fault SWIFI campaign, recorder and series off.
    Campaign,
    /// The same campaign with the flight recorder and 1 ms series on,
    /// plus the trace and series encoders.
    CampaignTraced,
    /// Fig 7 COMPOSITE+SuperGlue web server with a fault every 10 s.
    Web,
    /// Streaming SuperGlue pipeline with faults and poison messages.
    Pipeline,
    /// The §V-B micro-op mix on one SuperGlue system, no faults.
    Invoke,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Campaign,
        Workload::CampaignTraced,
        Workload::Web,
        Workload::Pipeline,
        Workload::Invoke,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::CampaignTraced => "campaign-traced",
            Workload::Web => "web",
            Workload::Pipeline => "pipeline",
            Workload::Invoke => "invoke",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is.
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            Workload::Campaign | Workload::CampaignTraced => "injection",
            Workload::Web => "simulated request",
            Workload::Pipeline => "message",
            Workload::Invoke => "interface call",
        }
    }
}

/// Input sizes of every workload and probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Injections per service in one unit of either campaign workload
    /// (at most one shard's worth, 25).
    pub campaign_injections: u64,
    /// Units in one `campaign` pass.
    pub campaign_units: u64,
    /// Units in one `campaign-traced` pass.
    pub traced_units: u64,
    /// Repetitions in one `web` pass.
    pub web_reps: u64,
    /// Simulated milliseconds per web repetition.
    pub web_ms: u64,
    /// Simulated fault period of `web` and `pipeline`, in ms.
    pub fault_period_ms: u64,
    /// Repetitions in one `pipeline` pass.
    pub pipeline_reps: u64,
    /// Messages per pipeline repetition.
    pub pipeline_messages: u64,
    /// Every n-th pipeline message is poison.
    pub poison_every: u64,
    /// Invoke rounds (one iteration of each service) per timed unit.
    pub invoke_rounds: u64,
    /// Invoke units in one pass.
    pub invoke_batches: u64,
    /// Untimed set-ups that warm the process first (allocator, caches).
    pub setup_warmups: usize,
    /// Timed fresh set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Repetitions of each probe (the median is reported).
    pub probe_reps: usize,
    /// Repetitions of the IDL and compiler stage probes.
    pub stage_reps: usize,
    /// Iterations per service in one invoke-mix probe repetition.
    pub probe_iters: u64,
    /// Fault/recover cycles in one recovery probe repetition.
    pub recovery_cycles: u32,
    /// Injections of the shard whose trace the artifact probe encodes.
    pub artifact_injections: u64,
}

impl Sizes {
    /// The benchmark's sizes: each pass takes 1 to 10 s on one core.
    pub const FULL: Sizes = Sizes {
        campaign_injections: 25,
        campaign_units: 40,
        traced_units: 6,
        web_reps: 4,
        web_ms: 60_000,
        fault_period_ms: 10_000,
        pipeline_reps: 10,
        pipeline_messages: 20_000,
        poison_every: 1_000,
        invoke_rounds: 160,
        invoke_batches: 600,
        setup_warmups: 10,
        setups: 51,
        probe_reps: 5,
        stage_reps: 200,
        probe_iters: 2_000,
        recovery_cycles: 100,
        artifact_injections: 5,
    };

    /// Toy sizes for the smoke test: every code path, a fraction of a
    /// second in a debug build.
    pub const TOY: Sizes = Sizes {
        campaign_injections: 1,
        campaign_units: 1,
        traced_units: 1,
        web_reps: 1,
        web_ms: 200,
        fault_period_ms: 100,
        pipeline_reps: 1,
        pipeline_messages: 60,
        poison_every: 20,
        invoke_rounds: 2,
        invoke_batches: 2,
        setup_warmups: 0,
        setups: 3,
        probe_reps: 1,
        stage_reps: 2,
        probe_iters: 3,
        recovery_cycles: 2,
        artifact_injections: 1,
    };

    /// The sizes as a JSON object (for the run manifest).
    #[must_use]
    pub fn to_json(&self) -> composite::Json {
        let mut j = composite::Json::object();
        j.push("campaign_injections", self.campaign_injections)
            .push("campaign_units", self.campaign_units)
            .push("traced_units", self.traced_units)
            .push("web_reps", self.web_reps)
            .push("web_ms", self.web_ms)
            .push("fault_period_ms", self.fault_period_ms)
            .push("pipeline_reps", self.pipeline_reps)
            .push("pipeline_messages", self.pipeline_messages)
            .push("poison_every", self.poison_every)
            .push("invoke_rounds", self.invoke_rounds)
            .push("invoke_batches", self.invoke_batches)
            .push("setup_warmups", self.setup_warmups)
            .push("setups", self.setups)
            .push("probe_reps", self.probe_reps)
            .push("stage_reps", self.stage_reps)
            .push("probe_iters", self.probe_iters)
            .push("recovery_cycles", u64::from(self.recovery_cycles))
            .push("artifact_injections", self.artifact_injections);
        j
    }
}

/// An output check a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A campaign shard injected fewer faults than its quota.
    ShardQuota {
        /// Target service.
        iface: &'static str,
        /// Campaign unit.
        unit: u64,
        /// Faults injected.
        injected: u64,
        /// The shard's quota.
        quota: u64,
    },
    /// Pass 0's recovery success rate left the paper's band.
    SuccessBand {
        /// Recovered over activated.
        rate: f64,
        /// Activated faults.
        activated: u64,
    },
    /// A web repetition left faults unrecovered.
    Unrecovered {
        /// Repetition.
        rep: u64,
        /// Unrecovered faults.
        faults: u64,
    },
    /// A closed simulated second of a web repetition served nothing.
    EmptySecond {
        /// Repetition.
        rep: u64,
        /// The empty second.
        second: usize,
    },
    /// A pipeline repetition's committed output differs from the oracle.
    OutputMismatch {
        /// Repetition.
        rep: u64,
        /// Records equal to the oracle's at the same position.
        matching: u64,
        /// Records the oracle holds.
        expected: u64,
    },
    /// A pipeline repetition dead-lettered the wrong number of messages.
    DeadLetters {
        /// Repetition.
        rep: u64,
        /// Dead letters routed.
        got: u64,
        /// Poison messages generated.
        expected: u64,
    },
    /// A pipeline repetition rebooted more often than poison escalation
    /// and the fault schedule allow.
    RebootCap {
        /// Repetition.
        rep: u64,
        /// Reboots counted.
        reboots: u64,
        /// Poisons × K plus scheduled faults.
        cap: u64,
    },
    /// An interface call returned an error.
    Call(CallFailed),
    /// The traced rerun of pass 0 did not reproduce the untraced pass.
    TraceDiverged,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ShardQuota {
                iface,
                unit,
                injected,
                quota,
            } => write!(
                f,
                "campaign unit {unit}: the {iface} shard injected {injected} of its {quota} faults"
            ),
            Violation::SuccessBand { rate, activated } => write!(
                f,
                "campaign success rate {:.2}% over {activated} activated faults is outside the paper's 85-97% band",
                rate * 100.0
            ),
            Violation::Unrecovered { rep, faults } => {
                write!(f, "web repetition {rep} left {faults} fault(s) unrecovered")
            }
            Violation::EmptySecond { rep, second } => write!(
                f,
                "web repetition {rep} served no request in simulated second {second}"
            ),
            Violation::OutputMismatch {
                rep,
                matching,
                expected,
            } => write!(
                f,
                "pipeline repetition {rep}: {matching} of {expected} committed records match the oracle"
            ),
            Violation::DeadLetters { rep, got, expected } => write!(
                f,
                "pipeline repetition {rep} dead-lettered {got} messages, expected {expected}"
            ),
            Violation::RebootCap { rep, reboots, cap } => write!(
                f,
                "pipeline repetition {rep} rebooted {reboots} times, cap is {cap}"
            ),
            Violation::Call(e) => write!(f, "{e}"),
            Violation::TraceDiverged => {
                f.write_str("the traced rerun of pass 0 produced different outputs")
            }
        }
    }
}

/// What one unit did.
#[derive(Debug, Default)]
pub struct UnitOut {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
    /// System boots inside the unit (approximate for campaign units).
    pub boots: u64,
    /// Simulated time covered.
    pub sim_ns: u64,
    /// Kernel counters the unit contributes to pass 0.
    pub metrics: MetricsSnapshot,
    /// Table II tallies (campaign units).
    pub row: CampaignRow,
    /// Flight-recorder events encoded (traced campaign units).
    pub events: u64,
    /// Bytes of the JSON-lines trace encoding.
    pub bytes: u64,
    /// Host-time breakdown: (label, ops, ns), e.g. per campaign target.
    pub by_label: Vec<(&'static str, u64, u64)>,
    /// The first check the unit failed.
    pub violation: Option<Violation>,
}

/// A workload prepared to run units.
pub trait Driver {
    /// Units in pass 0.
    fn pass_units(&self) -> u64;
    /// Run unit `i`, recording spans around every library call. Drivers
    /// that time finer than a unit push their own µs-per-op samples.
    fn unit(&mut self, i: u64, spans: &mut Spans, samples: &mut Vec<f64>) -> UnitOut;
    /// Whether the runner takes one µs-per-op sample per unit.
    fn samples_per_unit(&self) -> bool {
        true
    }
    /// A check over the whole of pass 0.
    fn check_pass(&self, _pass: &Pass) -> Option<Violation> {
        None
    }
}

/// Totals over pass 0. Everything but `host_ns` is a pure function of
/// the workload, the sizes and the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Ops attempted.
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
    /// System boots.
    pub boots: u64,
    /// Simulated time covered.
    pub sim_ns: u64,
    /// Merged kernel counters.
    pub metrics: MetricsSnapshot,
    /// Merged Table II tallies (campaign workloads).
    pub row: CampaignRow,
    /// Flight-recorder events encoded.
    pub events: u64,
    /// Bytes of the JSON-lines trace encoding.
    pub bytes: u64,
    /// Host nanoseconds the pass took.
    pub host_ns: u64,
}

impl Pass {
    /// Whether two passes produced the same outputs (host time aside).
    #[must_use]
    pub fn same_outputs(&self, other: &Pass) -> bool {
        Pass {
            host_ns: 0,
            ..self.clone()
        } == Pass {
            host_ns: 0,
            ..other.clone()
        }
    }
}

/// The result of one timed loop.
#[derive(Debug, Default)]
pub struct Timed {
    /// Units run.
    pub units: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
    /// Host nanoseconds of the whole loop, less the time between units.
    pub host_ns: u64,
    /// Host µs per op: one sample per unit, or per sampled invoke round.
    pub samples: Vec<f64>,
    /// Per label: (ops, host ns).
    pub by_label: BTreeMap<&'static str, (u64, u64)>,
    /// Pass-0 totals.
    pub pass: Pass,
    /// Every failed check, in order.
    pub violations: Vec<Violation>,
}

/// Run units until pass 0 is complete and `budget` has elapsed, calling
/// `between` after each unit. Time spent in `between` counts neither
/// against the budget nor in any metric.
pub fn run_timed(
    driver: &mut dyn Driver,
    budget: Duration,
    spans: &mut Spans,
    between: &mut dyn FnMut(),
) -> Timed {
    let pass_units = driver.pass_units();
    let mut t = Timed::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    spans.record("sgperf.run", 0, |spans| {
        let mut i = 0;
        while i < pass_units || start.elapsed() - paused < budget {
            let t0 = Instant::now();
            let out = spans.record("sgperf.unit", i, |s| driver.unit(i, s, &mut t.samples));
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if driver.samples_per_unit() && out.ops > 0 {
                t.samples.push(ns as f64 / out.ops as f64 / 1e3);
            }
            t.ops += out.ops;
            t.failed += out.failed;
            for (label, ops, ns) in &out.by_label {
                let e = t.by_label.entry(*label).or_default();
                e.0 += ops;
                e.1 += ns;
            }
            if i < pass_units {
                let p = &mut t.pass;
                p.ops += out.ops;
                p.failed += out.failed;
                p.boots += out.boots;
                p.sim_ns += out.sim_ns;
                p.events += out.events;
                p.bytes += out.bytes;
                p.host_ns += ns;
                p.metrics.merge(&out.metrics);
                p.row.merge(&out.row);
            }
            t.violations.extend(out.violation);
            i += 1;
            if i == pass_units {
                t.violations.extend(driver.check_pass(&t.pass));
            }
            let b = Instant::now();
            between();
            paused += b.elapsed();
        }
        t.units = i;
    });
    t.host_ns = u64::try_from((start.elapsed() - paused).as_nanos()).unwrap_or(u64::MAX);
    t
}

/// Prepare `w` for seed `seed`: build what the workload needs before
/// its first timed unit. The run calls this [`Sizes::setup_warmups`]
/// times untimed, then [`Sizes::setups`] times timed, spread over the
/// timed loop, and reports the median of the timed calls as `setup_s`.
#[must_use]
pub fn setup(w: Workload, seed: u64, sizes: &Sizes) -> Box<dyn Driver> {
    match w {
        Workload::Campaign | Workload::CampaignTraced => {
            // Every shard boots a system like this one first.
            black_box(Testbed::build(Variant::SuperGlue).expect("shipped IDL compiles"));
            Box::new(CampaignDriver::new(
                w == Workload::CampaignTraced,
                seed,
                sizes,
            ))
        }
        Workload::Web => {
            let variant = WebVariant::SuperGlue { faults: true };
            black_box(
                Testbed::build_with(
                    Variant::SuperGlue,
                    web_cost_model(variant),
                    RecoveryPolicy::OnDemand,
                )
                .expect("shipped IDL compiles"),
            );
            Box::new(WebDriver {
                cfg: Fig7Config {
                    duration: SimTime::from_millis(sizes.web_ms),
                    fault_period: SimTime::from_millis(sizes.fault_period_ms),
                    seed: mix(seed, 0x3EB),
                    ..Fig7Config::default()
                },
                reps: sizes.web_reps,
            })
        }
        Workload::Pipeline => {
            let cfg = PipelineConfig {
                jobs: sizes.pipeline_messages,
                // Generous cap: a repetition ends when its last message
                // commits, long before this.
                duration: SimTime::from_secs(sizes.pipeline_messages / 50 + 60),
                work: SimTime::from_millis(10),
                capacity: 8,
                poison_every: sizes.poison_every,
                poison_limit: 3,
                fault_period: SimTime::from_millis(sizes.fault_period_ms),
                seed: mix(seed, 0x919E),
                ..PipelineConfig::default()
            };
            black_box(build_pipeline(
                PipelineVariant::SuperGlue { faults: true },
                &cfg,
            ));
            Box::new(PipelineDriver {
                oracle: expected_output(&cfg),
                poisons: cfg.poison_count(),
                cfg,
                reps: sizes.pipeline_reps,
            })
        }
        Workload::Invoke => Box::new(InvokeDriver::new(seed, sizes)),
    }
}

/// The six services in an order shuffled by `(seed, round)`.
fn shuffled(seed: u64, round: u64) -> [Iface; 6] {
    let mut order = IFACES;
    let mut rng = SplitMix64::new(mix(seed, round));
    for k in (1..order.len()).rev() {
        let j = usize::try_from(rng.gen_range(k as u64 + 1)).expect("index below 6");
        order.swap(k, j);
    }
    order
}

struct CampaignDriver {
    traced: bool,
    seed: u64,
    cfg: CampaignConfig,
    quota: u64,
    units: u64,
}

impl CampaignDriver {
    fn new(traced: bool, seed: u64, sizes: &Sizes) -> Self {
        let injections = sizes.campaign_injections;
        let quotas = shard_sizes(injections);
        assert_eq!(quotas.len(), 1, "a campaign unit is one shard per service");
        Self {
            traced,
            seed,
            cfg: CampaignConfig {
                injections,
                trace: traced,
                series_window_ns: if traced { 1_000_000 } else { 0 },
                ..CampaignConfig::default()
            },
            quota: quotas[0],
            units: if traced {
                sizes.traced_units
            } else {
                sizes.campaign_units
            },
        }
    }
}

impl Driver for CampaignDriver {
    fn pass_units(&self) -> u64 {
        self.units
    }

    fn unit(&mut self, i: u64, spans: &mut Spans, _samples: &mut Vec<f64>) -> UnitOut {
        // Unit i is a one-shard campaign against every service, seeded by
        // unit, in a seed-shuffled order, so each timed unit holds the
        // whole service mix.
        let quota = self.quota;
        let cfg = CampaignConfig {
            seed: mix(self.seed, i),
            ..self.cfg
        };
        let mut out = UnitOut::default();
        for iface in shuffled(self.seed, i).map(Iface::name) {
            let t = Instant::now();
            let res = spans.record("swifi.run_shard", i, |_| run_shard(iface, &cfg, 0));
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let row = &res.row;
            out.ops += quota;
            out.failed += quota.saturating_sub(row.injected);
            // An approximation: `run_shard` does not report its boots.
            // It also reboots after a wedged injection it tallies as
            // undetected (not counted here), and does not reboot after
            // an outcome on its last slot (counted here).
            out.boots += 1 + row.segfault + row.propagated + row.other + row.degraded;
            out.by_label.push((iface, quota, ns));
            if row.injected != quota {
                out.violation.get_or_insert(Violation::ShardQuota {
                    iface,
                    unit: i,
                    injected: row.injected,
                    quota,
                });
            }
            if self.traced {
                out.events += res.trace.iter().map(|s| s.events.len() as u64).sum::<u64>();
                // Each encoding is dropped once its length is taken.
                let trace = &res.trace;
                let jsonl = spans.record("artifact.jsonl", i, |_| {
                    composite::shards_to_jsonl(trace).len()
                });
                spans.record("artifact.chrome", i, |_| {
                    black_box(composite::shards_to_chrome(trace).len())
                });
                spans.record("artifact.series", i, |_| {
                    black_box(res.series.to_json_lines(iface).len())
                });
                out.bytes += jsonl as u64;
            }
            out.metrics.merge(&res.metrics);
            out.row.merge(&res.row);
        }
        out
    }

    fn check_pass(&self, pass: &Pass) -> Option<Violation> {
        // The paper's Table II success rates span 88.6-96.1%; the band
        // allows 85-97%. It is only meaningful over enough faults.
        let activated = pass.row.activated();
        let rate = pass.row.success_rate();
        (activated >= 500 && !(0.85..=0.97).contains(&rate))
            .then_some(Violation::SuccessBand { rate, activated })
    }
}

struct WebDriver {
    cfg: Fig7Config,
    reps: u64,
}

impl Driver for WebDriver {
    fn pass_units(&self) -> u64 {
        self.reps
    }

    fn unit(&mut self, rep: u64, spans: &mut Spans, _samples: &mut Vec<f64>) -> UnitOut {
        let variant = WebVariant::SuperGlue { faults: true };
        let r = spans.record("web.run_fig7_rep", rep, |_| {
            run_fig7_rep(variant, &self.cfg, rep)
        });
        let whole = usize::try_from(self.cfg.duration.as_nanos() / 1_000_000_000).unwrap_or(0);
        let empty = r.series.buckets().iter().take(whole).position(|&b| b == 0);
        let violation = if r.unrecovered > 0 {
            Some(Violation::Unrecovered {
                rep,
                faults: r.unrecovered,
            })
        } else {
            empty.map(|second| Violation::EmptySecond { rep, second })
        };
        UnitOut {
            ops: r.total_requests,
            failed: if violation.is_some() {
                r.total_requests
            } else {
                0
            },
            boots: 1,
            sim_ns: self.cfg.duration.as_nanos(),
            metrics: r.metrics,
            violation,
            ..UnitOut::default()
        }
    }
}

struct PipelineDriver {
    cfg: PipelineConfig,
    oracle: Vec<String>,
    poisons: u64,
    reps: u64,
}

impl Driver for PipelineDriver {
    fn pass_units(&self) -> u64 {
        self.reps
    }

    fn unit(&mut self, rep: u64, spans: &mut Spans, _samples: &mut Vec<f64>) -> UnitOut {
        let variant = PipelineVariant::SuperGlue { faults: true };
        let r = spans.record("pipeline.run_pipeline_rep", rep, |_| {
            run_pipeline_rep(variant, &self.cfg, rep)
        });
        let expected = self.oracle.len() as u64;
        let matching = r
            .output
            .iter()
            .zip(&self.oracle)
            .filter(|(a, b)| a == b)
            .count() as u64;
        let reboots: u64 = r.metrics.rows.values().map(|row| row.reboots).sum();
        let cap = self.poisons * self.cfg.poison_limit + r.faults_injected;
        let violation = if r.output != self.oracle {
            Some(Violation::OutputMismatch {
                rep,
                matching,
                expected,
            })
        } else if r.unrecovered > 0 {
            Some(Violation::Unrecovered {
                rep,
                faults: r.unrecovered,
            })
        } else if r.dead_letters != self.poisons {
            Some(Violation::DeadLetters {
                rep,
                got: r.dead_letters,
                expected: self.poisons,
            })
        } else if reboots > cap {
            Some(Violation::RebootCap { rep, reboots, cap })
        } else {
            None
        };
        UnitOut {
            ops: self.cfg.jobs,
            failed: expected - matching.min(expected),
            boots: 1,
            sim_ns: r.wall.as_nanos(),
            metrics: r.metrics,
            violation,
            ..UnitOut::default()
        }
    }
}

/// Time one round in this many for `op_us_*`; timing every round would
/// keep millions of samples in memory.
const INVOKE_SAMPLE_EVERY: u64 = 8;

struct InvokeDriver {
    rig: Rig,
    seed: u64,
    rounds: u64,
    batches: u64,
}

impl InvokeDriver {
    fn new(seed: u64, sizes: &Sizes) -> Self {
        let mut rig = Rig::build(Variant::SuperGlue, false);
        // A failed warm-up call fails again, and is reported, in the
        // timed loop.
        for iface in IFACES {
            for seq in 0..50 {
                let _ = black_box(rig.iteration(iface, seq));
            }
        }
        Self {
            rig,
            seed,
            rounds: sizes.invoke_rounds,
            batches: sizes.invoke_batches,
        }
    }
}

impl Driver for InvokeDriver {
    fn pass_units(&self) -> u64 {
        self.batches
    }

    fn samples_per_unit(&self) -> bool {
        false
    }

    fn unit(&mut self, i: u64, spans: &mut Spans, samples: &mut Vec<f64>) -> UnitOut {
        let mut out = UnitOut::default();
        spans.record("c3.interface_call_batch", i, |_| {
            // A round is one iteration of every service in a seed-shuffled
            // order, so a timed round always holds the whole mix.
            for r in i * self.rounds..(i + 1) * self.rounds {
                let t = Instant::now();
                let mut calls = 0;
                for (k, iface) in (0..).zip(shuffled(self.seed, r)) {
                    match self.rig.iteration(iface, 6 * r + k) {
                        Ok(n) => calls += u64::from(n),
                        Err(e) => {
                            calls += 1;
                            out.failed += 1;
                            out.violation.get_or_insert(Violation::Call(e));
                        }
                    }
                }
                if r % INVOKE_SAMPLE_EVERY == 0 {
                    samples.push(t.elapsed().as_nanos() as f64 / calls as f64 / 1e3);
                }
                out.ops += calls;
            }
        });
        if i + 1 == self.batches {
            out.metrics = MetricsSnapshot::from_kernel(self.rig.tb.runtime.kernel());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(7, 3);
        let mut sorted = a;
        sorted.sort();
        assert_eq!(sorted, IFACES);
        assert_eq!(a, shuffled(7, 3));
        assert!((0..20).any(|r| shuffled(7, r) != a));
    }
}
