//! The `ab`-style load generator and the Fig 7 experiment driver.
//!
//! Builds one of the four systems Fig 7 compares, drives N concurrent
//! closed-loop connections, optionally injects a fault into a rotating
//! system component every `fault_period`, and reports the per-second
//! throughput series plus summary statistics.

use std::cell::RefCell;
use std::rc::Rc;

use composite::{
    mix, CostModel, Executor, InterfaceCall, Kernel, KernelAccess, MetricsSnapshot, Priority,
    RunExit, SeriesSnapshot, SimTime, StepResult, ThreadId, TraceShard, Value, Workload,
    DEFAULT_TRACE_CAPACITY,
};
use sg_c3::{FtRuntime, RecoveryPolicy};
use sg_services::api::ClientEnd;
use superglue::testbed::{Testbed, Variant};

use crate::apache::ApacheService;
use crate::http::Request;
use crate::pipeline::{ConnEnds, Housekeeper, Logger, Site, WebConnection};
use crate::throughput::ThroughputSeries;

/// The four systems of Fig 7 (faulted variants add an injection every
/// `fault_period`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebVariant {
    /// Apache on Linux: the monolithic comparator.
    Apache,
    /// Base COMPOSITE: componentized, no fault tolerance.
    Composite,
    /// COMPOSITE with C³ (hand-written stubs).
    C3 {
        /// Inject a fault into a rotating service every period.
        faults: bool,
    },
    /// COMPOSITE with SuperGlue (generated stubs).
    SuperGlue {
        /// Inject a fault into a rotating service every period.
        faults: bool,
    },
}

impl std::fmt::Display for WebVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebVariant::Apache => f.write_str("Apache/Linux"),
            WebVariant::Composite => f.write_str("COMPOSITE"),
            WebVariant::C3 { faults: false } => f.write_str("COMPOSITE+C3"),
            WebVariant::C3 { faults: true } => f.write_str("COMPOSITE+C3 (faults)"),
            WebVariant::SuperGlue { faults: false } => f.write_str("COMPOSITE+SuperGlue"),
            WebVariant::SuperGlue { faults: true } => f.write_str("COMPOSITE+SuperGlue (faults)"),
        }
    }
}

/// Fig 7 experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Config {
    /// Concurrent connections (`ab -c`, the paper uses 10).
    pub connections: usize,
    /// Virtual run duration (the paper runs one minute per repetition).
    pub duration: SimTime,
    /// Total request budget across all connections (`ab -n`; the paper
    /// sends 50 000). `None` runs for the full duration.
    pub request_budget: Option<u64>,
    /// Per-request application handler work.
    pub handler_work: SimTime,
    /// Map/unmap a request buffer every N requests.
    pub mm_every: u32,
    /// Trigger the log event every N requests (batched logging).
    pub log_every: u32,
    /// Fault-injection period for the faulted variants.
    pub fault_period: SimTime,
    /// Experiment seed: repetition `rep` phase-shifts the fault schedule
    /// by `mix(seed, rep) % fault_period` (repetition 0 keeps phase 0).
    pub seed: u64,
    /// Repetitions per variant (the paper averages several one-minute
    /// runs). Repetitions only differ in their fault-schedule phase.
    pub repetitions: u64,
    /// Record a flight-recorder trace of each run (off by default;
    /// enabled by the harness's `--trace` flag).
    pub trace: bool,
    /// Windowed-telemetry window width ([`SimTime::ZERO`] = off;
    /// enabled by the harness's `--series` flag).
    pub series_window: SimTime,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            connections: 10,
            duration: SimTime::from_secs(60),
            request_budget: None,
            handler_work: SimTime::from_micros(56),
            mm_every: 8,
            log_every: 4,
            fault_period: SimTime::from_secs(10),
            seed: 0xF167_0007,
            repetitions: 1,
            trace: false,
            series_window: SimTime::ZERO,
        }
    }
}

impl Fig7Config {
    /// Phase offset for repetition `rep`'s fault schedule, in
    /// `[0, fault_period)`. Repetition 0 always has phase 0, so a
    /// single-repetition run reproduces the unphased schedule exactly.
    #[must_use]
    pub fn fault_phase(&self, rep: u64) -> SimTime {
        if rep == 0 || self.fault_period.as_nanos() == 0 {
            SimTime::ZERO
        } else {
            SimTime(mix(self.seed, rep) % self.fault_period.as_nanos())
        }
    }
}

/// Calibrated virtual-time costs for the web-server experiment. The
/// ratios (not the absolute values) are the experimental claim; see
/// `EXPERIMENTS.md` for the calibration notes.
#[must_use]
pub fn web_cost_model(variant: WebVariant) -> CostModel {
    let tracking = match variant {
        WebVariant::Apache | WebVariant::Composite => SimTime::ZERO,
        // SuperGlue's generic, table-driven stubs cost slightly more per
        // call than C³'s specialized hand-written ones — the 10.5% vs
        // 11.84% gap of Fig 7 (also measured for real by the fig6
        // harness).
        WebVariant::C3 { .. } => SimTime(1_000),
        WebVariant::SuperGlue { .. } => SimTime(1_130),
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

/// The outcome of one Fig 7 run.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Which system ran.
    pub variant: WebVariant,
    /// Per-second throughput buckets.
    pub series: ThroughputSeries,
    /// Mean requests/second over closed buckets.
    pub mean_rps: f64,
    /// Standard deviation of the per-second rate.
    pub stdev_rps: f64,
    /// Total completed requests.
    pub total_requests: u64,
    /// Faults injected (faulted variants).
    pub faults_injected: u64,
    /// Unrecovered faults observed (must stay 0 for FT variants).
    pub unrecovered: u64,
    /// Per-component recovery-observability counters for this run.
    pub metrics: MetricsSnapshot,
    /// Windowed telemetry of the run (empty unless
    /// [`Fig7Config::series_window`] is nonzero).
    pub telemetry: SeriesSnapshot,
    /// Flight-recorder trace of the run (when [`Fig7Config::trace`]).
    pub trace: Option<TraceShard>,
}

/// A closed-loop Apache client connection.
#[derive(Debug)]
struct ApacheConn {
    end: ClientEnd,
    series: Rc<RefCell<ThroughputSeries>>,
}

impl<Ctx: InterfaceCall + KernelAccess> Workload<Ctx> for ApacheConn {
    fn step(&mut self, ctx: &mut Ctx, _thread: ThreadId) -> StepResult {
        let raw = Request::get("/index.html");
        match self.end.call(ctx, "handle", &[Value::from(raw)]) {
            Ok(_) => {
                let now = ctx.kernel().now();
                self.series.borrow_mut().record(now);
                StepResult::Yield
            }
            Err(e) => StepResult::Crashed(e.to_string()),
        }
    }
}

fn run_apache(cfg: &Fig7Config, rep: u64) -> Fig7Result {
    let mut k = Kernel::with_costs(web_cost_model(WebVariant::Apache));
    if cfg.trace {
        k.enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    if cfg.series_window > SimTime::ZERO {
        k.enable_telemetry(cfg.series_window);
    }
    let client = k.add_client_component("ab");
    let mut site = std::collections::BTreeMap::new();
    site.insert("/index.html".to_owned(), vec![b'x'; 1024]);
    let apache = k.add_component(
        "apache",
        Box::new(ApacheService::new(site, cfg.handler_work)),
    );
    k.grant(client, apache);

    let series = Rc::new(RefCell::new(ThroughputSeries::per_second()));
    let mut ex: Executor<Kernel> = Executor::new();
    for _ in 0..cfg.connections {
        let t = k.create_thread(client, Priority(5));
        ex.attach(
            t,
            Box::new(ApacheConn {
                end: ClientEnd::new(client, t, apache),
                series: series.clone(),
            }),
        );
    }
    while k.now() < cfg.duration {
        if ex.run(&mut k, 8_192) != RunExit::StepLimit {
            break;
        }
    }
    let metrics = MetricsSnapshot::from_kernel(&k);
    let telemetry = SeriesSnapshot::from_kernel(&k);
    let trace = take_run_trace(&mut k, WebVariant::Apache, rep);
    drop(ex);
    let series = Rc::try_unwrap(series)
        .expect("workloads dropped")
        .into_inner();
    let mean = series.mean_rps(cfg.duration);
    let stdev = series.stdev_rps(cfg.duration);
    Fig7Result {
        variant: WebVariant::Apache,
        total_requests: series.total(),
        mean_rps: mean,
        stdev_rps: stdev,
        series,
        faults_injected: 0,
        unrecovered: 0,
        metrics,
        telemetry,
        trace,
    }
}

/// Drain the run's flight recorder into a labeled shard (None when
/// tracing was never enabled).
fn take_run_trace(kernel: &mut Kernel, variant: WebVariant, rep: u64) -> Option<TraceShard> {
    if !kernel.tracing_enabled() {
        return None;
    }
    let mut shard = TraceShard::labeled(&format!("fig7/{variant}/rep{rep}"));
    let label = shard.label.clone();
    shard.absorb(kernel.take_trace(&label));
    Some(shard)
}

/// Pre-create the site resources through the (possibly stubbed) runtime
/// so every descriptor is tracked from birth.
fn setup_site(
    tb: &mut Testbed,
    setup_thread: ThreadId,
    cfg: &Fig7Config,
    series: Rc<RefCell<ThroughputSeries>>,
) -> Site {
    let ids = tb.ids;
    let app = ids.app1;
    let session_lock = tb
        .runtime
        .interface_call(
            app,
            setup_thread,
            ids.lock,
            "lock_alloc",
            &[Value::from(app.0)],
        )
        .expect("lock_alloc")
        .int()
        .expect("lock id");
    let log_evt = tb
        .runtime
        .interface_call(
            app,
            setup_thread,
            ids.evt,
            "evt_split",
            &[Value::from(app.0), Value::Int(0), Value::Int(1)],
        )
        .expect("evt_split")
        .int()
        .expect("evt id");
    let pages = vec![
        ("/index.html".to_owned(), "index.html".to_owned()),
        ("/style.css".to_owned(), "style.css".to_owned()),
    ];
    for (_, file) in &pages {
        let fd = tb
            .runtime
            .interface_call(
                app,
                setup_thread,
                ids.fs,
                "tsplit",
                &[
                    Value::from(app.0),
                    Value::Int(0),
                    Value::from(file.as_str()),
                ],
            )
            .expect("tsplit")
            .int()
            .expect("fd");
        tb.runtime
            .interface_call(
                app,
                setup_thread,
                ids.fs,
                "twrite",
                &[
                    Value::from(app.0),
                    Value::Int(fd),
                    Value::from(vec![b'x'; 1024]),
                ],
            )
            .expect("twrite");
        tb.runtime
            .interface_call(
                app,
                setup_thread,
                ids.fs,
                "trelease",
                &[Value::from(app.0), Value::Int(fd)],
            )
            .expect("trelease");
    }
    Site {
        session_lock,
        log_evt,
        pages,
        work: cfg.handler_work,
        mm_every: cfg.mm_every,
        log_every: cfg.log_every,
        series,
    }
}

fn run_composite(variant: WebVariant, cfg: &Fig7Config, rep: u64) -> Fig7Result {
    let (tb_variant, faults) = match variant {
        WebVariant::Composite => (Variant::Bare, false),
        WebVariant::C3 { faults } => (Variant::C3, faults),
        WebVariant::SuperGlue { faults } => (Variant::SuperGlue, faults),
        WebVariant::Apache => unreachable!("handled by run_apache"),
    };
    let mut tb = Testbed::build_with(
        tb_variant,
        web_cost_model(variant),
        RecoveryPolicy::OnDemand,
    )
    .expect("testbed builds");
    if cfg.trace {
        tb.runtime
            .kernel_mut()
            .enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    if cfg.series_window > SimTime::ZERO {
        tb.runtime.kernel_mut().enable_telemetry(cfg.series_window);
    }

    let series = Rc::new(RefCell::new(ThroughputSeries::per_second()));
    let setup_thread = tb.spawn_thread(tb.ids.app1, Priority(3));
    let site = Rc::new(setup_site(&mut tb, setup_thread, cfg, series.clone()));

    let ids = tb.ids;
    let mut ex: Executor<FtRuntime> = Executor::new();
    let per_conn_budget = cfg.request_budget.map(|n| n / cfg.connections as u64);
    for i in 0..cfg.connections {
        let t = tb.spawn_thread(ids.app1, Priority(5));
        let ends = ConnEnds {
            lock: ClientEnd::new(ids.app1, t, ids.lock),
            fs: ClientEnd::new(ids.app1, t, ids.fs),
            evt: ClientEnd::new(ids.app1, t, ids.evt),
            mm: ClientEnd::new(ids.app1, t, ids.mm),
            sched: ClientEnd::new(ids.app1, t, ids.sched),
        };
        ex.attach(
            t,
            Box::new(WebConnection::new(
                ends,
                site.clone(),
                per_conn_budget,
                i as u64,
            )),
        );
    }
    // Logger lives in a different component: the log event's global id
    // crosses the namespace exactly like the paper's setup.
    let tl = tb.spawn_thread(ids.app2, Priority(6));
    ex.attach(
        tl,
        Box::new(Logger::new(
            ClientEnd::new(ids.app2, tl, ids.evt),
            ClientEnd::new(ids.app2, tl, ids.fs),
            site.log_evt,
        )),
    );
    let th = tb.spawn_thread(ids.app1, Priority(6));
    ex.attach(
        th,
        Box::new(Housekeeper::new(
            ClientEnd::new(ids.app1, th, ids.tmr),
            SimTime::from_secs(1).as_nanos() as i64,
        )),
    );

    let rotation = [ids.sched, ids.mm, ids.fs, ids.lock, ids.evt, ids.tmr];
    let mut next_fault = cfg.fault_period + cfg.fault_phase(rep);
    let mut faults_injected = 0u64;

    while tb.runtime.kernel().now() < cfg.duration {
        if cfg
            .request_budget
            .is_some_and(|n| series.borrow().total() >= n)
        {
            break;
        }
        if faults && tb.runtime.kernel().now() >= next_fault {
            let target = rotation[(faults_injected as usize) % rotation.len()];
            tb.runtime.inject_fault(target);
            faults_injected += 1;
            next_fault += cfg.fault_period;
        }
        if ex.run(&mut tb.runtime, 8_192) != RunExit::StepLimit {
            break;
        }
    }

    let metrics = MetricsSnapshot::from_kernel(tb.runtime.kernel());
    let telemetry = SeriesSnapshot::from_kernel(tb.runtime.kernel());
    let trace = take_run_trace(tb.runtime.kernel_mut(), variant, rep);
    drop(ex);
    drop(site);
    let series = Rc::try_unwrap(series)
        .expect("workloads dropped")
        .into_inner();
    let mean = series.mean_rps(cfg.duration);
    let stdev = series.stdev_rps(cfg.duration);
    Fig7Result {
        variant,
        total_requests: series.total(),
        mean_rps: mean,
        stdev_rps: stdev,
        series,
        faults_injected,
        unrecovered: tb.runtime.stats().unrecovered,
        metrics,
        telemetry,
        trace,
    }
}

/// Run one Fig 7 variant to completion (repetition 0's fault schedule).
#[must_use]
pub fn run_fig7_variant(variant: WebVariant, cfg: &Fig7Config) -> Fig7Result {
    run_fig7_rep(variant, cfg, 0)
}

/// Run one repetition of a Fig 7 variant. Repetitions differ only in
/// the phase of the fault schedule ([`Fig7Config::fault_phase`]), so
/// every `(variant, rep)` pair is an independent, deterministic unit of
/// work that can run on any worker thread.
#[must_use]
pub fn run_fig7_rep(variant: WebVariant, cfg: &Fig7Config, rep: u64) -> Fig7Result {
    match variant {
        WebVariant::Apache => run_apache(cfg, rep),
        other => run_composite(other, cfg, rep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg() -> Fig7Config {
        Fig7Config {
            duration: SimTime::from_secs(2),
            ..Fig7Config::default()
        }
    }

    #[test]
    fn apache_outpaces_base_composite() {
        let cfg = short_cfg();
        let apache = run_fig7_variant(WebVariant::Apache, &cfg);
        let composite = run_fig7_variant(WebVariant::Composite, &cfg);
        assert!(apache.total_requests > 0 && composite.total_requests > 0);
        assert!(
            apache.mean_rps > composite.mean_rps,
            "apache {} vs composite {}",
            apache.mean_rps,
            composite.mean_rps
        );
        // The paper's gap is ~8%; accept a generous band.
        let gap = 1.0 - composite.mean_rps / apache.mean_rps;
        assert!((0.01..0.25).contains(&gap), "gap {gap}");
    }

    #[test]
    fn tracking_slows_ft_variants_superglue_slightly_more() {
        let cfg = short_cfg();
        let composite = run_fig7_variant(WebVariant::Composite, &cfg);
        let c3 = run_fig7_variant(WebVariant::C3 { faults: false }, &cfg);
        let sg = run_fig7_variant(WebVariant::SuperGlue { faults: false }, &cfg);
        let c3_slow = 1.0 - c3.mean_rps / composite.mean_rps;
        let sg_slow = 1.0 - sg.mean_rps / composite.mean_rps;
        assert!(c3_slow > 0.03 && c3_slow < 0.25, "c3 slowdown {c3_slow}");
        assert!(
            sg_slow > c3_slow,
            "superglue ({sg_slow}) must trail c3 ({c3_slow})"
        );
    }

    #[test]
    fn faulted_superglue_recovers_and_keeps_serving() {
        let cfg = Fig7Config {
            duration: SimTime::from_secs(4),
            fault_period: SimTime::from_secs(1),
            ..Fig7Config::default()
        };
        let r = run_fig7_variant(WebVariant::SuperGlue { faults: true }, &cfg);
        assert!(r.faults_injected >= 3, "{r:?}");
        assert_eq!(r.unrecovered, 0, "{r:?}");
        // Throughput never collapses to zero in any closed bucket.
        let whole = (cfg.duration.as_nanos() / 1_000_000_000) as usize;
        for (i, &b) in r.series.buckets().iter().take(whole).enumerate() {
            assert!(
                b > 0,
                "bucket {i} dropped to zero: {:?}",
                r.series.buckets()
            );
        }
    }

    #[test]
    fn request_budget_caps_the_run_like_ab() {
        // `ab -n 5000 -c 10`: the run ends when the budget is consumed,
        // well before the duration limit.
        let cfg = Fig7Config {
            duration: SimTime::from_secs(30),
            request_budget: Some(5_000),
            ..Fig7Config::default()
        };
        let r = run_fig7_variant(WebVariant::SuperGlue { faults: false }, &cfg);
        assert!(r.total_requests >= 5_000, "{r:?}");
        assert!(r.total_requests < 6_000, "budget must cap the run: {r:?}");
    }

    #[test]
    fn logger_and_housekeeper_make_progress() {
        // Covered indirectly: a run with faults in evt/tmr must stay
        // recoverable, which only happens when those services hold live
        // descriptors.
        let cfg = Fig7Config {
            duration: SimTime::from_secs(2),
            fault_period: SimTime::from_millis(300),
            ..Fig7Config::default()
        };
        let r = run_fig7_variant(WebVariant::C3 { faults: true }, &cfg);
        assert_eq!(r.unrecovered, 0);
        assert!(r.total_requests > 0);
    }
}
