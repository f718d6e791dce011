//! Ablation benches for the design choices DESIGN.md §5 calls out.
//!
//! Run with `cargo run -p sg-bench --release --bin ablations`. The
//! three ablations are independent and run across worker threads
//! (`--jobs N`, default: available parallelism); their reports print in
//! ablation order regardless of the job count.
//!
//! `--trace PATH` records a flight-recorder trace of the ablation
//! kernels (the recovery-policy and G1 ablations; the tracker ablation
//! has no kernel) as JSON-lines at PATH.
//!
//! `--series PATH` dumps windowed recovery telemetry of the same
//! kernels as JSON-lines for `sgstat series` (`--series-window NS`
//! overrides the 1ms default window).

use std::fmt::Write as _;
use std::time::Instant;

use composite::{
    default_jobs, parallel_map_indexed, CostModel, InterfaceCall as _, Kernel, KernelAccess as _,
    Mechanism, Priority, SeriesSnapshot, SimTime, TraceShard, Value, DEFAULT_SERIES_WINDOW,
    DEFAULT_TRACE_CAPACITY,
};
use sg_bench::{Artifacts, HarnessArgs};
use sg_c3::RecoveryPolicy;
use superglue::testbed::{Testbed, Variant};
use superglue_sm::machine::StateMachineBuilder;
use superglue_sm::tracking::{DescId, DescriptorTracker, OperationLog};
use superglue_sm::{DescriptorResourceModel, State};

/// Ablation 1: on-demand (T1) vs eager recovery — what a high-priority
/// client waits for after a fault when many descriptors are live.
fn ablation_policy(opts: &AblationOpts) -> AblationOutput {
    let mut out = String::new();
    let mut shards = Vec::new();
    let mut series = Vec::new();
    let _ = writeln!(out, "== Ablation 1: on-demand (T1) vs eager recovery ==");
    const DESCRIPTORS: usize = 400;
    for policy in [RecoveryPolicy::OnDemand, RecoveryPolicy::Eager] {
        let mut tb = Testbed::build_with(Variant::SuperGlue, CostModel::paper_defaults(), policy)
            .expect("testbed builds");
        if opts.trace {
            tb.runtime
                .kernel_mut()
                .enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
        if opts.series_window > 0 {
            tb.runtime
                .kernel_mut()
                .enable_telemetry(SimTime(opts.series_window));
        }
        let t = tb.spawn_thread(tb.ids.app1, Priority(5));
        let (app, lock) = (tb.ids.app1, tb.ids.lock);
        let mut ids = Vec::new();
        for _ in 0..DESCRIPTORS {
            let id = tb
                .runtime
                .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
                .expect("alloc")
                .int()
                .expect("id");
            ids.push(id);
        }
        tb.runtime.inject_fault(lock);
        let start = Instant::now();
        if policy == RecoveryPolicy::Eager {
            tb.runtime
                .handle_fault_now(lock, t)
                .expect("eager recovery");
        }
        // The "high-priority request": one take on one descriptor.
        tb.runtime
            .interface_call(
                app,
                t,
                lock,
                "lock_take",
                &[Value::Int(1), Value::Int(ids[0])],
            )
            .expect("take");
        let first_us = start.elapsed().as_secs_f64() * 1e6;
        let counters = tb.runtime.kernel().counters();
        let recovered = counters.total(|r| r.mechanisms[Mechanism::R0.index()]);
        let _ = writeln!(
            out,
            "  {policy:?}: first request served after {first_us:8.1} us wall  \
             ({recovered} descriptors recovered before it completed)"
        );
        if opts.series_window > 0 {
            series.push((
                format!("ablations/policy/{policy:?}"),
                SeriesSnapshot::from_kernel(tb.runtime.kernel()),
            ));
        }
        if opts.trace {
            let mut shard = TraceShard::labeled(&format!("ablations/policy/{policy:?}"));
            let label = shard.label.clone();
            shard.absorb(tb.runtime.kernel_mut().take_trace(&label));
            shards.push(shard);
        }
    }
    let _ = writeln!(
        out,
        "  -> on-demand bounds the priority inversion: the first request pays for\n\
         \x20    one descriptor, not all {DESCRIPTORS} (the paper's schedulability argument)."
    );
    (out, shards, series)
}

/// Ablation 2+3: bounded state-machine tracking vs the operation log
/// §II-C rejects, and shortest-walk vs full-history replay.
fn ablation_tracker(_opts: &AblationOpts) -> AblationOutput {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Ablation 2: state-machine tracker vs operation log =="
    );
    let mut b = StateMachineBuilder::new("lock");
    let alloc = b.function("lock_alloc");
    let take = b.function("lock_take");
    let release = b.function("lock_release");
    b.creation(alloc);
    b.transition(alloc, take);
    b.transition(take, release);
    b.transition(release, take);
    let sm = b.build().expect("machine builds");

    const OPS: usize = 100_000;
    let mut tracker = DescriptorTracker::new(DescriptorResourceModel::new());
    let mut log = OperationLog::new();
    tracker.create(DescId(1), alloc, 1, None).expect("create");
    log.record(DescId(1), alloc, vec![]);
    for i in 0..OPS {
        let f = if i % 2 == 0 { take } else { release };
        tracker
            .on_call(&sm, DescId(1), f)
            .expect("valid transition");
        log.record(DescId(1), f, vec![]);
    }
    let _ = writeln!(
        out,
        "  after {OPS} operations on one descriptor:\n\
         \x20   state-machine tracker footprint: {:>10} bytes (bounded)\n\
         \x20   operation-log footprint:         {:>10} bytes (unbounded growth)",
        tracker.footprint(),
        log.footprint()
    );

    let _ = writeln!(
        out,
        "\n== Ablation 3: shortest recovery walk vs full-history replay =="
    );
    let expected = tracker.get(DescId(1)).expect("tracked").state;
    let walk = sm.recovery_walk(expected).expect("reachable");
    let _ = writeln!(
        out,
        "  expected state {:?}: shortest walk replays {} calls; a log replay\n\
         \x20 would re-execute {} calls ({}x more recovery work)",
        expected,
        walk.len(),
        log.replay_for(DescId(1)).len(),
        log.replay_for(DescId(1)).len() / walk.len().max(1)
    );
    let _ = State::Init;
    (out, Vec::new(), Vec::new())
}

/// Ablation 4: G1 redundant storage on vs off — RamFS data survival.
fn ablation_g1(opts: &AblationOpts) -> AblationOutput {
    let mut out = String::new();
    let mut shards = Vec::new();
    let mut series = Vec::new();
    let _ = writeln!(out, "\n== Ablation 4: G1 redundant storage on vs off ==");
    for persist in [true, false] {
        let mut k = Kernel::with_costs(CostModel::free());
        if opts.trace {
            k.enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
        if opts.series_window > 0 {
            k.enable_telemetry(SimTime(opts.series_window));
        }
        let app = k.add_client_component("app");
        let st = k.add_component(
            "storage",
            Box::new(sg_services::storage::StorageService::new()),
        );
        let cb = k.add_component("cbuf", Box::new(sg_services::cbuf::CbufService::new()));
        let fs_svc: Box<dyn composite::Service> = if persist {
            Box::new(sg_services::ramfs::RamFs::new(st, cb))
        } else {
            Box::new(sg_services::ramfs::RamFs::without_persistence(st, cb))
        };
        let fs = k.add_component("fs", fs_svc);
        k.grant(app, fs);
        k.grant(fs, st);
        k.grant(fs, cb);
        let t = k.create_thread(app, Priority(5));
        let fd = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("data")],
            )
            .expect("split")
            .int()
            .expect("fd");
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![7; 64])],
        )
        .expect("write");
        k.fault(fs);
        k.micro_reboot(fs).expect("reboot");
        let fd2 = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("data")],
            )
            .expect("split")
            .int()
            .expect("fd");
        let read = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd2), Value::Int(64)],
            )
            .expect("read");
        let survived = matches!(&read, Value::Bytes(b) if b.len() == 64);
        if opts.series_window > 0 {
            series.push((
                format!("ablations/g1/{}", if persist { "on" } else { "off" }),
                SeriesSnapshot::from_kernel(&k),
            ));
        }
        if opts.trace {
            let mut shard = TraceShard::labeled(&format!(
                "ablations/g1/{}",
                if persist { "on" } else { "off" }
            ));
            let label = shard.label.clone();
            shard.absorb(k.take_trace(&label));
            shards.push(shard);
        }
        let _ = writeln!(
            out,
            "  persistence {}: 64-byte file {} the micro-reboot",
            if persist { "ON (G1) " } else { "OFF      " },
            if survived {
                "SURVIVED"
            } else {
                "was LOST across"
            }
        );
    }
    let _ = writeln!(
        out,
        "  -> without the storage component, interface-driven recovery alone\n\
         \x20    cannot restore resource *data* — the reason G1 exists (SIII-C)."
    );
    (out, shards, series)
}

/// What the harness asked each ablation to capture.
#[derive(Clone, Copy)]
struct AblationOpts {
    trace: bool,
    /// Telemetry window width in simulated ns (0 = off).
    series_window: u64,
}

/// An ablation's report plus any flight-recorder shards and windowed
/// telemetry sections it captured.
type AblationOutput = (String, Vec<TraceShard>, Vec<(String, SeriesSnapshot)>);

/// One ablation: takes the capture options, returns its output.
type Ablation = fn(&AblationOpts) -> AblationOutput;

const USAGE: &str =
    "usage: ablations [--jobs N] [--trace PATH] [--series PATH] [--series-window NS]";

fn main() {
    let mut args = HarnessArgs::from_env(USAGE);
    let jobs = args.parsed("--jobs").unwrap_or_else(default_jobs);
    let mut out =
        Artifacts::from_args(&mut args, &["--trace", "--series"], DEFAULT_SERIES_WINDOW.0);
    args.finish([]);
    let opts = AblationOpts {
        trace: out.trace.is_some(),
        series_window: out.series_window,
    };
    let ablations: [Ablation; 3] = [ablation_policy, ablation_tracker, ablation_g1];
    let mut shards = Vec::new();
    let mut series = Vec::new();
    for (report, mut s, mut t) in
        parallel_map_indexed(ablations.len(), jobs, |i| ablations[i](&opts))
    {
        print!("{report}");
        shards.append(&mut s);
        series.append(&mut t);
    }
    out.trace(shards);
    out.series(series.iter().map(|(c, s)| (c.clone(), s)));
    out.commit();
}
