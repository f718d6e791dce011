//! Ablation benches for the design choices DESIGN.md §5 calls out.
//!
//! Run with `cargo run -p sg-bench --release --bin ablations`. The
//! three ablations are independent and run across worker threads
//! (`--jobs N`, default: available parallelism); their reports print in
//! ablation order regardless of the job count.
//!
//! `--trace PATH` records a flight-recorder trace of the recovery-policy
//! and G1 ablation kernels as JSON-lines at PATH. The tracking ablations
//! (2 and 3) record neither trace nor series, so their 100,000 calls
//! stay out of both artifacts.
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
use sg_services::api::{lock, ClientEnd};
use superglue::testbed::{Testbed, Variant};

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

/// Ablations 2 and 3 on the shipped SuperGlue lock stub: the bounded
/// descriptor tracking it keeps vs the operation log §II-C rejects, and
/// the shortest walk it replays after a fault vs a full-history replay.
fn ablation_tracker(_opts: &AblationOpts) -> AblationOutput {
    const OPS: usize = 100_000;
    let mut out = String::new();
    let mut tb = Testbed::build(Variant::SuperGlue).expect("testbed builds");
    let t = tb.spawn_thread(tb.ids.app1, Priority(5));
    let end = ClientEnd::new(tb.ids.app1, t, tb.ids.lock);
    let rt = &mut tb.runtime;
    let id = lock::alloc(rt, &end).expect("alloc");
    // The operation log: every call made on the descriptor, in order.
    let mut log = vec![(id, "lock_alloc")];
    for i in 0..OPS {
        if i % 2 == 0 {
            lock::take(rt, &end, id).expect("take");
            log.push((id, "lock_take"));
        } else {
            lock::release(rt, &end, id).expect("release");
            log.push((id, "lock_release"));
        }
    }
    let tracked = tb.total_tracked();
    assert_eq!(tracked, 1, "the stub tracks one descriptor per live lock");
    let _ = writeln!(
        out,
        "\n== Ablation 2: state-machine tracking vs operation log =="
    );
    let _ = writeln!(
        out,
        "  after {OPS} lock_take/lock_release calls on one lock (SuperGlue lock stub):\n\
         \x20   descriptors the stub tracks: {tracked:>10} (bounded by live locks)\n\
         \x20   operation-log entries:       {:>10} ({} bytes, unbounded growth)",
        log.len(),
        log.len() * std::mem::size_of_val(&log[0])
    );

    let _ = writeln!(
        out,
        "\n== Ablation 3: shortest recovery walk vs full-history replay =="
    );
    let before = tb.runtime.stats().walk_steps_replayed;
    tb.runtime.inject_fault(tb.ids.lock);
    lock::take(&mut tb.runtime, &end, id).expect("take after the fault");
    let walk = tb.runtime.stats().walk_steps_replayed - before;
    let logged = log.len() as u64;
    assert!(
        walk > 0 && walk < logged,
        "recovery replayed {walk} calls against a log of {logged}"
    );
    let _ = writeln!(
        out,
        "  after a fault in lock, the next lock_take replayed a {walk}-call walk to rebuild\n\
         \x20 the lock; a log replay would re-execute {logged} calls ({}x more recovery work)",
        logged / walk
    );
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
