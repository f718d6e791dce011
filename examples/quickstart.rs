//! Quickstart: build the SuperGlue-protected OS, crash the lock service
//! mid-workload, and watch recovery happen transparently.
//!
//! Run with `cargo run -p sg-bench --example quickstart`.

use composite::{Executor, KernelAccess as _, Mechanism, Priority, RunExit};
use sg_c3::FtRuntime;
use sg_services::api::ClientEnd;
use sg_services::workloads::{shared_desc, LockContender, LockOwner};
use superglue::testbed::{Testbed, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile the six shipped IDL files and assemble the full
    //    simulated COMPOSITE OS with generated stubs on every edge.
    let mut tb = Testbed::build(Variant::SuperGlue)?;
    println!(
        "built {} with {} components",
        tb.variant,
        tb.runtime.kernel().component_count()
    );

    // 2. Attach the paper's Lock workload: one owner, one contender.
    let t1 = tb.spawn_thread(tb.ids.app1, Priority(5));
    let t2 = tb.spawn_thread(tb.ids.app1, Priority(5));
    let shared = shared_desc();
    let mut ex: Executor<FtRuntime> = Executor::new();
    ex.attach(
        t1,
        Box::new(LockOwner::new(
            ClientEnd::new(tb.ids.app1, t1, tb.ids.lock),
            shared.clone(),
            50,
            2,
        )),
    );
    ex.attach(
        t2,
        Box::new(LockContender::new(
            ClientEnd::new(tb.ids.app1, t2, tb.ids.lock),
            shared,
            50,
        )),
    );

    // 3. Run a bit, then crash the lock server (fail-stop transient
    //    fault), twice.
    ex.run(&mut tb.runtime, 60);
    println!("injecting a fault into the lock service...");
    tb.runtime.inject_fault(tb.ids.lock);
    ex.run(&mut tb.runtime, 200);
    println!("injecting a second fault...");
    tb.runtime.inject_fault(tb.ids.lock);

    // 4. The workloads complete anyway: the generated stubs micro-reboot
    //    the server and replay the recovery walks on demand.
    let exit = ex.run(&mut tb.runtime, 1_000_000);
    assert_eq!(exit, RunExit::AllDone);

    let stats = tb.runtime.stats();
    let counters = tb.runtime.kernel().counters();
    println!(
        "workloads completed across {} faults:",
        stats.faults_handled
    );
    println!(
        "  descriptors recovered : {}",
        counters.total(|r| r.mechanisms[Mechanism::R0.index()])
    );
    println!("  walk steps replayed   : {}", stats.walk_steps_replayed);
    println!("  unrecovered faults    : {}", stats.unrecovered);
    assert_eq!(stats.unrecovered, 0);
    println!("ok: recovery was transparent to the application.");
    Ok(())
}
