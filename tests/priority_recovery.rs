//! The real-time argument behind on-demand recovery (§II-C / the RTSS'13
//! schedulability analysis the paper builds on): descriptors recover *at
//! the priority of the thread accessing them*, so a high-priority
//! request after a fault pays for its own descriptor only — not for the
//! backlog of low-priority state.

use composite::{
    CostModel, InterfaceCall as _, KernelAccess as _, Mechanism, Priority, SimTime, Value,
};
use sg_c3::RecoveryPolicy;
use superglue::testbed::{Testbed, Variant};

const LOW_PRIO_DESCRIPTORS: usize = 256;

fn build(policy: RecoveryPolicy) -> (Testbed, composite::ThreadId, i64) {
    let mut tb = Testbed::build_with(Variant::SuperGlue, CostModel::paper_defaults(), policy)
        .expect("testbed builds");
    let lo = tb.spawn_thread(tb.ids.app1, Priority(200));
    let hi = tb.spawn_thread(tb.ids.app1, Priority(1));
    let (app, lock) = (tb.ids.app1, tb.ids.lock);
    // The low-priority thread litters the edge with descriptors.
    for _ in 0..LOW_PRIO_DESCRIPTORS {
        tb.runtime
            .interface_call(app, lo, lock, "lock_alloc", &[Value::from(app.0)])
            .expect("alloc");
    }
    // The high-priority thread owns exactly one.
    let hi_desc = tb
        .runtime
        .interface_call(app, hi, lock, "lock_alloc", &[Value::from(app.0)])
        .expect("alloc")
        .int()
        .expect("id");
    (tb, hi, hi_desc)
}

/// Descriptors rebuilt so far: the kernel's R0 count.
fn recovered(tb: &Testbed) -> u64 {
    let counters = tb.runtime.kernel().counters();
    counters.total(|r| r.mechanisms[Mechanism::R0.index()])
}

#[test]
fn on_demand_recovery_charges_the_high_priority_thread_for_one_descriptor() {
    let (mut tb, hi, hi_desc) = build(RecoveryPolicy::OnDemand);
    tb.runtime.inject_fault(tb.ids.lock);
    let before = tb.runtime.kernel().now();
    tb.runtime
        .interface_call(
            tb.ids.app1,
            hi,
            tb.ids.lock,
            "lock_take",
            &[Value::Int(1), Value::Int(hi_desc)],
        )
        .expect("take after recovery");
    let latency = tb.runtime.kernel().now().saturating_sub(before);
    // Exactly one descriptor was rebuilt before the request completed.
    assert_eq!(recovered(&tb), 1);
    // Latency is bounded by reboot + one walk, independent of the
    // low-priority backlog.
    let costs = CostModel::paper_defaults();
    let bound = costs.micro_reboot
        + SimTime(costs.recovery_step.as_nanos() * 4)
        + SimTime(costs.invocation.as_nanos() * 8)
        + SimTime(costs.tracking.as_nanos() * 4);
    assert!(
        latency <= bound,
        "on-demand latency {latency} exceeded the single-descriptor bound {bound}"
    );
}

#[test]
fn eager_recovery_pays_for_the_whole_backlog_first() {
    let (mut tb, hi, hi_desc) = build(RecoveryPolicy::Eager);
    tb.runtime.inject_fault(tb.ids.lock);
    let before = tb.runtime.kernel().now();
    tb.runtime
        .handle_fault_now(tb.ids.lock, hi)
        .expect("eager recovery");
    tb.runtime
        .interface_call(
            tb.ids.app1,
            hi,
            tb.ids.lock,
            "lock_take",
            &[Value::Int(1), Value::Int(hi_desc)],
        )
        .expect("take after recovery");
    let latency = tb.runtime.kernel().now().saturating_sub(before);
    // Every descriptor was recovered before the request completed…
    assert_eq!(recovered(&tb), LOW_PRIO_DESCRIPTORS as u64 + 1);
    // …so the request waited at least a walk per descriptor.
    let per_walk = CostModel::paper_defaults().recovery_step;
    assert!(
        latency >= SimTime(per_walk.as_nanos() * LOW_PRIO_DESCRIPTORS as u64),
        "eager latency {latency} did not reflect the backlog"
    );
}

#[test]
fn on_demand_interference_is_an_order_of_magnitude_below_eager() {
    // The paper's Fig-level claim ("properly prioritizing the recovery
    // process … has a significant impact on system schedulability"),
    // in virtual time.
    let measure = |policy| {
        let (mut tb, hi, hi_desc) = build(policy);
        tb.runtime.inject_fault(tb.ids.lock);
        let before = tb.runtime.kernel().now();
        if policy == RecoveryPolicy::Eager {
            tb.runtime.handle_fault_now(tb.ids.lock, hi).expect("eager");
        }
        tb.runtime
            .interface_call(
                tb.ids.app1,
                hi,
                tb.ids.lock,
                "lock_take",
                &[Value::Int(1), Value::Int(hi_desc)],
            )
            .expect("take");
        tb.runtime.kernel().now().saturating_sub(before)
    };
    let on_demand = measure(RecoveryPolicy::OnDemand);
    let eager = measure(RecoveryPolicy::Eager);
    assert!(
        eager.as_nanos() > 5 * on_demand.as_nanos(),
        "eager {eager} vs on-demand {on_demand}: interference gap too small"
    );
}
