//! The shipped IDL compiles once per process, and every installed stub
//! shares its interface's one compiled spec. This binary holds a single
//! test, so its first compile calls are the process's first.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use superglue::sources::{compile_all, compile_all_elided};
use superglue::testbed::{Testbed, Variant};
use superglue_compiler::Compilation;

type Compiled = &'static BTreeMap<&'static str, Compilation>;

/// As many threads as a `--jobs 8` campaign runs shards on.
const THREADS: usize = 8;

/// Each interface's stub-spec reference count, in interface-name order.
fn counts(compiled: Compiled) -> Vec<usize> {
    compiled
        .values()
        .map(|c| Arc::strong_count(&c.stub_spec))
        .collect()
}

fn plus(counts: &[usize], n: usize) -> Vec<usize> {
    counts.iter().map(|c| c + n).collect()
}

#[test]
fn shipped_idl_compiles_once_and_stubs_share_one_spec() {
    let barrier = Barrier::new(THREADS);
    let firsts: Vec<(Compiled, Compiled)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    (
                        compile_all().expect("shipped IDL compiles"),
                        compile_all_elided().expect("shipped elisions certify"),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker finishes"))
            .collect()
    });
    let (tracked, elided) = firsts[0];
    for (t, e) in &firsts {
        assert!(std::ptr::eq(*t, tracked), "one tracked compilation");
        assert!(std::ptr::eq(*e, elided), "one elided compilation");
    }
    assert_eq!(tracked.len(), 6);
    for (iface, c) in tracked {
        assert!(
            !Arc::ptr_eq(&c.stub_spec, &elided[iface].stub_spec),
            "{iface}: the elided spec is its own allocation"
        );
    }

    // Each SuperGlue testbed installs one stub per (client app,
    // interface): two apps, so two testbeds hold four references.
    let (t0, e0) = (counts(tracked), counts(elided));
    let beds = [
        Testbed::build(Variant::SuperGlue).expect("builds"),
        Testbed::build(Variant::SuperGlue).expect("builds"),
    ];
    assert_eq!(counts(tracked), plus(&t0, 4));
    assert_eq!(counts(elided), e0);
    drop(beds);
    assert_eq!(counts(tracked), t0);

    let beds = [
        Testbed::build_elided(Variant::SuperGlue, true).expect("builds"),
        Testbed::build_elided(Variant::SuperGlue, true).expect("builds"),
    ];
    assert_eq!(counts(elided), plus(&e0, 4));
    assert_eq!(counts(tracked), t0);
    drop(beds);
    assert_eq!(counts(elided), e0);
}
