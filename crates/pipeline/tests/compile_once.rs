//! `chan.sg` compiles once per process, and every channel stub of a
//! pipeline shares its one compiled spec. This binary holds a single
//! test, so its first compile call is the process's first.

use std::sync::{Arc, Barrier};

use sg_pipeline::{build_pipeline, compile_chan, PipelineConfig, PipelineVariant};
use superglue_compiler::Compilation;

/// As many threads as a `--jobs 8` campaign runs shards on.
const THREADS: usize = 8;

#[test]
fn chan_compiles_once_and_stubs_share_one_spec() {
    let barrier = Barrier::new(THREADS);
    let firsts: Vec<&'static Compilation> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    compile_chan()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker finishes"))
            .collect()
    });
    let chan = firsts[0];
    for c in &firsts {
        assert!(std::ptr::eq(*c, chan), "one chan compilation");
    }

    // Four stub edges: generator and worker on the first channel,
    // worker and logger on the second.
    let before = Arc::strong_count(&chan.stub_spec);
    let bed = build_pipeline(
        PipelineVariant::SuperGlue { faults: true },
        &PipelineConfig::default(),
    );
    assert_eq!(Arc::strong_count(&chan.stub_spec), before + 4);
    drop(bed);
    assert_eq!(Arc::strong_count(&chan.stub_spec), before);
}
