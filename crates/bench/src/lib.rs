//! Shared machinery for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (§V).
//!
//! | Artifact | Harness | What it reports |
//! |---|---|---|
//! | Fig 6(a) | `cargo run -p sg-bench --release --bin fig6` | per-service descriptor-tracking overhead, SuperGlue vs C³ |
//! | Fig 6(b) | same binary | per-descriptor recovery overhead |
//! | Fig 6(c) | same binary | LOC: SuperGlue IDL vs generated vs hand-written C³ |
//! | Table II | `cargo run -p sg-bench --release --bin table2` | the SWIFI campaign |
//! | Fig 7 | `cargo run -p sg-bench --release --bin fig7` | web-server throughput, 4 systems ± faults |
//! | Ablations | `cargo run -p sg-bench --release --bin ablations` | design-choice deltas (DESIGN.md §5) |

mod cli;
pub mod modelck;
pub mod stat;

pub use cli::{analyzer_exit, series_to_jsonl, Artifacts, HarnessArgs};

use composite::{CallError, ComponentId, InterfaceCall as _, Priority, ThreadId, Value};
use sg_c3::FtRuntime;
use superglue::testbed::{Testbed, Variant};

/// The hand-written C³ stub sources, embedded so Fig 6(c) counts the
/// exact committed code.
pub const C3_STUB_SOURCES: [(&str, &str); 6] = [
    ("sched", include_str!("../../c3/src/stubs/sched.rs")),
    ("mm", include_str!("../../c3/src/stubs/mm.rs")),
    ("fs", include_str!("../../c3/src/stubs/fs.rs")),
    ("lock", include_str!("../../c3/src/stubs/lock.rs")),
    ("evt", include_str!("../../c3/src/stubs/evt.rs")),
    ("tmr", include_str!("../../c3/src/stubs/tmr.rs")),
];

/// Count the non-test, non-comment lines of a hand-written stub source
/// (everything above the `#[cfg(test)]` marker).
#[must_use]
pub fn handwritten_loc(source: &str) -> usize {
    let body = source.split("#[cfg(test)]").next().unwrap_or(source);
    superglue_compiler::count_loc(body)
}

/// A per-service micro-rig: a built system plus one worker thread.
#[derive(Debug)]
pub struct Rig {
    /// The system under test.
    pub tb: Testbed,
    /// A runnable worker thread in `app1`.
    pub thread: ThreadId,
    /// A second worker (cross-component cases).
    pub thread2: ThreadId,
}

/// Build a rig for a protection variant.
///
/// # Panics
///
/// Panics if the shipped IDL fails to compile (covered by tests).
#[must_use]
pub fn rig(variant: Variant) -> Rig {
    rig_elided(variant, false)
}

/// [`rig`] with certified tracking elision toggled (the `--elide`
/// fast-path stubs; no-op for non-SuperGlue variants).
///
/// # Panics
///
/// Panics if the shipped IDL fails to compile or an `sm_elide` request
/// cannot be proven (covered by tests).
#[must_use]
pub fn rig_elided(variant: Variant, elide: bool) -> Rig {
    let mut tb = Testbed::build_elided(variant, elide).expect("testbed builds");
    let thread = tb.spawn_thread(tb.ids.app1, Priority(5));
    let thread2 = tb.spawn_thread(tb.ids.app2, Priority(5));
    Rig {
        tb,
        thread,
        thread2,
    }
}

impl Rig {
    /// The target component for a paper row label.
    #[must_use]
    pub fn component_of(&self, iface: &str) -> ComponentId {
        match iface {
            "sched" => self.tb.ids.sched,
            "mm" => self.tb.ids.mm,
            "fs" => self.tb.ids.fs,
            "lock" => self.tb.ids.lock,
            "evt" => self.tb.ids.evt,
            "tmr" => self.tb.ids.tmr,
            other => panic!("unknown interface {other:?}"),
        }
    }

    /// Run one non-blocking iteration of the §V-B micro-workload for a
    /// service, returning the number of interface calls made. Used by
    /// the Fig 6(a) tracking-overhead measurements (real wall-clock
    /// timing wraps this).
    ///
    /// # Errors
    ///
    /// The first call the system under test rejects, such as a
    /// [`CallError::Degraded`] fail-fast once a reboot storm has
    /// degraded the service.
    ///
    /// # Panics
    ///
    /// Panics on an unknown interface, or when a creation call returns
    /// a non-integer descriptor.
    pub fn run_iteration(&mut self, iface: &str, seq: u64) -> Result<u32, CallError> {
        let rt: &mut FtRuntime = &mut self.tb.runtime;
        let app = self.tb.ids.app1;
        let t = self.thread;
        let compid = Value::from(app.0);
        match iface {
            "sched" => {
                let svc = self.tb.ids.sched;
                let d = Value::from(t.0);
                rt.interface_call(app, t, svc, "sched_setup", &[compid.clone(), d.clone()])?;
                rt.interface_call(app, t, svc, "sched_wakeup", &[compid.clone(), d.clone()])?;
                // The pending wakeup makes this blk non-blocking.
                rt.interface_call(app, t, svc, "sched_blk", &[compid.clone(), d.clone()])?;
                rt.interface_call(app, t, svc, "sched_exit", &[compid, d])?;
                Ok(4)
            }
            "lock" => {
                let svc = self.tb.ids.lock;
                let id = rt
                    .interface_call(app, t, svc, "lock_alloc", std::slice::from_ref(&compid))?
                    .int()
                    .expect("id");
                rt.interface_call(app, t, svc, "lock_take", &[compid.clone(), Value::Int(id)])?;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "lock_release",
                    &[compid.clone(), Value::Int(id)],
                )?;
                rt.interface_call(app, t, svc, "lock_free", &[compid, Value::Int(id)])?;
                Ok(4)
            }
            "evt" => {
                let svc = self.tb.ids.evt;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "evt_split",
                        &[compid.clone(), Value::Int(0), Value::Int(1)],
                    )?
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "evt_trigger",
                    &[compid.clone(), Value::Int(id)],
                )?;
                // Pending trigger: the wait returns immediately.
                rt.interface_call(app, t, svc, "evt_wait", &[compid.clone(), Value::Int(id)])?;
                rt.interface_call(app, t, svc, "evt_free", &[compid, Value::Int(id)])?;
                Ok(4)
            }
            "tmr" => {
                let svc = self.tb.ids.tmr;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tmr_create",
                        &[compid.clone(), Value::Int(1_000_000)],
                    )?
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tmr_period",
                    &[compid.clone(), Value::Int(id), Value::Int(2_000_000)],
                )?;
                rt.interface_call(app, t, svc, "tmr_free", &[compid, Value::Int(id)])?;
                Ok(3)
            }
            "mm" => {
                let svc = self.tb.ids.mm;
                let vaddr = 0x1000 + (seq % 512) * 0x1000;
                let root = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "mman_get_page",
                        &[compid.clone(), Value::Int(vaddr as i64)],
                    )?
                    .int()
                    .expect("key");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "mman_alias_page",
                    &[
                        compid.clone(),
                        Value::Int(root),
                        Value::from(self.tb.ids.app2.0),
                        Value::Int(0x8_0000_0000u64 as i64 + vaddr as i64),
                    ],
                )?;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "mman_release_page",
                    &[compid, Value::Int(root)],
                )?;
                Ok(3)
            }
            "fs" => {
                let svc = self.tb.ids.fs;
                let path = format!("bench-{}.dat", seq % 8);
                let fd = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tsplit",
                        &[compid.clone(), Value::Int(0), Value::from(path.as_str())],
                    )?
                    .int()
                    .expect("fd");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "twrite",
                    &[compid.clone(), Value::Int(fd), Value::from(vec![0x42])],
                )?;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tseek",
                    &[compid.clone(), Value::Int(fd), Value::Int(0)],
                )?;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tread",
                    &[compid.clone(), Value::Int(fd), Value::Int(1)],
                )?;
                rt.interface_call(app, t, svc, "trelease", &[compid, Value::Int(fd)])?;
                Ok(5)
            }
            other => panic!("unknown interface {other:?}"),
        }
    }

    /// Create one descriptor in a recoverable state and return the call
    /// that triggers on-demand recovery: (client, thread, component,
    /// function, args). For the event manager the recovering caller is
    /// the *foreign* client, so the measured path includes the G0
    /// storage lookup and the U0 upcall into the creator's edge — the
    /// reason Fig 6(b) shows events as the most expensive descriptors.
    ///
    /// # Panics
    ///
    /// Panics when setup calls fail.
    pub fn setup_recovery_victim(
        &mut self,
        iface: &str,
    ) -> (ComponentId, ThreadId, ComponentId, &'static str, Vec<Value>) {
        let rt = &mut self.tb.runtime;
        let app = self.tb.ids.app1;
        let t = self.thread;
        let compid = Value::from(app.0);
        match iface {
            "sched" => {
                let svc = self.tb.ids.sched;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "sched_setup",
                    &[compid.clone(), Value::from(t.0)],
                )
                .expect("setup");
                (app, t, svc, "sched_wakeup", vec![compid, Value::from(t.0)])
            }
            "lock" => {
                let svc = self.tb.ids.lock;
                let id = rt
                    .interface_call(app, t, svc, "lock_alloc", std::slice::from_ref(&compid))
                    .expect("alloc")
                    .int()
                    .expect("id");
                rt.interface_call(app, t, svc, "lock_take", &[compid.clone(), Value::Int(id)])
                    .expect("take");
                // lock_take is idempotent for the owner, so the victim
                // call is repeatable across fault/recover cycles.
                (app, t, svc, "lock_take", vec![compid, Value::Int(id)])
            }
            "evt" => {
                let svc = self.tb.ids.evt;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "evt_split",
                        &[compid.clone(), Value::Int(0), Value::Int(1)],
                    )
                    .expect("split")
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "evt_trigger",
                    &[compid.clone(), Value::Int(id)],
                )
                .expect("trigger");
                // Recover from the foreign client: G0 lookup + U0 upcall.
                let app2 = self.tb.ids.app2;
                (
                    app2,
                    self.thread2,
                    svc,
                    "evt_trigger",
                    vec![Value::from(app2.0), Value::Int(id)],
                )
            }
            "tmr" => {
                let svc = self.tb.ids.tmr;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tmr_create",
                        &[compid.clone(), Value::Int(1_000_000)],
                    )
                    .expect("create")
                    .int()
                    .expect("id");
                (
                    app,
                    t,
                    svc,
                    "tmr_period",
                    vec![compid, Value::Int(id), Value::Int(1_000_000)],
                )
            }
            "mm" => {
                let svc = self.tb.ids.mm;
                let root = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "mman_get_page",
                        &[compid.clone(), Value::Int(0x4000)],
                    )
                    .expect("get")
                    .int()
                    .expect("key");
                // Re-aliasing the same destination is idempotent, and the
                // call exercises the D1 parent-first recovery of the root
                // mapping on every cycle.
                (
                    app,
                    t,
                    svc,
                    "mman_alias_page",
                    vec![
                        compid,
                        Value::Int(root),
                        Value::from(self.tb.ids.app2.0),
                        Value::Int(0x9000),
                    ],
                )
            }
            "fs" => {
                let svc = self.tb.ids.fs;
                let fd = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tsplit",
                        &[compid.clone(), Value::Int(0), Value::from("victim.dat")],
                    )
                    .expect("split")
                    .int()
                    .expect("fd");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "twrite",
                    &[compid.clone(), Value::Int(fd), Value::from(vec![1, 2, 3])],
                )
                .expect("write");
                (
                    app,
                    t,
                    svc,
                    "tseek",
                    vec![compid, Value::Int(fd), Value::Int(0)],
                )
            }
            other => panic!("unknown interface {other:?}"),
        }
    }
}

/// The six services in the paper's presentation order.
pub const SERVICES: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];

/// The toolchain identifier recorded in `--bench-json` dumps.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use composite::Json;

    use super::*;

    #[test]
    fn iterations_run_under_all_variants() {
        for variant in [Variant::Bare, Variant::C3, Variant::SuperGlue] {
            let mut r = rig(variant);
            for iface in SERVICES {
                for seq in 0..3 {
                    r.run_iteration(iface, seq).unwrap();
                }
            }
        }
    }

    #[test]
    fn recovery_victims_recover_under_both_ft_variants() {
        for variant in [Variant::C3, Variant::SuperGlue] {
            for iface in SERVICES {
                let mut r = rig(variant);
                let (client, thread, svc, fname, args) = r.setup_recovery_victim(iface);
                r.tb.runtime.inject_fault(svc);
                r.tb.runtime
                    .interface_call(client, thread, svc, fname, &args)
                    .unwrap_or_else(|e| panic!("{variant:?}/{iface}: {e}"));
                assert!(
                    r.tb.runtime.stats().faults_handled >= 1,
                    "{variant:?}/{iface}"
                );
            }
        }
    }

    /// A fresh, empty directory under the system temp dir.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sg-bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read temp dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    }

    fn shards() -> Vec<composite::TraceShard> {
        vec![composite::TraceShard::labeled("t")]
    }

    /// Every artifact flag set to a file in `dir`, series window 7.
    fn all_in(dir: &Path) -> Artifacts {
        let path = |name: &str| dir.join(name).to_str().expect("utf-8").to_owned();
        let argv = [
            ("--json", path("r.json")),
            ("--metrics", path("m.jsonl")),
            ("--trace", path("t.jsonl")),
            ("--series", path("s.jsonl")),
            ("--series-window", "7".to_owned()),
            ("--bench-json", path("b.json")),
        ];
        let flags: Vec<&str> = argv.iter().map(|(flag, _)| *flag).collect();
        let mut args = HarnessArgs::new(
            "usage: test",
            argv.iter()
                .flat_map(|(flag, v)| [(*flag).to_owned(), v.clone()]),
        );
        let out = Artifacts::from_args(&mut args, &flags, 0);
        args.finish([]);
        out
    }

    fn stage_all(out: &mut Artifacts) {
        out.rows([Json::from(1u64)]);
        out.metrics(["a\n".to_owned(), "b\n".to_owned()]);
        out.trace(shards());
        out.series([]);
        out.bench_json(Json::object);
    }

    #[test]
    fn trace_and_series_land_whole_with_no_temporaries() {
        let dir = fresh_dir("write-ok");
        let mut out = all_in(&dir);
        stage_all(&mut out);
        out.land().expect("writable");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("artifact exists");
        assert_eq!(
            read("r.json"),
            Json::Array(vec![Json::from(1u64)]).to_pretty()
        );
        assert_eq!(read("m.jsonl"), "a\nb\n");
        assert_eq!(read("t.jsonl"), composite::shards_to_jsonl(&shards()));
        assert_eq!(read("s.jsonl"), series_to_jsonl(7, &[]));
        assert_eq!(read("b.json"), Json::object().to_pretty());
        assert_eq!(
            entries(&dir),
            ["b.json", "m.jsonl", "r.json", "s.jsonl", "t.jsonl"]
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn failed_artifact_writes_return_err_and_leave_no_file() {
        let dir = fresh_dir("write-err");
        let missing = dir.join("missing").join("t.jsonl");
        let mut out = all_in(&dir);
        out.trace = Some(missing.to_str().expect("utf-8").to_owned());
        stage_all(&mut out);
        let err = out.land().expect_err("directory is missing");
        assert!(
            err.to_string().contains(missing.to_str().expect("utf-8")),
            "{err}"
        );
        assert!(entries(&dir).is_empty());

        // The last file staged cannot replace a directory, so every file
        // renamed before it is removed again.
        std::fs::create_dir(dir.join("b.json")).expect("mkdir");
        let mut out = all_in(&dir);
        stage_all(&mut out);
        let err = out.land().expect_err("blocked");
        assert!(err.to_string().contains("b.json"), "{err}");
        assert_eq!(entries(&dir), ["b.json"]);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn handwritten_loc_counts_code_not_tests() {
        for (iface, src) in C3_STUB_SOURCES {
            let loc = handwritten_loc(src);
            assert!(loc > 50, "{iface}: {loc}");
            assert!(
                loc < superglue_compiler::count_loc(src),
                "{iface}: tests excluded"
            );
        }
    }
}
