//! End-to-end tests of the harness and analyzer binaries as CI and the
//! README invoke them.
//!
//! The analyzer transcript pins the stdout and exit status of every
//! `sgtrace` and `sgstat` subcommand on the committed golden traces in
//! `tests/golden/analyzers.txt`; regenerate an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p sg-bench --test harness_cli`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The four committed golden traces the analyzers run on.
const TRACES: [&str; 4] = [
    "flight_recorder_episode",
    "nested_episode",
    "handbuilt_shard",
    "pipeline_dead_letter",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sg-harness-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `bin` with `args`, where a `@name` argument names a file in
/// `dir`, and append the run to `out`: the command line as written,
/// the exit status, then stdout verbatim.
fn record(out: &mut String, bin: &str, exe: &str, dir: &Path, args: &[&str]) {
    let resolved: Vec<PathBuf> = args
        .iter()
        .map(|a| match a.strip_prefix('@') {
            Some(name) => dir.join(name),
            None => PathBuf::from(a),
        })
        .collect();
    let run = Command::new(exe)
        .args(&resolved)
        .output()
        .expect("analyzer runs");
    let shown: Vec<&str> = args.iter().map(|a| a.trim_start_matches('@')).collect();
    let _ = writeln!(out, "$ {bin} {}", shown.join(" "));
    let _ = writeln!(out, "[exit {}]", run.status.code().unwrap_or(-1));
    out.push_str(&String::from_utf8_lossy(&run.stdout));
    out.push('\n');
}

/// Every analyzer subcommand on every golden trace, plus `diff`,
/// `series` and `replay`, against one committed transcript: the oracle
/// that the trace reader both analyzers share reads these files exactly
/// as before.
#[test]
fn analyzer_transcript_matches_golden() {
    let sgtrace = env!("CARGO_BIN_EXE_sgtrace");
    let sgstat = env!("CARGO_BIN_EXE_sgstat");
    let golden = golden_dir();
    let scratch = fresh_dir("transcript");
    let mut out = String::new();
    for trace in TRACES {
        let file = format!("@{trace}.jsonl");
        for sub in ["timeline", "tree", "verify"] {
            record(&mut out, "sgtrace", sgtrace, &golden, &[sub, &file]);
        }
        for args in [
            &["avail", &file][..],
            &["critpath", &file],
            &["critpath", &file, "--collapse"],
            &[
                "slo",
                &file,
                "--max-p99-ns",
                "100000000",
                "--min-availability",
                "0.30",
            ],
        ] {
            record(&mut out, "sgstat", sgstat, &golden, args);
        }
    }
    for (a, b) in [
        ("@flight_recorder_episode.jsonl", "@nested_episode.jsonl"),
        ("@nested_episode.jsonl", "@nested_episode.jsonl"),
    ] {
        record(&mut out, "sgtrace", sgtrace, &golden, &["diff", a, b]);
    }
    record(
        &mut out,
        "sgstat",
        sgstat,
        &golden,
        &["series", "@table2_series.jsonl"],
    );
    let core_log = "{\"ev\":\"fault\",\"component\":1}\n{\"ev\":\"fault\",\"component\":2}\n";
    std::fs::write(scratch.join("core_events.jsonl"), core_log).expect("write core log");
    record(
        &mut out,
        "sgtrace",
        sgtrace,
        &scratch,
        &["replay", "@core_events.jsonl", "--to", "0"],
    );
    std::fs::remove_dir_all(&scratch).expect("clean up");

    let path = golden.join("analyzers.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        out, expected,
        "analyzer transcript drifted from tests/golden/analyzers.txt; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Run `exe` with `args` in `dir`.
fn run_in(dir: &Path, exe: &str, args: &[&str]) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
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

/// Every binary rejects an unknown flag, a flag missing its value, an
/// unparsable or out-of-range value, an unreadable input and an output
/// path in a missing directory the same way: exit 2, `error:` and the
/// offending flag (or path) on stderr, nothing on stdout, and no file
/// written — before any work runs.
#[test]
fn bad_flags_exit_2_before_any_work() {
    let trace = golden_dir().join("nested_episode.jsonl");
    let trace = trace.to_str().expect("utf-8");
    let cases: &[(&str, &[&str], &str)] = &[
        (
            "table2",
            &["--injections", "1", "--json", "r.json", "--bogus"],
            "--bogus",
        ),
        (
            "table2",
            &["--json", "r.json", "--injections"],
            "--injections",
        ),
        (
            "table2",
            &["--injections", "x", "--json", "r.json"],
            "--injections",
        ),
        ("table2", &["--variant", "x"], "--variant"),
        ("table2", &["--mask", "zz"], "--mask"),
        ("fig7", &["--seconds", "1", "--bogus"], "--bogus"),
        ("fig7", &["--seconds", "--json", "r.json"], "--seconds"),
        ("fig7", &["--seconds", "x"], "--seconds"),
        (
            "fig7",
            &["--repetitions", "0", "--json", "r.json"],
            "--repetitions",
        ),
        ("fig6", &["--loc", "--bogus"], "--bogus"),
        ("fig6", &["--loc", "--emit"], "--emit"),
        ("fig6", &["--loc", "--check-ratio", "abc"], "--check-ratio"),
        ("fig6", &["--check-ratio", "x"], "--check-ratio"),
        ("fig6", &["--series-window", "x"], "--series-window"),
        ("ablations", &["--trace", "t.jsonl", "--bogus"], "--bogus"),
        ("ablations", &["--jobs"], "--jobs"),
        (
            "ablations",
            &["--jobs", "x", "--trace", "t.jsonl"],
            "--jobs",
        ),
        ("pipeline", &["--messages", "10", "--bogus"], "--bogus"),
        ("pipeline", &["--messages"], "--messages"),
        ("pipeline", &["--messages", "x"], "--messages"),
        ("pipeline", &["--repetitions", "0"], "--repetitions"),
        (
            "pipeline",
            &["--poison-limit", "4", "--json", "r.json"],
            "--poison-limit",
        ),
        ("modelcheck", &["--core-steps", "1", "--bogus"], "--bogus"),
        ("modelcheck", &["--seed"], "--seed"),
        ("modelcheck", &["--core-steps", "x"], "--core-steps"),
        ("sgtrace", &["timeline", trace, "--bogus"], "--bogus"),
        ("sgtrace", &["replay", trace, "--to"], "--to"),
        ("sgtrace", &["replay", trace, "--to", "x"], "--to"),
        ("sgtrace", &["verify", "missing.jsonl"], "missing.jsonl"),
        ("sgstat", &["avail", trace, "--bogus"], "--bogus"),
        ("sgstat", &["slo", trace, "--max-p99-ns"], "--max-p99-ns"),
        (
            "sgstat",
            &["slo", trace, "--max-p99-ns", "abc"],
            "--max-p99-ns",
        ),
        (
            "sgstat",
            &["slo", trace, "--min-availability", "2"],
            "--min-availability",
        ),
        ("sgstat", &["avail", "missing.jsonl"], "missing.jsonl"),
        (
            "sgstat",
            &["agree", "missing.jsonl", "--trace", trace],
            "missing.jsonl",
        ),
        (
            "sgstat",
            &["agree", trace, "--trace", trace, "--bogus"],
            "--bogus",
        ),
        ("sgstat", &["agree", trace, "--series"], "--series"),
        ("sgstat", &["agree", trace], "--series or --trace"),
        (
            "table2",
            &["--injections", "1", "--json", "no-such-dir/r.json"],
            "cannot write no-such-dir/r.json",
        ),
        (
            "fig7",
            &["--seconds", "1", "--trace", "no-such-dir/t.jsonl"],
            "cannot write no-such-dir/t.jsonl",
        ),
        (
            "pipeline",
            &["--messages", "10", "--metrics", "no-such-dir/m.jsonl"],
            "cannot write no-such-dir/m.jsonl",
        ),
        (
            "modelcheck",
            &["--system-steps", "1", "--out", "no-such-dir/c.json"],
            "cannot write no-such-dir/c.json",
        ),
    ];
    let dir = fresh_dir("bad-flags");
    for &(bin, args, named) in cases {
        let exe = match bin {
            "table2" => env!("CARGO_BIN_EXE_table2"),
            "fig7" => env!("CARGO_BIN_EXE_fig7"),
            "fig6" => env!("CARGO_BIN_EXE_fig6"),
            "ablations" => env!("CARGO_BIN_EXE_ablations"),
            "pipeline" => env!("CARGO_BIN_EXE_pipeline"),
            "modelcheck" => env!("CARGO_BIN_EXE_modelcheck"),
            "sgtrace" => env!("CARGO_BIN_EXE_sgtrace"),
            "sgstat" => env!("CARGO_BIN_EXE_sgstat"),
            other => unreachable!("{other}"),
        };
        let out = run_in(&dir, exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{bin} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains("error:"), "{case}: {stderr}");
        assert!(stderr.contains(named), "{case}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{case}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(entries(&dir).is_empty(), "{case} wrote {:?}", entries(&dir));
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// `fig6 --loc --emit DIR` writes exactly the twelve committed golden
/// stub sources, and a write that fails part-way leaves none of them.
#[test]
fn fig6_emit_lands_all_twelve_stubs_or_none() {
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../superglue-compiler/tests/golden");
    let dir = fresh_dir("emit");
    let out = run_in(&dir, fig6, &["--loc", "--emit", "stubs"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stubs = dir.join("stubs");
    assert_eq!(entries(&stubs), entries(&golden));
    assert_eq!(entries(&stubs).len(), 12);
    for name in entries(&golden) {
        let read = |d: &Path| std::fs::read(d.join(&name)).expect("stub exists");
        assert!(
            read(&stubs) == read(&golden),
            "{name} differs from the golden"
        );
    }

    // A directory where the third file goes blocks its rename: the two
    // files renamed before it are removed again.
    std::fs::remove_dir_all(&stubs).expect("clear stubs");
    std::fs::create_dir_all(stubs.join("mm_sstub.rs.gen")).expect("block one name");
    let out = run_in(&dir, fig6, &["--loc", "--emit", "stubs"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("mm_sstub.rs.gen"), "{stderr}");
    assert_eq!(entries(&stubs), ["mm_sstub.rs.gen"]);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// Durations, attributions and mechanism counts of `u64::MAX` in a
/// hand-written trace saturate in every analyzer sum: each run finishes
/// with its own verdict (exit 0 or 1) instead of an overflow panic.
#[test]
fn analyzers_saturate_u64_max_sums() {
    let dir = fresh_dir("u64-max");
    let max = u64::MAX;
    let mut trace = String::from("{\"v\":1,\"shard\":\"s\",\"names\":[\"boot\",\"srv\"]}\n");
    for ts in [0, 4] {
        for event in [
            r#""kind":"fault""#.to_owned(),
            format!(r#""kind":"reboot","dur":{max}"#),
            format!(r#""kind":"mechanism","mech":"R0","n":{max}"#),
            format!(r#""kind":"episode_end","attributed":{max}"#),
        ] {
            let _ = writeln!(trace, r#"{{"span":0,"ts":{ts},"comp":1,{event}}}"#);
        }
    }
    std::fs::write(dir.join("t.jsonl"), trace).expect("write trace");
    let (sgtrace, sgstat) = (env!("CARGO_BIN_EXE_sgtrace"), env!("CARGO_BIN_EXE_sgstat"));
    for (exe, args) in [
        (sgtrace, &["timeline", "t.jsonl"][..]),
        (sgtrace, &["diff", "t.jsonl", "t.jsonl"]),
        (sgstat, &["avail", "t.jsonl"]),
    ] {
        let out = run_in(&dir, exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
