//! The artifact readers in `sg_bench::stat` against the writers they
//! invert.
//!
//! 1. **Round trips.** Every golden trace re-renders byte for byte
//!    through `shards_to_jsonl`, the harnesses' metrics files through
//!    `MetricsSnapshot::to_json_lines` per context, and `sgtrace chrome`
//!    reproduces both Chrome goldens.
//! 2. **Rejections.** Each input no writer produces exits 2 with
//!    `error:`, the file and the line named.
//! 3. **Mutations.** Seeded mutations of every golden artifact and a
//!    generated metrics file make each reader return `Ok` or `Err`, and
//!    no analyzer panic, with the test profile's overflow checks on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use composite::{shards_to_jsonl, Json, MetricsSnapshot, SplitMix64};
use sg_bench::stat::{
    agree, avail_report, collapsed_stacks, critpath_report, episodes_of, evaluate_slo,
    openmetrics_from_metrics, parse_metrics_text, parse_series_text, parse_trace_text,
    series_report, SloPolicy,
};

/// The four committed golden traces.
const TRACES: [&str; 4] = [
    "flight_recorder_episode",
    "nested_episode",
    "handbuilt_shard",
    "pipeline_dead_letter",
];

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    std::fs::read_to_string(path.join(name)).expect("golden file")
}

/// A fresh, empty directory under the system temp dir, unique to the
/// call (the tests run in parallel).
fn fresh_dir(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sg-readers-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_in(dir: &Path, exe: &str, args: &[&str]) -> Output {
    let out = Command::new(exe).args(args).current_dir(dir).output();
    out.expect("binary runs")
}

/// The `--metrics` file a harness writes with `args`.
fn harness_metrics(exe: &str, args: &[&str]) -> String {
    let dir = fresh_dir("metrics");
    let out = run_in(&dir, exe, &[args, &["--metrics", "m.jsonl"]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("m.jsonl")).expect("metrics file");
    std::fs::remove_dir_all(&dir).expect("clean up");
    text
}

fn table2_metrics() -> String {
    harness_metrics(
        env!("CARGO_BIN_EXE_table2"),
        &["--injections", "50", "--seed", "7"],
    )
}

fn pipeline_metrics() -> String {
    let args = "--messages 600 --work-us 20000 --repetitions 1 --poison-every 100 --seed 7 \
                --injections 2 --showstoppers 1";
    harness_metrics(
        env!("CARGO_BIN_EXE_pipeline"),
        &args.split(' ').collect::<Vec<_>>(),
    )
}

#[test]
fn trace_goldens_round_trip() {
    for name in TRACES {
        let text = golden(&format!("{name}.jsonl"));
        let shards = parse_trace_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(shards_to_jsonl(&shards), text, "{name}");
    }
}

#[test]
fn metrics_files_re_render_byte_for_byte() {
    for text in [table2_metrics(), pipeline_metrics()] {
        let rows = parse_metrics_text(&text).expect("metrics parse");
        let mut rendered = String::new();
        for section in rows.chunk_by(|a, b| a.0 == b.0) {
            let rows = section
                .iter()
                .filter(|(_, component, _)| component != "*total*");
            let snapshot = MetricsSnapshot {
                rows: rows.map(|(_, c, row)| (c.clone(), row.clone())).collect(),
            };
            rendered.push_str(&snapshot.to_json_lines(&section[0].0));
        }
        assert_eq!(rendered, text);
    }
}

#[test]
fn sgtrace_chrome_renders_the_chrome_goldens() {
    let dir = fresh_dir("chrome");
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for name in ["flight_recorder_episode", "handbuilt_shard"] {
        let trace = golden_dir.join(format!("{name}.jsonl"));
        let args = ["chrome", trace.to_str().expect("utf-8"), "out.json"];
        let out = run_in(&dir, env!("CARGO_BIN_EXE_sgtrace"), &args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rendered = std::fs::read_to_string(dir.join("out.json")).expect("written");
        assert_eq!(rendered, golden(&format!("{name}.chrome.json")), "{name}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

// ---------------------------------------------------------------------
// Rejections
// ---------------------------------------------------------------------

/// `text` with `from` replaced by `to` (which must occur).
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from:?} not in the input");
    text.replacen(from, to, 1)
}

/// `sgtrace`/`sgstat` `sub` on `text` exits 2 with `error:`, the file,
/// `line N` and `what` on stderr, and nothing on stdout.
fn rejects(bin: &str, sub: &str, text: &str, line: usize, what: &str) {
    let dir = fresh_dir(&format!("reject-{sub}"));
    std::fs::write(dir.join("bad.jsonl"), text).expect("write input");
    let exe = match bin {
        "sgtrace" => env!("CARGO_BIN_EXE_sgtrace"),
        _ => env!("CARGO_BIN_EXE_sgstat"),
    };
    let out = run_in(&dir, exe, &[sub, "bad.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {sub}: {stderr}");
    let named = format!("error: bad.jsonl: line {line}: ");
    assert!(stderr.starts_with(&named), "{bin} {sub}: {stderr}");
    assert!(stderr.contains(what), "{bin} {sub}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {sub} printed a report");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

fn handbuilt() -> String {
    golden("handbuilt_shard.jsonl")
}

#[test]
fn trace_of_an_unknown_version_is_rejected() {
    let text = edit(
        &handbuilt(),
        r#"{"v":1,"shard":"empty""#,
        r#"{"v":7,"shard":"empty""#,
    );
    rejects("sgtrace", "timeline", &text, 21, "schema version 7");
}

#[test]
fn trace_event_of_an_unknown_kind_is_rejected() {
    let text = edit(&handbuilt(), r#""kind":"wake""#, r#""kind":"nap""#);
    rejects("sgstat", "avail", &text, 6, r#"unknown kind "nap""#);
}

#[test]
fn trace_event_of_an_unknown_mechanism_is_rejected() {
    let text = edit(&handbuilt(), r#""mech":"T1","n":3"#, r#""mech":"Z9","n":3"#);
    rejects("sgstat", "critpath", &text, 13, r#"unknown mechanism "Z9""#);
}

#[test]
fn trace_event_of_an_unknown_outcome_is_rejected() {
    let text = edit(&handbuilt(), r#""outcome":"ok""#, r#""outcome":"maybe""#);
    rejects("sgtrace", "tree", &text, 3, r#"unknown outcome "maybe""#);
}

#[test]
fn trace_event_missing_a_key_is_rejected() {
    let text = edit(&handbuilt(), r#""desc":42,"dropped":3"#, r#""desc":42"#);
    rejects("sgtrace", "verify", &text, 17, r#"missing key "dropped""#);
}

#[test]
fn shard_header_whose_event_count_disagrees_is_rejected() {
    let text = edit(&handbuilt(), r#""events":19"#, r#""events":18"#);
    rejects(
        "sgstat",
        "avail",
        &text,
        1,
        "declares 18 event(s), 19 follow",
    );
}

#[test]
fn metrics_latency_with_min_above_max_is_rejected() {
    let text = edit(
        &table2_metrics(),
        r#""min_ns":40000,"max_ns":40000"#,
        r#""min_ns":40001,"max_ns":40000"#,
    );
    let line = 1 + text.lines().take_while(|l| !l.contains("40001")).count();
    rejects(
        "sgstat",
        "export",
        &text,
        line,
        "min_ns 40001 exceeds max_ns 40000",
    );
}

#[test]
fn metrics_histogram_key_of_64_is_rejected() {
    let text = edit(
        &table2_metrics(),
        r#""log2_hist":{"#,
        r#""log2_hist":{"64":0,"#,
    );
    let line = 1 + text
        .lines()
        .take_while(|l| !l.contains(r#""64":0"#))
        .count();
    rejects("sgstat", "export", &text, line, r#"log2_hist key "64""#);
}

#[test]
fn metrics_of_an_unknown_version_are_rejected() {
    let text = edit(&table2_metrics(), r#"{"v":2,"#, r#"{"v":9,"#);
    rejects("sgstat", "export", &text, 1, "schema version 9");
}

/// The reproduction that exited 101 in release: a metrics row whose
/// latency has no `max_ns`.
#[test]
fn metrics_latency_without_max_is_rejected() {
    let text = edit(&table2_metrics(), r#","max_ns":40000"#, "");
    let line = 1 + text.lines().take_while(|l| l.contains("max_ns")).count();
    rejects("sgstat", "export", &text, line, r#"missing key "max_ns""#);
}

#[test]
fn series_of_an_unknown_version_is_rejected() {
    let series = golden("table2_series.jsonl");
    let header = edit(
        &series,
        r#"{"v":2,"kind":"series""#,
        r#"{"v":9,"kind":"series""#,
    );
    rejects("sgstat", "series", &header, 1, "schema version 9");
    let row = edit(&series, r#"{"v":2,"context""#, r#"{"v":1,"context""#);
    rejects("sgstat", "series", &row, 2, "schema version 1");
}

#[test]
fn series_row_missing_a_key_is_rejected() {
    let series = golden("table2_series.jsonl");
    for key in ["component", "window", "invocations", "faults"] {
        let row = series.lines().nth(1).expect("a row");
        let j = Json::parse(row).expect("row parses");
        let Json::Object(mut pairs) = j else {
            panic!("row is an object")
        };
        pairs.retain(|(k, _)| k != key);
        let text = edit(&series, row, &Json::Object(pairs).to_line());
        rejects(
            "sgstat",
            "series",
            &text,
            2,
            &format!("missing key {key:?}"),
        );
    }
}

/// The reproduction that overflowed in debug builds: shard headers whose
/// `dropped_recovery` values sum past `u64::MAX`.
#[test]
fn dropped_recovery_sums_saturate() {
    let max = u64::MAX;
    let text = edit(
        &handbuilt(),
        r#""events":0,"dropped":0,"dropped_recovery":0"#,
        &format!(r#""events":0,"dropped":0,"dropped_recovery":{max}"#),
    );
    let dir = fresh_dir("dropped-recovery");
    std::fs::write(dir.join("t.jsonl"), text).expect("write trace");
    let out = run_in(&dir, env!("CARGO_BIN_EXE_sgstat"), &["avail", "t.jsonl"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("SKIP ({max} recovery-class")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

// ---------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------

/// Numbers the mutations write in place of a digit run.
const EXTREMES: [&str; 7] = [
    "0",
    "1",
    "-1",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551616",
];

/// The number of object members in `j`, nested ones included.
fn members(j: &Json) -> usize {
    match j {
        Json::Object(pairs) => pairs.iter().map(|(_, v)| 1 + members(v)).sum(),
        Json::Array(items) => items.iter().map(members).sum(),
        _ => 0,
    }
}

/// Remove the `n`th member of `j` in depth-first order.
fn remove_member(j: &mut Json, n: &mut usize) -> bool {
    match j {
        Json::Object(pairs) => {
            for i in 0..pairs.len() {
                if *n == 0 {
                    pairs.remove(i);
                    return true;
                }
                *n -= 1;
                if remove_member(&mut pairs[i].1, n) {
                    return true;
                }
            }
            false
        }
        Json::Array(items) => items.iter_mut().any(|v| remove_member(v, n)),
        _ => false,
    }
}

/// The keys in `text` that have a number for a value, each once.
fn numeric_keys(text: &str) -> Vec<&str> {
    let mut keys: Vec<&str> = Vec::new();
    for (at, _) in text.match_indices("\":") {
        let value = text[at + 2..].bytes().next();
        if value.is_some_and(|b| b.is_ascii_digit() || b == b'-') {
            let key = &text[text[..at].rfind('"').map_or(0, |q| q + 1)..at];
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// `text` with every number under `key` replaced by `value`.
fn set_key(text: &str, key: &str, value: &str) -> String {
    let pattern = format!("\"{key}\":");
    let (mut out, mut rest) = (String::new(), text);
    while let Some(at) = rest.find(&pattern) {
        let (head, tail) = rest.split_at(at + pattern.len());
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '-'))
            .unwrap_or(tail.len());
        out.push_str(head);
        out.push_str(if end > 0 { value } else { "" });
        rest = &tail[end..];
    }
    out + rest
}

/// One seeded mutation of `text`: a numeric extreme in one place or
/// under one key on every line, a dropped, duplicated or swapped line, a
/// deleted key, a truncation or a byte flip.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return text.to_owned();
    }
    let i = rng.gen_index(lines.len());
    match rng.gen_range(8) {
        0 => {
            let line = lines[i].as_bytes();
            let starts: Vec<usize> = (0..line.len())
                .filter(|&k| line[k].is_ascii_digit() && (k == 0 || !line[k - 1].is_ascii_digit()))
                .collect();
            if let Some(&start) = starts.get(rng.gen_index(starts.len().max(1))) {
                let end = (start..line.len())
                    .find(|&k| !line[k].is_ascii_digit())
                    .unwrap_or(line.len());
                let extreme = EXTREMES[rng.gen_index(EXTREMES.len())];
                lines[i].replace_range(start..end, extreme);
            }
        }
        1 => {
            let keys = numeric_keys(text);
            if let Some(key) = keys.get(rng.gen_index(keys.len().max(1))) {
                return set_key(text, key, "18446744073709551615");
            }
        }
        2 => {
            lines.remove(i);
        }
        3 => {
            let line = lines[i].clone();
            lines.insert(i, line);
        }
        4 => {
            let k = rng.gen_index(lines.len());
            lines.swap(i, k);
        }
        5 => {
            if let Ok(mut j) = Json::parse(&lines[i]) {
                let mut n = rng.gen_index(members(&j).max(1));
                if remove_member(&mut j, &mut n) {
                    lines[i] = j.to_line();
                }
            }
        }
        6 => {
            let mut cut = rng.gen_index(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        _ => {
            let mut bytes = text.as_bytes().to_vec();
            let k = rng.gen_index(bytes.len());
            bytes[k] ^= 1 << rng.gen_index(8);
            return String::from_utf8_lossy(&bytes).into_owned();
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Every reader on `text`, and every analyzer on what a reader accepts;
/// whether any reader accepted it.
fn read_and_analyze(text: &str, metrics: &[(String, String, composite::MetricsRow)]) -> bool {
    let trace = parse_trace_text(text);
    if let Ok(shards) = &trace {
        for shard in shards {
            let _ = episodes_of(shard);
        }
        let report = avail_report(shards);
        let _ = report.render();
        let policy = SloPolicy {
            max_p99_ns: Some(1),
            min_availability: Some(0.5),
        };
        let _ = evaluate_slo(&report, &policy);
        let _ = critpath_report(shards);
        let _ = collapsed_stacks(shards);
        let _ = agree(metrics, None, Some(shards));
    }
    let series = parse_series_text(text);
    if let Ok(series) = &series {
        let _ = series_report(series);
        let _ = agree(metrics, Some(series), None);
    }
    let rows = parse_metrics_text(text);
    if let Ok(rows) = &rows {
        let _ = openmetrics_from_metrics(rows);
        let _ = agree(rows, None, None);
    }
    trace.is_ok() || series.is_ok() || rows.is_ok()
}

#[test]
fn mutated_artifacts_never_panic_a_reader_or_analyzer() {
    // Correlated faults give the metrics rows multi-bucket histograms.
    let metrics_text = harness_metrics(
        env!("CARGO_BIN_EXE_table2"),
        &["--correlated", "--injections", "10", "--seed", "7"],
    );
    let metrics = parse_metrics_text(&metrics_text).expect("metrics parse");
    let mut artifacts: Vec<(String, String)> = TRACES
        .iter()
        .map(|name| (format!("{name}.jsonl"), golden(&format!("{name}.jsonl"))))
        .collect();
    artifacts.push(("table2_series.jsonl".into(), golden("table2_series.jsonl")));
    artifacts.push(("table2 --correlated metrics".into(), metrics_text.clone()));
    let mut rng = SplitMix64::new(0x005E_ED0F_4EAD);
    let (mut copies, mut accepted) = (0, 0);
    for (name, text) in &artifacts {
        // Small artifacts get many copies, the two large ones few.
        let rounds = match text.len() {
            0..=10_000 => 900,
            10_001..=50_000 => 450,
            _ => 40,
        };
        for round in 0..rounds {
            let mut copy = mutate(text, &mut rng);
            for _ in 0..rng.gen_range(3) {
                copy = mutate(&copy, &mut rng);
            }
            let run = catch_unwind(AssertUnwindSafe(|| read_and_analyze(&copy, &metrics)));
            let ok = run.unwrap_or_else(|_| panic!("{name}, round {round}: panicked on\n{copy}"));
            copies += 1;
            accepted += usize::from(ok);
        }
    }
    // The mutations reach the analyzers as well as the rejections.
    assert!(copies > 3_000, "{copies} copies");
    assert!(accepted > copies / 10, "{accepted} of {copies} accepted");
    assert!(accepted < copies, "{accepted} of {copies} accepted");
}
