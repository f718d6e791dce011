//! The harnesses' shared front end: one argv parser ([`HarnessArgs`])
//! and one set of output files ([`Artifacts`]) that land together or
//! not at all.
//!
//! Every binary exits 0 on a clean run, 1 on a finding (a failed check,
//! a violated invariant or SLO) and 2 on a usage error, an unreadable or
//! malformed input, or an unwritable artifact path.

use std::ffi::OsString;
use std::fmt::{Debug, Display};
use std::io::{self, Write as _};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use composite::{Json, SeriesSnapshot, TraceShard};

/// A binary's command line, read flag by flag.
///
/// Each getter consumes the flag it names and parses and range-checks
/// the value on the spot; [`HarnessArgs::finish`] then rejects whatever
/// no getter claimed. Any error prints `error: ...` naming the flag and
/// the binary's usage line, and exits 2 before the run starts. A flag
/// given twice takes its last value.
#[derive(Debug)]
pub struct HarnessArgs {
    usage: &'static str,
    /// The arguments after the program name; `None` once consumed.
    args: Vec<Option<String>>,
}

impl HarnessArgs {
    /// The process's own arguments.
    #[must_use]
    pub fn from_env(usage: &'static str) -> Self {
        Self::new(usage, std::env::args().skip(1))
    }

    /// `args`, without the program name.
    pub fn new(usage: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Self {
            usage,
            args: args.into_iter().map(Some).collect(),
        }
    }

    /// Print `error: {msg}` and the usage line, and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2);
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut seen = false;
        for arg in &mut self.args {
            if arg.as_deref() == Some(name) {
                *arg = None;
                seen = true;
            }
        }
        seen
    }

    /// The argument after the last `name`; it may not itself be a flag.
    pub fn string(&mut self, name: &str) -> Option<String> {
        let mut value = None;
        for i in 0..self.args.len() {
            if self.args[i].as_deref() == Some(name) {
                self.args[i] = None;
                match self.args.get_mut(i + 1).and_then(Option::take) {
                    Some(v) if !v.starts_with("--") => value = Some(v),
                    _ => self.fail(&format!("{name} needs a value")),
                }
            }
        }
        value
    }

    /// The value of `name` converted by `parse`, if the flag was given.
    pub fn parse_with<T, E: Display>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Option<T> {
        let raw = self.string(name)?;
        match parse(&raw) {
            Ok(v) => Some(v),
            Err(e) => self.fail(&format!("{name} {raw:?}: {e}")),
        }
    }

    /// The value of `name` parsed with [`FromStr`], if the flag was given.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.parse_with(name, str::parse)
    }

    /// [`HarnessArgs::parsed`], rejecting a value outside `range`.
    pub fn parsed_in<T, R>(&mut self, name: &str, range: R) -> Option<T>
    where
        T: FromStr + PartialOrd,
        T::Err: Display,
        R: RangeBounds<T> + Debug,
    {
        self.parse_with(name, |raw| match raw.parse() {
            Ok(v) if range.contains(&v) => Ok(v),
            Ok(_) => Err(format!("must be in {range:?}")),
            Err(e) => Err(e.to_string()),
        })
    }

    /// Exit 2 unless the directory `path` would be written in exists (an
    /// empty parent is the current directory), so that a mistyped
    /// output path fails before the run rather than after it.
    pub fn require_dir_of(&self, path: &str) {
        let dir = match Path::new(path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        if !dir.is_dir() {
            self.fail(&format!(
                "cannot write {path}: no directory {}",
                dir.display()
            ));
        }
    }

    /// The leading subcommand word (`sgtrace timeline ...`).
    pub fn subcommand(&mut self) -> String {
        match self.args.first_mut().and_then(Option::take) {
            Some(word) if !word.starts_with("--") => word,
            _ => self.fail("missing subcommand"),
        }
    }

    /// Reject any flag no getter consumed and return the positional
    /// arguments, which must be exactly the `N` that `names` describes.
    pub fn finish<const N: usize>(self, names: [&str; N]) -> [String; N] {
        let rest: Vec<String> = self.args.iter().flatten().cloned().collect();
        if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
            self.fail(&format!("unknown flag {flag}"));
        }
        match <[String; N]>::try_from(rest) {
            Ok(positional) => positional,
            Err(rest) if rest.len() < N => self.fail(&format!("missing {}", names[rest.len()])),
            Err(rest) => self.fail(&format!("unexpected argument {:?}", rest[N])),
        }
    }
}

/// The exit status of an analyzer run: its own status when it completed
/// (0 clean, 1 a finding), or 2 after printing `error: ...` when its
/// input could not be read or parsed.
pub fn analyzer_exit(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// A run's output files: the paths its artifact flags named, and the
/// files staged for them during the run, each written to a temporary
/// beside its target as it is staged. [`Artifacts::commit`] renames them
/// all into place at once.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// `--json PATH`: the result rows.
    pub json: Option<String>,
    /// `--metrics PATH`: per-component counters as JSON-lines.
    pub metrics: Option<String>,
    /// `--trace PATH`: the flight-recorder JSON-lines, plus a Chrome
    /// `trace_event` rendering at `PATH.chrome.json`.
    pub trace: Option<String>,
    /// `--series PATH`: windowed recovery telemetry as JSON-lines.
    pub series: Option<String>,
    /// `--series-window NS`: the telemetry window width in simulated ns;
    /// 0 (telemetry off) unless `--series` is given.
    pub series_window: u64,
    /// `--bench-json PATH`: the machine-readable benchmark summary.
    pub bench_json: Option<String>,
    /// Every file staged so far, under its temporary name.
    staged: Staged,
    /// The first staging write that failed; [`Artifacts::commit`]
    /// reports it, and nothing is written after it.
    failed: Option<io::Error>,
    /// One line per staged group, printed once every file has landed.
    done: Vec<String>,
}

impl Artifacts {
    /// Read the artifact flags among `flags` (`--json`, `--metrics`,
    /// `--trace`, `--series` with `--series-window`, `--bench-json`)
    /// that this harness accepts; `window` is its default window width.
    /// A path whose directory is missing exits 2 here, before the run.
    pub fn from_args(args: &mut HarnessArgs, flags: &[&str], window: u64) -> Self {
        let mut path = |name: &str| {
            if flags.contains(&name) {
                args.string(name)
            } else {
                None
            }
        };
        let (json, metrics, trace) = (path("--json"), path("--metrics"), path("--trace"));
        let (series, bench_json) = (path("--series"), path("--bench-json"));
        for path in [&json, &metrics, &trace, &series, &bench_json]
            .into_iter()
            .flatten()
        {
            args.require_dir_of(path);
        }
        let window = if flags.contains(&"--series") {
            args.parsed("--series-window").unwrap_or(window)
        } else {
            window
        };
        Self {
            series_window: if series.is_some() { window } else { 0 },
            json,
            metrics,
            trace,
            series,
            bench_json,
            ..Self::default()
        }
    }

    /// Stage `files`, writing each as the iterator yields it; `done` is
    /// printed once the commit has landed them.
    pub fn stage(&mut self, files: impl IntoIterator<Item = (PathBuf, String)>, done: String) {
        for (path, contents) in files {
            self.write(&path, || contents);
        }
        self.done.push(done);
    }

    /// Write `contents()` to a temporary beside `path`, unless an earlier
    /// write failed.
    fn write(&mut self, path: &Path, contents: impl FnOnce() -> String) {
        if self.failed.is_none() {
            self.failed = self.staged.write(path, &contents()).err();
        }
    }

    /// Stage `text()` at `path` if that artifact was requested; `what`
    /// names it in the line printed once it lands.
    fn stage_one(&mut self, path: Option<String>, what: &str, text: impl FnOnce() -> String) {
        if let Some(path) = path {
            self.write(Path::new(&path), text);
            self.done.push(format!("{what} written to {path}"));
        }
    }

    /// Stage the `--json` rows, if requested.
    pub fn rows(&mut self, rows: impl IntoIterator<Item = Json>) {
        self.stage_one(self.json.clone(), "rows", || {
            Json::Array(rows.into_iter().collect()).to_pretty()
        });
    }

    /// Stage the `--metrics` JSON-lines sections, if requested.
    pub fn metrics(&mut self, sections: impl IntoIterator<Item = String>) {
        self.stage_one(self.metrics.clone(), "metrics", || {
            sections.into_iter().collect()
        });
    }

    /// Stage the `--trace` shards, if requested: the JSON-lines `sgtrace`
    /// reads and the Chrome rendering Perfetto loads.
    pub fn trace(&mut self, shards: impl IntoIterator<Item = TraceShard>) {
        if let Some(path) = self.trace.clone() {
            let shards: Vec<TraceShard> = shards.into_iter().collect();
            let chrome = format!("{path}.chrome.json");
            self.write(Path::new(&path), || composite::shards_to_jsonl(&shards));
            self.write(Path::new(&chrome), || composite::shards_to_chrome(&shards));
            self.done
                .push(format!("trace written to {path} (+ {chrome} for Perfetto)"));
        }
    }

    /// Stage the `--series` sections, if requested, as
    /// [`series_to_jsonl`] renders them.
    pub fn series<'a>(&mut self, sections: impl IntoIterator<Item = (String, &'a SeriesSnapshot)>) {
        let window = self.series_window;
        self.stage_one(self.series.clone(), "series", || {
            series_to_jsonl(window, &sections.into_iter().collect::<Vec<_>>())
        });
    }

    /// Stage the `--bench-json` document, if requested.
    pub fn bench_json(&mut self, doc: impl FnOnce() -> Json) {
        self.stage_one(self.bench_json.clone(), "bench json", || doc().to_pretty());
    }

    /// Land every staged file and print the `... written to` lines. On
    /// failure no file of the run is left behind, the error goes to
    /// stderr and the process exits 2.
    pub fn commit(self) {
        let done = self.land().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        for line in done {
            println!("{line}");
        }
    }

    /// Rename every staged file into place and return the lines to
    /// print, or remove them all and return the first error.
    pub(crate) fn land(self) -> io::Result<Vec<String>> {
        match self.failed {
            Some(e) => Err(e),
            None => self.staged.commit().map(|()| self.done),
        }
    }
}

/// Render windowed-telemetry sections as the `--series` JSON-lines
/// format `sgstat` consumes: one header line carrying the window width,
/// then each section's rows under its context label. Deterministic for
/// deterministic inputs — sections in caller order, rows in snapshot
/// (component, window) order.
#[must_use]
pub fn series_to_jsonl(window_ns: u64, sections: &[(String, &SeriesSnapshot)]) -> String {
    let mut out = composite::series_header(window_ns);
    for (context, snapshot) in sections {
        out.push_str(&snapshot.to_json_lines(context));
    }
    out
}

/// Files written under temporary names beside their targets.
/// [`Staged::commit`] renames them all into place; if it fails, or the
/// set is dropped uncommitted, every file it wrote is removed, so a
/// failed write leaves no partial artifact behind.
#[derive(Debug, Default)]
struct Staged {
    /// `(temporary, target)` pairs in write order.
    files: Vec<(PathBuf, PathBuf)>,
    renamed: usize,
}

impl Staged {
    fn write(&mut self, path: &Path, contents: &str) -> io::Result<()> {
        let Some(name) = path.file_name() else {
            let e = io::Error::new(io::ErrorKind::InvalidInput, "no file name");
            return Err(with_path(path, e));
        };
        let mut tmp_name = OsString::from(".");
        tmp_name.push(name);
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        self.files.push((tmp.clone(), path.to_owned()));
        std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(contents.as_bytes())?;
                file.sync_all()
            })
            .map_err(|e| with_path(path, e))
    }

    fn commit(mut self) -> io::Result<()> {
        for (tmp, path) in &self.files {
            std::fs::rename(tmp, path).map_err(|e| with_path(path, e))?;
            self.renamed += 1;
        }
        self.files.clear();
        Ok(())
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        for (i, (tmp, path)) in self.files.iter().enumerate() {
            let _ = std::fs::remove_file(if i < self.renamed { path } else { tmp });
        }
    }
}

/// Prefix an I/O error with the artifact path it concerns.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> HarnessArgs {
        HarnessArgs::new("usage: test", argv.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn getters_consume_their_flags_and_finish_returns_positionals() {
        let mut a = args(&["run", "--jobs", "3", "in.txt", "--elide", "--jobs", "4"]);
        assert_eq!(a.subcommand(), "run");
        assert!(a.flag("--elide"));
        assert!(!a.flag("--correlated"));
        assert_eq!(a.parsed::<usize>("--jobs"), Some(4), "last value wins");
        assert_eq!(a.parsed_in::<u64, _>("--seed", 1..), None);
        let [input] = a.finish(["INPUT"]);
        assert_eq!(input, "in.txt");
    }

    #[test]
    fn artifact_flags_outside_the_accepted_set_are_left_unread() {
        let mut a = args(&["--json", "r.json", "--series-window", "5"]);
        let out = Artifacts::from_args(&mut a, &["--json", "--trace"], 7);
        assert_eq!(out.json.as_deref(), Some("r.json"));
        assert_eq!(out.series_window, 0, "telemetry stays off without --series");
        assert_eq!(a.args.iter().flatten().count(), 2, "--series-window unread");

        let mut a = args(&["--series", "s.jsonl"]);
        let out = Artifacts::from_args(&mut a, &["--series"], 7);
        assert_eq!(out.series_window, 7, "the harness default applies");
    }
}
