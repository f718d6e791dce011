//! Metric definitions, the run manifest, and the three renderings of a
//! run: the human-readable report, the one-line result and the record
//! file `sgperf compare` reads.

use composite::{Json, MECHANISMS};

use crate::rig::IFACES;
use crate::span::{totals_by_name, Span};
use crate::workload::{Sizes, Violation, Workload};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// What a metric's value depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: varies run to run.
    Host,
    /// Simulated time: a pure function of the workload and seed.
    Simulated,
    /// A count or ratio of counts: a pure function of the workload and
    /// seed.
    Deterministic,
}

impl Kind {
    /// The record spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
            Kind::Deterministic => "deterministic",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "host" => Some(Kind::Host),
            "simulated" => Some(Kind::Simulated),
            "deterministic" => Some(Kind::Deterministic),
            _ => None,
        }
    }
}

/// An end-to-end metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Host, simulated or deterministic.
    pub kind: Kind,
}

/// The end-to-end metrics `BENCHMARK.json` lists, with the same
/// bounds: the statistics that stay steady on a shared host. Every
/// workload reports them.
pub const END_TO_END: [Spec; 3] = [
    Spec {
        name: "op_us_p10",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        kind: Kind::Host,
    },
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    Spec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
    },
];

/// End-to-end metrics that are reported, recorded and compared but not
/// listed in `BENCHMARK.json`: the aggregate throughput and the median,
/// which interference on a shared host moves by more than a useful bound,
/// the tails, and the exact results of the simulation.
pub const END_TO_END_EXTRA: [Spec; 9] = [
    Spec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        kind: Kind::Host,
    },
    Spec {
        name: "op_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
    },
    Spec {
        name: "op_us_p90",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
    },
    Spec {
        name: "op_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
    },
    Spec {
        name: "fail_ratio",
        unit: "1",
        better: Better::Lower,
        bound: 0.0,
        kind: Kind::Deterministic,
    },
    Spec {
        name: "sim_throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.0,
        kind: Kind::Simulated,
    },
    Spec {
        name: "sim_recovery_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.0,
        kind: Kind::Simulated,
    },
    Spec {
        name: "sim_recovery_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.0,
        kind: Kind::Simulated,
    },
    Spec {
        name: "sim_success_rate",
        unit: "1",
        better: Better::Higher,
        bound: 0.0,
        kind: Kind::Simulated,
    },
];

/// Look up an end-to-end metric definition by name.
#[must_use]
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA.iter())
        .find(|s| s.name == name)
}

/// The per-layer metrics every traced run reports, with their units,
/// in report order: the probes first, then the workload's own.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("idl.parse_us", "us"),
        ("idl.validate_us", "us"),
        ("compiler.lower_us", "us"),
        ("compiler.emit_us", "us"),
        ("compiler.elide_us", "us"),
        ("testbed.build_us.bare", "us"),
        ("testbed.build_us.c3", "us"),
        ("testbed.build_us.superglue", "us"),
        ("testbed.build_us.pipeline", "us"),
        ("kernel.invoke_ns", "ns"),
        ("stub.ns_per_call", "ns"),
        ("stub.elided_ns_per_call", "ns"),
        ("c3.ns_per_call", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    v.extend(
        IFACES
            .iter()
            .map(|i| (format!("stub.{}.ns_per_iter", i.name()), "ns")),
    );
    v.extend(
        [
            ("fold.trace_ns_per_call", "ns"),
            ("fold.series_ns_per_call", "ns"),
            ("core.step_ns", "ns"),
            ("kernel.shell_ns", "ns"),
            ("fold.snapshot_us", "us"),
        ]
        .map(|(n, u)| (n.to_owned(), u)),
    );
    v.extend(
        IFACES
            .iter()
            .map(|i| (format!("recovery.{}_us", i.name()), "us")),
    );
    v.extend(
        [
            ("artifact.jsonl_ns_per_event", "ns"),
            ("artifact.chrome_ns_per_event", "ns"),
            ("artifact.bytes_per_event", "B"),
            ("artifact.series_us", "us"),
            ("trace_overhead_pct", "%"),
            ("wl.boot_share_pct", "%"),
            ("wl.artifact_share_pct", "%"),
            ("wl.invocations_per_op", "1/op"),
            ("wl.ns_per_invocation", "ns"),
            ("wl.boots_per_kop", "1/kop"),
            ("wl.reboots_per_kop", "1/kop"),
        ]
        .map(|(n, u)| (n.to_owned(), u)),
    );
    v.extend(
        MECHANISMS
            .iter()
            .map(|m| (format!("mech.{}_per_kop", m.name()), "1/kop")),
    );
    v
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Improvement direction.
    pub better: Better,
    /// Host, simulated or deterministic.
    pub kind: Kind,
    /// Regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
}

impl Metric {
    /// An end-to-end metric by its definition.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not an end-to-end metric.
    #[must_use]
    pub fn end_to_end(name: &str, value: f64) -> Self {
        let s = spec(name).expect("an end-to-end metric");
        Self {
            name: s.name.to_owned(),
            unit: s.unit.to_owned(),
            value,
            better: s.better,
            kind: s.kind,
            bound: Some(s.bound),
        }
    }

    /// A per-layer metric (smaller is better; no bound).
    #[must_use]
    pub fn layer(name: impl Into<String>, unit: &str, kind: Kind, value: f64) -> Self {
        Self {
            name: name.into(),
            unit: unit.to_owned(),
            value,
            better: Better::Lower,
            kind,
            bound: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.push("value", self.value)
            .push("unit", self.unit.as_str())
            .push("better", self.better.name())
            .push("kind", self.kind.name());
        if let Some(b) = self.bound {
            j.push("bound", b);
        }
        j
    }

    /// Parse a record's metric entry.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(name: &str, j: &Json) -> Result<Self, String> {
        let field = |k: &str| {
            j.get(k)
                .ok_or_else(|| format!("metric {name}: missing {k}"))
        };
        let value = match field("value")? {
            Json::Float(v) => *v,
            other => other
                .as_i64()
                .map(|v| v as f64)
                .ok_or_else(|| format!("metric {name}: value is not a number"))?,
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("metric {name}: {k} is not a string"))
        };
        Ok(Self {
            name: name.to_owned(),
            unit: text("unit")?,
            value,
            better: Better::parse(&text("better")?)
                .ok_or_else(|| format!("metric {name}: bad direction"))?,
            kind: Kind::parse(&text("kind")?).ok_or_else(|| format!("metric {name}: bad kind"))?,
            bound: match j.get("bound") {
                Some(Json::Float(b)) => Some(*b),
                Some(b) => b.as_i64().map(|b| b as f64),
                None => None,
            },
        })
    }
}

/// Everything one `sgperf run` produced.
#[derive(Debug)]
pub struct RunReport {
    /// The run manifest.
    pub manifest: Json,
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether the traced rerun and probes ran.
    pub traced: bool,
    /// Ops attempted in the timed run.
    pub attempted: u64,
    /// Ops that failed their check in the timed run.
    pub failed: u64,
    /// Every failed check.
    pub violations: Vec<Violation>,
    /// End-to-end metrics: [`END_TO_END`], then the extra ones that apply.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs): [`per_layer_names`], then the
    /// workload's own.
    pub per_layer: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// Human-readable notes (sample counts, pass summary).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and the
    /// `BENCHMARK.json` metrics of this mode (end-to-end untraced,
    /// per-layer traced).
    #[must_use]
    pub fn result_line(&self) -> String {
        let listed: Vec<&Metric> = if self.traced {
            let names = per_layer_names();
            self.per_layer
                .iter()
                .filter(|m| names.iter().any(|(n, _)| *n == m.name))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .filter(|m| END_TO_END.iter().any(|s| s.name == m.name))
                .collect()
        };
        let mut metrics = Json::object();
        for m in listed {
            let mut v = Json::object();
            v.push("value", m.value).push("unit", m.unit.as_str());
            metrics.push(&m.name, v);
        }
        let mut j = Json::object();
        j.push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics);
        j.to_line()
    }

    /// The record `sgperf compare` reads: manifest, outcome and every
    /// metric with its unit, direction, kind and bound.
    #[must_use]
    pub fn record(&self) -> Json {
        let mut metrics = Json::object();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            metrics.push(&m.name, m.to_json());
        }
        let mut j = Json::object();
        j.push("sgperf_record", 1u64)
            .push("manifest", self.manifest.clone())
            .push("workload", self.workload.name())
            .push("seed", self.seed)
            .push("traced", self.traced)
            .push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics);
        j
    }

    /// The human-readable report (everything above the result line).
    #[must_use]
    pub fn human(&self) -> String {
        let mut out = format!(
            "sgperf run: workload {} (op = {}), seed {}, {}\nmanifest {}\n",
            self.workload.name(),
            self.workload.op(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.manifest.to_line()
        );
        out.push_str("end-to-end (host metrics have a regression bound):\n");
        for m in &self.end_to_end {
            out.push_str(&metric_line(m));
        }
        if self.traced {
            out.push_str("per-layer:\n");
            for m in &self.per_layer {
                out.push_str(&metric_line(m));
            }
            out.push_str("spans (name, count, total ms, self ms):\n");
            for (name, (n, total, own)) in totals_by_name(&self.spans) {
                out.push_str(&format!(
                    "  {name:<32} {n:>8} {:>12.3} {:>12.3}\n",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                ));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.correct() {
            out.push_str("checks: ok\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("check FAILED: {v}\n"));
            }
        }
        out
    }
}

fn metric_line(m: &Metric) -> String {
    let bound = m
        .bound
        .filter(|_| m.kind == Kind::Host)
        .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
    format!(
        "  {:<32} {:>16.4} {:<6} ({}, {} is better{bound})\n",
        m.name,
        m.value,
        m.unit,
        m.kind.name(),
        m.better.name()
    )
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// The run manifest: toolchain, source revision ("unknown" outside a
/// git checkout), processors, build profile, workload, seed, duration,
/// sizes and the traced flag.
#[must_use]
pub fn manifest(w: Workload, seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut j = Json::object();
    j.push("sgperf", env!("CARGO_PKG_VERSION"))
        .push(
            "rustc",
            command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .push(
            "git_rev",
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .push("nproc", nproc)
        .push("threads", 1u64)
        .push(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .push("workload", w.name())
        .push("seed", seed)
        .push("seconds", seconds)
        .push("traced", traced)
        .push("sizes", sizes.to_json());
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_only_benchmark_metrics_and_reports_failed_checks() {
        let mut r = RunReport {
            manifest: Json::object(),
            workload: Workload::Invoke,
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            end_to_end: END_TO_END
                .iter()
                .map(|s| s.name)
                .chain(["fail_ratio"])
                .map(|n| Metric::end_to_end(n, 1.5))
                .collect(),
            per_layer: Vec::new(),
            spans: Vec::new(),
            notes: Vec::new(),
        };
        let line = Json::parse(&r.result_line()).expect("JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|s| s.name));

        r.violations.push(Violation::TraceDiverged);
        let line = Json::parse(&r.result_line()).expect("JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(r.human().contains("check FAILED: the traced rerun"));
    }
}
