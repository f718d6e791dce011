//! The benchmark's own span tracing.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer's public function. Spans stay in memory and are written as JSON
//! lines when the run ends. With tracing off, [`Spans::record`] is a
//! plain call, so untraced runs pay one branch per unit.

use std::collections::BTreeMap;
use std::time::Instant;

use composite::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`, e.g. `swifi.run_shard` or `artifact.jsonl`.
    pub name: &'static str,
    /// Index of the workload unit (or probe repetition) the span serves.
    pub op: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn record<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping or adjacent children are
/// merged first, so no instant is subtracted twice).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Render spans as JSON lines, one object per span after a header line
/// carrying the run manifest.
#[must_use]
pub fn to_jsonl(spans: &[Span], workload: &str, manifest: &Json) -> String {
    let mut header = Json::object();
    header
        .push("sgperf_spans", 1u64)
        .push("manifest", manifest.clone());
    let mut out = header.to_line();
    out.push('\n');
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let mut j = Json::object();
        j.push("id", s.id)
            .push("parent", s.parent.map_or(Json::Null, Json::from))
            .push("name", s.name)
            .push("workload", workload)
            .push("op", s.op)
            .push("start_ns", s.start_ns)
            .push("end_ns", s.end_ns)
            .push("self_ns", own);
        out.push_str(&j.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = [
            span(0, None, 0, 100),
            // Adjacent children [10,20) and [20,35): 25 ns covered.
            span(1, Some(0), 10, 20),
            span(2, Some(0), 20, 35),
            // A grandchild inside child 2 does not count against span 0.
            span(3, Some(2), 22, 30),
            // Overlapping children [50,70) and [60,80): 30 ns covered.
            span(4, Some(0), 50, 70),
            span(5, Some(0), 60, 80),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 25 - 30);
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 15 - 8);
        assert_eq!(own[3], 8);
        assert_eq!(own[4], 20);
        assert_eq!(own[5], 20);
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut on = Spans::new(true);
        let v = on.record("outer", 7, |s| s.record("inner", 7, |_| 42));
        assert_eq!(v, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["outer"].0, 1);
        assert_eq!(totals["outer"].1, totals["outer"].2 + totals["inner"].1);

        let mut off = Spans::new(false);
        assert_eq!(off.record("outer", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
