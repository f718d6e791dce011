//! `sgperf compare`: the verdict on two sets of run records.
//!
//! Side A is the parent, side B the change. Runs pair up in file-name
//! order (run the sides alternately, so pair `i` shares the machine's
//! state). For every (workload, metric) present on both sides the
//! report gives each side's median and quartiles, the fraction of pairs
//! B wins, and a verdict:
//!
//! * **improved** — B wins at least 9/10 of the pairs (ties count for
//!   neither) and the medians differ by more than A's quartile spread;
//! * **unresolved** — not improved, and either side's quartile spread,
//!   as a share of its median, exceeds the metric's bound;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **unchanged** — otherwise.
//!
//! Simulated and deterministic metrics have bound 0 and repeat for a
//! seed, so they are compared pair by pair (pair `i` must share its
//! seed): any pair that differs decides the verdict. Per-layer metrics
//! carry no bound and get no verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use composite::Json;

use crate::report::{Better, Metric};
use crate::stats::quartiles;
use crate::workload::Workload;

/// One record file.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload it ran.
    pub workload: String,
    /// Its metrics.
    pub metrics: Vec<Metric>,
}

/// Parse a record written by `sgperf run --record`.
///
/// # Errors
///
/// A message naming the problem.
pub fn parse_record(text: &str) -> Result<Record, String> {
    let j = Json::parse(text.trim())?;
    if j.get("sgperf_record").is_none() {
        return Err("not an sgperf record".into());
    }
    let workload = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("record has no workload")?
        .to_owned();
    let Some(Json::Object(fields)) = j.get("metrics") else {
        return Err("record has no metrics object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| Metric::from_json(name, m))
        .collect::<Result<_, _>>()?;
    Ok(Record { workload, metrics })
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the gain rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// B is worse by more than the bound.
    Regressed,
    /// The spread exceeds the bound.
    Unresolved,
    /// No bound: reported for information.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Pairs (in order) in which `b` reads strictly better than `a`.
fn wins(a: &[f64], b: &[f64], better: Better) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count()
}

/// The verdict on paired values `a` (parent) and `b` (change).
///
/// # Panics
///
/// Panics when either side is empty.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if bound == 0.0 {
        // Exact metrics repeat for a seed, and pair `i` shares its seed:
        // compare pair by pair.
        let losses = wins(b, a, better);
        return if losses > 0 {
            Verdict::Regressed
        } else if wins(a, b, better) > 0 {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
    }
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = B worse.
    let worse = |x: f64, y: f64| sign * (y - x);
    let (a1, am, a3) = quartiles(&mut a.to_vec());
    let (b1, bm, b3) = quartiles(&mut b.to_vec());
    let pairs = a.len().min(b.len());
    let wins = wins(a, b, better);
    let gain_clear = worse(am, bm) < 0.0 && (bm - am).abs() > a3 - a1;
    if pairs > 0 && wins * 10 >= pairs * 9 && gain_clear {
        return Verdict::Improved;
    }
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if spread(a1, am, a3).max(spread(b1, bm, b3)) > bound {
        return Verdict::Unresolved;
    }
    let rel = if am == 0.0 {
        worse(am, bm)
    } else {
        worse(am, bm) / am.abs()
    };
    if rel > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One side's values: workload -> metric -> (definition, values in
/// file-name order).
type Side = BTreeMap<String, BTreeMap<String, (Metric, Vec<f64>)>>;

/// Compare record files: the first directory among `paths` is side A,
/// the second side B.
///
/// # Errors
///
/// Unreadable or malformed records, or not exactly two directories.
pub fn compare(paths: &[String]) -> Result<String, String> {
    let mut sides: Vec<(String, Vec<String>)> = Vec::new();
    for p in paths {
        let dir = Path::new(p)
            .parent()
            .map_or_else(String::new, |d| d.display().to_string());
        match sides.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, files)) => files.push(p.clone()),
            None => sides.push((dir, vec![p.clone()])),
        }
    }
    if sides.len() != 2 {
        return Err(format!(
            "compare needs record files from exactly two directories (parent, change); got {}",
            sides.len()
        ));
    }
    let mut values: [Side; 2] = Default::default();
    for (k, (_, files)) in sides.iter_mut().enumerate() {
        files.sort();
        for f in files.iter() {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            let rec = parse_record(&text).map_err(|e| format!("{f}: {e}"))?;
            let by_metric = values[k].entry(rec.workload).or_default();
            for m in rec.metrics {
                let v = m.value;
                by_metric
                    .entry(m.name.clone())
                    .or_insert((m, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    let order = |w: &String| {
        Workload::parse(w).map_or(usize::MAX, |w| {
            Workload::ALL
                .iter()
                .position(|x| *x == w)
                .unwrap_or(usize::MAX)
        })
    };
    let mut workloads: Vec<&String> = values[0]
        .keys()
        .filter(|w| values[1].contains_key(*w))
        .collect();
    workloads.sort_by_key(|w| (order(w), (*w).clone()));
    let mut out = format!(
        "A = {} ({} files), B = {} ({} files)\n",
        sides[0].0,
        sides[0].1.len(),
        sides[1].0,
        sides[1].1.len()
    );
    for w in workloads {
        let _ = writeln!(out, "== {w} ==");
        let _ = writeln!(
            out,
            "{:<32} {:<6} {:>34} {:>34} {:>7} {:>9}  verdict",
            "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change"
        );
        for (name, (m, a)) in &values[0][w] {
            let Some((_, b)) = values[1][w].get(name) else {
                continue;
            };
            let v = verdict(a, b, m.better, m.bound);
            let (a1, am, a3) = quartiles(&mut a.clone());
            let (b1, bm, b3) = quartiles(&mut b.clone());
            let pairs = a.len().min(b.len());
            let wins = wins(a, b, m.better);
            let change = if am == 0.0 {
                0.0
            } else {
                (bm - am) / am.abs() * 100.0
            };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
            let _ = writeln!(
                out,
                "{name:<32} {:<6} {:>34} {:>34} {:>7} {change:>+8.2}%  {}{bound}",
                m.unit,
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                format!("{wins}/{pairs}"),
                v.name()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_gain_and_bound_rules() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Identical runs: unchanged.
        assert_eq!(
            verdict(&a, &a, Better::Higher, Some(0.08)),
            Verdict::Unchanged
        );
        // 20% faster in every pair: improved.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&a, &b, Better::Higher, Some(0.08)),
            Verdict::Improved
        );
        // 20% slower: regressed; for a lower-is-better metric the same
        // numbers are an improvement.
        let c: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&a, &c, Better::Higher, Some(0.08)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &c, Better::Lower, Some(0.08)),
            Verdict::Improved
        );
        // 5% slower is within an 8% bound.
        let d: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(
            verdict(&a, &d, Better::Higher, Some(0.08)),
            Verdict::Unchanged
        );
        // A spread wider than the bound leaves it unresolved.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&a, &noisy, Better::Higher, Some(0.08)),
            Verdict::Unresolved
        );
        // Exact metrics: any worsening regresses.
        assert_eq!(
            verdict(&[1.0, 1.0], &[1.0, 1.0], Better::Lower, Some(0.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[1.0, 1.0], &[2.0, 2.0], Better::Lower, Some(0.0)),
            Verdict::Regressed
        );
        // Exact metrics vary by seed but not between paired runs.
        assert_eq!(
            verdict(&[1.0, 3.0], &[1.0, 3.0], Better::Lower, Some(0.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[1.0, 3.0], &[1.0, 2.0], Better::Lower, Some(0.0)),
            Verdict::Improved
        );
        assert_eq!(verdict(&a, &b, Better::Lower, None), Verdict::Info);
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let text = r#"{"sgperf_record":1,"workload":"invoke","metrics":{"ops_per_s":{"value":12.5,"unit":"1/s","better":"higher","kind":"host","bound":0.08},"fail_ratio":{"value":0,"unit":"1","better":"lower","kind":"deterministic","bound":0.0}}}"#;
        let r = parse_record(text).expect("valid record");
        assert_eq!(r.workload, "invoke");
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.metrics[0].value, 12.5);
        assert_eq!(r.metrics[0].better, Better::Higher);
        assert_eq!(r.metrics[1].bound, Some(0.0));
        assert!(parse_record("{}").is_err());
    }
}
