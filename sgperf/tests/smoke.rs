//! Every workload, traced, at toy sizes: the checks pass, every listed
//! metric is reported, and `BENCHMARK.json` and `README.md` agree with
//! the metric definitions.

use composite::Json;
use sg_perf::report::{per_layer_names, Kind, END_TO_END};
use sg_perf::workload::{Sizes, Workload};
use sg_perf::{run, RunOptions, DEFAULT_SEED};

fn toy(workload: Workload, trace: bool) -> RunOptions {
    RunOptions {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        sizes: Sizes::TOY,
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for w in Workload::ALL {
        let r = run(&toy(w, true));
        assert!(r.correct(), "{}: {:?}", w.name(), r.violations);
        assert!(r.attempted > 0, "{}", w.name());
        for s in END_TO_END {
            let m = r.end_to_end.iter().find(|m| m.name == s.name);
            assert!(
                m.is_some_and(|m| m.value > 0.0),
                "{}: {} missing or 0",
                w.name(),
                s.name
            );
        }
        let names: Vec<&str> = r.per_layer.iter().map(|m| m.name.as_str()).collect();
        let listed = per_layer_names();
        assert_eq!(
            names[..listed.len()],
            listed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()[..],
            "{}",
            w.name()
        );
        // The last line holds exactly the four keys, and the traced
        // run's metrics are exactly the per-layer list.
        let line = Json::parse(&r.result_line()).expect("result line is JSON");
        let Json::Object(fields) = &line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), listed.len(), "{}", w.name());
        assert!(
            !r.spans.is_empty(),
            "{}: traced run recorded no spans",
            w.name()
        );
    }
}

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    let exact = |w| {
        run(&toy(w, false))
            .end_to_end
            .into_iter()
            .filter(|m| m.kind != Kind::Host)
            .map(|m| (m.name, m.value))
            .collect::<Vec<_>>()
    };
    for w in [Workload::Campaign, Workload::Pipeline] {
        let a = exact(w);
        assert!(!a.is_empty());
        assert_eq!(a, exact(w), "{}", w.name());
    }
}

#[test]
fn benchmark_json_matches_the_metric_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let j = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let strs = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
    let workloads: Vec<String> = j
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| strs(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
    let e2e = j
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, s) in e2e.iter().zip(END_TO_END) {
        assert_eq!(strs(m, "name").as_deref(), Some(s.name));
        assert_eq!(strs(m, "unit").as_deref(), Some(s.unit));
        assert_eq!(strs(m, "better").as_deref(), Some(s.better.name()));
        assert_eq!(m.get("bound"), Some(&Json::Float(s.bound)), "{}", s.name);
    }
    let layers = j
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    let listed = per_layer_names();
    assert_eq!(layers.len(), listed.len());
    for (m, (name, unit)) in layers.iter().zip(&listed) {
        assert_eq!(strs(m, "name").as_ref(), Some(name));
        assert_eq!(strs(m, "unit").as_deref(), Some(*unit));
        assert_eq!(strs(m, "better").as_deref(), Some("lower"));
    }
}

#[test]
fn readme_documents_the_default_seed_and_each_listed_metric() {
    // BENCHMARK.json has no field for the default seed or a metric's
    // kind; the README's option and metric tables carry them.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let text = std::fs::read_to_string(path).expect("README.md beside the benchmark");
    assert!(
        text.contains(&format!("| `--seed N` | default {DEFAULT_SEED};")),
        "README does not give the default seed {DEFAULT_SEED}"
    );
    for s in END_TO_END {
        let row = format!(
            "| `{}` | {} | {} | {} | {:.0} % |",
            s.name,
            s.unit,
            s.better.name(),
            s.kind.name(),
            s.bound * 100.0
        );
        assert!(text.contains(&row), "README has no row {row}");
    }
}
