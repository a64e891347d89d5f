//! `BENCHMARK.json` and `isf-benchmark` agree: every name it emits is
//! declared there, with the same unit and direction, in the same order.

use isf_benchmark::spec::{self, Metric, Workload, BENCHMARK_JSON};
use isf_obs::Json;

fn declaration() -> Json {
    isf_obs::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry} has no `{key}`"))
}

fn keys(entry: &Json) -> Vec<&str> {
    match entry {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_declared(declared: &[Json], emitted: &[Metric], bounded: bool) {
    assert_eq!(declared.len(), emitted.len());
    for (d, m) in declared.iter().zip(emitted) {
        assert_eq!(str_field(d, "name"), m.name);
        assert_eq!(str_field(d, "unit"), m.unit, "{}", m.name);
        assert_eq!(str_field(d, "better"), m.better.as_str(), "{}", m.name);
        assert!(valid_name(m.name), "{}", m.name);
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(d), expected, "{}", m.name);
    }
}

#[test]
fn every_emitted_metric_is_declared() {
    let spec = declaration();
    assert_declared(list(&spec, "end_to_end"), spec::END_TO_END, true);
    assert_declared(list(&spec, "per_layer"), spec::PER_LAYER, false);
    let mut names: Vec<&str> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .map(|m| m.name)
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "names are unique");
}

#[test]
fn bounds_are_shares_and_setup_has_the_largest() {
    let bounds: Vec<(&str, f64)> = spec::END_TO_END
        .iter()
        .map(|m| (m.name, spec::bound(m.name).expect("bounded")))
        .collect();
    for &(name, b) in &bounds {
        assert!(b > 0.0 && b <= 0.25, "{name}: {b}");
    }
    let setup = spec::bound("setup_s").expect("setup_s is declared");
    assert!(bounds.iter().all(|&(_, b)| b <= setup));
    assert_eq!(
        spec::bound("exec.run_s"),
        None,
        "per-layer metrics have no bound"
    );
}

#[test]
fn workloads_and_command_match_the_benchmark() {
    let spec = declaration();
    let declared: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            str_field(w, "name")
        })
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
    assert!(declared.iter().all(|n| valid_name(n)));
    let paths: Vec<&str> = list(&spec, "paths")
        .iter()
        .map(|p| p.as_str().expect("path"))
        .collect();
    assert_eq!(paths, ["isf-benchmark"]);
    let command: Vec<&str> = list(&spec, "command")
        .iter()
        .map(|c| c.as_str().expect("argument"))
        .collect();
    assert_eq!(command, ["bash", "isf-benchmark/run.sh"]);
}
