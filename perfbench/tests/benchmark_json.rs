//! `BENCHMARK.json` at the repository root names the workloads and metrics
//! this benchmark prints; it must list exactly the ones the code emits.

use serde::Value;
use simmr_perfbench::metrics::{per_layer, END_TO_END};
use simmr_perfbench::WORKLOADS;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(item: &'a Value, key: &str) -> &'a str {
    match item.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    list(doc, key)
        .iter()
        .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
        .collect()
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = list(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn end_to_end_metrics_match() {
    let doc = benchmark_json();
    let want: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
    assert_eq!(names_and_units(&doc, "end_to_end"), want);
}

#[test]
fn per_layer_metrics_match() {
    let doc = benchmark_json();
    let want: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
    assert_eq!(names_and_units(&doc, "per_layer"), want);
}
