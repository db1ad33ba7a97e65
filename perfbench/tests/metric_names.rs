//! The metrics a run prints must be exactly the ones `BENCHMARK.json`
//! declares, in both modes.

use perfbench::measure::{end_to_end_metrics, layer_metrics, Phase};
use perfbench::workloads::Layers;

/// The `name` values of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    let printed: Vec<String> = layer_metrics(&Layers::default(), 1.0, 1.0)
        .into_iter()
        .map(|(name, _, _)| name.to_string())
        .collect();
    assert_eq!(printed, declared("per_layer"));
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let printed: Vec<String> = end_to_end_metrics(&Phase::default(), 1.0)
        .into_iter()
        .map(|(name, _, _)| name.to_string())
        .collect();
    assert_eq!(printed, declared("end_to_end"));
}
