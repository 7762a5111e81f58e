//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! at build time: workload names, the run length, and every metric with
//! its unit, direction and regression bound. One file states them, the
//! binary and `--compare` follow it.

use crate::json::{self, Json};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        root.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{key} entry lacks \"{k}\""))
                };
                let better = match field("better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("unknown direction {other:?}")),
                };
                Ok(Metric {
                    name: field("name")?,
                    unit: field("unit")?,
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("run_seconds missing")? as u64,
        workloads: root
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_definition_parses_and_bounds_every_end_to_end_metric() {
        let s = spec();
        assert_eq!(s.workloads.len(), 4);
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.metric("setup_s").expect("setup_s is defined");
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up carries the largest bound"
        );
    }
}
