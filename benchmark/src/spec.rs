//! `BENCHMARK.json` as the benchmark reads it, and the validation every
//! result passes before it is printed: the emitted names are exactly the
//! declared ones, every value is finite, every unit is the declared one.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, Declared>,
    pub per_layer: BTreeMap<String, Declared>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the working directory (the root of
    /// the checkout; `run.sh` puts the process there).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: run_seconds missing")? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: workloads missing")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str| -> Result<BTreeMap<String, Declared>, String> {
            let mut out = BTreeMap::new();
            for m in doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: {key} missing"))?
            {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                };
                let declared = Declared {
                    unit: field("unit")?,
                    better: field("better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                };
                if out.insert(field("name")?, declared).is_some() {
                    return Err(format!("BENCHMARK.json: duplicate name in {key}"));
                }
            }
            Ok(out)
        };
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// No missing names, no extra names, finite values, declared units.
    pub fn validate(&self, traced: bool, metrics: &[Metric]) -> Result<(), String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut seen = BTreeMap::new();
        for m in metrics {
            let Some(d) = declared.get(&m.name) else {
                return Err(format!(
                    "metric {} is not declared in BENCHMARK.json",
                    m.name
                ));
            };
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if m.unit.is_empty() || m.unit != d.unit {
                return Err(format!(
                    "metric {} has unit {:?}, BENCHMARK.json declares {:?}",
                    m.name, m.unit, d.unit
                ));
            }
            if seen.insert(m.name.as_str(), ()).is_some() {
                return Err(format!("metric {} emitted twice", m.name));
            }
        }
        match declared.keys().find(|k| !seen.contains_key(k.as_str())) {
            Some(missing) => Err(format!("declared metric {missing} was not emitted")),
            None => Ok(()),
        }
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json::num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 27,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "l.count", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn validation_wants_exactly_the_declared_names() {
        let spec = Spec::parse(DOC).expect("valid");
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end["lat_ms"].bound, Some(0.1));
        let good = [
            Metric::new("lat_ms", 1.5, "ms"),
            Metric::new("setup_s", 0.3, "s"),
        ];
        assert_eq!(spec.validate(false, &good), Ok(()));
        assert!(spec.validate(false, &good[..1]).is_err(), "missing name");
        let extra = [
            good[0].clone(),
            good[1].clone(),
            Metric::new("x", 1.0, "ms"),
        ];
        assert!(spec.validate(false, &extra).is_err(), "extra name");
        let nan = [Metric::new("lat_ms", f64::NAN, "ms"), good[1].clone()];
        assert!(spec.validate(false, &nan).is_err(), "non-finite value");
        let unit = [Metric::new("lat_ms", 1.5, "us"), good[1].clone()];
        assert!(spec.validate(false, &unit).is_err(), "wrong unit");
        assert!(spec.validate(true, &good).is_err(), "wrong section");
        assert_eq!(
            spec.validate(true, &[Metric::new("l.count", 3.0, "count")]),
            Ok(())
        );
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(true, 10, 0, &[Metric::new("lat_ms", 1.2034, "ms")]);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.as_obj().expect("object").len(), 4);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(10.0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("lat_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
