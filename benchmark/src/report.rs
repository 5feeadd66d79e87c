//! What a workload hands back: raw samples and check outcomes from each
//! child process ([`Samples`]), and the named metrics the driver derives
//! from them ([`Metric`]).

use serde::Value;
use std::collections::BTreeMap;

/// Raw measurements of one child process (or several, merged): named
/// sample lists plus the attempted/failed operation counts. A scalar is a
/// one-element list, so merging passes is always concatenation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Sample lists by key.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Operations attempted (a correctness check is an operation).
    pub attempted: u64,
    /// Operations that failed (a failed check is a failed operation).
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Samples {
    /// Appends one sample under `key`.
    pub fn push(&mut self, key: &str, value: f64) {
        self.samples.entry(key.to_string()).or_default().push(value);
    }

    /// Appends many samples under `key`.
    pub fn extend(&mut self, key: &str, values: impl IntoIterator<Item = f64>) {
        self.samples
            .entry(key.to_string())
            .or_default()
            .extend(values);
    }

    /// The samples under `key` (empty when absent).
    pub fn get(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Counts `n` attempted operations that need no individual check.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one correctness check; a failed one is a failed operation.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.errors.push(format!("{name}: {why}"));
        }
    }

    /// Folds another child's samples into this one.
    pub fn merge(&mut self, other: Samples) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// The one-line JSON a child prints for its parent.
    pub fn to_json(&self) -> String {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Array(v.iter().map(|&x| Value::Float(x)).collect()),
                )
            })
            .collect();
        serde::json::to_string(&Value::Object(vec![
            ("samples".to_string(), Value::Object(samples)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            (
                "errors".to_string(),
                Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
            ),
        ]))
    }

    /// Parses [`Samples::to_json`].
    pub fn from_json(text: &str) -> Result<Samples, String> {
        let v = serde::json::parse_value(text).map_err(|e| e.to_string())?;
        let field = |name: &str| v.field(name).map_err(|e| e.to_string());
        let Value::Object(entries) = field("samples")? else {
            return Err("`samples` is not an object".to_string());
        };
        let mut samples = BTreeMap::new();
        for (k, list) in entries {
            let Value::Array(items) = list else {
                return Err(format!("samples `{k}` is not an array"));
            };
            let values = items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("non-numeric sample in `{k}`"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            samples.insert(k.clone(), values);
        }
        let count = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("`{name}` is not a count"))
        };
        let errors = match field("errors")? {
            Value::Array(items) => items
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            _ => return Err("`errors` is not an array".to_string()),
        };
        Ok(Samples {
            samples,
            attempted: count("attempted")?,
            failed: count("failed")?,
            errors,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// What the value is on this workload: the specific quantity behind a
    /// generic name, the percentile, or a `computed`/`estimate` label.
    pub note: String,
}

impl Metric {
    /// A metric with its provenance note.
    pub fn new(name: &'static str, value: f64, n: usize, note: impl Into<String>) -> Metric {
        Metric {
            name,
            value,
            n,
            note: note.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_and_merge() {
        let mut a = Samples::default();
        a.push("wall_s", 1.25);
        a.extend("cell_ms", [0.5, 0.75]);
        a.attempt(3);
        a.check("ok", Ok(()));
        a.check("bad", Err("mismatch".to_string()));
        let back = Samples::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert_eq!((back.attempted, back.failed), (5, 1));
        let mut merged = back.clone();
        merged.merge(a);
        assert_eq!(merged.get("cell_ms"), &[0.5, 0.75, 0.5, 0.75]);
        assert_eq!((merged.attempted, merged.failed), (10, 2));
        assert_eq!(merged.get("absent"), &[] as &[f64]);
    }
}
