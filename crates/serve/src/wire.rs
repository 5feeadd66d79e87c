//! The JSON wire format: `GridSpec` submissions in, NDJSON result
//! streams out.
//!
//! A grid submission is either a preset reference or explicit axes:
//!
//! ```json
//! {"preset": "smoke"}
//! {"name": "adhoc", "models": ["VGG13"], "datasets": ["Cifar10"],
//!  "designs": ["ADA-GP-MAX"], "dataflows": ["WS"], "schedules": ["paper"],
//!  "bandwidths": [null, 64], "buffers": [null]}
//! ```
//!
//! Axis values are the same stable display names the CSV store writes
//! (`CnnModel::name()` etc.), so a cell row cut out of a committed
//! `runs/*.csv` names exactly the axis values to resubmit. `bandwidths`/
//! `buffers` entries are `null` (evaluator default) or a positive
//! integer; both axes may be omitted entirely (→ `[null]`).
//!
//! The `/grid` response is NDJSON (one JSON object per line): a header
//! line, one line per cell as it completes, and a summary line —
//! streaming-friendly framing that needs no length prefix and lets a
//! client act on early cells while later ones still evaluate. Metric
//! floats ride through the vendored writer's shortest-round-trip
//! formatting, so a client parsing a cell line recovers bit-identical
//! `f64`s — the property the load-test harness asserts.

use adagp_sweep::grid::{DatasetScale, GridSpec, PhaseSchedule};
use adagp_sweep::store::METRICS;
use adagp_sweep::{presets, CellMetrics};
use serde::Value;

/// Most cells an explicit-axes submission may expand into. Axis entries
/// may repeat, so without a cap a 1 MiB body could ask for billions of
/// cells; every preset is far below it (the largest has 234).
const MAX_GRID_CELLS: usize = 1 << 16;

/// Looks up one axis value by its stable display name.
fn lookup<T: Copy>(
    axis: &str,
    name: &str,
    all: &[T],
    name_of: fn(&T) -> &'static str,
) -> Result<T, String> {
    all.iter()
        .find(|v| name_of(v) == name)
        .copied()
        .ok_or_else(|| {
            let known: Vec<&str> = all.iter().map(name_of).collect();
            format!("unknown {axis} `{name}` (known: {})", known.join(", "))
        })
}

/// Field of an object `Value`, if present.
fn get<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, val)| val),
        _ => None,
    }
}

/// Parses one display-name axis array.
fn parse_axis<T: Copy>(
    v: &Value,
    axis: &str,
    all: &[T],
    name_of: fn(&T) -> &'static str,
) -> Result<Vec<T>, String> {
    let field = get(v, axis).ok_or_else(|| format!("missing axis `{axis}`"))?;
    let Value::Array(items) = field else {
        return Err(format!(
            "axis `{axis}` must be an array, found {}",
            field.kind()
        ));
    };
    if items.is_empty() {
        return Err(format!("axis `{axis}` must not be empty"));
    }
    items
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| {
                    format!(
                        "axis `{axis}` entries must be strings, found {}",
                        item.kind()
                    )
                })
                .and_then(|name| lookup(axis, name, all, name_of))
        })
        .collect()
}

/// Parses an optional `null`-or-integer axis (`bandwidths`/`buffers`).
fn parse_knob_axis(v: &Value, axis: &str) -> Result<Vec<Option<u64>>, String> {
    let Some(field) = get(v, axis) else {
        return Ok(vec![None]);
    };
    let Value::Array(items) = field else {
        return Err(format!(
            "axis `{axis}` must be an array, found {}",
            field.kind()
        ));
    };
    if items.is_empty() {
        return Err(format!("axis `{axis}` must not be empty"));
    }
    items
        .iter()
        .map(|item| match item {
            Value::Null => Ok(None),
            other => {
                other.as_u64().filter(|&n| n > 0).map(Some).ok_or_else(|| {
                    format!("axis `{axis}` entries must be null or a positive integer")
                })
            }
        })
        .collect()
}

/// Decodes a grid submission `Value` (preset reference or explicit axes).
///
/// # Errors
///
/// Returns a message naming the offending field — it becomes the 400
/// response body verbatim.
pub fn grid_from_value(v: &Value) -> Result<GridSpec, String> {
    if !matches!(v, Value::Object(_)) {
        return Err(format!(
            "grid submission must be an object, found {}",
            v.kind()
        ));
    }
    if let Some(preset) = get(v, "preset") {
        let name = preset
            .as_str()
            .ok_or_else(|| format!("preset must be a string, found {}", preset.kind()))?;
        return presets::by_name(name).ok_or_else(|| {
            let known: Vec<String> = presets::all().iter().map(|g| g.name.clone()).collect();
            format!("unknown preset `{name}` (known: {})", known.join(", "))
        });
    }
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;
    let name = match get(v, "name") {
        None => "adhoc".to_string(),
        Some(n) => n
            .as_str()
            .ok_or_else(|| format!("grid name must be a string, found {}", n.kind()))?
            .to_string(),
    };
    let grid = GridSpec {
        name,
        models: parse_axis(v, "models", &CnnModel::all(), |m| m.name())?,
        datasets: parse_axis(v, "datasets", &DatasetScale::all(), |d| d.name())?,
        designs: parse_axis(v, "designs", &AdaGpDesign::all(), |d| d.name())?,
        dataflows: parse_axis(v, "dataflows", &Dataflow::all(), |d| d.name())?,
        schedules: parse_axis(v, "schedules", &PhaseSchedule::all(), |s| s.name())?,
        bandwidths: parse_knob_axis(v, "bandwidths")?,
        buffers: parse_knob_axis(v, "buffers")?,
    };
    if grid.cell_count() > MAX_GRID_CELLS {
        return Err(format!(
            "grid expands to more than {MAX_GRID_CELLS} cells; split it into smaller grids"
        ));
    }
    Ok(grid)
}

/// Parses a `/grid` request body.
///
/// # Errors
///
/// Returns a message suitable for the 400 response body (bad UTF-8, bad
/// JSON with byte offset, or a shape error from [`grid_from_value`]).
pub fn parse_grid_request(body: &[u8]) -> Result<GridSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let value = serde::json::parse_value(text).map_err(|e| e.to_string())?;
    grid_from_value(&value)
}

/// Encodes a grid as its explicit-axes submission `Value` (the form
/// [`grid_from_value`] round-trips).
pub fn grid_to_value(grid: &GridSpec) -> Value {
    let names = |items: Vec<&'static str>| {
        Value::Array(
            items
                .into_iter()
                .map(|n| Value::String(n.to_string()))
                .collect(),
        )
    };
    let knobs = |items: &[Option<u64>]| {
        Value::Array(
            items
                .iter()
                .map(|k| k.map_or(Value::Null, Value::UInt))
                .collect(),
        )
    };
    Value::object(vec![
        ("name", Value::String(grid.name.clone())),
        (
            "models",
            names(grid.models.iter().map(|m| m.name()).collect()),
        ),
        (
            "datasets",
            names(grid.datasets.iter().map(|d| d.name()).collect()),
        ),
        (
            "designs",
            names(grid.designs.iter().map(|d| d.name()).collect()),
        ),
        (
            "dataflows",
            names(grid.dataflows.iter().map(|d| d.name()).collect()),
        ),
        (
            "schedules",
            names(grid.schedules.iter().map(|s| s.name()).collect()),
        ),
        ("bandwidths", knobs(&grid.bandwidths)),
        ("buffers", knobs(&grid.buffers)),
    ])
}

/// One parsed cell line of a `/grid` NDJSON response.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLine {
    /// Content-derived cell ID.
    pub id: String,
    /// Readable cell key.
    pub key: String,
    /// Whether the server had the cell memoized before this request.
    pub cached: bool,
    /// Metric values in [`METRICS`] order.
    pub metrics: [f64; METRICS.len()],
}

/// The summary line terminating a `/grid` NDJSON response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneLine {
    /// Cells served (== the header line's `cells`).
    pub cells: u64,
    /// Cells answered from the memo store.
    pub hits: u64,
    /// Cells this request evaluated itself.
    pub evaluated: u64,
    /// Cells this request waited on a concurrent evaluation for.
    pub joined: u64,
    /// Wall-clock microseconds spent serving the request.
    pub micros: u64,
}

/// Renders the header line of a `/grid` response.
pub fn header_line(grid: &str, cells: usize) -> String {
    serde::json::to_string(&Value::object(vec![
        ("grid", Value::String(grid.to_string())),
        ("cells", Value::UInt(cells as u64)),
    ]))
}

/// Renders one cell line: identity, cache disposition, and the metrics
/// as a name-keyed object in [`METRICS`] order.
pub fn cell_line(id: &str, key: &str, cached: bool, metrics: &CellMetrics) -> String {
    let values = adagp_sweep::metrics_to_array(metrics);
    let fields = METRICS
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, Value::Float(v)))
        .collect();
    serde::json::to_string(&Value::object(vec![
        ("id", Value::String(id.to_string())),
        ("key", Value::String(key.to_string())),
        ("cached", Value::Bool(cached)),
        ("metrics", Value::object(fields)),
    ]))
}

/// Renders the terminating summary line.
pub fn done_line(done: &DoneLine) -> String {
    serde::json::to_string(&Value::object(vec![
        ("done", Value::Bool(true)),
        ("cells", Value::UInt(done.cells)),
        ("hits", Value::UInt(done.hits)),
        ("evaluated", Value::UInt(done.evaluated)),
        ("joined", Value::UInt(done.joined)),
        ("micros", Value::UInt(done.micros)),
    ]))
}

fn require_u64(v: &Value, name: &str) -> Result<u64, String> {
    get(v, name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line has no numeric `{name}` field"))
}

fn require_str(v: &Value, name: &str) -> Result<String, String> {
    get(v, name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line has no string `{name}` field"))
}

/// Parses one cell line back into its typed form (the load-test client's
/// side of the contract).
///
/// # Errors
///
/// Returns a description of the missing/mistyped field.
pub fn parse_cell_line(line: &str) -> Result<CellLine, String> {
    let v = serde::json::parse_value(line).map_err(|e| e.to_string())?;
    let metrics_obj = get(&v, "metrics").ok_or("line has no `metrics` object")?;
    let mut metrics = [0.0f64; METRICS.len()];
    for (slot, m) in metrics.iter_mut().zip(METRICS.iter()) {
        *slot = get(metrics_obj, m.name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metrics object has no `{}`", m.name))?;
    }
    let cached = match get(&v, "cached") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("line has no boolean `cached` field".to_string()),
    };
    Ok(CellLine {
        id: require_str(&v, "id")?,
        key: require_str(&v, "key")?,
        cached,
        metrics,
    })
}

/// Parses the terminating summary line.
///
/// # Errors
///
/// Returns a description of the missing/mistyped field.
pub fn parse_done_line(line: &str) -> Result<DoneLine, String> {
    let v = serde::json::parse_value(line).map_err(|e| e.to_string())?;
    if get(&v, "done") != Some(&Value::Bool(true)) {
        return Err("not a done line".to_string());
    }
    Ok(DoneLine {
        cells: require_u64(&v, "cells")?,
        hits: require_u64(&v, "hits")?,
        evaluated: require_u64(&v, "evaluated")?,
        joined: require_u64(&v, "joined")?,
        micros: require_u64(&v, "micros")?,
    })
}

/// Whether an NDJSON line is a mid-stream cell error line (a cell whose
/// evaluation panicked — the stream continues past it).
pub fn is_error_line(line: &str) -> bool {
    serde::json::parse_value(line)
        .ok()
        .is_some_and(|v| get(&v, "error").is_some())
}

/// Renders a mid-stream cell error line.
pub fn error_line(id: &str, message: &str) -> String {
    serde::json::to_string(&Value::object(vec![
        ("id", Value::String(id.to_string())),
        ("error", Value::String(message.to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_round_trips_through_the_wire_form() {
        for grid in presets::all() {
            let v = grid_to_value(&grid);
            let back = grid_from_value(&v).expect(&grid.name);
            assert_eq!(back, grid, "{}", grid.name);
            // And through actual JSON text.
            let text = serde::json::to_string(&v);
            let reparsed = parse_grid_request(text.as_bytes()).expect(&grid.name);
            assert_eq!(reparsed, grid, "{}", grid.name);
        }
    }

    #[test]
    fn preset_references_resolve() {
        let spec = parse_grid_request(br#"{"preset":"smoke"}"#).unwrap();
        assert_eq!(spec.name, "smoke");
        let err = parse_grid_request(br#"{"preset":"nope"}"#).unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
        assert!(err.contains("smoke"), "names the known presets: {err}");
    }

    #[test]
    fn knob_axes_default_and_validate() {
        let spec = parse_grid_request(
            br#"{"models":["VGG13"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                "dataflows":["WS"],"schedules":["paper"]}"#,
        )
        .unwrap();
        assert_eq!(spec.bandwidths, vec![None]);
        assert_eq!(spec.buffers, vec![None]);
        assert_eq!(spec.name, "adhoc");
        let with_knobs = parse_grid_request(
            br#"{"models":["VGG13"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                "dataflows":["WS"],"schedules":["paper"],"bandwidths":[null,64]}"#,
        )
        .unwrap();
        assert_eq!(with_knobs.bandwidths, vec![None, Some(64)]);
        for bad in [
            &br#"{"models":["VGG13"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                 "dataflows":["WS"],"schedules":["paper"],"bandwidths":[0]}"#[..],
            br#"{"models":["VGG13"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                 "dataflows":["WS"],"schedules":["paper"],"bandwidths":["fast"]}"#,
            br#"{"models":["VGG13"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                 "dataflows":["WS"],"schedules":["paper"],"bandwidths":[]}"#,
        ] {
            assert!(parse_grid_request(bad).is_err());
        }
    }

    #[test]
    fn bad_submissions_name_the_problem() {
        assert!(parse_grid_request(b"[1,2]").unwrap_err().contains("object"));
        assert!(parse_grid_request(b"{nope")
            .unwrap_err()
            .contains("at byte"));
        assert!(parse_grid_request(br#"{"models":["VGG13"]}"#)
            .unwrap_err()
            .contains("missing axis `datasets`"));
        let unknown = parse_grid_request(
            br#"{"models":["VGG99"],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                "dataflows":["WS"],"schedules":["paper"]}"#,
        )
        .unwrap_err();
        assert!(unknown.contains("unknown models `VGG99`"), "{unknown}");
        assert!(unknown.contains("VGG13"), "lists known values: {unknown}");
    }

    #[test]
    fn oversized_grids_are_rejected_before_expansion() {
        // One axis repeating a value: the cap itself passes, one more fails.
        let models = |n: usize| {
            format!(
                r#"{{"models":[{}],"datasets":["Cifar10"],"designs":["ADA-GP-MAX"],
                    "dataflows":["WS"],"schedules":["paper"]}}"#,
                vec![r#""VGG13""#; n].join(",")
            )
        };
        let at_cap = parse_grid_request(models(MAX_GRID_CELLS).as_bytes()).unwrap();
        assert_eq!(at_cap.cell_count(), MAX_GRID_CELLS);
        let err = parse_grid_request(models(MAX_GRID_CELLS + 1).as_bytes()).unwrap_err();
        assert!(err.contains("more than"), "{err}");
        // Seven 600-entry axes: 600^7 ≈ 2.8e19 cells overflows a 64-bit
        // product, which must not wrap to a small count.
        let axes = [
            ("models", r#""VGG13""#),
            ("datasets", r#""Cifar10""#),
            ("designs", r#""ADA-GP-MAX""#),
            ("dataflows", r#""WS""#),
            ("schedules", r#""paper""#),
            ("bandwidths", "64"),
            ("buffers", "null"),
        ];
        let body: Vec<String> = axes
            .iter()
            .map(|(k, entry)| format!("\"{k}\":[{}]", vec![*entry; 600].join(",")))
            .collect();
        let overflowing = format!("{{{}}}", body.join(","));
        assert!(overflowing.len() < crate::MAX_BODY_BYTES);
        let err = parse_grid_request(overflowing.as_bytes()).unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn every_preset_is_under_the_cell_cap() {
        for grid in presets::all() {
            assert!(grid.cell_count() <= MAX_GRID_CELLS / 100, "{}", grid.name);
        }
    }

    #[test]
    fn cell_lines_round_trip_bit_exact() {
        let spec = adagp_sweep::grid::CellSpec::new(
            adagp_accel::Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            adagp_nn::models::CnnModel::Vgg13,
            adagp_accel::AdaGpDesign::Max,
            PhaseSchedule::Paper,
        );
        let metrics = adagp_sweep::evaluate_cell(&spec);
        let line = cell_line(&spec.id, &spec.key(), false, &metrics);
        assert!(!line.contains('\n'), "NDJSON lines are single-line");
        let parsed = parse_cell_line(&line).unwrap();
        assert_eq!(parsed.id, spec.id);
        assert_eq!(parsed.key, spec.key());
        assert!(!parsed.cached);
        for (got, want) in parsed
            .metrics
            .iter()
            .zip(adagp_sweep::metrics_to_array(&metrics))
        {
            assert_eq!(got.to_bits(), want.to_bits(), "bit-exact through JSON");
        }
        assert!(parse_cell_line(&header_line("g", 3)).is_err());
    }

    #[test]
    fn done_and_error_lines_round_trip() {
        let done = DoneLine {
            cells: 8,
            hits: 5,
            evaluated: 2,
            joined: 1,
            micros: 1234,
        };
        assert_eq!(parse_done_line(&done_line(&done)).unwrap(), done);
        assert!(parse_done_line(&header_line("g", 1)).is_err());
        assert!(is_error_line(&error_line("abc", "boom")));
        assert!(!is_error_line(&done_line(&done)));
    }
}
