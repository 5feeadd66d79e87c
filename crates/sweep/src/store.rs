//! Persisting sweep runs: byte-stable CSV and full-fidelity JSON.
//!
//! Two formats, two jobs:
//!
//! * **CSV** — the diffable artifact. Metric floats are formatted at a
//!   fixed precision ([`CSV_FLOAT_DECIMALS`] decimals, never
//!   shortest-round-trip `Display`) and timing columns are excluded, so
//!   two runs of the same code produce byte-identical files — `git diff`
//!   on a committed run file means something changed in the *model*, not
//!   in float formatting or scheduling noise.
//! * **JSON** — the run record. Full-precision metrics plus per-cell and
//!   total wall time (zero where no wall clock is meaningful: logs
//!   merged across resumed fragments).
//!
//! [`StoredCell`] is the one stored form of a cell. Each format has one
//! encoder and one decoder for it, both driven by the column list
//! ([`CSV_HEADER`]/[`METRICS`]). The string forms ([`to_csv_string`],
//! [`stored_json_string`], …) and the file forms ([`write_csv`],
//! [`write_run_file`], …; one cell in memory at a time, renamed into
//! place when complete) run the same encoder, so their bytes cannot
//! differ. Every decoder — CSV row, JSON cell and the
//! [`shardlog`](crate::shardlog) record — ends in
//! [`StoredCell::validate`]. [`StoredRun`] is a loaded file: what the
//! [`diff`](crate::diff) engine and the serve warm start consume.

use crate::grid::CellSpec;
use crate::runner::{CellMetrics, SweepRun};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Fixed decimal places for every metric float in CSV output.
pub const CSV_FLOAT_DECIMALS: usize = 6;

/// Schema version embedded in JSON run records — the only one this
/// build writes or reads; [`CSV_HEADER`] is its CSV counterpart.
pub const RUN_SCHEMA_VERSION: u32 = 3;

/// The CSV column layout: identity, axis values (the two contention
/// columns read `default` when a cell does not override the simulator
/// knobs), then the metrics of [`METRICS`] in order.
pub const CSV_HEADER: [&str; 19] = [
    "id",
    "dataflow",
    "dataset",
    "model",
    "design",
    "schedule",
    "dram_bw",
    "buffer_words",
    "speedup",
    "baseline_cycles",
    "adagp_cycles",
    "baseline_energy_j",
    "adagp_energy_j",
    "sim_cycles",
    "pe_utilization",
    "overlap_efficiency",
    "spill_cycles",
    "dram_stall_frac",
    "knee_words_per_cycle",
];

/// Number of leading non-metric (identity + axis) columns in the CSV.
pub const CSV_META_COLUMNS: usize = 8;

/// One metric column: its name and which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Column name (matches [`CSV_HEADER`]).
    pub name: &'static str,
    /// `true` if larger values are better (speed-up); `false` if smaller
    /// values are better (cycles, energy).
    pub higher_is_better: bool,
}

/// The eleven metric columns every cell produces, in CSV order.
pub const METRICS: [Metric; 11] = [
    Metric {
        name: "speedup",
        higher_is_better: true,
    },
    Metric {
        name: "baseline_cycles",
        higher_is_better: false,
    },
    Metric {
        name: "adagp_cycles",
        higher_is_better: false,
    },
    Metric {
        name: "baseline_energy_j",
        higher_is_better: false,
    },
    Metric {
        name: "adagp_energy_j",
        higher_is_better: false,
    },
    Metric {
        name: "sim_cycles",
        higher_is_better: false,
    },
    Metric {
        name: "pe_utilization",
        higher_is_better: true,
    },
    Metric {
        name: "overlap_efficiency",
        higher_is_better: true,
    },
    Metric {
        name: "spill_cycles",
        higher_is_better: false,
    },
    Metric {
        name: "dram_stall_frac",
        higher_is_better: false,
    },
    Metric {
        name: "knee_words_per_cycle",
        higher_is_better: false,
    },
];

/// Flattens typed cell metrics into [`METRICS`]-column order — the array
/// view [`StoredCell`] carries.
pub fn metrics_to_array(m: &CellMetrics) -> [f64; METRICS.len()] {
    [
        m.speedup,
        m.baseline_cycles,
        m.adagp_cycles,
        m.baseline_energy_j,
        m.adagp_energy_j,
        m.sim_cycles,
        m.pe_utilization,
        m.overlap_efficiency,
        m.spill_cycles,
        m.dram_stall_frac,
        m.knee_words_per_cycle,
    ]
}

/// Formats a metric float exactly as the CSV stores it.
pub fn csv_float(v: f64) -> String {
    format!("{v:.prec$}", prec = CSV_FLOAT_DECIMALS)
}

/// One stored cell: identity, axis values, metric values in
/// [`METRICS`] order — the form every run file, shard log and the
/// serve-side cell cache hold.
///
/// The serde derives are the body of a shard-log record
/// (`"id": …, "axes": […], "metrics": […]`; see
/// [`shardlog::record_line`](crate::shardlog::record_line)):
/// full-precision floats, so the shortest-round-trip writer recovers
/// the exact bits on reload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCell {
    /// Content-derived cell ID.
    pub id: String,
    /// Axis display values: dataflow, dataset, model, design, schedule,
    /// dram_bw, buffer_words (the last two read `default` for cells
    /// without overrides).
    pub axes: [String; 7],
    /// Metric values, aligned with [`METRICS`].
    pub metrics: [f64; METRICS.len()],
}

impl StoredCell {
    /// Builds the stored form of one freshly evaluated cell.
    pub fn from_evaluation(spec: &CellSpec, metrics: &CellMetrics) -> StoredCell {
        StoredCell {
            id: spec.id.clone(),
            axes: [
                spec.dataflow.name().to_string(),
                spec.dataset.name().to_string(),
                spec.model.name().to_string(),
                spec.design.name().to_string(),
                spec.schedule.name().to_string(),
                spec.dram_bw_name(),
                spec.buffer_words_name(),
            ],
            metrics: metrics_to_array(metrics),
        }
    }

    /// The typed view of the metric array (the inverse of
    /// [`metrics_to_array`]).
    pub fn metrics(&self) -> CellMetrics {
        let a = &self.metrics;
        CellMetrics {
            speedup: a[0],
            baseline_cycles: a[1],
            adagp_cycles: a[2],
            baseline_energy_j: a[3],
            adagp_energy_j: a[4],
            sim_cycles: a[5],
            pe_utilization: a[6],
            overlap_efficiency: a[7],
            spill_cycles: a[8],
            dram_stall_frac: a[9],
            knee_words_per_cycle: a[10],
        }
    }

    /// The cell's readable key, matching
    /// [`CellSpec::key`](crate::grid::CellSpec::key):
    /// `dataflow/dataset/model/design/schedule[/bw<n>][/buf<n>]` — the
    /// contention segments appear only for overriding cells.
    pub fn key(&self) -> String {
        let mut key = self.axes[..5].join("/");
        if self.axes[5] != "default" {
            key.push_str(&format!("/bw{}", self.axes[5]));
        }
        if self.axes[6] != "default" {
            key.push_str(&format!("/buf{}", self.axes[6]));
        }
        key
    }

    /// The check every decoder ends in (CSV row, JSON cell, shard-log
    /// record): an ID — it is the cache and merge key — and finite
    /// metrics. `str::parse::<f64>` accepts `NaN`/`inf` and a JSON
    /// exponent can overflow to infinity, so a damaged file would
    /// otherwise be served as a hit and rendered as `null` on the wire.
    ///
    /// # Errors
    ///
    /// Returns which of the two the cell lacks.
    pub fn validate(&self) -> Result<(), String> {
        if self.id.is_empty() {
            return Err("empty cell ID".to_string());
        }
        match self.metrics.iter().position(|m| !m.is_finite()) {
            Some(i) => Err(format!(
                "non-finite {} value {}",
                METRICS[i].name, self.metrics[i]
            )),
            None => Ok(()),
        }
    }

    /// The one CSV-row encoder: appends the newline-terminated row,
    /// field by field, straight into `out`. The quantization to
    /// [`CSV_FLOAT_DECIMALS`] decimals happens here, at format time.
    fn push_csv_row(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str(&self.id);
        for axis in &self.axes {
            out.push(',');
            out.push_str(axis);
        }
        for m in &self.metrics {
            write!(out, ",{m:.prec$}", prec = CSV_FLOAT_DECIMALS)
                .expect("formatting into a String cannot fail");
        }
        out.push('\n');
    }

    /// The one CSV-row decoder (`line` is 1-based, for the error).
    fn from_csv_row(row: &str, line: usize) -> Result<StoredCell, String> {
        let fields: Vec<&str> = row.split(',').collect();
        if fields.len() != CSV_HEADER.len() {
            return Err(format!(
                "line {line}: {} fields (expected {})",
                fields.len(),
                CSV_HEADER.len()
            ));
        }
        let mut metrics = [0.0f64; METRICS.len()];
        for ((m, raw), metric) in metrics
            .iter_mut()
            .zip(&fields[CSV_META_COLUMNS..])
            .zip(&METRICS)
        {
            *m = raw
                .parse()
                .map_err(|_| format!("line {line}: bad {} value `{raw}`", metric.name))?;
        }
        let cell = StoredCell {
            id: fields[0].to_string(),
            axes: std::array::from_fn(|i| fields[i + 1].to_string()),
            metrics,
        };
        cell.validate().map_err(|e| format!("line {line}: {e}"))?;
        Ok(cell)
    }

    /// The one JSON-cell encoder: appends the cell's object (fields
    /// named by [`CSV_HEADER`], then `wall_micros`) laid out as the
    /// vendored pretty writer lays out an element of a record's `cells`
    /// array (a test re-renders a record through it and compares); each
    /// string and float is that writer's own rendering.
    fn push_json_cell(&self, out: &mut String, wall_micros: u64) {
        use std::fmt::Write;
        let texts = std::iter::once(&self.id).chain(&self.axes);
        let values = texts
            .map(serde::json::to_string)
            .chain(self.metrics.iter().map(serde::json::to_string));
        out.push_str("    {\n");
        for (name, value) in CSV_HEADER.iter().zip(values) {
            writeln!(out, "      \"{name}\": {value},").expect("formatting into a String");
        }
        write!(out, "      \"wall_micros\": {wall_micros}\n    }}")
            .expect("formatting into a String");
    }

    /// The one JSON-cell decoder (`index` is 0-based, for the error).
    fn from_json_cell(value: &Value, index: usize) -> Result<StoredCell, String> {
        let decode = || -> Result<StoredCell, serde::Error> {
            let text = |name: &str| String::from_value(value.field(name)?);
            let mut axes: [String; 7] = Default::default();
            for (axis, name) in axes.iter_mut().zip(&CSV_HEADER[1..CSV_META_COLUMNS]) {
                *axis = text(name)?;
            }
            let mut metrics = [0.0f64; METRICS.len()];
            for (m, metric) in metrics.iter_mut().zip(&METRICS) {
                *m = f64::from_value(value.field(metric.name)?)?;
            }
            Ok(StoredCell {
                id: text(CSV_HEADER[0])?,
                axes,
                metrics,
            })
        };
        let cell = decode().map_err(|e| format!("cell {index}: {e}"))?;
        cell.validate().map_err(|e| format!("cell {index}: {e}"))?;
        Ok(cell)
    }
}

/// The two on-disk run formats, each with what only it stores.
#[derive(Debug, Clone, Copy)]
pub enum RunFormat<'a> {
    /// The byte-stable table: no grid name, no timings.
    Csv,
    /// The run record.
    Json {
        /// Name of the grid that ran.
        grid: &'a str,
        /// Total sweep wall time in microseconds (0 for merged logs,
        /// whose resumed fragments share no meaningful wall clock).
        total_wall_micros: u64,
    },
}

impl<'a> RunFormat<'a> {
    /// The JSON record of `run`, with its name and total wall time.
    fn json_of(run: &'a SweepRun) -> Self {
        RunFormat::Json {
            grid: &run.grid,
            total_wall_micros: run.total_wall_micros,
        }
    }
}

/// The one run writer: appends a run to a `String`, piece by piece —
/// [`open`](Encoder::open), one [`cell`](Encoder::cell) per cell,
/// [`close`](Encoder::close). The string forms hand it one growing
/// buffer; the file forms a scratch buffer drained after every piece.
struct Encoder {
    json: bool,
    cells: usize,
}

impl Encoder {
    /// Starts a run: the CSV header, or the JSON record up to the
    /// opening bracket of its cell array.
    fn open(out: &mut String, format: RunFormat) -> Encoder {
        match format {
            RunFormat::Csv => {
                out.push_str(&CSV_HEADER.join(","));
                out.push('\n');
            }
            RunFormat::Json {
                grid,
                total_wall_micros,
            } => {
                // Carved out of the pretty form of an empty record, so
                // these bytes (grid-name escaping included) are the
                // vendored writer's own.
                let empty = serde::json::to_string_pretty(&Value::object(vec![
                    ("schema", RUN_SCHEMA_VERSION.to_value()),
                    ("grid", grid.to_value()),
                    ("total_wall_micros", total_wall_micros.to_value()),
                    ("cells", Value::Array(Vec::new())),
                ]));
                let open = empty
                    .rfind("[]")
                    .expect("empty record renders an empty cell array");
                out.push_str(&empty[..=open]);
            }
        }
        Encoder {
            json: matches!(format, RunFormat::Json { .. }),
            cells: 0,
        }
    }

    fn cell(&mut self, out: &mut String, cell: &StoredCell, wall_micros: u64) {
        if self.json {
            out.push_str(if self.cells > 0 { ",\n" } else { "\n" });
            cell.push_json_cell(out, wall_micros);
        } else {
            cell.push_csv_row(out);
        }
        self.cells += 1;
    }

    fn close(&self, out: &mut String) {
        if self.json {
            out.push_str(if self.cells > 0 { "\n  " } else { "" });
            out.push_str("]\n}\n");
        }
    }
}

/// A run's cells in stored form, each with its wall time.
fn run_cells(run: &SweepRun) -> impl Iterator<Item = (StoredCell, u64)> + '_ {
    run.cells.iter().map(|c| {
        (
            StoredCell::from_evaluation(&c.spec, &c.metrics),
            c.wall_micros,
        )
    })
}

/// The whole-string sink: one buffer through the [`Encoder`].
fn render<C: Borrow<StoredCell>>(
    format: RunFormat,
    cells: impl Iterator<Item = (C, u64)>,
) -> String {
    let mut out = String::new();
    let mut encoder = Encoder::open(&mut out, format);
    for (cell, wall_micros) in cells {
        encoder.cell(&mut out, cell.borrow(), wall_micros);
    }
    encoder.close(&mut out);
    out
}

/// Renders a run as byte-stable CSV (header + one row per cell).
pub fn to_csv_string(run: &SweepRun) -> String {
    render(RunFormat::Csv, run_cells(run))
}

/// Renders a run as a pretty-printed JSON record with its timings.
pub fn to_json_string(run: &SweepRun) -> String {
    render(RunFormat::json_of(run), run_cells(run))
}

/// Renders stored cells as the byte-stable CSV form — identical, byte
/// for byte, to [`to_csv_string`] over the run the cells came from.
pub fn stored_csv_string(cells: &[StoredCell]) -> String {
    render(RunFormat::Csv, cells.iter().map(|c| (c, 0)))
}

/// Renders stored cells as the full-precision, zero-timing JSON run
/// record — the byte-stable form of a shard-log merge.
pub fn stored_json_string(grid: &str, cells: &[StoredCell]) -> String {
    let format = RunFormat::Json {
        grid,
        total_wall_micros: 0,
    };
    render(format, cells.iter().map(|c| (c, 0)))
}

/// Writes `cells`, each with its wall time, as a run file of `format`
/// at `path`: the bytes of the string forms, in bounded memory (one cell
/// at a time, so `cells` may be lazy), staged in a temp sibling that is
/// fsynced and renamed into place — a crash mid-write never leaves a
/// truncated file at the destination.
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the file.
pub fn write_run_file<C: Borrow<StoredCell>>(
    path: &Path,
    format: RunFormat,
    cells: impl Iterator<Item = (C, u64)>,
) -> std::io::Result<()> {
    let mut file = StagedFile::create(path)?;
    let mut buf = String::new();
    let mut encoder = Encoder::open(&mut buf, format);
    for (cell, wall_micros) in cells {
        encoder.cell(&mut buf, cell.borrow(), wall_micros);
        file.out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    encoder.close(&mut buf);
    file.out.write_all(buf.as_bytes())?;
    file.commit()
}

/// Writes the CSV form of `run` to `path` (see [`write_run_file`]).
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the file.
pub fn write_csv(path: &Path, run: &SweepRun) -> std::io::Result<()> {
    write_run_file(path, RunFormat::Csv, run_cells(run))
}

/// Writes the JSON record of `run` to `path` (see [`write_run_file`]).
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the file.
pub fn write_json(path: &Path, run: &SweepRun) -> std::io::Result<()> {
    write_run_file(path, RunFormat::json_of(run), run_cells(run))
}

/// A file that appears at `path` complete or not at all: written as a
/// temp sibling, renamed into place by [`commit`](StagedFile::commit).
struct StagedFile {
    out: std::io::BufWriter<std::fs::File>,
    tmp: PathBuf,
    path: PathBuf,
}

/// The temp-file sibling `path` is staged in.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "out".into());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

impl StagedFile {
    fn create(path: &Path) -> std::io::Result<StagedFile> {
        let tmp = tmp_sibling(path);
        Ok(StagedFile {
            out: std::io::BufWriter::new(std::fs::File::create(&tmp)?),
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// Flushes, fsyncs and atomically renames the temp file into place.
    fn commit(mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)
    }
}

impl Drop for StagedFile {
    fn drop(&mut self) {
        // An uncommitted file leaves no debris: the destination was
        // never touched, and the temp file is best-effort removed (after
        // a successful `commit` it is already gone).
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// How to replace a run file this build can no longer read.
fn regenerate_hint(flag: &str) -> String {
    format!(
        "only schema {RUN_SCHEMA_VERSION} is readable; regenerate the file with \
         `sweep run <grid> {flag} <path>`"
    )
}

/// A loaded run: what the diff engine and the serve warm start consume.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// Stored cells, in file order.
    pub cells: Vec<StoredCell>,
}

impl StoredRun {
    /// Views an in-memory run as a stored run (quantized exactly like the
    /// CSV would be, so in-memory and on-disk diffs agree).
    pub fn from_run(run: &SweepRun) -> StoredRun {
        Self::from_csv_str(&to_csv_string(run)).expect("self-generated CSV parses")
    }

    /// Loads a stored run from `path`, dispatching on the extension
    /// (`.json` → JSON record, anything else → CSV).
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(path: &Path) -> Result<StoredRun, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let parsed = if path.extension().is_some_and(|e| e == "json") {
            Self::from_json_str(&text)
        } else {
            Self::from_csv_str(&text)
        };
        parsed.map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// Parses the CSV form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or invalid line; any
    /// header but [`CSV_HEADER`] is refused with the regenerate command.
    pub fn from_csv_str(text: &str) -> Result<StoredRun, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty CSV")?;
        if header != CSV_HEADER.join(",") {
            return Err(format!(
                "unexpected CSV header `{header}`: {}",
                regenerate_hint("--csv")
            ));
        }
        let cells = lines
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
            .map(|(i, row)| StoredCell::from_csv_row(row, i + 2))
            .collect::<Result<_, _>>()?;
        Ok(StoredRun { cells })
    }

    /// Parses the JSON record form.
    ///
    /// # Errors
    ///
    /// Returns a description of the syntax error or the first malformed
    /// or invalid cell; any schema but [`RUN_SCHEMA_VERSION`] is refused
    /// with the regenerate command.
    pub fn from_json_str(text: &str) -> Result<StoredRun, String> {
        let value = serde::json::parse_value(text).map_err(|e| e.to_string())?;
        let schema = value
            .field("schema")
            .and_then(u32::from_value)
            .map_err(|e| format!("run record schema: {e}"))?;
        if schema != RUN_SCHEMA_VERSION {
            return Err(format!(
                "unsupported run schema {schema}: {}",
                regenerate_hint("--json")
            ));
        }
        let cells = match value.field("cells").map_err(|e| e.to_string())? {
            Value::Array(cells) => cells,
            other => return Err(format!("`cells` is not an array but {}", other.kind())),
        };
        let cells = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| StoredCell::from_json_cell(cell, i))
            .collect::<Result<_, _>>()?;
        Ok(StoredRun { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, GridSpec, PhaseSchedule};
    use crate::runner::run_grid;
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;

    fn small_run() -> SweepRun {
        run_grid(&GridSpec {
            name: "store-test".to_string(),
            models: vec![CnnModel::Vgg13],
            datasets: vec![DatasetScale::Cifar10],
            designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
            dataflows: vec![Dataflow::WeightStationary],
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        })
    }

    fn stored_cells(run: &SweepRun) -> Vec<StoredCell> {
        run_cells(run).map(|(cell, _)| cell).collect()
    }

    #[test]
    fn csv_is_byte_stable_across_runs() {
        // Same grid, two executions (different wall times!) → same bytes.
        assert_eq!(to_csv_string(&small_run()), to_csv_string(&small_run()));
    }

    #[test]
    fn csv_round_trips_through_stored_run() {
        let run = small_run();
        let stored = StoredRun::from_csv_str(&to_csv_string(&run)).unwrap();
        assert_eq!(stored.cells.len(), run.cells.len());
        for (s, c) in stored.cells.iter().zip(&run.cells) {
            assert_eq!(s.id, c.spec.id);
            assert_eq!(s.key(), c.spec.key());
            // CSV quantizes to CSV_FLOAT_DECIMALS decimals.
            assert!((s.metrics[0] - c.metrics.speedup).abs() < 1e-6);
        }
    }

    #[test]
    fn json_round_trips_at_full_precision() {
        let run = small_run();
        let text = to_json_string(&run);
        // Bit-exact metrics (no quantization in JSON).
        let stored = StoredRun::from_json_str(&text).unwrap();
        assert_eq!(stored.cells, stored_cells(&run));
        assert_eq!(
            stored.cells[0].metrics[0].to_bits(),
            run.cells[0].metrics.speedup.to_bits()
        );
        // The layout is exactly the vendored pretty printer's: parsing
        // and re-rendering the text is the identity.
        let value = serde::json::parse_value(&text).unwrap();
        assert_eq!(serde::json::to_string_pretty(&value) + "\n", text);
        // And the record carries the run's name and timings.
        let (total, last) = (run.total_wall_micros, run.cells[1].wall_micros);
        assert!(text.contains(&format!(
            "\"grid\": \"store-test\",\n  \"total_wall_micros\": {total},"
        )));
        assert!(text.ends_with(&format!("\"wall_micros\": {last}\n    }}\n  ]\n}}\n")));
    }

    #[test]
    fn load_dispatches_on_extension() {
        let run = small_run();
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("adagp-sweep-{}.csv", std::process::id()));
        let json = dir.join(format!("adagp-sweep-{}.json", std::process::id()));
        write_csv(&csv, &run).unwrap();
        write_json(&json, &run).unwrap();
        let from_csv = StoredRun::load(&csv).unwrap();
        let from_json = StoredRun::load(&json).unwrap();
        assert_eq!(from_csv.cells.len(), from_json.cells.len());
        assert_eq!(from_csv.cells[0].id, from_json.cells[0].id);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn malformed_csv_is_rejected_with_context() {
        assert!(StoredRun::from_csv_str("").is_err());
        let bad_header = "id,nope\nx,y";
        assert!(StoredRun::from_csv_str(bad_header)
            .unwrap_err()
            .contains("header"));
        let good = to_csv_string(&small_run());
        let truncated = good.replace(",paper,", ",paper");
        let err = StoredRun::from_csv_str(&truncated).unwrap_err();
        assert!(err.contains("fields"), "{err}");
    }

    #[test]
    fn legacy_header_and_schema_are_rejected_with_the_regenerate_hint() {
        // The 11- and 14-column CSV headers of schema 1 and 2: no
        // contention axes, the first five / eight metrics.
        for metrics in [5, 8] {
            let mut header: Vec<&str> = CSV_HEADER[..6].to_vec();
            header.extend(METRICS[..metrics].iter().map(|m| m.name));
            let err = StoredRun::from_csv_str(&(header.join(",") + "\n")).unwrap_err();
            assert!(err.contains("unexpected CSV header"), "{err}");
            assert!(err.contains("`sweep run <grid> --csv <path>`"), "{err}");
        }
        let current = to_json_string(&small_run());
        for schema in [1, 2, 9] {
            let old = current.replace("\"schema\": 3", &format!("\"schema\": {schema}"));
            let err = StoredRun::from_json_str(&old).unwrap_err();
            assert!(
                err.contains(&format!("unsupported run schema {schema}")),
                "{err}"
            );
            assert!(err.contains("`sweep run <grid> --json <path>`"), "{err}");
        }
    }

    #[test]
    fn non_finite_metrics_and_empty_ids_are_rejected_by_both_decoders() {
        let run = small_run();
        let cell = &stored_cells(&run)[1];
        let speedup = cell.metrics[0];

        let csv = to_csv_string(&run);
        for bad in ["NaN", "inf", "-inf"] {
            let err = StoredRun::from_csv_str(&csv.replace(&csv_float(speedup), bad)).unwrap_err();
            assert!(err.contains("line 3: non-finite speedup"), "{bad}: {err}");
        }
        let err = StoredRun::from_csv_str(&csv.replace(&cell.id, "")).unwrap_err();
        assert!(err.contains("line 3: empty cell ID"), "{err}");

        // JSON has no NaN literal (a syntax error), but an exponent that
        // overflows parses to infinity.
        let json = to_json_string(&run);
        let shown = format!("\"speedup\": {speedup}");
        assert!(json.contains(&shown));
        let err =
            StoredRun::from_json_str(&json.replace(&shown, "\"speedup\": 1e999")).unwrap_err();
        assert!(err.contains("cell 1"), "{err}");
        assert!(err.contains("non-finite speedup"), "{err}");
        assert!(StoredRun::from_json_str(&json.replace(&shown, "\"speedup\": NaN")).is_err());
        let err = StoredRun::from_json_str(&json.replace(&cell.id, "")).unwrap_err();
        assert!(
            err.contains("cell 1") && err.contains("empty cell ID"),
            "{err}"
        );
    }

    #[test]
    fn metric_array_round_trips_and_matches_stored_layout() {
        let run = small_run();
        let cell = &run.cells[0];
        let arr = metrics_to_array(&cell.metrics);
        // The array layout is exactly the stored/CSV column order.
        let stored = StoredCell::from_evaluation(&cell.spec, &cell.metrics);
        assert_eq!(stored.metrics, arr);
        assert_eq!(stored.metrics(), cell.metrics);
        assert_eq!(stored.id, cell.spec.id);
        assert_eq!(stored.key(), cell.spec.key());
    }

    #[test]
    fn stored_cell_snapshot_round_trips_byte_stable() {
        // Evaluated cells → zero-timing JSON → StoredRun → JSON must be
        // byte-identical (every float's shortest form names one bit
        // pattern), including huge cycle counts whose CSV quantization
        // would not be.
        let stored = stored_cells(&small_run());
        let text = stored_json_string("cache", &stored);
        let reloaded = StoredRun::from_json_str(&text).unwrap();
        assert_eq!(stored_json_string("cache", &reloaded.cells), text);
    }

    #[test]
    fn streaming_writers_reproduce_whole_file_bytes_exactly() {
        // One encoder behind every sink: the string forms (over a run,
        // over stored cells) and the file forms (a run's, a lazy cell
        // stream's) must agree to the byte, with and without cells.
        let mut run = small_run();
        // Non-trivial grid name: exercises JSON string escaping in the
        // carved prelude.
        run.grid = "grid \"x\"".to_string();
        let path = std::env::temp_dir().join(format!("adagp-stream-{}", std::process::id()));
        let read = |written: std::io::Result<()>| {
            written.unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            text
        };
        for label in ["all", "none"] {
            if label == "none" {
                run.cells.clear();
            }
            let stored = stored_cells(&run);
            let untimed = || stored.iter().map(|c| (c, 0));

            let csv = to_csv_string(&run);
            assert_eq!(csv.lines().count(), 1 + stored.len());
            assert_eq!(stored_csv_string(&stored), csv, "{label}");
            assert_eq!(read(write_csv(&path, &run)), csv, "{label}");
            let streamed = write_run_file(&path, RunFormat::Csv, untimed());
            assert_eq!(read(streamed), csv, "{label}");

            // With the run's timings: string == file.
            assert_eq!(read(write_json(&path, &run)), to_json_string(&run));
            // Without: string == streamed file == the timed record with
            // its clocks zeroed.
            let zeroed = stored_json_string(&run.grid, &stored);
            let format = RunFormat::Json {
                grid: &run.grid,
                total_wall_micros: 0,
            };
            assert_eq!(read(write_run_file(&path, format, untimed())), zeroed);
            let mut stopped = run.clone();
            stopped.total_wall_micros = 0;
            stopped.cells.iter_mut().for_each(|c| c.wall_micros = 0);
            assert_eq!(to_json_string(&stopped), zeroed, "{label}");
        }
    }

    #[test]
    fn unfinished_streaming_writer_leaves_no_file_behind() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("adagp-stream-drop-{}.csv", std::process::id()));
        {
            let _staged = StagedFile::create(&path).unwrap();
            // Dropped without commit(): a simulated crash mid-write.
        }
        assert!(!path.exists(), "destination must not exist");
        assert!(
            !tmp_sibling(&path).exists(),
            "temp staging file must be cleaned up"
        );
    }

    #[test]
    fn csv_float_is_fixed_precision() {
        assert_eq!(csv_float(1.5), "1.500000");
        assert_eq!(csv_float(0.1), "0.100000");
        // Shortest-round-trip Display would print 1234567890123.4568…-style
        // noise; fixed precision keeps it stable.
        assert_eq!(csv_float(1e12), "1000000000000.000000");
    }
}
