//! Append-only, shard-per-worker result logs: the crash-safe storage
//! layer for sweeps too large (or too long-running) for one
//! whole-file-at-the-end write.
//!
//! ## Format
//!
//! A *shard log* is an NDJSON file named `shard-<k>-of-<n>.ndjson`: one
//! compact-JSON record per line — a [`StoredCell`] under a record
//! version, `{"v":1,"id":…,"axes":[…],"metrics":[…]}` — appended in
//! groups, one write of the group's newline-terminated records and one
//! fsync per group ([`ShardWriter::append_group`]). The loader
//! dispatches on `v` (a line without one is version 1: logs written
//! before the field existed), so a later change to the record's fields
//! can keep reading old logs; a version this build does not know is
//! skipped like any other undecodable line. A record is committed iff
//! its trailing newline reached the file, whatever group it was
//! written in — the loader treats the final line of a
//! file that does not end in `\n` as a *torn tail* (a crash mid-append)
//! and skips it with a line-numbered warning instead of failing. Any
//! other undecodable line (garbage bytes, truncated JSON, invalid
//! UTF-8) is likewise skipped and reported as a span of line numbers;
//! the loader never panics and never drops an intact record.
//!
//! ## Sharding and resume
//!
//! A sweep over grid `G` run as shard `k/n` owns the cells at expansion
//! indices `i % n == k-1` ([`Shard::owns`]) and appends only to its own
//! file, so `n` concurrent invocations (processes or machines sharing a
//! directory) never contend on a file. Before evaluating, a shard loads
//! its own log and skips every owned cell whose ID is already committed
//! — killing and re-running an invocation re-evaluates only the cells
//! that had not reached the disk ([`ShardRunStats::resumed`] counts the
//! skips).
//!
//! ## Merge
//!
//! [`merge_dir`] folds every shard file of a directory into one
//! ID-keyed cell map, deterministically: files in `(n, k)` order, lines
//! in file order, **last write wins** for duplicate IDs. Given the
//! grid, [`merge_to_run`] re-sequences the map into expansion order —
//! from there [`stored_csv_string`](crate::store::stored_csv_string) /
//! [`stored_json_string`](crate::store::stored_json_string) (or
//! [`write_run_file`](crate::store::write_run_file)) reproduce
//! byte-identical final artifacts no matter how the work was sharded,
//! interleaved, crashed or resumed.
//!
//! ## Fault injection
//!
//! Setting `ADAGP_SHARD_FAULT_AFTER=<n>` makes the group holding the
//! (n+1)-th record of a [`ShardWriter`] write the records before it
//! whole, then a *torn prefix* of that record (no newline), and abort
//! the process — the bytes a crash between per-record appends would
//! leave. The crash-injection batteries use it to kill real sweeps at
//! exact record boundaries.

use crate::grid::{CellSpec, GridSpec, Shard};
use crate::runner;
use crate::store::StoredCell;
use adagp_obs as obs;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Environment variable for the crash-injection fault point: the value
/// `n` aborts the process at the (n+1)-th record appended, after writing
/// the records before it and a torn (newline-less) prefix of that one.
pub const FAULT_ENV: &str = "ADAGP_SHARD_FAULT_AFTER";

/// Records appended to shard logs (process-global obs counter, rendered
/// as `adagp_sweep_log_appends_total` on serve's `/metrics`).
fn appends_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_log_appends_total"))
}

/// Appends that failed in the write or the fsync — records that are
/// *not* durable (`adagp_sweep_log_append_errors_total` on `/metrics`).
fn append_errors_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_log_append_errors_total"))
}

/// `sync_data` calls on shard logs, the open-time torn-tail repair
/// included (`adagp_sweep_log_syncs_total` on `/metrics`).
fn syncs_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_log_syncs_total"))
}

/// Wall-clock microseconds per shard-log `sync_data`
/// (`adagp_sweep_log_sync_us` on `/metrics`).
fn sync_us() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::registry().histogram("sweep_log_sync_us"))
}

/// Cells skipped because their ID was already committed to a shard log
/// (resume hits; `adagp_sweep_log_resume_hits_total` on `/metrics`).
fn resume_hits_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_log_resume_hits_total"))
}

/// Records `n` resume hits on the process-global counter
/// (`adagp_sweep_log_resume_hits_total`) — for callers like the serve
/// warm start that skip re-evaluation from merged log contents outside
/// [`run_sharded`].
pub fn note_resume_hits(n: u64) {
    resume_hits_counter().add(n);
}

/// The file name of shard `k/n` (`shard-3-of-7.ndjson`).
pub fn shard_file_name(shard: Shard) -> String {
    format!("shard-{}-of-{}.ndjson", shard.k, shard.n)
}

/// Parses a shard file name back into its shard, rejecting anything
/// that is not exactly `shard-<k>-of-<n>.ndjson` with a valid `k/n`.
pub fn parse_shard_file_name(name: &str) -> Option<Shard> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".ndjson")?;
    let (k, n) = rest.split_once("-of-")?;
    let shard = Shard {
        k: k.parse().ok()?,
        n: n.parse().ok()?,
    };
    (shard.k >= 1 && shard.k <= shard.n).then_some(shard)
}

/// The record version [`record_line`] writes.
const RECORD_VERSION: u64 = 1;

/// One record serialized as a compact single-line JSON object — the
/// exact bytes [`ShardWriter::append_group`] commits per record (newline
/// excluded): the cell's fields behind the record version.
pub fn record_line(cell: &StoredCell) -> String {
    let Value::Object(mut fields) = cell.to_value() else {
        unreachable!("a derived struct serializes to an object");
    };
    fields.insert(0, ("v".to_string(), Value::UInt(RECORD_VERSION)));
    serde::json::to_string(&Value::Object(fields))
}

/// Decodes one committed line: dispatches on the record version (absent
/// means 1 — the field is younger than the format), then applies the
/// check every stored-cell decoder ends in.
fn decode_record(text: &str) -> Result<StoredCell, String> {
    let value = serde::json::parse_value(text).map_err(|e| format!("undecodable record: {e}"))?;
    let version = match value.field("v") {
        Ok(v) => u64::from_value(v).map_err(|e| format!("undecodable record version: {e}"))?,
        Err(_) => 1,
    };
    let cell = match version {
        1 => StoredCell::from_value(&value).map_err(|e| format!("undecodable record: {e}"))?,
        other => return Err(format!("unknown record version {other}")),
    };
    cell.validate()
        .map_err(|e| format!("invalid record: {e}"))?;
    Ok(cell)
}

/// The append side of one shard log. Opens the file in append mode (an
/// existing log keeps its records) and appends records in groups: one
/// write of their newline-terminated lines, then one fsync
/// ([`append_group`](ShardWriter::append_group)), so a committed record
/// survives any crash of the writer or the machine.
#[derive(Debug)]
pub struct ShardWriter {
    file: std::fs::File,
    path: PathBuf,
    appended: u64,
    fault_after: Option<u64>,
}

impl ShardWriter {
    /// Opens (creating the directory and file as needed) the log of
    /// `shard` under `dir`. Reads the [`FAULT_ENV`] fault point once.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn open(dir: &Path, shard: Shard) -> std::io::Result<ShardWriter> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(shard_file_name(shard));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        // Self-heal a torn tail: if the existing log does not end in a
        // newline (a previous writer died mid-append), terminate that
        // line now so the first resumed record is not concatenated onto
        // the torn bytes and lost with them. The torn line itself stays
        // — append-only means never rewriting committed bytes — and the
        // loader reports it as one undecodable span.
        if file.metadata()?.len() > 0 {
            use std::io::{Read, Seek, SeekFrom};
            let mut reader = std::fs::File::open(&path)?;
            reader.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            reader.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                sync(&file)?;
            }
        }
        // Registered here so a healthy log scrapes as explicit zeros.
        appends_counter();
        append_errors_counter();
        syncs_counter();
        sync_us();
        Ok(ShardWriter {
            file,
            path,
            appended: 0,
            fault_after: std::env::var(FAULT_ENV).ok().and_then(|v| v.parse().ok()),
        })
    }

    /// The log file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this writer (resumed records in the
    /// existing file are not counted).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one record: [`append_group`](ShardWriter::append_group)
    /// of one.
    ///
    /// # Errors
    ///
    /// As [`append_group`](ShardWriter::append_group).
    pub fn append(&mut self, cell: &StoredCell) -> std::io::Result<()> {
        self.append_group([cell])
    }

    /// Appends a group of records: their compact JSON lines, each plus
    /// `\n`, in one write, then one fsync. An empty group writes and
    /// syncs nothing. With the [`FAULT_ENV`] fault point armed at `n`,
    /// the group holding the writer's `(n+1)`-th record writes the
    /// records before it, then a torn prefix of that record, and aborts
    /// the process — simulating a crash mid-append.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or the fsync, after counting
    /// every record of the group on `sweep_log_append_errors_total`: none
    /// of them is known to be durable.
    pub fn append_group<'a>(
        &mut self,
        cells: impl IntoIterator<Item = &'a StoredCell>,
    ) -> std::io::Result<()> {
        let mut bytes = String::new();
        let mut records = 0;
        for cell in cells {
            let mut line = record_line(cell);
            if self.fault_after == Some(self.appended + records) {
                // Crash injection: commit the records before this one and
                // half of this one without its newline, push them to the
                // OS, and die like a killed worker.
                line.truncate(line.len() / 2);
                bytes.push_str(&line);
                let _ = self.file.write_all(bytes.as_bytes());
                let _ = sync(&self.file);
                eprintln!(
                    "shardlog: fault injected after {} records ({FAULT_ENV})",
                    self.appended + records
                );
                std::process::abort();
            }
            bytes.push_str(&line);
            bytes.push('\n');
            records += 1;
        }
        if records == 0 {
            return Ok(());
        }
        let committed = self
            .file
            .write_all(bytes.as_bytes())
            .and_then(|()| sync(&self.file));
        match committed {
            Ok(()) => {
                self.appended += records;
                appends_counter().add(records);
            }
            Err(_) => append_errors_counter().add(records),
        }
        committed
    }
}

/// `file.sync_data()`, counted on `sweep_log_syncs_total` and timed into
/// `sweep_log_sync_us`.
fn sync(file: &std::fs::File) -> std::io::Result<()> {
    let started = std::time::Instant::now();
    let synced = file.sync_data();
    syncs_counter().inc();
    sync_us().record(started.elapsed().as_micros() as u64);
    synced
}

/// A contiguous run of undecodable log lines, reported by the loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedSpan {
    /// 1-based first line of the span.
    pub first_line: usize,
    /// 1-based last line of the span (inclusive).
    pub last_line: usize,
    /// Why the first line of the span was rejected.
    pub reason: String,
}

impl std::fmt::Display for SkippedSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.first_line == self.last_line {
            write!(f, "line {}: {}", self.first_line, self.reason)
        } else {
            write!(
                f,
                "lines {}-{}: {}",
                self.first_line, self.last_line, self.reason
            )
        }
    }
}

/// What loading one shard log recovered.
#[derive(Debug, Clone, Default)]
pub struct ShardLoad {
    /// Every intact record, in file (append) order.
    pub cells: Vec<StoredCell>,
    /// Undecodable line spans, in file order (a torn tail appears here
    /// as the final span).
    pub skipped: Vec<SkippedSpan>,
}

/// Loads one shard log tolerantly: every intact record is recovered,
/// every undecodable line lands in a [`SkippedSpan`] with its line
/// numbers, and a file whose final line lacks its newline — a crash
/// mid-append — contributes that line as a `torn tail` span. Never
/// panics on any byte sequence. A missing file is an empty load.
///
/// # Errors
///
/// Returns only genuine I/O failures (permission, hardware); decode
/// problems are reported in the result, not as errors.
pub fn load_shard(path: &Path) -> std::io::Result<ShardLoad> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ShardLoad::default()),
        Err(e) => return Err(e),
    };
    let mut load = ShardLoad::default();
    let skip = |lineno: usize, reason: String, skipped: &mut Vec<SkippedSpan>| {
        match skipped.last_mut() {
            // Grow the current span only across *adjacent* bad lines.
            Some(span) if span.last_line + 1 == lineno => span.last_line = lineno,
            _ => skipped.push(SkippedSpan {
                first_line: lineno,
                last_line: lineno,
                reason,
            }),
        }
    };
    let mut offset = 0;
    let mut lineno = 0;
    while offset < bytes.len() {
        lineno += 1;
        let (line, next, committed) = match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(nl) => (&bytes[offset..offset + nl], offset + nl + 1, true),
            None => (&bytes[offset..], bytes.len(), false),
        };
        offset = next;
        if !committed {
            skip(
                lineno,
                format!("torn tail ({} bytes without a newline)", line.len()),
                &mut load.skipped,
            );
            break;
        }
        if line.is_empty() {
            continue;
        }
        let text = match std::str::from_utf8(line) {
            Ok(t) => t,
            Err(_) => {
                skip(lineno, "invalid UTF-8".to_string(), &mut load.skipped);
                continue;
            }
        };
        match decode_record(text) {
            Ok(cell) => load.cells.push(cell),
            Err(why) => skip(lineno, why, &mut load.skipped),
        }
    }
    Ok(load)
}

/// The deterministic fold of every shard log in one directory.
#[derive(Debug, Default)]
pub struct MergedShards {
    /// Cell ID → last-written record for that ID.
    pub by_id: HashMap<String, StoredCell>,
    /// Shard files merged, in merge order.
    pub files: Vec<PathBuf>,
    /// Total records read across all files (duplicates included).
    pub records: usize,
    /// Every skipped span, tagged with its file.
    pub skipped: Vec<(PathBuf, SkippedSpan)>,
}

/// Merges every `shard-<k>-of-<n>.ndjson` under `dir`: files in
/// `(n, k)` order, records in file order, last write wins per cell ID.
/// A missing directory merges to nothing (a fresh run).
///
/// # Errors
///
/// Returns a description of a directory-listing or file-read failure.
pub fn merge_dir(dir: &Path) -> Result<MergedShards, String> {
    let mut shards: Vec<(Shard, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(MergedShards::default()),
        Err(e) => return Err(format!("read dir {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let name = entry.file_name();
        if let Some(shard) = name.to_str().and_then(parse_shard_file_name) {
            shards.push((shard, entry.path()));
        }
    }
    shards.sort_by_key(|(s, _)| (s.n, s.k));
    let mut merged = MergedShards::default();
    for (_, path) in shards {
        let load = load_shard(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        merged.records += load.cells.len();
        for cell in load.cells {
            merged.by_id.insert(cell.id.clone(), cell);
        }
        merged
            .skipped
            .extend(load.skipped.into_iter().map(|s| (path.clone(), s)));
        merged.files.push(path);
    }
    Ok(merged)
}

/// A merged run re-sequenced into one grid's expansion order.
#[derive(Debug)]
pub struct MergedRun {
    /// The grid's cells that are present in the logs, in expansion
    /// order.
    pub cells: Vec<StoredCell>,
    /// Keys of the grid's cells that no log carries yet.
    pub missing: Vec<String>,
    /// Logged cell IDs that belong to no cell of this grid (stale or
    /// foreign records — excluded from `cells`).
    pub extras: usize,
    /// Every skipped span the merge encountered.
    pub skipped: Vec<(PathBuf, SkippedSpan)>,
}

impl MergedRun {
    /// Whether every cell of the grid is present.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Re-sequences a directory merge into `grid`'s expansion order,
/// reporting grid cells the logs do not cover and logged cells the
/// grid does not contain.
///
/// # Errors
///
/// Returns a description of a directory-listing or file-read failure.
pub fn merge_to_run(dir: &Path, grid: &GridSpec) -> Result<MergedRun, String> {
    let mut merged = merge_dir(dir)?;
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for spec in grid.expand() {
        match merged.by_id.remove(&spec.id) {
            Some(cell) => cells.push(cell),
            None => missing.push(spec.key()),
        }
    }
    Ok(MergedRun {
        cells,
        missing,
        extras: merged.by_id.len(),
        skipped: merged.skipped,
    })
}

/// What one sharded (or resumed) invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunStats {
    /// The shard that ran.
    pub shard: Shard,
    /// Cells of the grid this shard owns.
    pub owned: usize,
    /// Owned cells skipped because their records were already on disk.
    pub resumed: usize,
    /// Owned cells evaluated and appended by this invocation.
    pub evaluated: usize,
}

/// Runs `shard` of `grid` against the logs under `dir`, resumably:
/// loads the shard's own log, skips every owned cell already committed,
/// evaluates the rest on the shared pool in windows of `window` cells
/// (bounded memory — each window's results are appended as one group,
/// one fsync, and dropped), and returns the skip/evaluate counts.
/// Records land in strict expansion order within the invocation, so a
/// crash at any record boundary resumes exactly where the log ends.
///
/// # Errors
///
/// Returns a description of any log I/O failure.
pub fn run_sharded(
    grid: &GridSpec,
    shard: Shard,
    dir: &Path,
    window: usize,
) -> Result<ShardRunStats, String> {
    let own_path = dir.join(shard_file_name(shard));
    let logged: HashSet<String> = load_shard(&own_path)
        .map_err(|e| format!("read {}: {e}", own_path.display()))?
        .cells
        .into_iter()
        .map(|c| c.id)
        .collect();
    let owned: Vec<CellSpec> = grid
        .expand()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard.owns(*i))
        .map(|(_, c)| c)
        .collect();
    let owned_count = owned.len();
    let pending: Vec<CellSpec> = owned
        .into_iter()
        .filter(|c| !logged.contains(&c.id))
        .collect();
    let resumed = owned_count - pending.len();
    resume_hits_counter().add(resumed as u64);
    let mut writer =
        ShardWriter::open(dir, shard).map_err(|e| format!("open {}: {e}", own_path.display()))?;
    let mut evaluated = 0;
    for chunk in pending.chunks(window.max(1)) {
        let cells: Vec<StoredCell> = runner::evaluate_cells(chunk.to_vec())
            .iter()
            .map(|r| StoredCell::from_evaluation(&r.spec, &r.metrics))
            .collect();
        writer
            .append_group(&cells)
            .map_err(|e| format!("append {}: {e}", own_path.display()))?;
        evaluated += cells.len();
    }
    Ok(ShardRunStats {
        shard,
        owned: owned_count,
        resumed,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use crate::store::{stored_csv_string, stored_json_string, METRICS};
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;

    /// A deterministic synthetic cell: real grid identity, metrics that
    /// are an awkward-but-finite function of the index (exercising the
    /// full-precision round trip without paying for evaluation).
    fn synthetic_cell(spec: &CellSpec, salt: u64) -> StoredCell {
        let mut metrics = [0.0f64; METRICS.len()];
        for (j, m) in metrics.iter_mut().enumerate() {
            let bits = (salt ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            // Map to a finite float with plenty of mantissa noise.
            *m = (bits >> 11) as f64 / ((1u64 << 53) as f64) * 1e9 + j as f64;
        }
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
            metrics,
        }
    }

    fn grid() -> GridSpec {
        GridSpec {
            name: "shardlog-test".to_string(),
            models: vec![CnnModel::Vgg13, CnnModel::ResNet50, CnnModel::MobileNetV2],
            datasets: vec![DatasetScale::Cifar10],
            designs: AdaGpDesign::all().to_vec(),
            dataflows: vec![Dataflow::WeightStationary, Dataflow::RowStationary],
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adagp-shardlog-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_file_names_round_trip_and_reject_impostors() {
        for (k, n) in [(1, 1), (2, 4), (7, 7)] {
            let shard = Shard { k, n };
            assert_eq!(parse_shard_file_name(&shard_file_name(shard)), Some(shard));
        }
        for bad in [
            "shard-0-of-2.ndjson",
            "shard-3-of-2.ndjson",
            "shard-1-of-1.json",
            "shard-1.ndjson",
            "notashard-1-of-1.ndjson",
            "shard-x-of-y.ndjson",
        ] {
            assert_eq!(parse_shard_file_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn append_load_round_trips_records_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let cells: Vec<StoredCell> = grid()
            .expand()
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        for c in &cells {
            w.append(c).unwrap();
        }
        assert_eq!(w.appended(), cells.len() as u64);
        let load = load_shard(w.path()).unwrap();
        assert!(load.skipped.is_empty(), "{:?}", load.skipped);
        assert_eq!(load.cells.len(), cells.len());
        for (a, b) in load.cells.iter().zip(&cells) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.axes, b.axes);
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", b.id);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_group_writes_the_bytes_of_its_single_appends_and_loads_back() {
        let cells: Vec<StoredCell> = grid()
            .expand()
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let singles = tmp_dir("singles");
        let mut w = ShardWriter::open(&singles, Shard::default()).unwrap();
        for c in &cells {
            w.append(c).unwrap();
        }
        let grouped = tmp_dir("grouped");
        let mut g = ShardWriter::open(&grouped, Shard::default()).unwrap();
        g.append_group(&cells[..1]).unwrap();
        g.append_group(&cells[1..]).unwrap();
        assert_eq!(g.appended(), cells.len() as u64);
        assert_eq!(
            std::fs::read(g.path()).unwrap(),
            std::fs::read(w.path()).unwrap()
        );
        let load = load_shard(g.path()).unwrap();
        assert!(load.skipped.is_empty(), "{:?}", load.skipped);
        assert_eq!(load.cells, cells);
        for (a, b) in load.cells.iter().zip(&cells) {
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", b.id);
            }
        }
        std::fs::remove_dir_all(&singles).ok();
        std::fs::remove_dir_all(&grouped).ok();
    }

    /// `/dev/full` fails every write (ENOSPC) and every `fdatasync`
    /// (EINVAL), so a writer on it shows whether a group touched the file.
    #[cfg(target_os = "linux")]
    fn full_disk_writer(name: &str) -> (PathBuf, ShardWriter) {
        let dir = tmp_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join(shard_file_name(Shard::default())))
            .unwrap();
        let writer = ShardWriter::open(&dir, Shard::default()).unwrap();
        (dir, writer)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_empty_group_writes_and_syncs_nothing() {
        let (dir, mut full) = full_disk_writer("empty-group");
        full.append_group(&[]).unwrap();
        assert_eq!(full.appended(), 0);
        std::fs::remove_dir_all(&dir).ok();

        let dir = tmp_dir("empty-group-file");
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        w.append_group(&[]).unwrap();
        assert_eq!(std::fs::metadata(w.path()).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_group_counts_every_record_as_an_append_error() {
        let cells: Vec<StoredCell> = grid().expand()[..5]
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let (dir, mut full) = full_disk_writer("failed-group");
        let before = append_errors_counter().get();
        assert!(full.append_group(&cells).is_err());
        assert_eq!(append_errors_counter().get() - before, cells.len() as u64);
        assert_eq!(full.appended(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_and_missing_dir_are_empty_not_errors() {
        let dir = tmp_dir("absent");
        let load = load_shard(&dir.join("shard-1-of-1.ndjson")).unwrap();
        assert!(load.cells.is_empty() && load.skipped.is_empty());
        let merged = merge_dir(&dir).unwrap();
        assert!(merged.by_id.is_empty() && merged.files.is_empty());
    }

    #[test]
    fn every_partition_merges_to_the_same_bytes_as_the_unsharded_run() {
        // The tentpole property: for n ∈ {1, 2, 4, 7}, writing each
        // shard's cells to its own file — deliberately in a scrambled
        // per-shard order, with duplicate stale appends injected —
        // merges back to the exact bytes of the 1/1 run.
        let g = grid();
        let specs = g.expand();
        let cells: Vec<StoredCell> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();

        let reference = {
            let dir = tmp_dir("partition-ref");
            let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
            for c in &cells {
                w.append(c).unwrap();
            }
            let run = merge_to_run(&dir, &g).unwrap();
            assert!(run.is_complete());
            let bytes = (
                stored_csv_string(&run.cells),
                stored_json_string(&g.name, &run.cells),
            );
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        // The reference equals the whole-file form exactly.
        assert_eq!(reference.0, stored_csv_string(&cells));
        assert_eq!(reference.1, stored_json_string(&g.name, &cells));

        for n in [2u32, 4, 7] {
            let dir = tmp_dir(&format!("partition-{n}"));
            for k in 1..=n {
                let shard = Shard { k, n };
                let mut owned: Vec<&StoredCell> = cells
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| shard.owns(*i))
                    .map(|(_, c)| c)
                    .collect();
                // Scramble the append order deterministically and
                // prepend a stale duplicate of the first owned cell
                // (wrong metrics) that the real record must overwrite.
                owned.reverse();
                let mut w = ShardWriter::open(&dir, shard).unwrap();
                if let Some(first) = owned.last() {
                    let mut stale = (*first).clone();
                    stale.metrics[0] = -1.0;
                    w.append(&stale).unwrap();
                }
                for c in owned {
                    w.append(c).unwrap();
                }
            }
            let run = merge_to_run(&dir, &g).unwrap();
            assert!(run.is_complete(), "n={n}: {:?}", run.missing);
            assert_eq!(run.extras, 0);
            assert_eq!(
                stored_csv_string(&run.cells),
                reference.0,
                "CSV differs at n={n}"
            );
            assert_eq!(
                stored_json_string(&g.name, &run.cells),
                reference.1,
                "JSON differs at n={n}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn duplicate_appends_are_last_write_wins_within_and_across_files() {
        let g = grid();
        let spec = &g.expand()[0];
        let dir = tmp_dir("lww");
        // Same ID three times in shard 1/2 — the last one must win...
        let mut w = ShardWriter::open(&dir, Shard { k: 1, n: 2 }).unwrap();
        for salt in [10, 11, 12] {
            w.append(&synthetic_cell(spec, salt)).unwrap();
        }
        // ...unless a later-merging file (2/2 after 1/2) writes it again.
        let mut w2 = ShardWriter::open(&dir, Shard { k: 2, n: 2 }).unwrap();
        w2.append(&synthetic_cell(spec, 99)).unwrap();
        let merged = merge_dir(&dir).unwrap();
        assert_eq!(merged.records, 4);
        assert_eq!(merged.by_id.len(), 1);
        let expect = synthetic_cell(spec, 99);
        assert_eq!(
            merged.by_id[&spec.id].metrics[0].to_bits(),
            expect.metrics[0].to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped_with_its_line_number_and_resume_completes_it() {
        let dir = tmp_dir("torn");
        let g = grid();
        let specs = g.expand();
        let cells: Vec<StoredCell> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        for c in &cells[..5] {
            w.append(c).unwrap();
        }
        drop(w);
        // Tear the sixth record by hand: half its bytes, no newline.
        let path = dir.join(shard_file_name(Shard::default()));
        let mut torn = record_line(&cells[5]);
        torn.truncate(torn.len() / 2);
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(torn.as_bytes()).unwrap();
        }
        let load = load_shard(&path).unwrap();
        assert_eq!(load.cells.len(), 5, "intact records all recovered");
        assert_eq!(load.skipped.len(), 1);
        assert_eq!(load.skipped[0].first_line, 6);
        assert!(
            load.skipped[0].reason.contains("torn tail"),
            "{:?}",
            load.skipped
        );
        assert!(load.skipped[0].to_string().starts_with("line 6:"));

        // Re-opening the writer self-heals the torn tail: it terminates
        // the torn line with a newline before the first resumed append,
        // so new records never concatenate onto the torn bytes. The
        // torn line stays in the file (append-only — committed bytes
        // are never rewritten) and reads back as one undecodable span;
        // the torn cell itself is re-appended by resume, since its ID
        // never made it into the committed set.
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        for c in &cells[5..] {
            w.append(c).unwrap();
        }
        let load = load_shard(&path).unwrap();
        assert_eq!(load.skipped.len(), 1, "{:?}", load.skipped);
        assert_eq!(load.skipped[0].first_line, 6);
        assert_eq!(load.cells.len(), cells.len());
        // The merge completes: the line-6 casualty was re-appended
        // as a later record (cells[5] is in the tail we just wrote).
        let run = merge_to_run(&dir, &g).unwrap();
        assert!(run.is_complete(), "{:?}", run.missing);
        assert_eq!(stored_csv_string(&run.cells), stored_csv_string(&cells));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_sharded_resumes_and_merges_byte_identically() {
        // Real evaluations: a 4-cell slice, run 2/2-sharded with an
        // interruption (simulated by running shard 1 only), resumed,
        // merged — bytes equal the uninterrupted unsharded log run.
        let g = GridSpec {
            name: "shardlog-real".to_string(),
            models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
            datasets: vec![DatasetScale::Cifar10],
            designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
            dataflows: vec![Dataflow::WeightStationary],
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        };
        let ref_dir = tmp_dir("real-ref");
        let stats = run_sharded(&g, Shard::default(), &ref_dir, 2).unwrap();
        assert_eq!((stats.owned, stats.resumed, stats.evaluated), (4, 0, 4));
        let reference = merge_to_run(&ref_dir, &g).unwrap();
        assert!(reference.is_complete());

        let dir = tmp_dir("real-sharded");
        let s1 = run_sharded(&g, Shard { k: 1, n: 2 }, &dir, 1).unwrap();
        assert_eq!((s1.owned, s1.resumed, s1.evaluated), (2, 0, 2));
        // "Crash" before shard 2 ran; merge is incomplete.
        let partial = merge_to_run(&dir, &g).unwrap();
        assert_eq!(partial.missing.len(), 2);
        // Resume shard 1 (everything already committed) and run shard 2.
        let s1b = run_sharded(&g, Shard { k: 1, n: 2 }, &dir, 1).unwrap();
        assert_eq!((s1b.resumed, s1b.evaluated), (2, 0));
        let s2 = run_sharded(&g, Shard { k: 2, n: 2 }, &dir, 1).unwrap();
        assert_eq!((s2.resumed, s2.evaluated), (0, 2));
        let run = merge_to_run(&dir, &g).unwrap();
        assert!(run.is_complete());
        assert_eq!(
            stored_csv_string(&run.cells),
            stored_csv_string(&reference.cells)
        );
        assert_eq!(
            stored_json_string(&g.name, &run.cells),
            stored_json_string(&g.name, &reference.cells)
        );
        // And the merged CSV equals the classic in-memory run's CSV.
        let direct = crate::store::to_csv_string(&runner::run_grid(&g));
        assert_eq!(stored_csv_string(&run.cells), direct);
        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_carry_a_version_and_undecodable_ones_are_skipped_by_line() {
        let g = grid();
        let specs = g.expand();
        let cells: Vec<StoredCell> = specs[..4]
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let line = record_line(&cells[0]);
        assert!(line.starts_with("{\"v\":1,\"id\":"), "{line}");
        // Version 1 with and without its `v` decodes to the same cell.
        let unversioned = serde::json::to_string(&cells[1]);
        assert!(!unversioned.contains("\"v\""));
        let future = record_line(&cells[2]).replacen("\"v\":1", "\"v\":2", 1);
        let garbled = record_line(&cells[2]).replacen("\"v\":1", "\"v\":\"one\"", 1);
        let no_id = record_line(&cells[3]).replacen(&cells[3].id, "", 1);

        let dir = tmp_dir("versions");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(shard_file_name(Shard::default()));
        let lines = [line, future, garbled, unversioned, no_id];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let load = load_shard(&path).unwrap();
        assert_eq!(load.cells, cells[..2]);
        let skipped: Vec<(usize, usize, &str)> = load
            .skipped
            .iter()
            .map(|s| (s.first_line, s.last_line, s.reason.as_str()))
            .collect();
        assert_eq!(
            skipped,
            [
                (2, 3, "unknown record version 2"),
                (5, 5, "invalid record: empty cell ID")
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overdeep_line_is_a_skipped_span_and_its_neighbours_load() {
        let g = grid();
        let cells: Vec<StoredCell> = g.expand()[..2]
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_cell(s, i as u64))
            .collect();
        let dir = tmp_dir("overdeep");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(shard_file_name(Shard::default()));
        // Unbounded parser recursion on the middle line overflows a
        // spawned thread's 2 MiB stack, which aborts the process: no
        // load, no resume.
        let lines = [
            record_line(&cells[0]),
            "[".repeat(10_000),
            record_line(&cells[1]),
        ];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let load = std::thread::spawn(move || load_shard(&path).unwrap())
            .join()
            .expect("loader thread");
        assert_eq!(load.cells, cells);
        assert_eq!(
            load.skipped,
            [SkippedSpan {
                first_line: 2,
                last_line: 2,
                reason: "undecodable record: serde: nesting deeper than 128 at byte 128"
                    .to_string(),
            }]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_reports_extras_and_missing() {
        let g = grid();
        let specs = g.expand();
        let dir = tmp_dir("extras");
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        w.append(&synthetic_cell(&specs[0], 1)).unwrap();
        let foreign = CellSpec::new(
            Dataflow::OutputStationary,
            DatasetScale::ImageNet,
            CnnModel::Vgg19,
            AdaGpDesign::Low,
            PhaseSchedule::SteadyOnly,
        );
        w.append(&synthetic_cell(&foreign, 2)).unwrap();
        let run = merge_to_run(&dir, &g).unwrap();
        assert_eq!(run.cells.len(), 1);
        assert_eq!(run.missing.len(), specs.len() - 1);
        assert_eq!(run.extras, 1);
        assert!(!run.is_complete());
        std::fs::remove_dir_all(&dir).ok();
    }
}
