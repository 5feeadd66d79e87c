//! Crash-injection battery for the shard-log execution path.
//!
//! The tentpole guarantee under test: **a sweep killed at any record
//! boundary resumes to a final CSV/JSON byte-identical to the
//! uninterrupted run's.** Three layers:
//!
//! 1. *All-boundaries sweep* — over a 78-cell grid, simulate a crash
//!    after every `K ∈ 0..=78` committed records (torn half-record
//!    appended, exactly the bytes the fault point writes), resume by
//!    appending the missing records, and byte-compare the merged
//!    CSV/JSON against the uninterrupted reference. Cells are evaluated
//!    once with real metrics and reused across boundaries, so the loop
//!    is I/O-bound.
//! 2. *Real resume path* — at sampled boundaries, the resume is the
//!    actual `run_sharded` (re-evaluating only what the log lacks), not
//!    a record replay.
//! 3. *Real process abort* — the `sweep` binary is killed by the
//!    `ADAGP_SHARD_FAULT_AFTER` fault point at every boundary of the
//!    smoke grid (all four cells commit as one group) and re-invoked.
//!    The log each abort leaves must be byte for byte what layers 1–2
//!    simulate, and the resumed CSV/JSON must equal the uninterrupted
//!    run's, whose CSV is the committed smoke golden.

use adagp_sweep::grid::{DatasetScale, GridSpec, PhaseSchedule};
use adagp_sweep::shardlog::{
    self, merge_to_run, record_line, run_sharded, shard_file_name, ShardWriter,
};
use adagp_sweep::store::{stored_csv_string, stored_json_string, StoredCell};
use adagp_sweep::{evaluate_cells, Shard};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adagp-shardcrash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The ≥50-cell battery grid: 13 models × 3 designs × 2 dataflows on
/// CIFAR10 = 78 cells (CIFAR-scale shapes keep evaluation cheap).
fn battery_grid() -> GridSpec {
    GridSpec {
        name: "crash-battery".to_string(),
        models: adagp_nn::models::CnnModel::all().to_vec(),
        datasets: vec![DatasetScale::Cifar10],
        designs: adagp_accel::AdaGpDesign::all().to_vec(),
        dataflows: vec![
            adagp_accel::Dataflow::WeightStationary,
            adagp_accel::Dataflow::RowStationary,
        ],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// Writes a crashed-at-boundary-`k` shard log: `k` committed records
/// followed by the torn half of record `k` (when one remains) — byte
/// for byte what the `ADAGP_SHARD_FAULT_AFTER=k` fault point leaves.
fn write_crashed_log(dir: &PathBuf, cells: &[StoredCell], k: usize) {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(shard_file_name(Shard::default()));
    let mut f = std::fs::File::create(&path).unwrap();
    for cell in &cells[..k] {
        let mut line = record_line(cell);
        line.push('\n');
        f.write_all(line.as_bytes()).unwrap();
    }
    if k < cells.len() {
        let mut torn = record_line(&cells[k]);
        torn.truncate(torn.len() / 2);
        f.write_all(torn.as_bytes()).unwrap();
    }
    f.sync_data().unwrap();
}

#[test]
fn every_record_boundary_resumes_to_byte_identical_outputs() {
    let grid = battery_grid();
    let specs = grid.expand();
    assert!(specs.len() >= 50, "battery grid must span ≥50 cells");
    // One real evaluation of the whole grid; every boundary scenario
    // reuses these records, so the 79-scenario loop stays I/O-bound.
    let cells: Vec<StoredCell> = evaluate_cells(specs)
        .iter()
        .map(|r| StoredCell::from_evaluation(&r.spec, &r.metrics))
        .collect();
    let reference_csv = stored_csv_string(&cells);
    let reference_json = stored_json_string(&grid.name, &cells);

    for k in 0..=cells.len() {
        let dir = tmp_dir(&format!("boundary-{k}"));
        write_crashed_log(&dir, &cells, k);
        // Resume: re-append exactly the records the committed prefix
        // lacks (the torn record's ID never committed, so it is owed).
        let committed: std::collections::HashSet<&str> =
            cells[..k].iter().map(|c| c.id.as_str()).collect();
        let mut w = ShardWriter::open(&dir, Shard::default()).unwrap();
        for cell in cells.iter().filter(|c| !committed.contains(c.id.as_str())) {
            w.append(cell).unwrap();
        }
        let run = merge_to_run(&dir, &grid).unwrap();
        assert!(run.is_complete(), "boundary {k}: {:?}", run.missing);
        // The torn tail (absent at the k == len boundary, where the
        // crash hit after the final fsync) is reported, never fatal.
        assert_eq!(
            run.skipped.len(),
            usize::from(k < cells.len()),
            "boundary {k}: {:?}",
            run.skipped
        );
        assert_eq!(
            stored_csv_string(&run.cells),
            reference_csv,
            "CSV differs at boundary {k}"
        );
        assert_eq!(
            stored_json_string(&grid.name, &run.cells),
            reference_json,
            "JSON differs at boundary {k}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // Sampled boundaries drive the *real* resume path: run_sharded must
    // skip every committed cell and re-evaluate only the remainder.
    for k in [0, 1, cells.len() / 2, cells.len() - 1] {
        let dir = tmp_dir(&format!("resume-{k}"));
        write_crashed_log(&dir, &cells, k);
        let stats = run_sharded(&grid, Shard::default(), &dir, 16).unwrap();
        assert_eq!(
            (stats.resumed, stats.evaluated),
            (k, cells.len() - k),
            "boundary {k}"
        );
        let run = merge_to_run(&dir, &grid).unwrap();
        assert!(run.is_complete(), "boundary {k}: {:?}", run.missing);
        assert_eq!(
            stored_csv_string(&run.cells),
            reference_csv,
            "CSV differs at boundary {k}"
        );
        assert_eq!(
            stored_json_string(&grid.name, &run.cells),
            reference_json,
            "JSON differs at boundary {k}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Runs the real `sweep` binary, returning (status code or None on
/// signal, stdout).
fn sweep_cmd(args: &[&str], fault_after: Option<usize>) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(args);
    match fault_after {
        Some(n) => cmd.env("ADAGP_SHARD_FAULT_AFTER", n.to_string()),
        None => cmd.env_remove("ADAGP_SHARD_FAULT_AFTER"),
    };
    let out = cmd.output().expect("spawn sweep binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn aborted_sweep_process_resumes_to_byte_identical_outputs() {
    // The uninterrupted reference: one clean log-dir run of smoke.
    let ref_dir = tmp_dir("proc-ref");
    let ref_csv = ref_dir.join("ref.csv");
    let ref_json = ref_dir.join("ref.json");
    let (code, _) = sweep_cmd(
        &[
            "run",
            "smoke",
            "--quiet",
            "--log-dir",
            ref_dir.join("logs").to_str().unwrap(),
            "--csv",
            ref_csv.to_str().unwrap(),
            "--json",
            ref_json.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(0));
    let reference_csv = std::fs::read_to_string(&ref_csv).unwrap();
    let reference_json = std::fs::read_to_string(&ref_json).unwrap();
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/sweep_smoke_golden.csv");
    assert_eq!(
        reference_csv,
        std::fs::read_to_string(golden).unwrap(),
        "the binary's --csv differs from testdata/sweep_smoke_golden.csv"
    );
    let log_name = shard_file_name(Shard::default());
    let records = shardlog::load_shard(&ref_dir.join("logs").join(&log_name))
        .unwrap()
        .cells;
    assert_eq!(records.len(), 4, "the smoke grid's records");

    // Kill the binary at every record boundary of the 4-cell smoke
    // grid, then resume without the fault point.
    for k in 0..4 {
        let dir = tmp_dir(&format!("proc-{k}"));
        let logs = dir.join("logs");
        let (code, _) = sweep_cmd(
            &[
                "run",
                "smoke",
                "--quiet",
                "--log-dir",
                logs.to_str().unwrap(),
            ],
            Some(k),
        );
        assert_ne!(
            code,
            Some(0),
            "boundary {k}: the fault point must kill the run"
        );
        let simulated = dir.join("simulated");
        write_crashed_log(&simulated, &records, k);
        assert_eq!(
            std::fs::read(logs.join(&log_name)).unwrap(),
            std::fs::read(simulated.join(&log_name)).unwrap(),
            "boundary {k}: the aborted run's log"
        );
        let csv = dir.join("out.csv");
        let json = dir.join("out.json");
        let (code, stdout) = sweep_cmd(
            &[
                "run",
                "smoke",
                "--quiet",
                "--log-dir",
                logs.to_str().unwrap(),
                "--csv",
                csv.to_str().unwrap(),
                "--json",
                json.to_str().unwrap(),
            ],
            None,
        );
        assert_eq!(code, Some(0), "boundary {k}: resume failed:\n{stdout}");
        assert!(
            stdout.contains(&format!("{k} resumed from log")),
            "boundary {k}: resume must skip the committed cells:\n{stdout}"
        );
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            reference_csv,
            "CSV differs at boundary {k}"
        );
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            reference_json,
            "JSON differs at boundary {k}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn merge_subcommand_rebuilds_the_same_bytes_without_evaluating() {
    let dir = tmp_dir("merge-cli");
    let logs = dir.join("logs");
    let csv = dir.join("run.csv");
    let (code, _) = sweep_cmd(
        &[
            "run",
            "smoke",
            "--quiet",
            "--log-dir",
            logs.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(0));
    let merged_csv = dir.join("merged.csv");
    let merged_json = dir.join("merged.json");
    let (code, stdout) = sweep_cmd(
        &[
            "merge",
            "smoke",
            "--log-dir",
            logs.to_str().unwrap(),
            "--csv",
            merged_csv.to_str().unwrap(),
            "--json",
            merged_json.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(
        std::fs::read_to_string(&merged_csv).unwrap(),
        std::fs::read_to_string(&csv).unwrap()
    );
    // An incomplete merge refuses without --partial...
    let partial_logs = dir.join("partial-logs");
    let (code, _) = sweep_cmd(
        &[
            "run",
            "smoke",
            "--quiet",
            "--shard",
            "1/2",
            "--log-dir",
            partial_logs.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(0));
    let partial_csv = dir.join("partial.csv");
    let (code, _) = sweep_cmd(
        &[
            "merge",
            "smoke",
            "--log-dir",
            partial_logs.to_str().unwrap(),
            "--csv",
            partial_csv.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(2), "incomplete merge must be a hard error");
    assert!(!partial_csv.exists(), "no artifact on refusal");
    // ...and writes the present half with it.
    let (code, _) = sweep_cmd(
        &[
            "merge",
            "smoke",
            "--partial",
            "--log-dir",
            partial_logs.to_str().unwrap(),
            "--csv",
            partial_csv.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, Some(0));
    let partial_text = std::fs::read_to_string(&partial_csv).unwrap();
    assert_eq!(partial_text.lines().count(), 3, "header + 2 owned cells");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_shard_logs_never_panic_and_keep_every_intact_record() {
    // Seeded fuzz: take a real log, splice in corruption (truncated
    // tails, garbage bytes, duplicated and bit-flipped records), and
    // assert the loader recovers every record whose line survived
    // intact, reports the rest as line-numbered spans, and never
    // panics. The generator is a tiny deterministic xorshift so
    // failures reproduce exactly.
    let grid = GridSpec {
        name: "fuzz".to_string(),
        models: vec![
            adagp_nn::models::CnnModel::Vgg13,
            adagp_nn::models::CnnModel::ResNet50,
        ],
        datasets: vec![DatasetScale::Cifar10],
        designs: adagp_accel::AdaGpDesign::all().to_vec(),
        dataflows: vec![adagp_accel::Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    };
    let cells: Vec<StoredCell> = evaluate_cells(grid.expand())
        .iter()
        .map(|r| StoredCell::from_evaluation(&r.spec, &r.metrics))
        .collect();
    let lines: Vec<String> = cells.iter().map(record_line).collect();

    let mut state: u64 = 0x5eed_1234_dead_beef;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..200 {
        // Assemble a log: each record intact, duplicated, bit-flipped,
        // replaced by garbage, or dropped; maybe a torn tail at the end.
        let mut file = Vec::new();
        let mut intact = Vec::new(); // (cell index) per intact line
        for (i, line) in lines.iter().enumerate() {
            match next() % 5 {
                0 => {
                    // Intact.
                    file.extend_from_slice(line.as_bytes());
                    file.push(b'\n');
                    intact.push(i);
                }
                1 => {
                    // Duplicated (both intact: last write wins, same bytes).
                    for _ in 0..2 {
                        file.extend_from_slice(line.as_bytes());
                        file.push(b'\n');
                        intact.push(i);
                    }
                }
                2 => {
                    // Committed but undecodable: the line is cut mid-object
                    // (a single flipped byte could still parse — a digit for
                    // a digit — so the corruption must be structural).
                    file.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
                    file.push(b'\n');
                }
                3 => {
                    // Pure garbage line (possibly invalid UTF-8).
                    let len = (next() as usize) % 40 + 1;
                    for _ in 0..len {
                        let b = (next() % 256) as u8;
                        file.push(if b == b'\n' { b'x' } else { b });
                    }
                    file.push(b'\n');
                }
                _ => {} // Dropped.
            }
        }
        if next() % 3 == 0 && !lines.is_empty() {
            // Torn tail: a newline-less prefix of a random record.
            let line = &lines[(next() as usize) % lines.len()];
            let cut = (next() as usize) % line.len() + 1;
            file.extend_from_slice(&line.as_bytes()[..cut.min(line.len() - 1)]);
        }

        let dir = tmp_dir(&format!("fuzz-{round}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(shard_file_name(Shard::default()));
        std::fs::write(&path, &file).unwrap();

        let load = shardlog::load_shard(&path).unwrap();
        // Every intact line is recovered, in order, bit-exactly.
        assert_eq!(load.cells.len(), intact.len(), "round {round}");
        for (got, &want) in load.cells.iter().zip(&intact) {
            assert_eq!(got.id, cells[want].id, "round {round}");
            for (a, b) in got.metrics.iter().zip(&cells[want].metrics) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
        }
        // Skipped spans carry sane, ordered line numbers.
        let mut last_end = 0;
        for span in &load.skipped {
            assert!(span.first_line > last_end, "round {round}: {span:?}");
            assert!(span.last_line >= span.first_line, "round {round}: {span:?}");
            last_end = span.last_line;
            assert!(!span.reason.is_empty(), "round {round}");
        }
        // A full merge of the corrupted log still returns every intact
        // cell (dedup by ID), and never invents one.
        let merged = shardlog::merge_dir(&dir).unwrap();
        let unique: std::collections::HashSet<&str> =
            intact.iter().map(|&i| cells[i].id.as_str()).collect();
        assert_eq!(merged.by_id.len(), unique.len(), "round {round}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `testdata/shardlog_unversioned_smoke/` is the smoke grid as the
/// commit before record versions wrote it (`sweep run smoke --shard k/2`,
/// records without a `v`). It must stay readable: resume finds every
/// cell committed, and the merge is the committed golden, byte for byte.
#[test]
fn log_written_before_record_versions_resumes_and_merges_to_the_golden() {
    let testdata = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata");
    let fixture = testdata.join("shardlog_unversioned_smoke");
    let dir = tmp_dir("unversioned");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = adagp_sweep::presets::smoke();
    for k in 1..=2 {
        let shard = Shard { k, n: 2 };
        let name = shard_file_name(shard);
        let text = std::fs::read_to_string(fixture.join(&name)).expect("fixture log");
        assert!(!text.contains("\"v\""), "the fixture predates the version");
        std::fs::write(dir.join(&name), text).unwrap();
        let stats = run_sharded(&grid, shard, &dir, 16).unwrap();
        assert_eq!((stats.owned, stats.resumed, stats.evaluated), (2, 2, 0));
    }
    let run = merge_to_run(&dir, &grid).unwrap();
    assert!(run.is_complete() && run.skipped.is_empty(), "{run:?}");
    assert_eq!(
        stored_csv_string(&run.cells),
        std::fs::read_to_string(testdata.join("sweep_smoke_golden.csv")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
