//! Closed-loop load test of the resident server: client threads submit
//! overlapping random sub-grids to an in-process server on a shard-log
//! directory, and every reply is checked against direct local
//! evaluation, bit for bit.
//!
//! 1. A 16-cell **universe** is evaluated locally (`evaluate_cell`).
//! 2. `CLIENTS` threads submit `GRIDS_PER_CLIENT` seeded random
//!    sub-grids of it each (64 in all, heavily overlapping across
//!    clients). Every reply streams every cell in expansion order,
//!    bit-identical to the local evaluation, and its done line accounts
//!    for its cells.
//! 3. `/metrics` satisfies the counter invariants and shows **exactly
//!    one evaluation per distinct cell requested**: coalescing and
//!    memoization, end to end. `/profile` and `/critical` validate.
//! 4. After a graceful shutdown, a second server on the same log answers
//!    every requested cell as a hit, still bit-identical, and evaluates
//!    only the cells nobody requested.
//!
//! Span recording is turned on for the whole process (so `/profile` and
//! `/critical` have a real request tree to serve), which is why this
//! test has a file, and so a process, of its own.

use adagp_accel::{AdaGpDesign, Dataflow};
use adagp_nn::models::CnnModel;
use adagp_obs as obs;
use adagp_serve::wire::grid_to_value;
use adagp_serve::{
    check_invariants, fetch_metrics, http_request, server, submit_grid, ServerConfig,
};
use adagp_sweep::grid::{DatasetScale, GridSpec, PhaseSchedule};
use adagp_sweep::{evaluate_cell, metrics_to_array};
use adagp_tensor::Prng;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;

const CLIENTS: usize = 4;
const GRIDS_PER_CLIENT: usize = 16;
const SEED: u64 = 11;

/// Every cell the sub-grids draw from: small enough to evaluate in
/// seconds, rich enough to cover the bandwidth axis and to make
/// cross-client sharing overwhelming.
fn universe() -> GridSpec {
    GridSpec {
        name: "universe".to_string(),
        models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
        datasets: vec![DatasetScale::Cifar10],
        designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper, PhaseSchedule::SteadyOnly],
        bandwidths: vec![None, Some(64)],
        buffers: vec![None],
    }
}

/// A random non-empty sub-grid of the universe: each axis keeps each
/// value with probability ½, and at least one.
fn random_subgrid(rng: &mut Prng, name: String) -> GridSpec {
    fn subset<T: Clone>(rng: &mut Prng, all: &[T]) -> Vec<T> {
        let picked: Vec<T> = all
            .iter()
            .filter(|_| rng.next_u64() & 1 == 0)
            .cloned()
            .collect();
        if picked.is_empty() {
            vec![all[rng.below(all.len())].clone()]
        } else {
            picked
        }
    }
    let all = universe();
    GridSpec {
        name,
        models: subset(rng, &all.models),
        designs: subset(rng, &all.designs),
        schedules: subset(rng, &all.schedules),
        bandwidths: subset(rng, &all.bandwidths),
        ..all
    }
}

fn bits(metrics: &[f64]) -> Vec<u64> {
    metrics.iter().map(|m| m.to_bits()).collect()
}

/// What one client saw: the cells streamed to it and their distinct ids.
#[derive(Default)]
struct ClientReport {
    cells: u64,
    requested_ids: HashSet<String>,
}

fn run_client(
    addr: SocketAddr,
    client: usize,
    expected: &HashMap<String, Vec<u64>>,
) -> ClientReport {
    let mut rng = Prng::seed_from_u64(SEED.wrapping_add(client as u64));
    let mut report = ClientReport::default();
    for i in 0..GRIDS_PER_CLIENT {
        let context = format!("client {client} grid {i}");
        let grid = random_subgrid(&mut rng, format!("lt-{client}-{i}"));
        let spec_json = serde::json::to_string(&grid_to_value(&grid));
        let response = submit_grid(addr, &spec_json).unwrap_or_else(|e| panic!("{context}: {e}"));
        assert!(
            response.cell_errors.is_empty(),
            "{context}: cell errors {:?}",
            response.cell_errors
        );
        let cells = grid.expand();
        assert_eq!(response.announced_cells, cells.len() as u64, "{context}");
        assert_eq!(response.cells.len(), cells.len(), "{context}");
        let d = &response.done;
        assert!(
            d.cells == cells.len() as u64 && d.hits + d.evaluated + d.joined == d.cells,
            "{context}: done line does not add up: {d:?}"
        );
        report.cells += d.cells;
        for (spec, line) in cells.iter().zip(&response.cells) {
            assert_eq!(line.id, spec.id, "{context}: cell order drifted");
            assert_eq!(
                bits(&line.metrics),
                expected[&spec.id],
                "{context}: cell {} not bit-identical to direct evaluation",
                spec.key()
            );
            report.requested_ids.insert(spec.id.clone());
        }
    }
    report
}

#[test]
fn overlapping_clients_get_bit_identical_cells_each_evaluated_once() {
    let full = universe();
    let expected: HashMap<String, Vec<u64>> = full
        .expand()
        .iter()
        .map(|spec| {
            let metrics = metrics_to_array(&evaluate_cell(spec));
            (spec.id.clone(), bits(&metrics))
        })
        .collect();
    assert_eq!(expected.len(), 16, "universe changed shape");

    obs::set_enabled(true);
    let log_dir = std::env::temp_dir().join(format!("adagp-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let config = ServerConfig {
        workers: 8,
        log_dir: Some(log_dir.clone()),
        ..ServerConfig::default()
    };
    let first = server::start(config.clone()).expect("server starts");
    let addr = first.addr();

    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let expected = &expected;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| scope.spawn(move || run_client(addr, client, expected)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let served: u64 = reports.iter().map(|r| r.cells).sum();
    let requested: HashSet<String> = reports.into_iter().flat_map(|r| r.requested_ids).collect();

    // Server-side accounting: one evaluation per distinct cell requested.
    let metrics = fetch_metrics(addr).expect("metrics scrape");
    assert_eq!(check_invariants(&metrics), None, "{metrics:?}");
    assert_eq!(
        metrics["evaluations"],
        requested.len() as i128,
        "coalescing failed"
    );
    assert_eq!(metrics["cells_served"], served as i128);

    // The live span-tree profile: non-empty and internally consistent
    // (the validator `obs_check profile` runs).
    let reply = http_request(addr, "GET", "/profile", None).expect("/profile");
    assert_eq!(reply.status, 200, "/profile");
    let profile = obs::validate_profile(&reply.body).expect("/profile body valid");
    assert!(profile.nodes > 0, "/profile returned an empty span tree");

    // The live critical-path report: `adagp-critpath-v1` in measured mode
    // with at least one lane (the validator `obs_check critpath` runs).
    let reply = http_request(addr, "GET", "/critical", None).expect("/critical");
    assert_eq!(reply.status, 200, "/critical");
    let crit = obs::validate_critpath(&reply.body).expect("/critical body valid");
    assert_eq!(crit.mode, "measured");
    assert!(crit.lanes > 0, "/critical returned no lanes");

    // Graceful shutdown, then a restart on the same shard log: every
    // requested cell comes back as a hit, bit-identical; only the cells
    // nobody requested are evaluated.
    first.shutdown().expect("graceful shutdown");
    let restarted = server::start(config).expect("restart on the log");
    let spec_json = serde::json::to_string(&grid_to_value(&full));
    let replay = submit_grid(restarted.addr(), &spec_json).expect("replay");
    let evaluations = fetch_metrics(restarted.addr()).expect("metrics scrape")["evaluations"];
    restarted.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&log_dir).ok();
    assert_eq!(replay.done.hits, requested.len() as u64, "logged cells hit");
    assert_eq!(evaluations, (expected.len() - requested.len()) as i128);
    for line in &replay.cells {
        assert_eq!(
            bits(&line.metrics),
            expected[&line.id],
            "replayed cell {} is not bit-identical",
            line.id
        );
    }
}
