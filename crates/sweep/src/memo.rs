//! The process-lifetime memo tables a cell evaluation consults, one
//! [`adagp_runtime::Memo`] each: the batch memo
//! ([`crate::simeval::BatchMemoKey`] → the cell's simulated Phase-BP and
//! Phase-GP batch stats) and the knee memo
//! ([`crate::roofline::KneeMemoKey`] → the roofline knee). The global
//! pair counts its misses (`sweep_sim_runs_total`,
//! `sweep_knee_searches_total`) and its entries (`sweep_sim_memo_entries`,
//! `sweep_knee_memo_entries`) in the [`adagp_obs::registry`], which
//! `adagp-serve` renders on `/metrics`.

use crate::roofline::KneeMemoKey;
use crate::simeval::BatchMemoKey;
use adagp_runtime::Memo;
use adagp_sim::BatchStats;
use std::sync::OnceLock;

/// The two tables one cell evaluation consults.
pub(crate) struct CellMemos {
    /// A cell's simulated BP and GP batches.
    pub(crate) batches: Memo<BatchMemoKey, [BatchStats; 2]>,
    /// A cell's roofline knee.
    pub(crate) knees: Memo<KneeMemoKey, u64>,
}

impl CellMemos {
    /// The process-global tables, metered in the obs registry.
    pub(crate) fn global() -> &'static CellMemos {
        static MEMOS: OnceLock<CellMemos> = OnceLock::new();
        MEMOS.get_or_init(|| CellMemos {
            batches: Memo::new(Some(("sweep_sim_runs_total", "sweep_sim_memo_entries"))),
            knees: Memo::new(Some((
                "sweep_knee_searches_total",
                "sweep_knee_memo_entries",
            ))),
        })
    }

    /// Empty, unmetered tables: what a test evaluates with when it needs
    /// an evaluation that no earlier one in the process can have served.
    #[cfg(test)]
    pub(crate) fn fresh() -> CellMemos {
        CellMemos {
            batches: Memo::default(),
            knees: Memo::default(),
        }
    }
}
