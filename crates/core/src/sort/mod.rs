//! Sorting algorithms for persistent memory (§2.1).
//!
//! | Paper name | Function | Character |
//! |---|---|---|
//! | ExMS | [`external_merge_sort`] | symmetric-I/O baseline |
//! | SegS  | [`segment_sort`] | write intensity `x` over the **input** |
//! | HybS  | [`hybrid_sort`] | write intensity `x` over **DRAM** |
//! | LaS   | [`lazy_sort`] | dynamic, Eq. 5 materialization |
//! | (SelS) | [`selection_sort`] | write-minimal multi-pass building block |
//! | cycle sort | [`cycle_sort`] | in-memory write-optimal reference |

pub mod common;
pub mod cycle;
pub mod ext_merge;
pub mod hybrid;
pub mod lazy;
pub mod segment;
pub mod selection;

pub use common::{
    generate_runs_parallel, generate_runs_parallel_profiled, generate_runs_replacement,
    generate_runs_replacement_range, is_sorted_by_key, merge_fan_in, merge_group,
    merge_group_parallel, merge_runs, merge_runs_into, merge_runs_into_profiled, Entry, KWayMerge,
    LoserTree, MergeProfile, MergeSource, SortContext, MERGE_SEGMENT_RECORDS,
};
pub use cycle::cycle_sort;
pub use ext_merge::{external_merge_sort, external_merge_sort_profiled, ExmsProfile};
pub use hybrid::hybrid_sort;
pub use lazy::{lazy_sort, materialization_pass};
pub use segment::segment_sort;
pub use selection::{
    selection_sort, selection_sort_into, selection_sort_range_into, SelectionStream,
};

use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// Uniform handle over the paper's sort algorithms, used by the benchmark
/// harness and the cost-model concordance experiment (Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SortAlgorithm {
    /// External mergesort with replacement selection.
    ExMS,
    /// Segment sort at the given write intensity.
    SegS {
        /// Fraction of the input handled by external mergesort.
        x: f64,
    },
    /// Hybrid sort with the given selection-region fraction of DRAM.
    HybS {
        /// Fraction of DRAM allocated to the selection region.
        x: f64,
    },
    /// Lazy sort.
    LaS,
    /// Multi-pass selection sort (write-minimal reference).
    SelS,
}

impl SortAlgorithm {
    /// Paper-style label, e.g. `SegS, 20%`.
    pub fn label(&self) -> String {
        match self {
            SortAlgorithm::ExMS => "ExMS".into(),
            SortAlgorithm::SegS { x } => format!("SegS, {:.0}%", x * 100.0),
            SortAlgorithm::HybS { x } => format!("HybS, {:.0}%", x * 100.0),
            SortAlgorithm::LaS => "LaS".into(),
            SortAlgorithm::SelS => "SelS".into(),
        }
    }

    /// Runs the algorithm on `input` under `ctx`.
    ///
    /// # Errors
    /// Propagates parameter validation errors from the underlying
    /// algorithm (e.g., out-of-range write intensity).
    pub fn run<R: Record>(
        &self,
        input: &PCollection<R>,
        ctx: &SortContext<'_>,
        output_name: &str,
    ) -> Result<PCollection<R>, PmError> {
        // Hold the DRAM working set for the blocking phase: the whole
        // input if it fits, the remaining budget otherwise (external
        // algorithms run at capacity — the refused full-size attempt is
        // the memory-pressure event `exhausted` telemetry counts). Pure
        // telemetry — capacity decisions read the budget, not the
        // reservation ledger.
        let pool = ctx.pool();
        let want = input.len() * R::SIZE;
        let _working_set = pool
            .reserve(want)
            .or_else(|_| pool.reserve(want.min(pool.available())))
            .ok();
        match self {
            SortAlgorithm::ExMS => Ok(external_merge_sort(input, ctx, output_name)),
            SortAlgorithm::SegS { x } => segment_sort(input, *x, ctx, output_name),
            SortAlgorithm::HybS { x } => hybrid_sort(input, *x, ctx, output_name),
            SortAlgorithm::LaS => Ok(lazy_sort(input, ctx, output_name)),
            SortAlgorithm::SelS => Ok(selection_sort(input, ctx, output_name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder};

    #[test]
    fn every_algorithm_produces_the_same_sorted_output() {
        let algos = [
            SortAlgorithm::ExMS,
            SortAlgorithm::SegS { x: 0.5 },
            SortAlgorithm::HybS { x: 0.5 },
            SortAlgorithm::LaS,
            SortAlgorithm::SelS,
        ];
        let expect: Vec<u64> = (0..2000).collect();
        for algo in algos {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "t",
                sort_input(2000, KeyOrder::Random, 33),
            );
            let pool = BufferPool::new(100 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let out = algo.run(&input, &ctx, "sorted").expect("valid params");
            let keys: Vec<u64> = out
                .to_vec_uncounted()
                .iter()
                .map(wisconsin::Record::key)
                .collect();
            assert_eq!(keys, expect, "{}", algo.label());
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(SortAlgorithm::ExMS.label(), "ExMS");
        assert_eq!(SortAlgorithm::SegS { x: 0.2 }.label(), "SegS, 20%");
        assert_eq!(SortAlgorithm::HybS { x: 0.8 }.label(), "HybS, 80%");
    }
}
