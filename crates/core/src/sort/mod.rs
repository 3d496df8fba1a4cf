//! Sorting algorithms for persistent memory (§2.1). Every sort is a short
//! schedule over the kernels in `kernel.rs`: **run generation**
//! (replacement selection), the **selection heap** (the `M` smallest
//! records past a boundary, with an overflow sink), and the merge passes
//! (the **intermediate pass** down to a fan-in, the **range-partitioned
//! final pass**). At a knob's corner the schedules coincide: SegS(x = 0)
//! is SelS, and HybS(x = 1) and SegS(x = 1) are ExMS within one `4M`
//! run-generation chunk (past it, see the tests beside each).
//!
//! | Paper name | Function | Character | Schedule |
//! |---|---|---|---|
//! | ExMS | [`SortAlgorithm::ExMS`] | symmetric-I/O baseline | run generation over a grid of `4M`-record chunks; intermediate passes; range-partitioned final pass |
//! | SegS | [`SortAlgorithm::SegS`] | write intensity `x` over the **input** | run generation over the first `x·|T|`; intermediate passes to fan-in − 1; final pass of the runs and a selection stream over the rest (dropping sink) |
//! | HybS | [`SortAlgorithm::HybS`] | write intensity `x` over **DRAM** | one scan through the selection heap (no boundary) whose sink is run generation; the heap lands as the prefix, then ExMS's merge passes |
//! | LaS | [`SortAlgorithm::LaS`] | dynamic, Eq. 5 materialization | selection-heap passes; a pass Eq. 5 picks sinks its overflow into the `lazy-int` intermediate, the next source |
//! | (SelS) | [`SortAlgorithm::SelS`] | write-minimal multi-pass building block | selection-heap passes past the last record emitted (dropping sink) |
//! | cycle sort | [`cycle_sort`] | in-memory write-optimal reference | — |
//!
//! Sort-based aggregation ([`crate::agg::sort_based_aggregate`]) is
//! SegS's schedule with a folding consumer in the final pass.

pub mod common;
pub mod cycle;
pub mod ext_merge;
pub mod hybrid;
pub(crate) mod kernel;
pub mod lazy;
pub mod segment;
pub mod selection;

pub use common::{is_sorted_by_key, KWayMerge, SortContext};
pub use cycle::cycle_sort;
pub use ext_merge::{external_merge_sort_profiled, ExmsProfile};

use crate::parallel::Phases;
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// Uniform handle over the paper's sort algorithms, which the planner
/// ranks and the lowering runs, as do the benchmark harness and Fig. 12.
/// It only dispatches: each schedule opens its own `ExecContext::operator`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SortAlgorithm {
    /// External mergesort with replacement selection.
    ExMS,
    /// Segment sort at the given write intensity.
    SegS {
        /// Fraction of the input handled by external mergesort.
        x: f64,
    },
    /// Hybrid sort at the given write intensity over DRAM.
    HybS {
        /// Fraction of DRAM given to the replacement-selection region
        /// (the selection region gets the rest).
        x: f64,
    },
    /// Lazy sort.
    LaS,
    /// Multi-pass selection sort (write-minimal reference).
    SelS,
}

/// Paper-style label, e.g. `SegS, 20%`.
impl std::fmt::Display for SortAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortAlgorithm::ExMS => f.write_str("ExMS"),
            SortAlgorithm::SegS { x } => write!(f, "SegS, {:.0}%", x * 100.0),
            SortAlgorithm::HybS { x } => write!(f, "HybS, {:.0}%", x * 100.0),
            SortAlgorithm::LaS => f.write_str("LaS"),
            SortAlgorithm::SelS => f.write_str("SelS"),
        }
    }
}

impl SortAlgorithm {
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
        self.run_profiled(input, ctx, output_name)
            .map(|(out, _)| out)
    }

    /// [`SortAlgorithm::run`] with the run's phase ledger beside the
    /// result: its phases in execution order, each labelled and carrying
    /// the traffic of its independent tasks. The labels
    /// ([`crate::parallel::Label`]):
    /// * `run-gen` — run generation: a task per `4M`-record chunk (ExMS),
    ///   or one serial scan (SegS's prefix, HybS's heaps);
    /// * `merge k` — merge pass `k`, counted from 0: a task per merge
    ///   group, and the final pass a task per key range after a one-task
    ///   `cuts` phase, or one serial merge;
    /// * `select` — LaS's and SelS's selection passes, one serial phase.
    ///
    /// Together the phases account for the run's whole device delta, and
    /// every entry is identical at any degree of parallelism: scheduling
    /// each phase's tasks onto DoP workers gives the deterministic
    /// critical-path estimate. Under an armed profile each phase is one
    /// span of its label.
    ///
    /// # Errors
    /// Same as [`SortAlgorithm::run`].
    pub fn run_profiled<R: Record>(
        &self,
        input: &PCollection<R>,
        ctx: &SortContext<'_>,
        output_name: &str,
    ) -> Result<(PCollection<R>, Phases), PmError> {
        match self {
            SortAlgorithm::ExMS => Ok(ext_merge::phased(input, ctx, output_name)),
            SortAlgorithm::SegS { x } => segment::phased(input, *x, ctx, output_name),
            SortAlgorithm::HybS { x } => hybrid::phased(input, *x, ctx, output_name),
            SortAlgorithm::LaS => Ok(lazy::phased(input, ctx, output_name)),
            SortAlgorithm::SelS => Ok(selection::phased(input, ctx, output_name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, IoStats, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    /// Every persistence layer: the corner equivalences must hold on
    /// the software-time and call counters too, not only on cachelines.
    pub(in crate::sort) const LAYERS: [LayerKind; 5] = [
        LayerKind::BlockedMemory,
        LayerKind::Pmfs,
        LayerKind::RamDisk,
        LayerKind::DynArray,
        LayerKind::FileBacked,
    ];

    /// One run of `sort` on a fresh device over `records` staged on
    /// `kind`, with `m_records` Wisconsin records of DRAM at DoP
    /// `threads`: the device delta and the output records in order — the
    /// two things a corner equivalence compares.
    pub(in crate::sort) fn device_run(
        records: &[WisconsinRecord],
        kind: LayerKind,
        m_records: usize,
        threads: usize,
        sort: impl FnOnce(
            &PCollection<WisconsinRecord>,
            &SortContext<'_>,
        ) -> Result<PCollection<WisconsinRecord>, PmError>,
    ) -> (IoStats, Vec<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(&dev, kind, "T", records.iter().copied());
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, kind, &pool).with_threads(threads);
        let before = dev.snapshot();
        let out = sort(&input, &ctx).expect("valid parameters");
        (dev.snapshot().since(&before), out.to_vec_uncounted())
    }

    /// Asserts two [`device_run`]s are the same run: identical device
    /// counters and identical output, record for record.
    pub(in crate::sort) fn assert_same_run(
        what: &str,
        (io, rows): &(IoStats, Vec<WisconsinRecord>),
        (want_io, want_rows): &(IoStats, Vec<WisconsinRecord>),
    ) {
        assert_eq!(io, want_io, "{what}: device counters");
        assert_eq!(rows.len(), want_rows.len(), "{what}: output length");
        assert!(rows == want_rows, "{what}: output records");
    }

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
            assert_eq!(keys, expect, "{algo}");
        }
    }

    #[test]
    fn every_phase_ledger_accounts_for_the_whole_run_at_any_dop() {
        let algos = [
            SortAlgorithm::ExMS,
            SortAlgorithm::SegS { x: 0.5 },
            SortAlgorithm::HybS { x: 0.5 },
            SortAlgorithm::LaS,
            SortAlgorithm::SelS,
        ];
        // Past one 8192-record merge segment, several run-generation
        // chunks and, for HybS, an intermediate merge pass.
        let records = sort_input(20_000, KeyOrder::Random, 23);
        for algo in algos {
            let run = |threads: usize| {
                let mut phases = Vec::new();
                let (io, _) = device_run(&records, LayerKind::Pmfs, 600, threads, |input, ctx| {
                    let (out, ledger) = algo.run_profiled(input, ctx, "out")?;
                    phases = ledger;
                    Ok(out)
                });
                (io, phases)
            };
            let (io, phases) = run(1);
            let what = algo.to_string();
            assert!(phases.iter().all(|phase| !phase.tasks.is_empty()), "{what}");
            let sum = phases
                .iter()
                .flat_map(|phase| &phase.tasks)
                .fold(IoStats::default(), |acc, s| acc.plus(s));
            assert_eq!(
                (sum.cl_reads, sum.cl_writes, sum.calls),
                (io.cl_reads, io.cl_writes, io.calls),
                "{what}: the phases cover the device delta"
            );
            assert_eq!(run(4), (io, phases), "{what}: DoP 4");
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(SortAlgorithm::ExMS.to_string(), "ExMS");
        assert_eq!(SortAlgorithm::SegS { x: 0.2 }.to_string(), "SegS, 20%");
        assert_eq!(SortAlgorithm::HybS { x: 0.8 }.to_string(), "HybS, 80%");
    }
}
