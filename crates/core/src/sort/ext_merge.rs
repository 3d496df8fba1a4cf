//! ExMS — standard external mergesort with replacement selection.
//!
//! The paper's symmetric-I/O baseline (§2.1.1): generate runs with
//! replacement selection (average length `2M` on random input), then merge
//! with `log_M |T|` passes. Total cost `|T|·r·(1+λ)·(log_M |T| + 1)`.

use super::common::SortContext;
use super::kernel::{generate_runs, merge_into};
use crate::parallel::{fan_out, measured, Label, Phase, Phases};
use pmem_sim::{IoStats, PCollection};
use wisconsin::Record;

/// Chunk width for run generation, in multiples of the DRAM heap capacity
/// `M`. Replacement selection emits runs averaging `2M` on random input,
/// so a `4M` chunk yields ~2 runs and the expected run count (and with it
/// the merge-pass count) matches an unchunked generator; only run
/// *boundaries* move. The width depends on `M` and the input alone —
/// never on the degree of parallelism — so the runs, their names, and
/// every counter are DoP-invariant.
const RUN_GEN_CHUNK_CAPACITIES: usize = 4;

/// [`external_merge_sort_profiled`]'s phase ledger in the fixed shape
/// `wlbench`'s ops workload reads: run generation, then the merge
/// passes. A projection of the ledger
/// [`super::SortAlgorithm::run_profiled`] returns, to be deleted with
/// its one reader (ROADMAP item 3).
#[derive(Clone, Debug, Default)]
pub struct ExmsProfile {
    /// Traffic per fixed `4M`-record run-generation chunk.
    pub run_generation: Vec<IoStats>,
    /// The merge's phases: a phase per intermediate pass (its merge
    /// groups), then the final pass (its key-range cuts, then its
    /// segments — or one serial merge).
    pub merge_passes: Vec<Vec<IoStats>>,
}

/// [`super::SortAlgorithm::ExMS`] with its phase ledger in
/// [`ExmsProfile`]'s shape, kept only for `wlbench`'s ops workload
/// (ROADMAP item 3 deletes both); everything else reads
/// [`super::SortAlgorithm::run_profiled`].
pub fn external_merge_sort_profiled<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> (PCollection<R>, ExmsProfile) {
    let (out, phases) = phased(input, ctx, output_name);
    let mut phases = phases.into_iter().map(|phase| phase.tasks);
    let run_generation = phases.next().unwrap_or_default();
    let merge_passes = phases.collect();
    (
        out,
        ExmsProfile {
            run_generation,
            merge_passes,
        },
    )
}

/// ExMS's schedule: run generation over a grid of `4M`-record chunks
/// across the worker pool, then the merge phase — or, for a single run,
/// that run itself, as no merge could improve on it.
pub(crate) fn phased<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> (PCollection<R>, Phases) {
    let _op = ctx.operator("exms", input.len() * R::SIZE);
    let capacity = ctx.capacity::<R>().records();
    let (mut runs, chunks) = chunked_runs(input, capacity, ctx);
    let mut phases = vec![chunks];
    if runs.len() == 1 {
        if let Some(run) = runs.pop() {
            return (run, phases);
        }
    }
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    phases.extend(merge_into(runs, ctx, &mut out));
    (out, phases)
}

/// Run generation chunk by chunk, a task per chunk, with each chunk's
/// runs named under a prefix minted here; an input of one chunk is one
/// serial generator with plainly named runs.
pub(crate) fn chunked_runs<R: Record>(
    input: &PCollection<R>,
    capacity: usize,
    ctx: &SortContext<'_>,
) -> (Vec<PCollection<R>>, Phase) {
    let chunk = capacity.saturating_mul(RUN_GEN_CHUNK_CAPACITIES).max(1);
    if input.len() <= chunk {
        let runs = || generate_runs(input.reader(), capacity, || ctx.fresh("run"));
        return measured(Label::RunGen, runs);
    }
    let n_chunks = input.len().div_ceil(chunk);
    let prefixes: Vec<String> = (0..n_chunks).map(|_| ctx.fresh_name("run")).collect();
    let generate = |c: usize| {
        let start = c * chunk;
        let scan = input.range_reader(start, (start + chunk).min(input.len()));
        let mut local = 0u32;
        generate_runs(scan, capacity, || {
            let name = format!("{}.{local}", prefixes[c]);
            local += 1;
            PCollection::new(ctx.device(), ctx.kind(), name)
        })
    };
    let mut all = Vec::with_capacity(n_chunks * 2);
    let land = |runs: Vec<PCollection<R>>| all.extend(runs);
    let phase = fan_out(ctx, Label::RunGen, n_chunks, generate, land);
    (all, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use crate::sort::SortAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    #[test]
    fn sorts_random_input() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(10_000, KeyOrder::Random, 1),
        );
        let pool = BufferPool::new(500 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert_eq!(out.len(), 10_000);
        assert!(is_sorted_by_key(&out));
        let keys: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
        assert_eq!(keys, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn io_cost_is_near_model_for_one_merge_pass() {
        // With M large enough for a single merge pass, the model cost is
        // 2·|T| reads and 2·|T| writes (run generation + one merge).
        let dev = PmDevice::paper_default();
        let n = 20_000u64;
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 2),
        );
        let t_buffers = input.buffers() as f64;
        let pool = BufferPool::new(2000 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let _out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        let d = dev.snapshot().since(&before);
        let reads = d.cl_reads as f64;
        let writes = d.cl_writes as f64;
        assert!(
            (reads / t_buffers - 2.0).abs() < 0.1,
            "reads/|T| = {}",
            reads / t_buffers
        );
        assert!(
            (writes / t_buffers - 2.0).abs() < 0.1,
            "writes/|T| = {}",
            writes / t_buffers
        );
    }

    #[test]
    fn handles_duplicate_keys() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(5000, KeyOrder::FewDistinct { distinct: 7 }, 3),
        );
        let pool = BufferPool::new(200 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert_eq!(out.len(), 5000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let dev = PmDevice::paper_default();
        let input: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "t");
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert!(out.is_empty());
    }

    #[test]
    fn single_record_passes_through() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            [WisconsinRecord::from_key(9)],
        );
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert_eq!(out.to_vec_uncounted()[0].key(), 9);
    }
}
