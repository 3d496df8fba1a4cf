//! GJ — Grace join, the symmetric-I/O partitioned baseline.
//!
//! Phase 1 hash-partitions both inputs into `k = ⌈f·|T|/M⌉` partition
//! pairs on persistent memory; phase 2 joins each pair with an in-DRAM
//! build/probe. Cost `r·(λ+2)·(|T|+|V|)` plus output writes: each input
//! is read twice and written once (§2.2.2 uses this as the reference).
//!
//! Both phases scale across the context's worker pool
//! ([`crate::parallel`]): partitioning fans out over fixed-size input
//! morsels, the join phase over partition pairs. The morsel grid and the
//! output flush order are independent of the degree of parallelism, so
//! the simulated counters and the output record order are identical at
//! any DoP — parallelism buys wall-clock time only.

use super::common::{partition_of, view_key, BuildTable, JoinContext};
use crate::parallel;
use pmem_sim::{IoStats, PCollection, PmError, RecordBuffer};
use wisconsin::{Pair, Record};

/// Records per partitioning morsel. Inputs at or below this size are
/// partitioned exactly as the serial reference implementation does (one
/// collection per partition); larger inputs split into a fixed grid of
/// morsels so phase 1 can fan out. The grid depends only on the input
/// size — never on the degree of parallelism — which keeps the counted
/// traffic DoP-invariant.
pub const PARTITION_MORSEL_RECORDS: usize = 8192;

/// A hash-partitioned input: for each of the `k` partitions, the
/// per-morsel sub-collections holding its records in input order.
#[derive(Debug)]
pub struct PartitionedInput<R: Record> {
    /// `parts[p][m]`: partition `p`'s records from morsel `m`.
    parts: Vec<Vec<PCollection<R>>>,
}

impl<R: Record> PartitionedInput<R> {
    /// Assembles a partitioned input from per-partition, per-morsel
    /// sub-collections (`parts[p][m]`) — for operators that interleave
    /// partitioning with other routing work (e.g. the guided join's
    /// hot/cold split) but reuse the shared partition-pair join phase.
    pub(crate) fn from_parts(parts: Vec<Vec<PCollection<R>>>) -> Self {
        Self { parts }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Records in partition `p`.
    pub fn len(&self, p: usize) -> usize {
        self.parts[p].iter().map(PCollection::len).sum()
    }

    /// Scans partition `p`'s records in input order, lending their
    /// stored bytes to `visit` a run at a time
    /// ([`pmem_sim::RecordReader::for_each_run`]) and charging the same
    /// reads a scan of a single per-partition collection would (plus at
    /// most one boundary cacheline per morsel).
    pub fn scan_runs(&self, p: usize, mut visit: impl FnMut(&[u8])) {
        for part in &self.parts[p] {
            part.reader().for_each_run(&mut visit);
        }
    }
}

/// Partitions `input` into `k` collections by key hash — the serial
/// reference path, which inputs of at most one morsel route through
/// (keeping the two partitioners from drifting apart on the common
/// case).
pub fn partition_input<R: Record>(
    input: &PCollection<R>,
    k: usize,
    ctx: &JoinContext<'_>,
    prefix: &str,
) -> Vec<PCollection<R>> {
    let mut parts: Vec<PCollection<R>> = (0..k).map(|_| ctx.fresh::<R>(prefix)).collect();
    input.reader().for_each_view(|r| {
        parts[partition_of(view_key(&r), k)].append_bytes(r.bytes());
    });
    parts
}

/// Partitions `input` into `k` partitions over the fixed morsel grid,
/// fanning the scan out across the context's worker pool.
pub fn partition_input_morsels<R: Record>(
    input: &PCollection<R>,
    k: usize,
    ctx: &JoinContext<'_>,
    prefix: &str,
) -> PartitionedInput<R> {
    partition_input_morsels_profiled(input, k, ctx, prefix).0
}

/// [`partition_input_morsels`] plus each morsel's cost as charged by its
/// worker's thread-local ledger.
pub(crate) fn partition_input_morsels_profiled<R: Record>(
    input: &PCollection<R>,
    k: usize,
    ctx: &JoinContext<'_>,
    prefix: &str,
) -> (PartitionedInput<R>, Vec<IoStats>) {
    let n = input.len();
    let morsels = n.div_ceil(PARTITION_MORSEL_RECORDS).max(1);
    if morsels == 1 {
        let before = pmem_sim::thread_stats();
        let parts = partition_input(input, k, ctx, prefix);
        let stats = pmem_sim::thread_stats().since(&before);
        return (
            PartitionedInput {
                parts: parts.into_iter().map(|p| vec![p]).collect(),
            },
            vec![stats],
        );
    }

    // Names are minted morsel-major on the coordinating thread, so
    // naming stays deterministic under parallel creation.
    let names: Vec<Vec<String>> = (0..morsels)
        .map(|_| (0..k).map(|_| ctx.fresh_name(prefix)).collect())
        .collect();

    let mut parts: Vec<Vec<PCollection<R>>> = (0..k).map(|_| Vec::with_capacity(morsels)).collect();
    let mut per_morsel = Vec::with_capacity(morsels);
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * PARTITION_MORSEL_RECORDS;
            let end = (start + PARTITION_MORSEL_RECORDS).min(n);
            let mut subs: Vec<PCollection<R>> = names[m]
                .iter()
                .map(|name| PCollection::new(ctx.device(), ctx.kind(), name.clone()))
                .collect();
            input.range_reader(start, end).for_each_view(|r| {
                subs[partition_of(view_key(&r), k)].append_bytes(r.bytes());
            });
            subs
        },
        |_, morsel| {
            for (p, sub) in morsel.value.into_iter().enumerate() {
                parts[p].push(sub);
            }
            per_morsel.push(morsel.stats);
        },
    );
    (PartitionedInput { parts }, per_morsel)
}

/// Joins every partition pair across the worker pool, appending the
/// results to `out` in partition order. Returns each partition's cost
/// as measured by its worker's thread-local ledger (deterministic at
/// any DoP; the output flush is charged to the coordinator, not the
/// partitions).
pub(crate) fn join_partitioned<L: Record, R: Record>(
    left: &PartitionedInput<L>,
    right: &PartitionedInput<R>,
    ctx: &JoinContext<'_>,
    out: &mut PCollection<Pair<L, R>>,
) -> Vec<IoStats> {
    let k = left.partitions();
    let mut per_partition = Vec::with_capacity(k);
    parallel::for_each_ordered(
        ctx.threads(),
        k,
        |p| {
            let mut buf = RecordBuffer::new();
            if left.len(p) == 0 || right.len(p) == 0 {
                return buf;
            }
            let mut table = BuildTable::new();
            left.scan_runs(p, |run| {
                for l in run.chunks_exact(L::SIZE) {
                    table.insert(L::read_from(l));
                }
            });
            right.scan_runs(p, |run| table.probe_run(run, &mut buf));
            buf
        },
        |_, task| {
            // The flush is serialized here for count determinism, but
            // the writes belong to the partition: a medium serving DoP
            // workers concurrently would land each partition's output
            // from its own worker. Charge them to the partition's cost
            // through the coordinator's own thread ledger.
            let before = pmem_sim::thread_stats();
            out.append_buffer(&task.value);
            let flush = pmem_sim::thread_stats().since(&before);
            per_partition.push(task.stats.plus(&flush));
        },
    );
    per_partition
}

/// Per-phase cost profile of one Grace join run, measured through the
/// per-worker ledgers: what executes serially (partitioning) versus per
/// partition pair (the build/probe phase). The per-partition costs sum,
/// together with the phases' coordinator-side traffic, to the device
/// delta of the whole join, and every entry is identical at any degree
/// of parallelism — this is the measured analogue of the planner's
/// critical-path estimate.
#[derive(Clone, Debug)]
pub struct GraceProfile {
    /// Traffic of phase 1 (hash-partitioning both inputs).
    pub partition_phase: IoStats,
    /// Phase-1 traffic per morsel of the left input (the morsels of one
    /// input fan out concurrently; the two inputs are partitioned one
    /// after the other).
    pub per_morsel_left: Vec<IoStats>,
    /// Phase-1 traffic per morsel of the right input.
    pub per_morsel_right: Vec<IoStats>,
    /// Phase-2 traffic per partition pair: the worker's build/probe
    /// reads plus the partition's output writes (serialized on the
    /// coordinator for determinism, but attributable to the partition —
    /// a medium serving DoP workers would land them concurrently).
    pub per_partition: Vec<IoStats>,
}

/// Joins `left ⋈ right` with Grace join.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when `M ≤ √(f·|T|)` — the
/// paper's applicability condition (partitions would not fit in DRAM).
pub fn grace_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    grace_join_profiled(left, right, ctx, output_name).map(|(out, _)| out)
}

/// [`grace_join`] with the per-phase cost profile alongside the result —
/// what the speedup harness and critical-path analyses consume.
///
/// # Errors
/// Same as [`grace_join`].
pub fn grace_join_profiled<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<(PCollection<Pair<L, R>>, GraceProfile), PmError> {
    let _span = pmem_sim::span::span("alg grace");
    if !ctx.grace_applicable::<L>(left.len()) {
        return Err(PmError::InsufficientMemory {
            requirement: format!(
                "Grace join needs M > sqrt(f*|T|): M = {} records, |T| = {}",
                ctx.capacity_records::<L>(),
                left.len()
            ),
        });
    }
    let k = ctx.grace_partitions::<L>(left.len());
    let before = ctx.device().snapshot();
    let (left_parts, per_morsel_left) = partition_input_morsels_profiled(left, k, ctx, "gj-t");
    let (right_parts, per_morsel_right) = partition_input_morsels_profiled(right, k, ctx, "gj-v");
    let partition_phase = ctx.device().snapshot().since(&before);

    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let per_partition = join_partitioned(&left_parts, &right_parts, ctx, &mut out);
    Ok((
        out,
        GraceProfile {
            partition_phase,
            per_morsel_left,
            per_morsel_right,
            per_partition,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    #[test]
    fn finds_every_match() {
        let dev = PmDevice::paper_default();
        let w = join_input(300, 10, 4);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = grace_join(&left, &right, &ctx, "out").expect("applicable");
        assert_eq!(out.len() as u64, w.expected_matches);
    }

    #[test]
    fn io_matches_lambda_plus_two_model() {
        let dev = PmDevice::paper_default();
        let w = join_input(500, 5, 8);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let input_buffers = left.buffers() + right.buffers();
        let pool = BufferPool::new(100 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = grace_join(&left, &right, &ctx, "out").expect("applicable");
        let d = dev.snapshot().since(&before);
        // Reads: both inputs twice (partitioning + joining); partition
        // boundaries add at most one cacheline per partition per side.
        let reads = d.cl_reads as f64;
        assert!(
            (reads / input_buffers as f64 - 2.0).abs() < 0.1,
            "reads/inputs = {}",
            reads / input_buffers as f64
        );
        // Writes: both inputs once (partitions) + output.
        let expect_writes = input_buffers + out.buffers();
        let slack = 2 * ctx.grace_partitions::<WisconsinRecord>(left.len()) as u64 + 2;
        assert!(
            d.cl_writes >= expect_writes && d.cl_writes <= expect_writes + slack,
            "writes {} vs {expect_writes}+{slack}",
            d.cl_writes
        );
    }

    #[test]
    fn rejects_insufficient_memory() {
        let dev = PmDevice::paper_default();
        let w = join_input(10_000, 2, 4);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(50 * 80); // √(1.2·10000) ≈ 110 > 50
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        assert!(grace_join(&left, &right, &ctx, "out").is_err());
    }

    #[test]
    fn duplicate_build_keys_multiply_matches() {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..20u64).map(|i| WisconsinRecord::from_key(i % 5).with_payload(i)),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            (0..5).map(WisconsinRecord::from_key),
        );
        let pool = BufferPool::new(100 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = grace_join(&left, &right, &ctx, "out").expect("applicable");
        assert_eq!(out.len(), 20); // 4 copies of each of 5 keys
    }

    #[test]
    fn parallel_degrees_agree_with_serial_exactly() {
        let run = |threads: usize| {
            let dev = PmDevice::paper_default();
            // Span several morsels so the morselized phase 1 is exercised.
            let w = join_input(2 * PARTITION_MORSEL_RECORDS as u64, 3, 11);
            let left =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
            let right =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
            let pool = BufferPool::new(1500 * 80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let out = grace_join(&left, &right, &ctx, "out").expect("applicable");
            (out.to_vec_uncounted(), dev.snapshot().since(&before))
        };
        let (rows1, io1) = run(1);
        for threads in [2, 4] {
            let (rows, io) = run(threads);
            assert_eq!(rows, rows1, "output order must be DoP-invariant");
            assert_eq!(io, io1, "counters must be DoP-invariant");
        }
    }
}
