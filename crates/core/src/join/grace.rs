//! GJ — Grace join, the symmetric-I/O partitioned baseline.
//!
//! Phase 1 hash-partitions both inputs into `k = ⌈f·|T|/M⌉` partition
//! pairs on persistent memory; phase 2 joins each pair with an in-DRAM
//! build/probe. Cost `r·(λ+2)·(|T|+|V|)` plus output writes: each input
//! is read twice and written once (§2.2.2 uses this as the reference).
//!
//! The schedule: a routed partition scan of each input over the morsel
//! grid, then one build–probe phase over the `k` partition pairs
//! (`kernel.rs`) — so the simulated counters and the output record
//! order are identical at any DoP. The guided join runs the same
//! schedule with its hot keys routed around the partitions (`steered`).

use super::common::{partition_of, BuildTable, JoinContext, OutputShape, Pairs};
use super::kernel::{build_probe, pair, partition_morsels, Phased, Route};
use crate::parallel::Phase;
use pmem_sim::{IoStats, PCollection, PmError, RecordBuffer};
use std::collections::HashSet;
use wisconsin::{Pair, Record};

/// Per-phase cost profile of one Grace join run, measured through the
/// per-worker ledgers: what executes serially (partitioning) versus per
/// partition pair (the build/probe phase). The per-partition costs sum,
/// together with the phases' coordinator-side traffic, to the device
/// delta of the whole join, and every entry is identical at any degree
/// of parallelism — this is the measured analogue of the planner's
/// critical-path estimate. A projection of the join's phase ledger
/// ([`super::JoinAlgorithm::run_profiled`]).
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

/// [`super::JoinAlgorithm::GJ`] with the per-phase cost profile
/// alongside the result.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when `M ≤ √(f·|T|)` — the
/// paper's applicability condition (partitions would not fit in DRAM).
pub fn grace_join_profiled<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<(PCollection<Pair<L, R>>, GraceProfile), PmError> {
    let (out, [left_scan, right_scan, pairs]) = phased(left, right, &Pairs, ctx, output_name)?;
    let partition_phase = (left_scan.tasks.iter())
        .chain(&right_scan.tasks)
        .fold(IoStats::default(), |acc, s| acc.plus(s));
    Ok((
        out,
        GraceProfile {
            partition_phase,
            per_morsel_left: left_scan.tasks,
            per_morsel_right: right_scan.tasks,
            per_partition: pairs.tasks,
        },
    ))
}

/// GJ's schedule and its three phases: the left input's partitioning
/// morsels, the right input's, and the partition pairs.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out, [Phase; 3]>, PmError> {
    let _op = ctx.operator("grace", left.len() * L::SIZE);
    let names = ["Grace join", "gj-t", "gj-v"];
    steered(left, right, &HashSet::new(), names, shape, ctx, output_name)
}

/// Grace join's schedule with the records whose keys are `hot` kept out
/// of the partition round-trip: hot build records go to a resident table
/// and hot probe records probe it on the spot, everything else is
/// partitioned and joined pair by pair. `names` are the algorithm's name
/// for its refusal and its two inputs' partition prefixes. Returns the
/// three phases: the build scan's morsels, the probe scan's, the pairs.
pub(crate) fn steered<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    hot: &HashSet<u64>,
    [algorithm, left_prefix, right_prefix]: [&str; 3],
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out, [Phase; 3]>, PmError> {
    let k = ctx
        .capacity::<L>()
        .grace_partitions(left.len(), algorithm)?;
    let route = |key| {
        if hot.contains(&key) {
            Route::Keep
        } else {
            Route::Spill(partition_of(key, k))
        }
    };
    let mut resident = BuildTable::new();
    let keep = |kept: &mut RecordBuffer<L>, bytes: &[u8]| kept.push_bytes(bytes);
    let (left_parts, build) = partition_morsels(left, k, ctx, left_prefix, route, keep, |kept| {
        for l in kept.records() {
            resident.insert_bytes(l);
        }
    });
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let probe = |matches: &mut RecordBuffer<S::Out>, bytes: &[u8]| {
        resident.probe_bytes(bytes, shape, matches);
    };
    let (right_parts, probed) = partition_morsels(right, k, ctx, right_prefix, route, probe, |m| {
        out.append_buffer(&m);
    });
    let task = |p: usize| pair(&left_parts[p], &right_parts[p]);
    let pairs = build_probe(ctx, k, task, shape, &mut out);
    Ok((out, [build, probed, pairs]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{JoinAlgorithm, PARTITION_MORSEL_RECORDS};
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
        let out = JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "out")
            .expect("applicable");
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
        let out = JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "out")
            .expect("applicable");
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
        let slack = 2 * ctx
            .capacity::<WisconsinRecord>()
            .partitions(left.len() as f64) as u64
            + 2;
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
        assert!(JoinAlgorithm::GJ.run(&left, &right, &ctx, "out").is_err());
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
        let out = JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "out")
            .expect("applicable");
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
            let out = JoinAlgorithm::GJ
                .run(&left, &right, &ctx, "out")
                .expect("applicable");
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
