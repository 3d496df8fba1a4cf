//! CGJ — cardinality-guided join (library extension, in the spirit of
//! the Atreides join family): O(1) cardinality-sketch lookups steer each
//! record at scan time instead of an oblivious hash route.
//!
//! The operator receives a small *hot-key* set — the heavy hitters the
//! catalog's per-table statistics identified at ingest (or a bounded
//! Misra-Gries pass derives on the fly). Build-side records with hot
//! keys stay resident in DRAM; probe-side records with hot keys probe
//! the resident table immediately and are never written back. Only the
//! cold remainder of both inputs pays the Grace-style partition
//! round-trip. On Zipf-skewed inputs the hot keys carry most of the
//! rows, so the partition writes — the expensive currency on a
//! write-limited device — shrink by the hot fraction of both inputs.
//!
//! Both scans fan out over the fixed morsel grid and flush in morsel
//! order, so output order and simulated counters are identical at any
//! degree of parallelism.

use super::common::{partition_of, view_key, BuildTable, JoinContext};
use super::grace::{join_partitioned, PartitionedInput, PARTITION_MORSEL_RECORDS};
use crate::parallel;
use pmem_sim::{PCollection, PmError, RecordBuffer};
use std::collections::{HashMap, HashSet};
use wisconsin::{Pair, Record};

/// Counters the fallback Misra-Gries frequency summary keeps — O(1)
/// space regardless of the input's distinct count.
const MG_COUNTERS: usize = 64;

/// Joins `left ⋈ right`, steering records by the given hot-key set:
/// hot build rows stay resident, hot probe rows join immediately, and
/// only cold rows are partitioned. An empty hot set degrades to a
/// Grace join.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when the Grace applicability
/// bound `M > √(f·|T|)` fails (the resident table plus a cold partition
/// must fit in DRAM).
pub fn guided_join_with<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    hot_keys: &[u64],
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    let _span = pmem_sim::span::span("alg guided");
    if !ctx.grace_applicable::<L>(left.len()) {
        return Err(PmError::InsufficientMemory {
            requirement: format!(
                "guided join needs M > sqrt(f*|T|): M = {} records, |T| = {}",
                ctx.capacity_records::<L>(),
                left.len()
            ),
        });
    }
    let hot: HashSet<u64> = hot_keys.iter().copied().collect();
    let k = ctx.grace_partitions::<L>(left.len());
    let (resident, left_cold) = split_build(left, &hot, k, ctx, "cgj-t");
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let right_cold = probe_split(right, &hot, &resident, k, ctx, &mut out, "cgj-v");
    join_partitioned(&left_cold, &right_cold, ctx, &mut out);
    Ok(out)
}

/// [`guided_join_with`] deriving the hot keys itself: bounded
/// Misra-Gries passes over both inputs find the heavy hitters first (one
/// extra read scan per input) — a key hot on *either* side is worth
/// keeping resident, since its rows on both sides then skip the
/// partition write. Engine callers pass the catalog's ingest-time
/// statistics through [`guided_join_with`] instead and skip the passes.
///
/// # Errors
/// Same as [`guided_join_with`].
pub fn guided_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    let mut hot = heavy_hitters(left);
    hot.extend(heavy_hitters(right));
    hot.sort_unstable();
    hot.dedup();
    guided_join_with(left, right, &hot, ctx, output_name)
}

/// One counted scan of `input` through a Misra-Gries summary of
/// [`MG_COUNTERS`] counters; returns the keys whose surviving counts
/// exceed twice the uniform share (sorted, so the set is deterministic).
fn heavy_hitters<R: Record>(input: &PCollection<R>) -> Vec<u64> {
    let mut counters: HashMap<u64, u64> = HashMap::with_capacity(MG_COUNTERS + 1);
    input.reader().for_each_view(|r| {
        let key = view_key(&r);
        if let Some(c) = counters.get_mut(&key) {
            *c += 1;
        } else if counters.len() < MG_COUNTERS {
            counters.insert(key, 1);
        } else {
            // Decrement-all step; drop the counters that reach zero.
            counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    });
    let floor = (2 * input.len() / MG_COUNTERS).max(1) as u64;
    let mut hot: Vec<u64> = counters
        .into_iter()
        .filter(|&(_, c)| c >= floor)
        .map(|(k, _)| k)
        .collect();
    hot.sort_unstable();
    hot
}

/// Build-side scan: hot records land in the resident DRAM table, cold
/// records hash into `k` partitions over the morsel grid.
fn split_build<L: Record>(
    input: &PCollection<L>,
    hot: &HashSet<u64>,
    k: usize,
    ctx: &JoinContext<'_>,
    prefix: &str,
) -> (BuildTable<L>, PartitionedInput<L>) {
    let n = input.len();
    let morsels = n.div_ceil(PARTITION_MORSEL_RECORDS).max(1);
    let names: Vec<Vec<String>> = (0..morsels)
        .map(|_| (0..k).map(|_| ctx.fresh_name(prefix)).collect())
        .collect();
    let mut table = BuildTable::new();
    let mut parts: Vec<Vec<PCollection<L>>> = (0..k).map(|_| Vec::with_capacity(morsels)).collect();
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * PARTITION_MORSEL_RECORDS;
            let end = (start + PARTITION_MORSEL_RECORDS).min(n);
            let mut subs: Vec<PCollection<L>> = names[m]
                .iter()
                .map(|name| PCollection::new(ctx.device(), ctx.kind(), name.clone()))
                .collect();
            let mut keep: Vec<L> = Vec::new();
            input.range_reader(start, end).for_each_view(|r| {
                let key = view_key(&r);
                if hot.contains(&key) {
                    keep.push(r.get());
                } else {
                    subs[partition_of(key, k)].append_bytes(r.bytes());
                }
            });
            (keep, subs)
        },
        |_, task| {
            let (keep, subs) = task.value;
            for l in keep {
                table.insert(l);
            }
            for (p, sub) in subs.into_iter().enumerate() {
                parts[p].push(sub);
            }
        },
    );
    (table, PartitionedInput::from_parts(parts))
}

/// Probe-side scan: hot records probe the resident table and their
/// matches flush straight to `out`; cold records hash into `k`
/// partitions. Flushes happen in morsel order on the coordinator, so
/// output order and counters are DoP-invariant.
fn probe_split<L: Record, R: Record>(
    input: &PCollection<R>,
    hot: &HashSet<u64>,
    resident: &BuildTable<L>,
    k: usize,
    ctx: &JoinContext<'_>,
    out: &mut PCollection<Pair<L, R>>,
    prefix: &str,
) -> PartitionedInput<R> {
    let n = input.len();
    let morsels = n.div_ceil(PARTITION_MORSEL_RECORDS).max(1);
    let names: Vec<Vec<String>> = (0..morsels)
        .map(|_| (0..k).map(|_| ctx.fresh_name(prefix)).collect())
        .collect();
    let mut parts: Vec<Vec<PCollection<R>>> = (0..k).map(|_| Vec::with_capacity(morsels)).collect();
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
            let mut matches = RecordBuffer::new();
            input.range_reader(start, end).for_each_view(|r| {
                let key = view_key(&r);
                if hot.contains(&key) {
                    resident.probe_bytes(r.bytes(), &mut matches);
                } else {
                    subs[partition_of(key, k)].append_bytes(r.bytes());
                }
            });
            (matches, subs)
        },
        |_, task| {
            let (matches, subs) = task.value;
            out.append_buffer(&matches);
            for (p, sub) in subs.into_iter().enumerate() {
                parts[p].push(sub);
            }
        },
    );
    PartitionedInput::from_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input_skewed, WisconsinRecord};

    fn skewed_setup(
        dev: &pmem_sim::Pm,
        theta: f64,
    ) -> (PCollection<WisconsinRecord>, PCollection<WisconsinRecord>) {
        let w = join_input_skewed(400, 6000, theta, 11);
        let left = PCollection::from_records_uncounted(dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(dev, LayerKind::BlockedMemory, "V", w.right);
        (left, right)
    }

    #[test]
    fn guided_join_matches_the_grace_multiset() {
        let dev = PmDevice::paper_default();
        let (left, right) = skewed_setup(&dev, 1.2);
        let pool = BufferPool::new(200 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let guided = guided_join(&left, &right, &ctx, "out-g").expect("applicable");
        let grace = super::super::grace_join(&left, &right, &ctx, "out-r").expect("applicable");
        let mut a: Vec<(u64, u64)> = guided
            .to_vec_uncounted()
            .iter()
            .map(|p| (p.left.attrs[0], p.right.attrs[1]))
            .collect();
        let mut b: Vec<(u64, u64)> = grace
            .to_vec_uncounted()
            .iter()
            .map(|p| (p.left.attrs[0], p.right.attrs[1]))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn hot_keys_cut_device_writes_versus_grace_on_skew() {
        let dev = PmDevice::paper_default();
        let (left, right) = skewed_setup(&dev, 1.2);
        let pool = BufferPool::new(200 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        // Planner-style hot keys: the probe side's heavy hitters, known
        // from ingest-time statistics rather than a counted pre-scan.
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for r in right.to_vec_uncounted() {
            *counts.entry(r.key()).or_insert(0) += 1;
        }
        let mean = right.len() as u64 / counts.len().max(1) as u64;
        let hot: Vec<u64> = counts
            .iter()
            .filter(|&(_, &c)| c >= 2 * mean.max(1))
            .map(|(&k, _)| k)
            .collect();
        let before = dev.snapshot();
        guided_join_with(&left, &right, &hot, &ctx, "out-g").expect("applicable");
        let guided_io = dev.snapshot().since(&before);
        let before = dev.snapshot();
        super::super::grace_join(&left, &right, &ctx, "out-r").expect("applicable");
        let grace_io = dev.snapshot().since(&before);
        // Both runs write the same output; the partition writes are what
        // the hot keys bypass. Grace partition-writes both inputs in
        // full, so guided must save a solid fraction of that traffic.
        let inputs = left.buffers() + right.buffers();
        let saved = grace_io.cl_writes.saturating_sub(guided_io.cl_writes) as f64;
        assert!(
            saved > 0.3 * inputs as f64,
            "guided {} vs grace {} writes, saved {saved} of {inputs} input cachelines",
            guided_io.cl_writes,
            grace_io.cl_writes
        );
        assert!(
            guided_io.cl_reads < grace_io.cl_reads,
            "hot rows are read once, not twice: {} vs {}",
            guided_io.cl_reads,
            grace_io.cl_reads
        );
    }

    #[test]
    fn empty_hot_set_degrades_gracefully() {
        let dev = PmDevice::paper_default();
        let (left, right) = skewed_setup(&dev, 0.0);
        let pool = BufferPool::new(200 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = guided_join_with(&left, &right, &[], &ctx, "out").expect("applicable");
        assert_eq!(out.len(), 6000);
    }

    #[test]
    fn parallel_degrees_agree_with_serial_exactly() {
        let run = |threads: usize| {
            let dev = PmDevice::paper_default();
            let w = join_input_skewed(500, 2 * PARTITION_MORSEL_RECORDS as u64, 1.1, 3);
            let left =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
            let right =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
            let pool = BufferPool::new(1500 * 80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let out = guided_join(&left, &right, &ctx, "out").expect("applicable");
            (out.to_vec_uncounted(), dev.snapshot().since(&before))
        };
        let (rows1, io1) = run(1);
        for threads in [2, 4] {
            let (rows, io) = run(threads);
            assert_eq!(rows, rows1, "output order must be DoP-invariant");
            assert_eq!(io, io1, "counters must be DoP-invariant");
        }
    }

    #[test]
    fn misra_gries_finds_the_zipf_head_and_ignores_uniform() {
        let dev = PmDevice::paper_default();
        let (left, _) = skewed_setup(&dev, 1.2);
        let uniform = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "U",
            (0..4000u64).map(|i| WisconsinRecord::from_key(i % 1000)),
        );
        let hot = heavy_hitters(&left);
        assert!(hot.is_empty(), "unique-key build side has no heavy keys");
        let w = join_input_skewed(400, 6000, 1.2, 11);
        let skewed_probe =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "S", w.right);
        let hot = heavy_hitters(&skewed_probe);
        assert!(hot.contains(&0), "Zipf head key must surface: {hot:?}");
        assert!(heavy_hitters(&uniform).is_empty(), "uniform input");
    }
}
