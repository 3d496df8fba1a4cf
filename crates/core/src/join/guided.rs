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
//! The schedule is Grace join's with the hot keys routed to the scans'
//! own use (`grace::steered`), so output order and simulated
//! counters are identical at any degree of parallelism, and with no hot
//! key it *is* Grace join.

use super::common::{view_key, JoinContext, OutputShape};
use super::grace::steered;
use super::kernel::Phased;
use crate::parallel::{fan_out, Label, Phases};
use pmem_sim::{PCollection, PmError};
use std::collections::{HashMap, HashSet};
use wisconsin::Record;

/// Counters the fallback Misra-Gries frequency summary keeps — O(1)
/// space regardless of the input's distinct count.
const MG_COUNTERS: usize = 64;

/// Joins `left ⋈ right`, steering records by the given hot-key set:
/// hot build rows stay resident, hot probe rows join immediately, and
/// only cold rows are partitioned. An empty hot set degrades to a
/// Grace join. Each match lands as `shape` emits it
/// ([`super::Pairs`] for the pairs).
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when the Grace applicability
/// bound `M > √(f·|T|)` fails (the resident table plus a cold partition
/// must fit in DRAM).
pub fn guided_join_with<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    hot_keys: &[u64],
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<S::Out>, PmError> {
    phased(left, right, Some(hot_keys), shape, ctx, output_name).map(|(out, _)| out)
}

/// The guided join over `hot_keys` and its phases: the build and probe
/// partition scans' morsels and the cold partition pairs. With `None` —
/// [`super::JoinAlgorithm::CGJ`] run standalone — bounded Misra-Gries
/// passes over both inputs find the heavy hitters first, a phase of
/// their own with one task per input (one extra read scan each): a key
/// hot on *either* side is worth keeping resident, since its rows on
/// both sides then skip the partition write. Engine callers pass the
/// catalog's ingest-time statistics through [`guided_join_with`] instead
/// and skip the passes.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    hot_keys: Option<&[u64]>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out>, PmError> {
    let _op = ctx.operator("guided", left.len() * L::SIZE);
    let mut phases = Phases::new();
    let hot: HashSet<u64> = match hot_keys {
        Some(keys) => keys.iter().copied().collect(),
        None => {
            // The two inputs' scans are independent: one task each.
            let scan = |i: usize| match i {
                0 => heavy_hitters(left),
                _ => heavy_hitters(right),
            };
            let mut hot = HashSet::new();
            let found = |keys| hot.extend(keys);
            phases.push(fan_out(ctx, Label::HeavyHitters, 2, scan, found));
            hot
        }
    };
    let names = ["guided join", "cgj-t", "cgj-v"];
    let (out, steered) = steered(left, right, &hot, names, shape, ctx, output_name)?;
    phases.extend(steered);
    Ok((out, phases))
}

/// One counted scan of `input` through a Misra-Gries summary of
/// [`MG_COUNTERS`] counters; returns the keys whose surviving counts
/// exceed twice the uniform share.
fn heavy_hitters<R: Record>(input: &PCollection<R>) -> HashSet<u64> {
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
    counters
        .into_iter()
        .filter(|&(_, c)| c >= floor)
        .map(|(k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{JoinAlgorithm, Pairs, PARTITION_MORSEL_RECORDS};
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
        let guided = JoinAlgorithm::CGJ
            .run(&left, &right, &ctx, "out-g")
            .expect("applicable");
        let grace = JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "out-r")
            .expect("applicable");
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
        guided_join_with(&left, &right, &hot, &Pairs, &ctx, "out-g").expect("applicable");
        let guided_io = dev.snapshot().since(&before);
        let before = dev.snapshot();
        JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "out-r")
            .expect("applicable");
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
        use crate::join::tests::{assert_same_run, device_run};
        let dev = PmDevice::paper_default();
        let (left, right) = skewed_setup(&dev, 0.0);
        let pool = BufferPool::new(200 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = guided_join_with(&left, &right, &[], &Pairs, &ctx, "out").expect("applicable");
        assert_eq!(out.len(), 6000);

        // With nothing hot, every record takes the partition round-trip
        // over the same morsel grid: Grace join, counter for counter and
        // pair for pair, on inputs spanning several morsels.
        let w = wisconsin::join_input(PARTITION_MORSEL_RECORDS as u64 + 2000, 3, 5);
        for kind in [LayerKind::BlockedMemory, LayerKind::Pmfs] {
            for threads in [1, 4] {
                let cold = device_run(&w, kind, 1500, threads, |l, r, ctx| {
                    guided_join_with(l, r, &[], &Pairs, ctx, "out")
                });
                let gj = device_run(&w, kind, 1500, threads, |l, r, ctx| {
                    JoinAlgorithm::GJ.run(l, r, ctx, "out")
                });
                assert_eq!(cold.1.len() as u64, w.expected_matches);
                assert_same_run(&format!("{kind:?}, DoP {threads}"), &cold, &gj);
            }
        }
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
            let out = JoinAlgorithm::CGJ
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
