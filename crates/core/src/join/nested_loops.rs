//! NLJ — block nested-loops join.
//!
//! The read-intensive extreme of the design space: load a DRAM block of
//! the (smaller) left input, scan the whole right input against it,
//! repeat. Writes only the output — the paper uses NLJ as the minimal-
//! write reference the write-limited joins approach (§4.1.2). Cost:
//! `r·(|T| + ⌈|T|/M⌉·|V|)` plus output writes.
//!
//! The schedule: one build–probe phase with a task per outer block
//! (`kernel.rs`) — identical output order and counters at any DoP.

use super::common::{JoinContext, OutputShape};
use super::kernel::{build_probe, build_table, Phased};
use pmem_sim::PCollection;
use wisconsin::Record;

/// NLJ's schedule and its one phase: the outer blocks.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Phased<S::Out> {
    let _op = ctx.operator("nlj", left.len() * L::SIZE);
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let block = ctx.capacity::<L>().build_records();
    let task = |b: usize| {
        let scan = left.range_reader(b * block, ((b + 1) * block).min(left.len()));
        (build_table(vec![scan], None), vec![right.reader()])
    };
    let blocks = build_probe(ctx, left.len().div_ceil(block), task, shape, &mut out);
    (out, vec![blocks])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    fn stage(
        t: u64,
        fanout: u64,
        m_records: usize,
    ) -> (
        pmem_sim::Pm,
        PCollection<WisconsinRecord>,
        PCollection<WisconsinRecord>,
        usize,
    ) {
        let dev = PmDevice::paper_default();
        let w = join_input(t, fanout, 17);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        (dev, left, right, m_records)
    }

    #[test]
    fn finds_every_match() {
        let (dev, left, right, m) = stage(200, 10, 50);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = JoinAlgorithm::NLJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        assert_eq!(out.len(), 2000);
    }

    #[test]
    fn writes_only_the_output() {
        let (dev, left, right, m) = stage(100, 5, 30);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = JoinAlgorithm::NLJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        let d = dev.snapshot().since(&before);
        assert_eq!(d.cl_writes, out.buffers());
    }

    #[test]
    fn read_volume_matches_block_count() {
        let (dev, left, right, _) = stage(100, 10, 25);
        // 25 records DRAM, f=1.2 → block ≈ 20 records → 5 blocks.
        let pool = BufferPool::new(25 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let _ = JoinAlgorithm::NLJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        let d = dev.snapshot().since(&before);
        let blocks = 100usize.div_ceil(ctx.capacity::<WisconsinRecord>().build_records()) as u64;
        let expected = left.buffers() + blocks * right.buffers();
        // Block boundaries may split cachelines, allow ±blocks slack.
        assert!(
            d.cl_reads >= expected && d.cl_reads <= expected + blocks,
            "reads {} vs expected {expected}",
            d.cl_reads
        );
    }

    #[test]
    fn disjoint_inputs_produce_empty_output() {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..50).map(WisconsinRecord::from_key),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            (100..150).map(WisconsinRecord::from_key),
        );
        let pool = BufferPool::new(20 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = JoinAlgorithm::NLJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        assert!(out.is_empty());
    }

    #[test]
    fn empty_left_or_right_is_empty() {
        let dev = PmDevice::paper_default();
        let empty: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "E");
        let some = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "S",
            (0..10).map(WisconsinRecord::from_key),
        );
        let pool = BufferPool::new(8000);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let nlj = |l, r, name| JoinAlgorithm::NLJ.run(l, r, &ctx, name).expect("joins");
        assert!(nlj(&empty, &some, "o1").is_empty());
        assert!(nlj(&some, &empty, "o2").is_empty());
    }
}
