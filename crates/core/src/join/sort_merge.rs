//! SMJ — sort-merge join, with the sort phase's write intensity exposed.
//!
//! Not part of the paper's §2.2 line-up, but the natural companion: both
//! inputs are sorted with [`crate::sort::SortAlgorithm::SegS`] at intensity
//! `x`, then merge-joined in one co-scan. Because segment sort's
//! selection stream defers materialization, `x = 0` yields a join whose
//! only writes are the two sorted outputs — and when callers can consume
//! the join result as a stream, those too could be pipelined away. The
//! duplicate-handling co-scan buffers one key group of the (smaller)
//! left input in DRAM.

//! The merge phase range-partitions the key space across the context's
//! worker pool: splitter keys sampled from both sorted inputs carve
//! them into aligned segments (a key group can never straddle a
//! splitter), each worker co-scans its segment pair, and the
//! coordinator concatenates the match buffers in splitter order — the
//! same rows, order, and counters as the serial co-scan at any DoP.

use super::common::{view_key, JoinContext, OutputShape};
use super::kernel::Phased;
use crate::parallel::{fan_out, measured, Label};
use crate::sort::common::{
    key_range_cuts, sample_keys, splitters_from_samples, MERGE_SEGMENT_RECORDS,
};
use crate::sort::{kernel::Land, segment::segmented};
use pmem_sim::{PCollection, PmError, RecordBuffer, RecordReader};
use wisconsin::Record;

/// SMJ's schedule: the two segment sorts' phases, at write intensity
/// `x`, then the co-scan — one serial task, or the key-range cuts (a
/// one-task phase) and a task per segment.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ x ≤ 1`.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    x: f64,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out>, PmError> {
    let _op = ctx.operator("smj", left.len() * L::SIZE);
    // Segment sort's schedule, not its entry: the join holds once.
    let land = Land { by_range: false };
    let (sorted_left, mut phases) = segmented(left, x, ctx, "seg-merge", &land, "smj-left")?;
    let (sorted_right, right_phases) = segmented(right, x, ctx, "seg-merge", &land, "smj-right")?;
    phases.extend(right_phases);

    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let total = sorted_left.len() + sorted_right.len();
    let segments = total.div_ceil(MERGE_SEGMENT_RECORDS).max(1);
    if segments <= 1 || sorted_left.is_empty() || sorted_right.is_empty() {
        let ((), phase) = measured(Label::CoScan, || {
            let mut buf = RecordBuffer::new();
            co_scan(sorted_left.reader(), sorted_right.reader(), shape, &mut buf);
            out.append_buffer(&buf);
        });
        phases.push(phase);
        return Ok((out, phases));
    }

    // The segment grid depends only on the merged sizes — never on the
    // DoP — so the sampled splitters, boundary searches, and counters
    // are identical at any degree of parallelism.
    let ((cuts_l, cuts_r), grid) = measured(Label::Cuts, || {
        let mut sample = sample_keys(&sorted_left, segments);
        sample.extend(sample_keys(&sorted_right, segments));
        let splitters = splitters_from_samples(sample, segments);
        (
            key_range_cuts(&sorted_left, &splitters),
            key_range_cuts(&sorted_right, &splitters),
        )
    });
    let scan_segment = |seg: usize| {
        let mut buf = RecordBuffer::new();
        co_scan(
            sorted_left.range_reader(cuts_l[seg], cuts_l[seg + 1]),
            sorted_right.range_reader(cuts_r[seg], cuts_r[seg + 1]),
            shape,
            &mut buf,
        );
        buf
    };
    let land = |buf: RecordBuffer<S::Out>| out.append_buffer(&buf);
    phases.extend([
        grid,
        fan_out(ctx, Label::CoScan, segments, scan_segment, land),
    ]);
    Ok((out, phases))
}

/// The duplicate-handling co-scan of two sorted runs, buffering one
/// left key group in DRAM for the cross products. Records move as their
/// stored bytes: the scans lend them, the group keeps them, and each
/// match lands as `shape` emits it from its left and right record's
/// bytes.
fn co_scan<L: Record, R: Record, S: OutputShape<L, R>>(
    mut li: RecordReader<'_, L>,
    mut ri: RecordReader<'_, R>,
    shape: &S,
    out: &mut RecordBuffer<S::Out>,
) {
    let mut l = li.next_view().map(|v| view_key(&v));
    let mut group: Vec<u8> = Vec::new();
    let mut group_key: Option<u64> = None;

    while let Some(right) = ri.next_view() {
        let rk = view_key(&right);
        // Advance the left side until its head is ≥ the right key,
        // buffering the group equal to it.
        if group_key != Some(rk) {
            while l.is_some_and(|lk| lk < rk) {
                l = li.next_view().map(|v| view_key(&v));
            }
            group.clear();
            group_key = Some(rk);
            while l == Some(rk) {
                if let Some(head) = li.last_view() {
                    group.extend_from_slice(head.bytes());
                }
                l = li.next_view().map(|v| view_key(&v));
            }
        }
        for left in group.chunks_exact(L::SIZE) {
            shape.emit(left, right.bytes(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::common::expected_match_count;
    use crate::join::JoinAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    fn run(x: f64) -> (pmem_sim::IoStats, u64, u64) {
        let dev = PmDevice::paper_default();
        let w = join_input(300, 6, 71);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = JoinAlgorithm::SMJ { x }
            .run(&left, &right, &ctx, "out")
            .expect("valid x");
        (
            dev.snapshot().since(&before),
            out.len() as u64,
            w.expected_matches,
        )
    }

    #[test]
    fn finds_every_match_at_all_intensities() {
        for x in [0.0, 0.5, 1.0] {
            let (_, got, want) = run(x);
            assert_eq!(got, want, "x={x}");
        }
    }

    #[test]
    fn lower_intensity_trades_writes_for_reads() {
        let (lo, _, _) = run(0.0);
        let (hi, _, _) = run(1.0);
        assert!(lo.cl_writes < hi.cl_writes);
        assert!(lo.cl_reads > hi.cl_reads);
    }

    #[test]
    fn duplicates_on_both_sides_cross_product() {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..9u64).map(|i| WisconsinRecord::from_key(i % 3).with_payload(i)),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            (0..6u64).map(|i| WisconsinRecord::from_key(i % 3).with_payload(100 + i)),
        );
        let pool = BufferPool::new(40 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let want = expected_match_count(&left, &right);
        let smj = JoinAlgorithm::SMJ { x: 0.5 };
        let out = smj.run(&left, &right, &ctx, "out").expect("valid");
        assert_eq!(out.len() as u64, want); // 3 keys × 3 left × 2 right = 18
        assert_eq!(out.len(), 18);
    }

    #[test]
    fn disjoint_and_empty_inputs() {
        let dev = PmDevice::paper_default();
        let a = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "A",
            (0..10).map(WisconsinRecord::from_key),
        );
        let b = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "B",
            (100..110).map(WisconsinRecord::from_key),
        );
        let empty: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "E");
        let pool = BufferPool::new(8000);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let smj = |l, r, name| {
            JoinAlgorithm::SMJ { x: 0.5 }
                .run(l, r, &ctx, name)
                .expect("ok")
        };
        assert!(smj(&a, &b, "o1").is_empty());
        assert!(smj(&empty, &a, "o2").is_empty());
        assert!(smj(&a, &empty, "o3").is_empty());
    }
}
