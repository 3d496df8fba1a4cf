//! HybS — hybrid sort (§2.1.2, Algorithm 1).
//!
//! DRAM is split into a *selection region* `Rs` and a
//! *replacement-selection region* `Rr`. `Rs` is a max-heap that ends up
//! holding the globally smallest `|Rs|` records — they are written
//! **once**, directly to the output prefix, bypassing run generation and
//! merging entirely. Every record displaced from (or never admitted to)
//! `Rs` flows through `Rr`, the classic two-heap replacement-selection
//! structure (`current` run heap + `next` run staging), producing runs
//! that are merged after the `Rs` prefix.
//!
//! The write intensity `x` is the fraction of DRAM given to the
//! **write-incurring** replacement region (so `x = 1` degenerates to
//! plain external mergesort, mirroring segment sort's knob): a higher
//! intensity yields longer runs (shallower merging, better response time)
//! but forgoes the write savings of a large selection region — the
//! trade-off of Fig. 9.
//!
//! Invariant making the prefix correct: the maximum of `Rs` decreases
//! monotonically, so every record ever evicted to `Rr` is ≥ the final
//! maximum of `Rs`.

use super::common::{merge_runs_into, Entry, SortContext};
use pmem_sim::{PCollection, PmError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wisconsin::Record;

/// Sorts `input` with write intensity `x` (fraction of DRAM given to the
/// replacement-selection region; the selection region gets the rest).
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ x ≤ 1`. At `x = 0`
/// the replacement region is clamped to one record so the algorithm can
/// still make progress on inputs larger than DRAM.
pub fn hybrid_sort<R: Record>(
    input: &PCollection<R>,
    x: f64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<PCollection<R>, PmError> {
    let _span = pmem_sim::span::span("alg hybrid-sort");
    if !(0.0..=1.0).contains(&x) {
        return Err(PmError::InvalidParameter {
            name: "x",
            message: format!("write intensity must be in [0,1], got {x}"),
        });
    }
    let capacity = ctx.capacity_records::<R>();
    let rr_cap = (((capacity as f64) * x).floor() as usize)
        .max(1)
        .min(capacity);
    let rs_cap = capacity - rr_cap;

    // Selection region: max-heap of the smallest records seen so far.
    let mut rs: BinaryHeap<Entry<R>> = BinaryHeap::with_capacity(rs_cap + 1);
    // Replacement region: `current` run min-heap and `next` run staging.
    let mut current: BinaryHeap<Reverse<Entry<R>>> = BinaryHeap::with_capacity(rr_cap);
    let mut next: Vec<Entry<R>> = Vec::new();

    let mut runs: Vec<PCollection<R>> = Vec::new();
    let mut run = ctx.fresh::<R>("hyb-run");
    let mut last_out: Option<(u64, u64)> = None;

    let mut seq = 0u64;
    input.reader().for_each_view(|view| {
        // Every record ends up in one of the heaps, so every record is
        // decoded.
        let mut e = Entry::new(view.get(), seq);
        seq += 1;

        // Route through the selection region: keep the |Rs| smallest.
        if rs_cap > 0 {
            if rs.len() < rs_cap {
                rs.push(e);
                return;
            }
            if rs
                .peek()
                .is_some_and(|max| (e.key, e.seq) < (max.key, max.seq))
            {
                if let Some(evicted) = rs.pop() {
                    rs.push(e);
                    e = evicted; // the displaced max flows into Rr
                }
            }
        }

        // Replacement-selection region.
        if current.len() + next.len() < rr_cap {
            // Region not yet full: stage into the run it can extend.
            match last_out {
                Some(b) if (e.key, e.seq) < b => next.push(e),
                _ => current.push(Reverse(e)),
            }
        } else if let Some(Reverse(min)) = current.pop() {
            run.append(&min.record);
            last_out = Some((min.key, min.seq));
            if (e.key, e.seq) >= (min.key, min.seq) {
                current.push(Reverse(e));
            } else {
                next.push(e);
            }
            if current.is_empty() {
                runs.push(std::mem::replace(&mut run, ctx.fresh::<R>("hyb-run")));
                current.extend(next.drain(..).map(Reverse));
                last_out = None;
            }
        } else {
            // Unreachable by the region invariant (the run switch above
            // refills `current` the moment it empties); degrade by
            // seeding the next run rather than panicking mid-sort.
            current.push(Reverse(e));
        }
    });

    // Output prefix: the selection region holds the global minimum
    // records; sort and write them once, directly to the output.
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let mut prefix: Vec<Entry<R>> = rs.into_vec();
    prefix.sort_unstable();
    for e in &prefix {
        out.append(&e.record);
    }

    // Drain the replacement region: finish current run, stage next run.
    while let Some(Reverse(min)) = current.pop() {
        run.append(&min.record);
    }
    if !run.is_empty() {
        runs.push(run);
    }
    if !next.is_empty() {
        next.sort_unstable();
        let mut tail = ctx.fresh::<R>("hyb-run");
        for e in &next {
            tail.append(&e.record);
        }
        runs.push(tail);
    }

    // Merge the runs directly after the prefix.
    merge_runs_into(runs, ctx, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use pmem_sim::{BufferPool, IoStats, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    fn sort_with_x(n: u64, m_records: usize, x: f64) -> (IoStats, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 13),
        );
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = hybrid_sort(&input, x, &ctx, "sorted").expect("valid x");
        (dev.snapshot().since(&before), out)
    }

    #[test]
    fn sorts_at_various_intensities() {
        for x in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let (_, out) = sort_with_x(4000, 200, x);
            assert_eq!(out.len(), 4000, "x={x}");
            assert!(is_sorted_by_key(&out), "x={x}");
            let keys: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
            assert_eq!(keys, (0..4000).collect::<Vec<_>>(), "x={x}");
        }
    }

    #[test]
    fn full_intensity_degenerates_to_exms() {
        // x = 1 routes everything through replacement selection, i.e.,
        // plain external mergesort.
        let (_, out) = sort_with_x(3000, 100, 1.0);
        assert_eq!(out.len(), 3000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn lower_intensity_saves_writes_when_merging_stays_single_pass() {
        // With memory = 20% of the input both settings merge in one pass,
        // so the selection region's once-written records dominate the
        // write delta.
        let (lo, _) = sort_with_x(5000, 1000, 0.5);
        let (hi, _) = sort_with_x(5000, 1000, 0.9);
        assert!(
            lo.cl_writes < hi.cl_writes,
            "x=0.5 writes {} should be below x=0.9 writes {}",
            lo.cl_writes,
            hi.cl_writes
        );
    }

    #[test]
    fn rejects_out_of_range_intensity() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(10, KeyOrder::Random, 1),
        );
        let pool = BufferPool::new(8000);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        assert!(hybrid_sort(&input, 1.2, &ctx, "s").is_err());
        assert!(hybrid_sort(&input, -0.2, &ctx, "s").is_err());
    }

    #[test]
    fn duplicates_survive() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(2000, KeyOrder::FewDistinct { distinct: 4 }, 3),
        );
        let pool = BufferPool::new(64 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = hybrid_sort(&input, 0.5, &ctx, "sorted").expect("valid");
        assert_eq!(out.len(), 2000);
        assert!(is_sorted_by_key(&out));
    }
}
