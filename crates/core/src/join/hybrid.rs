//! HybJ — hybrid Grace/nested-loops join (§2.2.1).
//!
//! The computation is split into a write-inducing phase based on Grace
//! join and a read-only phase based on nested loops, steered by two write
//! intensities: fraction `x` of the (smaller) left input `T` and fraction
//! `y` of the right input `V` are partitioned and processed Grace-style;
//! the remainders are joined by block nested loops. The complete result
//! is the union of three disjoint partial joins:
//!
//! 1. `Tx ⋈ Vy` — classic Grace over the partitioned prefixes;
//! 2. `Tx ⋈ V₁₋y` — **piggybacked** onto (1): while partition `p`'s build
//!    table is resident, the unpartitioned remainder of `V` is scanned
//!    against it (one scan per partition — the `(x·|T|/M)·(1−y)·|V|`
//!    term of Eq. 6);
//! 3. `T₁₋x ⋈ V` — block nested loops over the unpartitioned remainder
//!    of `T` against all of `V`.
//!
//! The schedule: a routed partition scan of each prefix, then one
//! build–probe phase holding (1) + (2) as a task per partition and (3) as
//! a task per block (`kernel.rs`). At `x = y = 0` that phase is
//! NLJ's, task for task.
//!
//! Cost model: Eq. 6; the saddle-point analysis (Eqs. 7–8) and the Fig. 2
//! heatmaps that guide the choice of `(x, y)` live in
//! [`crate::cost::join_costs`].

use super::common::{partition_of, JoinContext, OutputShape};
use super::kernel::{build_probe, build_table, spill_scan, Phased};
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// Joins `left ⋈ right` with write intensities `x` (left) and `y`
/// (right) — [`super::JoinAlgorithm::HybJ`] — and returns its phases: the
/// two prefix partition scans, then the partition and block tasks.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `x, y ∈ [0, 1]`, and
/// [`PmError::InsufficientMemory`] when the partitioned prefix would not
/// satisfy Grace's applicability condition.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    x: f64,
    y: f64,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out>, PmError> {
    let _op = ctx.operator("hybrid-join", left.len() * L::SIZE);
    for (name, v) in [("x", x), ("y", y)] {
        if !(0.0..=1.0).contains(&v) {
            return Err(PmError::InvalidParameter {
                name,
                message: format!("write intensity must be in [0,1], got {v}"),
            });
        }
    }
    let t_len = left.len();
    let v_len = right.len();
    let tx_end = ((t_len as f64) * x).round() as usize;
    let vy_end = ((v_len as f64) * y).round() as usize;

    // Partition count sized so each Tx partition fits a DRAM build table
    // ("each partition has size approximately equal to M", §2.2.1).
    let capacity = ctx.capacity::<L>();
    let build_cap = capacity.build_records();
    let k = capacity.partitions(tx_end as f64) as usize;
    if tx_end > 0 && k > 1 {
        capacity.grace_partitions(tx_end, "hybrid join's Grace phase over x|T|")?;
    }

    let route = |key| Some(partition_of(key, k));
    let mut t_parts: Vec<PCollection<L>> = (0..k).map(|_| ctx.fresh::<L>("hybj-t")).collect();
    let t_scan = spill_scan(left.range_reader(0, tx_end), route, &mut t_parts);
    let mut v_parts: Vec<PCollection<R>> = (0..k).map(|_| ctx.fresh::<R>("hybj-v")).collect();
    let v_scan = spill_scan(right.range_reader(0, vy_end), route, &mut v_parts);

    // Partitions are sized for the DRAM budget under the f = 1.2
    // blow-up, but hash partitioning cannot split duplicates of a single
    // key: heavily skewed build keys can overflow the budget — the
    // classic hash-join limitation (the paper's f factor covers ordinary
    // imbalance only).
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let blocks = (t_len - tx_end).div_ceil(build_cap);
    let tasks = build_probe(
        ctx,
        k + blocks,
        |task| match task.checked_sub(k) {
            None if t_parts[task].is_empty() => (build_table(Vec::new(), None), Vec::new()),
            // Tx ⋈ Vy, then Tx ⋈ V₁₋y (piggyback).
            None => (
                build_table(vec![t_parts[task].reader()], None),
                vec![v_parts[task].reader(), right.range_reader(vy_end, v_len)],
            ),
            // T₁₋x ⋈ V, a DRAM-sized block at a time.
            Some(b) => {
                let start = tx_end + b * build_cap;
                let scan = left.range_reader(start, (start + build_cap).min(t_len));
                (build_table(vec![scan], None), vec![right.reader()])
            }
        },
        shape,
        &mut out,
    );
    Ok((out, vec![t_scan, v_scan, tasks]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::join_input;

    struct Run {
        stats: pmem_sim::IoStats,
        got: u64,
        want: u64,
    }

    fn run(x: f64, y: f64, m_records: usize) -> Run {
        let dev = PmDevice::paper_default();
        let w = join_input(300, 8, 12);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(m_records * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = JoinAlgorithm::HybJ { x, y }
            .run(&left, &right, &ctx, "out")
            .expect("valid");
        Run {
            stats: dev.snapshot().since(&before),
            got: out.len() as u64,
            want: w.expected_matches,
        }
    }

    #[test]
    fn finds_every_match_across_the_intensity_grid() {
        for x in [0.0, 0.3, 0.7, 1.0] {
            for y in [0.0, 0.5, 1.0] {
                let r = run(x, y, 60);
                assert_eq!(r.got, r.want, "x={x}, y={y}");
            }
        }
    }

    #[test]
    fn zero_intensities_degenerate_to_nested_loops_writes() {
        // x = y = 0 partitions nothing and joins all of T by block nested
        // loops over the same DRAM-sized blocks: it *is* NLJ, counter for
        // counter and pair for pair, on every layer at any DoP.
        use crate::join::tests::{assert_same_run, device_run, LAYERS};
        let w = join_input(300, 8, 12);
        for kind in LAYERS {
            for threads in [1, 4] {
                let hyb = device_run(&w, kind, 60, threads, |l, r, ctx| {
                    JoinAlgorithm::HybJ { x: 0.0, y: 0.0 }.run(l, r, ctx, "out")
                });
                let nlj = device_run(&w, kind, 60, threads, |l, r, ctx| {
                    JoinAlgorithm::NLJ.run(l, r, ctx, "out")
                });
                assert_eq!(hyb.1.len() as u64, w.expected_matches);
                assert_same_run(&format!("{kind:?}, DoP {threads}"), &hyb, &nlj);
            }
        }
    }

    #[test]
    fn full_intensities_match_grace_write_profile() {
        let hyb = run(1.0, 1.0, 60);
        // x=y=1: both inputs written once as partitions + output.
        let nl = run(0.0, 0.0, 60);
        assert!(hyb.stats.cl_writes > nl.stats.cl_writes);
        assert!(hyb.stats.cl_reads < nl.stats.cl_reads);
    }

    #[test]
    fn higher_left_intensity_cuts_right_rescans() {
        // Write intensity over the left input dictates the number of full
        // passes over the larger right input (§4.2.1).
        let lo = run(0.2, 0.5, 60);
        let hi = run(0.8, 0.5, 60);
        assert!(
            hi.stats.cl_reads < lo.stats.cl_reads,
            "x=0.8 reads {} should be below x=0.2 reads {}",
            hi.stats.cl_reads,
            lo.stats.cl_reads
        );
    }

    #[test]
    fn rejects_invalid_intensities() {
        let dev = PmDevice::paper_default();
        let w = join_input(50, 2, 1);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(8000);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        for (x, y) in [(1.5, 0.5), (0.5, -0.5)] {
            let hyb = JoinAlgorithm::HybJ { x, y };
            assert!(hyb.run(&left, &right, &ctx, "o").is_err(), "x={x}, y={y}");
        }
    }
}
