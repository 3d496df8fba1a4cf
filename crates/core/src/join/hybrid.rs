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
//! Cost model: Eq. 6; the saddle-point analysis (Eqs. 7–8) and the Fig. 2
//! heatmaps that guide the choice of `(x, y)` live in
//! [`crate::cost::join_costs`].

use super::common::{partition_of, view_key, BuildTable, JoinContext};
use crate::parallel;
use pmem_sim::{PCollection, PmError, RecordBuffer};
use wisconsin::{Pair, Record};

/// Joins `left ⋈ right` with write intensities `x` (left) and `y`
/// (right).
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `x, y ∈ [0, 1]`, and
/// [`PmError::InsufficientMemory`] when the partitioned prefix would not
/// satisfy Grace's applicability condition.
pub fn hybrid_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    x: f64,
    y: f64,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    let _span = pmem_sim::span::span("alg hybrid-join");
    for (name, v) in [("x", x), ("y", y)] {
        if !(0.0..=1.0).contains(&v) {
            return Err(PmError::InvalidParameter {
                name: if name == "x" { "x" } else { "y" },
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
    let build_cap = ctx.build_capacity::<L>();
    let k = tx_end.div_ceil(build_cap).max(1);
    if tx_end > 0 && !ctx.grace_applicable::<L>(tx_end) && k > 1 {
        return Err(PmError::InsufficientMemory {
            requirement: format!(
                "hybrid join's Grace phase needs M > sqrt(f*x*|T|): M = {} records, x|T| = {tx_end}",
                ctx.capacity_records::<L>(),
            ),
        });
    }

    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);

    // Phase 1: partition the prefixes.
    let mut t_parts: Vec<PCollection<L>> = (0..k).map(|_| ctx.fresh::<L>("hybj-t")).collect();
    left.range_reader(0, tx_end).for_each_view(|l| {
        t_parts[partition_of(view_key(&l), k)].append_bytes(l.bytes());
    });
    let mut v_parts: Vec<PCollection<R>> = (0..k).map(|_| ctx.fresh::<R>("hybj-v")).collect();
    right.range_reader(0, vy_end).for_each_view(|r| {
        v_parts[partition_of(view_key(&r), k)].append_bytes(r.bytes());
    });

    // Phase 2: per-partition Grace join with the V₁₋y scan piggybacked.
    // Partitions are sized for the DRAM budget under the f = 1.2
    // blow-up, but hash partitioning cannot split duplicates of a single
    // key: heavily skewed build keys can overflow the budget — the
    // classic hash-join limitation (the paper's f factor covers ordinary
    // imbalance only). The spilled partitions are independent, so they
    // fan out across the worker pool; each pass already used its own
    // range reader over V₁₋y serially, so the counters are unchanged.
    parallel::for_each_ordered(
        ctx.threads(),
        k,
        |p| {
            let (tp, vp) = (&t_parts[p], &v_parts[p]);
            let mut buf = RecordBuffer::new();
            if tp.is_empty() {
                return buf;
            }
            let mut table = BuildTable::new();
            tp.reader().for_each_view(|l| table.insert(l.get()));
            // Tx ⋈ Vy, then Tx ⋈ V₁₋y (piggyback).
            vp.reader()
                .for_each_run(|run| table.probe_run(run, &mut buf));
            right
                .range_reader(vy_end, v_len)
                .for_each_run(|run| table.probe_run(run, &mut buf));
            buf
        },
        |_, task| out.append_buffer(&task.value),
    );

    // Phase 3: T₁₋x ⋈ V by block nested loops. The chunk grid is fixed
    // by the DRAM budget (one build table per chunk), so the chunks are
    // independent read-only passes over V — parallel like the spilled
    // partitions above.
    let nl_chunks = (t_len - tx_end).div_ceil(build_cap);
    parallel::for_each_ordered(
        ctx.threads(),
        nl_chunks,
        |c| {
            let start = tx_end + c * build_cap;
            let end = (start + build_cap).min(t_len);
            let mut table = BuildTable::new();
            left.range_reader(start, end)
                .for_each_view(|l| table.insert(l.get()));
            let mut buf = RecordBuffer::new();
            right
                .reader()
                .for_each_run(|run| table.probe_run(run, &mut buf));
            buf
        },
        |_, task| out.append_buffer(&task.value),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::join_input;

    struct Run {
        stats: pmem_sim::IoStats,
        got: u64,
        want: u64,
        out_buffers: u64,
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
        let out = hybrid_join(&left, &right, x, y, &ctx, "out").expect("valid");
        Run {
            stats: dev.snapshot().since(&before),
            got: out.len() as u64,
            want: w.expected_matches,
            out_buffers: out.buffers(),
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
        let r = run(0.0, 0.0, 60);
        assert_eq!(r.got, r.want);
        // Nothing is partitioned: writes = output only.
        assert_eq!(r.stats.cl_writes, r.out_buffers);
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
        assert!(hybrid_join(&left, &right, 1.5, 0.5, &ctx, "o").is_err());
        assert!(hybrid_join(&left, &right, 0.5, -0.5, &ctx, "o").is_err());
    }
}
