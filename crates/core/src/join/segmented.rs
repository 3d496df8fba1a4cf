//! SegJ — segmented Grace join (§2.2.2).
//!
//! Operates at partition granularity: of the `k = ⌈f·|T|/M⌉` logical
//! partitions, only the first `x` are **materialized** (offloaded during
//! an initial scan of both inputs and joined Grace-style); the remaining
//! `k − x` partitions are processed by iterating over both *original*
//! inputs once per partition, building the partition's table on the fly.
//!
//! The schedule: a routed partition scan of each input that spills
//! partitions `0..x` (none at `x = 0`), then one build–probe phase with a
//! task per partition — a Grace pair for a materialized one, a rescan of
//! the originals for any other (`kernel.rs`). At `x = k` it is
//! Grace join's schedule without the morsel grid.
//!
//! Cost: Eq. 9 — `r(|T|+|V|) + r·x·(1+λ)·(|T|+|V|)/k + r·(k−x)·(|T|+|V|)`
//! (plus output). Eq. 10 gives the `x` below which SegJ beats plain
//! Grace join; regardless, `x` is the knob that sets the algorithm's
//! write intensity.

use super::common::{partition_of, JoinContext, OutputShape};
use super::kernel::{build_probe, build_table, pair, spill_scan, Phased};
use crate::parallel::Phases;
use pmem_sim::{PCollection, PmError};
use std::slice;
use wisconsin::Record;

/// SegJ's schedule ([`super::JoinAlgorithm::SegJ`]), materializing
/// `x = round(frac · k)` of the `k` partitions: the two partition scans
/// (when `x > 0`), then the partition tasks.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ frac ≤ 1`, and
/// [`PmError::InsufficientMemory`] when Grace is inapplicable.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    frac: f64,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out>, PmError> {
    let _op = ctx.operator("segmented-grace", left.len() * L::SIZE);
    if !(0.0..=1.0).contains(&frac) {
        return Err(PmError::InvalidParameter {
            name: "frac",
            message: format!("write intensity must be in [0,1], got {frac}"),
        });
    }
    let k = ctx
        .capacity::<L>()
        .grace_partitions(left.len(), "segmented Grace join")?;
    let x = ((k as f64) * frac).round() as usize;
    let mut phases = Phases::new();

    // Initial scan: offload partitions 0..x of both inputs. Skipped
    // entirely at x = 0 (nothing to write; the iterate-only strategy
    // reads the originals anyway).
    let mut t_parts: Vec<PCollection<L>> = Vec::new();
    let mut v_parts: Vec<PCollection<R>> = Vec::new();
    if x > 0 {
        let first_x = |key| Some(partition_of(key, k)).filter(|&p| p < x);
        t_parts = (0..x).map(|_| ctx.fresh::<L>("segj-t")).collect();
        phases.push(spill_scan(left.reader(), first_x, &mut t_parts));
        v_parts = (0..x).map(|_| ctx.fresh::<R>("segj-v")).collect();
        phases.push(spill_scan(right.reader(), first_x, &mut v_parts));
    }

    // Every iterating pass re-reads the (immutable) originals through its
    // own readers, so the passes fan out beside the Grace pairs without
    // changing a single counter.
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    phases.push(build_probe(
        ctx,
        k,
        |p| match (t_parts.get(p), v_parts.get(p)) {
            (Some(tp), Some(vp)) => pair(slice::from_ref(tp), slice::from_ref(vp)),
            _ => (
                build_table(vec![left.reader()], Some((p, k))),
                vec![right.reader()],
            ),
        },
        shape,
        &mut out,
    ));
    Ok((out, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    fn stage(
        m_records: usize,
    ) -> (
        pmem_sim::Pm,
        PCollection<WisconsinRecord>,
        PCollection<WisconsinRecord>,
        u64,
        usize,
    ) {
        let dev = PmDevice::paper_default();
        let w = join_input(300, 8, 23);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        (dev, left, right, w.expected_matches, m_records)
    }

    #[test]
    fn finds_every_match_at_all_materialization_levels() {
        let (dev, left, right, want, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx
            .capacity::<WisconsinRecord>()
            .partitions(left.len() as f64) as usize;
        for x in [0, 1, k / 2, k] {
            let segj = JoinAlgorithm::SegJ {
                frac: x as f64 / k as f64,
            };
            let out = segj.run(&left, &right, &ctx, "out").expect("applicable");
            assert_eq!(out.len() as u64, want, "x={x} of k={k}");
        }
    }

    #[test]
    fn fewer_materialized_partitions_means_fewer_writes_more_reads() {
        let (dev, left, right, _, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx
            .capacity::<WisconsinRecord>()
            .partitions(left.len() as f64) as usize;
        assert!(k >= 4, "need several partitions, got {k}");

        let before = dev.snapshot();
        let frac = 1.0 / k as f64;
        let segj = JoinAlgorithm::SegJ { frac };
        segj.run(&left, &right, &ctx, "lo").expect("ok");
        let lo = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let segj = JoinAlgorithm::SegJ { frac: 1.0 };
        segj.run(&left, &right, &ctx, "hi").expect("ok");
        let hi = dev.snapshot().since(&before);

        assert!(
            lo.cl_writes < hi.cl_writes,
            "lo {} hi {}",
            lo.cl_writes,
            hi.cl_writes
        );
        assert!(lo.cl_reads > hi.cl_reads);
    }

    #[test]
    fn full_materialization_matches_grace_cost() {
        // x = k materializes every partition: Grace join, counter for
        // counter and pair for pair, on every layer at any DoP — within
        // one partitioning morsel. Past it Grace partitions each morsel
        // into pieces of its own and pays their boundary cachelines;
        // SegJ's scan has no morsel grid.
        use crate::join::tests::{assert_same_run, device_run, LAYERS};
        let w = join_input(300, 8, 23);
        assert!(w.right.len() <= crate::join::PARTITION_MORSEL_RECORDS);
        for kind in LAYERS {
            for threads in [1, 4] {
                let seg = device_run(&w, kind, 60, threads, |l, r, ctx| {
                    let k = ctx.capacity::<WisconsinRecord>().partitions(l.len() as f64) as usize;
                    assert!(k >= 4, "need several partitions, got {k}");
                    JoinAlgorithm::SegJ { frac: 1.0 }.run(l, r, ctx, "out")
                });
                let gj = device_run(&w, kind, 60, threads, |l, r, ctx| {
                    JoinAlgorithm::GJ.run(l, r, ctx, "out")
                });
                assert_eq!(seg.1.len() as u64, w.expected_matches);
                assert_same_run(&format!("{kind:?}, DoP {threads}"), &seg, &gj);
            }
        }
    }

    #[test]
    fn frac_wrapper_validates_domain() {
        let (dev, left, right, _, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let segj = |frac| JoinAlgorithm::SegJ { frac }.run(&left, &right, &ctx, "o");
        assert!(segj(1.5).is_err());
        assert!(segj(0.5).is_ok());
    }
}
