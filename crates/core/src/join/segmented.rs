//! SegJ — segmented Grace join (§2.2.2).
//!
//! Operates at partition granularity: of the `k = ⌈f·|T|/M⌉` logical
//! partitions, only the first `x` are **materialized** (offloaded during
//! an initial scan of both inputs and joined Grace-style); the remaining
//! `k − x` partitions are processed by iterating over both *original*
//! inputs once per partition, building the partition's table on the fly.
//!
//! Cost: Eq. 9 — `r(|T|+|V|) + r·x·(1+λ)·(|T|+|V|)/k + r·(k−x)·(|T|+|V|)`
//! (plus output). Eq. 10 gives the `x` below which SegJ beats plain
//! Grace join; regardless, `x` is the knob that sets the algorithm's
//! write intensity.

use super::common::{partition_of, view_key, BuildTable, JoinContext};
use crate::parallel;
use pmem_sim::{PCollection, PmError, RecordBuffer};
use wisconsin::{Pair, Record};

/// Joins `left ⋈ right`, materializing `materialized` of the `k`
/// partitions (pass a fraction via [`segmented_grace_join_frac`]).
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when Grace is inapplicable,
/// or [`PmError::InvalidParameter`] when `materialized > k`.
pub fn segmented_grace_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    materialized: usize,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    let _span = pmem_sim::span::span("alg segmented-grace");
    if !ctx.grace_applicable::<L>(left.len()) {
        return Err(PmError::InsufficientMemory {
            requirement: format!(
                "segmented Grace join needs M > sqrt(f*|T|): M = {} records, |T| = {}",
                ctx.capacity_records::<L>(),
                left.len()
            ),
        });
    }
    let k = ctx.grace_partitions::<L>(left.len());
    if materialized > k {
        return Err(PmError::InvalidParameter {
            name: "materialized",
            message: format!("cannot materialize {materialized} of {k} partitions"),
        });
    }
    let x = materialized;
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);

    // Initial scan: offload partitions 0..x of both inputs. Skipped
    // entirely at x = 0 (nothing to write; the iterate-only strategy
    // reads the originals anyway).
    let mut t_parts: Vec<PCollection<L>> = Vec::new();
    let mut v_parts: Vec<PCollection<R>> = Vec::new();
    if x > 0 {
        t_parts = (0..x).map(|_| ctx.fresh::<L>("segj-t")).collect();
        left.reader().for_each_view(|l| {
            let p = partition_of(view_key(&l), k);
            if p < x {
                t_parts[p].append_bytes(l.bytes());
            }
        });
        v_parts = (0..x).map(|_| ctx.fresh::<R>("segj-v")).collect();
        right.reader().for_each_view(|r| {
            let p = partition_of(view_key(&r), k);
            if p < x {
                v_parts[p].append_bytes(r.bytes());
            }
        });
    }

    // Grace phase over the materialized partitions; the pairs are
    // independent, so they fan out across the worker pool with the
    // output flushed in partition order (DoP-invariant counts + order).
    parallel::for_each_ordered(
        ctx.threads(),
        x,
        |p| {
            let (tp, vp) = (&t_parts[p], &v_parts[p]);
            let mut buf = RecordBuffer::new();
            if tp.is_empty() || vp.is_empty() {
                return buf;
            }
            let mut table = BuildTable::new();
            tp.reader().for_each_view(|l| table.insert(l.get()));
            vp.reader()
                .for_each_run(|run| table.probe_run(run, &mut buf));
            buf
        },
        |_, task| out.append_buffer(&task.value),
    );

    // Iterate phase: one pass over both originals per remaining
    // partition. Every pass re-reads the (immutable) originals through
    // its own readers, exactly as the serial loop does, so the passes
    // parallelize without changing a single counter. Only the build
    // scan tests the partition: a probe record of another partition
    // cannot equal a key the table holds.
    parallel::for_each_ordered(
        ctx.threads(),
        k - x,
        |i| {
            let p = x + i;
            let mut table = BuildTable::new();
            left.reader().for_each_view(|l| {
                if partition_of(view_key(&l), k) == p {
                    table.insert(l.get());
                }
            });
            debug_assert!(
                table.holds_only(|key| partition_of(key, k) == p),
                "a pair's probe key equals a held key, all of partition {p}"
            );
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

/// Fraction-parameterized wrapper: materializes `round(frac · k)`
/// partitions — the form the paper's write-intensity sweeps use.
///
/// # Errors
/// Same as [`segmented_grace_join`], plus `frac ∉ [0, 1]`.
pub fn segmented_grace_join_frac<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    frac: f64,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    if !(0.0..=1.0).contains(&frac) {
        return Err(PmError::InvalidParameter {
            name: "frac",
            message: format!("write intensity must be in [0,1], got {frac}"),
        });
    }
    let k = ctx.grace_partitions::<L>(left.len());
    let x = ((k as f64) * frac).round() as usize;
    segmented_grace_join(left, right, x.min(k), ctx, output_name)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len());
        for x in [0, 1, k / 2, k] {
            let out = segmented_grace_join(&left, &right, x, &ctx, "out").expect("applicable");
            assert_eq!(out.len() as u64, want, "x={x} of k={k}");
        }
    }

    #[test]
    fn fewer_materialized_partitions_means_fewer_writes_more_reads() {
        let (dev, left, right, _, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len());
        assert!(k >= 4, "need several partitions, got {k}");

        let before = dev.snapshot();
        let _ = segmented_grace_join(&left, &right, 1, &ctx, "lo").expect("ok");
        let lo = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let _ = segmented_grace_join(&left, &right, k, &ctx, "hi").expect("ok");
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
        let (dev, left, right, want, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len());

        let before = dev.snapshot();
        let seg = segmented_grace_join(&left, &right, k, &ctx, "seg").expect("ok");
        let seg_io = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let gj = super::super::grace::grace_join(&left, &right, &ctx, "gj").expect("ok");
        let gj_io = dev.snapshot().since(&before);

        assert_eq!(seg.len() as u64, want);
        assert_eq!(gj.len() as u64, want);
        let dr = (seg_io.cl_reads as f64 / gj_io.cl_reads as f64 - 1.0).abs();
        let dw = (seg_io.cl_writes as f64 / gj_io.cl_writes as f64 - 1.0).abs();
        assert!(
            dr < 0.05 && dw < 0.05,
            "x=k should cost like Grace (Δr {dr}, Δw {dw})"
        );
    }

    #[test]
    fn frac_wrapper_validates_domain() {
        let (dev, left, right, _, m) = stage(60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        assert!(segmented_grace_join_frac(&left, &right, 1.5, &ctx, "o").is_err());
        assert!(segmented_grace_join_frac(&left, &right, 0.5, &ctx, "o").is_ok());
    }
}
