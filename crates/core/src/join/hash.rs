//! HJ — standard (iterative) hash join, as described in §2.2.3.
//!
//! With `k = ⌈f·|T|/M⌉` partitions, iteration `i` scans both (remaining)
//! inputs: partition-`i` build records go to an in-DRAM hash table and
//! partition-`i` probe records probe it, while **every other record is
//! offloaded back to persistent memory** to form the next iteration's
//! inputs. The repeated rewriting of the shrinking remainder is exactly
//! the write profile of Table 1 — `(m−i)·(M+M_T)` writes in iteration
//! `i` — and what lazy hash join eliminates.

//! Both scans of each iteration fan out over fixed-size input morsels
//! across the context's worker pool ([`crate::parallel`]): workers
//! classify and buffer their morsel's records, and the coordinator
//! applies the buffers in morsel order, so the offload collections, the
//! output order, and every simulated counter are identical at any
//! degree of parallelism. The iterations themselves stay sequential —
//! each consumes the previous one's offload — which is exactly the
//! dependency the cost model's per-pass split captures.

use super::common::{
    build_pass_morsels, partition_of, probe_pass_morsels, BuildTable, IterJoinProfile, JoinContext,
    ScanAction,
};
use pmem_sim::PCollection;
use wisconsin::{Pair, Record};

/// Joins `left ⋈ right` with the iterative standard hash join.
pub fn hash_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> PCollection<Pair<L, R>> {
    hash_join_profiled(left, right, ctx, output_name).0
}

/// [`hash_join`] with the per-pass, per-morsel ledger profile alongside
/// the result — what the speedup harness and critical-path analyses
/// consume.
pub fn hash_join_profiled<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> (PCollection<Pair<L, R>>, IterJoinProfile) {
    let _span = pmem_sim::span::span("alg hash-join");
    let k = ctx.grace_partitions::<L>(left.len());
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let mut profile = IterJoinProfile::default();

    // Owned shrinking copies after the first iteration.
    let mut t_cur: Option<PCollection<L>> = None;
    let mut v_cur: Option<PCollection<R>> = None;

    for i in 0..k {
        let last = i + 1 == k;
        let mut table = BuildTable::new();
        let mut t_next = (!last).then(|| ctx.fresh::<L>("hj-t"));

        {
            let t_src: &PCollection<L> = t_cur.as_ref().unwrap_or(left);
            let build = build_pass_morsels(
                t_src,
                ctx,
                |key| {
                    if partition_of(key, k) == i {
                        ScanAction::Keep
                    } else if last {
                        ScanAction::Skip
                    } else {
                        ScanAction::Offload // offload: pays a write now
                    }
                },
                &mut table,
                t_next.as_mut(),
            );
            profile.per_build_morsel.push(build);
        }

        let mut v_next = (!last).then(|| ctx.fresh::<R>("hj-v"));
        {
            let v_src: &PCollection<R> = v_cur.as_ref().unwrap_or(right);
            let probe = probe_pass_morsels(
                v_src,
                ctx,
                |key| {
                    if partition_of(key, k) == i {
                        ScanAction::Keep
                    } else if last {
                        ScanAction::Skip
                    } else {
                        ScanAction::Offload
                    }
                },
                &table,
                &mut out,
                v_next.as_mut(),
            );
            profile.per_probe_morsel.push(probe);
        }

        t_cur = t_next;
        v_cur = v_next;
    }
    (out, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    #[test]
    fn finds_every_match() {
        let dev = PmDevice::paper_default();
        let w = join_input(300, 10, 6);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = hash_join(&left, &right, &ctx, "out");
        assert_eq!(out.len() as u64, w.expected_matches);
    }

    #[test]
    fn rewrites_shrinking_remainder_like_table_one() {
        let dev = PmDevice::paper_default();
        let w = join_input(400, 4, 7);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let inputs = (left.buffers() + right.buffers()) as f64;
        let pool = BufferPool::new(100 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len()) as f64;
        assert!(k >= 4.0, "want several iterations, got k={k}");

        let before = dev.snapshot();
        let out = hash_join(&left, &right, &ctx, "out");
        let d = dev.snapshot().since(&before);

        // Table 1: total writes ≈ Σ_{i=1..k-1} (k−i)/k ·(|T|+|V|)
        //        = (k−1)/2 · (|T|+|V|), plus the output.
        let expected = (k - 1.0) / 2.0 * inputs + out.buffers() as f64;
        let ratio = d.cl_writes as f64 / expected;
        assert!(
            (0.85..1.15).contains(&ratio),
            "writes {} vs model {expected} (ratio {ratio})",
            d.cl_writes
        );
    }

    #[test]
    fn single_partition_degenerates_to_in_memory_join() {
        let dev = PmDevice::paper_default();
        let w = join_input(50, 3, 2);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(100 * 80); // all of T fits
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = hash_join(&left, &right, &ctx, "out");
        let d = dev.snapshot().since(&before);
        assert_eq!(out.len(), 150);
        // No offloading: writes are exactly the output.
        assert_eq!(d.cl_writes, out.buffers());
    }
}
