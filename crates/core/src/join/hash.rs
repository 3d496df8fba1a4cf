//! HJ — standard (iterative) hash join, as described in §2.2.3.
//!
//! With `k = ⌈f·|T|/M⌉` partitions, iteration `i` scans both (remaining)
//! inputs: partition-`i` build records go to an in-DRAM hash table and
//! partition-`i` probe records probe it, while **every other record is
//! offloaded back to persistent memory** to form the next iteration's
//! inputs. The repeated rewriting of the shrinking remainder is exactly
//! the write profile of Table 1 — `(m−i)·(M+M_T)` writes in iteration
//! `i` — and what lazy hash join eliminates.
//!
//! Both scans of each iteration are routed partition scans over the
//! morsel grid (`kernel.rs`), so the offload collections, the
//! output order and every simulated counter are identical at any degree
//! of parallelism. The iterations themselves stay sequential — each
//! consumes the previous one's offload — which is exactly the dependency
//! the cost model's per-pass split captures.

use super::common::{partition_of, BuildTable, JoinContext, OutputShape};
use super::kernel::{for_each_morsel, route_scan, Phased, Route};
use crate::parallel::{Label, Phase, Phases};
use pmem_sim::{PCollection, RecordBuffer, RecordReader};
use wisconsin::Record;

/// HJ's schedule and its phases: per pass, the build scan's morsels and
/// then the probe scan's.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Phased<S::Out> {
    let _op = ctx.operator("hash-join", left.len() * L::SIZE);
    let k = ctx.capacity::<L>().partitions(left.len() as f64) as usize;
    // Every pass but the last offloads the rest; the inputs then hold
    // only partitions not joined yet, all of which are offloaded.
    let names = ["hj-t", "hj-v", output_name];
    passes(left, right, shape, ctx, k, names, |i| i + 1 < k)
}

/// The schedule of the iterating hash joins (HJ and the lazy one): pass
/// `i` builds a table from partition `i` of the current build input and
/// probes it with the current probe input; when `offload(i)` says so, the
/// pass also writes every record of a later partition to new inputs for
/// the passes after it (named by the first two `names`; the last names
/// the output), piggybacked on its scans.
/// Every other record is skipped — the rescan penalty of later passes.
pub(super) fn passes<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    k: usize,
    [t_prefix, v_prefix, output_name]: [&str; 3],
    mut offload: impl FnMut(usize) -> bool,
) -> Phased<S::Out> {
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let mut phases = Phases::with_capacity(2 * k);
    // The current inputs: the originals, then the latest offloads.
    let mut t_cur: Option<PCollection<L>> = None;
    let mut v_cur: Option<PCollection<R>> = None;
    for i in 0..k {
        let offloads = offload(i);
        let route = move |key| match partition_of(key, k) {
            p if p == i => Route::Keep,
            p if p > i && offloads => Route::Spill(p),
            _ => Route::Skip,
        };
        let mut t_next = offloads.then(|| ctx.fresh::<L>(t_prefix));
        let mut v_next = offloads.then(|| ctx.fresh::<R>(v_prefix));
        let mut table = BuildTable::new();
        let build = |kept: &mut RecordBuffer<L>, bytes: &[u8]| kept.push_bytes(bytes);
        let insert = |kept: RecordBuffer<L>| kept.records().for_each(|l| table.insert_bytes(l));
        let t_src = t_cur.as_ref().unwrap_or(left);
        let t_scan = pass_scan(t_src, ctx, i, route, build, t_next.as_mut(), insert);
        // Nothing to offload, nothing to route: a probe record the build
        // scan did not keep cannot equal a key the table holds.
        let route = move |key| if offloads { route(key) } else { Route::Keep };
        let probe = |matches: &mut RecordBuffer<_>, bytes: &[u8]| {
            table.probe_bytes(bytes, shape, matches);
        };
        let v_src = v_cur.as_ref().unwrap_or(right);
        let land = |m: RecordBuffer<_>| out.append_buffer(&m);
        let v_scan = pass_scan(v_src, ctx, i, route, probe, v_next.as_mut(), land);
        phases.extend([t_scan, v_scan]);
        if offloads {
            t_cur = t_next;
            v_cur = v_next;
        }
    }
    (out, phases)
}

/// One scan of pass `pass` over the morsel grid, a [`Label::Pass`]
/// phase: kept records go through `keep` into the morsel's `K`, which
/// `land`s in morsel order; with a `next` input, records routed to a
/// later partition are buffered per morsel and appended to it in morsel
/// order.
fn pass_scan<S: Record, K: Default + Send>(
    src: &PCollection<S>,
    ctx: &JoinContext<'_>,
    pass: usize,
    route: impl Fn(u64) -> Route + Sync,
    keep: impl Fn(&mut K, &[u8]) + Sync,
    mut next: Option<&mut PCollection<S>>,
    mut land: impl FnMut(K),
) -> Phase {
    // A pass that offloads may move a whole morsel; one that does not
    // buffers nothing.
    let offloads = next.is_some();
    let scan = |_, scan: RecordReader<'_, S>| {
        let mut kept = K::default();
        let mut spill = RecordBuffer::with_capacity(if offloads { scan.remaining() } else { 0 });
        let spill_to = |_, bytes: &[u8]| spill.push_bytes(bytes);
        route_scan(scan, &route, |bytes| keep(&mut kept, bytes), spill_to);
        (kept, spill)
    };
    for_each_morsel(src, ctx, Label::Pass(pass), scan, |(kept, spill)| {
        land(kept);
        if let Some(next) = next.as_deref_mut() {
            next.append_buffer(&spill);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinAlgorithm;
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
        let out = JoinAlgorithm::HJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
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
        let k = ctx
            .capacity::<WisconsinRecord>()
            .partitions(left.len() as f64);
        assert!(k >= 4.0, "want several iterations, got k={k}");

        let before = dev.snapshot();
        let out = JoinAlgorithm::HJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
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
        let out = JoinAlgorithm::HJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        let d = dev.snapshot().since(&before);
        assert_eq!(out.len(), 150);
        // No offloading: writes are exactly the output.
        assert_eq!(d.cl_writes, out.buffers());
    }
}
