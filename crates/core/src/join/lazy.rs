//! LaJ — lazy hash join (§2.2.3).
//!
//! The lazy variant of [`super::JoinAlgorithm::HJ`]: when a scanned record
//! does not belong to the partition being processed it is **not** written
//! back; the algorithm pays the penalty of rescanning dead records in
//! later iterations instead. Savings (writes avoided) and penalty (extra
//! reads) progress as in Table 1; once the cumulative penalty overtakes
//! the savings the remainder is materialized — piggybacked on the scan
//! that is already running — and the algorithm reverts to being lazy.
//! The passes are hash join's (`hash::passes`); only the choice
//! of which ones offload differs.
//!
//! ### Materialization point (Eq. 11, corrected)
//!
//! The paper states the threshold as `n = ⌊k/(λ+1)⌋`, but its own
//! derivation starts from `n·r > (k−n)·λ·r`, whose solution is
//! `n > k·λ/(λ+1)` — the same `λ/(λ+1)` factor as the lazy sort's Eq. 5.
//! (`⌊k/(λ+1)⌋` would make a *higher* write/read ratio materialize
//! *earlier*, i.e., write more when writes are more expensive, which
//! contradicts the algorithm's premise.) We implement the corrected form:
//! `repro --table 1` prints it under the Table 1 progression, and the
//! test `threshold_follows_corrected_eq11` pins it.

use super::common::{JoinContext, OutputShape};
use super::hash::passes;
use super::kernel::Phased;
use pmem_sim::PCollection;
use wisconsin::Record;

/// The corrected Eq. 11 threshold: lazy iterations tolerated before the
/// remaining `k` partitions are worth materializing.
pub(crate) fn lazy_materialization_iterations(k_remaining: usize, lambda: f64) -> usize {
    ((k_remaining as f64) * lambda / (lambda + 1.0)).floor() as usize
}

/// LaJ's schedule and its phases: per pass, the build scan's morsels
/// and then the probe scan's.
pub(crate) fn phased<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Phased<S::Out> {
    let _op = ctx.operator("lazy-join", left.len() * L::SIZE);
    let k = ctx.capacity::<L>().partitions(left.len() as f64) as usize;
    let lambda = ctx.device().lambda();
    let mut since_mat = 0usize; // lazy iterations since the last materialization
    let mut threshold = lazy_materialization_iterations(k, lambda).max(1);
    let names = ["laj-t", "laj-v", output_name];
    passes(left, right, shape, ctx, k, names, |i| {
        let remaining_after = k - i - 1;
        since_mat += 1;
        // Materialize when the penalty has overtaken the savings and
        // there is still enough left to be worth writing.
        let materialize = since_mat >= threshold && remaining_after > 1;
        if materialize {
            since_mat = 0;
            threshold = lazy_materialization_iterations(remaining_after, lambda).max(1);
        }
        materialize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinAlgorithm;
    use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PmDevice};
    use wisconsin::join_input;

    fn run_with_lambda(lambda: f64, m_records: usize) -> (pmem_sim::IoStats, usize, u64) {
        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let w = join_input(400, 5, 8);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(m_records * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = JoinAlgorithm::LaJ
            .run(&left, &right, &ctx, "out")
            .expect("joins");
        (dev.snapshot().since(&before), out.len(), w.expected_matches)
    }

    #[test]
    fn finds_every_match() {
        let (_, got, want) = run_with_lambda(15.0, 60);
        assert_eq!(got as u64, want);
    }

    #[test]
    fn writes_far_fewer_than_standard_hash_join() {
        let dev = PmDevice::paper_default();
        let w = join_input(400, 5, 8);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);

        let before = dev.snapshot();
        JoinAlgorithm::LaJ
            .run(&left, &right, &ctx, "lazy-out")
            .expect("joins");
        let lazy = dev.snapshot().since(&before);

        let before = dev.snapshot();
        JoinAlgorithm::HJ
            .run(&left, &right, &ctx, "hj-out")
            .expect("joins");
        let standard = dev.snapshot().since(&before);

        assert!(
            (lazy.cl_writes as f64) < 0.5 * standard.cl_writes as f64,
            "lazy writes {} vs standard {}",
            lazy.cl_writes,
            standard.cl_writes
        );
        assert!(lazy.cl_reads > standard.cl_reads);
    }

    #[test]
    fn low_lambda_materializes_and_cuts_reads() {
        let (high, _, _) = run_with_lambda(15.0, 60);
        let (low, _, _) = run_with_lambda(1.5, 60);
        assert!(
            low.cl_reads < high.cl_reads,
            "λ=1.5 reads {} should be below λ=15 reads {}",
            low.cl_reads,
            high.cl_reads
        );
        assert!(low.cl_writes > high.cl_writes);
    }

    #[test]
    fn threshold_follows_corrected_eq11() {
        // k=16, λ=15: ⌊16·15/16⌋ = 15 (materialize almost never);
        // k=16, λ=1: ⌊16/2⌋ = 8 (materialize halfway).
        assert_eq!(lazy_materialization_iterations(16, 15.0), 15);
        assert_eq!(lazy_materialization_iterations(16, 1.0), 8);
        assert_eq!(lazy_materialization_iterations(3, 15.0), 2);
    }

    #[test]
    fn single_partition_needs_no_laziness() {
        let (stats, got, want) = run_with_lambda(15.0, 1000);
        assert_eq!(got as u64, want);
        // Everything fits: one scan of each input, writes = output only.
        assert!(stats.cl_reads > 0);
    }
}
