//! LaS — lazy sort (§2.1.3, Algorithm 2).
//!
//! Lazy sort runs the write-limited half of segment sort (repeated
//! selection scans) but *tracks the penalty of rescanning versus the
//! saving of not materializing*. At pass `n` over the current input of
//! `|T|` buffers with `M` buffers of DRAM, materializing the unemitted
//! remainder costs `(|T| − nM)·λ·r` while rescanning costs `nM·r` extra
//! reads; the paper's Eq. 5 therefore materializes once
//! `n ≥ ⌊|T|·λ / (M·(λ+1))⌋`. The process is progressive: after a
//! materialization, `|T|` is the (smaller) intermediate input and the
//! algorithm reverts to being lazy.

use super::common::SortContext;
use super::selection::select_into;
use crate::parallel::Phases;
use pmem_sim::PCollection;
use wisconsin::Record;

/// The Eq. 5 materialization pass threshold for an input of `t_records`
/// and a heap of `m_records` under write/read ratio `lambda`.
pub(crate) fn materialization_pass(t_records: usize, m_records: usize, lambda: f64) -> u64 {
    ((t_records as f64) * lambda / ((m_records as f64) * (lambda + 1.0))).floor() as u64
}

/// LaS's schedule: selection sort's passes, with a `lazy-int`
/// intermediate as the sink of each pass Eq. 5 picks — shrunken
/// intermediate inputs are materialized only once the rescan penalty
/// has overtaken the write savings.
pub(crate) fn phased<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> (PCollection<R>, Phases) {
    let _op = ctx.operator("lazy-sort", input.len() * R::SIZE);
    let m = ctx.capacity::<R>().records();
    let lambda = ctx.device().lambda();
    // Materialize only when the pass will not already finish the job.
    let eq5 = |pass, source_len, left| {
        (pass >= materialization_pass(source_len, m, lambda).max(1) && left > m)
            .then(|| ctx.fresh::<R>("lazy-int"))
    };
    select_into(input, m, eq5, ctx, output_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use crate::sort::SortAlgorithm;
    use pmem_sim::{BufferPool, IoStats, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    fn sort(n: u64, m_records: usize, lambda: f64) -> (IoStats, PCollection<WisconsinRecord>, u64) {
        let dev = PmDevice::new(
            pmem_sim::DeviceConfig::paper_default()
                .with_latency(pmem_sim::LatencyProfile::with_lambda(10.0, lambda)),
        );
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 21),
        );
        let buffers = input.buffers();
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = SortAlgorithm::LaS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        (dev.snapshot().since(&before), out, buffers)
    }

    #[test]
    fn sorts_correctly() {
        let (_, out, _) = sort(3000, 100, 15.0);
        assert_eq!(out.len(), 3000);
        assert!(is_sorted_by_key(&out));
        let keys: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
        assert_eq!(keys, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn writes_stay_near_minimal() {
        let (stats, out, _) = sort(4000, 200, 15.0);
        // Write-minimal bound is the output itself; Eq. 5 materializations
        // may add a small tail, bounded by ~|T|/λ.
        let min = out.buffers() as f64;
        assert!(
            (stats.cl_writes as f64) < 1.25 * min,
            "writes {} vs minimal {min}",
            stats.cl_writes
        );
    }

    #[test]
    fn low_lambda_materializes_earlier_and_reads_less() {
        let (high_lambda, _, _) = sort(4000, 100, 15.0);
        let (low_lambda, _, _) = sort(4000, 100, 2.0);
        // With cheap writes (λ=2) the algorithm materializes earlier,
        // cutting rescans; with λ=15 it prefers rereading.
        assert!(
            low_lambda.cl_reads < high_lambda.cl_reads,
            "λ=2 reads {} should be below λ=15 reads {}",
            low_lambda.cl_reads,
            high_lambda.cl_reads
        );
        assert!(low_lambda.cl_writes > high_lambda.cl_writes);
    }

    #[test]
    fn materialization_pass_threshold_matches_eq5() {
        // |T|=1000, M=100, λ=15: floor(1000·15 / (100·16)) = floor(9.375).
        assert_eq!(materialization_pass(1000, 100, 15.0), 9);
        // λ=1: floor(1000/(100·2)) = 5.
        assert_eq!(materialization_pass(1000, 100, 1.0), 5);
    }

    #[test]
    fn single_pass_when_memory_covers_input() {
        let (stats, out, buffers) = sort(500, 1000, 15.0);
        assert!(is_sorted_by_key(&out));
        assert_eq!(stats.cl_reads, buffers); // exactly one scan
    }

    #[test]
    fn duplicates_handled() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(1000, KeyOrder::FewDistinct { distinct: 2 }, 8),
        );
        let pool = BufferPool::new(50 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::LaS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert_eq!(out.len(), 1000);
        assert!(is_sorted_by_key(&out));
    }
}
