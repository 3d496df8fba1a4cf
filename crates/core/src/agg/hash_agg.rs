//! Hash-based aggregation: one-pass when the group state fits in DRAM,
//! Grace-style segmented otherwise.

use crate::agg::GroupAgg;
use crate::join::common::partition_of;
use crate::join::kernel::{route_scan, spill_scan, Route};
use crate::sort::SortContext;
use pmem_sim::{PCollection, PmError, RecordReader};
use std::collections::HashMap;
use wisconsin::Record;

/// One-pass in-DRAM hash aggregation. The group state (`GroupAgg` per
/// distinct key) must fit in the DRAM budget.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when the number of groups
/// exceeds the budget — callers should fall back to
/// [`segmented_hash_aggregate`] or [`super::sort_based_aggregate`].
pub fn hash_aggregate<R: Record>(
    input: &PCollection<R>,
    value_of: impl Fn(&R) -> u64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<PCollection<GroupAgg>, PmError> {
    let _op = ctx.operator("hash-agg", input.len() * R::SIZE);
    let budget_groups = ctx.capacity::<GroupAgg>().records();
    let mut groups: HashMap<u64, GroupAgg> = HashMap::new();
    // Pulled record by record, not scanned a run at a time: the scan
    // stops at the first group past the budget, and must have been
    // charged for no more than it read.
    for record in input.reader() {
        let key = record.key();
        let value = value_of(&record);
        match groups.get_mut(&key) {
            Some(g) => g.fold(value),
            None => {
                if groups.len() >= budget_groups {
                    return Err(PmError::InsufficientMemory {
                        requirement: format!(
                            "hash aggregation needs all groups in DRAM: budget {budget_groups} \
                             groups exceeded"
                        ),
                    });
                }
                groups.insert(key, GroupAgg::seed(key, value));
            }
        }
    }
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    land_sorted(groups, &mut out);
    Ok(out)
}

/// Appends `groups` to `out` in ascending key order.
fn land_sorted(groups: HashMap<u64, GroupAgg>, out: &mut PCollection<GroupAgg>) {
    let mut sorted: Vec<GroupAgg> = groups.into_values().collect();
    sorted.sort_unstable_by_key(|g| g.key);
    for g in &sorted {
        out.append(g);
    }
}

/// Segmented hash aggregation — the SegJ of aggregation. The key domain
/// is hash-split into `k` partitions sized so each partition's group
/// state fits in DRAM; the first `materialized` partitions' *records*
/// are offloaded during one input scan and aggregated from their
/// partition files, the rest by re-scanning the input once per
/// partition. `materialized = 0` writes nothing but the output.
///
/// `k` must be supplied by the caller (an estimate of
/// `distinct_keys · GroupAgg::SIZE / M`, from catalog statistics in a
/// real system).
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] when `k == 0` or
/// `materialized > k`.
pub fn segmented_hash_aggregate<R: Record>(
    input: &PCollection<R>,
    k: usize,
    materialized: usize,
    value_of: impl Fn(&R) -> u64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<PCollection<GroupAgg>, PmError> {
    let _op = ctx.operator("segmented-hash-agg", input.len() * R::SIZE);
    if k == 0 {
        return Err(PmError::InvalidParameter {
            name: "k",
            message: "need at least one partition".into(),
        });
    }
    if materialized > k {
        return Err(PmError::InvalidParameter {
            name: "materialized",
            message: format!("cannot materialize {materialized} of {k} partitions"),
        });
    }

    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);

    // One scan offloading the materialized partitions' records.
    let mut files: Vec<PCollection<R>> = (0..materialized)
        .map(|_| ctx.fresh::<R>("agg-part"))
        .collect();
    if materialized > 0 {
        let route = |key| Some(partition_of(key, k)).filter(|&p| p < materialized);
        spill_scan(input.reader(), route, &mut files);
    }

    // Aggregate each materialized partition from its file, then each
    // other partition from one more input scan, a record of another
    // partition skipped on its key, undecoded.
    let mut aggregate = |scan: RecordReader<'_, R>, partition: Option<usize>| {
        let route = |key| match partition {
            Some(p) if partition_of(key, k) != p => Route::Skip,
            _ => Route::Keep,
        };
        let mut groups: HashMap<u64, GroupAgg> = HashMap::new();
        let fold = |bytes: &[u8]| {
            let record = R::read_from(bytes);
            let value = value_of(&record);
            groups
                .entry(record.key())
                .and_modify(|g| g.fold(value))
                .or_insert_with(|| GroupAgg::seed(record.key(), value));
        };
        route_scan(scan, route, fold, |_, _| {});
        land_sorted(groups, &mut out);
    };
    for file in &files {
        aggregate(file.reader(), None);
    }
    for p in materialized..k {
        aggregate(input.reader(), Some(p));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    fn reference(records: &[WisconsinRecord]) -> HashMap<u64, GroupAgg> {
        let mut map = HashMap::new();
        for r in records {
            use wisconsin::Record as _;
            map.entry(r.key())
                .and_modify(|g: &mut GroupAgg| g.fold(r.payload()))
                .or_insert_with(|| GroupAgg::seed(r.key(), r.payload()));
        }
        map
    }

    fn to_map(out: &PCollection<GroupAgg>) -> HashMap<u64, GroupAgg> {
        out.to_vec_uncounted()
            .into_iter()
            .map(|g| (g.key, g))
            .collect()
    }

    #[test]
    fn one_pass_matches_reference() {
        let dev = PmDevice::paper_default();
        let records = sort_input(3000, KeyOrder::FewDistinct { distinct: 40 }, 5);
        let expect = reference(&records);
        let input =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = hash_aggregate(&input, |r| r.payload(), &ctx, "agg").expect("groups fit");
        assert_eq!(to_map(&out), expect);
    }

    #[test]
    fn one_pass_rejects_too_many_groups() {
        let dev = PmDevice::paper_default();
        let records = sort_input(3000, KeyOrder::Random, 5); // 3000 groups
        let input =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
        let pool = BufferPool::new(100 * 40); // room for 100 groups
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        assert!(hash_aggregate(&input, |r| r.payload(), &ctx, "agg").is_err());
    }

    #[test]
    fn segmented_matches_reference_at_all_materialization_levels() {
        let dev = PmDevice::paper_default();
        let records = sort_input(4000, KeyOrder::FewDistinct { distinct: 200 }, 9);
        let expect = reference(&records);
        let input =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        for materialized in [0, 2, 4] {
            let out =
                segmented_hash_aggregate(&input, 4, materialized, |r| r.payload(), &ctx, "agg")
                    .expect("valid");
            assert_eq!(to_map(&out), expect, "materialized={materialized}");
        }
    }

    #[test]
    fn lazy_segmented_trades_writes_for_reads() {
        let dev = PmDevice::paper_default();
        let records = sort_input(4000, KeyOrder::FewDistinct { distinct: 200 }, 9);
        let input =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);

        let before = dev.snapshot();
        let _ = segmented_hash_aggregate(&input, 4, 0, |r| r.payload(), &ctx, "lazy").expect("ok");
        let lazy = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let _ = segmented_hash_aggregate(&input, 4, 4, |r| r.payload(), &ctx, "eager").expect("ok");
        let eager = dev.snapshot().since(&before);

        assert!(lazy.cl_writes < eager.cl_writes);
        assert!(lazy.cl_reads > eager.cl_reads);
    }

    #[test]
    fn parameter_validation() {
        let dev = PmDevice::paper_default();
        let input: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "T");
        let pool = BufferPool::new(8000);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        assert!(segmented_hash_aggregate(&input, 0, 0, |r| r.payload(), &ctx, "a").is_err());
        assert!(segmented_hash_aggregate(&input, 2, 3, |r| r.payload(), &ctx, "a").is_err());
    }
}
