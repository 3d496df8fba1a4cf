//! Reference executor: evaluates a *logical* plan directly in DRAM,
//! without the cost simulator, algorithms, or knobs. Lowered plans must
//! produce exactly these rows — the planner's correctness oracle.

use crate::catalog::Catalog;
use crate::enumerate::{collect_join_leaves, PlanError};
use crate::logical::LogicalPlan;
use crate::lower::{fold_pair, ExecError, OutputRows};
use std::collections::BTreeMap;
use wisconsin::{Record, WisconsinRecord};
use write_limited::agg::GroupAgg;

/// Evaluates `logical` over the catalog's bound tables in DRAM.
///
/// # Errors
/// Returns [`ExecError`] for unknown/unbound tables, a `key % 0`
/// filter, or shapes outside the supported algebra (joins over non-base
/// inputs, nested aggregates).
pub fn execute_naive(logical: &LogicalPlan, catalog: &Catalog) -> Result<OutputRows, ExecError> {
    eval(logical, catalog)
}

fn eval(logical: &LogicalPlan, catalog: &Catalog) -> Result<OutputRows, ExecError> {
    match logical {
        LogicalPlan::Scan { table } => {
            let col = catalog
                .data(table)
                .ok_or_else(|| ExecError::MissingData(table.clone()))?;
            Ok(OutputRows::Wis(col.to_vec_uncounted()))
        }
        LogicalPlan::Filter { input, predicate } => {
            predicate.check().map_err(ExecError::Plan)?;
            let rows = eval(input, catalog)?;
            Ok(match rows {
                OutputRows::Wis(v) => {
                    OutputRows::Wis(v.into_iter().filter(|r| predicate.matches(r)).collect())
                }
                OutputRows::Pairs(v) => OutputRows::Pairs(
                    v.into_iter()
                        .filter(|(l, _)| predicate.matches(l))
                        .collect(),
                ),
                OutputRows::Multi { rows, tables } => OutputRows::Multi {
                    rows: rows.into_iter().filter(|r| predicate.matches(r)).collect(),
                    tables,
                },
                OutputRows::Groups(v) => {
                    OutputRows::Groups(v.into_iter().filter(|g| predicate.matches(g)).collect())
                }
            })
        }
        LogicalPlan::Sort { input } => {
            let rows = eval(input, catalog)?;
            Ok(match rows {
                OutputRows::Wis(mut v) => {
                    v.sort_by_key(Record::key);
                    OutputRows::Wis(v)
                }
                OutputRows::Pairs(mut v) => {
                    v.sort_by_key(|(l, _)| l.key());
                    OutputRows::Pairs(v)
                }
                OutputRows::Multi { mut rows, tables } => {
                    rows.sort_by_key(Record::key);
                    OutputRows::Multi { rows, tables }
                }
                OutputRows::Groups(mut v) => {
                    v.sort_by_key(|g| g.key);
                    OutputRows::Groups(v)
                }
            })
        }
        LogicalPlan::Join { left, right } => {
            let mut leaves = Vec::new();
            collect_join_leaves(logical, &mut leaves);
            if leaves.len() > 2 {
                return eval_chain(&leaves, catalog);
            }
            let (OutputRows::Wis(l), OutputRows::Wis(r)) =
                (eval(left, catalog)?, eval(right, catalog)?)
            else {
                return Err(ExecError::Plan(PlanError::Unsupported(
                    "join inputs must produce base records".into(),
                )));
            };
            let mut by_key: BTreeMap<u64, Vec<WisconsinRecord>> = BTreeMap::new();
            for rec in &l {
                by_key.entry(rec.key()).or_default().push(*rec);
            }
            let mut out = Vec::new();
            for probe in &r {
                if let Some(matches) = by_key.get(&probe.key()) {
                    for build in matches {
                        out.push((*build, *probe));
                    }
                }
            }
            Ok(OutputRows::Pairs(out))
        }
        LogicalPlan::Aggregate { input } => {
            let rows = eval(input, catalog)?;
            let kv: Vec<(u64, u64)> = match rows {
                OutputRows::Wis(v) => v.iter().map(|r| (r.key(), r.payload())).collect(),
                OutputRows::Pairs(v) => v.iter().map(|(l, r)| (l.key(), r.payload())).collect(),
                // Last-joined relation's payload, as in the lowered path.
                OutputRows::Multi { rows, tables } => {
                    rows.iter().map(|r| (r.key(), r.attrs[tables])).collect()
                }
                OutputRows::Groups(_) => {
                    return Err(ExecError::Plan(PlanError::Unsupported(
                        "aggregate over aggregate".into(),
                    )))
                }
            };
            let mut groups: BTreeMap<u64, GroupAgg> = BTreeMap::new();
            for (k, v) in kv {
                groups
                    .entry(k)
                    .and_modify(|g| g.fold(v))
                    .or_insert_with(|| GroupAgg::seed(k, v));
            }
            Ok(OutputRows::Groups(groups.into_values().collect()))
        }
    }
}

/// Evaluates an n-way (≥ 3 relation) join subtree: hash-joins the
/// relation leaves left-deep in logical order, folding each match into a
/// slotted chain row with the same [`fold_pair`] the lowered path uses —
/// so rows agree bit-for-bit with any join order the DP picks.
fn eval_chain(leaves: &[&LogicalPlan], catalog: &Catalog) -> Result<OutputRows, ExecError> {
    let n = leaves.len();
    let mut acc: Vec<WisconsinRecord> = Vec::new();
    let mut acc_slots: Vec<usize> = vec![0];
    for (i, leaf) in leaves.iter().enumerate() {
        let OutputRows::Wis(rows) = eval(leaf, catalog)? else {
            return Err(ExecError::Plan(PlanError::Unsupported(
                "join inputs must produce base records".into(),
            )));
        };
        if i == 0 {
            acc = rows;
            continue;
        }
        let mut by_key: BTreeMap<u64, Vec<WisconsinRecord>> = BTreeMap::new();
        for rec in &acc {
            by_key.entry(rec.key()).or_default().push(*rec);
        }
        let mut out = Vec::new();
        for probe in &rows {
            if let Some(matches) = by_key.get(&probe.key()) {
                for build in matches {
                    out.push(fold_pair(build, &acc_slots, probe, &[i]));
                }
            }
        }
        acc = out;
        acc_slots.push(i);
    }
    Ok(OutputRows::Multi {
        rows: acc,
        tables: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::Predicate;
    use pmem_sim::{LayerKind, PCollection, PmDevice};

    #[test]
    fn naive_join_aggregate_counts_fanout() {
        let dev = PmDevice::paper_default();
        let w = wisconsin::join_input(20, 3, 1);
        let left = std::sync::Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            w.left,
        ));
        let right = std::sync::Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            w.right,
        ));
        let mut cat = Catalog::new();
        cat.add_table("T", left, 20);
        cat.add_table("V", right, 20);

        let logical = LogicalPlan::scan("T")
            .join(LogicalPlan::scan("V"))
            .aggregate();
        let out = execute_naive(&logical, &cat).expect("evaluates");
        let OutputRows::Groups(groups) = out else {
            panic!("expected groups")
        };
        assert_eq!(groups.len(), 20);
        assert!(groups.iter().all(|g| g.count == 3));
    }

    #[test]
    fn naive_filter_sort_orders_survivors() {
        let dev = PmDevice::paper_default();
        let input = std::sync::Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            wisconsin::sort_input(100, wisconsin::KeyOrder::Random, 3),
        ));
        let mut cat = Catalog::new();
        cat.add_table("T", input, 100);
        let logical = LogicalPlan::scan("T")
            .filter(Predicate::KeyBelow(40))
            .sort();
        let out = execute_naive(&logical, &cat).expect("evaluates");
        assert_eq!(out.len(), 40);
        assert_eq!(out.keys(), (0..40).collect::<Vec<_>>());
    }
}
