//! The logical-plan DSL: what to compute, with no algorithm choices.
//!
//! A [`LogicalPlan`] is a small relational tree over named base tables —
//! `scan / filter / sort / join / aggregate` — whose key predicates the
//! enumerator sizes against the catalog's table statistics. Algorithms,
//! knobs (`x`, `d`), and materialization decisions belong to the
//! physical plan.

use crate::enumerate::PlanError;
use wisconsin::Record;

/// A key predicate; its selectivity is read off the input's statistics.
///
/// Predicates are expressed over the record *key* so one filter applies
/// uniformly to base records, join pairs (keyed by the join key), and
/// aggregate groups.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Predicate {
    /// `key < bound`.
    KeyBelow(u64),
    /// `key >= bound`.
    KeyAtLeast(u64),
    /// `key % modulus == residue`.
    KeyModEq {
        /// Modulus of the congruence.
        modulus: u64,
        /// Expected residue.
        residue: u64,
    },
}

impl Predicate {
    /// Evaluates the predicate on a record.
    pub fn matches<R: Record>(&self, record: &R) -> bool {
        let key = record.key();
        match self {
            Predicate::KeyBelow(b) => key < *b,
            Predicate::KeyAtLeast(b) => key >= *b,
            Predicate::KeyModEq { modulus, residue } => key % modulus == *residue,
        }
    }

    /// Rejects the one predicate no key can be tested against,
    /// `key % 0 == r`, before a plan or an oracle run would divide by
    /// zero.
    pub(crate) fn check(&self) -> Result<(), PlanError> {
        match self {
            Predicate::KeyModEq { modulus: 0, .. } => Err(PlanError::Unsupported(format!(
                "filter [{self}]: the modulus must be positive"
            ))),
            _ => Ok(()),
        }
    }
}

/// Short display form, e.g. `key < 5000`.
impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::KeyBelow(b) => write!(f, "key < {b}"),
            Predicate::KeyAtLeast(b) => write!(f, "key >= {b}"),
            Predicate::KeyModEq { modulus, residue } => write!(f, "key % {modulus} == {residue}"),
        }
    }
}

/// A logical query plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named base table.
    Scan {
        /// Catalog name of the table.
        table: String,
    },
    /// Keep records matching the predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Key predicate.
        predicate: Predicate,
    },
    /// Order the input by key.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Equi-join the two inputs on their keys.
    Join {
        /// Build-side input.
        left: Box<LogicalPlan>,
        /// Probe-side input.
        right: Box<LogicalPlan>,
    },
    /// Group by key, aggregating the payload attribute (count, sum,
    /// min, max per group).
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Starts a plan with a base-table scan.
    pub fn scan(table: impl Into<String>) -> Self {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Filters this plan's output.
    #[must_use]
    pub fn filter(self, predicate: Predicate) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Sorts this plan's output by key.
    #[must_use]
    pub fn sort(self) -> Self {
        LogicalPlan::Sort {
            input: Box::new(self),
        }
    }

    /// Joins this plan (build side) with `right` (probe side) on key.
    #[must_use]
    pub fn join(self, right: LogicalPlan) -> Self {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Aggregates this plan's output by key.
    #[must_use]
    pub fn aggregate(self) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
        }
    }

    /// Indented tree rendering.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out, 0);
        out
    }

    fn describe_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table } => out.push_str(&format!("{pad}scan {table}\n")),
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}filter [{predicate}]\n"));
                input.describe_into(out, depth + 1);
            }
            LogicalPlan::Sort { input } => {
                out.push_str(&format!("{pad}sort\n"));
                input.describe_into(out, depth + 1);
            }
            LogicalPlan::Join { left, right } => {
                out.push_str(&format!("{pad}join\n"));
                left.describe_into(out, depth + 1);
                right.describe_into(out, depth + 1);
            }
            LogicalPlan::Aggregate { input } => {
                out.push_str(&format!("{pad}aggregate\n"));
                input.describe_into(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisconsin::WisconsinRecord;

    #[test]
    fn predicates_match() {
        let r = WisconsinRecord::from_key(10);
        assert!(Predicate::KeyBelow(11).matches(&r));
        assert!(!Predicate::KeyBelow(10).matches(&r));
        assert!(Predicate::KeyAtLeast(10).matches(&r));
        assert!(Predicate::KeyModEq {
            modulus: 5,
            residue: 0
        }
        .matches(&r));
    }

    #[test]
    fn builder_produces_the_expected_tree() {
        let plan = LogicalPlan::scan("T")
            .filter(Predicate::KeyBelow(5000))
            .join(LogicalPlan::scan("V"))
            .aggregate()
            .sort();
        let rendered = plan.describe();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "sort");
        assert_eq!(lines[1], "  aggregate");
        assert_eq!(lines[2], "    join");
        assert_eq!(lines[3].trim(), "filter [key < 5000]");
        assert_eq!(lines[4].trim(), "scan T");
        assert_eq!(lines[5].trim(), "scan V");
    }
}
