//! Table metadata the planner estimates from and the executor binds to.
//!
//! A [`Catalog`] names Wisconsin-style base tables and carries what the
//! planner needs per table: the physical shape (rows, record width, key
//! domain), the [`TableStatistics`] every cardinality estimate is
//! computed from — a sketch of the data when the registrant has one,
//! the uniform statistics its counts describe otherwise — and, when the
//! catalog is built for execution rather than pure planning, a shared
//! handle to the actual persistent collection. Bound tables are held as
//! [`Arc<PCollection>`](std::sync::Arc), so a catalog is `Clone` and
//! free of borrowed lifetimes: a database facade can own the base
//! tables, hand cheap catalog snapshots to concurrent sessions, and let
//! result streams outlive the call that produced them.

use pmem_sim::{PCollection, CACHELINE};
use std::collections::BTreeMap;
use std::sync::Arc;
use wisconsin::WisconsinRecord;
use write_limited::stats::TableStatistics;

/// Physical shape of one base table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableStats {
    /// Number of records.
    pub rows: u64,
    /// Record width in bytes.
    pub record_bytes: usize,
    /// Size of the key domain: keys lie in `[0, key_domain)`. For
    /// Wisconsin permutation inputs this equals `rows` (unique keys).
    pub key_domain: u64,
}

impl TableStats {
    /// Stats for a Wisconsin permutation table of `rows` records
    /// (80-byte records, unique keys).
    pub fn wisconsin(rows: u64) -> Self {
        Self {
            rows,
            record_bytes: wisconsin::WISCONSIN_ATTRS * 8,
            key_domain: rows,
        }
    }

    /// Table size in the paper's buffer units (cachelines).
    pub fn buffers(&self) -> f64 {
        (self.rows as f64 * self.record_bytes as f64 / CACHELINE as f64).ceil()
    }
}

/// One catalog entry: the physical shape, the statistics every estimate
/// is computed from, and — when built for execution — the bound data.
#[derive(Debug)]
struct Table {
    stats: TableStats,
    data: Option<Arc<PCollection<WisconsinRecord>>>,
    statistics: Arc<TableStatistics>,
}

/// Cloning an entry is how its statistics handle reaches a snapshot, and
/// with it every reader: the one door, so it is where "no reader ever
/// holds unsettled statistics" is checked. A writer that absorbed
/// batches runs [`Catalog::settle`] before it clones.
impl Clone for Table {
    fn clone(&self) -> Self {
        debug_assert!(
            self.statistics.is_settled(),
            "catalog snapshot taken over unsettled statistics"
        );
        Self {
            stats: self.stats,
            data: self.data.clone(),
            statistics: Arc::clone(&self.statistics),
        }
    }
}

/// Named base tables with statistics and (optionally) bound collections.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table by its counts only (planning without data). It
    /// carries the uniform statistics those counts describe.
    pub fn add_stats(&mut self, name: impl Into<String>, stats: TableStats) {
        let statistics = Arc::new(TableStatistics::uniform(stats.rows, stats.key_domain));
        self.tables.insert(
            name.into(),
            Table {
                stats,
                data: None,
                statistics,
            },
        );
    }

    /// Registers a table bound to a collection; rows and width are taken
    /// from the collection, the key domain from `key_domain`. The entry
    /// carries the uniform statistics over that domain — a caller that
    /// knows the key distribution hands it over with
    /// [`Catalog::add_table_with_statistics`].
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        data: Arc<PCollection<WisconsinRecord>>,
        key_domain: u64,
    ) {
        let statistics = Arc::new(TableStatistics::uniform(data.len() as u64, key_domain));
        self.add_table_with_statistics(name, data, key_domain, statistics);
    }

    /// [`Catalog::add_table`] with the statistics the planner's
    /// selectivity and join-cardinality estimates consume given, not
    /// assumed uniform.
    pub fn add_table_with_statistics(
        &mut self,
        name: impl Into<String>,
        data: Arc<PCollection<WisconsinRecord>>,
        key_domain: u64,
        statistics: Arc<TableStatistics>,
    ) {
        let stats = TableStats {
            rows: data.len() as u64,
            record_bytes: wisconsin::WISCONSIN_ATTRS * 8,
            key_domain,
        };
        self.tables.insert(
            name.into(),
            Table {
                stats,
                data: Some(data),
                statistics,
            },
        );
    }

    /// Mutates a bound table in place — the ingest path's one door into
    /// a registered entry. `f` receives the entry's shared data handle
    /// and its statistics handle; whether to write through a handle or
    /// replace it with a private copy is the caller's call (it can see
    /// the reference counts, the catalog cannot). Afterwards the row
    /// count is re-read from the collection and the key domain widened
    /// to cover `key_domain`. Statistics `f` absorbs keys into stay
    /// unsettled until [`Catalog::settle`], which must run before the
    /// catalog is next cloned. Returns `None`, without calling `f`, when
    /// `name` is not bound to data.
    pub fn mutate_bound<T>(
        &mut self,
        name: &str,
        key_domain: u64,
        f: impl FnOnce(&mut Arc<PCollection<WisconsinRecord>>, &mut Arc<TableStatistics>) -> T,
    ) -> Option<T> {
        let table = self.tables.get_mut(name)?;
        let data = table.data.as_mut()?;
        let out = f(data, &mut table.statistics);
        table.stats.rows = data.len() as u64;
        table.stats.key_domain = table.stats.key_domain.max(key_domain);
        Some(out)
    }

    /// Whether every table's statistics cover all the keys absorbed
    /// into them — what a catalog must be before it is cloned for a
    /// reader.
    pub fn is_settled(&self) -> bool {
        self.tables.values().all(|t| t.statistics.is_settled())
    }

    /// Settles the statistics of every table with absorbed batches
    /// pending ([`TableStatistics::settle`]); returns how many there
    /// were. Pending batches imply a handle no snapshot shares — they
    /// were absorbed through it after the last settle — so nothing is
    /// copied here.
    pub fn settle(&mut self) -> u64 {
        let mut settled = 0;
        for table in self.tables.values_mut() {
            if !table.statistics.is_settled() {
                settled += u64::from(Arc::make_mut(&mut table.statistics).settle());
            }
        }
        settled
    }

    /// Removes a table; returns whether it was registered.
    pub fn remove(&mut self, name: &str) -> bool {
        self.tables.remove(name).is_some()
    }

    /// The table's physical shape, if registered.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name).map(|t| &t.stats)
    }

    /// The table's bound collection, if registered with data.
    pub fn data(&self, name: &str) -> Option<&Arc<PCollection<WisconsinRecord>>> {
        self.tables.get(name).and_then(|t| t.data.as_ref())
    }

    /// The statistics estimates over the table are computed from, if
    /// registered.
    pub fn statistics(&self, name: &str) -> Option<&Arc<TableStatistics>> {
        self.tables.get(name).map(|t| &t.statistics)
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterates all bound tables in name order: `(name, stats, data)`.
    /// Stats-only entries are skipped — checkpointing and other
    /// whole-database walks only care about tables that hold rows.
    pub fn bound_entries(
        &self,
    ) -> impl Iterator<Item = (&str, &TableStats, &Arc<PCollection<WisconsinRecord>>)> {
        self.tables
            .iter()
            .filter_map(|(name, t)| Some((name.as_str(), &t.stats, t.data.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{LayerKind, PmDevice};

    #[test]
    fn wisconsin_stats_buffer_math() {
        let s = TableStats::wisconsin(1000);
        // 1000 × 80 B = 80 000 B = 1250 cachelines.
        assert_eq!(s.buffers(), 1250.0);
        assert_eq!(s.key_domain, 1000);
    }

    #[test]
    fn bound_tables_expose_stats_and_data() {
        let dev = PmDevice::paper_default();
        let col = Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..50).map(WisconsinRecord::from_key),
        ));
        let mut cat = Catalog::new();
        cat.add_table("T", Arc::clone(&col), 50);
        assert_eq!(cat.stats("T").unwrap().rows, 50);
        assert!(cat.data("T").is_some());
        assert!(cat.stats("missing").is_none());
        assert_eq!(cat.names(), vec!["T"]);
        // Catalogs are cheap snapshots: clones share the bound data.
        let snapshot = cat.clone();
        assert!(Arc::ptr_eq(snapshot.data("T").unwrap(), &col));
        assert!(cat.remove("T"));
        assert!(!cat.remove("T"));
        assert!(snapshot.data("T").is_some());
    }

    #[test]
    fn attached_statistics_survive_catalog_snapshots() {
        let dev = PmDevice::paper_default();
        let keys: Vec<u64> = (0..100).map(|i| i % 10).collect();
        let col = Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        ));
        let statistics = Arc::new(TableStatistics::build(&keys, 7));
        let mut cat = Catalog::new();
        cat.add_table_with_statistics("T", Arc::clone(&col), 10, Arc::clone(&statistics));
        cat.add_stats("S", TableStats::wisconsin(10));
        cat.add_table("B", Arc::clone(&col), 10);
        // How lowering registers an observed intermediate nothing re-plans.
        cat.add_table("~mid-1", col, 100);
        let snapshot = cat.clone();
        let got = snapshot.statistics("T").expect("attached");
        assert!(Arc::ptr_eq(got, &statistics));
        assert_eq!(got.rows(), 100.0);
        // Entries registered by their counts carry the uniform sketch.
        let uniform = |name: &str| (**snapshot.statistics(name).expect("registered")).clone();
        assert_eq!(uniform("S"), TableStatistics::uniform(10, 10), "stats-only");
        assert_eq!(uniform("B"), TableStatistics::uniform(100, 10), "bound");
        assert_eq!(uniform("~mid-1"), TableStatistics::uniform(100, 100));
        assert!(snapshot.statistics("missing").is_none());
    }

    #[test]
    fn mutate_bound_edits_the_entry_and_leaves_snapshots_alone() {
        let dev = PmDevice::paper_default();
        let keys: Vec<u64> = (0..10).collect();
        let col = Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        ));
        let mut cat = Catalog::new();
        cat.add_table_with_statistics("T", col, 10, Arc::new(TableStatistics::build(&keys, 7)));
        cat.add_stats("S", TableStats::wisconsin(10));
        let snapshot = cat.clone();

        // The snapshot pins the handle, so this writer swaps in a copy.
        let statistics_rows = cat.mutate_bound("T", 41, |data, statistics| {
            assert!(Arc::get_mut(data).is_none(), "shared with the snapshot");
            let mut rows = data.to_vec_uncounted();
            rows.push(WisconsinRecord::from_key(40));
            *data = Arc::new(PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "T",
                rows,
            ));
            statistics.rows()
        });
        assert_eq!(statistics_rows, Some(10.0));
        assert_eq!(cat.stats("T").unwrap().rows, 11);
        assert_eq!(cat.stats("T").unwrap().key_domain, 41);
        assert_eq!(snapshot.stats("T").unwrap().rows, 10);
        assert_eq!(snapshot.data("T").unwrap().len(), 10);
        // A narrower domain never shrinks the entry; unbound names are
        // reported without running the closure.
        assert_eq!(cat.mutate_bound("T", 5, |_, _| ()), Some(()));
        assert_eq!(cat.stats("T").unwrap().key_domain, 41);
        assert_eq!(cat.mutate_bound("S", 1, |_, _| ()), None);
        assert_eq!(cat.mutate_bound("missing", 1, |_, _| ()), None);
    }

    /// A catalog holding `T` over keys `0..10` with built statistics.
    fn sketched_catalog() -> (Catalog, Vec<u64>) {
        let dev = PmDevice::paper_default();
        let keys: Vec<u64> = (0..10).collect();
        let col = Arc::new(PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        ));
        let mut cat = Catalog::new();
        cat.add_table_with_statistics("T", col, 10, Arc::new(TableStatistics::build(&keys, 7)));
        (cat, keys)
    }

    fn absorb(cat: &mut Catalog, batch: &[u64], prior: &[u64]) {
        cat.mutate_bound("T", 0, |_, statistics| {
            Arc::make_mut(statistics).absorb(batch, || prior.to_vec());
        })
        .expect("bound");
    }

    #[test]
    fn absorbed_batches_settle_once_before_the_next_snapshot() {
        let (mut cat, keys) = sketched_catalog();
        cat.add_stats("S", TableStats::wisconsin(10));
        let snapshot = cat.clone();
        assert!(cat.is_settled());
        assert_eq!(cat.settle(), 0, "nothing absorbed yet");

        absorb(&mut cat, &[3, 3, 3, 11], &keys);
        absorb(&mut cat, &[12], &keys);
        assert!(!cat.is_settled());
        assert_eq!(cat.settle(), 1, "two batches, one table, one settle");
        assert!(cat.is_settled());
        assert_eq!(cat.settle(), 0);

        let mut all = keys.clone();
        all.extend([3, 3, 3, 11, 12]);
        let now = cat.clone();
        assert_eq!(
            **now.statistics("T").unwrap(),
            TableStatistics::build(&all, 7)
        );
        // The earlier snapshot's handle was left to it, as built.
        assert_eq!(
            **snapshot.statistics("T").unwrap(),
            TableStatistics::build(&keys, 7)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "catalog snapshot taken over unsettled statistics")]
    fn an_unsettled_catalog_cannot_be_snapshotted() {
        let (mut cat, keys) = sketched_catalog();
        absorb(&mut cat, &[11], &keys);
        let _reader = cat.clone();
    }

    #[test]
    fn stats_only_tables_have_no_data() {
        let mut cat = Catalog::new();
        cat.add_stats("S", TableStats::wisconsin(10));
        assert!(cat.data("S").is_none());
        assert_eq!(cat.stats("S").unwrap().buffers(), 13.0);
    }

    #[test]
    fn bound_entries_walks_bound_tables_in_name_order() {
        let dev = PmDevice::paper_default();
        let col = |n: u64| {
            Arc::new(PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "t",
                (0..n).map(WisconsinRecord::from_key),
            ))
        };
        let mut cat = Catalog::new();
        cat.add_table("b", col(3), 3);
        cat.add_table("a", col(5), 5);
        cat.add_stats("stats_only", TableStats::wisconsin(7));
        let seen: Vec<(&str, u64)> = cat
            .bound_entries()
            .map(|(name, stats, data)| {
                assert_eq!(stats.rows, data.len() as u64);
                (name, stats.rows)
            })
            .collect();
        assert_eq!(seen, vec![("a", 5), ("b", 3)]);
    }
}
