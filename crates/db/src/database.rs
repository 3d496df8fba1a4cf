//! The [`Database`] facade: one object owning the simulated device, the
//! persistence layer, the catalog of named tables, and the default
//! session knobs — the single entry point to the write-limited engine.
//!
//! Built with a path ([`DatabaseBuilder::open`] / [`Database::reopen`]),
//! the database is *durable*: every SQL-visible DDL statement (`CREATE
//! TABLE … AS WISCONSIN`, `INSERT`, `DROP TABLE`) appends a logical
//! record to a write-ahead log and fsyncs it **before** the catalog
//! changes, and reopening the same path replays the log over the last
//! checkpoint — recovering exactly the acknowledged statements, even
//! after a kill mid-write.

use crate::durable::{read_checkpoint, stored_keys, CheckpointWriter, RecoveryReport};
use crate::error::StorageError;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::session::{Session, SessionConfig};
use crate::wal::{read_wal, Wal, WalRecord, WAL_FILE};
use planner::Catalog;
use pmem_sim::{DeviceConfig, LatencyProfile, LayerKind, PCollection, Pm, PmDevice};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use wisconsin::{Record as _, WisconsinRecord};
use write_limited::stats::TableStatistics;

/// Sampling seed the ingest-side statistics sketches are built with —
/// fixed so the same data always yields the same sketch.
const STATS_SEED: u64 = 0x57A7;

/// A DDL statement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DdlError {
    /// `CREATE` target already exists (carries the name).
    Duplicate(String),
    /// `INSERT`/`DROP` target does not exist (carries the name).
    Unknown(String),
    /// The statement requires a durable database (opened with a path).
    NotDurable,
    /// The WAL append or checkpoint write failed; the statement was NOT
    /// applied (write-ahead discipline: no log record, no state change).
    Storage(StorageError),
}

impl std::fmt::Display for DdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdlError::Duplicate(name) => write!(f, "table \"{name}\" already exists"),
            DdlError::Unknown(name) => write!(f, "unknown table \"{name}\""),
            DdlError::NotDurable => {
                write!(f, "database is not durable (opened without a path)")
            }
            DdlError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DdlError {}

impl From<StorageError> for DdlError {
    fn from(e: StorageError) -> Self {
        DdlError::Storage(e)
    }
}

/// Durable-side state: the database directory and the open log.
#[derive(Debug)]
struct DurableState {
    dir: PathBuf,
    wal: Wal,
}

/// A write-limited database: device + catalog + planner defaults.
///
/// Build one with [`Database::builder`], then open [`Session`]s to run
/// SQL. Tables live in persistent collections owned by the catalog
/// behind shared handles, so concurrent sessions and outstanding
/// [`crate::ResultStream`]s keep working across DDL.
///
/// ```
/// use wl_db::Database;
///
/// let db = Database::builder().dram_records(500).build();
/// let mut session = db.session();
/// session.execute("CREATE TABLE t AS WISCONSIN(2000)").unwrap();
/// let mut stream = session.query("SELECT * FROM t WHERE key < 3 ORDER BY key").unwrap();
/// let batch = stream.next_batch().unwrap().expect("rows");
/// assert_eq!(batch.rows.len(), 3);
/// ```
#[derive(Debug)]
pub struct Database {
    dev: Pm,
    layer: LayerKind,
    catalog: RwLock<Catalog>,
    defaults: SessionConfig,
    metrics: Arc<EngineMetrics>,
    /// WAL + directory when opened with a path; `None` = in-memory only.
    durable: Option<Mutex<DurableState>>,
    /// What `open`/`reopen` found on disk; `None` for in-memory builds.
    recovery: Option<RecoveryReport>,
}

impl Database {
    /// Starts a builder with the paper-default device (PCM λ = 15,
    /// blocked-memory layer).
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// Opens (or initializes) a durable database at `path` with default
    /// knobs. Equivalent to `Database::builder().open(path)`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::builder().open(path)
    }

    /// Reopens a durable database directory, running crash recovery:
    /// load the checkpoint, replay acknowledged WAL records past it,
    /// drop any torn tail, re-checkpoint. An alias of [`Database::open`]
    /// named for what it does after a crash.
    pub fn reopen(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open(path)
    }

    /// The simulated device every table and query is charged to.
    pub fn device(&self) -> &Pm {
        &self.dev
    }

    /// The persistence layer intermediates and tables are written
    /// through.
    pub fn layer(&self) -> LayerKind {
        self.layer
    }

    /// Default knobs new sessions start from.
    pub fn defaults(&self) -> &SessionConfig {
        &self.defaults
    }

    /// Opens a session with the database's default knobs.
    pub fn session(&self) -> Session<'_> {
        Session::new(self, self.defaults.clone())
    }

    /// A catalog snapshot (cheap: shared table handles) — the one place
    /// readers get table statistics from, and so the place the batches
    /// `INSERT`s merged in since the last snapshot are settled: once per
    /// reader, under the write lock, however many statements absorbed
    /// them. A snapshot therefore always carries what
    /// [`TableStatistics::build`] over each table's keys computes.
    pub fn catalog(&self) -> Catalog {
        {
            let catalog = self.catalog.read().unwrap_or_else(|e| e.into_inner());
            if catalog.is_settled() {
                return catalog.clone();
            }
        }
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        self.metrics.note_stats_settles(catalog.settle());
        catalog.clone()
    }

    /// The engine-wide metrics registry streams fold their counters into.
    pub(crate) fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// A point-in-time copy of the engine-wide counters — the
    /// programmatic face of `SHOW METRICS`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Creates a Wisconsin table: `rows` distinct keys × `fanout`
    /// records per key (permuted by `seed`), loaded uncounted like the
    /// paper's experiment inputs. `rows = 0` creates a legitimately
    /// empty table (queries over it yield empty results). Returns the
    /// total row count.
    ///
    /// On a durable database the generator parameters are WAL-logged
    /// and fsynced before the table appears (the generator is
    /// deterministic, so replay regenerates the table exactly).
    pub fn create_wisconsin(
        &self,
        name: &str,
        rows: u64,
        fanout: u64,
        seed: u64,
    ) -> Result<u64, DdlError> {
        self.create_wisconsin_skewed(name, rows, fanout, seed, 0.0)
    }

    /// [`Database::create_wisconsin`] with a Zipf exponent on the key
    /// draw: `skew = 0` is the classic uniform generator; larger values
    /// concentrate the `rows × fanout` records on the low keys of the
    /// `rows`-wide domain. Deterministic in all four parameters.
    pub fn create_wisconsin_skewed(
        &self,
        name: &str,
        rows: u64,
        fanout: u64,
        seed: u64,
        skew: f64,
    ) -> Result<u64, DdlError> {
        let records = Self::generate_wisconsin(rows, fanout, seed, skew);
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        if catalog.stats(name).is_some() {
            return Err(DdlError::Duplicate(name.to_string()));
        }
        self.log(WalRecord::Create {
            name: name.to_string(),
            rows,
            fanout,
            seed,
            skew,
        })?;
        Ok(self.install_records(&mut catalog, name, records, rows))
    }

    fn generate_wisconsin(rows: u64, fanout: u64, seed: u64, skew: f64) -> Vec<WisconsinRecord> {
        assert!(fanout > 0, "degenerate Wisconsin fanout");
        if rows == 0 {
            Vec::new()
        } else if skew > 0.0 {
            wisconsin::skewed_input(rows * fanout, fanout, skew, seed)
        } else if fanout == 1 {
            wisconsin::sort_input(rows, wisconsin::KeyOrder::Random, seed)
        } else {
            wisconsin::join_right_input(rows, fanout, seed)
        }
    }

    /// Stages `records` as a collection and installs it; returns rows.
    fn install_records(
        &self,
        catalog: &mut Catalog,
        name: &str,
        records: Vec<WisconsinRecord>,
        key_domain: u64,
    ) -> u64 {
        let keys: Vec<u64> = records.iter().map(WisconsinRecord::key).collect();
        let col = PCollection::from_records_uncounted(&self.dev, self.layer, name, records);
        self.install_table(catalog, name, col, &keys, key_domain)
    }

    /// Puts a staged collection in the catalog; returns rows. A
    /// key-frequency sketch is built over `keys` — the collection's, in
    /// any order — and attached, so the planner sees the table's real
    /// skew.
    fn install_table(
        &self,
        catalog: &mut Catalog,
        name: &str,
        col: PCollection<WisconsinRecord>,
        keys: &[u64],
        key_domain: u64,
    ) -> u64 {
        let statistics = Arc::new(TableStatistics::build(keys, STATS_SEED));
        let rows = col.len() as u64;
        catalog.add_table_with_statistics(name, Arc::new(col), key_domain, statistics);
        rows
    }

    /// Registers a pre-built table (staged uncounted, like experiment
    /// inputs). `key_domain` is the size of the range `[0, key_domain)`
    /// the keys are drawn from; selectivities come from the sketch built
    /// over the records themselves. Returns the row count.
    ///
    /// Arbitrary records have no logical WAL representation, so this is
    /// **not** WAL-logged even on a durable database — it is covered by
    /// the next checkpoint only. The SQL surface never reaches it.
    pub fn register_table(
        &self,
        name: &str,
        records: impl IntoIterator<Item = WisconsinRecord>,
        key_domain: u64,
    ) -> Result<u64, DdlError> {
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        if catalog.stats(name).is_some() {
            return Err(DdlError::Duplicate(name.to_string()));
        }
        Ok(self.install_records(
            &mut catalog,
            name,
            records.into_iter().collect(),
            key_domain,
        ))
    }

    /// Appends `keys` to a table as fresh Wisconsin records (all ten
    /// attributes derived from the key). Returns the rows inserted.
    /// WAL-logged (keys, in order) on a durable database.
    pub fn insert_keys(&self, table: &str, keys: &[u64]) -> Result<u64, DdlError> {
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        if catalog.data(table).is_none() {
            return Err(DdlError::Unknown(table.to_string()));
        }
        self.log(WalRecord::Insert {
            table: table.to_string(),
            keys: keys.to_vec(),
        })?;
        self.apply_insert(&mut catalog, table, keys);
        Ok(keys.len() as u64)
    }

    /// Applies an `INSERT` to the catalog — the one path the live
    /// statement (after its WAL record is durable) and replay share.
    /// Returns whether `table` was bound.
    ///
    /// The new rows are appended to the table's collection in place and
    /// their keys merged into its statistics, so the work is O(batch);
    /// deriving the statistics a reader sees waits for that reader
    /// ([`Database::catalog`]). Both live behind shared handles: when a
    /// catalog snapshot or an open [`crate::ResultStream`] still holds
    /// one, that version is left to its readers and the table continues
    /// on a private copy — the only branch that touches every row.
    fn apply_insert(&self, catalog: &mut Catalog, table: &str, keys: &[u64]) -> bool {
        let key_domain = keys.iter().map(|k| k.saturating_add(1)).max().unwrap_or(0);
        let fresh = || keys.iter().copied().map(WisconsinRecord::from_key);
        let copied = catalog.mutate_bound(table, key_domain, |data, statistics| {
            // Before the append, so `data` is exactly the prior rows
            // should the mergeable state have to be materialised.
            Arc::make_mut(statistics).absorb(keys, || {
                let mut prior = Vec::with_capacity(data.len());
                data.for_each_run_uncounted(|run| prior.extend(stored_keys(run)));
                prior
            });
            match Arc::get_mut(data) {
                Some(col) => {
                    col.extend_uncounted(fresh());
                    false
                }
                None => {
                    let rows = data.to_vec_uncounted().into_iter().chain(fresh());
                    *data = Arc::new(PCollection::from_records_uncounted(
                        &self.dev, self.layer, table, rows,
                    ));
                    true
                }
            }
        });
        if let Some(copied) = copied {
            self.metrics.note_ingest(keys.len() as u64, copied);
        }
        copied.is_some()
    }

    /// Drops a table; returns whether it existed. Outstanding streams
    /// over the table keep their shared handle. WAL-logged on a durable
    /// database (only when the table exists — failed drops log nothing).
    pub fn drop_table(&self, name: &str) -> Result<bool, DdlError> {
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        if catalog.stats(name).is_none() {
            return Ok(false);
        }
        self.log(WalRecord::Drop {
            name: name.to_string(),
        })?;
        Ok(catalog.remove(name))
    }

    /// Appends `record` to the WAL and fsyncs it (no-op when not
    /// durable). Called with the catalog write lock held, so the logged
    /// order and the applied order agree.
    fn log(&self, record: WalRecord) -> Result<(), DdlError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let mut state = durable.lock().unwrap_or_else(|e| e.into_inner());
        let (_lsn, bytes) = state.wal.append(&record, &self.dev)?;
        self.metrics.note_wal_append(bytes);
        self.metrics.note_fsync();
        Ok(())
    }

    /// Whether the database was opened with a path (WAL + checkpoints).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What `open`/`reopen` found on disk (`None` for in-memory builds).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Materializes the full catalog into a fresh checkpoint and resets
    /// the WAL behind it. Returns `(tables, rows, checkpoint_bytes)`.
    pub fn checkpoint(&self) -> Result<(u64, u64, u64), DdlError> {
        let Some(durable) = &self.durable else {
            return Err(DdlError::NotDurable);
        };
        // Lock order everywhere: catalog before durable.
        let catalog = self.catalog.read().unwrap_or_else(|e| e.into_inner());
        let mut state = durable.lock().unwrap_or_else(|e| e.into_inner());
        let last_lsn = state.wal.last_lsn();
        let written = self.write_checkpoint(&catalog, &state.dir, last_lsn)?;
        state.wal = Wal::create(&state.dir, &self.dev, last_lsn)?;
        self.metrics.note_fsync();
        Ok(written)
    }

    /// Writes every bound table's full contents, stamped with
    /// `last_lsn`, as the checkpoint of `dir`: each table's rows go from
    /// its collection into the image as stored, a run at a time.
    /// Returns `(tables, rows, checkpoint_bytes)`.
    fn write_checkpoint(
        &self,
        catalog: &Catalog,
        dir: &Path,
        last_lsn: u64,
    ) -> Result<(u64, u64, u64), StorageError> {
        let started = Instant::now();
        let tables = catalog.bound_entries().count();
        let mut image = CheckpointWriter::new(last_lsn, tables as u32);
        let mut rows = 0;
        for (name, stats, data) in catalog.bound_entries() {
            image.table(name, stats.key_domain, data.len() as u64);
            data.for_each_run_uncounted(|run| image.rows(run));
            rows += data.len() as u64;
        }
        let bytes = image.publish(dir, &self.dev)?;
        self.metrics.note_fsync();
        self.metrics
            .note_checkpoint(started.elapsed().as_nanos() as u64);
        Ok((tables as u64, rows, bytes))
    }

    /// Registered tables as `(name, rows)`, sorted by name.
    pub fn tables(&self) -> Vec<(String, u64)> {
        let catalog = self.catalog.read().unwrap_or_else(|e| e.into_inner());
        catalog
            .names()
            .into_iter()
            .map(|n| {
                let rows = catalog.stats(n).map_or(0, |s| s.rows);
                (n.to_string(), rows)
            })
            .collect()
    }
}

/// Builder-style configuration of a [`Database`].
#[derive(Clone, Debug)]
pub struct DatabaseBuilder {
    config: DeviceConfig,
    layer: LayerKind,
    defaults: SessionConfig,
}

impl Default for DatabaseBuilder {
    fn default() -> Self {
        Self {
            config: DeviceConfig::paper_default(),
            layer: LayerKind::BlockedMemory,
            defaults: SessionConfig::default(),
        }
    }
}

impl DatabaseBuilder {
    /// Uses an explicit device configuration.
    #[must_use]
    pub fn device(mut self, config: DeviceConfig) -> Self {
        self.config = config;
        self
    }

    /// Targets a medium with the given write/read cost ratio λ (10 ns
    /// reads, `10·λ` ns writes).
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.config = self
            .config
            .with_latency(LatencyProfile::with_lambda(10.0, lambda));
        self
    }

    /// Persistence layer for tables and intermediates.
    #[must_use]
    pub fn layer(mut self, layer: LayerKind) -> Self {
        self.layer = layer;
        self
    }

    /// Default per-session DRAM budget in bytes.
    #[must_use]
    pub fn dram_budget(mut self, bytes: usize) -> Self {
        self.defaults.dram_bytes = bytes.max(1);
        self
    }

    /// Default per-session DRAM budget in 80-byte Wisconsin records (the
    /// paper's `M`).
    #[must_use]
    pub fn dram_records(self, records: usize) -> Self {
        self.dram_budget(records.saturating_mul(WisconsinRecord::SIZE))
    }

    /// Default degree of parallelism. Explicit here, so it outranks the
    /// `WL_THREADS` environment variable through the shared resolver.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.defaults.threads = Some(threads.max(1));
        self
    }

    /// Default result batch size in rows.
    #[must_use]
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.defaults.batch_rows = rows.max(1);
        self
    }

    /// Builds an in-memory database (no WAL, no checkpoints).
    pub fn build(self) -> Database {
        Database {
            dev: PmDevice::new(self.config),
            layer: self.layer,
            catalog: RwLock::new(Catalog::new()),
            defaults: self.defaults,
            metrics: Arc::new(EngineMetrics::default()),
            durable: None,
            recovery: None,
        }
    }

    /// Opens (or initializes) a durable database in the directory
    /// `path`, running crash recovery if the directory already holds
    /// one:
    ///
    /// 1. load `checkpoint.bin` (typed error if damaged — checkpoints
    ///    are published atomically, damage is real corruption),
    /// 2. replay every intact `wal.log` record past the checkpoint's
    ///    LSN, dropping at most a torn tail frame,
    /// 3. write a fresh checkpoint and reset the log — torn tails are
    ///    scrubbed by rewrite, never by truncating in place.
    ///
    /// The result is exactly the acknowledged statement prefix: a
    /// statement whose WAL record was fsynced survives, one whose
    /// record was cut does not — and the cut is detected, not guessed.
    pub fn open(self, path: impl AsRef<Path>) -> Result<Database, StorageError> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::file(dir.display().to_string(), e.to_string()))?;
        let mut db = self.build();

        let started = Instant::now();
        let checkpoint = read_checkpoint(&dir)?;
        let fresh = checkpoint.is_none() && !dir.join(WAL_FILE).exists();
        let mut report = RecoveryReport {
            fresh,
            ..Default::default()
        };
        let mut last_lsn = 0;
        if let Some(ckpt) = checkpoint {
            last_lsn = ckpt.last_lsn;
            let mut catalog = db.catalog.write().unwrap_or_else(|e| e.into_inner());
            for table in ckpt.tables() {
                let keys: Vec<u64> = table.keys().collect();
                let mut col = PCollection::new(&db.dev, db.layer, table.name);
                col.extend_bytes_uncounted(table.rows);
                db.install_table(&mut catalog, table.name, col, &keys, table.key_domain);
            }
        } else if !fresh {
            // A WAL without any checkpoint: initialization never
            // completed its first checkpoint, or the checkpoint was
            // deleted. Either way there is no base to replay onto.
            return Err(StorageError::file(
                dir.join("checkpoint.bin").display().to_string(),
                "WAL present but checkpoint missing",
            ));
        }

        let readout = read_wal(&dir.join(WAL_FILE))?;
        if readout.base_lsn > last_lsn {
            return Err(StorageError::file(
                dir.join(WAL_FILE).display().to_string(),
                format!(
                    "WAL starts after LSN {} but checkpoint covers only {} (log gap)",
                    readout.base_lsn, last_lsn
                ),
            ));
        }
        report.dropped_wal_bytes = readout.dropped_tail_bytes;
        for (i, record) in readout.records.iter().enumerate() {
            let lsn = readout.base_lsn + 1 + i as u64;
            if lsn <= last_lsn {
                continue; // already inside the checkpoint
            }
            db.replay(record, &dir, lsn)?;
            last_lsn = lsn;
            report.replayed_records += 1;
        }

        // Re-checkpoint: bounds future replay, scrubs any torn tail,
        // and leaves the directory clean for the next open.
        {
            let catalog = db.catalog.read().unwrap_or_else(|e| e.into_inner());
            (report.tables, report.rows, _) = db.write_checkpoint(&catalog, &dir, last_lsn)?;
        }
        let wal = Wal::create(&dir, &db.dev, last_lsn)?;
        db.metrics.note_fsync();
        if !fresh {
            db.metrics
                .note_recovery(report.replayed_records, started.elapsed().as_nanos() as u64);
        }
        db.durable = Some(Mutex::new(DurableState { dir, wal }));
        db.recovery = Some(report);
        Ok(db)
    }
}

impl Database {
    /// Applies one replayed WAL record (no re-logging). Malformed
    /// replay — a create of an existing table, an insert into or drop
    /// of a missing one — means log and checkpoint disagree: typed
    /// corruption error, never a panic.
    fn replay(&self, record: &WalRecord, dir: &Path, lsn: u64) -> Result<(), StorageError> {
        let conflict = |what: String| {
            StorageError::file(
                dir.join(WAL_FILE).display().to_string(),
                format!("replay conflict at LSN {lsn}: {what}"),
            )
        };
        let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        match record {
            WalRecord::Create {
                name,
                rows,
                fanout,
                seed,
                skew,
            } => {
                if catalog.stats(name).is_some() {
                    return Err(conflict(format!("table \"{name}\" already exists")));
                }
                let records = Self::generate_wisconsin(*rows, *fanout, *seed, *skew);
                self.install_records(&mut catalog, name, records, *rows);
            }
            WalRecord::Insert { table, keys } => {
                if !self.apply_insert(&mut catalog, table, keys) {
                    return Err(conflict(format!("insert into missing table \"{table}\"")));
                }
            }
            WalRecord::Drop { name } => {
                if !catalog.remove(name) {
                    return Err(conflict(format!("drop of missing table \"{name}\"")));
                }
            }
        }
        Ok(())
    }
}

// `Storable` gives records their serialized size; used by
// `dram_records`.
use pmem_sim::Storable;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_table_lifecycle() {
        let db = Database::builder().lambda(8.0).dram_records(200).build();
        assert_eq!(db.device().lambda(), 8.0);
        assert_eq!(db.create_wisconsin("t", 100, 1, 1).expect("fresh"), 100);
        assert_eq!(db.create_wisconsin("v", 100, 3, 1).expect("fresh"), 300);
        assert_eq!(
            db.tables(),
            vec![("t".to_string(), 100), ("v".to_string(), 300)]
        );
        assert_eq!(
            db.create_wisconsin("t", 5, 1, 1).unwrap_err(),
            DdlError::Duplicate("t".into())
        );
        assert!(db.drop_table("t").unwrap());
        assert!(!db.drop_table("t").unwrap());
    }

    #[test]
    fn skewed_creates_are_deterministic_and_attach_statistics() {
        let contents = || {
            let db = Database::builder().build();
            db.create_wisconsin_skewed("z", 500, 4, 7, 1.2)
                .expect("fresh");
            db.catalog().data("z").unwrap().to_vec_uncounted()
        };
        let a = contents();
        assert_eq!(a.len(), 2000);
        assert_eq!(a, contents(), "same parameters, same table");
        // Skew concentrates mass: the sketch must flag heavy keys the
        // uniform generator never produces.
        let db = Database::builder().build();
        db.create_wisconsin_skewed("z", 500, 4, 7, 1.2)
            .expect("fresh");
        db.create_wisconsin("u", 500, 4, 7).expect("fresh");
        let cat = db.catalog();
        let z = cat.statistics("z").expect("sketch attached");
        assert!(z.rows() == 2000.0 && !z.heavy_keys().is_empty());
        assert!(cat
            .statistics("u")
            .expect("sketch attached")
            .heavy_keys()
            .is_empty());
    }

    #[test]
    fn skewed_tables_survive_reopen() {
        let dir = tmpdir("skew-reopen");
        let before = {
            let db = Database::open(&dir).unwrap();
            db.create_wisconsin_skewed("z", 200, 2, 9, 1.1).unwrap();
            db.catalog().data("z").unwrap().to_vec_uncounted()
        };
        let db = Database::reopen(&dir).unwrap();
        assert_eq!(db.tables(), vec![("z".to_string(), 400)]);
        assert_eq!(
            db.catalog().data("z").unwrap().to_vec_uncounted(),
            before,
            "replay regenerates the skewed table exactly"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_snapshots_survive_drops() {
        let db = Database::builder().build();
        db.create_wisconsin("t", 50, 1, 9).expect("fresh");
        let snapshot = db.catalog();
        assert!(db.drop_table("t").unwrap());
        assert!(snapshot.data("t").is_some(), "snapshot keeps the handle");
        assert!(db.catalog().data("t").is_none());
    }

    #[test]
    fn insert_appends_keys_and_grows_the_domain() {
        let db = Database::builder().build();
        db.create_wisconsin("t", 10, 1, 1).expect("fresh");
        assert_eq!(db.insert_keys("t", &[100, 200]).unwrap(), 2);
        let cat = db.catalog();
        assert_eq!(cat.stats("t").unwrap().rows, 12);
        assert_eq!(cat.stats("t").unwrap().key_domain, 201);
        assert_eq!(
            db.insert_keys("missing", &[1]).unwrap_err(),
            DdlError::Unknown("missing".into())
        );
        assert!(!db.is_durable());
        assert_eq!(db.checkpoint().unwrap_err(), DdlError::NotDurable);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("wl-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Drains `stream` into its `key` column.
    fn keys_of(stream: &mut crate::ResultStream) -> Vec<u64> {
        let mut keys = Vec::new();
        while let Some(batch) = stream.next_batch().expect("streams") {
            keys.extend(batch.rows.iter().map(|r| r[0]));
        }
        keys
    }

    #[test]
    fn inserts_copy_on_write_under_readers_and_append_in_place_otherwise() {
        let db = Database::builder().build();
        db.create_wisconsin("t", 50, 1, 3).expect("fresh");
        let session = db.session();
        let mut stream = session
            .query("SELECT * FROM t ORDER BY key")
            .expect("plans");
        let snapshot = db.catalog();
        let old_statistics = snapshot.statistics("t").expect("attached").clone();

        // The stream and the snapshot pin the 50-row version: this
        // insert must leave it to them and continue on a copy.
        assert_eq!(db.insert_keys("t", &[1000, 1001]).unwrap(), 2);
        let m = db.metrics_snapshot();
        assert_eq!((m.ingest_rows_appended, m.ingest_table_copies), (2, 1));
        assert_eq!(keys_of(&mut stream), (0..50).collect::<Vec<u64>>());
        assert_eq!(snapshot.stats("t").unwrap().rows, 50);
        assert_eq!(snapshot.data("t").unwrap().len(), 50);
        // Its statistics too are the old version, settled: what the
        // insert merged went into the copy, and is derived for the next
        // reader, not for this one.
        assert_eq!(snapshot.statistics("t").unwrap(), &old_statistics);
        assert!(snapshot.statistics("t").unwrap().is_settled());
        assert_eq!(*old_statistics, rebuilt_statistics(&snapshot, "t"));
        assert_eq!(db.metrics_snapshot().stats_settles, 0);
        let now = db.catalog();
        assert_eq!(now.stats("t").unwrap().rows, 52);
        assert_eq!(
            **now.statistics("t").unwrap(),
            rebuilt_statistics(&now, "t")
        );
        assert_eq!(db.metrics_snapshot().stats_settles, 1);
        drop(now);

        // No reader outstanding: the next insert extends the very same
        // collection, and a stream opened afterwards sees every row.
        drop((stream, snapshot));
        let before = Arc::as_ptr(db.catalog().data("t").unwrap());
        assert_eq!(db.insert_keys("t", &[2000]).unwrap(), 1);
        let m = db.metrics_snapshot();
        assert_eq!((m.ingest_rows_appended, m.ingest_table_copies), (3, 1));
        assert_eq!(Arc::as_ptr(db.catalog().data("t").unwrap()), before);
        let mut stream = session
            .query("SELECT * FROM t ORDER BY key")
            .expect("plans");
        let mut expect: Vec<u64> = (0..50).collect();
        expect.extend([1000, 1001, 2000]);
        assert_eq!(keys_of(&mut stream), expect);
    }

    /// What [`TableStatistics::build`] computes over the rows `catalog`
    /// holds of `table` — what its statistics must equal whenever a
    /// reader can see them.
    fn rebuilt_statistics(catalog: &Catalog, table: &str) -> TableStatistics {
        let rows = catalog.data(table).expect("bound").to_vec_uncounted();
        let keys: Vec<u64> = rows.iter().map(WisconsinRecord::key).collect();
        TableStatistics::build(&keys, STATS_SEED)
    }

    #[test]
    fn inserted_tables_carry_the_statistics_a_rebuild_would() {
        let db = Database::builder().build();
        db.create_wisconsin_skewed("z", 300, 4, 5, 1.1)
            .expect("fresh");
        for batch in [&[7u64, 7, 7, 900][..], &[], &[3, 2, 1], &[7, 5000]] {
            db.insert_keys("z", batch).unwrap();
        }
        let catalog = db.catalog();
        assert_eq!(
            **catalog.statistics("z").expect("attached"),
            rebuilt_statistics(&catalog, "z")
        );
        assert_eq!(catalog.stats("z").unwrap().key_domain, 5001);
        // Three batches that changed something, one derivation.
        assert_eq!(db.metrics_snapshot().stats_settles, 1);
    }

    /// Renders `EXPLAIN sql` after running it, as `wlsql` prints it.
    fn explain(db: &Database, sql: &str) -> String {
        let crate::Response::Explain(mut stream) = db
            .session()
            .execute(&format!("EXPLAIN {sql}"))
            .expect("plans")
        else {
            panic!("expected an EXPLAIN response");
        };
        stream.drain().expect("runs");
        stream.explain()
    }

    #[test]
    fn an_insert_burst_explains_like_a_database_rebuilt_from_its_rows() {
        let db = Database::builder().dram_records(300).threads(1).build();
        db.create_wisconsin_skewed("z", 300, 4, 5, 1.1)
            .expect("fresh");
        db.create_wisconsin("u", 500, 2, 9).expect("fresh");
        for i in 0..60u64 {
            // A new heavy hitter, keys below, inside and past the domain.
            db.insert_keys("z", &[250, 250, 250, i, 1000 + i]).unwrap();
            if i % 3 == 0 {
                db.insert_keys("u", &[600 - i, i % 7]).unwrap();
            }
        }
        assert_eq!(db.metrics_snapshot().stats_settles, 0, "nobody read yet");

        let rebuilt = Database::builder().dram_records(300).threads(1).build();
        let catalog = db.catalog();
        for (name, stats, data) in catalog.bound_entries() {
            rebuilt
                .register_table(name, data.to_vec_uncounted(), stats.key_domain)
                .expect("fresh");
        }
        assert_eq!(db.metrics_snapshot().stats_settles, 2, "one per table");
        drop(catalog);
        for sql in [
            "SELECT * FROM z JOIN u ON z.key = u.key WHERE z.key < 260 ORDER BY key",
            "SELECT * FROM z WHERE key >= 250 GROUP BY key ORDER BY key",
            "SELECT * FROM u JOIN z ON u.key = z.key WHERE u.key % 7 = 3",
        ] {
            assert_eq!(explain(&db, sql), explain(&rebuilt, sql), "{sql}");
        }
        assert_eq!(
            db.metrics_snapshot().stats_settles,
            2,
            "reads settle nothing"
        );
        assert_eq!(rebuilt.metrics_snapshot().stats_settles, 0);
    }

    #[test]
    fn statistics_equal_a_rebuild_wherever_a_reader_can_look() {
        // Seeded interleavings of INSERT / SELECT / EXPLAIN / CHECKPOINT
        // / reopen over two tables: every snapshot a reader is handed
        // carries, per table, exactly `build` over the rows it holds.
        let check = |db: &Database, what: &str| {
            let catalog = db.catalog();
            for table in ["t", "z"] {
                let statistics = catalog.statistics(table).expect("attached");
                assert!(statistics.is_settled(), "{what}: {table}");
                assert_eq!(
                    **statistics,
                    rebuilt_statistics(&catalog, table),
                    "{what}: {table}"
                );
            }
        };
        let settles = |db: &Database| db.metrics_snapshot().stats_settles;
        let count = |flags: [bool; 2]| flags.iter().filter(|&&f| f).count() as u64;
        for seed in 0..6u64 {
            let dir = tmpdir(&format!("interleave-{seed}"));
            let mut db = Database::open(&dir).unwrap();
            db.create_wisconsin("t", 200, 1, seed).unwrap();
            db.create_wisconsin_skewed("z", 100, 3, seed, 1.2).unwrap();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // Tables inserted into since a reader last looked, and since
            // the log was last reset.
            let (mut unread, mut logged) = ([false; 2], [false; 2]);
            for step in 0..120 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let what = format!("seed {seed}, step {step}");
                let before = settles(&db);
                match x % 16 {
                    0..=8 => {
                        let which = (x >> 8) as usize % 2;
                        let keys: Vec<u64> = (0..1 + (x >> 16) % 6)
                            .map(|i| (x >> (20 + i)) % 400)
                            .collect();
                        db.insert_keys(["t", "z"][which], &keys).unwrap();
                        (unread[which], logged[which]) = (true, true);
                        continue;
                    }
                    9..=10 => {
                        let mut stream = db
                            .session()
                            .query("SELECT * FROM t JOIN z ON t.key = z.key WHERE z.key < 40")
                            .expect("plans");
                        stream.drain().expect("runs");
                    }
                    11 => {
                        explain(&db, "SELECT * FROM z WHERE key >= 50 ORDER BY key");
                    }
                    12 => {
                        // A checkpoint reads rows, not statistics.
                        db.checkpoint().unwrap();
                        assert_eq!(settles(&db), before, "{what}");
                        logged = [false; 2];
                        continue;
                    }
                    13 => {
                        // Replay merges what the log held; the first
                        // reader derives it, once per table.
                        drop(db);
                        db = Database::reopen(&dir).unwrap();
                        assert_eq!(settles(&db), 0, "{what}");
                        check(&db, &what);
                        assert_eq!(settles(&db), count(logged), "{what}");
                        (unread, logged) = ([false; 2], [false; 2]);
                        continue;
                    }
                    _ => {}
                }
                // Whoever read first — the statement above or this
                // check — settled each table written since, once.
                check(&db, &what);
                assert_eq!(settles(&db) - before, count(unread), "{what}");
                unread = [false; 2];
            }
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn replayed_inserts_are_derived_at_most_once_per_table() {
        let dir = tmpdir("replay-settles");
        {
            let db = Database::open(&dir).unwrap();
            db.create_wisconsin("t", 100, 1, 1).unwrap();
            db.create_wisconsin("quiet", 10, 1, 1).unwrap();
            db.checkpoint().unwrap();
            db.create_wisconsin("late", 50, 2, 3).unwrap();
            for i in 0..40u64 {
                db.insert_keys("t", &[100 + i, i]).unwrap();
                db.insert_keys("late", &[7]).unwrap();
            }
        }
        let db = Database::reopen(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed_records, 81);
        let m = db.metrics_snapshot();
        assert_eq!(m.stats_settles, 0, "replay merges, it does not derive");
        assert!(m.recovery_wall_ns > 0 && m.checkpoint_wall_ns > 0);
        assert!(m.checkpoint_wall_ns <= m.recovery_wall_ns);
        // The first reader pays for the two tables replay inserted into,
        // once each; the table nothing was inserted into costs nothing.
        let catalog = db.catalog();
        assert_eq!(db.metrics_snapshot().stats_settles, 2);
        for table in ["t", "late", "quiet"] {
            assert_eq!(
                **catalog.statistics(table).unwrap(),
                rebuilt_statistics(&catalog, table),
                "{table}"
            );
        }
        drop(catalog);
        db.catalog();
        db.session().query("SELECT * FROM t").expect("plans");
        assert_eq!(db.metrics_snapshot().stats_settles, 2);
        // A fresh open is not a recovery.
        let fresh = tmpdir("replay-settles-fresh");
        let m = Database::open(&fresh).unwrap().metrics_snapshot();
        assert_eq!((m.recoveries, m.recovery_wall_ns), (0, 0));
        assert!(
            m.checkpoint_wall_ns > 0,
            "it still writes its first checkpoint"
        );
        std::fs::remove_dir_all(&fresh).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_the_live_table_and_statistics() {
        for layer in [LayerKind::BlockedMemory, LayerKind::FileBacked] {
            let dir = tmpdir(&format!("reopen-equal-{layer:?}"));
            let open = || Database::builder().layer(layer).open(&dir).unwrap();
            let live = {
                let db = open();
                db.create_wisconsin_skewed("t", 400, 2, 11, 1.2).unwrap();
                for i in 0..12u64 {
                    // Ascending, descending and duplicate keys; one
                    // checkpoint mid-way so both recovery halves run.
                    db.insert_keys("t", &[1000 + i, 999 - i, 5, 5]).unwrap();
                    if i == 5 {
                        db.checkpoint().unwrap();
                    }
                }
                assert_eq!(db.metrics_snapshot().ingest_table_copies, 0);
                let cat = db.catalog();
                (
                    cat.data("t").unwrap().to_vec_uncounted(),
                    *cat.stats("t").unwrap(),
                    (**cat.statistics("t").unwrap()).clone(),
                )
            };
            let db = open();
            assert_eq!(db.recovery_report().unwrap().replayed_records, 6);
            let m = db.metrics_snapshot();
            assert_eq!((m.ingest_rows_appended, m.ingest_table_copies), (24, 0));
            let cat = db.catalog();
            assert_eq!(
                cat.data("t").unwrap().to_vec_uncounted(),
                live.0,
                "{layer:?}"
            );
            assert_eq!(*cat.stats("t").unwrap(), live.1, "{layer:?}");
            assert_eq!(**cat.statistics("t").unwrap(), live.2, "{layer:?}");
            drop((cat, db));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn inserting_the_largest_key_survives_reopen() {
        // `key + 1` used to overflow after the WAL record was durable:
        // a panic on the statement and again on every replay of it.
        let dir = tmpdir("max-key");
        {
            let db = Database::open(&dir).unwrap();
            db.create_wisconsin("t", 10, 1, 1).unwrap();
            let mut session = db.session();
            session
                .execute("INSERT INTO t VALUES (18446744073709551615), (11)")
                .expect("acknowledged");
            assert_eq!(db.catalog().stats("t").unwrap().key_domain, u64::MAX);
        }
        let db = Database::reopen(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed_records, 2);
        assert_eq!(db.tables(), vec![("t".to_string(), 12)]);
        assert_eq!(db.catalog().stats("t").unwrap().key_domain, u64::MAX);
        let mut stream = db
            .session()
            .query("SELECT * FROM t WHERE key >= 10 ORDER BY key")
            .expect("plans");
        assert_eq!(keys_of(&mut stream), [11, u64::MAX]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_database_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            assert!(db.recovery_report().unwrap().fresh);
            db.create_wisconsin("t", 100, 1, 7).unwrap();
            db.create_wisconsin("gone", 5, 1, 1).unwrap();
            db.insert_keys("t", &[500, 501]).unwrap();
            db.drop_table("gone").unwrap();
            let m = db.metrics_snapshot();
            assert_eq!(m.wal_appends, 4);
            assert!(m.wal_bytes > 0);
            assert!(m.fsyncs >= 4);
        }
        let db = Database::reopen(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(!report.fresh);
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.tables, 1);
        assert_eq!(report.rows, 102);
        assert_eq!(db.tables(), vec![("t".to_string(), 102)]);
        assert_eq!(db.metrics_snapshot().recoveries, 1);
        // A third open replays nothing: the reopen re-checkpointed.
        let db = Database::reopen(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed_records, 0);
        assert_eq!(db.tables(), vec![("t".to_string(), 102)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_checkpoint_resets_the_wal() {
        let dir = tmpdir("ckpt");
        let db = Database::open(&dir).unwrap();
        db.create_wisconsin("t", 50, 1, 3).unwrap();
        let (tables, rows, bytes) = db.checkpoint().unwrap();
        assert_eq!((tables, rows), (1, 50));
        assert!(bytes > 50 * 80);
        // The reset log holds no records, so reopen replays nothing.
        drop(db);
        let db = Database::reopen(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed_records, 0);
        assert_eq!(db.tables(), vec![("t".to_string(), 50)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
