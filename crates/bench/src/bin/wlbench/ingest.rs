//! `durable_ingest`: the write path. A fresh durable database takes a
//! stream of 8-row `INSERT`s (each WAL-framed, fsynced, and applied by
//! rebuilding the table and its sketch), a `SELECT` beside the writes
//! after every tenth, three `CHECKPOINT`s, and is then dropped with a
//! quarter of the inserts still in the log and reopened three times.
//! Group commit, mergeable sketches or an append path must show here
//! and nowhere else; a read-path gain that slows ingest shows here too.
//! The flush policy is the engine's own: one fsync per acknowledged
//! statement.

use crate::check::{Checksum, SplitMix64};
use crate::harness::{Config, Mode, Obs, Pass, Workload};
use crate::host::ScratchDir;
use crate::json::Json;
use crate::probes;
use crate::sql::{self, Done};
use crate::stats;
use crate::trace::{Span, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wisconsin::WisconsinRecord;
use wl_db::Database;

/// Rows `t` is created with.
const BASE_ROWS: u64 = 20_000;
/// `INSERT` statements per pass (a multiple of 4: a `CHECKPOINT`
/// follows each of the first three quarters).
const INSERTS: u64 = 400;
const ROWS_PER_INSERT: usize = 8;
/// A `SELECT` runs beside the writes after every this many inserts and
/// returns the rows they added.
const SELECT_EVERY: usize = 10;
/// Reopens of the dropped database per pass, each from its own copy of
/// the directory (a reopen checkpoints, so a second one would replay
/// nothing).
const REOPENS: usize = 3;
const TABLE_SEED_SALT: u64 = 0x1A6E;

struct Insert {
    sql: String,
    first_key: u64,
    /// The rows this statement adds, as `SELECT *` returns them.
    rows: Checksum,
}

pub struct DurableIngest {
    root: PathBuf,
    create: String,
    base_rows: u64,
    inserts: Vec<Insert>,
    /// `INSERT` latencies of every measured pass, for the p99 that one
    /// pass has too few samples for.
    pooled_insert_ms: Vec<f64>,
    passes: usize,
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} -> {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

fn open(dir: &Path) -> Result<Database, String> {
    Database::builder()
        .threads(1)
        .open(dir)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Issues one statement the way `mode` says.
fn issue(
    db: &Database,
    session: &mut wl_db::Session<'_>,
    mode: Mode,
    tracer: &mut Tracer,
    sql: &str,
    kind: &str,
) -> Result<Done, String> {
    match mode {
        Mode::Session => sql::run_session(session, sql),
        Mode::Decomposed => sql::run_decomposed(db, session, sql, kind, tracer),
    }
    .map_err(|e| format!("{kind}: {e}"))
}

impl Workload for DurableIngest {
    const NAME: &'static str = "durable_ingest";
    const DECOMPOSES: bool = true;
    /// `INSERT`s only: the `SELECT`s and `CHECKPOINT`s beside them are
    /// timed into `wall_s`, not sampled.
    const STATEMENT_LATENCY: bool = true;

    /// Generates the statements and stages one database the way every
    /// pass does (fresh directory, `CREATE TABLE`), which is what
    /// `setup_s` times; passes stage their own, untimed.
    fn setup(cfg: &Config) -> Result<Self, String> {
        let base_rows = cfg.size(BASE_ROWS);
        let mut rng = SplitMix64::new(cfg.seed);
        let mut next_key = base_rows;
        let inserts = (0..(cfg.size(INSERTS) / 4).max(1) * 4)
            .map(|_| {
                let keys: Vec<u64> = (0..ROWS_PER_INSERT)
                    .map(|_| {
                        next_key += 1 + rng.below(7);
                        next_key
                    })
                    .collect();
                let mut rows = Checksum::default();
                for &k in &keys {
                    rows.add(&[k, WisconsinRecord::from_key(k).payload()]);
                }
                let values: Vec<String> = keys.iter().map(|k| format!("({k})")).collect();
                Insert {
                    sql: format!("INSERT INTO t VALUES {}", values.join(", ")),
                    first_key: keys[0],
                    rows,
                }
            })
            .collect();
        let this = Self {
            root: cfg.scratch.clone(),
            create: format!(
                "CREATE TABLE t AS WISCONSIN({base_rows}, 1, {})",
                cfg.seed ^ TABLE_SEED_SALT
            ),
            base_rows,
            inserts,
            pooled_insert_ms: Vec::new(),
            passes: 0,
        };
        let dir = ScratchDir::create(&this.root, "ingest-setup")?;
        let db = open(dir.path())?;
        sql::run_session(&mut db.session(), &this.create)?;
        Ok(this)
    }

    fn pass(&mut self, mode: Mode, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let dir = ScratchDir::create(&self.root, "ingest-pass")?;
        let live = dir.child("live");
        let db = open(&live)?;
        let mut session = db.session();
        sql::run_session(&mut session, &self.create)?;

        let quarter = self.inserts.len() / 4;
        let before = db.device().snapshot();
        let (mut select_ms, mut checkpoint_ms) = (Vec::new(), Vec::new());
        let (mut checkpoint_bytes, mut last_checkpoint) = (0, 0);
        for (i, insert) in self.inserts.iter().enumerate() {
            let done = pass.op(|| issue(&db, &mut session, mode, tracer, &insert.sql, "insert"))?;
            pass.check(done == Done::Inserted(ROWS_PER_INSERT as u64), || {
                format!("insert {i}: acknowledged {done:?}")
            });
            let n = i + 1;
            if n % SELECT_EVERY == 0 {
                let recent = &self.inserts[n - SELECT_EVERY..n];
                let text = format!(
                    "SELECT * FROM t WHERE key >= {} ORDER BY key",
                    recent[0].first_key
                );
                let (done, secs) =
                    pass.timed(|| issue(&db, &mut session, mode, tracer, &text, "select"));
                select_ms.push(secs * 1e3);
                let mut expect = Checksum::default();
                for r in recent {
                    expect.merge(&r.rows);
                }
                pass.check(
                    matches!(&done?, Done::Rows(rows) if rows.sum == expect && rows.sorted),
                    || format!("select after insert {n}: wrong rows beside the writes"),
                );
            }
            if n % quarter == 0 && n < self.inserts.len() {
                let (done, secs) = pass
                    .timed(|| issue(&db, &mut session, mode, tracer, "CHECKPOINT", "checkpoint"));
                done?;
                checkpoint_ms.push(secs * 1e3);
                last_checkpoint = file_len(&live.join("checkpoint.bin"))?;
                checkpoint_bytes += last_checkpoint;
            }
        }
        pass.io = db.device().snapshot().since(&before);
        let engine = db.metrics_snapshot();
        // Dropped with the last quarter of the inserts only in the log.
        drop(session);
        drop(db);

        let expect_rows = self.base_rows + (self.inserts.len() * ROWS_PER_INSERT) as u64;
        let mut reopen_ms = Vec::new();
        for r in 0..REOPENS {
            let copy = dir.child(&format!("reopen-{r}"));
            copy_dir(&live, &copy)?;
            let (reopened, secs) =
                pass.timed(|| tracer.span("reopen", "reopen", |_| Database::reopen(&copy)));
            let reopened = reopened.map_err(|e| format!("reopen: {e}"))?;
            reopen_ms.push(secs * 1e3);
            let report = reopened.recovery_report().ok_or("reopen left no report")?;
            pass.check(
                report.replayed_records == quarter as u64
                    && report.rows == expect_rows
                    && reopened.tables() == [("t".to_string(), expect_rows)],
                || {
                    format!(
                        "reopen {r}: {report:?}, expected {expect_rows} rows, {quarter} replayed"
                    )
                },
            );
            pass.io = pass.io.plus(&reopened.device().snapshot());
            checkpoint_bytes += file_len(&copy.join("checkpoint.bin"))?;
        }

        let inserted = self.inserts.len() * ROWS_PER_INSERT;
        pass.records = inserted as u64;
        pass.note(
            "db.durable.fsyncs_per_stmt",
            engine.fsyncs as f64 / (1 + self.inserts.len()) as f64,
        );
        pass.note(
            "db.durable.file_bytes_per_user_byte",
            (engine.wal_bytes + checkpoint_bytes) as f64 / (inserted * 80) as f64,
        );
        pass.note("db.durable.checkpoint_bytes", last_checkpoint as f64);
        pass.note("db.durable.replayed_records", quarter as f64);
        let reopen = stats::median(&reopen_ms);
        pass.note("db.durable.reopen_ms", reopen);
        pass.note(
            "db.durable.replay_us_per_record",
            reopen * 1e3 / quarter as f64,
        );
        pass.note("db.durable.checkpoint_ms", stats::median(&checkpoint_ms));
        pass.note(
            "db.database.select_beside_writes_ms",
            stats::median(&select_ms),
        );
        if self.passes > 0 {
            self.pooled_insert_ms.extend_from_slice(&pass.lat_ms);
        }
        self.passes += 1;
        Ok(pass)
    }

    fn layer_obs(&self, spans: &[Span], obs: &mut Obs) {
        sql::front_obs(spans, obs);
    }

    /// The INSERT tail over every measured pass, the cost of applying
    /// an insert without logging it — the same statements against a
    /// non-durable twin (rebuild and sketch, no WAL, no fsync) — and the
    /// probes of the layers an `INSERT` passes through.
    fn trace_extras(&mut self, cfg: &Config, obs: &mut Obs) -> Result<(), String> {
        probes::write_path(cfg, obs)?;
        let pooled = stats::sorted(&self.pooled_insert_ms);
        if let Some(p99) = stats::tail_percentile(&pooled, 99.0) {
            obs.push(("db.wal.stmt_p99_ms".into(), p99));
        }
        let twin = Database::builder().threads(1).build();
        let mut session = twin.session();
        sql::run_session(&mut session, &self.create)?;
        let mut apply_us = Vec::new();
        for insert in self.inserts.iter().take(50) {
            let t0 = Instant::now();
            sql::run_session(&mut session, &insert.sql)?;
            apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        obs.push((
            "db.database.insert_apply_us".into(),
            stats::median(&apply_us),
        ));
        Ok(())
    }

    fn notes(&self) -> Vec<(String, Json)> {
        let n = |v: usize| Json::Num(v as f64);
        vec![
            ("base_rows".into(), Json::Num(self.base_rows as f64)),
            ("inserts_per_pass".into(), n(self.inserts.len())),
            ("rows_per_insert".into(), n(ROWS_PER_INSERT)),
            ("select_every".into(), n(SELECT_EVERY)),
            ("checkpoints_per_pass".into(), n(3)),
            ("wal_records_at_drop".into(), n(self.inserts.len() / 4)),
            ("reopens_per_pass".into(), n(REOPENS)),
            (
                "flush_policy".into(),
                Json::str("engine default: one fsync per acknowledged statement"),
            ),
        ]
    }
}
