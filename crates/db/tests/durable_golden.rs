//! Pins the on-disk format against bytes another build wrote.
//!
//! `golden/durable_v1/` holds a database directory produced by the
//! commit *before* checksums were sliced and tables started crossing
//! the checkpoint as stored bytes (`generate.sql` piped through that
//! commit's `wlsql --path`): `checkpoint.bin` + `wal.log` as the session
//! left them — two tables under the checkpoint, every kind of WAL record
//! past it — and `reopened_checkpoint.bin` + `reopened_wal.log`, what
//! that commit's recovery rewrote them into. The format has not changed
//! since, so this build must read the first pair, rewrite it into
//! exactly the second, and write the first pair itself when it runs the
//! same statements. Regenerate only with a format change, from the
//! commit before it.

use std::path::{Path, PathBuf};
use wl_db::durable::{read_checkpoint, RecoveryReport};
use wl_db::wal::read_wal;
use wl_db::Database;

const GENERATE: &str = include_str!("golden/durable_v1/generate.sql");
const CHECKPOINT: &[u8] = include_bytes!("golden/durable_v1/checkpoint.bin");
const WAL: &[u8] = include_bytes!("golden/durable_v1/wal.log");
const REOPENED_CHECKPOINT: &[u8] = include_bytes!("golden/durable_v1/reopened_checkpoint.bin");
const REOPENED_WAL: &[u8] = include_bytes!("golden/durable_v1/reopened_wal.log");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wl-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).expect("database file readable")
}

/// Runs `generate.sql` against `db`, statement by statement — without
/// its `CHECKPOINT` on an in-memory database, which has none.
fn generate(db: &Database) {
    let mut session = db.session();
    let script: String = GENERATE
        .lines()
        .filter(|line| !line.starts_with("--"))
        .filter(|line| db.is_durable() || *line != "CHECKPOINT;")
        .collect();
    for statement in script.split_terminator(';') {
        session
            .execute(statement)
            .unwrap_or_else(|e| panic!("{statement}: {e}"));
    }
}

/// Every table's rows, in table order.
fn rows(db: &Database) -> Vec<(String, Vec<wisconsin::WisconsinRecord>)> {
    let catalog = db.catalog();
    catalog
        .bound_entries()
        .map(|(name, _, data)| (name.to_string(), data.to_vec_uncounted()))
        .collect()
}

#[test]
fn a_directory_the_parent_wrote_recovers_and_is_rewritten_byte_for_byte() {
    let dir = tmpdir("reopen");
    std::fs::write(dir.join("checkpoint.bin"), CHECKPOINT).unwrap();
    std::fs::write(dir.join("wal.log"), WAL).unwrap();

    let db = Database::reopen(&dir).expect("recovers the parent's directory");
    assert_eq!(
        db.recovery_report(),
        Some(RecoveryReport {
            fresh: false,
            tables: 3,
            rows: 45,
            replayed_records: 7,
            dropped_wal_bytes: 0,
        })
    );
    assert_eq!(
        db.tables(),
        [("a", 19), ("b", 11), ("c", 15)].map(|(name, rows)| (name.to_string(), rows))
    );
    // The rows are those of a database that ran the statements itself…
    let scratch = Database::builder().build();
    generate(&scratch);
    assert_eq!(rows(&db), rows(&scratch));
    // …the inserted ones where the statements put them…
    let a: Vec<u64> = rows(&db)[0].1.iter().map(|r| r.attrs[0]).collect();
    assert_eq!(a[12..], [12, 40, 13, 100, 7, 7, u64::MAX]);
    // …and what recovery left on disk is what the parent's left.
    assert_eq!(read(&dir, "checkpoint.bin"), REOPENED_CHECKPOINT);
    assert_eq!(read(&dir, "wal.log"), REOPENED_WAL);

    // A second open finds nothing to replay and rewrites the same bytes.
    drop(db);
    let db = Database::reopen(&dir).expect("reopens its own checkpoint");
    assert_eq!(db.recovery_report().unwrap().replayed_records, 0);
    assert_eq!(rows(&db), rows(&scratch));
    assert_eq!(read(&dir, "checkpoint.bin"), REOPENED_CHECKPOINT);
    assert_eq!(read(&dir, "wal.log"), REOPENED_WAL);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_same_statements_write_the_files_the_parent_wrote() {
    // Same bytes out, so whatever this build writes the parent's
    // `read_wal` / `read_checkpoint` read — by construction.
    let dir = tmpdir("generate");
    generate(&Database::open(&dir).expect("opens fresh"));
    assert_eq!(read(&dir, "wal.log"), WAL);
    assert_eq!(read(&dir, "checkpoint.bin"), CHECKPOINT);

    // And the parsed view of the golden pair, independent of any writer.
    let checkpoint = read_checkpoint(&dir).unwrap().expect("present");
    assert_eq!(checkpoint.last_lsn, 3);
    let tables: Vec<(&str, u64, usize)> = checkpoint
        .tables()
        .map(|t| (t.name, t.key_domain, t.keys().count()))
        .collect();
    assert_eq!(tables, [("a", 41, 15), ("b", 5, 10)]);
    let wal = read_wal(&dir.join("wal.log")).unwrap();
    assert_eq!(
        (wal.base_lsn, wal.records.len(), wal.dropped_tail_bytes),
        (3, 7, 0)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
