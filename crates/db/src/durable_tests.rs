//! Unit tests for checkpoints/recovery bookkeeping, split out of
//! `durable.rs` so the shipping file stays literally panic-free
//! (`wl-audit` skips `*_tests.rs`).

use super::*;
use pmem_sim::PmDevice;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wl-ckpt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

/// Serializes `records` the way a collection stores them.
fn stored(records: impl IntoIterator<Item = WisconsinRecord>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for record in records {
        let at = bytes.len();
        bytes.resize(at + WisconsinRecord::SIZE, 0);
        record.write_to(&mut bytes[at..]);
    }
    bytes
}

/// Publishes a two-table sample (one of them empty) in `dir`; returns
/// the byte size written. The five rows arrive in two pieces, as runs do.
fn write_sample(dir: &Path, dev: &Pm) -> Result<u64, StorageError> {
    let rows = stored((0..5).map(WisconsinRecord::from_key));
    let mut image = CheckpointWriter::new(17, 2);
    image.table("a", 5, 5);
    image.rows(&rows[..2 * WisconsinRecord::SIZE]);
    image.rows(&rows[2 * WisconsinRecord::SIZE..]);
    image.table("empty", 0, 0);
    image.publish(dir, dev)
}

#[test]
fn checkpoint_roundtrips() {
    let dir = tmpdir("roundtrip");
    let dev = PmDevice::paper_default();
    let bytes = write_sample(&dir, &dev).unwrap();
    assert_eq!(
        bytes,
        std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len()
    );
    assert!(!dir.join(CHECKPOINT_TMP).exists(), "tmp was renamed away");
    let loaded = read_checkpoint(&dir).unwrap().expect("present");
    assert_eq!(loaded.last_lsn, 17);
    let rows = stored((0..5).map(WisconsinRecord::from_key));
    let tables: Vec<CheckpointTable<'_>> = loaded.tables().collect();
    assert_eq!(
        tables,
        [
            CheckpointTable {
                name: "a",
                key_domain: 5,
                rows: &rows,
            },
            CheckpointTable {
                name: "empty",
                key_domain: 0,
                rows: &[],
            },
        ]
    );
    assert_eq!(tables[0].keys().collect::<Vec<u64>>(), [0, 1, 2, 3, 4]);
    assert_eq!(tables[1].keys().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_image_that_breaks_its_headers_is_refused_before_it_is_written() {
    /// One table of a case: name, rows announced, rows fed.
    type Table<'a> = (&'a str, u64, usize);
    let dir = tmpdir("unsound");
    let dev = PmDevice::paper_default();
    let row = stored([WisconsinRecord::from_key(1)]);
    let long_name = "n".repeat(usize::from(u16::MAX) + 1);
    // (what breaks, tables announced, the tables)
    let cases: [(&str, u32, &[Table<'_>]); 6] = [
        ("a table short", 2, &[("a", 0, 0)]),
        ("a table over", 0, &[("a", 0, 0)]),
        ("a row short", 1, &[("a", 2, 1)]),
        ("a row over", 2, &[("a", 0, 1), ("b", 1, 1)]),
        ("rows no image can hold", 1, &[("a", u64::MAX, 0)]),
        (
            "a name its length field cannot hold",
            1,
            &[(&long_name, 1, 1)],
        ),
    ];
    for (what, announced, tables) in cases {
        let mut image = CheckpointWriter::new(3, announced);
        for &(name, rows, fed) in tables {
            image.table(name, 9, rows);
            for _ in 0..fed {
                image.rows(&row);
            }
        }
        let err = image.publish(&dir, &dev).unwrap_err();
        assert!(err.cause.contains("table headers"), "{what}: {err}");
        assert!(!dir.join(CHECKPOINT_TMP).exists(), "{what}");
        assert!(!dir.join(CHECKPOINT_FILE).exists(), "{what}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_checkpoint_is_none() {
    let dir = tmpdir("missing");
    assert_eq!(read_checkpoint(&dir).unwrap(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_checkpoint_is_a_typed_error() {
    let dir = tmpdir("corrupt");
    let dev = PmDevice::paper_default();
    write_sample(&dir, &dev).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let err = read_checkpoint(&dir).unwrap_err();
    assert!(err.cause.contains("CRC"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_checkpoint_is_a_typed_error() {
    let dir = tmpdir("trunc");
    let dev = PmDevice::paper_default();
    write_sample(&dir, &dev).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..10]).unwrap();
    let err = read_checkpoint(&dir).unwrap_err();
    assert!(err.cause.contains("truncated"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_absurd_row_count_under_a_valid_crc_is_a_typed_error() {
    // `rows × 80` used to be computed unchecked: with overflow checks on
    // (debug) a panic, with them off (release) a wrapped length — 2^61
    // rows wrap to 0 bytes, 2^61 + 1 to one row — that parsed whatever
    // followed as the next table. CI runs this crate's tests under both
    // profiles for that reason. `wl-audit`'s `panic-free` rule reads
    // tokens and does not see arithmetic, so this test is the only
    // guard on that line.
    let dir = tmpdir("rows-overflow");
    let dev = PmDevice::paper_default();
    write_sample(&dir, &dev).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    let good = std::fs::read(&path).unwrap();
    // magic 8, last_lsn 8, table count 4, name length 2, "a" 1, key
    // domain 8: table a's row count sits at byte 31.
    assert_eq!(good[31..39], 5u64.to_le_bytes());
    for rows in [1u64 << 61, (1 << 61) + 5, u64::MAX / 80 + 1, u64::MAX] {
        let mut bytes = good.clone();
        bytes[31..39].copy_from_slice(&rows.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&dir).unwrap_err();
        assert!(
            err.cause.contains("truncated checkpoint: rows"),
            "{rows} rows: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_banner_is_deterministic() {
    let fresh = RecoveryReport {
        fresh: true,
        ..Default::default()
    };
    assert_eq!(fresh.banner(), "durable: fresh database");
    let recovered = RecoveryReport {
        fresh: false,
        tables: 2,
        rows: 300,
        replayed_records: 4,
        dropped_wal_bytes: 0,
    };
    assert_eq!(
        recovered.banner(),
        "durable: recovered 2 tables (300 rows), replayed 4 wal records"
    );
    let torn = RecoveryReport {
        dropped_wal_bytes: 33,
        ..recovered
    };
    assert!(torn.banner().ends_with("dropped 33 torn tail bytes"));
}
