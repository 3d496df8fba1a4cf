//! Unit tests for the WAL, split out of `wal.rs` so the shipping file
//! stays literally panic-free (`wl-audit` skips `*_tests.rs`).

use super::*;
use pmem_sim::PmDevice;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wl-wal-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Create {
            name: "t".into(),
            rows: 100,
            fanout: 1,
            seed: 42,
            skew: 0.0,
        },
        WalRecord::Insert {
            table: "t".into(),
            keys: vec![100, 101, 102],
        },
        WalRecord::Drop { name: "t".into() },
    ]
}

#[test]
fn crc32_matches_known_vectors() {
    // IEEE CRC-32 check value for "123456789".
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    // Longer than one sixteen-byte step, so the sliced kernel runs.
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

/// The byte-at-a-time CRC-32 the sliced kernel replaced, kept as the
/// oracle it must agree with on every input.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Seeded bytes (xorshift64): every byte value, no period a slicing
/// step could hide behind.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn crc32_agrees_with_the_bytewise_reference() {
    // Every length around the kernel's step, at every start alignment.
    let data = noise(64 + 16, 1);
    for start in 0..16 {
        for len in 0..=64 {
            let piece = &data[start..start + len];
            assert_eq!(
                crc32(piece),
                crc32_bytewise(piece),
                "start {start}, len {len}"
            );
        }
    }
    // Seeded lengths up to 1 MiB (the reference costs 8 steps a byte,
    // so the long ones are few).
    let big = noise(1 << 20, 2);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..12 {
        x = x.wrapping_mul(0xD130_2B97_5C1D_3C6B).rotate_left(29) ^ round;
        let len = (x % (big.len() as u64 >> (round % 4 * 3))) as usize;
        let start = (x >> 40) as usize % (big.len() - len + 1);
        let piece = &big[start..start + len];
        assert_eq!(
            crc32(piece),
            crc32_bytewise(piece),
            "start {start}, len {len}"
        );
    }
    assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MiB");
}

#[test]
fn crc32_streamed_over_any_split_equals_one_shot() {
    let data = noise(4096 + 7, 3);
    let whole = crc32(&data);
    // Two pieces at every cut near the step size and at seeded cuts…
    let mut cuts: Vec<usize> = (0..=48).chain([960, 1024, 4095, data.len()]).collect();
    cuts.extend(
        noise(32, 4)
            .iter()
            .map(|&b| b as usize * 16 + b as usize % 16),
    );
    for cut in cuts {
        let mut crc = Crc32::new();
        crc.update(&data[..cut]);
        crc.update(&data[cut..]);
        assert_eq!(crc.finish(), whole, "cut at {cut}");
    }
    // …and many pieces of seeded, mostly unaligned sizes, empty ones
    // included.
    for seed in 5..25 {
        let mut crc = Crc32::new();
        let mut rest = &data[..];
        for &b in noise(4096, seed).iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at((b as usize % 97).min(rest.len()));
            crc.update(piece);
            rest = tail;
        }
        assert_eq!(crc.finish(), whole, "seed {seed}");
    }
    assert_eq!(Crc32::new().finish(), crc32(b""));
}

#[test]
fn le_array_zero_pads_short_input() {
    assert_eq!(le_array::<4>(&[1, 2]), [1, 2, 0, 0]);
    assert_eq!(le_array::<2>(&[7, 8]), [7, 8]);
}

#[test]
fn records_roundtrip() {
    for rec in sample_records() {
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }
}

#[test]
fn skewed_creates_roundtrip_and_legacy_layouts_decode_as_uniform() {
    let skewed = WalRecord::Create {
        name: "z".into(),
        rows: 1000,
        fanout: 4,
        seed: 7,
        skew: 1.2,
    };
    assert_eq!(WalRecord::decode(&skewed.encode()).unwrap(), skewed);
    // A uniform create encodes without the trailing field — the exact
    // bytes logs carried before the knob existed — and decodes back to
    // skew 0.
    let uniform = &sample_records()[0];
    let bytes = uniform.encode();
    assert_eq!(bytes.len(), 1 + 2 + 1 + 24, "legacy layout unchanged");
    assert_eq!(&WalRecord::decode(&bytes).unwrap(), uniform);
    // An out-of-range trailing skew is data corruption, not a panic.
    let mut bad = bytes.clone();
    bad.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
    assert!(WalRecord::decode(&bad).unwrap_err().contains("skew"));
}

#[test]
fn decode_rejects_malformed_payloads() {
    assert!(WalRecord::decode(&[]).is_err(), "empty");
    assert!(WalRecord::decode(&[99]).is_err(), "unknown tag");
    let mut cut = sample_records()[0].encode();
    cut.truncate(cut.len() - 3);
    assert!(WalRecord::decode(&cut).is_err(), "truncated");
    let mut trailing = sample_records()[2].encode();
    trailing.push(0);
    assert!(WalRecord::decode(&trailing).is_err(), "trailing bytes");
}

#[test]
fn log_roundtrips_through_the_file() {
    let dir = tmpdir("roundtrip");
    let dev = PmDevice::paper_default();
    let mut wal = Wal::create(&dir, &dev, 5).unwrap();
    for rec in sample_records() {
        wal.append(&rec, &dev).unwrap();
    }
    assert_eq!(wal.last_lsn(), 8);
    let readout = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(readout.base_lsn, 5);
    assert_eq!(readout.records, sample_records());
    assert_eq!(readout.last_lsn(), 8);
    assert_eq!(readout.dropped_tail_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_tail_is_dropped_not_fatal() {
    let dir = tmpdir("truncated");
    let dev = PmDevice::paper_default();
    let mut wal = Wal::create(&dir, &dev, 0).unwrap();
    for rec in sample_records() {
        wal.append(&rec, &dev).unwrap();
    }
    let path = dir.join(WAL_FILE);
    let full = std::fs::read(&path).unwrap();
    // Cut mid-way into the final frame.
    std::fs::write(&path, &full[..full.len() - 5]).unwrap();
    let readout = read_wal(&path).unwrap();
    assert_eq!(readout.records.len(), 2, "last record dropped");
    assert!(readout.dropped_tail_bytes > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_crc_at_the_tail_is_dropped() {
    let dir = tmpdir("tailcrc");
    let dev = PmDevice::paper_default();
    let mut wal = Wal::create(&dir, &dev, 0).unwrap();
    for rec in sample_records() {
        wal.append(&rec, &dev).unwrap();
    }
    let path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // garble the final payload byte
    std::fs::write(&path, &bytes).unwrap();
    let readout = read_wal(&path).unwrap();
    assert_eq!(readout.records.len(), 2);
    assert!(readout.dropped_tail_bytes > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_crc_mid_log_is_a_typed_error() {
    let dir = tmpdir("midcrc");
    let dev = PmDevice::paper_default();
    let mut wal = Wal::create(&dir, &dev, 0).unwrap();
    for rec in sample_records() {
        wal.append(&rec, &dev).unwrap();
    }
    let path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[HEADER_LEN + FRAME_HEADER] ^= 0xFF; // first record's payload
    std::fs::write(&path, &bytes).unwrap();
    let err = read_wal(&path).unwrap_err();
    assert!(err.cause.contains("mid-log"), "{err}");
    assert_eq!(err.offset, Some(HEADER_LEN as u64));
    assert!(err.path.ends_with(WAL_FILE));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_log_reads_as_empty() {
    let readout = read_wal(Path::new("/nonexistent/wal.log")).unwrap();
    assert_eq!(readout.records.len(), 0);
    assert_eq!(readout.base_lsn, 0);
}

#[test]
fn bad_magic_is_a_typed_error() {
    let dir = tmpdir("magic");
    let path = dir.join(WAL_FILE);
    std::fs::write(&path, b"NOTAWAL!0000000000000000").unwrap();
    let err = read_wal(&path).unwrap_err();
    assert!(err.cause.contains("magic"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_header_reads_as_empty_torn_creation() {
    let dir = tmpdir("shorthdr");
    let path = dir.join(WAL_FILE);
    std::fs::write(&path, &MAGIC[..6]).unwrap();
    let readout = read_wal(&path).unwrap();
    assert!(readout.records.is_empty());
    assert_eq!(readout.dropped_tail_bytes, 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
