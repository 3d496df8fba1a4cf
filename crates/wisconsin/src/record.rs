//! Fixed-width records in the style of the Wisconsin benchmark.
//!
//! The paper's microbenchmark uses "a schema of ten eight-byte integer
//! attributes for a total record size of 80 bytes. The key attribute
//! followed the key value permutation of the Wisconsin benchmark. The
//! values of the remaining attributes were computed based on the key
//! attribute through integer division and modulo computations." (§4)

use pmem_sim::Storable;

/// A sortable/joinable record with a `u64` key.
///
/// Records are plain fixed-width values; the `Send + Sync` bounds let
/// the partition-parallel executors move record batches between worker
/// threads and share collections across a scoped thread pool.
pub trait Record: Storable + Send + Sync + 'static {
    /// The ordering/join key.
    fn key(&self) -> u64;
}

impl Record for u64 {
    #[inline]
    fn key(&self) -> u64 {
        *self
    }
}

impl Record for (u64, u64) {
    #[inline]
    fn key(&self) -> u64 {
        self.0
    }
}

/// Number of attributes in a Wisconsin record.
pub const WISCONSIN_ATTRS: usize = 10;

/// An 80-byte Wisconsin-benchmark record: ten 8-byte integer attributes,
/// the first of which is the (permuted) unique key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WisconsinRecord {
    /// `attrs[0]` is `unique1` (the permuted key); the rest are derived
    /// from it by integer division and modulo, as in the benchmark.
    pub attrs: [u64; WISCONSIN_ATTRS],
}

impl WisconsinRecord {
    /// Builds the record whose key is `key`, deriving the remaining nine
    /// attributes through division/modulo (one/ten/hundred-percent
    /// selectivity columns and coarser groupings, following the Wisconsin
    /// schema's spirit).
    pub fn from_key(key: u64) -> Self {
        let mut attrs = [0u64; WISCONSIN_ATTRS];
        attrs[0] = key; // unique1
        attrs[1] = key; // unique2 (same domain, used as a carried payload)
        attrs[2] = key % 2; // two
        attrs[3] = key % 4; // four
        attrs[4] = key % 10; // ten
        attrs[5] = key % 20; // twenty
        attrs[6] = key % 100; // onePercent
        attrs[7] = (key / 10) % 100; // tenPercent-style grouping
        attrs[8] = (key / 100) % 100; // hundredth grouping
        attrs[9] = key / 1000; // coarse bucket
        Self { attrs }
    }

    /// Overrides the payload attribute (`unique2`), used by join workloads
    /// to distinguish the fanout copies that share a key.
    pub fn with_payload(mut self, payload: u64) -> Self {
        self.attrs[1] = payload;
        self
    }

    /// The payload attribute.
    pub fn payload(&self) -> u64 {
        self.attrs[1]
    }
}

impl Storable for WisconsinRecord {
    const SIZE: usize = WISCONSIN_ATTRS * 8;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        for (i, a) in self.attrs.iter().enumerate() {
            buf[i * 8..(i + 1) * 8].copy_from_slice(&a.to_le_bytes());
        }
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        let mut attrs = [0u64; WISCONSIN_ATTRS];
        for (i, a) in attrs.iter_mut().enumerate() {
            *a = u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        }
        Self { attrs }
    }
}

impl Record for WisconsinRecord {
    #[inline]
    fn key(&self) -> u64 {
        self.attrs[0]
    }
}

/// A pair of joined records (the join's output tuple).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair<L: Storable, R: Storable> {
    /// Left (build-side) record.
    pub left: L,
    /// Right (probe-side) record.
    pub right: R,
}

impl<L: Storable, R: Storable> Storable for Pair<L, R> {
    const SIZE: usize = L::SIZE + R::SIZE;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        self.left.write_to(&mut buf[..L::SIZE]);
        self.right.write_to(&mut buf[L::SIZE..L::SIZE + R::SIZE]);
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        Self {
            left: L::read_from(&buf[..L::SIZE]),
            right: R::read_from(&buf[L::SIZE..L::SIZE + R::SIZE]),
        }
    }
}

impl<L: Record, R: Record> Record for Pair<L, R> {
    /// A joined pair is keyed by the (equal) join key.
    #[inline]
    fn key(&self) -> u64 {
        self.left.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wisconsin_record_is_80_bytes() {
        assert_eq!(WisconsinRecord::SIZE, 80);
    }

    #[test]
    fn roundtrip_preserves_all_attributes() {
        let r = WisconsinRecord::from_key(123_456);
        let mut buf = [0u8; WisconsinRecord::SIZE];
        r.write_to(&mut buf);
        assert_eq!(WisconsinRecord::read_from(&buf), r);
    }

    #[test]
    fn derived_attributes_follow_div_mod() {
        let r = WisconsinRecord::from_key(54_321);
        assert_eq!(r.key(), 54_321);
        assert_eq!(r.attrs[2], 1);
        assert_eq!(r.attrs[4], 1);
        assert_eq!(r.attrs[6], 21);
        assert_eq!(r.attrs[9], 54);
    }

    #[test]
    fn pair_roundtrips() {
        let p = Pair {
            left: WisconsinRecord::from_key(1),
            right: WisconsinRecord::from_key(2),
        };
        let mut buf = [0u8; 160];
        p.write_to(&mut buf);
        assert_eq!(Pair::<WisconsinRecord, WisconsinRecord>::read_from(&buf), p);
        assert_eq!(p.key(), 1);
    }

    #[test]
    fn payload_override() {
        let r = WisconsinRecord::from_key(5).with_payload(99);
        assert_eq!(r.key(), 5);
        assert_eq!(r.payload(), 99);
    }
}
