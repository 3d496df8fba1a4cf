//! Fixture: the same codec with every method inlinable, a generic impl
//! whose header carries bounds, and a non-codec impl left alone.
pub struct Row(pub u64, pub u64);

impl Storable for Row {
    const SIZE: usize = 16;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_le_bytes());
        buf[8..16].copy_from_slice(&self.1.to_le_bytes());
    }

    /// Attributes may stack and docs may sit between them.
    #[inline(always)]
    #[must_use]
    fn read_from(buf: &[u8]) -> Self {
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap_or([0; 8]));
        Row(word(0), word(8))
    }
}

impl<L: Record, R: Record> Record for Both<L, R> {
    #[inline]
    fn key(&self) -> u64 {
        self.0.key()
    }
}

impl Row {
    pub fn swapped(&self) -> Self {
        Row(self.1, self.0)
    }
}

impl Default for Row {
    fn default() -> Self {
        Row(0, 0)
    }
}

impl Storable for Tag {
    const SIZE: usize = 8;

    // audit:allow(inline-codec) fixture demonstrating suppression
    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        Tag(u64::from_le_bytes(buf[..8].try_into().unwrap_or([0; 8])))
    }
}
