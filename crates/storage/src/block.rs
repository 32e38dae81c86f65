//! Disk blocks and record addressing.
//!
//! The testbed stored six database records per 512-byte block; the block
//! ("granule") is the unit of disk transfer, locking, and journaling
//! (paper §2 and §3 assumptions).

/// Bytes per disk block (paper §2: "Each disk block contained 512 bytes").
pub const BLOCK_SIZE: usize = 512;

/// Database records per block (paper §2: "stored six database records").
pub const RECORDS_PER_BLOCK: usize = 6;

/// Bytes per record slot: 6 × 84 = 504 bytes of payload; the remaining
/// eight bytes of the block are header padding.
pub const RECORD_SIZE: usize = BLOCK_SIZE / RECORDS_PER_BLOCK - 1; // 84

/// Identifies a record as (block, slot). Blocks are site-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Block (granule) number within the site's database file.
    pub block: u32,
    /// Slot within the block, `0..RECORDS_PER_BLOCK`.
    pub slot: u8,
}

impl RecordId {
    /// Builds a `RecordId` from a flat record number.
    pub fn from_flat(record_no: u64) -> Self {
        RecordId {
            block: (record_no / RECORDS_PER_BLOCK as u64) as u32,
            slot: (record_no % RECORDS_PER_BLOCK as u64) as u8,
        }
    }

    /// Flat record number (inverse of [`RecordId::from_flat`]).
    pub fn to_flat(self) -> u64 {
        self.block as u64 * RECORDS_PER_BLOCK as u64 + self.slot as u64
    }
}

/// One 512-byte disk block.
///
/// The bytes are stored inline (not boxed): a volume's `Vec<Block>` is one
/// contiguous allocation, so creating a database is a single memset and
/// block access never chases a pointer. Where a block must live behind an
/// indirection (journal payloads), the owner boxes it explicitly.
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    data: [u8; BLOCK_SIZE],
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Block({:02x?}…)", &self.data[..8])
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl Block {
    /// An all-zero block.
    pub fn zeroed() -> Self {
        Block {
            data: [0u8; BLOCK_SIZE],
        }
    }

    /// Raw block bytes.
    pub fn bytes(&self) -> &[u8; BLOCK_SIZE] {
        &self.data
    }

    /// Mutable raw block bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; BLOCK_SIZE] {
        &mut self.data
    }

    /// Reconstructs a block from raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), BLOCK_SIZE, "block must be {BLOCK_SIZE} bytes");
        let mut b = Block::zeroed();
        b.data.copy_from_slice(bytes);
        b
    }

    fn slot_range(slot: u8) -> std::ops::Range<usize> {
        assert!(
            (slot as usize) < RECORDS_PER_BLOCK,
            "slot {slot} out of range"
        );
        let start = slot as usize * RECORD_SIZE;
        start..start + RECORD_SIZE
    }

    /// Reads the record in `slot`.
    pub fn record(&self, slot: u8) -> &[u8] {
        &self.data[Self::slot_range(slot)]
    }

    /// Overwrites the record in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than [`RECORD_SIZE`]; shorter payloads
    /// are zero-padded (fixed-slot layout, as in the testbed's CODASYL
    /// store).
    pub fn set_record(&mut self, slot: u8, payload: &[u8]) {
        assert!(
            payload.len() <= RECORD_SIZE,
            "record payload {} exceeds slot size {RECORD_SIZE}",
            payload.len()
        );
        let range = Self::slot_range(slot);
        self.data[range.clone()].fill(0);
        self.data[range.start..range.start + payload.len()].copy_from_slice(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_are_consistent() {
        const { assert!(RECORD_SIZE * RECORDS_PER_BLOCK <= BLOCK_SIZE) };
        assert_eq!(RECORD_SIZE, 84);
    }

    #[test]
    fn record_id_flat_roundtrip() {
        for n in [0u64, 1, 5, 6, 17_999] {
            assert_eq!(RecordId::from_flat(n).to_flat(), n);
        }
        let r = RecordId::from_flat(13);
        assert_eq!(r.block, 2);
        assert_eq!(r.slot, 1);
    }

    #[test]
    fn set_and_get_records_are_isolated_per_slot() {
        let mut b = Block::zeroed();
        b.set_record(0, b"alpha");
        b.set_record(5, b"omega");
        assert_eq!(&b.record(0)[..5], b"alpha");
        assert_eq!(&b.record(5)[..5], b"omega");
        // slots in between untouched
        assert!(b.record(2).iter().all(|&x| x == 0));
    }

    #[test]
    fn set_record_zero_pads() {
        let mut b = Block::zeroed();
        b.set_record(1, &[0xFF; RECORD_SIZE]);
        b.set_record(1, b"x");
        assert_eq!(b.record(1)[0], b'x');
        assert!(b.record(1)[1..].iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let b = Block::zeroed();
        b.record(6);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = Block::zeroed();
        b.set_record(3, b"payload");
        let copy = Block::from_bytes(b.bytes());
        assert_eq!(copy, b);
    }
}
