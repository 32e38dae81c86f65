//! The recovery journal: before-image physical logging.
//!
//! CARAT used "before-image journaling ... for transaction recovery"
//! (paper §2). The journal is an append-only byte log; each record is
//! framed as
//!
//! ```text
//! ┌───────┬──────┬───────────────┬─────────┐
//! │ magic │ len  │ payload bytes │ crc32   │
//! │ u16   │ u32  │ len bytes     │ u32     │
//! └───────┴──────┴───────────────┴─────────┘
//! ```
//!
//! and recovery re-parses the byte stream from the start. A torn tail
//! (partial frame or CRC mismatch) terminates the scan cleanly — exactly
//! the contract a force-write log gives a real system: everything before
//! the last successfully forced frame is trustworthy.

use crate::block::{Block, BLOCK_SIZE};

/// Transaction identifier as recorded in the journal.
pub type JournalTxId = u64;

const MAGIC: u16 = 0xCA7A;

/// The body of a journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    /// Physical before-image of `block_id`, taken before the first update
    /// by `tx` (write-ahead rule).
    BeforeImage {
        /// Block whose pre-state is saved.
        block_id: u32,
        /// The 512 pre-update bytes.
        image: Box<Block>,
    },
    /// The transaction entered the prepared state (2PC participant).
    Prepare,
    /// The transaction committed (force-written by the coordinator/TM).
    Commit,
    /// The transaction was rolled back.
    Abort,
}

/// One framed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Owning transaction.
    pub tx: JournalTxId,
    /// What happened.
    pub payload: LogPayload,
}

impl LogRecord {
    fn encode_body(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.tx.to_le_bytes());
        match &self.payload {
            LogPayload::BeforeImage { block_id, image } => {
                body.push(0);
                body.extend_from_slice(&block_id.to_le_bytes());
                body.extend_from_slice(image.bytes().as_slice());
            }
            LogPayload::Prepare => body.push(1),
            LogPayload::Commit => body.push(2),
            LogPayload::Abort => body.push(3),
        }
    }

    /// Decodes one frame starting at `buf[offset..]`. Returns the record and
    /// the offset one past its end, or `None` on a torn / corrupt frame.
    fn decode(buf: &[u8], offset: usize) -> Option<(LogRecord, usize)> {
        let hdr = buf.get(offset..offset + 6)?;
        if u16::from_le_bytes([hdr[0], hdr[1]]) != MAGIC {
            return None;
        }
        let len = u32::from_le_bytes([hdr[2], hdr[3], hdr[4], hdr[5]]) as usize;
        let body = buf.get(offset + 6..offset + 6 + len)?;
        let crc_bytes = buf.get(offset + 6 + len..offset + 10 + len)?;
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored_crc {
            return None;
        }
        if body.len() < 9 {
            return None;
        }
        let tx = u64::from_le_bytes(body[0..8].try_into().ok()?);
        let payload = match body[8] {
            0 => {
                let rest = &body[9..];
                if rest.len() != 4 + BLOCK_SIZE {
                    return None;
                }
                let block_id = u32::from_le_bytes(rest[0..4].try_into().ok()?);
                LogPayload::BeforeImage {
                    block_id,
                    image: Box::new(Block::from_bytes(&rest[4..])),
                }
            }
            1 => LogPayload::Prepare,
            2 => LogPayload::Commit,
            3 => LogPayload::Abort,
            _ => return None,
        };
        Some((LogRecord { tx, payload }, offset + 10 + len))
    }
}

/// An append-only journal.
///
/// Writes are buffered; [`Journal::force`] models the synchronous
/// force-write the TM server performs for commit/prepare records (the
/// simulator charges a disk I/O for each force). Recovery reads only forced
/// bytes — un-forced appends are lost in a crash, which is precisely the
/// write-ahead contract.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    bytes: Vec<u8>,
    forced_len: usize,
    appends: u64,
    forces: u64,
    /// Reused frame-body buffer, so appends allocate nothing once warm.
    body_scratch: Vec<u8>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames `body_scratch` (already filled) into the log.
    fn frame_body(&mut self) {
        self.bytes.extend_from_slice(&MAGIC.to_le_bytes());
        self.bytes
            .extend_from_slice(&(self.body_scratch.len() as u32).to_le_bytes());
        let crc = crc32(&self.body_scratch);
        self.bytes.extend_from_slice(&self.body_scratch);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.appends += 1;
    }

    /// Appends a record to the journal buffer (not yet durable).
    pub fn append(&mut self, rec: &LogRecord) {
        let mut body = std::mem::take(&mut self.body_scratch);
        body.clear();
        rec.encode_body(&mut body);
        self.body_scratch = body;
        self.frame_body();
    }

    /// Appends a before-image record encoded directly from a borrowed
    /// block — the hot path of `Database::update_record`, which would
    /// otherwise clone the block just to build a [`LogRecord`].
    pub fn append_before_image(&mut self, tx: JournalTxId, block_id: u32, image: &Block) {
        let mut body = std::mem::take(&mut self.body_scratch);
        body.clear();
        body.extend_from_slice(&tx.to_le_bytes());
        body.push(0);
        body.extend_from_slice(&block_id.to_le_bytes());
        body.extend_from_slice(image.bytes().as_slice());
        self.body_scratch = body;
        self.frame_body();
    }

    /// Forces the journal: everything appended so far becomes durable.
    pub fn force(&mut self) {
        self.forced_len = self.bytes.len();
        self.forces += 1;
    }

    /// Appends and immediately forces (commit / prepare records).
    pub fn append_forced(&mut self, rec: &LogRecord) {
        self.append(rec);
        self.force();
    }

    /// Number of appended records.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Number of force operations (synchronous log I/Os).
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Total journal size in bytes (including un-forced tail).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Simulates a crash: the un-forced tail is lost.
    pub fn crash(&mut self) {
        self.bytes.truncate(self.forced_len);
    }

    /// Deliberately corrupts the byte at `pos` (test hook for torn-write
    /// handling).
    pub fn corrupt_byte(&mut self, pos: usize) {
        if let Some(b) = self.bytes.get_mut(pos) {
            *b ^= 0xFF;
        }
    }

    /// Replays the journal from the beginning, yielding every intact record
    /// in append order. Stops at the first torn or corrupt frame.
    pub fn scan(&self) -> Vec<LogRecord> {
        let mut out = Vec::new();
        let mut off = 0;
        while let Some((rec, next)) = LogRecord::decode(&self.bytes, off) {
            out.push(rec);
            off = next;
        }
        out
    }
}

/// Reflected IEEE 802.3 CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0][b]` is the
/// CRC of byte `b` alone; `CRC_TABLES[k][b]` advances that by `k` zero
/// bytes, so one lookup per byte of an 8-byte chunk covers the chunk.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), by slicing-by-8: eight
/// table lookups per 8-byte chunk, then one per remaining byte. The tests
/// check it against `crc32_bytewise`, a one-byte-at-a-time oracle, at
/// every length up to 2,048 bytes and every start offset 0–7.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"))
            ^ u64::from(crc);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn before_image(tx: u64, block_id: u32, fill: u8) -> LogRecord {
        let mut img = Block::zeroed();
        img.bytes_mut().fill(fill);
        LogRecord {
            tx,
            payload: LogPayload::BeforeImage {
                block_id,
                image: Box::new(img),
            },
        }
    }

    /// The oracle: one table lookup per byte, with the first table alone
    /// (the check vector pins that table).
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (IEEE check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_crc32_matches_bytewise_oracle() {
        // Deterministic pseudo-random bytes (64-bit LCG, top byte).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..2048 + 7)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=2048 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_kinds() {
        let mut j = Journal::new();
        let records = vec![
            before_image(7, 42, 0xAB),
            LogRecord {
                tx: 7,
                payload: LogPayload::Prepare,
            },
            LogRecord {
                tx: 7,
                payload: LogPayload::Commit,
            },
            LogRecord {
                tx: 8,
                payload: LogPayload::Abort,
            },
        ];
        for r in &records {
            j.append(r);
        }
        j.force();
        assert_eq!(j.scan(), records);
        assert_eq!(j.appends(), 4);
        assert_eq!(j.forces(), 1);
    }

    #[test]
    fn crash_loses_unforced_tail() {
        let mut j = Journal::new();
        j.append_forced(&before_image(1, 0, 1));
        j.append(&before_image(2, 1, 2)); // never forced
        j.crash();
        let recs = j.scan();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].tx, 1);
    }

    #[test]
    fn corrupt_frame_stops_scan_cleanly() {
        let mut j = Journal::new();
        j.append_forced(&before_image(1, 0, 1));
        let first_end = j.len_bytes();
        j.append_forced(&before_image(2, 1, 2));
        let frame_len = j.len_bytes() - first_end;
        j.append_forced(&before_image(3, 2, 3));
        // The second frame is magic 0..2, length 2..6, body 6..531 and
        // stored CRC 531..535. The body is 525 = 65 × 8 + 5 bytes, so its
        // last 5 bytes run the CRC's remainder loop.
        assert_eq!(frame_len, 6 + 525 + 4);
        for pos in 0..frame_len {
            let mut bad = j.clone();
            bad.corrupt_byte(first_end + pos);
            assert_eq!(
                bad.scan(),
                [before_image(1, 0, 1)],
                "scan must stop at the frame corrupted at byte {pos}"
            );
        }
    }

    #[test]
    fn scan_of_empty_journal_is_empty() {
        assert!(Journal::new().scan().is_empty());
    }

    #[test]
    fn torn_header_is_ignored() {
        let mut j = Journal::new();
        j.append_forced(&LogRecord {
            tx: 9,
            payload: LogPayload::Commit,
        });
        // Simulate a torn append: half a header.
        j.bytes.extend_from_slice(&MAGIC.to_le_bytes());
        j.bytes.push(0xFF);
        assert_eq!(j.scan().len(), 1);
    }
}
