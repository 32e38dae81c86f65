//! The transactional database: page store + journal + rollback + recovery.

use std::collections::HashSet;

use carat_des::{FastMap, FastSet};

use crate::block::{Block, RecordId};
use crate::journal::{Journal, LogPayload, LogRecord};
use crate::store::PageStore;

/// Transaction identifier.
pub type TxId = u64;

/// I/O performed by one storage operation, so the simulator can charge
/// simulated disk time for exactly the paper's I/O pattern (§6, Table 2
/// discussion: one read per retrieved record's granule; read + journal
/// write + database write per updated granule; forced log writes at
/// commit/prepare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Database file block reads.
    pub db_reads: u32,
    /// Database file block writes.
    pub db_writes: u32,
    /// Journal appends that reached the log buffer (asynchronous).
    pub journal_writes: u32,
    /// Synchronous (forced) journal writes.
    pub forced_writes: u32,
}

impl IoCounts {
    /// Total disk operations; in the testbed the journal shared the database
    /// disk (paper §2), so every category costs a disk visit.
    pub fn total(&self) -> u32 {
        self.db_reads + self.db_writes + self.journal_writes + self.forced_writes
    }
}

impl std::ops::Add for IoCounts {
    type Output = IoCounts;
    fn add(self, rhs: IoCounts) -> IoCounts {
        IoCounts {
            db_reads: self.db_reads + rhs.db_reads,
            db_writes: self.db_writes + rhs.db_writes,
            journal_writes: self.journal_writes + rhs.journal_writes,
            forced_writes: self.forced_writes + rhs.forced_writes,
        }
    }
}

impl std::ops::AddAssign for IoCounts {
    fn add_assign(&mut self, rhs: IoCounts) {
        *self = *self + rhs;
    }
}

/// Storage-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbError {
    /// Operation on a transaction that was never begun (or already ended).
    UnknownTx(TxId),
    /// `begin` on an id that is already active.
    TxAlreadyActive(TxId),
    /// Record address outside the database file.
    BadAddress(RecordId),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownTx(t) => write!(f, "unknown transaction {t}"),
            DbError::TxAlreadyActive(t) => write!(f, "transaction {t} already active"),
            DbError::BadAddress(r) => write!(f, "bad record address {r:?}"),
        }
    }
}

impl std::error::Error for DbError {}

#[derive(Debug, Default)]
struct TxState {
    /// Blocks this transaction has journaled (write-ahead done once per
    /// block per transaction).
    journaled: FastSet<u32>,
    /// Before-images in journaling order, for in-memory rollback.
    undo: Vec<(u32, Block)>,
    /// Entered the 2PC prepared state (prepare record forced); such a
    /// participant is *in doubt* until the coordinator's decision arrives.
    prepared: bool,
}

/// A single site's transactional storage engine.
///
/// ```
/// use carat_storage::{Database, RecordId};
/// let mut db = Database::new(100);
/// db.begin(1).unwrap();
/// let rid = RecordId { block: 5, slot: 2 };
/// db.update_record(1, rid, b"new value").unwrap();
/// db.commit(1).unwrap();
/// assert_eq!(&db.read_committed(rid)[..9], b"new value");
/// ```
#[derive(Debug)]
pub struct Database {
    store: PageStore,
    journal: Journal,
    active: FastMap<TxId, TxState>,
    /// Retired [`TxState`]s, recycled across transactions so `begin` does
    /// not re-allocate the journaled-set / undo-list capacity every time.
    spare_states: Vec<TxState>,
}

impl Database {
    /// Creates a database of `n_blocks` zero-filled blocks.
    pub fn new(n_blocks: u32) -> Self {
        Database {
            store: PageStore::new(n_blocks),
            journal: Journal::new(),
            active: FastMap::default(),
            spare_states: Vec::new(),
        }
    }

    /// Fills every record with a deterministic tag of its own address,
    /// `rec{flat}` with `flat` from [`RecordId::to_flat`] (handy for
    /// integrity checks after recovery).
    pub fn load_default(&mut self) {
        // Records are visited in flat order, so the tag's decimal digits
        // are counted up in place: `tag[start..]` is `rec` followed by the
        // digits, right-aligned (a u64 has at most 20).
        let mut tag = [b'0'; 23];
        let mut start = tag.len() - 4;
        tag[start..start + 3].copy_from_slice(b"rec");
        for b in 0..self.store.n_blocks() {
            let blk = self.store.modify(b);
            for s in 0..crate::block::RECORDS_PER_BLOCK as u8 {
                blk.set_record(s, &tag[start..]);
                // The `c` of `rec` stops the carry.
                let mut i = tag.len() - 1;
                while tag[i] == b'9' {
                    tag[i] = b'0';
                    i -= 1;
                }
                if i > start + 2 {
                    tag[i] += 1;
                } else {
                    // Every digit carried: one digit more, led by a 1.
                    start -= 1;
                    tag[start..start + 4].copy_from_slice(b"rec1");
                }
            }
        }
        self.store.reset_io();
    }

    /// Number of blocks in the database file.
    pub fn n_blocks(&self) -> u32 {
        self.store.n_blocks()
    }

    /// Starts a transaction.
    pub fn begin(&mut self, tx: TxId) -> Result<(), DbError> {
        if self.active.contains_key(&tx) {
            return Err(DbError::TxAlreadyActive(tx));
        }
        let state = self.spare_states.pop().unwrap_or_default();
        debug_assert!(state.journaled.is_empty() && state.undo.is_empty() && !state.prepared);
        self.active.insert(tx, state);
        Ok(())
    }

    /// Returns a finished transaction's state to the recycling pool.
    fn retire_state(&mut self, mut state: TxState) {
        state.journaled.clear();
        state.undo.clear();
        state.prepared = false;
        self.spare_states.push(state);
    }

    /// True if `tx` is active.
    pub fn is_active(&self, tx: TxId) -> bool {
        self.active.contains_key(&tx)
    }

    fn check_addr(&self, rid: RecordId) -> Result<(), DbError> {
        if rid.block >= self.store.n_blocks()
            || rid.slot as usize >= crate::block::RECORDS_PER_BLOCK
        {
            Err(DbError::BadAddress(rid))
        } else {
            Ok(())
        }
    }

    /// Reads one record on behalf of `tx`. Costs one database read
    /// (buffer-less engine — paper assumption §3).
    pub fn read_record(&mut self, tx: TxId, rid: RecordId) -> Result<(Vec<u8>, IoCounts), DbError> {
        let io = self.touch_record(tx, rid)?;
        Ok((self.store.peek(rid.block).record(rid.slot).to_vec(), io))
    }

    /// [`read_record`](Self::read_record) without materialising the payload:
    /// the same access check and the same one-read I/O charge, no copies.
    /// The simulator's read path uses this — it charges disk time for the
    /// access but never looks at the bytes.
    pub fn touch_record(&mut self, tx: TxId, rid: RecordId) -> Result<IoCounts, DbError> {
        if !self.active.contains_key(&tx) {
            return Err(DbError::UnknownTx(tx));
        }
        self.check_addr(rid)?;
        let _ = self.store.read_ref(rid.block);
        Ok(IoCounts {
            db_reads: 1,
            ..IoCounts::default()
        })
    }

    /// Updates one record on behalf of `tx`: reads the block, journals its
    /// before-image on first touch (write-ahead rule), writes the block
    /// back in place.
    pub fn update_record(
        &mut self,
        tx: TxId,
        rid: RecordId,
        payload: &[u8],
    ) -> Result<IoCounts, DbError> {
        self.check_addr(rid)?;
        let state = self.active.get_mut(&tx).ok_or(DbError::UnknownTx(tx))?;
        let mut io = IoCounts::default();

        if state.journaled.insert(rid.block) {
            let image = self.store.peek(rid.block);
            self.journal.append_before_image(tx, rid.block, image);
            // Write-ahead rule: the before-image must be durable *before*
            // the in-place data write below, or a crash could leave an
            // uncommitted page image that recovery cannot undo. This force
            // is not an extra device operation — it IS the journal write
            // the paper counts as one of the three update I/Os (the
            // `journal_writes` charge); only its durability is made
            // explicit here.
            state.undo.push((rid.block, image.clone()));
            self.journal.force();
            io.journal_writes += 1;
        }

        // One read + one write I/O, mutating the block in place.
        let block = self.store.modify(rid.block);
        block.set_record(rid.slot, payload);
        io.db_reads += 1;
        io.db_writes += 1;
        Ok(io)
    }

    /// Commits `tx`: force-writes a commit record and forgets the undo set.
    pub fn commit(&mut self, tx: TxId) -> Result<IoCounts, DbError> {
        let state = self.active.remove(&tx).ok_or(DbError::UnknownTx(tx))?;
        self.retire_state(state);
        self.journal.append_forced(&LogRecord {
            tx,
            payload: LogPayload::Commit,
        });
        Ok(IoCounts {
            forced_writes: 1,
            ..IoCounts::default()
        })
    }

    /// Enters the prepared state for `tx` (2PC participant): forces the
    /// journal so every before-image plus the prepare record is durable.
    pub fn prepare(&mut self, tx: TxId) -> Result<IoCounts, DbError> {
        let state = self.active.get_mut(&tx).ok_or(DbError::UnknownTx(tx))?;
        state.prepared = true;
        self.journal.append_forced(&LogRecord {
            tx,
            payload: LogPayload::Prepare,
        });
        Ok(IoCounts {
            forced_writes: 1,
            ..IoCounts::default()
        })
    }

    /// True if `tx` is active and has entered the prepared state.
    pub fn is_prepared(&self, tx: TxId) -> bool {
        self.active.get(&tx).map(|s| s.prepared).unwrap_or(false)
    }

    /// Rolls `tx` back: restores before-images in reverse order and writes
    /// an abort record. Each restored block costs one database write.
    ///
    /// The abort record is **forced** whenever the transaction had journaled
    /// before-images: if it were buffered, a crash could lose the abort
    /// record while the (previously forced) before-images survive —
    /// recovery would then re-undo the transaction and clobber any later
    /// committed writes to the same blocks. (Found by the recovery property
    /// test; the same reasoning is why ARIES writes CLRs.)
    pub fn rollback(&mut self, tx: TxId) -> Result<IoCounts, DbError> {
        let mut state = self.active.remove(&tx).ok_or(DbError::UnknownTx(tx))?;
        let mut io = IoCounts::default();
        let had_images = !state.undo.is_empty();
        for (block_id, image) in state.undo.drain(..).rev() {
            self.store.write(block_id, image);
            io.db_writes += 1;
        }
        self.retire_state(state);
        let rec = LogRecord {
            tx,
            payload: LogPayload::Abort,
        };
        if had_images {
            self.journal.append_forced(&rec);
            io.forced_writes += 1;
        } else {
            self.journal.append(&rec);
            io.journal_writes += 1;
        }
        Ok(io)
    }

    /// Reads a record outside any transaction (verification only; does not
    /// count I/O).
    pub fn read_committed(&self, rid: RecordId) -> Vec<u8> {
        self.store.peek(rid.block).record(rid.slot).to_vec()
    }

    /// Simulates a crash (volatile state lost, un-forced journal tail lost)
    /// followed by restart recovery.
    ///
    /// Recovery scans the journal; any transaction with a before-image but
    /// no commit record is undone by restoring its before-images in reverse
    /// log order (presumed abort). Prepared-but-uncommitted transactions are
    /// also undone here — in the full 2PC protocol the simulator would ask
    /// the coordinator first, but for a storage-level restart presumed
    /// abort is the correct default. Returns the set of undone transactions.
    pub fn crash_and_recover(&mut self) -> Vec<TxId> {
        self.active.clear();
        self.journal.crash();
        let records = self.journal.scan();

        let committed: HashSet<TxId> = records
            .iter()
            .filter(|r| matches!(r.payload, LogPayload::Commit))
            .map(|r| r.tx)
            .collect();
        let aborted: HashSet<TxId> = records
            .iter()
            .filter(|r| matches!(r.payload, LogPayload::Abort))
            .map(|r| r.tx)
            .collect();

        let mut undone = Vec::new();
        // Restore in reverse log order so that if several transactions
        // touched the same block (impossible under 2PL for uncommitted
        // writers, but recovery must not rely on that), the oldest image
        // wins.
        for rec in records.iter().rev() {
            if let LogPayload::BeforeImage { block_id, image } = &rec.payload {
                if !committed.contains(&rec.tx) && !aborted.contains(&rec.tx) {
                    self.store.write(*block_id, (**image).clone());
                    if !undone.contains(&rec.tx) {
                        undone.push(rec.tx);
                    }
                }
            }
        }
        for &tx in &undone {
            self.journal.append(&LogRecord {
                tx,
                payload: LogPayload::Abort,
            });
        }
        self.journal.force();
        undone
    }

    /// Journal statistics (appends, forces).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Page-store I/O statistics.
    pub fn store(&self) -> &PageStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{RECORDS_PER_BLOCK, RECORD_SIZE};

    fn rid(block: u32, slot: u8) -> RecordId {
        RecordId { block, slot }
    }

    #[test]
    fn load_default_tags_every_record_with_its_flat_number() {
        // 18,000 records: the tags cross the 1- to 5-digit boundaries.
        let mut db = Database::new(3000);
        db.load_default();
        let mut want = [0u8; RECORD_SIZE];
        for flat in 0..3000 * RECORDS_PER_BLOCK as u64 {
            let tag = format!("rec{flat}");
            want.fill(0);
            want[..tag.len()].copy_from_slice(tag.as_bytes());
            assert_eq!(
                db.read_committed(RecordId::from_flat(flat)),
                want,
                "record {flat}"
            );
        }
        assert_eq!((db.store().reads(), db.store().writes()), (0, 0));
    }

    #[test]
    fn committed_update_is_durable() {
        let mut db = Database::new(10);
        db.begin(1).unwrap();
        let io = db.update_record(1, rid(2, 3), b"v1").unwrap();
        assert_eq!(io.db_reads, 1);
        assert_eq!(io.db_writes, 1);
        assert_eq!(io.journal_writes, 1);
        let io = db.commit(1).unwrap();
        assert_eq!(io.forced_writes, 1);
        assert_eq!(&db.read_committed(rid(2, 3))[..2], b"v1");
    }

    #[test]
    fn second_update_of_same_block_skips_journal() {
        let mut db = Database::new(10);
        db.begin(1).unwrap();
        db.update_record(1, rid(2, 0), b"a").unwrap();
        let io = db.update_record(1, rid(2, 1), b"b").unwrap();
        assert_eq!(io.journal_writes, 0, "before-image taken once per block");
        db.commit(1).unwrap();
    }

    #[test]
    fn rollback_restores_before_images() {
        let mut db = Database::new(10);
        db.load_default();
        let original = db.read_committed(rid(4, 4));
        db.begin(9).unwrap();
        db.update_record(9, rid(4, 4), b"scribble").unwrap();
        db.update_record(9, rid(5, 0), b"more").unwrap();
        let io = db.rollback(9).unwrap();
        assert_eq!(io.db_writes, 2);
        assert_eq!(db.read_committed(rid(4, 4)), original);
        assert!(!db.is_active(9));
    }

    #[test]
    fn crash_undoes_uncommitted_only() {
        let mut db = Database::new(10);
        db.load_default();
        let orig_b7 = db.read_committed(rid(7, 0));

        db.begin(1).unwrap();
        db.update_record(1, rid(3, 0), b"committed-data").unwrap();
        db.commit(1).unwrap();

        db.begin(2).unwrap();
        db.update_record(2, rid(7, 0), b"doomed").unwrap();
        // Force the journal so the before-image survives the crash; in
        // CARAT the journal shares the database disk and before-images are
        // written out with the data block.
        db.prepare(2).unwrap();

        let undone = db.crash_and_recover();
        assert_eq!(undone, vec![2]);
        assert_eq!(&db.read_committed(rid(3, 0))[..14], b"committed-data");
        assert_eq!(db.read_committed(rid(7, 0)), orig_b7);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut db = Database::new(10);
        db.load_default();
        db.begin(2).unwrap();
        db.update_record(2, rid(7, 0), b"doomed").unwrap();
        db.prepare(2).unwrap();
        let first = db.crash_and_recover();
        assert_eq!(first, vec![2]);
        let second = db.crash_and_recover();
        assert!(second.is_empty(), "second recovery finds nothing to undo");
    }

    #[test]
    fn unforced_updates_may_survive_crash_but_are_undone() {
        // The engine writes data blocks in place immediately; if the
        // before-image frame was forced, recovery undoes the update even
        // though the transaction never prepared.
        let mut db = Database::new(4);
        db.load_default();
        let orig = db.read_committed(rid(1, 1));
        db.begin(5).unwrap();
        db.update_record(5, rid(1, 1), b"phantom").unwrap();
        // Another transaction's forced commit forces tx 5's image too
        // (shared journal).
        db.begin(6).unwrap();
        db.update_record(6, rid(2, 0), b"x").unwrap();
        db.commit(6).unwrap();
        let undone = db.crash_and_recover();
        assert_eq!(undone, vec![5]);
        assert_eq!(db.read_committed(rid(1, 1)), orig);
    }

    #[test]
    fn errors_are_reported() {
        let mut db = Database::new(2);
        assert_eq!(db.commit(1), Err(DbError::UnknownTx(1)));
        db.begin(1).unwrap();
        assert_eq!(db.begin(1), Err(DbError::TxAlreadyActive(1)));
        assert_eq!(
            db.update_record(1, rid(2, 0), b"x"),
            Err(DbError::BadAddress(rid(2, 0)))
        );
        assert_eq!(
            db.read_record(1, rid(0, 6)).unwrap_err(),
            DbError::BadAddress(rid(0, 6))
        );
    }

    #[test]
    fn io_counts_add() {
        let a = IoCounts {
            db_reads: 1,
            db_writes: 2,
            journal_writes: 3,
            forced_writes: 4,
        };
        let b = a + a;
        assert_eq!(b.total(), 20);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }
}
