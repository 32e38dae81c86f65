//! # carat-storage — block-structured storage engine with before-image WAL
//!
//! A functional reimplementation of the storage substrate beneath CARAT's
//! DM servers (the paper's "simple CODASYL database system", §2):
//!
//! * fixed-size **512-byte disk blocks** holding **6 database records**
//!   each — the block is the unit of I/O transfer, locking, and logging,
//!   exactly as in the testbed;
//! * a **before-image journal** \[GRAY79-style physical logging\]: the first
//!   time a transaction dirties a block, the block's before-image is
//!   appended to the journal *before* the in-place update (write-ahead
//!   rule), enabling rollback and crash recovery;
//! * **transaction rollback** — restoring before-images in reverse order;
//! * **crash recovery** — a journal scan that undoes every transaction
//!   without a commit record (presumed abort), idempotently;
//! * **two-phase-commit hooks** — `prepare` writes a forced prepare record
//!   so a slave site can survive a crash between PREPARE and COMMIT.
//!
//! The engine is deliberately buffer-less: "a shared database buffer is not
//! used to reduce database I/O" is one of the paper's explicit modelling
//! assumptions, so every granule access is an I/O. The [`IoCounts`]
//! accounting lets the simulator charge simulated disk time for exactly the
//! I/O pattern the paper costs out (1 read for a retrieval; read + journal
//! write + in-place write for an update; forced log writes at commit).
//!
//! Journal records are serialised to bytes with a CRC-32 per record, and
//! recovery re-parses the byte stream — torn or corrupt tails are detected
//! and cleanly ignored, as a real log manager must. The CRC is computed by
//! slicing-by-8 (eight table lookups per 8-byte chunk); the unit tests
//! check it against `crc32_bytewise`, a one-byte-at-a-time oracle.

pub mod block;
pub mod db;
pub mod journal;
pub mod store;

pub use block::{Block, RecordId, BLOCK_SIZE, RECORDS_PER_BLOCK, RECORD_SIZE};
pub use db::{Database, DbError, IoCounts, TxId};
pub use journal::{Journal, LogPayload, LogRecord};
pub use store::PageStore;
