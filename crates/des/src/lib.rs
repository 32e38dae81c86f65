//! # carat-des — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel used by the
//! CARAT testbed simulator (`carat-sim`). It provides:
//!
//! * [`Scheduler`] — a future-event list with a simulated clock. Events with
//!   equal timestamps are delivered in insertion order (stable tie-breaking),
//!   which makes whole simulations reproducible bit-for-bit under a fixed
//!   random seed.
//! * [`Fcfs`] — a single-server first-come-first-served queueing resource
//!   (used for the CPU and disk service centers of each CARAT node), with
//!   built-in utilization / queue-length / completion statistics.
//! * [`stats`] — time-weighted and sample statistics accumulators.
//! * [`shard`] — conservative (lookahead-based) shard synchronization
//!   primitives: site-to-shard maps, timestamped cross-thread channels, the
//!   atomic promise board, and the block bound rule used by the sharded
//!   simulator.
//!
//! The kernel is event-oriented rather than process-oriented: the simulation
//! owns all state and reacts to popped events; resources hand back "job
//! started" notifications so the caller can schedule the matching completion
//! event. This avoids any need for coroutines or threads and keeps the hot
//! loop allocation-free.
//!
//! Time is a plain `f64` in **milliseconds**, matching the units of the
//! paper's Table 2 basic parameters.

pub mod fcfs;
pub mod hash;
pub mod scheduler;
pub mod shard;
pub mod stats;

pub use fcfs::{Fcfs, Started};
pub use hash::{splitmix64, FastBuildHasher, FastMap, FastSet, FxHasher64};
pub use scheduler::Scheduler;
pub use shard::{block_bound, PromiseBoard, ShardChannel, SiteShardMap};
pub use stats::{Counter, Histogram, Tally, TimeWeighted};

/// Simulated time in milliseconds.
pub type Time = f64;
