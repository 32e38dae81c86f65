//! # carat-sim — a discrete-event simulation of the CARAT testbed
//!
//! This crate stands in for the hardware testbed of the paper (two VAX
//! 11/780s running the CARAT distributed database system): it is the
//! **"measurement" side** of every model-vs-measurement comparison in the
//! reproduction. It simulates CARAT at the message level:
//!
//! * per node: one FCFS **CPU**, one FCFS **disk** (shared by database and
//!   recovery journal, as in the testbed — paper §2), a serialised **TM
//!   server**, and a pool of **DM servers** dynamically allocated to
//!   transactions for their lifetime;
//! * user (TR) processes submitting LRO/LU/DRO/DU transactions with think
//!   time between submissions;
//! * the CARAT message flows (TBEGIN/DBOPEN, TDO→DOSTEP/REMDO and their
//!   acknowledgments, TEND, PREPARE/COMMIT) with an inter-site
//!   communication delay α;
//! * **strict two-phase locking** at block granularity with shared and
//!   exclusive modes (via `carat-lock`);
//! * **deadlock detection at lock-request time**: a local wait-for-graph
//!   search, extended across sites in the manner of the Chandy–Misra–Haas
//!   edge-chasing probes \[CHAN83\] — the requester that closes a cycle is
//!   the victim;
//! * **before-image journaling and rollback** against a real block storage
//!   engine (via `carat-storage`) — aborted transactions physically restore
//!   their before-images and pay the rollback I/O;
//! * **centralized two-phase commit** with forced log writes at the
//!   coordinator and slaves;
//! * Table 2 service times charged for every CPU burst and disk transfer.
//!
//! Because the entire simulation is event-driven with a deterministic
//! scheduler and a seeded RNG, every run is exactly reproducible.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] adds, on top of the scheduled crash list: a lossy /
//! duplicating / reordering network (per-message drop probability, delivery
//! jitter, duplicate deliveries detected by sequence tokens), stochastic
//! node crash/restart processes (exponential MTTF/MTTR; restarted nodes run
//! journal recovery and rejoin), and timeout-driven retransmission with
//! bounded exponential backoff on every inter-site message — including both
//! two-phase-commit rounds. When the retry budget runs out on the forward
//! path the sender presumes its peer dead and aborts; participants orphaned
//! by a coordinator crash run the presumed-abort termination protocol,
//! resolving in-doubt transactions and releasing their locks after the full
//! retransmission schedule elapses. All fault randomness comes from a
//! dedicated stream derived from the seed, so runs stay bit-reproducible
//! and enabling faults never changes which transactions the workload
//! submits.
//!
//! ## Partitions and replication
//!
//! A [`PartitionPlan`] splits the cluster into site components (scheduled
//! splits and/or a stochastic split/heal process), replicates every record
//! over `k` consecutive sites with read-one/write-all semantics and
//! majority write quorums, and enforces a per-transaction
//! [`DegradationPolicy`] (abort / block-until-heal / stale-read) whenever a
//! submission cannot reach the replicas it needs. Reads fail over to the
//! next reachable replica; writes that proceed with a partial quorum leave
//! journal-backed catch-up work that is replayed onto the lagging replicas
//! at heal or restart, keeping the end-of-run commit audit exact. Every
//! split is validated to heal, and in-flight messages cut off by a split
//! fall back on the fault layer's timeout / presumed-abort machinery, so a
//! partitioned run can degrade but never hang.
//!
//! ## Site-sharded execution
//!
//! [`SimConfig::shards`] sets the worker threads of the site-sharded
//! engine — see the [`shard`] module. It runs one logical process per
//! site under one conservative driver: site-separable configurations
//! (all-local workloads with no crashes, faults, partitions, or
//! replication) with lookahead `+∞`, so no message is ever sent, and
//! cross-site configurations with α > 0 with lookahead α. The shard count
//! is purely a parallelism knob: the report, counters, trace, and metrics
//! are byte-identical for every value, and every other configuration
//! runs the monolithic loop whatever its value.
//!
//! ## Fidelity notes (vs. the real testbed)
//!
//! * The TM server *is* modelled as a serialisation point (it holds the
//!   server while force-writing commit records). The analytical model
//!   deliberately ignores this (paper §5.5) — which is exactly why the
//!   paper reports model-over-measurement deviations at small transaction
//!   sizes; the simulator reproduces that asymmetry.
//! * With the experiments' α ≈ 0, probe messages are evaluated at
//!   lock-request time on the union of the per-site wait-for graphs, which
//!   is precisely what the probe protocol converges to; the probe hops are
//!   counted in the statistics.
//! * 2PC rounds visit slave sites sequentially; the validation topology has
//!   a single slave site per transaction, so this equals the parallel
//!   protocol there.

pub mod config;
pub mod engine;
pub mod metrics;
pub mod program;
pub mod shard;
pub mod slab;

pub use carat_obs::{
    CounterRegistry, MetricKind, MetricsConfig, MetricsFilter, MetricsRecorder, TraceConfig,
    TraceEvent, TraceFilter, TraceKind, Tracer,
};
pub use config::{
    CcProtocol, DeadlockMode, DegradationPolicy, FaultPlan, PartitionPlan, SimConfig,
    SimConfigError, SplitSpec, VictimPolicy,
};
pub use engine::{Sim, SimError};
pub use metrics::{AvailabilityReport, NodeReport, SimReport, TypeReport};
pub use slab::{TxId, TxSlab};
