//! The event-driven simulation engine.
//!
//! Each transaction submission is compiled to a linear micro-op program
//! (`program::compile_into`); the engine advances program counters,
//! parking transactions on the CPU/disk queues, the TM server, the DM
//! pool, or a lock queue. Deadlock victims have their program replaced by
//! an abort program (rollback I/O per touched site, then resubmission
//! after think time).
//!
//! This file is the dispatch layer: the engine's types, [`Sim::build`],
//! the run loop, and `handle`/`advance`, which run the stations and the
//! TM and DM servers themselves and hand every other event and op to the
//! layer that owns it. Each layer is one child module, so all of them
//! share the engine's private state:
//!
//! | module | layer |
//! |---|---|
//! | `locks` | 2PL and TSO waits, local and global deadlock detection, victims |
//! | `storage` | begin and access at the storage engine, rollback extent, journal catch-up |
//! | `net` | messages and retransmission, the 2PC site ops, the abort round |
//! | `faults` | crashes and restarts, orphans, network splits, replica routing |
//! | `obs` | metrics hooks, the census, trace events, phase residence |
//! | `report` | transaction end, the statistics reset, wind-down and the report |
//! | `lp` (`lp.rs`) | the sharded engine's site logical process |

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};

use carat_des::{Fcfs, Histogram, Scheduler, Tally, Time};
use carat_lock::{LockManager, TimestampManager, WaitForGraph};
use carat_obs::{MetricKind, MetricsRecorder, TraceKind, Tracer};
use carat_storage::Database;
use carat_workload::TxType;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{CcProtocol, SimConfig, SimConfigError};
use crate::metrics::SimReport;
use crate::program::{compile_into, CompileScratch, Op, Plan, Program, Seg};
use crate::slab::{TxId, TxSlab};

mod faults;
mod locks;
mod net;
mod obs;
mod report;
mod storage;

// The sharded engine's site-LP methods live in `lp.rs`, a child module
// like the layers above.
#[path = "lp.rs"]
mod lp;
use lp::InboxEntry;
pub(crate) use lp::XMsg;
use obs::CensusKey;

/// Events of the simulation.
///
/// Transactions are addressed by their slab id ([`TxId`]): resolving one is
/// an array index, and an event that outlives its transaction (a completion
/// racing an abort, a duplicate delivery) misses on the generation check
/// exactly like the old hash-map lookup missed on the gid.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A CPU service burst finished at `site` for transaction `tx`.
    CpuDone { site: usize, tx: TxId },
    /// A database-disk transfer finished.
    DiskDone { site: usize, tx: TxId },
    /// A log-disk transfer finished (separate-log-disk configurations).
    LogDone { site: usize, tx: TxId },
    /// A network message arrived. `token` identifies the send attempt; a
    /// mismatch with the transaction's current token means a duplicate or
    /// superseded delivery, which is ignored (at-most-once processing).
    NetDone { tx: TxId, token: u64 },
    /// A retransmission timer fired for the send attempt `token`.
    NetTimeout { tx: TxId, token: u64 },
    /// A user (re)submits a transaction.
    Submit { user: usize },
    /// A Chandy–Misra–Haas probe arrives at `target`'s current location
    /// (`DeadlockMode::Probes` only).
    Probe {
        initiator: TxId,
        target: TxId,
        ttl: u8,
    },
    /// A probe hop addressed by gid rather than slab id: the coupled
    /// engine's form (`Sim::owned` set), where initiator and target may
    /// live in *different* logical processes and a peer's `TxId` means
    /// nothing here. Resolved through the per-LP gid index on delivery.
    ProbeG {
        initiator_gid: u64,
        target_gid: u64,
        ttl: u8,
    },
    /// Injected node crash (volatile state lost, journal recovery runs).
    Crash { site: usize },
    /// Stochastic node crash from the fault plan's MTTF process.
    FaultCrash { site: usize },
    /// A crashed node comes back up: journal recovery runs, parked users
    /// resubmit, the next stochastic crash is drawn.
    Restart { site: usize },
    /// Termination protocol at an orphaned 2PC participant: `gid`'s
    /// coordinator died; after the full retransmission schedule elapsed
    /// with no decision, the participant presumes abort, rolls back, and
    /// releases its locks. Carries the gid (the storage engine's key; the
    /// transaction itself was removed when its coordinator died).
    OrphanResolve { site: usize, gid: u64 },
    /// End of the warm-up transient: reset statistics.
    Warmup,
    /// A scheduled network split begins (`idx` indexes the partition
    /// plan's split list).
    PartitionStart { idx: u32 },
    /// The current network split heals: all components rejoin, journal
    /// catch-up replays onto lagging replicas, blocked submissions resume.
    PartitionHeal,
    /// Stochastic network split from the partition plan's MTBP process.
    FaultSplit,
}

impl Ev {
    /// Number of event kinds (size of the per-kind counter array).
    const KINDS: usize = 16;

    /// Profiling-counter names, indexed like [`Ev::idx`]. `ProbeG` shares
    /// the `ev_probe` label with `Probe`: they are the same logical event
    /// in two addressing modes, and the counter registry sums repeated
    /// keys, so `ev_probe` reports total probe hops either way.
    const LABELS: [&'static str; Ev::KINDS] = [
        "ev_cpu_done",
        "ev_disk_done",
        "ev_log_done",
        "ev_net_done",
        "ev_net_timeout",
        "ev_submit",
        "ev_probe",
        "ev_crash",
        "ev_fault_crash",
        "ev_restart",
        "ev_orphan_resolve",
        "ev_warmup",
        "ev_partition_start",
        "ev_partition_heal",
        "ev_fault_split",
        "ev_probe",
    ];

    /// Dense kind index for the per-kind event counters.
    #[inline]
    fn idx(&self) -> usize {
        match self {
            Ev::CpuDone { .. } => 0,
            Ev::DiskDone { .. } => 1,
            Ev::LogDone { .. } => 2,
            Ev::NetDone { .. } => 3,
            Ev::NetTimeout { .. } => 4,
            Ev::Submit { .. } => 5,
            Ev::Probe { .. } => 6,
            Ev::Crash { .. } => 7,
            Ev::FaultCrash { .. } => 8,
            Ev::Restart { .. } => 9,
            Ev::OrphanResolve { .. } => 10,
            Ev::Warmup => 11,
            Ev::PartitionStart { .. } => 12,
            Ev::PartitionHeal => 13,
            Ev::FaultSplit => 14,
            Ev::ProbeG { .. } => 15,
        }
    }

    /// The completion event of a service at `site`'s station whose queue
    /// gauge is `queue`.
    fn done(queue: MetricKind, site: usize, tx: TxId) -> Ev {
        match queue {
            MetricKind::CpuQ => Ev::CpuDone { site, tx },
            MetricKind::DiskQ => Ev::DiskDone { site, tx },
            _ => Ev::LogDone { site, tx },
        }
    }
}

/// A structured runtime failure of a simulation run (as opposed to a
/// configuration error, which [`Sim::new`] rejects up front).
#[derive(Debug)]
pub enum SimError {
    /// The event budget ([`crate::SimConfig::max_events`]) ran out before
    /// the run reached its horizon — the signature of a runaway or
    /// livelocked configuration. Carries the partial report assembled at
    /// the interruption point so the caller can see how far the run got.
    EventBudgetExhausted {
        /// The configured budget that was exhausted.
        budget: u64,
        /// Simulated time (ms) at which the budget ran out.
        sim_time_ms: f64,
        /// Report over whatever window had elapsed when the run stopped.
        partial: Box<SimReport>,
        /// Samples recorded up to (strictly below) the trip instant, when
        /// [`crate::SimConfig::metrics`] was set — the timeseries analogue
        /// of `partial`. Under the sharded engines every site contributes
        /// the samples up to its *own* trip (or run end) while
        /// `sim_time_ms` reports the earliest, mirroring how `partial`
        /// merges the per-site reports.
        partial_metrics: Option<Box<MetricsRecorder>>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventBudgetExhausted {
                budget,
                sim_time_ms,
                ..
            } => write!(
                f,
                "event budget of {budget} exhausted at simulated t={sim_time_ms:.1} ms \
                 (runaway or livelocked configuration)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// How one submission fared against the replica sets it needs.
enum RouteOutcome {
    /// Every request found its replicas; the (possibly rerouted and
    /// expanded) plan is ready to compile.
    Proceed,
    /// A request could not be served: abort the submission before it
    /// starts (the user retries after a pause).
    Refuse,
    /// A request could not be served and the degradation policy parks the
    /// user until the partition heals.
    Park,
}

/// One simulated node: shared CPU, shared database/journal disk, the
/// serialised TM server, the DM pool, the lock table, and the storage
/// engine.
struct NodeState {
    /// FCFS servers tag jobs with the packed slab token
    /// ([`TxId::token`]); token 0 is the background (recovery) job — live
    /// transactions never have it because slab generations start at 1.
    cpu: Fcfs<u64>,
    disk: Fcfs<u64>,
    log_disk: Fcfs<u64>,
    tm_busy: Option<TxId>,
    tm_queue: VecDeque<TxId>,
    dm_free: usize,
    dm_queue: VecDeque<TxId>,
    locks: LockManager,
    tso: TimestampManager,
    db: Database,
    io_ops: u64,
    base_lock_requests: u64,
    base_lock_conflicts: u64,
    base_cc_rejections: u64,
    /// False while the node is down between a stochastic crash and its
    /// restart: no messages are accepted and no users submit.
    up: bool,
    /// Users homed here whose submission arrived (or whose transaction was
    /// killed) while the node was down; they resubmit at restart.
    parked_users: Vec<usize>,
    /// Lifetime counter totals folded in from lock/TSO managers that were
    /// replaced at a crash (the fresh managers restart from zero, so the
    /// report adds these accumulators to the live counters).
    acc_lock_requests: u64,
    acc_lock_conflicts: u64,
    acc_cc_rejections: u64,
}

impl NodeState {
    /// The station whose queue gauge is `queue`: the CPU, the database
    /// disk or the log disk.
    fn station(&mut self, queue: MetricKind) -> &mut Fcfs<u64> {
        match queue {
            MetricKind::CpuQ => &mut self.cpu,
            MetricKind::DiskQ => &mut self.disk,
            _ => &mut self.log_disk,
        }
    }
}

/// A live transaction (one submission). `pub(crate)` only so [`XMsg`] can
/// name it; the fields stay private to the engine and its layers.
pub(crate) struct Txn {
    /// Monotone global id: the TSO timestamp, the youngest-victim age, the
    /// storage engine's transaction key, and the audit value — everything
    /// that needs a *total order* over submissions, which the recycled
    /// slab id cannot provide.
    gid: u64,
    user: usize,
    home: usize,
    ty: TxType,
    prog: Program,
    pc: usize,
    submit_time: Time,
    plan: Plan,
    begun_sites: Vec<usize>,
    dm_sites: Vec<usize>,
    aborting: bool,
    /// When the transaction entered its current lock wait, if blocked.
    blocked_since: Option<Time>,
    /// Records this transaction has updated (for the commit audit).
    updated: Vec<(usize, carat_storage::RecordId)>,
    /// When the currently-dispatched timed op (or queue wait) began, for
    /// the per-phase residence accounting.
    op_started: Time,
    /// TM server currently held, if any (a crash diversion must wait until
    /// the TM is released so the server is never orphaned).
    tm_held: Option<usize>,
    /// A node this transaction had touched crashed: abort at the next safe
    /// point.
    poisoned: bool,
    /// Token of the in-flight network send, if parked on a `Net` op.
    /// Deliveries and timeouts carrying any other token are stale.
    net_token: Option<u64>,
    /// Retransmission attempt of the current send (0 = first try).
    net_attempt: u32,
    /// The commit decision is under way (a `CommitSite` has executed):
    /// message losses from here on retry past the bound instead of
    /// presuming abort, so a made decision always reaches every
    /// participant.
    decided: bool,
    /// Site the transaction's control flow currently executes at (home at
    /// submission, the destination after each network hop, home again when
    /// the coordinator drives an abort). Messages originate here, so a
    /// network split is checked against this site's component.
    at_site: usize,
    /// Replicas this submission's writes could not reach at routing time
    /// (`(site, record)`): queued for journal catch-up when the
    /// transaction commits.
    missed: Vec<(usize, carat_storage::RecordId)>,
    /// Coupled engine only: this slab entry is a *ghost* — the real
    /// transaction state migrated to another logical process and what
    /// remains here is the anchor for locally-held locks, TSO entries, and
    /// lock-queue positions (all keyed by the slab token, which the ghost
    /// keeps stable until the transaction migrates back).
    away: bool,
    /// Coupled engine only, maintained at the *home* LP: the site the
    /// transaction currently executes at. Every migration passes through
    /// home (programs sandwich each remote visit with `Net` hops to and
    /// from home), so home always knows where to route a probe.
    cur_site: usize,
    /// What this slab entry is counted as in [`Sim::census`] (`None`:
    /// nothing; always `None` with the recorder off).
    counted: Option<CensusKey>,
}

impl Txn {
    /// A blank transaction shell for the recycling pool.
    fn empty() -> Txn {
        Txn {
            gid: 0,
            user: 0,
            home: 0,
            ty: TxType::Lro,
            prog: Program::with_capacity(0),
            pc: 0,
            submit_time: 0.0,
            plan: Plan {
                requests: Vec::new(),
            },
            begun_sites: Vec::new(),
            dm_sites: Vec::new(),
            aborting: false,
            blocked_since: None,
            updated: Vec::new(),
            op_started: 0.0,
            tm_held: None,
            poisoned: false,
            net_token: None,
            net_attempt: 0,
            decided: false,
            at_site: 0,
            missed: Vec::new(),
            away: false,
            cur_site: 0,
            counted: None,
        }
    }
}

#[derive(Default)]
struct Stats {
    // Everything here feeds `SimReport`: ordered maps so that iteration
    // (and with it every accumulation and emission order) is identical
    // across runs and processes — `HashMap`'s RandomState hasher is not.
    commits: BTreeMap<(usize, TxType), u64>,
    aborts: BTreeMap<(usize, TxType), u64>,
    resp: BTreeMap<(usize, TxType), Tally>,
    resp_hist: BTreeMap<(usize, TxType), Histogram>,
    records: BTreeMap<usize, u64>,
    local_deadlocks: u64,
    global_deadlocks: u64,
    probe_hops: u64,
    /// One sample per completed lock wait (paper's LW phase occupancy).
    lock_wait: Tally,
    /// Measured wall-time residence per (home, type, phase) — the
    /// simulator-side analogue of the model's phase decomposition. Dense:
    /// indexed by `phase_idx` (lexicographic in (home, type, segment), the
    /// same order the old ordered map iterated in), grown on demand. This
    /// accumulator is hit on every timed-op completion, so it must not pay
    /// a tree lookup per event.
    phase_ms: Vec<f64>,
    crashes: u64,
    crash_kills: u64,
    recoveries: u64,
    net_messages: u64,
    net_drops: u64,
    net_duplicates: u64,
    net_retries: u64,
    timeout_aborts: u64,
    in_doubt_resolutions: u64,
    // Availability counters under partitions/replication (all zero when
    // the partition plan is inert).
    partitions: u64,
    heals: u64,
    partition_ms: f64,
    partition_aborts: u64,
    blocked_on_heal: u64,
    stale_reads: u64,
    degraded_reads: u64,
    failovers: u64,
    catchup_records: u64,
    window_start: Time,
}

impl Stats {
    /// Dense index of the (home, type, segment) phase cell.
    #[inline]
    fn phase_idx(home: usize, ty: TxType, seg: Seg) -> usize {
        (home * TxType::ALL.len() + ty as usize) * Seg::ALL.len() + seg as usize
    }

    /// Accumulates `dt` milliseconds of residence into a phase cell.
    #[inline]
    fn add_phase(&mut self, home: usize, ty: TxType, seg: Seg, dt: f64) {
        let idx = Self::phase_idx(home, ty, seg);
        if idx >= self.phase_ms.len() {
            self.phase_ms.resize(idx + 1, 0.0);
        }
        self.phase_ms[idx] += dt;
    }

    /// Accumulated residence of a phase cell (0 when never touched).
    fn phase(&self, home: usize, ty: TxType, seg: Seg) -> f64 {
        self.phase_ms
            .get(Self::phase_idx(home, ty, seg))
            .copied()
            .unwrap_or(0.0)
    }

    /// Pools a peer logical process's statistics into this one (sharded
    /// engine merge). Callers merge in site order, so every floating-point
    /// accumulation order — and with it every report byte — is a pure
    /// function of the configuration. Keys are mostly disjoint across LPs
    /// (commits/response tallies record at the home LP only); the ones
    /// that are not (aborts charged where the victim blocked, phase
    /// residence charged where the op ran) sum per key.
    fn merge(&mut self, other: Stats) {
        for (k, v) in other.commits {
            *self.commits.entry(k).or_default() += v;
        }
        for (k, v) in other.aborts {
            *self.aborts.entry(k).or_default() += v;
        }
        for (k, v) in other.resp {
            self.resp.entry(k).or_default().merge(&v);
        }
        for (k, v) in other.resp_hist {
            self.resp_hist
                .entry(k)
                .or_insert_with(Histogram::for_latency_ms)
                .merge(&v);
        }
        for (k, v) in other.records {
            *self.records.entry(k).or_default() += v;
        }
        self.local_deadlocks += other.local_deadlocks;
        self.global_deadlocks += other.global_deadlocks;
        self.probe_hops += other.probe_hops;
        self.lock_wait.merge(&other.lock_wait);
        if other.phase_ms.len() > self.phase_ms.len() {
            self.phase_ms.resize(other.phase_ms.len(), 0.0);
        }
        for (i, v) in other.phase_ms.iter().enumerate() {
            self.phase_ms[i] += v;
        }
        self.crashes += other.crashes;
        self.crash_kills += other.crash_kills;
        self.recoveries += other.recoveries;
        self.net_messages += other.net_messages;
        self.net_drops += other.net_drops;
        self.net_duplicates += other.net_duplicates;
        self.net_retries += other.net_retries;
        self.timeout_aborts += other.timeout_aborts;
        self.in_doubt_resolutions += other.in_doubt_resolutions;
        self.partitions += other.partitions;
        self.heals += other.heals;
        self.partition_ms += other.partition_ms;
        self.partition_aborts += other.partition_aborts;
        self.blocked_on_heal += other.blocked_on_heal;
        self.stale_reads += other.stale_reads;
        self.degraded_reads += other.degraded_reads;
        self.failovers += other.failovers;
        self.catchup_records += other.catchup_records;
    }
}

/// The CARAT testbed simulator.
///
/// ```
/// use carat_sim::{Sim, SimConfig};
/// use carat_workload::StandardWorkload;
///
/// let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(2), 4, 42);
/// cfg.warmup_ms = 5_000.0;
/// cfg.measure_ms = 20_000.0;
/// let report = Sim::new(cfg).expect("valid config").run();
/// assert!(report.total_tx_per_s() > 0.0);
/// ```
pub struct Sim {
    cfg: SimConfig,
    sched: Scheduler<Ev>,
    nodes: Vec<NodeState>,
    txs: TxSlab<Txn>,
    users: Vec<(usize, TxType)>,
    next_gid: u64,
    rng: StdRng,
    /// Dedicated stream for fault decisions (drops, jitter, crash draws),
    /// derived from the seed. Keeping it separate from the workload stream
    /// means enabling faults never changes *which* transactions run —
    /// only what happens to their messages and nodes.
    fault_rng: StdRng,
    next_token: u64,
    events: u64,
    ready: VecDeque<TxId>,
    stats: Stats,
    /// Orphaned 2PC participants:
    /// `(site, gid) -> (slab token, held a DM server there)`.
    /// Registered when a transaction's coordinator dies with downtime;
    /// resolved by `OrphanResolve` (or swept away if the site itself
    /// crashes first). The token is kept because the transaction leaves
    /// the slab when its coordinator dies, but its lock-manager and TSO
    /// state at other sites is keyed by the token.
    orphans: BTreeMap<(usize, u64), (u64, bool)>,
    /// Commit audit: last committed writer of each record. At the end of
    /// the run the storage engines must hold exactly these writers' values
    /// — an end-to-end check that 2PL + WAL + 2PC preserved integrity.
    last_committed: BTreeMap<(usize, carat_storage::RecordId), u64>,
    /// Component label of each site under the current split. All labels
    /// equal (the resting state) means the cluster is connected; messages
    /// only flow between sites with equal labels.
    comp: Vec<u8>,
    /// A split is currently in force.
    partition_active: bool,
    /// When the current split began (valid while `partition_active`).
    partition_since: Time,
    /// Users parked by [`DegradationPolicy::BlockUntilHeal`]; they
    /// resubmit when the split heals.
    heal_waiters: Vec<usize>,
    /// Journal catch-up queues: per lagging replica site, the committed
    /// `(gid, record)` writes it missed, in commit order. Replayed through
    /// the site's storage engine at heal, restart, or end of run.
    pending_catchup: BTreeMap<usize, Vec<(u64, carat_storage::RecordId)>>,
    /// Cached: replica routing is live this run (replication > 1 or an
    /// active partition plan). False keeps every partition/replica hook
    /// off the hot path.
    replicated: bool,
    /// Lifetime (never reset) conservation counters: submissions that
    /// entered execution, submissions refused before a gid was allocated,
    /// and transactions destroyed by home-node crashes.
    tx_started: u64,
    tx_submit_refusals: u64,
    tx_killed: u64,
    // Reusable working storage: the event loop allocates nothing in the
    // steady state.
    /// Retired `Txn` shells (their plan/program/site vectors keep their
    /// capacity across submissions).
    spare_txns: Vec<Txn>,
    /// Scratch for `compile_into`.
    compile_scratch: CompileScratch,
    /// Lock-release wake lists (`(token, block)` pairs).
    woken_scratch: Vec<(u64, u32)>,
    /// TSO wake lists.
    woken_tso_scratch: Vec<u64>,
    /// Crash handling: transactions stranded in the dead site's queues.
    stranded_scratch: Vec<TxId>,
    /// Crash handling: `(gid, id)` of transactions that touched the site,
    /// sorted by gid so the kill/poison order is reproducible.
    victims_scratch: Vec<(u64, TxId)>,
    /// Abort-program assembly: sites needing rollback.
    sites_scratch: Vec<usize>,
    /// Abort-program assembly: the program under construction (swapped
    /// into the victim, taking its old program's capacity in exchange).
    abort_prog: Program,
    /// Distinct updated blocks for the rollback extent.
    blocks_scratch: HashSet<u32>,
    /// Replica routing: `(slot index, extra replica)` write expansions.
    route_scratch: Vec<(usize, usize)>,
    /// Wait-for graph for deadlock checks, rebuilt in place per conflict.
    wfg: WaitForGraph,
    /// Direct wait-for targets when launching probes.
    probe_targets: Vec<u64>,
    /// Audit-value formatting buffer (`g<gid>b<block>s<slot>`).
    val_buf: String,
    /// Lifecycle tracer, present only when [`SimConfig::trace`] is set.
    /// Boxed so the untraced simulator pays one pointer of state and one
    /// `is_some` branch per emission site — the same inert-default pattern
    /// as [`crate::FaultPlan::is_active`]. The tracer only ever *reads*
    /// simulation state, so traced and untraced runs execute the same
    /// event sequence and produce the same report.
    tracer: Option<Box<Tracer>>,
    /// Sim-time metrics recorder, present only when
    /// [`SimConfig::metrics`] is set. Same inert-default pattern as the
    /// tracer: without it each `obs_*` hook is one branch. The hooks only
    /// ever *read* simulation state, after the mutations they report, so
    /// recorded and unrecorded runs execute the same event sequence and
    /// produce the same report.
    metrics: Option<Box<MetricsRecorder>>,
    /// Per-site `[active by home, blocked, 2PC-deciding]` counts of the
    /// slab entries ([`CENSUS_KINDS`]), kept only with the recorder on.
    census: Vec<[u64; 3]>,
    /// Cross-LP messages handled / emitted by this logical process
    /// (deterministic inputs to the `shard` metric category; always 0 in
    /// the monolithic engine and in site-separable sharded runs).
    xmsg_in: u64,
    xmsg_out: u64,
    /// Events handled per [`Ev`] kind (profiling counters).
    ev_counts: [u64; Ev::KINDS],
    // --- Sharded-engine (site-level logical process) state. All inert ---
    // --- in the monolithic engine: `owned` is `None` and nothing below ---
    // --- is touched.                                                   ---
    /// `Some(site)` when this `Sim` is one logical process of the sharded
    /// engine, executing only the events of `site`. The full topology is
    /// still constructed (node indices keep their global meaning) but peer
    /// sites' nodes stay inert, with empty storage.
    owned: Option<usize>,
    /// Gid allocation stride. The monolithic engine strides by 1; an LP
    /// strides by the site count from a base of `site + 1`, so gids stay
    /// globally unique and monotone per allocator without coordination.
    gid_stride: u64,
    /// Inbound cross-LP messages not yet ingested, merged with the local
    /// future-event list by `(time, sender, seq)`.
    inbox: BinaryHeap<Reverse<InboxEntry>>,
    /// Per-sender ingestion sequence numbers: each sender's messages to
    /// this LP arrive in emission order (handed over directly or through
    /// one FIFO channel), so numbering arrivals at ingestion reproduces
    /// that order no matter how the driver batches them.
    inbox_seqs: Vec<u64>,
    /// The highest bound this LP has been stepped to: it has run every
    /// event below it, so a message still to arrive must be timestamped
    /// at or above it.
    lp_bound: Time,
    /// Outbound cross-LP messages produced by the current step, as
    /// `(destination site, delivery time, payload)`. The driver routes
    /// them after each step: straight into a sibling LP on its own
    /// thread, or into a channel to another thread.
    outbox: Vec<(usize, Time, XMsg)>,
    /// gid → local slab id of every resident or ghost transaction, for
    /// resolving gid-addressed messages (probes target transactions this
    /// LP may only know as ghosts).
    gid_index: BTreeMap<u64, TxId>,
    /// Merge bookkeeping (valid on the merge target after `absorb`):
    /// live-at-end transactions homed at absorbed LPs.
    absorbed_live: u64,
    /// Earliest submit time among absorbed LPs' live home transactions
    /// (`+∞` when none) — feeds `oldest_inflight_ms`.
    absorbed_oldest_submit: f64,
    /// Scheduler-heap high-water maximum over absorbed LPs.
    absorbed_sched_hwm: usize,
    /// Slab high-water / slot maxima over absorbed LPs.
    absorbed_slab_hwm: usize,
    absorbed_slab_slots: usize,
}

impl Sim {
    /// Builds the simulator from a configuration, validating it first.
    pub fn new(cfg: SimConfig) -> Result<Self, SimConfigError> {
        Sim::build(cfg, None)
    }

    /// [`Sim::new`] for the whole topology (`owned = None`) or for one
    /// site's logical process (`owned = Some(site)`). An LP builds real
    /// storage only for its owned site; peer nodes get an empty database,
    /// so a stray access to a peer's storage panics instead of reading
    /// stale data. A whole-topology `Sim` of a sharded configuration
    /// builds none: its run hands the configuration to per-site LPs.
    fn build(cfg: SimConfig, owned: Option<usize>) -> Result<Self, SimConfigError> {
        cfg.validate()?;
        let monolithic = crate::shard::lookahead(&cfg).is_none();
        let nodes = (0..cfg.params.sites())
            .map(|site| {
                let db = if owned.map_or(monolithic, |o| o == site) {
                    let mut db = Database::new(cfg.params.n_granules);
                    db.load_default();
                    db
                } else {
                    Database::new(0)
                };
                NodeState {
                    cpu: Fcfs::new(0.0),
                    disk: Fcfs::new(0.0),
                    log_disk: Fcfs::new(0.0),
                    tm_busy: None,
                    tm_queue: VecDeque::new(),
                    dm_free: cfg.dm_pool,
                    dm_queue: VecDeque::new(),
                    locks: LockManager::new(),
                    tso: if cfg.cc == CcProtocol::TimestampOrderingThomas {
                        TimestampManager::new_with_thomas_rule()
                    } else {
                        TimestampManager::new()
                    },
                    db,
                    io_ops: 0,
                    base_lock_requests: 0,
                    base_lock_conflicts: 0,
                    base_cc_rejections: 0,
                    up: true,
                    parked_users: Vec::new(),
                    acc_lock_requests: 0,
                    acc_lock_conflicts: 0,
                    acc_cc_rejections: 0,
                }
            })
            .collect();
        let mut users = Vec::new();
        for (node, node_users) in cfg.workload.users.iter().enumerate() {
            for &(ty, count) in node_users {
                for _ in 0..count {
                    users.push((node, ty));
                }
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        // Independent fault stream; the constant is the 64-bit golden ratio
        // (SplitMix64's increment), any fixed odd constant would do.
        let fault_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let tracer = cfg.trace.clone().map(|tc| Box::new(Tracer::new(tc)));
        let sites = cfg.params.sites();
        let replicated = cfg.partition_plan.replication > 1 || cfg.partition_plan.is_active();
        // One series per recorded site and kind: the log disk's only with
        // a separate log disk, the cross-LP message counts only on an LP.
        let metrics = cfg.metrics.as_ref().map(|mc| {
            let recorded = match owned {
                Some(s) => s as u32..s as u32 + 1,
                None => 0..sites as u32,
            };
            let log_disk = cfg.separate_log_disk;
            Box::new(MetricsRecorder::new(mc, recorded, |kind| match kind {
                MetricKind::LogDiskQ | MetricKind::LogDiskUtil => log_disk,
                MetricKind::XmsgIn | MetricKind::XmsgOut => owned.is_some(),
                _ => true,
            }))
        });
        let mut sim = Sim {
            tracer,
            metrics,
            census: vec![[0; 3]; sites],
            xmsg_in: 0,
            xmsg_out: 0,
            ev_counts: [0; Ev::KINDS],
            comp: vec![0; sites],
            partition_active: false,
            partition_since: 0.0,
            heal_waiters: Vec::new(),
            pending_catchup: BTreeMap::new(),
            replicated,
            tx_started: 0,
            tx_submit_refusals: 0,
            tx_killed: 0,
            cfg,
            sched: Scheduler::new(),
            nodes,
            txs: TxSlab::new(),
            users,
            next_gid: 1,
            rng,
            fault_rng,
            next_token: 1,
            events: 0,
            ready: VecDeque::new(),
            stats: Stats::default(),
            orphans: BTreeMap::new(),
            last_committed: BTreeMap::new(),
            spare_txns: Vec::new(),
            compile_scratch: CompileScratch::default(),
            woken_scratch: Vec::new(),
            woken_tso_scratch: Vec::new(),
            stranded_scratch: Vec::new(),
            victims_scratch: Vec::new(),
            sites_scratch: Vec::new(),
            abort_prog: Program::with_capacity(0),
            blocks_scratch: HashSet::new(),
            route_scratch: Vec::new(),
            wfg: WaitForGraph::new(),
            probe_targets: Vec::new(),
            val_buf: String::new(),
            owned,
            gid_stride: 1,
            inbox: BinaryHeap::new(),
            inbox_seqs: vec![0; sites],
            lp_bound: 0.0,
            outbox: Vec::new(),
            gid_index: BTreeMap::new(),
            absorbed_live: 0,
            absorbed_oldest_submit: f64::INFINITY,
            absorbed_sched_hwm: 0,
            absorbed_slab_hwm: 0,
            absorbed_slab_slots: 0,
        };
        sim.obs_seed();
        Ok(sim)
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Panics if the [`SimConfig::max_events`] budget runs out — callers
    /// that set a budget should use [`run_checked`](Self::run_checked) to
    /// get the structured [`SimError`] instead. With the default unlimited
    /// budget this never panics.
    pub fn run(self) -> SimReport {
        self.run_traced().0
    }

    /// Like [`run`](Self::run), but also hands back the lifecycle tracer
    /// (when [`SimConfig::trace`] was set) so the caller can export the
    /// recorded events. The report is identical to the untraced run's.
    pub fn run_traced(self) -> (SimReport, Option<Tracer>) {
        match self.run_checked_traced() {
            Ok(out) => out,
            Err(e) => panic!("simulation aborted: {e}"),
        }
    }

    /// Runs the simulation, turning an exhausted event budget into a
    /// structured [`SimError`] (with a partial report) instead of a panic.
    pub fn run_checked(self) -> Result<SimReport, SimError> {
        self.run_checked_traced().map(|(report, _)| report)
    }

    /// [`run_checked`](Self::run_checked) + the lifecycle tracer.
    pub fn run_checked_traced(self) -> Result<(SimReport, Option<Tracer>), SimError> {
        self.run_checked_instrumented()
            .map(|(report, tracer, _)| (report, tracer))
    }

    /// [`run_checked_traced`](Self::run_checked_traced) + the sim-time
    /// metrics recorder (when [`SimConfig::metrics`] was set). On a
    /// budget trip the samples recorded before the trip ride in
    /// [`SimError::EventBudgetExhausted`]'s `partial_metrics`.
    pub fn run_checked_instrumented(
        mut self,
    ) -> Result<(SimReport, Option<Tracer>, Option<MetricsRecorder>), SimError> {
        // Site-separable configurations (lookahead +∞) and cross-site
        // configurations with a positive network delay (lookahead α) run
        // as conservatively synchronized per-site logical processes on
        // `cfg.shards` worker threads. The choice is a pure function of
        // the configuration excluding `shards`, so the merged report is
        // byte-identical for every shard count (see the `shard` module
        // docs). Everything else — crashes, faults, partitions, α = 0 —
        // runs the monolithic loop below.
        if let Some(lookahead) = crate::shard::lookahead(&self.cfg) {
            return crate::shard::run_sharded(self.cfg, lookahead);
        }
        if self.cfg.shards > 1 {
            // `--shards` was requested but the sharded engine does not
            // apply: run monolithically and record the fallback in the
            // process-global telemetry (never in the report, which must
            // stay byte-identical to a `--shards 1` run).
            carat_obs::shardstats::note_fallback();
        }
        for u in 0..self.users.len() {
            self.sched.schedule(0.0, Ev::Submit { user: u });
        }
        self.sched.schedule(self.cfg.warmup_ms, Ev::Warmup);
        for i in 0..self.cfg.crashes.len() {
            let (at, site) = self.cfg.crashes[i];
            self.sched.schedule(at, Ev::Crash { site });
        }
        if self.cfg.fault_plan.mttf_ms > 0.0 {
            let mttf = self.cfg.fault_plan.mttf_ms;
            for site in 0..self.nodes.len() {
                let at = self.exp_sample(mttf);
                self.sched.schedule(at, Ev::FaultCrash { site });
            }
        }
        // Partition schedule: scheduled splits (and their heals) go on the
        // calendar up front; the stochastic split process keeps exactly one
        // pending FaultSplit draw alive at all times. Drawn after the crash
        // draws so an inert partition plan leaves the fault stream — and
        // with it every existing fault configuration — untouched.
        for idx in 0..self.cfg.partition_plan.splits.len() {
            let (at, heal) = {
                let s = &self.cfg.partition_plan.splits[idx];
                (s.at_ms, s.heal_ms)
            };
            self.sched
                .schedule(at, Ev::PartitionStart { idx: idx as u32 });
            self.sched.schedule(heal, Ev::PartitionHeal);
        }
        if self.cfg.partition_plan.mtbp_ms > 0.0 {
            let at = self.exp_sample(self.cfg.partition_plan.mtbp_ms);
            self.sched.schedule(at, Ev::FaultSplit);
        }
        let end = self.cfg.warmup_ms + self.cfg.measure_ms;
        let budget = self.cfg.max_events;

        while let Some((t, ev)) = self.sched.pop() {
            if t > end {
                break;
            }
            if budget != 0 && self.events >= budget {
                let partial_metrics = self.metrics.take().map(|mut m| {
                    m.close_before(t);
                    m
                });
                let report = self.wind_down(t.min(end));
                return Err(SimError::EventBudgetExhausted {
                    budget,
                    sim_time_ms: t,
                    partial: Box::new(report),
                    partial_metrics,
                });
            }
            self.events += 1;
            self.handle(ev);
            while let Some(id) = self.ready.pop_front() {
                self.advance(id);
            }
        }
        // No event beyond the cutoff can change state: fix the last
        // boundary and take the recorder out before wind-down mutates node
        // state (crash recovery, replica catch-up), so those changes never
        // reach a sample.
        let metrics = self.metrics.take().map(|mut m| {
            m.close_through(end);
            *m
        });
        let report = self.wind_down(end);
        Ok((report, self.tracer.take().map(|b| *b), metrics))
    }

    fn handle(&mut self, ev: Ev) {
        self.ev_counts[ev.idx()] += 1;
        match ev {
            Ev::CpuDone { site, tx } => self.station_done(site, MetricKind::CpuQ, tx),
            Ev::DiskDone { site, tx } => self.station_done(site, MetricKind::DiskQ, tx),
            Ev::LogDone { site, tx } => self.station_done(site, MetricKind::LogDiskQ, tx),
            Ev::NetDone { tx, token } => self.net_delivered(tx, token),
            Ev::NetTimeout { tx, token } => self.net_timed_out(tx, token),
            Ev::Submit { user } => self.submit(user),
            Ev::Probe {
                initiator,
                target,
                ttl,
            } => self.handle_probe(initiator, target, ttl),
            Ev::Crash { site } => self.crash_node(site, None),
            Ev::FaultCrash { site } => self.fault_crash(site),
            Ev::Restart { site } => self.restart_node(site),
            Ev::OrphanResolve { site, gid } => self.resolve_orphan(site, gid),
            Ev::Warmup => self.reset_stats(self.sched.now()),
            Ev::PartitionStart { idx } => self.partition_start(idx as usize),
            Ev::PartitionHeal => self.partition_heal(),
            Ev::FaultSplit => self.fault_split(),
            Ev::ProbeG {
                initiator_gid,
                target_gid,
                ttl,
            } => self.handle_probe_gid(initiator_gid, target_gid, ttl),
        }
    }

    /// Queues `job` for `ms` of service at `site`'s station whose queue
    /// gauge is `queue`. Token 0 is the background (recovery) job.
    fn station_arrive(&mut self, site: usize, queue: MetricKind, job: TxId, ms: f64) {
        let now = self.sched.now();
        if let Some(started) = self.nodes[site].station(queue).arrive(now, job.token(), ms) {
            self.sched
                .schedule_in(started.service, Ev::done(queue, site, job));
        }
        self.obs_station(site, queue);
    }

    /// A service at `site`'s station `queue` finished for `tx`: start the
    /// next queued job there and move `tx` past its timed op.
    fn station_done(&mut self, site: usize, queue: MetricKind, tx: TxId) {
        let now = self.sched.now();
        if let Some(started) = self.nodes[site].station(queue).complete(now) {
            let next = TxId::from_token(started.job);
            self.sched
                .schedule_in(started.service, Ev::done(queue, site, next));
        }
        self.obs_station(site, queue);
        self.step_past(tx);
    }

    /// Completion of a timed op: account its residence (queueing +
    /// service) to its phase, move past it, and make the tx runnable.
    pub(super) fn step_past(&mut self, id: TxId) {
        if let Some(tx) = self.txs.get(id) {
            let seg = tx.prog.segs[tx.pc];
            self.resume(id, seg);
        }
    }

    /// Moves `id` past the op it was parked on and makes it runnable,
    /// charging the time since the op started to phase `seg`.
    fn resume(&mut self, id: TxId, seg: Seg) {
        let tx = self.txs.get_mut(id).expect("resumed tx is live");
        let waited = self.sched.now() - tx.op_started;
        tx.pc += 1;
        self.ready.push_back(id);
        self.charge(id, seg, waited);
    }

    /// Hands `site`'s TM server (`seg` = [`Seg::TmWait`]) or one of its DM
    /// servers ([`Seg::DmWait`]) to the next *live* queued waiter, skipping
    /// transactions killed by a crash, and resumes it past its acquire op.
    /// Returns the new holder, if any waited.
    fn hand_off(&mut self, site: usize, seg: Seg) -> Option<TxId> {
        let node = &mut self.nodes[site];
        let queue = if seg == Seg::TmWait {
            &mut node.tm_queue
        } else {
            &mut node.dm_queue
        };
        let next = std::iter::from_fn(|| queue.pop_front()).find(|&w| self.txs.contains(w))?;
        self.resume(next, seg);
        Some(next)
    }

    /// Hands the TM server at `site` to the next live queued waiter, or
    /// marks it free.
    pub(super) fn grant_tm_to_next(&mut self, site: usize) {
        let next = self.hand_off(site, Seg::TmWait);
        if let Some(next) = next {
            self.txs.get_mut(next).expect("new TM holder").tm_held = Some(site);
        }
        self.nodes[site].tm_busy = next;
        self.obs_servers(site);
    }

    /// Returns one DM server at `site` to the pool, handing it directly to
    /// the next live queued waiter if there is one.
    pub(super) fn free_dm(&mut self, site: usize) {
        match self.hand_off(site, Seg::DmWait) {
            Some(next) => self
                .txs
                .get_mut(next)
                .expect("new DM holder")
                .dm_sites
                .push(site),
            None => self.nodes[site].dm_free = self.nodes[site].dm_free.saturating_add(1),
        }
        self.obs_servers(site);
    }

    fn submit(&mut self, user: usize) {
        let (home, ty) = self.users[user];
        if !self.nodes[home].up {
            // The user's terminal has nowhere to submit to; it re-enters
            // the closed network when the node restarts. (Checked before
            // any RNG draw so the workload stream is unperturbed.)
            self.nodes[home].parked_users.push(user);
            return;
        }
        // Recycle a retired shell: its plan/program/site vectors keep their
        // capacity, so the steady-state submission path allocates nothing.
        let mut tx = self.spare_txns.pop().unwrap_or_else(Txn::empty);
        Plan::sample_into(
            &mut self.rng,
            &self.cfg.params,
            home,
            ty,
            self.cfg.n_requests,
            &mut tx.plan,
        );
        tx.missed.clear();
        if self.replicated {
            // Route the sampled plan onto the replica sets *before* a gid
            // is allocated: a refused submission never entered execution
            // (the plan was sampled, so the workload stream stays in step
            // with partition-free runs — routing itself draws no RNG).
            match self.route_plan(home, ty, &mut tx) {
                RouteOutcome::Proceed => {}
                RouteOutcome::Refuse => {
                    // Degrade by aborting before execution: counted as an
                    // abort of this type plus an availability refusal. The
                    // user retries after think time plus a timeout's worth
                    // of pause — never zero (an active plan requires
                    // timeouts), so a refusal loop cannot livelock.
                    *self.stats.aborts.entry((home, ty)).or_default() += 1;
                    self.stats.partition_aborts += 1;
                    self.tx_submit_refusals += 1;
                    let pause =
                        self.cfg.params.think_time_ms + self.cfg.fault_plan.timeout_ms.max(1.0);
                    self.sched.schedule_in(pause, Ev::Submit { user });
                    self.spare_txns.push(tx);
                    return;
                }
                RouteOutcome::Park => {
                    // BlockUntilHeal: the user waits out the split.
                    self.stats.blocked_on_heal += 1;
                    self.heal_waiters.push(user);
                    self.spare_txns.push(tx);
                    return;
                }
            }
        }
        let gid = self.next_gid;
        self.next_gid += self.gid_stride;
        self.tx_started += 1;
        compile_into(
            &self.cfg.params,
            home,
            ty,
            &tx.plan,
            &mut tx.prog,
            &mut self.compile_scratch,
        );
        tx.gid = gid;
        tx.user = user;
        tx.home = home;
        tx.ty = ty;
        tx.pc = 0;
        tx.submit_time = self.sched.now();
        tx.begun_sites.clear();
        tx.dm_sites.clear();
        tx.aborting = false;
        tx.blocked_since = None;
        tx.updated.clear();
        tx.op_started = 0.0;
        tx.tm_held = None;
        tx.poisoned = false;
        tx.net_token = None;
        tx.net_attempt = 0;
        tx.decided = false;
        tx.at_site = home;
        tx.away = false;
        tx.cur_site = home;
        tx.counted = None;
        let id = self.txs.insert(tx);
        self.census_sync(id);
        if self.owned.is_some() {
            self.gid_index.insert(gid, id);
        }
        self.ready.push_back(id);
        self.trace_tx(id, TraceKind::TxSubmit, "submit", home, 0);
    }

    /// Advances a transaction's program until it parks or finishes. Timed
    /// ops park it at a station or on the network, the acquire ops may
    /// park it on a server queue, and the other zero-time ops run in the
    /// layer that owns them.
    fn advance(&mut self, id: TxId) {
        let token = id.token();
        loop {
            let now = self.sched.now();
            let Some(tx) = self.txs.get(id) else { return };
            if tx.poisoned && !tx.aborting && tx.tm_held.is_none() {
                // A node this transaction touched crashed: divert to the
                // abort path now that no TM server is held.
                self.divert_after_crash(id);
                continue;
            }
            debug_assert!(tx.pc < tx.prog.len(), "program ran off the end");
            match tx.prog.ops[tx.pc] {
                Op::UseCpu { site, ms } => {
                    self.txs.get_mut(id).expect("live tx").op_started = now;
                    self.station_arrive(site, MetricKind::CpuQ, id, ms);
                    return;
                }
                Op::UseDisk { site, ms, ios, log } => {
                    self.txs.get_mut(id).expect("live tx").op_started = now;
                    self.nodes[site].io_ops += ios as u64;
                    let queue = if log && self.cfg.separate_log_disk {
                        MetricKind::LogDiskQ
                    } else {
                        MetricKind::DiskQ
                    };
                    self.station_arrive(site, queue, id, ms);
                    return;
                }
                Op::Net { ms, to } => {
                    self.txs.get_mut(id).expect("live tx").op_started = now;
                    if self.owned.is_some() {
                        // Coupled engine: every `Net` op crosses a site
                        // boundary (programs are site-local), so the
                        // transaction migrates to the destination LP.
                        self.migrate_out(id, to, ms);
                    } else {
                        self.send_message(id, to, ms, 0);
                    }
                    return;
                }
                Op::AcquireTm { site } => {
                    let (node, tx) = (
                        &mut self.nodes[site],
                        self.txs.get_mut(id).expect("live tx"),
                    );
                    let free = node.tm_busy.is_none();
                    if free {
                        node.tm_busy = Some(id);
                        tx.tm_held = Some(site);
                        tx.pc += 1;
                    } else {
                        node.tm_queue.push_back(id);
                        tx.op_started = now;
                    }
                    self.obs_servers(site);
                    if !free {
                        return;
                    }
                }
                Op::ReleaseTm { site } => {
                    debug_assert_eq!(
                        self.nodes[site].tm_busy,
                        Some(id),
                        "TM released by non-holder"
                    );
                    self.grant_tm_to_next(site);
                    let tx = self.txs.get_mut(id).expect("live tx");
                    tx.tm_held = None;
                    tx.pc += 1;
                }
                Op::AcquireDm { site } => {
                    let (node, tx) = (
                        &mut self.nodes[site],
                        self.txs.get_mut(id).expect("live tx"),
                    );
                    if tx.dm_sites.contains(&site) {
                        tx.pc += 1;
                    } else if node.dm_free > 0 {
                        node.dm_free -= 1;
                        tx.dm_sites.push(site);
                        tx.pc += 1;
                        self.obs_servers(site);
                    } else {
                        node.dm_queue.push_back(id);
                        tx.op_started = now;
                        self.obs_servers(site);
                        return;
                    }
                }
                Op::Lock {
                    site,
                    block,
                    exclusive,
                } => {
                    if self.request_lock(id, site, block, exclusive) {
                        return;
                    }
                }
                Op::Access { site, rid, update } => {
                    self.access(id, site, rid, update);
                    self.bump(id);
                }
                Op::PrepareSite { site } => {
                    self.prepare_site(id, site);
                    self.bump(id);
                }
                Op::CommitSite { site } => {
                    self.commit_site(id, site, token);
                    self.bump(id);
                }
                Op::AbortSite { site } => {
                    self.abort_site(id, site, token);
                    self.bump(id);
                }
                Op::End => {
                    self.finish(id);
                    return;
                }
            }
        }
    }

    /// Moves `id` past a zero-time op.
    pub(super) fn bump(&mut self, id: TxId) {
        self.txs.get_mut(id).expect("live tx").pc += 1;
    }
}
