//! The event-driven simulation engine.
//!
//! Each transaction submission is compiled to a linear micro-op program
//! (`program::compile`); the engine advances program counters, parking
//! transactions on the CPU/disk queues, the TM server, the DM pool, or a
//! lock queue. Deadlock victims have their program replaced by an abort
//! program (rollback I/O per touched site, then resubmission after think
//! time).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::fmt::Write as _;

use carat_des::{Fcfs, Histogram, Scheduler, Tally, Time};
use carat_lock::{LockManager, LockMode, Outcome, TimestampManager, TsOutcome, WaitForGraph};
use carat_obs::{
    CounterRegistry, MetricKind, MetricsRecorder, TraceEvent, TraceKind, Tracer, UtilState,
};
use carat_storage::Database;
use carat_workload::TxType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{
    CcProtocol, DeadlockMode, DegradationPolicy, SimConfig, SimConfigError, VictimPolicy,
};
use crate::metrics::{AvailabilityReport, NodeReport, SimReport, TypeReport};
use crate::program::{
    compile_into, distinct_blocks_at_with, CompileScratch, Op, Plan, Program, Seg,
};
use crate::slab::{TxId, TxSlab};

// The sharded engine's site-LP methods live in `lp.rs`, declared as a
// child module so they keep access to the engine's private state.
#[path = "lp.rs"]
mod lp;
use lp::InboxEntry;
pub(crate) use lp::XMsg;

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

/// A live transaction (one submission). `pub(crate)` only so [`XMsg`] can
/// name it; the fields stay private to this module.
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

/// What one slab entry adds to the per-site census: one active
/// transaction at its home and, unless it is a ghost, one blocked and/or
/// one 2PC-deciding transaction at the site it executes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CensusKey {
    home: usize,
    blocked_at: Option<usize>,
    deciding_at: Option<usize>,
}

impl CensusKey {
    fn of(tx: &Txn) -> Self {
        let here = (!tx.away).then_some(tx.at_site);
        CensusKey {
            home: tx.home,
            blocked_at: here.filter(|_| tx.blocked_since.is_some()),
            deciding_at: here.filter(|_| tx.decided),
        }
    }

    /// The census site per [`CENSUS_KINDS`] entry.
    fn sites(key: Option<Self>) -> [Option<usize>; 3] {
        [
            key.map(|k| k.home),
            key.and_then(|k| k.blocked_at),
            key.and_then(|k| k.deciding_at),
        ]
    }
}

/// The gauges [`Sim::census`] counts, in the order of its columns.
const CENSUS_KINDS: [MetricKind; 3] = [
    MetricKind::TxActive,
    MetricKind::TxBlocked,
    MetricKind::TwopcInflight,
];

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

    // --- Metrics hooks. Each reports one family of gauges after the
    // --- mutations that change it, at the current event time. The
    // --- recorder ignores unchanged values, filtered kinds and sites this
    // --- process does not record, so a redundant call is harmless; with
    // --- the recorder off each hook is one branch.

    /// Records every gauge's state at t = 0, the first point of each
    /// series.
    fn obs_seed(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        for site in 0..self.nodes.len() {
            for queue in [MetricKind::CpuQ, MetricKind::DiskQ, MetricKind::LogDiskQ] {
                self.obs_station(site, queue);
            }
            self.obs_servers(site);
            self.obs_locks(site);
            self.obs_journal(site);
            let now = self.sched.now();
            let m = self.metrics.as_deref_mut().expect("checked above");
            for (kind, count) in CENSUS_KINDS.into_iter().zip(self.census[site]) {
                m.set(now, site as u32, kind, count as f64);
            }
        }
        self.obs_xmsg();
    }

    /// Population and utilization state of the station at `site` whose
    /// queue gauge is `queue` (CPU, database disk or log disk), after an
    /// arrival, a completion or a statistics reset there.
    #[inline]
    fn obs_station(&mut self, site: usize, queue: MetricKind) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let node = &self.nodes[site];
        let (station, util) = match queue {
            MetricKind::CpuQ => (&node.cpu, MetricKind::CpuUtil),
            MetricKind::DiskQ => (&node.disk, MetricKind::DiskUtil),
            _ => (&node.log_disk, MetricKind::LogDiskUtil),
        };
        let (now, s) = (self.sched.now(), site as u32);
        m.set(now, s, queue, station.population() as f64);
        let (start, last_t, value, area) = station.util_state().state();
        let state = UtilState {
            start,
            last_t,
            value,
            area,
        };
        m.set_util(now, s, util, state);
    }

    /// TM population, DM queue and DM servers in use at `site`.
    #[inline]
    fn obs_servers(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let node = &self.nodes[site];
        let (now, s) = (self.sched.now(), site as u32);
        let tm = node.tm_queue.len() + usize::from(node.tm_busy.is_some());
        m.set(now, s, MetricKind::TmQ, tm as f64);
        m.set(now, s, MetricKind::DmQ, node.dm_queue.len() as f64);
        let in_use = self.cfg.dm_pool - node.dm_free;
        m.set(now, s, MetricKind::DmInUse, in_use as f64);
    }

    /// Lock-table depth and waiters at `site`, after a lock-manager call.
    #[inline]
    fn obs_locks(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let locks = &self.nodes[site].locks;
        let (now, s) = (self.sched.now(), site as u32);
        m.set(
            now,
            s,
            MetricKind::LockDepth,
            locks.granted_entries() as f64,
        );
        m.set(
            now,
            s,
            MetricKind::LockWaiters,
            locks.waiting_count() as f64,
        );
    }

    /// Journal length at `site`, after a storage call that appends to or
    /// truncates it.
    #[inline]
    fn obs_journal(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let bytes = self.nodes[site].db.journal().len_bytes();
        m.set(
            self.sched.now(),
            site as u32,
            MetricKind::JournalBytes,
            bytes as f64,
        );
    }

    /// Cross-LP messages handled and emitted by this logical process.
    fn obs_xmsg(&mut self) {
        let (Some(m), Some(site)) = (self.metrics.as_deref_mut(), self.owned) else {
            return;
        };
        let (now, s) = (self.sched.now(), site as u32);
        m.set(now, s, MetricKind::XmsgIn, self.xmsg_in as f64);
        m.set(now, s, MetricKind::XmsgOut, self.xmsg_out as f64);
    }

    /// Re-counts slab entry `id` in the census after a change of its home,
    /// `blocked_since`, `decided`, `at_site` or `away`, or its arrival in
    /// the slab.
    #[inline]
    fn census_sync(&mut self, id: TxId) {
        if self.metrics.is_none() {
            return;
        }
        let Some(tx) = self.txs.get_mut(id) else {
            return;
        };
        let key = Some(CensusKey::of(tx));
        let old = std::mem::replace(&mut tx.counted, key);
        self.census_move(old, key);
    }

    /// Uncounts a transaction that just left the slab.
    fn census_drop(&mut self, tx: &mut Txn) {
        if let Some(old) = tx.counted.take() {
            self.census_move(Some(old), None);
        }
    }

    /// Moves one slab entry's census contribution from `old` to `new` and
    /// records the counts that changed.
    fn census_move(&mut self, old: Option<CensusKey>, new: Option<CensusKey>) {
        if old == new {
            return;
        }
        let (from, to) = (CensusKey::sites(old), CensusKey::sites(new));
        let now = self.sched.now();
        for col in 0..CENSUS_KINDS.len() {
            if from[col] == to[col] {
                continue;
            }
            for (site, up) in [(from[col], false), (to[col], true)] {
                let Some(site) = site else { continue };
                let count = &mut self.census[site][col];
                if up {
                    *count += 1;
                } else {
                    *count -= 1;
                }
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.set(now, site as u32, CENSUS_KINDS[col], *count as f64);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.census_check();
    }

    /// Debug cross-check: the census counters equal a full slab scan.
    #[cfg(debug_assertions)]
    fn census_check(&self) {
        let mut scan = vec![[0u64; 3]; self.nodes.len()];
        for (_, tx) in self.txs.iter() {
            scan[tx.home][0] += 1;
            if !tx.away {
                scan[tx.at_site][1] += u64::from(tx.blocked_since.is_some());
                scan[tx.at_site][2] += u64::from(tx.decided);
            }
        }
        assert_eq!(scan, self.census, "census counters drifted from the slab");
    }

    /// End-of-run post-processing + report assembly. Pure bookkeeping on
    /// final state: no events, no statistics beyond the report itself.
    /// `pub(crate)` so the sharded driver can wind the merged LP down
    /// after `absorb`.
    pub(crate) fn wind_down(&mut self, end: Time) -> SimReport {
        // A node still inside a repair outage at the cutoff has not run
        // journal recovery yet, so its storage can hold in-place updates of
        // interrupted transactions (whose locks died with the crash). The
        // commit audit reads what an operator would read after repair —
        // recover those nodes first.
        for node in &mut self.nodes {
            if !node.up {
                node.db.crash_and_recover();
            }
        }
        // ... and the operator's repair also ships the queued journal
        // catch-up to every replica that was lagging when the run ended,
        // so the audit sees converged replicas.
        let lagging: Vec<usize> = self.pending_catchup.keys().copied().collect();
        for site in lagging {
            self.apply_catchup_site(site, false);
        }
        self.report(end)
    }

    /// Records a trace event. Callers gate on `self.tracer.is_some()`
    /// first so the event (and any lookups feeding it) is only built when
    /// tracing is on; with tracing off an emission site is one branch.
    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(ev);
        }
    }

    fn handle(&mut self, ev: Ev) {
        self.ev_counts[ev.idx()] += 1;
        let now = self.sched.now();
        match ev {
            Ev::CpuDone { site, tx } => {
                if let Some(started) = self.nodes[site].cpu.complete(now) {
                    self.sched.schedule_in(
                        started.service,
                        Ev::CpuDone {
                            site,
                            tx: TxId::from_token(started.job),
                        },
                    );
                }
                self.obs_station(site, MetricKind::CpuQ);
                self.step_past(tx);
            }
            Ev::DiskDone { site, tx } => {
                if let Some(started) = self.nodes[site].disk.complete(now) {
                    self.sched.schedule_in(
                        started.service,
                        Ev::DiskDone {
                            site,
                            tx: TxId::from_token(started.job),
                        },
                    );
                }
                self.obs_station(site, MetricKind::DiskQ);
                self.step_past(tx);
            }
            Ev::LogDone { site, tx } => {
                if let Some(started) = self.nodes[site].log_disk.complete(now) {
                    self.sched.schedule_in(
                        started.service,
                        Ev::LogDone {
                            site,
                            tx: TxId::from_token(started.job),
                        },
                    );
                }
                self.obs_station(site, MetricKind::LogDiskQ);
                self.step_past(tx);
            }
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
            Ev::Warmup => self.reset_stats(now),
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

    /// A scheduled split begins: adopt the plan's component labels. If a
    /// stochastic split is already in force the scheduled one supersedes
    /// its layout; the degraded period runs continuously until the next
    /// heal (which always heals everything, so no layout can strand a
    /// component). The `partitions` counter counts degraded *periods*, so
    /// a superseding layout change does not increment it — that keeps
    /// `heals <= partitions <= heals + 1` an exact invariant.
    fn partition_start(&mut self, idx: usize) {
        let now = self.sched.now();
        if !self.partition_active {
            self.partition_active = true;
            self.partition_since = now;
            self.stats.partitions += 1;
        }
        for s in 0..self.comp.len() {
            self.comp[s] = self.cfg.partition_plan.splits[idx].groups[s];
        }
        if self.tracer.is_some() {
            let mut n_comps = 0u32;
            let mut seen = 0u64; // label bitmap (labels are u8)
            for &c in &self.comp {
                if seen & (1 << (c % 64)) == 0 {
                    seen |= 1 << (c % 64);
                    n_comps += 1;
                }
            }
            self.trace(TraceEvent::new(
                now,
                TraceKind::PartitionSplit,
                "split",
                n_comps,
                0,
                TxType::Lro,
            ));
        }
    }

    /// The current split heals: components rejoin, lagging replicas catch
    /// up through the journal, and submissions parked by
    /// `BlockUntilHeal` re-enter the closed network.
    fn partition_heal(&mut self) {
        if !self.partition_active {
            return; // a later-scheduled heal found everything healed
        }
        let now = self.sched.now();
        self.partition_active = false;
        self.comp.iter_mut().for_each(|c| *c = 0);
        self.stats.heals += 1;
        self.stats.partition_ms += now - self.partition_since.max(self.stats.window_start);
        // Journal catch-up onto every lagging replica that is up (a site
        // still in a crash outage catches up at its restart instead).
        let mut lagging = std::mem::take(&mut self.sites_scratch);
        lagging.clear();
        lagging.extend(self.pending_catchup.keys().copied());
        for &site in &lagging {
            self.apply_catchup_site(site, true);
        }
        lagging.clear();
        self.sites_scratch = lagging;
        for i in 0..self.heal_waiters.len() {
            let user = self.heal_waiters[i];
            self.sched
                .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user });
        }
        self.heal_waiters.clear();
        if self.tracer.is_some() {
            self.trace(TraceEvent::new(
                now,
                TraceKind::PartitionHeal,
                "heal",
                1,
                0,
                TxType::Lro,
            ));
        }
    }

    /// Stochastic split from the MTBP process: cut the cluster at a random
    /// boundary into two components and draw the heal. Exactly one pending
    /// `FaultSplit` exists at all times (a draw landing inside an active
    /// split just redraws), so the process can never multiply.
    fn fault_split(&mut self) {
        let (mtbp, mtth) = (
            self.cfg.partition_plan.mtbp_ms,
            self.cfg.partition_plan.mtth_ms,
        );
        let next = self.exp_sample(mtbp);
        self.sched.schedule_in(next, Ev::FaultSplit);
        if self.partition_active {
            return;
        }
        let now = self.sched.now();
        let sites = self.comp.len();
        // Validation guarantees sites >= 2 when the MTBP process is on.
        let cut = self.fault_rng.gen_range(1..sites);
        for s in 0..sites {
            self.comp[s] = u8::from(s >= cut);
        }
        self.partition_active = true;
        self.partition_since = now;
        self.stats.partitions += 1;
        let heal_in = self.exp_sample(mtth);
        self.sched.schedule_in(heal_in, Ev::PartitionHeal);
        if self.tracer.is_some() {
            self.trace(
                TraceEvent::new(
                    now,
                    TraceKind::PartitionSplit,
                    "fault-split",
                    2,
                    0,
                    TxType::Lro,
                )
                .detail(cut as u64),
            );
        }
    }

    /// Replays the queued journal catch-up onto `site`'s storage engine:
    /// each missed committed write is re-applied in commit order under its
    /// original writer's gid (begin → update → commit), so the lagging
    /// replica converges to exactly the committed history the audit
    /// expects. `live` charges the replay I/O to the site's background
    /// disk; end-of-run replay is pure post-processing.
    fn apply_catchup_site(&mut self, site: usize, live: bool) {
        let Some(list) = self.pending_catchup.remove(&site) else {
            return;
        };
        if !self.nodes[site].up {
            // Still in a crash outage: the restart replays it instead.
            self.pending_catchup.insert(site, list);
            return;
        }
        let mut deferred = Vec::new();
        let mut n = 0u64;
        let mut i = 0;
        while i < list.len() {
            let gid = list[i].0;
            let mut begun = false;
            while i < list.len() && list[i].0 == gid {
                let rid = list[i].1;
                i += 1;
                if self.last_committed.get(&(site, rid)) != Some(&gid) {
                    // Superseded: a newer writer committed this record
                    // after the miss was queued — replaying the stale
                    // image would roll the replica backwards.
                    continue;
                }
                if self.nodes[site].locks.is_contended(rid.block)
                    || self.nodes[site].tso.block_pending(rid.block)
                {
                    // A live transaction holds this block at the replica —
                    // typically one frozen in presumed-abort termination
                    // across the split with an uncommitted in-place
                    // update. Rollback restores whole-block before-images,
                    // so replaying beneath it would be undone when it
                    // resolves. Defer; the next transaction end drains us.
                    deferred.push((gid, rid));
                    continue;
                }
                if !begun {
                    self.nodes[site].db.begin(gid).expect(
                        "catch-up begin: writer gid is not live at a replica it never reached",
                    );
                    begun = true;
                }
                self.val_buf.clear();
                write!(self.val_buf, "g{gid}b{}s{}", rid.block, rid.slot)
                    .expect("format into String cannot fail");
                self.nodes[site]
                    .db
                    .update_record(gid, rid, self.val_buf.as_bytes())
                    .expect("catch-up replay of a committed write");
                n += 1;
            }
            if begun {
                self.nodes[site]
                    .db
                    .commit(gid)
                    .expect("catch-up commit of a replayed writer");
            }
        }
        if !deferred.is_empty() {
            self.pending_catchup.insert(site, deferred);
        }
        self.obs_journal(site);
        self.stats.catchup_records += n;
        if live && n > 0 {
            // One granule transfer per replayed record, charged to the
            // background job (gid 0) like recovery I/O.
            let ms = n as f64 * self.cfg.params.nodes[site].disk_io_ms;
            self.nodes[site].io_ops += n;
            let now = self.sched.now();
            if let Some(started) = self.nodes[site].disk.arrive(now, 0, ms) {
                self.sched.schedule_in(
                    started.service,
                    Ev::DiskDone {
                        site,
                        tx: TxId::from_token(0),
                    },
                );
            }
            self.obs_station(site, MetricKind::DiskQ);
        }
        if self.tracer.is_some() && n > 0 {
            let now = self.sched.now();
            self.trace(
                TraceEvent::new(
                    now,
                    TraceKind::ReplicaCatchup,
                    "catchup",
                    site as u32,
                    0,
                    TxType::Lro,
                )
                .detail(n),
            );
        }
    }

    /// Exponential sample with the given mean, from the fault stream.
    fn exp_sample(&mut self, mean_ms: f64) -> f64 {
        let u: f64 = self.fault_rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() * mean_ms
    }

    /// Stochastic crash from the MTTF process: with a repair time the node
    /// goes down for an Exp(MTTR) outage (the next failure is drawn at
    /// restart); without one it recovers instantly and the next failure is
    /// drawn immediately.
    fn fault_crash(&mut self, site: usize) {
        if !self.nodes[site].up {
            return;
        }
        let (mttf, mttr) = (self.cfg.fault_plan.mttf_ms, self.cfg.fault_plan.mttr_ms);
        if mttr > 0.0 {
            let downtime = self.exp_sample(mttr);
            self.crash_node(site, Some(downtime));
        } else {
            self.crash_node(site, None);
            let next = self.exp_sample(mttf);
            self.sched.schedule_in(next, Ev::FaultCrash { site });
        }
    }

    /// Injected node failure: lose the site's volatile state and poison or
    /// kill every transaction that had touched the site.
    ///
    /// With `downtime = None` (scheduled crashes, MTTR = 0) the node
    /// recovers instantly: journal recovery runs now and affected
    /// transactions divert to their abort path. With `downtime = Some(d)`
    /// the node stays down for `d` ms: recovery is deferred to the
    /// `Restart`, transactions *homed* here are killed outright (their
    /// coordinator state is gone — participants elsewhere become orphans
    /// resolved by the presumed-abort termination protocol), and visiting
    /// transactions are poisoned.
    ///
    /// In-flight disk/CPU transfers at the site are allowed to drain (their
    /// completions are harmless — the owning transactions are poisoned and
    /// divert to their abort path at the next safe point).
    fn crash_node(&mut self, site: usize, downtime: Option<f64>) {
        if !self.nodes[site].up {
            return; // a scheduled crash hit a node already down
        }
        self.stats.crashes += 1;
        let now = self.sched.now();
        if self.tracer.is_some() {
            self.trace(TraceEvent::new(
                now,
                TraceKind::Crash,
                "crash",
                site as u32,
                0,
                TxType::Lro,
            ));
        }

        // 1. Storage-level crash + recovery (un-forced journal tail lost,
        //    every uncommitted transaction's images restored). A node with
        //    repair time runs recovery at restart instead — nothing touches
        //    its storage while it is down.
        if downtime.is_none() {
            self.nodes[site].db.crash_and_recover();
            self.obs_journal(site);
        } else {
            self.nodes[site].up = false;
        }

        // 2. Volatile protocol state is gone: collect everyone parked in
        //    the site's queues so they can be re-activated, then reset.
        //    The lifetime lock/TSO counters are folded into accumulators
        //    first — the replacement managers restart from zero, and the
        //    report must not see totals go backwards.
        {
            let n = &mut self.nodes[site];
            n.acc_lock_requests += n.locks.requests();
            n.acc_lock_conflicts += n.locks.conflicts();
            n.acc_cc_rejections += n.tso.rejections();
        }
        let mut stranded = std::mem::take(&mut self.stranded_scratch);
        stranded.clear();
        {
            let mut toks = std::mem::take(&mut self.woken_tso_scratch);
            self.nodes[site].locks.blocked_transactions_into(&mut toks);
            stranded.extend(toks.iter().map(|&t| TxId::from_token(t)));
            self.woken_tso_scratch = toks;
        }
        stranded.extend(self.nodes[site].tm_queue.drain(..));
        stranded.extend(self.nodes[site].dm_queue.drain(..));
        if let Some(holder) = self.nodes[site].tm_busy.take() {
            // The TM process restarted; its current client no longer holds
            // the (new) server.
            if let Some(tx) = self.txs.get_mut(holder) {
                tx.tm_held = None;
            }
        }
        self.nodes[site].locks = LockManager::new();
        self.nodes[site].tso = if self.cfg.cc == CcProtocol::TimestampOrderingThomas {
            TimestampManager::new_with_thomas_rule()
        } else {
            TimestampManager::new()
        };
        self.nodes[site].dm_free = self.cfg.dm_pool;
        self.obs_servers(site);
        self.obs_locks(site);
        // The site's DM server processes restarted: nobody holds one any
        // more (without this, the pool over-fills when poisoned holders
        // "release" their vanished servers at abort time).
        for (_, tx) in self.txs.iter_mut() {
            tx.dm_sites.retain(|&s| s != site);
        }
        // Orphans registered *at* this site are swept away with the rest of
        // its volatile state (a later restart's recovery undoes their
        // storage side; their OrphanResolve events become no-ops).
        self.orphans.retain(|&(s, _), _| s != site);

        // 3. Poison every live transaction that had touched the site; with
        //    downtime, transactions homed here are killed outright instead.
        //    Slab slot order varies with recycling, but the gid (submission
        //    order) does not — and the kill/poison order below feeds the
        //    scheduler, so sort by gid to replay identically.
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        for (id, tx) in self.txs.iter() {
            if tx.home == site
                || tx.begun_sites.contains(&site)
                || tx.dm_sites.contains(&site)
                || tx.plan.requests.iter().any(|(s, _)| *s == site)
            {
                victims.push((tx.gid, id));
            }
        }
        victims.sort_unstable();
        for &(_, id) in &victims {
            let homed = self.txs.get(id).is_some_and(|t| t.home == site);
            if downtime.is_some() && homed {
                self.kill_homed_tx(id, site);
                continue;
            }
            let tx = self.txs.get_mut(id).expect("live tx");
            if !tx.aborting && !tx.poisoned {
                tx.poisoned = true;
                self.stats.crash_kills += 1;
            }
        }
        victims.clear();
        self.victims_scratch = victims;
        // Re-activate the stranded (their waits evaporated with the site).
        for &id in &stranded {
            if let Some(tx) = self.txs.get_mut(id) {
                if let Some(since) = tx.blocked_since.take() {
                    self.stats.lock_wait.record(now - since);
                }
                self.census_sync(id);
                if !self.ready.contains(&id) {
                    self.ready.push_back(id);
                }
            }
        }
        stranded.clear();
        self.stranded_scratch = stranded;
        while let Some(id) = self.ready.pop_front() {
            self.advance(id);
        }
        if let Some(d) = downtime {
            self.sched.schedule_in(d, Ev::Restart { site });
        }
    }

    /// Kills a transaction whose home (coordinator) node crashed with
    /// downtime: the coordinator's volatile state is gone, so the
    /// transaction cannot continue *or* run a coordinated abort. Its user
    /// is parked until the node restarts. At every other live site, pending
    /// waits are withdrawn immediately (nothing must ever block *behind* a
    /// dead transaction's queue entry) but held locks — including an
    /// in-doubt prepared participant's — stay until the termination
    /// protocol fires.
    fn kill_homed_tx(&mut self, id: TxId, home: usize) {
        let mut tx = self.txs.remove(id).expect("live tx");
        self.census_drop(&mut tx);
        let token = id.token();
        self.stats.crash_kills += 1;
        self.tx_killed += 1;
        let term = self.cfg.fault_plan.termination_ms();
        for s in 0..self.nodes.len() {
            if s == home || !self.nodes[s].up {
                continue;
            }
            self.cancel_lock_request(s, token);
            self.nodes[s].tso.cancel_waits(token);
            self.nodes[s].tm_queue.retain(|&q| q != id);
            self.nodes[s].dm_queue.retain(|&q| q != id);
            self.obs_servers(s);
            if self.nodes[s].tm_busy == Some(id) {
                self.grant_tm_to_next(s);
            }
            // Whatever the participant still holds here (locks, a DM
            // server, an in-doubt prepared state) is resolved by the
            // termination protocol after the coordinator stays silent for
            // the full retransmission schedule.
            self.orphans
                .insert((s, tx.gid), (token, tx.dm_sites.contains(&s)));
            self.sched.schedule_in(
                term,
                Ev::OrphanResolve {
                    site: s,
                    gid: tx.gid,
                },
            );
        }
        self.nodes[home].parked_users.push(tx.user);
        self.spare_txns.push(tx);
    }

    /// A crashed node comes back up: run journal recovery (charging its
    /// I/O to the background), release the recovered state, resubmit the
    /// users parked during the outage, and draw the next failure.
    fn restart_node(&mut self, site: usize) {
        debug_assert!(!self.nodes[site].up, "restart of a node that is up");
        self.nodes[site].up = true;
        self.stats.recoveries += 1;
        if self.tracer.is_some() {
            let now = self.sched.now();
            self.trace(TraceEvent::new(
                now,
                TraceKind::Recovery,
                "restart",
                site as u32,
                0,
                TxType::Lro,
            ));
        }
        let undone = self.nodes[site].db.crash_and_recover();
        self.obs_journal(site);
        if !undone.is_empty() {
            // Background recovery I/O: one block restore per undone
            // transaction's journal extent plus the forced abort records,
            // charged to the reserved gid 0 so it contends with normal
            // traffic without belonging to any transaction.
            let ios = undone.len() as u32 + 1;
            let ms = ios as f64 * self.cfg.params.nodes[site].disk_io_ms;
            self.nodes[site].io_ops += ios as u64;
            let now = self.sched.now();
            if let Some(started) = self.nodes[site].disk.arrive(now, 0, ms) {
                self.sched.schedule_in(
                    started.service,
                    Ev::DiskDone {
                        site,
                        tx: TxId::from_token(0),
                    },
                );
            }
            self.obs_station(site, MetricKind::DiskQ);
        }
        // Writes the replicas committed while this site was down ship over
        // as journal catch-up — unless a partition currently separates the
        // site from the writers, in which case the heal replays it.
        if !self.partition_active {
            self.apply_catchup_site(site, true);
        }
        for user in std::mem::take(&mut self.nodes[site].parked_users) {
            self.sched
                .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user });
        }
        let next = self.exp_sample(self.cfg.fault_plan.mttf_ms);
        self.sched.schedule_in(next, Ev::FaultCrash { site });
    }

    /// Presumed-abort termination at an orphaned participant: the
    /// coordinator has been silent for the full retransmission schedule,
    /// so the participant — in doubt if it had prepared — unilaterally
    /// aborts, rolls back, releases its locks, and frees its DM server.
    fn resolve_orphan(&mut self, site: usize, gid: u64) {
        let Some((token, dm_held)) = self.orphans.remove(&(site, gid)) else {
            return; // swept away by a crash of this site in the meantime
        };
        debug_assert!(self.nodes[site].up, "orphan entry survived a crash");
        if self.tracer.is_some() {
            let now = self.sched.now();
            self.trace(
                TraceEvent::new(
                    now,
                    TraceKind::Recovery,
                    "orphan-resolve",
                    site as u32,
                    gid,
                    TxType::Lro,
                )
                .lane2(token as u32),
            );
        }
        if self.nodes[site].db.is_prepared(gid) {
            self.stats.in_doubt_resolutions += 1;
        }
        if self.nodes[site].db.is_active(gid) {
            let io = self.nodes[site]
                .db
                .rollback(gid)
                .expect("orphan rollback of a participant verified active at this site");
            self.obs_journal(site);
            let ios = io.total();
            if ios > 0 {
                let ms = ios as f64 * self.cfg.params.nodes[site].disk_io_ms;
                self.nodes[site].io_ops += ios as u64;
                let now = self.sched.now();
                if let Some(started) = self.nodes[site].disk.arrive(now, 0, ms) {
                    self.sched.schedule_in(
                        started.service,
                        Ev::DiskDone {
                            site,
                            tx: TxId::from_token(0),
                        },
                    );
                }
                self.obs_station(site, MetricKind::DiskQ);
            }
        }
        self.release_locks_and_wake(site, token);
        self.tso_abort_and_wake(site, token);
        if dm_held {
            self.free_dm(site);
        }
    }

    /// Sends (or retransmits) the network message of the `Net` op `gid` is
    /// parked on. Draws the fault plan's coin flips from the dedicated
    /// fault stream: the message may be lost (lossy link or dead
    /// destination), delayed by jitter, or delivered twice. When timeouts
    /// are enabled a retransmission timer with bounded exponential backoff
    /// is armed alongside every attempt.
    fn send_message(&mut self, id: TxId, to: usize, ms: f64, attempt: u32) {
        let fp = self.cfg.fault_plan; // Copy: seven scalars, no clone
        let token = self.next_token;
        self.next_token += 1;
        let from = {
            let tx = self.txs.get_mut(id).expect("live tx");
            tx.net_token = Some(token);
            tx.net_attempt = attempt;
            tx.at_site
        };
        self.stats.net_messages += 1;
        if self.tracer.is_some() {
            let now = self.sched.now();
            let (gid, ty) = {
                let tx = self.txs.get(id).expect("live tx");
                (tx.gid, tx.ty)
            };
            self.trace(
                TraceEvent::new(now, TraceKind::NetSend, "send", to as u32, gid, ty)
                    .lane2(id.token() as u32)
                    .detail(attempt as u64),
            );
        }
        // The retransmission timer covers the worst-case delivery time plus
        // the backed-off timeout, so it can never fire for a message that
        // was actually delivered.
        if fp.timeout_ms > 0.0 {
            let deadline = fp.backoff_ms(attempt) + ms + fp.jitter_ms;
            self.sched
                .schedule_in(deadline, Ev::NetTimeout { tx: id, token });
        }
        // A message to a dead node or across a network split is lost; the
        // component check precedes the coin flip, but components only ever
        // differ while a split is in force, so partition-free runs draw
        // exactly the same fault stream as before.
        let dropped = !self.nodes[to].up
            || self.comp[from] != self.comp[to]
            || (fp.drop_prob > 0.0 && self.fault_rng.gen_bool(fp.drop_prob));
        if dropped {
            self.stats.net_drops += 1;
            if self.tracer.is_some() {
                let now = self.sched.now();
                let (gid, ty) = {
                    let tx = self.txs.get(id).expect("live tx");
                    (tx.gid, tx.ty)
                };
                self.trace(
                    TraceEvent::new(now, TraceKind::NetDrop, "drop", to as u32, gid, ty)
                        .lane2(id.token() as u32)
                        .detail(attempt as u64),
                );
            }
            return; // the timer (armed above) will retransmit
        }
        let jitter = if fp.jitter_ms > 0.0 {
            self.fault_rng.gen_range(0.0..fp.jitter_ms)
        } else {
            0.0
        };
        self.sched
            .schedule_in(ms + jitter, Ev::NetDone { tx: id, token });
        if fp.duplicate_prob > 0.0 && self.fault_rng.gen_bool(fp.duplicate_prob) {
            self.stats.net_duplicates += 1;
            let jitter2 = if fp.jitter_ms > 0.0 {
                self.fault_rng.gen_range(0.0..fp.jitter_ms)
            } else {
                0.0
            };
            // Same token: whichever copy arrives second is stale.
            self.sched
                .schedule_in(ms + jitter2, Ev::NetDone { tx: id, token });
        }
    }

    /// A network delivery arrived. Stale tokens (duplicates, copies of a
    /// send the transaction has moved past) are ignored; a delivery to a
    /// node that died in flight counts as a drop and leaves the
    /// retransmission timer to recover.
    fn net_delivered(&mut self, id: TxId, token: u64) {
        let Some(tx) = self.txs.get(id) else { return };
        if tx.net_token != Some(token) {
            return;
        }
        let from = tx.at_site;
        let Op::Net { to, .. } = tx.prog.ops[tx.pc] else {
            return;
        };
        // A destination that died — or was cut off by a split — while the
        // message was in flight never receives it; the retransmission
        // timer recovers the sender.
        if !self.nodes[to].up || self.comp[from] != self.comp[to] {
            self.stats.net_drops += 1;
            if self.tracer.is_some() {
                let now = self.sched.now();
                let name = if self.nodes[to].up {
                    "split-dest"
                } else {
                    "dead-dest"
                };
                let (gid, ty) = {
                    let t = self.txs.get(id).expect("live tx");
                    (t.gid, t.ty)
                };
                self.trace(
                    TraceEvent::new(now, TraceKind::NetDrop, name, to as u32, gid, ty)
                        .lane2(id.token() as u32),
                );
            }
            return;
        }
        let tx = self.txs.get_mut(id).expect("live tx");
        tx.net_token = None;
        tx.at_site = to;
        self.census_sync(id);
        self.step_past(id);
    }

    /// A retransmission timer fired. If the send it covered is still
    /// outstanding, retransmit — or, once the retry budget is exhausted on
    /// the forward path, presume the peer dead and abort the transaction.
    /// Aborting and decided transactions retry past the bound (at the
    /// capped backoff) so cleanup and commit decisions always reach every
    /// participant eventually.
    fn net_timed_out(&mut self, id: TxId, token: u64) {
        let Some(tx) = self.txs.get(id) else { return };
        if tx.net_token != Some(token) {
            return;
        }
        let Op::Net { ms, to } = tx.prog.ops[tx.pc] else {
            return;
        };
        let (attempt, unbounded) = (tx.net_attempt, tx.aborting || tx.decided);
        let (gid, ty, home, at) = (tx.gid, tx.ty, tx.home, tx.at_site);
        if unbounded || attempt < self.cfg.fault_plan.max_retries {
            self.stats.net_retries += 1;
            if self.tracer.is_some() {
                let now = self.sched.now();
                self.trace(
                    TraceEvent::new(now, TraceKind::NetRetry, "retry", to as u32, gid, ty)
                        .lane2(id.token() as u32)
                        .detail(attempt as u64 + 1),
                );
            }
            self.send_message(id, to, ms, attempt.saturating_add(1));
        } else {
            self.stats.timeout_aborts += 1;
            if self.partition_active && self.comp[at] != self.comp[to] {
                // The retry budget died against an unreachable component:
                // this abort is the partition's doing, not a lossy link's.
                self.stats.partition_aborts += 1;
            }
            if self.tracer.is_some() {
                let now = self.sched.now();
                self.trace(
                    TraceEvent::new(
                        now,
                        TraceKind::DeadlockVictim,
                        "timeout",
                        home as u32,
                        gid,
                        ty,
                    )
                    .lane2(id.token() as u32),
                );
            }
            self.txs.get_mut(id).expect("live tx").net_token = None;
            self.start_abort_program(id);
            self.ready.push_back(id);
        }
    }

    /// Completion of a timed op: account its residence (queueing +
    /// service) to its phase, move past it, and make the tx runnable.
    fn step_past(&mut self, id: TxId) {
        let now = self.sched.now();
        if let Some(tx) = self.txs.get_mut(id) {
            let seg = tx.prog.segs[tx.pc];
            let (home, ty, gid) = (tx.home, tx.ty, tx.gid);
            let elapsed = now - tx.op_started;
            tx.pc += 1;
            self.ready.push_back(id);
            self.stats.add_phase(home, ty, seg, elapsed);
            if self.tracer.is_some() {
                self.trace(
                    TraceEvent::new(now, TraceKind::Phase, seg.label(), home as u32, gid, ty)
                        .lane2(id.token() as u32)
                        .dur(elapsed),
                );
            }
        }
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
            match self.route_plan(home, ty, user, &mut tx) {
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
        if self.tracer.is_some() {
            let t = self.sched.now();
            self.trace(
                TraceEvent::new(t, TraceKind::TxSubmit, "submit", home as u32, gid, ty)
                    .lane2(id.token() as u32),
            );
        }
    }

    /// Routes a freshly sampled plan onto the replica sets.
    ///
    /// The replica set of plan site `s` is the `k` consecutive sites
    /// `{s, s+1, …, s+k−1 mod S}` (`k` = [`crate::PartitionPlan::replication`]),
    /// so every site is the primary for its own slice of the data. A
    /// replica is *usable* when it is up and in the submitter's network
    /// component. Semantics per request:
    ///
    /// * **Read** (read-one): served by the first usable replica, primary
    ///   first — choosing a later one is a failover. A read whose usable
    ///   replicas are short of a majority cannot prove freshness; only
    ///   [`DegradationPolicy::StaleRead`] serves it anyway.
    /// * **Write** (write-all-reachable): needs a majority quorum of
    ///   usable replicas. The plan slot is rerouted to the first usable
    ///   replica and duplicated onto every other usable one (full 2PL +
    ///   2PC at each); unreachable replicas are recorded in `tx.missed`
    ///   for journal catch-up at commit.
    ///
    /// An unservable request degrades per policy: `Abort`/`StaleRead`
    /// refuse the submission, `BlockUntilHeal` parks the user while a
    /// split is in force (and refuses otherwise, since only a heal wakes
    /// the parked). Routing draws no randomness — the decision is a pure
    /// function of the plan, the component map, and node liveness.
    fn route_plan(&mut self, home: usize, ty: TxType, _user: usize, tx: &mut Txn) -> RouteOutcome {
        let sites = self.nodes.len();
        let k = self.cfg.partition_plan.replication;
        let q = self.cfg.partition_plan.write_quorum();
        let policy = self.cfg.partition_plan.degradation;
        let my = self.comp[home];
        let update = ty.is_update();
        let degrade = |active: bool| match policy {
            DegradationPolicy::BlockUntilHeal if active => RouteOutcome::Park,
            _ => RouteOutcome::Refuse,
        };

        // Pass 1 — feasibility only: no mutation until every request is
        // known servable, so a refused plan is left exactly as sampled.
        for slot in &tx.plan.requests {
            let primary = slot.0;
            let mut alive = 0usize;
            for j in 0..k {
                let r = (primary + j) % sites;
                if self.nodes[r].up && self.comp[r] == my {
                    alive += 1;
                }
            }
            let servable = if update {
                alive >= q
            } else {
                alive >= 1 && (alive >= q || policy == DegradationPolicy::StaleRead)
            };
            if !servable {
                return degrade(self.partition_active);
            }
        }

        // Pass 2 — reroute reads, expand writes, record missed replicas.
        let mut extras = std::mem::take(&mut self.route_scratch);
        extras.clear();
        let stale_policy = policy == DegradationPolicy::StaleRead;
        for slot_idx in 0..tx.plan.requests.len() {
            let primary = tx.plan.requests[slot_idx].0;
            let mut serve = None;
            let mut alive = 0usize;
            for j in 0..k {
                let r = (primary + j) % sites;
                if self.nodes[r].up && self.comp[r] == my {
                    alive += 1;
                    if serve.is_none() {
                        serve = Some(r);
                    }
                }
            }
            let serve = serve.expect("pass 1 verified a usable replica");
            if update {
                tx.plan.requests[slot_idx].0 = serve;
                let mut missed_any = false;
                for j in 0..k {
                    let r = (primary + j) % sites;
                    if r == serve {
                        continue;
                    }
                    if self.nodes[r].up && self.comp[r] == my {
                        extras.push((slot_idx, r));
                    } else {
                        missed_any = true;
                        for &rid in &tx.plan.requests[slot_idx].1 {
                            tx.missed.push((r, rid));
                        }
                    }
                }
                if missed_any || serve != primary {
                    self.stats.failovers += 1;
                    if self.tracer.is_some() {
                        let now = self.sched.now();
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::Failover,
                                "write-quorum",
                                serve as u32,
                                self.next_gid,
                                ty,
                            )
                            .detail(primary as u64),
                        );
                    }
                }
            } else {
                if serve != primary {
                    self.stats.degraded_reads += 1;
                    self.stats.failovers += 1;
                    if self.tracer.is_some() {
                        let now = self.sched.now();
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::Failover,
                                "read",
                                serve as u32,
                                self.next_gid,
                                ty,
                            )
                            .detail(primary as u64),
                        );
                    }
                }
                if alive < q && stale_policy {
                    self.stats.stale_reads += 1;
                }
                tx.plan.requests[slot_idx].0 = serve;
            }
        }
        // Appending while iterating would invalidate slot indices, so the
        // write expansions land after the loop (order is deterministic:
        // slot-major, replica-minor).
        for &(slot_idx, r) in &extras {
            let records = tx.plan.requests[slot_idx].1.clone();
            tx.plan.requests.push((r, records));
        }
        extras.clear();
        self.route_scratch = extras;
        RouteOutcome::Proceed
    }

    fn reset_stats(&mut self, now: Time) {
        for n in &mut self.nodes {
            n.cpu.reset_stats(now);
            n.disk.reset_stats(now);
            n.log_disk.reset_stats(now);
            n.io_ops = 0;
            n.base_lock_requests = n.acc_lock_requests + n.locks.requests();
            n.base_lock_conflicts = n.acc_lock_conflicts + n.locks.conflicts();
            n.base_cc_rejections = n.acc_cc_rejections + n.tso.rejections();
        }
        for site in 0..self.nodes.len() {
            for queue in [MetricKind::CpuQ, MetricKind::DiskQ, MetricKind::LogDiskQ] {
                self.obs_station(site, queue);
            }
        }
        self.stats = Stats {
            window_start: now,
            ..Stats::default()
        };
    }

    /// Advances a transaction's program until it parks or finishes.
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
            let Some(tx) = self.txs.get(id) else { return };
            debug_assert!(tx.pc < tx.prog.len(), "program ran off the end");
            let op = tx.prog.ops[tx.pc]; // Copy: dispatch by value
            let gid = tx.gid;
            let ty = tx.ty;
            match op {
                Op::UseCpu { site, ms } => {
                    self.txs.get_mut(id).expect("live tx").op_started = now;
                    if let Some(started) = self.nodes[site].cpu.arrive(now, token, ms) {
                        self.sched
                            .schedule_in(started.service, Ev::CpuDone { site, tx: id });
                    }
                    self.obs_station(site, MetricKind::CpuQ);
                    return;
                }
                Op::UseDisk { site, ms, ios, log } => {
                    self.txs.get_mut(id).expect("live tx").op_started = now;
                    self.nodes[site].io_ops += ios as u64;
                    if log && self.cfg.separate_log_disk {
                        if let Some(started) = self.nodes[site].log_disk.arrive(now, token, ms) {
                            self.sched
                                .schedule_in(started.service, Ev::LogDone { site, tx: id });
                        }
                        self.obs_station(site, MetricKind::LogDiskQ);
                    } else {
                        if let Some(started) = self.nodes[site].disk.arrive(now, token, ms) {
                            self.sched
                                .schedule_in(started.service, Ev::DiskDone { site, tx: id });
                        }
                        self.obs_station(site, MetricKind::DiskQ);
                    }
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
                    let node = &mut self.nodes[site];
                    if node.tm_busy.is_none() {
                        node.tm_busy = Some(id);
                        let tx = self.txs.get_mut(id).expect("live tx");
                        tx.tm_held = Some(site);
                        tx.pc += 1;
                        self.obs_servers(site);
                    } else {
                        node.tm_queue.push_back(id);
                        self.txs.get_mut(id).expect("live tx").op_started = now;
                        self.obs_servers(site);
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
                    if self.txs.get(id).expect("live tx").dm_sites.contains(&site) {
                        self.bump(id);
                    } else {
                        let node = &mut self.nodes[site];
                        if node.dm_free > 0 {
                            node.dm_free -= 1;
                            let tx = self.txs.get_mut(id).expect("live tx");
                            tx.dm_sites.push(site);
                            tx.pc += 1;
                            self.obs_servers(site);
                        } else {
                            node.dm_queue.push_back(id);
                            self.txs.get_mut(id).expect("live tx").op_started = now;
                            self.obs_servers(site);
                            return;
                        }
                    }
                }
                Op::Lock {
                    site,
                    block,
                    exclusive,
                } => {
                    if self.cfg.cc != CcProtocol::TwoPhaseLocking {
                        // Timestamp ordering: the *gid* is the timestamp
                        // (gids are assigned monotonically and a restart
                        // gets a fresh, larger one); the slab token merely
                        // names the transaction.
                        if self.tracer.is_some() {
                            let name = if exclusive { "X" } else { "S" };
                            self.trace(
                                TraceEvent::new(
                                    now,
                                    TraceKind::LockRequest,
                                    name,
                                    site as u32,
                                    gid,
                                    ty,
                                )
                                .lane2(id.token() as u32)
                                .detail(block as u64),
                            );
                        }
                        let out = if exclusive {
                            self.nodes[site].tso.write(token, gid, block)
                        } else {
                            self.nodes[site].tso.read(token, gid, block)
                        };
                        match out {
                            TsOutcome::Allowed => self.bump(id),
                            TsOutcome::SkipWrite => {
                                // Thomas write rule: skip the granule's
                                // physical I/O and functional update — fast
                                // forward past its Access op.
                                let tx = self.txs.get_mut(id).expect("live tx");
                                while !matches!(
                                    tx.prog.ops[tx.pc],
                                    Op::Access { site: s, rid, .. }
                                        if s == site && rid.block == block
                                ) {
                                    tx.pc += 1;
                                }
                                tx.pc += 1; // past the Access itself
                            }
                            TsOutcome::Rejected => {
                                if self.tracer.is_some() {
                                    self.trace(
                                        TraceEvent::new(
                                            now,
                                            TraceKind::DeadlockVictim,
                                            "cc-reject",
                                            site as u32,
                                            gid,
                                            ty,
                                        )
                                        .lane2(id.token() as u32)
                                        .detail(block as u64),
                                    );
                                }
                                self.start_abort(id, site);
                                // Continue: run the abort program.
                            }
                            TsOutcome::WaitFor(_) => {
                                let t = self.sched.now();
                                self.txs.get_mut(id).expect("live tx").blocked_since = Some(t);
                                self.census_sync(id);
                                if self.tracer.is_some() {
                                    self.trace(
                                        TraceEvent::new(
                                            now,
                                            TraceKind::LockBlock,
                                            "block",
                                            site as u32,
                                            gid,
                                            ty,
                                        )
                                        .lane2(id.token() as u32)
                                        .detail(block as u64),
                                    );
                                }
                                return; // parked until the writer resolves
                            }
                        }
                        continue;
                    }
                    let mode = if exclusive {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    if self.tracer.is_some() {
                        let name = if exclusive { "X" } else { "S" };
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::LockRequest,
                                name,
                                site as u32,
                                gid,
                                ty,
                            )
                            .lane2(id.token() as u32)
                            .detail(block as u64),
                        );
                    }
                    let outcome = self.nodes[site].locks.request(token, block, mode);
                    self.obs_locks(site);
                    match outcome {
                        Outcome::Granted => self.bump(id),
                        Outcome::Queued => {
                            if self.deadlock_check(id, site) {
                                if self.tracer.is_some() {
                                    self.trace(
                                        TraceEvent::new(
                                            now,
                                            TraceKind::DeadlockVictim,
                                            "deadlock",
                                            site as u32,
                                            gid,
                                            ty,
                                        )
                                        .lane2(id.token() as u32)
                                        .detail(block as u64),
                                    );
                                }
                                self.start_abort(id, site);
                                // Continue: run the abort program.
                            } else if self.nodes[site].locks.waiting_block(token).is_some() {
                                let t = self.sched.now();
                                self.txs.get_mut(id).expect("live tx").blocked_since = Some(t);
                                self.census_sync(id);
                                if self.tracer.is_some() {
                                    self.trace(
                                        TraceEvent::new(
                                            now,
                                            TraceKind::LockBlock,
                                            "block",
                                            site as u32,
                                            gid,
                                            ty,
                                        )
                                        .lane2(id.token() as u32)
                                        .detail(block as u64),
                                    );
                                }
                                return; // parked until lock grant
                            } else {
                                // A youngest-policy victim abort already
                                // promoted and granted this request: wake()
                                // bumped our pc and queued us in `ready`,
                                // so just yield to the drain loop.
                                return;
                            }
                        }
                    }
                }
                Op::Access { site, rid, update } => {
                    self.ensure_begun(id, site);
                    if update {
                        self.val_buf.clear();
                        write!(self.val_buf, "g{gid}b{}s{}", rid.block, rid.slot)
                            .expect("format into String cannot fail");
                        self.nodes[site]
                            .db
                            .update_record(gid, rid, self.val_buf.as_bytes())
                            .expect("update of a begun transaction at a validated address");
                        self.obs_journal(site);
                        self.txs
                            .get_mut(id)
                            .expect("live tx")
                            .updated
                            .push((site, rid));
                    } else {
                        self.nodes[site]
                            .db
                            .touch_record(gid, rid)
                            .expect("read by a begun transaction at a validated address");
                    }
                    self.bump(id);
                }
                Op::PrepareSite { site } => {
                    self.ensure_begun(id, site);
                    self.nodes[site]
                        .db
                        .prepare(gid)
                        .expect("prepare of a transaction begun at this site");
                    self.obs_journal(site);
                    if self.tracer.is_some() {
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::TwopcPrepare,
                                "prepare",
                                site as u32,
                                gid,
                                ty,
                            )
                            .lane2(id.token() as u32),
                        );
                    }
                    self.bump(id);
                }
                Op::CommitSite { site } => {
                    // The commit decision is final from the first
                    // `CommitSite` on: later message losses must deliver
                    // the outcome, not presume abort (a participant may
                    // already have committed).
                    self.txs.get_mut(id).expect("live tx").decided = true;
                    self.census_sync(id);
                    let tx = self.txs.get(id).expect("live tx");
                    if tx.begun_sites.contains(&site) {
                        // Record the committed writes at this site, then
                        // commit in storage. `last_committed` and `db` are
                        // disjoint fields, so the borrow of `tx` stays live.
                        for &(s, rid) in &tx.updated {
                            if s == site {
                                self.last_committed.insert((s, rid), gid);
                                if self.replicated {
                                    // Commit applies its value: a commit
                                    // round delayed across a split can
                                    // arrive after a journal catch-up
                                    // already replayed newer history onto
                                    // this replica — re-asserting the bytes
                                    // keeps each replica consistent with
                                    // its own last *applied* commit, which
                                    // is exactly what the audit checks.
                                    self.val_buf.clear();
                                    write!(self.val_buf, "g{gid}b{}s{}", rid.block, rid.slot)
                                        .expect("format into String cannot fail");
                                    self.nodes[s]
                                        .db
                                        .update_record(gid, rid, self.val_buf.as_bytes())
                                        .expect("commit-time re-apply of an active write");
                                }
                            }
                        }
                        self.nodes[site]
                            .db
                            .commit(gid)
                            .expect("commit of a transaction begun at this site");
                        self.obs_journal(site);
                    }
                    if self.cfg.cc == CcProtocol::TwoPhaseLocking {
                        self.release_locks_and_wake(site, token);
                    } else {
                        self.tso_commit_and_wake(site, token);
                    }
                    if self.tracer.is_some() {
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::TwopcDecide,
                                "commit",
                                site as u32,
                                gid,
                                ty,
                            )
                            .lane2(id.token() as u32),
                        );
                    }
                    self.bump(id);
                }
                Op::AbortSite { site } => {
                    // After a crash the site's recovery already rolled this
                    // transaction back (it is no longer active there).
                    if self
                        .txs
                        .get(id)
                        .expect("live tx")
                        .begun_sites
                        .contains(&site)
                        && self.nodes[site].db.is_active(gid)
                    {
                        self.nodes[site]
                            .db
                            .rollback(gid)
                            .expect("rollback of a transaction verified active at this site");
                        self.obs_journal(site);
                    }
                    if self.cfg.cc == CcProtocol::TwoPhaseLocking {
                        self.release_locks_and_wake(site, token);
                    } else {
                        self.tso_abort_and_wake(site, token);
                    }
                    if self.tracer.is_some() {
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::TwopcDecide,
                                "abort",
                                site as u32,
                                gid,
                                ty,
                            )
                            .lane2(id.token() as u32),
                        );
                    }
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
    fn bump(&mut self, id: TxId) {
        self.txs.get_mut(id).expect("live tx").pc += 1;
    }

    /// `locks.release_all` + wake at `site`, through the reusable wake
    /// buffer (the steady-state commit path allocates nothing).
    fn release_locks_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        self.nodes[site].locks.release_all_into(token, &mut woken);
        self.obs_locks(site);
        self.wake(&woken);
        self.woken_scratch = woken;
    }

    /// `locks.cancel_request` + wake at `site`, buffer-reusing.
    fn cancel_lock_request(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        self.nodes[site]
            .locks
            .cancel_request_into(token, &mut woken);
        self.obs_locks(site);
        self.wake(&woken);
        self.woken_scratch = woken;
    }

    /// `tso.commit` + retry-wake at `site`, buffer-reusing.
    fn tso_commit_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_tso_scratch);
        woken.clear();
        self.nodes[site].tso.commit_into(token, &mut woken);
        self.wake_retry(&woken);
        self.woken_tso_scratch = woken;
    }

    /// `tso.abort` + retry-wake at `site`, buffer-reusing.
    fn tso_abort_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_tso_scratch);
        woken.clear();
        self.nodes[site].tso.abort_into(token, &mut woken);
        self.wake_retry(&woken);
        self.woken_tso_scratch = woken;
    }

    /// Hands the TM server at `site` to the next *live* queued waiter
    /// (skipping transactions killed by a crash), or marks it free.
    fn grant_tm_to_next(&mut self, site: usize) {
        let now = self.sched.now();
        let next = loop {
            match self.nodes[site].tm_queue.pop_front() {
                Some(cand) if self.txs.contains(cand) => break Some(cand),
                Some(_) => continue,
                None => break None,
            }
        };
        self.nodes[site].tm_busy = next;
        self.obs_servers(site);
        if let Some(next) = next {
            // The waiter was parked at its AcquireTm op.
            let w = self.txs.get_mut(next).expect("queued tx exists");
            let waited = now - w.op_started;
            let (home, ty, gid) = (w.home, w.ty, w.gid);
            w.pc += 1;
            w.tm_held = Some(site);
            self.stats.add_phase(home, ty, Seg::TmWait, waited);
            self.ready.push_back(next);
            if self.tracer.is_some() {
                self.trace(
                    TraceEvent::new(
                        now,
                        TraceKind::Phase,
                        Seg::TmWait.label(),
                        home as u32,
                        gid,
                        ty,
                    )
                    .lane2(next.token() as u32)
                    .dur(waited),
                );
            }
        }
    }

    /// Returns one DM server at `site` to the pool, handing it directly to
    /// the next *live* queued waiter if there is one.
    fn free_dm(&mut self, site: usize) {
        let now = self.sched.now();
        let next = loop {
            match self.nodes[site].dm_queue.pop_front() {
                Some(cand) if self.txs.contains(cand) => break Some(cand),
                Some(_) => continue,
                None => break None,
            }
        };
        if let Some(next) = next {
            let w = self.txs.get_mut(next).expect("queued tx");
            w.dm_sites.push(site);
            w.pc += 1;
            let waited = now - w.op_started;
            let (home, ty, gid) = (w.home, w.ty, w.gid);
            self.stats.add_phase(home, ty, Seg::DmWait, waited);
            self.ready.push_back(next);
            if self.tracer.is_some() {
                self.trace(
                    TraceEvent::new(
                        now,
                        TraceKind::Phase,
                        Seg::DmWait.label(),
                        home as u32,
                        gid,
                        ty,
                    )
                    .lane2(next.token() as u32)
                    .dur(waited),
                );
            }
        } else {
            self.nodes[site].dm_free = self.nodes[site].dm_free.saturating_add(1);
        }
        self.obs_servers(site);
    }

    /// Wakes transactions granted a lock by a release: they were parked at
    /// their `Lock` op, which is now satisfied.
    fn wake(&mut self, woken: &[(u64, u32)]) {
        let now = self.sched.now();
        for &(tok, block) in woken {
            let id = TxId::from_token(tok);
            if let Some(tx) = self.txs.get_mut(id) {
                debug_assert!(
                    matches!(tx.prog.ops[tx.pc], Op::Lock { .. }),
                    "woken tx not parked on a lock"
                );
                let mut waited = None;
                if let Some(since) = tx.blocked_since.take() {
                    self.stats.lock_wait.record(now - since);
                    self.stats.add_phase(tx.home, tx.ty, Seg::Lw, now - since);
                    waited = Some(now - since);
                }
                tx.pc += 1;
                self.ready.push_back(id);
                self.census_sync(id);
                if self.tracer.is_some() {
                    let tx = self.txs.get(id).expect("woken tx");
                    let (home, ty, gid) = (tx.home, tx.ty, tx.gid);
                    let lane = id.token() as u32;
                    if let Some(w) = waited {
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::Phase,
                                Seg::Lw.label(),
                                home as u32,
                                gid,
                                ty,
                            )
                            .lane2(lane)
                            .dur(w),
                        );
                    }
                    self.trace(
                        TraceEvent::new(now, TraceKind::LockGrant, "grant", home as u32, gid, ty)
                            .lane2(lane)
                            .detail(block as u64),
                    );
                }
            }
        }
    }

    /// Wakes transactions whose pending-writer wait resolved (timestamp
    /// ordering): they were parked at their access op, which must now be
    /// *retried* (the retry may itself reject).
    fn wake_retry(&mut self, woken: &[u64]) {
        let now = self.sched.now();
        for &tok in woken {
            let id = TxId::from_token(tok);
            if let Some(tx) = self.txs.get_mut(id) {
                debug_assert!(
                    matches!(tx.prog.ops[tx.pc], Op::Lock { .. }),
                    "retried tx not parked on an access"
                );
                let mut waited = None;
                if let Some(since) = tx.blocked_since.take() {
                    self.stats.lock_wait.record(now - since);
                    self.stats.add_phase(tx.home, tx.ty, Seg::Lw, now - since);
                    waited = Some(now - since);
                }
                self.ready.push_back(id);
                self.census_sync(id);
                if self.tracer.is_some() {
                    let tx = self.txs.get(id).expect("woken tx");
                    let (home, ty, gid) = (tx.home, tx.ty, tx.gid);
                    let lane = id.token() as u32;
                    if let Some(w) = waited {
                        self.trace(
                            TraceEvent::new(
                                now,
                                TraceKind::Phase,
                                Seg::Lw.label(),
                                home as u32,
                                gid,
                                ty,
                            )
                            .lane2(lane)
                            .dur(w),
                        );
                    }
                    self.trace(
                        TraceEvent::new(now, TraceKind::LockGrant, "retry", home as u32, gid, ty)
                            .lane2(lane),
                    );
                }
            }
        }
    }

    fn ensure_begun(&mut self, id: TxId, site: usize) {
        let tx = self.txs.get_mut(id).expect("live tx");
        if !tx.begun_sites.contains(&site) {
            tx.begun_sites.push(site);
            let gid = tx.gid;
            self.nodes[site]
                .db
                .begin(gid)
                .expect("first begin of a freshly allocated gid at this site");
        }
    }

    /// Deadlock detection at lock-request time.
    ///
    /// The local WFG of the request's site is always searched immediately
    /// (CARAT's local detector). Cross-site cycles are handled per
    /// [`DeadlockMode`]: either by searching the union of all sites' graphs
    /// right away, or by launching real Chandy–Misra–Haas probe messages.
    ///
    /// Returns true iff `id` is a deadlock victim *now*.
    fn deadlock_check(&mut self, id: TxId, site: usize) -> bool {
        let token = id.token();
        if self.cfg.deadlock_mode == DeadlockMode::Probes {
            // Local search first, on the reusable graph.
            let mut g = std::mem::take(&mut self.wfg);
            g.rebuild_from(&self.nodes[site].locks);
            let deadlocked = g.find_cycle(token).is_some();
            self.wfg = g;
            if deadlocked {
                self.stats.local_deadlocks += 1;
                return true;
            }
            // Launch probes along the blocked edges (the holders may be
            // active or blocked at other sites; the probe chases them).
            let alpha = self.cfg.params.comm_delay_ms;
            let mut targets = std::mem::take(&mut self.probe_targets);
            self.nodes[site].locks.waits_for_into(token, &mut targets);
            if self.owned.is_some() {
                // Coupled engine: probes address transactions by gid and
                // chase ghosts across LPs through their home site.
                let initiator_gid = self.txs.get(id).expect("live tx").gid;
                for &h in &targets {
                    self.probe_hop_to_holder(initiator_gid, TxId::from_token(h), 32, alpha);
                }
            } else {
                for &h in &targets {
                    self.sched.schedule_in(
                        alpha,
                        Ev::Probe {
                            initiator: id,
                            target: TxId::from_token(h),
                            ttl: 32,
                        },
                    );
                }
            }
            self.probe_targets = targets;
            return false;
        }

        // Union of every site's wait-for graph, rebuilt into the reusable
        // graph (edge vectors are recycled across conflicts).
        let mut g = std::mem::take(&mut self.wfg);
        g.clear();
        for node in &self.nodes {
            g.extend_from(&node.locks);
        }
        let Some(mut cycle) = g.find_cycle(token) else {
            self.wfg = g;
            return false;
        };
        // Locality: at which site does each cycle member wait?
        let wait_site = |nodes: &[NodeState], t: u64| -> usize {
            nodes
                .iter()
                .position(|n| n.locks.waiting_block(t).is_some())
                .expect("cycle member is blocked somewhere")
        };
        let first_site = wait_site(&self.nodes, cycle[0]);
        let mut local = true;
        // One probe hop per cross-site edge in the chased cycle.
        let mut hops = 0u64;
        for i in 0..cycle.len() {
            let s_i = wait_site(&self.nodes, cycle[i]);
            let s_next = wait_site(&self.nodes, cycle[(i + 1) % cycle.len()]);
            if s_i != first_site {
                local = false;
            }
            if s_i != s_next {
                hops += 1;
            }
        }
        if local {
            self.stats.local_deadlocks += 1;
        } else {
            self.stats.global_deadlocks += 1;
            self.stats.probe_hops += hops;
        }
        match self.cfg.victim {
            VictimPolicy::Requester => {
                self.wfg = g;
                true
            }
            VictimPolicy::Youngest => {
                // Unlike the requester policy (which breaks every cycle
                // through `id` at once), aborting one cycle's youngest may
                // leave other cycles through `id` intact — loop until no
                // cycle through the requester remains, or the requester
                // itself is chosen. "Youngest" = largest gid (tokens are
                // recycled slab handles with no age meaning).
                loop {
                    let victim = *cycle
                        .iter()
                        .max_by_key(|&&t| {
                            self.txs
                                .get(TxId::from_token(t))
                                .map(|x| x.gid)
                                .unwrap_or(0)
                        })
                        .expect("non-empty cycle");
                    if victim == token {
                        self.wfg = g;
                        return true;
                    }
                    // Abort the chosen victim in place: it is parked on a
                    // lock (a safe point — no TM held), so withdraw its
                    // request, run its abort program, and let the requester
                    // keep waiting; the victim's releases will wake it.
                    self.abort_parked(TxId::from_token(victim));
                    g.clear();
                    for node in &self.nodes {
                        g.extend_from(&node.locks);
                    }
                    match g.find_cycle(token) {
                        Some(c) => cycle = c,
                        None => {
                            self.wfg = g;
                            return false;
                        }
                    }
                }
            }
        }
    }

    /// Aborts a transaction that is currently parked on a lock wait
    /// (deadlock victim under [`VictimPolicy::Youngest`]).
    fn abort_parked(&mut self, victim: TxId) {
        debug_assert!(
            self.txs
                .get(victim)
                .is_some_and(|t| matches!(t.prog.ops[t.pc], Op::Lock { .. })),
            "victim not parked on a lock"
        );
        let now = self.sched.now();
        if let Some(site) = self.blocked_site(victim.token()) {
            self.cancel_lock_request(site, victim.token());
        }
        if let Some(tx) = self.txs.get_mut(victim) {
            let mut traced = None;
            if let Some(since) = tx.blocked_since.take() {
                self.stats.lock_wait.record(now - since);
                self.stats.add_phase(tx.home, tx.ty, Seg::Lw, now - since);
                traced = Some(now - since);
            }
            if self.tracer.is_some() {
                let (home, ty, gid) = (tx.home, tx.ty, tx.gid);
                let lane = victim.token() as u32;
                if let Some(w) = traced {
                    self.trace(
                        TraceEvent::new(
                            now,
                            TraceKind::Phase,
                            Seg::Lw.label(),
                            home as u32,
                            gid,
                            ty,
                        )
                        .lane2(lane)
                        .dur(w),
                    );
                }
                self.trace(
                    TraceEvent::new(
                        now,
                        TraceKind::DeadlockVictim,
                        "deadlock",
                        home as u32,
                        gid,
                        ty,
                    )
                    .lane2(lane),
                );
            }
        }
        self.census_sync(victim);
        self.start_abort_program(victim);
        self.ready.push_back(victim);
    }

    /// Site at which the transaction with `token` is lock-blocked, if any.
    fn blocked_site(&self, token: u64) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.locks.waiting_block(token).is_some())
    }

    /// Delivery of a Chandy–Misra–Haas probe (`DeadlockMode::Probes`).
    ///
    /// Classic edge-chasing: if the probe reached its initiator, a cycle
    /// exists and the initiator is the victim; if the target is itself
    /// blocked, the probe is forwarded along the target's wait-for edges;
    /// a running target absorbs the probe (it will initiate fresh probes
    /// if it blocks later).
    fn handle_probe(&mut self, initiator: TxId, target: TxId, ttl: u8) {
        self.stats.probe_hops += 1;
        if ttl == 0 {
            return;
        }
        // Stale probe: the initiator moved on (granted or already aborted).
        let Some(init_site) = self.blocked_site(initiator.token()) else {
            return;
        };
        if !self.txs.contains(initiator) {
            return;
        }
        if self.tracer.is_some() {
            let now = self.sched.now();
            let (gid, ty) = {
                let tx = self.txs.get(initiator).expect("live initiator");
                (tx.gid, tx.ty)
            };
            let target_gid = self.txs.get(target).map(|t| t.gid).unwrap_or(0);
            self.trace(
                TraceEvent::new(now, TraceKind::ProbeHop, "hop", init_site as u32, gid, ty)
                    .lane2(initiator.token() as u32)
                    .detail(target_gid),
            );
        }
        if target == initiator {
            // Cycle closed. Like the real protocol this may be a phantom
            // if an edge vanished while the probe was in flight; the victim
            // retries either way, so only performance is at stake.
            self.stats.global_deadlocks += 1;
            if let Some(tx) = self.txs.get_mut(initiator) {
                if let Some(since) = tx.blocked_since.take() {
                    self.stats.lock_wait.record(self.sched.now() - since);
                }
            }
            self.census_sync(initiator);
            if self.tracer.is_some() {
                let now = self.sched.now();
                let (gid, ty) = {
                    let tx = self.txs.get(initiator).expect("live initiator");
                    (tx.gid, tx.ty)
                };
                self.trace(
                    TraceEvent::new(
                        now,
                        TraceKind::DeadlockVictim,
                        "probe-cycle",
                        init_site as u32,
                        gid,
                        ty,
                    )
                    .lane2(initiator.token() as u32),
                );
            }
            self.start_abort(initiator, init_site);
            self.ready.push_back(initiator);
            return;
        }
        let Some(target_site) = self.blocked_site(target.token()) else {
            return; // target is running; it makes progress, no deadlock here
        };
        let alpha = self.cfg.params.comm_delay_ms;
        let mut targets = std::mem::take(&mut self.probe_targets);
        self.nodes[target_site]
            .locks
            .waits_for_into(target.token(), &mut targets);
        for &h in &targets {
            let next_hop_remote = self.blocked_site(h).map(|s| s != target_site);
            let delay = match next_hop_remote {
                Some(true) | None => alpha,
                Some(false) => 0.0,
            };
            self.sched.schedule_in(
                delay,
                Ev::Probe {
                    initiator,
                    target: TxId::from_token(h),
                    ttl: ttl - 1,
                },
            );
        }
        self.probe_targets = targets;
    }

    /// Converts `gid` into an aborting transaction: withdraw the pending
    /// request and replace the remaining program with the rollback
    /// sequence.
    fn start_abort(&mut self, id: TxId, blocked_site: usize) {
        if self.cfg.cc == CcProtocol::TwoPhaseLocking {
            self.cancel_lock_request(blocked_site, id.token());
        } else {
            for node in &mut self.nodes {
                node.tso.cancel_waits(id.token());
            }
        }
        self.start_abort_program(id);
    }

    /// Replaces `id`'s remaining program with the rollback sequence.
    fn start_abort_program(&mut self, id: TxId) {
        let mut abort_sites = std::mem::take(&mut self.sites_scratch);
        abort_sites.clear();
        let (home, ty) = {
            let tx = self.txs.get(id).expect("live tx");
            // Rollback is needed wherever the transaction has touched data
            // (begun ⟺ accessed ⟹ holds locks there); the home site is
            // always visited so the coordinator processes the abort even if
            // nothing was touched yet. Down sites are skipped — their
            // restart recovery undoes the transaction from the journal.
            abort_sites.extend_from_slice(&tx.begun_sites);
            if !abort_sites.contains(&tx.home) {
                abort_sites.push(tx.home);
            }
            (tx.home, tx.ty)
        };
        abort_sites.retain(|&s| self.nodes[s].up);
        abort_sites.sort_unstable();
        *self.stats.aborts.entry((home, ty)).or_default() += 1;

        let alpha = self.cfg.params.comm_delay_ms;
        let chain = ty.coordinator_chain();
        // Build into the reusable abort-program scratch; it is swapped with
        // the transaction's own program below, so the replaced program's
        // capacity is recycled for the next abort.
        let mut prog = std::mem::take(&mut self.abort_prog);
        prog.clear();
        // Coupled engine: the abort is coordinator-driven, but the victim's
        // state cannot teleport between logical processes — if it is away
        // from home when the abort starts, it first migrates back on a real
        // network hop (the monolithic engine just repoints `at_site`).
        if self.owned.is_some() && self.txs.get(id).expect("live tx").at_site != home {
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: home,
                },
                Seg::Ta,
            );
        }
        for &site in &abort_sites {
            // A local type can still have touched a remote site: replica
            // routing reroutes and expands plans across the replica set.
            // Such a visit is charged at the type's own (coordinator)
            // rates, exactly as its forward path was compiled.
            let exec_chain = if site == home {
                chain
            } else {
                ty.slave_chain().unwrap_or(chain)
            };
            if site != home {
                prog.push(
                    Op::Net {
                        ms: alpha,
                        to: site,
                    },
                    Seg::Ta,
                );
            }
            // TA phase: abort message processing.
            let ta_ms = self.cfg.params.basic.ta_cpu(exec_chain);
            prog.push(Op::UseCpu { site, ms: ta_ms }, Seg::Ta);
            // TAIO phase: restore the journaled before-images, one block
            // write at a time, then force the abort record (see
            // `carat_storage::Database::rollback` for why the force is
            // required for correctness).
            if ty.is_update() {
                let updated = self.rollback_extent(id, site);
                if updated > 0 {
                    let io_ms = self.cfg.params.nodes[site].disk_io_ms;
                    // `updated` block restores + the forced abort record.
                    for i in 0..(updated + 1) {
                        prog.push(
                            Op::UseDisk {
                                site,
                                ms: io_ms,
                                ios: 1,
                                log: i == updated,
                            },
                            Seg::Taio,
                        );
                    }
                }
            }
            prog.push(Op::AbortSite { site }, Seg::Ta);
            if site != home {
                prog.push(
                    Op::Net {
                        ms: alpha,
                        to: home,
                    },
                    Seg::Ta,
                );
            }
        }
        prog.push(Op::End, Seg::Ta);
        abort_sites.clear();
        self.sites_scratch = abort_sites;

        let tx = self.txs.get_mut(id).expect("live tx");
        tx.aborting = true;
        std::mem::swap(&mut tx.prog, &mut prog);
        self.abort_prog = prog;
        tx.pc = 0;
        // Any in-flight send belongs to the replaced program; its delivery
        // and timer are stale from here on.
        tx.net_token = None;
        tx.net_attempt = 0;
        if self.owned.is_none() {
            // The abort is coordinator-driven: its messages originate at
            // home. (In the coupled engine the hop prepended above moves
            // the transaction home for real instead.)
            tx.at_site = home;
            self.census_sync(id);
        }
    }

    /// Diverts a crash-poisoned transaction onto its abort path: withdraw
    /// any pending waits at live sites, then run the usual abort program
    /// (rollback I/O is only charged where the storage engine still has the
    /// transaction active — the crashed site's recovery already undid it).
    fn divert_after_crash(&mut self, id: TxId) {
        let token = id.token();
        if let Some(site) = self.blocked_site(token) {
            if self.cfg.cc == CcProtocol::TwoPhaseLocking {
                self.cancel_lock_request(site, token);
            }
        }
        if self.cfg.cc != CcProtocol::TwoPhaseLocking {
            for node in &mut self.nodes {
                node.tso.cancel_waits(token);
            }
        }
        if let Some(tx) = self.txs.get_mut(id) {
            tx.blocked_since = None;
        }
        self.census_sync(id);
        self.start_abort_program(id);
    }

    /// Number of blocks whose before-images must be restored at `site`:
    /// the distinct blocks this transaction has actually updated there
    /// (exactly what the storage engine journaled).
    fn rollback_extent(&mut self, id: TxId, site: usize) -> u32 {
        let mut set = std::mem::take(&mut self.blocks_scratch);
        let tx = self.txs.get(id).expect("live tx");
        // The storage-engine liveness check guards against a crashed
        // site's recovery having already undone the transaction. In the
        // coupled engine (no crashes, and a remote `site`'s storage lives
        // in another logical process) `begun_sites` alone is authoritative.
        let site_active = self.owned.is_some() || self.nodes[site].db.is_active(tx.gid);
        let extent = if !tx.begun_sites.contains(&site) || !site_active {
            0
        } else {
            set.clear();
            for (s, rid) in &tx.updated {
                if *s == site {
                    set.insert(rid.block);
                }
            }
            let distinct = set.len() as u32;
            // `distinct_blocks_at_with` clears the set before use.
            let planned = distinct_blocks_at_with(&tx.plan, site, &mut set);
            distinct.min(planned)
        };
        self.blocks_scratch = set;
        extent
    }

    /// Transaction end: commit bookkeeping, free DMs, schedule the user's
    /// next submission (rollback already happened in `AbortSite` ops).
    fn finish(&mut self, id: TxId) {
        let now = self.sched.now();
        let mut tx = self.txs.remove(id).expect("live tx");
        self.census_drop(&mut tx);
        if !tx.aborting {
            let key = (tx.home, tx.ty);
            *self.stats.commits.entry(key).or_default() += 1;
            *self.stats.records.entry(tx.home).or_default() += tx.plan.total_records();
            self.stats
                .resp
                .entry(key)
                .or_default()
                .record(now - tx.submit_time);
            self.stats
                .resp_hist
                .entry(key)
                .or_insert_with(Histogram::for_latency_ms)
                .record(now - tx.submit_time);
            // Writes that missed replicas at routing time are now
            // committed history: record them as the last committed writer
            // there and queue the journal catch-up (replayed at heal,
            // restart, or end of run — the audit self-checks convergence).
            for &(site, rid) in &tx.missed {
                self.last_committed.insert((site, rid), tx.gid);
                self.pending_catchup
                    .entry(site)
                    .or_default()
                    .push((tx.gid, rid));
            }
        }
        if let Some(owned) = self.owned {
            self.gid_index.remove(&tx.gid);
            // DM servers at other sites live in other logical processes:
            // the release travels as a real message (one network delay,
            // like the EOT cleanup it models). Local ones free directly.
            for &site in &tx.dm_sites {
                if site == owned {
                    self.free_dm(site);
                } else {
                    let alpha = self.cfg.params.comm_delay_ms;
                    self.xmsg_out += 1;
                    self.obs_xmsg();
                    self.outbox.push((site, now + alpha, XMsg::DmRelease));
                }
            }
        } else {
            for &site in &tx.dm_sites {
                self.free_dm(site);
            }
        }
        // Drain catch-up that was deferred behind held blocks now that this
        // transaction's locks are released (no-op while a split is still in
        // force — lagging replicas stay unreachable until the heal).
        if !self.partition_active && !self.pending_catchup.is_empty() {
            let mut lagging = std::mem::take(&mut self.sites_scratch);
            lagging.clear();
            lagging.extend(self.pending_catchup.keys().copied());
            for &site in &lagging {
                self.apply_catchup_site(site, true);
            }
            lagging.clear();
            self.sites_scratch = lagging;
        }
        self.sched
            .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user: tx.user });
        if self.tracer.is_some() {
            let (kind, name) = if tx.aborting {
                (TraceKind::TxAbort, "abort")
            } else {
                (TraceKind::TxCommit, "commit")
            };
            self.trace(
                TraceEvent::new(now, kind, name, tx.home as u32, tx.gid, tx.ty)
                    .lane2(id.token() as u32),
            );
        }
        // Recycle the transaction's buffers (program, plan, site lists) for
        // the next submission.
        self.spare_txns.push(tx);
    }

    fn report(&mut self, end: Time) -> SimReport {
        let window = end - self.stats.window_start;
        // Guard against a degenerate window (an event budget tripping
        // before warm-up): rates divide by at least a femtosecond.
        let window_s = (window / 1000.0).max(1e-12);
        // A split still in force at the cutoff contributes its open
        // interval to the partition duty time.
        if self.partition_active {
            self.partition_active = false;
            self.stats.partition_ms += end - self.partition_since.max(self.stats.window_start);
        }
        let mut nodes = Vec::new();
        // `report` runs once, at the end of the run — moving each node's
        // name out of the (about-to-drop) config avoids cloning it.
        let mut names = std::mem::take(&mut self.cfg.params.nodes);
        for (i, node) in self.nodes.iter().enumerate() {
            let mut per_type: BTreeMap<TxType, TypeReport> = BTreeMap::new();
            let mut tx_total = 0u64;
            for ty in TxType::ALL {
                let key = (i, ty);
                let commits = self.stats.commits.get(&key).copied().unwrap_or(0);
                let aborts = self.stats.aborts.get(&key).copied().unwrap_or(0);
                if commits == 0 && aborts == 0 {
                    continue;
                }
                tx_total += commits;
                let mut phase_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
                if commits > 0 {
                    for &seg in &Seg::ALL {
                        let total = self.stats.phase(i, ty, seg);
                        if total != 0.0 {
                            *phase_ms.entry(seg.label()).or_default() += total / commits as f64;
                        }
                    }
                }
                per_type.insert(
                    ty,
                    TypeReport {
                        phase_ms,
                        commits,
                        aborts,
                        xput_per_s: commits as f64 / window_s,
                        mean_response_ms: self.stats.resp.get(&key).map(Tally::mean).unwrap_or(0.0),
                        p50_response_ms: self
                            .stats
                            .resp_hist
                            .get(&key)
                            .map(|h| h.quantile(0.5))
                            .unwrap_or(0.0),
                        p95_response_ms: self
                            .stats
                            .resp_hist
                            .get(&key)
                            .map(|h| h.quantile(0.95))
                            .unwrap_or(0.0),
                    },
                );
            }
            let records = self.stats.records.get(&i).copied().unwrap_or(0);
            nodes.push(NodeReport {
                name: std::mem::take(&mut names[i].name),
                cpu_util: node.cpu.utilization(end),
                disk_util: node.disk.utilization(end),
                log_disk_util: node.log_disk.utilization(end),
                dio_per_s: node.io_ops as f64 / window_s,
                tx_per_s: tx_total as f64 / window_s,
                records_per_s: records as f64 / window_s,
                per_type,
            });
        }
        // Commit audit: every record's stored bytes must be the value
        // written by its last committed writer (proof that rollback and
        // recovery never leaked an aborted write into committed state).
        let mut audit_violations = 0u64;
        let mut audited = 0u64;
        for (&(site, rid), &gid) in &self.last_committed {
            if self.nodes[site].locks.is_contended(rid.block)
                || self.nodes[site].tso.block_pending(rid.block)
            {
                // An in-flight transaction holds the block (2PL lock or
                // TSO pending write) and may have legitimately overwritten
                // it; skip until it resolves.
                continue;
            }
            audited += 1;
            let expect = format!("g{gid}b{}s{}", rid.block, rid.slot);
            let got = self.nodes[site].db.read_committed(rid);
            if !got.starts_with(expect.as_bytes()) {
                audit_violations += 1;
            }
        }

        // Lifetime totals = accumulators from replaced managers + the live
        // manager's counters; the saturating subtraction guards the edge
        // where the warm-up baseline was taken just before a crash reset.
        let lock_requests: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_lock_requests + n.locks.requests()).saturating_sub(n.base_lock_requests)
            })
            .sum();
        let lock_conflicts: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_lock_conflicts + n.locks.conflicts()).saturating_sub(n.base_lock_conflicts)
            })
            .sum();
        let cc_rejections: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_cc_rejections + n.tso.rejections()).saturating_sub(n.base_cc_rejections)
            })
            .sum();
        // In-flight census. The coupled engine counts each transaction
        // exactly once, at its *home* LP (whether resident there or away
        // as a ghost): residents at remote LPs and remote ghosts are the
        // same transactions seen from the other side. `absorbed_*` carries
        // the peers' contributions after the merge.
        let (live_here, oldest_here) = if self.owned.is_some() {
            let mut live = 0u64;
            let mut oldest = 0.0_f64;
            for (_, tx) in self.txs.iter() {
                if Some(tx.home) == self.owned {
                    live += 1;
                    oldest = oldest.max(end - tx.submit_time);
                }
            }
            (live, oldest)
        } else {
            (
                self.txs.len() as u64,
                self.txs
                    .iter()
                    .map(|(_, tx)| end - tx.submit_time)
                    .fold(0.0_f64, f64::max),
            )
        };
        let live_at_end = live_here + self.absorbed_live;
        let mut oldest_inflight_ms = oldest_here;
        if self.absorbed_oldest_submit.is_finite() {
            oldest_inflight_ms = oldest_inflight_ms.max(end - self.absorbed_oldest_submit);
        }
        // Profiling counters — pure functions of simulation state, so a
        // traced run and an untraced run of one configuration produce the
        // same registry (the trace-neutrality CI gate relies on this; the
        // tracer's own recorded/dropped tallies deliberately stay out).
        let mut counters = CounterRegistry::new();
        counters.add("events_total", self.events);
        for (i, &c) in self.ev_counts.iter().enumerate() {
            if c > 0 {
                counters.add(Ev::LABELS[i], c);
            }
        }
        // High-water marks are per-LP maxima after a sharded merge (the
        // `absorbed_*` fields are zero in the monolithic engine).
        counters.add(
            "sched_heap_hwm",
            self.sched.high_water().max(self.absorbed_sched_hwm) as u64,
        );
        counters.add(
            "slab_hwm",
            self.txs.high_water().max(self.absorbed_slab_hwm) as u64,
        );
        counters.add(
            "slab_slots_hwm",
            self.txs.slots().max(self.absorbed_slab_slots) as u64,
        );
        for &seg in &Seg::ALL {
            let mut total = 0.0;
            for home in 0..self.nodes.len() {
                for ty in TxType::ALL {
                    total += self.stats.phase(home, ty, seg);
                }
            }
            if total > 0.0 {
                // Whole microseconds: enough resolution for profiling, and
                // integer counters render identically everywhere.
                counters.add(
                    &format!("phase_us_{}", seg.label()),
                    (total * 1000.0).round() as u64,
                );
            }
        }
        SimReport {
            counters,
            nodes,
            local_deadlocks: self.stats.local_deadlocks,
            global_deadlocks: self.stats.global_deadlocks,
            probe_hops: self.stats.probe_hops,
            lock_requests,
            lock_conflicts,
            cc_rejections,
            mean_lock_wait_ms: self.stats.lock_wait.mean(),
            lock_waits_completed: self.stats.lock_wait.count(),
            crashes: self.stats.crashes,
            crash_kills: self.stats.crash_kills,
            recoveries: self.stats.recoveries,
            net_messages: self.stats.net_messages,
            net_drops: self.stats.net_drops,
            net_duplicates: self.stats.net_duplicates,
            net_retries: self.stats.net_retries,
            timeout_aborts: self.stats.timeout_aborts,
            in_doubt_resolutions: self.stats.in_doubt_resolutions,
            live_at_end,
            oldest_inflight_ms,
            events: self.events,
            audited_records: audited,
            audit_violations,
            window_ms: window,
            availability: AvailabilityReport {
                partitions: self.stats.partitions,
                heals: self.stats.heals,
                partition_ms: self.stats.partition_ms,
                partition_aborts: self.stats.partition_aborts,
                blocked_on_heal: self.stats.blocked_on_heal,
                stale_reads: self.stats.stale_reads,
                degraded_reads: self.stats.degraded_reads,
                failovers: self.stats.failovers,
                catchup_records: self.stats.catchup_records,
                tx_started: self.tx_started,
                tx_submit_refusals: self.tx_submit_refusals,
                tx_killed: self.tx_killed,
            },
        }
    }
}
