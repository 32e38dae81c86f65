//! Simulation configuration.

use carat_obs::{MetricsConfig, TraceConfig};
use carat_workload::{SystemParams, WorkloadSpec};

/// A configuration the simulator refuses to run, with enough structure for
/// callers to report the problem instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum SimConfigError {
    /// Workload and system parameters disagree on the node count.
    SiteCountMismatch {
        /// Sites in the workload specification.
        workload: usize,
        /// Sites in the system parameters.
        params: usize,
    },
    /// A scheduled crash names a site the topology does not have.
    CrashSiteOutOfRange {
        /// The offending site index.
        site: usize,
        /// Number of sites configured.
        sites: usize,
        /// When the crash was scheduled (ms).
        at_ms: f64,
    },
    /// A scheduled crash instant is not a finite, non-negative time.
    CrashTimeInvalid {
        /// The offending instant (ms).
        at_ms: f64,
        /// The site it targeted.
        site: usize,
    },
    /// The fault plan is internally inconsistent (see the reason).
    InvalidFaultPlan {
        /// Human-readable explanation.
        reason: String,
    },
    /// The partition plan is internally inconsistent (see the reason).
    InvalidPartitionPlan {
        /// Human-readable explanation.
        reason: String,
    },
    /// A scalar run parameter is outside its valid range.
    InvalidParameter {
        /// The offending field of [`SimConfig`].
        name: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::SiteCountMismatch { workload, params } => write!(
                f,
                "workload has {workload} sites but parameters have {params}"
            ),
            SimConfigError::CrashSiteOutOfRange { site, sites, at_ms } => write!(
                f,
                "crash at {at_ms} ms targets site {site}, but only {sites} sites exist"
            ),
            SimConfigError::CrashTimeInvalid { at_ms, site } => write!(
                f,
                "crash time {at_ms} ms for site {site} is not a finite non-negative instant"
            ),
            SimConfigError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimConfigError::InvalidPartitionPlan { reason } => {
                write!(f, "invalid partition plan: {reason}")
            }
            SimConfigError::InvalidParameter { name, reason } => {
                write!(f, "invalid {name}: {reason}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Deterministic fault-injection plan: a lossy/duplicating/reordering
/// network, stochastic node crash/restart processes, and timeout-driven
/// retry + presumed-abort termination. All randomness is drawn from a
/// dedicated stream derived from [`SimConfig::seed`], so a fault plan never
/// perturbs the workload sample and two runs with the same configuration
/// are identical event for event.
///
/// `Copy`: seven scalars — the engine keeps a copy by value so the network
/// path never clones through the config per message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability that any single network message is lost in transit.
    /// Requires timeouts (`timeout_ms > 0`) so senders can recover.
    pub drop_prob: f64,
    /// Probability that a delivered message is delivered twice (the second
    /// copy is detected as stale by the sequence token and ignored —
    /// at-most-once processing over an at-least-once channel).
    pub duplicate_prob: f64,
    /// Maximum uniform extra latency added per delivery (ms). Nonzero
    /// values reorder concurrent messages.
    pub jitter_ms: f64,
    /// Mean time to failure per node (ms), exponentially distributed;
    /// `0` disables the stochastic crash process (scheduled crashes in
    /// [`SimConfig::crashes`] still fire).
    pub mttf_ms: f64,
    /// Mean time to repair (ms), exponentially distributed downtime after a
    /// stochastic crash. During the outage the node accepts no messages;
    /// at restart it runs journal recovery and rejoins. `0` means the node
    /// recovers instantly (the scheduled-crash semantics).
    pub mttr_ms: f64,
    /// Base retransmission timeout (ms). Each retry backs off
    /// exponentially (`timeout_ms · 2^attempt`, exponent capped). `0`
    /// disables timeouts entirely — only safe on a lossless network.
    pub timeout_ms: f64,
    /// Retransmissions attempted before the sender presumes the peer dead
    /// and aborts the transaction (presumed abort). Transactions that have
    /// already decided (commit applied / abort under way) retry past this
    /// bound so cleanup always completes.
    pub max_retries: u32,
}

impl FaultPlan {
    /// True when any fault mechanism is enabled; an inactive plan draws no
    /// random numbers and adds no events, keeping fault-free runs
    /// bit-identical with pre-fault-layer builds.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.jitter_ms > 0.0
            || self.mttf_ms > 0.0
            || self.timeout_ms > 0.0
    }

    /// Delay after which an orphaned 2PC participant gives up on its
    /// coordinator and runs the presumed-abort termination protocol: the
    /// full retransmission schedule a live coordinator would have used.
    pub fn termination_ms(&self) -> f64 {
        self.timeout_ms * (self.max_retries as f64 + 1.0)
    }

    /// Bounded-exponential-backoff delay before retransmission `attempt`
    /// (0-based).
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        self.timeout_ms * f64::from(1u32 << attempt.min(6))
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        let bad = |reason: String| Err(SimConfigError::InvalidFaultPlan { reason });
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
        ] {
            if !(0.0..1.0).contains(&p) {
                return bad(format!("{name} = {p} must lie in [0, 1)"));
            }
        }
        for (name, v) in [
            ("jitter_ms", self.jitter_ms),
            ("mttf_ms", self.mttf_ms),
            ("mttr_ms", self.mttr_ms),
            ("timeout_ms", self.timeout_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return bad(format!("{name} = {v} must be finite and non-negative"));
            }
        }
        if self.timeout_ms > 0.0 && self.max_retries == 0 {
            return bad("timeouts need max_retries >= 1".into());
        }
        if self.drop_prob > 0.0 && self.timeout_ms == 0.0 {
            return bad("drop_prob > 0 without timeouts would hang senders forever".into());
        }
        if self.mttf_ms > 0.0 && self.mttr_ms > 0.0 && self.timeout_ms == 0.0 {
            return bad(
                "node downtime (mttf + mttr) without timeouts would hang senders forever".into(),
            );
        }
        if self.mttr_ms > 0.0 && self.mttf_ms == 0.0 {
            return bad("mttr_ms without mttf_ms has no effect; set mttf_ms > 0".into());
        }
        Ok(())
    }
}

/// What a transaction does when a network partition (or crash) leaves it
/// without the replicas it needs: a read with no reachable up-to-date copy,
/// or a write without a reachable majority of its replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Abort at submit time and resubmit after a retry pause — the client
    /// sees an error and tries again (CAP: consistency over availability).
    #[default]
    Abort,
    /// Park the user until the partition heals, then resubmit. No work is
    /// wasted, at the price of unbounded (but heal-bounded) latency.
    BlockUntilHeal,
    /// Reads are served from any reachable replica even when the majority
    /// side may hold newer data (availability over consistency); writes
    /// still need a quorum and fall back to `Abort`.
    StaleRead,
}

impl DegradationPolicy {
    /// CLI / config-file label.
    pub fn label(self) -> &'static str {
        match self {
            DegradationPolicy::Abort => "abort",
            DegradationPolicy::BlockUntilHeal => "block",
            DegradationPolicy::StaleRead => "stale",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(DegradationPolicy::Abort),
            "block" | "block-until-heal" => Some(DegradationPolicy::BlockUntilHeal),
            "stale" | "stale-read" => Some(DegradationPolicy::StaleRead),
            _ => None,
        }
    }
}

/// One scheduled network split: at `at_ms` the cluster separates into the
/// components named by `groups`, and at `heal_ms` full connectivity returns.
/// Every split MUST heal — [`PartitionPlan::validate`] enforces it — so no
/// plan can hang the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSpec {
    /// When the split begins (ms).
    pub at_ms: f64,
    /// When connectivity is restored (ms); must be `> at_ms` and finite.
    pub heal_ms: f64,
    /// Component label per site (`groups[site]`); sites with equal labels
    /// can exchange messages, sites with different labels cannot. Must list
    /// every site and name at least two distinct components.
    pub groups: Vec<u8>,
}

/// Network-partition injection: scheduled splits, an optional stochastic
/// split/heal process, replica placement, and the degradation policy
/// transactions follow while the cluster is split.
///
/// The default plan is inert — no splits, replication factor 1 — and an
/// inert plan adds no events, draws no randomness, and leaves reports
/// byte-identical to a partition-free build.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Scheduled splits, in increasing `at_ms` order, non-overlapping.
    pub splits: Vec<SplitSpec>,
    /// Mean time between stochastic splits (ms), exponentially distributed;
    /// `0` disables the stochastic process. Each stochastic split cuts the
    /// sites into two components at a random boundary. Draws come from the
    /// dedicated fault stream, so enabling this never perturbs the
    /// workload sample.
    pub mtbp_ms: f64,
    /// Mean time to heal a stochastic split (ms), exponentially
    /// distributed. Required (`> 0`) when `mtbp_ms > 0`: every stochastic
    /// split is created together with its heal event.
    pub mtth_ms: f64,
    /// What transactions do when the split leaves them short of replicas.
    pub degradation: DegradationPolicy,
    /// Replication factor `k`: the replica set of a record homed at site
    /// `s` is sites `s, s+1, …, s+k-1 (mod sites)` — read-one/write-all
    /// with majority write quorums and primary-first reads. `1` (the
    /// default) keeps the unreplicated semantics of the paper's testbed.
    pub replication: usize,
}

impl Default for PartitionPlan {
    fn default() -> Self {
        PartitionPlan {
            splits: Vec::new(),
            mtbp_ms: 0.0,
            mtth_ms: 0.0,
            degradation: DegradationPolicy::default(),
            replication: 1,
        }
    }
}

impl PartitionPlan {
    /// True when the plan can actually split the cluster. Replication alone
    /// (`replication > 1`, no splits) does not count: it changes programs
    /// but schedules no partition events.
    pub fn is_active(&self) -> bool {
        !self.splits.is_empty() || self.mtbp_ms > 0.0
    }

    /// Write quorum for the configured replication factor (majority).
    pub fn write_quorum(&self) -> usize {
        self.replication / 2 + 1
    }

    /// Checks internal consistency against the topology and fault plan.
    /// The invariants that matter for liveness: every split heals, heal
    /// times are finite, stochastic splits always pair with a heal draw,
    /// and any active plan runs with message timeouts enabled so senders
    /// caught mid-flight by a split recover via the presumed-abort path.
    pub fn validate(&self, sites: usize, faults: &FaultPlan) -> Result<(), SimConfigError> {
        let bad = |reason: String| Err(SimConfigError::InvalidPartitionPlan { reason });
        if self.replication == 0 || self.replication > sites {
            return bad(format!(
                "replication = {} must lie in 1..={sites} (the site count)",
                self.replication
            ));
        }
        let mut prev_heal = 0.0_f64;
        for (i, s) in self.splits.iter().enumerate() {
            if !s.at_ms.is_finite() || s.at_ms < 0.0 {
                return bad(format!(
                    "split {i}: at_ms = {} is not a valid instant",
                    s.at_ms
                ));
            }
            if !s.heal_ms.is_finite() || s.heal_ms <= s.at_ms {
                return bad(format!(
                    "split {i}: heal_ms = {} must be a finite instant after at_ms = {} (every split must heal)",
                    s.heal_ms, s.at_ms
                ));
            }
            if s.at_ms < prev_heal {
                return bad(format!(
                    "split {i} starts at {} ms before the previous split heals at {prev_heal} ms; splits must be sorted and non-overlapping",
                    s.at_ms
                ));
            }
            prev_heal = s.heal_ms;
            if s.groups.len() != sites {
                return bad(format!(
                    "split {i}: groups lists {} sites but the topology has {sites}",
                    s.groups.len()
                ));
            }
            let first = s.groups[0];
            if s.groups.iter().all(|&g| g == first) {
                return bad(format!(
                    "split {i}: all sites share component {first}; a split needs at least two components"
                ));
            }
        }
        if self.mtbp_ms < 0.0 || !self.mtbp_ms.is_finite() {
            return bad(format!(
                "mtbp_ms = {} must be finite and non-negative",
                self.mtbp_ms
            ));
        }
        if self.mtbp_ms > 0.0 {
            if sites < 2 {
                return bad("stochastic splits need at least 2 sites".into());
            }
            if self.mtth_ms <= 0.0 || !self.mtth_ms.is_finite() {
                return bad(format!(
                    "stochastic splits (mtbp_ms > 0) require a finite positive mtth_ms, got {}",
                    self.mtth_ms
                ));
            }
        } else if self.mtth_ms != 0.0 {
            return bad("mtth_ms without mtbp_ms has no effect; set mtbp_ms > 0".into());
        }
        if self.is_active() && faults.timeout_ms == 0.0 {
            return bad(
                "partitions without message timeouts would hang in-flight senders forever; set fault_plan.timeout_ms > 0".into(),
            );
        }
        Ok(())
    }
}

/// How global (cross-site) deadlocks are detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockMode {
    /// Search the union of all sites' wait-for graphs at lock-request time.
    /// With the validation experiments' α ≈ 0 this is exactly what the
    /// probe protocol converges to, at a fraction of the event traffic;
    /// probe hops are counted as if the messages had been sent.
    #[default]
    InstantGlobal,
    /// Run the Chandy–Misra–Haas edge-chasing protocol \[CHAN83\] with
    /// real probe messages (α delay per cross-site hop). Like the real
    /// algorithm, this can declare *phantom* deadlocks when the wait-for
    /// graph changes while probes are in flight.
    Probes,
}

/// Which transaction dies when a deadlock cycle is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// The requester that closed the cycle (CARAT's policy: the WFG search
    /// runs in the requester's context, and the paper's `Pd` derivation
    /// assumes it).
    #[default]
    Requester,
    /// The youngest transaction in the cycle (largest id) — the textbook
    /// alternative that favours transactions with more accumulated work.
    Youngest,
}

/// Concurrency-control protocol run by the simulated testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcProtocol {
    /// Dynamic two-phase locking with deadlock detection — what CARAT ran
    /// and what the paper models.
    #[default]
    TwoPhaseLocking,
    /// Basic timestamp ordering \[GALL82\]: no locks, no deadlocks;
    /// out-of-order accesses abort and restart with a fresh timestamp.
    TimestampOrdering,
    /// Timestamp ordering with the Thomas write rule (obsolete writes are
    /// skipped instead of rejected).
    TimestampOrderingThomas,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware + cost parameters (Table 2 defaults).
    pub params: SystemParams,
    /// Which users run where.
    pub workload: WorkloadSpec,
    /// `n`: database requests per transaction (the paper sweeps 4..20).
    pub n_requests: u32,
    /// RNG seed — every run is fully deterministic given the seed.
    pub seed: u64,
    /// Transient discarded before statistics collection (ms).
    pub warmup_ms: f64,
    /// Measurement window after warm-up (ms).
    pub measure_ms: f64,
    /// DM servers per node. CARAT fixes this at start-up; the validation
    /// experiments never exhausted the pool, so the default is "enough for
    /// every user plus every foreign slave".
    pub dm_pool: usize,
    /// Route recovery-journal I/O to a dedicated log disk instead of the
    /// shared database disk. The testbed could NOT do this ("the recovery
    /// log file had to be on the same disk as the database ... a single
    /// disk becomes a performance bottleneck", paper §2); this knob
    /// quantifies what that constraint cost.
    pub separate_log_disk: bool,
    /// Global deadlock detection strategy.
    pub deadlock_mode: DeadlockMode,
    /// Concurrency-control protocol.
    pub cc: CcProtocol,
    /// Deadlock victim selection (2PL only).
    pub victim: VictimPolicy,
    /// Failure injection: `(at_ms, site)` node crashes. At each instant the
    /// site loses all volatile state (lock table, TM/DM queues, un-forced
    /// journal tail), runs journal recovery, and every transaction that had
    /// touched the site aborts. Affected users resubmit as usual.
    pub crashes: Vec<(f64, usize)>,
    /// Stochastic fault injection (lossy network, crash/restart processes,
    /// timeouts). The default plan is inert: no drops, no stochastic
    /// crashes, no timeouts — exactly the fault-free simulator.
    pub fault_plan: FaultPlan,
    /// Network-partition injection and data replication. The default plan
    /// is inert: no splits, replication factor 1.
    pub partition_plan: PartitionPlan,
    /// Run guard: abort the run with [`crate::SimError::EventBudgetExhausted`]
    /// (carrying a partial report) once this many events have been
    /// processed. `0` (the default) means unlimited. A healthy run
    /// processes roughly 100–300 events per transaction, so a generous
    /// budget turns a livelocked configuration into a structured error
    /// instead of an infinite loop.
    pub max_events: u64,
    /// Transaction-lifecycle tracing. `None` (the default) leaves the
    /// untraced event loop untouched: the engine's emission sites reduce to
    /// one branch each, allocate nothing, and draw no randomness, so a
    /// traceless run is byte-identical to a pre-observability build.
    pub trace: Option<TraceConfig>,
    /// Sim-time metrics. `None` (the default) leaves the event loop
    /// untouched — each recording hook reduces to one branch. When set, the
    /// engine records per-site gauges when they change, and the exports
    /// give their values at every virtual-time boundary `k · sample_ms`;
    /// samples are byte-identical for every shard count (DESIGN.md §15).
    pub metrics: Option<MetricsConfig>,
    /// Worker threads for the site-sharded engine (`1` = run everything on
    /// the calling thread). Purely a parallelism knob: whether a run is
    /// sharded, and with which lookahead, is a function of the *rest* of
    /// the configuration (see `shard::decomposable` and
    /// `shard::coupled_eligible`), so the report is byte-identical for
    /// every shard count, and any other configuration simply runs the
    /// monolithic loop regardless of this value.
    pub shards: usize,
}

impl SimConfig {
    /// A standard-workload configuration with sensible measurement windows.
    pub fn new(workload: WorkloadSpec, n_requests: u32, seed: u64) -> Self {
        SimConfig {
            params: SystemParams::default(),
            workload,
            n_requests,
            seed,
            warmup_ms: 60_000.0,
            measure_ms: 600_000.0,
            dm_pool: usize::MAX,
            separate_log_disk: false,
            deadlock_mode: DeadlockMode::default(),
            cc: CcProtocol::default(),
            victim: VictimPolicy::default(),
            crashes: Vec::new(),
            fault_plan: FaultPlan::default(),
            partition_plan: PartitionPlan::default(),
            max_events: 0,
            trace: None,
            metrics: None,
            shards: 1,
        }
    }

    /// Full validation of the configuration; [`crate::Sim::new`] calls this.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.workload.sites() != self.params.sites() {
            return Err(SimConfigError::SiteCountMismatch {
                workload: self.workload.sites(),
                params: self.params.sites(),
            });
        }
        let param = |name: &'static str, reason: String| {
            Err(SimConfigError::InvalidParameter { name, reason })
        };
        if self.n_requests == 0 {
            return param(
                "n_requests",
                "a transaction needs at least one request".into(),
            );
        }
        if self.dm_pool == 0 {
            return param("dm_pool", "a site needs at least one DM server".into());
        }
        if self.shards == 0 {
            return param("shards", "the engine needs at least one shard".into());
        }
        for (name, v) in [
            ("warmup_ms", self.warmup_ms),
            ("measure_ms", self.measure_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return param(name, format!("{v} must be finite and non-negative"));
            }
        }
        if self.measure_ms == 0.0 {
            return param(
                "measure_ms",
                "an empty measurement window measures nothing".into(),
            );
        }
        if let Some(m) = &self.metrics {
            if !m.sample_ms.is_finite() || m.sample_ms <= 0.0 {
                return param(
                    "metrics.sample_ms",
                    format!("{} must be finite and positive", m.sample_ms),
                );
            }
            // Boundary indices must stay exact integers the recorder can
            // step through; far beyond this no export could be written.
            let boundaries = (self.warmup_ms + self.measure_ms) / m.sample_ms;
            if boundaries > f64::from(u32::MAX) {
                return param(
                    "metrics.sample_ms",
                    format!(
                        "{:e} ms gives {boundaries:.3e} sample boundaries over the run; \
                         at most {} are supported",
                        m.sample_ms,
                        u32::MAX
                    ),
                );
            }
        }
        for &(at_ms, site) in &self.crashes {
            if !at_ms.is_finite() || at_ms < 0.0 {
                return Err(SimConfigError::CrashTimeInvalid { at_ms, site });
            }
            if site >= self.params.sites() {
                return Err(SimConfigError::CrashSiteOutOfRange {
                    site,
                    sites: self.params.sites(),
                    at_ms,
                });
            }
        }
        self.fault_plan.validate()?;
        self.partition_plan
            .validate(self.params.sites(), &self.fault_plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::StandardWorkload;

    #[test]
    fn default_config_is_two_node() {
        let cfg = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 1);
        assert_eq!(cfg.params.sites(), 2);
        assert_eq!(cfg.n_requests, 8);
        assert!(cfg.measure_ms > cfg.warmup_ms);
        assert!(!cfg.partition_plan.is_active());
        assert!(cfg.validate().is_ok());
    }

    fn base() -> SimConfig {
        SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 1)
    }

    fn timeouts() -> FaultPlan {
        FaultPlan {
            timeout_ms: 50.0,
            max_retries: 3,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn degenerate_scalars_are_rejected() {
        let mut cfg = base();
        cfg.n_requests = 0;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidParameter {
                name: "n_requests",
                ..
            })
        ));
        let mut cfg = base();
        cfg.dm_pool = 0;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidParameter {
                name: "dm_pool",
                ..
            })
        ));
        let mut cfg = base();
        cfg.shards = 0;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidParameter { name: "shards", .. })
        ));
        let mut cfg = base();
        cfg.measure_ms = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = base();
        cfg.warmup_ms = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn split_must_heal() {
        let mut cfg = base();
        cfg.fault_plan = timeouts();
        cfg.partition_plan.splits.push(SplitSpec {
            at_ms: 1_000.0,
            heal_ms: f64::INFINITY,
            groups: vec![0, 1],
        });
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidPartitionPlan { .. })
        ));
        cfg.partition_plan.splits[0].heal_ms = 2_000.0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn splits_must_not_overlap() {
        let mut cfg = base();
        cfg.fault_plan = timeouts();
        cfg.partition_plan.splits = vec![
            SplitSpec {
                at_ms: 0.0,
                heal_ms: 5_000.0,
                groups: vec![0, 1],
            },
            SplitSpec {
                at_ms: 4_000.0,
                heal_ms: 9_000.0,
                groups: vec![0, 1],
            },
        ];
        assert!(cfg.validate().is_err());
        cfg.partition_plan.splits[1].at_ms = 5_000.0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn split_groups_must_partition_the_sites() {
        let mut cfg = base();
        cfg.fault_plan = timeouts();
        cfg.partition_plan.splits.push(SplitSpec {
            at_ms: 0.0,
            heal_ms: 1_000.0,
            groups: vec![0, 0],
        });
        assert!(cfg.validate().is_err(), "one component is not a split");
        cfg.partition_plan.splits[0].groups = vec![0];
        assert!(cfg.validate().is_err(), "groups must cover every site");
    }

    #[test]
    fn partitions_require_timeouts() {
        let mut cfg = base();
        cfg.partition_plan.splits.push(SplitSpec {
            at_ms: 0.0,
            heal_ms: 1_000.0,
            groups: vec![0, 1],
        });
        assert!(
            cfg.validate().is_err(),
            "a partition with no message timeouts would strand in-flight senders"
        );
    }

    #[test]
    fn stochastic_splits_require_heal_rate() {
        let mut cfg = base();
        cfg.fault_plan = timeouts();
        cfg.partition_plan.mtbp_ms = 60_000.0;
        assert!(cfg.validate().is_err(), "mtbp without mtth never heals");
        cfg.partition_plan.mtth_ms = 5_000.0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn replication_bounded_by_sites() {
        let mut cfg = base();
        cfg.partition_plan.replication = 3;
        assert!(cfg.validate().is_err());
        cfg.partition_plan.replication = 2;
        assert!(cfg.validate().is_ok());
        cfg.partition_plan.replication = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn write_quorum_is_majority() {
        let mut p = PartitionPlan::default();
        assert_eq!(p.write_quorum(), 1);
        p.replication = 2;
        assert_eq!(p.write_quorum(), 2);
        p.replication = 3;
        assert_eq!(p.write_quorum(), 2);
    }

    #[test]
    fn degradation_labels_round_trip() {
        for d in [
            DegradationPolicy::Abort,
            DegradationPolicy::BlockUntilHeal,
            DegradationPolicy::StaleRead,
        ] {
            assert_eq!(DegradationPolicy::parse(d.label()), Some(d));
        }
        assert_eq!(DegradationPolicy::parse("bogus"), None);
    }
}
