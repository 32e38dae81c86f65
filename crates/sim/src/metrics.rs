//! Simulation output reports.

use std::collections::BTreeMap;

use carat_obs::CounterRegistry;
use carat_workload::TxType;

/// Per-transaction-type results at one node (attributed to the
/// transaction's *home* node, as in the paper's Table 5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeReport {
    /// Measured wall-time spent in each transaction phase, as mean
    /// milliseconds per committed transaction — the simulator-side analogue
    /// of the model's phase decomposition (labels follow the paper:
    /// INIT, U, TM, TM-wait, DM, LR, DMIO, LW, RW, TC, TCIO, CW, TA,
    /// TAIO, UL).
    pub phase_ms: BTreeMap<&'static str, f64>,
    /// Committed transactions in the measurement window.
    pub commits: u64,
    /// Aborted (and resubmitted) executions.
    pub aborts: u64,
    /// Throughput, transactions per second.
    pub xput_per_s: f64,
    /// Mean response time of a successful submission (ms), submission to
    /// commit.
    pub mean_response_ms: f64,
    /// Median response time (ms), from a log-scale histogram.
    pub p50_response_ms: f64,
    /// 95th-percentile response time (ms).
    pub p95_response_ms: f64,
}

impl TypeReport {
    /// Mean submissions per commit, `N_s` in the paper (Eq. 4).
    pub fn submissions_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            1.0 + self.aborts as f64 / self.commits as f64
        }
    }
}

/// Per-node results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Node label ("A", "B").
    pub name: String,
    /// CPU utilization in the measurement window.
    pub cpu_util: f64,
    /// Database-disk utilization.
    pub disk_util: f64,
    /// Log-disk utilization (0 unless `separate_log_disk` is enabled).
    pub log_disk_util: f64,
    /// Disk I/O rate, granule transfers per second (the paper's
    /// Total-DIO).
    pub dio_per_s: f64,
    /// Committed transactions per second homed at this node (TR-XPUT).
    pub tx_per_s: f64,
    /// Records accessed by committed transactions per second (the
    /// normalized record throughput of Figures 5/8).
    pub records_per_s: f64,
    /// Per-type detail.
    pub per_type: BTreeMap<TxType, TypeReport>,
}

/// Availability bookkeeping under network partitions and replication.
/// All-zero (the default) whenever the partition plan is inert, so
/// partition-free reports carry it silently.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvailabilityReport {
    /// Degraded periods that began during the run (scheduled + stochastic;
    /// a scheduled split superseding an active stochastic split extends
    /// the same period). Invariant: `heals <= partitions <= heals + 1` —
    /// at most the final period can still be open at the cutoff.
    pub partitions: u64,
    /// Splits that healed during the run.
    pub heals: u64,
    /// Total simulated time the cluster spent split (ms), clipped to the
    /// measurement window.
    pub partition_ms: f64,
    /// Transactions aborted because a partition left them without the
    /// replicas they needed (submit-time quorum refusals plus in-flight
    /// retry budgets exhausted against an unreachable component).
    pub partition_aborts: u64,
    /// Submissions parked until heal by `DegradationPolicy::BlockUntilHeal`.
    pub blocked_on_heal: u64,
    /// Read requests served from a replica while a write quorum was
    /// unreachable (`DegradationPolicy::StaleRead` accepted possible
    /// staleness).
    pub stale_reads: u64,
    /// Read requests served by a non-primary replica (primary down or
    /// unreachable) — each one implies a failover.
    pub degraded_reads: u64,
    /// Requests re-routed off their primary replica (reads failed over plus
    /// writes that proceeded with a partial quorum).
    pub failovers: u64,
    /// Records replayed onto lagging replicas through the journal after a
    /// heal or restart (write-all catch-up).
    pub catchup_records: u64,
    /// Transactions that entered execution over the whole run (lifetime,
    /// not windowed — pairs with `SimReport::live_at_end` for conservation
    /// checks).
    pub tx_started: u64,
    /// Submissions refused before execution started (no gid was allocated;
    /// counted in the per-type abort totals but not in `tx_started`).
    pub tx_submit_refusals: u64,
    /// Transactions destroyed by a home-node crash over the whole run
    /// (lifetime analogue of the windowed `SimReport::crash_kills`).
    pub tx_killed: u64,
}

/// Results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Per-node results, indexed like the configuration's nodes.
    pub nodes: Vec<NodeReport>,
    /// Deadlocks whose cycle was contained in one site.
    pub local_deadlocks: u64,
    /// Deadlocks whose cycle crossed sites (found by probes).
    pub global_deadlocks: u64,
    /// Probe hops performed by the distributed detector.
    pub probe_hops: u64,
    /// Total lock requests across sites.
    pub lock_requests: u64,
    /// Lock requests that blocked.
    pub lock_conflicts: u64,
    /// Timestamp-ordering rejections (each forced an abort + restart);
    /// 0 under two-phase locking.
    pub cc_rejections: u64,
    /// Mean duration of a completed lock wait (ms) — the LW-phase residence
    /// the model predicts with `R_LW` (paper Eq. 20).
    pub mean_lock_wait_ms: f64,
    /// Number of lock waits that ended in a grant during the window.
    pub lock_waits_completed: u64,
    /// Injected node crashes executed (scheduled and stochastic).
    pub crashes: u64,
    /// Transactions killed by crashes (each restarted afterwards).
    pub crash_kills: u64,
    /// Node restarts that ran journal recovery and rejoined.
    pub recoveries: u64,
    /// Network messages sent (including retransmissions).
    pub net_messages: u64,
    /// Messages lost in transit (lossy link or dead destination).
    pub net_drops: u64,
    /// Duplicate deliveries injected (all detected as stale and ignored).
    pub net_duplicates: u64,
    /// Retransmissions after a timeout fired.
    pub net_retries: u64,
    /// Transactions aborted because the retry budget ran out
    /// (presumed-abort on unreachable peer).
    pub timeout_aborts: u64,
    /// In-doubt (prepared, decision unknown) participants resolved by the
    /// presumed-abort termination protocol after losing their coordinator.
    pub in_doubt_resolutions: u64,
    /// Transactions still in flight when the run ended (normal: the closed
    /// network always has one per user; the no-hang check uses
    /// `oldest_inflight_ms` instead).
    pub live_at_end: u64,
    /// Age (ms) of the oldest transaction still in flight at the end of
    /// the run. Bounded for any valid fault plan — an unbounded value
    /// would mean a transaction hung forever.
    pub oldest_inflight_ms: f64,
    /// Events processed by the simulation loop (including warm-up) — the
    /// work metric behind the benchmark's `events_per_s`.
    pub events: u64,
    /// Records covered by the end-of-run commit audit.
    pub audited_records: u64,
    /// Audit failures: records whose stored bytes are NOT the last
    /// committed writer's value. Always 0 for a correct 2PL + WAL + 2PC
    /// implementation.
    pub audit_violations: u64,
    /// Measurement window (ms).
    pub window_ms: f64,
    /// Partition / replication availability counters (all zero when the
    /// partition plan is inert).
    pub availability: AvailabilityReport,
    /// Profiling counters: events by kind (`ev_*`), scheduler-heap and
    /// transaction-slab high-water marks (`sched_heap_hwm`, `slab_hwm`,
    /// `slab_slots`), and per-phase residence totals (`phase_us_*`).
    /// Derived exclusively from simulation state, so two runs of one
    /// configuration — traced or not — report identical counters.
    pub counters: CounterRegistry,
}

impl SimReport {
    /// System-wide committed transactions per second.
    pub fn total_tx_per_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.tx_per_s).sum()
    }

    /// Observed blocking probability per lock request (`Pb` analogue).
    pub fn blocking_probability(&self) -> f64 {
        if self.lock_requests == 0 {
            0.0
        } else {
            self.lock_conflicts as f64 / self.lock_requests as f64
        }
    }

    /// Observed probability that a blocked request dies in a deadlock
    /// (`Pd` analogue).
    pub fn deadlock_given_blocked(&self) -> f64 {
        if self.lock_conflicts == 0 {
            0.0
        } else {
            (self.local_deadlocks + self.global_deadlocks) as f64 / self.lock_conflicts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submissions_per_commit_matches_eq4() {
        let t = TypeReport {
            commits: 100,
            aborts: 25,
            ..Default::default()
        };
        assert!((t.submissions_per_commit() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn p95_estimator_matches_exact_percentile_of_known_samples() {
        // `p95_response_ms` is `Histogram::for_latency_ms().quantile(0.95)`
        // over the per-type response samples (engine report assembly). Pin
        // it against the exact order statistic of a known sample set whose
        // p95 rank lands on the last sample of its bucket: the old
        // interpolation returned that bucket's *exclusive* upper edge
        // (≈ 43 ms for a 30 ms sample), more than half a bucket width off.
        let mut h = carat_des::Histogram::for_latency_ms();
        let mut samples = vec![2.0f64; 18];
        samples.push(30.0);
        samples.push(500.0);
        for &s in &samples {
            h.record(s);
        }
        // Exact p95 with the estimator's own rank convention
        // (⌈q·n⌉-th order statistic): rank 19 of 20 → the 30 ms sample.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = sorted[(0.95f64 * sorted.len() as f64).ceil() as usize - 1];
        assert_eq!(exact, 30.0);
        // 30 ms lives in the geometric bucket [26.84, 42.95): the estimate
        // must stay inside it and within half a bucket width of the exact
        // percentile (the resolution the histogram can promise).
        let est = h.quantile(0.95);
        let (lo, hi) = (1.6f64.powi(7), 1.6f64.powi(8));
        assert!(lo <= est && est < hi, "p95 = {est} escaped [{lo}, {hi})");
        assert!(
            (est - exact).abs() <= (hi - lo) / 2.0,
            "p95 = {est} vs exact {exact}: bucket upper-bound bias"
        );
    }

    #[test]
    fn ratios_are_safe_on_empty() {
        let r = SimReport::default();
        assert_eq!(r.blocking_probability(), 0.0);
        assert_eq!(r.deadlock_given_blocked(), 0.0);
        assert_eq!(r.total_tx_per_s(), 0.0);
    }
}
