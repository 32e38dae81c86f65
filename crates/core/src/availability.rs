//! Availability-weighted submodel for partitioned operation (DESIGN.md §13).
//!
//! The base model assumes a fully connected cluster. Under a network
//! partition the simulator refuses, parks, or degrades submissions whose
//! replica quorums are unreachable, so measured throughput is a mixture of
//! two operating regimes:
//!
//! * the **connected regime** — the ordinary model solution;
//! * the **degraded regime** — the same model solved on a *reduced*
//!   workload in which every user whose transaction type cannot satisfy
//!   its quorum feasibility check (the exact submit-time rule the engine
//!   applies) is removed from the closed network.
//!
//! The two fixed points are blended by the **partition duty cycle** `d`
//! (fraction of the measurement window the cluster spends split):
//!
//! ```text
//! X(t, i) = (1 − d) · X_conn(t, i) + d · X_degr(t, i)
//! ```
//!
//! This is the standard decomposition for systems alternating between
//! regimes on a timescale much longer than a transaction: within each
//! regime the closed network reaches its own steady state, and the
//! long-run average weights the regimes by their time fractions. Removing
//! a user is exactly the "effective MPL" scaling of the tentpole: a
//! refused user contributes no population to any service center while the
//! split lasts (it cycles through refusal pauses off-network), and a
//! parked user contributes nothing until heal.
//!
//! Refused users also produce a predictable abort stream: each refusal
//! costs `think + max(timeout, 1)` milliseconds before the resubmission is
//! refused again, so the model predicts a partition-abort *rate* of
//! `d · Σ_refused 1000 / (think + max(timeout, 1))` per second — the
//! analytical analogue of the simulator's `partition_aborts` counter
//! (restart probability scaled by duty cycle).

use carat_workload::{TxType, WorkloadSpec};

use crate::output::ModelReport;
use crate::solver::{Model, ModelConfig, ModelOptions};

/// How the degraded regime treats submissions that cannot reach their
/// quorum — mirrors the simulator's `DegradationPolicy` without a
/// dependency on the simulation crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Refuse and resubmit after `think + timeout`: the user leaves the
    /// closed network for the duration of the split and generates aborts.
    #[default]
    Abort,
    /// Park until heal: the user leaves the network, no aborts.
    BlockUntilHeal,
    /// Reads may be served by any reachable replica (possibly stale);
    /// updates still refuse.
    StaleRead,
}

impl DegradedMode {
    /// CLI spelling, matching the simulator's policy labels.
    pub fn label(self) -> &'static str {
        match self {
            DegradedMode::Abort => "abort",
            DegradedMode::BlockUntilHeal => "block",
            DegradedMode::StaleRead => "stale-read",
        }
    }

    /// Parses the CLI spelling: `abort`, `block`, or `stale-read`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(DegradedMode::Abort),
            "block" => Some(DegradedMode::BlockUntilHeal),
            "stale-read" => Some(DegradedMode::StaleRead),
            _ => None,
        }
    }
}

/// Partition-regime description the availability model needs: who is in
/// which component, how data is replicated, and what the degradation
/// policy does about unreachable quorums.
#[derive(Debug, Clone)]
pub struct PartitionRegime {
    /// Component label per site during the split (the engine's `comp`
    /// vector). All-equal labels mean "no split".
    pub groups: Vec<u8>,
    /// Long-run fraction of the measurement window spent split, in
    /// `[0, 1]`. Scheduled splits: `Σ (heal − at) / window`. A stochastic
    /// split/heal process: [`stochastic_duty`].
    pub duty: f64,
    /// Replication degree `k`: record of site `s` is replicated on sites
    /// `s, s+1, …, s+k−1 (mod S)`.
    pub replication: usize,
    /// Degradation policy.
    pub mode: DegradedMode,
    /// User think time between submissions (ms) — sets the refusal cycle
    /// length.
    pub think_time_ms: f64,
    /// Network retransmission timeout (ms) — the refusal resubmission
    /// pause is `think + max(timeout, 1)`.
    pub timeout_ms: f64,
}

impl PartitionRegime {
    /// Majority write quorum for the replication degree.
    pub fn write_quorum(&self) -> usize {
        self.replication / 2 + 1
    }

    /// The engine's submit-time feasibility rule for one `(home, type)`
    /// pair during the split: every accessed plan site must offer enough
    /// usable replicas (`usable` = replica in the home's component).
    /// Distributed types are charged for *all* remote sites — exact for
    /// the paper's two-site testbed, conservative beyond it.
    pub fn type_feasible(&self, home: usize, t: TxType) -> bool {
        let sites = self.groups.len();
        let q = self.write_quorum();
        let my = self.groups[home];
        for s in 0..sites {
            if s != home && !t.is_distributed() {
                continue;
            }
            let alive = (0..self.replication)
                .filter(|&j| self.groups[(s + j) % sites] == my)
                .count();
            let ok = if t.is_update() {
                alive >= q
            } else {
                alive >= 1 && (alive >= q || self.mode == DegradedMode::StaleRead)
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Long-run split duty cycle of the stochastic split/heal process
/// (exponential inter-split and heal times): `MTTH / (MTBP + MTTH)` — the
/// standard alternating-renewal availability formula.
pub fn stochastic_duty(mtbp_ms: f64, mtth_ms: f64) -> f64 {
    if mtbp_ms <= 0.0 || mtth_ms <= 0.0 {
        0.0
    } else {
        mtth_ms / (mtbp_ms + mtth_ms)
    }
}

/// Availability-blended throughput prediction for one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlendedNode {
    /// Node label ("A", "B", …).
    pub name: String,
    /// Duty-weighted committed transactions per second.
    pub tx_per_s: f64,
    /// Duty-weighted records per second.
    pub records_per_s: f64,
}

/// Output of the availability-weighted model.
#[derive(Debug, Clone)]
pub struct AvailabilityModelReport {
    /// The connected-regime fixed point.
    pub connected: ModelReport,
    /// The degraded-regime fixed point (`None` when the split leaves no
    /// feasible users anywhere — degraded throughput is then zero).
    pub degraded: Option<ModelReport>,
    /// Duty cycle used for blending.
    pub duty: f64,
    /// Per-node blended predictions.
    pub nodes: Vec<BlendedNode>,
    /// Users removed from the degraded regime that cycle through refusals
    /// (policy `abort` / infeasible updates under `stale-read`).
    pub refused_users: usize,
    /// Users parked until heal (`block` policy).
    pub blocked_users: usize,
    /// Predicted partition-abort rate (refusals per second, duty-weighted).
    pub partition_aborts_per_s: f64,
}

impl AvailabilityModelReport {
    /// System-wide blended throughput.
    pub fn total_tx_per_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.tx_per_s).sum()
    }
}

/// Write-all replication turns every local update into a distributed
/// update: with `k > 1` the write set of an update homed at `s` spans
/// sites `s, …, s+k−1`, so its coordinator chain pays the remote-write and
/// two-phase-commit cost the model already prices into distributed update
/// types. Reads are unaffected (read-one serves from the primary).
/// Write-all amplification on the transaction size: with replication `k`,
/// every record an update touches is written on `k` replicas, so an update
/// transaction of `n` requests performs `k·n` accesses while reads stay at
/// `n` (read-one). The model's `n_requests` is global across chains, so we
/// apply the *workload-averaged* amplification
/// `n' = n · (1 + (k−1) · f_u)` where `f_u` is the update-user fraction —
/// exact when update demand dominates the bottleneck, an approximation
/// otherwise (the gate in `exp partition` carries the measured error).
pub fn replicated_n_requests(n: u32, spec: &WorkloadSpec, replication: usize) -> u32 {
    if replication <= 1 {
        return n;
    }
    let (mut upd, mut tot) = (0usize, 0usize);
    for node_users in &spec.users {
        for &(t, c) in node_users {
            tot += c;
            if t.is_update() {
                upd += c;
            }
        }
    }
    if tot == 0 {
        return n;
    }
    let f_u = upd as f64 / tot as f64;
    (n as f64 * (1.0 + (replication as f64 - 1.0) * f_u))
        .round()
        .max(1.0) as u32
}

pub fn replicated_workload(spec: &WorkloadSpec, replication: usize) -> WorkloadSpec {
    if replication <= 1 {
        return spec.clone();
    }
    let users = spec
        .users
        .iter()
        .map(|node_users| {
            node_users
                .iter()
                .map(|&(t, c)| {
                    let t = if t == TxType::Lu { TxType::Du } else { t };
                    (t, c)
                })
                .collect()
        })
        .collect();
    WorkloadSpec {
        name: format!("{}/replicated", spec.name),
        users,
    }
}

/// Builds the degraded-regime workload: the base spec minus every user
/// whose type fails the feasibility rule at its home node. Returns the
/// spec and the number of users removed.
pub fn degraded_workload(spec: &WorkloadSpec, regime: &PartitionRegime) -> (WorkloadSpec, usize) {
    let mut users = Vec::with_capacity(spec.users.len());
    let mut removed = 0usize;
    for (node, node_users) in spec.users.iter().enumerate() {
        let mut kept: Vec<(TxType, usize)> = Vec::new();
        for &(t, count) in node_users {
            if regime.type_feasible(node, t) {
                kept.push((t, count));
            } else {
                removed += count;
            }
        }
        users.push(kept);
    }
    (
        WorkloadSpec {
            name: format!("{}/degraded", spec.name),
            users,
        },
        removed,
    )
}

/// Solves the availability-weighted model: connected and degraded fixed
/// points blended by the partition duty cycle.
pub fn solve_availability(
    cfg: &ModelConfig,
    opts: &ModelOptions,
    regime: &PartitionRegime,
) -> AvailabilityModelReport {
    assert_eq!(
        regime.groups.len(),
        cfg.params.sites(),
        "partition regime must label every site"
    );
    let duty = regime.duty.clamp(0.0, 1.0);
    // Replication overhead applies in BOTH regimes: the connected cluster
    // already pays write-all for every update (extra remote writes via the
    // Lu → Du promotion, write amplification via the inflated transaction
    // size).
    let mut ccfg = cfg.clone();
    ccfg.workload = replicated_workload(&cfg.workload, regime.replication);
    ccfg.n_requests = replicated_n_requests(cfg.n_requests, &cfg.workload, regime.replication);
    let connected = Model::with_options(ccfg.clone(), opts.clone()).solve();

    let (degraded_spec, removed) = degraded_workload(&ccfg.workload, regime);
    let (refused_users, blocked_users) = match regime.mode {
        DegradedMode::BlockUntilHeal => (0, removed),
        _ => (removed, 0),
    };

    // Lock-shadow approximation: when the split denies a write quorum to
    // every update user, the updates in flight at the split boundary
    // freeze in presumed-abort termination (their abort round cannot cross
    // the split) still holding their locks, and surviving readers queue
    // behind those abandoned locks. The degraded regime then delivers no
    // sustained throughput even under `stale-read`, so it is modelled as
    // empty rather than as a readers-only network.
    let had_updates = |s: &WorkloadSpec| {
        s.users
            .iter()
            .flatten()
            .any(|&(t, c)| c > 0 && t.is_update())
    };
    let shadowed = had_updates(&ccfg.workload) && !had_updates(&degraded_spec);

    let degraded = if duty > 0.0
        && !shadowed
        && (0..degraded_spec.sites()).any(|n| degraded_spec.users_at(n) > 0)
    {
        let mut dcfg = ccfg.clone();
        dcfg.workload = degraded_spec;
        Some(Model::with_options(dcfg, opts.clone()).solve())
    } else {
        None
    };

    let nodes = connected
        .nodes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (dt, dr) = degraded
                .as_ref()
                .and_then(|d| d.nodes.get(i))
                .map_or((0.0, 0.0), |d| (d.tx_per_s, d.records_per_s));
            BlendedNode {
                name: c.name.clone(),
                tx_per_s: (1.0 - duty) * c.tx_per_s + duty * dt,
                records_per_s: (1.0 - duty) * c.records_per_s + duty * dr,
            }
        })
        .collect();

    let cycle_ms = regime.think_time_ms + regime.timeout_ms.max(1.0);
    let partition_aborts_per_s = duty * refused_users as f64 * 1000.0 / cycle_ms;

    AvailabilityModelReport {
        connected,
        degraded,
        duty,
        nodes,
        refused_users,
        blocked_users,
        partition_aborts_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::StandardWorkload;

    fn regime2(mode: DegradedMode, replication: usize) -> PartitionRegime {
        PartitionRegime {
            groups: vec![0, 1],
            duty: 0.5,
            replication,
            mode,
            think_time_ms: 0.0,
            timeout_ms: 100.0,
        }
    }

    #[test]
    fn duty_formula_is_alternating_renewal() {
        assert_eq!(stochastic_duty(0.0, 5.0), 0.0);
        assert_eq!(stochastic_duty(5.0, 0.0), 0.0);
        assert!((stochastic_duty(30_000.0, 10_000.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unreplicated_split_kills_distributed_types_only() {
        let r = regime2(DegradedMode::Abort, 1);
        assert!(r.type_feasible(0, TxType::Lro));
        assert!(r.type_feasible(0, TxType::Lu));
        assert!(!r.type_feasible(0, TxType::Dro));
        assert!(!r.type_feasible(1, TxType::Du));
    }

    #[test]
    fn two_replicas_split_blocks_all_updates() {
        // k = 2 over 2 sites: every record has a replica on both sides, so
        // a split leaves alive = 1 < q = 2 for any update; reads survive
        // only under stale-read.
        let r = regime2(DegradedMode::Abort, 2);
        assert!(!r.type_feasible(0, TxType::Lu));
        assert!(
            !r.type_feasible(0, TxType::Lro),
            "read-one still needs quorum without stale-read"
        );
        let sr = regime2(DegradedMode::StaleRead, 2);
        assert!(sr.type_feasible(0, TxType::Lro));
        assert!(
            sr.type_feasible(0, TxType::Dro),
            "remote reads fail over to the local replica"
        );
        assert!(!sr.type_feasible(0, TxType::Du));
    }

    #[test]
    fn degraded_workload_strips_infeasible_users() {
        let spec = StandardWorkload::Mb4.spec(2);
        let r = regime2(DegradedMode::Abort, 1);
        let (d, removed) = degraded_workload(&spec, &r);
        // DRO + DU removed at each node: 2 users per node gone.
        assert_eq!(removed, 4);
        assert_eq!(d.users_at(0), 2);
        assert_eq!(d.user_count(0, TxType::Dro), 0);
        assert_eq!(d.user_count(0, TxType::Lu), 1);
    }

    #[test]
    fn replication_promotes_local_updates_to_distributed() {
        let spec = StandardWorkload::Lb8.spec(2);
        let r1 = replicated_workload(&spec, 1);
        assert_eq!(r1.user_count(0, TxType::Lu), 4, "k = 1 is a no-op");
        let r2 = replicated_workload(&spec, 2);
        assert_eq!(r2.user_count(0, TxType::Lu), 0);
        assert_eq!(r2.user_count(0, TxType::Du), 4);
        assert_eq!(r2.user_count(0, TxType::Lro), 4, "reads stay local");
        // The connected regime must predict lower throughput with write-all
        // replication than without it.
        let cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 4);
        let opts = ModelOptions::default();
        let mk = |k: usize| {
            solve_availability(
                &cfg,
                &opts,
                &PartitionRegime {
                    duty: 0.0,
                    ..regime2(DegradedMode::Abort, k)
                },
            )
            .total_tx_per_s()
        };
        assert!(mk(2) < mk(1), "write-all must cost throughput");
    }

    #[test]
    fn blend_interpolates_between_regimes() {
        let cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 4);
        let opts = ModelOptions::default();
        let mut r = regime2(DegradedMode::Abort, 1);
        let rep = solve_availability(&cfg, &opts, &r);
        let conn_x = rep.connected.nodes[0].tx_per_s;
        let degr_x = rep.degraded.as_ref().unwrap().nodes[0].tx_per_s;
        assert!(
            (rep.nodes[0].tx_per_s - 0.5 * (conn_x + degr_x)).abs() < 1e-12,
            "50% duty must average the regimes"
        );
        // Zero duty collapses to the connected model exactly.
        r.duty = 0.0;
        let rep0 = solve_availability(&cfg, &opts, &r);
        assert_eq!(rep0.nodes[0].tx_per_s, conn_x);
        assert_eq!(rep0.partition_aborts_per_s, 0.0);
    }

    #[test]
    fn block_policy_parks_instead_of_aborting() {
        let cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 4);
        let opts = ModelOptions::default();
        let rep = solve_availability(&cfg, &opts, &regime2(DegradedMode::BlockUntilHeal, 1));
        assert_eq!(rep.blocked_users, 4);
        assert_eq!(rep.refused_users, 0);
        assert_eq!(rep.partition_aborts_per_s, 0.0);
        let rep_a = solve_availability(&cfg, &opts, &regime2(DegradedMode::Abort, 1));
        assert_eq!(rep_a.refused_users, 4);
        // 4 refused users, 100 ms cycle, 50% duty → 20 refusals/s.
        assert!((rep_a.partition_aborts_per_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn lock_shadow_freezes_stale_readers_without_any_write_quorum() {
        // k = 2 over 2 sites under stale-read: reads are individually
        // feasible, but no update anywhere can reach a quorum, so the
        // abandoned-lock shadow empties the degraded regime.
        let cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 4);
        let opts = ModelOptions::default();
        let rep = solve_availability(&cfg, &opts, &regime2(DegradedMode::StaleRead, 2));
        assert!(rep.degraded.is_none(), "shadowed regime must not be solved");
        let conn = rep.connected.nodes[0].tx_per_s;
        assert!((rep.nodes[0].tx_per_s - 0.5 * conn).abs() < 1e-12);
        // With k = 1 the local updates keep their quorum, so the shadow
        // does not trigger and the readers-plus-local-updates regime runs.
        let rep1 = solve_availability(&cfg, &opts, &regime2(DegradedMode::StaleRead, 1));
        assert!(rep1.degraded.is_some());
    }

    #[test]
    fn fully_infeasible_split_yields_zero_degraded_throughput() {
        // k = 2 split with the abort policy: nothing survives at either
        // node, so the degraded regime is the empty network.
        let cfg = ModelConfig::new(StandardWorkload::Lb8.spec(2), 4);
        let opts = ModelOptions::default();
        let rep = solve_availability(&cfg, &opts, &regime2(DegradedMode::Abort, 2));
        assert!(rep.degraded.is_none());
        let conn = rep.connected.nodes[0].tx_per_s;
        assert!((rep.nodes[0].tx_per_s - 0.5 * conn).abs() < 1e-12);
    }
}
