//! Robustness experiments: throughput, aborts and availability under
//! injected faults and network partitions. Both print a JSON array (one
//! object per grid point) so downstream plotting needs no bespoke parser,
//! and both are byte-identical for every `--threads` value.

use carat::sim::{
    AvailabilityReport, DegradationPolicy, FaultPlan, PartitionPlan, Sim, SimConfig, SimReport,
    SplitSpec,
};
use carat::workload::StandardWorkload;
use carat_bench::{run_tasks, SEEDS};

use crate::args::Args;
use crate::extensions::aborts;

/// Transaction size of both experiments.
const N: u32 = 8;

const DROP_PROBS: [f64; 4] = [0.0, 0.01, 0.05, 0.10];
/// Mean time to failure per node, seconds (0 disables crashes).
const MTTF_S: [f64; 3] = [0.0, 600.0, 120.0];

fn faulty_run(drop: f64, mttf_s: f64, seed: u64, ms: f64) -> SimReport {
    let mut cfg = SimConfig::new(StandardWorkload::Mb8.spec(2), N, seed);
    cfg.warmup_ms = 60_000.0;
    cfg.measure_ms = ms;
    cfg.fault_plan = FaultPlan {
        drop_prob: drop,
        duplicate_prob: 0.01,
        jitter_ms: 1.0,
        mttf_ms: mttf_s * 1000.0,
        mttr_ms: if mttf_s > 0.0 { 3_000.0 } else { 0.0 },
        timeout_ms: 50.0,
        max_retries: 5,
    };
    Sim::new(cfg).expect("valid config").run()
}

fn commits(r: &SimReport) -> u64 {
    r.nodes
        .iter()
        .flat_map(|n| n.per_type.values())
        .map(|t| t.commits)
        .sum()
}

/// Throughput and abort behaviour under injected faults.
///
/// The paper's testbed ran on reliable hardware; CARAT's recovery
/// machinery (before-image journals, presumed-abort 2PC) was exercised
/// only by deliberate shutdowns. This sweeps the simulator's fault plan
/// instead: a lossy network (per-message drop probability) crossed with
/// stochastic node crash/restart (exponential MTTF, fixed MTTR), with the
/// timeout/retransmission machinery turned on. It reports how committed
/// throughput and the abort mix degrade as the fault rates rise, and
/// checks the no-hang invariant at every grid point.
pub fn faults(args: &Args, ms: f64) {
    let points: Vec<(f64, f64)> = MTTF_S
        .iter()
        .flat_map(|&mttf_s| DROP_PROBS.iter().map(move |&drop| (mttf_s, drop)))
        .collect();
    let reports = per_seed(&points, args, |(mttf_s, drop), seed| {
        faulty_run(drop, mttf_s, seed, ms)
    });

    let mut rows = Vec::new();
    for (&(mttf_s, drop), runs) in points.iter().zip(reports.chunks(SEEDS.len())) {
        // No-hang invariant: nothing in flight is older than the
        // retransmission schedule plus one repair window allows.
        check_runs(runs, &format!("drop={drop} mttf={mttf_s}"));
        // Average over seeds so one unlucky crash placement does not
        // dominate a grid point.
        let tx = mean(runs, SimReport::total_tx_per_s);
        let sum = |f: fn(&SimReport) -> u64| runs.iter().map(f).sum::<u64>();
        let (ab, cm) = (sum(aborts), sum(commits));
        let timeouts = sum(|r| r.timeout_aborts);
        let recoveries = sum(|r| r.recoveries);
        rows.push(format!(
            "  {{\"drop_prob\": {drop}, \"mttf_s\": {mttf_s}, \
             \"tx_per_s\": {tx:.4}, \"abort_rate\": {:.4}, \
             \"net_drops\": {}, \"net_retries\": {}, \
             \"timeout_aborts\": {timeouts}, \"recoveries\": {recoveries}, \
             \"in_doubt_resolutions\": {}, \
             \"oldest_inflight_ms\": {:.1}}}",
            if cm + ab == 0 {
                0.0
            } else {
                ab as f64 / (cm + ab) as f64
            },
            sum(|r| r.net_drops),
            sum(|r| r.net_retries),
            sum(|r| r.in_doubt_resolutions),
            oldest(runs),
        ));
        eprintln!(
            "drop={drop:4} mttf={mttf_s:5}s: {tx:.2} tx/s, {ab} aborts, \
             {timeouts} timeout aborts, {recoveries} recoveries"
        );
    }
    print_rows(&rows);
}

/// Runs `run(point, seed)` for every point × [`SEEDS`] on the sweep
/// engine. The reports come back in grid order, one [`SEEDS`]-long chunk
/// per point, so the emitted JSON is byte-identical for every thread
/// count.
fn per_seed<P: Copy + Send + Sync>(
    points: &[P],
    args: &Args,
    run: impl Fn(P, u64) -> SimReport + Sync,
) -> Vec<SimReport> {
    let grid: Vec<(P, u64)> = points
        .iter()
        .flat_map(|&p| SEEDS.iter().map(move |&seed| (p, seed)))
        .collect();
    run_tasks(grid, &args.sweep, |_, (p, seed)| run(p, seed))
}

/// The gates every run must pass: a clean commit audit and nothing hung.
fn check_runs(runs: &[SimReport], point: &str) {
    for r in runs {
        assert_eq!(r.audit_violations, 0, "commit audit failed ({point})");
        assert!(
            r.oldest_inflight_ms.is_finite(),
            "transaction hung ({point})"
        );
    }
}

/// Mean of `f` over one grid point's runs.
fn mean(runs: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// Age of the oldest transaction in flight at the cutoff, over one grid
/// point's runs.
fn oldest(runs: &[SimReport]) -> f64 {
    runs.iter()
        .map(|r| r.oldest_inflight_ms)
        .fold(0.0, f64::max)
}

fn print_rows(rows: &[String]) {
    println!("[");
    println!("{}", rows.join(",\n"));
    println!("]");
}

const WARMUP_MS: f64 = 30_000.0;
const TIMEOUT_MS: f64 = 80.0;
/// Fraction of the measurement window spent split (one scheduled split).
const DUTIES: [f64; 3] = [0.0, 0.25, 0.5];
const POLICIES: [DegradationPolicy; 3] = [
    DegradationPolicy::Abort,
    DegradationPolicy::BlockUntilHeal,
    DegradationPolicy::StaleRead,
];
const REPLICATION: [usize; 2] = [1, 2];

fn partitioned_run(
    sites: usize,
    groups: &[u8],
    policy: DegradationPolicy,
    replication: usize,
    duty: f64,
    seed: u64,
    ms: f64,
) -> SimReport {
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), N, seed);
    for extra in cfg.params.sites()..sites {
        cfg.params.nodes.push(carat::workload::NodeParams {
            name: format!("{}", (b'A' + extra as u8) as char),
            disk_io_ms: 33.0,
        });
    }
    cfg.warmup_ms = WARMUP_MS;
    cfg.measure_ms = ms;
    cfg.fault_plan = FaultPlan {
        timeout_ms: TIMEOUT_MS,
        max_retries: 4,
        ..FaultPlan::default()
    };
    let mut splits = Vec::new();
    if duty > 0.0 {
        // One split inside the measurement window covering `duty` of it.
        let at = WARMUP_MS + 0.2 * ms;
        splits.push(SplitSpec {
            at_ms: at,
            heal_ms: at + duty * ms,
            groups: groups.to_vec(),
        });
    }
    cfg.partition_plan = PartitionPlan {
        splits,
        degradation: policy,
        replication,
        ..PartitionPlan::default()
    };
    Sim::new(cfg).expect("valid config").run()
}

/// Availability and throughput under network splits, replicated data, and
/// the three degradation policies.
///
/// The paper's testbed never partitioned — its two VAXes shared a machine
/// room. This sweeps the simulator's partition plan instead: a scheduled
/// split covering a known fraction of the measurement window (the *duty
/// cycle*), crossed with the replication factor and the degradation
/// policy (`abort` / `block` / `stale`). At duty 0 there is no split, so
/// no policy is ever consulted: that point runs once per replication
/// factor, labelled `abort`. No model prices a split: the
/// paper's model assumes a connected cluster (EXPERIMENTS.md says why a
/// duty-cycle blend fails).
///
/// Gates at every point:
///
/// * the commit audit must be clean (replication catch-up kept every
///   replica consistent);
/// * nothing may hang (`oldest_inflight_ms` finite — 2PC terminates under
///   partition via presumed-abort).
///
/// A second section exercises journal catch-up: with two sites
/// and `k = 2` the write quorum (`k/2 + 1 = 2`) equals write-all, so a
/// commit can never leave a replica behind. Three sites with `k = 3`
/// (quorum 2) and a `{0,1} | {2}` split commit through partial quorums,
/// and the isolated replica must catch up through the journal at heal —
/// the section asserts catch-up records flow and the commit audit stays
/// clean.
pub fn partition(args: &Args, ms: f64) {
    let points: Vec<(DegradationPolicy, usize, f64)> = POLICIES
        .iter()
        .flat_map(|&p| {
            REPLICATION
                .iter()
                .flat_map(move |&k| DUTIES.iter().map(move |&d| (p, k, d)))
        })
        .filter(|&(p, _, d)| d > 0.0 || p == DegradationPolicy::Abort)
        .collect();
    let reports = per_seed(&points, args, |(policy, replication, duty), seed| {
        partitioned_run(2, &[0, 1], policy, replication, duty, seed, ms)
    });

    let mut rows = Vec::new();
    for (&(policy, replication, duty), runs) in points.iter().zip(reports.chunks(SEEDS.len())) {
        check_runs(
            runs,
            &format!("policy={policy:?} k={replication} duty={duty}"),
        );
        let sim_tx = mean(runs, SimReport::total_tx_per_s);
        let sum = |f: fn(&AvailabilityReport) -> u64| {
            runs.iter().map(|r| f(&r.availability)).sum::<u64>()
        };
        let pa = sum(|a| a.partition_aborts);
        let catchup = sum(|a| a.catchup_records);
        rows.push(format!(
            "  {{\"policy\": \"{}\", \"replication\": {replication}, \
             \"duty\": {duty}, \"sim_tx_per_s\": {sim_tx:.4}, \
             \"partition_ms\": {:.1}, \"partition_aborts\": {pa}, \
             \"blocked_on_heal\": {}, \"stale_reads\": {}, \
             \"failovers\": {}, \"catchup_records\": {catchup}, \
             \"oldest_inflight_ms\": {:.1}}}",
            policy.label(),
            mean(runs, |r| r.availability.partition_ms),
            sum(|a| a.blocked_on_heal),
            sum(|a| a.stale_reads),
            sum(|a| a.failovers),
            oldest(runs),
        ));
        eprintln!(
            "policy={:5} k={replication} duty={duty:4}: {sim_tx:.2} tx/s, \
             {pa} partition aborts, {catchup} catch-up records",
            policy.label(),
        );
    }

    // Journal catch-up section: 3 sites, k = 3 (write quorum 2),
    // split {0,1} | {2} for half the window. The majority component keeps
    // committing through partial quorums, so the isolated third replica
    // must drain catch-up records from the journal at heal.
    let runs = per_seed(&[()], args, |(), seed| {
        partitioned_run(
            3,
            &[0, 0, 1],
            DegradationPolicy::StaleRead,
            3,
            0.5,
            seed,
            ms,
        )
    });
    check_runs(&runs, "3 sites, k=3");
    let sum =
        |f: fn(&AvailabilityReport) -> u64| runs.iter().map(|r| f(&r.availability)).sum::<u64>();
    let (catchup, fo, stale) = (
        sum(|a| a.catchup_records),
        sum(|a| a.failovers),
        sum(|a| a.stale_reads),
    );
    assert!(
        catchup > 0,
        "partial-quorum commits produced no catch-up records (3 sites, k=3)"
    );
    rows.push(format!(
        "  {{\"policy\": \"stale\", \"replication\": 3, \"duty\": 0.5, \
         \"sites\": 3, \"sim_tx_per_s\": {:.4}, \
         \"partition_ms\": {:.1}, \"stale_reads\": {stale}, \
         \"failovers\": {fo}, \"catchup_records\": {catchup}, \
         \"oldest_inflight_ms\": {:.1}}}",
        mean(&runs, SimReport::total_tx_per_s),
        mean(&runs, |r| r.availability.partition_ms),
        oldest(&runs),
    ));
    eprintln!(
        "catch-up section (3 sites, k=3, duty 0.5): {catchup} catch-up records, \
         {fo} failovers, {stale} stale reads"
    );
    print_rows(&rows);
}
