//! The monolithic engine's output, pinned byte for byte.
//!
//! Every configuration here takes a path of the monolithic event loop
//! that the sharded engines never run: instant global deadlock detection,
//! probes at α = 0, timestamp ordering, a separate log disk, a small DM
//! pool, crashes, message faults, partitions with replication, and an
//! event-budget trip. Per configuration the digest line holds an FNV-1a
//! hash of the report's `Debug` form and of the lifecycle trace's JSONL
//! (for a budget trip, of the partial report and the trip instant).

use carat_sim::shard::{coupled_eligible, decomposable};
use carat_sim::{
    CcProtocol, DeadlockMode, DegradationPolicy, FaultPlan, PartitionPlan, Sim, SimConfig,
    SimError, SplitSpec, TraceConfig, VictimPolicy,
};
use carat_workload::{StandardWorkload, SystemParams};

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two-site `wl` at transaction size `n` (α = 0, the validation
/// default), 1 s of warm-up and `measure_s` seconds measured.
fn two_site(wl: StandardWorkload, n: u32, measure_s: f64) -> SimConfig {
    let mut cfg = SimConfig::new(wl.spec(2), n, 11);
    cfg.warmup_ms = 1_000.0;
    cfg.measure_ms = measure_s * 1_000.0;
    cfg
}

/// MB4 with message timeouts, the base of the fault and partition cases.
fn with_timeouts(measure_s: f64) -> SimConfig {
    let mut cfg = two_site(StandardWorkload::Mb4, 8, measure_s);
    cfg.fault_plan.timeout_ms = 60.0;
    cfg.fault_plan.max_retries = 4;
    cfg
}

/// `wl` split from 5 s to 20 s into the components `groups` under
/// `policy`, with every record replicated on all `groups.len()` sites.
fn split(wl: StandardWorkload, groups: Vec<u8>, policy: DegradationPolicy) -> SimConfig {
    let sites = groups.len();
    let mut cfg = with_timeouts(30.0);
    cfg.workload = wl.spec(sites);
    cfg.params = SystemParams::with_sites(sites);
    cfg.partition_plan = PartitionPlan {
        splits: vec![SplitSpec {
            at_ms: 5_000.0,
            heal_ms: 20_000.0,
            groups,
        }],
        degradation: policy,
        replication: sites,
        ..PartitionPlan::default()
    };
    cfg
}

/// One digest line: the report's and the trace's hashes, or on a budget
/// trip the partial report's hash and the trip instant.
fn digest(name: &str, mut cfg: SimConfig) -> String {
    assert!(
        !decomposable(&cfg) && !coupled_eligible(&cfg),
        "{name} does not run the monolithic engine"
    );
    cfg.trace = Some(TraceConfig::default());
    match Sim::new(cfg).expect("valid config").run_checked_traced() {
        Ok((report, tracer)) => format!(
            "{name}: events {} report {:016x} trace {:016x}",
            report.events,
            fnv(format!("{report:?}").as_bytes()),
            fnv(tracer.expect("tracing was on").to_jsonl().as_bytes()),
        ),
        Err(SimError::EventBudgetExhausted {
            sim_time_ms,
            partial,
            ..
        }) => format!(
            "{name}: events {} partial {:016x} trip {:016x}",
            partial.events,
            fnv(format!("{partial:?}").as_bytes()),
            sim_time_ms.to_bits(),
        ),
    }
}

/// The pinned configurations, one per monolithic path.
fn cases() -> Vec<(&'static str, SimConfig)> {
    let mb8 = || two_site(StandardWorkload::Mb8, 16, 30.0);
    let mut cases = vec![("instant-requester", mb8())];
    let mut youngest = mb8();
    youngest.victim = VictimPolicy::Youngest;
    cases.push(("instant-youngest", youngest));
    let mut probes = mb8();
    probes.deadlock_mode = DeadlockMode::Probes;
    cases.push(("probes-alpha0", probes));
    let mut bto = mb8();
    bto.cc = CcProtocol::TimestampOrdering;
    cases.push(("bto", bto));
    let mut thomas = mb8();
    thomas.cc = CcProtocol::TimestampOrderingThomas;
    cases.push(("thomas", thomas));
    let mut log = mb8();
    log.separate_log_disk = true;
    cases.push(("separate-log", log));
    let mut pool = two_site(StandardWorkload::Mb8, 8, 30.0);
    pool.dm_pool = 2;
    cases.push(("dm-pool-2", pool));
    let mut crash = mb8();
    crash.crashes = vec![(10_000.0, 0)];
    cases.push(("scheduled-crash", crash));
    let mut mttf = with_timeouts(60.0);
    mttf.fault_plan.mttf_ms = 20_000.0;
    mttf.fault_plan.mttr_ms = 4_000.0;
    cases.push(("crash-restart", mttf));
    let mut lossy = with_timeouts(30.0);
    lossy.fault_plan = FaultPlan {
        drop_prob: 0.1,
        duplicate_prob: 0.1,
        jitter_ms: 3.0,
        ..lossy.fault_plan
    };
    cases.push(("drop-dup-jitter", lossy));
    for (name, policy) in [
        ("split-abort", DegradationPolicy::Abort),
        ("split-block", DegradationPolicy::BlockUntilHeal),
        ("split-stale", DegradationPolicy::StaleRead),
    ] {
        cases.push((name, split(StandardWorkload::Mb4, vec![0, 1], policy)));
    }
    // The majority side writes past its missing replica, which replays
    // the writes from the journal at the heal.
    let catchup = split(
        StandardWorkload::Mb8,
        vec![0, 1, 0],
        DegradationPolicy::BlockUntilHeal,
    );
    cases.push(("split-3site-catchup", catchup));
    let mut trip = mb8();
    trip.max_events = 3_000;
    cases.push(("budget-trip", trip));
    cases
}

#[test]
fn monolithic_report_and_trace_bytes_are_pinned() {
    let got: Vec<String> = cases()
        .into_iter()
        .map(|(name, cfg)| digest(name, cfg))
        .collect();
    assert_eq!(got, PINNED, "monolithic output moved:\n{}", got.join("\n"));
}

/// Expected [`digest`] lines, one per [`cases`] entry.
const PINNED: &[&str] = &[
    "instant-requester: events 5743 report 6cd7ff1eb4656d40 trace 3de105c83b2d71f1",
    "instant-youngest: events 5767 report 93c5466b03158837 trace 1784edb9cf9c34d1",
    "probes-alpha0: events 5791 report c5cc9ecda2c14d58 trace 6e4e63fc03e0f9c9",
    "bto: events 6716 report 024dbfd0cef7b034 trace 0b54562189f90030",
    "thomas: events 6716 report 024dbfd0cef7b034 trace 0b54562189f90030",
    "separate-log: events 5842 report 7b0040a009734c32 trace 53aae340a96a2f67",
    "dm-pool-2: events 1731 report 0cd4b352c8ef3720 trace 29cbac79919353e9",
    "scheduled-crash: events 6295 report f669fe331a15b844 trace 12a2ba736baa7d9f",
    "crash-restart: events 8885 report 9664754c89c0a022 trace f915f75176179a0c",
    "drop-dup-jitter: events 7140 report 5e1464fb107ee33a trace c05383ec8c0248e7",
    "split-abort: events 5007 report e61e3ae0297306f2 trace 0c5df75a51c02eae",
    "split-block: events 3755 report d1288b20690a1e08 trace 19f40c1ae184fc74",
    "split-stale: events 6106 report 3be6466b935eedaf trace 3edb6b541008150c",
    "split-3site-catchup: events 8173 report f4c8f995b5cf9b6f trace 418d8b43e9edf133",
    "budget-trip: events 3000 partial 5a678c3ae9ccf152 trip 40c86d9999999998",
];
