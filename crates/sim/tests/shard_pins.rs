//! The sharded driver's output, pinned byte for byte.
//!
//! The shard tests compare shard counts with each other, so a driver
//! change that shifted every layout the same way would pass them. These
//! digests pin the absolute bytes instead: per configuration, an FNV-1a
//! hash of the report's `Debug` form and of the lifecycle trace's JSONL
//! (for a budget trip, of the partial report and the trip instant).

use carat_sim::{CcProtocol, DeadlockMode, Sim, SimConfig, SimError, TraceConfig};
use carat_workload::{StandardWorkload, SystemParams};

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// MB4 over `sites` sites with α = 5 ms and probe-based deadlock
/// detection: the coupled (lookahead α) path. 3 s simulated.
fn coupled(sites: usize, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), 8, 13);
    cfg.params = SystemParams::with_sites(sites);
    cfg.params.comm_delay_ms = 5.0;
    cfg.deadlock_mode = DeadlockMode::Probes;
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_500.0;
    cfg.shards = shards;
    cfg
}

/// One digest line: the report's and the trace's hashes, or on a budget
/// trip the partial report's hash and the trip instant.
fn digest(name: &str, mut cfg: SimConfig) -> String {
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

/// The pinned configurations: the coupled path at even, uneven and
/// one-site-per-thread layouts, BTO, a budget trip, and the separable
/// (lookahead ∞) path.
fn cases() -> Vec<(String, SimConfig)> {
    let mut cases = Vec::new();
    for shards in [1, 2, 3, 4] {
        cases.push((format!("mb4-4site-s{shards}"), coupled(4, shards)));
    }
    for shards in [1, 2, 8] {
        cases.push((format!("mb4-8site-s{shards}"), coupled(8, shards)));
    }
    let mut bto = coupled(4, 2);
    bto.cc = CcProtocol::TimestampOrdering;
    cases.push(("bto-4site-s2".into(), bto));
    let mut trip = coupled(4, 2);
    trip.max_events = 1_500;
    cases.push(("budget-trip-4site-s2".into(), trip));
    let mut lb8 = SimConfig::new(StandardWorkload::Lb8.spec(4), 8, 13);
    lb8.params = SystemParams::with_sites(4);
    lb8.warmup_ms = 500.0;
    lb8.measure_ms = 2_500.0;
    lb8.shards = 2;
    cases.push(("lb8-4site-s2".into(), lb8));
    cases
}

#[test]
fn sharded_report_and_trace_bytes_are_pinned() {
    let got: Vec<String> = cases()
        .into_iter()
        .map(|(name, cfg)| digest(&name, cfg))
        .collect();
    assert_eq!(got, PINNED, "sharded output moved:\n{}", got.join("\n"));
}

/// Expected [`digest`] lines, one per [`cases`] entry.
const PINNED: &[&str] = &[
    "mb4-4site-s1: events 1380 report 20c53ae79e8fc849 trace 2c7fb2d4ff893b3e",
    "mb4-4site-s2: events 1380 report 20c53ae79e8fc849 trace 2c7fb2d4ff893b3e",
    "mb4-4site-s3: events 1380 report 20c53ae79e8fc849 trace 2c7fb2d4ff893b3e",
    "mb4-4site-s4: events 1380 report 20c53ae79e8fc849 trace 2c7fb2d4ff893b3e",
    "mb4-8site-s1: events 2718 report dac420c695d12a95 trace 5aa85881f39bf8c7",
    "mb4-8site-s2: events 2718 report dac420c695d12a95 trace 5aa85881f39bf8c7",
    "mb4-8site-s8: events 2718 report dac420c695d12a95 trace 5aa85881f39bf8c7",
    "bto-4site-s2: events 1377 report d1024979bf064a2f trace c197e188d911d59b",
    "budget-trip-4site-s2: events 1350 partial 0999de31f1638397 trip 40a6c4cccccccccf",
    "lb8-4site-s2: events 1426 report 83d61fecb5ea2ec4 trace d603c2abc55a24a1",
];
