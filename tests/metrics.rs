//! Metrics-recorder integration tests: sampling boundary semantics,
//! off-path neutrality, and byte-identical output for every shard count
//! (the determinism contract the CI gates also enforce end to end).

use carat::obs::{MetricsConfig, MetricsFilter, MetricsRecorder, TraceConfig, Tracer};
use carat::sim::{
    shard, CcProtocol, DeadlockMode, FaultPlan, PartitionPlan, Sim, SimConfig, SimError, SimReport,
    SplitSpec,
};
use carat::workload::{StandardWorkload, SystemParams};
use proptest::prelude::*;

/// A small local-only (site-separable) run.
fn local_cfg(sites: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(sites), 8, seed);
    cfg.params = SystemParams::with_sites(sites);
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg
}

/// A small cross-site run that takes the coupled conservative engine.
fn coupled_cfg(sites: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), 8, seed);
    cfg.params = SystemParams::with_sites(sites);
    cfg.params.comm_delay_ms = 5.0;
    cfg.deadlock_mode = DeadlockMode::Probes;
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg
}

fn run_instrumented(cfg: SimConfig) -> (SimReport, String) {
    let (report, _, metrics) = Sim::new(cfg)
        .expect("valid config")
        .run_checked_instrumented()
        .expect("no budget configured");
    (report, metrics.expect("metrics were on").to_jsonl())
}

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line of digests over every export of a run's recorder: its
/// length, the JSONL, CSV and standalone Chrome documents, the lifecycle
/// trace with the counter tracks merged in, and the `summarize(40)` rows.
/// A budget trip keeps no tracer, so its trace document has counters only.
fn export_digests(name: &str, mut cfg: SimConfig) -> String {
    cfg.trace = Some(TraceConfig::default());
    let (tracer, metrics): (Tracer, MetricsRecorder) = match Sim::new(cfg)
        .expect("valid config")
        .run_checked_instrumented()
    {
        Ok((_, tracer, metrics)) => (
            tracer.expect("tracing was on"),
            metrics.expect("metrics were on"),
        ),
        Err(SimError::EventBudgetExhausted {
            partial_metrics, ..
        }) => (
            Tracer::new(TraceConfig::default()),
            *partial_metrics.expect("metrics were on"),
        ),
    };
    let summary: String = metrics
        .summarize(40)
        .iter()
        .map(|row| format!("{row:?}\n"))
        .collect();
    format!(
        "{name}: len {} jsonl {:016x} csv {:016x} chrome {:016x} trace {:016x} summary {:016x}",
        metrics.len(),
        fnv(metrics.to_jsonl().as_bytes()),
        fnv(metrics.to_csv().as_bytes()),
        fnv(metrics.to_chrome_json().as_bytes()),
        fnv(tracer.to_chrome_json_with(Some(&metrics)).as_bytes()),
        fnv(summary.as_bytes()),
    )
}

/// A 2-site monolithic run (α = 0) of `wl` with a 10 ms recorder.
fn mono_cfg(wl: StandardWorkload) -> SimConfig {
    let mut cfg = SimConfig::new(wl.spec(2), 8, 7);
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_500.0;
    cfg.metrics = Some(MetricsConfig::new(10.0));
    cfg
}

/// The pinned configurations: every engine, the fault, partition and
/// budget paths, both CC families, filters and a cadence that is not a
/// divisor of the run.
fn pinned_cases() -> Vec<(&'static str, SimConfig)> {
    let mut cases = vec![
        ("mb8", mono_cfg(StandardWorkload::Mb8)),
        ("ub6", mono_cfg(StandardWorkload::Ub6)),
    ];
    let mut cfg = mono_cfg(StandardWorkload::Ub6);
    cfg.separate_log_disk = true;
    cases.push(("ub6-log-disk", cfg));
    for (name, shards) in [("lb8-4site-s1", 1), ("lb8-4site-s2", 2)] {
        let mut cfg = local_cfg(4, 5);
        cfg.metrics = Some(MetricsConfig::new(10.0));
        cfg.shards = shards;
        cases.push((name, cfg));
    }
    for (name, shards) in [("mb4-8site-s1", 1), ("mb4-8site-s2", 2)] {
        let mut cfg = coupled_cfg(8, 5);
        cfg.n_requests = 4;
        cfg.metrics = Some(MetricsConfig::new(10.0));
        cfg.shards = shards;
        cases.push((name, cfg));
    }
    let mut cfg = mono_cfg(StandardWorkload::Mb8);
    cfg.cc = CcProtocol::TimestampOrdering;
    cases.push(("bto", cfg));
    let mut cfg = mono_cfg(StandardWorkload::Mb8);
    cfg.crashes = vec![(1_200.0, 0)];
    cases.push(("crash", cfg));
    let mut cfg = mono_cfg(StandardWorkload::Mb4);
    cfg.fault_plan = FaultPlan {
        mttf_ms: 900.0,
        mttr_ms: 300.0,
        timeout_ms: 60.0,
        max_retries: 3,
        ..FaultPlan::default()
    };
    cases.push(("crash-restart", cfg));
    let mut cfg = mono_cfg(StandardWorkload::Mb4);
    cfg.fault_plan = FaultPlan {
        timeout_ms: 60.0,
        max_retries: 3,
        ..FaultPlan::default()
    };
    cfg.partition_plan = PartitionPlan {
        splits: vec![SplitSpec {
            at_ms: 1_000.0,
            heal_ms: 1_800.0,
            groups: vec![0, 1],
        }],
        replication: 2,
        ..PartitionPlan::default()
    };
    cases.push(("partition", cfg));
    let mut cfg = mono_cfg(StandardWorkload::Mb8);
    cfg.max_events = 600;
    cases.push(("budget-trip", cfg));
    // Each LP trips at its own instant and keeps its own last boundary.
    let mut cfg = coupled_cfg(4, 5);
    cfg.metrics = Some(MetricsConfig::new(10.0));
    cfg.max_events = 1_000;
    cases.push(("budget-trip-sharded", cfg));
    for (name, spec) in [
        ("filter-queue-util", "queue|util"),
        ("filter-lock-tx", "lock,tx"),
    ] {
        let mut cfg = mono_cfg(StandardWorkload::Mb8);
        cfg.metrics = Some(MetricsConfig {
            sample_ms: 10.0,
            filter: MetricsFilter::parse(spec).expect("valid filter"),
        });
        cases.push((name, cfg));
    }
    let mut cfg = mono_cfg(StandardWorkload::Ub6);
    cfg.metrics = Some(MetricsConfig::new(7.5));
    cases.push(("cadence-7.5", cfg));
    cases
}

/// The exported series themselves, pinned byte for byte: shard-count and
/// on-vs-off identity cannot catch a rewrite that shifts every series the
/// same way, these digests can.
#[test]
fn exported_series_are_pinned() {
    let got: Vec<String> = pinned_cases()
        .into_iter()
        .map(|(name, cfg)| export_digests(name, cfg))
        .collect();
    let want: Vec<&str> = PINNED.to_vec();
    assert_eq!(got, want, "exported series moved:\n{}", got.join("\n"));
}

/// Expected [`export_digests`] lines, one per [`pinned_cases`] entry.
const PINNED: &[&str] = &[
    "mb8: len 7800 jsonl 9443819eedcc0482 csv aedb006df86bd611 chrome f88e4f8b9cdcd979 trace 944e5cebbdc1898b summary 0a6cc817c39791e4",
    "ub6: len 7800 jsonl b42d911021fa777e csv 3049641dbf41682b chrome a1e0cafd1772795d trace 2255998d05262a53 summary df15601b717be305",
    "ub6-log-disk: len 9000 jsonl cb28ff67509c14ea csv fc357d5670365bb5 chrome 2ddc52e70f9e70f1 trace a3a6788aa9a5ac15 summary a15f495b0e9ad2be",
    "lb8-4site-s1: len 15000 jsonl ff4dcdec8ddfc3c8 csv 1b0e6c8405104723 chrome 76b8c138cabbc613 trace 4da3665033190564 summary 2dbc47f8fbf7cc64",
    "lb8-4site-s2: len 15000 jsonl ff4dcdec8ddfc3c8 csv 1b0e6c8405104723 chrome 76b8c138cabbc613 trace 4da3665033190564 summary 2dbc47f8fbf7cc64",
    "mb4-8site-s1: len 30000 jsonl 3f53c09b52099388 csv 48f17c1f989196e3 chrome abd221482050f53d trace dda7b09c854bd6c5 summary b7e4f12a8a8c12f9",
    "mb4-8site-s2: len 30000 jsonl 3f53c09b52099388 csv 48f17c1f989196e3 chrome abd221482050f53d trace dda7b09c854bd6c5 summary b7e4f12a8a8c12f9",
    "bto: len 7800 jsonl 3651aa0560f4f9f9 csv 332d15c879226ce8 chrome a2aa93410346c57e trace 02b6102556fd0bf7 summary 42f3d4f46f240c35",
    "crash: len 7800 jsonl c70506f8e0c4fc20 csv 3cbf041088b1c251 chrome d3162cdb44cbb6e1 trace c98594f542ab737b summary 45fbbb1819acda36",
    "crash-restart: len 7800 jsonl 5dd58a248659687d csv 73c5eadaf20bc57c chrome fb7fd76ef4ac358e trace cf5bb43a4df35112 summary c6a90e2705186cf2",
    "partition: len 7800 jsonl 07d26db681b743f1 csv f8d70d6fa3ab2c90 chrome ca146d426bee273e trace 8b739b93b8d0593f summary d5115e8b6743500f",
    "budget-trip: len 6500 jsonl fca7e7bb3691505a csv 5fd6eebe6b3f968f chrome 24d9fd20d6e9b675 trace 24d9fd20d6e9b675 summary 1c0d95294b42089e",
    "budget-trip-sharded: len 13080 jsonl b2d6b4ac82c51368 csv 8ae2f12b0920a611 chrome 4337c09e1d8cf1cb trace 4337c09e1d8cf1cb summary 2100da3d0b14ee89",
    "filter-queue-util: len 4200 jsonl 8d11819eb58f73bf csv a33473a2c8f563de chrome f65c358ef1fb2a38 trace af63906803acc022 summary 7050345331113ab1",
    "filter-lock-tx: len 2400 jsonl 646b70d7d5c69cf4 csv c0680934c27fa2a5 chrome 4f8c973ac1ee87e5 trace 8bceaa898cec0c6b summary 059f770b92d6da79",
    "cadence-7.5: len 10400 jsonl cf61b22919aa1dd9 csv 91f4023ab06fb668 chrome 480b2b5713bc4a9a trace f7ce6f44429804d4 summary 31dd6359576030a7",
];

#[test]
fn sampling_stops_at_the_run_end_when_the_cadence_does_not_divide_it() {
    // end = 2500 ms, cadence 400 ms: boundaries 400..2400, never 2800.
    let mut cfg = local_cfg(2, 7);
    cfg.metrics = Some(MetricsConfig::new(400.0));
    let (_, _, metrics) = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect("no budget");
    let metrics = metrics.expect("metrics were on");
    let times: std::collections::BTreeSet<u64> = metrics
        .samples()
        .iter()
        .map(|s| s.t_ms.round() as u64)
        .collect();
    let expected: std::collections::BTreeSet<u64> = (1..=6).map(|k| k * 400).collect();
    assert_eq!(times, expected, "one sample row per boundary <= end");
}

#[test]
fn a_cadence_finer_than_the_boundary_index_can_count_is_a_config_error() {
    let mut cfg = local_cfg(2, 7);
    cfg.metrics = Some(MetricsConfig::new(1e-300));
    let err = Sim::new(cfg).err().expect("rejected");
    assert!(
        err.to_string().contains("metrics.sample_ms"),
        "names the field: {err}"
    );
    // A fine but countable cadence still runs.
    let mut cfg = local_cfg(2, 7);
    cfg.measure_ms = 20.0;
    cfg.warmup_ms = 0.0;
    cfg.metrics = Some(MetricsConfig::new(0.001));
    assert!(Sim::new(cfg).is_ok());
}

#[test]
fn a_cadence_longer_than_the_run_yields_no_samples() {
    let mut cfg = local_cfg(2, 7);
    cfg.metrics = Some(MetricsConfig::new(10_000.0));
    let (_, _, metrics) = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect("no budget");
    let metrics = metrics.expect("metrics were on");
    assert!(metrics.is_empty(), "no boundary fits inside the run");
    assert_eq!(metrics.to_csv(), "t_ms,site,metric,value\n", "header only");
}

#[test]
fn a_budget_trip_keeps_exactly_the_samples_before_the_trip_instant() {
    // Monolithic on purpose (distributed users, α = 0): under the sharded
    // engines each *site* stops at its own trip instant while the error
    // reports the earliest, so the strict global bound below holds only
    // for the single event loop.
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 7);
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg.metrics = Some(MetricsConfig::new(5.0));
    cfg.max_events = 200; // trips mid-run: a full run needs far more
    let err = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect_err("budget must trip");
    let SimError::EventBudgetExhausted {
        sim_time_ms,
        partial_metrics,
        ..
    } = err;
    let partial = *partial_metrics.expect("metrics were on");
    assert!(!partial.is_empty(), "the run got past the first boundary");
    for s in partial.samples() {
        assert!(
            s.t_ms < sim_time_ms,
            "sample at {} ms survived a trip at {} ms",
            s.t_ms,
            sim_time_ms
        );
    }
}

#[test]
fn the_recorder_never_changes_the_report() {
    // One configuration per engine: separable, coupled, and monolithic
    // (2-site MB8 with α = 0).
    let mut mono = mono_cfg(StandardWorkload::Mb8);
    mono.metrics = None;
    assert!(!shard::decomposable(&mono) && !shard::coupled_eligible(&mono));
    for cfg in [local_cfg(3, 11), coupled_cfg(3, 11), mono] {
        let off = Sim::new(cfg.clone()).expect("valid").run();
        let mut on_cfg = cfg;
        on_cfg.metrics = Some(MetricsConfig::new(10.0));
        let (on, jsonl) = run_instrumented(on_cfg);
        assert_eq!(off, on, "sampling must be observation, not interference");
        assert!(!jsonl.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random eligible configurations: the recorder's JSONL is
    /// byte-identical for every shard count, on both sharded engines,
    /// with and without a filter.
    #[test]
    fn metrics_bytes_are_shard_count_independent(
        seed in 1u64..1_000,
        sites in 2usize..5,
        sample_idx in 0usize..3,
        filter_idx in 0usize..3,
        coupled in any::<bool>(),
    ) {
        let sample_ms = [7.5, 20.0, 50.0][sample_idx];
        let filter = match filter_idx {
            0 => MetricsFilter::all(),
            1 => MetricsFilter::parse("queue|util").unwrap(),
            _ => MetricsFilter::parse("lock,tx").unwrap(),
        };
        let mut cfg = if coupled {
            coupled_cfg(sites, seed)
        } else {
            local_cfg(sites, seed)
        };
        cfg.metrics = Some(MetricsConfig { sample_ms, filter });
        let run = |shards: usize| {
            let mut c = cfg.clone();
            c.shards = shards;
            run_instrumented(c)
        };
        let (r1, m1) = run(1);
        for shards in [2usize, 4, 6] {
            let (r, m) = run(shards);
            prop_assert_eq!(&r1, &r, "report diverged at shards={}", shards);
            prop_assert_eq!(&m1, &m, "metrics diverged at shards={}", shards);
        }
        prop_assert!(!m1.is_empty(), "the run produced samples");
    }
}
