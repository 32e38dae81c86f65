//! Behavioural tests of the testbed simulator: resource knobs must move
//! the system the way queueing theory says they should.

use carat_sim::{Sim, SimConfig};
use carat_workload::{StandardWorkload, TxType, WorkloadSpec};

fn cfg(wl: StandardWorkload, n: u32, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(wl.spec(2), n, seed);
    c.warmup_ms = 10_000.0;
    c.measure_ms = 150_000.0;
    c
}

#[test]
fn dm_pool_exhaustion_serialises_transactions() {
    // With a DM pool smaller than the user population, transactions queue
    // for a server before they can even open the database — classic
    // admission control. Throughput must drop, and response times rise.
    // (Local-only workload: DM waits and lock waits cannot deadlock with
    // each other because a transaction only waits for its DM before it
    // holds any lock.)
    let ample = Sim::new(cfg(StandardWorkload::Lb8, 8, 3))
        .expect("valid config")
        .run();
    let mut starved_cfg = cfg(StandardWorkload::Lb8, 8, 3);
    starved_cfg.dm_pool = 2; // 8 users per node, 2 DM servers
    let starved = Sim::new(starved_cfg).expect("valid config").run();

    assert!(
        starved.total_tx_per_s() < ample.total_tx_per_s(),
        "starved {} vs ample {}",
        starved.total_tx_per_s(),
        ample.total_tx_per_s()
    );
    // The DM bottleneck also throttles concurrency → fewer lock conflicts.
    assert!(starved.lock_conflicts <= ample.lock_conflicts);
    assert!(starved.total_tx_per_s() > 0.0, "no wedge");
}

#[test]
fn think_time_stretches_the_cycle() {
    let busy = Sim::new(cfg(StandardWorkload::Mb4, 8, 4))
        .expect("valid config")
        .run();
    let mut lazy_cfg = cfg(StandardWorkload::Mb4, 8, 4);
    lazy_cfg.params.think_time_ms = 20_000.0;
    let lazy = Sim::new(lazy_cfg).expect("valid config").run();
    assert!(lazy.total_tx_per_s() < busy.total_tx_per_s());
    for (l, b) in lazy.nodes.iter().zip(&busy.nodes) {
        assert!(l.disk_util < b.disk_util);
    }
}

#[test]
fn faster_disks_mean_more_throughput() {
    let base = Sim::new(cfg(StandardWorkload::Lb8, 8, 5))
        .expect("valid config")
        .run();
    let mut fast_cfg = cfg(StandardWorkload::Lb8, 8, 5);
    for node in &mut fast_cfg.params.nodes {
        node.disk_io_ms /= 2.0;
    }
    let fast = Sim::new(fast_cfg).expect("valid config").run();
    assert!(fast.total_tx_per_s() > base.total_tx_per_s() * 1.4);
}

#[test]
fn single_user_never_conflicts() {
    let wl = WorkloadSpec {
        name: "solo".into(),
        users: vec![vec![(TxType::Lu, 1)], vec![]],
    };
    let mut c = SimConfig::new(wl, 8, 6);
    c.warmup_ms = 5_000.0;
    c.measure_ms = 100_000.0;
    let r = Sim::new(c).expect("valid config").run();
    assert_eq!(r.lock_conflicts, 0);
    assert_eq!(r.local_deadlocks + r.global_deadlocks, 0);
    assert!(r.nodes[0].tx_per_s > 0.0);
    assert_eq!(r.nodes[1].tx_per_s, 0.0, "empty node stays idle");
    // Solo response time = pure service: roughly n·q·(3 I/Os · 28 ms)
    // + CPU ≈ 3.2 s per transaction on node A.
    let lu = &r.nodes[0].per_type[&TxType::Lu];
    assert!(
        (2_500.0..4_500.0).contains(&lu.mean_response_ms),
        "solo LU response {} ms",
        lu.mean_response_ms
    );
    assert_eq!(r.audit_violations, 0);
}

#[test]
fn percentiles_are_ordered_and_bracket_the_mean() {
    let r = Sim::new(cfg(StandardWorkload::Mb8, 12, 8))
        .expect("valid config")
        .run();
    for node in &r.nodes {
        for (ty, t) in &node.per_type {
            if t.commits < 20 {
                continue;
            }
            assert!(t.p50_response_ms > 0.0, "{ty}");
            assert!(
                t.p95_response_ms >= t.p50_response_ms,
                "{ty}: p95 {} < p50 {}",
                t.p95_response_ms,
                t.p50_response_ms
            );
            // Mean of a right-skewed latency distribution sits between the
            // median and the tail.
            assert!(
                t.mean_response_ms <= t.p95_response_ms * 1.2,
                "{ty}: mean {} vs p95 {}",
                t.mean_response_ms,
                t.p95_response_ms
            );
        }
    }
}

#[test]
fn alpha_delays_show_up_in_uncontended_distributed_response_times() {
    // In the full closed workload the effect of α is largely absorbed by
    // reduced queueing (slowing one chain drains the shared disk queue for
    // everyone, including itself) — both our model and simulator show this.
    // On an *uncontended* solo DU the arithmetic is exact: with n = 8 and
    // the two-node split, 4 remote requests pay 2α each and the two 2PC
    // rounds pay 2α each → +2.4 s at α = 200 ms.
    let solo = WorkloadSpec {
        name: "solo-du".into(),
        users: vec![vec![(TxType::Du, 1)], vec![]],
    };
    let run = |alpha: f64| {
        let mut c = SimConfig::new(solo.clone(), 8, 9);
        c.warmup_ms = 5_000.0;
        c.measure_ms = 150_000.0;
        c.params.comm_delay_ms = alpha;
        Sim::new(c).expect("valid config").run().nodes[0].per_type[&TxType::Du].mean_response_ms
    };
    let base = run(0.0);
    let slow = run(200.0);
    let added = slow - base;
    assert!(
        (2_000.0..2_800.0).contains(&added),
        "expected ≈ +2 400 ms from α, got {added:.0} ({base:.0} → {slow:.0})"
    );
}

#[test]
fn recorded_utilization_state_evaluates_like_the_station() {
    // The metrics recorder keeps a copy of a station's busy-signal state
    // and evaluates it at later sample boundaries; that evaluation must
    // return the very bits the station's own accumulator would.
    let mut busy = carat_des::TimeWeighted::new(0.0, 0.0);
    let mut t = 0.0;
    for i in 0..200u32 {
        t += 0.37 * f64::from(i % 7) + 0.011;
        if i == 50 {
            busy.reset(t);
        } else {
            busy.set(t, f64::from(i % 2));
        }
        let (start, last_t, value, area) = busy.state();
        let recorded = carat_obs::UtilState {
            start,
            last_t,
            value,
            area,
        };
        for later in [0.0, 0.001, 1.5, 10.0, 1e6] {
            assert_eq!(
                recorded.mean(t + later).to_bits(),
                busy.mean(t + later).to_bits(),
                "state {recorded:?} at t = {}",
                t + later
            );
        }
    }
}

/// Every lock wait that ends is charged to the LW phase: the `LW`
/// residence equals the recorded lock waits, whatever ended them — a
/// grant, a TSO retry, a youngest-victim abort, a probe cycle's victim,
/// or a crash that wiped the lock table the waiter queued in.
#[test]
fn every_ended_lock_wait_is_charged_to_lw() {
    use carat_sim::shard::coupled_eligible;
    use carat_sim::DeadlockMode;

    // MB8 at n = 16 with α = 5 ms and probe messages.
    let probes = || {
        let mut c = SimConfig::new(StandardWorkload::Mb8.spec(2), 16, 13);
        c.params.comm_delay_ms = 5.0;
        c.deadlock_mode = DeadlockMode::Probes;
        c.warmup_ms = 1_000.0;
        c.measure_ms = 120_000.0;
        c
    };
    let coupled = probes();
    assert!(coupled_eligible(&coupled));
    // A crash after the window forces the monolithic engine.
    let mut monolithic = probes();
    monolithic.crashes = vec![(1e9, 0)];
    assert!(!coupled_eligible(&monolithic));
    // The crash at 10 s strands a lock waiter at node A.
    let mut crash = SimConfig::new(StandardWorkload::Mb8.spec(2), 16, 11);
    crash.warmup_ms = 1_000.0;
    crash.measure_ms = 30_000.0;
    crash.crashes = vec![(10_000.0, 0)];

    for (name, cfg, probed) in [
        ("monolithic probes", monolithic, true),
        ("coupled probes", coupled, true),
        ("crash", crash, false),
    ] {
        let r = Sim::new(cfg).expect("valid config").run();
        assert!(
            !probed || r.global_deadlocks > 0,
            "{name}: no probe cycle closed"
        );
        let waits = r.lock_waits_completed;
        assert!(waits > 0, "{name}: no lock wait ended");
        let recorded_us = r.mean_lock_wait_ms * waits as f64 * 1_000.0;
        let charged_us = r.counters.get("phase_us_LW") as f64;
        assert!(
            (charged_us - recorded_us).abs() <= waits as f64,
            "{name}: LW charged {charged_us} µs, lock waits recorded {recorded_us} µs over {waits} waits"
        );
    }
}
