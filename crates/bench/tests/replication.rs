//! Determinism contract of the replication harness: the canonical JSON
//! rendered from `run_replications` must be byte-identical for every
//! thread count — the property the CI `--emit-sim` gate checks end to end
//! on the full reference sweep, pinned here on a smaller grid so
//! `cargo test` covers it too.

use carat::sim::{Sim, SimConfig};
use carat::workload::StandardWorkload;
use carat_bench::{rep_seed, replicated_to_json, run_replications, SweepOptions};

/// A small two-point grid: cheap enough for a unit-test run, rich enough
/// to exercise cross-point and cross-rep interleaving on the pool.
fn grid() -> (Vec<String>, Vec<SimConfig>) {
    let mut labels = Vec::new();
    let mut cfgs = Vec::new();
    for (wl, n) in [(StandardWorkload::Mb4, 4), (StandardWorkload::Lb8, 8)] {
        let mut cfg = SimConfig::new(wl.spec(2), n, 7);
        cfg.warmup_ms = 2_000.0;
        cfg.measure_ms = 15_000.0;
        labels.push(format!("{wl}/n{n}"));
        cfgs.push(cfg);
    }
    (labels, cfgs)
}

#[test]
fn parallel_replications_match_sequential_bytes() {
    let (labels, cfgs) = grid();
    let reps = 3;
    let sequential = replicated_to_json(
        &labels,
        &run_replications(cfgs.clone(), reps, &SweepOptions::sequential()),
    );
    for threads in [1, 2, 4] {
        let opts = SweepOptions {
            threads,
            warm: false,
        };
        let parallel = replicated_to_json(&labels, &run_replications(cfgs.clone(), reps, &opts));
        assert_eq!(
            parallel, sequential,
            "replication output diverged at threads={threads}"
        );
    }
}

#[test]
fn replications_use_derived_seeds_in_rep_order() {
    let (_, cfgs) = grid();
    let reports = run_replications(vec![cfgs[0].clone()], 3, &SweepOptions::sequential());
    assert_eq!(reports.len(), 1);
    let rep = &reports[0];
    assert_eq!(rep.reps(), 3);
    // Each replication must be a genuinely different run: derived seeds
    // are pairwise distinct, so the event sample paths must differ.
    let events: Vec<u64> = rep.reports.iter().map(|r| r.events).collect();
    assert!(
        events.windows(2).any(|w| w[0] != w[1]),
        "replications produced identical event counts {events:?} — \
         seed derivation is not taking effect"
    );
    // And rep r of the point must equal a direct single run with the
    // derived seed (the merge preserves rep order).
    let mut direct = cfgs[0].clone();
    direct.seed = rep_seed(cfgs[0].seed, 1);
    let one = Sim::new(direct).expect("valid config").run();
    assert_eq!(one.events, rep.reports[1].events);
    assert_eq!(one.lock_requests, rep.reports[1].lock_requests);
}
