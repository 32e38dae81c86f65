//! Property tests for the sharded engine: for any eligible configuration
//! — coupled (cross-site, lookahead α) or site-separable (lookahead ∞) —
//! the report *and* the lifecycle trace must be byte-identical for every
//! shard count — the shard knob may choose the thread layout, never the
//! results (DESIGN.md §14).

use carat_sim::shard::{coupled_eligible, decomposable};
use carat_sim::{CcProtocol, DeadlockMode, Sim, SimConfig, TraceConfig};
use carat_workload::{StandardWorkload, SystemParams};
use proptest::prelude::*;

/// A random sharded-engine configuration, 2–4 sites and a concurrency
/// protocol that couples (2PL needs probe-based deadlock detection;
/// timestamp ordering always qualifies). A standard cross-site workload
/// (they all carry DRO and DU users) gets a positive network delay and
/// runs coupled; LB8 (local-only users) gets α = 0 and runs site-separable.
/// Windows are kept short — the property multiplies into several full
/// simulations per case.
fn arb_sharded_cfg() -> impl Strategy<Value = SimConfig> {
    const WORKLOADS: [StandardWorkload; 4] = [
        StandardWorkload::Mb4,
        StandardWorkload::Mb8,
        StandardWorkload::Ub6,
        StandardWorkload::Lb8,
    ];
    const PROTOCOLS: [CcProtocol; 3] = [
        CcProtocol::TwoPhaseLocking,
        CcProtocol::TimestampOrdering,
        CcProtocol::TimestampOrderingThomas,
    ];
    (
        0usize..WORKLOADS.len(),
        2usize..=4,
        0usize..PROTOCOLS.len(),
        1u32..=8,     // α in units of 1.25 ms
        4u32..=12,    // transaction size n
        any::<u64>(), // seed
    )
        .prop_map(|(wl_idx, sites, cc_idx, alpha_steps, n, seed)| {
            let (wl, cc) = (WORKLOADS[wl_idx], PROTOCOLS[cc_idx]);
            let mut cfg = SimConfig::new(wl.spec(sites), n, seed);
            cfg.params = SystemParams::with_sites(sites);
            cfg.params.comm_delay_ms = if wl == StandardWorkload::Lb8 {
                0.0
            } else {
                f64::from(alpha_steps) * 1.25
            };
            cfg.cc = cc;
            cfg.deadlock_mode = DeadlockMode::Probes;
            cfg.warmup_ms = 500.0;
            cfg.measure_ms = 2_500.0;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coupled_runs_are_shard_count_invariant(
        cfg in arb_sharded_cfg(),
        shards in 2usize..=6,
    ) {
        prop_assert!(
            coupled_eligible(&cfg) != decomposable(&cfg),
            "the generator must produce exactly one kind of sharded config"
        );
        let run = |k: usize| {
            let mut c = cfg.clone();
            c.shards = k;
            c.trace = Some(TraceConfig::default());
            let (report, tracer) = Sim::new(c).expect("valid").run_traced();
            (report, tracer.expect("tracing was on").to_jsonl())
        };
        let (r1, t1) = run(1);
        let (rk, tk) = run(shards);
        prop_assert_eq!(r1, rk, "report diverged at shards={}", shards);
        prop_assert_eq!(t1, tk, "trace bytes diverged at shards={}", shards);
    }
}
