//! Behavioural tests of the fixed-point solver: the model must respond to
//! its inputs the way queueing theory demands.

use carat_model::demands::chain_contexts;
use carat_model::{Model, ModelConfig, ModelOptions, ModelReport};
use carat_obs::IterLog;
use carat_workload::{NodeParams, StandardWorkload, SystemParams, TxType, WorkloadSpec};

/// Bitwise equality of everything a report feeds into output.
fn assert_reports_identical(a: &ModelReport, b: &ModelReport) {
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.tx_per_s, nb.tx_per_s);
        assert_eq!(na.records_per_s, nb.records_per_s);
        assert_eq!(na.cpu_util, nb.cpu_util);
        assert_eq!(na.disk_util, nb.disk_util);
        assert_eq!(na.dio_per_s, nb.dio_per_s);
        assert_eq!(na.per_type, nb.per_type);
        assert_eq!(na.per_chain, nb.per_chain);
    }
}

fn solve(wl: StandardWorkload, n: u32) -> carat_model::ModelReport {
    Model::new(ModelConfig::new(wl.spec(2), n)).solve()
}

#[test]
fn solver_is_deterministic() {
    let a = solve(StandardWorkload::Mb8, 12);
    let b = solve(StandardWorkload::Mb8, 12);
    assert_eq!(a.convergence.iterations, b.convergence.iterations);
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.tx_per_s, nb.tx_per_s);
        assert_eq!(na.cpu_util, nb.cpu_util);
    }
}

#[test]
fn tightened_tolerance_changes_iterations_not_solution() {
    // Regression for the damped-residual bug: the residual is now the
    // undamped step, so tightening the tolerance must cost extra
    // iterations while leaving the converged solution in place.
    let solve_tol = |tol: f64| {
        Model::with_options(
            ModelConfig::new(StandardWorkload::Mb8.spec(2), 12),
            ModelOptions {
                tol,
                ..ModelOptions::default()
            },
        )
        .solve()
    };
    let loose = solve_tol(1e-6);
    let tight = solve_tol(1e-12);
    assert!(loose.convergence.converged && tight.convergence.converged);
    assert!(
        tight.convergence.iterations > loose.convergence.iterations,
        "tightening 1e-6 → 1e-12 must add iterations ({} vs {})",
        tight.convergence.iterations,
        loose.convergence.iterations
    );
    assert!(tight.convergence.residual < 1e-12);
    for (l, t) in loose.nodes.iter().zip(&tight.nodes) {
        let rel = (l.tx_per_s - t.tx_per_s).abs() / t.tx_per_s;
        assert!(
            rel < 1e-4,
            "node {}: tolerance changed the solution ({} vs {})",
            l.name,
            l.tx_per_s,
            t.tx_per_s
        );
    }
}

#[test]
fn warm_start_converges_faster_to_the_same_fixed_point() {
    let model_at = |n: u32| Model::new(ModelConfig::new(StandardWorkload::Mb8.spec(2), n));
    let (_, ws) = model_at(8).solve_warm(None);
    let (cold, _) = model_at(12).solve_warm(None);
    let (warm, _) = model_at(12).solve_warm(Some(&ws));
    assert!(!cold.convergence.warm_started);
    assert!(warm.convergence.warm_started);
    assert!(
        warm.convergence.iterations < cold.convergence.iterations,
        "warm {} !< cold {}",
        warm.convergence.iterations,
        cold.convergence.iterations
    );
    // Both end within tolerance of the same fixed point.
    for (c, w) in cold.nodes.iter().zip(&warm.nodes) {
        let rel = (c.tx_per_s - w.tx_per_s).abs() / c.tx_per_s;
        assert!(
            rel < 1e-5,
            "node {}: {} vs {}",
            c.name,
            c.tx_per_s,
            w.tx_per_s
        );
    }
}

#[test]
fn iter_log_final_row_matches_convergence_info_exactly() {
    let model = || Model::new(ModelConfig::new(StandardWorkload::Mb8.spec(2), 12));
    let mut log = IterLog::new();
    log.begin_point("MB8/N=12");
    let (logged, _) = model().solve_logged(None, Some(&mut log));
    assert!(logged.convergence.converged);
    // One row per chain context per iteration, and the last row carries
    // exactly the iteration count and residual the report advertises.
    let rows = &log.points()[0].1;
    assert!(!rows.is_empty());
    assert_eq!(rows.len() % logged.convergence.iterations, 0);
    let per_iter = rows.len() / logged.convergence.iterations;
    assert!(per_iter >= 2, "expected multiple chains per iteration");
    let last = log.last_row().unwrap();
    assert_eq!(last.iter, logged.convergence.iterations);
    // Each row carries its own chain's pre-damping residual; the max over
    // the final iteration's rows is the solver's reported residual.
    let final_max = rows
        .iter()
        .filter(|r| r.iter == logged.convergence.iterations)
        .map(|r| r.residual)
        .fold(0.0f64, f64::max);
    assert_eq!(final_max, logged.convergence.residual);
    // Iteration numbers are 1..=iterations, contiguous.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.iter, i / per_iter + 1);
        assert!(row.pb.is_finite() && row.l_h.is_finite());
    }
    // Logging is observation only: the solution is bitwise unchanged.
    let plain = model().solve();
    assert_eq!(plain.convergence.iterations, logged.convergence.iterations);
    assert_eq!(plain.convergence.residual, logged.convergence.residual);
    assert_reports_identical(&plain, &logged);
}

#[test]
fn incompatible_warm_start_falls_back_to_cold() {
    // A one-site workload snapshot cannot seed the two-site testbed.
    let spec = WorkloadSpec {
        name: "solo".into(),
        users: vec![vec![(TxType::Lro, 2)], vec![]],
    };
    let (_, ws) = Model::new(ModelConfig::new(spec, 4)).solve_warm(None);
    let (r, _) =
        Model::new(ModelConfig::new(StandardWorkload::Mb8.spec(2), 8)).solve_warm(Some(&ws));
    assert!(!r.convergence.warm_started);
    let cold = solve(StandardWorkload::Mb8, 8);
    assert_reports_identical(&r, &cold);
}

/// Largest per-site population lattice (the number of population vectors
/// exact MVA visits) of `cfg`.
fn max_site_lattice(cfg: &ModelConfig) -> usize {
    let ctxs = chain_contexts(&cfg.params, &cfg.workload, cfg.n_requests);
    (0..cfg.params.sites())
        .map(|site| {
            ctxs.iter()
                .filter(|c| c.site == site)
                .map(|c| c.population + 1)
                .product::<usize>()
        })
        .max()
        .unwrap_or(1)
}

#[test]
fn threaded_site_solves_are_bitwise_identical() {
    // Five-site MB8: its largest site lattice clears the solver's
    // parallel-solve threshold (4,096), so `threads > 1` really takes the
    // threaded branch instead of falling back to the sequential one.
    let mut cfg = ModelConfig::new(StandardWorkload::Mb8.spec(5), 16);
    cfg.params = SystemParams::with_sites(5);
    let lattice = max_site_lattice(&cfg);
    assert!(lattice >= 4_096, "largest lattice {lattice} < 4096");
    let seq = Model::new(cfg.clone()).solve();
    for threads in [2usize, 4, 8] {
        let par = Model::with_options(
            cfg.clone(),
            ModelOptions {
                threads,
                ..ModelOptions::default()
            },
        )
        .solve();
        assert_eq!(par.convergence.iterations, seq.convergence.iterations);
        assert_reports_identical(&par, &seq);
    }
}

#[test]
fn throughput_monotone_decreasing_in_n() {
    for wl in [
        StandardWorkload::Lb8,
        StandardWorkload::Mb4,
        StandardWorkload::Ub6,
    ] {
        let mut prev = f64::INFINITY;
        for n in [4u32, 8, 12, 16, 20] {
            let x = solve(wl, n).total_tx_per_s();
            assert!(x < prev, "{wl} n={n}: {x} !< {prev}");
            prev = x;
        }
    }
}

#[test]
fn utilizations_never_exceed_one() {
    for wl in StandardWorkload::ALL {
        for n in [4u32, 20] {
            let r = solve(wl, n);
            for node in &r.nodes {
                assert!(node.cpu_util <= 1.0 + 1e-9, "{wl} n={n}");
                assert!(node.disk_util <= 1.0 + 1e-9, "{wl} n={n}");
                assert!(node.log_disk_util <= 1.0 + 1e-9, "{wl} n={n}");
            }
        }
    }
}

#[test]
fn identical_nodes_give_symmetric_predictions() {
    // Make node B's disk as fast as node A's: MB-style symmetric workloads
    // must then be exactly symmetric.
    let mut params = SystemParams::default();
    params.nodes[1] = NodeParams {
        name: "B".into(),
        disk_io_ms: 28.0,
    };
    let mut cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 8);
    cfg.params = params;
    let r = Model::new(cfg).solve();
    assert!(
        (r.nodes[0].tx_per_s - r.nodes[1].tx_per_s).abs() < 1e-6,
        "{} vs {}",
        r.nodes[0].tx_per_s,
        r.nodes[1].tx_per_s
    );
    assert!((r.nodes[0].cpu_util - r.nodes[1].cpu_util).abs() < 1e-6);
}

#[test]
fn doubling_disk_speed_raises_disk_bound_throughput() {
    let base = solve(StandardWorkload::Lb8, 8);
    let mut params = SystemParams::default();
    for node in &mut params.nodes {
        node.disk_io_ms /= 2.0;
    }
    let mut cfg = ModelConfig::new(StandardWorkload::Lb8.spec(2), 8);
    cfg.params = params;
    let fast = Model::new(cfg).solve();
    assert!(fast.total_tx_per_s() > base.total_tx_per_s() * 1.5);
}

#[test]
fn adding_users_saturates_but_never_reduces_total_below_fewer_users_significantly() {
    // Closed-network sanity: 2 users ≤ 4 users ≤ 8 users in total
    // throughput at low contention (n = 4 keeps deadlocks negligible).
    let mk = |per_node: usize| {
        let spec = WorkloadSpec {
            name: "scale".into(),
            users: vec![vec![(TxType::Lro, per_node)]; 2],
        };
        Model::new(ModelConfig::new(spec, 4))
            .solve()
            .total_tx_per_s()
    };
    let (x2, x4, x8) = (mk(2), mk(4), mk(8));
    assert!(x4 > x2);
    assert!(x8 >= x4 * 0.99);
}

#[test]
fn lattice_above_exact_cap_solves_by_schweitzer() {
    // 1,500 readers of each kind on node A: site 0's lattice is
    // 1501 × 1501 = 2,253,001 population vectors, above the exact-MVA cap
    // (2,000,000), so the solver must take the Schweitzer–Bard path.
    let spec = WorkloadSpec {
        name: "huge".into(),
        users: vec![vec![(TxType::Lro, 1500), (TxType::Dro, 1500)], vec![]],
    };
    let cfg = ModelConfig::new(spec, 4);
    let lattice = max_site_lattice(&cfg);
    assert!(
        lattice > 2_000_000,
        "lattice {lattice} within the exact cap"
    );
    let r = Model::new(cfg).solve();
    assert!(r.convergence.converged, "{:?}", r.convergence);
    for node in &r.nodes {
        assert!(node.cpu_util <= 1.0 + 1e-9, "{}", node.name);
        assert!(node.disk_util <= 1.0 + 1e-9, "{}", node.name);
        assert!(node.log_disk_util <= 1.0 + 1e-9, "{}", node.name);
    }
}

#[test]
fn default_solve_converges_past_four_sites() {
    // MB8 at n = 24 over five sites: the plain damped map oscillates there
    // and stops at the iteration cap with residual 1.59; the default
    // (Anderson) solve contracts to the tolerance.
    let mut cfg = ModelConfig::new(StandardWorkload::Mb8.spec(5), 24);
    cfg.params = SystemParams::with_sites(5);
    let r = Model::new(cfg).solve();
    assert!(r.convergence.converged, "{:?}", r.convergence);
}

#[test]
fn read_only_workload_has_no_aborts_or_log_io() {
    let spec = WorkloadSpec {
        name: "ro".into(),
        users: vec![vec![(TxType::Lro, 4)], vec![(TxType::Lro, 4)]],
    };
    let r = Model::new(ModelConfig::new(spec, 12)).solve();
    for node in &r.nodes {
        let t = &node.per_type[&TxType::Lro];
        assert!(t.p_a < 1e-9, "readers cannot conflict: P_a = {}", t.p_a);
        assert!((t.n_s - 1.0).abs() < 1e-9);
        assert_eq!(t.pb, 0.0);
    }
}

#[test]
fn phase_decomposition_sums_to_response_without_queueing() {
    // With one user there is no queueing and no contention: the model's
    // phase content must sum to (almost exactly) the predicted response.
    let spec = WorkloadSpec {
        name: "solo".into(),
        users: vec![vec![(TxType::Lu, 1)], vec![]],
    };
    let r = Model::new(ModelConfig::new(spec, 8)).solve();
    let t = &r.nodes[0].per_type[&TxType::Lu];
    let phase_sum: f64 = t.phase_ms.values().sum();
    let rel = (phase_sum - t.response_ms).abs() / t.response_ms;
    assert!(
        rel < 1e-6,
        "phases {phase_sum} vs response {}",
        t.response_ms
    );
}
