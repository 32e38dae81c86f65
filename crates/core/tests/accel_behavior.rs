//! Behavioural tests of the accelerated fixed-point solver: with
//! acceleration enabled (the default) the solve must land on the *same*
//! fixed point as the plain damped iteration, the oracle (the safeguards
//! make acceleration a pure convergence-speed transform).

use carat_model::{Accel, Model, ModelConfig, ModelOptions, ModelReport};
use carat_obs::IterLog;
use carat_workload::{StandardWorkload, TxType, WorkloadSpec};
use proptest::prelude::*;

fn solve_with(wl: StandardWorkload, n: u32, accel: Accel) -> ModelReport {
    solve_with_tol(wl, n, accel, ModelOptions::default().tol)
}

/// The fixed-point comparisons solve at a tolerance well below the 1e-9
/// agreement they assert, so both iterates sit closer to the fixed point
/// than the distance being measured.
fn solve_with_tol(wl: StandardWorkload, n: u32, accel: Accel, tol: f64) -> ModelReport {
    Model::with_options(
        ModelConfig::new(wl.spec(2), n),
        ModelOptions {
            accel,
            tol,
            ..ModelOptions::default()
        },
    )
    .solve()
}

/// Relative agreement of every numeric field a report exposes.
fn assert_reports_close(a: &ModelReport, b: &ModelReport, tol: f64) {
    let close = |x: f64, y: f64, what: &str| {
        let rel = (x - y).abs() / (1.0 + x.abs().max(y.abs()));
        assert!(rel < tol, "{what}: {x} vs {y} (rel {rel:.3e})");
    };
    assert_eq!(a.nodes.len(), b.nodes.len());
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        close(na.tx_per_s, nb.tx_per_s, "tx_per_s");
        close(na.records_per_s, nb.records_per_s, "records_per_s");
        close(na.cpu_util, nb.cpu_util, "cpu_util");
        close(na.disk_util, nb.disk_util, "disk_util");
        close(na.dio_per_s, nb.dio_per_s, "dio_per_s");
        for ((ta, ra), (tb, rb)) in na.per_chain.iter().zip(&nb.per_chain) {
            assert_eq!(ta, tb);
            close(ra.xput_per_s, rb.xput_per_s, "xput_per_s");
            close(ra.response_ms, rb.response_ms, "response_ms");
            close(ra.n_s, rb.n_s, "n_s");
            close(ra.pb, rb.pb, "pb");
            close(ra.pd, rb.pd, "pd");
            close(ra.p_a, rb.p_a, "p_a");
            close(ra.l_h, rb.l_h, "l_h");
            close(ra.r_lw_ms, rb.r_lw_ms, "r_lw_ms");
        }
    }
}

#[test]
fn anderson_reaches_the_plain_fixed_point() {
    for wl in [
        StandardWorkload::Lb8,
        StandardWorkload::Mb4,
        StandardWorkload::Mb8,
        StandardWorkload::Ub6,
    ] {
        for n in [4u32, 12, 20] {
            let plain = solve_with_tol(wl, n, Accel::Off, 1e-12);
            assert!(plain.convergence.converged);
            assert_eq!(plain.convergence.accel_accepted, 0);
            assert_eq!(plain.convergence.accel_rejected, 0);
            let fast = solve_with_tol(wl, n, Accel::Anderson, 1e-12);
            assert!(fast.convergence.converged, "{wl:?} n={n}");
            assert_reports_close(&plain, &fast, 1e-9);
        }
    }
}

#[test]
fn acceleration_reduces_iterations_on_the_reference_sweep() {
    // The tentpole claim: ≥30% fewer fixed-point iterations summed over
    // the paper's 20 reference points.
    let mut plain_total = 0usize;
    let mut fast_total = 0usize;
    for wl in [
        StandardWorkload::Lb8,
        StandardWorkload::Mb4,
        StandardWorkload::Mb8,
        StandardWorkload::Ub6,
    ] {
        for n in [4u32, 8, 12, 16, 20] {
            plain_total += solve_with(wl, n, Accel::Off).convergence.iterations;
            fast_total += solve_with(wl, n, Accel::Anderson).convergence.iterations;
        }
    }
    println!("{fast_total} accelerated vs {plain_total} plain iterations");
    assert!(
        (fast_total as f64) <= 0.70 * plain_total as f64,
        "{fast_total} accelerated vs {plain_total} plain iterations"
    );
}

#[test]
fn accepted_steps_are_counted_and_logged() {
    let mut log = IterLog::new();
    log.begin_point("MB8/N=16");
    let (r, _) = Model::with_options(
        ModelConfig::new(StandardWorkload::Mb8.spec(2), 16),
        ModelOptions {
            accel: Accel::Anderson,
            ..ModelOptions::default()
        },
    )
    .solve_logged(None, Some(&mut log));
    assert!(r.convergence.converged);
    assert!(r.convergence.accel_accepted > 0);
    // Every accepted/rejected step appears as a row marker, once per
    // iteration (all chains of an iteration share the marker).
    let rows = &log.points()[0].1;
    let acc_iters: std::collections::BTreeSet<usize> = rows
        .iter()
        .filter(|row| row.accel == "acc")
        .map(|row| row.iter)
        .collect();
    let rej_iters: std::collections::BTreeSet<usize> = rows
        .iter()
        .filter(|row| row.accel == "rej")
        .map(|row| row.iter)
        .collect();
    assert_eq!(
        acc_iters.len(),
        r.convergence.accel_accepted + rej_iters.len()
    );
    assert_eq!(rej_iters.len(), r.convergence.accel_rejected);
}

#[test]
fn anderson_is_the_default_solve() {
    let defaults = ModelOptions::default();
    assert_eq!(defaults.accel, Accel::Anderson);
    let a = Model::new(ModelConfig::new(StandardWorkload::Ub6.spec(2), 12)).solve();
    let b = solve_with(StandardWorkload::Ub6, 12, Accel::Anderson);
    assert_eq!(a, b);
    assert!(a.convergence.accel_accepted > 0);
}

#[test]
fn accel_parses_flag_forms() {
    assert_eq!(Accel::parse("off"), Some(Accel::Off));
    assert_eq!(Accel::parse("anderson"), Some(Accel::Anderson));
    assert_eq!(Accel::parse("newton"), None);
}

/// Random two-node workloads: a few users of each type on each node.
fn workload_strategy() -> impl Strategy<Value = (WorkloadSpec, u32)> {
    (
        (0usize..3, 0usize..3, 0usize..3),
        (0usize..3, 0usize..3, 0usize..3),
        2u32..16,
    )
        .prop_map(|((la, da, ra), (lb, db, rb), n)| {
            let mut node_a = vec![];
            let mut node_b = vec![];
            for (node, lu, du, ro) in [(&mut node_a, la, da, ra), (&mut node_b, lb, db, rb)] {
                if lu > 0 {
                    node.push((TxType::Lu, lu));
                }
                if du > 0 {
                    node.push((TxType::Du, du));
                }
                if ro > 0 {
                    node.push((TxType::Lro, ro));
                }
            }
            if node_a.is_empty() && node_b.is_empty() {
                node_a.push((TxType::Lu, 2usize));
            }
            (
                WorkloadSpec {
                    name: "prop".into(),
                    users: vec![node_a, node_b],
                },
                n,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary workloads and populations, Anderson acceleration
    /// lands on the plain damped fixed point to 1e-9 in every report field.
    #[test]
    fn accelerated_solves_match_plain_fixed_point((spec, n) in workload_strategy()) {
        let solve = |accel: Accel| {
            Model::with_options(
                ModelConfig::new(spec.clone(), n),
                ModelOptions { accel, tol: 1e-12, ..ModelOptions::default() },
            )
            .solve()
        };
        let plain = solve(Accel::Off);
        prop_assume!(plain.convergence.converged);
        let fast = solve(Accel::Anderson);
        prop_assert!(fast.convergence.converged);
        assert_reports_close(&plain, &fast, 1e-9);
    }
}
