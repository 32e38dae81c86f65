//! Property-based tests for the analytical model's building blocks.

use carat_model::phases::Hazards;
use carat_model::{Phase, TransitionMatrix};
use proptest::prelude::*;

fn hazards() -> impl Strategy<Value = Hazards> {
    (0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.5).prop_map(|(pb, pd, pra)| Hazards { pb, pd, pra })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Local/coordinator matrices are stochastic and their visit counts
    /// satisfy the flow-balance identities for arbitrary hazards.
    #[test]
    fn local_matrix_flow_balance(
        n in 1u32..40,
        remote_frac in 0.0f64..=0.5,
        q in 1.0f64..6.0,
        h in hazards(),
    ) {
        let n = n as f64;
        let r = (n * remote_frac).floor();
        let l = n - r;
        prop_assume!(l >= 1.0);
        let m = TransitionMatrix::local_or_coordinator(n, l, r, q, h);

        for ph in Phase::ALL {
            let s = m.row_sum(ph);
            prop_assert!((s - 1.0).abs() < 1e-9, "{:?}: {}", ph, s);
        }

        let v = m.visit_counts();
        // Non-negative visits.
        for ph in Phase::ALL {
            prop_assert!(v.get(ph) >= -1e-9, "{:?} = {}", ph, v.get(ph));
        }
        // Exactly one pass through UT, INIT, U-entry, and UL per execution.
        prop_assert!((v.get(Phase::Ut) - 1.0).abs() < 1e-9);
        prop_assert!((v.get(Phase::Init) - 1.0).abs() < 1e-9);
        prop_assert!((v.get(Phase::Ul) - 1.0).abs() < 1e-9);
        // Executions end in commit or abort, never both.
        prop_assert!((v.get(Phase::Tc) + v.get(Phase::Ta) - 1.0).abs() < 1e-9);
        // LW flow: V_LW = Pb · V_LR; abort flow from LW: Pd · V_LW.
        prop_assert!((v.get(Phase::Lw) - h.pb * v.get(Phase::Lr)).abs() < 1e-9);
        // DMIO flow: granted locks plus survived waits.
        let granted = (1.0 - h.pb) * v.get(Phase::Lr);
        let survived = (1.0 - h.pd) * v.get(Phase::Lw);
        prop_assert!((v.get(Phase::Dmio) - granted - survived).abs() < 1e-9);
        // Without hazards, V_TM = 2n + 1.
        if h.pb == 0.0 && h.pra == 0.0 {
            prop_assert!((v.get(Phase::Tm) - (2.0 * n + 1.0)).abs() < 1e-6);
        }
        // Hazards can only reduce work per execution.
        prop_assert!(v.get(Phase::Lr) <= l * q + 1e-9);
    }

    /// Slave matrices obey the same conservation laws.
    #[test]
    fn slave_matrix_flow_balance(
        l in 1u32..20,
        q in 1.0f64..6.0,
        h in hazards(),
    ) {
        let l = l as f64;
        let m = TransitionMatrix::slave(l, q, h);
        let v = m.visit_counts();
        prop_assert!((v.get(Phase::Tc) + v.get(Phase::Ta) - 1.0).abs() < 1e-9);
        prop_assert!((v.get(Phase::Lw) - h.pb * v.get(Phase::Lr)).abs() < 1e-9);
        prop_assert!(v.get(Phase::Init).abs() < 1e-12, "slaves have no INIT");
        prop_assert!(v.get(Phase::U).abs() < 1e-12, "slaves have no U phase");
        prop_assert!(v.get(Phase::Lr) <= l * q + 1e-9);
        if h.pb == 0.0 && h.pra == 0.0 {
            prop_assert!((v.get(Phase::Tm) - 2.0 * l).abs() < 1e-6);
            prop_assert!((v.get(Phase::Rw) - l).abs() < 1e-6);
        }
    }

    /// Contention primitives stay in their domains for arbitrary inputs.
    #[test]
    fn contention_primitives_bounded(
        p in 0.0f64..1.0,
        n_lk in 1.0f64..200.0,
        p_a in 0.0f64..0.95,
        r_s in 1.0f64..1e6,
        r_ut in 0.0f64..1e6,
    ) {
        use carat_model::contention::{expected_locks_at_abort, locks_held, sigma};
        let ey = expected_locks_at_abort(p, n_lk);
        prop_assert!((0.0..=n_lk).contains(&ey), "E[Y] = {}", ey);
        let s = sigma(p, n_lk);
        prop_assert!((0.0..=1.0).contains(&s));
        let lh = locks_held(n_lk, s, p_a, r_s, r_ut);
        prop_assert!((0.0..=n_lk / 2.0 + 1e-9).contains(&lh), "L_h = {}", lh);
    }

    /// The consistent lock-wait solve never returns negative or non-finite
    /// waits, even at absurd contention.
    #[test]
    fn lock_wait_solve_always_bounded(
        pops in proptest::collection::vec((1.0f64..8.0, 0.0f64..0.5, 0.0f64..0.5), 1..5),
    ) {
        use carat_model::contention::{
            lock_wait_times_consistent_into, ChainLockState, LockWaitScratch,
        };
        use carat_workload::ChainType;
        let chains: Vec<ChainLockState> = pops
            .iter()
            .enumerate()
            .map(|(i, &(pop, pb, pd))| ChainLockState {
                chain: if i % 2 == 0 { ChainType::Lu } else { ChainType::Lro },
                population: pop,
                l_h: 5.0 + i as f64,
                n_lk: 20.0,
                blocked_frac: 0.2,
                r_s: 1_000.0,
                useful: 600.0,
                pb,
                pd,
            })
            .collect();
        let mut waits = Vec::new();
        lock_wait_times_consistent_into(
            &chains,
            false,
            None,
            &mut LockWaitScratch::default(),
            &mut waits,
        );
        for (i, w) in waits.iter().enumerate() {
            prop_assert!(w.is_finite() && *w >= 0.0, "chain {}: {}", i, w);
            // Saturation bound: ≤ 8 × first-order wait ≤ 8 × max BR × max useful.
            prop_assert!(*w <= 8.0 * 0.5 * 600.0 + 1e-6);
        }
    }
}
