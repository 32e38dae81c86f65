//! Property-based tests for the MVA solver on randomly generated closed
//! networks.

use carat_qnet::{solve_convolution, CenterKind, Network};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomNet {
    populations: Vec<usize>,
    // demands[chain][center], centers = 2 queueing + 1 delay
    demands: Vec<[f64; 3]>,
}

fn net_strategy() -> impl Strategy<Value = RandomNet> {
    proptest::collection::vec(
        (1usize..4, (0.1f64..10.0, 0.1f64..10.0, 0.0f64..20.0)),
        1..4,
    )
    .prop_map(|chains| RandomNet {
        populations: chains.iter().map(|&(p, _)| p).collect(),
        demands: chains.iter().map(|&(_, (a, b, z))| [a, b, z]).collect(),
    })
}

fn build(rn: &RandomNet) -> Network {
    let mut net = Network::new();
    let cpu = net.add_center("CPU", CenterKind::Queueing);
    let disk = net.add_center("DISK", CenterKind::Queueing);
    let z = net.add_center("Z", CenterKind::Delay);
    for (k, &pop) in rn.populations.iter().enumerate() {
        let id = net.add_chain(format!("c{k}"), pop);
        net.set_demand(id, cpu, rn.demands[k][0]);
        net.set_demand(id, disk, rn.demands[k][1]);
        net.set_demand(id, z, rn.demands[k][2]);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact MVA invariants: utilizations in [0, 1], population conserved
    /// per chain, response at least the total demand, throughput at most
    /// the bottleneck bound.
    #[test]
    fn exact_mva_invariants(rn in net_strategy()) {
        let net = build(&rn);
        let sol = net.solve_exact();
        for c in 0..2 {
            prop_assert!(sol.utilization[c] >= -1e-12);
            prop_assert!(sol.utilization[c] <= 1.0 + 1e-9,
                "util {} = {}", c, sol.utilization[c]);
        }
        for (k, &pop) in rn.populations.iter().enumerate() {
            // Little's law per chain: X_k · Σ_c R_kc = N_k.
            let resident: f64 = (0..3)
                .map(|c| sol.throughput[k] * sol.residence[k][c])
                .sum();
            prop_assert!((resident - pop as f64).abs() < 1e-6,
                "chain {}: {} vs {}", k, resident, pop);
            // Response ≥ total demand (queueing can only add).
            let demand: f64 = rn.demands[k].iter().sum();
            prop_assert!(sol.response[k] >= demand - 1e-9);
            // Asymptotic bound: X_k ≤ N_k / demand.
            prop_assert!(sol.throughput[k] <= pop as f64 / demand + 1e-9);
        }
    }

    /// Adding a customer to a chain never decreases that chain's own
    /// throughput. (Note: per-center utilization is NOT monotone — a
    /// disk-heavy chain growing can starve a CPU-heavy chain enough to
    /// lower CPU utilization — so only the per-chain property is asserted.)
    #[test]
    fn exact_mva_monotone_in_own_population(rn in net_strategy()) {
        let base = build(&rn).solve_exact();
        for grow in 0..rn.populations.len() {
            let mut bigger = rn.clone();
            bigger.populations[grow] += 1;
            let sol = build(&bigger).solve_exact();
            prop_assert!(
                sol.throughput[grow] >= base.throughput[grow] - 1e-9,
                "chain {} throughput fell: {} -> {}",
                grow, base.throughput[grow], sol.throughput[grow]
            );
        }
    }

    /// Schweitzer–Bard stays within a modest band of exact for small
    /// networks and satisfies the same hard bounds.
    #[test]
    fn approx_mva_tracks_exact(rn in net_strategy()) {
        let net = build(&rn);
        let exact = net.solve_exact();
        let approx = net.solve_approx(1e-12, 50_000);
        for (k, &pop) in rn.populations.iter().enumerate() {
            if pop == 0 { continue; }
            let rel = (approx.throughput[k] - exact.throughput[k]).abs()
                / exact.throughput[k].max(1e-12);
            prop_assert!(rel < 0.25, "chain {}: rel {}", k, rel);
            let demand: f64 = rn.demands[k].iter().sum();
            prop_assert!(approx.throughput[k] <= pop as f64 / demand + 1e-9);
        }
        for c in 0..2 {
            prop_assert!(approx.utilization[c] <= 1.0 + 1e-6);
        }
    }

    /// Exact MVA and Buzen's convolution compute the same product-form
    /// solution by independent recursions, so on any single-chain network
    /// they must agree to rounding.
    #[test]
    fn exact_mva_matches_convolution(
        n in 1usize..40,
        demands in proptest::collection::vec(0.1f64..10.0, 1..5),
        think in 0.0f64..50.0,
    ) {
        let mut net = Network::new();
        let centers: Vec<usize> = (0..demands.len())
            .map(|i| net.add_center(format!("c{i}"), CenterKind::Queueing))
            .collect();
        let z = net.add_center("Z", CenterKind::Delay);
        let k = net.add_chain("jobs", n);
        for (&c, &d) in centers.iter().zip(&demands) {
            net.set_demand(k, c, d);
        }
        net.set_demand(k, z, think);
        let mva = net.solve_exact();
        let conv = solve_convolution(n, &demands, think);
        let rel = (conv.throughput - mva.throughput[k]).abs() / mva.throughput[k];
        prop_assert!(rel < 1e-9, "X: conv {} vs mva {}", conv.throughput, mva.throughput[k]);
        for (i, &c) in centers.iter().enumerate() {
            prop_assert!((conv.utilization[i] - mva.utilization[c]).abs() < 1e-9,
                "util {}: conv {} vs mva {}", i, conv.utilization[i], mva.utilization[c]);
            prop_assert!((conv.queue_len[i] - mva.queue_len[c]).abs() < 1e-6 * n as f64,
                "qlen {}: conv {} vs mva {}", i, conv.queue_len[i], mva.queue_len[c]);
        }
    }
}
