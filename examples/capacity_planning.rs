//! Capacity planning with the analytical model — the use case that
//! motivates an analytical model over a testbed: "what happens if we buy a
//! faster disk / add users?" answered in milliseconds instead of hours of
//! benchmarking.
//!
//! Scenario: node B's DEC RP06 (40 ms/block) is the system bottleneck.
//! We evaluate (a) upgrading it to match node A's RM05 (28 ms), (b) an
//! aggressive 15 ms drive, and (c) how many users each configuration
//! sustains before lock thrashing erodes the gain.
//!
//! ```sh
//! cargo run --release -p carat --example capacity_planning
//! ```

use carat::prelude::*;
use carat::workload::NodeParams;

fn params_with_disk_b(ms: f64) -> SystemParams {
    let mut p = SystemParams::default();
    p.nodes[1] = NodeParams {
        name: "B".into(),
        disk_io_ms: ms,
    };
    p
}

fn users(per_node: usize) -> WorkloadSpec {
    // Mixed read/update population, scaled.
    let lro = per_node / 2;
    let lu = per_node - lro;
    WorkloadSpec {
        name: format!("mix{per_node}"),
        users: vec![vec![(TxType::Lro, lro), (TxType::Lu, lu)]; 2],
    }
}

fn main() {
    println!("## Disk upgrade study (MB4, n = 8)");
    println!("| disk B (ms/block) | node A tx/s | node B tx/s | total |");
    println!("|-------------------|-------------|-------------|-------|");
    for disk_ms in [40.0, 28.0, 15.0] {
        let mut cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 8);
        cfg.params = params_with_disk_b(disk_ms);
        let r = Model::new(cfg).solve();
        if let Some(warning) = r.convergence.warning() {
            eprintln!("disk B {disk_ms} ms: {warning}");
        }
        println!(
            "| {disk_ms:17.0} |       {:5.2} |       {:5.2} | {:5.2} |",
            r.nodes[0].tx_per_s,
            r.nodes[1].tx_per_s,
            r.total_tx_per_s()
        );
    }

    println!("\n## Scaling the multiprogramming level (local mix, n = 8)");
    println!("| users/node | total tx/s | P(abort) LU | mean LU response (s) |");
    println!("|------------|------------|-------------|----------------------|");
    let mut prev_total = 0.0;
    let mut peak_users = 0;
    for per_node in [2usize, 4, 8, 12, 16, 24, 32] {
        let cfg = ModelConfig::new(users(per_node), 8);
        let r = Model::new(cfg).solve();
        if let Some(warning) = r.convergence.warning() {
            eprintln!("{per_node} users/node: {warning}");
        }
        let lu = &r.nodes[0].per_type[&TxType::Lu];
        println!(
            "| {per_node:10} |      {:5.2} |       {:4.1}% |               {:6.1} |",
            r.total_tx_per_s(),
            lu.p_a * 100.0,
            lu.response_ms / 1000.0
        );
        if r.total_tx_per_s() > prev_total {
            peak_users = per_node;
            prev_total = r.total_tx_per_s();
        }
    }
    println!(
        "\nThroughput stops improving around {peak_users} users/node — beyond that, \
         additional users only buy lock conflicts and deadlock rollbacks \
         (the paper's 'normalized throughput decreases as n increases' effect, \
         along the multiprogramming axis)."
    );
}
