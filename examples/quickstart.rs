//! Quickstart: predict a distributed transaction workload analytically,
//! then check the prediction against the simulated testbed.
//!
//! ```sh
//! cargo run --release -p carat --example quickstart
//! ```

use carat::prelude::*;

fn main() {
    // The MB4 workload of the paper: at each of the two nodes, one user
    // each of local read-only, local update, distributed read-only, and
    // distributed update transactions; every transaction issues 8 requests
    // of 4 records.
    let workload = StandardWorkload::Mb4.spec(2);
    let n_requests = 8;

    // 1. Analytical prediction — milliseconds of CPU time.
    let model = Model::new(ModelConfig::new(workload.clone(), n_requests)).solve();
    if let Some(warning) = model.convergence.warning() {
        eprintln!("{warning}");
    }
    println!(
        "analytical model ({} fixed-point iterations):",
        model.convergence.iterations
    );
    for node in &model.nodes {
        println!(
            "  node {}: {:.2} tx/s, CPU {:.0}%, disk {:.0}%, {:.1} I/O-s",
            node.name,
            node.tx_per_s,
            node.cpu_util * 100.0,
            node.disk_util * 100.0,
            node.dio_per_s
        );
        for (ty, t) in &node.per_type {
            println!(
                "    {ty}: {:.3} tx/s, response {:.1} s, P(abort) {:.1}%, {:.2} submissions/commit",
                t.xput_per_s,
                t.response_ms / 1000.0,
                t.p_a * 100.0,
                t.n_s
            );
        }
    }

    // 2. Simulated "measurement" — ten simulated minutes of the CARAT
    //    testbed (2PL + WAL + 2PC against a real block store).
    let mut cfg = SimConfig::new(workload, n_requests, 42);
    cfg.warmup_ms = 60_000.0;
    cfg.measure_ms = 600_000.0;
    let sim = Sim::new(cfg).expect("valid config").run();
    println!("\nsimulated testbed (10 simulated minutes):");
    for node in &sim.nodes {
        println!(
            "  node {}: {:.2} tx/s, CPU {:.0}%, disk {:.0}%, {:.1} I/O-s",
            node.name,
            node.tx_per_s,
            node.cpu_util * 100.0,
            node.disk_util * 100.0,
            node.dio_per_s
        );
    }
    println!(
        "  deadlocks: {} local, {} global ({} probe hops); Pb = {:.3}",
        sim.local_deadlocks,
        sim.global_deadlocks,
        sim.probe_hops,
        sim.blocking_probability()
    );

    // 3. Compare.
    println!("\nmodel vs measurement (TR-XPUT):");
    for i in 0..2 {
        let m = model.nodes[i].tx_per_s;
        let s = sim.nodes[i].tx_per_s;
        println!(
            "  node {}: model {:.2} vs measured {:.2}  ({:+.0}%)",
            model.nodes[i].name,
            m,
            s,
            (m - s) / s * 100.0
        );
    }
}
