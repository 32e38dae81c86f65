//! # carat-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6). The
//! `exp` binary runs one experiment per invocation
//! (`cargo run --release -p carat-bench --bin exp -- <experiment> [flags]`;
//! run it with no arguments for the list). Each paper sweep covers the
//! transaction sizes n ∈ {4, 8, 12, 16, 20} for one workload, runs the
//! **analytical model** (`carat-model`) and the **testbed simulator**
//! (`carat-sim`, the stand-in for the VAX testbed "measurement") with
//! identical Table 2 parameters, and prints the paper's rows (TR-XPUT,
//! Total-CPU, Total-DIO, record throughput, per-type throughput) side by
//! side. The same binary holds the extension experiments and the
//! sweep-engine benchmark (`exp bench`).
//!
//! The `benches/` directory holds the matching criterion benchmarks (one
//! group per paper artifact, plus component microbenchmarks).

pub mod replicate;
pub mod sweep;

use carat::model::{ModelConfig, ModelOptions};
use carat::sim::{Sim, SimConfig, SimReport};
use carat::workload::{StandardWorkload, TxType};

pub use replicate::{
    rep_seed, replicated_to_json, run_replications, splitmix64, MetricCi, ReplicatedReport,
};
pub use sweep::{
    chain_to_json, json_f64, run_tasks, run_tasks_timed, solve_chain, ModelPoint, PoolStats,
    SweepOptions, WorkerStats,
};

/// Transaction sizes swept in the paper's evaluation.
pub const N_SWEEP: [u32; 5] = [4, 8, 12, 16, 20];

/// Seeds used for the simulated "measurements" (averaged).
pub const SEEDS: [u64; 3] = [7, 1987, 424242];

/// One warm-startable model chain: `wl` on two sites over ascending
/// [`N_SWEEP`], every point solved with `opts`. One chain per
/// [`StandardWorkload::ALL`] entry is the reference grid that
/// `exp bench --emit` prints and the pinned fixtures hold.
pub fn model_chain(wl: StandardWorkload, opts: &ModelOptions) -> Vec<ModelPoint> {
    N_SWEEP
        .iter()
        .map(|&n| ModelPoint {
            label: format!("{wl}/n{n}"),
            cfg: ModelConfig::new(wl.spec(2), n),
            opts: opts.clone(),
        })
        .collect()
}

/// One node's headline metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics {
    /// Committed transactions per second (TR-XPUT).
    pub xput: f64,
    /// CPU utilization (Total-CPU).
    pub cpu: f64,
    /// Disk I/O rate in granules/s (Total-DIO).
    pub dio: f64,
    /// Record throughput in records/s (the normalized throughput of the
    /// figures).
    pub rec: f64,
}

impl Metrics {
    fn add(&mut self, other: Metrics) {
        self.xput += other.xput;
        self.cpu += other.cpu;
        self.dio += other.dio;
        self.rec += other.rec;
    }

    fn scale(&mut self, f: f64) {
        self.xput *= f;
        self.cpu *= f;
        self.dio *= f;
        self.rec *= f;
    }
}

/// One model-vs-measurement row: workload × n × node.
#[derive(Debug, Clone)]
pub struct Row {
    /// Transaction size n.
    pub n: u32,
    /// Node index (0 = A, 1 = B).
    pub node: usize,
    /// Node label.
    pub node_name: String,
    /// Simulated measurement (mean over [`SEEDS`]).
    pub sim: Metrics,
    /// Model prediction.
    pub model: Metrics,
    /// Per-type simulated throughput (tx/s).
    pub sim_per_type: Vec<(TxType, f64)>,
    /// Per-type model throughput (tx/s).
    pub model_per_type: Vec<(TxType, f64)>,
}

/// Runs the simulator once.
pub fn run_sim(wl: StandardWorkload, n: u32, seed: u64, measure_ms: f64) -> SimReport {
    let mut cfg = SimConfig::new(wl.spec(2), n, seed);
    cfg.warmup_ms = 120_000.0;
    cfg.measure_ms = measure_ms;
    Sim::new(cfg).expect("valid config").run()
}

/// Full sweep of one workload: one warm-start model chain over
/// [`N_SWEEP`] (cold when `opts.warm` is off), then one simulator run per
/// (n, seed) as independent tasks on `opts.threads` workers. Results are
/// byte-identical for every thread count and partition seed.
pub fn sweep_with(wl: StandardWorkload, measure_ms: f64, opts: &SweepOptions) -> Vec<Row> {
    let models = solve_chain(&model_chain(wl, &ModelOptions::default()), opts.warm);
    let grid: Vec<(u32, u64)> = N_SWEEP
        .iter()
        .flat_map(|&n| SEEDS.iter().map(move |&seed| (n, seed)))
        .collect();
    let reports = run_tasks(grid, opts, |_, (n, seed)| run_sim(wl, n, seed, measure_ms));

    let mut rows = Vec::new();
    for (i, &n) in N_SWEEP.iter().enumerate() {
        let model = &models[i];
        let sims = &reports[i * SEEDS.len()..(i + 1) * SEEDS.len()];
        for node in 0..2 {
            let mut sim_m = Metrics::default();
            let mut sim_types: std::collections::BTreeMap<TxType, f64> = Default::default();
            for r in sims {
                let nr = &r.nodes[node];
                sim_m.add(Metrics {
                    xput: nr.tx_per_s,
                    cpu: nr.cpu_util,
                    dio: nr.dio_per_s,
                    rec: nr.records_per_s,
                });
                for (ty, tr) in &nr.per_type {
                    *sim_types.entry(*ty).or_default() += tr.xput_per_s;
                }
            }
            sim_m.scale(1.0 / sims.len() as f64);
            let sim_per_type = sim_types
                .into_iter()
                .map(|(ty, x)| (ty, x / sims.len() as f64))
                .collect();

            let mn = &model.nodes[node];
            let model_m = Metrics {
                xput: mn.tx_per_s,
                cpu: mn.cpu_util,
                dio: mn.dio_per_s,
                rec: mn.records_per_s,
            };
            let model_per_type = mn
                .per_type
                .iter()
                .map(|(ty, tr)| (*ty, tr.xput_per_s))
                .collect();
            rows.push(Row {
                n,
                node,
                node_name: model.nodes[node].name.clone(),
                sim: sim_m,
                model: model_m,
                sim_per_type,
                model_per_type,
            });
        }
    }
    rows
}

/// Prints a Table 3/4-style model-vs-measurement table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n## {title}");
    println!("|    |      | Measurement (simulated testbed) | Model |");
    println!("| n  | Node | TR-XPUT | Total-CPU | Total-DIO | TR-XPUT | Total-CPU | Total-DIO |");
    println!("|----|------|---------|-----------|-----------|---------|-----------|-----------|");
    for r in rows {
        println!(
            "| {:2} | {}    |    {:4.2} |      {:4.2} |      {:4.1} |    {:4.2} |      {:4.2} |      {:4.1} |",
            r.n, r.node_name, r.sim.xput, r.sim.cpu, r.sim.dio, r.model.xput, r.model.cpu, r.model.dio
        );
    }
}

/// Prints figure-style series (record throughput / CPU / DIO vs n) for one
/// node.
pub fn print_figures(title: &str, rows: &[Row], node: usize) {
    println!("\n## {title}");
    println!("| n  | rec-xput sim | rec-xput model | CPU sim | CPU model | DIO sim | DIO model |");
    println!("|----|--------------|----------------|---------|-----------|---------|-----------|");
    for r in rows.iter().filter(|r| r.node == node) {
        println!(
            "| {:2} |         {:5.1} |          {:5.1} |    {:4.2} |      {:4.2} |   {:5.1} |     {:5.1} |",
            r.n, r.sim.rec, r.model.rec, r.sim.cpu, r.model.cpu, r.sim.dio, r.model.dio
        );
    }
}

/// Prints the Table 5-style per-type throughput comparison.
pub fn print_per_type(title: &str, rows: &[Row]) {
    println!("\n## {title}");
    println!("| n  | Type | sim A | sim B | model A | model B |");
    println!("|----|------|-------|-------|---------|---------|");
    for &n in &N_SWEEP {
        for ty in TxType::ALL {
            let get = |node: usize, from_model: bool| -> Option<f64> {
                let r = rows.iter().find(|r| r.n == n && r.node == node)?;
                let list = if from_model {
                    &r.model_per_type
                } else {
                    &r.sim_per_type
                };
                list.iter().find(|(t, _)| *t == ty).map(|(_, x)| *x)
            };
            let (Some(sa), Some(sb), Some(ma), Some(mb)) =
                (get(0, false), get(1, false), get(0, true), get(1, true))
            else {
                continue;
            };
            println!(
                "| {n:2} | {:4} |  {sa:4.2} |  {sb:4.2} |    {ma:4.2} |    {mb:4.2} |",
                ty.label()
            );
        }
    }
}

/// Shape checks shared by the integration tests and the `exp` paper
/// sweeps: the headline qualitative findings of the paper that any
/// reproduction must show.
pub fn shape_violations(rows: &[Row]) -> Vec<String> {
    let mut problems = Vec::new();
    let at = |n: u32, node: usize| rows.iter().find(|r| r.n == n && r.node == node);

    // 1. Node A (faster disk) sustains at least node B's throughput.
    for &n in &N_SWEEP {
        if let (Some(a), Some(b)) = (at(n, 0), at(n, 1)) {
            if a.sim.xput + 0.02 < b.sim.xput {
                problems.push(format!("sim: node B beats node A at n={n}"));
            }
            if a.model.xput + 0.02 < b.model.xput {
                problems.push(format!("model: node B beats node A at n={n}"));
            }
        }
    }
    // 2. Normalized record throughput eventually *decreases* with n
    //    (deadlock/rollback growth): n=20 below n=8.
    for node in 0..2 {
        if let (Some(r8), Some(r20)) = (at(8, node), at(20, node)) {
            if r20.sim.rec >= r8.sim.rec {
                problems.push(format!("sim: no record-throughput decline at node {node}"));
            }
            if r20.model.rec >= r8.model.rec {
                problems.push(format!(
                    "model: no record-throughput decline at node {node}"
                ));
            }
        }
    }
    // 3. Model and measurement agree within a 2× band everywhere (the
    //    paper's own worst deviation is ~20 %; ours is looser but must stay
    //    the same order of magnitude).
    for r in rows {
        let rel = (r.model.xput - r.sim.xput).abs() / r.sim.xput.max(1e-9);
        if rel > 1.0 {
            problems.push(format!(
                "model off by {:.0}% at n={}, node {}",
                rel * 100.0,
                r.n,
                r.node_name
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat::model::Model;

    #[test]
    fn quick_sweep_row_structure() {
        // Tiny windows keep this test fast; statistical quality is not the
        // point here.
        let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(2), 4, 3);
        cfg.warmup_ms = 5_000.0;
        cfg.measure_ms = 30_000.0;
        let rep = Sim::new(cfg).expect("valid config").run();
        assert_eq!(rep.nodes.len(), 2);
        let model = Model::new(ModelConfig::new(StandardWorkload::Mb4.spec(2), 4)).solve();
        assert_eq!(model.nodes.len(), 2);
        assert!(model.convergence.converged);
    }

    #[test]
    fn metrics_average() {
        let mut m = Metrics::default();
        m.add(Metrics {
            xput: 2.0,
            cpu: 0.4,
            dio: 30.0,
            rec: 20.0,
        });
        m.add(Metrics {
            xput: 4.0,
            cpu: 0.6,
            dio: 40.0,
            rec: 30.0,
        });
        m.scale(0.5);
        assert!((m.xput - 3.0).abs() < 1e-12);
        assert!((m.cpu - 0.5).abs() < 1e-12);
    }
}
