//! Criterion benchmarks — one group per paper artifact.
//!
//! Each group benchmarks regenerating that artifact's *model* series (the
//! analytical solve across the n sweep) plus one representative simulated
//! measurement point. The heavy multi-seed measurement sweeps live in the
//! `exp` binary; these benchmarks establish that the solver is fast
//! enough to be used interactively (the paper's whole point: an analytical
//! model answers in milliseconds what a testbed run answers in hours).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use carat::model::{Model, ModelConfig};
use carat::sim::{Sim, SimConfig};
use carat::workload::StandardWorkload;

fn model_point(wl: StandardWorkload, n: u32) -> f64 {
    let r = Model::new(ModelConfig::new(wl.spec(2), n)).solve();
    r.nodes[0].tx_per_s + r.nodes[1].tx_per_s
}

fn sim_point(wl: StandardWorkload, n: u32) -> f64 {
    let mut cfg = SimConfig::new(wl.spec(2), n, 7);
    cfg.warmup_ms = 2_000.0;
    cfg.measure_ms = 20_000.0;
    Sim::new(cfg).expect("valid config").run().total_tx_per_s()
}

fn bench_workload(c: &mut Criterion, group_name: &str, wl: StandardWorkload) {
    let mut g = c.benchmark_group(group_name);
    for n in [4u32, 12, 20] {
        g.bench_with_input(BenchmarkId::new("model", n), &n, |b, &n| {
            b.iter(|| black_box(model_point(wl, n)))
        });
    }
    g.bench_with_input(BenchmarkId::new("sim_20s", 8), &8u32, |b, &n| {
        b.iter(|| black_box(sim_point(wl, n)))
    });
    g.finish();
}

/// Figures 5–7: LB8 series.
fn fig5_7_lb8(c: &mut Criterion) {
    bench_workload(c, "fig5_7_lb8", StandardWorkload::Lb8);
}

/// Figures 8–10 and Table 5: MB4 series.
fn fig8_10_table5_mb4(c: &mut Criterion) {
    bench_workload(c, "fig8_10_table5_mb4", StandardWorkload::Mb4);
}

/// Table 3: MB8 series.
fn table3_mb8(c: &mut Criterion) {
    bench_workload(c, "table3_mb8", StandardWorkload::Mb8);
}

/// Table 4: UB6 series.
fn table4_ub6(c: &mut Criterion) {
    bench_workload(c, "table4_ub6", StandardWorkload::Ub6);
}

/// Table 1: building the transition matrix + solving the traffic
/// equations.
fn table1_visit_counts(c: &mut Criterion) {
    use carat::model::phases::Hazards;
    use carat::model::TransitionMatrix;
    c.bench_function("table1_visit_counts", |b| {
        b.iter(|| {
            let m = TransitionMatrix::local_or_coordinator(
                black_box(8.0),
                4.0,
                4.0,
                3.99,
                Hazards {
                    pb: 0.05,
                    pd: 0.02,
                    pra: 0.01,
                },
            );
            black_box(m.visit_counts())
        })
    });
}

criterion_group! {
    name = artifacts;
    config = Criterion::default().sample_size(10);
    targets = fig5_7_lb8, fig8_10_table5_mb4, table3_mb8, table4_ub6, table1_visit_counts
}
criterion_main!(artifacts);
