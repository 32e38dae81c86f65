//! Pinned-output tests: the default solve path (acceleration off, exact
//! MVA) must keep producing **byte-identical** canonical JSON to the
//! fixtures captured before the accelerated solver landed.

use carat::model::{ModelConfig, ModelOptions};
use carat::workload::StandardWorkload;
use carat_bench::{chain_to_json, solve_chain, ModelPoint, N_SWEEP};

const WORKLOADS: [StandardWorkload; 4] = [
    StandardWorkload::Lb8,
    StandardWorkload::Mb4,
    StandardWorkload::Mb8,
    StandardWorkload::Ub6,
];

fn grid(mopts: &ModelOptions) -> Vec<Vec<ModelPoint>> {
    WORKLOADS
        .iter()
        .map(|&wl| {
            N_SWEEP
                .iter()
                .map(|&n| {
                    let mut p =
                        ModelPoint::new(format!("{wl}/n{n}"), ModelConfig::new(wl.spec(2), n));
                    p.opts = mopts.clone();
                    p
                })
                .collect()
        })
        .collect()
}

fn render(mopts: &ModelOptions, warm: bool) -> String {
    let mut points = Vec::new();
    let mut reports = Vec::new();
    for pts in grid(mopts) {
        let reps = if warm {
            solve_chain(&pts, true)
        } else {
            pts.iter()
                .flat_map(|p| solve_chain(std::slice::from_ref(p), false))
                .collect()
        };
        points.extend(pts);
        reports.extend(reps);
    }
    chain_to_json(&points, &reports)
}

#[test]
fn default_sweep_matches_pre_accel_baseline_bytes() {
    let defaults = ModelOptions::default();
    assert_eq!(
        render(&defaults, true),
        include_str!("data/sweep_baseline_warm.json"),
        "warm default sweep no longer byte-identical to the pinned baseline"
    );
    assert_eq!(
        render(&defaults, false),
        include_str!("data/sweep_baseline_cold.json"),
        "cold default sweep no longer byte-identical to the pinned baseline"
    );
}
