//! Pinned-output tests: the default solve path (acceleration off, exact
//! MVA) must keep producing **byte-identical** canonical JSON to the
//! fixtures captured before the accelerated solver landed.

use carat::model::ModelOptions;
use carat::workload::StandardWorkload;
use carat_bench::{chain_to_json, model_chain, solve_chain};

fn render(mopts: &ModelOptions, warm: bool) -> String {
    let mut points = Vec::new();
    let mut reports = Vec::new();
    for wl in StandardWorkload::ALL {
        let pts = model_chain(wl, mopts);
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
