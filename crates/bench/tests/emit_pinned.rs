//! Pinned-output tests of the model grid's canonical JSON. The oracle
//! path (acceleration off, exact MVA) must keep producing
//! **byte-identical** JSON to the fixtures captured before the
//! accelerated solver landed. The default path (Anderson mixing) is
//! pinned by an FNV-1a hash of the same JSON, warm and cold.

use carat::model::{Accel, ModelOptions};
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

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn accel_off_sweep_matches_pre_accel_baseline_bytes() {
    let off = ModelOptions {
        accel: Accel::Off,
        ..ModelOptions::default()
    };
    assert_eq!(
        render(&off, true),
        include_str!("data/sweep_baseline_warm.json"),
        "warm acceleration-off sweep no longer byte-identical to the pinned baseline"
    );
    assert_eq!(
        render(&off, false),
        include_str!("data/sweep_baseline_cold.json"),
        "cold acceleration-off sweep no longer byte-identical to the pinned baseline"
    );
}

#[test]
fn default_sweep_bytes_are_pinned() {
    let defaults = ModelOptions::default();
    let got = [
        fnv(render(&defaults, true).as_bytes()),
        fnv(render(&defaults, false).as_bytes()),
    ];
    assert_eq!(
        got,
        [PINNED_WARM, PINNED_COLD],
        "default sweep moved: warm {:016x}, cold {:016x}",
        got[0],
        got[1]
    );
}

/// FNV-1a of the default warm sweep's JSON.
const PINNED_WARM: u64 = 0x2a12_cad3_2df3_06f7;
/// FNV-1a of the default cold sweep's JSON.
const PINNED_COLD: u64 = 0x6da8_aaa8_d294_cd94;
