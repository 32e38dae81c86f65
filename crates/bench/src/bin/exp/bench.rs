//! `exp bench`: the determinism and iteration gates over the reference
//! model grid and sim sweep. It times nothing; `benchmark/` is the
//! repository's only timing harness.
//!
//! Modes (exactly one is required):
//!
//! * **emit** (`--emit [--accel off|anderson] [--out PATH]`): solves the
//!   model grid (4 workloads × the n sweep) honouring the engine flags
//!   (`--threads N`, `--sequential`, `--no-warm`) and the solver flag
//!   (`--accel`, Anderson by default) and writes the canonical JSON
//!   result rows. CI runs this at `--threads 4` and `--sequential` — warm,
//!   warm with acceleration off (the oracle), and cold — and
//!   byte-compares each pair of files;
//! * **emit-sim** (`--emit-sim [--reps R] [--out PATH]`): runs R
//!   replications of every reference sim point on the deterministic pool
//!   and writes the canonical replicated JSON. CI byte-compares
//!   `--threads 4` against `--sequential`;
//! * **check-iters** (`--check-iters`): iteration-count regression gate —
//!   resolves the grid cold and fails if any reference point needs more
//!   than 110% of its recorded cold iteration count, or if Anderson
//!   acceleration saves less than 30% of the total.

use carat::model::{Accel, ModelOptions, ModelReport};
use carat::sim::SimConfig;
use carat::workload::StandardWorkload;
use carat_bench::{
    chain_to_json, model_chain, replicated_to_json, run_replications, run_tasks, solve_chain,
    ModelPoint, SweepOptions,
};

use crate::args::{Args, Mode};

/// Reference simulator sweep of the sim determinism gate: the light- and
/// medium-load base workloads at three transaction sizes each.
const SIM_POINTS: [(StandardWorkload, u32); 6] = [
    (StandardWorkload::Lb8, 4),
    (StandardWorkload::Lb8, 8),
    (StandardWorkload::Lb8, 16),
    (StandardWorkload::Mb8, 4),
    (StandardWorkload::Mb8, 8),
    (StandardWorkload::Mb8, 16),
];

/// Base seed of the reference sim sweep.
const SIM_SEED: u64 = 7;

/// Default replications per point in `--emit-sim`.
pub const SIM_REPS: u32 = 3;

/// The reference sim sweep: 10 s warm-up, 120 s measured, seed
/// [`SIM_SEED`].
fn sim_points() -> (Vec<String>, Vec<SimConfig>) {
    SIM_POINTS
        .iter()
        .map(|&(wl, n)| {
            let mut cfg = SimConfig::new(wl.spec(2), n, SIM_SEED);
            cfg.warmup_ms = 10_000.0;
            cfg.measure_ms = 120_000.0;
            (format!("{wl}/n{n}"), cfg)
        })
        .unzip()
}

/// Cold iteration counts of the reference grid without acceleration, in
/// workload-then-n grid order, recorded when the solver's acceleration
/// landed. The `--check-iters` gate fails when any point regresses past
/// +10% of its entry here.
const REFERENCE_COLD_ITERS: [usize; 20] = [
    32, 32, 34, 37, 36, // LB8
    34, 39, 42, 43, 43, // MB4
    39, 43, 45, 50, 69, // MB8
    34, 38, 40, 41, 54, // UB6
];

/// Default model options with fixed-point acceleration `accel`.
fn with_accel(accel: Accel) -> ModelOptions {
    ModelOptions {
        accel,
        ..ModelOptions::default()
    }
}

/// Solves the whole grid under the given options and returns every point
/// and its report, in workload-then-n order. Warm sweeps keep each
/// workload's chain in one task (the warm-start neighbor is the previous
/// point of the chain); cold sweeps have no such dependency, so every
/// point becomes its own task.
fn solve_grid(opts: &SweepOptions, mopts: &ModelOptions) -> (Vec<ModelPoint>, Vec<ModelReport>) {
    let grid: Vec<Vec<ModelPoint>> = StandardWorkload::ALL
        .iter()
        .map(|&wl| model_chain(wl, mopts))
        .collect();
    if opts.warm {
        let solved = run_tasks(grid, opts, |_, pts| {
            let reports = solve_chain(&pts, true);
            (pts, reports)
        });
        let (points, reports): (Vec<_>, Vec<_>) = solved.into_iter().unzip();
        (points.concat(), reports.concat())
    } else {
        let points = grid.concat();
        let reports = run_tasks(points.clone(), opts, |_, p| {
            solve_chain(std::slice::from_ref(&p), false)
                .pop()
                .expect("one report per point")
        });
        (points, reports)
    }
}

fn write_or_print(json: &str, out: Option<&str>) {
    match out {
        Some(path) => {
            std::fs::write(path, json).expect("write emit file");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

/// The `--check-iters` regression gate (see module docs). Exits non-zero
/// on any regression so CI can call it directly.
fn check_iters() {
    let seq = SweepOptions {
        warm: false,
        ..SweepOptions::sequential()
    };
    let cold = |accel| solve_grid(&seq, &with_accel(accel));
    let (points, plain) = cold(Accel::Off);
    assert_eq!(plain.len(), REFERENCE_COLD_ITERS.len());
    let mut failed = false;
    for ((p, r), &reference) in points.iter().zip(&plain).zip(&REFERENCE_COLD_ITERS) {
        let limit = (reference as f64 * 1.10).floor() as usize;
        if r.convergence.iterations > limit {
            eprintln!(
                "ITER REGRESSION {}: {} cold iterations (recorded {reference}, limit {limit})",
                p.label, r.convergence.iterations
            );
            failed = true;
        }
    }
    let reference_total: usize = REFERENCE_COLD_ITERS.iter().sum();
    let total: usize = cold(Accel::Anderson)
        .1
        .iter()
        .map(|r| r.convergence.iterations)
        .sum();
    let saved = 1.0 - total as f64 / reference_total as f64;
    println!(
        "anderson acceleration, {total} iterations vs {reference_total} recorded cold \
         ({:.1}% saved)",
        saved * 100.0
    );
    if total as f64 > 0.70 * reference_total as f64 {
        eprintln!(
            "ACCEL REGRESSION (anderson) saved only {:.1}% (< 30%)",
            saved * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "check-iters: {} points within +10% of recorded cold counts, \
         acceleration saves >= 30%: OK",
        plain.len()
    );
}

/// Runs the mode `args.mode` selects; the parser guarantees there is one.
pub fn run(args: &Args, _: f64) {
    let out = args.out.as_deref();
    match args
        .mode
        .expect("the parser requires a mode for `exp bench`")
    {
        Mode::Emit => {
            let (points, reports) = solve_grid(&args.sweep, &with_accel(args.accel));
            write_or_print(&chain_to_json(&points, &reports), out);
        }
        Mode::EmitSim => {
            let (labels, cfgs) = sim_points();
            let reports = run_replications(cfgs, args.reps, &args.sweep);
            write_or_print(&replicated_to_json(&labels, &reports), out);
        }
        Mode::CheckIters => check_iters(),
    }
}
