//! `exp` — every experiment of the reproduction behind one command line.
//!
//! ```sh
//! cargo run --release -p carat-bench --bin exp -- <experiment> [flags]
//! ```
//!
//! [`EXPERIMENTS`] lists the experiments: the paper's validation sweeps
//! (Figures 5–10, Tables 1–5), the model ablations, the extension
//! experiments, and the sweep-engine benchmark (`bench`). Each one that
//! simulates runs every point for a measured window of simulated time,
//! which `CARAT_MEASURE_MS` overrides. Every sweep runs on the
//! deterministic pool of `carat_bench::sweep`, so `--threads` and
//! `--sequential` change only the wall clock: the output is
//! byte-identical for every thread count. A bad command line prints
//! `error: …` and the usage text, and exits with status 2.

mod args;
mod bench;
mod extensions;
mod paper;
mod robustness;

use args::Args;

/// One experiment: its command-line name, its default measured window
/// (ms of simulated time per point; `None` when it runs no simulation
/// window), and its entry point. The entry point receives the parsed
/// arguments and the window in force: `CARAT_MEASURE_MS` if set, else the
/// default (0 when there is none).
pub type Experiment = (&'static str, Option<f64>, fn(&Args, f64));

/// The window of the paper sweeps and most extensions: 600 s per point.
const LONG: Option<f64> = Some(600_000.0);
/// The window of the α and partition sweeps: 300 s per point.
const SHORT: Option<f64> = Some(300_000.0);

/// Every experiment, in usage order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("all", LONG, |a, ms| paper::run(&paper::ALL, a, ms)),
    ("lb8", LONG, |a, ms| paper::run(&paper::LB8, a, ms)),
    ("mb4", LONG, |a, ms| paper::run(&paper::MB4, a, ms)),
    ("table1", None, paper::table1),
    ("table2", None, paper::table2),
    ("table3", LONG, |a, ms| paper::run(&paper::TABLE3, a, ms)),
    ("table4", LONG, |a, ms| paper::run(&paper::TABLE4, a, ms)),
    ("table5", LONG, |a, ms| paper::run(&paper::TABLE5, a, ms)),
    ("ablations", None, paper::ablations),
    ("cc", LONG, extensions::cc),
    ("comm", SHORT, extensions::comm),
    ("faults", LONG, robustness::faults),
    ("hotspot", LONG, extensions::hotspot),
    ("logdisk", LONG, extensions::logdisk),
    ("partition", SHORT, robustness::partition),
    ("phases", LONG, extensions::phases),
    ("victim", LONG, extensions::victim),
    ("bench", None, bench::run),
];

/// The usage text, with one line per [`EXPERIMENTS`] entry.
fn usage() -> String {
    let mut text = String::from(
        "usage: exp <experiment> [--threads N | --sequential] [--no-warm]\n       \
         exp bench [--emit | --emit-sim | --check-iters] [--out PATH]\n                 \
         [--reps R] [--shards K] [--accel off|anderson]\n\n\
         experiments and the simulated window of each point (CARAT_MEASURE_MS=<ms> sets it):\n",
    );
    for &(name, window_ms, _) in EXPERIMENTS {
        let window = window_ms.map_or("-".into(), |ms| format!("{:.0} s", ms / 1000.0));
        text += &format!("  {name:10} {window:>5}\n");
    }
    text + "\n\
        --threads N    sweep worker threads (0 means 1); output is byte-identical for every N\n\
        --sequential   same as --threads 1\n\
        --no-warm      solve every model point from a cold start\n\
        bench modes: timings into BENCH_sweep.json (or --out) and BENCH_sim.json by default;\n\
        --emit (model grid JSON, honours --accel), --emit-sim (replicated sim JSON, honours\n\
        --reps, default 3, and --shards), --check-iters (solver iteration gate)\n"
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let measure_ms = std::env::var("CARAT_MEASURE_MS").ok();
    let args = args::parse(&argv, measure_ms.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    let &(_, default_ms, run) = args.experiment;
    let window_ms = default_ms.map_or(0.0, |ms| args.measure_ms.unwrap_or(ms));
    run(&args, window_ms);
}
