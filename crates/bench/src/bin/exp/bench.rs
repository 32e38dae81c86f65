//! `exp bench`: the sweep-engine benchmark and determinism harness.
//!
//! Modes:
//!
//! * **bench** (default): times the full-grid model sweep (4 workloads ×
//!   the n sweep) cold-sequential, warm-sequential, cold-parallel and
//!   warm-parallel, verifies that every variant renders byte-identical
//!   canonical JSON where it must, times the solver-variant matrix
//!   (acceleration off/Anderson × 1/N threads), and writes everything —
//!   including per-worker pool telemetry and per-point accelerated
//!   iteration counts — to `BENCH_sweep.json` (or `--out PATH`); then runs
//!   the **simulator section**: the reference LB8/MB8 sweep timed for
//!   events/sec against the recorded pre-fast-path baseline (written to
//!   `BENCH_sim.json`) plus a parallel-vs-sequential replication
//!   determinism check and two shard-scaling matrices (byte-identity
//!   asserted, events/sec and speedup recorded): a site-separable one
//!   (8-site LB8, lookahead ∞, labelled `"decomposed"`) and a cross-site
//!   coupled one (8-site MB4 with α > 0 and probes, null-message ratio
//!   recorded from the shard telemetry);
//! * **emit** (`--emit [--out PATH]`): solves the same model grid
//!   honouring the engine flags (`--threads N`, `--sequential`,
//!   `--no-warm`) and the solver flag (`--accel off|anderson`) and writes
//!   the canonical JSON result rows. CI runs this twice — `--threads 4`
//!   and `--sequential`, with and without acceleration — and
//!   byte-compares the files;
//! * **emit-sim** (`--emit-sim [--reps R] [--shards K] [--out PATH]`):
//!   runs R replications of every reference sim point on the
//!   deterministic pool and writes the canonical replicated JSON. CI
//!   byte-compares `--threads 4` against `--sequential`;
//! * **check-iters** (`--check-iters`): iteration-count regression gate —
//!   resolves the grid cold and fails if any reference point needs more
//!   than 110% of its recorded cold iteration count, or if Anderson
//!   acceleration saves less than 30% of the total.
//!
//! Wall-clock numbers vary run to run; the JSON *result rows* may not.

use std::time::Instant;

use carat::model::{Accel, ConvergenceInfo, ModelOptions};
use carat::obs::{shardstats, CounterRegistry, MetricsConfig, ShardStatsSnapshot};
use carat::sim::{DeadlockMode, Sim, SimConfig};
use carat::workload::{StandardWorkload, SystemParams};
use carat_bench::{
    chain_to_json, json_f64, model_chain, replicated_to_json, run_replications, run_tasks_timed,
    solve_chain, ModelPoint, PoolStats, SweepOptions,
};

use crate::args::{Args, Mode};

/// Benchmark repetitions per variant (minimum wall clock is reported).
const REPS: usize = 5;

/// Reference simulator sweep for the events/sec benchmark and the sim
/// determinism gate: the light- and medium-load base workloads at three
/// transaction sizes each.
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

/// Default replications per point in `--emit-sim` and the determinism
/// check.
pub const SIM_REPS: u32 = 3;

/// Events/sec of the engine *before* the fast path (slab store, in-place
/// storage I/O, fx-hashed tables, dense phase accumulator) on exactly this
/// sweep and protocol, measured on the reference machine when the fast
/// path landed. The acceptance bar is 2× this.
const BASELINE_EVENTS_PER_SEC: f64 = 1.90e6;

/// The reference sim sweep: 10 s warm-up, 120 s measured, seed
/// [`SIM_SEED`]. `shards` sets the engine's worker-thread count on every
/// point — the results are byte-identical for every value.
fn sim_points(shards: usize) -> (Vec<String>, Vec<SimConfig>) {
    SIM_POINTS
        .iter()
        .map(|&(wl, n)| {
            let mut cfg = SimConfig::new(wl.spec(2), n, SIM_SEED);
            cfg.warmup_ms = 10_000.0;
            cfg.measure_ms = 120_000.0;
            cfg.shards = shards;
            (format!("{wl}/n{n}"), cfg)
        })
        .unzip()
}

/// Shard-scaling scenario: an 8-site LB8 cluster (all-local users, so the
/// run is site-separable) at the reference transaction size.
const SHARD_SITES: usize = 8;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn shard_scenario(shards: usize) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(SHARD_SITES), 8, SIM_SEED);
    cfg.params = SystemParams::with_sites(SHARD_SITES);
    cfg.warmup_ms = 10_000.0;
    cfg.measure_ms = 120_000.0;
    cfg.shards = shards;
    cfg
}

/// `x` rounded to `digits` decimals, as canonical JSON.
fn json_round(x: f64, digits: i32) -> String {
    let scale = 10f64.powi(digits);
    json_f64((x * scale).round() / scale)
}

/// Times the shard-scaling matrix, asserts byte-identical reports for
/// every shard count, and returns the `"shards"` JSON section for
/// `BENCH_sim.json`. Scaling is bounded by the host's cores, so the core
/// count is recorded next to the measurements.
fn bench_shards() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = Sim::new(shard_scenario(1))
        .expect("valid shard scenario")
        .run();
    let mut rows = Vec::new();
    println!(
        "\n## Shard scaling (LB8 x {SHARD_SITES} sites, n=8, {cores} host cores, \
         best of {REPS})"
    );
    let mut base_eps = 0.0;
    for &shards in &SHARD_COUNTS {
        let mut best_ms = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let report = Sim::new(shard_scenario(shards)).expect("valid").run();
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(
                report, reference,
                "shards={shards} diverged from the single-shard report"
            );
        }
        let eps = reference.events as f64 / (best_ms / 1000.0);
        if shards == 1 {
            base_eps = eps;
        }
        let speedup = eps / base_eps;
        println!(
            "  shards={shards}  {best_ms:9.2} ms  {eps:12.0} events/s  \
             ({speedup:.2}x vs shards=1)"
        );
        rows.push(format!(
            "      {{\"shards\": {shards}, \"wall_ms\": {}, \"events_per_sec\": {}, \
             \"speedup_vs_1\": {}}}",
            json_round(best_ms, 3),
            json_round(eps, 0),
            json_round(speedup, 3),
        ));
    }
    println!("  reports byte-identical across shard counts: OK");
    format!(
        "{{\n    \"workload\": \"LB8/n8\",\n    \"sites\": {SHARD_SITES},\n    \
         \"engine\": \"decomposed\",\n    \"cores\": {cores},\n    \"events\": {},\n    \
         \"matrix\": [\n{}\n    ]\n  }}",
        reference.events,
        rows.join(",\n"),
    )
}

/// Cross-site shard-scaling scenario: the paper's mixed MB4 workload
/// (per node 1 LRO + 1 LU + 1 DRO + 1 DU) on an 8-site cluster with a
/// positive network delay and probe-based global deadlock detection.
/// Coupled-engine eligible: the shards synchronize through the
/// conservative horizon protocol (lookahead α) instead of running
/// independent per-site simulations.
const XSITE_SITES: usize = 8;
const XSITE_ALPHA_MS: f64 = 5.0;

fn xsite_scenario(shards: usize) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(XSITE_SITES), 8, SIM_SEED);
    cfg.params = SystemParams::with_sites(XSITE_SITES);
    cfg.params.comm_delay_ms = XSITE_ALPHA_MS;
    cfg.deadlock_mode = DeadlockMode::Probes;
    cfg.warmup_ms = 5_000.0;
    cfg.measure_ms = 60_000.0;
    cfg.shards = shards;
    cfg
}

/// Times the cross-site (coupled-engine) shard matrix, asserts
/// byte-identical reports for every shard count, and returns the
/// `"shards_xsite"` JSON section for `BENCH_sim.json`. On top of the
/// wall-clock numbers it records the conservative protocol's overhead —
/// the null-message (eventless clock publication) ratio per payload
/// message and the busy/stall wall-clock split — as a scoped
/// `shardstats` delta of the *fastest* repetition alone, so one cell's
/// traffic never bleeds into another's numbers (and the section stays
/// correct even if other code in the process touched the registry).
fn bench_shards_xsite() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probe = xsite_scenario(1);
    assert!(
        carat::sim::shard::coupled_eligible(&probe) && !carat::sim::shard::decomposable(&probe),
        "the cross-site scenario must take the coupled engine"
    );
    let reference = Sim::new(probe).expect("valid xsite scenario").run();
    let mut rows = Vec::new();
    println!(
        "\n## Cross-site shard scaling (MB4 x {XSITE_SITES} sites, n=8, \
         alpha={XSITE_ALPHA_MS} ms, probes, {cores} host cores, best of {REPS})"
    );
    let mut base_eps = 0.0;
    for &shards in &SHARD_COUNTS {
        let mut best_ms = f64::INFINITY;
        let mut best_stats = ShardStatsSnapshot::default();
        for _ in 0..REPS {
            let scope = shardstats::begin_run();
            let t0 = Instant::now();
            let report = Sim::new(xsite_scenario(shards)).expect("valid").run();
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            let stats = scope.finish();
            if ms < best_ms {
                best_ms = ms;
                best_stats = stats;
            }
            assert_eq!(
                report, reference,
                "xsite shards={shards} diverged from the single-shard report"
            );
        }
        let eps = reference.events as f64 / (best_ms / 1000.0);
        if shards == 1 {
            base_eps = eps;
        }
        let speedup = eps / base_eps;
        let null_ratio = best_stats.null_message_ratio();
        let busy_ms = best_stats.busy_ns as f64 / 1e6;
        let stall_ms = best_stats.stall_ns as f64 / 1e6;
        let stall_pct = if busy_ms + stall_ms > 0.0 {
            100.0 * stall_ms / (busy_ms + stall_ms)
        } else {
            0.0
        };
        println!(
            "  shards={shards}  {best_ms:9.2} ms  {eps:12.0} events/s  \
             ({speedup:.2}x vs shards=1, {null_ratio:.2} null msgs/payload, \
             {stall_pct:.0}% stalled)"
        );
        rows.push(format!(
            "      {{\"shards\": {shards}, \"wall_ms\": {}, \"events_per_sec\": {}, \
             \"speedup_vs_1\": {}, \"messages\": {}, \"null_advances\": {}, \
             \"null_message_ratio\": {}, \"busy_ms\": {}, \"stall_ms\": {}, \
             \"stall_pct\": {}}}",
            json_round(best_ms, 3),
            json_round(eps, 0),
            json_round(speedup, 3),
            best_stats.messages,
            best_stats.null_advances,
            json_round(null_ratio, 3),
            json_round(busy_ms, 3),
            json_round(stall_ms, 3),
            json_round(stall_pct, 1),
        ));
    }
    println!("  reports byte-identical across shard counts: OK");
    format!(
        "{{\n    \"workload\": \"MB4/n8\",\n    \"sites\": {XSITE_SITES},\n    \
         \"engine\": \"coupled\",\n    \"alpha_ms\": {},\n    \"cores\": {cores},\n    \
         \"events\": {},\n    \"net_messages\": {},\n    \"matrix\": [\n{}\n    ]\n  }}",
        json_f64(XSITE_ALPHA_MS),
        reference.events,
        reference.net_messages,
        rows.join(",\n"),
    )
}

/// Sample cadence of the metrics-overhead benchmark, milliseconds of sim
/// time.
const METRICS_SAMPLE_MS: f64 = 10.0;

/// Times the metrics recorder's cost on the reference sim sweep — every
/// [`SIM_POINTS`] point run with the recorder off and again sampling
/// every [`METRICS_SAMPLE_MS`] — and returns the `"metrics_overhead"`
/// JSON section for `BENCH_sim.json`. Also the on-path neutrality gate:
/// each report must be byte-identical whether or not the recorder ran.
///
/// The wall overhead is dominated by sample *volume*, not by the
/// per-event hook: the reference workloads run a couple of hundred
/// events per sim-second, while the 10 ms cadence emits a few thousand
/// sample points per sim-second. The per-sample cost (`ns_per_sample`)
/// is the figure that transfers to other cadences and workloads; the
/// disabled path is one `Option` branch per event and is covered by the
/// byte-identity gates against the metrics-free baseline.
fn bench_metrics_overhead() -> String {
    let mk = |metrics: bool| {
        let (_, mut cfgs) = sim_points(1);
        if metrics {
            for cfg in &mut cfgs {
                cfg.metrics = Some(MetricsConfig::new(METRICS_SAMPLE_MS));
            }
        }
        cfgs
    };
    let references: Vec<_> = mk(false)
        .into_iter()
        .map(|cfg| Sim::new(cfg).expect("valid reference config").run())
        .collect();
    let events: u64 = references.iter().map(|r| r.events).sum();
    let time = |metrics: bool| {
        let mut best_ms = f64::INFINITY;
        let mut samples = 0usize;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut rep_samples = 0usize;
            for (cfg, reference) in mk(metrics).into_iter().zip(&references) {
                let (report, _, recorder) = Sim::new(cfg)
                    .expect("valid reference config")
                    .run_checked_instrumented()
                    .expect("no budget configured");
                assert_eq!(
                    &report, reference,
                    "the metrics recorder (on={metrics}) changed the report"
                );
                rep_samples += recorder.map_or(0, |r| r.samples().len());
            }
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
            samples = rep_samples;
        }
        (best_ms, samples)
    };
    let (off_ms, _) = time(false);
    let (on_ms, samples) = time(true);
    let overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
    let eps_off = events as f64 / (off_ms / 1000.0);
    let eps_on = events as f64 / (on_ms / 1000.0);
    let ns_per_sample = (on_ms - off_ms) * 1e6 / samples.max(1) as f64;
    println!(
        "\n## Metrics overhead (reference sweep, sample {METRICS_SAMPLE_MS} ms, \
         best of {REPS})\n  off {off_ms:9.2} ms ({eps_off:12.0} events/s)   \
         on {on_ms:9.2} ms ({eps_on:12.0} events/s)\n  \
         overhead {overhead_pct:.1}%  ({samples} samples, {ns_per_sample:.1} ns/sample, \
         {:.1} samples/event)\n  \
         reports byte-identical with metrics on vs off: OK",
        samples as f64 / events as f64,
    );
    format!(
        "{{\n    \"sweep\": \"reference\",\n    \"sample_ms\": {},\n    \
         \"samples\": {samples},\n    \"events\": {events},\n    \
         \"wall_ms_off\": {},\n    \"wall_ms_on\": {},\n    \
         \"events_per_sec_off\": {},\n    \"events_per_sec_on\": {},\n    \
         \"overhead_pct\": {},\n    \"ns_per_sample\": {}\n  }}",
        json_f64(METRICS_SAMPLE_MS),
        json_round(off_ms, 3),
        json_round(on_ms, 3),
        json_round(eps_off, 0),
        json_round(eps_on, 0),
        json_round(overhead_pct, 2),
        json_round(ns_per_sample, 1),
    )
}

/// Recorded cold iteration counts of the committed `BENCH_sweep.json`, in
/// workload-then-n grid order. The `--check-iters` gate fails when any
/// point regresses past +10% of its entry here.
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

/// Each point's label and convergence record, in grid order.
type PointIters = Vec<(String, ConvergenceInfo)>;

/// Solves the whole grid under the given options and renders one canonical
/// JSON array over every point, in workload-then-n order. Warm sweeps keep
/// each workload's chain in one task (the warm-start neighbor is the
/// previous point of the chain); cold sweeps have no such dependency, so
/// every point becomes its own task.
fn solve_grid(opts: &SweepOptions, mopts: &ModelOptions) -> (String, PointIters, PoolStats) {
    let grid: Vec<Vec<ModelPoint>> = StandardWorkload::ALL
        .iter()
        .map(|&wl| model_chain(wl, mopts))
        .collect();
    let (points, reports, pool) = if opts.warm {
        let (solved, pool) = run_tasks_timed(grid, opts, |_, pts| {
            let reports = solve_chain(&pts, true);
            (pts, reports)
        });
        let (points, reports): (Vec<_>, Vec<_>) = solved.into_iter().unzip();
        (points.concat(), reports.concat(), pool)
    } else {
        let points = grid.concat();
        let (reports, pool) = run_tasks_timed(points.clone(), opts, |_, p| {
            solve_chain(std::slice::from_ref(&p), false)
                .pop()
                .expect("one report per point")
        });
        (points, reports, pool)
    };
    let json = chain_to_json(&points, &reports);
    let iters = points
        .into_iter()
        .zip(&reports)
        .map(|(p, r)| (p.label, r.convergence))
        .collect();
    (json, iters, pool)
}

/// Minimum wall time of `reps` runs, milliseconds.
fn time_grid(opts: &SweepOptions, mopts: &ModelOptions, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(solve_grid(opts, mopts));
        best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
    }
    best
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
    let cold = |accel| solve_grid(&seq, &with_accel(accel)).1;
    let plain = cold(Accel::Off);
    assert_eq!(plain.len(), REFERENCE_COLD_ITERS.len());
    let mut failed = false;
    for ((label, c), &reference) in plain.iter().zip(&REFERENCE_COLD_ITERS) {
        let limit = (reference as f64 * 1.10).floor() as usize;
        if c.iterations > limit {
            eprintln!(
                "ITER REGRESSION {label}: {} cold iterations (recorded {reference}, limit {limit})",
                c.iterations
            );
            failed = true;
        }
    }
    let reference_total: usize = REFERENCE_COLD_ITERS.iter().sum();
    let total: usize = cold(Accel::Anderson)
        .iter()
        .map(|(_, c)| c.iterations)
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

/// Canonical replicated-sim JSON for the reference sweep under `opts`.
fn sim_json(opts: &SweepOptions, reps: u32, shards: usize) -> String {
    let (labels, cfgs) = sim_points(shards);
    replicated_to_json(&labels, &run_replications(cfgs, reps, opts))
}

/// Times the reference sweep (single run per point, base seed) and writes
/// `BENCH_sim.json`. The wall clock includes `Sim::new` — the same
/// protocol the recorded baseline was measured with.
fn bench_sim(determinism_threads: usize) {
    let (labels, cfgs) = sim_points(1);
    let mut events = 0u64;
    let mut best_ms = f64::INFINITY;
    let mut counters = CounterRegistry::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut ev = 0u64;
        let mut merged = CounterRegistry::new();
        for cfg in &cfgs {
            let report = Sim::new(cfg.clone()).expect("valid reference config").run();
            ev += report.events;
            merged.merge(&report.counters);
        }
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        events = ev;
        counters = merged;
    }
    let events_per_sec = events as f64 / (best_ms / 1000.0);
    let speedup = events_per_sec / BASELINE_EVENTS_PER_SEC;
    println!(
        "\n## Simulator fast path ({} points, best of {REPS})\n  \
         {events} events in {best_ms:.2} ms -> {events_per_sec:.0} events/s \
         ({speedup:.2}x the {BASELINE_EVENTS_PER_SEC:.2e} events/s baseline)",
        labels.len()
    );
    let shards_json = bench_shards();
    let shards_xsite_json = bench_shards_xsite();
    let metrics_json = bench_metrics_overhead();
    // Profiling counters merged across the reference points (`_hwm` names
    // take the max, everything else sums). Pure simulation state, so the
    // object is byte-identical run to run and across thread counts.
    let json = format!(
        "{{\n  \"points\": [{}],\n  \"seed\": {SIM_SEED},\n  \"reps\": {REPS},\n  \
         \"events\": {events},\n  \"wall_ms\": {},\n  \"events_per_sec\": {},\n  \
         \"baseline_events_per_sec\": {},\n  \"speedup\": {},\n  \
         \"determinism_threads\": {determinism_threads},\n  \"shards\": {},\n  \
         \"shards_xsite\": {},\n  \"metrics_overhead\": {},\n  \"counters\": {}\n}}\n",
        labels
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect::<Vec<_>>()
            .join(", "),
        json_round(best_ms, 3),
        json_round(events_per_sec, 0),
        json_f64(BASELINE_EVENTS_PER_SEC),
        json_round(speedup, 3),
        shards_json,
        shards_xsite_json,
        metrics_json,
        counters.to_json(2),
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");
}

/// Runs the mode `args.mode` selects.
pub fn run(args: &Args, _: f64) {
    let out = args.out.as_deref();
    match args.mode {
        Mode::Emit => {
            write_or_print(&solve_grid(&args.sweep, &with_accel(args.accel)).0, out);
        }
        Mode::EmitSim => write_or_print(&sim_json(&args.sweep, args.reps, args.shards), out),
        Mode::CheckIters => check_iters(),
        Mode::Bench => bench(&args.sweep, out),
    }
}

/// The default mode: determinism gates, then the timed model sweeps
/// (written to `out`, default `BENCH_sweep.json`) and the simulator
/// section (written to `BENCH_sim.json`).
fn bench(opts: &SweepOptions, out: Option<&str>) {
    let mk = |threads: usize, warm: bool| SweepOptions {
        threads,
        warm,
        partition_seed: opts.partition_seed,
    };
    let variants: [(&str, SweepOptions); 4] = [
        ("cold_seq", mk(1, false)),
        ("warm_seq", mk(1, true)),
        ("cold_par", mk(opts.threads, false)),
        ("warm_par", mk(opts.threads, true)),
    ];

    // Determinism gate before any timing: parallel output must equal the
    // matching sequential output byte for byte (warm and cold separately —
    // warm starting changes iteration counts, so those two legitimately
    // differ from each other). Then the same gate with acceleration on:
    // the accelerated trajectory must also be thread-count invariant.
    let plain = ModelOptions::default();
    let (cold_json, cold_iters, _) = solve_grid(&variants[0].1, &plain);
    let (warm_json, warm_iters, _) = solve_grid(&variants[1].1, &plain);
    assert_eq!(
        cold_json,
        solve_grid(&variants[2].1, &plain).0,
        "parallel cold sweep diverged from sequential"
    );
    let (warm_par_json, _, warm_pool) = solve_grid(&variants[3].1, &plain);
    assert_eq!(
        warm_json, warm_par_json,
        "parallel warm sweep diverged from sequential"
    );
    let anderson = with_accel(Accel::Anderson);
    let (accel_seq_json, anderson_iters, _) = solve_grid(&variants[0].1, &anderson);
    assert_eq!(
        accel_seq_json,
        solve_grid(&variants[2].1, &anderson).0,
        "parallel accelerated sweep diverged from sequential"
    );
    println!(
        "determinism: parallel ({} threads) == sequential, cold, warm and accelerated: OK",
        opts.threads
    );

    println!(
        "\n## Sweep timings ({} model points, best of {REPS})",
        cold_iters.len()
    );
    let mut walls = Vec::new();
    for (name, o) in &variants {
        let ms = time_grid(o, &plain, REPS);
        println!(
            "  {name:8}  {ms:9.2} ms  (threads={}, warm={})",
            o.threads, o.warm
        );
        walls.push((*name, ms));
    }
    let wall = |name: &str| walls.iter().find(|(n, _)| *n == name).unwrap().1;
    let speedup_par = wall("cold_seq") / wall("cold_par");
    let speedup_warm = wall("cold_seq") / wall("warm_seq");
    println!("\n  parallel speedup (cold_seq / cold_par): {speedup_par:.2}x");
    println!("  warm-start speedup (cold_seq / warm_seq): {speedup_warm:.2}x");
    let total = |iters: &PointIters| -> usize { iters.iter().map(|(_, c)| c.iterations).sum() };
    println!(
        "  iterations: {} cold -> {} warm, accelerated cold: {} anderson",
        total(&cold_iters),
        total(&warm_iters),
        total(&anderson_iters),
    );

    // Solver-variant matrix: wall clock and total iterations for every
    // acceleration × threads combination (cold sweeps; 2 reps keep the
    // full matrix cheap next to the best-of-REPS headline numbers).
    println!("\n## Variant matrix (cold sweeps, best of 2)");
    let mut matrix = Vec::new();
    for (accel_name, mo) in [("off", &plain), ("anderson", &anderson)] {
        for threads in [1usize, opts.threads] {
            let so = mk(threads, false);
            let ms = time_grid(&so, mo, 2);
            let iterations = total(&solve_grid(&so, mo).1);
            println!(
                "  accel={accel_name:10} threads={threads}  {ms:9.2} ms  {iterations} iterations"
            );
            matrix.push(format!(
                "    {{\"accel\": \"{accel_name}\", \"threads\": {threads}, \
                 \"wall_ms\": {}, \"iterations\": {iterations}}}",
                json_round(ms, 3),
            ));
            if threads == 1 && opts.threads == 1 {
                break;
            }
        }
    }

    // BENCH_sweep.json: timings, variant matrix, pool telemetry and
    // per-point iterations-to-convergence (plain and accelerated).
    let pool_json = format!(
        "{{\"threads\": {}, \"wall_ms\": {}, \"workers\": [{}]}}",
        warm_pool.workers.len(),
        json_round(warm_pool.wall_ms, 3),
        warm_pool
            .workers
            .iter()
            .enumerate()
            .map(|(w, ws)| {
                format!(
                    "{{\"tasks\": {}, \"busy_ms\": {}, \"idle_ms\": {}}}",
                    ws.tasks,
                    json_round(ws.busy_ms, 3),
                    json_round(warm_pool.idle_ms(w), 3),
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    let points: Vec<String> = cold_iters
        .iter()
        .zip(&warm_iters)
        .zip(&anderson_iters)
        .map(|(((label, c), (_, w)), (_, a))| {
            format!(
                "    {{\"point\": \"{}\", \"iterations_cold\": {}, \
                 \"iterations_warm\": {}, \"warm_started\": {}, \
                 \"iterations_accel\": {}, \"accel_accepted\": {}, \
                 \"accel_rejected\": {}}}",
                label,
                c.iterations,
                w.iterations,
                w.warm_started,
                a.iterations,
                a.accel_accepted,
                a.accel_rejected,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"threads\": {},\n  \"reps\": {REPS},\n  \"wall_ms\": {{{}}},\n  \
         \"speedup_parallel\": {},\n  \"speedup_warm\": {},\n  \
         \"accel_saved\": {{\"anderson\": {}}},\n  \"pool\": {},\n  \
         \"matrix\": [\n{}\n  ],\n  \"points\": [\n{}\n  ]\n}}\n",
        opts.threads,
        walls
            .iter()
            .map(|(n, ms)| format!("\"{n}\": {}", json_round(*ms, 3)))
            .collect::<Vec<_>>()
            .join(", "),
        json_round(speedup_par, 3),
        json_round(speedup_warm, 3),
        json_round(
            1.0 - total(&anderson_iters) as f64 / total(&cold_iters) as f64,
            3
        ),
        pool_json,
        matrix.join(",\n"),
        points.join(",\n"),
    );
    let path = out.unwrap_or("BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("\nwrote {path}");

    // Simulator section: replication determinism first, then events/sec
    // against the recorded pre-fast-path baseline.
    let par = mk(opts.threads, false);
    assert_eq!(
        sim_json(&par, SIM_REPS, 1),
        sim_json(&SweepOptions::sequential(), SIM_REPS, 1),
        "parallel sim replications diverged from sequential"
    );
    println!(
        "\nsim determinism: {SIM_REPS} replications x {} points, \
         parallel ({} threads) == sequential: OK",
        SIM_POINTS.len(),
        par.threads
    );
    bench_sim(par.threads);
}
