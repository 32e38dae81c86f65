//! `carat-cli` — command-line front end for the CARAT reproduction.
//!
//! ```sh
//! carat-cli compare --workload mb8 --n 4..20
//! carat-cli model --workload lb8 --n 8 --separate-log
//! carat-cli sim --workload mb4 --n 12 --hotspot 0.1:0.9 --probes
//! ```

mod args;

use args::{parse, Command, RunSpec, USAGE};
use carat::model::{Model, ModelConfig, ModelOptions, ModelReport, WarmStart};
use carat::obs::{
    shardstats, IterLog, MetricsConfig, MetricsFilter, MetricsRecorder, ShardStatsSnapshot,
    TraceConfig, TraceFilter, Tracer,
};
use carat::sim::{DeadlockMode, Sim, SimConfig, SimReport};
use carat_bench::{run_replications, ReplicatedReport, SweepOptions};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Command::Help) => print!("{USAGE}"),
        Ok(Command::Model(spec)) => {
            let mut warm = Warm::default();
            let mut log = spec.iter_log.as_ref().map(|_| IterLog::new());
            for &n in &spec.n_values {
                if let Some(log) = log.as_mut() {
                    log.begin_point(format!("{:?}/n={n}", spec.workload));
                }
                print_model(n, &run_model(&spec, n, &mut warm, log.as_mut()));
            }
            if let (Some(path), Some(log)) = (&spec.iter_log, &log) {
                write_iter_log(path, log);
            }
        }
        Ok(Command::Sim(spec)) => {
            let mut corrupt = false;
            if spec.reps > 1 {
                for (&n, rep) in spec.n_values.iter().zip(&run_sim_replicated(&spec)) {
                    print_replicated(n, rep);
                    corrupt |= rep.reports.iter().any(|r| check_integrity(r).is_err());
                }
            } else {
                if spec.trace.is_some() && spec.n_values.len() > 1 {
                    eprintln!("error: --trace records one run; give a single --n value");
                    std::process::exit(2);
                }
                if spec.metrics_ms.is_some() && spec.n_values.len() > 1 {
                    eprintln!("error: --metrics records one run; give a single --n value");
                    std::process::exit(2);
                }
                for &n in &spec.n_values {
                    // Scoped shard telemetry: the delta attributes
                    // busy/stall/null totals to this run alone, even in a
                    // process that runs several points.
                    let scope = shardstats::begin_run();
                    let (report, tracer, metrics) = run_sim_instrumented(&spec, n);
                    let shard_delta = scope.finish();
                    print_sim(n, &report);
                    if let Some(metrics) = &metrics {
                        print_metrics_summary(&spec, metrics, &shard_delta);
                        if let Some(path) = &spec.metrics_out {
                            write_metrics(path, metrics);
                        }
                    }
                    if let (Some(path), Some(tracer)) = (&spec.trace, &tracer) {
                        write_trace(path, tracer, metrics.as_ref());
                    }
                    if let Err(why) = check_integrity(&report) {
                        eprintln!("error: integrity check failed: {why}");
                        corrupt = true;
                    }
                }
            }
            if corrupt {
                std::process::exit(1);
            }
        }
        Ok(Command::Compare(spec)) => {
            println!(
                "| n  | node | sim tx/s | model tx/s | sim CPU | model CPU | sim DIO | model DIO |"
            );
            println!(
                "|----|------|----------|------------|---------|-----------|---------|-----------|"
            );
            let mut warm = Warm::default();
            for &n in &spec.n_values {
                let s = run_sim(&spec, n);
                let m = run_model(&spec, n, &mut warm, None);
                for i in 0..s.nodes.len() {
                    println!(
                        "| {:2} | {}    |    {:5.2} |      {:5.2} |    {:4.2} |      {:4.2} |   {:5.1} |     {:5.1} |",
                        n,
                        s.nodes[i].name,
                        s.nodes[i].tx_per_s,
                        m.nodes[i].tx_per_s,
                        s.nodes[i].cpu_util,
                        m.nodes[i].cpu_util,
                        s.nodes[i].dio_per_s,
                        m.nodes[i].dio_per_s,
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Warm-start state threaded through an ascending-n model sweep.
#[derive(Default)]
struct Warm(Option<WarmStart>);

fn run_model(spec: &RunSpec, n: u32, warm: &mut Warm, log: Option<&mut IterLog>) -> ModelReport {
    let mut cfg = ModelConfig::new(spec.workload.spec(spec.sites), n);
    cfg.params = spec.params();
    let opts = ModelOptions {
        separate_log_disk: spec.separate_log,
        model_tm_serialization: spec.tm_center,
        threads: spec.threads,
        accel: spec.accel,
        ..ModelOptions::default()
    };
    let seed = if spec.warm_start {
        warm.0.as_ref()
    } else {
        None
    };
    let (report, snapshot) = Model::with_options(cfg, opts).solve_logged(seed, log);
    warm.0 = Some(snapshot);
    report
}

fn sim_cfg(spec: &RunSpec, n: u32) -> SimConfig {
    let mut cfg = SimConfig::new(spec.workload.spec(spec.sites), n, spec.seed);
    cfg.params = spec.params();
    cfg.shards = spec.shards;
    cfg.warmup_ms = (spec.measure_s * 1000.0 * 0.1).max(5_000.0);
    cfg.measure_ms = spec.measure_s * 1000.0;
    cfg.separate_log_disk = spec.separate_log;
    cfg.deadlock_mode = if spec.probes {
        DeadlockMode::Probes
    } else {
        DeadlockMode::InstantGlobal
    };
    cfg.cc = spec.cc;
    cfg.victim = spec.victim;
    cfg.crashes = spec.crashes.clone();
    cfg.fault_plan = spec.fault;
    cfg.partition_plan = spec.partition.clone();
    cfg.max_events = spec.max_events;
    if let Err(e) = cfg.validate() {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    }
    cfg
}

fn run_sim(spec: &RunSpec, n: u32) -> SimReport {
    run_sim_instrumented(spec, n).0
}

/// Runs one simulation, attaching a tracer when `--trace` was given and a
/// metrics recorder when `--metrics` was given.
fn run_sim_instrumented(
    spec: &RunSpec,
    n: u32,
) -> (SimReport, Option<Tracer>, Option<MetricsRecorder>) {
    let mut cfg = sim_cfg(spec, n);
    if spec.trace.is_some() {
        let filter = match &spec.trace_filter {
            // Parse errors are caught in args.rs; this cannot fail here.
            Some(s) => TraceFilter::parse(s).expect("filter validated at parse time"),
            None => TraceFilter::all(),
        };
        cfg.trace = Some(TraceConfig {
            filter,
            ..TraceConfig::default()
        });
    }
    if let Some(sample_ms) = spec.metrics_ms {
        let filter = match &spec.metrics_filter {
            // Parse errors are caught in args.rs; this cannot fail here.
            Some(s) => MetricsFilter::parse(s).expect("filter validated at parse time"),
            None => MetricsFilter::all(),
        };
        cfg.metrics = Some(MetricsConfig { sample_ms, filter });
    }
    if cfg.shards > 1
        && !carat::sim::shard::decomposable(&cfg)
        && !carat::sim::shard::coupled_eligible(&cfg)
    {
        // Stderr only: stdout must stay byte-identical to a --shards 1
        // run (the CI determinism gates compare it).
        eprintln!(
            "note: --shards {} requested, but this configuration is not \
             site-parallel (it needs either local-only sites, or cross-site \
             traffic with --alpha > 0 — plus --probes under 2PL — and no \
             crash/fault/partition/replication machinery); running the \
             monolithic engine on one thread",
            cfg.shards
        );
    }
    let sim = match Sim::new(cfg) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    match sim.run_checked_instrumented() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Satellite integrity gate: a run whose commit audit found corrupted
/// records — or whose profiling counters are self-contradictory — must
/// fail the process, not just print a number nobody reads.
fn check_integrity(r: &SimReport) -> Result<(), String> {
    if r.audit_violations > 0 {
        return Err(format!(
            "{} of {} audited records hold bytes from a non-committed writer",
            r.audit_violations, r.audited_records
        ));
    }
    let slab_hwm = r.counters.get("slab_hwm");
    let slots = r.counters.get("slab_slots_hwm");
    if slab_hwm > slots {
        return Err(format!(
            "slab occupancy high-water {slab_hwm} exceeds allocated slots {slots}"
        ));
    }
    Ok(())
}

fn write_trace(path: &str, tracer: &Tracer, metrics: Option<&MetricsRecorder>) {
    let body = if path.ends_with(".jsonl") {
        // Line-delimited lifecycle events only; counter tracks are a
        // Chrome trace-event concept.
        tracer.to_jsonl()
    } else {
        tracer.to_chrome_json_with(metrics)
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write trace {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "trace: {} events written to {path} ({} dropped by the ring buffer)",
        tracer.len(),
        tracer.dropped()
    );
}

fn write_metrics(path: &str, metrics: &MetricsRecorder) {
    let body = if path.ends_with(".csv") {
        metrics.to_csv()
    } else if path.ends_with(".json") {
        metrics.to_chrome_json()
    } else {
        metrics.to_jsonl()
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write metrics {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("metrics: {} samples written to {path}", metrics.len());
}

/// The end-of-run metrics monitor, on stderr so stdout stays
/// byte-identical to a metrics-free run (the CI neutrality gate compares
/// it): per-metric aggregates with a sparkline of the run's shape, and —
/// when the sharded engines actually ran — the wall-clock busy/stall
/// split of the conservative protocol for this run alone.
fn print_metrics_summary(spec: &RunSpec, metrics: &MetricsRecorder, shard: &ShardStatsSnapshot) {
    let cadence = spec.metrics_ms.unwrap_or_default();
    eprintln!(
        "metrics: {} samples at {cadence} ms sim-time cadence",
        metrics.len()
    );
    for s in metrics.summarize(40) {
        eprintln!(
            "  {:<14} n={:<6} min {:>10.2} mean {:>10.2} max {:>10.2} p95 {:>10.2}  {}",
            s.kind.label(),
            s.count,
            s.min,
            s.mean,
            s.max,
            s.p95,
            s.spark
        );
    }
    if shard.busy_ns + shard.stall_ns > 0 {
        let busy_ms = shard.busy_ns as f64 / 1e6;
        let stall_ms = shard.stall_ns as f64 / 1e6;
        let stall_pct = 100.0 * stall_ms / (busy_ms + stall_ms);
        eprintln!(
            "  shards: busy {busy_ms:.1} ms, stalled {stall_ms:.1} ms ({stall_pct:.0}% of \
             wall) | {} null advances / {} cross-shard messages (ratio {:.2})",
            shard.null_advances,
            shard.messages,
            shard.null_message_ratio()
        );
    }
}

fn write_iter_log(path: &str, log: &IterLog) {
    let body = if path.ends_with(".csv") {
        log.to_csv()
    } else {
        log.to_json()
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write iteration log {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("iter-log: {} rows written to {path}", log.len());
}

/// `--reps R`: R independent replications per transaction size on the
/// deterministic worker pool (`--threads`), reported as mean ± 95 % CI.
fn run_sim_replicated(spec: &RunSpec) -> Vec<ReplicatedReport> {
    let opts = SweepOptions {
        threads: spec.threads,
        warm: false,
    };
    let cfgs = spec.n_values.iter().map(|&n| sim_cfg(spec, n)).collect();
    run_replications(cfgs, spec.reps, &opts)
}

fn print_model(n: u32, r: &ModelReport) {
    println!(
        "model: n = {n} ({} iterations, residual {:.2e}{})",
        r.convergence.iterations,
        r.convergence.residual,
        if r.convergence.warm_started {
            ", warm-started"
        } else {
            ""
        }
    );
    if let Some(warning) = r.convergence.warning() {
        eprintln!("{warning}");
    }
    for node in &r.nodes {
        println!(
            "  node {}: {:.2} tx/s | CPU {:.0}% | disk {:.0}%{} | {:.1} I/O-s | {:.1} rec/s",
            node.name,
            node.tx_per_s,
            node.cpu_util * 100.0,
            node.disk_util * 100.0,
            if node.log_disk_util > 0.0 {
                format!(" | log {:.0}%", node.log_disk_util * 100.0)
            } else {
                String::new()
            },
            node.dio_per_s,
            node.records_per_s,
        );
        for (ty, t) in &node.per_type {
            println!(
                "    {ty:3}: {:6.3} tx/s  R = {:8.1} ms  Pb = {:.4}  Pd = {:.4}  P_a = {:.3}  N_s = {:.2}",
                t.xput_per_s, t.response_ms, t.pb, t.pd, t.p_a, t.n_s
            );
        }
    }
}

fn print_sim(n: u32, r: &SimReport) {
    println!("sim: n = {n} ({:.0} s measured)", r.window_ms / 1000.0);
    for node in &r.nodes {
        println!(
            "  node {}: {:.2} tx/s | CPU {:.0}% | disk {:.0}%{} | {:.1} I/O-s | {:.1} rec/s",
            node.name,
            node.tx_per_s,
            node.cpu_util * 100.0,
            node.disk_util * 100.0,
            if node.log_disk_util > 0.0 {
                format!(" | log {:.0}%", node.log_disk_util * 100.0)
            } else {
                String::new()
            },
            node.dio_per_s,
            node.records_per_s,
        );
        for (ty, t) in &node.per_type {
            println!(
                "    {ty:3}: {:6.3} tx/s  R = {:8.1} ms (p50 {:.0}, p95 {:.0})  commits {:5}  aborts {:4}",
                t.xput_per_s,
                t.mean_response_ms,
                t.p50_response_ms,
                t.p95_response_ms,
                t.commits,
                t.aborts
            );
        }
    }
    println!(
        "  locks: {} requests, Pb = {:.4}, mean wait {:.0} ms | deadlocks {} local / {} global ({} probe hops)",
        r.lock_requests,
        r.blocking_probability(),
        r.mean_lock_wait_ms,
        r.local_deadlocks,
        r.global_deadlocks,
        r.probe_hops,
    );
    if r.crashes > 0 {
        println!(
            "  crashes: {} injected, {} transactions killed, {} recoveries",
            r.crashes, r.crash_kills, r.recoveries
        );
    }
    if r.net_messages > 0 {
        println!(
            "  network: {} messages, {} dropped, {} duplicated, {} retries | \
             {} timeout aborts, {} in-doubt resolved",
            r.net_messages,
            r.net_drops,
            r.net_duplicates,
            r.net_retries,
            r.timeout_aborts,
            r.in_doubt_resolutions,
        );
    }
    let a = &r.availability;
    // Printed only when a partition or replica actually did something, so
    // partition-free output stays byte-identical to earlier builds.
    if a.partitions + a.heals + a.partition_aborts + a.blocked_on_heal > 0
        || a.stale_reads + a.degraded_reads + a.failovers + a.catchup_records > 0
        || a.partition_ms > 0.0
    {
        println!(
            "  partitions: {} splits, {} heals, {:.0} ms split | {} partition aborts, \
             {} blocked until heal, {} stale reads",
            a.partitions,
            a.heals,
            a.partition_ms,
            a.partition_aborts,
            a.blocked_on_heal,
            a.stale_reads,
        );
        println!(
            "  replicas: {} failovers, {} degraded reads, {} catch-up records",
            a.failovers, a.degraded_reads, a.catchup_records,
        );
    }
    println!(
        "  audit: {} records checked, {} violations",
        r.audited_records, r.audit_violations
    );
    println!(
        "  profile: {} events | scheduler-heap hwm {} | tx-slab hwm {} of {} slots",
        r.counters.get("events_total"),
        r.counters.get("sched_heap_hwm"),
        r.counters.get("slab_hwm"),
        r.counters.get("slab_slots_hwm"),
    );
}

fn print_replicated(n: u32, r: &ReplicatedReport) {
    let first = &r.reports[0];
    println!(
        "sim: n = {n} ({} replications x {:.0} s measured; mean ± 95% CI)",
        r.reps(),
        first.window_ms / 1000.0
    );
    for (i, node) in first.nodes.iter().enumerate() {
        let tx = r.metric(|rep| rep.nodes[i].tx_per_s);
        let cpu = r.metric(|rep| rep.nodes[i].cpu_util);
        let dio = r.metric(|rep| rep.nodes[i].dio_per_s);
        let rec = r.metric(|rep| rep.nodes[i].records_per_s);
        println!(
            "  node {}: {:.2} ± {:.2} tx/s | CPU {:.0} ± {:.0}% | {:.1} ± {:.1} I/O-s | {:.1} ± {:.1} rec/s",
            node.name,
            tx.mean, tx.ci95,
            cpu.mean * 100.0, cpu.ci95 * 100.0,
            dio.mean, dio.ci95,
            rec.mean, rec.ci95,
        );
    }
    println!(
        "  total: {:.2} ± {:.2} tx/s | {:.1} ± {:.1} rec/s | mean lock wait {:.0} ± {:.0} ms",
        r.tx_per_s.mean,
        r.tx_per_s.ci95,
        r.records_per_s.mean,
        r.records_per_s.ci95,
        r.mean_lock_wait_ms.mean,
        r.mean_lock_wait_ms.ci95,
    );
}
