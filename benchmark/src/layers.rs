//! The traced run: per-layer metrics measured from outside the program.
//!
//! Every input runs twice, untraced and with the lifecycle tracer on; the
//! difference is the tracing overhead. Counts come from the reports and
//! are exact. Per-call costs come from spans kept in memory around calls
//! into each crate's public functions, replaying the run's recorded lock
//! and commit traffic into a fresh `LockManager`, `WaitForGraph` and
//! `Database` per site. The `*.est_share_pct` metrics are replayed cost ÷
//! the untraced `run` wall time: estimates, not in-program self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use carat::des::Scheduler;
use carat::lock::{LockManager, LockMode, Outcome as LockOutcome, WaitForGraph};
use carat::model::demands::chain_contexts;
use carat::model::{Model, ModelConfig, ModelOptions};
use carat::obs::{shardstats, IterLog};
use carat::qnet::{CenterKind, MvaScratch, MvaSolution, Network};
use carat::sim::{
    DeadlockMode, Sim, SimConfig, SimReport, TraceConfig, TraceFilter, TraceKind, Tracer,
};
use carat::storage::{Database, RecordId, RECORDS_PER_BLOCK};

use crate::stats::{median, percentile, run_seed, sorted, Outcome};
use crate::workload::{engine_of, over_time, Input, SimPoint, Workload};

/// Trace ring capacity: large enough that no run of any workload wraps,
/// so the replay sees the whole run.
const TRACE_CAPACITY: usize = 1 << 24;

/// Wall nanoseconds since `t`, less the cost of reading the clock.
fn span_ns(t: Instant, clock_ns: f64) -> f64 {
    t.elapsed().as_nanos() as f64 - clock_ns
}

/// The median cost of one `Instant::now()` pair, subtracted from every
/// span so short calls are not charged the clock's own cost.
fn clock_cost_ns() -> f64 {
    let v: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Per-layer totals over the traced runs.
#[derive(Default)]
struct Acc {
    clock_ns: f64,
    // carat-sim
    new_ms: Vec<f64>,
    ns_per_event: Vec<f64>,
    events_per_run: Vec<f64>,
    events: f64,
    disk_events: f64,
    net_events: f64,
    commits: f64,
    submissions: f64,
    heap_hwm: u64,
    slab_hwm: u64,
    /// Runs per engine, indexed by `Engine as usize`: decomposed,
    /// coupled, monolithic.
    engines: [f64; 3],
    run_ns: f64,
    // carat-des
    pair_ns_by_hwm: BTreeMap<u64, f64>,
    sched_ns: f64,
    // carat-lock
    lock: LockTotals,
    report_requests: f64,
    report_conflicts: f64,
    deadlocks: f64,
    wait_ms_sum: f64,
    waits: f64,
    probe_hops: Vec<f64>,
    // carat-storage
    touch: Span,
    update: Span,
    commit: Span,
    rollback: Span,
    // shard
    busy_ns: f64,
    stall_ns: f64,
    null_advances: f64,
    messages: f64,
    sharded_wall_ns: f64,
    one_shard_wall_ns: f64,
    // carat-obs
    traced_ns: f64,
    untraced_ns: f64,
    trace_events: f64,
    trace_work: f64,
    samples: f64,
    metrics_on_ns: f64,
    metrics_off_ns: f64,
    // carat-model
    iterations: Vec<f64>,
    solve_ns: f64,
    accel_accepted: f64,
    accel_rejected: f64,
    solves: f64,
    converged: f64,
    // carat-qnet
    lattice: Vec<f64>,
    mva_us: Vec<f64>,
    mva_est_ns: f64,
}

/// Calls into one function and the nanoseconds they took.
#[derive(Default, Clone, Copy)]
struct Span {
    calls: f64,
    ns: f64,
}

impl Span {
    fn add(&mut self, ns: f64) {
        self.calls += 1.0;
        self.ns += ns;
    }

    fn per_call(self) -> f64 {
        if self.calls == 0.0 {
            0.0
        } else {
            (self.ns / self.calls).max(0.0)
        }
    }
}

#[derive(Default)]
struct LockTotals {
    request: Span,
    release: Span,
    waits_for: Span,
    find_cycle: Span,
    window_conflicts: f64,
}

/// Runs the traced pass over the first [`Workload::traced_inputs`] inputs
/// and pushes every per-layer metric.
pub(crate) fn trace(w: Workload, inputs: &[Input], seconds: f64, out: &mut Outcome) {
    let mut acc = Acc {
        clock_ns: clock_cost_ns(),
        ..Acc::default()
    };
    let start = Instant::now();
    for input in inputs.iter().take(w.traced_inputs()) {
        if over_time(w, start, seconds, out) {
            break;
        }
        out.attempted += 1;
        let ok = catch_unwind(AssertUnwindSafe(|| match input {
            Input::Model(p) => model_solve(p.config(), true, &mut acc),
            Input::Sim(p) => sim_run(w, p, &mut acc, &mut out.errors),
        }));
        if !matches!(ok, Ok(true)) {
            out.failed += 1;
            eprintln!("failed run: {input:?}");
        }
    }
    // The simulator workloads also exercise the model: one solve per
    // simulated point, the same solves that give `model_err_pct`.
    for input in inputs {
        if let Input::Sim(p) = input {
            if p.seed_index == 0 && !model_solve(w.model_config_for(p), false, &mut acc) {
                out.errors.push(format!("model of {p:?} did not converge"));
            }
        }
    }
    push_metrics(&acc, out);
}

/// One simulated input: untraced, then traced, then the replays.
fn sim_run(w: Workload, p: &SimPoint, acc: &mut Acc, errors: &mut Vec<String>) -> bool {
    let cfg = w.sim_config(p);
    let engine = engine_of(&cfg);
    let t = Instant::now();
    let Ok(sim) = Sim::new(cfg.clone()) else {
        return false;
    };
    let new_ns = t.elapsed().as_nanos() as f64;
    let scope = shardstats::begin_run();
    let t = Instant::now();
    let res = sim.run_checked_instrumented();
    let run_ns = t.elapsed().as_nanos() as f64;
    let shard = scope.finish();
    let Ok((report, _, recorder)) = res else {
        return false;
    };
    if report.audit_violations > 0 {
        return false;
    }

    let mut traced_cfg = cfg.clone();
    traced_cfg.trace = Some(TraceConfig {
        filter: TraceFilter::all(),
        capacity: TRACE_CAPACITY,
    });
    let Ok(sim) = Sim::new(traced_cfg) else {
        return false;
    };
    let t = Instant::now();
    let Ok((traced_report, Some(tracer))) = sim.run_checked_traced() else {
        return false;
    };
    acc.traced_ns += t.elapsed().as_nanos() as f64;
    acc.untraced_ns += run_ns;
    acc.trace_events += tracer.recorded() as f64;
    acc.trace_work += report.events as f64;
    let same = format!("{traced_report:?}") == format!("{report:?}");
    if !same || tracer.dropped() > 0 {
        errors.push(format!(
            "{}: tracing changed or lost the run {p:?}",
            w.name()
        ));
    }

    acc.engines[engine as usize] += 1.0;
    sim_counts(&report, new_ns, run_ns, acc);
    replay(&cfg, &tracer, acc);
    let hwm = report.counters.get("sched_heap_hwm").max(1);
    let pair_ns = *acc
        .pair_ns_by_hwm
        .entry(hwm)
        .or_insert_with(|| sched_pair_ns(hwm, acc.clock_ns));
    acc.sched_ns += pair_ns * report.events as f64;

    acc.busy_ns += shard.busy_ns as f64;
    acc.stall_ns += shard.stall_ns as f64;
    acc.null_advances += shard.null_advances as f64;
    acc.messages += shard.messages as f64;
    if cfg.shards > 1 {
        let mut one = cfg.clone();
        one.shards = 1;
        if let Ok(sim) = Sim::new(one) {
            let t = Instant::now();
            black_box(sim.run_checked().is_ok());
            acc.one_shard_wall_ns += t.elapsed().as_nanos() as f64;
            acc.sharded_wall_ns += run_ns;
        }
    }
    if let Some(rec) = recorder {
        let mut off = cfg;
        off.metrics = None;
        if let Ok(sim) = Sim::new(off) {
            let t = Instant::now();
            black_box(sim.run_checked().is_ok());
            acc.metrics_off_ns += t.elapsed().as_nanos() as f64;
            acc.metrics_on_ns += run_ns;
            acc.samples += rec.len() as f64;
        }
    }
    true
}

/// The exact counts of one run's report.
fn sim_counts(r: &SimReport, new_ns: f64, run_ns: f64, acc: &mut Acc) {
    let events = r.events as f64;
    acc.new_ms.push(new_ns / 1e6);
    acc.ns_per_event.push(run_ns / events.max(1.0));
    acc.events_per_run.push(events);
    acc.events += events;
    acc.run_ns += run_ns;
    let c = &r.counters;
    acc.disk_events += (c.get("ev_disk_done") + c.get("ev_log_done")) as f64;
    acc.net_events += c.get("ev_net_done") as f64;
    acc.heap_hwm = acc.heap_hwm.max(c.get("sched_heap_hwm"));
    acc.slab_hwm = acc.slab_hwm.max(c.get("slab_hwm"));
    for node in &r.nodes {
        for t in node.per_type.values() {
            acc.commits += t.commits as f64;
            acc.submissions += (t.commits + t.aborts) as f64;
        }
    }
    acc.report_requests += r.lock_requests as f64;
    acc.report_conflicts += r.lock_conflicts as f64;
    acc.deadlocks += (r.local_deadlocks + r.global_deadlocks) as f64;
    acc.wait_ms_sum += r.mean_lock_wait_ms * r.lock_waits_completed as f64;
    acc.waits += r.lock_waits_completed as f64;
    acc.probe_hops.push(r.probe_hops as f64);
}

/// Replays the run's lock requests, deadlock-victim cancellations and
/// per-site commit/abort decisions, in trace order, into one lock manager
/// and one database per site, timing each call. The wait-for graph is
/// rebuilt and searched on every replayed conflict, the way the engine
/// does: the union of all sites under instant global detection, the local
/// site under probes.
fn replay(cfg: &SimConfig, tracer: &Tracer, acc: &mut Acc) {
    let sites = cfg.params.sites();
    let clock = acc.clock_ns;
    let mut lms: Vec<LockManager> = (0..sites).map(|_| LockManager::new()).collect();
    let mut dbs: Vec<Database> = (0..sites)
        .map(|_| {
            let mut db = Database::new(cfg.params.n_granules);
            db.load_default();
            db
        })
        .collect();
    let mut wfg = WaitForGraph::new();
    let mut woken = Vec::new();
    let mut payload = String::new();
    let lt = &mut acc.lock;
    for ev in tracer.events() {
        let site = ev.node as usize;
        let gid = ev.gid;
        match ev.kind {
            TraceKind::LockRequest => {
                let block = ev.a as u32;
                let exclusive = ev.name == "X";
                let mode = if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                // A transaction has at most one pending request; should the
                // replay ever diverge from the run, withdraw the stale one
                // rather than trip the lock manager's assertion.
                if lms[site].waiting_block(gid).is_some() {
                    lms[site].cancel_request(gid);
                }
                let t = Instant::now();
                let outcome = lms[site].request(gid, block, mode);
                lt.request.add(span_ns(t, clock));
                if outcome == LockOutcome::Queued {
                    if ev.t_ms > cfg.warmup_ms {
                        lt.window_conflicts += 1.0;
                    }
                    let t = Instant::now();
                    if cfg.deadlock_mode == DeadlockMode::Probes {
                        wfg.rebuild_from(&lms[site]);
                    } else {
                        wfg.clear();
                        for lm in &lms {
                            wfg.extend_from(lm);
                        }
                    }
                    lt.waits_for.add(span_ns(t, clock));
                    let t = Instant::now();
                    black_box(wfg.find_cycle(gid));
                    lt.find_cycle.add(span_ns(t, clock));
                }
                let db = &mut dbs[site];
                if !db.is_active(gid) {
                    db.begin(gid).expect("inactive transaction begins");
                }
                let rid = RecordId {
                    block,
                    slot: (gid % RECORDS_PER_BLOCK as u64) as u8,
                };
                if exclusive {
                    payload.clear();
                    write!(payload, "g{gid}b{block}").expect("write to String");
                    let t = Instant::now();
                    black_box(db.update_record(gid, rid, payload.as_bytes()).is_ok());
                    acc.update.add(span_ns(t, clock));
                } else {
                    let t = Instant::now();
                    black_box(db.touch_record(gid, rid).is_ok());
                    acc.touch.add(span_ns(t, clock));
                }
            }
            TraceKind::DeadlockVictim => {
                for lm in &mut lms {
                    if lm.waiting_block(gid).is_some() {
                        lm.cancel_request(gid);
                    }
                }
            }
            TraceKind::TwopcDecide => {
                woken.clear();
                let t = Instant::now();
                lms[site].release_all_into(gid, &mut woken);
                lt.release.add(span_ns(t, clock));
                let db = &mut dbs[site];
                if db.is_active(gid) {
                    let t = Instant::now();
                    if ev.name == "commit" {
                        black_box(db.commit(gid).is_ok());
                        acc.commit.add(span_ns(t, clock));
                    } else {
                        black_box(db.rollback(gid).is_ok());
                        acc.rollback.add(span_ns(t, clock));
                    }
                }
            }
            _ => {}
        }
    }
}

/// The cost of one `Scheduler` schedule + pop pair with `hwm` events
/// pending, the run's heap high-water mark.
fn sched_pair_ns(hwm: u64, clock_ns: f64) -> f64 {
    const PAIRS: usize = 20_000;
    let delays: Vec<f64> = (0..1024)
        .map(|i| (run_seed(hwm, i) % 100_000) as f64 / 1000.0)
        .collect();
    let mut s: Scheduler<u64> = Scheduler::new();
    for i in 0..hwm {
        s.schedule(delays[i as usize % delays.len()], i);
    }
    let t = Instant::now();
    for k in 0..PAIRS {
        let (at, ev) = s.pop().expect("the heap is never empty");
        s.schedule(at + delays[k % delays.len()], black_box(ev));
    }
    span_ns(t, clock_ns) / PAIRS as f64
}

/// One model solve, timed, plus the per-site exact-MVA solves it repeats
/// every iteration. With `logged`, the same solve again with the
/// iteration log on: the model's tracing overhead.
fn model_solve(cfg: ModelConfig, logged: bool, acc: &mut Acc) -> bool {
    let ctxs = chain_contexts(&cfg.params, &cfg.workload, cfg.n_requests);
    let sites = cfg.params.sites();
    let model = Model::with_options(cfg, ModelOptions::default());
    let t = Instant::now();
    let report = model.solve();
    let solve_ns = t.elapsed().as_nanos() as f64;
    let conv = &report.convergence;
    acc.solves += 1.0;
    acc.converged += conv.converged as u8 as f64;
    acc.iterations.push(conv.iterations as f64);
    acc.solve_ns += solve_ns;
    acc.accel_accepted += conv.accel_accepted as f64;
    acc.accel_rejected += conv.accel_rejected as f64;
    if logged {
        let mut log = IterLog::new();
        let t = Instant::now();
        black_box(model.solve_logged(None, Some(&mut log)));
        acc.traced_ns += t.elapsed().as_nanos() as f64;
        acc.untraced_ns += solve_ns;
        acc.trace_events += log.len() as f64;
        acc.trace_work += conv.iterations as f64;
    }
    for site in 0..sites {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let disk = net.add_center("DISK", CenterKind::Queueing);
        let delay = net.add_center("DELAY", CenterKind::Delay);
        for ctx in ctxs.iter().filter(|c| c.site == site) {
            let k = net.add_chain(ctx.chain.label(), ctx.population);
            net.set_demand(k, cpu, 30.0 * ctx.l);
            net.set_demand(k, disk, 60.0 * ctx.l);
            net.set_demand(k, delay, 100.0);
        }
        let (mut scratch, mut sol) = (MvaScratch::default(), MvaSolution::empty());
        // Small lattices solve in about a microsecond: repeat those so
        // the clock's resolution does not dominate.
        let reps = if net.lattice_size() < 1000 { 100 } else { 1 };
        let t = Instant::now();
        for _ in 0..reps {
            net.solve_exact_into(&mut scratch, &mut sol);
            black_box(&sol);
        }
        let ns = span_ns(t, acc.clock_ns).max(0.0) / reps as f64;
        acc.lattice.push(net.lattice_size() as f64);
        acc.mva_us.push(ns / 1e3);
        acc.mva_est_ns += ns * conv.iterations as f64;
    }
    conv.converged
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Every per-layer metric, in layer order. A layer the workload does not
/// reach reports 0.
fn push_metrics(a: &Acc, out: &mut Outcome) {
    let lt = &a.lock;
    let runs = a.events_per_run.len() as f64;
    let pct = |ns: f64| ratio(ns, a.run_ns) * 100.0;
    let des_share = pct(a.sched_ns);
    let lock_share = pct(lt.request.ns + lt.release.ns + lt.waits_for.ns + lt.find_cycle.ns);
    let storage_share = pct(a.touch.ns + a.update.ns + a.commit.ns + a.rollback.ns);
    let residual = if a.run_ns > 0.0 {
        100.0 - des_share - lock_share - storage_share
    } else {
        0.0
    };
    let fidelity = if a.report_conflicts > 0.0 {
        lt.window_conflicts / a.report_conflicts
    } else if runs > 0.0 && lt.window_conflicts == 0.0 {
        1.0
    } else {
        0.0
    };
    let iters = sorted(&a.iterations);
    let mva_us = sorted(&a.mva_us);
    let overhead = |on: f64, off: f64| ratio(on - off, off) * 100.0;

    out.push("sim.new_ms", median(&a.new_ms), "ms");
    out.push("sim.run_ns_per_event", median(&a.ns_per_event), "ns");
    out.push("sim.events_per_run", median(&a.events_per_run), "count");
    out.push(
        "sim.disk_events_frac",
        ratio(a.disk_events, a.events),
        "ratio",
    );
    out.push(
        "sim.net_events_frac",
        ratio(a.net_events, a.events),
        "ratio",
    );
    out.push("sim.commit_ratio", ratio(a.commits, a.submissions), "ratio");
    out.push("sim.sched_heap_hwm", a.heap_hwm as f64, "count");
    out.push("sim.slab_hwm", a.slab_hwm as f64, "count");
    let [decomposed, coupled, monolithic] = a.engines;
    out.push("sim.runs_decomposed", decomposed, "count");
    out.push("sim.runs_coupled", coupled, "count");
    out.push("sim.runs_monolithic", monolithic, "count");
    out.push("sim.residual_pct", residual, "%");

    let pair_ns: Vec<f64> = a.pair_ns_by_hwm.values().copied().collect();
    out.push("des.sched_pair_ns", median(&pair_ns), "ns");
    out.push("des.est_share_pct", des_share, "%");

    out.push(
        "lock.requests_per_event",
        ratio(lt.request.calls, a.events),
        "ratio",
    );
    out.push(
        "lock.conflict_rate",
        ratio(a.report_conflicts, a.report_requests),
        "ratio",
    );
    out.push(
        "lock.deadlock_rate",
        ratio(a.deadlocks, a.report_conflicts),
        "ratio",
    );
    out.push("lock.mean_wait_ms", ratio(a.wait_ms_sum, a.waits), "ms");
    out.push("lock.probe_hops", mean(&a.probe_hops), "count");
    out.push("lock.request_ns", lt.request.per_call(), "ns");
    out.push("lock.release_ns", lt.release.per_call(), "ns");
    out.push("lock.waits_for_ns", lt.waits_for.per_call(), "ns");
    out.push("lock.find_cycle_ns", lt.find_cycle.per_call(), "ns");
    out.push("lock.replay_fidelity", fidelity, "ratio");
    out.push("lock.est_share_pct", lock_share, "%");

    out.push("storage.touch_ns", a.touch.per_call(), "ns");
    out.push("storage.update_ns", a.update.per_call(), "ns");
    out.push("storage.commit_ns", a.commit.per_call(), "ns");
    out.push("storage.rollback_ns", a.rollback.per_call(), "ns");
    out.push("storage.est_share_pct", storage_share, "%");

    out.push("shard.busy_ms", ratio(a.busy_ns / 1e6, runs), "ms");
    out.push("shard.stall_ms", ratio(a.stall_ns / 1e6, runs), "ms");
    out.push(
        "shard.stall_pct",
        ratio(a.stall_ns, a.busy_ns + a.stall_ns) * 100.0,
        "%",
    );
    out.push("shard.null_advances", ratio(a.null_advances, runs), "count");
    out.push("shard.messages", ratio(a.messages, runs), "count");
    out.push(
        "shard.null_ratio",
        ratio(a.null_advances, a.messages),
        "ratio",
    );
    let speedup = if a.sharded_wall_ns > 0.0 {
        a.one_shard_wall_ns / a.sharded_wall_ns
    } else {
        1.0
    };
    out.push("shard.speedup_vs_1", speedup, "ratio");

    out.push(
        "obs.trace_overhead_pct",
        overhead(a.traced_ns, a.untraced_ns),
        "%",
    );
    out.push(
        "obs.trace_events_per_event",
        ratio(a.trace_events, a.trace_work),
        "ratio",
    );
    let metered_events = if a.samples > 0.0 { a.events } else { 0.0 };
    out.push(
        "obs.metrics_samples_per_event",
        ratio(a.samples, metered_events),
        "ratio",
    );
    out.push(
        "obs.metrics_ns_per_sample",
        ratio(a.metrics_on_ns - a.metrics_off_ns, a.samples),
        "ns",
    );
    out.push(
        "obs.metrics_overhead_pct",
        overhead(a.metrics_on_ns, a.metrics_off_ns),
        "%",
    );

    out.push("model.iterations_p50", percentile(&iters, 0.5), "count");
    out.push("model.iterations_p90", percentile(&iters, 0.9), "count");
    out.push(
        "model.ns_per_iteration",
        ratio(a.solve_ns, a.iterations.iter().sum()),
        "ns",
    );
    out.push("model.accel_accepted", a.accel_accepted, "count");
    out.push("model.accel_rejected", a.accel_rejected, "count");
    out.push(
        "model.converged_frac",
        ratio(a.converged, a.solves),
        "ratio",
    );

    out.push(
        "qnet.lattice_size_p90",
        percentile(&sorted(&a.lattice), 0.9),
        "count",
    );
    out.push("qnet.mva_exact_us_p50", percentile(&mva_us, 0.5), "us");
    out.push("qnet.mva_exact_us_p90", percentile(&mva_us, 0.9), "us");
    out.push(
        "qnet.est_share_pct",
        ratio(a.mva_est_ns, a.solve_ns) * 100.0,
        "%",
    );
}
