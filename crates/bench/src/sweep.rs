//! Deterministic parallel sweep engine.
//!
//! Every experiment of the `exp` binary evaluates a *grid* of
//! configurations — model solves and simulator runs that are independent
//! of one another except where warm starting deliberately chains them.
//! This module runs such a grid across a fixed pool of worker threads
//! while guaranteeing that the produced results (and therefore any output
//! rendered from them) are **byte-identical to a sequential run**, for
//! every thread count:
//!
//! * scheduling is *dynamically load-balanced* — workers draw the next
//!   task from an atomic ticket counter over a fixed task order, so a
//!   worker stuck on a slow task never leaves queued work idle behind a
//!   static partition — but *which values are computed* never depends on
//!   timing: ticket `t` is task `t`, and every task carries its own index
//!   to a dedicated result slot;
//! * results are merged back in task order, so downstream printing sees
//!   the same sequence a `for` loop would have produced;
//! * each task's computation is untouched by the scheduling (the model
//!   solver and the simulator are themselves deterministic), so the values
//!   are bitwise equal, not merely statistically equivalent;
//! * warm-start chains ([`solve_chain`]) keep their points in one task, so
//!   the neighbor a point is seeded from is fixed by the chain layout, not
//!   by which point happened to finish first.
//!
//! The engine is dependency-free: `std::thread::scope` only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use carat::model::{Model, ModelConfig, ModelOptions, ModelReport, WarmStart};

/// How a sweep should be executed.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads for independent tasks (1 = fully sequential). The
    /// results are byte-identical for every value; this only trades wall
    /// clock for cores.
    pub threads: usize,
    /// Seed warm-startable chains from their nearest solved neighbor
    /// (see [`solve_chain`]); `false` forces every point to a cold start.
    pub warm: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            warm: true,
        }
    }
}

impl SweepOptions {
    /// The `--sequential` escape hatch: one worker, everything in task
    /// order on the calling thread.
    pub fn sequential() -> Self {
        SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        }
    }
}

/// Runs `f` over every task on a fixed worker pool and returns the results
/// **in task order**.
///
/// Scheduling is a *deterministic dynamic* (work-stealing-equivalent)
/// scheme: tickets are drawn from one atomic counter, ticket `t` is task
/// `t`, and each result lands in the slot of its task index. Whichever
/// worker is free takes the next ticket — that race decides only *who*
/// computes a task and *when*, never *what* is computed or *where* the
/// result goes, so the returned vector is byte-identical to a sequential
/// run for every thread count. A panic inside any task propagates to the
/// caller (after the scope has joined every worker), exactly as it would
/// sequentially.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, opts: &SweepOptions, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let threads = opts.threads.max(1).min(n.max(1));
    if threads <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let cells: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // `Mutex<Option<R>>` rather than `OnceLock<R>` keeps the public bound
    // at `R: Send` (a `OnceLock` slot shared across workers needs `Sync`).
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let ticket = AtomicUsize::new(0);
    let (f, cells, slots, ticket) = (&f, &cells, &slots, &ticket);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = ticket.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = cells[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each ticket maps to a distinct task");
                let result = f(i, task);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .iter()
        .map(|s| {
            s.lock()
                .unwrap()
                .take()
                .expect("every task produces exactly one result")
        })
        .collect()
}

/// One model configuration inside a warm-start chain.
#[derive(Debug, Clone)]
pub struct ModelPoint {
    /// Display label (workload, n, variant — whatever the caller sweeps).
    pub label: String,
    /// The configuration to solve.
    pub cfg: ModelConfig,
    /// Solver options for this point.
    pub opts: ModelOptions,
}

impl ModelPoint {
    /// A standard-parameter point.
    pub fn new(label: impl Into<String>, cfg: ModelConfig) -> Self {
        ModelPoint {
            label: label.into(),
            cfg,
            opts: ModelOptions::default(),
        }
    }
}

/// Solves a chain of related model points in order, seeding each fixed
/// point from its **nearest already-solved neighbor** — the previous point
/// in the chain (callers lay chains out along their sweep axis, e.g.
/// ascending n). The first point, and any point whose chain structure is
/// incompatible with the snapshot, falls back to a cold start; which one
/// was used is recorded in `ConvergenceInfo::warm_started`. With
/// `warm = false` every point starts cold.
pub fn solve_chain(points: &[ModelPoint], warm: bool) -> Vec<ModelReport> {
    let mut reports = Vec::with_capacity(points.len());
    let mut snapshot: Option<WarmStart> = None;
    for point in points {
        let model = Model::with_options(point.cfg.clone(), point.opts.clone());
        let (report, ws) = model.solve_warm(if warm { snapshot.as_ref() } else { None });
        snapshot = Some(ws);
        reports.push(report);
    }
    reports
}

/// Canonical JSON float: `f64`'s shortest-round-trip `Display`, which is a
/// pure function of the bits — two bitwise-equal solves render the same
/// bytes. Non-finite values (never produced by a healthy solve) are
/// rendered as `null`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Canonical JSON rendering of a solved model chain: one object per point,
/// every field ordered by construction (no hash-map iteration anywhere on
/// the path). This is the byte stream the determinism gate compares across
/// thread counts.
pub fn chain_to_json(points: &[ModelPoint], reports: &[ModelReport]) -> String {
    assert_eq!(points.len(), reports.len());
    let mut rows = Vec::with_capacity(points.len());
    for (p, r) in points.iter().zip(reports) {
        let nodes: Vec<String> = r
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"name\": \"{}\", \"tx_per_s\": {}, \"cpu_util\": {}, \
                     \"disk_util\": {}, \"dio_per_s\": {}, \"records_per_s\": {}}}",
                    n.name,
                    json_f64(n.tx_per_s),
                    json_f64(n.cpu_util),
                    json_f64(n.disk_util),
                    json_f64(n.dio_per_s),
                    json_f64(n.records_per_s),
                )
            })
            .collect();
        rows.push(format!(
            "  {{\"point\": \"{}\", \"iterations\": {}, \"residual\": {}, \
             \"warm_started\": {}, \"nodes\": [{}]}}",
            p.label,
            r.convergence.iterations,
            json_f64(r.convergence.residual),
            r.convergence.warm_started,
            nodes.join(", "),
        ));
    }
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat::workload::StandardWorkload;

    fn opts(threads: usize) -> SweepOptions {
        SweepOptions {
            threads,
            warm: true,
        }
    }

    #[test]
    fn run_tasks_preserves_task_order_for_any_partition() {
        // Each task runs once, with its own index, and its result lands in
        // its own slot, however the tasks spread over the workers.
        let tasks: Vec<u64> = (0..23).collect();
        let expected: Vec<(usize, u64)> = tasks.iter().map(|&t| (t as usize, t * t)).collect();
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let got = run_tasks(tasks.clone(), &opts(threads), |i, t| (i, t * t));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn dynamic_scheduler_is_deterministic_under_skewed_task_cost() {
        // A deliberately unbalanced grid: task 0 sleeps while the rest are
        // instant. Dynamic ticketing lets other workers drain the queue,
        // but the merged output must not care who did what.
        let tasks: Vec<u64> = (0..16).collect();
        let slow = |i: usize, t: u64| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            t * 3
        };
        let expected: Vec<u64> = tasks.iter().map(|t| t * 3).collect();
        for threads in [1usize, 2, 4, 8] {
            let got = run_tasks(tasks.clone(), &opts(threads), slow);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_model_chain_is_byte_identical_to_sequential() {
        // Two chains (two workloads) across a short n sweep: the rendered
        // JSON must match byte for byte between 1 worker and many.
        let chains: Vec<Vec<ModelPoint>> = [StandardWorkload::Mb4, StandardWorkload::Mb8]
            .iter()
            .map(|&wl| {
                [4u32, 8]
                    .iter()
                    .map(|&n| {
                        ModelPoint::new(format!("{wl}/n{n}"), ModelConfig::new(wl.spec(2), n))
                    })
                    .collect()
            })
            .collect();
        let render = |o: &SweepOptions| -> String {
            let reports = run_tasks(chains.clone(), o, |_, pts| {
                (pts.clone(), solve_chain(&pts, o.warm))
            });
            reports
                .iter()
                .map(|(pts, reps)| chain_to_json(pts, reps))
                .collect::<Vec<_>>()
                .join("")
        };
        let seq = render(&opts(1));
        for threads in [2usize, 4] {
            assert_eq!(seq, render(&opts(threads)), "threads={threads}");
        }
    }

    #[test]
    fn solve_chain_warm_starts_every_point_after_the_first() {
        let points: Vec<ModelPoint> = [4u32, 8, 12]
            .iter()
            .map(|&n| {
                ModelPoint::new(
                    format!("n{n}"),
                    ModelConfig::new(StandardWorkload::Mb8.spec(2), n),
                )
            })
            .collect();
        let warm = solve_chain(&points, true);
        assert!(!warm[0].convergence.warm_started);
        assert!(warm[1].convergence.warm_started);
        assert!(warm[2].convergence.warm_started);
        let cold = solve_chain(&points, false);
        assert!(cold.iter().all(|r| !r.convergence.warm_started));
        // Warm iterations never exceed cold anywhere, and win in total.
        let iters =
            |rs: &[ModelReport]| -> usize { rs.iter().map(|r| r.convergence.iterations).sum() };
        assert!(
            iters(&warm) < iters(&cold),
            "{} !< {}",
            iters(&warm),
            iters(&cold)
        );
    }
}
