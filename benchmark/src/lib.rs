//! End-to-end and per-layer benchmark of the CARAT model and its three
//! simulator engines. See `benchmark/README.md` for the workloads, the
//! metrics, and how to read them.

pub mod compare;
mod layers;
pub mod stats;
pub mod workload;

use stats::{valid_name, Outcome};
use workload::{check_engines, check_identity, measure, model_err_pct, Workload};

/// Runs one workload in this process: the end-to-end metrics, or with
/// `trace` the per-layer ones, plus every correctness gate that applies.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let inputs = w.inputs(seed, smoke);
    let mut out = Outcome::default();
    check_engines(w, &inputs, &mut out);
    if trace {
        layers::trace(w, &inputs, seconds, &mut out);
    } else {
        let reports = measure(w, &inputs, seconds, &mut out);
        match w {
            Workload::SimXsite => check_identity(
                w,
                &inputs[0],
                reports[0].as_ref(),
                "running on one shard",
                |c| c.shards = 1,
                &mut out,
            ),
            Workload::SimObserved => check_identity(
                w,
                &inputs[0],
                reports[0].as_ref(),
                "turning the metrics recorder off",
                |c| c.metrics = None,
                &mut out,
            ),
            _ => {}
        }
        let err = model_err_pct(w, &inputs, &reports, smoke, &mut out.errors);
        out.push("model_err_pct", err, "%");
    }
    for m in &mut out.metrics {
        if !valid_name(m.name) || !m.value.is_finite() {
            out.errors
                .push(format!("metric {} has value {}", m.name, m.value));
            m.value = 0.0;
        }
    }
    out
}
