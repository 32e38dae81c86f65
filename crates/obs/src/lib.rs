//! # carat-obs — deterministic observability for the CARAT reproduction
//!
//! The paper's whole contribution is *explaining* where a transaction's
//! time goes — its phase decomposition (Table 1, Eqs. 2–10) and the
//! fixed-point contention loop (Eqs. 11–24). This crate opens the black
//! boxes on both sides of that comparison:
//!
//! * [`trace`]: a zero-cost-when-disabled event tracer for the simulator.
//!   The engine records structured transaction-lifecycle events — phase
//!   residence, lock request/block/grant, deadlock victims and probe hops,
//!   2PC prepare/decide rounds, crash/recovery, net send/drop/retry — into
//!   a bounded ring buffer, optionally filtered by event kind, node, and
//!   transaction type. The buffer exports as Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`, with per-node tracks and
//!   per-transaction async spans) or as JSONL.
//! * [`metrics`]: a deterministic sim-time metrics recorder. The engine
//!   reports gauges (station populations, utilization-to-date, lock-table
//!   depth, blocked/active transaction counts, 2PC in-flight, journal
//!   bytes, cross-LP message totals) when they change, at event time; the
//!   exports expand the change points to a fixed virtual-time cadence as
//!   JSONL/CSV timeseries or as Chrome trace-event counter tracks on the
//!   same Perfetto timeline as the lifecycle trace.
//! * [`iterlog`]: a solver iteration log recording the residual and the
//!   per-chain contention state (`Pb`, `Pd`, `L_h`, `R_LW`, `R_RW`,
//!   `R_CW`) of every fixed-point iteration, exported as CSV or JSON, so
//!   the convergence and damping behavior of Eqs. 11–24 is debuggable.
//! * [`counters`]: a profiling-counter registry with canonical
//!   (sorted-key) deterministic snapshots — events by kind, scheduler-heap
//!   and transaction-slab high-water marks, per-phase residence totals —
//!   surfaced in `SimReport`.
//! * [`shardstats`]: process-global telemetry for the sharded simulator
//!   driver (busy/stall time, null-message counts, monolithic fallbacks)
//!   — kept *outside* `SimReport` so reports stay byte-identical for
//!   every shard count.
//!
//! ## Determinism contract
//!
//! Everything this crate emits derives exclusively from simulation /
//! solver state (virtual clock, gids, seeded RNG draws): no wall-clock
//! timestamps, no hash-map iteration orders, no thread interleavings.
//! Consequently traced output is byte-identical across repeated runs and
//! across worker-thread counts, and observation never perturbs results —
//! with tracing disabled the instrumented hot paths reduce to one branch
//! and allocate nothing.

pub mod counters;
pub mod iterlog;
pub mod metrics;
pub mod shardstats;
pub mod trace;

pub use counters::CounterRegistry;
pub use iterlog::{IterLog, IterRow};
pub use metrics::{
    sparkline, MetricKind, MetricSample, MetricSummary, MetricsConfig, MetricsFilter,
    MetricsRecorder, UtilState,
};
pub use shardstats::ShardStatsSnapshot;
pub use trace::{TraceConfig, TraceEvent, TraceFilter, TraceKind, Tracer};

/// Shortest-round-trip decimal rendering of a finite `f64`, the canonical
/// float format of every JSON artifact in this repository (matches
/// `carat_bench::json_f64`). Non-finite values render as `null` so the
/// output stays valid JSON.
pub fn fmt_f64(v: f64) -> String {
    JsonF64(v).to_string()
}

/// Displays an `f64` as [`fmt_f64`] renders it, for writing straight into
/// an output buffer.
pub(crate) struct JsonF64(pub(crate) f64);

impl std::fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters)
/// for the labels embedded in trace and log exports.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_is_shortest_roundtrip() {
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let v = 1.0 / 3.0;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_escape("plain"), "plain");
    }
}
