//! Process-global telemetry for the sharded simulator driver.
//!
//! The determinism contract (DESIGN.md §14) forbids anything
//! shard-count-dependent — wall-clock ratios, thread interleavings,
//! fallback flags — from entering `SimReport`: reports must stay
//! byte-identical for every `--shards` value, including `--shards 1`.
//! Scheduling telemetry therefore lives *outside* the report, in this
//! process-global registry of relaxed atomics. The driver bumps them from
//! worker threads; tools (`carat-cli`, `exp bench`) snapshot them after a
//! run to surface busy/stall ratios, null-message (demand-driven clock
//! publication) counts, cross-shard message volume, and silent
//! monolithic fallbacks.
//!
//! Relaxed ordering is deliberate: these are statistical counters with no
//! cross-thread happens-before obligations, and the snapshot is only read
//! after the worker threads have been joined.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static BUSY_NS: AtomicU64 = AtomicU64::new(0);
static STALL_NS: AtomicU64 = AtomicU64::new(0);
static NULL_ADVANCES: AtomicU64 = AtomicU64::new(0);
static MESSAGES: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Wall-clock nanoseconds shards spent executing events.
pub fn add_busy_ns(ns: u64) {
    BUSY_NS.fetch_add(ns, Relaxed);
}

/// Wall-clock nanoseconds shards spent blocked on peers' horizons.
pub fn add_stall_ns(ns: u64) {
    STALL_NS.fetch_add(ns, Relaxed);
}

/// Demand-driven null messages: clock publications that carried no event,
/// only a promise (the CMB deadlock-avoidance step).
pub fn add_null_advances(n: u64) {
    NULL_ADVANCES.fetch_add(n, Relaxed);
}

/// Cross-shard simulation messages routed through `ShardChannel`s.
pub fn add_messages(n: u64) {
    MESSAGES.fetch_add(n, Relaxed);
}

/// Runs where `shards > 1` was requested but the config was ineligible
/// for the sharded engine, so execution fell back to the monolithic loop.
pub fn note_fallback() {
    FALLBACKS.fetch_add(1, Relaxed);
}

/// A point-in-time copy of the shard telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Nanoseconds spent executing events across all shard threads.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for peer horizons to open.
    pub stall_ns: u64,
    /// Demand-driven null messages (eventless clock publications).
    pub null_advances: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Monolithic fallbacks despite `shards > 1`.
    pub fallbacks: u64,
}

impl ShardStatsSnapshot {
    /// Null messages per cross-shard payload message — the overhead ratio
    /// of the conservative protocol. Zero when no messages flowed.
    pub fn null_message_ratio(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.null_advances as f64 / self.messages as f64
        }
    }
}

impl std::ops::Sub for ShardStatsSnapshot {
    type Output = ShardStatsSnapshot;

    /// Field-wise saturating difference — the per-run delta between two
    /// snapshots of the monotone registry.
    fn sub(self, earlier: ShardStatsSnapshot) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            stall_ns: self.stall_ns.saturating_sub(earlier.stall_ns),
            null_advances: self.null_advances.saturating_sub(earlier.null_advances),
            messages: self.messages.saturating_sub(earlier.messages),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }
}

/// A scoped view of the registry for one run: snapshot at construction,
/// per-run delta at [`finish`](RunScope::finish). This is how multi-run
/// processes (benchmark matrices, the replication harness, a CLI process
/// running several points) attribute busy/stall/null totals to a single
/// run instead of reporting the process-lifetime accumulation.
///
/// The counters stay process-global, so a delta attributes *everything*
/// that happened during the scope — concurrent runs in other threads
/// bleed into each other's deltas. Callers that want exact per-run
/// numbers must not overlap scopes.
#[derive(Debug, Clone, Copy)]
pub struct RunScope {
    start: ShardStatsSnapshot,
}

/// Opens a per-run telemetry scope at the current counter values.
pub fn begin_run() -> RunScope {
    RunScope { start: snapshot() }
}

impl RunScope {
    /// The delta accumulated since the scope opened.
    pub fn finish(self) -> ShardStatsSnapshot {
        snapshot() - self.start
    }
}

/// Reads the current counter values.
pub fn snapshot() -> ShardStatsSnapshot {
    ShardStatsSnapshot {
        busy_ns: BUSY_NS.load(Relaxed),
        stall_ns: STALL_NS.load(Relaxed),
        null_advances: NULL_ADVANCES.load(Relaxed),
        messages: MESSAGES.load(Relaxed),
        fallbacks: FALLBACKS.load(Relaxed),
    }
}

/// Zeroes all counters. Benchmarks call this between matrix cells so each
/// cell reports its own traffic.
pub fn reset() {
    BUSY_NS.store(0, Relaxed);
    STALL_NS.store(0, Relaxed);
    NULL_ADVANCES.store(0, Relaxed);
    MESSAGES.store(0, Relaxed);
    FALLBACKS.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: the counters are process-global,
    // so parallel tests would race a shared fixture.
    #[test]
    fn counters_accumulate_snapshot_and_reset() {
        reset();
        assert_eq!(snapshot(), ShardStatsSnapshot::default());
        add_busy_ns(100);
        add_stall_ns(40);
        add_null_advances(6);
        add_messages(3);
        note_fallback();
        note_fallback();
        let s = snapshot();
        assert_eq!(s.busy_ns, 100);
        assert_eq!(s.stall_ns, 40);
        assert_eq!(s.null_advances, 6);
        assert_eq!(s.messages, 3);
        assert_eq!(s.fallbacks, 2);
        assert_eq!(s.null_message_ratio(), 2.0);
        reset();
        assert_eq!(snapshot().messages, 0);
        assert_eq!(snapshot().null_message_ratio(), 0.0);

        // Scoped per-run deltas: a scope opened mid-process sees only the
        // traffic of its own run, not the process-lifetime accumulation.
        add_messages(10);
        let scope = begin_run();
        add_messages(4);
        add_null_advances(2);
        add_busy_ns(50);
        let delta = scope.finish();
        assert_eq!(delta.messages, 4);
        assert_eq!(delta.null_advances, 2);
        assert_eq!(delta.busy_ns, 50);
        assert_eq!(delta.fallbacks, 0);
        assert_eq!(
            snapshot().messages,
            14,
            "the registry itself keeps accumulating"
        );
        reset();
    }
}
