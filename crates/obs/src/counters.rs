//! Profiling-counter registry with canonical deterministic snapshots.
//!
//! Counters are named monotone `u64` totals (events by kind, high-water
//! marks, per-phase residence totals). The registry stores them in a
//! `BTreeMap` so every enumeration — snapshots, equality — is in sorted
//! key order, independent of insertion order or thread count.

use std::collections::BTreeMap;

/// A named bag of monotone counters with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// The counter's value, or 0 when never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Sorted `(name, value)` view — the canonical snapshot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut r = CounterRegistry::new();
        r.add("events_total", 3);
        r.add("events_total", 4);
        assert_eq!(r.get("events_total"), 7);
        assert_eq!(r.get("never_touched"), 0);
    }
}
