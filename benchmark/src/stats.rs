//! Order statistics, seed derivation, metric names, and result output.

use std::fmt::Write as _;

/// The seed of the `i`-th generated input of a run with base seed `base`.
pub(crate) fn run_seed(base: u64, i: u64) -> u64 {
    carat::des::splitmix64(base.wrapping_add(i))
}

/// Nearest-rank percentile of ascending `sorted`: the ⌈p·N⌉-th smallest
/// sample (1-based), the same rank rule as the simulator's response-time
/// percentiles. `p` is a fraction in `(0, 1]`; an empty slice gives 0.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a copy of `v` ascending.
pub(crate) fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle samples for an even count); 0 when
/// empty.
pub(crate) fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median, and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(v, n=4)`, so spreads computed here match
/// the ones acceptance scripts compute from the same values. Fewer than two
/// samples give the single value (or 0) for all three.
pub(crate) fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Whether `s` is a valid metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, the digest of a workload's report bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload process.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with every digit
    /// (Rust's shortest round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // ⌈0.9 · 20⌉ = 18th smallest; two samples lie beyond it.
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        // A rank that lands between samples rounds up, never interpolates.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // With 100 samples, at least ten lie beyond p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.9)).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn seed_derivation_is_deterministic_and_distinct() {
        assert_eq!(run_seed(7, 3), run_seed(7, 3));
        assert_eq!(run_seed(7, 3), carat::des::splitmix64(10));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| run_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        // Neighbouring base seeds shift the same stream: S + i.
        assert_eq!(run_seed(42, 1), run_seed(43, 0));
    }

    #[test]
    fn names_use_the_restricted_charset() {
        for ok in ["setup_s", "sim.run_ns_per_event", "model-grid", "p90", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "run ms", "x/y", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.125, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
