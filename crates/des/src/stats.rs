//! Statistics accumulators for simulation output analysis.

use crate::Time;

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// busy-server counts, locks held, ...).
///
/// The caller reports every change of the signal with [`TimeWeighted::set`];
/// the accumulator integrates the signal over time. [`TimeWeighted::mean`]
/// over an observation window `[start, end]` is `∫ x dt / (end − start)`.
///
/// ```
/// use carat_des::TimeWeighted;
/// let mut q = TimeWeighted::new(0.0, 0.0);
/// q.set(10.0, 2.0); // 0 customers during [0, 10), then 2
/// q.set(30.0, 1.0); // 2 customers during [10, 30), then 1
/// assert!((q.mean(40.0) - (0.0*10.0 + 2.0*20.0 + 1.0*10.0) / 40.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: Time,
    last_t: Time,
    value: f64,
    area: f64,
}

impl TimeWeighted {
    /// Starts observing at time `start` with initial signal `value`.
    pub fn new(start: Time, value: f64) -> Self {
        TimeWeighted {
            start,
            last_t: start,
            value,
            area: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: Time, value: f64) {
        debug_assert!(now >= self.last_t, "time went backwards");
        self.area += self.value * (now - self.last_t);
        self.last_t = now;
        self.value = value;
    }

    /// Adds `delta` to the current signal at time `now`.
    pub fn add(&mut self, now: Time, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Time-average of the signal over `[start, now]`.
    ///
    /// Returns 0 for an empty window.
    pub fn mean(&self, now: Time) -> f64 {
        let span = now - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        (self.area + self.value * (now - self.last_t)) / span
    }

    /// The accumulator's state `(start, last_t, value, area)`. [`mean`]
    /// is `(area + value · (now − last_t)) / (now − start)` (0 for an empty
    /// window), so a copy of these four numbers evaluates any later `now`
    /// exactly as `mean` would until the next `set`.
    ///
    /// [`mean`]: Self::mean
    pub fn state(&self) -> (Time, Time, f64, f64) {
        (self.start, self.last_t, self.value, self.area)
    }

    /// Restarts the observation window at `now`, keeping the current value.
    ///
    /// Used to discard a warm-up transient before collecting steady-state
    /// statistics.
    pub fn reset(&mut self, now: Time) {
        self.start = now;
        self.last_t = now;
        self.area = 0.0;
    }
}

/// Sample statistics (count / mean / variance / min / max) computed online
/// with Welford's algorithm, which is numerically stable for long runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Forgets all observations.
    pub fn reset(&mut self) {
        *self = Tally::new();
    }

    /// Folds `other` into `self` so the result summarises the concatenated
    /// observation streams (Chan et al.'s parallel-variance update). Used by
    /// the replication harness to pool per-replication tallies; merging in a
    /// fixed order is deterministic, and mean/variance agree with a single
    /// tally over the combined stream to floating-point rounding.
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.n as f64, other.n as f64);
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A plain event counter with a rate helper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    n: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter { n: 0 }
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.n += 1;
    }

    /// Adds `k`.
    pub fn add(&mut self, k: u64) {
        self.n += k;
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Events per unit time over a window of length `span`.
    pub fn rate(&self, span: Time) -> f64 {
        if span <= 0.0 {
            0.0
        } else {
            self.n as f64 / span
        }
    }

    /// Zeroes the counter.
    pub fn reset(&mut self) {
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_integrates_piecewise_constant() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set(2.0, 3.0);
        tw.set(4.0, 0.0);
        // 1*2 + 3*2 + 0*1 over 5 time units
        assert!((tw.mean(5.0) - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_and_value() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.add(1.0, 2.0);
        tw.add(2.0, -1.0);
        assert_eq!(tw.value(), 1.0);
        assert!((tw.mean(3.0) - (0.0 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_discards_history() {
        let mut tw = TimeWeighted::new(0.0, 100.0);
        tw.set(10.0, 2.0);
        tw.reset(10.0);
        assert!((tw.mean(20.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // population variance 4 → sample variance 32/7
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert!((t.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn tally_empty_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn tally_merge_equals_concatenated_stream() {
        // Two disjoint halves of one stream: merge(a, b) must summarise the
        // concatenation (exactly for count/min/max/sum, to FP rounding for
        // mean and variance).
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, 0.5, 12.25, 3.0];
        for split in 0..=xs.len() {
            let (left, right) = xs.split_at(split);
            let mut a = Tally::new();
            let mut b = Tally::new();
            left.iter().for_each(|&x| a.record(x));
            right.iter().for_each(|&x| b.record(x));
            let mut whole = Tally::new();
            xs.iter().for_each(|&x| whole.record(x));
            a.merge(&b);
            assert_eq!(a.count(), whole.count(), "split {split}");
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
            assert!((a.mean() - whole.mean()).abs() < 1e-12, "split {split}");
            assert!(
                (a.variance() - whole.variance()).abs() < 1e-9,
                "split {split}: {} vs {}",
                a.variance(),
                whole.variance()
            );
        }
    }

    #[test]
    fn tally_merge_with_empty_is_identity() {
        let mut a = Tally::new();
        a.record(3.0);
        a.record(5.0);
        let before = a.clone();
        a.merge(&Tally::new());
        assert_eq!(a, before, "merging an empty tally must change nothing");
        let mut e = Tally::new();
        e.merge(&before);
        assert_eq!(e, before, "merging into an empty tally must copy");
    }

    #[test]
    fn counter_rate() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.count(), 10);
        assert!((c.rate(5.0) - 2.0).abs() < 1e-12);
        assert_eq!(c.rate(0.0), 0.0);
        c.reset();
        assert_eq!(c.count(), 0);
    }
}

/// Fixed-layout log-scale histogram for latency-style quantities.
///
/// Buckets are geometric: `[0, base)`, `[base, base·g)`, ... with growth
/// factor `g`. Quantile estimates interpolate linearly inside a bucket,
/// which is plenty for reporting p50/p95/p99 of simulated response times.
///
/// ```
/// use carat_des::Histogram;
/// let mut h = Histogram::for_latency_ms();
/// for ms in [5.0, 7.0, 9.0, 11.0, 400.0] {
///     h.record(ms);
/// }
/// assert!(h.quantile(0.5) < 20.0);
/// assert!(h.quantile(0.95) > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    base: f64,
    growth: f64,
    counts: Vec<u64>,
    total: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `buckets` geometric buckets starting at `base`
    /// (first bucket is `[0, base)`) growing by `growth` per bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0`, `growth > 1`, and `buckets ≥ 1`.
    pub fn new(base: f64, growth: f64, buckets: usize) -> Self {
        assert!(base > 0.0 && growth > 1.0 && buckets >= 1);
        Histogram {
            base,
            growth,
            counts: vec![0; buckets],
            total: 0,
            overflow: 0,
        }
    }

    /// A sensible default for millisecond latencies: 1 ms … ~3 hours.
    pub fn for_latency_ms() -> Self {
        Histogram::new(1.0, 1.6, 36)
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.base {
            return Some(0);
        }
        // The ln()-ratio is only a *hint*: it rounds differently from the
        // powi()-computed edges exactly when x sits on (or within an ulp
        // of) a bucket edge, so an edge observation could land on either
        // side. Nudge the hint against lower()/upper() so membership
        // agrees with the documented half-open [lower, upper) buckets
        // bit-for-bit — a histogram merged across shards must count every
        // edge sample in the same bucket as the single-shard run.
        let hint = ((x / self.base).ln() / self.growth.ln()).floor().max(0.0);
        let mut idx = 1 + (hint as usize).min(self.counts.len());
        while idx > 1 && x < self.lower(idx) {
            idx -= 1;
        }
        while idx < self.counts.len() && x >= self.upper(idx) {
            idx += 1;
        }
        if idx < self.counts.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Lower edge of bucket `i`.
    fn lower(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.base * self.growth.powi(i as i32 - 1)
        }
    }

    /// Upper edge of bucket `i`.
    fn upper(&self, i: usize) -> f64 {
        self.base * self.growth.powi(i as i32)
    }

    /// Records one non-negative observation.
    pub fn record(&mut self, x: f64) {
        assert!(x >= 0.0 && x.is_finite(), "bad observation {x}");
        self.total += 1;
        match self.bucket_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimates the `q`-quantile (`0 < q < 1`); returns 0 when empty.
    /// Overflowed observations are treated as sitting at the top edge.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "bad quantile {q}");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= target {
                // Midpoint rule: under the uniform-within-bucket assumption
                // the j-th of a bucket's c samples (j = target − seen) sits
                // at fraction (j − 0.5)/c of the bucket width. The earlier
                // j/c rule was biased high by half a sub-interval and
                // returned the bucket's *exclusive* upper edge whenever the
                // rank landed on its last sample.
                let into = ((target - seen) as f64 - 0.5) / c.max(1) as f64;
                return self.lower(i) + into * (self.upper(i) - self.lower(i));
            }
            seen += c;
        }
        self.upper(self.counts.len() - 1)
    }

    /// Forgets all observations.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.overflow = 0;
    }

    /// Folds `other` into `self` by adding bucket counts. Because the
    /// layout is fixed, the merged histogram is *exactly* the histogram of
    /// the concatenated streams — pooled quantiles carry no merge error.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different layouts (base, growth,
    /// or bucket count); their buckets would not line up.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.base == other.base
                && self.growth == other.growth
                && self.counts.len() == other.counts.len(),
            "histogram layout mismatch: {}x{}^{} vs {}x{}^{}",
            self.base,
            self.growth,
            self.counts.len(),
            other.base,
            other.growth,
            other.counts.len()
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::Histogram;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// An observation exactly on a bucket edge must land in the bucket
        /// whose *inclusive lower* edge it is: `upper(i)` (the exclusive
        /// edge of bucket i) always counts in bucket `i + 1`.
        #[test]
        fn edge_observation_lands_in_the_upper_bucket(
            base_mil in 1u32..5000,
            growth_mil in 1010u32..4000,
            i in 0usize..30,
        ) {
            let base = base_mil as f64 / 1000.0;
            let growth = growth_mil as f64 / 1000.0;
            let mut h = Histogram::new(base, growth, 32);
            let edge = h.upper(i);
            prop_assert_eq!(h.bucket_of(edge), Some(i + 1));
            h.record(edge);
            prop_assert_eq!(h.counts[i + 1], 1, "record({edge}) left bucket {}", i + 1);
        }

        /// Whatever bucket `bucket_of` picks, the sample really lies in
        /// that bucket's half-open `[lower, upper)` range; an overflow
        /// verdict means the sample is at or above the top edge.
        #[test]
        fn bucket_of_agrees_with_the_computed_edges(
            base_mil in 1u32..5000,
            growth_mil in 1010u32..4000,
            x_mil in 0u64..100_000_000,
        ) {
            let base = base_mil as f64 / 1000.0;
            let growth = growth_mil as f64 / 1000.0;
            let h = Histogram::new(base, growth, 32);
            let x = x_mil as f64 / 1000.0;
            match h.bucket_of(x) {
                Some(b) => prop_assert!(
                    h.lower(b) <= x && x < h.upper(b),
                    "x = {x} outside bucket {b} = [{}, {})",
                    h.lower(b),
                    h.upper(b)
                ),
                None => prop_assert!(x >= h.upper(31)),
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let mut h = Histogram::new(1.0, 1.5, 40);
        for i in 1..=10_000 {
            h.record(i as f64 / 10.0); // 0.1 .. 1000
        }
        let p50 = h.quantile(0.5);
        assert!((400.0..650.0).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(0.95);
        assert!((850.0..1100.0).contains(&p95), "p95 = {p95}");
        assert!(h.quantile(0.99) >= p95);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::for_latency_ms();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn overflow_clamps_to_top_edge() {
        let mut h = Histogram::new(1.0, 2.0, 4); // top edge 8
        for _ in 0..10 {
            h.record(1e9);
        }
        assert_eq!(h.quantile(0.5), 8.0);
    }

    #[test]
    fn monotone_quantiles() {
        let mut h = Histogram::for_latency_ms();
        let mut state = 12345u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) as f64 / 100.0;
            h.record(x);
        }
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantiles must be monotone");
            prev = v;
        }
    }

    #[test]
    fn rank_on_bucket_boundary_stays_inside_the_bucket() {
        // 4 samples in [1, 2), 4 in [4, 8): p50's rank is the last sample
        // of the first occupied bucket. The estimate must stay strictly
        // inside that bucket — returning the exclusive upper edge (the old
        // j/c interpolation) jumps to the next bucket's lower edge.
        let mut h = Histogram::new(1.0, 2.0, 8);
        for x in [1.2, 1.4, 1.6, 1.8, 4.5, 5.0, 6.0, 7.0] {
            h.record(x);
        }
        let p50 = h.quantile(0.5);
        assert!((1.0..2.0).contains(&p50), "p50 = {p50} escaped [1, 2)");
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::for_latency_ms();
        h.record(5.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.9), 0.0);
    }

    #[test]
    fn merge_equals_histogram_of_concatenated_stream() {
        // Same layout → merged counts are exactly the concatenated stream's
        // counts, so every quantile matches to the last bit.
        let mut state = 99u64;
        let mut sample = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f64 / 16.0
        };
        let mut a = Histogram::for_latency_ms();
        let mut b = Histogram::for_latency_ms();
        let mut whole = Histogram::for_latency_ms();
        for i in 0..4_000 {
            let x = sample();
            if i % 3 == 0 { &mut a } else { &mut b }.record(x);
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn merge_preserves_p95_boundary_interpolation() {
        // The PR-2 interpolation fix: a p95 rank landing on the last sample
        // of its bucket must stay inside the bucket. Split the known sample
        // set across two histograms and merge — the pooled estimate must be
        // identical to the single-histogram estimate, inside [26.84, 42.95).
        let mut samples = vec![2.0f64; 18];
        samples.push(30.0);
        samples.push(500.0);
        let mut a = Histogram::for_latency_ms();
        let mut b = Histogram::for_latency_ms();
        let mut whole = Histogram::for_latency_ms();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(s);
            whole.record(s);
        }
        a.merge(&b);
        let est = a.quantile(0.95);
        assert_eq!(est, whole.quantile(0.95));
        let (lo, hi) = (1.6f64.powi(7), 1.6f64.powi(8));
        assert!(
            lo <= est && est < hi,
            "pooled p95 = {est} escaped [{lo}, {hi})"
        );
    }

    #[test]
    fn merge_accumulates_overflow() {
        let mut a = Histogram::new(1.0, 2.0, 4); // top edge 8
        let mut b = Histogram::new(1.0, 2.0, 4);
        a.record(1e9);
        b.record(1e9);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        // 2 of 3 samples overflowed: the median clamps to the top edge.
        assert_eq!(a.quantile(0.9), 8.0);
    }

    #[test]
    #[should_panic(expected = "histogram layout mismatch")]
    fn merge_rejects_layout_mismatch() {
        let mut a = Histogram::new(1.0, 2.0, 4);
        let b = Histogram::new(1.0, 1.5, 4);
        a.merge(&b);
    }
}
