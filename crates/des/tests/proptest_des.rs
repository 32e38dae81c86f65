//! Property-based tests for the DES kernel.

use carat_des::{Fcfs, Histogram, Scheduler, Tally};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scheduler delivers events in non-decreasing time order and
    /// FIFO within equal timestamps, for arbitrary schedules.
    #[test]
    fn scheduler_total_order(times in proptest::collection::vec(0u32..50, 1..200)) {
        let mut s = Scheduler::new();
        for (seq, &t) in times.iter().enumerate() {
            s.schedule(f64::from(t), (t, seq));
        }
        let mut last_t = f64::NEG_INFINITY;
        let mut last_seq_at_t = None::<usize>;
        while let Some((at, (t, seq))) = s.pop() {
            prop_assert_eq!(at, f64::from(t));
            prop_assert!(at >= last_t);
            if at == last_t {
                prop_assert!(Some(seq) > last_seq_at_t, "FIFO among ties violated");
            }
            last_t = at;
            last_seq_at_t = Some(seq);
            prop_assert_eq!(s.now(), at);
        }
        prop_assert!(s.is_empty());
    }

    /// FCFS conservation: every arrival eventually completes exactly once,
    /// in arrival order, and utilization equals total service over the
    /// busy horizon.
    #[test]
    fn fcfs_conserves_jobs(services in proptest::collection::vec(0.1f64..10.0, 1..60)) {
        let mut r: Fcfs<usize> = Fcfs::new(0.0);
        let mut sched: Scheduler<usize> = Scheduler::new();
        // All jobs arrive at t = 0 in index order.
        let mut started = Vec::new();
        for (i, &svc) in services.iter().enumerate() {
            if let Some(s) = r.arrive(0.0, i, svc) {
                sched.schedule(s.service, s.job);
                started.push(s.job);
            }
        }
        let mut completed = Vec::new();
        while let Some((t, job)) = sched.pop() {
            completed.push(job);
            if let Some(s) = r.complete(t) {
                sched.schedule(t + s.service, s.job);
            }
        }
        let n = services.len();
        prop_assert_eq!(completed.len(), n);
        // FIFO: completion order = arrival order.
        prop_assert_eq!(completed, (0..n).collect::<Vec<_>>());
        let total: f64 = services.iter().sum();
        prop_assert!((r.utilization(total) - 1.0).abs() < 1e-9, "busy the whole horizon");
        prop_assert_eq!(r.completions(), n as u64);
    }

    /// Histogram quantiles are monotone and bracket the observations.
    #[test]
    fn histogram_quantiles_sane(obs in proptest::collection::vec(0.0f64..1e5, 1..500)) {
        let mut h = Histogram::for_latency_ms();
        let mut max = 0.0f64;
        for &x in &obs {
            h.record(x);
            max = max.max(x);
        }
        let mut prev = 0.0;
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let v = h.quantile(q);
            prop_assert!(v >= prev);
            prev = v;
        }
        // Upper quantiles never exceed ~one bucket beyond the max.
        prop_assert!(h.quantile(0.99) <= max * 1.7 + 2.0);
        prop_assert_eq!(h.count(), obs.len() as u64);
    }

    /// Pooling partial histograms with `merge` is lossless: for any stream
    /// and any split point, the merged histogram *is* the histogram of the
    /// concatenated stream, so every quantile agrees exactly — the property
    /// the replication harness relies on when pooling per-replication
    /// response-time distributions.
    #[test]
    fn histogram_merge_is_exact_for_any_split(
        obs in proptest::collection::vec(0.0f64..1e5, 2..400),
        cut in any::<proptest::sample::Index>(),
    ) {
        let cut = cut.index(obs.len());
        let mut left = Histogram::for_latency_ms();
        let mut right = Histogram::for_latency_ms();
        let mut whole = Histogram::for_latency_ms();
        for (i, &x) in obs.iter().enumerate() {
            if i < cut { &mut left } else { &mut right }.record(x);
            whole.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            prop_assert_eq!(left.quantile(q), whole.quantile(q));
        }
        // Bucket resolution: the pooled median sits within one geometric
        // bucket (growth 1.6) of the exact order statistic.
        let mut sorted = obs.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = sorted[(0.5 * obs.len() as f64).ceil() as usize - 1];
        prop_assert!(left.quantile(0.5) <= exact.max(1.0) * 1.6 + 1.0);
        prop_assert!(left.quantile(0.5) >= exact / 1.6 - 1.0);
    }

    /// Chan et al. merging of `Tally` reproduces the concatenated stream's
    /// count/mean/variance/min/max to floating-point rounding, for any
    /// stream and any split point (including empty halves).
    #[test]
    fn tally_merge_matches_concatenated_stream(
        obs in proptest::collection::vec(-1e6f64..1e6, 1..400),
        cut in any::<proptest::sample::Index>(),
    ) {
        let cut = cut.index(obs.len() + 1);
        let mut left = Tally::new();
        let mut right = Tally::new();
        let mut whole = Tally::new();
        for (i, &x) in obs.iter().enumerate() {
            if i < cut { &mut left } else { &mut right }.record(x);
            whole.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
        let scale = whole.mean().abs().max(1.0);
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-9 * scale,
            "mean {} vs {}", left.mean(), whole.mean());
        let vscale = whole.variance().max(1.0);
        prop_assert!((left.variance() - whole.variance()).abs() <= 1e-6 * vscale,
            "variance {} vs {}", left.variance(), whole.variance());
    }
}

/// Abstract Chandy–Misra–Bryant execution over the real `PromiseBoard` /
/// `ShardChannel` machinery, one LP per thread, used by the no-hang
/// property below.
///
/// `n` logical processes each hold a sorted calendar of local events;
/// processing anything (a local event at `t`, or a delivered message with
/// remaining hops) sends one message to the next LP around the ring at
/// `t + lookahead`. LPs advance *only* through their horizon — no global
/// knowledge — and publish the conservative promise
/// `min(next local event, own horizon)`. Returns the number of full
/// sweeps and the number of delivered messages.
fn conservative_ring(
    locals: &[Vec<f64>],
    lookahead: f64,
    ttl: u8,
    sweep_order: &[usize],
    max_sweeps: usize,
) -> (usize, u64) {
    use carat_des::shard::{PromiseBoard, ShardChannel};
    let n = locals.len();
    let board = PromiseBoard::new(n, lookahead);
    let mut channels: Vec<ShardChannel<u8>> = (0..n * n).map(|_| ShardChannel::new()).collect();
    let mut pending: Vec<std::collections::VecDeque<f64>> = locals
        .iter()
        .map(|ts| ts.iter().copied().collect())
        .collect();
    let mut delivered = 0u64;
    let mut sweeps = 0usize;
    loop {
        let idle = pending.iter().all(|p| p.is_empty()) && channels.iter().all(|c| c.is_empty());
        if idle || sweeps > max_sweeps {
            return (sweeps, delivered);
        }
        sweeps += 1;
        for &i in sweep_order {
            let h = board.horizon(i);
            // Work below the horizon: drained deliveries plus local
            // events, merged by time so per-channel sends stay
            // nondecreasing.
            let mut work: Vec<(f64, u8)> = Vec::new();
            for from in 0..n {
                if from == i {
                    continue;
                }
                for (t, hops) in channels[from * n + i].drain_until(h) {
                    delivered += 1;
                    assert!(t < h, "a delivery past the horizon");
                    if hops > 0 {
                        work.push((t, hops - 1));
                    }
                }
            }
            while pending[i].front().is_some_and(|&t| t < h) {
                let t = pending[i].pop_front().expect("peeked");
                work.push((t, ttl));
            }
            work.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let next = (i + 1) % n;
            for (t, hops) in work {
                channels[i * n + next].send(t + lookahead, hops);
            }
            let next_local = pending[i].front().copied().unwrap_or(f64::INFINITY);
            board.publish(i, next_local.min(h));
        }
    }
}

proptest! {
    // The satellite gate wants breadth here: ten thousand random message
    // schedules, each small enough to stay cheap.
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// No-hang + completeness of the conservative protocol: for any
    /// random schedule of local events, any ring size, lookahead, and
    /// forwarding depth, and any (fixed) sweep order, the horizon
    /// machinery alone drains every message in a bounded number of
    /// sweeps — the liveness argument behind the coupled sharded engine.
    #[test]
    fn conservative_horizon_protocol_never_hangs(
        raw in proptest::collection::vec((0u32..2000, 0usize..4), 1..24),
        n in 2usize..5,
        alpha_tenths in 5u32..40,
        ttl in 0u8..4,
        rot in 0usize..4,
    ) {
        let lookahead = f64::from(alpha_tenths) / 10.0;
        let mut locals: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut expected = 0u64;
        for &(t, lp) in &raw {
            locals[lp % n].push(f64::from(t) / 10.0);
            expected += u64::from(ttl) + 1; // the send chain it triggers
        }
        for l in &mut locals {
            l.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        }
        // Any sweep order must work; rotate to vary it across cases.
        let sweep_order: Vec<usize> = (0..n).map(|k| (k + rot) % n).collect();
        // Every sweep advances the global minimum promise by >= lookahead,
        // so the sweep count is bounded by the virtual horizon over the
        // lookahead (generous slack for start-up and drain-out sweeps).
        // `conservative_ring` aborts past the bound instead of spinning.
        let max_t = 200.0 + f64::from(ttl + 1) * lookahead;
        let bound = (max_t / lookahead).ceil() as usize + 4 * n + 16;
        let (sweeps, delivered) =
            conservative_ring(&locals, lookahead, ttl, &sweep_order, bound);
        prop_assert!(sweeps <= bound, "{sweeps} sweeps > bound {bound}: protocol stalled");
        prop_assert_eq!(delivered, expected, "messages lost or duplicated");
    }
}
