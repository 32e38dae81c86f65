//! Conservative (lookahead-based) shard synchronization primitives.
//!
//! A sharded simulation partitions its sites into blocks, one block per
//! worker thread; each site is a logical process (LP) with its own event
//! list, and LPs exchange timestamped messages — directly within a block,
//! through [`ShardChannel`]s across threads. Conservative synchronization
//! in the Chandy–Misra–Bryant tradition never speculates: an LP only
//! handles events below a bound no message still to come can undercut.
//! Across threads that bound is the *external horizon*
//! `min(peer promises) + lookahead` read off a [`PromiseBoard`]; within a
//! block, [`block_bound`] tightens it by the siblings' next events. The
//! lookahead is a lower bound on the latency of every cross-site message
//! (here: the network delay between CARAT sites). Events below the bound
//! can no longer be invalidated by a straggler, so the merged execution
//! is identical to the sequential one.
//!
//! These primitives are deliberately engine-agnostic: `carat-sim` layers
//! its site decomposition on top (see its `shard` module), and the unit
//! tests below drive miniature block schedules directly to show the
//! conservative delivery order equals the sequential merge.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Time;

/// Balanced contiguous assignment of `sites` sites to `shards` shards.
///
/// Contiguity keeps each shard's sites adjacent, so per-site results can
/// be merged back in global site order by walking shards in index order.
/// When `shards > sites` the surplus shards simply own zero sites.
#[derive(Debug, Clone)]
pub struct SiteShardMap {
    /// `starts[s]..starts[s + 1]` is the site range of shard `s`.
    starts: Vec<usize>,
}

impl SiteShardMap {
    /// Splits `sites` into `shards` contiguous blocks whose sizes differ
    /// by at most one (the first `sites % shards` blocks are the larger).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn contiguous(sites: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let (quot, rem) = (sites / shards, sites % shards);
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0;
        starts.push(at);
        for s in 0..shards {
            at += quot + usize::from(s < rem);
            starts.push(at);
        }
        SiteShardMap { starts }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of sites.
    pub fn sites(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    /// The contiguous site range owned by shard `s`.
    pub fn sites_of(&self, shard: usize) -> std::ops::Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// The shard owning `site`.
    pub fn shard_of(&self, site: usize) -> usize {
        assert!(site < self.sites(), "site {site} out of range");
        // starts is sorted; partition_point returns the first shard whose
        // block begins past the site.
        self.starts.partition_point(|&s| s <= site) - 1
    }
}

/// A timestamped FIFO channel from one shard to another.
///
/// Senders enqueue `(time, message)`; the receiver drains strictly in
/// `(time, sequence)` order, and only up to a safe horizon. The sequence
/// number makes simultaneous messages deterministic: ties deliver in send
/// order, never in allocation or thread order.
#[derive(Debug)]
pub struct ShardChannel<M> {
    queue: std::collections::VecDeque<(Time, u64, M)>,
    next_seq: u64,
}

impl<M> Default for ShardChannel<M> {
    fn default() -> Self {
        ShardChannel::new()
    }
}

impl<M> ShardChannel<M> {
    /// An empty channel.
    pub fn new() -> Self {
        ShardChannel {
            queue: std::collections::VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Enqueues `msg` to be delivered at simulated time `t`.
    ///
    /// Send timestamps must be nondecreasing — a conservative sender
    /// never retro-dates a message below what it already promised.
    pub fn send(&mut self, t: Time, msg: M) {
        debug_assert!(
            self.queue.back().is_none_or(|&(last, _, _)| t >= last),
            "cross-shard message timestamps must be nondecreasing"
        );
        self.queue.push_back((t, self.next_seq, msg));
        self.next_seq += 1;
    }

    /// Timestamp of the earliest undelivered message, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.queue.front().map(|&(t, _, _)| t)
    }

    /// Removes and returns every message with `time < horizon`, in
    /// `(time, sequence)` order. Messages at or past the horizon stay
    /// queued: the sender's clock has not yet guaranteed their finality.
    pub fn drain_until(&mut self, horizon: Time) -> Vec<(Time, M)> {
        let n = self
            .queue
            .iter()
            .take_while(|&&(t, _, _)| t < horizon)
            .count();
        self.queue.drain(..n).map(|(t, _, m)| (t, m)).collect()
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// One published promise per worker thread of a conservative run.
///
/// Thread `p`'s promise `P_p` states that no LP on `p` will ever again
/// handle an event timestamped below `P_p`. Every cross-thread message
/// is delayed by at least the lookahead, so nothing `p` sends from now on
/// arrives before `P_p + lookahead`, and thread `q` may treat every
/// message below its *external horizon*
/// `horizon(q) = min over threads p ≠ q of P_p + lookahead` as final.
/// With one thread (or every peer retired at `+∞`) the horizon is `+∞`.
///
/// Each promise is an `f64` held as bits in an `AtomicU64` on its own
/// cache line, written only by its own thread. [`publish`] stores with
/// `Release` and [`horizon`] loads with `Acquire`: a thread that flushes
/// its outbound channels *before* publishing guarantees that a reader who
/// sees the new promise also sees every message below the horizon it
/// opens.
///
/// [`publish`]: PromiseBoard::publish
/// [`horizon`]: PromiseBoard::horizon
#[derive(Debug)]
pub struct PromiseBoard {
    slots: Box<[Promise]>,
    lookahead: Time,
}

/// One thread's promise, padded to a cache line so publishing it never
/// invalidates a peer's.
#[derive(Debug)]
#[repr(align(64))]
struct Promise(AtomicU64);

impl PromiseBoard {
    /// Every promise at zero.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `lookahead` is negative or NaN.
    pub fn new(threads: usize, lookahead: Time) -> Self {
        assert!(threads >= 1, "need at least one thread");
        assert!(lookahead >= 0.0, "lookahead must be non-negative");
        PromiseBoard {
            slots: (0..threads)
                .map(|_| Promise(AtomicU64::new(0.0f64.to_bits())))
                .collect(),
            lookahead,
        }
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// The current promise of `thread`.
    pub fn promise(&self, thread: usize) -> Time {
        f64::from_bits(self.slots[thread].0.load(Ordering::Acquire))
    }

    /// Raises `thread`'s promise to `t` and reports whether it rose.
    /// Promises are monotone: a `t` at or below the current one is
    /// ignored. Only `thread` itself may call this.
    pub fn publish(&self, thread: usize, t: Time) -> bool {
        let slot = &self.slots[thread].0;
        // The owner is the only writer, so its own last store is current.
        if t > f64::from_bits(slot.load(Ordering::Relaxed)) {
            slot.store(t.to_bits(), Ordering::Release);
            true
        } else {
            false
        }
    }

    /// The external horizon of `thread`: the minimum promise of every
    /// other thread, plus the lookahead.
    pub fn horizon(&self, thread: usize) -> Time {
        let min_peer = (0..self.slots.len())
            .filter(|&p| p != thread)
            .map(|p| self.promise(p))
            .fold(Time::INFINITY, Time::min);
        min_peer + self.lookahead
    }
}

/// The bound up to which a thread may step one of its own LPs: every
/// event strictly below it is final (DESIGN.md §14.2).
///
/// `horizon` is the thread's external horizon, `own_next` the LP's next
/// event time, and `others_next` the earliest next event among the
/// thread's *other* live LPs (`+∞` when there is none). The three terms
/// bound the three ways a message can still reach the LP: from another
/// thread (at or past `horizon`); from a sibling, which sends only while
/// handling an event at or past its next one (at or past
/// `others_next + lookahead`); and as a sibling's immediate answer to
/// the LP's own message (at or past `own_next + 2 · lookahead`). With
/// an infinite lookahead every bound is `+∞`.
pub fn block_bound(horizon: Time, own_next: Time, others_next: Time, lookahead: Time) -> Time {
    horizon
        .min(others_next + lookahead)
        .min(own_next + 2.0 * lookahead)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_are_balanced_and_cover_all_sites() {
        for sites in 0..20 {
            for shards in 1..8 {
                let map = SiteShardMap::contiguous(sites, shards);
                assert_eq!(map.shards(), shards);
                assert_eq!(map.sites(), sites);
                let mut seen = 0;
                let (mut min_len, mut max_len) = (usize::MAX, 0);
                for s in 0..shards {
                    let r = map.sites_of(s);
                    assert_eq!(r.start, seen, "blocks must be contiguous");
                    seen = r.end;
                    min_len = min_len.min(r.len());
                    max_len = max_len.max(r.len());
                    for site in r {
                        assert_eq!(map.shard_of(site), s);
                    }
                }
                assert_eq!(seen, sites, "blocks must cover every site");
                assert!(max_len - min_len <= 1, "block sizes differ by ≤ 1");
            }
        }
    }

    #[test]
    fn channel_delivers_in_time_then_send_order_up_to_horizon() {
        let mut ch = ShardChannel::new();
        ch.send(1.0, "a");
        ch.send(2.0, "b1");
        ch.send(2.0, "b2");
        ch.send(5.0, "c");
        assert_eq!(ch.next_time(), Some(1.0));
        // Horizon 2.0 releases only t < 2.0.
        assert_eq!(ch.drain_until(2.0), vec![(1.0, "a")]);
        // Ties deliver in send order.
        assert_eq!(ch.drain_until(4.0), vec![(2.0, "b1"), (2.0, "b2")]);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.drain_until(f64::INFINITY), vec![(5.0, "c")]);
        assert!(ch.is_empty());
    }

    #[test]
    fn horizon_is_min_peer_clock_plus_lookahead() {
        let board = PromiseBoard::new(3, 4.0);
        assert!(board.publish(0, 10.0));
        assert!(board.publish(1, 7.0));
        assert!(board.publish(2, 20.0));
        assert_eq!(board.horizon(0), 7.0 + 4.0);
        assert_eq!(board.horizon(1), 10.0 + 4.0);
        assert_eq!(board.horizon(2), 7.0 + 4.0);
        // Promises never fall.
        assert!(!board.publish(1, 3.0));
        assert_eq!(board.promise(1), 7.0);
        // A retired thread stops constraining its peers.
        assert!(board.publish(1, f64::INFINITY));
        assert_eq!(board.horizon(0), 20.0 + 4.0);
        assert_eq!(board.horizon(1), 10.0 + 4.0);
        // A single thread has no peers: unbounded horizon.
        assert_eq!(PromiseBoard::new(1, 0.0).horizon(0), f64::INFINITY);
        // One promise per cache line.
        assert_eq!(std::mem::align_of::<Promise>(), 64);
    }

    #[test]
    fn block_bound_takes_the_tightest_of_its_three_terms() {
        // The external horizon binds.
        assert_eq!(block_bound(12.0, 10.0, 20.0, 5.0), 12.0);
        // A sibling's next event binds: it may send at 13 + 5.
        assert_eq!(block_bound(100.0, 10.0, 13.0, 5.0), 18.0);
        // The LP's own message can be answered at once: 10 + 2·5.
        assert_eq!(block_bound(100.0, 10.0, 50.0, 5.0), 20.0);
        // Alone on its thread, the LP is bounded by its own reply chain.
        assert_eq!(block_bound(f64::INFINITY, 10.0, f64::INFINITY, 5.0), 20.0);
        // An infinite lookahead leaves every bound infinite.
        let inf = f64::INFINITY;
        assert_eq!(block_bound(inf, 0.0, 0.0, inf), inf);
        assert_eq!(block_bound(3.0 + inf, inf, inf, inf), inf);
    }

    /// Two shards exchanging timestamped messages under the conservative
    /// rule produce exactly the global (time, shard, seq)-sorted delivery
    /// order of a sequential merge — no message is consumed before a
    /// straggler below it could still arrive.
    #[test]
    fn two_shard_conservative_delivery_equals_sequential_merge() {
        const LOOKAHEAD: Time = 2.0;
        // Each shard's local event list: at local time t, optionally send
        // a message to the peer arriving at t + LOOKAHEAD.
        let plans: [&[(Time, bool)]; 2] = [
            &[(1.0, true), (3.0, false), (4.0, true), (9.0, true)],
            &[(2.0, true), (2.5, true), (8.0, false), (12.0, true)],
        ];

        // Sequential reference: run everything on one timeline.
        let mut expected: Vec<(Time, usize, u32)> = Vec::new();
        let mut seq = [0u32; 2];
        for (from, plan) in plans.iter().enumerate() {
            for &(t, sends) in *plan {
                if sends {
                    expected.push((t + LOOKAHEAD, 1 - from, seq[from]));
                    seq[from] += 1;
                }
            }
        }
        expected.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

        // Conservative run: each shard alternates between executing local
        // events below its horizon and draining its inbox.
        let board = PromiseBoard::new(2, LOOKAHEAD);
        let mut inbox = [ShardChannel::new(), ShardChannel::new()];
        let mut cursor = [0usize; 2];
        let mut seq = [0u32; 2];
        let mut delivered: Vec<(Time, usize, u32)> = Vec::new();
        loop {
            let mut progressed = false;
            for s in 0..2 {
                let horizon = board.horizon(s);
                // Local events strictly below the horizon are safe.
                while let Some(&(t, sends)) = plans[s].get(cursor[s]) {
                    if t >= horizon {
                        break;
                    }
                    cursor[s] += 1;
                    if sends {
                        inbox[1 - s].send(t + LOOKAHEAD, (1 - s, seq[s]));
                        seq[s] += 1;
                    }
                    progressed = true;
                }
                // Null-message rule: even when blocked, a shard promises
                // it will send nothing before its next unprocessed event
                // (or ever again, once done) — the classic CMB
                // deadlock-avoidance step.
                let promise = plans[s].get(cursor[s]).map_or(Time::INFINITY, |&(t, _)| t);
                progressed |= board.publish(s, promise);
                for (t, (to, n)) in inbox[s].drain_until(board.horizon(s)) {
                    delivered.push((t, to, n));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for s in 0..2 {
            assert_eq!(cursor[s], plans[s].len(), "shard {s} must finish");
        }
        delivered.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        assert_eq!(delivered, expected);
    }

    /// A random block schedule: per LP, a time-sorted plan of local events,
    /// each optionally sending `(target, hops)`. A delivered message with
    /// `hops > 0` answers its sender at once with `hops - 1`, so an LP's
    /// own message can come back to it `2 · lookahead` later.
    struct Schedule {
        plans: Vec<Plan>,
        lookahead: Time,
        /// Past every event and reply, so everything runs.
        end: Time,
    }

    /// One LP's local events: `(time, optional (target, hops))`.
    type Plan = Vec<(Time, Option<(usize, u8)>)>;

    /// One handled item, per LP in handling order: `(time bits, sender,
    /// per-pair sequence)` for a message, `(time bits, LOCAL, plan index)`
    /// for a local event.
    type Log = Vec<(u64, usize, u64)>;
    const LOCAL: usize = usize::MAX;

    impl Schedule {
        fn random(rnd: &mut impl FnMut() -> u64) -> Schedule {
            let lps = 2 + (rnd() % 5) as usize; // 2..=6
            let lookahead = 0.5 + (rnd() % 8) as Time; // strictly positive
            let mut last: Time = 0.0;
            let plans = (0..lps)
                .map(|me| {
                    let mut t = 0.0;
                    (0..rnd() % 40)
                        .map(|_| {
                            t += (rnd() % 100) as Time / 10.0;
                            last = last.max(t);
                            let send = (!rnd().is_multiple_of(3)).then(|| {
                                let to = (me + 1 + (rnd() as usize) % (lps - 1)) % lps;
                                (to, (rnd() % 4) as u8)
                            });
                            (t, send)
                        })
                        .collect()
                })
                .collect();
            Schedule {
                plans,
                lookahead,
                end: last + 5.0 * lookahead,
            }
        }

        /// What handling an item sends: a local event its planned message,
        /// a message with hops left a reply to its sender.
        fn sends(&self, lp: usize, from: usize, index: u64, hops: u8) -> Option<(usize, u8)> {
            if from == LOCAL {
                self.plans[lp][index as usize].1
            } else {
                (hops > 0).then(|| (from, hops - 1))
            }
        }

        /// Every LP on one global timeline. Each LP handles messages
        /// before local events on a time tie, messages in `(time, sender,
        /// seq)` order and local events in plan order.
        fn sequential(&self) -> Vec<Log> {
            use std::cmp::Reverse;
            let n = self.plans.len();
            let mut heap = std::collections::BinaryHeap::new();
            for (lp, plan) in self.plans.iter().enumerate() {
                for (i, &(t, _)) in plan.iter().enumerate() {
                    heap.push(Reverse((t.to_bits(), lp, 1u8, LOCAL, i as u64, 0u8)));
                }
            }
            let mut seqs = vec![0u64; n * n];
            let mut logs = vec![Log::new(); n];
            while let Some(Reverse((bits, lp, _, from, index, hops))) = heap.pop() {
                let t = f64::from_bits(bits);
                assert!(t <= self.end, "the schedule runs past its end");
                logs[lp].push((bits, from, index));
                if let Some((to, hops)) = self.sends(lp, from, index, hops) {
                    let seq = seqs[lp * n + to];
                    seqs[lp * n + to] += 1;
                    heap.push(Reverse((
                        (t + self.lookahead).to_bits(),
                        to,
                        0,
                        lp,
                        seq,
                        hops,
                    )));
                }
            }
            logs
        }

        /// The block protocol, one iteration of one randomly chosen thread
        /// at a time. Each iteration reads the external horizon, drains
        /// its LPs' channels, publishes `min(earliest next, horizon)`,
        /// retires LPs past `end`, and steps its earliest LP up to its
        /// [`block_bound`]; a thread with nothing to do waits until its
        /// horizon rises. Messages inside a block are delivered directly.
        fn blocks(&self, block_of: &[usize], rnd: &mut impl FnMut() -> u64) -> Vec<Log> {
            use std::cmp::Reverse;
            struct Lp {
                cursor: usize,
                inbox: std::collections::BinaryHeap<Reverse<(u64, usize, u64, u8)>>,
                seqs: Vec<u64>,
                bound: Time,
                live: bool,
                log: Log,
            }
            impl Lp {
                fn ingest(&mut self, from: usize, t: Time, hops: u8) {
                    assert!(
                        t >= self.bound,
                        "straggler at {t} below bound {}",
                        self.bound
                    );
                    let seq = self.seqs[from];
                    self.seqs[from] += 1;
                    self.inbox.push(Reverse((t.to_bits(), from, seq, hops)));
                }
            }
            let n = self.plans.len();
            let threads = block_of.iter().max().map_or(0, |&b| b + 1);
            let alpha = self.lookahead;
            let mut lps: Vec<Lp> = (0..n)
                .map(|_| Lp {
                    cursor: 0,
                    inbox: std::collections::BinaryHeap::new(),
                    seqs: vec![0; n],
                    bound: 0.0,
                    live: true,
                    log: Log::new(),
                })
                .collect();
            let local = |lps: &[Lp], i: usize| {
                self.plans[i]
                    .get(lps[i].cursor)
                    .map_or(Time::INFINITY, |&(t, _)| t)
            };
            let next = |lps: &[Lp], i: usize| {
                let inbox = lps[i]
                    .inbox
                    .peek()
                    .map_or(Time::INFINITY, |Reverse(m)| f64::from_bits(m.0));
                local(lps, i).min(inbox)
            };
            let board = PromiseBoard::new(threads, alpha);
            let mut channels: Vec<ShardChannel<u8>> =
                (0..n * n).map(|_| ShardChannel::new()).collect();
            let mut waiting: Vec<Option<Time>> = vec![None; threads];
            let mut done = vec![false; threads];
            let work: usize = self.plans.iter().map(Vec::len).sum::<usize>() * 5;
            let max_iterations = 8 * (work + n) + 4 * threads * ((self.end / alpha) as usize + 4);
            let mut iterations = 0usize;
            loop {
                let runnable: Vec<usize> = (0..threads)
                    .filter(|&p| !done[p] && waiting[p].is_none_or(|seen| board.horizon(p) > seen))
                    .collect();
                if runnable.is_empty() {
                    assert!(done.iter().all(|&d| d), "deadlock: every live thread waits");
                    break;
                }
                iterations += 1;
                assert!(
                    iterations <= max_iterations,
                    "no progress after {iterations} iterations"
                );
                let p = runnable[(rnd() as usize) % runnable.len()];
                waiting[p] = None;
                let h_ext = board.horizon(p);
                let mine: Vec<usize> = (0..n)
                    .filter(|&i| block_of[i] == p && lps[i].live)
                    .collect();
                for &i in &mine {
                    for from in (0..n).filter(|&f| block_of[f] != p) {
                        for (t, hops) in channels[from * n + i].drain_until(Time::INFINITY) {
                            lps[i].ingest(from, t, hops);
                        }
                    }
                }
                if mine.is_empty() {
                    board.publish(p, Time::INFINITY);
                    done[p] = true;
                    continue;
                }
                let (mut m1, mut i1, mut m2) = (Time::INFINITY, mine[0], Time::INFINITY);
                for &i in &mine {
                    let t = next(&lps, i);
                    if t < m1 {
                        (m2, m1, i1) = (m1, t, i);
                    } else if t < m2 {
                        m2 = t;
                    }
                }
                board.publish(p, m1.min(h_ext));
                let mut retired = false;
                for &i in &mine {
                    let t = next(&lps, i);
                    let others = if i == i1 { m2 } else { m1 };
                    if t.min(block_bound(h_ext, t, others, alpha)) > self.end {
                        lps[i].live = false;
                        retired = true;
                    }
                }
                if retired {
                    continue;
                }
                let bound = block_bound(h_ext, m1, m2, alpha);
                if m1 >= bound {
                    waiting[p] = Some(h_ext);
                    continue;
                }
                lps[i1].bound = lps[i1].bound.max(bound);
                loop {
                    let t = next(&lps, i1);
                    if t >= bound || t > self.end {
                        break;
                    }
                    // Messages first on a time tie.
                    let message_first = lps[i1]
                        .inbox
                        .peek()
                        .is_some_and(|Reverse(m)| f64::from_bits(m.0) <= t);
                    let (from, index, hops) = if message_first {
                        let Reverse((_, from, seq, hops)) = lps[i1].inbox.pop().expect("peeked");
                        (from, seq, hops)
                    } else {
                        lps[i1].cursor += 1;
                        (LOCAL, lps[i1].cursor as u64 - 1, 0)
                    };
                    lps[i1].log.push((t.to_bits(), from, index));
                    if let Some((to, hops)) = self.sends(i1, from, index, hops) {
                        if block_of[to] == p {
                            lps[to].ingest(i1, t + alpha, hops);
                        } else {
                            channels[i1 * n + to].send(t + alpha, hops);
                        }
                    }
                }
            }
            lps.into_iter().map(|lp| lp.log).collect()
        }
    }

    /// Deadlock-freedom and exactness of the block rule: for 10k+ messages
    /// over random schedules of 2–6 LPs, randomly partitioned into thread
    /// blocks (direct delivery inside a block, channels and the promise
    /// board across), with replies that send an LP's message straight
    /// back, and with threads interleaved at random, the protocol never
    /// deadlocks, never delivers a straggler, and every LP handles
    /// exactly the items of the sequential run in the same order.
    #[test]
    fn n_shard_random_schedules_never_hang_and_match_sequential_merge() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut total_msgs = 0usize;
        let mut trial = 0usize;
        while total_msgs < 10_000 {
            trial += 1;
            let schedule = Schedule::random(&mut rnd);
            let n = schedule.plans.len();
            // A random partition of the LPs into blocks, numbered densely
            // in first-appearance order.
            let labels: Vec<u64> = (0..n).map(|_| rnd() % n as u64).collect();
            let mut seen: Vec<u64> = Vec::new();
            let block_of: Vec<usize> = labels
                .iter()
                .map(|l| {
                    seen.iter().position(|s| s == l).unwrap_or_else(|| {
                        seen.push(*l);
                        seen.len() - 1
                    })
                })
                .collect();
            let expected = schedule.sequential();
            total_msgs += expected
                .iter()
                .flatten()
                .filter(|&&(_, from, _)| from != LOCAL)
                .count();
            let got = schedule.blocks(&block_of, &mut rnd);
            assert_eq!(got, expected, "trial {trial}: blocks {block_of:?}");
        }
        assert!(trial >= 2, "generator must produce multiple trials");
    }
}
