//! The site-sharded engine: one run as one `Sim` *logical process* (LP)
//! per site, split into contiguous blocks of sites, one block per worker
//! thread (`SimConfig::shards` threads), and synchronized conservatively
//! through the `carat_des::shard` primitives. One driver serves every
//! sharded configuration; only the lookahead differs.
//!
//! ## Lookahead
//!
//! Every LP is built against the full topology but executes only its
//! owned site's events and holds only that site's storage (peer nodes get
//! an empty database). Every cross-site interaction — a transaction's
//! `Op::Net` hop, a Chandy–Misra–Haas probe, a remote DM release —
//! travels as a timestamped `XMsg`: straight into the receiver's inbox
//! when both LPs run on one thread, through a [`ShardChannel`] otherwise.
//!
//! * *Site-separable* configurations ([`decomposable`]: every user is
//!   local-only, so programs compile to zero `Net` ops and never register
//!   remote slaves) never send a message. Their lookahead is `+∞`: every
//!   bound is `+∞`, each LP runs to the window end in one step, and no
//!   message is ever sent.
//! * *Coupled* configurations ([`coupled_eligible`]: some DRO/DU user and a
//!   positive network delay α) pay exactly one network delay per
//!   cross-site effect, so α is a hard lookahead: an LP handling an event
//!   at `t` cannot emit anything timestamped below `t + α`.
//!
//! ## One event-ordered loop per thread
//!
//! Each thread keeps its LPs' next event times and always steps the LP
//! `i` with the earliest one, through every event strictly below its
//! [`block_bound`]
//! `H_i = min(H_ext, min over its other live LPs j of next_j + α, next_i + 2α)`.
//! `H_ext` is the thread's external horizon on the [`PromiseBoard`]: the
//! other threads' minimum promise plus α. The thread's own promise is
//! `min over its live LPs of min(next_i, H_ext)`, published after each
//! step, once the step's messages are routed, and before each wait. A
//! pre-wait publication that raises the promise is the demand-driven
//! Chandy–Misra–Bryant *null message* (counted in
//! `carat_obs::shardstats`, never in the report). Progress is
//! deadlock-free: the thread holding
//! the minimum promise always has its earliest LP strictly below its
//! bound. A thread with nothing below any bound waits for a foreign
//! promise to rise. An LP retires once `min(next_i, H_i) > warmup +
//! measure`, or when its event budget trips (its already-emitted messages
//! are still delivered, so the trip point is schedule-independent).
//!
//! Crashes, faults, partitions, and replication force the monolithic
//! loop: their cross-site effects (instant failover, zero-delay timeout
//! scans) have no positive lookahead.
//!
//! ## The determinism contract
//!
//! Which engine runs — sharded (and with which lookahead) or monolithic —
//! is a function of the configuration *excluding* `shards`. Every LP is
//! seeded by a pure function of `(seed, site)`, and an LP's merged stream
//! (local calendar ∪ inbox, inbox first on timestamp ties, inbox ordered
//! by `(time, sender, per-sender seq)`) is a pure function of the
//! configuration, because a message not yet visible when an LP computes
//! bound `H` is guaranteed to carry a timestamp ≥ H. The shard count
//! only chooses how many worker threads run the (fixed) per-site LPs —
//! including `--shards 1`, which runs the identical algorithm on one
//! thread. The LPs fold into one in site order (`Sim::absorb`) and wind
//! down once, so the report — including trace output, metrics, and
//! counters — is byte-identical for every `shards` value, which the CI
//! shard-determinism gates enforce.
//!
//! Merge semantics: plain counters and statistics pool in site order;
//! `sched_heap_hwm` / `slab_hwm` / `slab_slots_hwm` are per-LP high-water
//! marks merged by *max* (a global heap never existed).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use carat_des::shard::{block_bound, PromiseBoard, ShardChannel, SiteShardMap};
use carat_des::{splitmix64, Time};
use carat_obs::{shardstats, MetricsRecorder, Tracer};

use crate::config::{CcProtocol, DeadlockMode, SimConfig};
use crate::engine::{Sim, SimError, XMsg};
use crate::metrics::SimReport;

/// The preconditions both sharded engines share: at least two sites, a
/// workload covering exactly the configured sites, and none of the
/// failure machinery (crashes, fault plan, partitions, replication) whose
/// cross-site effects have no positive lookahead.
fn failure_free_topology(cfg: &SimConfig) -> bool {
    cfg.params.sites() >= 2
        && cfg.workload.sites() == cfg.params.sites()
        && cfg.crashes.is_empty()
        && !cfg.fault_plan.is_active()
        && !cfg.partition_plan.is_active()
        && cfg.partition_plan.replication == 1
}

/// Whether `cfg` is site-separable (see the module docs): it runs on the
/// sharded engine with lookahead `+∞`. A pure function of the
/// configuration excluding [`SimConfig::shards`], so the engine choice —
/// and with it every report byte — cannot depend on the shard count.
pub fn decomposable(cfg: &SimConfig) -> bool {
    failure_free_topology(cfg)
        && cfg
            .workload
            .users
            .iter()
            .flatten()
            .all(|&(ty, count)| count == 0 || !ty.is_distributed())
}

/// Whether `cfg` runs the sharded engine coupled with lookahead α (see
/// the module docs). Like [`decomposable`] this is a pure function of the
/// configuration excluding [`SimConfig::shards`]. The two predicates are
/// disjoint: separability requires every user to be local-only, coupling
/// requires at least one distributed user.
///
/// Requirements beyond [`decomposable`]'s failure-free topology:
///
/// * at least one DRO/DU user — otherwise nothing crosses sites and the
///   run is separable instead;
/// * `comm_delay_ms > 0` — α is the conservative lookahead; α = 0 (the
///   validation default) leaves no safe window and stays monolithic;
/// * under two-phase locking with update users, deadlock detection must
///   use [`DeadlockMode::Probes`]: `InstantGlobal` searches the union of
///   all sites' wait-for graphs in zero time, which has no message-passing
///   equivalent. Read-only 2PL mixes never block and thus never detect,
///   so either mode couples.
pub fn coupled_eligible(cfg: &SimConfig) -> bool {
    let active = || cfg.workload.users.iter().flatten().filter(|&&(_, n)| n > 0);
    let distributed = active().any(|&(ty, _)| ty.is_distributed());
    let updates = active().any(|&(ty, _)| ty.is_update());
    let deadlock_ok = cfg.cc != CcProtocol::TwoPhaseLocking
        || cfg.deadlock_mode == DeadlockMode::Probes
        || !updates;
    failure_free_topology(cfg) && cfg.params.comm_delay_ms > 0.0 && distributed && deadlock_ok
}

/// The sharded engine's lookahead for `cfg`: `+∞` when it is
/// [`decomposable`], α when it is [`coupled_eligible`], `None` when it
/// must run monolithically. The one place the engine is chosen.
pub(crate) fn lookahead(cfg: &SimConfig) -> Option<Time> {
    if decomposable(cfg) {
        Some(f64::INFINITY)
    } else if coupled_eligible(cfg) {
        Some(cfg.params.comm_delay_ms)
    } else {
        None
    }
}

/// The LP seed of `site` for a run with base seed `base`.
///
/// Double-mixed rather than `base ^ splitmix64(site)` so site streams can
/// never collide with the replication harness's `rep_seed(base, rep) =
/// base ^ splitmix64(rep)` family: replication r of site s must not share
/// a stream with replication s of site r.
pub fn site_seed(base: u64, site: usize) -> u64 {
    splitmix64(splitmix64(base).wrapping_add(site as u64 + 1))
}

/// Splits the run's event budget into per-site shares that sum to the
/// budget exactly when `budget >= sites` (quotient plus one extra for the
/// first `budget % sites` sites). `0` stays "no budget"; a positive
/// budget smaller than the site count rounds every share up to 1 — a
/// zero share would mean *unlimited* — so such degenerate budgets bind
/// at `sites` events rather than `budget` (documented in DESIGN.md
/// §14.3).
fn budget_shares(budget: u64, sites: usize) -> Vec<u64> {
    if budget == 0 {
        return vec![0; sites];
    }
    let n = sites as u64;
    let (q, r) = (budget / n, budget % n);
    (0..n).map(|i| (q + u64::from(i < r)).max(1)).collect()
}

/// The instrumented result triple of one whole run: report, lifecycle
/// tracer, metrics recorder.
type RunOutput = (SimReport, Option<Tracer>, Option<MetricsRecorder>);

/// One site-LP's end state: its site index, the `Sim`, and the virtual
/// time at which its event budget tripped (`None` when it ran to the
/// end).
type LpOutcome = (usize, Sim, Option<Time>);

/// Runs a sharded configuration as one logical process per site, on
/// `cfg.shards` worker threads (clamped to the site count) that each run
/// one contiguous block of sites, with `lookahead`. The caller
/// (`Sim::run_checked_instrumented`) has already validated `cfg` and
/// taken `lookahead` from [`lookahead`].
pub(crate) fn run_sharded(cfg: SimConfig, lookahead: Time) -> Result<RunOutput, SimError> {
    let sites = cfg.params.sites();
    let shards = cfg.shards.min(sites).max(1);
    let budget = cfg.max_events;
    let end = cfg.warmup_ms + cfg.measure_ms;
    let tracing = cfg.trace.is_some();
    let metrics_on = cfg.metrics.is_some();
    let shares = budget_shares(budget, sites);
    let build = |site: usize| {
        let mut sub = cfg.clone();
        sub.max_events = shares[site];
        sub.shards = 1;
        let mut lp = Sim::new_lp(sub, site).expect("an LP of a validated config is valid");
        lp.lp_prime();
        (site, lp)
    };
    let links = Links::new(SiteShardMap::contiguous(sites, shards), lookahead);

    // Each worker builds its own block, so the LPs' storage loads run in
    // parallel. Blocks are contiguous and joined in order, so the
    // outcomes come back in site order.
    let mut outcomes: Vec<LpOutcome> = if shards == 1 {
        run_block(&links, 0, (0..sites).map(build).collect(), end)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|thread| {
                    let (links, build) = (&links, &build);
                    scope.spawn(move || {
                        let block = links.map.sites_of(thread).map(build).collect();
                        run_block(links, thread, block, end)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("LP shard thread panicked"))
                .collect()
        })
    };
    debug_assert!(outcomes.iter().enumerate().all(|(i, o)| o.0 == i));

    let first_trip = outcomes
        .iter()
        .filter_map(|(_, _, trip)| *trip)
        .fold(f64::INFINITY, f64::min);

    // Tracers and metrics recorders come out *before* the absorb pass,
    // in site order. Each LP recorded only its own site's events and
    // gauges (with true site indices), and both merges keep part order on
    // time ties, so the merged bytes are a pure function of the
    // configuration.
    let tracer = tracing.then(|| {
        Tracer::merge_ordered(
            outcomes
                .iter_mut()
                .map(|(_, lp, _)| lp.take_tracer().expect("tracing was configured"))
                .collect(),
        )
    });
    let metrics = metrics_on.then(|| {
        MetricsRecorder::merge_ordered(
            outcomes
                .iter_mut()
                .map(|(_, lp, _)| lp.take_metrics().expect("metrics were configured"))
                .collect(),
        )
    });

    // Fold LPs 1..n into LP 0 in site order, then wind down once so
    // utilization windows and phase-total rounding happen exactly once.
    let mut it = outcomes.into_iter();
    let (_, mut primary, _) = it.next().expect("sharding requires >= 2 sites");
    for (_, lp, _) in it {
        primary.absorb(lp);
    }
    let report = primary.wind_down(end);

    if first_trip.is_finite() {
        // The error reports the *configured* budget and the earliest
        // per-LP trip instant, both schedule- and shard-count-independent.
        return Err(SimError::EventBudgetExhausted {
            budget,
            sim_time_ms: first_trip,
            partial: Box::new(report),
            partial_metrics: metrics.map(Box::new),
        });
    }
    Ok((report, tracer, metrics))
}

/// Spin iterations before a waiting thread starts yielding its core,
/// when every thread has a core of its own.
const SPINS: u32 = 256;

/// What a run's worker threads share: the promise board, one channel per
/// ordered pair of sites (only pairs on different threads carry
/// anything), and per destination site the number of channel messages it
/// has not drained yet.
struct Links {
    map: SiteShardMap,
    board: PromiseBoard,
    channels: Vec<Mutex<ShardChannel<XMsg>>>,
    pending: Vec<AtomicUsize>,
    /// How long a waiting thread spins before it yields: [`SPINS`] when
    /// the host has a core per thread, else 0. With more threads than
    /// cores, a spinning waiter would hold a core the thread it waits
    /// for needs (8 threads on 2 cores ran 3× slower spinning).
    spins: u32,
}

impl Links {
    fn new(map: SiteShardMap, lookahead: Time) -> Self {
        let sites = map.sites();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Links {
            board: PromiseBoard::new(map.shards(), lookahead),
            channels: (0..sites * sites)
                .map(|_| Mutex::new(ShardChannel::new()))
                .collect(),
            pending: (0..sites).map(|_| AtomicUsize::new(0)).collect(),
            spins: if map.shards() <= cores { SPINS } else { 0 },
            map,
        }
    }

    /// Sends `msg` from site `from` to site `to` on another thread. The
    /// pending count rises under the channel's lock, so the receiver,
    /// which lowers it under the same lock, never sees it negative.
    fn send(&self, from: usize, to: usize, t: Time, msg: XMsg) {
        let sites = self.map.sites();
        let mut channel = self.channels[from * sites + to]
            .lock()
            .expect("channel lock");
        channel.send(t, msg);
        self.pending[to].fetch_add(1, Ordering::Relaxed);
    }

    /// Moves every channel message waiting for `site` into its LP's
    /// inbox, sender by sender; one load when nothing waits. The sender
    /// counted a message before publishing the promise that lets the
    /// receiver run past it, and the receiver reads the board first, so
    /// the count it sees covers every message below its bounds.
    fn drain_into(&self, site: usize, lp: &mut Sim, block: &Range<usize>) {
        if self.pending[site].load(Ordering::Acquire) == 0 {
            return;
        }
        let sites = self.map.sites();
        for from in (0..sites).filter(|from| !block.contains(from)) {
            let arrived = {
                let mut channel = self.channels[from * sites + site]
                    .lock()
                    .expect("channel lock");
                let arrived = channel.drain_until(Time::INFINITY);
                self.pending[site].fetch_sub(arrived.len(), Ordering::Relaxed);
                arrived
            };
            for (t, msg) in arrived {
                lp.lp_ingest(from, t, msg);
            }
        }
    }

    /// Waits until `thread`'s external horizon rises above `seen`: spins
    /// up to [`Links::spins`] times, then yields. Returns the nanoseconds
    /// waited.
    ///
    /// # Panics
    ///
    /// After 60 s without a rise. The lookahead argument (module docs)
    /// makes that impossible, so a wedged protocol fails loudly instead
    /// of spinning forever.
    fn wait_for_rise(&self, thread: usize, seen: Time, end: Time) -> u64 {
        let start = Instant::now();
        let mut spins = 0;
        while self.board.horizon(thread) <= seen {
            if spins < self.spins {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
                if start.elapsed().as_secs() >= 60 {
                    panic!(
                        "coupled shard driver: no foreign promise rose for 60s \
                         (horizon {seen} ms, end {end} ms) — conservative \
                         protocol wedged"
                    );
                }
            }
        }
        start.elapsed().as_nanos() as u64
    }
}

/// Runs one worker thread's event-ordered loop over its block of LPs (see
/// the module docs) until every LP has retired. Each iteration drains
/// arrived channel messages, retires the LPs that are done, and steps
/// the LP with the earliest next event through its bound, then publishes
/// the thread's promise — or, with nothing below any bound, publishes it
/// and waits for a foreign promise to rise. Wall-clock busy and stall
/// time, null
/// advances and message counts go to the process-global `shardstats`
/// registry, never into the `Sim`s.
fn run_block(
    links: &Links,
    thread: usize,
    mut lps: Vec<(usize, Sim)>,
    end: Time,
) -> Vec<LpOutcome> {
    let alpha = links.board.lookahead();
    let block = links.map.sites_of(thread);
    let n = lps.len();
    let mut live = vec![true; n];
    let mut n_live = n;
    let mut trips: Vec<Option<Time>> = vec![None; n];
    let mut next = vec![Time::INFINITY; n];
    let mut outbox = Vec::new();
    let (mut stall_ns, mut nulls, mut msgs) = (0u64, 0u64, 0u64);
    let started = Instant::now();

    while n_live > 0 {
        let h_ext = links.board.horizon(thread);
        // The earliest next event (LP `first`) and the second earliest.
        let (mut m1, mut first, mut m2) = (Time::INFINITY, usize::MAX, Time::INFINITY);
        for k in (0..n).filter(|&k| live[k]) {
            let (site, lp) = &mut lps[k];
            links.drain_into(*site, lp, &block);
            next[k] = lp.lp_next_time();
            if next[k] < m1 {
                (m2, m1, first) = (m1, next[k], k);
            } else if next[k] < m2 {
                m2 = next[k];
            }
        }

        // Retire every LP that can never again run an event at or before
        // `end`; only possible once both H_ext and m1 + α are past it.
        if h_ext.min(m1 + alpha) > end {
            let mut retired = false;
            for k in 0..n {
                let others = if k == first { m2 } else { m1 };
                if live[k] && next[k].min(block_bound(h_ext, next[k], others, alpha)) > end {
                    // Every event at or before `end` has run here, and
                    // every message still to come is later.
                    lps[k].1.lp_close_metrics(None, end);
                    live[k] = false;
                    n_live -= 1;
                    retired = true;
                }
            }
            if retired {
                continue;
            }
        }

        let bound = block_bound(h_ext, m1, m2, alpha);
        if m1 < bound {
            let (site, lp) = &mut lps[first];
            let site = *site;
            let trip = lp.lp_step_until(bound, end);
            // Route even on a trip: everything emitted before the budget
            // ran out must still reach its peers, or their streams would
            // depend on *when* the trip was noticed.
            lp.lp_take_outbox(&mut outbox);
            if let Some(t) = trip {
                lp.lp_close_metrics(Some(t), end);
                trips[first] = Some(t);
                live[first] = false;
                n_live -= 1;
            }
            next[first] = if live[first] {
                lp.lp_next_time()
            } else {
                Time::INFINITY
            };
            msgs += outbox.len() as u64;
            for (to, t, msg) in outbox.drain(..) {
                if block.contains(&to) {
                    let k = to - block.start;
                    lps[k].1.lp_ingest(site, t, msg);
                    next[k] = next[k].min(t);
                } else {
                    links.send(site, to, t, msg);
                }
            }
            let promise = (0..n)
                .filter(|&k| live[k])
                .map(|k| next[k])
                .fold(h_ext, Time::min);
            links.board.publish(thread, promise);
        } else {
            // A raised promise that ran no event is a null message.
            nulls += u64::from(links.board.publish(thread, m1.min(h_ext)));
            stall_ns += links.wait_for_rise(thread, h_ext, end);
        }
    }
    links.board.publish(thread, Time::INFINITY);

    let total_ns = started.elapsed().as_nanos() as u64;
    shardstats::add_busy_ns(total_ns.saturating_sub(stall_ns));
    shardstats::add_stall_ns(stall_ns);
    shardstats::add_null_advances(nulls);
    shardstats::add_messages(msgs);
    lps.into_iter()
        .zip(trips)
        .map(|((site, lp), trip)| (site, lp, trip))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, SplitSpec};
    use carat_workload::StandardWorkload;

    fn lb8(sites: usize) -> SimConfig {
        let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(sites), 8, 7);
        cfg.params = carat_workload::SystemParams::with_sites(sites);
        cfg.warmup_ms = 2_000.0;
        cfg.measure_ms = 20_000.0;
        cfg
    }

    #[test]
    fn eligibility_is_a_pure_function_of_the_config_without_shards() {
        let mut cfg = lb8(4);
        assert!(decomposable(&cfg));
        cfg.shards = 4;
        assert!(decomposable(&cfg), "shard count must not matter");

        // Any distributed user couples the sites.
        let mb = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 7);
        assert!(!decomposable(&mb));

        // Single site: nothing to decompose.
        let mut solo = lb8(4);
        solo.params = carat_workload::SystemParams::with_sites(1);
        solo.workload = StandardWorkload::Lb8.spec(1);
        assert!(!decomposable(&solo));

        // Crashes, faults, and partitions couple sites.
        let mut crash = lb8(4);
        crash.crashes.push((1_000.0, 0));
        assert!(!decomposable(&crash));
        let mut faulty = lb8(4);
        faulty.fault_plan = FaultPlan {
            timeout_ms: 50.0,
            max_retries: 3,
            ..FaultPlan::default()
        };
        assert!(!decomposable(&faulty));
        let mut split = lb8(4);
        split.fault_plan = FaultPlan {
            timeout_ms: 50.0,
            max_retries: 3,
            ..FaultPlan::default()
        };
        split.partition_plan.splits.push(SplitSpec {
            at_ms: 0.0,
            heal_ms: 1_000.0,
            groups: vec![0, 0, 1, 1],
        });
        assert!(!decomposable(&split));
        let mut replicated = lb8(4);
        replicated.partition_plan.replication = 2;
        assert!(!decomposable(&replicated));
    }

    #[test]
    fn site_seeds_avoid_the_replication_seed_family() {
        // rep_seed(base, r) = base ^ splitmix64(r); site streams must not
        // land in that family (rep 3 of site 0 vs rep 0 of site 3).
        let base = 7u64;
        for site in 0..64usize {
            for rep in 0..64u64 {
                assert_ne!(
                    site_seed(base, site),
                    base ^ splitmix64(rep),
                    "site {site} collides with replication {rep}"
                );
            }
        }
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|s| site_seed(base, s)).collect();
        assert_eq!(seeds.len(), 1000, "site seeds must not collide");
    }

    #[test]
    fn budget_shares_sum_to_the_budget_and_never_become_unlimited() {
        assert_eq!(budget_shares(0, 4), vec![0; 4], "no budget stays no budget");
        assert_eq!(budget_shares(100, 4), vec![25; 4]);
        // Remainders spread one extra event over the leading sites so the
        // shares sum to the budget exactly.
        assert_eq!(budget_shares(103, 4), vec![26, 26, 26, 25]);
        assert_eq!(budget_shares(103, 4).iter().sum::<u64>(), 103);
        for (budget, sites) in [(7u64, 3usize), (4_000, 4), (101, 8), (9, 9)] {
            assert_eq!(
                budget_shares(budget, sites).iter().sum::<u64>(),
                budget,
                "budget {budget} over {sites} sites must split exactly"
            );
        }
        // A positive budget below the site count still binds everywhere: a
        // zero share would mean unlimited, so shares clamp to 1 and the
        // effective budget rounds up to the site count.
        assert_eq!(budget_shares(3, 8), vec![1; 8], "a tiny budget still binds");
    }

    #[test]
    fn separable_runs_send_nothing_and_lps_hold_only_owned_storage() {
        let cfg = lb8(4);
        assert_eq!(lookahead(&cfg), Some(f64::INFINITY));
        // Each LP loads only its own site's database; peers are empty.
        let lp = Sim::new_lp(cfg.clone(), 1).expect("valid");
        let n = cfg.params.n_granules;
        assert_eq!(lp.storage_blocks(), vec![0, n, 0, 0]);
        // With lookahead ∞ every LP runs to the window end in one round:
        // no channel message and no null advance. The registry is
        // process-global and concurrent tests can only add to a scope's
        // delta, so one clean attempt proves this run sent nothing.
        let clean = (0..50).any(|_| {
            let scope = shardstats::begin_run();
            let report = Sim::new(cfg.clone()).expect("valid").run();
            assert_eq!(report.net_messages, 0);
            let stats = scope.finish();
            stats.messages == 0 && stats.null_advances == 0
        });
        assert!(clean, "a separable run exchanged shard messages");
    }

    #[test]
    fn reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = lb8(4);
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8); // more shards than sites: clamped
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, eight);
        assert_eq!(one.nodes.len(), 4);
        assert!(one.total_tx_per_s() > 0.0, "the merged run did real work");
    }

    #[test]
    fn merged_report_attributes_work_to_every_site() {
        let mut cfg = lb8(4);
        cfg.shards = 2;
        let report = Sim::new(cfg).expect("valid").run();
        for (i, node) in report.nodes.iter().enumerate() {
            assert!(node.tx_per_s > 0.0, "site {i} committed nothing");
            assert!(!node.per_type.is_empty(), "site {i} lost its type rows");
        }
        assert!(report.lock_requests > 0);
        assert_eq!(report.counters.get("events_total"), report.events);
        assert_eq!(report.audit_violations, 0);
    }

    #[test]
    fn budget_trip_is_shard_count_independent_and_well_formed() {
        let run = |shards: usize| {
            let mut cfg = lb8(4);
            cfg.max_events = 4_000; // trips mid-run: a full run needs more
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run_checked()
        };
        let extract = |r: Result<SimReport, SimError>| match r {
            Err(SimError::EventBudgetExhausted {
                budget,
                sim_time_ms,
                partial,
                ..
            }) => (budget, sim_time_ms, partial),
            Ok(_) => panic!("budget must trip"),
        };
        let (b1, t1, p1) = extract(run(1));
        let (b2, t2, p2) = extract(run(2));
        let (b4, t4, p4) = extract(run(4));
        assert_eq!(b1, 4_000, "the error reports the configured budget");
        assert_eq!((b1, t1), (b2, t2));
        assert_eq!((b1, t1), (b4, t4));
        assert_eq!(p1, p2);
        assert_eq!(p1, p4);
        // Partial reports stay well-formed: every site present, counters
        // consistent with the event total.
        assert_eq!(p1.nodes.len(), 4);
        assert_eq!(p1.counters.get("events_total"), p1.events);
        assert!(p1.events <= 4_000);
    }

    /// A coupled-eligible fixture: the paper's mixed workload (per node:
    /// 1 LRO + 1 LU + 1 DRO + 1 DU) with a positive network delay and
    /// probe-based global deadlock detection.
    fn mb4x(sites: usize) -> SimConfig {
        let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), 8, 11);
        cfg.params = carat_workload::SystemParams::with_sites(sites);
        cfg.params.comm_delay_ms = 5.0;
        cfg.deadlock_mode = DeadlockMode::Probes;
        cfg.warmup_ms = 1_000.0;
        cfg.measure_ms = 8_000.0;
        cfg
    }

    #[test]
    fn coupled_eligibility_requires_alpha_probes_and_distributed_users() {
        let mut cfg = mb4x(4);
        assert!(coupled_eligible(&cfg));
        cfg.shards = 4;
        assert!(coupled_eligible(&cfg), "shard count must not matter");
        assert!(
            !decomposable(&cfg),
            "the decomposed and coupled predicates are disjoint"
        );

        // α = 0 (the validation default) leaves no conservative window.
        let mut zero_alpha = mb4x(4);
        zero_alpha.params.comm_delay_ms = 0.0;
        assert!(!coupled_eligible(&zero_alpha));

        // Local-only workloads have nothing to couple (they decompose).
        let local = lb8(4);
        assert!(!coupled_eligible(&local) && decomposable(&local));

        // 2PL + instant-global detection has no message-passing
        // equivalent when updates can block…
        let mut instant = mb4x(4);
        instant.deadlock_mode = DeadlockMode::InstantGlobal;
        assert!(!coupled_eligible(&instant));
        // …but timestamp ordering never consults the wait-for graph.
        let mut tso = instant.clone();
        tso.cc = CcProtocol::TimestampOrdering;
        assert!(coupled_eligible(&tso));

        // Failure machinery still forces the monolithic loop.
        let mut crash = mb4x(4);
        crash.crashes.push((1_000.0, 0));
        assert!(!coupled_eligible(&crash));
        let mut replicated = mb4x(4);
        replicated.partition_plan.replication = 2;
        assert!(!coupled_eligible(&replicated));
        let mut solo = mb4x(1);
        solo.params = carat_workload::SystemParams::with_sites(1);
        solo.workload = StandardWorkload::Mb4.spec(1);
        assert!(!coupled_eligible(&solo));
    }

    #[test]
    fn coupled_reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = mb4x(4);
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8); // more shards than sites: clamped
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, eight);
        assert_eq!(one.nodes.len(), 4);
        assert!(one.total_tx_per_s() > 0.0, "the coupled run did real work");
        assert!(one.net_messages > 0, "cross-site traffic actually flowed");
    }

    #[test]
    fn coupled_tso_reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.cc = CcProtocol::TimestampOrdering;
            cfg.measure_ms = 5_000.0;
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one, three);
        assert!(one.net_messages > 0);
    }

    #[test]
    fn coupled_budget_trip_is_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(4);
            cfg.max_events = 4_000; // trips mid-run: a full run needs more
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run_checked()
        };
        let extract = |r: Result<SimReport, SimError>| match r {
            Err(SimError::EventBudgetExhausted {
                budget,
                sim_time_ms,
                partial,
                ..
            }) => (budget, sim_time_ms, partial),
            Ok(_) => panic!("budget must trip"),
        };
        let (b1, t1, p1) = extract(run(1));
        let (b2, t2, p2) = extract(run(2));
        let (b4, t4, p4) = extract(run(4));
        assert_eq!(b1, 4_000, "the error reports the configured budget");
        assert_eq!((b1, t1), (b2, t2));
        assert_eq!((b1, t1), (b4, t4));
        assert_eq!(p1, p2);
        assert_eq!(p1, p4);
        assert_eq!(p1.nodes.len(), 4);
    }

    #[test]
    fn coupled_trace_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.measure_ms = 4_000.0;
            cfg.trace = Some(carat_obs::TraceConfig::default());
            cfg.shards = shards;
            let (report, tracer) = Sim::new(cfg).expect("valid").run_traced();
            (report, tracer.expect("tracing was on").to_jsonl())
        };
        let (r1, t1) = run(1);
        let (r3, t3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(t1, t3);
        assert!(t1.contains("\"node\": 2"), "trace covers remote sites");
    }

    #[test]
    fn metrics_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = lb8(3);
            cfg.measure_ms = 5_000.0;
            cfg.metrics = Some(carat_obs::MetricsConfig::new(50.0));
            cfg.shards = shards;
            let (report, _, metrics) = Sim::new(cfg)
                .expect("valid")
                .run_checked_instrumented()
                .expect("no budget");
            (report, metrics.expect("metrics were on").to_jsonl())
        };
        let (r1, m1) = run(1);
        let (r3, m3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(m1, m3);
        assert!(m1.contains("\"site\": 2"), "metrics cover remapped sites");
        assert!(m1.contains("\"metric\": \"cpu_q\""));
    }

    #[test]
    fn coupled_metrics_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.measure_ms = 4_000.0;
            cfg.metrics = Some(carat_obs::MetricsConfig::new(25.0));
            cfg.shards = shards;
            let (report, _, metrics) = Sim::new(cfg)
                .expect("valid")
                .run_checked_instrumented()
                .expect("no budget");
            (report, metrics.expect("metrics were on").to_jsonl())
        };
        let (r1, m1) = run(1);
        let (r3, m3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(m1, m3);
        assert!(m1.contains("\"site\": 2"), "metrics cover remote sites");
        assert!(
            m1.contains("\"metric\": \"xmsg_out\""),
            "coupled runs expose cross-site message counters"
        );
    }

    #[test]
    fn trace_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = lb8(3);
            cfg.measure_ms = 5_000.0;
            cfg.trace = Some(carat_obs::TraceConfig::default());
            cfg.shards = shards;
            let (report, tracer) = Sim::new(cfg).expect("valid").run_traced();
            (report, tracer.expect("tracing was on").to_jsonl())
        };
        let (r1, t1) = run(1);
        let (r3, t3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(t1, t3);
        assert!(t1.contains("\"node\": 2"), "trace covers remapped sites");
    }
}
