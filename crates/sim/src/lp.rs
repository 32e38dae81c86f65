//! The site-level logical process (LP) of the sharded engine: the
//! `Sim` methods and message types that let one `Sim` execute a single
//! site's events and exchange timestamped cross-site messages with its
//! peers. The driver that schedules LPs lives in [`crate::shard`].

use std::cmp::Reverse;

use carat_des::Time;
use carat_obs::{MetricsRecorder, TraceEvent, TraceKind, Tracer};

use super::{Ev, Sim, Txn};
use crate::config::{SimConfig, SimConfigError};
use crate::slab::TxId;

/// A cross-LP message of the coupled engine, between two site-level
/// logical processes: handed straight to the receiver when both run on
/// one thread, carried by a [`carat_des::shard::ShardChannel`] otherwise.
/// Everything that crosses a site boundary in an eligible configuration
/// is one of these three, all with delivery time `send time + α` (the
/// network delay, which is the conservative lookahead).
pub(crate) enum XMsg {
    /// A transaction's control flow migrates to the receiving site (the
    /// `Op::Net` hop). The full transaction state ships; the sender keeps
    /// a ghost entry so its lock/TM/DM state stays addressable.
    Migrate { txn: Box<Txn> },
    /// A deadlock-probe hop whose next holder executes at the receiving
    /// site (`DeadlockMode::Probes`).
    Probe {
        initiator_gid: u64,
        target_gid: u64,
        ttl: u8,
    },
    /// Release one DM server at the receiving site: the home LP finished a
    /// transaction that held a DM there.
    DmRelease,
}

/// An inbound cross-LP message queued for ingestion, ordered by
/// `(time, sending site, per-sender sequence)`. The time is compared via
/// `to_bits` — monotone for the non-negative timestamps the engine uses —
/// so the ordering is `Ord` without an `f64` wrapper. The explicit sender
/// component pins the ingestion order of simultaneous arrivals from
/// different peers to a value independent of drain order.
pub(super) struct InboxEntry {
    t_bits: u64,
    from: usize,
    seq: u64,
    msg: XMsg,
}

impl InboxEntry {
    fn time(&self) -> Time {
        f64::from_bits(self.t_bits)
    }
}

impl PartialEq for InboxEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.t_bits, self.from, self.seq) == (other.t_bits, other.from, other.seq)
    }
}
impl Eq for InboxEntry {}
impl PartialOrd for InboxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InboxEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t_bits, self.from, self.seq).cmp(&(other.t_bits, other.from, other.seq))
    }
}

impl Sim {
    /// Builds one site-level logical process of the sharded engine: the
    /// full topology of `cfg`, but executing only `site`'s events and
    /// holding only `site`'s storage. Gids stride by the site count from a
    /// base of `site + 1` so allocation needs no coordination, and the
    /// workload stream is seeded by `site_seed(seed, site)` — a pure
    /// function of the configuration, so the LP ensemble (and everything
    /// downstream) is independent of the shard count.
    pub(crate) fn new_lp(cfg: SimConfig, site: usize) -> Result<Self, SimConfigError> {
        let sites = cfg.params.sites();
        let mut lp_cfg = cfg;
        lp_cfg.seed = crate::shard::site_seed(lp_cfg.seed, site);
        let mut sim = Sim::build(lp_cfg, Some(site))?;
        sim.next_gid = site as u64 + 1;
        sim.gid_stride = sites as u64;
        Ok(sim)
    }

    // --- The sharded conservative engine: one `Sim` per *site*, run as a
    // --- logical process (LP). Peers' node states stay inert; every
    // --- cross-site interaction is a timestamped `XMsg` delivered at
    // --- `send time + α`, which is also the coupled lookahead (a
    // --- site-separable run sends none, and its lookahead is +∞).

    /// Primes this LP's calendar: the submissions of the users homed at
    /// the owned site plus the warm-up boundary. Crash, fault, and
    /// partition events are excluded by sharded-engine eligibility.
    pub(crate) fn lp_prime(&mut self) {
        let owned = self.owned.expect("sharded engine");
        for u in 0..self.users.len() {
            if self.users[u].0 == owned {
                self.sched.schedule(0.0, Ev::Submit { user: u });
            }
        }
        self.sched.schedule(self.cfg.warmup_ms, Ev::Warmup);
    }

    /// Earliest unprocessed work on this LP (local calendar or ingested
    /// inbox); `+∞` when idle. The driver's bounds and promises are built
    /// from it.
    pub(crate) fn lp_next_time(&self) -> Time {
        let local = self.sched.peek_time().unwrap_or(f64::INFINITY);
        let inbox = self
            .inbox
            .peek()
            .map(|Reverse(e)| e.time())
            .unwrap_or(f64::INFINITY);
        local.min(inbox)
    }

    /// Queues an inbound cross-LP message for ingestion. Arrivals are
    /// numbered per sender: each sender's messages arrive in emission
    /// order with nondecreasing timestamps, so the `(time, sender, seq)`
    /// ingestion order is the same however the driver batches them — the
    /// merge is independent of the shard layout.
    ///
    /// # Panics
    ///
    /// Panics on a straggler: a message timestamped below the bound this
    /// LP has already run to, which the conservative protocol rules out.
    /// Running it late would silently break the event order.
    pub(crate) fn lp_ingest(&mut self, from: usize, t: Time, msg: XMsg) {
        assert!(
            t >= self.lp_bound,
            "straggler: message from site {from} at t={t} below the bound {} this LP ran to",
            self.lp_bound
        );
        let seq = self.inbox_seqs[from];
        self.inbox_seqs[from] = seq + 1;
        self.inbox.push(Reverse(InboxEntry {
            t_bits: t.to_bits(),
            from,
            seq,
            msg,
        }));
    }

    /// Hands this step's outbound messages to the driver in emission
    /// order: swaps them into `buf`, which must be empty.
    pub(crate) fn lp_take_outbox(&mut self, buf: &mut Vec<(usize, Time, XMsg)>) {
        debug_assert!(buf.is_empty(), "the previous outbox was not routed");
        std::mem::swap(&mut self.outbox, buf);
    }

    /// Runs the merged event stream (local calendar + inbox) strictly
    /// below `bound` and no later than `end`. On a timestamp tie the
    /// inbox goes first — fixed once, so every shard layout merges the two
    /// streams identically. Returns `Some(t)` when the event budget trips
    /// at `t`; the driver then retires this LP.
    pub(crate) fn lp_step_until(&mut self, bound: Time, end: Time) -> Option<Time> {
        self.lp_bound = self.lp_bound.max(bound);
        let budget = self.cfg.max_events;
        loop {
            let local = self.sched.peek_time().unwrap_or(f64::INFINITY);
            let inbox = self
                .inbox
                .peek()
                .map(|Reverse(e)| e.time())
                .unwrap_or(f64::INFINITY);
            let t = local.min(inbox);
            if t >= bound || t > end {
                return None;
            }
            if budget != 0 && self.events >= budget {
                return Some(t);
            }
            self.events += 1;
            if inbox <= local {
                let Reverse(entry) = self.inbox.pop().expect("peeked entry");
                // Injected timestamps come from a peer's timeline; the
                // local clock must reach them before handlers run.
                self.sched.advance_now(entry.time());
                self.handle_xmsg(entry.msg);
            } else {
                let (_, ev) = self.sched.pop().expect("peeked event");
                self.handle(ev);
            }
            while let Some(id) = self.ready.pop_front() {
                self.advance(id);
            }
        }
    }

    /// Applies one ingested cross-LP message (the inbox analogue of
    /// `handle`). Event-kind accounting mirrors the monolithic engine:
    /// migrations and DM releases are delivered network messages
    /// (`ev_net_done`), probe hops are probe deliveries (`ev_probe`).
    fn handle_xmsg(&mut self, msg: XMsg) {
        self.xmsg_in += 1;
        self.obs_xmsg();
        match msg {
            XMsg::Migrate { txn } => {
                self.ev_counts[3] += 1; // ev_net_done
                self.migrate_in(txn);
            }
            XMsg::Probe {
                initiator_gid,
                target_gid,
                ttl,
            } => {
                self.ev_counts[15] += 1; // ev_probe (gid-addressed)
                self.handle_probe_gid(initiator_gid, target_gid, ttl);
            }
            XMsg::DmRelease => {
                self.ev_counts[3] += 1; // ev_net_done
                let owned = self.owned.expect("sharded engine");
                self.free_dm(owned);
            }
        }
    }

    /// The coupled engine's `Op::Net` hop: package the transaction and
    /// ship it to `to`'s logical process, delivered at `now + ms`
    /// (`ms` = α, the lookahead). The local slab slot becomes a *ghost*
    /// stub so the slab token — and with it every lock-manager and TSO
    /// anchor keyed by it — stays stable while the transaction is away.
    /// Ghosts with no anchored state are dropped (except at home, which
    /// always tracks its transactions for probe routing and the
    /// end-of-run census).
    pub(super) fn migrate_out(&mut self, id: TxId, to: usize, ms: Time) {
        let owned = self.owned.expect("sharded engine");
        debug_assert_ne!(to, owned, "programs never hop to the current site");
        let now = self.sched.now();
        let token = id.token();
        self.stats.net_messages += 1;
        self.trace_tx(id, TraceKind::NetSend, "send", to, 0);
        let mut stub = self.spare_txns.pop().unwrap_or_else(Txn::empty);
        let slot = self.txs.get_mut(id).expect("live tx");
        // The ghost keeps identity and census fields; the working state
        // travels with the transaction.
        stub.gid = slot.gid;
        stub.user = slot.user;
        stub.home = slot.home;
        stub.ty = slot.ty;
        stub.submit_time = slot.submit_time;
        stub.prog.clear();
        stub.pc = 0;
        stub.plan.requests.clear();
        stub.begun_sites.clear();
        stub.dm_sites.clear();
        stub.aborting = slot.aborting;
        stub.blocked_since = None;
        stub.updated.clear();
        stub.op_started = 0.0;
        stub.tm_held = None;
        stub.poisoned = false;
        stub.net_token = None;
        stub.net_attempt = 0;
        stub.decided = false;
        stub.at_site = to;
        stub.missed.clear();
        stub.away = true;
        stub.cur_site = to;
        stub.counted = slot.counted;
        let txn = std::mem::replace(slot, stub);
        let keep = txn.home == owned
            || self.nodes[owned].locks.held_count(token) > 0
            || self.nodes[owned].tso.has_pending(token);
        if keep {
            self.census_sync(id);
        } else {
            let mut ghost = self.txs.remove(id).expect("ghost just written");
            self.census_drop(&mut ghost);
            self.gid_index.remove(&ghost.gid);
            self.spare_txns.push(ghost);
        }
        self.xmsg_out += 1;
        self.obs_xmsg();
        self.outbox
            .push((to, now + ms, XMsg::Migrate { txn: Box::new(txn) }));
    }

    /// Arrival of a migrated transaction: revive the local ghost in place
    /// (token — and all state anchored to it — stays stable) or insert a
    /// fresh slab entry, then complete the `Net` op it was parked on.
    fn migrate_in(&mut self, txn: Box<Txn>) {
        let owned = self.owned.expect("sharded engine");
        let mut txn = *txn;
        let gid = txn.gid;
        txn.at_site = owned;
        txn.cur_site = owned;
        txn.net_token = None;
        // The sender's census entry stayed with its ghost there; here the
        // transaction takes over its local ghost's, if any.
        txn.counted = None;
        let id = match self.gid_index.get(&gid) {
            Some(&id) => {
                let slot = self.txs.get_mut(id).expect("ghost is live");
                debug_assert!(slot.away, "resident transaction migrated onto itself");
                txn.counted = slot.counted;
                let ghost = std::mem::replace(slot, txn);
                self.spare_txns.push(ghost);
                id
            }
            None => {
                let id = self.txs.insert(txn);
                self.gid_index.insert(gid, id);
                id
            }
        };
        self.census_sync(id);
        // The network hop completes on arrival: account its residence to
        // its segment and resume the program.
        self.step_past(id);
    }

    /// Routes one probe hop toward `holder` (resident or ghost).
    /// Residents get a local `ProbeG` event after `local_delay`; ghosts
    /// forward over the network (one α) toward their real state — the
    /// current site if this LP is the holder's home (home always knows it;
    /// every migration passes through home), the holder's home otherwise.
    pub(super) fn probe_hop_to_holder(
        &mut self,
        initiator_gid: u64,
        holder: TxId,
        ttl: u8,
        local_delay: Time,
    ) {
        let owned = self.owned.expect("sharded engine");
        let Some(h) = self.txs.get(holder) else {
            return;
        };
        let (target_gid, away, home, cur_site) = (h.gid, h.away, h.home, h.cur_site);
        if !away {
            self.sched.schedule_in(
                local_delay,
                Ev::ProbeG {
                    initiator_gid,
                    target_gid,
                    ttl,
                },
            );
        } else {
            let dest = if home == owned { cur_site } else { home };
            let alpha = self.cfg.params.comm_delay_ms;
            self.xmsg_out += 1;
            self.obs_xmsg();
            self.outbox.push((
                dest,
                self.sched.now() + alpha,
                XMsg::Probe {
                    initiator_gid,
                    target_gid,
                    ttl,
                },
            ));
        }
    }

    /// Delivery of a gid-addressed probe (the coupled engine's
    /// Chandy–Misra–Haas hop — see [`Self::handle_probe`] for the
    /// monolithic analogue). Unknown gids mean the probe outlived its
    /// target (committed or aborted): absorbed, like stale probes in the
    /// monolithic engine. A ghost target relays the probe toward the
    /// target's real state with one network delay.
    pub(super) fn handle_probe_gid(&mut self, initiator_gid: u64, target_gid: u64, ttl: u8) {
        self.stats.probe_hops += 1;
        if ttl == 0 {
            return;
        }
        let owned = self.owned.expect("sharded engine");
        let Some(&target) = self.gid_index.get(&target_gid) else {
            return;
        };
        let (away, home, cur_site, ty) = {
            let t = self.txs.get(target).expect("gid index entries are live");
            (t.away, t.home, t.cur_site, t.ty)
        };
        if away {
            let dest = if home == owned { cur_site } else { home };
            let alpha = self.cfg.params.comm_delay_ms;
            self.xmsg_out += 1;
            self.obs_xmsg();
            self.outbox.push((
                dest,
                self.sched.now() + alpha,
                XMsg::Probe {
                    initiator_gid,
                    target_gid,
                    ttl: ttl - 1,
                },
            ));
            return;
        }
        let token = target.token();
        if self.tracer.is_some() {
            // The hop is the initiator's, seen at the target's slot here.
            let now = self.sched.now();
            let hop = TraceEvent::new(
                now,
                TraceKind::ProbeHop,
                "hop",
                owned as u32,
                initiator_gid,
                ty,
            );
            self.trace(hop.lane2(token as u32).detail(target_gid));
        }
        // The probe only matters while the resident target is blocked
        // here; a running target absorbs it (it will launch fresh probes
        // if it blocks again).
        if self.nodes[owned].locks.waiting_block(token).is_none() {
            return;
        }
        if target_gid == initiator_gid {
            // Cycle closed at the (still-blocked) initiator: victim.
            self.close_probe_cycle(target, owned);
            return;
        }
        // Forward along the blocked target's wait-for edges. A next hop
        // blocked at this same site costs nothing; anything else (running
        // here, or living in another LP) pays the network delay — the
        // same rule as the monolithic prober.
        let alpha = self.cfg.params.comm_delay_ms;
        let mut targets = std::mem::take(&mut self.probe_targets);
        self.nodes[owned].locks.waits_for_into(token, &mut targets);
        for &h in &targets {
            let local_delay = if self.nodes[owned].locks.waiting_block(h).is_some() {
                0.0
            } else {
                alpha
            };
            self.probe_hop_to_holder(initiator_gid, TxId::from_token(h), ttl - 1, local_delay);
        }
        self.probe_targets = targets;
    }

    /// Folds a peer LP's final state into this one (driver calls this in
    /// site order after every LP stopped). Takes the peer's real node
    /// state (this LP's copy of that site is inert), pools the statistics,
    /// and keeps the census/high-water bookkeeping the merged
    /// [`Self::report`] needs.
    pub(crate) fn absorb(&mut self, mut other: Sim) {
        let o = other.owned.expect("absorb merges LPs");
        debug_assert!(self.owned.is_some(), "absorb target must be an LP");
        std::mem::swap(&mut self.nodes[o], &mut other.nodes[o]);
        self.absorbed_live += other.absorbed_live;
        let mut oldest = other.absorbed_oldest_submit;
        for (_, tx) in other.txs.iter() {
            if tx.home == o {
                self.absorbed_live += 1;
                oldest = oldest.min(tx.submit_time);
            }
        }
        self.absorbed_oldest_submit = self.absorbed_oldest_submit.min(oldest);
        self.absorbed_sched_hwm = self
            .absorbed_sched_hwm
            .max(other.absorbed_sched_hwm)
            .max(other.sched.high_water());
        self.absorbed_slab_hwm = self
            .absorbed_slab_hwm
            .max(other.absorbed_slab_hwm)
            .max(other.txs.high_water());
        self.absorbed_slab_slots = self
            .absorbed_slab_slots
            .max(other.absorbed_slab_slots)
            .max(other.txs.slots());
        self.events += other.events;
        for i in 0..Ev::KINDS {
            self.ev_counts[i] += other.ev_counts[i];
        }
        self.tx_started += other.tx_started;
        self.tx_submit_refusals += other.tx_submit_refusals;
        self.tx_killed += other.tx_killed;
        self.last_committed
            .extend(std::mem::take(&mut other.last_committed));
        self.stats.merge(std::mem::take(&mut other.stats));
    }

    /// Blocks of storage each node holds (an LP loads only its owned
    /// site's database).
    #[cfg(test)]
    pub(crate) fn storage_blocks(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.db.n_blocks()).collect()
    }

    /// Takes the lifecycle tracer out (the driver collects per-LP tracers
    /// in site order before merging LP state).
    pub(crate) fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|b| *b)
    }

    /// Closes this LP's recorder when it retires: through `end` after a
    /// normal run — the retirement condition (`min(next, bound) > end`)
    /// guarantees no further event at or below `end` will ever run here —
    /// or strictly below `trip` when its event budget tripped there.
    pub(crate) fn lp_close_metrics(&mut self, trip: Option<Time>, end: Time) {
        if let Some(m) = self.metrics.as_deref_mut() {
            match trip {
                Some(t) => m.close_before(t),
                None => m.close_through(end),
            }
        }
    }

    /// Takes the metrics recorder out (the driver collects per-LP
    /// recorders in site order before merging LP state, like
    /// [`Self::take_tracer`]).
    pub(crate) fn take_metrics(&mut self) -> Option<MetricsRecorder> {
        self.metrics.take().map(|b| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeadlockMode;
    use carat_workload::{StandardWorkload, SystemParams};

    #[test]
    #[should_panic(expected = "straggler")]
    fn a_message_below_the_bound_an_lp_ran_to_panics() {
        let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 7);
        cfg.params = SystemParams::with_sites(2);
        cfg.params.comm_delay_ms = 5.0;
        cfg.deadlock_mode = DeadlockMode::Probes;
        let mut lp = Sim::new_lp(cfg, 1).expect("valid");
        lp.lp_prime();
        assert_eq!(lp.lp_step_until(100.0, 1_000.0), None);
        // At the bound is fine; below it is a straggler.
        lp.lp_ingest(0, 100.0, XMsg::DmRelease);
        lp.lp_ingest(0, 99.0, XMsg::DmRelease);
    }
}
