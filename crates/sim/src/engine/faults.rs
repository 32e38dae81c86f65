//! Faults and partitions: scheduled and stochastic node crashes, restarts
//! with journal recovery, the presumed-abort termination protocol at
//! orphaned participants, scheduled and stochastic network splits and
//! their heals, and the routing of each submission onto its replica sets
//! under the degradation policy.

use carat_lock::{LockManager, TimestampManager};
use carat_obs::{TraceEvent, TraceKind};
use carat_workload::TxType;
use rand::Rng;

use super::{Ev, RouteOutcome, Sim, Txn};
use crate::config::{CcProtocol, DegradationPolicy};
use crate::slab::TxId;

impl Sim {
    /// A scheduled split begins: adopt the plan's component labels. If a
    /// stochastic split is already in force the scheduled one supersedes
    /// its layout; the degraded period runs continuously until the next
    /// heal (which always heals everything, so no layout can strand a
    /// component). The `partitions` counter counts degraded *periods*, so
    /// a superseding layout change does not increment it — that keeps
    /// `heals <= partitions <= heals + 1` an exact invariant.
    pub(super) fn partition_start(&mut self, idx: usize) {
        if !self.partition_active {
            self.partition_active = true;
            self.partition_since = self.sched.now();
            self.stats.partitions += 1;
        }
        for s in 0..self.comp.len() {
            self.comp[s] = self.cfg.partition_plan.splits[idx].groups[s];
        }
        // The trace names the number of components, counted over a label
        // bitmap (labels are u8).
        let n_comps = self.comp.iter().fold(0u64, |seen, &c| seen | 1 << (c % 64));
        self.trace_node(
            TraceKind::PartitionSplit,
            "split",
            n_comps.count_ones() as usize,
            0,
        );
    }

    /// The current split heals: components rejoin, lagging replicas catch
    /// up through the journal, and submissions parked by
    /// `BlockUntilHeal` re-enter the closed network.
    pub(super) fn partition_heal(&mut self) {
        if !self.partition_active {
            return; // a later-scheduled heal found everything healed
        }
        let now = self.sched.now();
        self.partition_active = false;
        self.comp.iter_mut().for_each(|c| *c = 0);
        self.stats.heals += 1;
        self.stats.partition_ms += now - self.partition_since.max(self.stats.window_start);
        // Journal catch-up onto every lagging replica that is up (a site
        // still in a crash outage catches up at its restart instead).
        self.catch_up_all(true);
        for i in 0..self.heal_waiters.len() {
            let user = self.heal_waiters[i];
            self.sched
                .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user });
        }
        self.heal_waiters.clear();
        self.trace_node(TraceKind::PartitionHeal, "heal", 1, 0);
    }

    /// Stochastic split from the MTBP process: cut the cluster at a random
    /// boundary into two components and draw the heal. Exactly one pending
    /// `FaultSplit` exists at all times (a draw landing inside an active
    /// split just redraws), so the process can never multiply.
    pub(super) fn fault_split(&mut self) {
        let (mtbp, mtth) = (
            self.cfg.partition_plan.mtbp_ms,
            self.cfg.partition_plan.mtth_ms,
        );
        let next = self.exp_sample(mtbp);
        self.sched.schedule_in(next, Ev::FaultSplit);
        if self.partition_active {
            return;
        }
        let sites = self.comp.len();
        // Validation guarantees sites >= 2 when the MTBP process is on.
        let cut = self.fault_rng.gen_range(1..sites);
        for s in 0..sites {
            self.comp[s] = u8::from(s >= cut);
        }
        self.partition_active = true;
        self.partition_since = self.sched.now();
        self.stats.partitions += 1;
        let heal_in = self.exp_sample(mtth);
        self.sched.schedule_in(heal_in, Ev::PartitionHeal);
        self.trace_node(TraceKind::PartitionSplit, "fault-split", 2, cut as u64);
    }

    /// Exponential sample with the given mean, from the fault stream.
    pub(super) fn exp_sample(&mut self, mean_ms: f64) -> f64 {
        let u: f64 = self.fault_rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() * mean_ms
    }

    /// Stochastic crash from the MTTF process: with a repair time the node
    /// goes down for an Exp(MTTR) outage (the next failure is drawn at
    /// restart); without one it recovers instantly and the next failure is
    /// drawn immediately.
    pub(super) fn fault_crash(&mut self, site: usize) {
        if !self.nodes[site].up {
            return;
        }
        let (mttf, mttr) = (self.cfg.fault_plan.mttf_ms, self.cfg.fault_plan.mttr_ms);
        if mttr > 0.0 {
            let downtime = self.exp_sample(mttr);
            self.crash_node(site, Some(downtime));
        } else {
            self.crash_node(site, None);
            let next = self.exp_sample(mttf);
            self.sched.schedule_in(next, Ev::FaultCrash { site });
        }
    }

    /// Injected node failure: lose the site's volatile state and poison or
    /// kill every transaction that had touched the site.
    ///
    /// With `downtime = None` (scheduled crashes, MTTR = 0) the node
    /// recovers instantly: journal recovery runs now and affected
    /// transactions divert to their abort path. With `downtime = Some(d)`
    /// the node stays down for `d` ms: recovery is deferred to the
    /// `Restart`, transactions *homed* here are killed outright (their
    /// coordinator state is gone — participants elsewhere become orphans
    /// resolved by the presumed-abort termination protocol), and visiting
    /// transactions are poisoned.
    ///
    /// In-flight disk/CPU transfers at the site are allowed to drain (their
    /// completions are harmless — the owning transactions are poisoned and
    /// divert to their abort path at the next safe point).
    pub(super) fn crash_node(&mut self, site: usize, downtime: Option<f64>) {
        if !self.nodes[site].up {
            return; // a scheduled crash hit a node already down
        }
        self.stats.crashes += 1;
        self.trace_node(TraceKind::Crash, "crash", site, 0);

        // 1. Storage-level crash + recovery (un-forced journal tail lost,
        //    every uncommitted transaction's images restored). A node with
        //    repair time runs recovery at restart instead — nothing touches
        //    its storage while it is down.
        if downtime.is_none() {
            self.nodes[site].db.crash_and_recover();
            self.obs_journal(site);
        } else {
            self.nodes[site].up = false;
        }

        // 2. Volatile protocol state is gone: collect everyone parked in
        //    the site's queues so they can be re-activated, then reset.
        //    The lifetime lock/TSO counters are folded into accumulators
        //    first — the replacement managers restart from zero, and the
        //    report must not see totals go backwards.
        {
            let n = &mut self.nodes[site];
            n.acc_lock_requests += n.locks.requests();
            n.acc_lock_conflicts += n.locks.conflicts();
            n.acc_cc_rejections += n.tso.rejections();
        }
        let mut stranded = std::mem::take(&mut self.stranded_scratch);
        stranded.clear();
        {
            let mut toks = std::mem::take(&mut self.woken_tso_scratch);
            self.nodes[site].locks.blocked_transactions_into(&mut toks);
            stranded.extend(toks.iter().map(|&t| TxId::from_token(t)));
            self.woken_tso_scratch = toks;
        }
        stranded.extend(self.nodes[site].tm_queue.drain(..));
        stranded.extend(self.nodes[site].dm_queue.drain(..));
        if let Some(holder) = self.nodes[site].tm_busy.take() {
            // The TM process restarted; its current client no longer holds
            // the (new) server.
            if let Some(tx) = self.txs.get_mut(holder) {
                tx.tm_held = None;
            }
        }
        self.nodes[site].locks = LockManager::new();
        self.nodes[site].tso = if self.cfg.cc == CcProtocol::TimestampOrderingThomas {
            TimestampManager::new_with_thomas_rule()
        } else {
            TimestampManager::new()
        };
        self.nodes[site].dm_free = self.cfg.dm_pool;
        self.obs_servers(site);
        self.obs_locks(site);
        // The site's DM server processes restarted: nobody holds one any
        // more (without this, the pool over-fills when poisoned holders
        // "release" their vanished servers at abort time).
        for (_, tx) in self.txs.iter_mut() {
            tx.dm_sites.retain(|&s| s != site);
        }
        // Orphans registered *at* this site are swept away with the rest of
        // its volatile state (a later restart's recovery undoes their
        // storage side; their OrphanResolve events become no-ops).
        self.orphans.retain(|&(s, _), _| s != site);

        // 3. Poison every live transaction that had touched the site; with
        //    downtime, transactions homed here are killed outright instead.
        //    Slab slot order varies with recycling, but the gid (submission
        //    order) does not — and the kill/poison order below feeds the
        //    scheduler, so sort by gid to replay identically.
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        for (id, tx) in self.txs.iter() {
            if tx.home == site
                || tx.begun_sites.contains(&site)
                || tx.dm_sites.contains(&site)
                || tx.plan.requests.iter().any(|(s, _)| *s == site)
            {
                victims.push((tx.gid, id));
            }
        }
        victims.sort_unstable();
        for &(_, id) in &victims {
            let homed = self.txs.get(id).is_some_and(|t| t.home == site);
            if downtime.is_some() && homed {
                self.kill_homed_tx(id, site);
                continue;
            }
            let tx = self.txs.get_mut(id).expect("live tx");
            if !tx.aborting && !tx.poisoned {
                tx.poisoned = true;
                self.stats.crash_kills += 1;
            }
        }
        victims.clear();
        self.victims_scratch = victims;
        // Re-activate the stranded (their waits evaporated with the site).
        for &id in &stranded {
            if self.txs.contains(id) {
                self.end_lock_wait(id);
                if !self.ready.contains(&id) {
                    self.ready.push_back(id);
                }
            }
        }
        stranded.clear();
        self.stranded_scratch = stranded;
        while let Some(id) = self.ready.pop_front() {
            self.advance(id);
        }
        if let Some(d) = downtime {
            self.sched.schedule_in(d, Ev::Restart { site });
        }
    }

    /// Kills a transaction whose home (coordinator) node crashed with
    /// downtime: the coordinator's volatile state is gone, so the
    /// transaction cannot continue *or* run a coordinated abort. Its user
    /// is parked until the node restarts. At every other live site, pending
    /// waits are withdrawn immediately (nothing must ever block *behind* a
    /// dead transaction's queue entry) but held locks — including an
    /// in-doubt prepared participant's — stay until the termination
    /// protocol fires.
    fn kill_homed_tx(&mut self, id: TxId, home: usize) {
        let mut tx = self.txs.remove(id).expect("live tx");
        self.census_drop(&mut tx);
        let token = id.token();
        self.stats.crash_kills += 1;
        self.tx_killed += 1;
        let term = self.cfg.fault_plan.termination_ms();
        for s in 0..self.nodes.len() {
            if s == home || !self.nodes[s].up {
                continue;
            }
            self.cancel_lock_request(s, token);
            self.nodes[s].tso.cancel_waits(token);
            self.nodes[s].tm_queue.retain(|&q| q != id);
            self.nodes[s].dm_queue.retain(|&q| q != id);
            self.obs_servers(s);
            if self.nodes[s].tm_busy == Some(id) {
                self.grant_tm_to_next(s);
            }
            // Whatever the participant still holds here (locks, a DM
            // server, an in-doubt prepared state) is resolved by the
            // termination protocol after the coordinator stays silent for
            // the full retransmission schedule.
            self.orphans
                .insert((s, tx.gid), (token, tx.dm_sites.contains(&s)));
            self.sched.schedule_in(
                term,
                Ev::OrphanResolve {
                    site: s,
                    gid: tx.gid,
                },
            );
        }
        self.nodes[home].parked_users.push(tx.user);
        self.spare_txns.push(tx);
    }

    /// A crashed node comes back up: run journal recovery (charging its
    /// I/O to the background), release the recovered state, resubmit the
    /// users parked during the outage, and draw the next failure.
    pub(super) fn restart_node(&mut self, site: usize) {
        debug_assert!(!self.nodes[site].up, "restart of a node that is up");
        self.nodes[site].up = true;
        self.stats.recoveries += 1;
        self.trace_node(TraceKind::Recovery, "restart", site, 0);
        let undone = self.nodes[site].db.crash_and_recover();
        self.obs_journal(site);
        if !undone.is_empty() {
            // Background recovery I/O: one block restore per undone
            // transaction's journal extent plus the forced abort records.
            self.background_io(site, undone.len() as u64 + 1);
        }
        // Writes the replicas committed while this site was down ship over
        // as journal catch-up — unless a partition currently separates the
        // site from the writers, in which case the heal replays it.
        if !self.partition_active {
            self.apply_catchup_site(site, true);
        }
        for user in std::mem::take(&mut self.nodes[site].parked_users) {
            self.sched
                .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user });
        }
        let next = self.exp_sample(self.cfg.fault_plan.mttf_ms);
        self.sched.schedule_in(next, Ev::FaultCrash { site });
    }

    /// Presumed-abort termination at an orphaned participant: the
    /// coordinator has been silent for the full retransmission schedule,
    /// so the participant — in doubt if it had prepared — unilaterally
    /// aborts, rolls back, releases its locks, and frees its DM server.
    pub(super) fn resolve_orphan(&mut self, site: usize, gid: u64) {
        let Some((token, dm_held)) = self.orphans.remove(&(site, gid)) else {
            return; // swept away by a crash of this site in the meantime
        };
        debug_assert!(self.nodes[site].up, "orphan entry survived a crash");
        if self.tracer.is_some() {
            // The transaction left the slab with its coordinator: the
            // event names it by gid and by its old slab token.
            let now = self.sched.now();
            let ev = TraceEvent::new(
                now,
                TraceKind::Recovery,
                "orphan-resolve",
                site as u32,
                gid,
                TxType::Lro,
            );
            self.trace(ev.lane2(token as u32));
        }
        if self.nodes[site].db.is_prepared(gid) {
            self.stats.in_doubt_resolutions += 1;
        }
        if self.nodes[site].db.is_active(gid) {
            let io = self.nodes[site]
                .db
                .rollback(gid)
                .expect("orphan rollback of a participant verified active at this site");
            self.obs_journal(site);
            if io.total() > 0 {
                self.background_io(site, io.total() as u64);
            }
        }
        self.release_locks_and_wake(site, token);
        self.tso_abort_and_wake(site, token);
        if dm_held {
            self.free_dm(site);
        }
    }

    /// Diverts a crash-poisoned transaction onto its abort path: withdraw
    /// any pending waits at live sites, then run the usual abort program
    /// (rollback I/O is only charged where the storage engine still has the
    /// transaction active — the crashed site's recovery already undid it).
    pub(super) fn divert_after_crash(&mut self, id: TxId) {
        let token = id.token();
        if let Some(site) = self.blocked_site(token) {
            if self.cfg.cc == CcProtocol::TwoPhaseLocking {
                self.cancel_lock_request(site, token);
            }
        }
        if self.cfg.cc != CcProtocol::TwoPhaseLocking {
            for node in &mut self.nodes {
                node.tso.cancel_waits(token);
            }
        }
        if let Some(tx) = self.txs.get_mut(id) {
            tx.blocked_since = None;
        }
        self.census_sync(id);
        self.start_abort_program(id);
    }

    /// Routes a freshly sampled plan onto the replica sets.
    ///
    /// The replica set of plan site `s` is the `k` consecutive sites
    /// `{s, s+1, …, s+k−1 mod S}` (`k` = [`crate::PartitionPlan::replication`]),
    /// so every site is the primary for its own slice of the data. A
    /// replica is *usable* when it is up and in the submitter's network
    /// component. Semantics per request:
    ///
    /// * **Read** (read-one): served by the first usable replica, primary
    ///   first — choosing a later one is a failover. A read whose usable
    ///   replicas are short of a majority cannot prove freshness; only
    ///   [`DegradationPolicy::StaleRead`] serves it anyway.
    /// * **Write** (write-all-reachable): needs a majority quorum of
    ///   usable replicas. The plan slot is rerouted to the first usable
    ///   replica and duplicated onto every other usable one (full 2PL +
    ///   2PC at each); unreachable replicas are recorded in `tx.missed`
    ///   for journal catch-up at commit.
    ///
    /// An unservable request degrades per policy: `Abort`/`StaleRead`
    /// refuse the submission, `BlockUntilHeal` parks the user while a
    /// split is in force (and refuses otherwise, since only a heal wakes
    /// the parked). Routing draws no randomness — the decision is a pure
    /// function of the plan, the component map, and node liveness.
    pub(super) fn route_plan(&mut self, home: usize, ty: TxType, tx: &mut Txn) -> RouteOutcome {
        let sites = self.nodes.len();
        let k = self.cfg.partition_plan.replication;
        let q = self.cfg.partition_plan.write_quorum();
        let policy = self.cfg.partition_plan.degradation;
        let my = self.comp[home];
        let update = ty.is_update();
        let degrade = |active: bool| match policy {
            DegradationPolicy::BlockUntilHeal if active => RouteOutcome::Park,
            _ => RouteOutcome::Refuse,
        };

        // Pass 1 — feasibility only: no mutation until every request is
        // known servable, so a refused plan is left exactly as sampled.
        for slot in &tx.plan.requests {
            let primary = slot.0;
            let mut alive = 0usize;
            for j in 0..k {
                let r = (primary + j) % sites;
                if self.nodes[r].up && self.comp[r] == my {
                    alive += 1;
                }
            }
            let servable = if update {
                alive >= q
            } else {
                alive >= 1 && (alive >= q || policy == DegradationPolicy::StaleRead)
            };
            if !servable {
                return degrade(self.partition_active);
            }
        }

        // Pass 2 — reroute reads, expand writes, record missed replicas.
        let mut extras = std::mem::take(&mut self.route_scratch);
        extras.clear();
        let stale_policy = policy == DegradationPolicy::StaleRead;
        for slot_idx in 0..tx.plan.requests.len() {
            let primary = tx.plan.requests[slot_idx].0;
            let mut serve = None;
            let mut alive = 0usize;
            for j in 0..k {
                let r = (primary + j) % sites;
                if self.nodes[r].up && self.comp[r] == my {
                    alive += 1;
                    if serve.is_none() {
                        serve = Some(r);
                    }
                }
            }
            let serve = serve.expect("pass 1 verified a usable replica");
            tx.plan.requests[slot_idx].0 = serve;
            let failover = if update {
                let mut missed_any = false;
                for j in 0..k {
                    let r = (primary + j) % sites;
                    if r == serve {
                        continue;
                    }
                    if self.nodes[r].up && self.comp[r] == my {
                        extras.push((slot_idx, r));
                    } else {
                        missed_any = true;
                        for &rid in &tx.plan.requests[slot_idx].1 {
                            tx.missed.push((r, rid));
                        }
                    }
                }
                (missed_any || serve != primary).then_some("write-quorum")
            } else {
                if alive < q && stale_policy {
                    self.stats.stale_reads += 1;
                }
                self.stats.degraded_reads += u64::from(serve != primary);
                (serve != primary).then_some("read")
            };
            if let Some(name) = failover {
                self.stats.failovers += 1;
                if self.tracer.is_some() {
                    // Routing runs before the gid is allocated: the
                    // submission will take the next one.
                    let now = self.sched.now();
                    let ev = TraceEvent::new(
                        now,
                        TraceKind::Failover,
                        name,
                        serve as u32,
                        self.next_gid,
                        ty,
                    );
                    self.trace(ev.detail(primary as u64));
                }
            }
        }
        // Appending while iterating would invalidate slot indices, so the
        // write expansions land after the loop (order is deterministic:
        // slot-major, replica-minor).
        for &(slot_idx, r) in &extras {
            let records = tx.plan.requests[slot_idx].1.clone();
            tx.plan.requests.push((r, records));
        }
        extras.clear();
        self.route_scratch = extras;
        RouteOutcome::Proceed
    }
}
