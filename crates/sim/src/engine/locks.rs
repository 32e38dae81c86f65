//! Locks and deadlocks: strict 2PL and timestamp-ordering waits, their
//! wake-ups, deadlock detection at lock-request time (the local wait-for
//! graph, then either the union of every site's graph or
//! Chandy–Misra–Haas probes), and the victims' aborts.

use carat_lock::{LockMode, Outcome, TsOutcome};
use carat_obs::TraceKind;

use super::{Ev, NodeState, Sim};
use crate::config::{CcProtocol, DeadlockMode, VictimPolicy};
use crate::program::{Op, Seg};
use crate::slab::TxId;

impl Sim {
    /// Runs `id`'s `Lock` op on `block` at `site` under the configured
    /// concurrency control. Returns true when `id` must yield: it blocked,
    /// or a youngest-victim abort already granted the request and queued
    /// it to run. A granted, skipped or aborted request runs on.
    pub(super) fn request_lock(
        &mut self,
        id: TxId,
        site: usize,
        block: u32,
        exclusive: bool,
    ) -> bool {
        let token = id.token();
        let name = if exclusive { "X" } else { "S" };
        self.trace_tx(id, TraceKind::LockRequest, name, site, block as u64);
        if self.cfg.cc != CcProtocol::TwoPhaseLocking {
            // Timestamp ordering: the *gid* is the timestamp (gids are
            // assigned monotonically and a restart gets a fresh, larger
            // one); the slab token merely names the transaction.
            let gid = self.txs.get(id).expect("live tx").gid;
            let tso = &mut self.nodes[site].tso;
            let out = if exclusive {
                tso.write(token, gid, block)
            } else {
                tso.read(token, gid, block)
            };
            match out {
                TsOutcome::Allowed => self.bump(id),
                TsOutcome::SkipWrite => {
                    // Thomas write rule: skip the granule's physical I/O
                    // and functional update — fast forward past its
                    // Access op.
                    let tx = self.txs.get_mut(id).expect("live tx");
                    while !matches!(
                        tx.prog.ops[tx.pc],
                        Op::Access { site: s, rid, .. } if s == site && rid.block == block
                    ) {
                        tx.pc += 1;
                    }
                    tx.pc += 1; // past the Access itself
                }
                TsOutcome::Rejected => {
                    self.trace_tx(
                        id,
                        TraceKind::DeadlockVictim,
                        "cc-reject",
                        site,
                        block as u64,
                    );
                    self.start_abort(id, site);
                }
                TsOutcome::WaitFor(_) => {
                    // Parked until the writer resolves.
                    self.start_lock_wait(id, site, block);
                    return true;
                }
            }
            return false;
        }
        let mode = if exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let outcome = self.nodes[site].locks.request(token, block, mode);
        self.obs_locks(site);
        if outcome == Outcome::Granted {
            self.bump(id);
            false
        } else if self.deadlock_check(id, site) {
            self.trace_tx(
                id,
                TraceKind::DeadlockVictim,
                "deadlock",
                site,
                block as u64,
            );
            self.start_abort(id, site);
            false
        } else {
            // Parked until a grant — unless a youngest-policy victim abort
            // already promoted and granted this request: then wake()
            // bumped our pc and queued us in `ready`, and we just yield to
            // the drain loop.
            if self.nodes[site].locks.waiting_block(token).is_some() {
                self.start_lock_wait(id, site, block);
            }
            true
        }
    }

    /// Parks `id` in a lock wait on `block` at `site`.
    fn start_lock_wait(&mut self, id: TxId, site: usize, block: u32) {
        self.txs.get_mut(id).expect("live tx").blocked_since = Some(self.sched.now());
        self.census_sync(id);
        self.trace_tx(id, TraceKind::LockBlock, "block", site, block as u64);
    }

    /// Ends `id`'s lock wait, if it is in one: the one place a lock wait
    /// ends, whether a grant, a retry, a victim's abort or a crash ends it.
    /// Records the wait, charges it to the LW phase and resyncs the census.
    pub(super) fn end_lock_wait(&mut self, id: TxId) {
        let Some(since) = self.txs.get_mut(id).and_then(|tx| tx.blocked_since.take()) else {
            return;
        };
        let waited = self.sched.now() - since;
        self.stats.lock_wait.record(waited);
        self.charge(id, Seg::Lw, waited);
        self.census_sync(id);
    }

    /// `locks.release_all` + wake at `site`, through the reusable wake
    /// buffer (the steady-state commit path allocates nothing).
    pub(super) fn release_locks_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        self.nodes[site].locks.release_all_into(token, &mut woken);
        self.obs_locks(site);
        self.wake(&woken);
        self.woken_scratch = woken;
    }

    /// `locks.cancel_request` + wake at `site`, buffer-reusing.
    pub(super) fn cancel_lock_request(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        self.nodes[site]
            .locks
            .cancel_request_into(token, &mut woken);
        self.obs_locks(site);
        self.wake(&woken);
        self.woken_scratch = woken;
    }

    /// `tso.commit` + retry-wake at `site`, buffer-reusing.
    pub(super) fn tso_commit_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_tso_scratch);
        woken.clear();
        self.nodes[site].tso.commit_into(token, &mut woken);
        self.wake_retry(&woken);
        self.woken_tso_scratch = woken;
    }

    /// `tso.abort` + retry-wake at `site`, buffer-reusing.
    pub(super) fn tso_abort_and_wake(&mut self, site: usize, token: u64) {
        let mut woken = std::mem::take(&mut self.woken_tso_scratch);
        woken.clear();
        self.nodes[site].tso.abort_into(token, &mut woken);
        self.wake_retry(&woken);
        self.woken_tso_scratch = woken;
    }

    /// Wakes transactions granted a lock by a release: they were parked at
    /// their `Lock` op, which is now satisfied.
    fn wake(&mut self, woken: &[(u64, u32)]) {
        for &(tok, block) in woken {
            let id = TxId::from_token(tok);
            let Some(tx) = self.txs.get_mut(id) else {
                continue;
            };
            debug_assert!(
                matches!(tx.prog.ops[tx.pc], Op::Lock { .. }),
                "woken tx not parked on a lock"
            );
            let home = tx.home;
            tx.pc += 1;
            self.ready.push_back(id);
            self.end_lock_wait(id);
            self.trace_tx(id, TraceKind::LockGrant, "grant", home, block as u64);
        }
    }

    /// Wakes transactions whose pending-writer wait resolved (timestamp
    /// ordering): they were parked at their access op, which must now be
    /// *retried* (the retry may itself reject).
    fn wake_retry(&mut self, woken: &[u64]) {
        for &tok in woken {
            let id = TxId::from_token(tok);
            let Some(tx) = self.txs.get(id) else {
                continue;
            };
            debug_assert!(
                matches!(tx.prog.ops[tx.pc], Op::Lock { .. }),
                "retried tx not parked on an access"
            );
            let home = tx.home;
            self.ready.push_back(id);
            self.end_lock_wait(id);
            self.trace_tx(id, TraceKind::LockGrant, "retry", home, 0);
        }
    }

    /// Deadlock detection at lock-request time.
    ///
    /// The local WFG of the request's site is always searched immediately
    /// (CARAT's local detector). Cross-site cycles are handled per
    /// [`DeadlockMode`]: either by searching the union of all sites' graphs
    /// right away, or by launching real Chandy–Misra–Haas probe messages.
    ///
    /// Returns true iff `id` is a deadlock victim *now*.
    fn deadlock_check(&mut self, id: TxId, site: usize) -> bool {
        let token = id.token();
        if self.cfg.deadlock_mode == DeadlockMode::Probes {
            // Local search first, on the reusable graph.
            let mut g = std::mem::take(&mut self.wfg);
            g.rebuild_from(&self.nodes[site].locks);
            let deadlocked = g.find_cycle(token).is_some();
            self.wfg = g;
            if deadlocked {
                self.stats.local_deadlocks += 1;
                return true;
            }
            // Launch probes along the blocked edges (the holders may be
            // active or blocked at other sites; the probe chases them).
            let alpha = self.cfg.params.comm_delay_ms;
            let mut targets = std::mem::take(&mut self.probe_targets);
            self.nodes[site].locks.waits_for_into(token, &mut targets);
            if self.owned.is_some() {
                // Coupled engine: probes address transactions by gid and
                // chase ghosts across LPs through their home site.
                let initiator_gid = self.txs.get(id).expect("live tx").gid;
                for &h in &targets {
                    self.probe_hop_to_holder(initiator_gid, TxId::from_token(h), 32, alpha);
                }
            } else {
                for &h in &targets {
                    self.sched.schedule_in(
                        alpha,
                        Ev::Probe {
                            initiator: id,
                            target: TxId::from_token(h),
                            ttl: 32,
                        },
                    );
                }
            }
            self.probe_targets = targets;
            return false;
        }

        // Union of every site's wait-for graph, rebuilt into the reusable
        // graph (edge vectors are recycled across conflicts).
        let mut g = std::mem::take(&mut self.wfg);
        g.clear();
        for node in &self.nodes {
            g.extend_from(&node.locks);
        }
        let Some(mut cycle) = g.find_cycle(token) else {
            self.wfg = g;
            return false;
        };
        // Locality: at which site does each cycle member wait?
        let wait_site = |nodes: &[NodeState], t: u64| -> usize {
            nodes
                .iter()
                .position(|n| n.locks.waiting_block(t).is_some())
                .expect("cycle member is blocked somewhere")
        };
        let first_site = wait_site(&self.nodes, cycle[0]);
        let mut local = true;
        // One probe hop per cross-site edge in the chased cycle.
        let mut hops = 0u64;
        for i in 0..cycle.len() {
            let s_i = wait_site(&self.nodes, cycle[i]);
            let s_next = wait_site(&self.nodes, cycle[(i + 1) % cycle.len()]);
            if s_i != first_site {
                local = false;
            }
            if s_i != s_next {
                hops += 1;
            }
        }
        if local {
            self.stats.local_deadlocks += 1;
        } else {
            self.stats.global_deadlocks += 1;
            self.stats.probe_hops += hops;
        }
        match self.cfg.victim {
            VictimPolicy::Requester => {
                self.wfg = g;
                true
            }
            VictimPolicy::Youngest => {
                // Unlike the requester policy (which breaks every cycle
                // through `id` at once), aborting one cycle's youngest may
                // leave other cycles through `id` intact — loop until no
                // cycle through the requester remains, or the requester
                // itself is chosen. "Youngest" = largest gid (tokens are
                // recycled slab handles with no age meaning).
                loop {
                    let victim = *cycle
                        .iter()
                        .max_by_key(|&&t| {
                            self.txs
                                .get(TxId::from_token(t))
                                .map(|x| x.gid)
                                .unwrap_or(0)
                        })
                        .expect("non-empty cycle");
                    if victim == token {
                        self.wfg = g;
                        return true;
                    }
                    // Abort the chosen victim in place: it is parked on a
                    // lock (a safe point — no TM held), so withdraw its
                    // request, run its abort program, and let the requester
                    // keep waiting; the victim's releases will wake it.
                    self.abort_parked(TxId::from_token(victim));
                    g.clear();
                    for node in &self.nodes {
                        g.extend_from(&node.locks);
                    }
                    match g.find_cycle(token) {
                        Some(c) => cycle = c,
                        None => {
                            self.wfg = g;
                            return false;
                        }
                    }
                }
            }
        }
    }

    /// Aborts a transaction that is currently parked on a lock wait
    /// (deadlock victim under [`VictimPolicy::Youngest`]).
    fn abort_parked(&mut self, victim: TxId) {
        debug_assert!(
            self.txs
                .get(victim)
                .is_some_and(|t| matches!(t.prog.ops[t.pc], Op::Lock { .. })),
            "victim not parked on a lock"
        );
        if let Some(site) = self.blocked_site(victim.token()) {
            self.cancel_lock_request(site, victim.token());
        }
        self.end_lock_wait(victim);
        let home = self.txs.get(victim).expect("live victim").home;
        self.trace_tx(victim, TraceKind::DeadlockVictim, "deadlock", home, 0);
        self.start_abort_program(victim);
        self.ready.push_back(victim);
    }

    /// Site at which the transaction with `token` is lock-blocked, if any.
    pub(super) fn blocked_site(&self, token: u64) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.locks.waiting_block(token).is_some())
    }

    /// Delivery of a Chandy–Misra–Haas probe (`DeadlockMode::Probes`).
    ///
    /// Classic edge-chasing: if the probe reached its initiator, a cycle
    /// exists and the initiator is the victim; if the target is itself
    /// blocked, the probe is forwarded along the target's wait-for edges;
    /// a running target absorbs the probe (it will initiate fresh probes
    /// if it blocks later).
    pub(super) fn handle_probe(&mut self, initiator: TxId, target: TxId, ttl: u8) {
        self.stats.probe_hops += 1;
        if ttl == 0 {
            return;
        }
        // Stale probe: the initiator moved on (granted or already aborted).
        let Some(init_site) = self.blocked_site(initiator.token()) else {
            return;
        };
        if !self.txs.contains(initiator) {
            return;
        }
        let target_gid = self.txs.get(target).map_or(0, |t| t.gid);
        self.trace_tx(initiator, TraceKind::ProbeHop, "hop", init_site, target_gid);
        if target == initiator {
            self.close_probe_cycle(initiator, init_site);
            return;
        }
        let Some(target_site) = self.blocked_site(target.token()) else {
            return; // target is running; it makes progress, no deadlock here
        };
        let alpha = self.cfg.params.comm_delay_ms;
        let mut targets = std::mem::take(&mut self.probe_targets);
        self.nodes[target_site]
            .locks
            .waits_for_into(target.token(), &mut targets);
        for &h in &targets {
            let next_hop_remote = self.blocked_site(h).map(|s| s != target_site);
            let delay = match next_hop_remote {
                Some(true) | None => alpha,
                Some(false) => 0.0,
            };
            self.sched.schedule_in(
                delay,
                Ev::Probe {
                    initiator,
                    target: TxId::from_token(h),
                    ttl: ttl - 1,
                },
            );
        }
        self.probe_targets = targets;
    }

    /// A probe came back to its initiator `id`, still blocked at `site`:
    /// the cycle is a global deadlock and `id` its victim. Like the real
    /// protocol this may be a phantom if an edge vanished while the probe
    /// was in flight; the victim retries either way, so only performance
    /// is at stake. Both engines' probes close their cycles here.
    pub(super) fn close_probe_cycle(&mut self, id: TxId, site: usize) {
        self.stats.global_deadlocks += 1;
        self.end_lock_wait(id);
        self.trace_tx(id, TraceKind::DeadlockVictim, "probe-cycle", site, 0);
        self.start_abort(id, site);
        self.ready.push_back(id);
    }

    /// Converts `id` into an aborting transaction: withdraw the pending
    /// request and replace the remaining program with the rollback
    /// sequence.
    pub(super) fn start_abort(&mut self, id: TxId, blocked_site: usize) {
        if self.cfg.cc == CcProtocol::TwoPhaseLocking {
            self.cancel_lock_request(blocked_site, id.token());
        } else {
            for node in &mut self.nodes {
                node.tso.cancel_waits(id.token());
            }
        }
        self.start_abort_program(id);
    }
}
