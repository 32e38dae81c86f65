//! 2PC and the network: sending, delivering and retransmitting a
//! transaction's messages under the fault plan, the prepare, commit and
//! abort ops a 2PC round runs at each site, and the coordinator-driven
//! abort round that replaces a victim's program.

use carat_obs::TraceKind;
use rand::Rng;

use super::{Ev, Sim};
use crate::config::CcProtocol;
use crate::program::{Op, Seg};
use crate::slab::TxId;

impl Sim {
    /// Sends (or retransmits) the network message of the `Net` op `gid` is
    /// parked on. Draws the fault plan's coin flips from the dedicated
    /// fault stream: the message may be lost (lossy link or dead
    /// destination), delayed by jitter, or delivered twice. When timeouts
    /// are enabled a retransmission timer with bounded exponential backoff
    /// is armed alongside every attempt.
    pub(super) fn send_message(&mut self, id: TxId, to: usize, ms: f64, attempt: u32) {
        let fp = self.cfg.fault_plan; // Copy: seven scalars, no clone
        let token = self.next_token;
        self.next_token += 1;
        let from = {
            let tx = self.txs.get_mut(id).expect("live tx");
            tx.net_token = Some(token);
            tx.net_attempt = attempt;
            tx.at_site
        };
        self.stats.net_messages += 1;
        self.trace_tx(id, TraceKind::NetSend, "send", to, attempt as u64);
        // The retransmission timer covers the worst-case delivery time plus
        // the backed-off timeout, so it can never fire for a message that
        // was actually delivered.
        if fp.timeout_ms > 0.0 {
            let deadline = fp.backoff_ms(attempt) + ms + fp.jitter_ms;
            self.sched
                .schedule_in(deadline, Ev::NetTimeout { tx: id, token });
        }
        // A message to a dead node or across a network split is lost; the
        // component check precedes the coin flip, but components only ever
        // differ while a split is in force, so partition-free runs draw
        // exactly the same fault stream as before.
        let dropped = !self.nodes[to].up
            || self.comp[from] != self.comp[to]
            || (fp.drop_prob > 0.0 && self.fault_rng.gen_bool(fp.drop_prob));
        if dropped {
            self.stats.net_drops += 1;
            self.trace_tx(id, TraceKind::NetDrop, "drop", to, attempt as u64);
            return; // the timer (armed above) will retransmit
        }
        let delay = ms + self.jitter();
        self.sched.schedule_in(delay, Ev::NetDone { tx: id, token });
        if fp.duplicate_prob > 0.0 && self.fault_rng.gen_bool(fp.duplicate_prob) {
            self.stats.net_duplicates += 1;
            // Same token: whichever copy arrives second is stale.
            let delay = ms + self.jitter();
            self.sched.schedule_in(delay, Ev::NetDone { tx: id, token });
        }
    }

    /// A delivery's extra delay, uniform below the fault plan's jitter and
    /// drawn from the fault stream (no draw without jitter).
    fn jitter(&mut self) -> f64 {
        let max = self.cfg.fault_plan.jitter_ms;
        if max > 0.0 {
            self.fault_rng.gen_range(0.0..max)
        } else {
            0.0
        }
    }

    /// A network delivery arrived. Stale tokens (duplicates, copies of a
    /// send the transaction has moved past) are ignored; a delivery to a
    /// node that died in flight counts as a drop and leaves the
    /// retransmission timer to recover.
    pub(super) fn net_delivered(&mut self, id: TxId, token: u64) {
        let Some(tx) = self.txs.get(id) else { return };
        if tx.net_token != Some(token) {
            return;
        }
        let from = tx.at_site;
        let Op::Net { to, .. } = tx.prog.ops[tx.pc] else {
            return;
        };
        // A destination that died — or was cut off by a split — while the
        // message was in flight never receives it; the retransmission
        // timer recovers the sender.
        if !self.nodes[to].up || self.comp[from] != self.comp[to] {
            self.stats.net_drops += 1;
            let name = if self.nodes[to].up {
                "split-dest"
            } else {
                "dead-dest"
            };
            self.trace_tx(id, TraceKind::NetDrop, name, to, 0);
            return;
        }
        let tx = self.txs.get_mut(id).expect("live tx");
        tx.net_token = None;
        tx.at_site = to;
        self.census_sync(id);
        self.step_past(id);
    }

    /// A retransmission timer fired. If the send it covered is still
    /// outstanding, retransmit — or, once the retry budget is exhausted on
    /// the forward path, presume the peer dead and abort the transaction.
    /// Aborting and decided transactions retry past the bound (at the
    /// capped backoff) so cleanup and commit decisions always reach every
    /// participant eventually.
    pub(super) fn net_timed_out(&mut self, id: TxId, token: u64) {
        let Some(tx) = self.txs.get(id) else { return };
        if tx.net_token != Some(token) {
            return;
        }
        let Op::Net { ms, to } = tx.prog.ops[tx.pc] else {
            return;
        };
        let (attempt, unbounded) = (tx.net_attempt, tx.aborting || tx.decided);
        let (home, at) = (tx.home, tx.at_site);
        if unbounded || attempt < self.cfg.fault_plan.max_retries {
            self.stats.net_retries += 1;
            self.trace_tx(id, TraceKind::NetRetry, "retry", to, attempt as u64 + 1);
            self.send_message(id, to, ms, attempt.saturating_add(1));
        } else {
            self.stats.timeout_aborts += 1;
            if self.partition_active && self.comp[at] != self.comp[to] {
                // The retry budget died against an unreachable component:
                // this abort is the partition's doing, not a lossy link's.
                self.stats.partition_aborts += 1;
            }
            self.trace_tx(id, TraceKind::DeadlockVictim, "timeout", home, 0);
            self.txs.get_mut(id).expect("live tx").net_token = None;
            self.start_abort_program(id);
            self.ready.push_back(id);
        }
    }

    /// `PrepareSite`: the participant at `site` forces its prepare record.
    pub(super) fn prepare_site(&mut self, id: TxId, site: usize) {
        let gid = self.ensure_begun(id, site);
        self.nodes[site]
            .db
            .prepare(gid)
            .expect("prepare of a transaction begun at this site");
        self.obs_journal(site);
        self.trace_tx(id, TraceKind::TwopcPrepare, "prepare", site, 0);
    }

    /// `CommitSite`: the commit decision reaches `site`, which commits the
    /// transaction's writes there and releases its locks.
    pub(super) fn commit_site(&mut self, id: TxId, site: usize, token: u64) {
        // The commit decision is final from the first `CommitSite` on:
        // later message losses must deliver the outcome, not presume abort
        // (a participant may already have committed).
        self.txs.get_mut(id).expect("live tx").decided = true;
        self.census_sync(id);
        let tx = self.txs.get(id).expect("live tx");
        let gid = tx.gid;
        if tx.begun_sites.contains(&site) {
            // Record the committed writes at this site, then commit in
            // storage. `last_committed`, `val_buf` and `nodes` are fields
            // disjoint from `txs`, so the borrow of `tx` stays live.
            for &(s, rid) in &tx.updated {
                if s == site {
                    self.last_committed.insert((s, rid), gid);
                    if self.replicated {
                        // Commit applies its value: a commit round delayed
                        // across a split can arrive after a journal
                        // catch-up already replayed newer history onto this
                        // replica — re-asserting the bytes keeps each
                        // replica consistent with its own last *applied*
                        // commit, which is exactly what the audit checks.
                        super::storage::write_value(
                            &mut self.val_buf,
                            &mut self.nodes[s].db,
                            gid,
                            rid,
                        )
                        .expect("commit-time re-apply of an active write");
                    }
                }
            }
            self.nodes[site]
                .db
                .commit(gid)
                .expect("commit of a transaction begun at this site");
            self.obs_journal(site);
        }
        if self.cfg.cc == CcProtocol::TwoPhaseLocking {
            self.release_locks_and_wake(site, token);
        } else {
            self.tso_commit_and_wake(site, token);
        }
        self.trace_tx(id, TraceKind::TwopcDecide, "commit", site, 0);
    }

    /// `AbortSite`: `site` rolls the transaction back and releases its
    /// locks.
    pub(super) fn abort_site(&mut self, id: TxId, site: usize, token: u64) {
        let tx = self.txs.get(id).expect("live tx");
        let gid = tx.gid;
        // After a crash the site's recovery already rolled this
        // transaction back (it is no longer active there).
        if tx.begun_sites.contains(&site) && self.nodes[site].db.is_active(gid) {
            self.nodes[site]
                .db
                .rollback(gid)
                .expect("rollback of a transaction verified active at this site");
            self.obs_journal(site);
        }
        if self.cfg.cc == CcProtocol::TwoPhaseLocking {
            self.release_locks_and_wake(site, token);
        } else {
            self.tso_abort_and_wake(site, token);
        }
        self.trace_tx(id, TraceKind::TwopcDecide, "abort", site, 0);
    }

    /// Replaces `id`'s remaining program with the rollback sequence.
    pub(super) fn start_abort_program(&mut self, id: TxId) {
        let mut abort_sites = std::mem::take(&mut self.sites_scratch);
        abort_sites.clear();
        let (home, ty) = {
            let tx = self.txs.get(id).expect("live tx");
            // Rollback is needed wherever the transaction has touched data
            // (begun ⟺ accessed ⟹ holds locks there); the home site is
            // always visited so the coordinator processes the abort even if
            // nothing was touched yet. Down sites are skipped — their
            // restart recovery undoes the transaction from the journal.
            abort_sites.extend_from_slice(&tx.begun_sites);
            if !abort_sites.contains(&tx.home) {
                abort_sites.push(tx.home);
            }
            (tx.home, tx.ty)
        };
        abort_sites.retain(|&s| self.nodes[s].up);
        abort_sites.sort_unstable();
        *self.stats.aborts.entry((home, ty)).or_default() += 1;

        let alpha = self.cfg.params.comm_delay_ms;
        let chain = ty.coordinator_chain();
        // Build into the reusable abort-program scratch; it is swapped with
        // the transaction's own program below, so the replaced program's
        // capacity is recycled for the next abort.
        let mut prog = std::mem::take(&mut self.abort_prog);
        prog.clear();
        // Coupled engine: the abort is coordinator-driven, but the victim's
        // state cannot teleport between logical processes — if it is away
        // from home when the abort starts, it first migrates back on a real
        // network hop (the monolithic engine just repoints `at_site`).
        if self.owned.is_some() && self.txs.get(id).expect("live tx").at_site != home {
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: home,
                },
                Seg::Ta,
            );
        }
        for &site in &abort_sites {
            // A local type can still have touched a remote site: replica
            // routing reroutes and expands plans across the replica set.
            // Such a visit is charged at the type's own (coordinator)
            // rates, exactly as its forward path was compiled.
            let exec_chain = if site == home {
                chain
            } else {
                ty.slave_chain().unwrap_or(chain)
            };
            if site != home {
                prog.push(
                    Op::Net {
                        ms: alpha,
                        to: site,
                    },
                    Seg::Ta,
                );
            }
            // TA phase: abort message processing.
            let ta_ms = self.cfg.params.basic.ta_cpu(exec_chain);
            prog.push(Op::UseCpu { site, ms: ta_ms }, Seg::Ta);
            // TAIO phase: restore the journaled before-images, one block
            // write at a time, then force the abort record (see
            // `carat_storage::Database::rollback` for why the force is
            // required for correctness).
            if ty.is_update() {
                let updated = self.rollback_extent(id, site);
                if updated > 0 {
                    let io_ms = self.cfg.params.nodes[site].disk_io_ms;
                    // `updated` block restores + the forced abort record.
                    for i in 0..(updated + 1) {
                        prog.push(
                            Op::UseDisk {
                                site,
                                ms: io_ms,
                                ios: 1,
                                log: i == updated,
                            },
                            Seg::Taio,
                        );
                    }
                }
            }
            prog.push(Op::AbortSite { site }, Seg::Ta);
            if site != home {
                prog.push(
                    Op::Net {
                        ms: alpha,
                        to: home,
                    },
                    Seg::Ta,
                );
            }
        }
        prog.push(Op::End, Seg::Ta);
        abort_sites.clear();
        self.sites_scratch = abort_sites;

        let tx = self.txs.get_mut(id).expect("live tx");
        tx.aborting = true;
        std::mem::swap(&mut tx.prog, &mut prog);
        self.abort_prog = prog;
        tx.pc = 0;
        // Any in-flight send belongs to the replaced program; its delivery
        // and timer are stale from here on.
        tx.net_token = None;
        tx.net_attempt = 0;
        if self.owned.is_none() {
            // The abort is coordinator-driven: its messages originate at
            // home. (In the coupled engine the hop prepended above moves
            // the transaction home for real instead.)
            tx.at_site = home;
            self.census_sync(id);
        }
    }
}
