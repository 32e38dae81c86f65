//! Finish, wind-down and report: a transaction's end (commit bookkeeping,
//! its DM servers, the user's next submission), the statistics reset at
//! the end of the warm-up, and the end-of-run wind-down that assembles the
//! [`SimReport`] and runs the commit audit.

use std::collections::BTreeMap;

use carat_des::{Histogram, Tally, Time};
use carat_obs::{CounterRegistry, MetricKind, TraceKind};
use carat_workload::TxType;

use super::{Ev, Sim, Stats, XMsg};
use crate::metrics::{AvailabilityReport, NodeReport, SimReport, TypeReport};
use crate::program::Seg;
use crate::slab::TxId;

impl Sim {
    /// Transaction end: commit bookkeeping, free DMs, schedule the user's
    /// next submission (rollback already happened in `AbortSite` ops).
    pub(super) fn finish(&mut self, id: TxId) {
        let now = self.sched.now();
        // Built before the slab entry goes, recorded last.
        let end_event = self.tracer.is_some().then(|| {
            let tx = self.txs.get(id).expect("live tx");
            let (kind, name) = if tx.aborting {
                (TraceKind::TxAbort, "abort")
            } else {
                (TraceKind::TxCommit, "commit")
            };
            self.tx_event(id, kind, name, tx.home)
        });
        let mut tx = self.txs.remove(id).expect("live tx");
        self.census_drop(&mut tx);
        if !tx.aborting {
            let key = (tx.home, tx.ty);
            *self.stats.commits.entry(key).or_default() += 1;
            *self.stats.records.entry(tx.home).or_default() += tx.plan.total_records();
            self.stats
                .resp
                .entry(key)
                .or_default()
                .record(now - tx.submit_time);
            self.stats
                .resp_hist
                .entry(key)
                .or_insert_with(Histogram::for_latency_ms)
                .record(now - tx.submit_time);
            // Writes that missed replicas at routing time are now
            // committed history: record them as the last committed writer
            // there and queue the journal catch-up (replayed at heal,
            // restart, or end of run — the audit self-checks convergence).
            for &(site, rid) in &tx.missed {
                self.last_committed.insert((site, rid), tx.gid);
                self.pending_catchup
                    .entry(site)
                    .or_default()
                    .push((tx.gid, rid));
            }
        }
        if self.owned.is_some() {
            self.gid_index.remove(&tx.gid);
        }
        for &site in &tx.dm_sites {
            if self.owned.is_none_or(|owned| owned == site) {
                self.free_dm(site);
            } else {
                // DM servers at other sites live in other logical
                // processes: the release travels as a real message (one
                // network delay, like the EOT cleanup it models).
                let alpha = self.cfg.params.comm_delay_ms;
                self.xmsg_out += 1;
                self.obs_xmsg();
                self.outbox.push((site, now + alpha, XMsg::DmRelease));
            }
        }
        // Drain catch-up that was deferred behind held blocks now that this
        // transaction's locks are released (no-op while a split is still in
        // force — lagging replicas stay unreachable until the heal).
        if !self.partition_active && !self.pending_catchup.is_empty() {
            self.catch_up_all(true);
        }
        self.sched
            .schedule_in(self.cfg.params.think_time_ms, Ev::Submit { user: tx.user });
        if let Some(ev) = end_event {
            self.trace(ev);
        }
        // Recycle the transaction's buffers (program, plan, site lists) for
        // the next submission.
        self.spare_txns.push(tx);
    }

    /// End of the warm-up: every statistic restarts from zero at `now`.
    pub(super) fn reset_stats(&mut self, now: Time) {
        for n in &mut self.nodes {
            n.cpu.reset_stats(now);
            n.disk.reset_stats(now);
            n.log_disk.reset_stats(now);
            n.io_ops = 0;
            n.base_lock_requests = n.acc_lock_requests + n.locks.requests();
            n.base_lock_conflicts = n.acc_lock_conflicts + n.locks.conflicts();
            n.base_cc_rejections = n.acc_cc_rejections + n.tso.rejections();
        }
        for site in 0..self.nodes.len() {
            for queue in [MetricKind::CpuQ, MetricKind::DiskQ, MetricKind::LogDiskQ] {
                self.obs_station(site, queue);
            }
        }
        self.stats = Stats {
            window_start: now,
            ..Stats::default()
        };
    }

    /// End-of-run post-processing + report assembly. Pure bookkeeping on
    /// final state: no events, no statistics beyond the report itself.
    /// `pub(crate)` so the sharded driver can wind the merged LP down
    /// after `absorb`.
    pub(crate) fn wind_down(&mut self, end: Time) -> SimReport {
        // A node still inside a repair outage at the cutoff has not run
        // journal recovery yet, so its storage can hold in-place updates of
        // interrupted transactions (whose locks died with the crash). The
        // commit audit reads what an operator would read after repair —
        // recover those nodes first.
        for node in &mut self.nodes {
            if !node.up {
                node.db.crash_and_recover();
            }
        }
        // ... and the operator's repair also ships the queued journal
        // catch-up to every replica that was lagging when the run ended,
        // so the audit sees converged replicas.
        self.catch_up_all(false);
        self.report(end)
    }

    fn report(&mut self, end: Time) -> SimReport {
        let window = end - self.stats.window_start;
        // Guard against a degenerate window (an event budget tripping
        // before warm-up): rates divide by at least a femtosecond.
        let window_s = (window / 1000.0).max(1e-12);
        // A split still in force at the cutoff contributes its open
        // interval to the partition duty time.
        if self.partition_active {
            self.partition_active = false;
            self.stats.partition_ms += end - self.partition_since.max(self.stats.window_start);
        }
        let mut nodes = Vec::new();
        // `report` runs once, at the end of the run — moving each node's
        // name out of the (about-to-drop) config avoids cloning it.
        let mut names = std::mem::take(&mut self.cfg.params.nodes);
        for (i, node) in self.nodes.iter().enumerate() {
            let mut per_type: BTreeMap<TxType, TypeReport> = BTreeMap::new();
            let mut tx_total = 0u64;
            for ty in TxType::ALL {
                let key = (i, ty);
                let commits = self.stats.commits.get(&key).copied().unwrap_or(0);
                let aborts = self.stats.aborts.get(&key).copied().unwrap_or(0);
                if commits == 0 && aborts == 0 {
                    continue;
                }
                tx_total += commits;
                let mut phase_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
                if commits > 0 {
                    for &seg in &Seg::ALL {
                        let total = self.stats.phase(i, ty, seg);
                        if total != 0.0 {
                            *phase_ms.entry(seg.label()).or_default() += total / commits as f64;
                        }
                    }
                }
                per_type.insert(
                    ty,
                    TypeReport {
                        phase_ms,
                        commits,
                        aborts,
                        xput_per_s: commits as f64 / window_s,
                        mean_response_ms: self.stats.resp.get(&key).map(Tally::mean).unwrap_or(0.0),
                        p50_response_ms: self
                            .stats
                            .resp_hist
                            .get(&key)
                            .map(|h| h.quantile(0.5))
                            .unwrap_or(0.0),
                        p95_response_ms: self
                            .stats
                            .resp_hist
                            .get(&key)
                            .map(|h| h.quantile(0.95))
                            .unwrap_or(0.0),
                    },
                );
            }
            let records = self.stats.records.get(&i).copied().unwrap_or(0);
            nodes.push(NodeReport {
                name: std::mem::take(&mut names[i].name),
                cpu_util: node.cpu.utilization(end),
                disk_util: node.disk.utilization(end),
                log_disk_util: node.log_disk.utilization(end),
                dio_per_s: node.io_ops as f64 / window_s,
                tx_per_s: tx_total as f64 / window_s,
                records_per_s: records as f64 / window_s,
                per_type,
            });
        }
        // Commit audit: every record's stored bytes must be the value
        // written by its last committed writer (proof that rollback and
        // recovery never leaked an aborted write into committed state).
        let mut audit_violations = 0u64;
        let mut audited = 0u64;
        for (&(site, rid), &gid) in &self.last_committed {
            if self.nodes[site].locks.is_contended(rid.block)
                || self.nodes[site].tso.block_pending(rid.block)
            {
                // An in-flight transaction holds the block (2PL lock or
                // TSO pending write) and may have legitimately overwritten
                // it; skip until it resolves.
                continue;
            }
            audited += 1;
            let expect = format!("g{gid}b{}s{}", rid.block, rid.slot);
            let got = self.nodes[site].db.read_committed(rid);
            if !got.starts_with(expect.as_bytes()) {
                audit_violations += 1;
            }
        }

        // Lifetime totals = accumulators from replaced managers + the live
        // manager's counters; the saturating subtraction guards the edge
        // where the warm-up baseline was taken just before a crash reset.
        let lock_requests: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_lock_requests + n.locks.requests()).saturating_sub(n.base_lock_requests)
            })
            .sum();
        let lock_conflicts: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_lock_conflicts + n.locks.conflicts()).saturating_sub(n.base_lock_conflicts)
            })
            .sum();
        let cc_rejections: u64 = self
            .nodes
            .iter()
            .map(|n| {
                (n.acc_cc_rejections + n.tso.rejections()).saturating_sub(n.base_cc_rejections)
            })
            .sum();
        // In-flight census. The coupled engine counts each transaction
        // exactly once, at its *home* LP (whether resident there or away
        // as a ghost): residents at remote LPs and remote ghosts are the
        // same transactions seen from the other side. `absorbed_*` carries
        // the peers' contributions after the merge.
        let (live_here, oldest_here) = if self.owned.is_some() {
            let mut live = 0u64;
            let mut oldest = 0.0_f64;
            for (_, tx) in self.txs.iter() {
                if Some(tx.home) == self.owned {
                    live += 1;
                    oldest = oldest.max(end - tx.submit_time);
                }
            }
            (live, oldest)
        } else {
            (
                self.txs.len() as u64,
                self.txs
                    .iter()
                    .map(|(_, tx)| end - tx.submit_time)
                    .fold(0.0_f64, f64::max),
            )
        };
        let live_at_end = live_here + self.absorbed_live;
        let mut oldest_inflight_ms = oldest_here;
        if self.absorbed_oldest_submit.is_finite() {
            oldest_inflight_ms = oldest_inflight_ms.max(end - self.absorbed_oldest_submit);
        }
        // Profiling counters — pure functions of simulation state, so a
        // traced run and an untraced run of one configuration produce the
        // same registry (the trace-neutrality CI gate relies on this; the
        // tracer's own recorded/dropped tallies deliberately stay out).
        let mut counters = CounterRegistry::new();
        counters.add("events_total", self.events);
        for (i, &c) in self.ev_counts.iter().enumerate() {
            if c > 0 {
                counters.add(Ev::LABELS[i], c);
            }
        }
        // High-water marks are per-LP maxima after a sharded merge (the
        // `absorbed_*` fields are zero in the monolithic engine).
        counters.add(
            "sched_heap_hwm",
            self.sched.high_water().max(self.absorbed_sched_hwm) as u64,
        );
        counters.add(
            "slab_hwm",
            self.txs.high_water().max(self.absorbed_slab_hwm) as u64,
        );
        counters.add(
            "slab_slots_hwm",
            self.txs.slots().max(self.absorbed_slab_slots) as u64,
        );
        for &seg in &Seg::ALL {
            let mut total = 0.0;
            for home in 0..self.nodes.len() {
                for ty in TxType::ALL {
                    total += self.stats.phase(home, ty, seg);
                }
            }
            if total > 0.0 {
                // Whole microseconds: enough resolution for profiling, and
                // integer counters render identically everywhere.
                counters.add(
                    &format!("phase_us_{}", seg.label()),
                    (total * 1000.0).round() as u64,
                );
            }
        }
        SimReport {
            counters,
            nodes,
            local_deadlocks: self.stats.local_deadlocks,
            global_deadlocks: self.stats.global_deadlocks,
            probe_hops: self.stats.probe_hops,
            lock_requests,
            lock_conflicts,
            cc_rejections,
            mean_lock_wait_ms: self.stats.lock_wait.mean(),
            lock_waits_completed: self.stats.lock_wait.count(),
            crashes: self.stats.crashes,
            crash_kills: self.stats.crash_kills,
            recoveries: self.stats.recoveries,
            net_messages: self.stats.net_messages,
            net_drops: self.stats.net_drops,
            net_duplicates: self.stats.net_duplicates,
            net_retries: self.stats.net_retries,
            timeout_aborts: self.stats.timeout_aborts,
            in_doubt_resolutions: self.stats.in_doubt_resolutions,
            live_at_end,
            oldest_inflight_ms,
            events: self.events,
            audited_records: audited,
            audit_violations,
            window_ms: window,
            availability: AvailabilityReport {
                partitions: self.stats.partitions,
                heals: self.stats.heals,
                partition_ms: self.stats.partition_ms,
                partition_aborts: self.stats.partition_aborts,
                blocked_on_heal: self.stats.blocked_on_heal,
                stale_reads: self.stats.stale_reads,
                degraded_reads: self.stats.degraded_reads,
                failovers: self.stats.failovers,
                catchup_records: self.stats.catchup_records,
                tx_started: self.tx_started,
                tx_submit_refusals: self.tx_submit_refusals,
                tx_killed: self.tx_killed,
            },
        }
    }
}
