//! Metrics hooks and tracing: the gauges the sim-time recorder samples,
//! the per-site census of slab entries, the lifecycle trace events, and
//! the per-phase residence that both the report and the trace show. Every
//! hook only reads simulation state, so runs with the recorder or the
//! tracer on execute the same events and produce the same report.

use carat_obs::{MetricKind, TraceEvent, TraceKind, UtilState};
use carat_workload::TxType;

use super::{Sim, Txn};
use crate::program::Seg;
use crate::slab::TxId;

/// What one slab entry adds to the per-site census: one active
/// transaction at its home and, unless it is a ghost, one blocked and/or
/// one 2PC-deciding transaction at the site it executes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct CensusKey {
    home: usize,
    blocked_at: Option<usize>,
    deciding_at: Option<usize>,
}

impl CensusKey {
    fn of(tx: &Txn) -> Self {
        let here = (!tx.away).then_some(tx.at_site);
        CensusKey {
            home: tx.home,
            blocked_at: here.filter(|_| tx.blocked_since.is_some()),
            deciding_at: here.filter(|_| tx.decided),
        }
    }

    /// The census site per [`CENSUS_KINDS`] entry.
    fn sites(key: Option<Self>) -> [Option<usize>; 3] {
        [
            key.map(|k| k.home),
            key.and_then(|k| k.blocked_at),
            key.and_then(|k| k.deciding_at),
        ]
    }
}

/// The gauges [`Sim::census`] counts, in the order of its columns.
const CENSUS_KINDS: [MetricKind; 3] = [
    MetricKind::TxActive,
    MetricKind::TxBlocked,
    MetricKind::TwopcInflight,
];

impl Sim {
    // --- Metrics hooks. Each reports one family of gauges after the
    // --- mutations that change it, at the current event time. The
    // --- recorder ignores unchanged values, filtered kinds and sites this
    // --- process does not record, so a redundant call is harmless; with
    // --- the recorder off each hook is one branch.

    /// Records every gauge's state at t = 0, the first point of each
    /// series.
    pub(super) fn obs_seed(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        for site in 0..self.nodes.len() {
            for queue in [MetricKind::CpuQ, MetricKind::DiskQ, MetricKind::LogDiskQ] {
                self.obs_station(site, queue);
            }
            self.obs_servers(site);
            self.obs_locks(site);
            self.obs_journal(site);
            let now = self.sched.now();
            let m = self.metrics.as_deref_mut().expect("checked above");
            for (kind, count) in CENSUS_KINDS.into_iter().zip(self.census[site]) {
                m.set(now, site as u32, kind, count as f64);
            }
        }
        self.obs_xmsg();
    }

    /// Population and utilization state of the station at `site` whose
    /// queue gauge is `queue` (CPU, database disk or log disk), after an
    /// arrival, a completion or a statistics reset there.
    #[inline]
    pub(super) fn obs_station(&mut self, site: usize, queue: MetricKind) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let util = match queue {
            MetricKind::CpuQ => MetricKind::CpuUtil,
            MetricKind::DiskQ => MetricKind::DiskUtil,
            _ => MetricKind::LogDiskUtil,
        };
        let station = self.nodes[site].station(queue);
        let (now, s) = (self.sched.now(), site as u32);
        m.set(now, s, queue, station.population() as f64);
        let (start, last_t, value, area) = station.util_state().state();
        let state = UtilState {
            start,
            last_t,
            value,
            area,
        };
        m.set_util(now, s, util, state);
    }

    /// TM population, DM queue and DM servers in use at `site`.
    #[inline]
    pub(super) fn obs_servers(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let node = &self.nodes[site];
        let (now, s) = (self.sched.now(), site as u32);
        let tm = node.tm_queue.len() + usize::from(node.tm_busy.is_some());
        m.set(now, s, MetricKind::TmQ, tm as f64);
        m.set(now, s, MetricKind::DmQ, node.dm_queue.len() as f64);
        let in_use = self.cfg.dm_pool - node.dm_free;
        m.set(now, s, MetricKind::DmInUse, in_use as f64);
    }

    /// Lock-table depth and waiters at `site`, after a lock-manager call.
    #[inline]
    pub(super) fn obs_locks(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let locks = &self.nodes[site].locks;
        let (now, s) = (self.sched.now(), site as u32);
        m.set(
            now,
            s,
            MetricKind::LockDepth,
            locks.granted_entries() as f64,
        );
        m.set(
            now,
            s,
            MetricKind::LockWaiters,
            locks.waiting_count() as f64,
        );
    }

    /// Journal length at `site`, after a storage call that appends to or
    /// truncates it.
    #[inline]
    pub(super) fn obs_journal(&mut self, site: usize) {
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let bytes = self.nodes[site].db.journal().len_bytes();
        m.set(
            self.sched.now(),
            site as u32,
            MetricKind::JournalBytes,
            bytes as f64,
        );
    }

    /// Cross-LP messages handled and emitted by this logical process.
    pub(super) fn obs_xmsg(&mut self) {
        let (Some(m), Some(site)) = (self.metrics.as_deref_mut(), self.owned) else {
            return;
        };
        let (now, s) = (self.sched.now(), site as u32);
        m.set(now, s, MetricKind::XmsgIn, self.xmsg_in as f64);
        m.set(now, s, MetricKind::XmsgOut, self.xmsg_out as f64);
    }

    /// Re-counts slab entry `id` in the census after a change of its home,
    /// `blocked_since`, `decided`, `at_site` or `away`, or its arrival in
    /// the slab.
    #[inline]
    pub(super) fn census_sync(&mut self, id: TxId) {
        if self.metrics.is_none() {
            return;
        }
        let Some(tx) = self.txs.get_mut(id) else {
            return;
        };
        let key = Some(CensusKey::of(tx));
        let old = std::mem::replace(&mut tx.counted, key);
        self.census_move(old, key);
    }

    /// Uncounts a transaction that just left the slab.
    pub(super) fn census_drop(&mut self, tx: &mut Txn) {
        if let Some(old) = tx.counted.take() {
            self.census_move(Some(old), None);
        }
    }

    /// Moves one slab entry's census contribution from `old` to `new` and
    /// records the counts that changed.
    fn census_move(&mut self, old: Option<CensusKey>, new: Option<CensusKey>) {
        if old == new {
            return;
        }
        let (from, to) = (CensusKey::sites(old), CensusKey::sites(new));
        let now = self.sched.now();
        for col in 0..CENSUS_KINDS.len() {
            if from[col] == to[col] {
                continue;
            }
            for (site, up) in [(from[col], false), (to[col], true)] {
                let Some(site) = site else { continue };
                let count = &mut self.census[site][col];
                if up {
                    *count += 1;
                } else {
                    *count -= 1;
                }
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.set(now, site as u32, CENSUS_KINDS[col], *count as f64);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.census_check();
    }

    /// Debug cross-check: the census counters equal a full slab scan.
    #[cfg(debug_assertions)]
    fn census_check(&self) {
        let mut scan = vec![[0u64; 3]; self.nodes.len()];
        for (_, tx) in self.txs.iter() {
            scan[tx.home][0] += 1;
            if !tx.away {
                scan[tx.at_site][1] += u64::from(tx.blocked_since.is_some());
                scan[tx.at_site][2] += u64::from(tx.decided);
            }
        }
        assert_eq!(scan, self.census, "census counters drifted from the slab");
    }

    /// Records a trace event. Callers gate on `self.tracer.is_some()`
    /// first so the event (and any lookups feeding it) is only built when
    /// tracing is on; with tracing off an emission site is one branch.
    #[inline]
    pub(super) fn trace(&mut self, ev: TraceEvent) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(ev);
        }
    }

    /// A trace event of live transaction `id` at `node`, stamped now: its
    /// gid and type, with its slab token as the second lane.
    pub(super) fn tx_event(
        &self,
        id: TxId,
        kind: TraceKind,
        name: &'static str,
        node: usize,
    ) -> TraceEvent {
        let tx = self.txs.get(id).expect("traced tx is live");
        TraceEvent::new(self.sched.now(), kind, name, node as u32, tx.gid, tx.ty)
            .lane2(id.token() as u32)
    }

    /// Records [`Self::tx_event`] with `detail` as its detail word. With
    /// tracing off this is one branch.
    #[inline]
    pub(super) fn trace_tx(
        &mut self,
        id: TxId,
        kind: TraceKind,
        name: &'static str,
        node: usize,
        detail: u64,
    ) {
        if self.tracer.is_some() {
            let ev = self.tx_event(id, kind, name, node).detail(detail);
            self.trace(ev);
        }
    }

    /// Records a node-scoped trace event (no transaction: gid 0) at
    /// `node`, stamped now.
    pub(super) fn trace_node(
        &mut self,
        kind: TraceKind,
        name: &'static str,
        node: usize,
        detail: u64,
    ) {
        if self.tracer.is_some() {
            let now = self.sched.now();
            self.trace(
                TraceEvent::new(now, kind, name, node as u32, 0, TxType::Lro).detail(detail),
            );
        }
    }

    /// Charges `dt` ms of residence to phase `seg` of transaction `id` and
    /// traces it as a `Phase` event at its home. The one place phase
    /// residence is recorded: completed timed ops, TM and DM queue waits,
    /// and lock waits all come through here.
    pub(super) fn charge(&mut self, id: TxId, seg: Seg, dt: f64) {
        let tx = self.txs.get(id).expect("charged tx is live");
        let home = tx.home;
        self.stats.add_phase(home, tx.ty, seg, dt);
        if self.tracer.is_some() {
            let ev = self
                .tx_event(id, TraceKind::Phase, seg.label(), home)
                .dur(dt);
            self.trace(ev);
        }
    }
}
