//! Storage and journal: a transaction's begin and record accesses at a
//! site's storage engine, the rollback extent its abort restores, the
//! background I/O of recovery and replay, and the journal catch-up that
//! brings a lagging replica up to the committed history.

use std::fmt::Write as _;

use carat_obs::{MetricKind, TraceKind};
use carat_storage::{Database, DbError, IoCounts, RecordId};

use super::Sim;
use crate::program::distinct_blocks_at_with;
use crate::slab::TxId;

/// Writes `gid`'s audit value into record `rid` of `db` through the
/// formatting buffer `buf`. The value, `g<gid>b<block>s<slot>`, is what
/// the commit audit expects of the record's last committed writer.
pub(super) fn write_value(
    buf: &mut String,
    db: &mut Database,
    gid: u64,
    rid: RecordId,
) -> Result<IoCounts, DbError> {
    buf.clear();
    write!(buf, "g{gid}b{}s{}", rid.block, rid.slot).expect("format into String cannot fail");
    db.update_record(gid, rid, buf.as_bytes())
}

impl Sim {
    /// Begins `id` at `site` on its first touch there; returns its gid.
    pub(super) fn ensure_begun(&mut self, id: TxId, site: usize) -> u64 {
        let tx = self.txs.get_mut(id).expect("live tx");
        if !tx.begun_sites.contains(&site) {
            tx.begun_sites.push(site);
            self.nodes[site]
                .db
                .begin(tx.gid)
                .expect("first begin of a freshly allocated gid at this site");
        }
        tx.gid
    }

    /// Runs `id`'s `Access` op on record `rid` at `site`: a read, or an
    /// in-place update that journals the block's before-image first.
    pub(super) fn access(&mut self, id: TxId, site: usize, rid: RecordId, update: bool) {
        let gid = self.ensure_begun(id, site);
        if update {
            write_value(&mut self.val_buf, &mut self.nodes[site].db, gid, rid)
                .expect("update of a begun transaction at a validated address");
            self.obs_journal(site);
            self.txs
                .get_mut(id)
                .expect("live tx")
                .updated
                .push((site, rid));
        } else {
            self.nodes[site]
                .db
                .touch_record(gid, rid)
                .expect("read by a begun transaction at a validated address");
        }
    }

    /// Number of blocks whose before-images must be restored at `site`:
    /// the distinct blocks this transaction has actually updated there
    /// (exactly what the storage engine journaled).
    pub(super) fn rollback_extent(&mut self, id: TxId, site: usize) -> u32 {
        let mut set = std::mem::take(&mut self.blocks_scratch);
        let tx = self.txs.get(id).expect("live tx");
        // The storage-engine liveness check guards against a crashed
        // site's recovery having already undone the transaction. In the
        // coupled engine (no crashes, and a remote `site`'s storage lives
        // in another logical process) `begun_sites` alone is authoritative.
        let site_active = self.owned.is_some() || self.nodes[site].db.is_active(tx.gid);
        let extent = if !tx.begun_sites.contains(&site) || !site_active {
            0
        } else {
            set.clear();
            for (s, rid) in &tx.updated {
                if *s == site {
                    set.insert(rid.block);
                }
            }
            let distinct = set.len() as u32;
            // `distinct_blocks_at_with` clears the set before use.
            let planned = distinct_blocks_at_with(&tx.plan, site, &mut set);
            distinct.min(planned)
        };
        self.blocks_scratch = set;
        extent
    }

    /// Charges `ios` granule transfers at `site` to the background job
    /// (token 0), which contends with transactions for the disk without
    /// belonging to any.
    pub(super) fn background_io(&mut self, site: usize, ios: u64) {
        let ms = ios as f64 * self.cfg.params.nodes[site].disk_io_ms;
        self.nodes[site].io_ops += ios;
        self.station_arrive(site, MetricKind::DiskQ, TxId::from_token(0), ms);
    }

    /// Replays the queued journal catch-up onto every lagging replica
    /// (see [`Self::apply_catchup_site`] for `live`).
    pub(super) fn catch_up_all(&mut self, live: bool) {
        let mut lagging = std::mem::take(&mut self.sites_scratch);
        lagging.clear();
        lagging.extend(self.pending_catchup.keys().copied());
        for &site in &lagging {
            self.apply_catchup_site(site, live);
        }
        lagging.clear();
        self.sites_scratch = lagging;
    }

    /// Replays the queued journal catch-up onto `site`'s storage engine:
    /// each missed committed write is re-applied in commit order under its
    /// original writer's gid (begin → update → commit), so the lagging
    /// replica converges to exactly the committed history the audit
    /// expects. `live` charges the replay I/O to the site's background
    /// disk; end-of-run replay is pure post-processing.
    pub(super) fn apply_catchup_site(&mut self, site: usize, live: bool) {
        let Some(list) = self.pending_catchup.remove(&site) else {
            return;
        };
        if !self.nodes[site].up {
            // Still in a crash outage: the restart replays it instead.
            self.pending_catchup.insert(site, list);
            return;
        }
        let mut deferred = Vec::new();
        let mut n = 0u64;
        let mut i = 0;
        while i < list.len() {
            let gid = list[i].0;
            let mut begun = false;
            while i < list.len() && list[i].0 == gid {
                let rid = list[i].1;
                i += 1;
                if self.last_committed.get(&(site, rid)) != Some(&gid) {
                    // Superseded: a newer writer committed this record
                    // after the miss was queued — replaying the stale
                    // image would roll the replica backwards.
                    continue;
                }
                if self.nodes[site].locks.is_contended(rid.block)
                    || self.nodes[site].tso.block_pending(rid.block)
                {
                    // A live transaction holds this block at the replica —
                    // typically one frozen in presumed-abort termination
                    // across the split with an uncommitted in-place
                    // update. Rollback restores whole-block before-images,
                    // so replaying beneath it would be undone when it
                    // resolves. Defer; the next transaction end drains us.
                    deferred.push((gid, rid));
                    continue;
                }
                if !begun {
                    self.nodes[site].db.begin(gid).expect(
                        "catch-up begin: writer gid is not live at a replica it never reached",
                    );
                    begun = true;
                }
                write_value(&mut self.val_buf, &mut self.nodes[site].db, gid, rid)
                    .expect("catch-up replay of a committed write");
                n += 1;
            }
            if begun {
                self.nodes[site]
                    .db
                    .commit(gid)
                    .expect("catch-up commit of a replayed writer");
            }
        }
        if !deferred.is_empty() {
            self.pending_catchup.insert(site, deferred);
        }
        self.obs_journal(site);
        self.stats.catchup_records += n;
        if live && n > 0 {
            // One granule transfer per replayed record, like recovery I/O.
            self.background_io(site, n);
        }
        if n > 0 {
            self.trace_node(TraceKind::ReplicaCatchup, "catchup", site, n);
        }
    }
}
