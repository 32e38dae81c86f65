//! The lock table.

use std::collections::VecDeque;

use carat_des::FastMap;

/// Opaque transaction token (the simulator uses globally unique transaction
/// ids so tokens are comparable across sites).
pub type TxnToken = u64;

/// Lock modes on a database granule (block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock — compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock — compatible with nothing.
    Exclusive,
}

impl LockMode {
    /// BCMP-agnostic compatibility matrix: only S–S is compatible.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True when `self` already covers a request for `req` (X covers S).
    pub fn covers(self, req: LockMode) -> bool {
        self == LockMode::Exclusive || req == LockMode::Shared
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The lock was granted (possibly re-entrantly or as an instant
    /// upgrade); the caller proceeds.
    Granted,
    /// The request conflicts and has been queued; the caller blocks.
    Queued,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    owner: TxnToken,
    mode: LockMode,
    /// Upgrade request: owner already holds the block in Shared mode.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct Entry {
    granted: Vec<(TxnToken, LockMode)>,
    queue: VecDeque<Waiter>,
}

impl Entry {
    fn holder_mode(&self, owner: TxnToken) -> Option<LockMode> {
        self.granted
            .iter()
            .find(|(o, _)| *o == owner)
            .map(|&(_, m)| m)
    }

    /// Can `w` be granted right now given current holders (ignoring the
    /// queue)?
    fn compatible_with_holders(&self, w: &Waiter) -> bool {
        self.granted
            .iter()
            .filter(|(o, _)| *o != w.owner)
            .all(|&(_, m)| m.compatible(w.mode))
    }
}

/// Per-site lock manager.
///
/// ```
/// use carat_lock::{LockManager, LockMode, Outcome};
/// let mut lm = LockManager::new();
/// assert_eq!(lm.request(1, 7, LockMode::Shared), Outcome::Granted);
/// assert_eq!(lm.request(2, 7, LockMode::Shared), Outcome::Granted);
/// assert_eq!(lm.request(3, 7, LockMode::Exclusive), Outcome::Queued);
/// // Tx 3 waits for both readers:
/// let mut w = lm.waits_for(3); w.sort();
/// assert_eq!(w, vec![1, 2]);
/// assert!(lm.release_all(1).is_empty());
/// assert_eq!(lm.release_all(2), vec![(3, 7)]); // writer woken
/// ```
#[derive(Debug, Default)]
pub struct LockManager {
    table: FastMap<u32, Entry>,
    /// Blocks held per transaction (for O(held) release).
    held: FastMap<TxnToken, Vec<u32>>,
    /// Block each transaction is currently waiting on, if any.
    waiting_on: FastMap<TxnToken, u32>,
    /// Retired held-blocks vectors, recycled so the steady state allocates
    /// nothing per transaction.
    spare_held: Vec<Vec<u32>>,
    /// Total length of the `held` lists: granted entries in the table.
    granted: usize,
    requests: u64,
    conflicts: u64,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `mode` on `block` for `owner`.
    ///
    /// Returns [`Outcome::Queued`] iff the request conflicts; the caller is
    /// then expected to block until a later `release_all`/`abort` returns
    /// `(owner, block)` among the newly granted requests.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is already waiting on some block (a CARAT
    /// transaction has at most one outstanding request — paper §3).
    pub fn request(&mut self, owner: TxnToken, block: u32, mode: LockMode) -> Outcome {
        assert!(
            !self.waiting_on.contains_key(&owner),
            "transaction {owner} already has a pending request"
        );
        self.requests += 1;
        let entry = self.table.entry(block).or_default();

        if let Some(held_mode) = entry.holder_mode(owner) {
            if held_mode.covers(mode) {
                return Outcome::Granted; // re-entrant
            }
            // S → X upgrade.
            let sole_holder = entry.granted.len() == 1;
            if sole_holder && entry.queue.iter().all(|w| w.owner == owner) {
                for g in &mut entry.granted {
                    if g.0 == owner {
                        g.1 = LockMode::Exclusive;
                    }
                }
                return Outcome::Granted;
            }
            // Upgrade waits at the head of the queue.
            self.conflicts += 1;
            entry.queue.push_front(Waiter {
                owner,
                mode: LockMode::Exclusive,
                upgrade: true,
            });
            self.waiting_on.insert(owner, block);
            return Outcome::Queued;
        }

        let w = Waiter {
            owner,
            mode,
            upgrade: false,
        };
        if entry.queue.is_empty() && entry.compatible_with_holders(&w) {
            entry.granted.push((owner, mode));
            self.granted += 1;
            self.held
                .entry(owner)
                .or_insert_with(|| self.spare_held.pop().unwrap_or_default())
                .push(block);
            Outcome::Granted
        } else {
            self.conflicts += 1;
            entry.queue.push_back(w);
            self.waiting_on.insert(owner, block);
            Outcome::Queued
        }
    }

    /// The set of transactions `owner` is directly waiting for: all holders
    /// of the block it is queued on whose mode conflicts, plus conflicting
    /// waiters queued ahead of it (they will be granted first under FIFO).
    pub fn waits_for(&self, owner: TxnToken) -> Vec<TxnToken> {
        let mut out = Vec::new();
        self.waits_for_into(owner, &mut out);
        out
    }

    /// Allocation-free [`waits_for`](Self::waits_for): clears `out`, then
    /// fills it (sorted, deduplicated). The deadlock detector calls this
    /// once per blocked transaction on every conflict, so it reuses one
    /// scratch vector instead of allocating a fresh `Vec` each time.
    pub fn waits_for_into(&self, owner: TxnToken, out: &mut Vec<TxnToken>) {
        out.clear();
        let Some(&block) = self.waiting_on.get(&owner) else {
            return;
        };
        let entry = &self.table[&block];
        let me = entry
            .queue
            .iter()
            .find(|w| w.owner == owner)
            .expect("waiting_on out of sync");
        out.extend(
            entry
                .granted
                .iter()
                .filter(|&&(o, m)| o != owner && !m.compatible(me.mode))
                .map(|&(o, _)| o),
        );
        for w in &entry.queue {
            if w.owner == owner {
                break;
            }
            if !w.mode.compatible(me.mode) {
                out.push(w.owner);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Block `owner` is waiting on, if blocked.
    pub fn waiting_block(&self, owner: TxnToken) -> Option<u32> {
        self.waiting_on.get(&owner).copied()
    }

    /// Number of locks held by `owner`.
    pub fn held_count(&self, owner: TxnToken) -> usize {
        self.held.get(&owner).map_or(0, Vec::len)
    }

    /// Mode in which `owner` holds `block`, if at all.
    pub fn holds(&self, owner: TxnToken, block: u32) -> Option<LockMode> {
        self.table.get(&block).and_then(|e| e.holder_mode(owner))
    }

    /// Granted entries across the whole table — the lock-table depth
    /// gauge. O(1): a running count kept at every grant and release.
    pub fn granted_entries(&self) -> usize {
        self.granted
    }

    /// Transactions currently waiting on some block — the node count this
    /// table contributes to the wait-for graph.
    pub fn waiting_count(&self) -> usize {
        self.waiting_on.len()
    }

    /// True when any transaction holds or awaits a lock on `block`.
    pub fn is_contended(&self, block: u32) -> bool {
        self.table.contains_key(&block)
    }

    /// Withdraws `owner`'s pending lock request (if any) without touching
    /// its held locks. Used when a deadlock victim starts aborting: the
    /// request disappears immediately, but held locks are only released
    /// after the rollback I/O at each site (strict 2PL). Returns waiters
    /// that became grantable.
    pub fn cancel_request(&mut self, owner: TxnToken) -> Vec<(TxnToken, u32)> {
        let mut woken = Vec::new();
        self.cancel_request_into(owner, &mut woken);
        woken
    }

    /// Allocation-free [`cancel_request`](Self::cancel_request): *appends*
    /// newly grantable `(owner, block)` pairs to `woken` (callers clear the
    /// scratch buffer between uses).
    pub fn cancel_request_into(&mut self, owner: TxnToken, woken: &mut Vec<(TxnToken, u32)>) {
        if let Some(block) = self.waiting_on.remove(&owner) {
            if let Some(entry) = self.table.get_mut(&block) {
                entry.queue.retain(|w| w.owner != owner);
            }
            // Removing a queue entry can unblock those behind it.
            self.promote(block, woken);
        }
    }

    /// Releases every lock held by `owner` and removes any queued request.
    /// Returns `(owner, block)` pairs for requests that became granted.
    pub fn release_all(&mut self, owner: TxnToken) -> Vec<(TxnToken, u32)> {
        let mut woken = Vec::new();
        self.release_all_into(owner, &mut woken);
        woken
    }

    /// Allocation-free [`release_all`](Self::release_all): *appends* newly
    /// granted `(owner, block)` pairs to `woken`. The held-blocks list of
    /// `owner` is recycled internally rather than dropped.
    pub fn release_all_into(&mut self, owner: TxnToken, woken: &mut Vec<(TxnToken, u32)>) {
        self.cancel_request_into(owner, woken);

        if let Some(mut blocks) = self.held.remove(&owner) {
            self.granted -= blocks.len();
            for block in blocks.drain(..) {
                let entry = self.table.get_mut(&block).expect("held lock has entry");
                entry.granted.retain(|&(o, _)| o != owner);
                self.promote(block, woken);
            }
            self.spare_held.push(blocks);
        }
    }

    /// FIFO promotion at `block`: grant queued requests from the head while
    /// they are compatible.
    fn promote(&mut self, block: u32, woken: &mut Vec<(TxnToken, u32)>) {
        let Some(entry) = self.table.get_mut(&block) else {
            return;
        };
        while let Some(head) = entry.queue.front().copied() {
            let can_grant = if head.upgrade {
                // Upgrade: grantable when owner is the sole remaining holder.
                entry.granted.iter().all(|&(o, _)| o == head.owner)
            } else {
                entry.compatible_with_holders(&head)
            };
            if !can_grant {
                break;
            }
            entry.queue.pop_front();
            if head.upgrade {
                for g in &mut entry.granted {
                    if g.0 == head.owner {
                        g.1 = LockMode::Exclusive;
                    }
                }
            } else {
                entry.granted.push((head.owner, head.mode));
                self.granted += 1;
                self.held
                    .entry(head.owner)
                    .or_insert_with(|| self.spare_held.pop().unwrap_or_default())
                    .push(block);
            }
            self.waiting_on.remove(&head.owner);
            woken.push((head.owner, block));
        }
        if entry.granted.is_empty() && entry.queue.is_empty() {
            self.table.remove(&block);
        }
    }

    /// All transactions currently blocked.
    pub fn blocked_transactions(&self) -> Vec<TxnToken> {
        let mut v = Vec::new();
        self.blocked_transactions_into(&mut v);
        v
    }

    /// Allocation-free [`blocked_transactions`](Self::blocked_transactions):
    /// clears `out`, then fills it (sorted).
    pub fn blocked_transactions_into(&self, out: &mut Vec<TxnToken>) {
        out.clear();
        out.extend(self.waiting_on.keys().copied());
        out.sort_unstable();
    }

    /// Total lock requests processed.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that had to queue.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Internal consistency check (used by tests and property tests):
    /// no two incompatible grants coexist, and every waiter/holder index
    /// matches the table.
    pub fn check_invariants(&self) {
        for (block, entry) in &self.table {
            for i in 0..entry.granted.len() {
                for j in (i + 1)..entry.granted.len() {
                    let (o1, m1) = entry.granted[i];
                    let (o2, m2) = entry.granted[j];
                    assert!(o1 != o2, "duplicate holder {o1} on block {block}");
                    assert!(
                        m1.compatible(m2),
                        "incompatible grants on block {block}: {o1:?}/{m1:?} vs {o2:?}/{m2:?}"
                    );
                }
            }
            for w in &entry.queue {
                assert_eq!(self.waiting_on.get(&w.owner), Some(block));
            }
        }
        for (owner, blocks) in &self.held {
            for b in blocks {
                assert!(
                    self.table
                        .get(b)
                        .is_some_and(|e| e.holder_mode(*owner).is_some()),
                    "held index stale: tx {owner} block {b}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive as X, Shared as S};

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, 0, S), Outcome::Granted);
        assert_eq!(lm.request(2, 0, S), Outcome::Granted);
        assert_eq!(lm.held_count(1), 1);
        lm.check_invariants();
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let mut lm = LockManager::new();
        lm.request(1, 0, X);
        assert_eq!(lm.request(2, 0, S), Outcome::Queued);
        assert_eq!(lm.request(3, 0, X), Outcome::Queued);
        assert_eq!(lm.waits_for(2), vec![1]);
        // 3 waits for holder 1 and (S ahead in queue is compatible? S vs X
        // conflicts) waiter 2.
        assert_eq!(lm.waits_for(3), vec![1, 2]);
        lm.check_invariants();
    }

    #[test]
    fn fifo_no_reader_barging() {
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        lm.request(2, 0, X); // queued
                             // A third reader must NOT barge past the queued writer.
        assert_eq!(lm.request(3, 0, S), Outcome::Queued);
        let woken = lm.release_all(1);
        assert_eq!(woken, vec![(2, 0)]);
        let woken = lm.release_all(2);
        assert_eq!(woken, vec![(3, 0)]);
        lm.check_invariants();
    }

    #[test]
    fn reentrant_requests_granted() {
        let mut lm = LockManager::new();
        lm.request(1, 0, X);
        assert_eq!(lm.request(1, 0, S), Outcome::Granted); // covered
        assert_eq!(lm.request(1, 0, X), Outcome::Granted);
        assert_eq!(lm.held_count(1), 1, "no duplicate holds");
    }

    #[test]
    fn sole_holder_upgrade_is_instant() {
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        assert_eq!(lm.request(1, 0, X), Outcome::Granted);
        assert_eq!(lm.holds(1, 0), Some(X));
    }

    #[test]
    fn contended_upgrade_waits_at_head() {
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        lm.request(2, 0, S);
        lm.request(3, 0, X); // queued behind both readers
        assert_eq!(lm.request(1, 0, X), Outcome::Queued); // upgrade
                                                          // Upgrade jumped the queue: when 2 releases, 1 gets X before 3.
        let woken = lm.release_all(2);
        assert_eq!(woken, vec![(1, 0)]);
        assert_eq!(lm.holds(1, 0), Some(X));
        let woken = lm.release_all(1);
        assert_eq!(woken, vec![(3, 0)]);
        lm.check_invariants();
    }

    #[test]
    fn upgrade_deadlock_shape_is_visible_in_waits_for() {
        // Two readers both upgrading: the classic conversion deadlock.
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        lm.request(2, 0, S);
        assert_eq!(lm.request(1, 0, X), Outcome::Queued);
        assert_eq!(lm.request(2, 0, X), Outcome::Queued);
        assert_eq!(lm.waits_for(1), vec![2]);
        assert!(lm.waits_for(2).contains(&1));
    }

    #[test]
    fn release_removes_pending_request() {
        let mut lm = LockManager::new();
        lm.request(1, 0, X);
        lm.request(2, 0, X);
        // 2 gives up (victim of deadlock elsewhere).
        let woken = lm.release_all(2);
        assert!(woken.is_empty());
        assert!(lm.blocked_transactions().is_empty());
        let woken = lm.release_all(1);
        assert!(woken.is_empty());
        lm.check_invariants();
    }

    #[test]
    fn release_of_queue_head_promotes_followers() {
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        lm.request(2, 0, X); // queued
        lm.request(3, 0, S); // queued behind 2
                             // 2 aborts; 3 is now compatible with holder 1.
        let woken = lm.release_all(2);
        assert_eq!(woken, vec![(3, 0)]);
        lm.check_invariants();
    }

    #[test]
    fn stats_count_requests_and_conflicts() {
        let mut lm = LockManager::new();
        lm.request(1, 0, S);
        lm.request(2, 0, X);
        assert_eq!(lm.requests(), 2);
        assert_eq!(lm.conflicts(), 1);
    }

    #[test]
    fn waiting_block_reports_block() {
        let mut lm = LockManager::new();
        lm.request(1, 5, X);
        lm.request(2, 5, S);
        assert_eq!(lm.waiting_block(2), Some(5));
        assert_eq!(lm.waiting_block(1), None);
    }

    #[test]
    #[should_panic(expected = "pending request")]
    fn double_wait_panics() {
        let mut lm = LockManager::new();
        lm.request(1, 0, X);
        lm.request(2, 0, X);
        lm.request(2, 1, S);
    }
}
