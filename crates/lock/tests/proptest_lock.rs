//! Property-based tests for the lock manager.
//!
//! Invariants checked on random request/release interleavings:
//!  * no two incompatible grants ever coexist (`check_invariants`);
//!  * a transaction is either running or blocked on exactly one block;
//!  * releasing everything drains the table completely.

use carat_lock::{LockManager, LockMode, Outcome};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Request {
        tx: u64,
        block: u32,
        exclusive: bool,
    },
    Release {
        tx: u64,
    },
    Cancel {
        tx: u64,
    },
}

fn op_strategy(n_tx: u64, n_blocks: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n_tx, 0..n_blocks, any::<bool>())
            .prop_map(|(tx, block, exclusive)| Op::Request { tx, block, exclusive }),
        1 => (0..n_tx).prop_map(|tx| Op::Release { tx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn invariants_hold_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(6, 4), 1..120)
    ) {
        let mut lm = LockManager::new();
        let mut blocked: std::collections::HashSet<u64> = Default::default();

        for op in ops {
            match op {
                Op::Request { tx, block, exclusive } => {
                    if blocked.contains(&tx) {
                        continue; // a blocked tx cannot issue requests
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    if lm.request(tx, block, mode) == Outcome::Queued {
                        blocked.insert(tx);
                    }
                }
                Op::Release { tx } => {
                    for (woken, _) in lm.release_all(tx) {
                        prop_assert!(blocked.remove(&woken), "woke a non-blocked tx");
                    }
                    blocked.remove(&tx);
                }
                Op::Cancel { .. } => continue,
            }
            lm.check_invariants();
            // Blocked set must agree with the manager's view.
            let mgr_blocked: std::collections::HashSet<u64> =
                lm.blocked_transactions().into_iter().collect();
            prop_assert_eq!(&mgr_blocked, &blocked);
        }

        // Drain: release everyone (repeatedly, since wakes re-grant locks).
        for _ in 0..8 {
            for tx in 0..6 {
                lm.release_all(tx);
            }
        }
        lm.check_invariants();
        prop_assert!(lm.blocked_transactions().is_empty());
        for tx in 0..6 {
            prop_assert_eq!(lm.held_count(tx), 0);
        }
    }

    /// The running lock-table depth equals a recount of the table's
    /// grants after every request, release and cancel.
    #[test]
    fn granted_entries_match_a_recount(
        ops in proptest::collection::vec(
            prop_oneof![
                3 => op_strategy(6, 4),
                1 => (0u64..6).prop_map(|tx| Op::Cancel { tx }),
            ],
            1..120,
        )
    ) {
        let mut lm = LockManager::new();
        for op in ops {
            match op {
                Op::Request { tx, block, exclusive } => {
                    if lm.waiting_block(tx).is_some() {
                        continue;
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    lm.request(tx, block, mode);
                }
                Op::Release { tx } => {
                    lm.release_all(tx);
                }
                Op::Cancel { tx } => {
                    lm.cancel_request(tx);
                }
            }
            let recount = (0..6u64)
                .flat_map(|tx| (0..4u32).map(move |block| (tx, block)))
                .filter(|&(tx, block)| lm.holds(tx, block).is_some())
                .count();
            prop_assert_eq!(lm.granted_entries(), recount);
        }
    }

    #[test]
    fn no_lost_wakeups(
        seed_requests in proptest::collection::vec((0u64..4, 0u32..2, any::<bool>()), 1..30)
    ) {
        // After all transactions release, every block must be free even if
        // some requests queued; FIFO promotion must not strand waiters.
        let mut lm = LockManager::new();
        let mut issued: Vec<u64> = Vec::new();
        for (tx, block, exclusive) in seed_requests {
            if lm.waiting_block(tx).is_some() {
                continue;
            }
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            lm.request(tx, block, mode);
            if !issued.contains(&tx) {
                issued.push(tx);
            }
        }
        // Release in issue order; any tx woken in between simply holds
        // locks until its own release below.
        for &tx in &issued {
            lm.release_all(tx);
        }
        for &tx in &issued {
            lm.release_all(tx);
        }
        lm.check_invariants();
        prop_assert!(lm.blocked_transactions().is_empty());
    }
}
