//! Transaction programs: the micro-operation sequence a transaction
//! executes.
//!
//! CARAT transactions are strictly sequential — "there is at most one
//! request being executed per transaction at any point in time" (paper §3)
//! and, with one slave site per transaction in the two-node topology, even
//! the two-phase commit rounds serialise. Each submission is therefore
//! compiled to a linear program of micro-operations; the engine advances a
//! program counter, parking the transaction whenever an operation needs a
//! resource or blocks on a lock.

use carat_storage::RecordId;
use carat_workload::{SystemParams, TxType};
use rand::Rng;

/// One micro-operation of a transaction program.
///
/// `Copy`: the engine dispatches ops by value (16 bytes) so advancing a
/// transaction never clones heap data or fights the borrow of the
/// transaction store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Consume `ms` of CPU at `site`.
    UseCpu {
        /// Node whose CPU is used.
        site: usize,
        /// Service requirement.
        ms: f64,
    },
    /// Consume `ms` of disk at `site` (`ios` granule transfers, for the
    /// I/O-rate statistics).
    UseDisk {
        /// Node whose disk is used.
        site: usize,
        /// Service requirement.
        ms: f64,
        /// Number of granule I/O operations this burst represents.
        ios: u32,
        /// True for recovery-journal I/O (before-images, prepare/commit
        /// forces). The testbed was forced to co-locate the journal with
        /// the database (paper §2); with
        /// [`crate::SimConfig::separate_log_disk`] these route to a
        /// dedicated log device instead.
        log: bool,
    },
    /// Serialise on the TM server at `site` (queue if busy).
    AcquireTm {
        /// Node whose TM is acquired.
        site: usize,
    },
    /// Release the TM server at `site`.
    ReleaseTm {
        /// Node whose TM is released.
        site: usize,
    },
    /// Allocate a DM server at `site` for the rest of the transaction
    /// (no-op if already allocated).
    AcquireDm {
        /// Node whose DM pool is used.
        site: usize,
    },
    /// One-way network message delay.
    Net {
        /// Delay (α) in ms.
        ms: f64,
        /// Destination site — the node whose TM/DM the message is headed
        /// for. The fault layer drops or delays the message if the link is
        /// lossy or the destination is down.
        to: usize,
    },
    /// Request a block lock; may block, may make the requester a deadlock
    /// victim.
    Lock {
        /// Site owning the granule.
        site: usize,
        /// Granule (block) number.
        block: u32,
        /// Exclusive (update) or shared mode.
        exclusive: bool,
    },
    /// Functional database access (timing already charged by surrounding
    /// ops).
    Access {
        /// Site owning the record.
        site: usize,
        /// Record address.
        rid: RecordId,
        /// Update (true) or retrieval.
        update: bool,
    },
    /// Functional prepare (forced journal) at a slave site.
    PrepareSite {
        /// Slave site.
        site: usize,
    },
    /// Functional commit + lock release at `site`.
    CommitSite {
        /// Site to commit at.
        site: usize,
    },
    /// Functional rollback (restore before-images) + lock release at
    /// `site`. Rollback happens *before* the locks drop, so no other
    /// transaction can observe un-undone data — the timing cost of the
    /// restore was charged by the preceding `UseDisk`.
    AbortSite {
        /// Site to roll back at.
        site: usize,
    },
    /// Transaction finished (committed or aborted; the engine knows which).
    End,
}

/// The access plan of one submission: which records each request touches.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per request: `(site, records)`.
    pub requests: Vec<(usize, Vec<RecordId>)>,
}

impl Plan {
    /// Samples a plan: `n` requests of `records_per_request` uniformly
    /// random records; remote requests are interleaved among local ones and
    /// spread round-robin over the other sites (paper §2: requests are the
    /// unit of distribution).
    pub fn sample<R: Rng>(
        rng: &mut R,
        params: &SystemParams,
        home: usize,
        ty: TxType,
        n_requests: u32,
    ) -> Plan {
        let mut plan = Plan {
            requests: Vec::new(),
        };
        Plan::sample_into(rng, params, home, ty, n_requests, &mut plan);
        plan
    }

    /// Allocation-free [`sample`](Plan::sample): overwrites `out` in place,
    /// recycling its request vectors. The engine resamples a plan on every
    /// submission and restart, so this runs millions of times per sweep.
    ///
    /// Draws random numbers in exactly the same order as `sample`, so the
    /// sampled plan is identical for the same RNG state.
    pub fn sample_into<R: Rng>(
        rng: &mut R,
        params: &SystemParams,
        home: usize,
        ty: TxType,
        n_requests: u32,
        out: &mut Plan,
    ) {
        let sites = params.sites();
        let (l, r) = if ty.is_distributed() {
            params.split_requests(n_requests)
        } else {
            (n_requests, 0)
        };
        let _ = l;
        let n = n_requests as usize;
        out.requests.truncate(n);
        for (_, records) in &mut out.requests {
            records.clear();
        }
        while out.requests.len() < n {
            out.requests
                .push((0, Vec::with_capacity(params.records_per_request as usize)));
        }

        let n_records = params.records_per_site();
        let pick_record = |rng: &mut R| -> RecordId {
            use carat_workload::AccessPattern;
            let flat = match params.access {
                AccessPattern::Uniform => rng.gen_range(0..n_records),
                AccessPattern::Hotspot {
                    hot_data_frac,
                    hot_access_prob,
                } => {
                    let hot_records = ((n_records as f64 * hot_data_frac) as u64).max(1);
                    if rng.gen_bool(hot_access_prob) {
                        rng.gen_range(0..hot_records)
                    } else {
                        rng.gen_range(hot_records..n_records)
                    }
                }
            };
            RecordId::from_flat(flat)
        };

        // Interleave: Bresenham-spread the r remote requests among the n
        // slots; remote requests round-robin over the other sites (paper
        // §2: requests are the unit of distribution).
        let mut err: i64 = 0;
        let mut remote_rr = 0usize;
        for slot in &mut out.requests {
            err += r as i64;
            let remote = err >= n_requests as i64;
            slot.0 = if remote {
                err -= n_requests as i64;
                let mut s = remote_rr % (sites - 1);
                if s >= home {
                    s += 1;
                }
                remote_rr += 1;
                s
            } else {
                home
            };
            for _ in 0..params.records_per_request {
                slot.1.push(pick_record(rng));
            }
        }
        debug_assert_eq!(
            out.requests.iter().filter(|(s, _)| *s != home).count(),
            r as usize
        );
    }

    /// Total records accessed.
    pub fn total_records(&self) -> u64 {
        self.requests.iter().map(|(_, r)| r.len() as u64).sum()
    }
}

/// The transaction-phase segment an op belongs to, mirroring the paper's
/// phase set so the simulator can report a measured per-phase time
/// decomposition comparable with the model's (`exp phases`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Seg {
    /// INIT: TBEGIN/DBOPEN processing.
    Init,
    /// U: user application processing.
    User,
    /// TM: TM server message processing (service time).
    Tm,
    /// TM serialisation wait (the delay the paper's model *ignores* —
    /// measured here so the omission can be quantified).
    TmWait,
    /// DM processing between lock requests.
    Dm,
    /// Waiting for a DM server from the pool.
    DmWait,
    /// LR: lock request processing.
    Lr,
    /// DMIO: database/journal I/O (residence, incl. disk queueing).
    Dmio,
    /// LW: blocked on a lock conflict.
    Lw,
    /// RW: network hops of remote requests.
    Rw,
    /// TC: commit protocol CPU.
    Tc,
    /// TCIO: commit log I/O.
    Tcio,
    /// CW: two-phase-commit synchronisation hops.
    Cw,
    /// TA: abort processing CPU.
    Ta,
    /// TAIO: rollback I/O.
    Taio,
    /// UL: lock release processing.
    Ul,
}

impl Seg {
    /// All segments, in declaration (= `Ord`) order — also the dense-index
    /// order of the simulator's phase accumulator.
    pub const ALL: [Seg; 16] = [
        Seg::Init,
        Seg::User,
        Seg::Tm,
        Seg::TmWait,
        Seg::Dm,
        Seg::DmWait,
        Seg::Lr,
        Seg::Dmio,
        Seg::Lw,
        Seg::Rw,
        Seg::Tc,
        Seg::Tcio,
        Seg::Cw,
        Seg::Ta,
        Seg::Taio,
        Seg::Ul,
    ];

    /// Display label (matches the paper's phase names).
    pub fn label(self) -> &'static str {
        match self {
            Seg::Init => "INIT",
            Seg::User => "U",
            Seg::Tm => "TM",
            Seg::TmWait => "TM-wait",
            Seg::Dm => "DM",
            Seg::DmWait => "DM-wait",
            Seg::Lr => "LR",
            Seg::Dmio => "DMIO",
            Seg::Lw => "LW",
            Seg::Rw => "RW",
            Seg::Tc => "TC",
            Seg::Tcio => "TCIO",
            Seg::Cw => "CW",
            Seg::Ta => "TA",
            Seg::Taio => "TAIO",
            Seg::Ul => "UL",
        }
    }
}

/// A compiled transaction program: micro-ops plus their phase tags.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The micro-operations, executed in order.
    pub ops: Vec<Op>,
    /// `segs[i]` is the phase of `ops[i]`.
    pub segs: Vec<Seg>,
}

impl Program {
    /// Empty program with the given capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Program {
            ops: Vec::with_capacity(cap),
            segs: Vec::with_capacity(cap),
        }
    }

    /// Drops every op, keeping the allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.segs.clear();
    }

    /// Appends an op with its phase tag.
    pub fn push(&mut self, op: Op, seg: Seg) {
        self.ops.push(op);
        self.segs.push(seg);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Reusable working storage for [`compile_into`], so recompiling a
/// program on every submission allocates nothing in the steady state.
#[derive(Debug, Default)]
pub struct CompileScratch {
    touched: std::collections::HashSet<(usize, u32)>,
    slave_sites: Vec<usize>,
}

/// Compiles a submission's plan into its micro-operation program.
///
/// The op sequence mirrors the CARAT message structure (paper §2, Figure 1)
/// and charges exactly the Table 2 costs the analytical model uses — see
/// `carat-workload::params` for the shared constants.
pub fn compile(params: &SystemParams, home: usize, ty: TxType, plan: &Plan) -> Program {
    let mut prog = Program::with_capacity(16 + plan.requests.len() * 24);
    let mut scratch = CompileScratch::default();
    compile_into(params, home, ty, plan, &mut prog, &mut scratch);
    prog
}

/// Allocation-free [`compile`]: overwrites `prog` in place, reusing its op
/// vectors and the caller's scratch.
pub fn compile_into(
    params: &SystemParams,
    home: usize,
    ty: TxType,
    plan: &Plan,
    prog: &mut Program,
    scratch: &mut CompileScratch,
) {
    let b = &params.basic;
    let chain = ty.coordinator_chain();
    let slave_chain = ty.slave_chain();
    let alpha = params.comm_delay_ms;
    let update = ty.is_update();
    prog.ops.clear();
    prog.segs.clear();

    // INIT phase: TBEGIN and DBOPEN processed by the home TM.
    for _ in 0..b.init_tm_msgs as usize {
        prog.push(Op::AcquireTm { site: home }, Seg::Init);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: b.r_tm(chain),
            },
            Seg::Init,
        );
        prog.push(Op::ReleaseTm { site: home }, Seg::Init);
    }

    // Track first-touch blocks per site: lock + I/O happen once per
    // distinct granule (the DM keeps the current block in working storage;
    // the paper's q(t) counts distinct granules).
    let touched = &mut scratch.touched;
    touched.clear();

    for (site, records) in &plan.requests {
        let site = *site;
        let remote = site != home;
        // A local type reaches a remote site only through replica routing
        // (failover or write expansion); it has no slave chain of its own,
        // so the visit is charged at the coordinator rates.
        let exec_chain = if remote {
            slave_chain.unwrap_or(chain)
        } else {
            chain
        };

        // U phase: the TR process prepares the request.
        prog.push(
            Op::UseCpu {
                site: home,
                ms: b.r_u,
            },
            Seg::User,
        );
        // TDO to the home TM (routing).
        prog.push(Op::AcquireTm { site: home }, Seg::Tm);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: b.r_tm(chain),
            },
            Seg::Tm,
        );
        prog.push(Op::ReleaseTm { site: home }, Seg::Tm);

        if remote {
            // REMDO to the slave TM.
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: site,
                },
                Seg::Rw,
            );
            prog.push(Op::AcquireTm { site }, Seg::Tm);
            prog.push(
                Op::UseCpu {
                    site,
                    ms: b.r_tm(exec_chain),
                },
                Seg::Tm,
            );
            prog.push(Op::ReleaseTm { site }, Seg::Tm);
        }

        // DM execution (DOSTEP): DM-phase entry cost, then per distinct
        // granule LR → DMIO → DM.
        prog.push(Op::AcquireDm { site }, Seg::Dm);
        prog.push(
            Op::UseCpu {
                site,
                ms: b.r_dm(exec_chain),
            },
            Seg::Dm,
        );
        for &rid in records {
            if touched.insert((site, rid.block)) {
                prog.push(Op::UseCpu { site, ms: b.r_lr }, Seg::Lr);
                prog.push(
                    Op::Lock {
                        site,
                        block: rid.block,
                        exclusive: update,
                    },
                    Seg::Lw,
                );
                prog.push(
                    Op::UseCpu {
                        site,
                        ms: b.r_dmio_cpu(exec_chain),
                    },
                    Seg::Dmio,
                );
                // Each granule I/O is a separate disk operation (read, then
                // journal write, then in-place write for updates) — the
                // disk interleaves other requests between them, exactly as
                // the real DM's sequential I/O calls allow.
                for io_idx in 0..b.ios_per_granule(exec_chain) {
                    prog.push(
                        Op::UseDisk {
                            site,
                            ms: params.nodes[site].disk_io_ms,
                            ios: 1,
                            log: io_idx == 1, // read, JOURNAL, write
                        },
                        Seg::Dmio,
                    );
                }
                prog.push(Op::Access { site, rid, update }, Seg::Dmio);
                prog.push(
                    Op::UseCpu {
                        site,
                        ms: b.r_dm(exec_chain),
                    },
                    Seg::Dm,
                );
            } else {
                prog.push(Op::Access { site, rid, update }, Seg::Dm);
            }
        }

        if remote {
            // REMDO_K back through the slave TM.
            prog.push(Op::AcquireTm { site }, Seg::Tm);
            prog.push(
                Op::UseCpu {
                    site,
                    ms: b.r_tm(exec_chain),
                },
                Seg::Tm,
            );
            prog.push(Op::ReleaseTm { site }, Seg::Tm);
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: home,
                },
                Seg::Rw,
            );
        }
        // DOSTEP_K / REMDO_K processed by the home TM.
        prog.push(Op::AcquireTm { site: home }, Seg::Tm);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: b.r_tm(chain),
            },
            Seg::Tm,
        );
        prog.push(Op::ReleaseTm { site: home }, Seg::Tm);
    }

    // Commit (TEND). Slave sites actually visited:
    let slave_sites = &mut scratch.slave_sites;
    slave_sites.clear();
    for (s, _) in &plan.requests {
        if *s != home && !slave_sites.contains(s) {
            slave_sites.push(*s);
        }
    }

    if slave_sites.is_empty() {
        // Local commit: one TM visit; updates force the commit record.
        prog.push(Op::AcquireTm { site: home }, Seg::Tc);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: b.tc_cpu(chain),
            },
            Seg::Tc,
        );
        if b.commit_ios(chain) > 0 {
            prog.push(
                Op::UseDisk {
                    site: home,
                    ms: b.commit_ios(chain) as f64 * params.nodes[home].disk_io_ms,
                    ios: b.commit_ios(chain),
                    log: true,
                },
                Seg::Tcio,
            );
        }
        prog.push(Op::ReleaseTm { site: home }, Seg::Tc);
    } else {
        // Replica-expanded local types commit 2PC at coordinator rates.
        let sc = slave_chain.unwrap_or(chain);
        let half_tc_coord = b.tc_cpu(chain) / 2.0;
        let half_tc_slave = b.tc_cpu(sc) / 2.0;
        // Phase 1: TEND processing + PREPARE round.
        prog.push(Op::AcquireTm { site: home }, Seg::Tc);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: half_tc_coord,
            },
            Seg::Tc,
        );
        prog.push(Op::ReleaseTm { site: home }, Seg::Tc);
        for &s in slave_sites.iter() {
            prog.push(Op::Net { ms: alpha, to: s }, Seg::Cw);
            prog.push(Op::AcquireTm { site: s }, Seg::Tc);
            prog.push(
                Op::UseCpu {
                    site: s,
                    ms: half_tc_slave,
                },
                Seg::Tc,
            );
            if update {
                // Slave forces its prepare record (first of the DUS
                // commit_ios).
                prog.push(Op::PrepareSite { site: s }, Seg::Tc);
                prog.push(
                    Op::UseDisk {
                        site: s,
                        ms: params.nodes[s].disk_io_ms,
                        ios: 1,
                        log: true,
                    },
                    Seg::Tcio,
                );
            }
            prog.push(Op::ReleaseTm { site: s }, Seg::Tc);
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: home,
                },
                Seg::Cw,
            );
        }
        // Phase 2: coordinator decision + COMMIT round.
        prog.push(Op::AcquireTm { site: home }, Seg::Tc);
        prog.push(
            Op::UseCpu {
                site: home,
                ms: half_tc_coord,
            },
            Seg::Tc,
        );
        if b.commit_ios(chain) > 0 {
            prog.push(
                Op::UseDisk {
                    site: home,
                    ms: b.commit_ios(chain) as f64 * params.nodes[home].disk_io_ms,
                    ios: b.commit_ios(chain),
                    log: true,
                },
                Seg::Tcio,
            );
        }
        prog.push(Op::ReleaseTm { site: home }, Seg::Tc);
        for &s in slave_sites.iter() {
            prog.push(Op::Net { ms: alpha, to: s }, Seg::Cw);
            prog.push(Op::AcquireTm { site: s }, Seg::Tc);
            prog.push(
                Op::UseCpu {
                    site: s,
                    ms: half_tc_slave,
                },
                Seg::Tc,
            );
            if update {
                // Slave writes its commit record (second DUS commit I/O).
                prog.push(
                    Op::UseDisk {
                        site: s,
                        ms: params.nodes[s].disk_io_ms,
                        ios: 1,
                        log: true,
                    },
                    Seg::Tcio,
                );
            }
            // Slave releases its locks and ends its part.
            prog.push(Op::CommitSite { site: s }, Seg::Tc);
            prog.push(Op::ReleaseTm { site: s }, Seg::Tc);
            prog.push(
                Op::Net {
                    ms: alpha,
                    to: home,
                },
                Seg::Cw,
            );
        }
    }

    // UL phase at the home site, then done.
    let n_locks: usize = touched.iter().filter(|(s, _)| *s == home).count();
    if n_locks > 0 {
        prog.push(
            Op::UseCpu {
                site: home,
                ms: n_locks as f64 * b.ul_cpu_per_lock(),
            },
            Seg::Ul,
        );
    }
    prog.push(Op::CommitSite { site: home }, Seg::Ul);
    prog.push(Op::End, Seg::Ul);
}

/// Number of distinct `(site, block)` granules an update plan journals at
/// `site` — the rollback I/O count for aborts.
pub fn distinct_blocks_at(plan: &Plan, site: usize) -> u32 {
    let mut set = std::collections::HashSet::new();
    distinct_blocks_at_with(plan, site, &mut set)
}

/// Scratch-buffer variant of [`distinct_blocks_at`] for the engine's abort
/// path (`set` is cleared first).
pub fn distinct_blocks_at_with(
    plan: &Plan,
    site: usize,
    set: &mut std::collections::HashSet<u32>,
) -> u32 {
    set.clear();
    for (s, records) in &plan.requests {
        if *s == site {
            for r in records {
                set.insert(r.block);
            }
        }
    }
    set.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::StandardWorkload;
    use rand::{rngs::StdRng, SeedableRng};

    fn params() -> SystemParams {
        SystemParams::default()
    }

    #[test]
    fn plan_sampling_respects_split() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(42);
        let plan = Plan::sample(&mut rng, &p, 0, TxType::Du, 8);
        let local = plan.requests.iter().filter(|(s, _)| *s == 0).count();
        let remote = plan.requests.iter().filter(|(s, _)| *s == 1).count();
        assert_eq!((local, remote), (4, 4));
        assert_eq!(plan.total_records(), 32);
    }

    #[test]
    fn local_plan_stays_home() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(7);
        let plan = Plan::sample(&mut rng, &p, 1, TxType::Lu, 12);
        assert!(plan.requests.iter().all(|(s, _)| *s == 1));
    }

    #[test]
    fn remote_requests_are_interleaved() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = Plan::sample(&mut rng, &p, 0, TxType::Dro, 4);
        let sites: Vec<usize> = plan.requests.iter().map(|(s, _)| *s).collect();
        // Bresenham with l = r alternates.
        assert_eq!(sites, vec![0, 1, 0, 1]);
    }

    #[test]
    fn program_charges_model_visit_counts() {
        // For a local transaction with q distinct granules per request the
        // model's TM visit count is 2n + 1(+init): count UseCpu at TM rate.
        let p = params();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 8u32;
        let plan = Plan::sample(&mut rng, &p, 0, TxType::Lro, n);
        let prog = compile(&p, 0, TxType::Lro, &plan);
        let tm_acquires = prog
            .ops
            .iter()
            .filter(|op| matches!(op, Op::AcquireTm { .. }))
            .count() as u32;
        // init(2) + 2 per request + 1 commit
        assert_eq!(tm_acquires, 2 + 2 * n + 1);
        let locks = prog
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Lock { .. }))
            .count() as u64;
        let distinct = distinct_blocks_at(&plan, 0) as u64;
        assert_eq!(locks, distinct);
        // Read transaction: one disk burst per distinct granule, no commit
        // force.
        let ios: u32 = prog
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::UseDisk { ios, .. } => Some(*ios),
                _ => None,
            })
            .sum();
        assert_eq!(ios as u64, distinct);
    }

    #[test]
    fn update_transaction_has_triple_ios_and_commit_force() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = Plan::sample(&mut rng, &p, 1, TxType::Lu, 4);
        let prog = compile(&p, 1, TxType::Lu, &plan);
        let distinct = distinct_blocks_at(&plan, 1);
        let ios: u32 = prog
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::UseDisk { ios, .. } => Some(*ios),
                _ => None,
            })
            .sum();
        assert_eq!(ios, 3 * distinct + 1, "3 per granule + forced commit");
        // Exclusive locks only.
        assert!(prog.ops.iter().all(|op| match op {
            Op::Lock { exclusive, .. } => *exclusive,
            _ => true,
        }));
    }

    #[test]
    fn distributed_update_runs_full_2pc() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(9);
        let plan = Plan::sample(&mut rng, &p, 0, TxType::Du, 8);
        let prog = compile(&p, 0, TxType::Du, &plan);
        assert!(prog
            .ops
            .iter()
            .any(|op| matches!(op, Op::PrepareSite { site: 1 })));
        assert!(prog
            .ops
            .iter()
            .any(|op| matches!(op, Op::CommitSite { site: 1 })));
        assert!(prog
            .ops
            .iter()
            .any(|op| matches!(op, Op::CommitSite { site: 0 })));
        // Slave-site disk ops: 3 per distinct granule plus the prepare
        // force and the commit record write.
        let slave_ios: u32 = prog
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::UseDisk { site: 1, ios, .. } => Some(*ios),
                _ => None,
            })
            .sum();
        assert_eq!(slave_ios, 3 * distinct_blocks_at(&plan, 1) + 2);
    }

    #[test]
    fn dro_skips_forced_writes() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(11);
        let plan = Plan::sample(&mut rng, &p, 0, TxType::Dro, 8);
        let prog = compile(&p, 0, TxType::Dro, &plan);
        assert!(!prog
            .ops
            .iter()
            .any(|op| matches!(op, Op::PrepareSite { .. })));
        // All disk bursts are single-granule reads.
        assert!(prog.ops.iter().all(|op| match op {
            Op::UseDisk { ios, .. } => *ios == 1,
            _ => true,
        }));
    }

    #[test]
    fn standard_workloads_compile() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(5);
        for w in StandardWorkload::ALL {
            let spec = w.spec(2);
            for node in 0..2 {
                for &(t, _) in &spec.users[node] {
                    let plan = Plan::sample(&mut rng, &p, node, t, 12);
                    let prog = compile(&p, node, t, &plan);
                    assert!(matches!(prog.ops.last(), Some(Op::End)));
                    assert_eq!(prog.ops.len(), prog.segs.len());
                }
            }
        }
    }
}
