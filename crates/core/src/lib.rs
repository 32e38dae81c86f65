//! # carat-model — the paper's analytical queueing network model
//!
//! This crate is the reproduction's core contribution: the two-level
//! queueing network model of the CARAT distributed database testbed from
//! *"A Queueing Network Model for a Distributed Database Testbed System"*
//! (Jenq, Kohler, Towsley; ICDE 1987).
//!
//! The model predicts throughput, CPU utilization, disk I/O rate, and
//! response times of a distributed transaction processing system running
//! two-phase locking with deadlock detection, before-image journaling, and
//! centralized two-phase commit — **without simulating it**: each site is a
//! closed multi-chain product-form queueing network solved by Mean Value
//! Analysis, and the concurrency-control/commit interactions are folded in
//! through a fixed-point iteration over blocking probabilities, deadlock
//! probabilities, and synchronization delays.
//!
//! ## Model structure (paper §3–§6)
//!
//! 1. **Phases** ([`phases`]): a transaction moves through the phase set
//!    `P = {INIT, U, TM, DM, DMIO, LR, LW, RW, TC, TCIO, TA, TAIO, CWC,
//!    CWA, UL, UT}` according to the transition matrix of Table 1
//!    (local/coordinator chains) or its slave-chain analogue; expected
//!    visit counts solve the linear traffic equations (Eq. 1).
//! 2. **Service demands** ([`demands`]): per-phase CPU/disk requirements
//!    from the Table 2 basic parameters, scaled by visit counts and by the
//!    expected submissions-per-commit `N_s = 1/(1 − P_a)` (Eqs. 2–10).
//! 3. **Contention submodel** ([`contention`]): time-average locks held
//!    `L_h` (Eq. 14), mode-aware blocking probability `Pb` (Eq. 15),
//!    blocked-by distribution `PB` (Eq. 17), two-cycle deadlock victim
//!    probability `Pd` (DESIGN.md §6 — the paper defers to \[JENQ86\]),
//!    blocking time via the blocking ratio `BR = (2N_lk+1)/(6N_lk) ≈ 1/3`
//!    (Eqs. 18–20).
//! 4. **Distributed submodel** ([`solver`]): remote-request wait (Eqs.
//!    21–24), two-phase-commit wait, communication delay α.
//! 5. **Fixed point** ([`solver`]): iterate MVA site solutions and submodel
//!    updates (damped) until the delays are self-consistent.
//!
//! ## Quick example
//!
//! ```
//! use carat_model::{Model, ModelConfig};
//! use carat_workload::StandardWorkload;
//!
//! let cfg = ModelConfig::new(StandardWorkload::Mb4.spec(2), 8);
//! let report = Model::new(cfg).solve();
//! // Two-node testbed: node A (faster disk) outperforms node B.
//! assert!(report.nodes[0].tx_per_s > report.nodes[1].tx_per_s);
//! ```

pub mod contention;
pub mod demands;
pub mod output;
pub mod phases;
pub mod solver;

pub use output::{ConvergenceInfo, ModelNodeReport, ModelReport, ModelTypeReport};
pub use phases::{Phase, TransitionMatrix, VisitCounts};
pub use solver::WarmStart;
pub use solver::{Accel, Model, ModelConfig, ModelOptions};
