//! The fixed-point solution procedure (paper §6).
//!
//! The model is a decomposition: per-site MVA, the concurrency-control
//! submodels (Eqs. 11–20) and the distributed submodels (Eqs. 21–24) hand
//! quantities to each other until they agree. Each iteration runs one
//! update per submodel ([`FixedPoint`]): aborts and visit counts, demand
//! assembly and the per-site MVA, lock contention (`L_h`, `Pb`, `Pd`,
//! `R_LW`), and the distributed delays (`R_RW`, `R_CW`, `Pra`). The damped
//! update then moves the state toward the proposed values, because the
//! `Pb ↔ L_h ↔ R` loop oscillates at high contention, and an optional
//! Anderson step ([`Accel`]) extrapolates.

use std::collections::BTreeMap;

use carat_obs::{IterLog, IterRow};
use carat_qnet::{CenterKind, MvaScratch, MvaSolution, Network};
use carat_workload::{ChainType, SystemParams, TxType, WorkloadSpec};

use crate::contention::{
    blocking_probability, deadlock_probability_scratch, lock_wait_times_consistent_into,
    locks_held, sigma, ChainLockState, LockWaitScratch,
};
use crate::demands::{chain_contexts, demands, phase_costs, ChainCtx, DelayTimes};
use crate::output::{ConvergenceInfo, ModelNodeReport, ModelReport, ModelTypeReport};
use crate::phases::{Hazards, Phase, TrafficScratch, TransitionMatrix, VisitCounts};

/// What to solve: workload + transaction size on the standard parameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Hardware and cost parameters (Table 2 defaults).
    pub params: SystemParams,
    /// User populations.
    pub workload: WorkloadSpec,
    /// `n`: requests per transaction.
    pub n_requests: u32,
}

impl ModelConfig {
    /// Standard two-node testbed configuration.
    pub fn new(workload: WorkloadSpec, n_requests: u32) -> Self {
        ModelConfig {
            params: SystemParams::default(),
            workload,
            n_requests,
        }
    }
}

/// Outer-loop acceleration of the damped fixed-point iteration
/// (DESIGN.md §12). Anderson mixing operates on the flattened per-chain
/// damped state vector (`Pb`, `Pd`, `R_LW`, `R_RW`, `R_CWC`, `R_CWA`,
/// `Pra`) and is safeguarded: a candidate that leaves the [0, 1] /
/// positivity bounds is discarded before being applied, and an applied
/// step whose follow-up residual grows is rolled back to the plain damped
/// iterate (with a short cooldown). Anderson is the default; `Off`, the
/// plain damped iteration, is the oracle the acceleration tests compare
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accel {
    /// Plain damped iteration: the reference path.
    Off,
    /// Anderson mixing with history depth [`DEFAULT_ANDERSON_DEPTH`] (the
    /// default): each step combines the last `m + 1` iterates through a
    /// small regularised least-squares problem over their residuals.
    #[default]
    Anderson,
}

impl Accel {
    /// Parses the CLI spelling: `off` or `anderson`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Accel::Off),
            "anderson" => Some(Accel::Anderson),
            _ => None,
        }
    }
}

/// Anderson history depth `m`. Depths 1–5 were measured on the 288-point
/// model grid (DESIGN.md §12); none beats 3.
pub const DEFAULT_ANDERSON_DEPTH: usize = 3;

/// Solver knobs and ablation switches (DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Convergence tolerance on the undamped residual.
    pub tol: f64,
    /// Outer-loop acceleration (see [`Accel`]; Anderson by default, `Off`
    /// for the plain damped iteration).
    pub accel: Accel,
    /// Ablation: ignore deadlocks/rollback entirely (`Pd = 0`), as many
    /// earlier models did.
    pub ignore_deadlocks: bool,
    /// Ablation: treat every lock as exclusive, the assumption the paper
    /// criticises in prior analytical work.
    pub all_locks_exclusive: bool,
    /// Ablation: override the blocking-ratio formula with a constant
    /// (the paper used 1/3).
    pub fixed_br: Option<f64>,
    /// Extension: model the TM server as an extra serialisation center
    /// (the paper ignores it and reports the resulting optimism at n = 4).
    pub model_tm_serialization: bool,
    /// Extension: give the recovery journal its own disk instead of
    /// sharing the database device (the testbed could not — paper §2 calls
    /// the shared disk a bottleneck a real deployment would avoid).
    pub separate_log_disk: bool,
    /// Worker threads for solving the independent per-site MVA networks of
    /// one iteration concurrently (1 = sequential). Sites are solved with
    /// identical arithmetic into disjoint buffers, so the results are
    /// bitwise identical for every value of `threads`; small lattices stay
    /// sequential regardless because thread spawn would dominate.
    pub threads: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            tol: 1e-9,
            accel: Accel::default(),
            ignore_deadlocks: false,
            all_locks_exclusive: false,
            fixed_br: None,
            model_tm_serialization: false,
            separate_log_disk: false,
            threads: 1,
        }
    }
}

/// Damping factor λ of the state update: new = λ·computed + (1 − λ)·old.
const DAMPING: f64 = 0.5;

/// Iteration cap. A solve that has not met the tolerance by then reports
/// its last iterate with `ConvergenceInfo::converged` false.
const MAX_ITER: usize = 400;

/// Number of damped quantities per chain. Their one order is fixed by the
/// index constants [`PB`] … [`PRA`]: the submodels propose values at those
/// indices, and the damped update, the accelerator's flat state vector and
/// its bounds screen all read them the same way.
const N_DAMPED: usize = 7;
/// `Pb`: blocking probability per lock request (Eq. 15).
const PB: usize = 0;
/// `Pd`: deadlock-victim probability per blocked request.
const PD: usize = 1;
/// `R_LW`: lock wait per blocked request (Eq. 20).
const R_LW: usize = 2;
/// `R_RW`: remote wait (Eqs. 21–24).
const R_RW: usize = 3;
/// `R_CWC`: commit wait after a commit decision.
const R_CWC: usize = 4;
/// `R_CWA`: commit wait after an abort decision.
const R_CWA: usize = 5;
/// `Pra`: remote-abort probability per remote wait.
const PRA: usize = 6;

/// Mutable per-chain solver state.
#[derive(Debug, Clone, Default)]
struct ChainState {
    /// The damped quantities, indexed by [`PB`] … [`PRA`].
    damped: [f64; N_DAMPED],
    /// MVA commit-to-commit cycle time.
    r_cycle: f64,
    /// Successful-execution time.
    r_s: f64,
    /// Throughput (cycles per ms).
    x: f64,
    l_h: f64,
    sigma: f64,
    p_a: f64,
    n_s: f64,
    blocked_frac: f64,
    ios_per_cycle: f64,
    log_ios_per_cycle: f64,
    cpu_demand: f64,
    disk_demand: f64,
    log_demand: f64,
}

/// Opaque snapshot of a converged fixed point, used to seed the solve of a
/// neighboring parameter point ([`Model::solve_warm`]).
///
/// Adjacent sweep points (same workload, next transaction size or
/// population) have nearby fixed points, so starting the iteration from a
/// neighbor's converged state typically cuts the iteration count by a
/// large factor. A snapshot is only compatible with a configuration that
/// produces the same chain structure (same sites and chain types, in the
/// same order); populations and per-request costs may differ — that is the
/// point. Incompatible snapshots are ignored and the solve falls back to a
/// cold start.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Chain structure this snapshot belongs to.
    keys: Vec<(usize, ChainType)>,
    /// The converged per-chain iteration state.
    st: Vec<ChainState>,
}

/// Plain damped iterations to complete before the first acceleration
/// attempt (lets the cold-start transient settle).
const ACCEL_START: usize = 3;

/// Iterations to wait after a rejected accelerated step before trying
/// again.
const ACCEL_COOLDOWN: usize = 1;

/// Reject a candidate whose step exceeds this multiple of the latest
/// residual-vector max-norm: extrapolations that large come from a
/// nearly-singular difference system, not a plausible fixed-point
/// estimate.
const ACCEL_MAX_AMPLIFICATION: f64 = 100.0;

/// The Anderson extrapolation acts on the *undamped* residual: the history
/// stores damped steps `f = λ·f_raw`, so the mixing term is rescaled by
/// `1/λ` ([`DAMPING`]).
const INV_DAMP: f64 = 1.0 / DAMPING;

/// Retro-check grace: an applied accelerated step is kept as long as the
/// follow-up residual stays below this multiple of the residual at the
/// moment the step was taken. Anderson iterates are not monotone — a
/// transient bump of a near-converged component is normal — and rejecting
/// on any increase costs a rollback plus cooldown; the bounded grace keeps
/// the non-monotone steps that still contract over two iterations.
const ANDERSON_GRACE: f64 = 2.0;

/// History pairs kept: Anderson(m) mixes the last m + 1.
const ANDERSON_HISTORY: usize = DEFAULT_ANDERSON_DEPTH + 1;

/// Safeguarded Anderson accelerator over the flattened damped state
/// (see [`Accel`]). The engine watches the plain damped iteration
/// `x_{i+1} = G(x_i)` (where `G` already includes the damping), keeps a
/// short history of iterates `x_i` and residuals `f_i = G(x_i) − x_i`,
/// and occasionally replaces the damped iterate with an extrapolated
/// candidate. Every candidate is screened against the [0, 1]/positivity
/// bounds before being applied, and retro-checked one iteration later: if
/// the residual grew beyond [`ANDERSON_GRACE`], the state is rolled back
/// to the saved damped iterate and acceleration pauses for
/// [`ACCEL_COOLDOWN`] iterations.
struct AccelEngine {
    /// Picard history (oldest first): iterates and their residuals.
    hist_x: Vec<Vec<f64>>,
    hist_f: Vec<Vec<f64>>,
    /// The iterate the running iteration started from.
    x_prev: Vec<f64>,
    /// The post-update iterate of the running iteration.
    x_curr: Vec<f64>,
    /// Latest extrapolated candidate.
    cand: Vec<f64>,
    /// Damped state to restore when the pending step is rejected.
    snapshot: Vec<ChainState>,
    /// An accelerated step was applied and awaits its residual check.
    pending: bool,
    /// Residual at the moment the pending step was taken.
    pending_residual: f64,
    cooldown: usize,
    accepted: usize,
    rejected: usize,
}

impl AccelEngine {
    fn new(st: &[ChainState]) -> Self {
        let dim = st.len() * N_DAMPED;
        let mut eng = AccelEngine {
            hist_x: Vec::new(),
            hist_f: Vec::new(),
            x_prev: vec![0.0; dim],
            x_curr: vec![0.0; dim],
            cand: vec![0.0; dim],
            snapshot: Vec::new(),
            pending: false,
            pending_residual: f64::INFINITY,
            cooldown: 0,
            accepted: 0,
            rejected: 0,
        };
        Self::extract(st, &mut eng.x_prev);
        eng
    }

    /// Flattens the damped quantities of every chain into `out`.
    fn extract(st: &[ChainState], out: &mut [f64]) {
        for (o, s) in out.chunks_exact_mut(N_DAMPED).zip(st) {
            o.copy_from_slice(&s.damped);
        }
    }

    /// The Anderson step that follows the damped update of an iteration
    /// whose residual was `delta`. A pending accelerated step is first
    /// retro-checked: if the residual grew beyond [`ANDERSON_GRACE`], `st`
    /// is rolled back to the damped iterate the step replaced. Otherwise
    /// the plain step joins the history and, unless converged, cooling
    /// down or before [`ACCEL_START`], a screened candidate replaces `st`.
    /// Returns the iteration's log marker (`""`, `"acc"` or `"rej"`) and
    /// whether the state was restored.
    fn step(
        &mut self,
        st: &mut Vec<ChainState>,
        delta: f64,
        iterations: usize,
        tol: f64,
    ) -> (&'static str, bool) {
        let mut marker = "";
        let mut restored = false;
        if self.pending {
            self.pending = false;
            if delta > ANDERSON_GRACE * self.pending_residual && delta >= tol {
                st.clone_from(&self.snapshot);
                self.hist_x.clear();
                self.hist_f.clear();
                self.rejected += 1;
                self.cooldown = ACCEL_COOLDOWN;
                marker = "rej";
                restored = true;
            } else {
                self.accepted += 1;
            }
        }
        if !restored {
            self.record(st);
            if delta >= tol {
                if self.cooldown > 0 {
                    self.cooldown -= 1;
                } else if iterations >= ACCEL_START
                    && self.candidate()
                    && self.candidate_in_bounds()
                {
                    self.snapshot.clone_from(st);
                    self.pending = true;
                    self.pending_residual = delta;
                    for (s, c) in st.iter_mut().zip(self.cand.chunks_exact(N_DAMPED)) {
                        s.damped.copy_from_slice(c);
                    }
                    marker = "acc";
                }
            }
        }
        // The next iteration starts from whatever `st` holds now: damped,
        // restored, or accelerated.
        Self::extract(st, &mut self.x_prev);
        (marker, restored)
    }

    /// Records the completed plain step `x_prev → st` as a history pair.
    fn record(&mut self, st: &[ChainState]) {
        Self::extract(st, &mut self.x_curr);
        let f: Vec<f64> = self
            .x_curr
            .iter()
            .zip(&self.x_prev)
            .map(|(c, p)| c - p)
            .collect();
        self.hist_x.push(self.x_prev.clone());
        self.hist_f.push(f);
        while self.hist_x.len() > ANDERSON_HISTORY {
            self.hist_x.remove(0);
            self.hist_f.remove(0);
        }
    }

    /// Builds an Anderson (type II) candidate in `self.cand` from the
    /// stored pairs: solve the regularised normal equations
    /// `(ΔFᵀΔF + εI) γ = ΔFᵀ f_last` (γ is invariant under uniform
    /// rescaling of the residuals) and extrapolate on the undamped
    /// residuals `f/λ` (see [`INV_DAMP`]):
    /// `x* = x_last + f_last/λ − Σ γᵢ (ΔXᵢ + ΔFᵢ/λ)`. Returns `false` when
    /// the history is too short, the extrapolation is numerically
    /// unusable, or the candidate equals the damped iterate (which would
    /// make the pending bookkeeping a pure no-op).
    fn candidate(&mut self) -> bool {
        let k = self.hist_f.len();
        if k < 2 {
            return false;
        }
        let cols = k - 1;
        let dim = self.cand.len();
        let f_last = &self.hist_f[k - 1];
        let df = |i: usize, c: usize| self.hist_f[i + 1][c] - self.hist_f[i][c];
        let dx = |i: usize, c: usize| self.hist_x[i + 1][c] - self.hist_x[i][c];
        let mut g = vec![0.0f64; cols * cols];
        let mut rhs = vec![0.0f64; cols];
        for i in 0..cols {
            for j in 0..cols {
                g[i * cols + j] = (0..dim).map(|c| df(i, c) * df(j, c)).sum();
            }
            rhs[i] = (0..dim).map(|c| df(i, c) * f_last[c]).sum();
        }
        let trace: f64 = (0..cols).map(|i| g[i * cols + i]).sum();
        let eps = 1e-10 * trace.max(1e-300);
        for i in 0..cols {
            g[i * cols + i] += eps;
        }
        let Ok(gamma) = carat_qnet::solve_dense(&g, &rhs) else {
            return false;
        };
        if gamma.iter().any(|v| !v.is_finite()) {
            return false;
        }
        for (c, &fl) in f_last.iter().enumerate() {
            let mut v = self.x_curr[c] + (INV_DAMP - 1.0) * fl;
            for (i, &gi) in gamma.iter().enumerate() {
                v -= gi * (dx(i, c) + INV_DAMP * df(i, c));
            }
            self.cand[c] = v;
        }
        self.cand.iter().zip(&self.x_curr).any(|(c, x)| c != x)
    }

    /// Screens the candidate: finite, probabilities in [0, 1], waits
    /// non-negative, and the step bounded relative to the latest residual
    /// vector.
    fn candidate_in_bounds(&self) -> bool {
        let f_norm = self
            .hist_f
            .last()
            .map(|f| f.iter().fold(0.0f64, |m, v| m.max(v.abs())))
            .unwrap_or(0.0);
        let max_step = ACCEL_MAX_AMPLIFICATION * f_norm + 1e-12;
        self.cand.iter().enumerate().all(|(i, &v)| {
            if !v.is_finite() || (v - self.x_curr[i]).abs() > max_step {
                return false;
            }
            match i % N_DAMPED {
                PB | PD | PRA => (0.0..=1.0).contains(&v),
                _ => v >= 0.0, // residence times
            }
        })
    }
}

/// One site's closed network plus the MVA buffers, built once per solve
/// and reused across all fixed-point iterations: only the demands change
/// between iterations, so the network topology, the lattice-sized scratch
/// table, and the solution buffers persist.
struct SiteSolver {
    /// Indices into `ctxs`/`st` of the chains running at this site, in
    /// chain-id order of `net`.
    site_idx: Vec<usize>,
    net: Network,
    cpu: usize,
    disk: usize,
    log_disk: Option<usize>,
    tm: Option<usize>,
    delay: usize,
    scratch: MvaScratch,
    out: MvaSolution,
}

/// Lattices at or above the exact-MVA cap fall back to Schweitzer–Bard.
const EXACT_LATTICE_MAX: usize = 2_000_000;

/// Minimum per-site lattice size before parallel site solves pay for the
/// thread-spawn overhead.
const PARALLEL_LATTICE_MIN: usize = 4_096;

impl SiteSolver {
    /// Solves this site's network into the held buffers: exact MVA up to
    /// [`EXACT_LATTICE_MAX`], Schweitzer–Bard above it.
    fn run(&mut self) {
        if self.net.lattice_size() <= EXACT_LATTICE_MAX {
            self.net.solve_exact_into(&mut self.scratch, &mut self.out);
        } else {
            self.net
                .solve_approx_into(1e-10, 20_000, &mut self.scratch, &mut self.out);
        }
    }
}

/// Queueing inflation `1/(1 − U)` of a residence at a center of
/// utilization `U`, with `U` capped at 0.95 and the factor at 5.
fn inflation(u: f64) -> f64 {
    (1.0 / (1.0 - u.min(0.95))).min(5.0)
}

/// Table 1's transition matrix of a local or coordinator chain, or its
/// slave analogue, under the chain's current hazards `Pb`, `Pd`, `Pra`.
fn transition_matrix(ctx: &ChainCtx, s: &ChainState) -> TransitionMatrix {
    let hz = Hazards {
        pb: s.damped[PB],
        pd: s.damped[PD],
        pra: s.damped[PRA],
    };
    if ctx.chain.is_slave() {
        TransitionMatrix::slave(ctx.l, ctx.q, hz)
    } else {
        TransitionMatrix::local_or_coordinator(ctx.n, ctx.l, ctx.r, ctx.q, hz)
    }
}

/// The submodels of one solve and the buffers they reuse across
/// iterations, so the submodel updates run allocation-free. Each method is
/// one submodel's update over the chain states; an iteration calls them in
/// declaration order.
struct FixedPoint<'a> {
    params: &'a SystemParams,
    opts: &'a ModelOptions,
    ctxs: &'a [ChainCtx],
    /// Per-site networks and MVA buffers. Topology and populations are
    /// fixed; only the demands change between iterations.
    solvers: Vec<SiteSolver>,
    /// Per site, the first earlier site whose network had bit for bit the
    /// same inputs in the latest MVA pass, if any; such a twin copies that
    /// site's solution instead of solving its own.
    twin: Vec<Option<usize>>,
    /// Threads for the per-site MVA: 1 unless parallel solves were asked
    /// for and some site's lattice is large enough to pay for them.
    threads: usize,
    /// Per site, the (CPU, disk) [`inflation`] of the latest MVA pass.
    site_inflation: Vec<(f64, f64)>,
    traffic: TrafficScratch,
    visits: Vec<VisitCounts>,
    /// This iteration's undamped proposals, indexed like
    /// [`ChainState::damped`].
    proposed: Vec<[f64; N_DAMPED]>,
    /// Each chain's undamped residual in this iteration.
    chain_delta: Vec<f64>,
    locks: Vec<ChainLockState>,
    lw_scratch: LockWaitScratch,
    rlw_site: Vec<f64>,
    pd_dist: Vec<f64>,
}

impl<'a> FixedPoint<'a> {
    fn new(params: &'a SystemParams, opts: &'a ModelOptions, ctxs: &'a [ChainCtx]) -> Self {
        let solvers: Vec<SiteSolver> = (0..params.sites())
            .map(|site| {
                let site_idx: Vec<usize> =
                    (0..ctxs.len()).filter(|&k| ctxs[k].site == site).collect();
                let mut net = Network::new();
                let cpu = net.add_center("CPU", CenterKind::Queueing);
                let disk = net.add_center("DISK", CenterKind::Queueing);
                let log_disk = opts
                    .separate_log_disk
                    .then(|| net.add_center("LOG", CenterKind::Queueing));
                let tm = opts
                    .model_tm_serialization
                    .then(|| net.add_center("TM", CenterKind::Queueing));
                let delay = net.add_center("DELAY", CenterKind::Delay);
                for &k in &site_idx {
                    net.add_chain(ctxs[k].chain.label(), ctxs[k].population);
                }
                SiteSolver {
                    site_idx,
                    net,
                    cpu,
                    disk,
                    log_disk,
                    tm,
                    delay,
                    scratch: MvaScratch::default(),
                    out: MvaSolution::empty(),
                }
            })
            .collect();
        let parallel = solvers
            .iter()
            .any(|sv| sv.net.lattice_size() >= PARALLEL_LATTICE_MIN);
        let n = ctxs.len();
        FixedPoint {
            params,
            opts,
            ctxs,
            threads: if parallel {
                opts.threads.clamp(1, solvers.len().max(1))
            } else {
                1
            },
            site_inflation: vec![(0.0, 0.0); solvers.len()],
            twin: vec![None; solvers.len()],
            solvers,
            traffic: TrafficScratch::default(),
            visits: (0..n).map(|_| VisitCounts::zero()).collect(),
            proposed: vec![[0.0; N_DAMPED]; n],
            chain_delta: vec![0.0; n],
            locks: Vec::with_capacity(n),
            lw_scratch: LockWaitScratch::default(),
            rlw_site: Vec::with_capacity(n),
            pd_dist: Vec::with_capacity(n),
        }
    }

    /// Aborts and visits: the per-lock abort hazard `p = Pb·Pd`, the
    /// fraction of locks held at an abort σ = E[Y]/N_lk (Eq. 11), the
    /// abort probability `P_a` (Eq. 3) from lock and remote aborts, the
    /// submissions per commit `N_s = 1/(1 − P_a)` (Eq. 4), and the visit
    /// counts of the chain's transition matrix (Eq. 1).
    fn aborts_and_visits(&mut self, st: &mut [ChainState]) {
        for (k, ctx) in self.ctxs.iter().enumerate() {
            let s = &mut st[k];
            let p = (s.damped[PB] * s.damped[PD]).clamp(0.0, 0.999_999);
            s.sigma = sigma(p, ctx.n_lk.max(1.0));
            let survive_locks = (1.0 - p).powf(ctx.n_lk);
            let survive_remote = match ctx.chain {
                ChainType::Droc | ChainType::Duc => (1.0 - s.damped[PRA]).powf(ctx.r),
                ChainType::Dros | ChainType::Dus => (1.0 - s.damped[PRA]).powf(ctx.l),
                _ => 1.0,
            };
            s.p_a = (1.0 - survive_locks * survive_remote).clamp(0.0, 0.95);
            s.n_s = 1.0 / (1.0 - s.p_a);
            transition_matrix(ctx, s).visit_counts_into(&mut self.traffic, &mut self.visits[k]);
        }
    }

    /// Demand assembly (Eqs. 5–10) and the per-site MVA: sets every chain's
    /// demands at its site's CPU, disk (and log disk), TM shadow center
    /// and delay center, solves every distinct site's closed network, and
    /// reads back each chain's throughput `X`, cycle time and successful
    /// execution time `R_s`, and each site's CPU and disk inflation.
    fn site_mva(&mut self, st: &mut [ChainState]) {
        let (params, opts, ctxs) = (self.params, self.opts, self.ctxs);
        for sv in &mut self.solvers {
            for (chain_id, &k) in sv.site_idx.iter().enumerate() {
                let ctx = &ctxs[k];
                let s = &mut st[k];
                let v = &self.visits[k];
                let costs = phase_costs(params, ctx, s.sigma);
                let d = demands(
                    params,
                    v,
                    &costs,
                    &DelayTimes {
                        lw: s.damped[R_LW],
                        rw: s.damped[R_RW],
                        cwc: s.damped[R_CWC],
                        cwa: s.damped[R_CWA],
                    },
                    s.n_s,
                );
                sv.net.set_demand(chain_id, sv.cpu, d.cpu);
                match sv.log_disk {
                    Some(log_c) => {
                        sv.net.set_demand(chain_id, sv.disk, d.disk);
                        sv.net.set_demand(chain_id, log_c, d.log);
                    }
                    None => {
                        // Shared device (the testbed's forced layout).
                        sv.net.set_demand(chain_id, sv.disk, d.disk + d.log);
                    }
                }
                sv.net.set_demand(chain_id, sv.delay, d.delay);
                if let Some(tm) = sv.tm {
                    // Shadow-server approximation of the serialised TM:
                    // all TM-phase CPU plus the forced commit write.
                    let tm_demand = s.n_s
                        * (v.get(Phase::Tm) * costs.cpu[Phase::Tm.idx()]
                            + v.get(Phase::Tc) * costs.cpu[Phase::Tc.idx()]
                            + v.get(Phase::Tcio) * costs.disk[Phase::Tcio.idx()]);
                    sv.net.set_demand(chain_id, tm, tm_demand);
                }
                s.ios_per_cycle = d.ios;
                s.log_ios_per_cycle = d.log_ios;
                s.cpu_demand = d.cpu;
                (s.disk_demand, s.log_demand) = if opts.separate_log_disk {
                    (d.disk, d.log)
                } else {
                    (d.disk + d.log, 0.0)
                };
            }
        }

        // Equal inputs give equal outputs: a site whose network has bit for
        // bit an earlier site's inputs takes that site's solution (DESIGN.md
        // §7, "Twin sites").
        for (i, sv) in self.solvers.iter().enumerate() {
            self.twin[i] = (0..i).find(|&j| self.solvers[j].net.same_inputs(&sv.net));
        }
        // The distinct sites are independent closed networks: solve them
        // concurrently when allowed and worthwhile. Each solve writes only
        // its own buffers with arithmetic identical to the sequential path,
        // so the results are bitwise equal for any thread count.
        let distinct = self
            .solvers
            .iter_mut()
            .zip(&self.twin)
            .filter_map(|(sv, twin)| twin.is_none().then_some(sv));
        if self.threads > 1 {
            let mut distinct: Vec<&mut SiteSolver> = distinct.collect();
            let per = distinct.len().div_ceil(self.threads);
            std::thread::scope(|scope| {
                for chunk in distinct.chunks_mut(per) {
                    scope.spawn(move || {
                        for sv in chunk {
                            sv.run();
                        }
                    });
                }
            });
        } else {
            distinct.for_each(|sv| sv.run());
        }
        for (i, twin) in self.twin.iter().enumerate() {
            if let Some(j) = *twin {
                let (solved, rest) = self.solvers.split_at_mut(i);
                rest[0].out.clone_from(&solved[j].out);
            }
        }

        for (site, sv) in self.solvers.iter().enumerate() {
            for (pos, &k) in sv.site_idx.iter().enumerate() {
                let s = &mut st[k];
                s.x = sv.out.throughput[pos];
                s.r_cycle = sv.out.response[pos];
                let think = s.n_s * params.think_time_ms;
                s.r_s = ((s.r_cycle - think) / (1.0 + (s.n_s - 1.0) * s.sigma)).max(1e-9);
            }
            self.site_inflation[site] = (
                inflation(sv.out.utilization[sv.cpu]),
                inflation(sv.out.utilization[sv.disk]),
            );
        }
    }

    /// Lock contention (Eqs. 14–20), site by site: each chain's
    /// time-average locks held `L_h` (Eq. 14) and blocked-time fraction,
    /// then the proposed `Pb` (Eq. 15), `Pd` (two-cycle victims over the
    /// Eq. 17 blocked-by distribution, DESIGN.md §6) and `R_LW` (Eqs.
    /// 18–20, solved simultaneously for the site's chains).
    fn lock_contention(&mut self, st: &mut [ChainState]) {
        let (params, opts, ctxs) = (self.params, self.opts, self.ctxs);
        for sv in &self.solvers {
            for &k in &sv.site_idx {
                let ctx = &ctxs[k];
                let s = &mut st[k];
                s.l_h = locks_held(ctx.n_lk, s.sigma, s.p_a, s.r_s, params.think_time_ms);
                s.blocked_frac = if s.r_cycle > 0.0 {
                    (s.n_s * ctx.n_lk * s.damped[PB] * s.damped[R_LW] / s.r_cycle).clamp(0.0, 0.9)
                } else {
                    0.0
                };
            }
            self.locks.clear();
            self.locks.extend(sv.site_idx.iter().map(|&k| {
                let s = &st[k];
                let v = &self.visits[k];
                // B(t): the wait-free part of R_s — what the blocker
                // actually *does* while holding locks. Both the lock-wait
                // echo (same site) and the remote-wait echo (other site's
                // lock waits reflected through RW gaps) are removed;
                // without this the cross-site R_LW loop is slowly
                // supercritical and the iteration drifts into an
                // unphysical thrashing solution. B is anchored to the pure
                // service content per execution: at least 1× (can't be
                // faster than service), at most 6× (bounded queueing
                // inflation at sub-saturation utilizations).
                let lw_content = ctxs[k].n_lk * s.damped[PB] * s.damped[R_LW];
                let rw_cw_content =
                    v.get(Phase::Rw) * s.damped[R_RW] + v.get(Phase::Cwc) * s.damped[R_CWC];
                let service = (s.cpu_demand + s.disk_demand) / s.n_s;
                let useful =
                    (s.r_s - lw_content - rw_cw_content).clamp(service, 6.0 * service.max(1e-9));
                ChainLockState {
                    chain: ctxs[k].chain,
                    population: ctxs[k].population as f64,
                    l_h: s.l_h,
                    n_lk: ctxs[k].n_lk,
                    blocked_frac: s.blocked_frac,
                    r_s: s.r_s,
                    useful,
                    pb: s.damped[PB],
                    pd: s.damped[PD],
                }
            }));
            lock_wait_times_consistent_into(
                &self.locks,
                opts.all_locks_exclusive,
                opts.fixed_br,
                &mut self.lw_scratch,
                &mut self.rlw_site,
            );
            for (pos, &k) in sv.site_idx.iter().enumerate() {
                let p = &mut self.proposed[k];
                p[PB] = blocking_probability(
                    ctxs[k].chain,
                    &self.locks,
                    params.effective_granules(),
                    opts.all_locks_exclusive,
                );
                p[PD] = if opts.ignore_deadlocks {
                    0.0
                } else {
                    deadlock_probability_scratch(
                        pos,
                        &self.locks,
                        opts.all_locks_exclusive,
                        &mut self.pd_dist,
                    )
                };
                p[R_LW] = self.rlw_site[pos];
            }
        }
    }

    /// Distributed delays (Eqs. 21–24): for every coordinator and slave
    /// chain, the proposed remote wait `R_RW`, commit waits `R_CWC` and
    /// `R_CWA`, and remote-abort probability `Pra`, read off its partner
    /// chains at the other sites and their sites' queueing inflation.
    /// `R_CWA` is one round trip (2α); `R_CWC` adds the slowest partner's
    /// commit processing to two round trips for a coordinator and one for
    /// a slave. Local chains, and chains without partners, propose zeros.
    fn distributed_delays(&mut self, st: &[ChainState]) {
        let (params, ctxs) = (self.params, self.ctxs);
        let alpha = params.comm_delay_ms;
        for (k, ctx) in ctxs.iter().enumerate() {
            let p = &mut self.proposed[k];
            (p[R_RW], p[R_CWC], p[R_CWA], p[PRA]) = (0.0, 0.0, 0.0, 0.0);
            let Some(partner) = ctx.chain.counterpart() else {
                continue;
            };
            let slave = ctx.chain.is_slave();
            let mut rw_sum = 0.0;
            let mut cw_max: f64 = 0.0;
            let mut survive = 1.0;
            let mut partners = 0.0;
            for (j, pc) in ctxs.iter().enumerate() {
                if pc.chain != partner || pc.site == ctx.site {
                    continue;
                }
                let ps = &st[j];
                let (infl_cpu, infl_disk) = self.site_inflation[pc.site];
                let commit_io = params.basic.commit_ios(partner) as f64
                    * params.nodes[pc.site].disk_io_ms
                    * infl_disk;
                if slave {
                    // `pc` is a coordinator this slave serves. Its gap
                    // between remote requests, and its commit decision
                    // (half its TC CPU plus its forced commit write).
                    let decision = params.basic.tc_cpu(partner) / 2.0 * infl_cpu + commit_io;
                    let gap = ((ps.r_s - pc.r * ps.damped[R_RW] - ps.damped[R_CWC])
                        / pc.r.max(1.0))
                    .max(0.0);
                    rw_sum += gap + 2.0 * alpha;
                    cw_max = cw_max.max(2.0 * alpha + decision);
                    // Coordinator-side aborts per slave wait: the
                    // coordinator acquires N_lk(c)/r locks per gap.
                    survive *= (1.0 - ps.damped[PB] * ps.damped[PD]).powf(pc.n_lk / pc.r.max(1.0));
                } else {
                    // `pc` is a slave of this coordinator: its time
                    // actively serving one remote request is its
                    // successful execution minus its own waits and commit
                    // processing, per request.
                    let commit = params.basic.tc_cpu(partner) * infl_cpu + commit_io;
                    rw_sum += ((ps.r_s - pc.l * ps.damped[R_RW] - commit) / pc.l).max(0.0);
                    cw_max = cw_max.max(commit);
                    survive *= (1.0 - ps.damped[PB] * ps.damped[PD]).powf(pc.q);
                }
                partners += 1.0;
            }
            if partners > 0.0 {
                (p[R_RW], p[R_CWC]) = if slave {
                    (rw_sum / partners, cw_max)
                } else {
                    (2.0 * alpha + rw_sum / partners, 4.0 * alpha + cw_max)
                };
                p[R_CWA] = 2.0 * alpha;
                p[PRA] = 1.0 - survive;
            }
        }
    }

    /// The damped update `x ← λ·proposed + (1 − λ)·x` ([`DAMPING`]) of
    /// every chain's damped quantities, the step of the paper's §6 fixed
    /// point iteration. Records each chain's residual and
    /// returns their maximum. Convergence is judged on the *undamped* step
    /// `|proposed − x| / (1 + |proposed|)`: the damped move is smaller by
    /// the factor λ and would declare convergence a factor 1/λ too early.
    fn damped_update(&mut self, st: &mut [ChainState]) -> f64 {
        let mut delta: f64 = 0.0;
        for ((s, proposed), kdelta) in st.iter_mut().zip(&self.proposed).zip(&mut self.chain_delta)
        {
            *kdelta = 0.0;
            for (old, &new) in s.damped.iter_mut().zip(proposed) {
                *kdelta = kdelta.max((new - *old).abs() / (1.0 + new.abs()));
                *old = DAMPING * new + (1.0 - DAMPING) * *old;
            }
            delta = delta.max(*kdelta);
        }
        delta
    }
}

/// The analytical model of the CARAT testbed.
pub struct Model {
    cfg: ModelConfig,
    opts: ModelOptions,
}

impl Model {
    /// Model with default solver options.
    pub fn new(cfg: ModelConfig) -> Self {
        Model {
            cfg,
            opts: ModelOptions::default(),
        }
    }

    /// Model with explicit options (ablations, solver knobs).
    pub fn with_options(cfg: ModelConfig, opts: ModelOptions) -> Self {
        Model { cfg, opts }
    }

    /// Runs the fixed-point iteration and returns the predictions.
    pub fn solve(&self) -> ModelReport {
        self.solve_warm(None).0
    }

    /// Like [`Model::solve`], but optionally seeds the iteration from a
    /// neighboring point's converged state and returns this point's own
    /// converged state for further chaining. `ConvergenceInfo::warm_started`
    /// records whether the seed was actually used (an incompatible or
    /// absent seed falls back to the cold start).
    pub fn solve_warm(&self, warm: Option<&WarmStart>) -> (ModelReport, WarmStart) {
        self.solve_logged(warm, None)
    }

    /// Like [`Model::solve_warm`], but additionally appends one [`IterRow`]
    /// per chain per fixed-point iteration to `log`: the undamped residual
    /// and the post-damping `Pb`, `Pd`, `L_h`, `R_LW`, `R_RW`, `R_CW` —
    /// the trajectory of Eqs. 11–24. The last logged iteration number and
    /// residual equal the returned `ConvergenceInfo` exactly. Passing
    /// `None` is free: the iteration loop does no logging work at all.
    pub fn solve_logged(
        &self,
        warm: Option<&WarmStart>,
        mut log: Option<&mut IterLog>,
    ) -> (ModelReport, WarmStart) {
        let ctxs = chain_contexts(&self.cfg.params, &self.cfg.workload, self.cfg.n_requests);
        let keys: Vec<(usize, ChainType)> = ctxs.iter().map(|c| (c.site, c.chain)).collect();
        let warm_st = warm.filter(|w| w.keys == keys);
        let mut st: Vec<ChainState> = match warm_st {
            Some(w) => w.st.clone(),
            None => ctxs
                .iter()
                .map(|_| ChainState {
                    n_s: 1.0,
                    sigma: 0.5,
                    ..ChainState::default()
                })
                .collect(),
        };
        let mut fp = FixedPoint::new(&self.cfg.params, &self.opts, &ctxs);
        let mut accel = match self.opts.accel {
            Accel::Off => None,
            Accel::Anderson => Some(AccelEngine::new(&st)),
        };

        let mut iterations = 0;
        let mut converged = false;
        let mut residual = f64::INFINITY;
        for iter in 0..MAX_ITER {
            iterations = iter + 1;
            fp.aborts_and_visits(&mut st);
            fp.site_mva(&mut st);
            fp.lock_contention(&mut st);
            fp.distributed_delays(&st);
            residual = fp.damped_update(&mut st);
            // `restored` marks an iteration whose step was thrown away
            // because the preceding accelerated step made the residual
            // grow; its residual does not count toward convergence.
            let (marker, restored) = match accel.as_mut() {
                Some(eng) => eng.step(&mut st, residual, iterations, self.opts.tol),
                None => ("", false),
            };
            if let Some(log) = log.as_deref_mut() {
                // Post-update state: what the next iteration starts from
                // (and, on the final iteration, exactly the converged state
                // the report is packaged from). `l_h` is this iteration's
                // contention value; the residual column is the chain's own
                // pre-damping step (see `IterRow::residual`).
                for (k, ctx) in ctxs.iter().enumerate() {
                    let s = &st[k];
                    log.push(IterRow {
                        iter: iterations,
                        site: ctx.site,
                        chain: ctx.chain.label().to_string(),
                        residual: fp.chain_delta[k],
                        pb: s.damped[PB],
                        pd: s.damped[PD],
                        l_h: s.l_h,
                        r_lw: s.damped[R_LW],
                        r_rw: s.damped[R_RW],
                        r_cw: s.damped[R_CWC],
                        accel: marker,
                    });
                }
            }
            if !restored && residual < self.opts.tol {
                converged = true;
                break;
            }
        }

        let (accel_accepted, accel_rejected) = accel
            .as_ref()
            .map(|e| (e.accepted, e.rejected))
            .unwrap_or((0, 0));
        let report = self.package(
            &ctxs,
            &st,
            ConvergenceInfo {
                converged,
                iterations,
                residual,
                warm_started: warm_st.is_some(),
                accel_accepted,
                accel_rejected,
            },
        );
        (report, WarmStart { keys, st })
    }

    fn package(
        &self,
        ctxs: &[ChainCtx],
        st: &[ChainState],
        convergence: ConvergenceInfo,
    ) -> ModelReport {
        let params = &self.cfg.params;
        let mut nodes = Vec::new();
        for site in 0..params.sites() {
            let mut per_type: BTreeMap<TxType, ModelTypeReport> = BTreeMap::new();
            let mut per_chain = Vec::new();
            let mut tx_per_s = 0.0;
            let mut records_per_s = 0.0;
            let mut cpu_u = 0.0;
            let mut disk_u = 0.0;
            let mut log_u = 0.0;
            let mut dio = 0.0;
            for (k, ctx) in ctxs.iter().enumerate() {
                if ctx.site != site {
                    continue;
                }
                let s = &st[k];
                // MVA throughput is already the chain total (all N(t, i)
                // customers), in cycles per ms.
                cpu_u += s.x * s.cpu_demand;
                disk_u += s.x * s.disk_demand;
                log_u += s.x * s.log_demand;
                dio += s.x * (s.ios_per_cycle + s.log_ios_per_cycle) * 1000.0;

                // Final-state phase decomposition (service content per
                // commit cycle) for comparison with the simulator's
                // measured residence.
                let v = transition_matrix(ctx, s).visit_counts();
                let costs = phase_costs(params, ctx, s.sigma);
                let mut phase_ms = std::collections::BTreeMap::new();
                for ph in Phase::ALL {
                    let service = costs.cpu[ph.idx()] + costs.disk[ph.idx()] + costs.log[ph.idx()];
                    let delay = match ph {
                        Phase::Lw => s.damped[R_LW],
                        Phase::Rw => s.damped[R_RW],
                        Phase::Cwc => s.damped[R_CWC],
                        Phase::Cwa => s.damped[R_CWA],
                        Phase::Ut => params.think_time_ms,
                        _ => 0.0,
                    };
                    let total = s.n_s * v.get(ph) * (service + delay);
                    if total > 1e-9 {
                        phase_ms.insert(ph.label(), total);
                    }
                }

                let rep = ModelTypeReport {
                    phase_ms,
                    xput_per_s: s.x * 1000.0,
                    response_ms: s.r_cycle,
                    n_s: s.n_s,
                    pb: s.damped[PB],
                    pd: s.damped[PD],
                    p_a: s.p_a,
                    l_h: s.l_h,
                    r_lw_ms: s.damped[R_LW],
                };
                per_chain.push((ctx.chain, rep.clone()));
                if !ctx.chain.is_slave() {
                    // User-visible throughput: local chains and coordinators
                    // are homed here.
                    tx_per_s += rep.xput_per_s;
                    records_per_s += rep.xput_per_s * ctx.n * params.records_per_request as f64;
                    per_type.insert(ctx.chain.user_type(), rep);
                }
            }
            nodes.push(ModelNodeReport {
                name: params.nodes[site].name.clone(),
                cpu_util: cpu_u,
                disk_util: disk_u,
                log_disk_util: log_u,
                dio_per_s: dio,
                tx_per_s,
                records_per_s,
                per_type,
                per_chain,
            });
        }
        ModelReport { nodes, convergence }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::StandardWorkload;

    /// Runs the default solve of MB8 at n = 8 iteration by iteration and
    /// checks the twin map after every MVA pass.
    fn assert_twins_every_iteration(sites: usize, want: &[Option<usize>]) {
        let params = SystemParams::with_sites(sites);
        let workload = StandardWorkload::Mb8.spec(sites);
        let opts = ModelOptions::default();
        let ctxs = chain_contexts(&params, &workload, 8);
        let mut st: Vec<ChainState> = ctxs
            .iter()
            .map(|_| ChainState {
                n_s: 1.0,
                sigma: 0.5,
                ..ChainState::default()
            })
            .collect();
        let mut fp = FixedPoint::new(&params, &opts, &ctxs);
        let mut accel = AccelEngine::new(&st);
        for iterations in 1..=MAX_ITER {
            fp.aborts_and_visits(&mut st);
            fp.site_mva(&mut st);
            assert_eq!(fp.twin, want, "{sites} sites, iteration {iterations}");
            fp.lock_contention(&mut st);
            fp.distributed_delays(&st);
            let residual = fp.damped_update(&mut st);
            let (_, restored) = accel.step(&mut st, residual, iterations, opts.tol);
            if !restored && residual < opts.tol {
                return;
            }
        }
        panic!("{sites} sites: no convergence");
    }

    #[test]
    fn site_c_twins_site_a_at_three_sites() {
        assert_twins_every_iteration(3, &[None, None, Some(0)]);
    }

    #[test]
    fn no_site_twins_another_at_two_sites() {
        assert_twins_every_iteration(2, &[None, None]);
    }
}
