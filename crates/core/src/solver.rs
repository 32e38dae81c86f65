//! The fixed-point solution procedure (paper §6).
//!
//! Each iteration: update abort probabilities and visit counts, assemble
//! service demands, solve every site's closed multi-chain network by MVA,
//! then refresh the contention quantities (`L_h`, `Pb`, `Pd`, `R_LW`) and
//! the distributed synchronization delays (`R_RW`, `R_CW`, `Pra`) from the
//! MVA results. Updates are damped because the `Pb ↔ L_h ↔ R` loop
//! oscillates at high contention.

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
/// contention state vector (`Pb`, `Pd`, `R_LW`, `R_RW`, `R_CWC`, `R_CWA`,
/// `Pra`) and is safeguarded: a candidate that leaves the [0, 1] /
/// positivity bounds is discarded before being applied, and an applied
/// step whose follow-up residual grows is rolled back to the plain damped
/// iterate (with a short cooldown). `Off` is byte-identical to the
/// unaccelerated solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accel {
    /// Plain damped iteration (the default).
    #[default]
    Off,
    /// Anderson mixing with history depth [`DEFAULT_ANDERSON_DEPTH`]: each
    /// step combines the last `m + 1` iterates through a small regularised
    /// least-squares problem over their residuals.
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
    /// Damping factor λ for state updates (new = λ·computed + (1−λ)·old).
    pub damping: f64,
    /// Convergence tolerance on the damped state.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Outer-loop acceleration (see [`Accel`]; `Off` keeps the solve
    /// byte-identical to the plain damped iteration).
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
            damping: 0.5,
            tol: 1e-9,
            max_iter: 400,
            accel: Accel::Off,
            ignore_deadlocks: false,
            all_locks_exclusive: false,
            fixed_br: None,
            model_tm_serialization: false,
            separate_log_disk: false,
            threads: 1,
        }
    }
}

/// Mutable per-chain solver state.
#[derive(Debug, Clone, Default)]
struct ChainState {
    pb: f64,
    pd: f64,
    pra: f64,
    r_lw: f64,
    r_rw: f64,
    r_cwc: f64,
    r_cwa: f64,
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

/// Number of accelerated state quantities per chain — the damped state
/// vector in update order: `Pb`, `Pd`, `R_LW`, `R_RW`, `R_CWC`, `R_CWA`,
/// `Pra`.
const ACCEL_FIELDS: usize = 7;

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
/// `1/λ` (with λ = 0.5, [`ModelOptions::damping`]'s default — acceleration
/// bakes this in rather than reading the option because a non-default λ is
/// an ablation knob, and a mis-scaled candidate is merely less effective,
/// never wrong: the safeguards below still screen it).
const INV_DAMP: f64 = 2.0;

/// Retro-check grace: an applied accelerated step is kept as long as the
/// follow-up residual stays below this multiple of the residual at the
/// moment the step was taken. Anderson iterates are not monotone — a
/// transient bump of a near-converged component is normal — and rejecting
/// on any increase costs a rollback plus cooldown; the bounded grace keeps
/// the non-monotone steps that still contract over two iterations.
const ANDERSON_GRACE: f64 = 2.0;

/// History pairs kept: Anderson(m) mixes the last m + 1.
const ANDERSON_HISTORY: usize = DEFAULT_ANDERSON_DEPTH + 1;

/// Safeguarded Anderson accelerator over the flattened contention state
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
        let dim = st.len() * ACCEL_FIELDS;
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

    /// Flattens the damped state quantities of every chain into `out`.
    fn extract(st: &[ChainState], out: &mut [f64]) {
        for (k, s) in st.iter().enumerate() {
            let b = k * ACCEL_FIELDS;
            out[b] = s.pb;
            out[b + 1] = s.pd;
            out[b + 2] = s.r_lw;
            out[b + 3] = s.r_rw;
            out[b + 4] = s.r_cwc;
            out[b + 5] = s.r_cwa;
            out[b + 6] = s.pra;
        }
    }

    /// Writes the candidate back into the chain states.
    fn inject_candidate(&self, st: &mut [ChainState]) {
        for (k, s) in st.iter_mut().enumerate() {
            let b = k * ACCEL_FIELDS;
            s.pb = self.cand[b];
            s.pd = self.cand[b + 1];
            s.r_lw = self.cand[b + 2];
            s.r_rw = self.cand[b + 3];
            s.r_cwc = self.cand[b + 4];
            s.r_cwa = self.cand[b + 5];
            s.pra = self.cand[b + 6];
        }
    }

    /// Records the completed plain step `x_prev → st` as a history pair
    /// and rolls `x_prev` forward.
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

    /// Forgets the Picard history (after a rollback, the stored pairs no
    /// longer describe consecutive steps).
    fn clear_history(&mut self) {
        self.hist_x.clear();
        self.hist_f.clear();
    }

    /// Rolls `x_prev` forward to the state the next iteration starts from
    /// (damped, restored, or accelerated — whatever `st` holds now).
    fn roll(&mut self, st: &[ChainState]) {
        Self::extract(st, &mut self.x_prev);
    }

    /// Builds an extrapolated candidate in `self.cand` from the current
    /// history. Returns `false` when the history is too short or the
    /// extrapolation is numerically unusable; `true` means `cand` holds a
    /// candidate that differs from the plain damped iterate.
    fn try_candidate(&mut self) -> bool {
        if self.hist_x.len() < 2 || !self.anderson_candidate() {
            return false;
        }
        // A candidate equal to the damped iterate would make the pending
        // bookkeeping a pure no-op; skip it.
        self.cand.iter().zip(&self.x_curr).any(|(c, x)| c != x)
    }

    /// Anderson mixing (type II) over the stored pairs: solve the
    /// regularised normal equations
    /// `(ΔFᵀΔF + εI) γ = ΔFᵀ f_last` (γ is invariant under uniform
    /// rescaling of the residuals) and extrapolate on the undamped
    /// residuals `f/λ` (see [`INV_DAMP`]):
    /// `x* = x_last + f_last/λ − Σ γᵢ (ΔXᵢ + ΔFᵢ/λ)`.
    fn anderson_candidate(&mut self) -> bool {
        let k = self.hist_f.len();
        let cols = k - 1;
        let dim = self.cand.len();
        let f_last = &self.hist_f[k - 1];
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let df = |i: usize, c: usize| self.hist_f[i + 1][c] - self.hist_f[i][c];
        let dx = |i: usize, c: usize| self.hist_x[i + 1][c] - self.hist_x[i][c];
        let mut g = vec![0.0f64; cols * cols];
        let mut rhs = vec![0.0f64; cols];
        let mut dfi = vec![0.0f64; dim];
        let mut dfj = vec![0.0f64; dim];
        for i in 0..cols {
            for (c, v) in dfi.iter_mut().enumerate() {
                *v = df(i, c);
            }
            for j in 0..cols {
                for (c, v) in dfj.iter_mut().enumerate() {
                    *v = df(j, c);
                }
                g[i * cols + j] = dot(&dfi, &dfj);
            }
            rhs[i] = dot(&dfi, f_last);
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
        true
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
            match i % ACCEL_FIELDS {
                0 | 1 | 6 => (0.0..=1.0).contains(&v), // Pb, Pd, Pra
                _ => v >= 0.0,                         // residence times
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
        let params = &self.cfg.params;
        let ctxs = chain_contexts(params, &self.cfg.workload, self.cfg.n_requests);
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

        let mut iterations = 0;
        let mut converged = false;
        let mut residual = f64::INFINITY;
        let lam = self.opts.damping;
        // (CPU, disk) utilization per site, refreshed by each MVA pass.
        let mut site_util = vec![(0.0f64, 0.0f64); params.sites()];

        // Per-site networks + MVA buffers, built once and reused across
        // iterations (topology and populations are fixed; only demands
        // change), keeping the iteration loop allocation-free.
        let mut solvers: Vec<SiteSolver> = (0..params.sites())
            .map(|site| {
                let site_idx: Vec<usize> =
                    (0..ctxs.len()).filter(|&k| ctxs[k].site == site).collect();
                let mut net = Network::new();
                let cpu = net.add_center("CPU", CenterKind::Queueing);
                let disk = net.add_center("DISK", CenterKind::Queueing);
                let log_disk = if self.opts.separate_log_disk {
                    Some(net.add_center("LOG", CenterKind::Queueing))
                } else {
                    None
                };
                let tm = if self.opts.model_tm_serialization {
                    Some(net.add_center("TM", CenterKind::Queueing))
                } else {
                    None
                };
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
        let threads = self.opts.threads.max(1).min(solvers.len().max(1));
        let parallel_sites = threads > 1
            && solvers
                .iter()
                .map(|sv| sv.net.lattice_size())
                .max()
                .unwrap_or(0)
                >= PARALLEL_LATTICE_MIN;

        // Hoisted per-iteration buffers: the whole fixed-point loop runs
        // allocation-free (the traffic-equation solve, the contention
        // linear system, and the proposed-update vectors all reuse these).
        let n_chains = ctxs.len();
        let mut traffic_scratch = TrafficScratch::default();
        let mut visits: Vec<VisitCounts> = (0..n_chains).map(|_| VisitCounts::zero()).collect();
        let mut new_pb = vec![0.0; n_chains];
        let mut new_pd = vec![0.0; n_chains];
        let mut new_rlw = vec![0.0; n_chains];
        let mut new_rrw = vec![0.0; n_chains];
        let mut new_cwc = vec![0.0; n_chains];
        let mut new_cwa = vec![0.0; n_chains];
        let mut new_pra = vec![0.0; n_chains];
        let mut chain_delta = vec![0.0; n_chains];
        let mut states: Vec<ChainLockState> = Vec::with_capacity(n_chains);
        let mut lw_scratch = LockWaitScratch::default();
        let mut rlw_site: Vec<f64> = Vec::with_capacity(n_chains);
        let mut pd_dist: Vec<f64> = Vec::with_capacity(n_chains);
        let mut accel = match self.opts.accel {
            Accel::Off => None,
            Accel::Anderson => Some(AccelEngine::new(&st)),
        };

        for iter in 0..self.opts.max_iter {
            iterations = iter + 1;

            // --- Phase/visit/demand assembly -------------------------------
            for (k, ctx) in ctxs.iter().enumerate() {
                let s = &mut st[k];
                let p = (s.pb * s.pd).clamp(0.0, 0.999_999);
                s.sigma = sigma(p, ctx.n_lk.max(1.0));
                let survive_locks = (1.0 - p).powf(ctx.n_lk);
                let survive_remote = match ctx.chain {
                    ChainType::Droc | ChainType::Duc => (1.0 - s.pra).powf(ctx.r),
                    ChainType::Dros | ChainType::Dus => (1.0 - s.pra).powf(ctx.l),
                    _ => 1.0,
                };
                s.p_a = (1.0 - survive_locks * survive_remote).clamp(0.0, 0.95);
                s.n_s = 1.0 / (1.0 - s.p_a);

                let hz = Hazards {
                    pb: s.pb,
                    pd: s.pd,
                    pra: s.pra,
                };
                let m = if ctx.chain.is_slave() {
                    TransitionMatrix::slave(ctx.l, ctx.q, hz)
                } else {
                    TransitionMatrix::local_or_coordinator(ctx.n, ctx.l, ctx.r, ctx.q, hz)
                };
                m.visit_counts_into(&mut traffic_scratch, &mut visits[k]);
            }

            // --- Per-site MVA ----------------------------------------------
            // Refresh the demands of every site's (pre-built) network.
            for sv in &mut solvers {
                for (chain_id, &k) in sv.site_idx.iter().enumerate() {
                    let ctx = &ctxs[k];
                    let s = &st[k];
                    let costs = phase_costs(params, ctx, s.sigma);
                    let d = demands(
                        params,
                        &visits[k],
                        &costs,
                        &DelayTimes {
                            lw: s.r_lw,
                            rw: s.r_rw,
                            cwc: s.r_cwc,
                            cwa: s.r_cwa,
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
                        let v = &visits[k];
                        let tm_demand = s.n_s
                            * (v.get(Phase::Tm) * costs.cpu[Phase::Tm.idx()]
                                + v.get(Phase::Tc) * costs.cpu[Phase::Tc.idx()]
                                + v.get(Phase::Tcio) * costs.disk[Phase::Tcio.idx()]);
                        sv.net.set_demand(chain_id, tm, tm_demand);
                    }
                    let s = &mut st[k];
                    s.ios_per_cycle = d.ios;
                    s.log_ios_per_cycle = d.log_ios;
                    s.cpu_demand = d.cpu;
                    s.disk_demand = if self.opts.separate_log_disk {
                        d.disk
                    } else {
                        d.disk + d.log
                    };
                    s.log_demand = if self.opts.separate_log_disk {
                        d.log
                    } else {
                        0.0
                    };
                }
            }

            // Sites are independent closed networks: solve them
            // concurrently when allowed and worthwhile. Each solve writes
            // only its own buffers with arithmetic identical to the
            // sequential path, so the results are bitwise equal for any
            // thread count.
            if parallel_sites {
                let per = solvers.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    for chunk in solvers.chunks_mut(per) {
                        scope.spawn(move || {
                            for sv in chunk {
                                sv.run();
                            }
                        });
                    }
                });
            } else {
                for sv in &mut solvers {
                    sv.run();
                }
            }

            for (site, sv) in solvers.iter().enumerate() {
                for (pos, &k) in sv.site_idx.iter().enumerate() {
                    let s = &mut st[k];
                    s.x = sv.out.throughput[pos];
                    s.r_cycle = sv.out.response[pos];
                    let think = s.n_s * params.think_time_ms;
                    s.r_s = ((s.r_cycle - think) / (1.0 + (s.n_s - 1.0) * s.sigma)).max(1e-9);
                }

                // Stash site utilizations for the delay updates below.
                site_util[site] = (sv.out.utilization[sv.cpu], sv.out.utilization[sv.disk]);
            }

            // --- Contention updates ----------------------------------------
            for solver in solvers.iter().take(params.sites()) {
                let site_idx = &solver.site_idx;
                // L_h and blocked-time fractions first.
                for &k in site_idx {
                    let ctx = &ctxs[k];
                    let s = &mut st[k];
                    s.l_h = locks_held(ctx.n_lk, s.sigma, s.p_a, s.r_s, params.think_time_ms);
                    s.blocked_frac = if s.r_cycle > 0.0 {
                        (s.n_s * ctx.n_lk * s.pb * s.r_lw / s.r_cycle).clamp(0.0, 0.9)
                    } else {
                        0.0
                    };
                }
                states.clear();
                states.extend(site_idx.iter().map(|&k| {
                    let s = &st[k];
                    // B(t): the wait-free part of R_s — what the blocker
                    // actually *does* while holding locks. Both the
                    // lock-wait echo (same site) and the remote-wait echo
                    // (other site's lock waits reflected through RW gaps)
                    // are removed; without this the cross-site R_LW loop
                    // is slowly supercritical and the iteration drifts
                    // into an unphysical thrashing solution. B is anchored
                    // to the pure service content per execution: at least
                    // 1× (can't be faster than service), at most 6×
                    // (bounded queueing inflation at sub-saturation
                    // utilizations).
                    let lw_content = ctxs[k].n_lk * s.pb * s.r_lw;
                    let rw_cw_content =
                        visits[k].get(Phase::Rw) * s.r_rw + visits[k].get(Phase::Cwc) * s.r_cwc;
                    let service = (s.cpu_demand + s.disk_demand) / s.n_s;
                    let useful = (s.r_s - lw_content - rw_cw_content)
                        .clamp(service, 6.0 * service.max(1e-9));
                    ChainLockState {
                        chain: ctxs[k].chain,
                        population: ctxs[k].population as f64,
                        l_h: s.l_h,
                        n_lk: ctxs[k].n_lk,
                        blocked_frac: s.blocked_frac,
                        r_s: s.r_s,
                        useful,
                        pb: s.pb,
                        pd: s.pd,
                    }
                }));
                lock_wait_times_consistent_into(
                    &states,
                    self.opts.all_locks_exclusive,
                    self.opts.fixed_br,
                    &mut lw_scratch,
                    &mut rlw_site,
                );
                for (pos, &k) in site_idx.iter().enumerate() {
                    new_pb[k] = blocking_probability(
                        ctxs[k].chain,
                        &states,
                        params.effective_granules(),
                        self.opts.all_locks_exclusive,
                    );
                    new_pd[k] = if self.opts.ignore_deadlocks {
                        0.0
                    } else {
                        deadlock_probability_scratch(
                            pos,
                            &states,
                            self.opts.all_locks_exclusive,
                            &mut pd_dist,
                        )
                    };
                    new_rlw[k] = rlw_site[pos];
                }
            }

            // --- Distributed delays (Eqs. 21–24 + CW) ----------------------
            let alpha = params.comm_delay_ms;
            new_rrw.fill(0.0);
            new_cwc.fill(0.0);
            new_cwa.fill(0.0);
            new_pra.fill(0.0);
            for k in 0..ctxs.len() {
                let ctx = &ctxs[k];
                match ctx.chain {
                    ChainType::Droc | ChainType::Duc => {
                        let sc = ctx.chain.counterpart().expect("coordinator");
                        let mut active_sum = 0.0;
                        let mut commit_max: f64 = 0.0;
                        let mut pra_survive = 1.0;
                        let mut n_slaves = 0.0;
                        for (j, sl) in ctxs.iter().enumerate() {
                            if sl.chain != sc || sl.site == ctx.site {
                                continue;
                            }
                            let ss = &st[j];
                            let (u_cpu, u_disk) = site_util[sl.site];
                            let infl_cpu = (1.0 / (1.0 - u_cpu.min(0.95))).min(5.0);
                            let infl_disk = (1.0 / (1.0 - u_disk.min(0.95))).min(5.0);
                            let commit_part = params.basic.tc_cpu(sc) * infl_cpu
                                + params.basic.commit_ios(sc) as f64
                                    * params.nodes[sl.site].disk_io_ms
                                    * infl_disk;
                            // Slave time actively serving one remote request:
                            // its successful execution minus its own waits
                            // and commit processing, per request.
                            let active =
                                ((ss.r_s - visits_rw_estimate(sl) * ss.r_rw - commit_part) / sl.l)
                                    .max(0.0);
                            active_sum += active;
                            commit_max = commit_max.max(commit_part);
                            pra_survive *= (1.0 - ss.pb * ss.pd).powf(sl.q);
                            n_slaves += 1.0;
                        }
                        if n_slaves > 0.0 {
                            new_rrw[k] = 2.0 * alpha + active_sum / n_slaves;
                            new_cwc[k] = 4.0 * alpha + commit_max;
                            new_cwa[k] = 2.0 * alpha;
                            new_pra[k] = 1.0 - pra_survive;
                        }
                    }
                    ChainType::Dros | ChainType::Dus => {
                        let cc = ctx.chain.counterpart().expect("slave");
                        // The coordinator(s) this slave serves live at the
                        // other sites.
                        let mut gap_sum = 0.0;
                        let mut cwc_max: f64 = 0.0;
                        let mut pra_survive = 1.0;
                        let mut n_coord = 0.0;
                        for (j, co) in ctxs.iter().enumerate() {
                            if co.chain != cc || co.site == ctx.site {
                                continue;
                            }
                            let cs = &st[j];
                            let (u_cpu, u_disk) = site_util[co.site];
                            let infl_cpu = (1.0 / (1.0 - u_cpu.min(0.95))).min(5.0);
                            let infl_disk = (1.0 / (1.0 - u_disk.min(0.95))).min(5.0);
                            let decision = params.basic.tc_cpu(cc) / 2.0 * infl_cpu
                                + params.basic.commit_ios(cc) as f64
                                    * params.nodes[co.site].disk_io_ms
                                    * infl_disk;
                            let gap =
                                ((cs.r_s - co.r * cs.r_rw - cs.r_cwc) / co.r.max(1.0)).max(0.0);
                            gap_sum += gap + 2.0 * alpha;
                            cwc_max = cwc_max.max(2.0 * alpha + decision);
                            // Coordinator-side aborts per slave wait: the
                            // coordinator acquires N_lk(c)/r locks per gap.
                            pra_survive *= (1.0 - cs.pb * cs.pd).powf(co.n_lk / co.r.max(1.0));
                            n_coord += 1.0;
                        }
                        if n_coord > 0.0 {
                            new_rrw[k] = gap_sum / n_coord;
                            new_cwc[k] = cwc_max;
                            new_cwa[k] = 2.0 * alpha;
                            new_pra[k] = 1.0 - pra_survive;
                        }
                    }
                    _ => {}
                }
            }

            // --- Damped state update + convergence check -------------------
            let mut delta: f64 = 0.0;
            for k in 0..ctxs.len() {
                let s = &mut st[k];
                let mut kdelta: f64 = 0.0;
                let mut upd = |old: &mut f64, new: f64| {
                    // Judge convergence on the *undamped* step. The damped
                    // move `|v − old| = λ·|new − old|` under-states the
                    // distance from the fixed point by the damping factor,
                    // which declared convergence a factor 1/λ too early.
                    kdelta = kdelta.max((new - *old).abs() / (1.0 + new.abs()));
                    *old = lam * new + (1.0 - lam) * *old;
                };
                upd(&mut s.pb, new_pb[k]);
                upd(&mut s.pd, new_pd[k]);
                upd(&mut s.r_lw, new_rlw[k]);
                upd(&mut s.r_rw, new_rrw[k]);
                upd(&mut s.r_cwc, new_cwc[k]);
                upd(&mut s.r_cwa, new_cwa[k]);
                upd(&mut s.pra, new_pra[k]);
                chain_delta[k] = kdelta;
                // The global residual is the max over per-chain maxima —
                // bitwise the same number the flat max-fold produced.
                delta = delta.max(kdelta);
            }
            residual = delta;

            // --- Acceleration ----------------------------------------------
            // `restored` marks an iteration whose computed step was thrown
            // away because the preceding accelerated step made the residual
            // grow; its `delta` does not participate in convergence.
            let mut marker: &'static str = "";
            let mut restored = false;
            if let Some(eng) = accel.as_mut() {
                if eng.pending {
                    eng.pending = false;
                    if delta > ANDERSON_GRACE * eng.pending_residual && delta >= self.opts.tol {
                        // The accelerated step increased the residual: roll
                        // back to the plain damped iterate it replaced.
                        st.clone_from(&eng.snapshot);
                        eng.clear_history();
                        eng.rejected += 1;
                        eng.cooldown = ACCEL_COOLDOWN;
                        marker = "rej";
                        restored = true;
                    } else {
                        eng.accepted += 1;
                    }
                }
                if !restored {
                    eng.record(&st);
                    if delta >= self.opts.tol {
                        if eng.cooldown > 0 {
                            eng.cooldown -= 1;
                        } else if iterations >= ACCEL_START
                            && eng.try_candidate()
                            && eng.candidate_in_bounds()
                        {
                            eng.snapshot.clone_from(&st);
                            eng.pending = true;
                            eng.pending_residual = delta;
                            eng.inject_candidate(&mut st);
                            marker = "acc";
                        }
                    }
                }
                eng.roll(&st);
            }

            if let Some(log) = log.as_deref_mut() {
                // Post-update state: what the next iteration starts from
                // (and, on the final iteration, exactly the converged state
                // the report is packaged from). `l_h` is this iteration's
                // contention-section value; the residual column is the
                // chain's own pre-damping step (see `IterRow::residual`).
                for (k, ctx) in ctxs.iter().enumerate() {
                    let s = &st[k];
                    log.push(IterRow {
                        iter: iterations,
                        site: ctx.site,
                        chain: ctx.chain.label().to_string(),
                        residual: chain_delta[k],
                        pb: s.pb,
                        pd: s.pd,
                        l_h: s.l_h,
                        r_lw: s.r_lw,
                        r_rw: s.r_rw,
                        r_cw: s.r_cwc,
                        accel: marker,
                    });
                }
            }
            if !restored && delta < self.opts.tol {
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
                let hz = Hazards {
                    pb: s.pb,
                    pd: s.pd,
                    pra: s.pra,
                };
                let m = if ctx.chain.is_slave() {
                    TransitionMatrix::slave(ctx.l, ctx.q, hz)
                } else {
                    TransitionMatrix::local_or_coordinator(ctx.n, ctx.l, ctx.r, ctx.q, hz)
                };
                let v = m.visit_counts();
                let costs = phase_costs(params, ctx, s.sigma);
                let mut phase_ms = std::collections::BTreeMap::new();
                for ph in Phase::ALL {
                    let service = costs.cpu[ph.idx()] + costs.disk[ph.idx()] + costs.log[ph.idx()];
                    let delay = match ph {
                        Phase::Lw => s.r_lw,
                        Phase::Rw => s.r_rw,
                        Phase::Cwc => s.r_cwc,
                        Phase::Cwa => s.r_cwa,
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
                    pb: s.pb,
                    pd: s.pd,
                    p_a: s.p_a,
                    l_h: s.l_h,
                    r_lw_ms: s.r_lw,
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

/// Estimated RW visits per slave execution (= its request count).
fn visits_rw_estimate(ctx: &ChainCtx) -> f64 {
    ctx.l
}
