//! Mean Value Analysis for closed multi-chain product-form networks.
//!
//! The CARAT Site Processing Model (paper §4, Figure 2) is a closed network
//! with multiple routing chains \[BASK75\]: each transaction type present at
//! a site is one chain with a finite population, the CPU and DISK are
//! load-independent queueing centers, and the LW/RW/CW/UT synchronization
//! stations are infinite-server *delay* centers. The paper solves each site
//! "using the Mean Value Analysis algorithm for product form networks"
//! (paper §6); this module supplies exactly that: the exact MVA recursion
//! over the full population lattice, plus the Schweitzer–Bard fixed-point
//! approximation for populations too large to enumerate.

/// Kind of a service center.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CenterKind {
    /// Load-independent single-server queueing center (CPU, DISK).
    Queueing,
    /// Infinite-server delay center (lock wait, remote wait, commit wait,
    /// user think time). Jobs never queue; residence time equals demand.
    Delay,
}

/// A service center of the network.
#[derive(Debug, Clone)]
pub struct Center {
    /// Human-readable label used in reports ("CPU", "DISK", "LW", ...).
    pub name: String,
    /// Queueing or delay.
    pub kind: CenterKind,
}

/// A closed multi-chain queueing network.
///
/// Chains are indexed `0..chains()`, centers `0..centers()`. `demand[k][c]`
/// is the total service demand (visit count × mean service time) of chain
/// `k` at center `c` per passage, in the same time unit everywhere
/// (milliseconds in this repository).
#[derive(Debug, Clone, Default)]
pub struct Network {
    centers: Vec<Center>,
    populations: Vec<usize>,
    demands: Vec<Vec<f64>>, // demands[chain][center]
    chain_names: Vec<String>,
}

/// Solution of a closed network: per-chain throughputs and response times,
/// per-center utilizations and mean queue lengths.
#[derive(Debug, Default)]
pub struct MvaSolution {
    /// Per-chain throughput `X_k` (passages per millisecond).
    pub throughput: Vec<f64>,
    /// Per-chain cycle time `N_k / X_k` (total residence incl. delay
    /// centers).
    pub response: Vec<f64>,
    /// Per-chain, per-center residence time per passage
    /// (`residence[chain][center]`).
    pub residence: Vec<Vec<f64>>,
    /// Per-center utilization `Σ_k X_k · D_kc` (queueing centers only;
    /// delay centers report the mean number of resident jobs instead).
    pub utilization: Vec<f64>,
    /// Per-center time-average population.
    pub queue_len: Vec<f64>,
}

impl Clone for MvaSolution {
    fn clone(&self) -> Self {
        let mut out = Self::default();
        out.clone_from(self);
        out
    }

    /// Copies `source` into the buffers `self` already holds.
    fn clone_from(&mut self, source: &Self) {
        self.throughput.clone_from(&source.throughput);
        self.response.clone_from(&source.response);
        self.residence.clone_from(&source.residence);
        self.utilization.clone_from(&source.utilization);
        self.queue_len.clone_from(&source.queue_len);
    }
}

impl MvaSolution {
    /// An empty solution buffer for the `*_into` solvers.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Resizes every field for `k_n` chains × `c_n` centers and zeroes it,
    /// keeping the existing allocations.
    fn reset(&mut self, k_n: usize, c_n: usize) {
        self.throughput.clear();
        self.throughput.resize(k_n, 0.0);
        self.response.clear();
        self.response.resize(k_n, 0.0);
        self.residence.truncate(k_n);
        self.residence.resize_with(k_n, Vec::new);
        for r in &mut self.residence {
            r.clear();
            r.resize(c_n, 0.0);
        }
        self.utilization.clear();
        self.utilization.resize(c_n, 0.0);
        self.queue_len.clear();
        self.queue_len.resize(c_n, 0.0);
    }
}

/// Reusable work buffers for [`Network::solve_exact_into`] and
/// [`Network::solve_approx_into`].
///
/// The exact recursion's dominant cost is the `lattice_size × centers`
/// queue-length table; holding it here lets a fixed-point solver that calls
/// MVA hundreds of times per solve run allocation-free after the first
/// iteration.
#[derive(Debug, Clone, Default)]
pub struct MvaScratch {
    /// `1 + Q_c` per population vector (exact) or queue lengths per chain
    /// (approx).
    q: Vec<f64>,
    /// Mixed-radix strides of the population lattice.
    stride: Vec<usize>,
    /// The current population vector, stepped like an odometer.
    pop: Vec<usize>,
    /// Demands, chain-major: `demand[k * centers + c]`.
    demand: Vec<f64>,
    /// Residence times at the current population vector, laid out like
    /// `demand`.
    residence: Vec<f64>,
    /// Whether each center is a queueing center.
    queueing: Vec<bool>,
    /// One state's queue sums, per center, when the center count is known
    /// only at run time.
    sums: Vec<f64>,
}

/// The exact recursion over every population vector after the empty one,
/// in mixed-radix counting order, on the buffers [`Network::solve_exact_into`]
/// has set up; writes the throughputs of the last vector, the full
/// population, into `x`. `C` is the center count, or 0 for a count read
/// from the scratch at run time. The solver's networks have 1–5 centers; at
/// those widths the center loops unroll and each state's queue sums stay in
/// registers. It is kept out of line: inlined into its caller, the 3-center
/// body ran about twice as slow.
#[inline(never)]
fn exact_states<const C: usize>(populations: &[usize], scratch: &mut MvaScratch, x: &mut [f64]) {
    let MvaScratch {
        q,
        stride,
        pop,
        demand,
        residence,
        queueing,
        sums,
    } = scratch;
    let c_n = if C == 0 { sums.len() } else { C };
    let mut fixed = [0.0; C];
    let sums: &mut [f64] = if C == 0 { sums } else { &mut fixed };
    let lattice = populations.iter().map(|&n| n + 1).product::<usize>();
    for idx in 1..lattice {
        // Step the odometer from idx − 1's vector to idx's; every n − e_k
        // precedes n, so its queue lengths are already in the table.
        for (p, &population) in pop.iter_mut().zip(populations) {
            if *p < population {
                *p += 1;
                break;
            }
            *p = 0;
        }
        let (before, rest) = q.split_at_mut(idx * c_n);
        sums.fill(0.0);
        for (k, ((&n, &s), xk)) in pop.iter().zip(stride.iter()).zip(x.iter_mut()).enumerate() {
            if n == 0 {
                *xk = 0.0;
                continue;
            }
            let below = &before[(idx - s) * c_n..][..c_n];
            let d = &demand[k * c_n..][..c_n];
            let r = &mut residence[k * c_n..][..c_n];
            let mut total_r = 0.0;
            for c in 0..c_n {
                r[c] = d[c] * below[c];
                total_r += r[c];
            }
            // A chain with zero total demand has infinite throughput; it
            // adds nothing to the queues.
            *xk = if total_r > 0.0 {
                n as f64 / total_r
            } else {
                f64::INFINITY
            };
            if xk.is_finite() {
                // Delay centers are summed too, but never stored.
                for c in 0..c_n {
                    sums[c] += *xk * r[c];
                }
            }
        }
        let row = &mut rest[..c_n];
        for c in 0..c_n {
            if queueing[c] {
                row[c] = 1.0 + sums[c];
            }
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a service center; returns its index.
    pub fn add_center(&mut self, name: impl Into<String>, kind: CenterKind) -> usize {
        self.centers.push(Center {
            name: name.into(),
            kind,
        });
        for d in &mut self.demands {
            d.push(0.0);
        }
        self.centers.len() - 1
    }

    /// Adds a closed chain with `population` customers; returns its index.
    pub fn add_chain(&mut self, name: impl Into<String>, population: usize) -> usize {
        self.populations.push(population);
        self.chain_names.push(name.into());
        self.demands.push(vec![0.0; self.centers.len()]);
        self.populations.len() - 1
    }

    /// Sets the total service demand of `chain` at `center`.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite demand.
    pub fn set_demand(&mut self, chain: usize, center: usize, demand: f64) {
        assert!(
            demand.is_finite() && demand >= 0.0,
            "bad demand {demand} for chain {chain} at center {center}"
        );
        self.demands[chain][center] = demand;
    }

    /// Number of chains.
    pub fn chains(&self) -> usize {
        self.populations.len()
    }

    /// Number of centers.
    pub fn centers(&self) -> usize {
        self.centers.len()
    }

    /// Center metadata.
    pub fn center(&self, c: usize) -> &Center {
        &self.centers[c]
    }

    /// Chain population.
    pub fn population(&self, k: usize) -> usize {
        self.populations[k]
    }

    /// Chain label.
    pub fn chain_name(&self, k: usize) -> &str {
        &self.chain_names[k]
    }

    /// Number of population vectors the exact recursion must visit.
    pub fn lattice_size(&self) -> usize {
        self.populations
            .iter()
            .map(|&n| n + 1)
            .product::<usize>()
            .max(1)
    }

    /// Whether `other` has this network's inputs bit for bit: the same chain
    /// populations in order, the same center kinds, and every demand with
    /// the same bits (`f64::to_bits`, so `0.0` and `-0.0` differ). Names
    /// are not compared. Two such networks solve to the same bits.
    pub fn same_inputs(&self, other: &Network) -> bool {
        self.populations == other.populations
            && self.centers.len() == other.centers.len()
            && self
                .centers
                .iter()
                .zip(&other.centers)
                .all(|(a, b)| a.kind == b.kind)
            && self
                .demands
                .iter()
                .flatten()
                .zip(other.demands.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Solves the network with **exact MVA**.
    ///
    /// Complexity is `O(lattice_size × chains × centers)`; use
    /// [`Network::solve_approx`] when [`Network::lattice_size`] is large
    /// (≳ 10⁷).
    pub fn solve_exact(&self) -> MvaSolution {
        let mut scratch = MvaScratch::default();
        let mut out = MvaSolution::empty();
        self.solve_exact_into(&mut scratch, &mut out);
        out
    }

    /// Allocation-free variant of [`Network::solve_exact`]: reuses the
    /// buffers in `scratch` and writes the solution into `out`. Produces
    /// bitwise-identical results to `solve_exact`.
    ///
    /// Each chain's residence total is summed in center order and each
    /// center's queue in chain order, as in the textbook recursion, so
    /// the bits do not depend on how the loops are laid out (DESIGN.md
    /// §11, "Exact recursion kernel").
    pub fn solve_exact_into(&self, scratch: &mut MvaScratch, out: &mut MvaSolution) {
        let k_n = self.chains();
        let c_n = self.centers();
        let lattice = self.lattice_size();

        out.reset(k_n, c_n);
        // `1 + Q_c` at each center for every population vector, indexed by
        // the mixed-radix encoding of the vector. Only queueing centers
        // are written, so a delay center's slot stays 1.0 and every
        // residence is d·(1 + q), which is exactly d at a delay center.
        scratch.q.clear();
        scratch.q.resize(lattice * c_n, 1.0);
        // Strides for mixed-radix indexing: index = Σ n_k · stride_k.
        scratch.stride.clear();
        let mut acc = 1usize;
        for &p in &self.populations {
            scratch.stride.push(acc);
            acc *= p + 1;
        }
        scratch.pop.clear();
        scratch.pop.resize(k_n, 0);
        scratch.demand.clear();
        for d in &self.demands {
            scratch.demand.extend_from_slice(d);
        }
        scratch.residence.clear();
        scratch.residence.resize(k_n * c_n, 0.0);
        scratch.queueing.clear();
        scratch
            .queueing
            .extend(self.centers.iter().map(|c| c.kind == CenterKind::Queueing));
        scratch.sums.clear();
        scratch.sums.resize(c_n, 0.0);

        let x = &mut out.throughput;
        match c_n {
            1 => exact_states::<1>(&self.populations, scratch, x),
            2 => exact_states::<2>(&self.populations, scratch, x),
            3 => exact_states::<3>(&self.populations, scratch, x),
            4 => exact_states::<4>(&self.populations, scratch, x),
            5 => exact_states::<5>(&self.populations, scratch, x),
            _ => exact_states::<0>(&self.populations, scratch, x),
        }
        for (k, dst) in out.residence.iter_mut().enumerate() {
            dst.copy_from_slice(&scratch.residence[k * c_n..][..c_n]);
        }

        self.finalize_solution(out);
    }

    /// Solves the network with the **Schweitzer–Bard approximate MVA**
    /// fixed point. Accuracy is typically within a few percent of exact for
    /// the balanced populations used here; cost is independent of the
    /// population sizes.
    pub fn solve_approx(&self, tol: f64, max_iter: usize) -> MvaSolution {
        let mut scratch = MvaScratch::default();
        let mut out = MvaSolution::empty();
        self.solve_approx_into(tol, max_iter, &mut scratch, &mut out);
        out
    }

    /// Allocation-free variant of [`Network::solve_approx`]: reuses the
    /// buffers in `scratch` and writes the solution into `out`. Produces
    /// bitwise-identical results to `solve_approx`.
    pub fn solve_approx_into(
        &self,
        tol: f64,
        max_iter: usize,
        scratch: &mut MvaScratch,
        out: &mut MvaSolution,
    ) {
        let k_n = self.chains();
        let c_n = self.centers();

        out.reset(k_n, c_n);
        // q[k * c_n + c]: per-chain queue length estimates at full
        // population. Initialize: population spread evenly over queueing
        // centers.
        let q = &mut scratch.q;
        q.clear();
        q.resize(k_n * c_n, 0.0);
        let nq = self
            .centers
            .iter()
            .filter(|c| c.kind == CenterKind::Queueing)
            .count()
            .max(1);
        for k in 0..k_n {
            for c in 0..c_n {
                if self.centers[c].kind == CenterKind::Queueing {
                    q[k * c_n + c] = self.populations[k] as f64 / nq as f64;
                }
            }
        }

        {
            let x = &mut out.throughput;
            let residence = &mut out.residence;
            for _ in 0..max_iter {
                let mut delta: f64 = 0.0;
                for k in 0..k_n {
                    let nk = self.populations[k] as f64;
                    if nk == 0.0 {
                        continue;
                    }
                    let mut total_r = 0.0;
                    for c in 0..c_n {
                        let d = self.demands[k][c];
                        let r = match self.centers[c].kind {
                            CenterKind::Delay => d,
                            CenterKind::Queueing => {
                                // Schweitzer estimate of Q_c(N − e_k):
                                // all other chains' queue plus (n_k−1)/n_k
                                // of own.
                                let others: f64 =
                                    (0..k_n).filter(|&j| j != k).map(|j| q[j * c_n + c]).sum();
                                let own = q[k * c_n + c] * (nk - 1.0) / nk;
                                d * (1.0 + others + own)
                            }
                        };
                        residence[k][c] = r;
                        total_r += r;
                    }
                    x[k] = if total_r > 0.0 { nk / total_r } else { 0.0 };
                }
                for k in 0..k_n {
                    for c in 0..c_n {
                        let new_q = x[k] * residence[k][c];
                        delta = delta.max((new_q - q[k * c_n + c]).abs());
                        q[k * c_n + c] = new_q;
                    }
                }
                if delta < tol {
                    break;
                }
            }
        }

        self.finalize_solution(out);
    }

    /// Fills `response`, `utilization`, and `queue_len` from the
    /// `throughput` and `residence` already stored in `out`.
    fn finalize_solution(&self, out: &mut MvaSolution) {
        let k_n = self.chains();
        let c_n = self.centers();
        for c in 0..c_n {
            let mut u = 0.0;
            let mut ql = 0.0;
            for k in 0..k_n {
                if !out.throughput[k].is_finite() {
                    continue;
                }
                if self.centers[c].kind == CenterKind::Queueing {
                    u += out.throughput[k] * self.demands[k][c];
                }
                ql += out.throughput[k] * out.residence[k][c];
            }
            out.utilization[c] = u;
            out.queue_len[c] = ql;
        }
        for k in 0..k_n {
            out.response[k] = if out.throughput[k] > 0.0 && out.throughput[k].is_finite() {
                self.populations[k] as f64 / out.throughput[k]
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed single-class machine-repair model M/M/1//N with think time Z
    /// and demand D has the classic closed-form solution; exact MVA must
    /// match it.
    fn mm1n_reference(n: usize, d: f64, z: f64) -> f64 {
        // X(N) computed by the textbook MVA recursion itself would be
        // circular; use the product-form normalizing-constant solution.
        // p(k) ∝ (N!/(N-k)!) (D/Z)^k for k jobs at the queue (think stage
        // is an IS center). Throughput = (1 - p(0)) / D.
        let rho = d / z;
        let mut terms = vec![0.0f64; n + 1];
        let mut t = 1.0;
        terms[0] = 1.0;
        for (k, slot) in terms.iter_mut().enumerate().skip(1) {
            t *= (n - k + 1) as f64 * rho;
            *slot = t;
        }
        let g: f64 = terms.iter().sum();
        (1.0 - terms[0] / g) / d
    }

    #[test]
    fn exact_matches_machine_repair_closed_form() {
        for &n in &[1usize, 2, 5, 10] {
            let mut net = Network::new();
            let cpu = net.add_center("CPU", CenterKind::Queueing);
            let think = net.add_center("Z", CenterKind::Delay);
            let k = net.add_chain("jobs", n);
            net.set_demand(k, cpu, 2.0);
            net.set_demand(k, think, 10.0);
            let sol = net.solve_exact();
            let x_ref = mm1n_reference(n, 2.0, 10.0);
            assert!(
                (sol.throughput[k] - x_ref).abs() < 1e-9,
                "N={n}: {} vs {}",
                sol.throughput[k],
                x_ref
            );
        }
    }

    #[test]
    fn littles_law_holds_per_center() {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let disk = net.add_center("DISK", CenterKind::Queueing);
        let z = net.add_center("Z", CenterKind::Delay);
        let a = net.add_chain("a", 3);
        let b = net.add_chain("b", 2);
        net.set_demand(a, cpu, 1.0);
        net.set_demand(a, disk, 4.0);
        net.set_demand(a, z, 5.0);
        net.set_demand(b, cpu, 2.5);
        net.set_demand(b, disk, 1.0);
        net.set_demand(b, z, 0.0);
        let sol = net.solve_exact();
        // Little's law: Q_c = Σ_k X_k R_kc — package_solution computes it
        // that way, so instead verify population conservation per chain:
        for (k, n) in [(a, 3usize), (b, 2usize)] {
            let pop: f64 = (0..3)
                .map(|c| sol.throughput[k] * sol.residence[k][c])
                .sum();
            assert!((pop - n as f64).abs() < 1e-9, "chain {k}");
        }
        // Utilization in (0, 1).
        for c in [cpu, disk] {
            assert!(sol.utilization[c] > 0.0 && sol.utilization[c] < 1.0);
        }
    }

    #[test]
    fn single_customer_has_no_queueing() {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let k = net.add_chain("solo", 1);
        net.set_demand(k, cpu, 3.0);
        let sol = net.solve_exact();
        assert!((sol.response[k] - 3.0).abs() < 1e-12);
        assert!((sol.throughput[k] - 1.0 / 3.0).abs() < 1e-12);
        assert!((sol.utilization[cpu] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_asymptote() {
        // As N → ∞ the bottleneck saturates: X → 1 / D_max.
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let disk = net.add_center("DISK", CenterKind::Queueing);
        let k = net.add_chain("jobs", 200);
        net.set_demand(k, cpu, 1.0);
        net.set_demand(k, disk, 5.0);
        let sol = net.solve_exact();
        assert!((sol.throughput[k] - 0.2).abs() < 1e-6);
        assert!(sol.utilization[disk] > 0.999);
    }

    #[test]
    fn approx_close_to_exact() {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let disk = net.add_center("DISK", CenterKind::Queueing);
        let z = net.add_center("Z", CenterKind::Delay);
        let a = net.add_chain("a", 4);
        let b = net.add_chain("b", 4);
        net.set_demand(a, cpu, 1.2);
        net.set_demand(a, disk, 3.0);
        net.set_demand(a, z, 8.0);
        net.set_demand(b, cpu, 2.0);
        net.set_demand(b, disk, 0.7);
        net.set_demand(b, z, 2.0);
        let exact = net.solve_exact();
        let approx = net.solve_approx(1e-10, 10_000);
        for k in 0..2 {
            let rel = (approx.throughput[k] - exact.throughput[k]).abs() / exact.throughput[k];
            // Schweitzer–Bard is typically within ~5–10 % at small
            // populations; it converges to exact as N grows.
            assert!(rel < 0.10, "chain {k}: rel err {rel}");
        }
    }

    #[test]
    fn zero_population_chain_is_inert() {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let a = net.add_chain("a", 2);
        let ghost = net.add_chain("ghost", 0);
        net.set_demand(a, cpu, 1.0);
        net.set_demand(ghost, cpu, 100.0);
        let sol = net.solve_exact();
        assert_eq!(sol.throughput[ghost], 0.0);
        assert!(sol.throughput[a] > 0.0);
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical() {
        // Solving different networks through the same scratch/out buffers
        // must give exactly the same bits as the allocating entry points.
        let mut scratch = MvaScratch::default();
        let mut out = MvaSolution::empty();
        for &(na, nb) in &[(3usize, 2usize), (1, 5), (4, 4), (0, 2)] {
            let mut net = Network::new();
            let cpu = net.add_center("CPU", CenterKind::Queueing);
            let disk = net.add_center("DISK", CenterKind::Queueing);
            let z = net.add_center("Z", CenterKind::Delay);
            let a = net.add_chain("a", na);
            let b = net.add_chain("b", nb);
            net.set_demand(a, cpu, 1.0);
            net.set_demand(a, disk, 4.0);
            net.set_demand(a, z, 5.0);
            net.set_demand(b, cpu, 2.5);
            net.set_demand(b, disk, 1.0);
            net.set_demand(b, z, 0.5);

            let fresh = net.solve_exact();
            net.solve_exact_into(&mut scratch, &mut out);
            assert_eq!(fresh.throughput, out.throughput);
            assert_eq!(fresh.residence, out.residence);
            assert_eq!(fresh.response, out.response);
            assert_eq!(fresh.utilization, out.utilization);
            assert_eq!(fresh.queue_len, out.queue_len);

            let fresh = net.solve_approx(1e-10, 10_000);
            net.solve_approx_into(1e-10, 10_000, &mut scratch, &mut out);
            assert_eq!(fresh.throughput, out.throughput);
            assert_eq!(fresh.residence, out.residence);
            assert_eq!(fresh.response, out.response);
            assert_eq!(fresh.utilization, out.utilization);
            assert_eq!(fresh.queue_len, out.queue_len);
        }
    }

    #[test]
    fn same_inputs_compares_every_input_bit() {
        let mut net = Network::new();
        let cpu = net.add_center("CPU", CenterKind::Queueing);
        let z = net.add_center("Z", CenterKind::Delay);
        let a = net.add_chain("a", 3);
        let b = net.add_chain("b", 2);
        net.set_demand(a, cpu, 1.5);
        net.set_demand(a, z, 0.0);
        net.set_demand(b, cpu, 2.25);
        net.set_demand(b, z, 7.0);
        assert!(net.same_inputs(&net.clone()));

        let mut lowest_bit = net.clone();
        lowest_bit.set_demand(b, cpu, f64::from_bits(2.25f64.to_bits() ^ 1));
        assert!(!net.same_inputs(&lowest_bit));

        let mut negative_zero = net.clone();
        negative_zero.set_demand(a, z, -0.0);
        assert!(!net.same_inputs(&negative_zero));

        let mut population = net.clone();
        population.populations[b] = 3;
        assert!(!net.same_inputs(&population));

        let mut kinds = net.clone();
        kinds.centers[z].kind = CenterKind::Queueing;
        assert!(!net.same_inputs(&kinds));
    }

    #[test]
    fn delay_only_network() {
        let mut net = Network::new();
        let z = net.add_center("Z", CenterKind::Delay);
        let k = net.add_chain("jobs", 5);
        net.set_demand(k, z, 2.0);
        let sol = net.solve_exact();
        // Pure delay: X = N / Z.
        assert!((sol.throughput[k] - 2.5).abs() < 1e-12);
    }

    /// The textbook exact recursion, kept as the oracle of
    /// [`Network::solve_exact_into`]: it decodes every lattice index with
    /// a div/mod per chain, reads the nested demand table, matches on the
    /// center kind per term and tests every queue-sum term.
    fn solve_exact_reference(net: &Network) -> MvaSolution {
        let k_n = net.chains();
        let c_n = net.centers();
        let lattice = net.lattice_size();
        let mut out = MvaSolution::empty();
        out.reset(k_n, c_n);
        let mut q = vec![0.0; lattice * c_n];
        let mut stride = vec![0usize; k_n];
        let mut pop = vec![0usize; k_n];
        let mut acc = 1usize;
        for (s, &p) in stride.iter_mut().zip(&net.populations) {
            *s = acc;
            acc *= p + 1;
        }
        let x = &mut out.throughput;
        let residence = &mut out.residence;
        for idx in 1..lattice {
            let mut rem = idx;
            for (p, &population) in pop.iter_mut().zip(&net.populations) {
                let radix = population + 1;
                *p = rem % radix;
                rem /= radix;
            }
            for k in 0..k_n {
                if pop[k] == 0 {
                    x[k] = 0.0;
                    continue;
                }
                let idx_minus = idx - stride[k];
                let mut total_r = 0.0;
                for c in 0..c_n {
                    let d = net.demands[k][c];
                    let r = match net.centers[c].kind {
                        CenterKind::Delay => d,
                        CenterKind::Queueing => d * (1.0 + q[idx_minus * c_n + c]),
                    };
                    residence[k][c] = r;
                    total_r += r;
                }
                x[k] = if total_r > 0.0 {
                    pop[k] as f64 / total_r
                } else {
                    f64::INFINITY
                };
            }
            for c in 0..c_n {
                let mut qc = 0.0;
                for k in 0..k_n {
                    if pop[k] > 0 && x[k].is_finite() {
                        qc += x[k] * residence[k][c];
                    }
                }
                q[idx * c_n + c] = qc;
            }
        }
        net.finalize_solution(&mut out);
        out
    }

    /// Every field of two solutions, compared bit for bit.
    fn assert_same_bits(got: &MvaSolution, want: &MvaSolution, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&got.throughput), bits(&want.throughput), "{case}");
        assert_eq!(bits(&got.response), bits(&want.response), "{case}");
        assert_eq!(got.residence.len(), want.residence.len(), "{case}");
        for (g, w) in got.residence.iter().zip(&want.residence) {
            assert_eq!(bits(g), bits(w), "{case}");
        }
        assert_eq!(bits(&got.utilization), bits(&want.utilization), "{case}");
        assert_eq!(bits(&got.queue_len), bits(&want.queue_len), "{case}");
    }

    /// splitmix64: the random networks below are a pure function of the
    /// seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A network with the given center kinds and populations and seeded
    /// demands: a quarter of the entries are 0, and chain `zero_chain`, if
    /// any, has no demand anywhere (infinite throughput).
    fn random_network(
        kinds: &[CenterKind],
        pops: &[usize],
        zero_chain: Option<usize>,
        seed: &mut u64,
    ) -> Network {
        let mut net = Network::new();
        for (c, &kind) in kinds.iter().enumerate() {
            net.add_center(format!("c{c}"), kind);
        }
        for (k, &p) in pops.iter().enumerate() {
            net.add_chain(format!("k{k}"), p);
            for c in 0..kinds.len() {
                let u = next(seed);
                let d = if u.is_multiple_of(4) || zero_chain == Some(k) {
                    0.0
                } else {
                    (u >> 11) as f64 / (1u64 << 53) as f64 * 200.0
                };
                net.set_demand(k, c, d);
            }
        }
        net
    }

    #[test]
    fn exact_kernel_matches_the_reference_bit_for_bit() {
        use CenterKind::{Delay as D, Queueing as Q};
        // Debug builds run this test too: cap the lattice.
        const MAX_LATTICE: usize = 4_096;
        let mut seed = 0x5EED_0F3A_7A11_u64;
        let mut scratch = MvaScratch::default();
        let mut out = MvaSolution::empty();
        let mut infinite = 0;
        let mut check = |net: &Network, case: &str| {
            net.solve_exact_into(&mut scratch, &mut out);
            assert_same_bits(&out, &solve_exact_reference(net), case);
            infinite += out.throughput.iter().filter(|x| x.is_infinite()).count();
        };

        // Delay centers before, between and after the queueing centers,
        // an all-delay network, and 6–8 centers, which no solver network
        // has: those take the kernel's runtime-width path.
        let layouts: [&[CenterKind]; 11] = [
            &[Q],
            &[D, Q, Q],
            &[Q, D, Q],
            &[Q, Q, D],
            &[D, Q, D, Q, D],
            &[Q, Q, Q, Q, D],
            &[D],
            &[D, D, D],
            &[Q, D, Q, Q, D, Q],
            &[D, Q, Q, Q, Q, Q, D],
            &[Q, Q, D, Q, Q, D, Q, Q],
        ];
        for case in 0..400 {
            let kinds: Vec<CenterKind> = if case % 2 == 0 {
                layouts[case / 2 % layouts.len()].to_vec()
            } else {
                let c_n = 1 + (next(&mut seed) % 8) as usize;
                (0..c_n)
                    .map(|_| {
                        if next(&mut seed).is_multiple_of(3) {
                            D
                        } else {
                            Q
                        }
                    })
                    .collect()
            };
            let k_n = 1 + (next(&mut seed) % 6) as usize;
            let mut pops: Vec<usize> = (0..k_n).map(|_| (next(&mut seed) % 7) as usize).collect();
            while pops.iter().map(|&p| p + 1).product::<usize>() > MAX_LATTICE {
                let big = (0..k_n).max_by_key(|&k| pops[k]).unwrap();
                pops[big] -= 1;
            }
            let zero_chain = (case % 5 == 0).then(|| (next(&mut seed) % k_n as u64) as usize);
            let net = random_network(&kinds, &pops, zero_chain, &mut seed);
            check(
                &net,
                &format!("case {case}: {kinds:?} {pops:?} zero {zero_chain:?}"),
            );
        }

        // The scratch after a larger lattice: the largest allowed, then
        // smaller ones with more centers and fewer chains, and a fixed
        // width after a runtime one.
        for (kinds, pops) in [
            (&[Q, Q, D][..], &[3usize, 3, 3, 3, 3, 3][..]),
            (&[D, Q, D, Q, Q][..], &[2, 1][..]),
            (&[Q, D, Q, Q, D, Q, Q][..], &[3, 2][..]),
            (&[Q][..], &[0, 4][..]),
            (&[D, D][..], &[5][..]),
        ] {
            let net = random_network(kinds, pops, None, &mut seed);
            check(&net, &format!("reuse: {kinds:?} {pops:?}"));
        }
        assert!(infinite > 0, "no zero-demand chain was exercised");
    }
}
