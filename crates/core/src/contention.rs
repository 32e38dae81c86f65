//! The concurrency-control submodel: locks held, blocking, deadlock
//! (paper §5.4 and DESIGN.md §6).

use carat_workload::ChainType;

/// `E[Y]`: expected locks held at the moment of an abort (paper Eq. 11).
///
/// `Y` is truncated-geometric on `0..n_lk − 1` with per-lock hazard
/// `p = Pb·Pd`:
///
/// ```text
/// P[Y = i] ∝ (1 − p)^i · p,   E[Y] = (1−p)/p − n_lk(1−p)^n_lk / (1 − (1−p)^n_lk)
/// ```
///
/// As `p → 0` this tends to the uniform mean `(n_lk − 1)/2`.
///
/// The textbook form subtracts two `O(1/p)` terms that agree to leading
/// order, so evaluating it literally loses all significant digits for small
/// `p`. With `u = −n_lk·ln(1−p)` (so `(1−p)^n_lk = e^(−u)`) it rewrites as
/// `(1−p)/p − n_lk/(e^u − 1)`, computed via `ln_1p`/`exp_m1`; below
/// `u = 1e-4` even that cancels catastrophically, so the series expansion
/// around the uniform mean takes over:
///
/// ```text
/// E[Y] = (n−1)/2 − (n²−1)·p/12 − (n²−1)·p²/24 + O(n⁴p³)
/// ```
///
/// Both branches agree to ≈ 1e-11 relative at the switch point, so the
/// function is continuous and monotone over the whole domain (see
/// `expected_locks_small_p_stability`).
pub fn expected_locks_at_abort(p: f64, n_lk: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "hazard out of range: {p}");
    assert!(n_lk >= 1.0);
    let u = -n_lk * (-p).ln_1p();
    if u < 1e-4 {
        return (n_lk - 1.0) / 2.0 - (n_lk * n_lk - 1.0) * p / 12.0 * (1.0 + p / 2.0);
    }
    (1.0 - p) / p - n_lk / u.exp_m1()
}

/// `σ = E[Y]/N_lk` (paper §5.4.1).
pub fn sigma(p: f64, n_lk: f64) -> f64 {
    (expected_locks_at_abort(p, n_lk) / n_lk).clamp(0.0, 1.0)
}

/// `L_h`: time-average locks held by one transaction over its life cycle
/// (paper Eq. 14), with `R_f = σ·R_s`:
///
/// ```text
/// L_h = (N_lk / 2) · [1 − (1 − σ²)·P_a] · R_s
///       ─────────────────────────────────────
///        R_UT + P_a·R_f + (1 − P_a)·R_s
/// ```
pub fn locks_held(n_lk: f64, sig: f64, p_a: f64, r_s: f64, r_ut: f64) -> f64 {
    if r_s <= 0.0 {
        return 0.0;
    }
    let r_f = sig * r_s;
    let numer = (n_lk / 2.0) * (1.0 - (1.0 - sig * sig) * p_a) * r_s;
    let denom = r_ut + p_a * r_f + (1.0 - p_a) * r_s;
    (numer / denom).max(0.0)
}

/// Per-chain state the contention equations consume.
#[derive(Debug, Clone, Copy)]
pub struct ChainLockState {
    /// Chain type (decides lock modes: update chains hold exclusive locks).
    pub chain: ChainType,
    /// `N(t, i)`: population at the site.
    pub population: f64,
    /// `L_h(t, i)`: time-average locks held per transaction.
    pub l_h: f64,
    /// `N_lk(t)`: locks requested per execution at this site.
    pub n_lk: f64,
    /// Fraction of time one transaction of this chain spends lock-blocked.
    pub blocked_frac: f64,
    /// `R_s(t, i)`: mean successful execution time.
    pub r_s: f64,
    /// `B(t, i)`: the lock-wait-free ("useful") part of `R_s`.
    pub useful: f64,
    /// `Pb(t, i)`: per-request blocking probability.
    pub pb: f64,
    /// `Pd(t, i)`: deadlock-victim probability given blocked.
    pub pd: f64,
}

/// `Pb(t, i)` (paper Eq. 15), mode-aware: a shared request is blocked only
/// by exclusively-held granules; an exclusive request by any held granule.
/// A transaction never blocks on its own locks.
///
/// `all_exclusive` reproduces the "previous analytical models" assumption
/// the paper criticises (every lock exclusive) for the ablation study.
pub fn blocking_probability(
    me: ChainType,
    chains: &[ChainLockState],
    n_granules: f64,
    all_exclusive: bool,
) -> f64 {
    let mut occupied = 0.0;
    for c in chains {
        if !(all_exclusive || c.chain.is_update() || me.is_update()) {
            continue; // reader vs reader never conflicts
        }
        let instances = if c.chain == me {
            (c.population - 1.0).max(0.0)
        } else {
            c.population
        };
        occupied += instances * c.l_h;
    }
    (occupied / n_granules).clamp(0.0, 0.999)
}

/// `PB(t, s, i)` (paper Eq. 17), mode-aware: given that a lock request of a
/// type-`t` transaction is blocked, the probability the blocker is of type
/// `s`. Written into `out` (length = `chains.len()`) as a distribution
/// over `chains`, summing to 1 when any conflict is possible.
pub fn blocked_by_distribution_into(
    me: ChainType,
    chains: &[ChainLockState],
    all_exclusive: bool,
    out: &mut [f64],
) {
    assert_eq!(out.len(), chains.len(), "distribution buffer length");
    let mut total = 0.0;
    for (w, c) in out.iter_mut().zip(chains) {
        *w = if !(all_exclusive || c.chain.is_update() || me.is_update()) {
            0.0
        } else {
            let instances = if c.chain == me {
                (c.population - 1.0).max(0.0)
            } else {
                c.population
            };
            instances * c.l_h
        };
        total += *w;
    }
    if total <= 0.0 {
        out.fill(0.0);
    } else {
        for w in out.iter_mut() {
            *w /= total;
        }
    }
}

/// `Pd(t, i)`: probability a blocked type-`t` request closes a two-cycle
/// deadlock and is chosen as the victim (DESIGN.md §6; the paper defers the
/// derivation to \[JENQ86\] but states only two-cycles are considered).
///
/// CARAT searches the wait-for graph at lock-request time, so the requester
/// that closes a cycle is the victim. Given `t` blocks on a type-`s`
/// transaction (probability `PB(t, s, i)`), a two-cycle exists iff that
/// `s`-transaction is *currently blocked* (probability = its blocked time
/// fraction) *on a granule held by the specific `t` asking* (probability =
/// `t`'s conflicting held locks over all locks conflicting with `s`'s
/// request).
///
/// The blocked-by distribution is computed into the caller's `pb_dist`
/// buffer (resized as needed).
pub fn deadlock_probability_scratch(
    me_idx: usize,
    chains: &[ChainLockState],
    all_exclusive: bool,
    pb_dist: &mut Vec<f64>,
) -> f64 {
    let me = chains[me_idx].chain;
    pb_dist.clear();
    pb_dist.resize(chains.len(), 0.0);
    blocked_by_distribution_into(me, chains, all_exclusive, pb_dist);
    let mut pd = 0.0;
    for (s_idx, s) in chains.iter().enumerate() {
        if pb_dist[s_idx] == 0.0 || s.blocked_frac <= 0.0 {
            continue;
        }
        // Probability that the granule s waits for is held by the specific
        // t-instance now asking: t's conflicting locks over everything that
        // can conflict with s's request (excluding s itself).
        let conflicts_with_s = |c: &ChainLockState| -> bool {
            all_exclusive || c.chain.is_update() || s.chain.is_update()
        };
        if !conflicts_with_s(&chains[me_idx]) {
            continue;
        }
        let mut denom = 0.0;
        for (r_idx, r) in chains.iter().enumerate() {
            if !conflicts_with_s(r) {
                continue;
            }
            let instances = if r_idx == s_idx {
                (r.population - 1.0).max(0.0)
            } else {
                r.population
            };
            denom += instances * r.l_h;
        }
        if denom <= 0.0 {
            continue;
        }
        let held_by_me = chains[me_idx].l_h / denom;
        pd += pb_dist[s_idx] * s.blocked_frac * held_by_me.min(1.0);
    }
    pd.clamp(0.0, 0.95)
}

/// `BR(t)`: blocking ratio (paper Eq. 19) — the fraction of a blocker's
/// execution time a blocked request waits on average; ≈ 1/3 and validated
/// as 0.23–0.41 in the testbed.
pub fn blocking_ratio(n_lk: f64) -> f64 {
    assert!(n_lk > 0.0);
    (2.0 * n_lk + 1.0) / (6.0 * n_lk)
}

/// Maximum lock-wait inflation over the first-order wait `b(t)` — waiting
/// chains are physically bounded by the site population and broken by
/// deadlock aborts, so the geometric chain expansion must saturate.
const MAX_CHAIN_INFLATION: f64 = 8.0;

/// Reusable buffers for [`lock_wait_times_consistent_into`].
#[derive(Debug, Clone, Default)]
pub struct LockWaitScratch {
    pb_dist: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    m: Vec<f64>,
    x: Vec<f64>,
}

/// Solves Eqs. 18 + 20 *simultaneously* for every chain at a site.
///
/// Substituting `R_s(s) = B(s) + N_lk(s)·Pb(s)·R_LW(s)` into
/// `R_LW(t) = Σ_s PB(t,s)·BR(s)·R_s(s)` gives the linear system
///
/// ```text
/// R_LW(t) = b(t) + Σ_s A(t,s)·R_LW(s)
/// b(t)    = Σ_s PB(t,s)·BR(s)·B(s)
/// A(t,s)  = PB(t,s)·BR(s)·N_lk(s)·Pb(s)·(1 − Pd(s))
/// ```
///
/// (the `1 − Pd(s)` factor reflects that a blocked blocker that becomes a
/// deadlock victim releases its locks instead of prolonging the wait).
/// Solving directly instead of relaxing removes the geometric divergence at
/// high contention; when the system itself has no bounded positive solution
/// (spectral radius ≥ 1 — analytic thrashing), the wait saturates at
/// `MAX_CHAIN_INFLATION` (8×) times the first-order wait, reflecting the
/// population bound on real waiting chains.
///
/// All working storage lives in `scratch`; the wait times are written
/// into `out` (cleared first), one per chain.
pub fn lock_wait_times_consistent_into(
    chains: &[ChainLockState],
    all_exclusive: bool,
    fixed_br: Option<f64>,
    scratch: &mut LockWaitScratch,
    out: &mut Vec<f64>,
) {
    let n = chains.len();
    out.clear();
    if n == 0 {
        return;
    }
    let LockWaitScratch {
        pb_dist,
        a,
        b,
        m,
        x,
    } = scratch;
    pb_dist.clear();
    pb_dist.resize(n, 0.0);
    a.clear();
    a.resize(n * n, 0.0);
    b.clear();
    b.resize(n, 0.0);
    for (t_idx, t) in chains.iter().enumerate() {
        blocked_by_distribution_into(t.chain, chains, all_exclusive, pb_dist);
        for (s_idx, s) in chains.iter().enumerate() {
            if pb_dist[s_idx] == 0.0 {
                continue;
            }
            let br = fixed_br.unwrap_or_else(|| blocking_ratio(s.n_lk.max(1.0)));
            b[t_idx] += pb_dist[s_idx] * br * s.useful;
            a[t_idx * n + s_idx] = pb_dist[s_idx] * br * s.n_lk * s.pb * (1.0 - s.pd);
        }
    }
    // (I − A) x = b.
    m.clear();
    m.resize(n * n, 0.0);
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = f64::from(u8::from(i == j)) - a[i * n + j];
        }
    }
    x.clear();
    x.extend_from_slice(b);
    let solved = carat_qnet::solve_dense_in_place(m, x).is_ok();
    if solved && x.iter().all(|v| v.is_finite() && *v >= 0.0) {
        out.extend(
            x.iter()
                .zip(b.iter())
                .map(|(&v, &bi)| v.min(bi * MAX_CHAIN_INFLATION)),
        );
    } else {
        out.extend(b.iter().map(|&bi| bi * MAX_CHAIN_INFLATION));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::ChainType::*;

    fn state(chain: ChainType, population: f64, l_h: f64) -> ChainLockState {
        ChainLockState {
            chain,
            population,
            l_h,
            n_lk: 16.0,
            blocked_frac: 0.1,
            r_s: 1000.0,
            useful: 800.0,
            pb: 0.05,
            pd: 0.02,
        }
    }

    #[test]
    fn expected_locks_limits() {
        // p → 0: uniform over 0..N-1.
        assert!((expected_locks_at_abort(0.0, 17.0) - 8.0).abs() < 1e-12);
        // p → 1: abort on the first lock, Y = 0.
        assert!(expected_locks_at_abort(0.9999, 17.0) < 0.01);
        // Monotone decreasing in p.
        let mut prev = f64::INFINITY;
        for i in 1..50 {
            let p = i as f64 / 50.0;
            let e = expected_locks_at_abort(p, 17.0);
            assert!(e <= prev);
            prev = e;
        }
    }

    #[test]
    fn expected_locks_small_p_stability() {
        for &n in &[2.0f64, 8.0, 17.0, 48.0, 100.0] {
            let uniform = (n - 1.0) / 2.0;
            // Log-spaced sweep p ∈ [1e-12, 0.5]: monotone non-increasing,
            // never above the p → 0 uniform limit, and with no jumps —
            // successive values (ratio 10^(1/16) apart in p) must stay
            // within a sliver of each other, which a cancellation spike or
            // a hard threshold cliff would violate.
            let mut prev = uniform;
            let steps = 16 * 12; // 16 per decade, 1e-12 → 1.0, stop at 0.5
            for i in 0..=steps {
                let p = 1e-12 * 10f64.powf(i as f64 / 16.0);
                if p > 0.5 {
                    break;
                }
                let e = expected_locks_at_abort(p, n);
                assert!(
                    e <= prev + uniform * 1e-9,
                    "n={n}, p={p}: {e} > prev {prev}"
                );
                assert!(
                    (prev - e) <= uniform * (n * n * p) + uniform * 1e-9,
                    "n={n}, p={p}: jump {} too large",
                    prev - e
                );
                prev = e;
            }
            // Continuity against the uniform-mean limit: tiny p must
            // reproduce (n−1)/2 to near machine precision.
            for p in [1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8] {
                let e = expected_locks_at_abort(p, n);
                assert!(
                    (e - uniform).abs() < uniform * 1e-6 + 1e-9,
                    "n={n}, p={p}: {e} vs uniform {uniform}"
                );
            }
            // Continuity across the series/closed-form switch at
            // u = n·p ≈ 1e-4: both branches must agree there.
            let p_switch = 1e-4 / n;
            let below = expected_locks_at_abort(p_switch * 0.99, n);
            let above = expected_locks_at_abort(p_switch * 1.01, n);
            // The analytic slope here is ≈ −(n²−1)/12, so that much drop
            // over the 2 % straddle is genuine; anything beyond a sliver
            // more would be a branch cliff.
            let slope = (n * n - 1.0) / 12.0 * (p_switch * 0.02);
            assert!(
                (below - above).abs() < 1.5 * slope + uniform * 1e-8,
                "n={n}: branch mismatch {below} vs {above}"
            );
        }
    }

    #[test]
    fn sigma_bounded() {
        for p in [0.0, 0.001, 0.1, 0.9] {
            let s = sigma(p, 16.0);
            assert!((0.0..=1.0).contains(&s), "p={p}: σ={s}");
        }
    }

    #[test]
    fn locks_held_no_aborts_no_think_is_half() {
        // P_a = 0, R_UT = 0: L_h = N_lk / 2 (uniform acquisition).
        let lh = locks_held(16.0, 0.5, 0.0, 1000.0, 0.0);
        assert!((lh - 8.0).abs() < 1e-12);
    }

    #[test]
    fn think_time_dilutes_locks_held() {
        let lh = locks_held(16.0, 0.5, 0.0, 1000.0, 1000.0);
        assert!((lh - 4.0).abs() < 1e-12, "half the cycle is thinking");
    }

    #[test]
    fn aborts_reduce_locks_held() {
        let lh0 = locks_held(16.0, 0.5, 0.0, 1000.0, 0.0);
        let lh = locks_held(16.0, 0.5, 0.3, 1000.0, 0.0);
        assert!(lh < lh0);
        assert!(lh > 0.0);
    }

    #[test]
    fn readers_do_not_block_readers() {
        let chains = [state(Lro, 4.0, 8.0)];
        let pb = blocking_probability(Lro, &chains, 3000.0, false);
        assert_eq!(pb, 0.0);
        // ... unless the exclusive-only ablation is on.
        let pb_x = blocking_probability(Lro, &chains, 3000.0, true);
        assert!(pb_x > 0.0);
    }

    #[test]
    fn writers_block_everyone_and_self_population_excluded() {
        let chains = [state(Lu, 2.0, 9.0), state(Lro, 2.0, 6.0)];
        // A reader is blocked only by the two LU transactions.
        let pb_r = blocking_probability(Lro, &chains, 3000.0, false);
        assert!((pb_r - 2.0 * 9.0 / 3000.0).abs() < 1e-12);
        // A writer is blocked by the other LU (not itself) and both LRO.
        let pb_w = blocking_probability(Lu, &chains, 3000.0, false);
        assert!((pb_w - (9.0 + 12.0) / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_by_distribution_sums_to_one() {
        let chains = [
            state(Lu, 2.0, 9.0),
            state(Lro, 2.0, 6.0),
            state(Duc, 1.0, 3.0),
        ];
        let mut d = [0.0; 3];
        blocked_by_distribution_into(Lu, &chains, false, &mut d);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Readers can only be blocked by the update chains.
        blocked_by_distribution_into(Lro, &chains, false, &mut d);
        assert_eq!(d[1], 0.0);
        assert!(d[0] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn deadlock_needs_blocked_blockers() {
        let pd = |chains: &[ChainLockState]| {
            deadlock_probability_scratch(0, chains, false, &mut Vec::new())
        };
        let mut chains = vec![state(Lu, 2.0, 9.0), state(Lro, 2.0, 6.0)];
        for c in &mut chains {
            c.blocked_frac = 0.0;
        }
        assert_eq!(pd(&chains), 0.0);
        // With blocked blockers the probability becomes positive for
        // writers…
        for c in &mut chains {
            c.blocked_frac = 0.2;
        }
        assert!(pd(&chains) > 0.0);
        // …and two pure readers can never deadlock with each other.
        assert_eq!(pd(&[state(Lro, 4.0, 8.0)]), 0.0);
    }

    #[test]
    fn blocking_ratio_near_one_third() {
        // Paper: BR ≈ 1/3, measured range 0.23–0.41.
        for n_lk in [4.0, 16.0, 48.0, 80.0] {
            let br = blocking_ratio(n_lk);
            assert!((0.33..=0.42).contains(&br), "n_lk={n_lk}: {br}");
        }
        assert!((blocking_ratio(1e9) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn scratch_variants_are_bitwise_identical() {
        // Scratch buffers reused across calls, first on a larger site,
        // must give the bits that fresh buffers give.
        let chains = [
            state(Lu, 2.0, 9.0),
            state(Lro, 2.0, 6.0),
            state(Duc, 1.0, 3.0),
        ];
        let larger = [
            state(Dus, 3.0, 5.0),
            state(Lu, 1.0, 2.0),
            state(Dros, 2.0, 7.0),
            state(Lro, 4.0, 4.0),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = LockWaitScratch::default();
        let mut out = Vec::new();
        let mut buf = Vec::new();
        lock_wait_times_consistent_into(&larger, true, None, &mut scratch, &mut out);
        deadlock_probability_scratch(3, &larger, true, &mut buf);
        for all_exclusive in [false, true] {
            for fixed_br in [None, Some(1.0 / 3.0)] {
                let mut fresh = Vec::new();
                let mut fresh_scratch = LockWaitScratch::default();
                lock_wait_times_consistent_into(
                    &chains,
                    all_exclusive,
                    fixed_br,
                    &mut fresh_scratch,
                    &mut fresh,
                );
                lock_wait_times_consistent_into(
                    &chains,
                    all_exclusive,
                    fixed_br,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(bits(&fresh), bits(&out));
            }
            for me_idx in 0..chains.len() {
                let fresh =
                    deadlock_probability_scratch(me_idx, &chains, all_exclusive, &mut Vec::new());
                let reused = deadlock_probability_scratch(me_idx, &chains, all_exclusive, &mut buf);
                assert_eq!(fresh.to_bits(), reused.to_bits());
            }
        }
    }
}
