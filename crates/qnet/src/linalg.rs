//! Dense linear algebra: Gaussian elimination with partial pivoting.
//!
//! The systems solved here are tiny (the CARAT phase set has 16 states, so
//! the traffic equations are 16×16) — a dense O(n³) solve is the right tool;
//! pulling in a linear-algebra crate would be unjustified.

/// Error returned when a linear system has no unique solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix;

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

/// Solves the dense system `A·x = b` in place and returns `x`.
///
/// `a` is row-major (`n × n`), `b` has length `n`. Uses Gaussian elimination
/// with partial pivoting; returns [`SingularMatrix`] when the pivot falls
/// below `1e-12` of the largest row entry.
///
/// ```
/// let a = vec![2.0, 1.0, 1.0, 3.0];
/// let b = vec![3.0, 5.0];
/// let x = carat_qnet::solve_dense(&a, &b).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
pub fn solve_dense(a: &[f64], b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
    let mut m = a.to_vec();
    let mut x = b.to_vec();
    solve_dense_in_place(&mut m, &mut x)?;
    Ok(x)
}

/// Allocation-free variant of [`solve_dense`]: destroys `m` (the row-major
/// `n × n` matrix) and overwrites `x` (initially the right-hand side) with
/// the solution. The elimination is bit-for-bit the one `solve_dense`
/// performs, so both entry points produce identical results; this one lets
/// callers that solve the same-shaped system hundreds of times per run
/// (the traffic equations, the lock-wait system) reuse their buffers.
pub fn solve_dense_in_place(m: &mut [f64], x: &mut [f64]) -> Result<(), SingularMatrix> {
    let n = x.len();
    assert_eq!(m.len(), n * n, "matrix shape mismatch");

    for col in 0..n {
        // Partial pivot: pick the row with the largest entry in this column,
        // the last one on a tie.
        let mut pivot_row = col;
        let mut largest = m[col * n + col].abs();
        for row in col + 1..n {
            let v = m[row * n + col].abs();
            if v.total_cmp(&largest).is_ge() {
                (pivot_row, largest) = (row, v);
            }
        }
        if largest < 1e-12 {
            return Err(SingularMatrix);
        }
        let (upper, lower) = m.split_at_mut((col + 1) * n);
        let pivot_eq = &mut upper[col * n..];
        if pivot_row != col {
            pivot_eq.swap_with_slice(&mut lower[(pivot_row - col - 1) * n..][..n]);
            x.swap(col, pivot_row);
        }
        let pivot = pivot_eq[col];
        let (x_upper, x_lower) = x.split_at_mut(col + 1);
        let x_pivot = x_upper[col];
        for (eq, xr) in lower.chunks_exact_mut(n).zip(x_lower) {
            let factor = eq[col] / pivot;
            if factor == 0.0 {
                continue;
            }
            eq[col] = 0.0;
            for (a, &p) in eq[col + 1..].iter_mut().zip(&pivot_eq[col + 1..]) {
                *a -= factor * p;
            }
            *xr -= factor * x_pivot;
        }
    }

    // Back substitution.
    for row in (0..n).rev() {
        let eq = &m[row * n..][..n];
        let mut acc = x[row];
        for (&a, &xk) in eq[row + 1..].iter().zip(&x[row + 1..]) {
            acc -= a * xk;
        }
        x[row] = acc / eq[row];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![7.0, -3.0];
        assert_eq!(solve_dense(&a, &b).unwrap(), vec![7.0, -3.0]);
    }

    #[test]
    fn solves_3x3_with_pivoting() {
        // First pivot is zero → requires row exchange.
        #[rustfmt::skip]
        let a = vec![
            0.0, 2.0, 1.0,
            1.0, 1.0, 1.0,
            2.0, 0.0, 3.0,
        ];
        let b = vec![5.0, 6.0, 5.0];
        let x = solve_dense(&a, &b).unwrap();
        // verify A·x = b
        for (i, &bi) in b.iter().enumerate() {
            let dot: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
            assert!((dot - bi).abs() < 1e-10, "row {i}: {dot} vs {bi}");
        }
    }

    #[test]
    fn detects_singular() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        let b = vec![1.0, 2.0];
        assert_eq!(solve_dense(&a, &b), Err(SingularMatrix));
    }

    #[test]
    fn in_place_matches_allocating_bitwise() {
        #[rustfmt::skip]
        let a = vec![
            0.0, 2.0, 1.0,
            1.0, 1.0, 1.0,
            2.0, 0.0, 3.0,
        ];
        let b = vec![5.0, 6.0, 5.0];
        let x = solve_dense(&a, &b).unwrap();
        let mut m = a.clone();
        let mut y = b.clone();
        solve_dense_in_place(&mut m, &mut y).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn random_roundtrip() {
        // Deterministic pseudo-random matrix; verify residual.
        let n = 12;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
        // Diagonal dominance to guarantee nonsingularity.
        let mut a = a;
        for i in 0..n {
            a[i * n + i] += 10.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve_dense(&a, &b).unwrap();
        for i in 0..n {
            let dot: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!((dot - b[i]).abs() < 1e-9);
        }
    }
}
