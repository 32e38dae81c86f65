//! Model output reports (mirrors `carat-sim`'s report shapes so the bench
//! harness can print model-vs-measurement tables directly).

use std::collections::BTreeMap;

use carat_workload::{ChainType, TxType};

/// Per-transaction-type model predictions at one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelTypeReport {
    /// Predicted time content per phase, as milliseconds per commit cycle:
    /// `N_s · V_c · (R_c^cpu + R_c^disk)` for the processing phases plus
    /// the LW/RW/CW delay estimates — directly comparable with the
    /// simulator's measured `TypeReport::phase_ms` (service content only;
    /// the simulator's buckets additionally include queueing).
    pub phase_ms: std::collections::BTreeMap<&'static str, f64>,
    /// Predicted throughput (commits/s) of transactions homed at the node.
    pub xput_per_s: f64,
    /// Predicted commit-to-commit cycle time (ms), including failed
    /// executions and think times.
    pub response_ms: f64,
    /// `N_s`: mean submissions per commit (Eq. 4).
    pub n_s: f64,
    /// `Pb`: blocking probability per lock request (Eq. 15).
    pub pb: f64,
    /// `Pd`: deadlock-victim probability per blocked request.
    pub pd: f64,
    /// `P_a`: abort probability per execution (Eq. 3).
    pub p_a: f64,
    /// `L_h`: time-average locks held (Eq. 14).
    pub l_h: f64,
    /// `R_LW`: mean lock wait per blocked request (Eq. 20).
    pub r_lw_ms: f64,
}

/// Per-node model predictions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelNodeReport {
    /// Node label ("A", "B").
    pub name: String,
    /// CPU utilization (the paper's Total-CPU).
    pub cpu_util: f64,
    /// Database-disk utilization.
    pub disk_util: f64,
    /// Log-disk utilization (0 unless `separate_log_disk` is enabled).
    pub log_disk_util: f64,
    /// Disk I/O rate in granules/s (Total-DIO).
    pub dio_per_s: f64,
    /// Committed transactions/s homed at this node (TR-XPUT).
    pub tx_per_s: f64,
    /// Records accessed by committed transactions per second (normalized
    /// record throughput of Figures 5/8).
    pub records_per_s: f64,
    /// Per user transaction type (homed here).
    pub per_type: BTreeMap<TxType, ModelTypeReport>,
    /// Per chain running at this site (includes foreign slaves).
    pub per_chain: Vec<(ChainType, ModelTypeReport)>,
}

/// How the damped fixed-point iteration ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConvergenceInfo {
    /// Whether the iteration met the tolerance within the solver's
    /// 400-iteration cap (it practically always does; `false` means the
    /// damped iteration ran out of iterations and the report is the last
    /// iterate).
    pub converged: bool,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Largest relative change of any population estimate in the final
    /// iteration — the residual the tolerance is compared against. A
    /// non-converged solve reports how far it still was. This is the
    /// *undamped* step `|new − old| / (1 + |new|)`: the damping factor is
    /// divided back out so the residual reflects the true distance from
    /// the fixed point, not the (smaller) damped move actually applied.
    pub residual: f64,
    /// Whether this solve was seeded from a neighboring point's converged
    /// state ([`crate::Model::solve_warm`]) instead of the cold-start
    /// defaults.
    pub warm_started: bool,
    /// Accelerated steps ([`crate::solver::Accel`]) that were taken and
    /// survived the retrospective residual check. Always 0 with
    /// acceleration off.
    pub accel_accepted: usize,
    /// Accelerated steps that were rejected: either the candidate left the
    /// [0, 1]/positivity bounds before being applied, or the following
    /// iteration's residual grew and the state was rolled back to the
    /// plain damped iterate. Always 0 with acceleration off.
    pub accel_rejected: usize,
}

impl ConvergenceInfo {
    /// The warning a caller prints when the iteration did not converge:
    /// `None` when it did. A non-converged report is the last iterate, not
    /// a fixed point, so no caller shows it as a result without this line.
    pub fn warning(&self) -> Option<String> {
        (!self.converged).then(|| {
            format!(
                "warning: model did not converge after {} iterations (residual {:.2e}); \
                 results are the last iterate",
                self.iterations, self.residual
            )
        })
    }
}

/// Full model solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelReport {
    /// Per-node predictions.
    pub nodes: Vec<ModelNodeReport>,
    /// Fixed-point termination diagnostics.
    pub convergence: ConvergenceInfo,
}

impl ModelReport {
    /// System-wide committed transactions per second.
    pub fn total_tx_per_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.tx_per_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_nodes() {
        let mut r = ModelReport::default();
        r.nodes.push(ModelNodeReport {
            tx_per_s: 1.5,
            ..Default::default()
        });
        r.nodes.push(ModelNodeReport {
            tx_per_s: 0.5,
            ..Default::default()
        });
        assert!((r.total_tx_per_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn only_a_non_converged_solve_warns() {
        let mut info = ConvergenceInfo {
            converged: false,
            iterations: 400,
            residual: 6.7e-8,
            ..Default::default()
        };
        assert_eq!(
            info.warning().as_deref(),
            Some(
                "warning: model did not converge after 400 iterations (residual 6.70e-8); \
                 results are the last iterate"
            )
        );
        info.converged = true;
        assert_eq!(info.warning(), None);
    }
}
