//! The paper's own evaluation: the model-vs-measurement sweeps behind
//! Figures 5–10 and Tables 3–5 (rows of data run by [`run`]), Tables 1
//! and 2, and the model ablations of DESIGN.md §9.

use carat::model::{ModelOptions, Phase, TransitionMatrix};
use carat::workload::{ChainType, StandardWorkload, SystemParams};
use carat_bench::{
    model_chain, print_figures, print_per_type, print_table, run_tasks, shape_violations,
    solve_chain, sweep_with, ModelPoint, N_SWEEP, SEEDS,
};

use crate::args::Args;

/// One printed block of a paper sweep.
pub enum Section {
    /// Figure-style series (record throughput, CPU, DIO vs n): title, node.
    Figures(&'static str, usize),
    /// Table 3/4-style model-vs-measurement table, both nodes: title.
    Table(&'static str),
    /// Table 5-style per-type throughput: title.
    PerType(&'static str),
}

/// How a paper sweep ends.
pub enum Footer {
    /// Assert the shape checks pass, then print `shape checks: OK`.
    Shape,
    /// Print `done` (Table 5 makes no shape claims of its own).
    Done,
    /// The combined report of `exp all`: a title header up front, then
    /// `ALL SHAPE CHECKS PASSED`, or every violation with exit status 1.
    Report,
}

/// A paper sweep: the sections printed from each workload's model and
/// measurement sweep, workload by workload, then the footer.
pub struct PaperSweep {
    pub parts: &'static [(StandardWorkload, &'static [Section])],
    pub footer: Footer,
}

use Section::{Figures, PerType, Table};
use StandardWorkload::{Lb8, Mb4, Mb8, Ub6};

pub const ALL: PaperSweep = PaperSweep {
    parts: &[
        (
            Lb8,
            &[
                Figures("Figure 5-7 analogue: LB8, Node B", 1),
                Table("LB8 (full)"),
            ],
        ),
        (
            Mb4,
            &[
                Figures("Figure 8-10 analogue: MB4, Node A", 0),
                Figures("Figure 8-10 analogue: MB4, Node B", 1),
                PerType("Table 5 analogue: MB4 per-type throughput"),
            ],
        ),
        (Mb8, &[Table("Table 3 analogue: MB8")]),
        (Ub6, &[Table("Table 4 analogue: UB6")]),
    ],
    footer: Footer::Report,
};

/// Figures 5–7 (the paper plots node B; both nodes are printed).
pub const LB8: PaperSweep = PaperSweep {
    parts: &[(
        Lb8,
        &[
            Figures("Figure 5-7 analogue: LB8, Node B", 1),
            Figures("LB8, Node A (not plotted in the paper)", 0),
            Table("LB8 full comparison"),
        ],
    )],
    footer: Footer::Shape,
};

/// Figures 8–10, both nodes.
pub const MB4: PaperSweep = PaperSweep {
    parts: &[(
        Mb4,
        &[
            Figures("Figure 8-10 analogue: MB4, Node A", 0),
            Figures("Figure 8-10 analogue: MB4, Node B", 1),
            Table("MB4 full comparison"),
        ],
    )],
    footer: Footer::Shape,
};

pub const TABLE3: PaperSweep = PaperSweep {
    parts: &[(Mb8, &[Table("Table 3 analogue: MB8 model vs measurement")])],
    footer: Footer::Shape,
};

pub const TABLE4: PaperSweep = PaperSweep {
    parts: &[(Ub6, &[Table("Table 4 analogue: UB6 model vs measurement")])],
    footer: Footer::Shape,
};

pub const TABLE5: PaperSweep = PaperSweep {
    parts: &[(Mb4, &[PerType("Table 5 analogue: MB4 per-type throughput")])],
    footer: Footer::Done,
};

/// Runs one paper sweep: each workload's model chain and its [`SEEDS`] ×
/// n simulator runs with a `ms` measured window on the sweep engine, its
/// sections printed as soon as it is done.
pub fn run(sweep: &PaperSweep, args: &Args, ms: f64) {
    if let Footer::Report = sweep.footer {
        println!("# CARAT model-vs-measurement report");
        println!(
            "(simulated testbed: {} seeds × {:.0} s measured window per point)",
            SEEDS.len(),
            ms / 1000.0
        );
    }
    let mut problems = Vec::new();
    for &(wl, sections) in sweep.parts {
        let rows = sweep_with(wl, ms, &args.sweep);
        for section in sections {
            match *section {
                Figures(title, node) => print_figures(title, &rows, node),
                Table(title) => print_table(title, &rows),
                PerType(title) => print_per_type(title, &rows),
            }
        }
        for p in shape_violations(&rows) {
            problems.push(format!("{wl}: {p}"));
        }
    }
    match sweep.footer {
        Footer::Shape => {
            assert!(problems.is_empty(), "shape violations: {problems:?}");
            println!("\nshape checks: OK");
        }
        Footer::Done => println!("\ndone"),
        Footer::Report if problems.is_empty() => println!("\nALL SHAPE CHECKS PASSED"),
        Footer::Report => {
            println!("\nSHAPE VIOLATIONS:");
            for p in &problems {
                println!("  - {p}");
            }
            std::process::exit(1);
        }
    }
}

/// Table 1: the phase-transition probability matrix for a representative
/// parameterisation (a distributed coordinator with n = 8, l = r = 4,
/// q ≈ 4), checked against the structural identities the paper states
/// (row stochasticity, `C = 2n + 1` transitions out of TM with the n/C,
/// l/C, r/C, 1/C split).
pub fn table1(_: &Args, _: f64) {
    let (n, l, r, q) = (8.0, 4.0, 4.0, 3.99);
    let m = TransitionMatrix::local_or_coordinator(
        n,
        l,
        r,
        q,
        carat::model::phases::Hazards {
            pb: 0.05,
            pd: 0.02,
            pra: 0.01,
        },
    );

    println!("## Table 1 analogue: phase transition probabilities");
    println!("(distributed coordinator, n = {n}, l = {l}, r = {r}, q = {q},");
    println!(" Pb = 0.05, Pd = 0.02, Pra = 0.01)\n");

    print!("{:6}", "");
    for to in Phase::ALL {
        print!("{:>7}", to.label());
    }
    println!();
    for from in Phase::ALL {
        print!("{:6}", from.label());
        for to in Phase::ALL {
            let p = m.p[from.idx()][to.idx()];
            if p == 0.0 {
                print!("{:>7}", "·");
            } else {
                print!("{p:>7.3}");
            }
        }
        println!();
    }

    println!("\nstructural checks:");
    let c = 2.0 * n + 1.0;
    assert!((m.p[Phase::Tm.idx()][Phase::U.idx()] - n / c).abs() < 1e-12);
    assert!((m.p[Phase::Tm.idx()][Phase::Dm.idx()] - l / c).abs() < 1e-12);
    assert!((m.p[Phase::Tm.idx()][Phase::Rw.idx()] - r / c).abs() < 1e-12);
    assert!((m.p[Phase::Tm.idx()][Phase::Tc.idx()] - 1.0 / c).abs() < 1e-12);
    for from in Phase::ALL {
        let s = m.row_sum(from);
        assert!((s - 1.0).abs() < 1e-12, "{from:?} row sum {s}");
    }
    println!("  every row sums to 1                            OK");
    println!("  TM row splits n/C, l/C, r/C, 1/C with C = 2n+1 OK");

    let v = m.visit_counts();
    println!("\nvisit counts per execution (with the hazards above):");
    for ph in Phase::ALL {
        println!("  V_{:5} = {:8.4}", ph.label(), v.get(ph));
    }
}

/// Table 2: the basic parameter values. These are inputs, not results:
/// printed for provenance and asserted equal to the paper's published
/// milliseconds.
pub fn table2(_: &Args, _: f64) {
    let p = SystemParams::default();
    println!("## Table 2: basic parameter values (milliseconds)");
    println!("| Node | t   | R_U | R_TM | R_DM | R_LR | R_DMIO^cpu | R_DMIO^disk |");
    println!("|------|-----|-----|------|------|------|------------|-------------|");
    for (i, node) in p.nodes.iter().enumerate() {
        for (t, label) in [
            (ChainType::Lro, "LRO"),
            (ChainType::Lu, "LU"),
            (ChainType::Droc, "DRO"),
            (ChainType::Duc, "DU"),
        ] {
            println!(
                "| {}    | {:3} | {} | {:4.1} | {:4.1} | {:4.1} | {:10.1} | {:11.1} |",
                node.name,
                label,
                p.basic.r_u,
                p.basic.r_tm(t),
                p.basic.r_dm(t),
                p.basic.r_lr,
                p.basic.r_dmio_cpu(t),
                p.dmio_disk(t, i),
            );
        }
    }
    // The paper's exact values.
    assert_eq!(p.basic.r_u, 7.8);
    assert_eq!(p.basic.r_tm(ChainType::Lro), 8.0);
    assert_eq!(p.basic.r_tm(ChainType::Duc), 12.0);
    assert_eq!(p.basic.r_dm(ChainType::Lro), 5.4);
    assert_eq!(p.basic.r_dm(ChainType::Lu), 8.6);
    assert_eq!(p.basic.r_lr, 2.2);
    assert_eq!(p.dmio_disk(ChainType::Lro, 0), 28.0);
    assert_eq!(p.dmio_disk(ChainType::Lu, 0), 84.0);
    assert_eq!(p.dmio_disk(ChainType::Lro, 1), 40.0);
    assert_eq!(p.dmio_disk(ChainType::Lu, 1), 120.0);
    println!("\nall values match the paper's Table 2: OK");
    println!("(derived costs — INIT/TC/TCIO/TA/TAIO/UL — documented in DESIGN.md §6)");
}

/// Ablations (DESIGN.md §9): how much do the model ingredients the paper
/// argues for actually matter?
///
/// * `no-deadlock` — Pd forced to 0 (concurrency control without rollback
///   modelling, as in many earlier analytical studies);
/// * `all-X` — every lock treated as exclusive (the assumption the paper
///   criticises);
/// * `BR=1/3` — fixed blocking ratio instead of (2N_lk+1)/(6N_lk);
/// * `+TM` — TM serialisation modelled as a shadow center (the paper
///   *ignores* TM serialisation and flags the resulting optimism at
///   n = 4).
pub fn ablations(args: &Args, _: f64) {
    let wl = Mb8;

    // One warm-start chain per model variant, ascending n; the chains are
    // independent tasks on the sweep engine.
    let variant = |set: fn(&mut ModelOptions)| {
        let mut o = ModelOptions::default();
        set(&mut o);
        o
    };
    let variants: Vec<(&str, ModelOptions)> = vec![
        ("full model", ModelOptions::default()),
        ("no-deadlock", variant(|o| o.ignore_deadlocks = true)),
        ("all-X", variant(|o| o.all_locks_exclusive = true)),
        ("BR=1/3", variant(|o| o.fixed_br = Some(1.0 / 3.0))),
        ("+TM", variant(|o| o.model_tm_serialization = true)),
    ];
    let chains: Vec<Vec<ModelPoint>> = variants.iter().map(|(_, o)| model_chain(wl, o)).collect();
    let warm = args.sweep.warm;
    let solved = run_tasks(chains, &args.sweep, |_, pts| solve_chain(&pts, warm));

    println!("## Ablations on the MB8 workload (model TR-XPUT at node A, tx/s)");
    let names: Vec<&str> = variants.iter().map(|(name, _)| *name).collect();
    println!("| n  | {} |", names.join(" | "));
    println!("|----|-----------|-------------|-------|--------|-----|");
    for (i, &n) in N_SWEEP.iter().enumerate() {
        println!(
            "| {:2} |      {:5.2} |       {:5.2} | {:5.2} |  {:5.2} | {:5.2} |",
            n,
            solved[0][i].nodes[0].tx_per_s,
            solved[1][i].nodes[0].tx_per_s,
            solved[2][i].nodes[0].tx_per_s,
            solved[3][i].nodes[0].tx_per_s,
            solved[4][i].nodes[0].tx_per_s,
        );
    }

    // Key qualitative claims, read off the solved chains (n indices into
    // N_SWEEP: 8 -> 1, 20 -> 4).
    let base8 = &solved[0][1];
    let base20 = &solved[0][4];
    let nodl20 = &solved[1][4];
    let allx8 = &solved[2][1];
    // Integrated-model effect: ignoring the deadlock/rollback machinery at
    // high contention removes the abort pressure valve — blocked
    // transactions hold locks indefinitely, lock waits balloon, and the
    // prediction DROPS. Concurrency control and recovery cannot be
    // modelled separately (the paper's §1 argument, after AGRA85b).
    assert!(
        nodl20.nodes[0].tx_per_s < base20.nodes[0].tx_per_s,
        "without rollback modelling, predicted lock waits must grow at n=20"
    );
    assert!(
        allx8.nodes[0].tx_per_s < base8.nodes[0].tx_per_s,
        "exclusive-only locking must under-predict throughput (extra conflicts)"
    );
    println!("\nqualitative checks (no-deadlock over-predicts, all-X under-predicts): OK");
}
