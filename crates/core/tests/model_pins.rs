//! The model's output off the default sweep, pinned byte for byte.
//!
//! `crates/bench/tests/emit_pinned.rs` pins the two-site sweep with every
//! ablation off, under both accelerators. The ablation switches, k-site
//! points with think time and warm chains are otherwise checked only
//! within a tolerance. These digests pin their absolute bytes: per
//! configuration, an FNV-1a hash of the `ModelReport`'s `Debug` form,
//! which prints every `f64` in its shortest round-trip form, plus the hash
//! of one logged solve's `IterLog` JSON per accelerator.

use carat_model::{Accel, Model, ModelConfig, ModelOptions, ModelReport, WarmStart};
use carat_obs::IterLog;
use carat_workload::{StandardWorkload, SystemParams};

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `wl` at transaction size `n` over `sites` sites with user think time
/// `think_ms`.
fn config(wl: StandardWorkload, sites: usize, n: u32, think_ms: f64) -> ModelConfig {
    let mut cfg = ModelConfig::new(wl.spec(sites), n);
    cfg.params = SystemParams::with_sites(sites);
    cfg.params.think_time_ms = think_ms;
    cfg
}

fn options(accel: Accel) -> ModelOptions {
    ModelOptions {
        accel,
        ..ModelOptions::default()
    }
}

/// One digest line: iterations, residual bits and the report's hash.
fn line(name: &str, report: &ModelReport) -> String {
    format!(
        "{name}: iters {} residual {:016x} report {:016x}",
        report.convergence.iterations,
        report.convergence.residual.to_bits(),
        fnv(format!("{report:?}").as_bytes()),
    )
}

/// The pinned cold solves: both accelerators on two-site points, each
/// ablation under both accelerators, and k-site points with think time
/// (the 5-site lattices are large enough for the parallel per-site
/// solve).
fn cold_cases() -> Vec<(String, ModelConfig, ModelOptions)> {
    let mut cases = Vec::new();
    for (accel, tag) in [(Accel::Off, "off"), (Accel::Anderson, "anderson")] {
        for (wl, n) in [
            (StandardWorkload::Mb4, 12),
            (StandardWorkload::Mb8, 16),
            (StandardWorkload::Ub6, 20),
        ] {
            let name = format!("{wl}/2site/n{n}/{tag}");
            cases.push((name, config(wl, 2, n, 0.0), options(accel)));
        }
        let base = options(accel);
        let ablations = [
            (
                "no-deadlock",
                StandardWorkload::Mb8,
                20,
                ModelOptions {
                    ignore_deadlocks: true,
                    ..base.clone()
                },
            ),
            (
                "all-X",
                StandardWorkload::Mb8,
                8,
                ModelOptions {
                    all_locks_exclusive: true,
                    ..base.clone()
                },
            ),
            (
                "BR=1/3",
                StandardWorkload::Mb8,
                16,
                ModelOptions {
                    fixed_br: Some(1.0 / 3.0),
                    ..base.clone()
                },
            ),
            (
                "+TM",
                StandardWorkload::Mb8,
                4,
                ModelOptions {
                    model_tm_serialization: true,
                    ..base.clone()
                },
            ),
            (
                "log-disk",
                StandardWorkload::Lb8,
                8,
                ModelOptions {
                    separate_log_disk: true,
                    ..base
                },
            ),
        ];
        for (ablation, wl, n, opts) in ablations {
            let name = format!("{wl}/2site/n{n}/{ablation}/{tag}");
            cases.push((name, config(wl, 2, n, 0.0), opts));
        }
        for (wl, sites, n, think_ms) in [
            (StandardWorkload::Mb4, 3, 8, 1_000.0),
            (StandardWorkload::Ub6, 3, 12, 5_000.0),
            (StandardWorkload::Mb8, 4, 8, 1_000.0),
            (StandardWorkload::Mb8, 5, 8, 1_000.0),
        ] {
            let mut opts = options(accel);
            opts.threads = 2;
            let name = format!("{wl}/{sites}site/n{n}/think{think_ms}/{tag}");
            cases.push((name, config(wl, sites, n, think_ms), opts));
        }
    }
    cases
}

#[test]
fn off_default_model_bytes_are_pinned() {
    let mut got: Vec<String> = cold_cases()
        .into_iter()
        .map(|(name, cfg, opts)| line(&name, &Model::with_options(cfg, opts).solve()))
        .collect();

    // One warm chain: three sites, think time, Anderson, ascending n.
    let mut warm: Option<WarmStart> = None;
    for n in [4, 8, 12] {
        let cfg = config(StandardWorkload::Mb4, 3, n, 1_000.0);
        let model = Model::with_options(cfg, options(Accel::Anderson));
        let (report, next) = model.solve_warm(warm.as_ref());
        assert_eq!(report.convergence.warm_started, n != 4);
        got.push(line(&format!("warm/MB4/3site/n{n}/anderson"), &report));
        warm = Some(next);
    }

    // The iteration log of one logged solve per accelerator.
    for (accel, tag) in [(Accel::Off, "off"), (Accel::Anderson, "anderson")] {
        let mut log = IterLog::new();
        log.begin_point("MB8/n16");
        let cfg = config(StandardWorkload::Mb8, 2, 16, 0.0);
        Model::with_options(cfg, options(accel)).solve_logged(None, Some(&mut log));
        got.push(format!(
            "iterlog/MB8/2site/n16/{tag}: rows {} json {:016x}",
            log.len(),
            fnv(log.to_json().as_bytes()),
        ));
    }

    assert_eq!(got, PINNED, "model output moved:\n{}", got.join("\n"));
}

/// Expected digest lines, in the order the test produces them.
const PINNED: &[&str] = &[
    "MB4/2site/n12/off: iters 42 residual 3e06c3a12c2e0ed4 report cb9adb663851314a",
    "MB8/2site/n16/off: iters 50 residual 3e11034ff0e1e4dd report 98f8d8c58a3c446d",
    "UB6/2site/n20/off: iters 54 residual 3e0c5e0edc45f1c2 report 98332e733794dcdc",
    "MB8/2site/n20/no-deadlock/off: iters 39 residual 3e088b21e88313ff report 6904e64fe860ad62",
    "MB8/2site/n8/all-X/off: iters 43 residual 3e0ac5034b65af77 report dce2f21b502c7838",
    "MB8/2site/n16/BR=1/3/off: iters 50 residual 3e07cbb0f9ad8a72 report 83eb5983157764c7",
    "MB8/2site/n4/+TM/off: iters 39 residual 3e07ad0e415bdbd8 report ea6e1ca1af5537c9",
    "LB8/2site/n8/log-disk/off: iters 32 residual 3e016849cf2c2be5 report 485c23c8a4f9f268",
    "MB4/3site/n8/think1000/off: iters 37 residual 3e0b29fb70eeaca2 report 482b35bf361c2f34",
    "UB6/3site/n12/think5000/off: iters 38 residual 3e10fe64ec9f7839 report c45d09053e1858b8",
    "MB8/4site/n8/think1000/off: iters 37 residual 3e0ac08a34f3fed3 report 59750bc21f7a1db1",
    "MB8/5site/n8/think1000/off: iters 37 residual 3e062c75b7e5aa22 report c3846cb7d15908ee",
    "MB4/2site/n12/anderson: iters 16 residual 3deb0c7280147f38 report f63bb95b5703f35f",
    "MB8/2site/n16/anderson: iters 26 residual 3de8a08026ba939d report 6249b495841e507b",
    "UB6/2site/n20/anderson: iters 30 residual 3e0c640795904fa4 report 9c334b6ba0eb2b17",
    "MB8/2site/n20/no-deadlock/anderson: iters 15 residual 3e1033adf907a15d report 6ed1d3f88ab9fa16",
    "MB8/2site/n8/all-X/anderson: iters 16 residual 3df7f1770c09ba11 report 730ff2097cee4453",
    "MB8/2site/n16/BR=1/3/anderson: iters 26 residual 3ddf49e410b8a49f report ecc56a4e521500b0",
    "MB8/2site/n4/+TM/anderson: iters 12 residual 3e04d09bcd6654b0 report 42ed51e674772495",
    "LB8/2site/n8/log-disk/anderson: iters 16 residual 3e031601b998f508 report d6b2b4f97bf2f23c",
    "MB4/3site/n8/think1000/anderson: iters 14 residual 3df39d6476dc790c report 38136779f963ea4e",
    "UB6/3site/n12/think5000/anderson: iters 16 residual 3de91fe9d9d67c8d report 5d3962d827d4a7a4",
    "MB8/4site/n8/think1000/anderson: iters 15 residual 3e08758833688e44 report 06823a7e092b21d8",
    "MB8/5site/n8/think1000/anderson: iters 14 residual 3de4e96ecaaf2f32 report 86871c24774a833b",
    "warm/MB4/3site/n4/anderson: iters 11 residual 3e057a1ec0e402ae report 29d1a2c472591a31",
    "warm/MB4/3site/n8/anderson: iters 13 residual 3df042d0c5136c2b report 00ab4979eb5400a9",
    "warm/MB4/3site/n12/anderson: iters 15 residual 3dfed021fef5a08c report 87e41c3fa69ea25a",
    "iterlog/MB8/2site/n16/off: rows 600 json 5cf1d2750e478d1a",
    "iterlog/MB8/2site/n16/anderson: rows 312 json 0ef762f4bca23735",
];
