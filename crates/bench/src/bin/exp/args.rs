//! The `exp` command line: `<experiment> [flags]` plus the
//! `CARAT_MEASURE_MS` window override. Strict: an unknown experiment, an
//! unknown flag, a flag another experiment owns, or a malformed value is
//! an error, never silently ignored.

use std::str::FromStr;

use carat::model::Accel;
use carat_bench::SweepOptions;

use crate::{bench, Experiment, EXPERIMENTS};

/// What `exp bench` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--emit`: print the model grid's canonical JSON.
    Emit,
    /// `--emit-sim`: print the replicated reference sim sweep's canonical
    /// JSON.
    EmitSim,
    /// `--check-iters`: the solver iteration-count regression gate.
    CheckIters,
}

impl Mode {
    /// The flag that selects the mode.
    fn flag(self) -> &'static str {
        match self {
            Mode::Emit => "--emit",
            Mode::EmitSim => "--emit-sim",
            Mode::CheckIters => "--check-iters",
        }
    }

    /// The `exp bench` option flags the mode reads.
    fn options(self) -> &'static [&'static str] {
        match self {
            Mode::Emit => &["--out", "--accel"],
            Mode::EmitSim => &["--out", "--reps"],
            Mode::CheckIters => &[],
        }
    }
}

/// A parsed `exp` command line.
#[derive(Debug)]
pub struct Args {
    /// The experiment to run.
    pub experiment: &'static Experiment,
    /// `--threads N` / `--sequential` / `--no-warm`.
    pub sweep: SweepOptions,
    /// `CARAT_MEASURE_MS`, when set: overrides the experiment's window.
    pub measure_ms: Option<f64>,
    /// `bench` only, and required there: `--emit` / `--emit-sim` /
    /// `--check-iters`.
    pub mode: Option<Mode>,
    /// `bench` only: `--out PATH`.
    pub out: Option<String>,
    /// `bench --emit-sim` only: `--reps R`.
    pub reps: u32,
    /// `bench --emit` only: `--accel off|anderson`.
    pub accel: Accel,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
}

/// Parses the arguments after the program name; `measure_ms` is the value
/// of `CARAT_MEASURE_MS`, if set.
pub fn parse(argv: &[String], measure_ms: Option<&str>) -> Result<Args, String> {
    let name = argv.first().ok_or("missing experiment name")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|(n, ..)| n == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let measure_ms = measure_ms
        .map(|v| match v.trim().parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms > 0.0 => Ok(ms),
            _ => Err(format!(
                "CARAT_MEASURE_MS expects a positive number of ms, got {v:?}"
            )),
        })
        .transpose()?;
    let mut args = Args {
        experiment,
        sweep: SweepOptions::default(),
        measure_ms,
        mode: None,
        out: None,
        reps: bench::SIM_REPS,
        accel: Accel::default(),
    };
    // The `exp bench` option flags given, checked against the mode below.
    let mut options = Vec::new();
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let mut mode = |m: Mode| {
            if args.mode.is_some_and(|old| old != m) {
                return Err("--emit, --emit-sim and --check-iters are exclusive".to_string());
            }
            args.mode = Some(m);
            Ok(())
        };
        match flag.as_str() {
            "--threads" => args.sweep.threads = number::<usize>(flag, value()?)?.max(1),
            "--sequential" => args.sweep.threads = 1,
            "--no-warm" => args.sweep.warm = false,
            _ if name != "bench" => return Err(format!("unknown flag {flag} for `exp {name}`")),
            "--emit" => mode(Mode::Emit)?,
            "--emit-sim" => mode(Mode::EmitSim)?,
            "--check-iters" => mode(Mode::CheckIters)?,
            "--out" => args.out = Some(value()?.clone()),
            "--reps" => args.reps = number::<u32>(flag, value()?)?.max(1),
            "--accel" => {
                let v = value()?;
                args.accel = Accel::parse(v)
                    .ok_or_else(|| format!("--accel expects off|anderson, got {v:?}"))?;
            }
            _ => return Err(format!("unknown flag {flag} for `exp {name}`")),
        }
        if matches!(flag.as_str(), "--out" | "--reps" | "--accel") {
            options.push(flag.as_str());
        }
    }
    if name == "bench" {
        let mode = args
            .mode
            .ok_or("`exp bench` needs a mode: --emit, --emit-sim or --check-iters")?;
        if let Some(flag) = options.iter().find(|f| !mode.options().contains(f)) {
            return Err(format!(
                "{flag} does not apply to `exp bench {}`",
                mode.flag()
            ));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&argv, None)
    }

    fn ok(s: &str) -> Args {
        parse_str(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    #[test]
    fn sweep_flags_override_the_defaults() {
        let a = ok("table3");
        let threads = SweepOptions::default().threads;
        assert_eq!(
            (a.experiment.0, a.sweep.threads, a.sweep.warm),
            ("table3", threads, true)
        );
        let a = ok("table3 --threads 6 --no-warm");
        assert_eq!((a.sweep.threads, a.sweep.warm), (6, false));
        // --threads 0 clamps to one worker; flags apply in order.
        for (argv, threads) in [
            ("cc --threads 0", 1),
            ("cc --threads 6 --sequential", 1),
            ("cc --sequential --threads 6", 6),
        ] {
            assert_eq!(ok(argv).sweep.threads, threads, "{argv}");
        }
    }

    #[test]
    fn bench_flags_pass_through() {
        let a = ok("bench --emit");
        assert_eq!((a.mode, a.out.as_deref()), (Some(Mode::Emit), None));
        assert_eq!((a.reps, a.accel), (bench::SIM_REPS, Accel::Anderson));
        let a = ok("bench --emit --out x.json --threads 6 --no-warm --accel off");
        assert_eq!(
            (a.mode, a.out.as_deref()),
            (Some(Mode::Emit), Some("x.json"))
        );
        assert_eq!(
            (a.sweep.threads, a.sweep.warm, a.accel),
            (6, false, Accel::Off)
        );
        // The mode flag may come after its options.
        assert_eq!(ok("bench --accel anderson --emit").accel, Accel::Anderson);
        let a = ok("bench --emit-sim --reps 5 --out y.json --sequential");
        assert_eq!(
            (a.mode, a.reps, a.out.as_deref(), a.sweep.threads),
            (Some(Mode::EmitSim), 5, Some("y.json"), 1)
        );
        // Zero replications clamp to one.
        assert_eq!(ok("bench --emit-sim --reps 0").reps, 1);
        assert_eq!(ok("bench --check-iters").mode, Some(Mode::CheckIters));
        assert_eq!(ok("table3").mode, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for (argv, says) in [
            ("", "missing experiment"),
            ("nosuch", "unknown experiment \"nosuch\""),
            ("table1 --bogus", "unknown flag --bogus"),
            // --warm-start is the default already; the bench flags belong
            // to `exp bench` alone.
            ("table3 --warm-start", "unknown flag --warm-start"),
            ("table3 --out x", "unknown flag --out for `exp table3`"),
            ("table3 --reps 2", "unknown flag --reps"),
            ("table3 --shards 2", "unknown flag --shards"),
            ("table3 --accel off", "unknown flag --accel"),
            ("table3 --emit", "unknown flag --emit"),
            ("bench --emit --check-iters", "exclusive"),
            ("table3 --threads x", "--threads expects a whole number"),
            ("table3 --threads", "missing value after --threads"),
            ("bench --emit-sim --reps x", "--reps expects a whole number"),
            ("bench --emit --accel", "missing value after --accel"),
            (
                "bench --emit --accel aitken",
                "--accel expects off|anderson",
            ),
            ("bench --emit --out", "missing value after --out"),
            // `exp bench` has no default mode, and a flag its mode does
            // not read is an error, whatever the order.
            ("bench", "`exp bench` needs a mode"),
            (
                "bench --sequential --out x.json",
                "`exp bench` needs a mode",
            ),
            (
                "bench --check-iters --accel anderson --out x.json",
                "--accel does not apply to `exp bench --check-iters`",
            ),
            (
                "bench --out x.json --check-iters",
                "--out does not apply to `exp bench --check-iters`",
            ),
            (
                "bench --check-iters --reps 2",
                "--reps does not apply to `exp bench --check-iters`",
            ),
            (
                "bench --emit --reps 5",
                "--reps does not apply to `exp bench --emit`",
            ),
            (
                "bench --accel anderson --emit-sim",
                "--accel does not apply to `exp bench --emit-sim`",
            ),
            ("bench --emit --shards 3", "unknown flag --shards"),
            ("bench --emit-sim --shards 2", "unknown flag --shards"),
        ] {
            let e = parse_str(argv).expect_err(argv);
            assert!(e.contains(says), "{argv}: {e}");
        }
    }

    #[test]
    fn measure_window_comes_from_the_environment() {
        let argv = vec!["lb8".to_string()];
        assert_eq!(parse(&argv, None).unwrap().measure_ms, None);
        assert_eq!(
            parse(&argv, Some("60000")).unwrap().measure_ms,
            Some(60_000.0)
        );
        for bad in ["", "soon", "0", "-5", "inf"] {
            let e = parse(&argv, Some(bad)).expect_err(bad);
            assert!(e.contains("CARAT_MEASURE_MS"), "{e}");
        }
    }

    #[test]
    fn every_experiment_name_is_unique() {
        for (i, &(name, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|e| e.0 != name),
                "{name} twice"
            );
            // `exp bench` also needs a mode.
            let argv = if name == "bench" {
                "bench --emit"
            } else {
                name
            };
            assert_eq!(ok(argv).experiment.0, name);
        }
    }
}
