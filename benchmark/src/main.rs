//! End-to-end and per-layer benchmark of the CARAT model and its three
//! simulator engines. See `benchmark/README.md` for the workloads, the
//! metrics, and how to read them.
//!
//! ```text
//! carat-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! carat-benchmark compare --base FILE... --head FILE...
//! ```
//!
//! Without `--workload` every workload runs, each in its own process, one
//! after another. Each workload prints its metrics by name and unit, then
//! one JSON result line; the process exits non-zero when a correctness
//! gate fails. `--trace 1` gives the per-layer metrics in place of the
//! end-to-end ones. `compare` reads the bounds from `BENCHMARK.json` in the
//! working directory, the repository root.

use std::process::{Command, ExitCode};

use carat_benchmark::compare;
use carat_benchmark::workload::Workload;

const USAGE: &str = "usage: carat-benchmark [--workload NAME] [--seed S] [--seconds T] \
[--trace 0|1] [--smoke]\n       carat-benchmark compare --base FILE... --head FILE...";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be finite and non-negative".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Runs one workload in this process and prints its result.
fn run_workload(w: Workload, a: &Args) -> bool {
    println!(
        "# carat-benchmark workload={} seed={} trace={} smoke={}",
        w.name(),
        a.seed,
        a.trace as u8,
        a.smoke
    );
    let out = carat_benchmark::run(w, a.seed, a.seconds, a.trace, a.smoke);
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("correctness gate failed: {e}");
    }
    println!("{}", out.to_json());
    out.correct()
}

/// Runs every workload, each in a child process of this program.
fn run_all(raw: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this program: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    ok
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut target = None;
    for arg in args {
        match arg.as_str() {
            "--base" => target = Some(&mut base),
            "--head" => target = Some(&mut head),
            file => target
                .as_mut()
                .ok_or(format!("`{file}`: say --base or --head first"))?
                .push(file.to_string()),
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("compare needs --base and --head files".into());
    }
    compare::compare(&base, &head)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let ok = if raw.first().map(String::as_str) == Some("compare") {
        match run_compare(&raw[1..]) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        match parse_args(&raw) {
            Ok(a) => match a.workload {
                Some(w) => run_workload(w, &a),
                None => run_all(&raw),
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
