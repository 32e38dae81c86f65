//! Hand-rolled argument parsing (no external dependencies).

use carat::prelude::*;
use carat::workload::AccessPattern;

/// What the user asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Solve the analytical model.
    Model(RunSpec),
    /// Run the simulated testbed.
    Sim(RunSpec),
    /// Run both and print them side by side.
    Compare(RunSpec),
    /// Print usage.
    Help,
}

/// A parsed run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name.
    pub workload: StandardWorkload,
    /// Transaction sizes to evaluate.
    pub n_values: Vec<u32>,
    /// RNG seed (simulator only).
    pub seed: u64,
    /// Measurement window in simulated seconds (simulator only).
    pub measure_s: f64,
    /// Communication delay α (ms).
    pub alpha_ms: f64,
    /// User think time (ms).
    pub think_ms: f64,
    /// Access skew, if any.
    pub hotspot: Option<(f64, f64)>,
    /// Dedicated journal disk.
    pub separate_log: bool,
    /// Model the TM serialisation center (model only).
    pub tm_center: bool,
    /// Use Chandy–Misra–Haas probe messages (simulator only).
    pub probes: bool,
    /// Concurrency-control protocol (simulator only; the model covers 2PL).
    pub cc: carat::sim::CcProtocol,
    /// Injected node crashes `(at_ms, site)` (simulator only).
    pub crashes: Vec<(f64, usize)>,
    /// Deadlock victim policy (simulator, 2PL only).
    pub victim: carat::sim::VictimPolicy,
    /// Fault-injection plan (simulator only).
    pub fault: carat::sim::FaultPlan,
    /// Partition / replication plan (simulator only).
    pub partition: carat::sim::PartitionPlan,
    /// Event budget; `0` = unlimited (simulator only). A run that exceeds
    /// it aborts with a structured error instead of spinning forever.
    pub max_events: u64,
    /// Independent simulator replications per point (simulator only):
    /// seeds derived as `seed ^ splitmix64(rep)`, results reported as
    /// mean ± 95 % confidence interval.
    pub reps: u32,
    /// Worker threads — for the model's per-site MVA solves and for
    /// parallel simulator replications (results are bitwise identical for
    /// every value).
    pub threads: usize,
    /// Warm-start each model solve from the previous transaction size's
    /// converged fixed point.
    pub warm_start: bool,
    /// Outer-loop fixed-point acceleration (model only; `off` is
    /// byte-identical to the plain damped iteration).
    pub accel: carat::model::Accel,
    /// Write a transaction-lifecycle trace here (simulator, single run
    /// only). `.jsonl` writes line-delimited events; anything else writes
    /// Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`.
    pub trace: Option<String>,
    /// Trace filter spec (`kind=...;node=...;ty=...`), validated at parse
    /// time; `None` keeps every event.
    pub trace_filter: Option<String>,
    /// Sim-time metrics sampling cadence in milliseconds (simulator,
    /// single run only); `None` disables the recorder entirely.
    pub metrics_ms: Option<f64>,
    /// Metrics filter spec (categories and/or metric names, `|`- or
    /// `,`-separated), validated at parse time; `None` keeps every metric.
    pub metrics_filter: Option<String>,
    /// Write the sampled metrics here instead of only summarizing:
    /// `.csv` writes CSV, `.json` writes a Chrome trace-event document of
    /// counter tracks, anything else writes JSONL.
    pub metrics_out: Option<String>,
    /// Write the solver's per-iteration convergence log here (model only).
    /// `.csv` writes CSV; anything else writes JSON.
    pub iter_log: Option<String>,
    /// Number of sites (default 2, the testbed's pair of VAXes). Larger
    /// clusters replicate the workload's per-node user population and
    /// alternate the Table 2 disk speeds across sites.
    pub sites: usize,
    /// Worker threads for the site-sharded simulator engine (simulator
    /// only; `None` falls back to `CARAT_SHARDS`, then 1). Reports are
    /// byte-identical for every value.
    pub shards: Option<usize>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: StandardWorkload::Mb4,
            n_values: vec![8],
            seed: 7,
            measure_s: 300.0,
            alpha_ms: 0.0,
            think_ms: 0.0,
            hotspot: None,
            separate_log: false,
            tm_center: false,
            probes: false,
            cc: carat::sim::CcProtocol::TwoPhaseLocking,
            crashes: Vec::new(),
            victim: carat::sim::VictimPolicy::Requester,
            fault: carat::sim::FaultPlan::default(),
            partition: carat::sim::PartitionPlan::default(),
            max_events: 0,
            reps: 1,
            threads: 1,
            warm_start: false,
            accel: carat::model::Accel::Off,
            trace: None,
            trace_filter: None,
            metrics_ms: None,
            metrics_filter: None,
            metrics_out: None,
            iter_log: None,
            sites: 2,
            shards: None,
        }
    }
}

impl RunSpec {
    /// System parameters implied by the flags. `--sites 2` (the default)
    /// reproduces `SystemParams::default()` exactly.
    pub fn params(&self) -> SystemParams {
        SystemParams {
            comm_delay_ms: self.alpha_ms,
            think_time_ms: self.think_ms,
            access: match self.hotspot {
                Some((h, a)) => AccessPattern::Hotspot {
                    hot_data_frac: h,
                    hot_access_prob: a,
                },
                None => AccessPattern::Uniform,
            },
            ..SystemParams::with_sites(self.sites)
        }
    }

    /// Effective simulator shard count: `--shards`, else the
    /// `CARAT_SHARDS` environment variable, else 1.
    pub fn effective_shards(&self) -> usize {
        self.shards
            .or_else(|| {
                std::env::var("CARAT_SHARDS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(1)
            .max(1)
    }
}

/// Usage text.
pub const USAGE: &str = "\
carat-cli — CARAT queueing-network-model reproduction

USAGE:
    carat-cli <model|sim|compare> [FLAGS]

FLAGS:
    --workload <lb8|mb4|mb8|ub6>   workload (default mb4)
    --n <N | A..B | A,B,C>         transaction size(s) (default 8)
    --sites <k>                    number of sites (default 2); larger clusters
                                   replicate the per-node user population and
                                   alternate the Table 2 disk speeds
    --shards <k>                   simulator worker threads for the per-site
                                   conservative engine, which runs
                                   site-separable configs and cross-site
                                   ones with --alpha > 0 (and --probes
                                   under 2PL) (default $CARAT_SHARDS,
                                   else 1; reports are byte-identical for
                                   every k)
    --seed <u64>                   simulator RNG seed (default 7)
    --measure-s <secs>             simulated measurement window (default 300)
    --alpha <ms>                   communication delay α (default 0)
    --think <ms>                   user think time (default 0)
    --hotspot <frac:prob>          b–c access skew, e.g. 0.2:0.8
    --separate-log                 dedicated journal disk
    --tm                           model the TM serialisation center
    --probes                       Chandy–Misra–Haas probe messages
    --cc <2pl|bto|thomas>          concurrency control (sim; default 2pl)
    --crash <secs:node>            inject a node crash (repeatable)
    --victim <requester|youngest>  deadlock victim policy (default requester)
    --drop <prob>                  message drop probability (sim; default 0)
    --dup <prob>                   message duplication probability (sim; default 0)
    --jitter <ms>                  max extra network delivery delay (sim; default 0)
    --mttf <secs>                  mean time to node failure (sim; 0 = off)
    --mttr <secs>                  mean time to node repair (sim; 0 = instant)
    --net-timeout <ms>             message timeout before retransmission (sim)
    --net-retries <k>              retransmissions before presuming abort (sim)
    --split <at:heal[:groups]>     scheduled network split from second `at` to
                                   second `heal` (repeatable); groups names the
                                   component per site, e.g. 0,1 (the default)
    --mtbp <secs>                  mean time between stochastic splits (sim; 0 = off)
    --mtth <secs>                  mean time to heal a stochastic split (sim)
    --degradation <abort|block|stale>  policy when a split leaves a transaction
                                   short of replicas (sim; default abort)
    --replication <k>              replicate each record over k consecutive sites
                                   (sim; default 1 = unreplicated)
    --max-events <N>               abort the run after N simulation events (sim; 0 = unlimited)
    --reps <k>                     independent sim replications, mean ± 95% CI (default 1)
    --threads <k>                  parallel MVA solves / sim replications (identical results)
    --warm-start                   seed each model solve from the previous n's fixed point
    --sequential                   force single-threaded solving (same as --threads 1)
    --accel <off|anderson>         accelerate the model's fixed point (default off)
    --trace <path>                 write a lifecycle trace (sim, single run):
                                   .jsonl = line-delimited, else Chrome/Perfetto JSON
    --trace-filter <spec>          keep only matching events, e.g.
                                   kind=lock|deadlock;node=0;ty=DU (clauses AND, values OR)
    --metrics <ms>                 sample counter metrics every <ms> of sim time
                                   (sim, single run); prints a per-metric summary
                                   and is byte-identical for every --shards value
    --metrics-filter <spec>        keep only matching metrics: categories and/or
                                   names, e.g. queue|util or cpu_q,lock_depth
    --metrics-out <path>           write the samples: .csv = CSV, .json =
                                   Chrome/Perfetto counter tracks, else JSONL
    --iter-log <path>              write the solver's per-iteration convergence log
                                   (model; .csv = CSV, else JSON)

EXAMPLES:
    carat-cli compare --workload mb8 --n 4..20
    carat-cli model --workload lb8 --n 8 --separate-log
    carat-cli sim --workload mb4 --n 12 --hotspot 0.1:0.9 --probes
";

/// Parses a `--n` value: `8`, `4..20` (step 4), or `4,8,12`.
fn parse_n(s: &str) -> Result<Vec<u32>, String> {
    if let Some((a, b)) = s.split_once("..") {
        let a: u32 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad range start {a}"))?;
        let b: u32 = b.trim().parse().map_err(|_| format!("bad range end {b}"))?;
        if a == 0 || b < a {
            return Err(format!("bad range {s}"));
        }
        return Ok((a..=b).step_by(4).collect());
    }
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad transaction size {p}"))
        })
        .collect()
}

fn parse_workload(s: &str) -> Result<StandardWorkload, String> {
    match s.to_ascii_lowercase().as_str() {
        "lb8" => Ok(StandardWorkload::Lb8),
        "mb4" => Ok(StandardWorkload::Mb4),
        "mb8" => Ok(StandardWorkload::Mb8),
        "ub6" => Ok(StandardWorkload::Ub6),
        other => Err(format!("unknown workload {other} (lb8|mb4|mb8|ub6)")),
    }
}

/// Parses a `--split` value: `at:heal` or `at:heal:g0,g1,...` with times in
/// seconds. Omitted groups default to the two-site split `0,1`.
fn parse_split(s: &str) -> Result<carat::sim::SplitSpec, String> {
    let mut parts = s.splitn(3, ':');
    let at = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| format!("split must be at:heal[:groups], got {s}"))?;
    let heal = parts
        .next()
        .ok_or_else(|| format!("split must be at:heal[:groups], got {s}"))?;
    let at: f64 = at.parse().map_err(|_| format!("bad split start {at}"))?;
    let heal: f64 = heal.parse().map_err(|_| format!("bad split heal {heal}"))?;
    let groups = match parts.next() {
        Some(g) => g
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<u8>()
                    .map_err(|_| format!("bad component label {p}"))
            })
            .collect::<Result<Vec<u8>, String>>()?,
        None => vec![0, 1],
    };
    Ok(carat::sim::SplitSpec {
        at_ms: at * 1000.0,
        heal_ms: heal * 1000.0,
        groups,
    })
}

fn parse_hotspot(s: &str) -> Result<(f64, f64), String> {
    let (h, a) = s
        .split_once(':')
        .ok_or_else(|| format!("hotspot must be frac:prob, got {s}"))?;
    let h: f64 = h.parse().map_err(|_| format!("bad hot fraction {h}"))?;
    let a: f64 = a.parse().map_err(|_| format!("bad hot probability {a}"))?;
    if !(0.0 < h && h < 1.0 && 0.0 < a && a < 1.0) {
        return Err("hotspot values must lie strictly in (0, 1)".into());
    }
    Ok((h, a))
}

/// Parses a full command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        return Ok(Command::Help);
    }
    let mut spec = RunSpec::default();
    let mut i = 1;
    let next = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => spec.workload = parse_workload(next(&mut i)?)?,
            "--n" => spec.n_values = parse_n(next(&mut i)?)?,
            "--sites" => {
                spec.sites = next(&mut i)?
                    .parse::<usize>()
                    .map_err(|_| "bad sites".to_string())?
                    .max(1)
            }
            "--shards" => {
                spec.shards = Some(
                    next(&mut i)?
                        .parse::<usize>()
                        .map_err(|_| "bad shards".to_string())?
                        .max(1),
                )
            }
            "--seed" => spec.seed = next(&mut i)?.parse().map_err(|_| "bad seed".to_string())?,
            "--measure-s" => {
                spec.measure_s = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad measure-s".to_string())?
            }
            "--alpha" => {
                spec.alpha_ms = next(&mut i)?.parse().map_err(|_| "bad alpha".to_string())?
            }
            "--think" => {
                spec.think_ms = next(&mut i)?.parse().map_err(|_| "bad think".to_string())?
            }
            "--hotspot" => spec.hotspot = Some(parse_hotspot(next(&mut i)?)?),
            "--separate-log" => spec.separate_log = true,
            "--tm" => spec.tm_center = true,
            "--probes" => spec.probes = true,
            "--victim" => {
                spec.victim = match next(&mut i)?.to_ascii_lowercase().as_str() {
                    "requester" => carat::sim::VictimPolicy::Requester,
                    "youngest" => carat::sim::VictimPolicy::Youngest,
                    other => return Err(format!("unknown victim policy {other}")),
                }
            }
            "--crash" => {
                let v = next(&mut i)?;
                let (at, node) = v
                    .split_once(':')
                    .ok_or_else(|| format!("crash must be secs:node, got {v}"))?;
                let at: f64 = at.parse().map_err(|_| format!("bad crash time {at}"))?;
                let node: usize = node.parse().map_err(|_| format!("bad crash node {node}"))?;
                spec.crashes.push((at * 1000.0, node));
            }
            "--drop" => {
                spec.fault.drop_prob = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad drop probability".to_string())?
            }
            "--dup" => {
                spec.fault.duplicate_prob = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad duplicate probability".to_string())?
            }
            "--jitter" => {
                spec.fault.jitter_ms = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad jitter".to_string())?
            }
            "--mttf" => {
                let secs: f64 = next(&mut i)?.parse().map_err(|_| "bad mttf".to_string())?;
                spec.fault.mttf_ms = secs * 1000.0;
            }
            "--mttr" => {
                let secs: f64 = next(&mut i)?.parse().map_err(|_| "bad mttr".to_string())?;
                spec.fault.mttr_ms = secs * 1000.0;
            }
            "--net-timeout" => {
                spec.fault.timeout_ms = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad net-timeout".to_string())?
            }
            "--net-retries" => {
                spec.fault.max_retries = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad net-retries".to_string())?
            }
            "--split" => spec.partition.splits.push(parse_split(next(&mut i)?)?),
            "--mtbp" => {
                let secs: f64 = next(&mut i)?.parse().map_err(|_| "bad mtbp".to_string())?;
                spec.partition.mtbp_ms = secs * 1000.0;
            }
            "--mtth" => {
                let secs: f64 = next(&mut i)?.parse().map_err(|_| "bad mtth".to_string())?;
                spec.partition.mtth_ms = secs * 1000.0;
            }
            "--degradation" => {
                let v = next(&mut i)?;
                spec.partition.degradation = carat::sim::DegradationPolicy::parse(v)
                    .ok_or_else(|| format!("unknown degradation policy {v} (abort|block|stale)"))?;
            }
            "--replication" => {
                spec.partition.replication = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad replication factor".to_string())?
            }
            "--max-events" => {
                spec.max_events = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad max-events".to_string())?
            }
            "--reps" => {
                spec.reps = next(&mut i)?
                    .parse::<u32>()
                    .map_err(|_| "bad reps".to_string())?
                    .max(1)
            }
            "--threads" => {
                spec.threads = next(&mut i)?
                    .parse::<usize>()
                    .map_err(|_| "bad threads".to_string())?
                    .max(1)
            }
            "--sequential" => spec.threads = 1,
            "--warm-start" => spec.warm_start = true,
            "--accel" => {
                let v = next(&mut i)?;
                spec.accel = carat::model::Accel::parse(v)
                    .ok_or_else(|| format!("unknown accel {v} (off|anderson)"))?;
            }
            "--trace" => spec.trace = Some(next(&mut i)?.clone()),
            "--trace-filter" => {
                let raw = next(&mut i)?;
                carat::obs::TraceFilter::parse(raw)?;
                spec.trace_filter = Some(raw.clone());
            }
            "--metrics" => {
                let ms: f64 = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad metrics cadence".to_string())?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err("metrics cadence must be a positive number of ms".into());
                }
                spec.metrics_ms = Some(ms);
            }
            "--metrics-filter" => {
                let raw = next(&mut i)?;
                carat::obs::MetricsFilter::parse(raw)?;
                spec.metrics_filter = Some(raw.clone());
            }
            "--metrics-out" => spec.metrics_out = Some(next(&mut i)?.clone()),
            "--iter-log" => spec.iter_log = Some(next(&mut i)?.clone()),
            "--cc" => {
                spec.cc = match next(&mut i)?.to_ascii_lowercase().as_str() {
                    "2pl" => carat::sim::CcProtocol::TwoPhaseLocking,
                    "bto" => carat::sim::CcProtocol::TimestampOrdering,
                    "thomas" => carat::sim::CcProtocol::TimestampOrderingThomas,
                    other => return Err(format!("unknown cc protocol {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if spec.trace_filter.is_some() && spec.trace.is_none() {
        return Err("--trace-filter requires --trace".into());
    }
    if spec.trace.is_some() && spec.reps > 1 {
        return Err("--trace records a single deterministic run; drop --reps".into());
    }
    if spec.metrics_filter.is_some() && spec.metrics_ms.is_none() {
        return Err("--metrics-filter requires --metrics".into());
    }
    if spec.metrics_out.is_some() && spec.metrics_ms.is_none() {
        return Err("--metrics-out requires --metrics".into());
    }
    if spec.metrics_ms.is_some() && spec.reps > 1 {
        return Err("--metrics records a single deterministic run; drop --reps".into());
    }
    match cmd.as_str() {
        "model" => model_sizes(&spec).map(|()| Command::Model(spec)),
        "sim" => Ok(Command::Sim(spec)),
        "compare" => model_sizes(&spec).map(|()| Command::Compare(spec)),
        other => Err(format!("unknown command {other} (model|sim|compare|help)")),
    }
}

/// The model spreads a distributed transaction's `r = n − ⌈n/sites⌉`
/// remote requests evenly over its `sites − 1` slaves, and a slave chain
/// needs at least one whole request. With a DRO/DU user that fails
/// exactly when `1 < n < sites`; the simulator runs those sizes, the
/// model rejects them.
fn model_sizes(spec: &RunSpec) -> Result<(), String> {
    let distributed = spec
        .workload
        .spec(1)
        .users
        .iter()
        .flatten()
        .any(|(ty, _)| ty.is_distributed());
    for &n in &spec.n_values {
        if distributed && n > 1 && (n as usize) < spec.sites {
            return Err(format!(
                "the model needs n = 1 or n ≥ sites for {}: --n {n} with {} sites gives \
                 each slave site less than one request (sim accepts it)",
                spec.workload, spec.sites
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_compare_with_range() {
        let cmd = parse(&argv("compare --workload mb8 --n 4..20")).unwrap();
        let Command::Compare(spec) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(spec.workload, StandardWorkload::Mb8);
        assert_eq!(spec.n_values, vec![4, 8, 12, 16, 20]);
    }

    #[test]
    fn parses_list_and_flags() {
        let cmd = parse(&argv(
            "sim --n 4,12 --seed 99 --hotspot 0.2:0.8 --probes --separate-log",
        ))
        .unwrap();
        let Command::Sim(spec) = cmd else { panic!() };
        assert_eq!(spec.n_values, vec![4, 12]);
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.hotspot, Some((0.2, 0.8)));
        assert!(spec.probes);
        assert!(spec.separate_log);
        let Command::Sim(spec) = parse(&argv("sim --cc bto")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.cc, carat::sim::CcProtocol::TimestampOrdering);
        assert!(parse(&argv("sim --cc banana")).is_err());
        let Command::Sim(spec) = parse(&argv("sim --crash 120:1 --crash 300:0")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.crashes, vec![(120_000.0, 1), (300_000.0, 0)]);
        assert!(parse(&argv("sim --crash soon")).is_err());
        let Command::Sim(spec) = parse(&argv("sim --victim youngest")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.victim, carat::sim::VictimPolicy::Youngest);
    }

    #[test]
    fn parses_fault_flags() {
        let Command::Sim(spec) = parse(&argv(
            "sim --drop 0.05 --dup 0.01 --jitter 2 --mttf 600 --mttr 5 \
             --net-timeout 50 --net-retries 6",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(spec.fault.drop_prob, 0.05);
        assert_eq!(spec.fault.duplicate_prob, 0.01);
        assert_eq!(spec.fault.jitter_ms, 2.0);
        assert_eq!(spec.fault.mttf_ms, 600_000.0);
        assert_eq!(spec.fault.mttr_ms, 5_000.0);
        assert_eq!(spec.fault.timeout_ms, 50.0);
        assert_eq!(spec.fault.max_retries, 6);
        assert!(parse(&argv("sim --drop lots")).is_err());
        assert!(parse(&argv("sim --net-timeout")).is_err());
    }

    #[test]
    fn parses_partition_flags() {
        let Command::Sim(spec) = parse(&argv(
            "sim --split 60:90 --split 120:150:0,0,1 --mtbp 300 --mtth 10 \
             --degradation stale --replication 2 --max-events 5000000 --net-timeout 80",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(spec.partition.splits.len(), 2);
        assert_eq!(spec.partition.splits[0].at_ms, 60_000.0);
        assert_eq!(spec.partition.splits[0].heal_ms, 90_000.0);
        assert_eq!(spec.partition.splits[0].groups, vec![0, 1]);
        assert_eq!(spec.partition.splits[1].groups, vec![0, 0, 1]);
        assert_eq!(spec.partition.mtbp_ms, 300_000.0);
        assert_eq!(spec.partition.mtth_ms, 10_000.0);
        assert_eq!(
            spec.partition.degradation,
            carat::sim::DegradationPolicy::StaleRead
        );
        assert_eq!(spec.partition.replication, 2);
        assert_eq!(spec.max_events, 5_000_000);
        // Defaults stay inert.
        let d = RunSpec::default();
        assert!(!d.partition.is_active());
        assert_eq!(d.max_events, 0);
        assert!(parse(&argv("sim --split 60")).is_err());
        assert!(parse(&argv("sim --split banana:90")).is_err());
        assert!(parse(&argv("sim --split 60:90:0,x")).is_err());
        assert!(parse(&argv("sim --degradation banana")).is_err());
        assert!(parse(&argv("sim --replication two")).is_err());
        assert!(parse(&argv("sim --max-events lots")).is_err());
    }

    #[test]
    fn parses_solver_flags() {
        let Command::Model(spec) =
            parse(&argv("model --n 4..20 --threads 4 --warm-start")).unwrap()
        else {
            panic!()
        };
        assert_eq!(spec.threads, 4);
        assert!(spec.warm_start);
        let Command::Model(spec) = parse(&argv("model --threads 8 --sequential")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.threads, 1, "--sequential overrides --threads");
        assert!(parse(&argv("model --threads zero")).is_err());
        // --threads 0 clamps to 1 rather than erroring.
        let Command::Model(spec) = parse(&argv("model --threads 0")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn parses_accel_and_mva() {
        use carat::model::Accel;
        assert_eq!(RunSpec::default().accel, Accel::Off);
        let Command::Model(spec) = parse(&argv("model --accel anderson")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.accel, Accel::Anderson);
        assert!(parse(&argv("model --accel banana")).is_err());
        // The per-site MVA algorithm follows from the lattice size alone;
        // there is no flag to pick it.
        assert!(parse(&argv("model --mva exact")).is_err());
    }

    #[test]
    fn parses_reps() {
        let Command::Sim(spec) = parse(&argv("sim --reps 5 --threads 4")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.reps, 5);
        assert_eq!(spec.threads, 4);
        // --reps 0 clamps to 1; default is a single run.
        let Command::Sim(spec) = parse(&argv("sim --reps 0")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.reps, 1);
        assert_eq!(RunSpec::default().reps, 1);
        assert!(parse(&argv("sim --reps many")).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let Command::Sim(spec) = parse(&argv(
            "sim --trace /tmp/t.json --trace-filter kind=lock|deadlock;ty=DU",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(spec.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(
            spec.trace_filter.as_deref(),
            Some("kind=lock|deadlock;ty=DU")
        );
        let Command::Model(spec) = parse(&argv("model --iter-log conv.csv")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.iter_log.as_deref(), Some("conv.csv"));
        // Bad filter specs are rejected at parse time, not at run time.
        assert!(parse(&argv("sim --trace t.json --trace-filter kind=banana")).is_err());
        assert!(parse(&argv("sim --trace-filter kind=lock")).is_err());
        assert!(parse(&argv("sim --trace t.json --reps 3")).is_err());
    }

    #[test]
    fn parses_metrics_flags() {
        let Command::Sim(spec) = parse(&argv(
            "sim --metrics 10 --metrics-filter queue|util --metrics-out m.csv",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(spec.metrics_ms, Some(10.0));
        assert_eq!(spec.metrics_filter.as_deref(), Some("queue|util"));
        assert_eq!(spec.metrics_out.as_deref(), Some("m.csv"));
        // Off by default, fractional cadences allowed.
        assert_eq!(RunSpec::default().metrics_ms, None);
        let Command::Sim(spec) = parse(&argv("sim --metrics 2.5")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.metrics_ms, Some(2.5));
        // Bad cadences and filters are rejected at parse time.
        assert!(parse(&argv("sim --metrics zero")).is_err());
        assert!(parse(&argv("sim --metrics 0")).is_err());
        assert!(parse(&argv("sim --metrics -5")).is_err());
        let err = parse(&argv("sim --metrics 10 --metrics-filter banana")).unwrap_err();
        assert!(err.contains("banana"), "error names the bad atom: {err}");
        assert!(err.contains("cpu_q"), "error lists valid metrics: {err}");
        // Dependent flags require --metrics; --reps needs a scalar run.
        assert!(parse(&argv("sim --metrics-filter queue")).is_err());
        assert!(parse(&argv("sim --metrics-out m.jsonl")).is_err());
        assert!(parse(&argv("sim --metrics 10 --reps 3")).is_err());
    }

    #[test]
    fn parses_sites_and_shards() {
        let Command::Sim(spec) = parse(&argv("sim --sites 8 --shards 4")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.sites, 8);
        assert_eq!(spec.shards, Some(4));
        // Defaults: the testbed pair, one worker thread.
        let d = RunSpec::default();
        assert_eq!(d.sites, 2);
        assert_eq!(d.shards, None);
        // Zero clamps rather than erroring, matching --threads.
        let Command::Sim(spec) = parse(&argv("sim --sites 0 --shards 0")).unwrap() else {
            panic!()
        };
        assert_eq!(spec.sites, 1);
        assert_eq!(spec.shards, Some(1));
        assert!(parse(&argv("sim --sites many")).is_err());
        assert!(parse(&argv("sim --shards many")).is_err());
        // --sites 2 keeps the default parameter set byte-for-byte.
        assert_eq!(
            format!("{:?}", RunSpec::default().params()),
            format!("{:?}", SystemParams::default())
        );
    }

    #[test]
    fn model_rejects_sizes_that_leave_a_slave_less_than_one_request() {
        for cmd in ["model", "compare"] {
            for flags in [
                "--workload mb4 --sites 3 --n 2",
                "--sites 4 --n 3",
                "--sites 4 --n 4,2",
            ] {
                let err = parse(&argv(&format!("{cmd} {flags}"))).unwrap_err();
                assert!(err.contains("n = 1 or n ≥ sites"), "{cmd} {flags}: {err}");
            }
            let err = parse(&argv(&format!("{cmd} --sites 3 --n 2"))).unwrap_err();
            assert!(err.contains("--n 2 with 3 sites"), "{err}");
            // n = 1 has no remote requests and n >= sites gives every
            // slave at least one; local-only LB8 has no slaves at all.
            for flags in [
                "--sites 4 --n 1",
                "--sites 4 --n 4",
                "--sites 4 --n 4..20",
                "--workload lb8 --sites 4 --n 2",
                "--workload lb8 --sites 8 --n 1..8",
            ] {
                assert!(
                    parse(&argv(&format!("{cmd} {flags}"))).is_ok(),
                    "{cmd} {flags}"
                );
            }
        }
        // The simulator runs fractional slave participation.
        assert!(parse(&argv("sim --workload mb4 --sites 3 --n 2")).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv("sim --n banana")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("sim --hotspot 2:0.5")).is_err());
        assert!(parse(&argv("sim --workload xyz")).is_err());
        assert!(parse(&argv("sim --seed")).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn spec_params_reflect_flags() {
        let Command::Model(spec) =
            parse(&argv("model --alpha 5 --think 1000 --hotspot 0.1:0.9")).unwrap()
        else {
            panic!()
        };
        let p = spec.params();
        assert_eq!(p.comm_delay_ms, 5.0);
        assert_eq!(p.think_time_ms, 1000.0);
        assert!(p.access.contention_factor() > 5.0);
    }
}
