//! `perfbench` — the repository's outside-in benchmark.
//!
//! ```text
//! perfbench --workload <paper-study|megaflow|relay-loopback> --seed N --seconds S --trace 0|1
//! perfbench --selfcheck        # traced replays vs library results, seeds 2007 and 11
//! ```
//!
//! Every layer is measured from outside, by timing calls into public
//! functions and trait objects (see `LAYERS.md`). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! prints the per-layer metrics and checks that its results are
//! bit-identical to the untraced library run. The last stdout line is
//! the result object; the lines before it stamp the machine and print
//! every workload-specific figure by name and unit. The exit code is
//! non-zero when any output fails verification.

mod catalogue;
mod megaflow;
mod paper;
mod relay;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Every figure measured, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted: study runs, megaflow rounds, or fetches
    /// (a relay start-up that fails counts as one failed operation).
    pub attempted: u64,
    /// Operations whose output failed verification.
    pub failed: u64,
    /// One line per verification failure.
    pub errors: Vec<String>,
    /// Engine mode and worker threads the run used.
    pub config: String,
}

impl Run {
    /// Records a figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a verification failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Calls `build` `reps` times, pushing each call's seconds onto
/// `samples`; returns the last result.
pub fn timed_builds<T>(reps: usize, samples: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(build());
        samples.push(secs(t));
    }
    last.expect("at least one build")
}

/// Calls `f` once; returns its seconds and result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (secs(t), out)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats a finite measured number as JSON with all its digits.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       perfbench --selfcheck",
        catalogue::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Runs the traced replays on the canonical seed and one other; every
/// replay must equal the library result.
fn selfcheck() -> bool {
    let mut ok = true;
    for seed in [2007, 11] {
        for (name, run) in [
            ("paper-study", paper::selfcheck(seed)),
            ("megaflow", megaflow::run(seed, Duration::ZERO, true)),
        ] {
            let pass = run.errors.is_empty() && run.failed == 0;
            println!(
                "selfcheck {name} seed {seed}: {}",
                if pass { "ok" } else { "MISMATCH" }
            );
            for e in &run.errors {
                println!("  {e}");
            }
            ok &= pass;
        }
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--selfcheck") {
        std::process::exit(if selfcheck() { 0 } else { 1 });
    }
    let args = parse_args(&argv);
    let budget = Duration::from_secs(args.seconds);
    let mut run = match args.workload.as_str() {
        "paper-study" => paper::run(args.seed, budget, args.trace),
        "megaflow" => megaflow::run(args.seed, budget, args.trace),
        "relay-loopback" => relay::run(args.seed, budget, args.trace),
        _ => usage(),
    };
    run.set("peak_rss_mb", peak_rss_mb());
    if run.attempted > 0 {
        run.set("failed_frac", run.failed as f64 / run.attempted as f64);
    }

    let mut metrics: Vec<String> = Vec::new();
    let mut errors = Vec::new();
    let mut push = |name: &str, unit: &str, v: Option<f64>| {
        let v = match v {
            Some(v) if v.is_finite() => v,
            _ => {
                errors.push(format!("metric {name} not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_num(v),
            json_escape(unit)
        ));
    };
    if args.trace {
        for m in catalogue::PER_LAYER {
            let exercised = m.on.contains(&args.workload.as_str());
            let v = run.values.get(m.name).copied();
            push(m.name, m.unit, if exercised { v } else { Some(0.0) });
        }
    } else {
        for (name, unit) in catalogue::END_TO_END {
            let v = run.values.get(name).copied().filter(|&v| v > 0.0);
            push(name, unit, v);
        }
    }
    run.errors.extend(errors);

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"config\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        json_escape(&cpu_model()),
        json_escape(&env("PERFBENCH_RUSTC")),
        json_escape(&env("PERFBENCH_COMMIT")),
        json_escape(&run.config),
    );
    for (name, unit) in catalogue::DETAIL {
        if let Some(v) = run.values.get(name) {
            println!("metric {name} {v} {unit}");
        }
    }
    for e in &run.errors {
        println!("FAILED {e}");
    }
    let correct = run.errors.is_empty() && run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
