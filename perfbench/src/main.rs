//! The repository benchmark.
//!
//! ```text
//! perfbench --accelwall PATH --workload NAME --seed N --seconds N --trace 0|1
//! ```
//!
//! Runs one workload against the release `accelwall` binary at `PATH`
//! for about `N` seconds, checks every output, prints each metric on its
//! own line and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones. See `perfbench/README.md`.

mod client;
mod gen;
mod loadgen;
mod paper_all;
mod probes;
mod quiet;
mod sampler;
mod server;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper_all", "query_explore", "serve_hot"];

/// What every workload runs with.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `accelwall` binary under test.
    pub accelwall: PathBuf,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// CPUs available; the server's `--workers` and `--threads`, and the
    /// load generator's thread and connection cap.
    pub nproc: usize,
}

/// Metrics of one run, plus the operation counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed beside the metrics but left out of the result
    /// object, which holds exactly the metrics `BENCHMARK.json` lists.
    notes: Vec<(String, f64, &'static str)>,
    /// Operations attempted in the measured phase.
    attempted: u64,
    /// Operations that failed, including failed correctness checks.
    failed: u64,
}

impl Report {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one figure that is printed but is not a metric.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self) -> Result<String, String> {
        let mut members = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            members.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            members.join(", ")
        ))
    }
}

#[derive(Debug)]
struct Args {
    env: Env,
    workload: String,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut accelwall = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--accelwall" => accelwall = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; workloads: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10).max(1);
    Ok(Args {
        env: Env {
            accelwall: accelwall.ok_or("--accelwall is required")?,
            seed: seed.unwrap_or(1),
            seconds: Duration::from_secs(seconds),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        },
        workload,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let env = &args.env;
    if !env.accelwall.is_file() {
        return Err(format!(
            "no accelwall binary at {}",
            env.accelwall.display()
        ));
    }
    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("paper_all", false) => paper_all::run(env, &mut report)?,
        ("paper_all", true) => probes::traced(env, probes::Live::PaperAll, &mut report)?,
        ("query_explore", false) => serving::run(env, serving::Kind::Explore, &mut report)?,
        ("query_explore", true) => probes::traced(env, probes::Live::Explore, &mut report)?,
        ("serve_hot", false) => serving::run(env, serving::Kind::Hot, &mut report)?,
        (_, _) => probes::traced(env, probes::Live::Hot, &mut report)?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.env.seed,
        args.env.seconds.as_secs(),
        u8::from(args.trace),
        args.env.nproc
    );
    for (name, value, unit) in &report.metrics {
        println!("{:<34} {value:>16.6} {unit}", name);
    }
    for (name, value, unit) in &report.notes {
        println!("{:<34} {value:>16.6} {unit} (not a metric)", name);
    }
    println!(
        "{:<34} {:>16.6} fraction ({} of {} operations failed)",
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    match report.json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--accelwall",
            "bin",
            "--workload",
            "serve_hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve_hot");
        assert_eq!(a.env.seed, 7);
        assert_eq!(a.env.seconds, Duration::from_secs(3));
        assert!(a.trace);
        assert!(args(&["--accelwall", "b", "--workload", "nope"]).is_err());
        assert!(args(&["--accelwall", "b", "--workload", "paper_all", "--seed"]).is_err());
        assert!(args(&["--workload", "paper_all"]).is_err());
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.put("latency_p50_ms", 1.25, "ms");
        r.count(4, 0);
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.count(1, 1);
        assert!(r.json().unwrap().starts_with("{\"correct\": false"));
        r.put("bad", f64::NAN, "ms");
        assert!(r.json().is_err());
    }
}
