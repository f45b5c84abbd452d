//! `paper_all`: one caller spawning a cold `accelwall all --json` over
//! and over, each run's standard output checked against the recorded
//! digest in `perfbench/expected/all-json.txt`.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::quiet::{self, CpuOf, Phase, Timeline};
use crate::sampler;
use crate::stats::{median, ms};
use crate::{Env, Report};

/// Untimed cold runs made during set-up; `setup_s` is their median.
const SETUP_RUNS: usize = 9;

/// Cold runs per window of `latency_p99_ms`. A run takes about 20 ms,
/// so a window spans about a second, and a timed phase of half a minute
/// holds dozens of them. Windows of [`crate::stats::WINDOW`] operations,
/// as on the serving workloads, would leave about ten.
const WINDOW: usize = 50;

/// The recorded `all --json` output.
const EXPECTED: &str = include_str!("../expected/all-json.txt");

/// Length and FNV-1a 64 digest of a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    bytes: usize,
    fnv1a64: u64,
}

impl Digest {
    /// The digest of `data`.
    pub fn of(data: &[u8]) -> Digest {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest {
            bytes: data.len(),
            fnv1a64: hash,
        }
    }

    /// The recorded digest of `accelwall all --json`.
    pub fn expected() -> Result<Digest, String> {
        let field = |key: &str| {
            EXPECTED
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
                .ok_or_else(|| format!("expected/all-json.txt lacks `{key}`"))
        };
        Ok(Digest {
            bytes: field("bytes ")?
                .parse()
                .map_err(|_| "bad byte count in expected/all-json.txt")?,
            fnv1a64: u64::from_str_radix(field("fnv1a64 ")?, 16)
                .map_err(|_| "bad digest in expected/all-json.txt")?,
        })
    }
}

/// Runs `accelwall <args>` to completion. Returns the time from launch
/// to exit, what it printed and whether it exited with success.
///
/// Standard output goes to a file beside the binary, as with
/// `accelwall all --json > file`: through a pipe the run would stall
/// each time the pipe filled until this process woke to drain it.
pub fn run_once(bin: &Path, args: &[&str]) -> Result<(Duration, Vec<u8>, bool), String> {
    let out_path = bin.with_file_name("perfbench-stdout");
    let out =
        File::create(&out_path).map_err(|e| format!("creating {}: {e}", out_path.display()))?;
    let start = Instant::now();
    let status = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    let elapsed = start.elapsed();
    let printed =
        std::fs::read(&out_path).map_err(|e| format!("reading {}: {e}", out_path.display()))?;
    Ok((elapsed, printed, status.success()))
}

/// What a closed loop of cold runs measured.
#[derive(Debug, Default)]
pub struct SpawnLoop {
    /// Launch-to-exit time of every successful run, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each of those runs was launched, in seconds from the start.
    pub at_s: Vec<f64>,
    /// Time from one run's exit to the next launch, in ms.
    pub lags_ms: Vec<f64>,
    /// Runs made.
    pub attempted: u64,
    /// Runs that exited with failure or printed other bytes.
    pub failed: u64,
    /// CPU seconds the runs used.
    pub cpu_s: f64,
    /// Wall time of the loop, in seconds.
    pub elapsed_s: f64,
}

/// Runs `accelwall <args>` back to back for `duration`, checking each
/// run's output against `expected` when one is given.
pub fn spawn_loop(
    bin: &Path,
    args: &[&str],
    duration: Duration,
    expected: Option<Digest>,
) -> Result<SpawnLoop, String> {
    let mut out = SpawnLoop::default();
    let cpu_before = sampler::reaped_children_cpu_s()?;
    let start = Instant::now();
    let mut last_exit = None;
    while start.elapsed() < duration {
        if let Some(exit) = last_exit {
            out.lags_ms.push(ms(Instant::now().duration_since(exit)));
        }
        let launched = start.elapsed().as_secs_f64();
        let (elapsed, stdout, ok) = run_once(bin, args)?;
        last_exit = Some(Instant::now());
        out.attempted += 1;
        if ok && expected.is_none_or(|d| Digest::of(&stdout) == d) {
            out.latencies_ms.push(ms(elapsed));
            out.at_s.push(launched);
        } else {
            out.failed += 1;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.cpu_s = sampler::reaped_children_cpu_s()? - cpu_before;
    Ok(out)
}

/// The untraced `paper_all` workload. It has no generated input: the
/// seed is accepted and changes nothing.
pub fn run(env: &Env, report: &mut Report) -> Result<(), String> {
    let expected = Digest::expected()?;
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let (elapsed, stdout, ok) = run_once(&env.accelwall, &["all", "--json"])?;
        if !ok || Digest::of(&stdout) != expected {
            report.count(1, 1);
        }
        setups.push(elapsed.as_secs_f64());
    }
    let timeline = Timeline::start(Instant::now(), CpuOf::Children);
    let timed = spawn_loop(
        &env.accelwall,
        &["all", "--json"],
        env.seconds,
        Some(expected),
    )?;
    let samples = timeline.finish()?;
    report.count(timed.attempted, timed.failed);
    report.put("setup_s", median(&setups), "s");
    let phase = Phase {
        at_s: &timed.at_s,
        latencies_ms: &timed.latencies_ms,
        elapsed_s: timed.elapsed_s,
        cpu_s: timed.cpu_s,
        window: WINDOW,
    };
    quiet::put_timings(report, &phase, &samples);
    report.put(
        "peak_rss_mb",
        sampler::reaped_children_max_rss_kib()? as f64 / 1024.0,
        "MiB",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_reference_values() {
        // FNV-1a 64 test vectors.
        assert_eq!(Digest::of(b"").fnv1a64, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of(b"a").fnv1a64, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Digest::of(b"foobar").fnv1a64, 0x8594_4171_f739_67e8);
        assert_eq!(Digest::of(b"abc").bytes, 3);
        let expected = Digest::expected().unwrap();
        assert!(expected.bytes > 100_000);
    }
}
