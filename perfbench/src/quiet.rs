//! Which stretches of a timed phase the host left alone.
//!
//! On a virtual machine the host now and then runs another guest while
//! a CPU of this machine has work; `/proc/stat` counts that time as
//! `steal`. How much it takes changes from minute to minute, and every
//! operation in a stretch with much steal is slower for it. A thread
//! samples the machine's CPU ticks through the timed phase, the phase is
//! cut into one-second spans, and the timings are taken over the quiet
//! spans only. Which spans are quiet depends on the host's counter
//! alone, never on how long the operations took.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sampler::{self, HostTicks};
use crate::stats::{median, quantile, windowed_quantile, windows};
use crate::Report;

/// How often the timeline samples.
const EVERY: Duration = Duration::from_millis(100);

/// Samples per span: spans of one second, long enough for `/proc/stat`
/// (100 ticks a second per CPU) to tell how much of a span the host took.
const PER_SPAN: usize = 10;

/// The steal share below which a span counts as quiet whatever the other
/// spans of the phase did. On a quiet host most spans have none, and the
/// timings are then taken over nearly the whole phase.
const QUIET_STEAL: f64 = 0.02;

/// Whose CPU time the timeline follows.
#[derive(Debug, Clone, Copy)]
pub enum CpuOf {
    /// This process's reaped children (`cutime` + `cstime`).
    Children,
    /// A running process (`utime` + `stime`).
    Process(u32),
}

impl CpuOf {
    fn read(self) -> Result<f64, String> {
        match self {
            CpuOf::Children => sampler::reaped_children_cpu_s(),
            CpuOf::Process(pid) => sampler::process_cpu_s(pid),
        }
    }
}

/// One sample of the timeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Seconds from the timeline's start.
    pub at_s: f64,
    /// The machine's CPU ticks so far.
    pub host: HostTicks,
    /// CPU seconds the followed process(es) have used so far.
    pub cpu_s: f64,
}

/// A thread sampling the machine's CPU ticks and one process's CPU time
/// every [`EVERY`] until [`Timeline::finish`].
pub struct Timeline {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<Vec<Sample>, String>>,
}

impl Timeline {
    /// Starts sampling; times are seconds from `start`.
    pub fn start(start: Instant, cpu: CpuOf) -> Timeline {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            loop {
                out.push(Sample {
                    at_s: start.elapsed().as_secs_f64(),
                    host: HostTicks::now()?,
                    cpu_s: cpu.read()?,
                });
                if stopped.load(Ordering::Acquire) {
                    return Ok(out);
                }
                std::thread::park_timeout(EVERY);
            }
        });
        Timeline { stop, thread }
    }

    /// Takes a last sample and returns them all.
    pub fn finish(self) -> Result<Vec<Sample>, String> {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread
            .join()
            .map_err(|_| "the host timeline thread panicked".to_string())?
    }
}

/// A stretch of the timed phase between two samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub from_s: f64,
    pub to_s: f64,
    /// The machine's CPU ticks over the span.
    pub host: HostTicks,
    /// CPU seconds the followed process(es) used over the span.
    pub cpu_s: f64,
}

impl Span {
    fn contains(&self, at_s: f64) -> bool {
        (self.from_s..self.to_s).contains(&at_s)
    }
}

/// The timeline cut into spans of [`PER_SPAN`] sampling intervals (a
/// shorter last one joins the one before). The first span starts at 0
/// and the last runs on to the end of time, so every operation of the
/// phase falls in exactly one span.
pub fn spans(samples: &[Sample]) -> Vec<Span> {
    let intervals: Vec<usize> = (1..samples.len()).collect();
    let mut out: Vec<Span> = windows(&intervals, PER_SPAN)
        .into_iter()
        .map(|w| {
            let (first, last) = (samples[w[0] - 1], samples[w[w.len() - 1]]);
            Span {
                from_s: first.at_s,
                to_s: last.at_s,
                host: last.host.since(first.host),
                cpu_s: last.cpu_s - first.cpu_s,
            }
        })
        .collect();
    if let Some(first) = out.first_mut() {
        first.from_s = 0.0;
    }
    if let Some(last) = out.last_mut() {
        last.to_s = f64::INFINITY;
    }
    out
}

/// The spans in which the host took the least CPU time from this
/// machine: those whose steal share is at most [`QUIET_STEAL`], or at
/// most the lower quartile of the spans' shares when that is larger.
pub fn quiet(spans: &[Span]) -> Vec<Span> {
    let shares: Vec<f64> = spans.iter().map(|s| s.host.steal_share()).collect();
    let cut = QUIET_STEAL.max(quantile(&shares, 0.25));
    spans
        .iter()
        .zip(&shares)
        .filter(|&(_, &share)| share <= cut)
        .map(|(s, _)| *s)
        .collect()
}

/// What the whole timed phase measured, with no span set aside.
pub struct Phase<'a> {
    /// When each successful operation started, in seconds from the
    /// timeline's start.
    pub at_s: &'a [f64],
    /// Each successful operation's latency, in ms.
    pub latencies_ms: &'a [f64],
    /// Wall time of the phase, in seconds.
    pub elapsed_s: f64,
    /// CPU seconds the followed process(es) used over the phase.
    pub cpu_s: f64,
    /// Operations per window of `latency_p99_ms`.
    pub window: usize,
}

/// Puts `throughput_ops_s`, `latency_p50_ms`, `latency_p99_ms` and
/// `cpu_ms_per_op`, taken over the operations that started in a quiet
/// span, and notes the same figures over the whole phase beside them.
pub fn put_timings(report: &mut Report, phase: &Phase, samples: &[Sample]) {
    let all = spans(samples);
    let quiet = quiet(&all);
    let (mut at_s, mut latencies_ms) = (Vec::new(), Vec::new());
    for (&at, &ms) in phase.at_s.iter().zip(phase.latencies_ms) {
        if quiet.iter().any(|s| s.contains(at)) {
            at_s.push(at);
            latencies_ms.push(ms);
        }
    }
    let done = latencies_ms.len() as f64;
    // The last span runs on to the end of time; the phase ends at the
    // last sample.
    let end_s = samples.last().map_or(0.0, |s| s.at_s);
    let seconds: f64 = quiet.iter().map(|s| s.to_s.min(end_s) - s.from_s).sum();
    let cpu_s: f64 = quiet.iter().map(|s| s.cpu_s).sum();
    let host = all
        .iter()
        .fold(HostTicks::default(), |sum, s| sum.plus(s.host));

    report.put("throughput_ops_s", done / seconds.max(1e-9), "ops/s");
    report.put("latency_p50_ms", median(&latencies_ms), "ms");
    report.put(
        "latency_p99_ms",
        windowed_quantile(&at_s, &latencies_ms, phase.window, 0.99),
        "ms",
    );
    report.put("cpu_ms_per_op", cpu_s * 1e3 / done.max(1.0), "ms");

    let whole = phase.latencies_ms.len() as f64;
    report.note("latency_samples", done, "count");
    report.note("spans", all.len() as f64, "count");
    report.note("quiet_spans", quiet.len() as f64, "count");
    report.note("host_steal_share", host.steal_share(), "fraction");
    report.note(
        "throughput_whole_run_ops_s",
        whole / phase.elapsed_s.max(1e-9),
        "ops/s",
    );
    report.note("latency_p50_whole_run_ms", median(phase.latencies_ms), "ms");
    report.note(
        "latency_p99_whole_run_ms",
        quantile(phase.latencies_ms, 0.99),
        "ms",
    );
    report.note(
        "cpu_ms_per_op_whole_run",
        phase.cpu_s * 1e3 / whole.max(1.0),
        "ms",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample every 0.1 s; `steal[i]` of 20 ticks stolen in interval `i`.
    fn timeline(steal: &[u64]) -> Vec<Sample> {
        let mut out = vec![Sample::default()];
        for (i, &s) in steal.iter().enumerate() {
            let last = out[out.len() - 1];
            out.push(Sample {
                at_s: (i + 1) as f64 / 10.0,
                host: last.host.plus(HostTicks {
                    total: 20,
                    steal: s,
                }),
                cpu_s: last.cpu_s + 0.05,
            });
        }
        out
    }

    #[test]
    fn spans_cover_the_phase_and_sum_its_ticks() {
        let s = spans(&timeline(&[0; 25]));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].from_s, 0.0);
        assert_eq!(s[0].to_s, 1.0);
        assert_eq!(s[0].host.total, 200);
        assert_eq!(s[1].from_s, 1.0);
        assert_eq!(s[1].to_s, f64::INFINITY);
        assert_eq!(s[1].host.total, 300);
        assert!((s[1].cpu_s - 0.75).abs() < 1e-9);
        assert!(spans(&[Sample::default()]).is_empty());
        assert!(spans(&[]).is_empty());
    }

    #[test]
    fn quiet_spans_follow_the_hosts_steal_alone() {
        // A quiet host: every span counts.
        assert_eq!(quiet(&spans(&timeline(&[0; 40]))).len(), 4);
        // A span over the threshold drops out while others stay under it.
        let mut steal = vec![0; 40];
        steal[10..20].fill(6);
        let q = quiet(&spans(&timeline(&steal)));
        assert_eq!(q.len(), 3);
        assert!(q.iter().all(|s| s.from_s != 1.0));
        // A noisy host throughout: the quietest quarter or so remains.
        let steal: Vec<u64> = (0..80).map(|i| 2 + i / 10).collect();
        let q = quiet(&spans(&timeline(&steal)));
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].from_s, 0.0);
    }

    #[test]
    fn timings_are_taken_over_the_quiet_spans() {
        // Four seconds; the host took 30% of the second one, during
        // which operations were ten times slower.
        let mut steal = vec![0; 40];
        steal[10..20].fill(6);
        let samples = timeline(&steal);
        let at_s: Vec<f64> = (0..400).map(|i| f64::from(i) / 100.0).collect();
        let latencies_ms: Vec<f64> = at_s
            .iter()
            .map(|&t| if (1.0..2.0).contains(&t) { 10.0 } else { 1.0 })
            .collect();
        let mut report = Report::default();
        let phase = Phase {
            at_s: &at_s,
            latencies_ms: &latencies_ms,
            elapsed_s: 4.0,
            cpu_s: 2.0,
            window: 50,
        };
        put_timings(&mut report, &phase, &samples);
        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, v, _)| v)
                .unwrap()
        };
        assert!((metric("throughput_ops_s") - 100.0).abs() < 1e-9);
        assert_eq!(metric("latency_p50_ms"), 1.0);
        assert_eq!(metric("latency_p99_ms"), 1.0);
        assert!((metric("cpu_ms_per_op") - 5.0).abs() < 1e-9);
    }

    #[test]
    fn the_timeline_samples_until_it_is_finished() {
        let t = Timeline::start(Instant::now(), CpuOf::Process(std::process::id()));
        std::thread::sleep(Duration::from_millis(250));
        let samples = t.finish().unwrap();
        assert!(samples.len() >= 3, "{samples:?}");
        assert!(samples.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(samples
            .windows(2)
            .all(|w| w[0].host.total <= w[1].host.total));
    }
}
