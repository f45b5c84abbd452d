//! Counter sampling: the server's `/metrics`, and CPU time and peak
//! memory of child processes from `/proc`.

use std::collections::BTreeMap;

/// Clock ticks per second of the `/proc/*/stat` time fields (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// Parses Prometheus text exposition into `series → value`, where the
/// series name keeps its label set verbatim (`name{label="v"}`).
/// Comment lines and lines that do not end in a number are skipped.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// One `/metrics` snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot(pub BTreeMap<String, f64>);

impl Snapshot {
    /// A series' value, `0.0` when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after − self` for one series.
    pub fn delta(&self, after: &Snapshot, series: &str) -> f64 {
        after.get(series) - self.get(series)
    }
}

/// Requests answered on the load routes (`/experiments/{id}` and
/// `/query`), which leaves out the sampler's own `/metrics` and
/// `/healthz` calls.
pub fn load_requests(s: &Snapshot) -> f64 {
    s.get("accelwall_requests_total{route=\"/experiments/{id}\"}")
        + s.get("accelwall_requests_total{route=\"/query\"}")
}

/// The fields of `/proc/<pid>/stat` after the command name and state,
/// so that field `n` of proc(5) is at index `n - 4`.
fn stat_fields(pid: &str) -> Result<Vec<u64>, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // The command name is in parentheses and may hold spaces.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    Ok(rest
        .split_whitespace()
        .skip(1) // the state letter
        .map(|f| f.parse().unwrap_or(0))
        .collect())
}

/// Field `n` (numbered as in proc(5)) of a parsed stat line.
fn field(fields: &[u64], n: usize) -> Result<u64, String> {
    fields
        .get(n - 4)
        .copied()
        .ok_or_else(|| format!("stat line without field {n}"))
}

fn seconds(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SECOND
}

/// User plus system CPU seconds a running process has used
/// (`utime` + `stime`).
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let f = stat_fields(&pid.to_string())?;
    Ok(seconds(field(&f, 14)? + field(&f, 15)?))
}

/// User plus system CPU seconds of this process's reaped children
/// (`cutime` + `cstime`).
pub fn reaped_children_cpu_s() -> Result<f64, String> {
    let f = stat_fields("self")?;
    Ok(seconds(field(&f, 16)? + field(&f, 17)?))
}

/// A process's peak resident set (`VmHWM`), in KiB.
pub fn vm_hwm_kib(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_vm_hwm(&text).ok_or_else(|| format!("no VmHWM in {path}"))
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// This machine's CPU time in ticks, from the `cpu` line of `/proc/stat`:
/// all of it, and the part during which the hypervisor ran something
/// else while a CPU of this machine had work (`steal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    pub total: u64,
    pub steal: u64,
}

impl HostTicks {
    /// The counters now.
    pub fn now() -> Result<HostTicks, String> {
        let text = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("reading /proc/stat: {e}"))?;
        parse_proc_stat(&text).ok_or_else(|| "no cpu line in /proc/stat".to_string())
    }

    /// The ticks from `earlier` to `self`.
    pub fn since(self, earlier: HostTicks) -> HostTicks {
        HostTicks {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    /// The ticks of two spans together.
    pub fn plus(self, other: HostTicks) -> HostTicks {
        HostTicks {
            total: self.total + other.total,
            steal: self.steal + other.steal,
        }
    }

    /// Stolen ticks as a share of all of them, `0.0` when none passed.
    pub fn steal_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}

/// The `cpu` line's first eight fields: user, nice, system, idle,
/// iowait, irq, softirq, steal. Guest time is already inside user.
fn parse_proc_stat(text: &str) -> Option<HostTicks> {
    let fields: Vec<u64> = text
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| HostTicks {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set of any reaped child, in KiB. A child's
/// memory is gone from `/proc` once it exits, so this is read with
/// `getrusage(RUSAGE_CHILDREN)`.
pub fn reaped_children_max_rss_kib() -> Result<u64, String> {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the C `struct rusage` on 64-bit
    // Linux (two `struct timeval` of two longs each, then fourteen
    // longs), and `usage` is a live, writable, initialised value for the
    // whole call; getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        Ok(usage.maxrss.max(0) as u64)
    } else {
        Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = include_str!("../testdata/metrics.txt");

    #[test]
    fn parses_a_captured_metrics_sample() {
        let s = Snapshot(parse_metrics(SAMPLE));
        assert_eq!(
            s.get("accelwall_requests_total{route=\"/experiments/{id}\"}"),
            2.0
        );
        assert_eq!(s.get("accelwall_requests_total{route=\"/query\"}"), 2.0);
        assert_eq!(load_requests(&s), 4.0);
        assert_eq!(s.get("accelwall_reactor_polls_total"), 321.0);
        assert_eq!(s.get("accelwall_response_cache_hits_total"), 1.0);
        assert_eq!(s.get("accelwall_query_cache_bytes"), 489.0);
        assert_eq!(s.get("accelwall_dfg_lowerings_total"), 1.0);
        assert!(
            (s.get("accelwall_request_latency_seconds_sum{route=\"/query\"}") - 0.00043838).abs()
                < 1e-12
        );
        assert_eq!(s.get("accelwall_responses_total{status=\"200\"}"), 4.0);
        assert_eq!(s.0.len(), 77);
        // No comment line leaks in.
        assert!(s.0.keys().all(|k| !k.starts_with('#')));
        assert_eq!(s.get("no_such_series"), 0.0);
    }

    #[test]
    fn deltas_subtract_snapshots() {
        let before = Snapshot(parse_metrics("a 1\nb{x=\"y\"} 2.5\n"));
        let after = Snapshot(parse_metrics("a 11\nb{x=\"y\"} 4\nc 3\n"));
        assert_eq!(before.delta(&after, "a"), 10.0);
        assert_eq!(before.delta(&after, "b{x=\"y\"}"), 1.5);
        assert_eq!(before.delta(&after, "c"), 3.0);
    }

    #[test]
    fn reads_this_process_from_proc() {
        assert!(process_cpu_s(std::process::id()).unwrap() >= 0.0);
        assert!(reaped_children_cpu_s().unwrap() >= 0.0);
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
        assert!(reaped_children_max_rss_kib().is_ok());
        assert_eq!(parse_vm_hwm("Name:\tx\nVmHWM:\t  1234 kB\n"), Some(1234));
    }

    #[test]
    fn reads_host_ticks_from_proc_stat() {
        let line = "cpu  100 2 30 400 5 0 6 7 0 0\ncpu0 50 1 15 200 2 0 3 3 0 0\n";
        let t = parse_proc_stat(line).unwrap();
        assert_eq!(
            t,
            HostTicks {
                total: 550,
                steal: 7
            }
        );
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
        let later = HostTicks {
            total: 750,
            steal: 27,
        };
        assert_eq!(
            later.since(t),
            HostTicks {
                total: 200,
                steal: 20
            }
        );
        assert_eq!(later.since(t).steal_share(), 0.1);
        assert_eq!(t.plus(later).total, 1300);
        assert_eq!(HostTicks::default().steal_share(), 0.0);
        assert!(HostTicks::now().unwrap().total > 0);
    }
}
