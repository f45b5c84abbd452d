//! The worker runner: the `accelwall work --join URL` client.
//!
//! A worker is the same binary as the coordinator pointed at a
//! coordinator's HTTP address. It loops lease → heartbeat → compute →
//! complete until the coordinator answers `done`, building its `Ctx`
//! once from the lease's sweep-space marker so every unit it computes
//! is byte-identical to what a local run would have produced.
//!
//! The HTTP client keeps **one keep-alive connection** to the
//! coordinator and reuses it for every POST (lease, heartbeat,
//! complete), reading each answer by its `Content-Length` frame instead
//! of half-closing and waiting for EOF — against the server's
//! keep-alive connections a whole worker lifetime costs one connection,
//! not one per request. A pooled connection that has died in the meantime
//! (idle timeout, coordinator restart) is replaced by exactly one fresh
//! dial before the failure is surfaced, and a reply carrying
//! `Connection: close` retires the connection after the body.
//!
//! Transport robustness mirrors the coordinator's: every POST retries
//! with capped decorrelated-jitter backoff, 5xx answers (load shedding,
//! injected `work-lease` faults) count as transient, and once the
//! worker has successfully spoken to the coordinator, a permanently
//! unreachable coordinator is treated as "run finished, coordinator
//! exited" rather than an error — workers must outlive their
//! coordinator gracefully.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use accelerator_wall::cache::Ctx;
use accelerator_wall::grids::{Grid, GridRegistry};
use accelerator_wall::json::Value;
use accelerator_wall::prelude::SweepSpace;
use accelwall_stats::rng::{decorrelated_backoff, Rng};

use crate::protocol::{
    lease_request, CompleteReply, CompleteRequest, HeartbeatReply, HeartbeatRequest, LeaseReply,
    COMPLETE_PATH, HEARTBEAT_PATH, LEASE_PATH,
};
use crate::WorkError;

/// Tuning knobs for one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The coordinator's address (`host:port`, an `http://` prefix is
    /// tolerated).
    pub coordinator: String,
    /// The name this worker leases under; must be unique in the fleet.
    pub name: String,
    /// Units asked for per lease request.
    pub batch: usize,
    /// Read/write timeout on each coordinator connection.
    pub io_timeout: Duration,
    /// Base of the transport retry backoff.
    pub backoff_base: Duration,
    /// Cap of the transport retry backoff.
    pub backoff_cap: Duration,
    /// Consecutive transport failures tolerated before giving up on the
    /// coordinator.
    pub max_transport_failures: u32,
}

impl WorkerConfig {
    /// A default-tuned worker pointed at `coordinator`, named after the
    /// process id.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.into(),
            name: format!("worker-{}", std::process::id()),
            batch: 2,
            io_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            max_transport_failures: 5,
        }
    }
}

/// What one worker did over its lifetime, printed by the CLI on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Units leased to this worker.
    pub leased: u64,
    /// Units computed and completed successfully.
    pub computed: u64,
    /// Units whose compute failed (reported to the coordinator).
    pub failed: u64,
    /// Units abandoned because a heartbeat said they were done or
    /// re-issued elsewhere.
    pub abandoned: u64,
}

/// Runs one worker against `config.coordinator` until the coordinator
/// reports the run done (or goes away after having been reachable).
///
/// # Errors
///
/// [`WorkError::Transport`] when the coordinator was never reachable,
/// [`WorkError::Protocol`] on malformed replies, [`WorkError::Grid`]
/// when the leased grid or space is unknown to this build.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerReport, WorkError> {
    WorkerRunner::new(config.clone()).drive()
}

/// Computes one leased unit. Probes the `work-compute` fault site
/// first: an `err` fault becomes a reported unit failure, and a `panic`
/// fault kills the worker mid-batch — exactly the crash the
/// coordinator's lease expiry must absorb — so the probe's panic is
/// deliberately left uncontained.
fn compute_unit(grid: &Arc<dyn Grid>, ctx: &Arc<Ctx>, unit: usize) -> Result<Value, String> {
    accelwall_faults::probe(accelwall_faults::sites::WORK_COMPUTE).map_err(|e| e.to_string())?;
    grid.compute(ctx, unit).map_err(|e| e.to_string())
}

/// The state one worker loop carries: transport health, the cached
/// grid + `Ctx`, and the lifetime report.
struct WorkerRunner {
    config: WorkerConfig,
    /// Normalized `host:port` the HTTP client dials.
    addr: String,
    /// Whether any request has ever succeeded; gates the "coordinator
    /// exited" interpretation of an unreachable peer.
    connected: bool,
    /// Jitter stream for transport backoff. Seeded from the process
    /// id, not the clock.
    jitter: Rng,
    /// `(grid id, space)` the cached pair below was built for.
    cached_for: Option<(String, String)>,
    grid: Option<Arc<dyn Grid>>,
    ctx: Option<Arc<Ctx>>,
    report: WorkerReport,
    /// The pooled keep-alive connection to the coordinator; `None`
    /// until the first POST dials, or after an error/`Connection:
    /// close` retires it.
    conn: Option<TcpStream>,
}

impl WorkerRunner {
    fn new(config: WorkerConfig) -> WorkerRunner {
        let addr = normalize_addr(&config.coordinator);
        WorkerRunner {
            addr,
            connected: false,
            jitter: Rng::seed(
                u64::from(std::process::id()).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            ),
            cached_for: None,
            grid: None,
            ctx: None,
            report: WorkerReport::default(),
            conn: None,
            config,
        }
    }

    fn drive(mut self) -> Result<WorkerReport, WorkError> {
        loop {
            let ask = lease_request(&self.config.name, self.config.batch.max(1));
            let Some(reply) = self.post_with_retry(LEASE_PATH, &ask)? else {
                break; // coordinator exited after we had spoken to it
            };
            match LeaseReply::parse(&reply)? {
                LeaseReply::Done => break,
                LeaseReply::Wait { retry } => {
                    std::thread::sleep(
                        retry.clamp(Duration::from_millis(5), Duration::from_secs(2)),
                    );
                }
                LeaseReply::Units {
                    grid,
                    space,
                    ttl: _,
                    units,
                } => {
                    self.ensure_context(&grid, &space)?;
                    self.report.leased += units.len() as u64;
                    if self.work_batch(units)? {
                        break;
                    }
                }
            }
        }
        Ok(self.report)
    }

    /// Builds (or reuses) the grid + `Ctx` pair the lease names. The
    /// space marker must match the coordinator's, or unit results would
    /// not fold byte-identically.
    fn ensure_context(&mut self, grid: &str, space: &str) -> Result<(), WorkError> {
        if self
            .cached_for
            .as_ref()
            .is_some_and(|(g, s)| g == grid && s == space)
        {
            return Ok(());
        }
        let resolved = GridRegistry::standard().get(grid)?;
        let ctx = match space {
            "coarse" => Ctx::with_space(SweepSpace::coarse()),
            "table3" => Ctx::new(),
            other => {
                return Err(WorkError::Protocol {
                    what: format!("lease names unknown sweep space {other:?}"),
                })
            }
        };
        self.cached_for = Some((grid.to_string(), space.to_string()));
        self.grid = Some(resolved);
        self.ctx = Some(Arc::new(ctx));
        Ok(())
    }

    /// Heartbeats, computes, and completes one leased batch. Returns
    /// `true` when the coordinator reported the whole run done.
    fn work_batch(&mut self, units: Vec<usize>) -> Result<bool, WorkError> {
        let (Some(grid), Some(ctx)) = (self.grid.clone(), self.ctx.clone()) else {
            return Err(WorkError::Protocol {
                what: "batch granted before any grid context".into(),
            });
        };
        let mut remaining = units;
        while !remaining.is_empty() {
            let beat = self.heartbeat(&remaining)?;
            if beat.done {
                self.report.abandoned += remaining.len() as u64;
                return Ok(true);
            }
            if !beat.abandon.is_empty() {
                let before = remaining.len();
                remaining.retain(|u| !beat.abandon.contains(u));
                self.report.abandoned += (before - remaining.len()) as u64;
            }
            let Some(&unit) = remaining.first() else {
                break;
            };
            let outcome = compute_unit(&grid, &ctx, unit);
            match &outcome {
                Ok(_) => self.report.computed += 1,
                Err(_) => self.report.failed += 1,
            }
            let request = CompleteRequest {
                worker: self.config.name.clone(),
                unit,
                outcome,
            };
            let Some(reply) = self.post_with_retry(COMPLETE_PATH, &request.to_value())? else {
                return Ok(true); // coordinator exited; nothing left to report to
            };
            let reply = CompleteReply::parse(&reply)?;
            remaining.retain(|u| *u != unit);
            if reply.done {
                self.report.abandoned += remaining.len() as u64;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Sends one liveness ping for the units still held. Probes the
    /// `work-heartbeat` fault site first: a `hang` here silences the
    /// worker past its lease deadline (the coordinator must expire and
    /// re-issue), and an `err` models a ping lost on the wire — the
    /// beat is skipped, not fatal. Transport failures are likewise
    /// best-effort: the next lease or complete will surface them.
    fn heartbeat(&mut self, units: &[usize]) -> Result<HeartbeatReply, WorkError> {
        let silent = HeartbeatReply {
            abandon: Vec::new(),
            done: false,
        };
        if accelwall_faults::probe(accelwall_faults::sites::WORK_HEARTBEAT).is_err() {
            return Ok(silent);
        }
        let request = HeartbeatRequest {
            worker: self.config.name.clone(),
            units: units.to_vec(),
        };
        match self.post(HEARTBEAT_PATH, &request.to_value()) {
            Ok((200, body)) => HeartbeatReply::parse(&parse_json(HEARTBEAT_PATH, &body)?),
            Ok(_) | Err(_) => Ok(silent),
        }
    }

    /// POSTs `body`, retrying transport failures and 5xx answers with
    /// capped decorrelated-jitter backoff. `Ok(None)` means the
    /// coordinator has gone away after previously being reachable —
    /// the worker's signal to exit cleanly.
    fn post_with_retry(&mut self, path: &str, body: &Value) -> Result<Option<Value>, WorkError> {
        let mut failures = 0u32;
        let mut backoff = Duration::ZERO;
        loop {
            let soft = match self.post(path, body) {
                Ok((200, text)) => {
                    self.connected = true;
                    return parse_json(path, &text).map(Some);
                }
                Ok((status, _)) if status >= 500 => WorkError::Transport {
                    what: format!("{path} answered transient status {status}"),
                },
                Ok((status, text)) => {
                    return Err(WorkError::Protocol {
                        what: format!("{path} answered {status}: {}", text.trim()),
                    })
                }
                Err(e) => e,
            };
            failures += 1;
            if failures > self.config.max_transport_failures {
                return if self.connected { Ok(None) } else { Err(soft) };
            }
            backoff = decorrelated_backoff(
                &mut self.jitter,
                self.config.backoff_base,
                self.config.backoff_cap,
                backoff,
            );
            std::thread::sleep(backoff);
        }
    }

    /// One `POST path` round trip over the pooled keep-alive
    /// connection. A pooled connection that errors (the coordinator may
    /// have idle-timed it out between batches) is retired and the POST
    /// retried once on a fresh dial before the failure surfaces.
    fn post(&mut self, path: &str, body: &Value) -> Result<(u16, String), WorkError> {
        let payload = body.pretty();
        if self.conn.is_some() {
            match self.post_once(path, &payload) {
                Ok(answer) => return Ok(answer),
                Err(_) => self.conn = None, // stale pooled conn; re-dial
            }
        }
        self.post_once(path, &payload)
    }

    /// Sends one POST on the current connection (dialing if none is
    /// pooled) and reads one `Content-Length`-framed answer. Any error
    /// retires the connection so the next attempt dials fresh.
    fn post_once(&mut self, path: &str, payload: &str) -> Result<(u16, String), WorkError> {
        let transport = |what: String| WorkError::Transport { what };
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| transport(format!("connect {}: {e}", self.addr)))?;
            stream
                .set_read_timeout(Some(self.config.io_timeout))
                .and_then(|()| stream.set_write_timeout(Some(self.config.io_timeout)))
                .and_then(|()| stream.set_nodelay(true))
                .map_err(|e| transport(format!("socket setup: {e}")))?;
            self.conn = Some(stream);
        }
        let Some(stream) = self.conn.as_mut() else {
            return Err(transport("no connection".into()));
        };
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{payload}",
            self.addr,
            payload.len(),
        );
        if let Err(e) = stream.write_all(request.as_bytes()) {
            self.conn = None;
            return Err(transport(format!("send {path}: {e}")));
        }
        match read_framed_response(stream) {
            Ok((status, body, close)) => {
                if close {
                    self.conn = None; // the peer asked; honor it
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Reads one `Content-Length`-framed HTTP response off `stream`,
/// returning `(status, body, close)` where `close` reports whether the
/// peer retired the connection (`Connection: close`, or an HTTP/1.0
/// status line).
fn read_framed_response(stream: &mut TcpStream) -> Result<(u16, String, bool), WorkError> {
    let transport = |what: String| WorkError::Transport { what };
    let violation = |what: String| WorkError::Protocol { what };
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return Err(violation("response head exceeds 64 KiB".into()));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| transport(format!("receive: {e}")))?;
        if n == 0 {
            return Err(transport("connection closed mid-response".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| violation("response head is not utf-8".into()))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| violation("response has no parsable status line".into()))?;
    let mut content_length = 0usize;
    let mut close = head.starts_with("HTTP/1.0");
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| violation(format!("bad Content-Length {:?}", value.trim())))?;
        } else if name.eq_ignore_ascii_case("connection")
            && value.trim().eq_ignore_ascii_case("close")
        {
            close = true;
        }
    }
    while buf.len() < head_end + content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| transport(format!("receive body: {e}")))?;
        if n == 0 {
            return Err(transport("connection closed mid-body".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + content_length].to_vec())
        .map_err(|_| violation("response body is not utf-8".into()))?;
    Ok((status, body, close))
}

/// Strips an `http://` prefix and trailing slashes off a coordinator
/// address, leaving the `host:port` the socket dials.
fn normalize_addr(coordinator: &str) -> String {
    coordinator
        .trim()
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

/// Parses a 200 body as JSON, labeling failures with the route.
fn parse_json(path: &str, body: &str) -> Result<Value, WorkError> {
    Value::parse(body).map_err(|e| WorkError::Protocol {
        what: format!("{path} answered unparsable JSON: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn addresses_normalize_to_host_port() {
        assert_eq!(normalize_addr("http://127.0.0.1:8390/"), "127.0.0.1:8390");
        assert_eq!(normalize_addr(" 10.0.0.2:80 "), "10.0.0.2:80");
        assert_eq!(normalize_addr("localhost:1"), "localhost:1");
    }

    #[test]
    fn framed_responses_split_into_status_body_and_persistence() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = |raw: &'static str| {
            let client = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
            let (mut peer, _) = listener.accept().unwrap();
            peer.write_all(raw.as_bytes()).unwrap();
            client.join().unwrap()
        };
        let mut stream = serve(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 5\r\n\r\nshed\n",
        );
        let (status, body, close) = read_framed_response(&mut stream).unwrap();
        assert_eq!((status, body.as_str(), close), (503, "shed\n", false));
        let mut stream =
            serve("HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n");
        let (status, body, close) = read_framed_response(&mut stream).unwrap();
        assert_eq!((status, body.as_str(), close), (200, "ok\n", true));
        let mut stream = serve("garbage\r\n\r\n");
        assert!(read_framed_response(&mut stream).is_err());
    }

    /// A keep-alive fake coordinator: answers `Content-Length`-framed
    /// requests in order on whatever connection the client holds open,
    /// re-accepting if the client re-dials. Returns the requests it saw
    /// and how many connections the client used.
    fn fake_coordinator(
        replies: Vec<String>,
    ) -> (String, std::thread::JoinHandle<(Vec<String>, usize)>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut connections = 0usize;
            let mut pending = replies.into_iter();
            let mut next = pending.next();
            'accepting: while next.is_some() {
                let (mut stream, _) = listener.accept().unwrap();
                connections += 1;
                let mut buf: Vec<u8> = Vec::new();
                let mut chunk = [0u8; 4096];
                while let Some(reply) = next.as_ref() {
                    let (head_end, content_length) = loop {
                        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            let head = std::str::from_utf8(&buf[..pos]).unwrap();
                            let len = head
                                .lines()
                                .find_map(|line| {
                                    let (name, value) = line.split_once(':')?;
                                    name.eq_ignore_ascii_case("content-length")
                                        .then(|| value.trim().parse::<usize>().ok())?
                                })
                                .unwrap_or(0);
                            break (pos + 4, len);
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => continue 'accepting, // client re-dials
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    };
                    while buf.len() < head_end + content_length {
                        let n = stream.read(&mut chunk).unwrap();
                        assert!(n > 0, "client closed mid-body");
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let request: Vec<u8> = buf.drain(..head_end + content_length).collect();
                    seen.push(String::from_utf8(request).unwrap());
                    let http = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{reply}",
                        reply.len()
                    );
                    stream.write_all(http.as_bytes()).unwrap();
                    next = pending.next();
                }
            }
            (seen, connections)
        });
        (addr, handle)
    }

    #[test]
    fn a_worker_exits_cleanly_on_done() {
        let (addr, server) = fake_coordinator(vec![LeaseReply::Done.to_value().pretty()]);
        let mut config = WorkerConfig::new(addr);
        config.name = "w-test".into();
        let report = run_worker(&config).unwrap();
        assert_eq!(report, WorkerReport::default());
        let (seen, _) = server.join().unwrap();
        assert!(
            seen[0].starts_with("POST /work/lease HTTP/1.1\r\n"),
            "{}",
            seen[0]
        );
        assert!(seen[0].contains("\"worker\": \"w-test\""), "{}", seen[0]);
    }

    #[test]
    fn sequential_posts_reuse_one_keep_alive_connection() {
        // Two lease round trips (a wait, then done) must ride the same
        // pooled connection — the whole point of the keep-alive client.
        let wait = LeaseReply::Wait {
            retry: Duration::from_millis(5),
        };
        let (addr, server) = fake_coordinator(vec![
            wait.to_value().pretty(),
            LeaseReply::Done.to_value().pretty(),
        ]);
        let report = run_worker(&WorkerConfig::new(addr)).unwrap();
        assert_eq!(report, WorkerReport::default());
        let (seen, connections) = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(connections, 1, "worker re-dialed instead of reusing");
    }

    #[test]
    fn an_unreachable_coordinator_is_a_transport_error() {
        // Bind-then-drop guarantees a dead port.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let mut config = WorkerConfig::new(format!("127.0.0.1:{port}"));
        config.max_transport_failures = 1;
        config.backoff_base = Duration::from_millis(1);
        config.backoff_cap = Duration::from_millis(2);
        match run_worker(&config) {
            Err(WorkError::Transport { what }) => assert!(what.contains("connect"), "{what}"),
            other => panic!("expected transport error, got {other:?}"),
        }
    }
}
