//! The load generator: keep-alive HTTP/1.1 connections driven in a
//! closed loop (one thread per connection, each caller waiting for its
//! reply) or an open loop (requests leave on a fixed schedule whatever
//! the replies do, pipelining when the server falls behind).
//!
//! In the open loop each request is timed from when it was due, so a
//! stall also counts against the requests queued behind it, and the
//! generator's own lateness is reported as lag. One thread drives every
//! connection of the open loop: it polls their sockets without sleeping,
//! so it occupies one CPU and leaves the others to the server, whose
//! threads go idle between arrivals and pay their own wake-up cost. In
//! the closed loop the lag is the caller's turnaround between a reply
//! and its next request.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply, REPLY_TIMEOUT};
use crate::stats::ms;

/// The requests one connection sends and how their replies are checked.
pub trait Traffic: Send {
    /// The next request, with a tag that identifies it to [`Traffic::check`].
    fn next(&mut self) -> (Vec<u8>, usize);
    /// Whether `reply` is a correct answer to the request tagged `tag`.
    fn check(&mut self, tag: usize, reply: &Reply) -> bool;
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time to a correct reply, in ms, for every successful request.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests was sent (closed loop) or due (open
    /// loop), in seconds from the start of the phase.
    pub at_s: Vec<f64>,
    /// Generator lag samples, in ms.
    pub lags_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: bad status, framing or body, or no reply.
    pub failed: u64,
    /// The first few error messages.
    pub errors: Vec<String>,
    /// From the start of the phase to the last reply, in seconds.
    pub elapsed_s: f64,
    last_reply: Option<Instant>,
}

impl Outcome {
    fn fail(&mut self, n: u64, error: String) {
        self.failed += n;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.at_s.extend(other.at_s);
        self.lags_ms.extend(other.lags_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.last_reply = self.last_reply.max(other.last_reply);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs one connection per traffic source for `duration`, in a closed
/// loop when `interval` is `None`, or in an open loop sending one
/// request per `interval` on each connection. The connections' schedules
/// are staggered evenly. Returns the merged outcome and the sources.
pub fn run<T: Traffic>(
    addr: SocketAddr,
    traffic: Vec<T>,
    duration: Duration,
    interval: Option<Duration>,
) -> (Outcome, Vec<T>) {
    let start = Instant::now();
    let (mut out, sources) = match interval {
        None => closed_all(addr, traffic, start, start + duration),
        Some(every) => open(addr, traffic, start, every, start + duration),
    };
    out.elapsed_s = out
        .last_reply
        .map_or(duration, |last| last.duration_since(start))
        .as_secs_f64();
    (out, sources)
}

/// The closed loop: one thread per connection.
fn closed_all<T: Traffic>(
    addr: SocketAddr,
    traffic: Vec<T>,
    start: Instant,
    end: Instant,
) -> (Outcome, Vec<T>) {
    let conns = traffic.len();
    let results: Vec<(Outcome, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = traffic
            .into_iter()
            .map(|t| scope.spawn(move || closed(addr, t, start, end)))
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut merged = Outcome::default();
    if results.len() < conns {
        merged.fail(1, "a load generator thread panicked".into());
    }
    let mut sources = Vec::with_capacity(results.len());
    for (outcome, t) in results {
        merged.merge(outcome);
        sources.push(t);
    }
    (merged, sources)
}

fn closed<T: Traffic>(addr: SocketAddr, mut t: T, start: Instant, end: Instant) -> (Outcome, T) {
    let mut out = Outcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(1, e);
            return (out, t);
        }
    };
    let mut last_reply = None;
    while Instant::now() < end {
        let (request, tag) = t.next();
        let sent = Instant::now();
        if let Some(last) = last_reply {
            out.lags_ms.push(ms(sent.duration_since(last)));
        }
        out.attempted += 1;
        let reply = conn.call(&request);
        let done = Instant::now();
        last_reply = Some(done);
        out.last_reply = last_reply;
        match reply {
            Ok(reply) if t.check(tag, &reply) => {
                out.latencies_ms.push(ms(done - sent));
                out.at_s.push((sent - start).as_secs_f64());
            }
            Ok(reply) => out.fail(1, format!("bad reply: status {}", reply.status)),
            Err(e) => {
                out.fail(1, e);
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(e) => {
                        out.fail(0, e);
                        break;
                    }
                }
            }
        }
    }
    (out, t)
}

/// One connection of the open loop and its schedule.
struct Lane<T> {
    traffic: T,
    /// `None` once the connection is lost and cannot be made again.
    conn: Option<Conn>,
    first: Instant,
    sent: u32,
    /// Requests sent and not yet answered: (due time, tag).
    pending: VecDeque<(Instant, usize)>,
}

fn connect_nonblocking(addr: SocketAddr) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr)?;
    conn.set_nonblocking()?;
    Ok(conn)
}

impl<T: Traffic> Lane<T> {
    fn due(&self, every: Duration) -> Instant {
        self.first + every * self.sent
    }

    fn finished(&self, every: Duration, end: Instant) -> bool {
        self.conn.is_none() || (self.due(every) >= end && self.pending.is_empty())
    }

    /// Sends the next request if it is due, or else takes in one reply
    /// if one has arrived. Returns whether there was anything to do.
    fn poll(
        &mut self,
        now: Instant,
        every: Duration,
        start: Instant,
        end: Instant,
        out: &mut Outcome,
    ) -> Result<bool, String> {
        let due = self.due(every);
        let Some(conn) = self.conn.as_mut() else {
            return Ok(false);
        };
        if due < end && now >= due {
            let (request, tag) = self.traffic.next();
            out.lags_ms.push(ms(now - due));
            out.attempted += 1;
            self.pending.push_back((due, tag));
            self.sent += 1;
            conn.send(&request)?;
            return Ok(true);
        }
        let Some(reply) = conn.take_buffered()? else {
            return conn.try_fill();
        };
        let arrived = Instant::now();
        out.last_reply = Some(arrived);
        match self.pending.pop_front() {
            Some((due_at, tag)) if self.traffic.check(tag, &reply) => {
                out.latencies_ms.push(ms(arrived.duration_since(due_at)));
                out.at_s.push(due_at.duration_since(start).as_secs_f64());
            }
            Some(_) => out.fail(1, format!("bad reply: status {}", reply.status)),
            None => out.fail(1, "reply to no request".into()),
        }
        Ok(true)
    }
}

/// The open loop: one thread polls every connection in turn.
fn open<T: Traffic>(
    addr: SocketAddr,
    traffic: Vec<T>,
    start: Instant,
    every: Duration,
    end: Instant,
) -> (Outcome, Vec<T>) {
    let mut out = Outcome::default();
    let n = traffic.len().max(1) as u32;
    let mut lanes: Vec<Lane<T>> = Vec::with_capacity(traffic.len());
    for (i, t) in traffic.into_iter().enumerate() {
        let conn = match connect_nonblocking(addr) {
            Ok(c) => Some(c),
            Err(e) => {
                out.attempted += 1;
                out.fail(1, e);
                None
            }
        };
        lanes.push(Lane {
            traffic: t,
            conn,
            first: start + every * i as u32 / n,
            sent: 0,
            pending: VecDeque::new(),
        });
    }
    let drain_until = end + REPLY_TIMEOUT;
    loop {
        let now = Instant::now();
        if lanes.iter().all(|l| l.finished(every, end)) {
            break;
        }
        if now >= drain_until {
            for lane in &mut lanes {
                if !lane.pending.is_empty() {
                    out.fail(
                        lane.pending.len() as u64,
                        "replies still missing at the drain deadline".into(),
                    );
                }
            }
            break;
        }
        let mut busy = false;
        for lane in &mut lanes {
            match lane.poll(now, every, start, end, &mut out) {
                Ok(did) => busy |= did,
                Err(e) => {
                    out.fail(lane.pending.len() as u64, e);
                    lane.pending.clear();
                    lane.conn = match connect_nonblocking(addr) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            out.fail(0, e);
                            None
                        }
                    };
                }
            }
        }
        // Poll without sleeping: a sleeping generator wakes late
        // whenever the host is slow to resume an idle virtual CPU, and
        // that lateness would count against the server.
        if !busy {
            std::thread::yield_now();
        }
    }
    (out, lanes.into_iter().map(|l| l.traffic).collect())
}
