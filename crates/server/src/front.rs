//! The blocking front end: one accept loop, one scoped thread per
//! connection (see DESIGN.md, "Connection front end" and "Graceful
//! drain").
//!
//! Each connection thread loops: [`read_request`] over the connection's
//! carry buffer, which reads only while the buffer holds no complete
//! request; up to [`PIPELINE_CAP`] more requests parsed off the buffer;
//! each dispatched to the [`ResponseCache`] or the pool; the replies
//! awaited in request order and written with one gathered write.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use crate::http::{parse_bytes, read_request, ParseOutcome, Request, RequestError, Response};
use crate::metrics::Route;
use crate::pool::ThreadPool;
use crate::respcache::{CachedResponse, ResponseCache};
use crate::Server;

/// Requests parsed off one connection's buffer per batch; the rest stay
/// buffered (and the socket unread) until the batch is written.
const PIPELINE_CAP: usize = 64;

/// One request handed to the compute pool. The pool answers on `reply`;
/// a worker that panics drops it, which closes the connection.
pub(crate) struct ComputeJob {
    /// The parsed request.
    pub request: Request,
    /// The response-cache key when the request shape is cacheable (the
    /// pool inserts the rendered response under it on a 200).
    pub cache_key: Option<String>,
    /// Where the routed response goes back to the connection thread.
    pub reply: SyncSender<(Route, Response)>,
}

/// The response-cache key for a request, when its shape is cacheable:
/// `GET` on the immutable-content routes. `/healthz`, `/metrics`,
/// `/shutdown`, and `/work/*` change per request and return `None`.
pub(crate) fn cache_key(request: &Request) -> Option<String> {
    if request.method != "GET" || !request.body.is_empty() {
        return None;
    }
    match request.path.as_str() {
        "/experiments" => Some("roster".to_string()),
        "/query/schema" => Some("schema".to_string()),
        "/query" => Some(format!("query?{}", request.query)),
        path => path.strip_prefix("/experiments/").map(|id| {
            let variant = if request.wants_plain_text() { 't' } else { 'j' };
            format!("exp:{id}:{variant}")
        }),
    }
}

/// Accepts and serves on the calling thread until a drain completes;
/// every connection thread has exited when this returns.
pub(crate) fn run(server: &Server, respcache: &ResponseCache, pool: &ThreadPool<ComputeJob>) {
    let front = Front {
        server,
        respcache,
        pool,
        open: Mutex::default(),
    };
    std::thread::scope(|scope| {
        for stream in server.listener.incoming() {
            // `ServerHandle::shutdown` self-connects to wake us here.
            if front.draining() {
                break;
            }
            match stream {
                Ok(stream) => front.admit(scope, stream),
                // e.g. out of file descriptors: back off, don't spin.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for conn in lock(&front.open).iter() {
            if *lock(&conn.idle) {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
        }
    });
}

/// One open connection, shared by its thread and the drain.
struct Conn {
    stream: TcpStream,
    /// Whether the connection is parked between requests: nothing
    /// buffered, nothing in flight. The drain closes exactly these.
    idle: Mutex<bool>,
}

struct Front<'a> {
    server: &'a Server,
    respcache: &'a ResponseCache,
    pool: &'a ThreadPool<ComputeJob>,
    /// Every admitted, still-open connection; its length is what the
    /// connection cap checks.
    open: Mutex<Vec<Arc<Conn>>>,
}

impl Front<'_> {
    fn draining(&self) -> bool {
        // Acquire pairs with the handle's AcqRel swap: the drain
        // decision happens-after whatever the stopper did first.
        self.server.shutdown.load(Ordering::Acquire)
    }

    /// Registers one accepted connection and spawns its thread, or sheds
    /// it (`serve-conn` fault, connection cap, no thread to serve it).
    fn admit<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, stream: TcpStream) {
        // The `serve-conn` chaos site: an `err` sheds the connection
        // with a 503 + close, a `panic` is contained right here — the
        // connection drops but the accept loop survives.
        match std::panic::catch_unwind(|| {
            accelwall_faults::probe(accelwall_faults::sites::SERVE_CONN)
        }) {
            Ok(Ok(())) => {}
            Ok(Err(fault)) => return shed(&stream, &format!("{fault}\n")),
            Err(_) => return, // contained panic: the connection just drops
        }
        let conn = Arc::new(Conn {
            stream,
            idle: Mutex::new(false),
        });
        {
            let mut open = lock(&self.open);
            if open.len() >= self.server.config.max_connections {
                drop(open);
                self.server.metrics.record_over_cap();
                return shed(&conn.stream, "connection limit reached, retry later\n");
            }
            open.push(Arc::clone(&conn));
        }
        self.server.metrics.record_connection_opened();
        let served = Arc::clone(&conn);
        let spawned = std::thread::Builder::new()
            .name("accelwall-conn".to_string())
            .spawn_scoped(scope, move || {
                self.serve(&served);
                self.forget(&served);
            });
        if spawned.is_err() {
            self.forget(&conn);
            shed(&conn.stream, "server saturated, retry later\n");
        }
    }

    /// Deregisters a closing connection. Runs before the socket closes,
    /// so a client that sees EOF also sees the open-connection count drop.
    fn forget(&self, conn: &Arc<Conn>) {
        let mut open = lock(&self.open);
        if let Some(i) = open.iter().position(|c| Arc::ptr_eq(c, conn)) {
            open.swap_remove(i);
            self.server.metrics.record_connection_closed();
        }
    }

    /// Serves one connection until it closes: read, batch, write.
    fn serve(&self, conn: &Conn) {
        let config = &self.server.config;
        let _ = conn.stream.set_nodelay(true);
        let _ = conn.stream.set_write_timeout(Some(config.io_timeout));
        let mut socket = Socket {
            conn,
            io_timeout: config.io_timeout,
            timeout: None,
            parked: false,
        };
        let mut buf = Vec::new();
        let mut served = 0u64;
        loop {
            if buf.is_empty() && !socket.park(config.idle_timeout, self) {
                return; // draining: close between requests
            }
            let first = match read_request(&mut socket, &mut buf) {
                Err(RequestError::Io(error)) => {
                    if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        self.server.metrics.record_idle_timeout();
                    }
                    return; // EOF, timeout, or a dead socket: close silently
                }
                parsed => parsed,
            };
            let mut batch = Vec::new();
            let mut keep_alive = self.stage(first, &mut batch, &mut served);
            while keep_alive && batch.len() < PIPELINE_CAP {
                let next = match parse_bytes(&buf) {
                    Ok(ParseOutcome::Complete { request, consumed }) => {
                        buf.drain(..consumed);
                        Ok(request)
                    }
                    Ok(ParseOutcome::Partial) => break,
                    Err(error) => Err(error),
                };
                keep_alive = self.stage(next, &mut batch, &mut served);
            }
            if !self.write_batch(&conn.stream, batch, keep_alive) || !keep_alive {
                return;
            }
        }
    }

    /// Dispatches one parsed request (or answers its parse error) into
    /// the batch. Returns whether the connection stays open after it.
    fn stage(
        &self,
        parsed: Result<Request, RequestError>,
        batch: &mut Vec<(Reply, Instant)>,
        served: &mut u64,
    ) -> bool {
        let metrics = &self.server.metrics;
        let started = Instant::now();
        let request = match parsed {
            Ok(request) => request,
            Err(error) => {
                // A malformed pipeline has no trustworthy framing: answer
                // the precise 4xx in order, then close.
                batch.push((Reply::Ready(error_response(&error)), started));
                return false;
            }
        };
        *served += 1;
        if *served > 1 {
            metrics.record_keepalive_reuse();
        }
        if !batch.is_empty() {
            metrics.record_pipelined();
        }
        let keep_alive = request.keep_alive;
        // The warm fast path never leaves this thread. It is off while a
        // fault plan is armed, so every request reaches the pool and its
        // `serve-request` probe.
        let key = if accelwall_faults::is_armed() {
            None
        } else {
            cache_key(&request)
        };
        let reply = match key.as_deref().and_then(|key| self.respcache.get(key)) {
            Some(hit) => Reply::Cached(hit),
            None => {
                let (reply, answer) = sync_channel(1);
                let job = ComputeJob {
                    request,
                    cache_key: key,
                    reply,
                };
                match self.pool.try_execute(job) {
                    Ok(()) => Reply::Pending(answer),
                    Err(_rejected) => {
                        // Backpressure: the bounded pool is full (or
                        // closing). Shed this request in pipeline order
                        // and keep the connection.
                        metrics.record_rejected();
                        let response = Response::text(503, "server saturated, retry later\n");
                        Reply::Ready((Route::Other, response))
                    }
                }
            }
        };
        batch.push((reply, started));
        keep_alive
    }

    /// Waits for the batch's replies in request order and writes them in
    /// one gathered write; only the last response of a closing batch
    /// says `Connection: close`. Returns whether the whole batch went
    /// out: a pool worker that died mid-request (its reply sender
    /// dropped) cuts the batch there and the connection closes.
    fn write_batch(
        &self,
        stream: &TcpStream,
        batch: Vec<(Reply, Instant)>,
        keep_alive: bool,
    ) -> bool {
        let last = batch.len() - 1;
        let mut wire = Vec::with_capacity(batch.len());
        let mut complete = true;
        for (i, (reply, started)) in batch.into_iter().enumerate() {
            let keep = keep_alive || i < last;
            let (route, response) = match reply {
                Reply::Cached(entry) => {
                    let (route, status) = (entry.route, entry.status);
                    wire.push((route, status, started, Payload::Cached(entry, keep)));
                    continue;
                }
                Reply::Ready(routed) => routed,
                Reply::Pending(answer) => {
                    let Ok(routed) = answer.recv() else {
                        complete = false;
                        break;
                    };
                    routed
                }
            };
            let payload = Payload::Owned(response.head_bytes(keep), response.body);
            wire.push((route, response.status, started, payload));
        }
        let mut slices: Vec<IoSlice<'_>> = wire
            .iter()
            .flat_map(|(.., payload)| payload.slices())
            .filter(|bytes| !bytes.is_empty())
            .map(IoSlice::new)
            .collect();
        if write_all_vectored(stream, &mut slices).is_err() {
            return false;
        }
        let now = Instant::now();
        for (route, status, started, _) in &wire {
            (self.server.metrics).observe(*route, *status, now.duration_since(*started));
        }
        complete
    }
}

/// How a staged request gets its response.
enum Reply {
    /// A response-cache hit, answered on the connection thread.
    Cached(Arc<CachedResponse>),
    /// A response the front end built itself (parse error, `503`).
    Ready((Route, Response)),
    /// A compute job in the pool; its response arrives here.
    Pending(Receiver<(Route, Response)>),
}

/// The bytes of one response: a rendered head and body, or a shared
/// response-cache entry and which of its heads to send (no copy on the
/// warm path).
enum Payload {
    Owned(Vec<u8>, Vec<u8>),
    Cached(Arc<CachedResponse>, bool),
}

impl Payload {
    fn slices(&self) -> [&[u8]; 2] {
        match self {
            Payload::Owned(head, body) => [head, body],
            Payload::Cached(entry, true) => [&entry.head_keep, &entry.body],
            Payload::Cached(entry, false) => [&entry.head_close, &entry.body],
        }
    }
}

/// The connection's socket as [`read_request`] sees it: a read that ends
/// the idle wait marks the connection busy (so the drain leaves it to
/// finish) and switches to the mid-request timeout.
struct Socket<'a> {
    conn: &'a Conn,
    io_timeout: Duration,
    /// The read timeout last set on the socket; changed only when it
    /// differs, so equal idle and I/O timeouts cost no extra syscalls.
    timeout: Option<Duration>,
    /// Waiting for the first byte of a request.
    parked: bool,
}

impl Socket<'_> {
    /// Parks the connection between requests under the idle timeout.
    /// Returns `false` when a drain has begun, so the connection closes
    /// instead. The check runs under the idle lock the drain takes, so
    /// either the drain sees this connection idle or this sees the drain.
    fn park(&mut self, idle_timeout: Duration, front: &Front<'_>) -> bool {
        self.set_timeout(idle_timeout);
        self.parked = true;
        let mut idle = lock(&self.conn.idle);
        *idle = true;
        !front.draining()
    }

    fn set_timeout(&mut self, timeout: Duration) {
        if self.timeout != Some(timeout) {
            let _ = self.conn.stream.set_read_timeout(Some(timeout));
            self.timeout = Some(timeout);
        }
    }
}

impl Read for Socket<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = (&self.conn.stream).read(out)?;
        if self.parked && n > 0 {
            self.parked = false;
            *lock(&self.conn.idle) = false;
            self.set_timeout(self.io_timeout);
        }
        Ok(n)
    }
}

/// Writes every slice, retrying short writes.
fn write_all_vectored(
    mut stream: &TcpStream,
    mut slices: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    while !slices.is_empty() {
        match stream.write_vectored(slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Answers a shed connection with a close-mode `503`, bounded by short
/// I/O timeouts, and lets the caller drop it.
fn shed(mut stream: &TcpStream, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    if Response::text(503, message).write_to(&mut stream).is_err() {
        return;
    }
    // Half-close, then drain whatever the client already sent: dropping
    // a socket with unread bytes in its receive buffer turns the close
    // into an RST, which can discard the 503 still in flight to the
    // client. The drain is bounded by the read timeout and a hard
    // deadline, so a misbehaving client cannot pin the accept loop here.
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) if Instant::now() >= deadline => break,
            Ok(_) => {}
        }
    }
}

/// Maps a parse failure onto its (route, response) pair.
fn error_response(error: &RequestError) -> (Route, Response) {
    let (route, status, body) = match error {
        RequestError::TooLarge => (Route::Other, 431, "request head too large\n".to_string()),
        RequestError::BodyTooLarge => (
            Route::Query,
            413,
            format!(
                "request body exceeds {} bytes\n",
                crate::http::MAX_BODY_BYTES
            ),
        ),
        RequestError::Malformed(what) => {
            (Route::Other, 400, format!("malformed request: {what}\n"))
        }
        // `parse_bytes` never yields `Io`, and `read_request`'s is
        // handled before staging.
        RequestError::Io(_) => (Route::Other, 400, "malformed request: i/o\n".to_string()),
    };
    (route, Response::text(status, body))
}

/// Locks a mutex, recovering the data if a panicking holder poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
