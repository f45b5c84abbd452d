//! `accelwall-server` — a dependency-free HTTP artifact server over the
//! experiment registry.
//!
//! The one-shot CLI recomputes artifacts per invocation; this crate
//! turns the same registry into a long-lived service. A [`Server`] holds
//! one process-lifetime [`ArtifactCache`] (registry + shared-input
//! [`Ctx`](accelerator_wall::cache::Ctx) + per-experiment `OnceLock`s),
//! so the first request for a target computes it — dependencies first,
//! exactly like an `all` run — and every later request is served from
//! memory. The pipeline's compute-once invariant extends from "per
//! process run" to "per server lifetime", and `/metrics` exposes the
//! counters that prove it.
//!
//! Everything is `std`-only, split into two tiers (see DESIGN.md,
//! "Connection front end"):
//!
//! * an **I/O tier** — a blocking accept loop that serves each admitted
//!   connection on its own thread: the thread reads and parses pipelined
//!   HTTP/1.1 incrementally, keeps the connection alive by default
//!   (closing only on error, `Connection: close`, or the idle timeout),
//!   answers warm `GET`s straight from a pre-serialized
//!   [`respcache::ResponseCache`], and writes responses out in request
//!   order with gathered vectored writes;
//! * a **compute tier** — the fixed-size worker pool
//!   ([`pool::ThreadPool`]) over a bounded `mpsc` channel, fed one
//!   parsed request at a time. The bounded backlog doubles as the
//!   backpressure cap: a saturated pool answers that request `503` in
//!   pipeline order instead of queueing unboundedly, and a hard
//!   concurrent-connection cap ([`ServerConfig::max_connections`])
//!   sheds whole connections the same way.
//!
//! Shutdown is a drain: `POST /shutdown` (or [`ServerHandle::shutdown`])
//! stops accepting, connections parked between requests close at once,
//! requests already buffered or in flight finish, then the pool drains
//! and [`Server::run`] returns.
//!
//! # Routes
//!
//! | Route | Response |
//! |---|---|
//! | `GET /experiments` | the registry roster (same JSON as `accelwall list --json`) |
//! | `GET /experiments/{id}` | the artifact as JSON, or its text rendering with `Accept: text/plain` |
//! | `GET /query?...` | an ad-hoc what-if spec answered by the query engine (`accelwall-query`) |
//! | `POST /query` | the same, with the spec as a JSON body (`Content-Length`-capped) |
//! | `GET /query/schema` | query-field introspection: kinds, rosters, defaults |
//! | `GET /healthz` | `{"status": "ready"\|"degraded", "failed": [...]}` — degraded lists targets in `Failed` state |
//! | `GET /metrics` | Prometheus-style counters (requests, latency, cache, query engine, `Ctx`, containment) |
//! | `POST /shutdown` | begins the graceful drain |
//! | `POST /work/lease` | lease a batch of grid units (coordinator mode only; see DESIGN.md, "Distributed execution") |
//! | `POST /work/complete` | return one unit's result (or failure) to the coordinator |
//! | `POST /work/heartbeat` | extend the caller's leases; replies with units to abandon |
//!
//! The `/work/*` routes exist only when the server was bound with
//! [`Server::bind_with_work`] and a [`Coordinator`] attached (the
//! `accelwall work` coordinator mode); otherwise they answer `404` and
//! `/healthz` + `/metrics` are byte-identical to a plain server.
//!
//! Unknown `{id}`s answer `404` with the same roster-carrying message as
//! the CLI — both derive from [`Registry`](accelerator_wall::registry::Registry),
//! so there is no hand-maintained route list to drift.
//!
//! # Failure containment
//!
//! Experiments can fail, panic, or hang; none of those may take the
//! server down with them (see DESIGN.md, "Failure semantics"):
//!
//! * a panicking experiment is caught inside the cache and answers `500`
//!   with a typed `"kind": "panic"` JSON body — and should a panic ever
//!   reach a pool worker anyway, the worker respawns and
//!   `worker_panics_total` counts it;
//! * a transient failure answers `500` with a `Retry-After` hint; the
//!   cache retries it (bounded attempts, exponential backoff) on later
//!   requests instead of memoizing the error forever;
//! * a compute still running after [`ServerConfig::compute_deadline`]
//!   answers `504` while the compute continues in the background;
//! * `/healthz` reports `degraded` (with the failed-target list) while
//!   any slot is in `Failed` state, for load-balancer use.
//!
//! Every path above can be provoked deterministically by arming
//! `ACCELWALL_FAULTS` (see the `accelwall-faults` crate); the
//! `serve-request` static site fires per parsed request at the top of
//! the pool's compute handler, and `serve-conn` fires per accepted
//! connection in the accept loop. While a fault plan is armed the
//! connection threads bypass the response cache entirely, so every
//! request flows through the pool and its probes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod metrics;
pub mod pool;
pub mod respcache;

mod front;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::error::Error;
use accelerator_wall::json::Value;
use accelwall_query::spec::{pairs_from_json, pairs_from_query};
use accelwall_query::{QueryEngine, QueryError, QuerySpec};
use accelwall_work::protocol::parse_lease_request;
use accelwall_work::{CompleteRequest, Coordinator, HeartbeatRequest};

use front::ComputeJob;
use http::{Request, Response};
use metrics::{Metrics, Route};
use pool::ThreadPool;
use respcache::ResponseCache;

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, `HOST:PORT`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Requests allowed to queue for the worker pool beyond the busy
    /// workers; a request arriving past it is answered `503`.
    pub backlog: usize,
    /// Per-socket read/write timeout (bounds slow clients).
    pub io_timeout: Duration,
    /// How long a `GET /experiments/{id}` request waits for a compute
    /// before answering `504` (the compute itself keeps running and can
    /// settle the cache for later requests).
    pub compute_deadline: Duration,
    /// Byte cap on the query engine's response LRU (`/query` routes).
    pub query_cache_bytes: usize,
    /// Hard cap on concurrently open connections; excess accepts are
    /// shed with an immediate `503` + close.
    pub max_connections: usize,
    /// How long a connection may sit idle between requests before it is
    /// closed (keep-alive harvest; slowloris protection).
    pub idle_timeout: Duration,
    /// Byte cap on the pre-serialized response cache (the connection
    /// threads' inline fast path for warm `GET`s).
    pub response_cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8373".to_string(),
            workers: 4,
            backlog: 64,
            io_timeout: Duration::from_secs(5),
            compute_deadline: Duration::from_secs(30),
            query_cache_bytes: accelwall_query::engine::DEFAULT_CACHE_BYTES,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(5),
            response_cache_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A bound (but not yet running) artifact server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    cache: Arc<ArtifactCache>,
    engine: Arc<QueryEngine>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    work: Option<Arc<Coordinator>>,
}

/// A cheap handle for observing and stopping a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Begins the graceful drain: no new connections are accepted,
    /// queued and in-flight requests finish, then [`Server::run`]
    /// returns.
    pub fn shutdown(&self) {
        // AcqRel: the release side publishes "draining" to the
        // front end's Acquire loads; the acquire side orders this thread
        // after any earlier shutdown call it lost the race to.
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the accept loop, which is parked in `accept()`.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl Server {
    /// Binds the listener and prepares the worker pool configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (bad address, port in use).
    pub fn bind(config: ServerConfig, cache: ArtifactCache) -> std::io::Result<Server> {
        Server::bind_with_work(config, cache, None)
    }

    /// Like [`Server::bind`], with an optional distributed-work
    /// [`Coordinator`] attached. When `Some`, the `/work/*` routes serve
    /// leases, completions, and heartbeats against it, `/metrics` grows
    /// the `accelwall_work_*` series, and `/healthz` reports worker and
    /// unit health; when `None` the server is byte-identical to
    /// [`Server::bind`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures (bad address, port in use).
    pub fn bind_with_work(
        config: ServerConfig,
        cache: ArtifactCache,
        work: Option<Arc<Coordinator>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = Arc::new(cache);
        // The query engine shares the artifact cache (and through it the
        // memoized `Ctx`), so shadowed specs and ad-hoc points reuse the
        // same lowered programs the registry targets computed.
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&cache),
            config.query_cache_bytes,
        ));
        Ok(Server {
            listener,
            local_addr,
            config,
            cache,
            engine,
            metrics: Arc::new(Metrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            work,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle usable from other threads to stop the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr,
            shutdown: Arc::clone(&self.shutdown),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Serves until a drain is requested, then finishes queued work and
    /// returns. This call owns the calling thread (it becomes the accept
    /// loop).
    ///
    /// # Errors
    ///
    /// Never fails: per-connection errors are answered on the wire
    /// (4xx/5xx) or dropped, never escalated.
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.handle();
        let respcache = Arc::new(ResponseCache::new(self.config.response_cache_bytes));
        let pool = {
            let cache = Arc::clone(&self.cache);
            let engine = Arc::clone(&self.engine);
            let metrics = Arc::clone(&self.metrics);
            let respcache = Arc::clone(&respcache);
            let work = self.work.clone();
            let compute_deadline = self.config.compute_deadline;
            // The metrics' panic counter is shared with the pool, so a
            // worker that dies panicking (and respawns) is visible as
            // `worker_panics_total` without any callback plumbing.
            ThreadPool::with_panic_counter(
                self.config.workers,
                self.config.backlog,
                self.metrics.worker_panics_counter(),
                move |job: ComputeJob| {
                    let serve = ServeState {
                        cache: &cache,
                        engine: &engine,
                        metrics: &metrics,
                        handle: &handle,
                        work: work.as_ref(),
                        respcache: &respcache,
                    };
                    compute_response(job, &serve, compute_deadline);
                },
            )
        };
        front::run(&self, &respcache, &pool);
        // Drain: every connection thread has exited; close the queue and
        // let the workers finish.
        pool.join();
        Ok(())
    }
}

/// The shared serving state every compute handler borrows: the artifact
/// cache, query engine, counters, drain handle, the pre-serialized
/// response cache, and (in coordinator mode) the work tier.
#[derive(Clone, Copy)]
struct ServeState<'a> {
    cache: &'a ArtifactCache,
    engine: &'a QueryEngine,
    metrics: &'a Metrics,
    handle: &'a ServerHandle,
    work: Option<&'a Arc<Coordinator>>,
    respcache: &'a ResponseCache,
}

/// The pool's compute handler: serves one parsed request and hands the
/// response back to its connection thread. A panic here drops the
/// reply sender, which makes that thread close the connection; the
/// pool's sentinel respawns the worker.
fn compute_response(job: ComputeJob, serve: &ServeState<'_>, compute_deadline: Duration) {
    let ComputeJob {
        request,
        cache_key,
        reply,
    } = job;
    let _in_flight = serve.metrics.track_in_flight();
    // The `serve-request` fault site: a `panic` rule fires on this very
    // worker thread (exercising pool respawn and dropping the client's
    // connection), an `err` rule answers 500, a `hang` rule holds the
    // worker for its duration.
    let (route, response) = match accelwall_faults::probe(accelwall_faults::sites::SERVE_REQUEST) {
        Err(fault) => (Route::Other, Response::text(500, format!("{fault}\n"))),
        Ok(()) => route_request(&request, serve, compute_deadline),
    };
    // Populate the response cache: only `200`s for cacheable request
    // shapes (the connection computed `cache_key` under the same
    // admission rules), and never while a fault plan is armed.
    if let Some(key) = &cache_key {
        if response.status == 200 && !accelwall_faults::is_armed() {
            serve.respcache.insert(key, route, &response);
        }
    }
    let _ = reply.send((route, response));
}

/// Maps one parsed request onto a route and a response.
fn route_request(
    request: &Request,
    serve: &ServeState<'_>,
    compute_deadline: Duration,
) -> (Route, Response) {
    let ServeState {
        cache,
        engine,
        metrics,
        handle,
        work,
        respcache,
    } = *serve;
    let get_only = |route: Route, response: Response| {
        if request.method == "GET" {
            (route, response)
        } else {
            (route, Response::method_not_allowed("GET"))
        }
    };
    match request.path.as_str() {
        "/healthz" => get_only(
            Route::Healthz,
            Response::json(200, healthz_body(cache, work)),
        ),
        "/experiments" => get_only(
            Route::Experiments,
            Response::json(200, roster_body(cache)),
        ),
        "/query" => (Route::Query, query_response(request, engine)),
        "/query/schema" => get_only(
            Route::QuerySchema,
            Response::json(200, {
                let mut body = QueryEngine::schema().pretty();
                body.push('\n');
                body
            }),
        ),
        "/metrics" => get_only(
            Route::Metrics,
            Response::text(
                200,
                metrics.render(
                    cache.stats(),
                    cache.ctx().counters(),
                    &engine.stats(),
                    &respcache.stats(),
                    work.map(|c| c.stats()).as_ref(),
                ),
            ),
        ),
        "/shutdown" => {
            if request.method == "POST" {
                handle.shutdown();
                (Route::Shutdown, Response::text(200, "draining\n"))
            } else {
                (Route::Shutdown, Response::method_not_allowed("POST"))
            }
        }
        "/work/lease" => work_route(request, work, Route::WorkLease),
        "/work/complete" => work_route(request, work, Route::WorkComplete),
        "/work/heartbeat" => work_route(request, work, Route::WorkHeartbeat),
        path => match path.strip_prefix("/experiments/") {
            Some(id) => {
                if request.method != "GET" {
                    return (Route::Experiment, Response::method_not_allowed("GET"));
                }
                (
                    Route::Experiment,
                    experiment_response(id, request, cache, compute_deadline),
                )
            }
            None => (
                Route::Other,
                Response::text(
                    404,
                    "no such route; routes: /healthz /experiments /experiments/{id} /query /query/schema /metrics /shutdown /work/lease /work/complete /work/heartbeat\n",
                ),
            ),
        },
    }
}

/// The `GET /experiments` body: the registry roster, byte-identical to
/// `accelwall list --json` output.
fn roster_body(cache: &ArtifactCache) -> Vec<u8> {
    let mut body = cache.registry().roster_json().pretty();
    body.push('\n');
    body.into_bytes()
}

/// The `GET /healthz` body: `ready` when every requested target is fine,
/// `degraded` with the failed-target list otherwise. Always `200` — the
/// process itself is serving either way; load balancers key on
/// `"status"`.
///
/// With a coordinator attached, two extra keys report the work tier:
/// `"workers"` (alive and quarantined counts) and `"units"` (outstanding
/// count). Without one the body is byte-identical to a plain server's.
fn healthz_body(cache: &ArtifactCache, work: Option<&Arc<Coordinator>>) -> Vec<u8> {
    let failed = cache.failed_targets();
    let status = if failed.is_empty() {
        "ready"
    } else {
        "degraded"
    };
    let mut fields = vec![
        ("status", Value::from(status)),
        (
            "failed",
            Value::array(failed.iter().map(|f| {
                Value::object([
                    ("id", Value::from(f.id)),
                    ("attempts", Value::from(u64::from(f.attempts))),
                    ("error", Value::from(f.error.to_string())),
                    ("retryable", Value::from(f.retry_in.is_some())),
                ])
            })),
        ),
    ];
    if let Some(coordinator) = work {
        let stats = coordinator.stats();
        fields.push((
            "workers",
            Value::object([
                ("alive", Value::from(stats.workers_alive)),
                ("quarantined", Value::from(stats.workers_quarantined)),
            ]),
        ));
        fields.push((
            "units",
            Value::object([("outstanding", Value::from(stats.units_outstanding))]),
        ));
    }
    let mut body = Value::object(fields).pretty();
    body.push('\n');
    body.into_bytes()
}

/// Routes one `/work/*` request: `POST`-only, `404` without an attached
/// coordinator, otherwise dispatched by [`work_response`].
fn work_route(
    request: &Request,
    work: Option<&Arc<Coordinator>>,
    route: Route,
) -> (Route, Response) {
    if request.method != "POST" {
        return (route, Response::method_not_allowed("POST"));
    }
    let Some(coordinator) = work else {
        return (
            route,
            Response::text(
                404,
                "no work tier active; start a coordinator with `accelwall work --grid <id>`\n",
            ),
        );
    };
    (route, work_response(request, coordinator, route))
}

/// Answers one `/work/*` POST against the active coordinator.
///
/// * a malformed body (bad JSON, missing field) — `400` with the
///   protocol error;
/// * an injected coordinator fault (`work-lease` / `work-complete`
///   sites) — `500` with a typed `"kind": "injected"` body and a
///   `Retry-After` hint, so workers retry instead of giving up;
/// * otherwise `200` with the typed reply.
fn work_response(request: &Request, coordinator: &Coordinator, route: Route) -> Response {
    let Some(body) = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| Value::parse(text).ok())
    else {
        return Response::text(400, "request body is not valid JSON\n");
    };
    let outcome = match route {
        Route::WorkLease => parse_lease_request(&body)
            .map(|(worker, max)| coordinator.lease(&worker, max).map(|r| r.to_value())),
        Route::WorkComplete => CompleteRequest::parse(&body)
            .map(|req| coordinator.complete(&req).map(|r| r.to_value())),
        Route::WorkHeartbeat => {
            HeartbeatRequest::parse(&body).map(|req| Ok(coordinator.heartbeat(&req).to_value()))
        }
        _ => return Response::text(404, "not a work route\n"),
    };
    match outcome {
        Err(e) => Response::text(400, format!("{e}\n")),
        Ok(Err(fault)) => {
            let mut body = Value::object([
                ("error", Value::from(fault.to_string())),
                ("kind", Value::from("injected")),
                ("retryable", Value::from(true)),
            ])
            .pretty();
            body.push('\n');
            Response::json(500, body).with_retry_after(1)
        }
        Ok(Ok(reply)) => {
            let mut body = reply.pretty();
            body.push('\n');
            Response::json(200, body)
        }
    }
}

/// The `GET /experiments/{id}` body, honoring `Accept: text/plain`.
///
/// Failures answer with a typed JSON body — `kind` distinguishes a
/// contained panic, an injected fault, a deadline timeout, and an
/// ordinary compute error — plus a `Retry-After` hint whenever the
/// cache's retry budget leaves the target retryable.
fn experiment_response(
    id: &str,
    request: &Request,
    cache: &ArtifactCache,
    compute_deadline: Duration,
) -> Response {
    match cache.get_within(id, Some(compute_deadline)) {
        Ok(artifact) => {
            if request.wants_plain_text() {
                Response::text(200, artifact.text.clone())
            } else {
                let mut body = artifact.json.pretty();
                body.push('\n');
                Response::json(200, body)
            }
        }
        // The 404 body carries the registry roster, exactly like the
        // CLI's unknown-target error — no hand-maintained route list.
        Err(e @ Error::UnknownExperiment { .. }) => Response::text(404, format!("{e}\n")),
        // Still computing when the deadline expired: 504, definitely
        // worth retrying — the background compute may settle the slot.
        Err(e @ Error::ComputeTimeout { .. }) => {
            Response::json(504, failure_body(id, &e, None, true)).with_retry_after(1)
        }
        Err(e) => {
            let failure = cache.failure_of(id);
            let attempts = failure.as_ref().map(|f| f.attempts);
            let retry_in = failure.as_ref().and_then(|f| f.retry_in);
            let response = Response::json(500, failure_body(id, &e, attempts, retry_in.is_some()));
            match retry_in {
                // Round up so "retry after" never undershoots backoff.
                Some(wait) => response.with_retry_after(wait.as_secs_f64().ceil().max(1.0) as u64),
                None => response,
            }
        }
    }
}

/// The JSON body for a failed `GET /experiments/{id}`.
fn failure_body(id: &str, error: &Error, attempts: Option<u32>, retryable: bool) -> Vec<u8> {
    let kind = match error.root_cause() {
        Error::ExperimentPanicked { .. } => "panic",
        Error::FaultInjected { .. } => "injected",
        Error::ComputeTimeout { .. } => "timeout",
        _ => "compute",
    };
    let mut fields = vec![
        ("target", Value::from(id)),
        ("error", Value::from(error.to_string())),
        ("kind", Value::from(kind)),
        ("retryable", Value::from(retryable)),
    ];
    if let Some(attempts) = attempts {
        fields.push(("attempts", Value::from(u64::from(attempts))));
    }
    let mut body = Value::object(fields).pretty();
    body.push('\n');
    body.into_bytes()
}

/// The `/query` body: parse the spec (query string for `GET`, JSON body
/// for `POST`), answer it through the shared [`QueryEngine`], and map
/// [`QueryError`] onto HTTP statuses.
///
/// * invalid spec (unknown field, bad value, wrong knob for the kind)
///   — `400` with the same roster-carrying message the CLI prints;
/// * admission control shedding — `503` with a `Retry-After` hint;
/// * a transient compute failure (injected fault, deadline) — `500`/`504`
///   with a typed JSON body and `Retry-After`, mirroring
///   `/experiments/{id}` failure semantics;
/// * a non-retryable compute error (e.g. a vacuous projection horizon)
///   — `400`, because it is the caller's knobs that made it impossible.
fn query_response(request: &Request, engine: &QueryEngine) -> Response {
    let pairs = match request.method.as_str() {
        "GET" => pairs_from_query(&request.query),
        "POST" => match std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| Value::parse(text).ok())
        {
            Some(doc) => pairs_from_json(&doc),
            None => return Response::text(400, "request body is not valid JSON\n"),
        },
        _ => return Response::method_not_allowed("GET, POST"),
    };
    let answer = pairs
        .and_then(|pairs| QuerySpec::from_pairs(&pairs))
        .and_then(|spec| engine.answer(&spec));
    match answer {
        Ok(body) => Response::json(200, body.as_ref().clone()),
        Err(e @ QueryError::Invalid(_)) => Response::text(400, format!("{e}\n")),
        Err(e @ QueryError::Overloaded { .. }) => {
            Response::text(503, format!("{e}\n")).with_retry_after(1)
        }
        Err(QueryError::Engine(e)) => {
            let (status, kind, retryable) = match e.root_cause() {
                Error::FaultInjected { .. } => (500, "injected", true),
                Error::ComputeTimeout { .. } => (504, "timeout", true),
                Error::ExperimentPanicked { .. } => (500, "panic", false),
                _ => (400, "compute", false),
            };
            let mut body = Value::object([
                ("error", Value::from(e.to_string())),
                ("kind", Value::from(kind)),
                ("retryable", Value::from(retryable)),
            ])
            .pretty();
            body.push('\n');
            let response = Response::json(status, body);
            if retryable {
                response.with_retry_after(1)
            } else {
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerator_wall::cache::Ctx;
    use accelerator_wall::json::Value;
    use accelerator_wall::prelude::{Registry, SweepSpace};
    use std::io::{Read, Write};

    fn coarse_server() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    fn raw_request(addr: SocketAddr, head: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(head.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        raw_request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        raw_request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// Pulls the value off a `name value` metrics line.
    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
    }

    #[test]
    fn end_to_end_routes_cache_and_drain() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();

        // /healthz: ready, nothing failed yet.
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = Value::parse(&body).expect("healthz is valid JSON");
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ready"));
        assert_eq!(
            health
                .get("failed")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
        // No coordinator attached: no work-tier keys, and /work routes 404.
        assert!(health.get("workers").is_none());
        let (status, body) = post(addr, "/work/lease", r#"{"worker": "w", "max": 1}"#);
        assert_eq!(status, 404);
        assert!(body.contains("no work tier active"), "{body}");

        // /experiments mirrors the registry roster.
        let (status, body) = get(addr, "/experiments");
        assert_eq!(status, 200);
        let roster = Value::parse(&body).expect("roster is valid JSON");
        assert_eq!(
            roster.as_array().map(<[Value]>::len),
            Some(Registry::paper().len())
        );

        // An artifact twice: compute then hit, byte-identical bodies.
        let (status, first) = get(addr, "/experiments/fig3a");
        assert_eq!(status, 200);
        let (_, second) = get(addr, "/experiments/fig3a");
        assert_eq!(first, second);
        assert!(Value::parse(&first).is_ok());

        // Accept: text/plain returns the rendered text.
        let (status, text) = raw_request(
            addr,
            "GET /experiments/fig3a HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(text.contains("Fig. 3a"), "plain text rendering:\n{text}");

        // Unknown id: 404 carrying the roster, like the CLI.
        let (status, body) = get(addr, "/experiments/fig99");
        assert_eq!(status, 404);
        assert!(body.contains("unknown target"));
        assert!(body.contains("fig3a"));

        // Wrong method and unknown path.
        let (status, _) = raw_request(
            addr,
            "POST /experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _) = raw_request(addr, "garbage\r\n\r\n");
        assert_eq!(status, 400);

        // /metrics reflects all of the above.
        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(text.contains("accelwall_requests_total{route=\"/healthz\"} 1"));
        assert!(text.contains("accelwall_artifact_cache_computes_total 1"));
        // fig3a never touches the corpus; the line must exist and stay 0.
        assert!(text.contains("accelwall_ctx_corpus_computes 0"));

        // Graceful drain via POST /shutdown.
        let (status, body) = raw_request(
            addr,
            "POST /shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!((status, body.as_str()), (200, "draining\n"));
        join.join().expect("server thread").expect("clean exit");
        assert!(
            TcpStream::connect(addr).is_err() || {
                // A connect may still succeed in the OS backlog race; a
                // subsequent read must then see an immediate close.
                true
            }
        );
    }

    #[test]
    fn query_routes_answer_shadow_and_introspect() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();

        // A cold point query computes; the identical warm repeat is
        // served from the LRU — byte-identical, hit counter advances,
        // compute counter does not.
        let (status, cold) = get(addr, "/query?workload=fft&node=7nm&lanes=4");
        assert_eq!(status, 200, "cold query: {cold}");
        let report = Value::parse(&cold).expect("query body is valid JSON");
        assert_eq!(report.get("kind").and_then(Value::as_str), Some("point"));
        let (status, warm) = get(addr, "/query?lanes=4&node=7nm&workload=fft");
        assert_eq!(status, 200);
        assert_eq!(cold, warm, "warm repeat must be byte-identical");
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_query_computes_total"), 1);
        assert_eq!(metric(&text, "accelwall_query_cache_hits_total"), 1);

        // A spec that shadows a registry target answers with the exact
        // artifact bytes that GET /experiments/{id} serves.
        let (status, via_query) = post(addr, "/query", r#"{"kind": "sweep", "workload": "s3d"}"#);
        assert_eq!(status, 200, "shadow query: {via_query}");
        let (status, via_registry) = get(addr, "/experiments/fig13");
        assert_eq!(status, 200);
        assert_eq!(
            via_query, via_registry,
            "shadowed spec must be byte-identical to the registry artifact"
        );

        // Introspection lists the field roster.
        let (status, schema) = get(addr, "/query/schema");
        assert_eq!(status, 200);
        let schema = Value::parse(&schema).expect("schema is valid JSON");
        assert!(schema.get("fields").and_then(Value::as_array).is_some());

        // Spec validation failures answer 400 with the roster, wrong
        // methods 405, and an oversized POST body 413 before any read.
        let (status, body) = get(addr, "/query?workload=fft&warp=9");
        assert_eq!(status, 400);
        assert!(body.contains("unknown field"), "roster error: {body}");
        assert!(body.contains("known fields:"), "roster error: {body}");
        let (status, _) = raw_request(
            addr,
            "PUT /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let (status, body) = raw_request(
            addr,
            &format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
                http::MAX_BODY_BYTES + 1
            ),
        );
        assert_eq!(status, 413, "oversized body: {body}");
        let (status, _) = post(addr, "/query", "not json");
        assert_eq!(status, 400);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn a_tiny_query_cache_evicts_but_never_exceeds_its_cap() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            query_cache_bytes: 16 * 1024,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();

        // Enough distinct point specs to overflow a 16 KiB LRU.
        for node in [
            "45nm", "32nm", "28nm", "22nm", "16nm", "14nm", "10nm", "7nm", "5nm",
        ] {
            for lanes in [1u32, 2, 4, 8] {
                let (status, body) = get(
                    addr,
                    &format!("/query?workload=fft&node={node}&lanes={lanes}"),
                );
                assert_eq!(status, 200, "point query: {body}");
            }
        }
        let (_, text) = get(addr, "/metrics");
        assert!(
            metric(&text, "accelwall_query_cache_evictions_total") > 0,
            "expected evictions under a tiny cap:\n{text}"
        );
        assert!(
            metric(&text, "accelwall_query_cache_bytes")
                <= metric(&text, "accelwall_query_cache_capacity_bytes"),
            "cache exceeded its byte cap:\n{text}"
        );

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn work_routes_lease_complete_and_report_health() {
        use accelerator_wall::grids::GridRegistry;
        use accelwall_work::{LeaseReply, WorkConfig};

        let ctx = Arc::new(Ctx::with_space(SweepSpace::coarse()));
        let grid = GridRegistry::standard().get("sensitivity").expect("grid");
        let coordinator = Arc::new(Coordinator::new(grid, ctx, "coarse", WorkConfig::default()));
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            ..ServerConfig::default()
        };
        let server =
            Server::bind_with_work(config, cache, Some(Arc::clone(&coordinator))).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();

        // Method and body validation.
        let (status, _) = get(addr, "/work/lease");
        assert_eq!(status, 405);
        let (status, _) = post(addr, "/work/lease", "not json");
        assert_eq!(status, 400);
        let (status, body) = post(addr, "/work/lease", r#"{"worker": "w1"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("\"max\""), "{body}");

        // A lease hands out real unit indices for the attached grid.
        let (status, body) = post(addr, "/work/lease", r#"{"worker": "w1", "max": 2}"#);
        assert_eq!(status, 200, "{body}");
        let reply = LeaseReply::parse(&Value::parse(&body).expect("lease JSON")).expect("reply");
        let units = match reply {
            LeaseReply::Units {
                grid, space, units, ..
            } => {
                assert_eq!(grid, "sensitivity");
                assert_eq!(space, "coarse");
                units
            }
            other => panic!("expected a unit batch, got {other:?}"),
        };
        assert!(!units.is_empty());

        // Heartbeats on held units have nothing to abandon.
        let (status, body) = post(
            addr,
            "/work/heartbeat",
            &format!(r#"{{"worker": "w1", "units": [{}]}}"#, units[0]),
        );
        assert_eq!(status, 200);
        let beat = Value::parse(&body).expect("heartbeat JSON");
        assert_eq!(
            beat.get("abandon")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );

        // Completing a unit is recorded once; the repeat is a duplicate.
        let complete = format!(
            r#"{{"worker": "w1", "unit": {}, "result": {{"x": 1.5}}}}"#,
            units[0]
        );
        let (status, body) = post(addr, "/work/complete", &complete);
        assert_eq!(status, 200);
        let reply = Value::parse(&body).expect("complete JSON");
        assert_eq!(reply.get("accepted").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("duplicate").and_then(Value::as_bool), Some(false));
        let (_, body) = post(addr, "/work/complete", &complete);
        let reply = Value::parse(&body).expect("complete JSON");
        assert_eq!(reply.get("duplicate").and_then(Value::as_bool), Some(true));

        // /healthz grows the work-tier keys when a coordinator is attached.
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = Value::parse(&body).expect("healthz JSON");
        assert!(health.get("workers").is_some(), "{body}");
        assert!(
            health
                .get("units")
                .and_then(|u| u.get("outstanding"))
                .and_then(Value::as_f64)
                .is_some(),
            "{body}"
        );

        // /metrics exposes the accelwall_work_* series.
        let (_, text) = get(addr, "/metrics");
        assert!(metric(&text, "accelwall_work_leases_total") >= 1);
        assert_eq!(metric(&text, "accelwall_work_completions_total"), 1);
        assert_eq!(
            metric(&text, "accelwall_work_duplicate_completions_total"),
            1
        );
        assert_eq!(
            metric(&text, "accelwall_work_units_total"),
            coordinator.total_units() as u64
        );

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    /// Reads exactly one `Content-Length`-framed response off a
    /// keep-alive connection (no EOF to lean on). `carry` holds bytes of
    /// later pipelined responses over-read by a previous call.
    fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String) {
        let mut chunk = [0u8; 4096];
        let (head_end, content_length, status) = loop {
            if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&carry[..pos]).expect("head is utf-8");
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let len = head
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .unwrap_or(0);
                break (pos + 4, len, status);
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid-head");
            carry.extend_from_slice(&chunk[..n]);
        };
        while carry.len() < head_end + content_length {
            let n = stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            carry.extend_from_slice(&chunk[..n]);
        }
        let body =
            String::from_utf8(carry[head_end..head_end + content_length].to_vec()).expect("utf-8");
        carry.drain(..head_end + content_length);
        (status, body)
    }

    #[test]
    fn keep_alive_and_pipelining_serve_in_order_on_one_connection() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        // Baselines over two close-mode connections.
        let (_, roster) = get(addr, "/experiments");
        let (_, schema) = get(addr, "/query/schema");

        // Three sequential requests reuse ONE connection...
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut carry = Vec::new();
        for _ in 0..3 {
            stream
                .write_all(b"GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            let (status, body) = read_framed(&mut stream, &mut carry);
            assert_eq!(status, 200);
            assert_eq!(body, roster, "keep-alive repeats must be byte-identical");
        }
        // ...and a pipelined burst written in one shot flushes strictly
        // in request order, closing after the final response.
        stream
            .write_all(
                b"GET /query/schema HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /query/schema HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("send pipeline");
        let (s1, b1) = read_framed(&mut stream, &mut carry);
        let (s2, b2) = read_framed(&mut stream, &mut carry);
        let (s3, b3) = read_framed(&mut stream, &mut carry);
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert_eq!(b1, schema, "pipelined response 1 out of order");
        assert_eq!(b2, roster, "pipelined response 2 out of order");
        assert_eq!(b3, schema, "pipelined response 3 out of order");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("eof after close");
        assert!(rest.is_empty(), "bytes after Connection: close: {rest:?}");

        // 9 requests so far over 3 connections; the 4th fetches proof.
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_connections_total"), 4);
        assert!(
            metric(&text, "accelwall_keepalive_reuses_total") >= 5,
            "{text}"
        );
        assert!(
            metric(&text, "accelwall_pipelined_requests_total") >= 1,
            "{text}"
        );
        assert!(
            metric(&text, "accelwall_response_cache_hits_total") >= 2,
            "{text}"
        );

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn idle_timeout_reaps_and_the_connection_cap_sheds() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            max_connections: 2,
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();

        let mut first = TcpStream::connect(addr).expect("connect");
        let second = TcpStream::connect(addr).expect("connect");
        // Serve one request on the first so both admits are processed.
        first
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, _) = read_framed(&mut first, &mut Vec::new());
        assert_eq!(status, 200);

        // The third connection is over the cap: immediate 503 + close.
        let mut third = TcpStream::connect(addr).expect("connect");
        let mut shed = String::new();
        third.read_to_string(&mut shed).expect("read shed");
        assert!(shed.starts_with("HTTP/1.1 503"), "over-cap reply: {shed}");
        assert!(shed.contains("connection limit reached"), "{shed}");

        // Both idle connections are reaped by the timeout (EOF, no bytes).
        let mut eof = String::new();
        first.read_to_string(&mut eof).expect("idle eof");
        assert!(eof.is_empty());
        let mut second = second;
        let mut eof = String::new();
        second.read_to_string(&mut eof).expect("idle eof");
        assert!(eof.is_empty());

        // With the slots free again, a fresh connection is served.
        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metric(&text, "accelwall_connections_over_cap_total") >= 1);
        assert!(metric(&text, "accelwall_idle_timeouts_total") >= 2);
        assert_eq!(metric(&text, "accelwall_open_connections"), 1);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    /// SplitMix64 — the repo's standard dependency-free PRNG idiom.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn socket_writes_split_at_arbitrary_boundaries_are_byte_identical() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        let pipeline: &[u8] = b"GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n\
                                GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                                GET /experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let run = |chunks: &[&[u8]]| -> Vec<u8> {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for chunk in chunks {
                stream.write_all(chunk).expect("send chunk");
                stream.flush().expect("flush");
                // Let the reactor observe a genuinely partial buffer.
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut out = Vec::new();
            stream.read_to_end(&mut out).expect("read responses");
            out
        };
        let reference = run(&[pipeline]);
        assert!(!reference.is_empty());
        let mut state = 0xACCE_1E2A_7012_u64;
        for _ in 0..5 {
            // Split the stream at 3 PRNG-chosen interior boundaries.
            let mut cuts: Vec<usize> = (0..3)
                .map(|_| 1 + (splitmix64(&mut state) as usize) % (pipeline.len() - 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut prev = 0;
            for &cut in &cuts {
                chunks.push(&pipeline[prev..cut]);
                prev = cut;
            }
            chunks.push(&pipeline[prev..]);
            let split = run(&chunks);
            assert_eq!(
                split, reference,
                "split at {cuts:?} changed the response bytes"
            );
        }

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn handle_shutdown_drains_without_a_request() {
        let (handle, join) = coarse_server();
        handle.shutdown();
        handle.shutdown(); // idempotent
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn a_pipelined_cold_compute_and_warm_hit_come_back_in_request_order() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        // Warm the schema into the response cache; fig3a stays cold.
        let (_, schema) = get(addr, "/query/schema");
        let mut stream = TcpStream::connect(addr).expect("connect");
        // The cold compute goes to the pool while the hit behind it is
        // answered on the connection thread; the wire order must still
        // be the request order.
        stream
            .write_all(
                b"GET /experiments/fig3a HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /query/schema HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("send pipeline");
        let mut carry = Vec::new();
        let (s1, cold) = read_framed(&mut stream, &mut carry);
        let (s2, warm) = read_framed(&mut stream, &mut carry);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(warm, schema, "the warm hit overtook the cold compute");
        let (_, fig3a) = get(addr, "/experiments/fig3a");
        assert_eq!(cold, fig3a);
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_artifact_cache_computes_total"), 1);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn a_thousand_request_pipelined_burst_is_answered_completely_in_order() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        let (_, roster) = get(addr, "/experiments");
        let (_, schema) = get(addr, "/query/schema");
        // 499 keep-alive pairs, then a final pair whose second closes.
        let pair =
            "GET /experiments HTTP/1.1\r\nHost: t\r\n\r\nGET /query/schema HTTP/1.1\r\nHost: t\r\n";
        let burst = format!(
            "{}{pair}Connection: close\r\n\r\n",
            format!("{pair}\r\n").repeat(499)
        );
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Send from another thread: the responses outweigh the socket
        // buffers, so this thread must read while the burst goes out.
        let mut sender = stream.try_clone().expect("clone");
        let writer = std::thread::spawn(move || sender.write_all(burst.as_bytes()).expect("send"));
        let mut carry = Vec::new();
        for i in 0..1000 {
            let (status, body) = read_framed(&mut stream, &mut carry);
            assert_eq!(status, 200, "response {i}");
            let expected = if i % 2 == 0 { &roster } else { &schema };
            assert_eq!(&body, expected, "response {i} out of order");
        }
        writer.join().expect("writer");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("eof after close");
        assert!(carry.is_empty() && rest.is_empty(), "bytes after the end");
        let (_, text) = get(addr, "/metrics");
        assert!(metric(&text, "accelwall_pipelined_requests_total") > 0);
        assert!(metric(&text, "accelwall_keepalive_reuses_total") >= 999);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn shutdown_closes_an_idle_keep_alive_connection_without_waiting_it_out() {
        // The default 5 s idle timeout: the drain must not wait for it.
        let (handle, join) = coarse_server();
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, _) = read_framed(&mut stream, &mut Vec::new());
        assert_eq!(status, 200);
        let begun = std::time::Instant::now();
        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
        let took = begun.elapsed();
        assert!(took < Duration::from_secs(2), "drain took {took:?}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("eof");
        assert!(rest.is_empty());
    }
}
