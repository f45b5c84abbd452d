//! Server-side observability: request counters, latency sums, and a
//! Prometheus-style text rendering.
//!
//! The `/metrics` route combines three layers of counters:
//!
//! 1. per-route request counts and latency sums plus per-status response
//!    counts and an in-flight gauge (the atomics in [`Metrics`]);
//! 2. the artifact cache's request/hit/compute counters
//!    ([`accelerator_wall::artifacts::CacheStats`]);
//! 3. the shared-input [`Ctx`](accelerator_wall::cache::Ctx) counters
//!    ([`CtxCounters`]) — the same numbers the pipeline's golden tests
//!    assert on, so "the corpus was built at most once over the whole
//!    server lifetime" is observable from the outside — including
//!    `accelwall_dfg_lowerings_total` and the program size gauges
//!    (`accelwall_dfg_program_{nodes,edges,bytes}`), which prove each
//!    workload graph was lowered to bytecode exactly once;
//! 4. failure-containment counters: `worker_panics_total` (pool workers
//!    that died panicking and were respawned — stays 0 while the cache's
//!    `catch_unwind` containment holds), the cache's retry / contained
//!    panic / compute-timeout counters, and — when a fault plan is armed
//!    via `ACCELWALL_FAULTS` — one `accelwall_fault_injections_total`
//!    line per armed site, so chaos tests assert injection coverage from
//!    the same endpoint operators scrape;
//! 5. compute-pool gauges from `accelwall-par`: `accelwall_par_workers`
//!    (live pool threads), `accelwall_par_jobs_total` (parallel jobs
//!    run), and `accelwall_par_steals_total` (chunk batches taken by a
//!    worker rather than the submitting thread) — how much intra-
//!    experiment parallelism the serving process is actually getting;
//! 6. when a distributed-work coordinator is attached
//!    ([`accelwall_work::WorkStats`]), the `accelwall_work_*` series:
//!    unit progress gauges plus the lease / completion / re-issue /
//!    hedge / quarantine counters chaos tests assert on.
//!
//! 7. connection counters: connections admitted / open, keep-alive
//!    reuses, pipelined requests, idle-timeout reaps, over-cap sheds,
//!    and the pre-serialized response cache's hit/miss/eviction/byte
//!    series
//!    ([`RespCacheStats`]) — the numbers the serve bench and the CI
//!    keep-alive smoke assert on.
//!
//! Route labels are normalized (`/experiments/fig14` reports as
//! `/experiments/{id}`) so label cardinality stays bounded no matter
//! what paths clients probe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use accelerator_wall::artifacts::CacheStats;
use accelerator_wall::cache::CtxCounters;
use accelwall_query::QueryStats;
use accelwall_work::WorkStats;

use crate::respcache::RespCacheStats;

/// The server's route space, used as the bounded metrics label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /experiments`.
    Experiments,
    /// `GET /experiments/{id}` (any id, known or not).
    Experiment,
    /// `GET /query` and `POST /query` (ad-hoc what-if specs).
    Query,
    /// `GET /query/schema`.
    QuerySchema,
    /// `GET /metrics`.
    Metrics,
    /// `POST /shutdown`.
    Shutdown,
    /// `POST /work/lease` (worker asks the coordinator for units).
    WorkLease,
    /// `POST /work/complete` (worker returns one unit's result).
    WorkComplete,
    /// `POST /work/heartbeat` (worker extends its leases).
    WorkHeartbeat,
    /// Anything else, including unparseable requests.
    Other,
}

impl Route {
    /// Every route, in rendering order.
    pub const ALL: [Route; 11] = [
        Route::Healthz,
        Route::Experiments,
        Route::Experiment,
        Route::Query,
        Route::QuerySchema,
        Route::Metrics,
        Route::Shutdown,
        Route::WorkLease,
        Route::WorkComplete,
        Route::WorkHeartbeat,
        Route::Other,
    ];

    /// The normalized label rendered into metrics.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "/healthz",
            Route::Experiments => "/experiments",
            Route::Experiment => "/experiments/{id}",
            Route::Query => "/query",
            Route::QuerySchema => "/query/schema",
            Route::Metrics => "/metrics",
            Route::Shutdown => "/shutdown",
            Route::WorkLease => "/work/lease",
            Route::WorkComplete => "/work/complete",
            Route::WorkHeartbeat => "/work/heartbeat",
            Route::Other => "other",
        }
    }
}

#[derive(Debug, Default)]
struct RouteStats {
    requests: AtomicU64,
    latency_ns: AtomicU64,
}

/// All server-side counters, shared across workers by reference.
#[derive(Debug, Default)]
pub struct Metrics {
    per_route: [RouteStats; Route::ALL.len()],
    responses: Mutex<Vec<(u16, u64)>>,
    in_flight: AtomicUsize,
    rejected: AtomicU64,
    connections: AtomicU64,
    open_connections: AtomicUsize,
    keepalive_reuses: AtomicU64,
    pipelined: AtomicU64,
    idle_timeouts: AtomicU64,
    over_cap: AtomicU64,
    /// Shared with the worker pool (see
    /// [`ThreadPool::with_panic_counter`](crate::pool::ThreadPool::with_panic_counter)),
    /// which increments it when a worker dies panicking and is respawned.
    worker_panics: Arc<AtomicU64>,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one finished request: route, response status, wall time.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        let stats = &self.per_route[Route::ALL.iter().position(|&r| r == route).unwrap_or(0)];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats
            .latency_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        let mut responses = self
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match responses.iter_mut().find(|(s, _)| *s == status) {
            Some((_, n)) => *n += 1,
            None => {
                responses.push((status, 1));
                responses.sort_unstable();
            }
        }
    }

    /// Marks a request rejected by pool backpressure (503 before
    /// routing; the connection stays open). Rendered as
    /// `accelwall_connections_rejected_total` for compatibility.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection admitted by the accept loop.
    pub fn record_connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admitted connection closing (any reason).
    pub fn record_connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a request served on an already-used connection — the
    /// keep-alive payoff the serve bench and CI smoke assert on.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request parsed while earlier ones on the same
    /// connection were still outstanding (true pipelining).
    pub fn record_pipelined(&self) {
        self.pipelined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection reaped by the idle/stall timeout.
    pub fn record_idle_timeout(&self) {
        self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed by the concurrent-connection cap.
    pub fn record_over_cap(&self) {
        self.over_cap.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections admitted so far (the CI smoke compares this against
    /// requests served to prove keep-alive reuse).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Keep-alive reuses recorded so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// The worker-panic counter, cloned into the pool at construction so
    /// respawns show up here without a callback.
    pub fn worker_panics_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.worker_panics)
    }

    /// Pool workers that died panicking (each one was respawned).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Raises the in-flight gauge for the lifetime of the returned guard.
    pub fn track_in_flight(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// The current in-flight gauge value.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Renders every counter in Prometheus text exposition format,
    /// folding in the artifact-cache, shared-input, and query-engine
    /// counters plus — when a distributed-work coordinator is attached —
    /// the `accelwall_work_*` series.
    pub fn render(
        &self,
        cache: CacheStats,
        ctx: CtxCounters,
        query: &QueryStats,
        resp: &RespCacheStats,
        work: Option<&WorkStats>,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("# TYPE accelwall_requests_total counter\n");
        for (route, stats) in Route::ALL.iter().zip(&self.per_route) {
            let _ = writeln!(
                out,
                "accelwall_requests_total{{route=\"{}\"}} {}",
                route.label(),
                stats.requests.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE accelwall_request_latency_seconds_sum counter\n");
        for (route, stats) in Route::ALL.iter().zip(&self.per_route) {
            let _ = writeln!(
                out,
                "accelwall_request_latency_seconds_sum{{route=\"{}\"}} {}",
                route.label(),
                stats.latency_ns.load(Ordering::Relaxed) as f64 / 1e9
            );
        }
        out.push_str("# TYPE accelwall_responses_total counter\n");
        for (status, count) in self
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let _ = writeln!(
                out,
                "accelwall_responses_total{{status=\"{status}\"}} {count}"
            );
        }
        out.push_str("# TYPE accelwall_in_flight_requests gauge\n");
        let _ = writeln!(
            out,
            "accelwall_in_flight_requests {}",
            self.in_flight.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE accelwall_connections_rejected_total counter\n");
        let _ = writeln!(
            out,
            "accelwall_connections_rejected_total {}",
            self.rejected.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE accelwall_connections counter\n");
        for (name, value) in [
            (
                "connections_total",
                self.connections.load(Ordering::Relaxed),
            ),
            (
                "keepalive_reuses_total",
                self.keepalive_reuses.load(Ordering::Relaxed),
            ),
            (
                "pipelined_requests_total",
                self.pipelined.load(Ordering::Relaxed),
            ),
            (
                "idle_timeouts_total",
                self.idle_timeouts.load(Ordering::Relaxed),
            ),
            (
                "connections_over_cap_total",
                self.over_cap.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(out, "accelwall_{name} {value}");
        }
        out.push_str("# TYPE accelwall_open_connections gauge\n");
        let _ = writeln!(
            out,
            "accelwall_open_connections {}",
            self.open_connections.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE accelwall_response_cache counter\n");
        for (name, value) in [
            ("hits_total", resp.hits),
            ("misses_total", resp.misses),
            ("insertions_total", resp.insertions),
            ("evictions_total", resp.evictions),
        ] {
            let _ = writeln!(out, "accelwall_response_cache_{name} {value}");
        }
        out.push_str("# TYPE accelwall_response_cache_bytes gauge\n");
        let _ = writeln!(out, "accelwall_response_cache_bytes {}", resp.bytes);
        out.push_str("# TYPE accelwall_response_cache_entries gauge\n");
        let _ = writeln!(out, "accelwall_response_cache_entries {}", resp.entries);
        out.push_str("# TYPE accelwall_response_cache_capacity_bytes gauge\n");
        let _ = writeln!(
            out,
            "accelwall_response_cache_capacity_bytes {}",
            resp.capacity_bytes
        );
        out.push_str("# TYPE accelwall_artifact_cache counter\n");
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_requests_total {}",
            cache.requests
        );
        let _ = writeln!(out, "accelwall_artifact_cache_hits_total {}", cache.hits);
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_misses_total {}",
            cache.misses()
        );
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_computes_total {}",
            cache.computes
        );
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_retries_total {}",
            cache.retries
        );
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_panics_contained_total {}",
            cache.panics_contained
        );
        let _ = writeln!(
            out,
            "accelwall_artifact_cache_compute_timeouts_total {}",
            cache.timeouts
        );
        out.push_str("# TYPE accelwall_query counter\n");
        for (name, value) in [
            ("cache_hits_total", query.cache.hits),
            ("cache_misses_total", query.cache.misses),
            ("cache_insertions_total", query.cache.insertions),
            ("cache_evictions_total", query.cache.evictions),
            ("cache_oversize_total", query.cache.oversize),
            ("computes_total", query.computes),
            ("shed_total", query.shed),
        ] {
            let _ = writeln!(out, "accelwall_query_{name} {value}");
        }
        out.push_str("# TYPE accelwall_query_cache_bytes gauge\n");
        let _ = writeln!(out, "accelwall_query_cache_bytes {}", query.cache.bytes);
        out.push_str("# TYPE accelwall_query_cache_entries gauge\n");
        let _ = writeln!(out, "accelwall_query_cache_entries {}", query.cache.entries);
        out.push_str("# TYPE accelwall_query_cache_capacity_bytes gauge\n");
        let _ = writeln!(
            out,
            "accelwall_query_cache_capacity_bytes {}",
            query.cache.capacity_bytes
        );
        out.push_str("# TYPE accelwall_query_in_flight_cost gauge\n");
        let _ = writeln!(out, "accelwall_query_in_flight_cost {}", query.in_flight);
        out.push_str("# TYPE accelwall_worker_panics_total counter\n");
        let _ = writeln!(
            out,
            "accelwall_worker_panics_total {}",
            self.worker_panics.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE accelwall_faults_armed gauge\n");
        let _ = writeln!(
            out,
            "accelwall_faults_armed {}",
            u8::from(accelwall_faults::is_armed())
        );
        if accelwall_faults::is_armed() {
            out.push_str("# TYPE accelwall_fault_injections_total counter\n");
            for site in accelwall_faults::report() {
                let _ = writeln!(
                    out,
                    "accelwall_fault_injections_total{{site=\"{}\",kind=\"{}\"}} {}",
                    site.site, site.kind, site.fired
                );
            }
        }
        out.push_str("# TYPE accelwall_ctx counter\n");
        for (name, value) in [
            ("corpus_computes", ctx.corpus_computes),
            ("corpus_requests", ctx.corpus_requests),
            ("fit_computes", ctx.fit_computes),
            ("fit_requests", ctx.fit_requests),
            ("model_computes", ctx.model_computes),
            ("model_requests", ctx.model_requests),
            ("sweep_computes", ctx.sweep_computes),
            ("sweep_requests", ctx.sweep_requests),
            ("dfg_computes", ctx.dfg_computes),
            ("dfg_requests", ctx.dfg_requests),
            ("program_requests", ctx.program_requests),
        ] {
            let _ = writeln!(out, "accelwall_ctx_{name} {value}");
        }
        out.push_str("# TYPE accelwall_dfg_lowerings_total counter\n");
        let _ = writeln!(out, "accelwall_dfg_lowerings_total {}", ctx.lowerings);
        out.push_str("# TYPE accelwall_dfg_program_nodes gauge\n");
        let _ = writeln!(out, "accelwall_dfg_program_nodes {}", ctx.program_nodes);
        out.push_str("# TYPE accelwall_dfg_program_edges gauge\n");
        let _ = writeln!(out, "accelwall_dfg_program_edges {}", ctx.program_edges);
        out.push_str("# TYPE accelwall_dfg_program_bytes gauge\n");
        let _ = writeln!(out, "accelwall_dfg_program_bytes {}", ctx.program_bytes);
        out.push_str("# TYPE accelwall_par_workers gauge\n");
        let _ = writeln!(out, "accelwall_par_workers {}", accelwall_par::workers());
        out.push_str("# TYPE accelwall_par_jobs_total counter\n");
        let _ = writeln!(
            out,
            "accelwall_par_jobs_total {}",
            accelwall_par::jobs_total()
        );
        out.push_str("# TYPE accelwall_par_steals_total counter\n");
        let _ = writeln!(
            out,
            "accelwall_par_steals_total {}",
            accelwall_par::steals_total()
        );
        if let Some(work) = work {
            out.push_str("# TYPE accelwall_work gauge\n");
            for (name, value) in [
                ("units_total", work.units_total),
                ("units_done", work.units_done),
                ("units_outstanding", work.units_outstanding),
                ("workers_alive", work.workers_alive),
                ("workers_quarantined", work.workers_quarantined),
            ] {
                let _ = writeln!(out, "accelwall_work_{name} {value}");
            }
            out.push_str("# TYPE accelwall_work counter\n");
            for (name, value) in [
                ("leases_total", work.leases_total),
                ("completions_total", work.completions_total),
                (
                    "duplicate_completions_total",
                    work.duplicate_completions_total,
                ),
                ("reissues_total", work.reissues_total),
                ("hedges_total", work.hedges_total),
                ("heartbeats_total", work.heartbeats_total),
                ("unit_failures_total", work.unit_failures_total),
                ("local_units_total", work.local_units_total),
            ] {
                let _ = writeln!(out, "accelwall_work_{name} {value}");
            }
        }
        out
    }
}

/// RAII guard decrementing the in-flight gauge on drop.
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_stats() -> CacheStats {
        CacheStats {
            requests: 3,
            hits: 2,
            computes: 1,
            retries: 4,
            panics_contained: 5,
            timeouts: 6,
        }
    }

    fn empty_ctx() -> CtxCounters {
        CtxCounters {
            corpus_computes: 1,
            corpus_requests: 4,
            fit_computes: 0,
            fit_requests: 0,
            model_computes: 1,
            model_requests: 2,
            sweep_computes: 0,
            sweep_requests: 0,
            dfg_computes: 0,
            dfg_requests: 0,
            lowerings: 3,
            program_requests: 7,
            program_nodes: 1200,
            program_edges: 2400,
            program_bytes: 65536,
        }
    }

    #[test]
    fn observe_accumulates_per_route_and_per_status() {
        let m = Metrics::new();
        m.observe(Route::Healthz, 200, Duration::from_millis(2));
        m.observe(Route::Healthz, 200, Duration::from_millis(3));
        m.observe(Route::Experiment, 404, Duration::from_millis(1));
        let text = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            None,
        );
        assert!(text.contains("accelwall_requests_total{route=\"/healthz\"} 2"));
        assert!(text.contains("accelwall_requests_total{route=\"/experiments/{id}\"} 1"));
        assert!(text.contains("accelwall_responses_total{status=\"200\"} 2"));
        assert!(text.contains("accelwall_responses_total{status=\"404\"} 1"));
        assert!(text.contains("accelwall_request_latency_seconds_sum{route=\"/healthz\"} 0.005"));
    }

    #[test]
    fn in_flight_gauge_tracks_guard_lifetime() {
        let m = Metrics::new();
        assert_eq!(m.in_flight(), 0);
        {
            let _a = m.track_in_flight();
            let _b = m.track_in_flight();
            assert_eq!(m.in_flight(), 2);
        }
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn render_folds_in_cache_and_ctx_counters() {
        let m = Metrics::new();
        m.record_rejected();
        let text = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            None,
        );
        assert!(text.contains("accelwall_connections_rejected_total 1"));
        assert!(text.contains("accelwall_artifact_cache_hits_total 2"));
        assert!(text.contains("accelwall_artifact_cache_misses_total 1"));
        assert!(text.contains("accelwall_artifact_cache_retries_total 4"));
        assert!(text.contains("accelwall_artifact_cache_panics_contained_total 5"));
        assert!(text.contains("accelwall_artifact_cache_compute_timeouts_total 6"));
        assert!(text.contains("accelwall_ctx_corpus_computes 1"));
        assert!(text.contains("accelwall_ctx_sweep_requests 0"));
        assert!(text.contains("accelwall_ctx_dfg_computes 0"));
        assert!(text.contains("accelwall_ctx_program_requests 7"));
        assert!(text.contains("accelwall_dfg_lowerings_total 3"));
        assert!(text.contains("accelwall_dfg_program_nodes 1200"));
        assert!(text.contains("accelwall_dfg_program_edges 2400"));
        assert!(text.contains("accelwall_dfg_program_bytes 65536"));
    }

    #[test]
    fn render_exposes_the_compute_pool_series() {
        let text = Metrics::new().render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            None,
        );
        for series in [
            "accelwall_par_workers ",
            "accelwall_par_jobs_total ",
            "accelwall_par_steals_total ",
        ] {
            assert!(text.contains(series), "missing {series}");
        }
    }

    #[test]
    fn worker_panic_counter_is_shared_with_the_pool_side() {
        let m = Metrics::new();
        assert_eq!(m.worker_panics(), 0);
        // The pool holds a clone and increments it on respawn; simulate.
        m.worker_panics_counter().fetch_add(2, Ordering::SeqCst);
        assert_eq!(m.worker_panics(), 2);
        let text = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            None,
        );
        assert!(text.contains("accelwall_worker_panics_total 2"));
        // No plan is armed in unit tests: the gauge says so and no
        // injection lines render.
        assert!(text.contains("accelwall_faults_armed 0"));
        assert!(!text.contains("accelwall_fault_injections_total"));
    }

    #[test]
    fn connection_and_response_cache_series_render() {
        let m = Metrics::new();
        m.record_connection_opened();
        m.record_connection_opened();
        m.record_connection_closed();
        m.record_keepalive_reuse();
        m.record_pipelined();
        m.record_idle_timeout();
        m.record_over_cap();
        assert_eq!(m.connections(), 2);
        assert_eq!(m.keepalive_reuses(), 1);
        let resp = RespCacheStats {
            hits: 9,
            misses: 3,
            insertions: 3,
            evictions: 1,
            entries: 2,
            bytes: 4096,
            capacity_bytes: 65536,
        };
        let text = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &resp,
            None,
        );
        assert!(text.contains("accelwall_connections_total 2"));
        assert!(text.contains("accelwall_open_connections 1"));
        assert!(text.contains("accelwall_keepalive_reuses_total 1"));
        assert!(text.contains("accelwall_pipelined_requests_total 1"));
        assert!(text.contains("accelwall_idle_timeouts_total 1"));
        assert!(text.contains("accelwall_connections_over_cap_total 1"));
        assert!(text.contains("accelwall_response_cache_hits_total 9"));
        assert!(text.contains("accelwall_response_cache_misses_total 3"));
        assert!(text.contains("accelwall_response_cache_evictions_total 1"));
        assert!(text.contains("accelwall_response_cache_bytes 4096"));
        assert!(text.contains("accelwall_response_cache_capacity_bytes 65536"));
    }

    #[test]
    fn work_series_render_only_when_a_coordinator_is_attached() {
        let m = Metrics::new();
        let without = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            None,
        );
        assert!(!without.contains("accelwall_work_"));
        let stats = WorkStats {
            units_total: 8,
            units_done: 5,
            units_outstanding: 3,
            workers_alive: 2,
            workers_quarantined: 1,
            leases_total: 9,
            completions_total: 5,
            duplicate_completions_total: 1,
            reissues_total: 2,
            hedges_total: 1,
            heartbeats_total: 12,
            unit_failures_total: 2,
            local_units_total: 0,
        };
        let with = m.render(
            empty_stats(),
            empty_ctx(),
            &QueryStats::default(),
            &RespCacheStats::default(),
            Some(&stats),
        );
        assert!(with.contains("accelwall_work_units_total 8"));
        assert!(with.contains("accelwall_work_units_outstanding 3"));
        assert!(with.contains("accelwall_work_workers_quarantined 1"));
        assert!(with.contains("accelwall_work_reissues_total 2"));
        assert!(with.contains("accelwall_work_hedges_total 1"));
        assert!(with.contains("accelwall_work_duplicate_completions_total 1"));
    }
}
