//! The traced run: spans around calls into each layer's public
//! functions, in this process, plus the live counters of the workload.
//!
//! Every traced run emits every per-layer metric. The parts are:
//!
//! * **live** — the serving workloads drive a real server for part of
//!   the run and report its `/metrics` deltas over the load phase;
//!   `paper_all` has no server, and its server and query counters read 0.
//! * **cold runs** — `accelwall all --json` spawned back to back (the
//!   untraced end-to-end latency the trace is accounted against) and
//!   `accelwall list` (`proc.start_ms`, the floor under every cold run).
//! * **replay** — one `all` in this process per operation, alternately
//!   traced and untraced: a fresh `Ctx` is primed through the memoizing
//!   accessors whose first call runs `Workload::default_instance`,
//!   `Dfg::lower`, `run_sweep_lowered(.., &SweepSpace::table3())`,
//!   `CorpusSpec::generate` and the density fit; then `Registry::run`
//!   runs every experiment in `Registry::schedule()` order on that
//!   `Ctx`, so each experiment's span holds only its own work; then the
//!   artifacts are rendered like `all --json` and the bytes checked
//!   against the recorded digest.
//! * **compute probes** — attribution, Pareto, projection and study
//!   scans called directly. Their work also happens inside the
//!   `core.run.*` spans of the experiments that use them; they break
//!   those spans down and are not added to the accounting.
//! * **serving probes** — the request path of the server, layer by
//!   layer, on the workload's own requests (`paper_all` uses the
//!   `query_explore` stream): HTTP parsing, spec parsing, cache key,
//!   engine answer (first and repeated), point simulation, response head
//!   and the response cache; plus the worker pool's hand-off latency.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelerator_wall::accelsim::attribution::Metric;
use accelerator_wall::accelsim::sweep::{best_efficiency, best_performance, pareto_runtime_power};
use accelerator_wall::accelsim::{attribute_gains_lowered, simulate_lowered, DesignConfig};
use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::cache::Ctx;
use accelerator_wall::json::Value;
use accelerator_wall::projection::{accelerator_wall, wall_sensitivity, Domain, TargetMetric};
use accelerator_wall::registry::Registry;
use accelerator_wall::studies::fpga::CnnModel;
use accelerator_wall::studies::{bitcoin, fpga, gpu, video};
use accelerator_wall::workloads::Workload;
use accelwall_query::{cache_key, QueryEngine, QueryKind};
use accelwall_server::http::{parse_bytes, ParseOutcome, Response};
use accelwall_server::metrics::Route;
use accelwall_server::pool::ThreadPool;
use accelwall_server::respcache::ResponseCache;

use crate::gen::{ExploreGen, HotItem, Rng, Spec};
use crate::paper_all::{spawn_loop, Digest};
use crate::sampler::{load_requests, Snapshot};
use crate::serving::{self, spec_from_wire, HotSet, Kind, Reference};
use crate::stats::{median, ms, quantile};
use crate::trace::{self_time_per_root, Span, Tracer};
use crate::{Env, Report};

/// The workload whose traced run this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    /// `paper_all`.
    PaperAll,
    /// `query_explore`.
    Explore,
    /// `serve_hot`.
    Hot,
}

/// Shares of `--seconds` spent on each part of a traced run.
struct Shares {
    live: f64,
    cold_all: f64,
    list: f64,
    replay: f64,
    compute: f64,
    serving: f64,
    handoff: f64,
}

const PAPER_ALL_SHARES: Shares = Shares {
    live: 0.0,
    cold_all: 0.3,
    list: 0.1,
    replay: 0.3,
    compute: 0.1,
    serving: 0.15,
    handoff: 0.05,
};

const SERVING_SHARES: Shares = Shares {
    live: 0.4,
    cold_all: 0.1,
    list: 0.05,
    replay: 0.15,
    compute: 0.05,
    serving: 0.2,
    handoff: 0.05,
};

/// Replay operations alternate traced and untraced in runs of this many.
const REPLAY_BATCH: usize = 2;
/// Serving-probe requests alternate traced and untraced in runs of this many.
const REQUEST_BATCH: usize = 32;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The key a span's self time is summed under, or `None` for the
/// operation's root.
fn layer_key(span: &Span) -> Option<String> {
    match (span.layer, span.item) {
        ("op" | "request" | "probe", _) => None,
        ("core.run", id) => Some(format!("core.run.{id}")),
        (layer, _) => Some(layer.to_string()),
    }
}

/// Per-layer medians over roots, in ns: for every key, the median over
/// the roots where it occurs of its summed self time; and the median
/// over roots of the self time of all keys together.
fn per_layer_medians(spans: &[Span]) -> (BTreeMap<String, f64>, f64) {
    let per_root = self_time_per_root(spans, layer_key);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::with_capacity(per_root.len());
    for root in &per_root {
        for (k, v) in root {
            samples.entry(k.clone()).or_default().push(*v as f64);
        }
        totals.push(root.values().sum::<u64>() as f64);
    }
    (
        samples.into_iter().map(|(k, v)| (k, median(&v))).collect(),
        median_or_zero(&totals),
    )
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The result of one replayed `all`.
struct Replay {
    ctx: Ctx,
    doc: Vec<u8>,
    par_jobs: u64,
    par_steals: u64,
}

/// One `all` in this process, spans under one `op` root.
fn replay_all(
    registry: &Registry,
    order: &[&'static str],
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let jobs = accelwall_par::jobs_total();
    let steals = accelwall_par::steals_total();
    let root = tr.begin("op", "", None);
    let ctx = Ctx::new();
    for &w in Workload::all() {
        tr.span("workloads.build", w.abbrev(), root, || {
            ctx.dfg(w).map(|_| ())
        })
        .map_err(err)?;
    }
    for &w in Workload::all() {
        tr.span("dfg.lower", w.abbrev(), root, || ctx.program(w).map(|_| ()))
            .map_err(err)?;
    }
    for &w in Workload::all() {
        tr.span("accelsim.sweep", w.abbrev(), root, || {
            ctx.sweep(w).map(|p| p.len())
        })
        .map_err(err)?;
    }
    tr.span("chipdb.corpus", "", root, || black_box(ctx.corpus().len()));
    tr.span("chipdb.fit", "", root, || ctx.density_fit())
        .map_err(err)?;
    let mut artifacts = BTreeMap::new();
    for &id in order {
        let artifact = tr
            .span("core.run", id, root, || registry.run(id, &ctx))
            .map_err(|e| format!("{id}: {e}"))?;
        artifacts.insert(id, artifact);
    }
    let doc = tr.span("core.render", "", root, || {
        let doc = Value::object(
            registry
                .ids()
                .into_iter()
                .filter_map(|id| Some((id, artifacts.get(id)?.json.clone()))),
        );
        format!("{}\n", doc.pretty()).into_bytes()
    });
    tr.end(root);
    Ok(Replay {
        ctx,
        doc,
        par_jobs: accelwall_par::jobs_total() - jobs,
        par_steals: accelwall_par::steals_total() - steals,
    })
}

/// Attribution, Pareto, projection and study scans, called directly,
/// under one `probe` root.
fn compute_probes(ctx: &Ctx, tr: &mut Tracer) -> Result<(), String> {
    let root = tr.begin("probe", "", None);
    for &w in Workload::all() {
        let program = ctx.program(w).map_err(err)?;
        let points = ctx.sweep(w).map_err(err)?;
        tr.span("accelsim.attribution", w.abbrev(), root, || {
            attribute_gains_lowered(&program, Metric::Performance, points)?;
            attribute_gains_lowered(&program, Metric::EnergyEfficiency, points)
        })
        .map_err(err)?;
        tr.span("accelsim.pareto", w.abbrev(), root, || {
            black_box(pareto_runtime_power(points).len());
            black_box(best_efficiency(points));
            black_box(best_performance(points));
        });
    }
    for &d in Domain::all() {
        for m in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
            tr.span("projection.walls", "", root, || accelerator_wall(d, m))
                .map_err(err)?;
        }
    }
    for &d in Domain::all() {
        tr.span("projection.sensitivity", "", root, || {
            wall_sensitivity(d, TargetMetric::Performance)
        })
        .map_err(err)?;
    }
    tr.span("studies.scan", "bitcoin", root, || -> Result<(), String> {
        black_box(bitcoin::fig1_series().map_err(err)?);
        black_box(bitcoin::fig9_performance_series().map_err(err)?);
        black_box(bitcoin::fig9_efficiency_series().map_err(err)?);
        Ok(())
    })?;
    tr.span("studies.scan", "fpga", root, || -> Result<(), String> {
        for model in [CnnModel::AlexNet, CnnModel::Vgg16] {
            black_box(fpga::performance_series(model).map_err(err)?);
            black_box(fpga::efficiency_series(model).map_err(err)?);
        }
        Ok(())
    })?;
    tr.span("studies.scan", "gpu", root, || -> Result<(), String> {
        black_box(gpu::arch_observations(false).map_err(err)?);
        black_box(gpu::arch_observations(true).map_err(err)?);
        Ok(())
    })?;
    tr.span("studies.scan", "video", root, || -> Result<(), String> {
        black_box(video::performance_series().map_err(err)?);
        black_box(video::efficiency_series().map_err(err)?);
        Ok(())
    })?;
    tr.end(root);
    Ok(())
}

/// One request the serving probes push through the server's layers.
enum ProbeItem {
    Spec(Spec),
    Artifact(&'static str, bool),
}

impl ProbeItem {
    fn request(&self) -> Vec<u8> {
        match self {
            ProbeItem::Spec(spec) => spec.request(),
            ProbeItem::Artifact(id, text) => HotItem::Artifact { id, text: *text }.request(),
        }
    }
}

/// The server's request path, in this process.
struct RequestPath<'a> {
    reference: &'a Reference,
    engine: QueryEngine,
    respcache: ResponseCache,
    answered: BTreeSet<u64>,
    /// Artifact bodies rendered once, as a warm server holds them.
    rendered: BTreeMap<(String, bool), Vec<u8>>,
}

impl<'a> RequestPath<'a> {
    fn new(reference: &'a Reference) -> RequestPath<'a> {
        RequestPath {
            engine: QueryEngine::new(
                Arc::clone(reference.cache()),
                accelwall_query::engine::DEFAULT_CACHE_BYTES,
            ),
            reference,
            respcache: ResponseCache::new(4 * 1024 * 1024),
            answered: BTreeSet::new(),
            rendered: BTreeMap::new(),
        }
    }

    /// Serves one request, spans under one `request` root.
    fn serve(&mut self, item: &ProbeItem, tr: &mut Tracer) -> Result<(), String> {
        let bytes = item.request();
        let root = tr.begin("request", "", None);
        let request = match tr.span("server.http.parse", "", root, || parse_bytes(&bytes)) {
            Ok(ParseOutcome::Complete { request, .. }) => request,
            other => return Err(format!("request did not parse: {other:?}")),
        };
        let (route, response, key) = if request.path == "/query" {
            let spec = tr.span("query.spec", "", root, || {
                spec_from_wire(request.method == "POST", &request.query, &request.body)
            })?;
            let key = tr.span("query.key", "", root, || cache_key(&spec));
            if self.answered.insert(key) {
                tr.span("query.answer_miss", "", root, || self.engine.answer(&spec))
                    .map_err(err)?;
            }
            let body = tr
                .span("query.answer_hit", "", root, || self.engine.answer(&spec))
                .map_err(err)?;
            if let (QueryKind::Point, Some(w)) = (spec.kind, spec.workload) {
                let program = self.reference.cache().ctx().program(w).map_err(err)?;
                let config = DesignConfig::new(
                    spec.node,
                    spec.lanes,
                    spec.simplification,
                    spec.heterogeneity,
                );
                tr.span("accelsim.point", "", root, || {
                    simulate_lowered(&program, &config)
                })
                .map_err(err)?;
            }
            // Response-cache keys mirror `accelwall_server::reactor::cache_key`.
            let key = (request.method == "GET").then(|| format!("query?{}", request.query));
            (
                Route::Query,
                Response::json(200, body.as_ref().clone()),
                key,
            )
        } else {
            let id = request
                .path
                .strip_prefix("/experiments/")
                .unwrap_or_default();
            let text = request.wants_plain_text();
            let body = match self.rendered.entry((id.to_string(), text)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(self.reference.artifact_body(id, text)?),
            };
            let response = if text {
                Response::text(200, body.clone())
            } else {
                Response::json(200, body.clone())
            };
            let variant = if text { 't' } else { 'j' };
            (
                Route::Experiment,
                response,
                Some(format!("exp:{id}:{variant}")),
            )
        };
        tr.span("server.http.head", "", root, || {
            black_box(response.head_bytes(request.keep_alive))
        });
        if let Some(key) = key {
            let hit = tr
                .span("server.respcache.get", "", root, || {
                    self.respcache.get(&key)
                })
                .is_some();
            if !hit {
                tr.span("server.respcache.insert", "", root, || {
                    self.respcache.insert(&key, route, &response);
                });
            }
        }
        tr.end(root);
        Ok(())
    }
}

/// Times `ThreadPool::try_execute` to the start of the job on an idle
/// pool of `workers`, one job at a time, for `duration`. Returns the
/// hand-off times in µs.
fn pool_handoff(workers: usize, duration: Duration) -> Result<Vec<f64>, String> {
    let (tx, rx) = sync_channel::<Duration>(1);
    let pool = ThreadPool::new(workers, 64, move |submitted: Instant| {
        let _ = tx.send(submitted.elapsed());
    });
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < duration {
        pool.try_execute(Instant::now())
            .map_err(|r| format!("an idle pool rejected a job: {:?}", r.reason))?;
        let waited = rx.recv_timeout(Duration::from_secs(5)).map_err(err)?;
        samples.push(waited.as_secs_f64() * 1e6);
    }
    pool.join();
    Ok(samples)
}

/// Live counters of a serving workload over its load phase.
#[derive(Default)]
struct LiveCounters {
    requests: f64,
    polls: f64,
    reuses: f64,
    pool_rejected: f64,
    resp_hits: f64,
    resp_lookups: f64,
    resp_evictions: f64,
    resp_bytes: f64,
    lru_hits: f64,
    lru_lookups: f64,
    lru_evictions: f64,
    lru_bytes: f64,
    computes: f64,
    shed: f64,
    artifact_computes: f64,
    lowerings: f64,
}

impl LiveCounters {
    fn from_snapshots(before: &Snapshot, after: &Snapshot) -> LiveCounters {
        let d = |series: &str| before.delta(after, series);
        LiveCounters {
            requests: load_requests(after) - load_requests(before),
            polls: d("accelwall_reactor_polls_total"),
            reuses: d("accelwall_keepalive_reuses_total"),
            pool_rejected: d("accelwall_connections_rejected_total"),
            resp_hits: d("accelwall_response_cache_hits_total"),
            resp_lookups: d("accelwall_response_cache_hits_total")
                + d("accelwall_response_cache_misses_total"),
            resp_evictions: d("accelwall_response_cache_evictions_total"),
            resp_bytes: after.get("accelwall_response_cache_bytes"),
            lru_hits: d("accelwall_query_cache_hits_total"),
            lru_lookups: d("accelwall_query_cache_hits_total")
                + d("accelwall_query_cache_misses_total"),
            lru_evictions: d("accelwall_query_cache_evictions_total"),
            lru_bytes: after.get("accelwall_query_cache_bytes"),
            computes: d("accelwall_query_computes_total"),
            shed: d("accelwall_query_shed_total"),
            artifact_computes: after.get("accelwall_artifact_cache_computes_total"),
            lowerings: after.get("accelwall_dfg_lowerings_total"),
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced run of any workload.
pub fn traced(env: &Env, live: Live, report: &mut Report) -> Result<(), String> {
    let shares = match live {
        Live::PaperAll => PAPER_ALL_SHARES,
        Live::Explore | Live::Hot => SERVING_SHARES,
    };
    let share = |f: f64| Duration::from_secs_f64(env.seconds.as_secs_f64() * f);
    let expected = Digest::expected()?;

    // Live phase of the serving workloads.
    let mut counters = LiveCounters::default();
    let mut lags_ms = Vec::new();
    let kind = match live {
        Live::PaperAll => None,
        Live::Explore => Some(Kind::Explore),
        Live::Hot => Some(Kind::Hot),
    };
    if let Some(kind) = kind {
        let m = serving::measure(env, kind, 1, share(shares.live))?;
        report.count(m.outcome.attempted, m.outcome.failed + m.check_failures);
        counters = LiveCounters::from_snapshots(&m.before, &m.after);
        lags_ms = m.outcome.lags_ms;
    }

    // Cold runs: the untraced end-to-end latency, and bare process start.
    let cold = spawn_loop(
        &env.accelwall,
        &["all", "--json"],
        share(shares.cold_all),
        Some(expected),
    )?;
    report.count(cold.attempted, cold.failed);
    if kind.is_none() {
        lags_ms = cold.lags_ms.clone();
    }
    let start = spawn_loop(&env.accelwall, &["list"], share(shares.list), None)?;
    report.count(start.attempted, start.failed);
    let cold_p50_ms = quantile(&cold.latencies_ms, 0.5);
    let start_ms = quantile(&start.latencies_ms, 0.5);

    // Replay of `all`, alternately traced and untraced.
    let registry = Registry::paper();
    let ids = registry.ids();
    let order: Vec<&'static str> = registry
        .schedule()
        .map_err(err)?
        .into_iter()
        .flatten()
        .filter_map(|i| ids.get(i).copied())
        .collect();
    let mut traced_tr = Tracer::new(true);
    let mut plain_tr = Tracer::new(false);
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut jobs, mut steals, mut lowerings) = (Vec::new(), Vec::new(), 0.0);
    let mut last_ctx = None;
    let replay_end = Instant::now() + share(shares.replay);
    let mut i = 0;
    while Instant::now() < replay_end || traced_ms.is_empty() || plain_ms.is_empty() {
        let traced = (i / REPLAY_BATCH).is_multiple_of(2);
        let tr = if traced {
            &mut traced_tr
        } else {
            &mut plain_tr
        };
        let t0 = Instant::now();
        let replay = replay_all(&registry, &order, tr)?;
        let took = ms(t0.elapsed());
        report.count(1, u64::from(Digest::of(&replay.doc) != expected));
        if traced {
            traced_ms.push(took);
            jobs.push(replay.par_jobs as f64);
            steals.push(replay.par_steals as f64);
        } else {
            plain_ms.push(took);
        }
        lowerings = replay.ctx.counters().lowerings as f64;
        last_ctx = Some(replay.ctx);
        i += 1;
    }
    let ctx = last_ctx.ok_or("no replay ran")?;
    let (replay_ns, accounted_ns) = per_layer_medians(traced_tr.spans());

    // Compute probes on the last replay's primed context.
    let mut probe_tr = Tracer::new(true);
    let probe_end = Instant::now() + share(shares.compute);
    while Instant::now() < probe_end || probe_tr.spans().is_empty() {
        compute_probes(&ctx, &mut probe_tr)?;
    }
    let (probe_ns, _) = per_layer_medians(probe_tr.spans());

    // Serving probes on the workload's own requests.
    let reference = Reference::new();
    let mut path = RequestPath::new(&reference);
    let mut items: Box<dyn FnMut() -> ProbeItem> = match live {
        Live::Hot => {
            let set = HotSet::new(&reference)?;
            let mut rng = Rng::new(env.seed ^ 0x7E57);
            Box::new(move || {
                let i = set.mix.draw(&mut rng);
                match set.mix.items.get(i) {
                    Some(HotItem::Query { request }) => ProbeItem::Spec(request.clone()),
                    Some(HotItem::Artifact { id, text }) => ProbeItem::Artifact(id, *text),
                    None => ProbeItem::Artifact("fig1", false),
                }
            })
        }
        Live::PaperAll | Live::Explore => {
            let mut gen = ExploreGen::new(env.seed ^ 0x7E57, 0, 1);
            Box::new(move || ProbeItem::Spec(gen.next_spec()))
        }
    };
    // Lower every program first, as the live server's warm-up does.
    for &w in Workload::all() {
        reference.cache().ctx().program(w).map_err(err)?;
    }
    let mut req_traced = Tracer::new(true);
    let mut req_plain = Tracer::new(false);
    let (mut req_traced_us, mut req_plain_us) = (Vec::new(), Vec::new());
    let serving_end = Instant::now() + share(shares.serving);
    let mut n = 0;
    while Instant::now() < serving_end || req_plain_us.is_empty() {
        let item = items();
        let traced = (n / REQUEST_BATCH).is_multiple_of(2);
        let tr = if traced {
            &mut req_traced
        } else {
            &mut req_plain
        };
        let t0 = Instant::now();
        path.serve(&item, tr)?;
        let took = t0.elapsed().as_secs_f64() * 1e6;
        if traced {
            req_traced_us.push(took);
        } else {
            req_plain_us.push(took);
        }
        n += 1;
    }
    let per_request = self_time_per_root(req_traced.spans(), layer_key);
    let request_us = |layer: &str| {
        let v: Vec<f64> = per_request
            .iter()
            .filter_map(|m| m.get(layer).map(|&ns| us(ns)))
            .collect();
        median_or_zero(&v)
    };
    let handoff_us = pool_handoff(env.nproc, share(shares.handoff))?;

    // In-process counters for paper_all, which has no server.
    if kind.is_none() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::new());
        for id in &ids {
            cache.get(id).map_err(err)?;
        }
        counters.artifact_computes = cache.stats().computes as f64;
        counters.lowerings = lowerings;
    }

    // Report.
    let layer_ms = |k: &str| replay_ns.get(k).copied().unwrap_or(0.0) / 1e6;
    let probe_ms = |k: &str| probe_ns.get(k).copied().unwrap_or(0.0) / 1e6;
    let accounted_ms = accounted_ns / 1e6;
    let sweep_points: f64 = Workload::all()
        .iter()
        .map(|&w| ctx.sweep(w).map_or(0, <[_]>::len) as f64)
        .sum();
    let overhead = match live {
        Live::PaperAll => ratio(median(&traced_ms) - median(&plain_ms), median(&plain_ms)),
        Live::Explore | Live::Hot => ratio(
            median(&req_traced_us) - median(&req_plain_us),
            median(&req_plain_us),
        ),
    };
    report.put("proc.start_ms", start_ms, "ms");
    report.put("workloads.build_ms", layer_ms("workloads.build"), "ms");
    report.put("dfg.lower_ms", layer_ms("dfg.lower"), "ms");
    report.put(
        "dfg.program_nodes",
        ctx.counters().program_nodes as f64,
        "count",
    );
    report.put("accelsim.sweep_ms", layer_ms("accelsim.sweep"), "ms");
    report.put("accelsim.sweep_points", sweep_points, "count");
    report.put(
        "accelsim.sweep_ns_per_point",
        layer_ms("accelsim.sweep") * 1e6 / sweep_points.max(1.0),
        "ns",
    );
    report.put(
        "accelsim.attribution_ms",
        probe_ms("accelsim.attribution"),
        "ms",
    );
    report.put("accelsim.pareto_ms", probe_ms("accelsim.pareto"), "ms");
    report.put("chipdb.corpus_ms", layer_ms("chipdb.corpus"), "ms");
    report.put("chipdb.fit_ms", layer_ms("chipdb.fit"), "ms");
    report.put("projection.walls_ms", probe_ms("projection.walls"), "ms");
    report.put(
        "projection.sensitivity_ms",
        probe_ms("projection.sensitivity"),
        "ms",
    );
    report.put("studies.scan_ms", probe_ms("studies.scan"), "ms");
    for id in &ids {
        report.put(
            format!("core.run.{id}_ms"),
            layer_ms(&format!("core.run.{id}")),
            "ms",
        );
    }
    report.put("core.render_ms", layer_ms("core.render"), "ms");
    report.put("par.jobs", median_or_zero(&jobs), "count");
    report.put("par.steals", median_or_zero(&steals), "count");
    report.put("trace.replays", traced_ms.len() as f64, "count");
    report.put("trace.accounted_ms", accounted_ms, "ms");
    report.put(
        "trace.unattributed_ms",
        cold_p50_ms - start_ms - accounted_ms,
        "ms",
    );
    report.put("trace.overhead_pct", overhead * 100.0, "%");
    report.put("query.spec_us", request_us("query.spec"), "us");
    report.put("query.key_us", request_us("query.key"), "us");
    report.put(
        "query.answer_miss_us",
        request_us("query.answer_miss"),
        "us",
    );
    report.put("query.answer_hit_us", request_us("query.answer_hit"), "us");
    report.put("accelsim.point_us", request_us("accelsim.point"), "us");
    report.put(
        "server.http.parse_us",
        request_us("server.http.parse"),
        "us",
    );
    report.put("server.http.head_us", request_us("server.http.head"), "us");
    report.put(
        "server.respcache.get_us",
        request_us("server.respcache.get"),
        "us",
    );
    report.put(
        "server.respcache.insert_us",
        request_us("server.respcache.insert"),
        "us",
    );
    report.put("server.pool.handoff_us", median_or_zero(&handoff_us), "us");
    report.put("server.pool.rejected", counters.pool_rejected, "count");
    report.put("server.requests", counters.requests, "count");
    report.put(
        "server.reactor.polls_per_req",
        ratio(counters.polls, counters.requests),
        "ratio",
    );
    report.put(
        "server.keepalive.reuse_ratio",
        ratio(counters.reuses, counters.requests),
        "ratio",
    );
    report.put("server.respcache.lookups", counters.resp_lookups, "count");
    report.put(
        "server.respcache.hit_ratio",
        ratio(counters.resp_hits, counters.resp_lookups),
        "ratio",
    );
    report.put(
        "server.respcache.evictions",
        counters.resp_evictions,
        "count",
    );
    report.put("server.respcache.bytes", counters.resp_bytes, "bytes");
    report.put("query.lru.lookups", counters.lru_lookups, "count");
    report.put(
        "query.lru.hit_ratio",
        ratio(counters.lru_hits, counters.lru_lookups),
        "ratio",
    );
    report.put("query.lru.evictions", counters.lru_evictions, "count");
    report.put("query.lru.bytes", counters.lru_bytes, "bytes");
    report.put(
        "query.computes_per_req",
        ratio(counters.computes, counters.requests),
        "ratio",
    );
    report.put("query.shed", counters.shed, "count");
    // Which server path each request took: the response cache on the
    // reactor thread, or the pool to the query LRU (hit or miss) or to
    // the artifact cache. The four shares sum to 1 on a live run.
    let lru_misses = counters.lru_lookups - counters.lru_hits;
    let pool_artifacts = counters.requests - counters.resp_hits - counters.lru_lookups;
    for (name, part) in [
        ("server.path.respcache_share", counters.resp_hits),
        ("server.path.query_lru_share", counters.lru_hits),
        ("server.path.query_compute_share", lru_misses),
        ("server.path.artifact_pool_share", pool_artifacts.max(0.0)),
    ] {
        report.put(name, ratio(part, counters.requests), "fraction");
    }
    report.put(
        "core.artifact.computes",
        counters.artifact_computes,
        "count",
    );
    report.put("dfg.lowerings", counters.lowerings, "count");
    report.put("loadgen.lag_p99_ms", quantile(&lags_ms, 0.99), "ms");
    Ok(())
}
