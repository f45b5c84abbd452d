//! The serving workloads, `query_explore` and `serve_hot`, against a
//! live `accelwall serve` child.
//!
//! Every reply's status and framing is checked. Bodies are compared
//! byte for byte with what the same layers answer in this process: on
//! `serve_hot` every body, on `query_explore` a seeded sample of one in
//! [`SAMPLE_ONE_IN`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::cache::Ctx;
use accelerator_wall::json::Value;
use accelerator_wall::registry::Registry;
use accelwall_query::spec::{pairs_from_json, pairs_from_query};
use accelwall_query::{QueryEngine, QuerySpec};

use crate::client::{Conn, Reply};
use crate::gen::{explore_warmup, ExploreGen, HotItem, HotMix, Rng, Spec};
use crate::loadgen::{self, Outcome, Traffic};
use crate::quiet::{self, CpuOf, Phase, Sample, Timeline};
use crate::sampler::{self, Snapshot};
use crate::server::ServerProc;
use crate::stats::{median, WINDOW};
use crate::{Env, Report};

/// Server starts per untraced run; `setup_s` is their median and the
/// last server is the one measured.
const SETUP_RUNS: usize = 9;

/// `query_explore` checks one reply body in this many against the
/// in-process engine.
pub const SAMPLE_ONE_IN: u64 = 32;

/// `serve_hot`'s offered load, in requests per second over all
/// connections.
pub const HOT_RATE_PER_S: u32 = 2000;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `query_explore`: distinct what-if specs in a closed loop.
    Explore,
    /// `serve_hot`: cached artifacts and hot specs in a paced open loop.
    Hot,
}

/// The layers the server runs, in this process, answering the same
/// requests: the byte-for-byte reference for reply bodies.
pub struct Reference {
    cache: Arc<ArtifactCache>,
    engine: QueryEngine,
}

impl Reference {
    /// A fresh artifact cache and an engine that caches nothing.
    pub fn new() -> Reference {
        let cache = Arc::new(ArtifactCache::new(Registry::paper(), Ctx::new()));
        let engine = QueryEngine::new(Arc::clone(&cache), 0);
        Reference { cache, engine }
    }

    /// The artifact cache behind the reference.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The body `GET /experiments/{id}` answers.
    pub fn artifact_body(&self, id: &str, text: bool) -> Result<Vec<u8>, String> {
        let artifact = self.cache.get(id).map_err(|e| e.to_string())?;
        Ok(if text {
            artifact.text.clone().into_bytes()
        } else {
            format!("{}\n", artifact.json.pretty()).into_bytes()
        })
    }

    /// The body `/query` answers for `spec`.
    pub fn spec_body(&self, spec: &Spec) -> Result<Vec<u8>, String> {
        let parsed = spec_from_wire(spec.post, &spec.query_string(), spec.json_body().as_bytes())?;
        let body = self.engine.answer(&parsed).map_err(|e| e.to_string())?;
        Ok(body.as_ref().clone())
    }
}

/// A `/query` request's spec, read by the same front end the server uses:
/// the JSON `body` of a `POST`, the `query` string of a `GET`.
pub fn spec_from_wire(post: bool, query: &str, body: &[u8]) -> Result<QuerySpec, String> {
    let pairs = if post {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        pairs_from_json(&Value::parse(text).map_err(|e| e.to_string())?)
    } else {
        pairs_from_query(query)
    };
    pairs
        .and_then(|p| QuerySpec::from_pairs(&p))
        .map_err(|e| e.to_string())
}

fn json_ok(reply: &Reply) -> bool {
    reply.status == 200
        && reply.content_type.starts_with("application/json")
        && reply.body.ends_with(b"\n")
}

/// One connection's share of the `query_explore` stream.
struct ExploreTraffic {
    gen: ExploreGen,
    pick: Rng,
    last: Option<Spec>,
    samples: Vec<(Spec, Vec<u8>)>,
}

impl Traffic for ExploreTraffic {
    fn next(&mut self) -> (Vec<u8>, usize) {
        let spec = self.gen.next_spec();
        let request = spec.request();
        self.last = Some(spec);
        (request, 0)
    }

    fn check(&mut self, _tag: usize, reply: &Reply) -> bool {
        let ok = json_ok(reply);
        if ok && self.pick.below(SAMPLE_ONE_IN) == 0 {
            if let Some(spec) = self.last.take() {
                self.samples.push((spec, reply.body.clone()));
            }
        }
        ok
    }
}

/// Every distinct `serve_hot` request with its expected reply.
pub struct HotSet {
    /// The popularity model.
    pub mix: HotMix,
    /// Request bytes, indexed like `mix.items`.
    pub requests: Vec<Vec<u8>>,
    /// Expected body and whether it is JSON, indexed like `mix.items`.
    pub expected: Vec<(Vec<u8>, bool)>,
}

impl HotSet {
    /// Builds the set, computing every expected body in `reference`.
    pub fn new(reference: &Reference) -> Result<HotSet, String> {
        let ids = reference.cache().registry().ids();
        let mix = HotMix::new(&ids);
        let requests = mix.items.iter().map(HotItem::request).collect();
        let expected = mix
            .items
            .iter()
            .map(|item| match item {
                HotItem::Artifact { id, text } => Ok((reference.artifact_body(id, *text)?, !*text)),
                HotItem::Query { request } => Ok((reference.spec_body(request)?, true)),
            })
            .collect::<Result<_, String>>()?;
        Ok(HotSet {
            mix,
            requests,
            expected,
        })
    }

    fn check(&self, i: usize, reply: &Reply) -> bool {
        let Some((body, json)) = self.expected.get(i) else {
            return false;
        };
        let kind = if *json {
            "application/json"
        } else {
            "text/plain"
        };
        reply.status == 200 && reply.content_type.starts_with(kind) && &reply.body == body
    }
}

/// One connection's share of the `serve_hot` mix.
struct HotTraffic<'a> {
    set: &'a HotSet,
    rng: Rng,
}

impl Traffic for HotTraffic<'_> {
    fn next(&mut self) -> (Vec<u8>, usize) {
        let i = self.set.mix.draw(&mut self.rng);
        (self.set.requests.get(i).cloned().unwrap_or_default(), i)
    }

    fn check(&mut self, tag: usize, reply: &Reply) -> bool {
        self.set.check(tag, reply)
    }
}

/// The untimed warm-up pass: every `serve_hot` request once when `hot`
/// is given, else the `query_explore` warm-up specs. Returns how many
/// warm-up replies failed their check.
fn warm(server: &ServerProc, hot: Option<&HotSet>) -> Result<u64, String> {
    let mut conn = Conn::connect(server.addr)?;
    let mut failed = 0;
    match hot {
        Some(set) => {
            for (i, request) in set.requests.iter().enumerate() {
                failed += u64::from(!set.check(i, &conn.call(request)?));
            }
        }
        None => {
            for spec in explore_warmup() {
                failed += u64::from(!json_ok(&conn.call(&spec.request())?));
            }
        }
    }
    Ok(failed)
}

/// What one live phase measured.
pub struct Measured {
    /// Set-up time of every server start, in seconds.
    pub setup_s: Vec<f64>,
    /// The load phase.
    pub outcome: Outcome,
    /// `/metrics` before and after the load phase.
    pub before: Snapshot,
    /// See `before`.
    pub after: Snapshot,
    /// Server CPU seconds during the load phase.
    pub cpu_s: f64,
    /// The machine's CPU ticks and the server's CPU time through the
    /// load phase.
    pub timeline: Vec<Sample>,
    /// Server `VmHWM` at the end of the load phase, in KiB.
    pub hwm_kib: u64,
    /// Warm-up replies and sampled bodies that failed their check.
    pub check_failures: u64,
}

/// Starts the server `setups` times (set-up = launch, ready, warm-up),
/// keeps the last one, and drives the workload's load at it for
/// `duration`.
pub fn measure(
    env: &Env,
    kind: Kind,
    setups: usize,
    duration: Duration,
) -> Result<Measured, String> {
    let reference = Reference::new();
    let hot = match kind {
        Kind::Hot => Some(HotSet::new(&reference)?),
        Kind::Explore => None,
    };
    let workers = env.nproc;
    let mut setup_s = Vec::with_capacity(setups);
    let mut check_failures = 0;
    let mut server = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        let start = Instant::now();
        let s = ServerProc::spawn(&env.accelwall, workers, workers)?;
        s.wait_ready(Duration::from_secs(30))?;
        check_failures += warm(&s, hot.as_ref())?;
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no server was started")?;
    let conns = env.nproc.clamp(1, 2);
    let before = server.metrics()?;
    let cpu_before = sampler::process_cpu_s(server.pid())?;
    let timeline = Timeline::start(Instant::now(), CpuOf::Process(server.pid()));
    let (outcome, samples) = match &hot {
        Some(set) => {
            let traffic = (0..conns)
                .map(|c| HotTraffic {
                    set,
                    rng: Rng::new(env.seed ^ (0x407 + c as u64).wrapping_mul(0x9E37_79B9)),
                })
                .collect();
            let every = Duration::from_secs(conns as u64) / HOT_RATE_PER_S;
            let (outcome, _) = loadgen::run(server.addr, traffic, duration, Some(every));
            (outcome, Vec::new())
        }
        None => {
            let traffic = (0..conns)
                .map(|c| ExploreTraffic {
                    gen: ExploreGen::new(env.seed, c as u64, conns as u64),
                    pick: Rng::new(env.seed ^ (0x5A3 + c as u64).wrapping_mul(0x9E37_79B9)),
                    last: None,
                    samples: Vec::new(),
                })
                .collect();
            let (outcome, traffic) = loadgen::run(server.addr, traffic, duration, None);
            (
                outcome,
                traffic
                    .into_iter()
                    .flat_map(|t| t.samples)
                    .collect::<Vec<_>>(),
            )
        }
    };
    let timeline = timeline.finish()?;
    let cpu_s = sampler::process_cpu_s(server.pid())? - cpu_before;
    let hwm_kib = sampler::vm_hwm_kib(server.pid())?;
    let after = server.metrics()?;
    server.shutdown()?;
    for (spec, body) in &samples {
        if reference.spec_body(spec)? != *body {
            check_failures += 1;
            eprintln!("perfbench: reply body differs from the in-process engine for {spec:?}");
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: {e}");
    }
    Ok(Measured {
        setup_s,
        outcome,
        before,
        after,
        cpu_s,
        timeline,
        hwm_kib,
        check_failures,
    })
}

/// The untraced run of a serving workload.
pub fn run(env: &Env, kind: Kind, report: &mut Report) -> Result<(), String> {
    let m = measure(env, kind, SETUP_RUNS, env.seconds)?;
    let o = &m.outcome;
    report.count(o.attempted, o.failed + m.check_failures);
    report.put("setup_s", median(&m.setup_s), "s");
    let phase = Phase {
        at_s: &o.at_s,
        latencies_ms: &o.latencies_ms,
        elapsed_s: o.elapsed_s,
        cpu_s: m.cpu_s,
        window: WINDOW,
    };
    quiet::put_timings(report, &phase, &m.timeline);
    report.put("peak_rss_mb", m.hwm_kib as f64 / 1024.0, "MiB");
    Ok(())
}
