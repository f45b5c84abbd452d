//! Seeded input generators: the what-if spec stream of `query_explore`
//! and the Zipf-skewed request mix of `serve_hot`.
//!
//! Everything here is a pure function of the seed, so one seed always
//! yields the same requests.

use accelerator_wall::cmos::TechNode;
use accelerator_wall::workloads::Workload;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf-distributed ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n.max(1)).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A query field value, spelled as it goes on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A string (quoted in JSON).
    Str(String),
    /// A number, as literal text.
    Num(String),
    /// A boolean.
    Bool(bool),
}

impl Val {
    fn text(&self) -> String {
        match self {
            Val::Str(s) | Val::Num(s) => s.clone(),
            Val::Bool(b) => b.to_string(),
        }
    }
}

/// One what-if spec and how it is sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The fields, in the order they are written.
    pub fields: Vec<(&'static str, Val)>,
    /// `POST /query` with a JSON body when true, `GET /query?...` otherwise.
    pub post: bool,
}

impl Spec {
    /// The URL query string (`a=1&b=2`). Values are written verbatim:
    /// the generators only produce unreserved characters.
    pub fn query_string(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.text()))
            .collect::<Vec<_>>()
            .join("&")
    }

    /// The JSON object body.
    pub fn json_body(&self) -> String {
        let members: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| match v {
                Val::Str(s) => format!("\"{k}\":\"{s}\""),
                Val::Num(n) => format!("\"{k}\":{n}"),
                Val::Bool(b) => format!("\"{k}\":{b}"),
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// The HTTP/1.1 request bytes.
    pub fn request(&self) -> Vec<u8> {
        if self.post {
            let body = self.json_body();
            format!(
                "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        } else {
            format!(
                "GET /query?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
                self.query_string()
            )
            .into_bytes()
        }
    }
}

/// Lane counts a point spec may ask for: every power of two up to the
/// simulator's partition cap.
const LANE_EXPONENTS: u64 = 20;
/// Simplification degrees `1..=13`.
const SIMPLIFICATIONS: u64 = 13;

/// Number of distinct point specs: workloads × nodes × lane counts ×
/// simplification degrees × heterogeneity settings.
pub fn point_space() -> u64 {
    Workload::all().len() as u64
        * TechNode::all().len() as u64
        * LANE_EXPONENTS
        * SIMPLIFICATIONS
        * 2
}

/// The point spec with mixed-radix index `index` (`< point_space()`).
pub fn point_fields(index: u64) -> Vec<(&'static str, Val)> {
    let workloads = Workload::all();
    let nodes = TechNode::all();
    let mut i = index;
    let mut digit = |radix: u64| {
        let d = i % radix;
        i /= radix;
        d
    };
    let w = workloads[digit(workloads.len() as u64) as usize];
    let node = nodes[digit(nodes.len() as u64) as usize];
    let lanes = 1u64 << digit(LANE_EXPONENTS);
    let simplification = 1 + digit(SIMPLIFICATIONS);
    let heterogeneity = digit(2) == 1;
    vec![
        ("workload", Val::Str(w.abbrev().to_ascii_lowercase())),
        ("node", Val::Str(node.to_string())),
        ("lanes", Val::Num(lanes.to_string())),
        ("simplification", Val::Num(simplification.to_string())),
        ("heterogeneity", Val::Bool(heterogeneity)),
    ]
}

const DOMAINS: [&str; 4] = ["video", "gpu", "fpga", "bitcoin"];
const METRICS: [&str; 2] = ["performance", "efficiency"];

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The `query_explore` stream: distinct what-if specs, 80% `point`,
/// 12% `projection` and 8% `csr`, a quarter of them sent as `POST`.
///
/// Point specs walk a seeded permutation of the whole point space;
/// stream `s` of `n` takes every `n`-th element, so concurrent streams
/// never repeat each other's specs. Projection horizons and csr gains
/// come from per-stream counters, so they do not repeat either.
#[derive(Debug, Clone)]
pub struct ExploreGen {
    rng: Rng,
    space: u64,
    mul: u64,
    add: u64,
    next: u64,
    stride: u64,
    counter: u64,
}

impl ExploreGen {
    /// Stream `stream` of `streams` for `seed`.
    pub fn new(seed: u64, stream: u64, streams: u64) -> ExploreGen {
        let space = point_space();
        let mut perm = Rng::new(seed ^ 0x5EED_0FE4_9107);
        let mut mul = perm.below(space) | 1;
        while gcd(mul, space) != 1 {
            mul = perm.below(space) | 1;
        }
        let add = perm.below(space);
        ExploreGen {
            rng: Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ stream),
            space,
            mul,
            add,
            next: stream,
            stride: streams.max(1),
            counter: stream,
        }
    }

    /// The next spec of the stream.
    pub fn next_spec(&mut self) -> Spec {
        let roll = self.rng.below(100);
        let post = self.rng.below(4) == 0;
        let fields = if roll < 80 {
            let k = self.next % self.space;
            self.next += self.stride;
            let index = ((u128::from(self.mul) * u128::from(k) + u128::from(self.add))
                % u128::from(self.space)) as u64;
            point_fields(index)
        } else {
            let c = self.counter;
            self.counter += self.stride;
            if roll < 92 {
                let q = (c * 7919) % 90_000;
                vec![
                    ("kind", Val::Str("projection".into())),
                    (
                        "domain",
                        Val::Str(DOMAINS[self.rng.below(4) as usize].into()),
                    ),
                    (
                        "metric",
                        Val::Str(METRICS[self.rng.below(2) as usize].into()),
                    ),
                    (
                        "horizon",
                        Val::Num(format!("{}.{:04}", 1 + q / 10_000, q % 10_000)),
                    ),
                ]
            } else {
                let r = (c * 104_729) % 100_000;
                let p = (c * 7) % 5_000;
                let mut fields = vec![
                    ("kind", Val::Str("csr".into())),
                    (
                        "reported",
                        Val::Num(format!("{}.{:02}", 1 + r / 100, r % 100)),
                    ),
                    (
                        "physical",
                        Val::Num(format!("{}.{:02}", 1 + p / 100, p % 100)),
                    ),
                ];
                if self.rng.below(3) == 0 {
                    fields.push((
                        "physical_base",
                        Val::Num(format!("{}.5", 1 + self.rng.below(20))),
                    ));
                }
                fields
            }
        };
        Spec { fields, post }
    }
}

/// The untimed warm-up of `query_explore`: one point spec per workload
/// (so every program is lowered before timing starts), one projection
/// per domain and one csr spec. The timed stream can reach these 16
/// points too, so at most a handful of timed requests hit the caches.
pub fn explore_warmup() -> Vec<Spec> {
    let mut specs: Vec<Spec> = Workload::all()
        .iter()
        .map(|w| Spec {
            fields: vec![
                ("workload", Val::Str(w.abbrev().to_ascii_lowercase())),
                ("node", Val::Str("45nm".into())),
            ],
            post: false,
        })
        .collect();
    specs.extend(DOMAINS.iter().map(|d| Spec {
        fields: vec![
            ("kind", Val::Str("projection".into())),
            ("domain", Val::Str((*d).into())),
        ],
        post: true,
    }));
    specs.push(Spec {
        fields: vec![
            ("kind", Val::Str("csr".into())),
            ("reported", Val::Num("10".into())),
            ("physical", Val::Num("2".into())),
        ],
        post: false,
    });
    specs
}

/// One request shape of the `serve_hot` mix.
#[derive(Debug, Clone, PartialEq)]
pub enum HotItem {
    /// `GET /experiments/{id}`, as JSON or (`text`) `text/plain`.
    Artifact {
        /// Experiment id.
        id: &'static str,
        /// Ask for the text rendering.
        text: bool,
    },
    /// One spelling of a hot spec.
    Query {
        /// The spelling.
        request: Spec,
    },
}

impl HotItem {
    /// The HTTP/1.1 request bytes.
    pub fn request(&self) -> Vec<u8> {
        match self {
            HotItem::Artifact { id, text } => {
                let accept = if *text { "Accept: text/plain\r\n" } else { "" };
                format!("GET /experiments/{id} HTTP/1.1\r\nHost: bench\r\n{accept}\r\n")
                    .into_bytes()
            }
            HotItem::Query { request } => request.request(),
        }
    }
}

fn s(v: &str) -> Val {
    Val::Str(v.to_string())
}

fn n(v: &str) -> Val {
    Val::Num(v.to_string())
}

/// The hot specs of `serve_hot`, each in four spellings: two `GET`s and
/// two `POST`s, differing in field order and explicit defaults. All
/// spellings of one spec have the same canonical key, hence one answer.
pub fn hot_specs() -> Vec<[Spec; 4]> {
    let spell = |a: Vec<(&'static str, Val)>, b: Vec<(&'static str, Val)>| {
        [
            Spec {
                fields: a.clone(),
                post: false,
            },
            Spec {
                fields: b.clone(),
                post: false,
            },
            Spec {
                fields: a,
                post: true,
            },
            Spec {
                fields: b,
                post: true,
            },
        ]
    };
    vec![
        spell(
            vec![
                ("workload", s("fft")),
                ("node", s("7nm")),
                ("lanes", n("4")),
            ],
            vec![
                ("kind", s("point")),
                ("lanes", n("4")),
                ("node", s("7")),
                ("workload", s("FFT")),
                ("simplification", n("1")),
                ("heterogeneity", Val::Bool(false)),
            ],
        ),
        spell(
            vec![
                ("workload", s("s3d")),
                ("node", s("16nm")),
                ("lanes", n("64")),
                ("simplification", n("3")),
                ("heterogeneity", Val::Bool(true)),
            ],
            vec![
                ("heterogeneity", Val::Bool(true)),
                ("simplification", n("3")),
                ("lanes", n("64")),
                ("node", s("16nm")),
                ("workload", s("S3D")),
                ("kind", s("point")),
            ],
        ),
        spell(
            vec![
                ("kind", s("projection")),
                ("domain", s("gpu")),
                ("horizon", n("2")),
            ],
            vec![
                ("horizon", n("2.0")),
                ("metric", s("performance")),
                ("domain", s("gpu-graphics")),
                ("kind", s("projection")),
            ],
        ),
        spell(
            vec![
                ("kind", s("csr")),
                ("reported", n("120")),
                ("physical", n("8")),
            ],
            vec![
                ("physical", n("8.0")),
                ("reported", n("120.00")),
                ("kind", s("csr")),
            ],
        ),
    ]
}

/// The `serve_hot` request mix over a fixed popularity ranking.
///
/// Three requests in four are artifacts: an experiment id drawn by Zipf
/// (exponent 1) over `ids` in the order given, as JSON, or as text one
/// time in four. The fourth is a hot spec drawn by Zipf over
/// [`hot_specs`], in one of its four spellings chosen uniformly, so half
/// of the spec requests are `POST`s. The seed drives only the draws.
#[derive(Debug, Clone)]
pub struct HotMix {
    /// Every distinct request shape; draws index into it.
    pub items: Vec<HotItem>,
    artifacts: Zipf,
    specs: Zipf,
    n_ids: usize,
}

impl HotMix {
    /// The mix over experiment `ids` (in popularity order).
    pub fn new(ids: &[&'static str]) -> HotMix {
        let mut items: Vec<HotItem> = ids
            .iter()
            .flat_map(|&id| {
                [
                    HotItem::Artifact { id, text: false },
                    HotItem::Artifact { id, text: true },
                ]
            })
            .collect();
        let specs = hot_specs();
        for spellings in &specs {
            for request in spellings {
                items.push(HotItem::Query {
                    request: request.clone(),
                });
            }
        }
        HotMix {
            items,
            artifacts: Zipf::new(ids.len(), 1.0),
            specs: Zipf::new(specs.len(), 1.0),
            n_ids: ids.len(),
        }
    }

    /// Draws the index of the next request in [`HotMix::items`].
    pub fn draw(&self, rng: &mut Rng) -> usize {
        if rng.below(4) < 3 {
            2 * self.artifacts.sample(rng) + usize::from(rng.below(4) == 0)
        } else {
            2 * self.n_ids + 4 * self.specs.sample(rng) + rng.below(4) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(9), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(9), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(10), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn zipf_repeats_for_a_seed_and_favours_low_ranks() {
        let z = Zipf::new(10, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let mut counts = [0usize; 10];
        for &k in &a {
            counts[k] += 1;
        }
        // Rank 0 has weight 1 / H(10) ≈ 0.341; rank 9 ≈ 0.034.
        assert!((6_300..7_300).contains(&counts[0]), "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[9]);
    }

    #[test]
    fn explore_stream_repeats_for_a_seed() {
        let take = |seed, stream| {
            let mut g = ExploreGen::new(seed, stream, 2);
            (0..500).map(|_| g.next_spec()).collect::<Vec<_>>()
        };
        let a = take(7, 0);
        assert_eq!(a, take(7, 0));
        assert_ne!(a, take(8, 0));
        assert_ne!(a, take(7, 1));
        let posts = a.iter().filter(|s| s.post).count();
        assert!((90..160).contains(&posts), "{posts}");
    }

    #[test]
    fn explore_streams_never_repeat_a_spec() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..2 {
            let mut g = ExploreGen::new(11, stream, 2);
            for _ in 0..5_000 {
                let spec = g.next_spec();
                assert!(seen.insert(spec.query_string()), "{spec:?}");
            }
        }
    }

    #[test]
    fn point_space_covers_every_knob() {
        assert_eq!(point_space(), 16 * 18 * 20 * 13 * 2);
        let first = point_fields(0);
        assert_eq!(first[0], ("workload", Val::Str("aes".into())));
        assert_eq!(first[2], ("lanes", Val::Num("1".into())));
        let last = point_fields(point_space() - 1);
        assert_eq!(last[2], ("lanes", Val::Num("524288".into())));
        assert_eq!(last[3], ("simplification", Val::Num("13".into())));
        assert_eq!(last[4], ("heterogeneity", Val::Bool(true)));
    }

    #[test]
    fn hot_mix_repeats_and_keeps_its_shares() {
        let ids = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mix = HotMix::new(&ids);
        assert_eq!(mix.items.len(), 2 * ids.len() + 16);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..40_000).map(|_| mix.draw(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        let posts = a
            .iter()
            .filter(|&&i| matches!(&mix.items[i], HotItem::Query { request } if request.post))
            .count();
        // One request in eight is a POST.
        assert!((4_500..5_500).contains(&posts), "{posts}");
    }

    #[test]
    fn requests_are_well_formed() {
        let spec = Spec {
            fields: vec![
                ("kind", s("csr")),
                ("reported", n("2.5")),
                ("x", Val::Bool(true)),
            ],
            post: true,
        };
        assert_eq!(
            spec.json_body(),
            r#"{"kind":"csr","reported":2.5,"x":true}"#
        );
        let req = String::from_utf8(spec.request()).unwrap();
        assert!(req.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(req.ends_with("\r\n\r\n{\"kind\":\"csr\",\"reported\":2.5,\"x\":true}"));
        let get = Spec {
            post: false,
            ..spec
        };
        assert_eq!(
            String::from_utf8(get.request()).unwrap(),
            "GET /query?kind=csr&reported=2.5&x=true HTTP/1.1\r\nHost: bench\r\n\r\n"
        );
    }
}
