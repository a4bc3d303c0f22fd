//! The three workloads: their inputs, generated from fixed data seeds and
//! the seed argument, and the request primitives every phase times.

use osd_core::{
    k_nn_candidates, k_nn_candidates_warm, nn_candidates, FilterConfig, FlatDatabase, KnncResult,
    NncResult, Operator, PreparedQuery, ProgressiveNnc, ShardConfig, ShardedDatabase, SpatialIndex,
    WarmPool,
};
use osd_datagen::{
    clustered_centers_2d, generate_objects, object_around, objects_from_centers,
    CenterDistribution, SynthParams,
};
use osd_uncertain::{InstanceStore, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Filter configuration of every request: all §5.1 filters, tracing off
/// (the traced run switches it on per request).
pub const CFG: FilterConfig = FilterConfig::all();

/// `k` of every k-NNC request.
pub const K: usize = 4;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// P-SD on a flat A-N index, a small skewed hot set served warm.
    PsdHot,
    /// S-SD on a 100k-object sharded USA index, every query fresh, no warm
    /// cache.
    SsdCold,
    /// Insert/delete/update churn on a published sharded USA index.
    Churn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PsdHot, Workload::SsdCold, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PsdHot => "psd-hot",
            Workload::SsdCold => "ssd-cold",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape; only the seed varies between runs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::PsdHot => Spec {
                op: Operator::PSd,
                shape: Shape::AntiCorrelated { dim: 3 },
                n: 20_000,
                m_d: 12,
                m_q: 9,
                h_d: 400.0,
                h_q: 200.0,
                shards: 1,
                warm: true,
                hot_set: Some(64),
                data_seed: 0x0517,
                // One deck (480 requests) per pass at `--seconds 12`.
                pace: Pace {
                    reads: 160.0,
                    batch: 40.0,
                    publishes: 8.0,
                },
            },
            Workload::SsdCold => Spec {
                op: Operator::SSd,
                shape: Shape::Usa { clusters: 64 },
                n: 100_000,
                m_d: 4,
                m_q: 3,
                h_d: 400.0,
                h_q: 200.0,
                shards: 8,
                warm: false,
                hot_set: None,
                data_seed: 0x05a1,
                pace: Pace {
                    reads: 24.0,
                    batch: 10.0,
                    publishes: 1.5,
                },
            },
            Workload::Churn => Spec {
                op: Operator::SSd,
                shape: Shape::Usa { clusters: 64 },
                n: 20_000,
                m_d: 4,
                m_q: 3,
                h_d: 400.0,
                h_q: 200.0,
                shards: 8,
                warm: true,
                hot_set: None,
                data_seed: 0x05a1,
                pace: Pace {
                    reads: 0.0,
                    batch: 170.0,
                    publishes: 45.0,
                },
            },
        }
    }
}

/// How object centres are placed.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A-N synthetic: anti-correlated centres in `dim` dimensions.
    AntiCorrelated {
        /// Dimensionality.
        dim: usize,
    },
    /// USA surrogate: 2-d centres around Zipf-weighted cluster hubs.
    Usa {
        /// Number of hubs.
        clusters: usize,
    },
}

/// The fixed parameters of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Dominance operator of every query.
    pub op: Operator,
    /// Centre distribution.
    pub shape: Shape,
    /// Objects indexed.
    pub n: usize,
    /// Instances per object.
    pub m_d: usize,
    /// Instances per query.
    pub m_q: usize,
    /// Object edge length.
    pub h_d: f64,
    /// Query edge length.
    pub h_q: f64,
    /// STR tiles; 1 means a flat `Database`.
    pub shards: usize,
    /// Whether reads go through a `WarmPool`.
    pub warm: bool,
    /// `Some(h)`: requests repeat `h` distinct queries with a skew;
    /// `None`: every request is a fresh query.
    pub hot_set: Option<usize>,
    /// Seed of the indexed objects, the queries (hot set, fresh sequence,
    /// standing query) and the write script's mutations. Fixed per
    /// workload, like the paper's real datasets: the seed argument draws
    /// the order of hot requests and of the mutations, so run-to-run spread
    /// measures the program rather than a different dataset (whose query
    /// cost differed up to threefold between seeds).
    pub data_seed: u64,
    /// How much work a run does per second of `--seconds`.
    pub pace: Pace,
}

/// Operations per second of `--seconds`. A run does a fixed amount of
/// work, not whatever fits in a time box: two commits then serve the same
/// requests and publishes, so state that builds up over a run (warm
/// entries, epochs, tombstones) builds up the same way on both. The rates
/// are sized so a run at `--seconds 12`, set-ups and checks included,
/// takes about 40 to 70 seconds on a 2-CPU host.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Closed-loop read requests.
    pub reads: f64,
    /// Queries handed to `run_batch`.
    pub batch: f64,
    /// Scripted mutations, each followed by a refresh (and, on `churn`, a
    /// read).
    pub publishes: f64,
}

impl Spec {
    /// Builds the index over `store`: flat for one shard, STR-sharded
    /// with merged traversal otherwise.
    pub fn build(&self, store: Arc<InstanceStore>) -> Result<Index, String> {
        let index = if self.shards <= 1 {
            Index::Flat(
                FlatDatabase::from_store(
                    store,
                    osd_core::db::DEFAULT_GLOBAL_FANOUT,
                    osd_core::db::DEFAULT_LOCAL_FANOUT,
                )
                .map_err(|e| format!("flat build: {e}"))?,
            )
        } else {
            Index::Sharded(
                ShardedDatabase::from_store(store, ShardConfig::with_shards(self.shards))
                    .map_err(|e| format!("sharded build: {e}"))?,
            )
        };
        Ok(index)
    }
}

/// One of the two index layouts.
#[derive(Clone)]
pub enum Index {
    /// One global R-tree.
    Flat(FlatDatabase),
    /// STR tiles, one global R-tree each.
    Sharded(ShardedDatabase),
}

impl Index {
    /// The index behind the search API.
    pub fn as_dyn(&self) -> &dyn SpatialIndex {
        match self {
            Index::Flat(db) => db,
            Index::Sharded(db) => db,
        }
    }
}

/// Derives an independent sub-seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated objects of one run.
pub struct Data {
    /// The indexed objects, in id order.
    pub objects: Vec<UncertainObject>,
    /// Centre of each object's MBR, where queries and inserts are placed.
    centers: Vec<Vec<f64>>,
    dim: usize,
}

impl Data {
    /// Generates the objects of `spec`.
    pub fn generate(spec: &Spec) -> Data {
        let data_seed = sub_seed(spec.data_seed, 1);
        let (objects, dim) = match spec.shape {
            Shape::AntiCorrelated { dim } => (
                generate_objects(&SynthParams {
                    n: spec.n,
                    dim,
                    instances: spec.m_d,
                    edge: spec.h_d,
                    centers: CenterDistribution::AntiCorrelated,
                    seed: data_seed,
                }),
                dim,
            ),
            Shape::Usa { clusters } => (
                objects_from_centers(
                    &clustered_centers_2d(spec.n, clusters, data_seed),
                    spec.m_d,
                    spec.h_d,
                    sub_seed(spec.data_seed, 2),
                ),
                2,
            ),
        };
        let centers: Vec<Vec<f64>> = objects
            .iter()
            .map(|o| o.mbr().center().coords().to_vec())
            .collect();
        Data {
            objects,
            centers,
            dim,
        }
    }

    /// The columnar store of the objects.
    pub fn store(&self) -> Result<Arc<InstanceStore>, String> {
        InstanceStore::from_objects(&self.objects)
            .map(Arc::new)
            .map_err(|e| format!("store build: {e}"))
    }

    /// A new object placed around a random existing one (as §6 places
    /// queries), with `m` instances and edge `h`.
    pub fn object_near(&self, rng: &mut StdRng, m: usize, h: f64) -> UncertainObject {
        let base = &self.centers[rng.gen_range(0..self.centers.len())];
        object_around(rng, base, self.dim, m, h)
    }
}

/// What a request asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// NN candidates.
    Nnc,
    /// k-robust NN candidates.
    Knnc,
}

/// One request of a stream.
pub struct Request {
    /// Hot-set slot of a repeated query; `None` for a fresh query.
    pub hot: Option<usize>,
    /// NNC or k-NNC.
    pub kind: Kind,
    /// The query object (a request prepares it itself).
    pub object: UncertainObject,
}

/// Unbounded request stream.
///
/// A hot stream deals from a deck that holds each hot query in proportion
/// to a Zipf weight, three NNC cards to one k-NNC card, reshuffled with
/// the seed whenever it runs out: every run serves the same mix in its own
/// order. A fresh stream builds a new query for every other request,
/// around a random object (so dense and sparse regions come in their
/// proportions), and asks it first as NNC and then as k-NNC.
pub struct Stream<'a> {
    data: &'a Data,
    spec: Spec,
    /// Deals the hot deck; seeded by the run's seed.
    rng: StdRng,
    /// Builds fresh queries; seeded by the workload's data seed.
    fresh: StdRng,
    hot: Vec<UncertainObject>,
    /// `(hot slot, kind)` cards; empty for a fresh stream.
    deck: Vec<(usize, Kind)>,
    /// Next card to deal; `deck.len()` means reshuffle first.
    dealt: usize,
    /// The fresh query asked as NNC, to be asked as k-NNC next.
    pending: Option<UncertainObject>,
}

/// Zipf exponent of the hot-set skew.
const HOT_SKEW: f64 = 0.8;
/// Deck units of the most popular hot query; every query has at least one
/// unit of three NNC cards and one k-NNC card.
const HOT_TOP_UNITS: f64 = 16.0;

impl<'a> Stream<'a> {
    /// The request stream of `spec` over `data` for `seed`.
    pub fn new(data: &'a Data, spec: &Spec, seed: u64) -> Stream<'a> {
        // The hot set is part of the workload's fixed data, like the
        // indexed objects: which queries are hot decides the cost, so it
        // must not change with the seed. The seed draws the request
        // sequence over it.
        let mut hot_rng = StdRng::seed_from_u64(sub_seed(spec.data_seed, 3));
        let hot: Vec<UncertainObject> = (0..spec.hot_set.unwrap_or(0))
            .map(|_| data.object_near(&mut hot_rng, spec.m_q, spec.h_q))
            .collect();
        let deck: Vec<(usize, Kind)> = (0..hot.len())
            .flat_map(|slot| {
                let units = (HOT_TOP_UNITS / ((slot + 1) as f64).powf(HOT_SKEW)).round();
                let unit = [Kind::Nnc, Kind::Nnc, Kind::Nnc, Kind::Knnc].map(|k| (slot, k));
                std::iter::repeat_n(unit, units.max(1.0) as usize).flatten()
            })
            .collect();
        // Fresh queries are fixed too: their cost varies far more between
        // queries than between runs, so a per-seed draw of a few hundred
        // of them moved the medians by up to a fifth. They stay distinct
        // within a run, so no cache ever serves one twice.
        Stream {
            data,
            spec: spec.clone(),
            rng: StdRng::seed_from_u64(sub_seed(seed, 3)),
            fresh: StdRng::seed_from_u64(sub_seed(spec.data_seed, 5)),
            hot,
            dealt: deck.len(),
            deck,
            pending: None,
        }
    }

    /// The distinct hot query objects (empty for fresh streams).
    pub fn hot_set(&self) -> &[UncertainObject] {
        &self.hot
    }

    /// `requests` rounded up to whole decks, so a hot stream serves exactly
    /// its Zipf mix (a partial deck's mix depends on the shuffle, which
    /// moved the median by a fifth between seeds). Fresh streams take
    /// `requests` as is.
    pub fn whole_decks(&self, requests: usize) -> usize {
        match self.deck.len() {
            0 => requests,
            deck => requests.div_ceil(deck) * deck,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if !self.deck.is_empty() {
            if self.dealt == self.deck.len() {
                // Fisher-Yates with the run's seed.
                for i in (1..self.deck.len()).rev() {
                    self.deck.swap(i, self.rng.gen_range(0..=i));
                }
                self.dealt = 0;
            }
            let (slot, kind) = self.deck[self.dealt];
            self.dealt += 1;
            return Request {
                hot: Some(slot),
                kind,
                object: self.hot[slot].clone(),
            };
        }
        if let Some(object) = self.pending.take() {
            return Request {
                hot: None,
                kind: Kind::Knnc,
                object,
            };
        }
        let object = self
            .data
            .object_near(&mut self.fresh, self.spec.m_q, self.spec.h_q);
        self.pending = Some(object.clone());
        Request {
            hot: None,
            kind: Kind::Nnc,
            object,
        }
    }
}

/// An answer as the checks compare it: candidate ids with the bit
/// patterns of their `min_dist`.
pub type Answer = Vec<(usize, u64)>;

/// The answer of an NNC result.
pub fn nnc_answer(r: &NncResult) -> Answer {
    r.candidates
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect()
}

/// The answer of a k-NNC result.
pub fn knnc_answer(r: &KnncResult) -> Answer {
    r.candidates
        .iter()
        .map(|(c, _)| (c.id, c.min_dist.to_bits()))
        .collect()
}

/// The reference answer of `kind` for `query`, computed cold (no warm
/// pool) on `db`.
pub fn reference(db: &dyn SpatialIndex, query: &PreparedQuery, kind: Kind, spec: &Spec) -> Answer {
    match kind {
        Kind::Nnc => nnc_answer(&nn_candidates(db, query, spec.op, &CFG)),
        Kind::Knnc => knnc_answer(&k_nn_candidates(db, query, spec.op, K, &CFG)),
    }
}

/// Timings of one request, all from the request's start.
pub struct Timed {
    /// `PreparedQuery::new` alone.
    pub prepare: Duration,
    /// Until the first candidate was emitted (NNC only).
    pub first: Option<Duration>,
    /// The whole request.
    pub total: Duration,
}

/// Outcome of one request: the prepared query, its answer, and, for NNC,
/// the full result with counters and trace.
pub struct Served {
    /// The query as prepared by the request.
    pub query: PreparedQuery,
    /// Candidate ids and `min_dist` bits.
    pub answer: Answer,
    /// The NNC result (`None` for k-NNC).
    pub nnc: Option<NncResult>,
    /// Request timings.
    pub timed: Timed,
}

/// Serves one request in the closed loop: `PreparedQuery::new` plus the
/// query call. NNC is driven through `ProgressiveNnc`, so the time to the
/// first candidate is visible; draining it is exactly `nn_candidates`
/// (or `nn_candidates_warm` with a pool).
pub fn serve(
    db: &dyn SpatialIndex,
    object: UncertainObject,
    kind: Kind,
    spec: &Spec,
    cfg: &FilterConfig,
    pool: Option<&WarmPool>,
) -> Served {
    let start = Instant::now();
    let query = PreparedQuery::new(object);
    let prepare = start.elapsed();
    match kind {
        Kind::Nnc => {
            let warm = pool.map(|p| p.view_for(db, &query));
            let mut progressive = ProgressiveNnc::with_warm(db, &query, spec.op, cfg, warm);
            let first = progressive.next_candidate().map(|_| start.elapsed());
            while progressive.next_candidate().is_some() {}
            let result = black_box(progressive.into_result());
            let total = start.elapsed();
            Served {
                answer: nnc_answer(&result),
                query,
                nnc: Some(result),
                timed: Timed {
                    prepare,
                    first,
                    total,
                },
            }
        }
        Kind::Knnc => {
            let result = black_box(match pool {
                Some(p) => k_nn_candidates_warm(db, &query, spec.op, K, cfg, p),
                None => k_nn_candidates(db, &query, spec.op, K, cfg),
            });
            let total = start.elapsed();
            Served {
                answer: knnc_answer(&result),
                query,
                nnc: None,
                timed: Timed {
                    prepare,
                    first: None,
                    total,
                },
            }
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
