//! The timed phases shared by the end-to-end and the traced runs: the
//! closed read loop, the batch loop and the write (churn) loop.

use crate::calib::{self, Probe};
use crate::report::Tally;
use crate::workload::{
    ms, nnc_answer, reference, serve, sub_seed, Answer, Data, Kind, Served, Spec, Stream, CFG,
};
use osd_core::{
    nn_candidates, ContinuousNnc, Operator, PreparedQuery, PublishedIndex, QueryEngine, Repair,
    SpatialIndex, TraceData, WarmPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Fewest read requests of a run (at least a quarter are k-NNC, enough
/// for a tail with ten samples beyond it).
pub const MIN_READS: usize = 96;
/// Fewest publishes a run makes.
pub const MIN_PUBLISHES: usize = 30;
/// Fewest queries a run hands to `run_batch`.
pub const MIN_BATCH: usize = 4 * BATCH_CHUNK;
/// Queries per `run_batch` call.
pub const BATCH_CHUNK: usize = 32;

/// Logical CPUs of the host, the thread count of every batch.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Latency samples of the closed-loop requests, in milliseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    /// NNC request latency.
    pub nnc: Vec<f64>,
    /// k-NNC request latency.
    pub knnc: Vec<f64>,
    /// Time to the first NNC candidate.
    pub first: Vec<f64>,
}

impl Latencies {
    /// Records one served request, calibrated in the end-to-end run (see
    /// [`calib`]).
    pub fn record(&mut self, kind: Kind, served: &Served) {
        let k = calib::scale(Probe::Reads);
        let total = ms(served.timed.total) * k;
        match kind {
            Kind::Nnc => {
                self.nnc.push(total);
                if let Some(first) = served.timed.first {
                    self.first.push(ms(first) * k);
                }
            }
            Kind::Knnc => self.knnc.push(total),
        }
    }
}

/// A query the batch phase replays, with the answer it must give (if
/// already known).
pub struct BatchItem {
    /// The prepared query.
    pub query: PreparedQuery,
    /// Expected NNC answer; `None` to compute it cold on first use.
    pub expect: Option<Answer>,
}

/// A read whose answer is checked after the timed phases, against an
/// index built for the purpose.
pub struct Deferred {
    /// The prepared query.
    pub query: PreparedQuery,
    /// NNC or k-NNC.
    pub kind: Kind,
    /// The answer the timed request gave.
    pub answer: Answer,
}

/// Reference answers of a hot set: `(nnc, knnc)` per slot, computed cold.
pub type HotRefs = Vec<(Answer, Answer)>;

/// Cold reference answers of every hot query on `db`.
pub fn hot_refs(db: &dyn SpatialIndex, stream: &Stream<'_>, spec: &Spec) -> HotRefs {
    stream
        .hot_set()
        .iter()
        .map(|o| {
            let q = PreparedQuery::new(o.clone());
            (
                reference(db, &q, Kind::Nnc, spec),
                reference(db, &q, Kind::Knnc, spec),
            )
        })
        .collect()
}

/// Serves every hot query once in both kinds, filling the warm pool.
pub fn warm_up(db: &dyn SpatialIndex, stream: &Stream<'_>, spec: &Spec, pool: Option<&WarmPool>) {
    for o in stream.hot_set() {
        for kind in [Kind::Nnc, Kind::Knnc] {
            black_box(serve(db, o.clone(), kind, spec, &CFG, pool));
        }
    }
}

/// The closed read loop: one client, the next of `requests` sent when the
/// last returns. Hot answers are checked against `refs`; fresh answers are
/// handed back for a deferred check. NNC queries are queued for the batch
/// phase.
#[allow(clippy::too_many_arguments)]
pub fn read_loop(
    db: &dyn SpatialIndex,
    stream: &mut Stream<'_>,
    spec: &Spec,
    pool: Option<&WarmPool>,
    refs: &HotRefs,
    requests: usize,
    lat: &mut Latencies,
    tally: &mut Tally,
    deferred: &mut Vec<Deferred>,
    batch: &mut Vec<BatchItem>,
) {
    for _ in 0..requests {
        let req = stream.next_request();
        let served = serve(db, req.object, req.kind, spec, &CFG, pool);
        lat.record(req.kind, &served);
        match req.hot {
            Some(slot) => {
                let expect = match req.kind {
                    Kind::Nnc => &refs[slot].0,
                    Kind::Knnc => &refs[slot].1,
                };
                tally.op(served.answer == *expect, || {
                    format!("hot slot {slot} {:?} differs from the cold path", req.kind)
                });
                if req.kind == Kind::Nnc {
                    batch.push(BatchItem {
                        query: served.query,
                        expect: Some(expect.clone()),
                    });
                }
            }
            None => {
                tally.attempted += 1;
                if req.kind == Kind::Nnc {
                    batch.push(BatchItem {
                        query: served.query.clone(),
                        expect: Some(served.answer.clone()),
                    });
                }
                deferred.push(Deferred {
                    query: served.query,
                    kind: req.kind,
                    answer: served.answer,
                });
            }
        }
    }
}

/// Queries and time of a batch phase.
#[derive(Debug, Default)]
pub struct Batched {
    /// Queries answered.
    pub queries: usize,
    /// Seconds inside `run_batch` (calibrated in the end-to-end run).
    pub secs: f64,
    /// `run_batch` calls made.
    pub calls: usize,
}

/// Throughput of `QueryEngine::run_batch` at `threads` over `queries`
/// queries taken in turn from `items`, in calls of [`BATCH_CHUNK`] (the
/// last call takes the rest). Every answer is checked.
#[allow(clippy::too_many_arguments)]
pub fn batch_loop(
    db: &dyn SpatialIndex,
    op: Operator,
    pool: Option<&WarmPool>,
    items: &mut [BatchItem],
    threads: usize,
    queries: usize,
    tally: &mut Tally,
) -> Batched {
    let mut engine = QueryEngine::with_config(db, op, CFG);
    if let Some(p) = pool {
        engine = engine.with_warm(p);
    }
    let mut out = Batched::default();
    let mut next = 0usize;
    if items.is_empty() {
        tally.fail("batch phase has no queries".into());
        return out;
    }
    while out.queries < queries {
        let take = BATCH_CHUNK.min(queries - out.queries);
        let idx: Vec<usize> = (0..take).map(|i| (next + i) % items.len()).collect();
        next = (next + take) % items.len();
        let chunk: Vec<PreparedQuery> = idx.iter().map(|&i| items[i].query.clone()).collect();
        let start = Instant::now();
        let results = black_box(engine.run_batch(&chunk, threads));
        let secs = start.elapsed().as_secs_f64();
        out.secs += secs * calib::scale(Probe::Parallel);
        out.queries += chunk.len();
        out.calls += 1;
        for (&i, r) in idx.iter().zip(&results) {
            let item = &mut items[i];
            let expect = item
                .expect
                .get_or_insert_with(|| nnc_answer(&nn_candidates(db, &item.query, op, &CFG)));
            tally.op(nnc_answer(r) == *expect, || {
                format!("batch answer {i} differs from the closed-loop answer")
            });
        }
    }
    out
}

/// Samples of the write phase.
#[derive(Debug, Default)]
pub struct Writes {
    /// `insert`/`delete`/`update` call latency, ms (calibrated in the end-to-end
    /// run).
    pub publish: Vec<f64>,
    /// `ContinuousNnc::refresh_with` latency per epoch, ms (calibrated in the
    /// end-to-end run).
    pub refresh: Vec<f64>,
    /// Epochs the standing query was repaired incrementally.
    pub incremental: u64,
    /// Full re-query of the standing query on the same snapshot, ms
    /// (timed only when `layers` is set).
    pub requery: Vec<f64>,
    /// An outside-timed `Clone` of the pinned index, ms (only when
    /// `layers` is set).
    pub index_clone: Vec<f64>,
    /// Mutation traces (only when `layers` is set).
    pub traces: Vec<TraceData>,
}

/// One read per publish: where requests come from and where their
/// latencies and batch queries go.
pub struct Reads<'s, 'a> {
    /// The request stream.
    pub stream: &'s mut Stream<'a>,
    /// Latency samples of the reads.
    pub lat: &'s mut Latencies,
    /// Queue of NNC queries for the batch phase.
    pub batch: &'s mut Vec<BatchItem>,
}

/// Options of [`write_loop`].
pub struct WriteOpts<'s, 'a> {
    /// Also serve one read per publish on a freshly pinned snapshot.
    pub reads: Option<Reads<'s, 'a>>,
    /// Time the extra per-layer quantities and trace every publish.
    pub layers: bool,
    /// Mutations to publish.
    pub publishes: usize,
}

/// One scripted mutation.
enum Mutation {
    Insert(osd_uncertain::UncertainObject),
    Delete(usize),
    Update(usize, osd_uncertain::UncertainObject),
}

/// The insert/delete/update script of the write phase, 1:1:1. Which
/// mutations it holds is fixed per workload (victims and new objects drawn
/// from the data seed, new objects placed like the data); the seed deals
/// them in its own order. Whether a refresh repairs incrementally or
/// re-queries, at several times the cost, depends on the mutation, so a
/// per-seed draw of mutations moved `refresh_p50_ms` by a quarter between
/// seeds. Deletes and updates hit distinct objects of `live`, so every
/// order is valid.
fn script(data: &Data, spec: &Spec, live: &[usize], seed: u64, publishes: usize) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(sub_seed(spec.data_seed, 6));
    let mut victims = live.to_vec();
    let mut script: Vec<Mutation> = (0..publishes)
        .map(|step| {
            if step % 3 == 0 {
                return Mutation::Insert(data.object_near(&mut rng, spec.m_d, spec.h_d));
            }
            let id = victims.swap_remove(rng.gen_range(0..victims.len()));
            if step % 3 == 1 {
                Mutation::Delete(id)
            } else {
                Mutation::Update(id, data.object_near(&mut rng, spec.m_d, spec.h_d))
            }
        })
        .collect();
    // Fisher-Yates with the seed.
    let mut order = StdRng::seed_from_u64(sub_seed(seed, 4));
    for i in (1..script.len()).rev() {
        script.swap(i, order.gen_range(0..=i));
    }
    script
}

/// Publishes the scripted mutations against `published`, and after each
/// one refreshes a standing query (and optionally serves one read) on a
/// freshly pinned snapshot. The standing query and every read are checked
/// against a full re-query on the same snapshot.
pub fn write_loop<D: SpatialIndex + Clone>(
    published: &PublishedIndex<D>,
    data: &Data,
    spec: &Spec,
    seed: u64,
    opts: WriteOpts<'_, '_>,
    tally: &mut Tally,
) -> Writes {
    let WriteOpts {
        mut reads,
        layers,
        publishes,
    } = opts;
    // The standing query is fixed per workload, like the hot set; the seed
    // draws the script's order.
    let mut standing_rng = StdRng::seed_from_u64(sub_seed(spec.data_seed, 4));
    let standing = PreparedQuery::new(data.object_near(&mut standing_rng, spec.m_q, spec.h_q));
    let mut handle = ContinuousNnc::new(&*published.pin(), standing, spec.op, CFG);
    let snap = published.pin();
    let live: Vec<usize> = (0..snap.len()).filter(|&id| snap.is_live(id)).collect();
    drop(snap);
    if layers {
        published.enable_tracing(1 << 16, u64::MAX, 0);
    }
    let mut w = Writes::default();
    for (step, mutation) in script(data, spec, &live, seed, publishes)
        .into_iter()
        .enumerate()
    {
        let start = Instant::now();
        let outcome = match mutation {
            Mutation::Insert(o) => published.insert(o).map(|_| ()),
            Mutation::Delete(id) => published.delete(id),
            Mutation::Update(id, o) => published.update(id, o),
        };
        let publish = ms(start.elapsed());
        w.publish.push(publish * calib::scale(Probe::Copy));
        if let Err(e) = outcome {
            tally.fail(format!("mutation {step} failed: {e}"));
        }
        tally.attempted += 1;

        let snap = published.pin();
        let start = Instant::now();
        let repair = handle.refresh_with(&*snap, Some(published.warm_pool()));
        let refresh = ms(start.elapsed());
        w.refresh.push(refresh * calib::scale(Probe::Reads));
        if matches!(repair, Repair::Incremental { .. }) {
            w.incremental += 1;
        }
        let start = Instant::now();
        let full = nn_candidates(&*snap, handle.query(), spec.op, &CFG);
        if layers {
            w.requery.push(ms(start.elapsed()));
            let start = Instant::now();
            let copy = black_box(D::clone(&snap));
            w.index_clone.push(ms(start.elapsed()));
            drop(copy);
        }
        let repaired: Answer = handle
            .candidates()
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect();
        tally.op(repaired == nnc_answer(&full), || {
            format!(
                "standing query at epoch {} differs from a re-query",
                snap.epoch()
            )
        });

        if let Some(Reads { stream, lat, batch }) = reads.as_mut() {
            let req = stream.next_request();
            let served = serve(
                &*snap,
                req.object,
                req.kind,
                spec,
                &CFG,
                Some(published.warm_pool()),
            );
            lat.record(req.kind, &served);
            let expect = reference(&*snap, &served.query, req.kind, spec);
            tally.op(served.answer == expect, || {
                format!("read at epoch {} differs from a re-query", snap.epoch())
            });
            if req.kind == Kind::Nnc {
                batch.push(BatchItem {
                    query: served.query,
                    expect: None,
                });
            }
        }
    }
    if let Some(rec) = published.take_recorder() {
        w.traces = rec.last(rec.len()).into_iter().cloned().collect();
    }
    w
}
