//! The end-to-end run (`--trace 0`): every metric a user of the system
//! sees, with tracing off. Every time is calibrated (see [`calib`]).

use crate::calib::{self, Probe};
use crate::phases::{
    batch_loop, hot_refs, nproc, read_loop, warm_up, write_loop, Batched, Deferred, HotRefs,
    Latencies, Reads, WriteOpts, BATCH_CHUNK, MIN_BATCH, MIN_PUBLISHES, MIN_READS,
};
use crate::report::{Report, Tally, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::{reference, sub_seed, Data, Index, Spec, Stream, Workload};
use osd_core::{PublishedIndex, SpatialIndex, WarmPool};
use std::time::Instant;

/// Passes per run. Each pass sets the index up afresh and runs every
/// phase of the workload on it, so each metric is sampled across the whole
/// run instead of in one stretch of it. A median metric is the median of
/// the per-pass medians, which a burst of host load during one pass moves
/// little.
pub const PASSES: usize = 6;
/// A pass repeats its set-up until the set-ups took this long...
const SETUP_PASS_S: f64 = 0.25;
/// ... or this many times.
const SETUP_MAX: usize = 8;

/// Builds the index (plus the hot set's warm-up pass through a fresh
/// pool, when `pooled`) until the set-ups took `SETUP_PASS_S`, and keeps
/// the last build. Pushes each set-up's calibrated time in seconds onto
/// `times`.
pub fn set_up(
    spec: &Spec,
    data: &Data,
    stream: &Stream<'_>,
    pooled: bool,
    times: &mut Vec<f64>,
) -> Result<(Index, Option<WarmPool>), String> {
    let (mut built, mut spent) = (None, 0.0);
    for _ in 0..SETUP_MAX {
        // Free the previous build first, so peak memory holds one index.
        drop(built.take());
        let start = Instant::now();
        let index = spec.build(data.store()?)?;
        let pool = pooled.then(WarmPool::new);
        warm_up(index.as_dyn(), stream, spec, pool.as_ref());
        let secs = start.elapsed().as_secs_f64() * calib::scale(Probe::Copy);
        times.push(secs);
        spent += secs;
        built = Some((index, pool));
        if spent >= SETUP_PASS_S {
            break;
        }
    }
    built.ok_or_else(|| "no set-up ran".to_string())
}

/// What one run is: the workload, its inputs and its size.
pub struct Run<'a> {
    /// The workload.
    pub w: Workload,
    /// Its fixed shape.
    pub spec: Spec,
    /// The generated objects.
    pub data: &'a Data,
    /// The seed argument.
    pub seed: u64,
    /// The `--seconds` argument.
    pub seconds: f64,
}

impl Run<'_> {
    /// Operations at `per_second` for the run's `--seconds`, at least `min`.
    pub fn ops(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(min)
    }

    /// One pass's share of [`Run::ops`], rounded up.
    fn per_pass(&self, per_second: f64, min: usize) -> usize {
        self.ops(per_second, min).div_ceil(PASSES)
    }

    /// Whether reads go through a pool of their own (the churn workload's
    /// pool belongs to its `PublishedIndex`).
    pub fn pooled(&self) -> bool {
        self.spec.warm && self.w != Workload::Churn
    }
}

/// Samples of one latency over a run: every sample, for the tail, and
/// each pass's median.
#[derive(Default)]
struct Sampled {
    all: Vec<f64>,
    pass_medians: Vec<f64>,
}

impl Sampled {
    fn add_pass(&mut self, samples: Vec<f64>) {
        self.pass_medians.extend(median(&samples));
        self.all.extend(samples);
    }
}

/// Everything the passes of a run collect.
#[derive(Default)]
struct Acc {
    setup: Vec<f64>,
    nnc: Sampled,
    knnc: Sampled,
    first: Sampled,
    publish: Sampled,
    refresh: Sampled,
    /// `batch_qps` of each pass.
    qps: Vec<f64>,
    /// Queries, seconds and calls of every batch phase.
    batched: Batched,
    tally: Tally,
    /// Fresh reads, checked after the measured passes.
    deferred: Vec<Deferred>,
}

/// Runs workload `w` for `seconds` and reports every end-to-end metric.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    calib::enable();
    let spec = w.spec();
    let data = Data::generate(&spec);
    let run = Run {
        w,
        spec,
        data: &data,
        seed,
        seconds,
    };
    let mut stream = Stream::new(&data, &run.spec, seed);
    let mut acc = Acc::default();
    let mut refs: Option<HotRefs> = None;
    let measured = Instant::now();
    for pass in 0..PASSES {
        let (index, pool) = set_up(&run.spec, &data, &stream, run.pooled(), &mut acc.setup)?;
        // Every pass builds the same index, so the cold answers of the
        // hot set hold for all of them.
        let refs = refs.get_or_insert_with(|| hot_refs(index.as_dyn(), &stream, &run.spec));
        match index {
            Index::Flat(db) => one_pass(&run, pass, db, pool, &mut stream, refs, &mut acc),
            Index::Sharded(db) => one_pass(&run, pass, db, pool, &mut stream, refs, &mut acc),
        }
    }
    let peak_rss = peak_rss_mb();
    let measured = measured.elapsed().as_secs_f64();
    let checked = Instant::now();

    // Deferred checks run after the measured passes, so the reference
    // index counts toward neither a latency nor the peak memory.
    if !acc.deferred.is_empty() {
        let flat = Spec {
            shards: 1,
            ..run.spec.clone()
        }
        .build(data.store()?)?;
        for d in &acc.deferred {
            if d.answer != reference(flat.as_dyn(), &d.query, d.kind, &run.spec) {
                acc.tally.fail(format!(
                    "{:?} answer differs from the flat unsharded path",
                    d.kind
                ));
            }
        }
    }

    let mut report = Report::new(END_TO_END);
    report.tally = std::mem::take(&mut acc.tally);
    report.note(format!(
        "wall: {PASSES} measured passes {measured:.2} s, deferred checks {:.2} s",
        checked.elapsed().as_secs_f64()
    ));
    for probe in Probe::ALL {
        let times = calib::probe_times(probe);
        if let Some([q1, q2, q3]) = quartiles(&times) {
            report.note(format!(
                "calibration: {} {} probes, quartiles {q1:.4} / {q2:.4} / {q3:.4} ms; \
                 their times are scaled to a probe of {} ms",
                times.len(),
                probe.name(),
                probe.reference_ms()
            ));
        }
    }
    report.put_median("setup_s", &acc.setup);
    report.note(format!("setup_s = median of {:?}", acc.setup));
    for (p50, tail, s) in [
        ("nnc_p50_ms", Some("nnc_p99_ms"), &acc.nnc),
        ("knnc_p50_ms", Some("knnc_p99_ms"), &acc.knnc),
        ("first_candidate_p50_ms", None, &acc.first),
        ("publish_p50_ms", Some("publish_p99_ms"), &acc.publish),
        ("refresh_p50_ms", None, &acc.refresh),
    ] {
        report.put_median(p50, &s.pass_medians);
        report.note(format!(
            "{p50} = median of the pass medians {:?} ({} samples)",
            s.pass_medians,
            s.all.len()
        ));
        if let Some(tail) = tail {
            report.put_tail(tail, &s.all);
        }
    }
    report.put_median("batch_qps", &acc.qps);
    let Batched {
        queries,
        secs,
        calls,
    } = acc.batched;
    report.note(format!(
        "batch_qps = median of the pass rates {:?}; {queries} queries in {secs:.3} s \
         over {calls} calls of {BATCH_CHUNK} at {} threads",
        acc.qps,
        nproc()
    ));
    match peak_rss {
        Some(mb) => report.put("peak_rss_mb", mb),
        None => report
            .tally
            .fail("peak RSS unavailable (/proc/self/status)".into()),
    }
    Ok(report)
}

/// One pass on a freshly set-up index. Read workloads: the closed read
/// loop, batch, then a write phase that moves the index into a
/// `PublishedIndex`. Churn: the write loop with one read per publish, then
/// batch on the final snapshot.
fn one_pass<D: SpatialIndex + Clone>(
    run: &Run<'_>,
    pass: usize,
    db: D,
    pool: Option<WarmPool>,
    stream: &mut Stream<'_>,
    refs: &HotRefs,
    acc: &mut Acc,
) {
    let spec = &run.spec;
    let threads = nproc();
    let mut lat = Latencies::default();
    // This pass's NNC queries, replayed by its batch phase.
    let mut batch = Vec::new();
    let batch_queries = run.per_pass(spec.pace.batch, MIN_BATCH);
    let publishes = run.per_pass(spec.pace.publishes, MIN_PUBLISHES);
    // Each pass deals the workload's script in an order of its own.
    let script_seed = sub_seed(sub_seed(run.seed, 6), pass as u64);
    let (batched, writes) = if run.w == Workload::Churn {
        let published = PublishedIndex::new(db);
        let opts = WriteOpts {
            reads: Some(Reads {
                stream,
                lat: &mut lat,
                batch: &mut batch,
            }),
            layers: false,
            publishes,
        };
        let writes = write_loop(
            &published,
            run.data,
            spec,
            script_seed,
            opts,
            &mut acc.tally,
        );
        let snap = published.pin();
        let pool = Some(published.warm_pool());
        let b = batch_loop(
            &*snap,
            spec.op,
            pool,
            &mut batch,
            threads,
            batch_queries,
            &mut acc.tally,
        );
        (b, writes)
    } else {
        let reads = stream.whole_decks(run.per_pass(spec.pace.reads, MIN_READS));
        read_loop(
            &db,
            stream,
            spec,
            pool.as_ref(),
            refs,
            reads,
            &mut lat,
            &mut acc.tally,
            &mut acc.deferred,
            &mut batch,
        );
        // Every query of the pass at least once: a hot pass's NNC queries
        // are a whole deck, so the batch serves the deck's exact mix.
        let queries = batch_queries.max(batch.len());
        let b = batch_loop(
            &db,
            spec.op,
            pool.as_ref(),
            &mut batch,
            threads,
            queries,
            &mut acc.tally,
        );
        drop(pool);
        let published = PublishedIndex::new(db);
        let opts = WriteOpts {
            reads: None,
            layers: false,
            publishes,
        };
        let writes = write_loop(
            &published,
            run.data,
            spec,
            script_seed,
            opts,
            &mut acc.tally,
        );
        (b, writes)
    };
    acc.nnc.add_pass(lat.nnc);
    acc.knnc.add_pass(lat.knnc);
    acc.first.add_pass(lat.first);
    acc.publish.add_pass(writes.publish);
    acc.refresh.add_pass(writes.refresh);
    acc.qps
        .push(batched.queries as f64 / batched.secs.max(f64::MIN_POSITIVE));
    acc.batched.queries += batched.queries;
    acc.batched.secs += batched.secs;
    acc.batched.calls += batched.calls;
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
