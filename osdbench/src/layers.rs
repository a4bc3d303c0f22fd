//! The traced per-layer run (`--trace 1`).
//!
//! Layer costs are read from outside the program: calls into each layer's
//! public functions are timed here, and the counters and phase spans the
//! program already keeps (`Stats`, `NncResult::metrics`, the per-query
//! trace of `FilterConfig::traced()`, the publish spans of
//! `PublishedIndex::enable_tracing`) are read back. Nothing is added to
//! the program.

use crate::e2e::Run;
use crate::phases::{
    batch_loop, nproc, warm_up, write_loop, BatchItem, Latencies, Reads, WriteOpts, BATCH_CHUNK,
    MIN_PUBLISHES,
};
use crate::report::{Report, Tally, PER_LAYER};
use crate::stats::{median, quartiles, Ratio};
use crate::workload::{
    ms, reference, serve, sub_seed, Data, Index, Kind, Spec, Stream, Workload, CFG,
};
use osd_core::{
    CheckCtx, NncResult, PreparedQuery, PublishedIndex, SpatialIndex, Stats, TraceData, WarmPool,
    WarmStats,
};
use osd_obs::{Counter, Phase, SpanKind};
use osd_rtree::{Entry, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Builds of each build layer; each is reported as their median.
const SETUP_REPEATS: usize = 3;
/// Requests per paired round (each served untraced and traced).
const ROUND: usize = 16;
/// Fewest paired rounds, whatever `--seconds` is.
const MIN_ROUNDS: usize = 6;
/// Queries sampled for the outside-timed dominance checks.
const DOMINATES_QUERIES: usize = 8;
/// Check pairs timed per sampled query.
const DOMINATES_PAIRS: usize = 24;

/// Trace span names and the share metric each one's self time feeds.
const SPAN_SHARES: [(&str, &str); 7] = [
    ("prepare", "query.share.prepare"),
    ("rtree-descent", "query.share.rtree_descent"),
    ("check", "query.share.check"),
    ("validate", "query.share.validate"),
    ("level-prune", "query.share.level_prune"),
    ("flow", "query.share.flow"),
    ("strict-guard", "query.share.strict_guard"),
];

/// Runs the traced per-layer breakdown of `w`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let spec = w.spec();
    let data = Data::generate(&spec);
    let run = Run {
        w,
        spec,
        data: &data,
        seed,
        seconds,
    };
    let mut report = Report::new(PER_LAYER);
    let index = build_layers(&run, &mut report)?;
    let stream = Stream::new(&data, &run.spec, seed);
    let pool = run.pooled().then(WarmPool::new);
    warm_up(index.as_dyn(), &stream, &run.spec, pool.as_ref());
    match index {
        Index::Flat(db) => measure(&run, db, pool, stream, &mut report),
        Index::Sharded(db) => measure(&run, db, pool, stream, &mut report),
    }
    Ok(report)
}

/// Times the three build layers from outside, `SETUP_REPEATS` times each,
/// and returns the last index built. The global bulk load is timed as its
/// own call over every object MBR (one tree; the sharded build runs one
/// per shard inside `core.index_build_s`).
fn build_layers(run: &Run<'_>, report: &mut Report) -> Result<Index, String> {
    let (mut store_s, mut index_s, mut bulk_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let start = Instant::now();
        let store = run.data.store()?;
        store_s.push(start.elapsed().as_secs_f64());
        let entries: Vec<Entry<usize>> = store
            .iter()
            .enumerate()
            .map(|(id, o)| Entry {
                mbr: o.mbr().clone(),
                item: id,
            })
            .collect();
        let start = Instant::now();
        let tree = black_box(RTree::bulk_load(
            osd_core::db::DEFAULT_GLOBAL_FANOUT,
            entries,
        ));
        bulk_s.push(start.elapsed().as_secs_f64());
        drop(tree);
        let start = Instant::now();
        let index = run.spec.build(store)?;
        index_s.push(start.elapsed().as_secs_f64());
        built = Some(index);
    }
    report.put_median("uncertain.store_build_s", &store_s);
    report.put_median("core.index_build_s", &index_s);
    report.put_median("rtree.global_bulk_load_s", &bulk_s);
    built.ok_or_else(|| "no build ran".to_string())
}

/// The measured layers after the build.
fn measure<D: SpatialIndex + Clone>(
    run: &Run<'_>,
    db: D,
    pool: Option<WarmPool>,
    mut stream: Stream<'_>,
    report: &mut Report,
) {
    let mut tally = Tally::default();
    let mut batch = Vec::new();
    // Half the end-to-end publishes: each one here also times a clone of
    // the index and a full re-query.
    let publishes = run.ops(run.spec.pace.publishes / 2.0, MIN_PUBLISHES);
    let (warm, writes) = if run.w == Workload::Churn {
        // Queries run on the first published snapshot through the
        // published pool; then the churn with a read per publish.
        let published = PublishedIndex::new(db);
        let snap = published.pin();
        query_layers(
            run,
            &*snap,
            Some(published.warm_pool()),
            &mut stream,
            report,
            &mut tally,
            &mut batch,
        );
        engine_layers(
            run,
            &*snap,
            Some(published.warm_pool()),
            &mut batch,
            report,
            &mut tally,
        );
        drop(snap);
        // The churn reads still run (they are part of the workload); their
        // latencies are end-to-end numbers and not reported here.
        let (mut lat, mut queued) = (Latencies::default(), Vec::new());
        let opts = WriteOpts {
            reads: Some(Reads {
                stream: &mut stream,
                lat: &mut lat,
                batch: &mut queued,
            }),
            layers: true,
            publishes,
        };
        let writes = write_loop(&published, run.data, &run.spec, run.seed, opts, &mut tally);
        (published.warm_pool().stats(), writes)
    } else {
        query_layers(
            run,
            &db,
            pool.as_ref(),
            &mut stream,
            report,
            &mut tally,
            &mut batch,
        );
        engine_layers(run, &db, pool.as_ref(), &mut batch, report, &mut tally);
        let warm = pool.as_ref().map(WarmPool::stats).unwrap_or_default();
        drop(pool);
        let published = PublishedIndex::new(db);
        let opts = WriteOpts {
            reads: None,
            layers: true,
            publishes,
        };
        let writes = write_loop(&published, run.data, &run.spec, run.seed, opts, &mut tally);
        (warm, writes)
    };
    report_warm(&warm, report);
    for (span, metric) in [
        ("clone", "publish.clone_ms"),
        ("splice", "publish.splice_ms"),
        ("swap", "publish.swap_ms"),
    ] {
        let durs: Vec<f64> = writes
            .traces
            .iter()
            .flat_map(|t| t.spans.iter().filter(|s| s.name == span))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        report.put_median(metric, &durs);
    }
    report.note(format!(
        "publish spans from {} mutation traces",
        writes.traces.len()
    ));
    report.put_median("publish.index_clone_ms", &writes.index_clone);
    report.put_median("continuous.requery_ms", &writes.requery);
    report.put_ratio(
        "continuous.incremental_frac",
        Ratio::new(writes.incremental as f64, writes.refresh.len() as f64),
    );
    report.tally.absorb(tally);
}

fn report_warm(warm: &WarmStats, report: &mut Report) {
    report.put(
        "warm.resident_mb",
        warm.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    report.put("warm.evictions", warm.evictions as f64);
}

/// One request served untraced and traced, plus its cold re-run.
struct Paired {
    query: PreparedQuery,
    untraced: NncResult,
    untraced_ms: f64,
    prepare_us: f64,
    traced_ms: f64,
    traced_prepare_ns: u64,
    trace: Option<TraceData>,
}

/// Query-path layers: paired untraced/traced rounds over NNC requests of
/// the workload's stream, the cold re-run, the layer-sum check and the
/// outside-timed dominance checks.
#[allow(clippy::too_many_arguments)]
fn query_layers(
    run: &Run<'_>,
    db: &dyn SpatialIndex,
    pool: Option<&WarmPool>,
    stream: &mut Stream<'_>,
    report: &mut Report,
    tally: &mut Tally,
    batch: &mut Vec<BatchItem>,
) {
    let spec = &run.spec;
    let plain = CFG;
    let traced = plain.traced();
    // Each round serves its requests twice and the cold re-run once more;
    // rounds are sized to take about the time the end-to-end reads take.
    // Churn reads once per publish, so it paces rounds by publishes.
    let per_second = run.spec.pace.reads.max(run.spec.pace.publishes) / (3 * ROUND) as f64;
    let rounds = run.ops(per_second, MIN_ROUNDS);
    let mut paired: Vec<Paired> = Vec::new();
    let mut overhead_pct = Vec::new();
    for round in 0..rounds {
        let objects: Vec<_> = (0..ROUND).map(|_| stream.next_request().object).collect();
        let mut plain_runs = Vec::new();
        let mut traced_runs = Vec::new();
        // Alternate which side runs first, so cache warmth favours neither.
        for side in [round % 2 == 0, round % 2 == 1] {
            for o in &objects {
                let cfg = if side { &plain } else { &traced };
                let served = serve(db, o.clone(), Kind::Nnc, spec, cfg, pool);
                if side {
                    plain_runs.push(served);
                } else {
                    traced_runs.push(served);
                }
            }
        }
        // Paired over the same requests: total traced time over total
        // untraced time of the round.
        let total = |runs: &[crate::workload::Served]| -> f64 {
            runs.iter().map(|s| ms(s.timed.total)).sum()
        };
        overhead_pct.push((total(&traced_runs) / total(&plain_runs) - 1.0) * 100.0);
        for (u, t) in plain_runs.into_iter().zip(traced_runs) {
            tally.op(u.answer == t.answer, || {
                "traced answer differs from the untraced one".to_string()
            });
            let (Some(untraced), Some(traced_result)) = (u.nnc, t.nnc) else {
                tally.fail("NNC request returned no result".into());
                continue;
            };
            paired.push(Paired {
                query: u.query,
                untraced,
                untraced_ms: ms(u.timed.total),
                prepare_us: u.timed.prepare.as_secs_f64() * 1e6,
                traced_ms: ms(t.timed.total),
                traced_prepare_ns: t.timed.prepare.as_nanos() as u64,
                trace: traced_result.trace,
            });
        }
    }
    report.note(format!(
        "{} NNC requests in {rounds} paired rounds of {ROUND}",
        paired.len()
    ));
    report.put_median("obs.trace_overhead_pct", &overhead_pct);
    let [q1, _, q3] = quartiles(&overhead_pct).unwrap_or([0.0; 3]);
    report.put("obs.trace_overhead_iqr_pct", q3 - q1);
    report.note(format!(
        "obs.trace_overhead_pct = median of {} round overheads, quartiles {q1:.2} .. {q3:.2}",
        overhead_pct.len()
    ));

    counters(&paired, report);
    layer_sum(&paired, report, tally);

    // The same requests without a warm pool: the cold path the warm one
    // must match bit for bit.
    let mut cold = Vec::new();
    for p in &paired {
        let served = serve(db, p.query.object().clone(), Kind::Nnc, spec, &plain, None);
        cold.push(ms(served.timed.total));
        tally.op(
            served.answer == crate::workload::nnc_answer(&p.untraced),
            || "warm answer differs from the cold path".to_string(),
        );
    }
    report.put_median("warm.cold_nnc_p50_ms", &cold);
    report.note(format!(
        "warm.cold_nnc_p50_ms over {} requests; untraced p50 {:.4} ms",
        cold.len(),
        median(&paired.iter().map(|p| p.untraced_ms).collect::<Vec<_>>()).unwrap_or(0.0)
    ));

    // A sharded index is checked against the flat, unsharded path too.
    if spec.shards > 1 && run.w != Workload::Churn {
        let flat_spec = Spec {
            shards: 1,
            ..spec.clone()
        };
        match run.data.store().and_then(|store| flat_spec.build(store)) {
            Ok(flat) => {
                for p in &paired {
                    let expect = reference(flat.as_dyn(), &p.query, Kind::Nnc, spec);
                    if expect != crate::workload::nnc_answer(&p.untraced) {
                        tally.fail("sharded answer differs from the flat path".into());
                    }
                }
            }
            Err(e) => tally.fail(e),
        }
    }

    dominates(run, db, &paired, report);
    batch.extend(paired.into_iter().map(|p| BatchItem {
        expect: Some(crate::workload::nnc_answer(&p.untraced)),
        query: p.query,
    }));
}

/// Per-query medians of the program's own counters and phase timers
/// (untraced requests), with the ratios they imply.
fn counters(paired: &[Paired], report: &mut Report) {
    let med = |f: &dyn Fn(&Paired) -> f64| -> f64 {
        median(&paired.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let phase = |p: &Paired, ph: Phase| p.untraced.metrics.phase_nanos(ph) as f64;
    let stat = |p: &Paired, f: fn(&Stats) -> u64| f(&p.untraced.stats) as f64;
    report.put("geom.prepare_us", med(&|p| p.prepare_us));
    report.put("rtree.descent_ns", med(&|p| phase(p, Phase::RtreeDescent)));
    report.put("ops.validate_ns", med(&|p| phase(p, Phase::Validate)));
    report.put("ops.level_prune_ns", med(&|p| phase(p, Phase::LevelPrune)));
    report.put("ops.refine_ns", med(&|p| phase(p, Phase::Refine)));
    report.put(
        "rtree.nodes_visited",
        med(&|p| stat(p, |s| s.rtree_nodes_visited)),
    );
    report.put("ops.mbr_checks", med(&|p| stat(p, |s| s.mbr_checks)));
    report.put(
        "ops.dominance_checks",
        med(&|p| stat(p, |s| s.dominance_checks)),
    );
    report.put(
        "ops.instance_comparisons",
        med(&|p| stat(p, |s| s.instance_comparisons)),
    );
    report.put("flow.runs", med(&|p| stat(p, |s| s.flow_runs)));
    report.put(
        "flow.solve_ns",
        med(&|p| {
            p.untraced
                .metrics
                .spans()
                .iter()
                .filter(|(label, _, _)| *label == "flow-solve")
                .fold(0.0, |acc, &(_, _, ns)| acc + ns as f64)
        }),
    );
    report.put(
        "nnc.candidates",
        med(&|p| p.untraced.candidates.len() as f64),
    );
    report.put(
        "nnc.objects_checked",
        med(&|p| p.untraced.objects_checked as f64),
    );

    let sum = |f: &dyn Fn(&Paired) -> f64| -> f64 { paired.iter().map(f).sum() };
    report.put_ratio(
        "nnc.candidate_yield",
        Ratio::new(
            sum(&|p| p.untraced.candidates.len() as f64),
            sum(&|p| p.untraced.objects_checked as f64),
        ),
    );
    report.put_ratio(
        "flow.runs_per_check",
        Ratio::new(
            sum(&|p| stat(p, |s| s.flow_runs)),
            sum(&|p| stat(p, |s| s.dominance_checks)),
        ),
    );
    let hits = sum(&|p| stat(p, |s| s.cache_hits));
    report.put_ratio(
        "cache.hit_rate",
        Ratio::new(hits, hits + sum(&|p| stat(p, |s| s.cache_misses))),
    );
    let counter = |p: &Paired, c: Counter| p.untraced.metrics.counter(c) as f64;
    let warm_hits = sum(&|p| counter(p, Counter::WarmHits));
    report.put_ratio(
        "warm.hit_rate",
        Ratio::new(
            warm_hits,
            warm_hits + sum(&|p| counter(p, Counter::WarmMisses)),
        ),
    );
}

/// Self time of every span of `t` (its duration minus its child spans'),
/// summed by span name.
fn self_times(t: &TraceData) -> Vec<(String, u64)> {
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.kind == SpanKind::Span && !s.is_root() {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.dur_ns;
            }
        }
    }
    let mut by_name: Vec<(String, u64)> = Vec::new();
    for (s, &children) in t.spans.iter().zip(&child_ns) {
        if s.kind != SpanKind::Span || s.is_root() {
            continue;
        }
        let own = s.dur_ns.saturating_sub(children);
        match by_name.iter_mut().find(|(n, _)| n == s.name.as_ref()) {
            Some((_, ns)) => *ns += own,
            None => by_name.push((s.name.to_string(), own)),
        }
    }
    by_name
}

/// The layer-sum check: per traced request, the phase self times plus
/// the prepare time measured outside must not exceed the request's
/// end-to-end time (that would be double counting); their totals over
/// every request give each layer's share and the unattributed rest.
///
/// A query trace holds a fixed number of events; once it is full, later
/// spans are not recorded and their time stays unattributed. That part
/// is reported on its own as `query.unrecorded_frac`.
fn layer_sum(paired: &[Paired], report: &mut Report, tally: &mut Tally) {
    let mut shares = vec![0u64; SPAN_SHARES.len()];
    let (mut e2e_total, mut prepare_total, mut other, mut unrecorded) = (0u64, 0u64, 0u64, 0u64);
    let mut unknown: Vec<String> = Vec::new();
    for p in paired {
        let Some(t) = &p.trace else {
            tally.fail("traced request returned no trace".into());
            continue;
        };
        let e2e = (p.traced_ms * 1e6) as u64;
        let mut attributed = p.traced_prepare_ns;
        for (name, ns) in self_times(t) {
            attributed += ns;
            match SPAN_SHARES.iter().position(|(n, _)| *n == name) {
                Some(i) => shares[i] += ns,
                None => {
                    other += ns;
                    if !unknown.contains(&name) {
                        unknown.push(name);
                    }
                }
            }
        }
        tally.op(attributed <= e2e, || {
            format!("layer self times sum to {attributed} ns, above the request's {e2e} ns")
        });
        e2e_total += e2e;
        prepare_total += p.traced_prepare_ns;
        if t.dropped > 0 {
            // The arena filled: everything after the last recorded span
            // ended is time the trace could not see.
            let seen = t
                .spans
                .iter()
                .filter(|s| !s.is_root())
                .map(|s| s.start_ns + s.dur_ns)
                .max()
                .unwrap_or(0);
            unrecorded += t.total_ns.saturating_sub(seen);
        }
    }
    let share = |ns: u64| Ratio::new(ns as f64, e2e_total as f64);
    report.put_ratio("query.share.geom_prepare", share(prepare_total));
    for ((_, metric), &ns) in SPAN_SHARES.iter().zip(&shares) {
        report.put_ratio(metric, share(ns));
    }
    let attributed: u64 = prepare_total + shares.iter().sum::<u64>() + other;
    report.put_ratio(
        "query.unattributed_frac",
        Ratio::new(
            e2e_total.saturating_sub(attributed) as f64,
            e2e_total as f64,
        ),
    );
    let n = paired.len().max(1) as f64;
    report.put("query.traced_e2e_mean_ms", e2e_total as f64 / 1e6 / n);
    report.put_ratio(
        "query.unrecorded_frac",
        Ratio::new(unrecorded as f64, e2e_total as f64),
    );
    if !unknown.is_empty() {
        report.note(format!(
            "spans outside the share list (attributed, no share metric): {unknown:?}"
        ));
    }
}

/// `CheckCtx::dominates` timed from outside on seeded pairs: pairs of
/// each sampled query's candidates (checks the filters cannot settle
/// cheaply) and pairs of its first candidate with random live objects.
fn dominates(run: &Run<'_>, db: &dyn SpatialIndex, paired: &[Paired], report: &mut Report) {
    let spec = &run.spec;
    let mut rng = StdRng::seed_from_u64(sub_seed(run.seed, 5));
    let mut us = Vec::new();
    let step = (paired.len() / DOMINATES_QUERIES).max(1);
    for p in paired.iter().step_by(step).take(DOMINATES_QUERIES) {
        let ids: Vec<usize> = p.untraced.candidates.iter().map(|c| c.id).collect();
        let Some(&first) = ids.first() else { continue };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for &u in &ids {
            for &v in &ids {
                if u != v && pairs.len() < DOMINATES_PAIRS / 2 {
                    pairs.push((u, v));
                }
            }
        }
        while pairs.len() < DOMINATES_PAIRS {
            let v = rng.gen_range(0..db.len());
            if v != first && db.is_live(v) {
                pairs.push((first, v));
            }
        }
        let mut ctx = CheckCtx::new(db, &p.query, CFG);
        for (u, v) in pairs {
            let start = Instant::now();
            black_box(ctx.dominates(spec.op, u, v));
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.put_median("ops.dominates_us", &us);
    report.note(format!(
        "ops.dominates_us = median of {} timed checks",
        us.len()
    ));
}

/// Batch throughput at one thread and at `nproc` threads, alternated.
fn engine_layers(
    run: &Run<'_>,
    db: &dyn SpatialIndex,
    pool: Option<&WarmPool>,
    batch: &mut [BatchItem],
    report: &mut Report,
    tally: &mut Tally,
) {
    let threads = nproc();
    // Four slices, alternating one thread and `nproc` threads.
    let slice = run.ops(run.spec.pace.batch / 4.0, BATCH_CHUNK);
    let (mut one, mut many) = ((0usize, 0.0f64), (0usize, 0.0f64));
    for _ in 0..2 {
        for (t, acc) in [(1usize, &mut one), (threads, &mut many)] {
            let b = batch_loop(db, run.spec.op, pool, batch, t, slice, tally);
            acc.0 += b.queries;
            acc.1 += b.secs;
        }
    }
    let qps = |(n, s): (usize, f64)| n as f64 / s.max(f64::MIN_POSITIVE);
    report.put("engine.batch_qps_1t", qps(one));
    report.put_ratio(
        "engine.parallel_efficiency",
        Ratio::new(qps(many), threads as f64 * qps(one)),
    );
    report.note(format!(
        "engine: {} queries in {:.3} s at 1 thread, {} in {:.3} s at {threads}",
        one.0, one.1, many.0, many.1
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_obs::SpanRecord;
    use std::borrow::Cow;

    fn span(name: &'static str, parent: u32, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            parent,
            depth: 0,
            kind: SpanKind::Span,
            start_ns: 0,
            dur_ns,
            attrs: Default::default(),
        }
    }

    #[test]
    fn self_time_subtracts_child_spans_only() {
        let mut instant = span("candidate", 0, 0);
        instant.kind = SpanKind::Instant;
        let t = TraceData {
            total_ns: 100,
            spans: vec![
                span("query", u32::MAX, 100),
                span("check", 0, 40),
                span("validate", 1, 15),
                span("check", 0, 20),
                instant,
            ],
            ..TraceData::default()
        };
        let mut got = self_times(&t);
        got.sort();
        assert_eq!(
            got,
            vec![("check".to_string(), 45), ("validate".to_string(), 15)]
        );
    }
}
