//! Subcommand implementations for the `osd` CLI.

use crate::args::{parse_operator, parse_query_spec, CliError, Flags, ProfileFormat, TraceFormat};
use osd_core::{
    batch_metrics, batch_stats, dominance_matrix, dominators_of_with, ContinuousNnc, FilterConfig,
    FlightRecorder, KnncResult, Operator, PreparedQuery, ProgressiveNnc, PublishedIndex,
    QueryEngine, QueryMetrics, Repair, ShardedDatabase, SpatialIndex, Stats, TraceData, WarmPool,
};
use osd_datagen::{
    generate_objects, gowalla_like, nba_like, read_objects_csv, write_objects_csv,
    CenterDistribution, SynthParams,
};
use osd_nnfuncs::{emd, hausdorff, sum_min, N1Function, StableAggregate};
use std::path::Path;

/// Default flight-recorder file of `osd query --trace` / `osd trace`.
const DEFAULT_RECORDER_FILE: &str = "osd-flight.log";

/// Loads the flight recorder behind `--recorder PATH` (default
/// `osd-flight.log`): parses an existing file, otherwise starts a fresh
/// recorder whose slow-query threshold comes from `--slow-ms N` (0, the
/// default, disables the slow log). An existing file keeps the parameters
/// in its header.
fn load_recorder(flags: &Flags) -> Result<(FlightRecorder, std::path::PathBuf), CliError> {
    let path = std::path::PathBuf::from(flags.value("--recorder").unwrap_or(DEFAULT_RECORDER_FILE));
    let slow_ms: u64 = flags.parsed_or("--slow-ms", 0)?;
    let recorder = if path.exists() {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?;
        FlightRecorder::from_log(&text)
            .map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?
    } else {
        FlightRecorder::new(
            osd_obs::trace::DEFAULT_RING_CAPACITY,
            slow_ms.saturating_mul(1_000_000),
            osd_obs::trace::DEFAULT_SLOW_CAPACITY,
        )
    };
    Ok((recorder, path))
}

/// Renders the traces a `--trace` query produced and appends them to the
/// flight-recorder file, re-stamping `seq` so invocations compose into
/// one stream. With the `obs` feature off a traced run yields no traces;
/// that is reported rather than silently printing nothing.
fn emit_traces(format: TraceFormat, traces: &[&TraceData], flags: &Flags) -> Result<(), CliError> {
    if traces.is_empty() {
        println!("no traces recorded (binary built without the `obs` feature)");
        return Ok(());
    }
    match format {
        TraceFormat::Chrome => println!("{}", osd_obs::chrome_trace(traces)),
        TraceFormat::Text => {
            for t in traces {
                print!("{}", osd_obs::render_text(t));
            }
        }
    }
    let (mut recorder, path) = load_recorder(flags)?;
    let base = recorder.recorded();
    for (i, t) in traces.iter().enumerate() {
        let mut t = (*t).clone();
        t.seq = base + i as u64;
        recorder.record(t);
    }
    std::fs::write(&path, recorder.to_log())
        .map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?;
    println!(
        "recorded {} trace(s) into {} ({} total)",
        traces.len(),
        path.display(),
        recorder.recorded()
    );
    Ok(())
}

/// Builds the index behind the CLI: `shards` STR tiles, where the default
/// `--shards 1` is the flat layout (one global R-tree).
fn build_index(
    objects: Vec<osd_uncertain::UncertainObject>,
    shards: usize,
) -> Result<ShardedDatabase, CliError> {
    ShardedDatabase::try_new(objects, shards).map_err(|e| CliError::Data(e.to_string()))
}

/// Reads the CSV dataset at `data` and returns its objects and their
/// dimensionality. An empty dataset, and a `query` of another
/// dimensionality, are data errors.
fn load_dataset(
    data: &str,
    query: Option<&osd_uncertain::UncertainObject>,
) -> Result<(Vec<osd_uncertain::UncertainObject>, usize), CliError> {
    let objects = read_objects_csv(Path::new(data)).map_err(|e| CliError::Data(e.to_string()))?;
    let dim = objects
        .first()
        .map(osd_uncertain::UncertainObject::dim)
        .ok_or_else(|| CliError::Data(format!("{data}: dataset is empty")))?;
    if let Some(query) = query.filter(|q| q.dim() != dim) {
        return Err(CliError::Data(format!(
            "query dimensionality {} does not match the dataset's {dim}",
            query.dim()
        )));
    }
    Ok((objects, dim))
}

/// One line of an `--ops` script.
enum MutOp {
    Insert(osd_uncertain::UncertainObject),
    Delete(usize),
    Update(usize, osd_uncertain::UncertainObject),
}

impl MutOp {
    fn label(&self) -> &'static str {
        match self {
            MutOp::Insert(_) => "insert",
            MutOp::Delete(_) => "delete",
            MutOp::Update(..) => "update",
        }
    }
}

/// Reads a mutation script: one op per line — `insert x,y;x,y;…`,
/// `delete ID` or `update ID x,y;…` — with blank lines and `#` comments
/// skipped. Object specs must match the dataset's dimensionality `dim`.
fn read_ops_file(path: &Path, dim: usize) -> Result<Vec<MutOp>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Data(e.to_string()))?;
    let located = |lineno: usize, msg: String| {
        CliError::BadArgument(format!("{}:{}: {msg}", path.display(), lineno + 1))
    };
    let parse_spec = |lineno: usize, spec: &str| {
        let obj = parse_query_spec(spec).map_err(|e| located(lineno, e.to_string()))?;
        if obj.dim() != dim {
            return Err(located(
                lineno,
                format!(
                    "object dimensionality {} does not match the dataset's {dim}",
                    obj.dim()
                ),
            ));
        }
        Ok(obj)
    };
    let parse_id = |lineno: usize, token: &str| {
        token
            .parse::<usize>()
            .map_err(|_| located(lineno, format!("expected an object id, got {token:?}")))
    };
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(2, char::is_whitespace);
        let verb = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match verb {
            "insert" => ops.push(MutOp::Insert(parse_spec(lineno, rest)?)),
            "delete" => ops.push(MutOp::Delete(parse_id(lineno, rest)?)),
            "update" => {
                let mut parts = rest.splitn(2, char::is_whitespace);
                let id = parse_id(lineno, parts.next().unwrap_or(""))?;
                let spec = parts.next().unwrap_or("").trim();
                if spec.is_empty() {
                    return Err(located(lineno, "update needs an object spec".into()));
                }
                ops.push(MutOp::Update(id, parse_spec(lineno, spec)?));
            }
            other => {
                return Err(located(
                    lineno,
                    format!("unknown op {other:?} (use insert | delete | update)"),
                ))
            }
        }
    }
    if ops.is_empty() {
        return Err(CliError::Data(format!(
            "{}: no ops (all lines blank or comments)",
            path.display()
        )));
    }
    Ok(ops)
}

/// `osd mutate`: load a CSV dataset, apply an `--ops` mutation script
/// through the epoch-publishing store (insert / delete / update, one
/// snapshot per op), and report the published epochs. `--out FILE` writes
/// the surviving objects back as CSV.
///
/// # Errors
/// Returns a [`CliError`] on bad flags, unreadable data or a malformed
/// ops script. Individual ops that fail (dead id, dimension mismatch)
/// are reported and skipped — they publish nothing.
pub fn cmd_mutate(flags: &Flags) -> Result<(), CliError> {
    let data = flags.required("--data")?;
    let ops_file = flags.required("--ops")?;
    let shards: usize = flags.parsed_or("--shards", 1)?;
    let out = flags.value("--out");

    let (objects, dim) = load_dataset(data, None)?;
    let ops = read_ops_file(Path::new(ops_file), dim)?;
    // Shadow copy of the logical id space, for `--out`: store rows follow
    // the shard layout, not ids, so surviving objects are re-emitted from
    // here in id order.
    let mut shadow: Vec<Option<osd_uncertain::UncertainObject>> =
        objects.iter().cloned().map(Some).collect();
    let published = PublishedIndex::new(build_index(objects, shards)?);

    for (i, op) in ops.into_iter().enumerate() {
        let label = op.label();
        let outcome = match op {
            MutOp::Insert(obj) => published.insert(obj.clone()).map(|id| {
                shadow.push(Some(obj));
                format!("object {id}")
            }),
            MutOp::Delete(id) => published.delete(id).map(|()| {
                shadow[id] = None;
                format!("object {id}")
            }),
            MutOp::Update(id, obj) => published.update(id, obj.clone()).map(|()| {
                shadow[id] = Some(obj);
                format!("object {id}")
            }),
        };
        match outcome {
            Ok(what) => println!(
                "op {:>4} {label:<6} {what}: published epoch {}",
                i + 1,
                published.pin().epoch()
            ),
            Err(e) => println!("op {:>4} {label:<6} failed ({e}); nothing published", i + 1),
        }
    }

    let snap = published.pin();
    println!(
        "final snapshot: epoch {}, {} live object(s), {} tombstone(s), {} id(s)",
        snap.epoch(),
        snap.live_len(),
        snap.tombstone_count(),
        snap.len()
    );
    if let Some(out) = out {
        let live: Vec<osd_uncertain::UncertainObject> = shadow.into_iter().flatten().collect();
        write_objects_csv(Path::new(out), &live).map_err(|e| CliError::Data(e.to_string()))?;
        println!("wrote {} live objects to {out}", live.len());
    }
    Ok(())
}

/// `osd watch`: a standing NN-candidate query over a mutating dataset.
/// Loads the data, computes the initial candidate set, then applies each
/// `--ops` mutation through the epoch-publishing store and incrementally
/// repairs the candidates after every published snapshot, printing how
/// each epoch was absorbed (up-to-date / incremental repair / full
/// re-query).
///
/// # Errors
/// Returns a [`CliError`] on bad flags, unreadable data or a malformed
/// ops script.
pub fn cmd_watch(flags: &Flags) -> Result<(), CliError> {
    let data = flags.required("--data")?;
    let ops_file = flags.required("--ops")?;
    let query = parse_query_spec(flags.required("--query")?)?;
    let op = parse_operator(flags.value("--op").unwrap_or("psd"))?;
    let shards: usize = flags.parsed_or("--shards", 1)?;

    let (objects, dim) = load_dataset(data, Some(&query))?;
    let ops = read_ops_file(Path::new(ops_file), dim)?;
    let published = PublishedIndex::new(build_index(objects, shards)?);

    let snap = published.pin();
    let mut handle = ContinuousNnc::new(&*snap, PreparedQuery::new(query), op, FilterConfig::all());
    drop(snap);
    println!(
        "epoch {:>4}: {} candidate(s) under {}: {:?}",
        handle.epoch(),
        handle.candidates().len(),
        op.label(),
        handle.ids()
    );

    for (i, mop) in ops.into_iter().enumerate() {
        let label = mop.label();
        let outcome = match mop {
            MutOp::Insert(obj) => published.insert(obj).map(|id| format!("object {id}")),
            MutOp::Delete(id) => published.delete(id).map(|()| format!("object {id}")),
            MutOp::Update(id, obj) => published.update(id, obj).map(|()| format!("object {id}")),
        };
        let what = match outcome {
            Ok(what) => what,
            Err(e) => {
                println!("op {:>4} {label:<6} failed ({e}); nothing published", i + 1);
                continue;
            }
        };
        let snap = published.pin();
        let repair = handle.refresh(&*snap);
        let how = match repair {
            Repair::UpToDate => "up to date".to_string(),
            Repair::Full => "full re-query".to_string(),
            Repair::Incremental {
                rechecked,
                mbr_pruned,
                admitted,
                evicted,
            } => format!(
                "repaired (rechecked {rechecked}, mbr-pruned {mbr_pruned}, \
                 admitted {admitted}, evicted {evicted})"
            ),
        };
        println!(
            "epoch {:>4}: {label} {what} → {how} → {} candidate(s): {:?}",
            handle.epoch(),
            handle.candidates().len(),
            handle.ids()
        );
    }
    Ok(())
}

/// `osd query`: load a CSV dataset and print the NN candidates of one
/// query (`--query "x,y;…"`) or of a whole batch (`--queries FILE`, one
/// spec per line, spread over `--threads N` worker threads). `--shards N`
/// space-partitions the store into N STR tiles (results are bit-identical
/// to the flat index).
///
/// Batch mode runs warm by default — one snapshot-scoped cache shared by
/// all queries — and dispatches in Morton order for locality; results are
/// **always printed in input order** regardless. `--warm=off` is the
/// escape hatch back to fully cold execution (bit-identical to the
/// default output).
///
/// # Errors
/// Returns a [`CliError`] on bad flags or unreadable data.
pub fn cmd_query(flags: &Flags) -> Result<(), CliError> {
    let data = flags.required("--data")?;
    let op = parse_operator(flags.value("--op").unwrap_or("psd"))?;
    let k: usize = flags.parsed_or("--k", 1)?;
    if k == 0 {
        return Err(CliError::BadArgument("--k must be at least 1".into()));
    }
    let threads: usize = flags.parsed_or("--threads", 1)?;
    let shards: usize = flags.parsed_or("--shards", 1)?;
    let progressive = flags.has("--progressive");
    let warm = flags.warm()?;
    let profile = flags.profile()?;
    let trace_fmt = flags.trace()?;
    // Tracing is pure observability: candidates and counters are
    // bit-identical with or without it.
    let cfg = if trace_fmt.is_some() {
        FilterConfig::all().traced()
    } else {
        FilterConfig::all()
    };

    if let Some(file) = flags.value("--queries") {
        if flags.value("--query").is_some() {
            return Err(CliError::BadArgument(
                "--query and --queries are mutually exclusive".into(),
            ));
        }
        if progressive || k > 1 {
            return Err(CliError::BadArgument(
                "--queries batch mode supports neither --progressive nor --k".into(),
            ));
        }
        let (objects, dim) = load_dataset(data, None)?;
        let queries = read_query_file(Path::new(file), dim)?;
        let db = build_index(objects, shards)?;
        let pool = WarmPool::new();
        let mut engine = QueryEngine::with_config(&db, op, cfg);
        if warm {
            engine = engine.with_warm(&pool);
        }
        let results = engine.run_batch(&queries, threads.max(1));
        for (i, res) in results.iter().enumerate() {
            println!(
                "query {:>4}: {} candidates under {}:",
                i + 1,
                res.candidates.len(),
                op.label()
            );
            for c in &res.candidates {
                println!("  object {:>6}  min-dist {:>10.3}", c.id, c.min_dist);
            }
        }
        if let Some(fmt) = profile {
            // Per-worker registries fold exactly, so the batch profile is
            // identical regardless of --threads. The warm cache's footprint
            // is the pool's, stamped once after the batch.
            let mut metrics = batch_metrics(&results);
            let ws = pool.stats();
            metrics.warm_cache(ws.evictions, ws.resident_bytes);
            print!("{}", render_profile(fmt, &metrics, &batch_stats(&results)));
        }
        if let Some(fmt) = trace_fmt {
            let traces: Vec<&TraceData> = results.iter().filter_map(|r| r.trace.as_ref()).collect();
            emit_traces(fmt, &traces, flags)?;
        }
        return Ok(());
    }

    let query = parse_query_spec(flags.required("--query")?)?;
    let (objects, _) = load_dataset(data, Some(&query))?;
    let db = build_index(objects, shards)?;
    let pq = PreparedQuery::new(query);

    let res = run_query(&db, &pq, op, k, &cfg, progressive, &mut |line| {
        println!("{line}")
    });
    if let Some(fmt) = profile {
        print!("{}", render_profile(fmt, &res.metrics, &res.stats));
    }
    if let Some(fmt) = trace_fmt {
        let traces: Vec<&TraceData> = res.trace.as_ref().into_iter().collect();
        emit_traces(fmt, &traces, flags)?;
    }
    Ok(())
}

/// Runs one query with dominator budget `k` and hands its output lines to
/// `emit`: streamed as the traversal emits each candidate when
/// `progressive`, otherwise as one list after the traversal drains. Both
/// share one traversal loop; `k` above 1 adds a dominator count per
/// candidate.
fn run_query(
    db: &dyn SpatialIndex,
    pq: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
    progressive: bool,
    emit: &mut dyn FnMut(String),
) -> KnncResult {
    let dominators_col = |d: usize| {
        if k > 1 {
            format!("  dominators {d}")
        } else {
            String::new()
        }
    };
    if progressive {
        emit(format!(
            "{:>8} {:>12} {:>12}",
            "object", "min-dist", "elapsed"
        ));
    }
    let mut stream = ProgressiveNnc::with_k(db, pq, op, k, cfg, None);
    let mut dominators = Vec::new();
    while let Some(c) = stream.next_candidate() {
        let d = stream.dominators();
        if progressive {
            emit(format!(
                "{:>8} {:>12.3} {:>10.2?}{}",
                c.id,
                c.min_dist,
                c.elapsed,
                dominators_col(d)
            ));
        }
        dominators.push(d);
    }
    let res = stream.into_result();
    let res = KnncResult {
        candidates: res.candidates.into_iter().zip(dominators).collect(),
        stats: res.stats,
        metrics: res.metrics,
        trace: res.trace,
    };
    if !progressive {
        let robust = if k > 1 {
            format!(" {k}-robust")
        } else {
            String::new()
        };
        emit(format!(
            "{}{robust} candidates under {}:",
            res.candidates.len(),
            op.label()
        ));
        for (c, d) in &res.candidates {
            emit(format!(
                "  object {:>6}  min-dist {:>10.3}{}",
                c.id,
                c.min_dist,
                dominators_col(*d)
            ));
        }
    }
    res
}

/// `osd trace`: inspect a flight-recorder file written by
/// `osd query --trace`. `osd trace last [N]` prints the N most recent
/// traces, `osd trace slowest [N]` the N slowest known ones (slow log ∪
/// ring). `--trace=chrome` switches the rendering to Chrome trace-event
/// JSON.
///
/// # Errors
/// Returns a [`CliError`] on an unknown mode, a malformed count or an
/// unreadable/corrupt recorder file.
pub fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    let words: Vec<&str> = flags
        .raw()
        .iter()
        .map(String::as_str)
        .take_while(|w| !w.starts_with("--"))
        .collect();
    let mode = words.first().copied().unwrap_or("last");
    let n: usize = match words.get(1) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::BadArgument(format!("trace count {v:?}")))?,
        None => 8,
    };
    if words.len() > 2 {
        return Err(CliError::BadArgument(format!(
            "unexpected argument {:?} (usage: osd trace last|slowest [N])",
            words[2]
        )));
    }
    let path = std::path::PathBuf::from(flags.value("--recorder").unwrap_or(DEFAULT_RECORDER_FILE));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?;
    let recorder = FlightRecorder::from_log(&text)
        .map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?;
    let traces = match mode {
        "last" => recorder.last(n),
        "slowest" => recorder.slowest(n),
        other => {
            return Err(CliError::BadArgument(format!(
                "unknown trace mode {other:?} (use last | slowest)"
            )))
        }
    };
    println!(
        "flight recorder {}: {} recorded, {} in ring, {} evicted, {} promoted slow",
        path.display(),
        recorder.recorded(),
        recorder.len(),
        recorder.evicted(),
        recorder.promoted()
    );
    match flags.trace()?.unwrap_or(TraceFormat::Text) {
        TraceFormat::Chrome => println!("{}", osd_obs::chrome_trace(&traces)),
        TraceFormat::Text => {
            for t in traces {
                print!("{}", osd_obs::render_text(t));
            }
        }
    }
    Ok(())
}

/// Renders the profile document for `--profile`: the osd-obs registry plus
/// every [`Stats`] counter, named by [`Stats::named`], as extra pairs.
/// `Stats` is the only record of those counters, so the document reports
/// them in the obs-off build too.
fn render_profile(format: ProfileFormat, metrics: &QueryMetrics, stats: &Stats) -> String {
    let extra = stats.named();
    match format {
        ProfileFormat::Json => osd_obs::expo::to_json(metrics, &extra),
        ProfileFormat::Prom => osd_obs::expo::to_prometheus(metrics, &extra),
    }
}

/// Reads a batch-query file: one `"x,y;x,y;…"` spec per line; blank lines
/// and `#` comments are skipped. Every query must match the dataset's
/// dimensionality `dim`.
fn read_query_file(path: &Path, dim: usize) -> Result<Vec<PreparedQuery>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Data(e.to_string()))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let obj = parse_query_spec(line).map_err(|e| {
            CliError::BadArgument(format!("{}:{}: {e}", path.display(), lineno + 1))
        })?;
        if obj.dim() != dim {
            return Err(CliError::Data(format!(
                "{}:{}: query dimensionality {} does not match the dataset's {}",
                path.display(),
                lineno + 1,
                obj.dim(),
                dim
            )));
        }
        queries.push(PreparedQuery::new(obj));
    }
    if queries.is_empty() {
        return Err(CliError::Data(format!(
            "{}: no queries (all lines blank or comments)",
            path.display()
        )));
    }
    Ok(queries)
}

/// `--matrix` is quadratic in both checks and output; refuse beyond this.
const MATRIX_CAP: usize = 64;

/// `osd explain`: *why* is an object (not) a candidate? Prints the
/// dominators of `--object V` (empty iff `V` is a candidate), or with
/// `--matrix` the full pairwise dominance relation of a small dataset.
///
/// # Errors
/// Returns a [`CliError`] on bad flags or unreadable data.
pub fn cmd_explain(flags: &Flags) -> Result<(), CliError> {
    let data = flags.required("--data")?;
    let query = parse_query_spec(flags.required("--query")?)?;
    let op = parse_operator(flags.value("--op").unwrap_or("psd"))?;
    let shards: usize = flags.parsed_or("--shards", 1)?;
    let matrix = flags.has("--matrix");
    let object = flags.value("--object");
    if object.is_none() && !matrix {
        return Err(CliError::Missing("--object (or --matrix)".into()));
    }

    let (objects, _) = load_dataset(data, Some(&query))?;
    let db = build_index(objects, shards)?;
    let pq = PreparedQuery::new(query);
    let cfg = FilterConfig::all();
    let pool = WarmPool::new();
    println!(
        "snapshot: epoch {}, {} live object(s), {} tombstone(s)",
        db.epoch(),
        db.live_len(),
        db.tombstone_count()
    );

    if let Some(spec) = object {
        let v: usize = spec
            .parse()
            .map_err(|_| CliError::BadArgument("--object must be an id".into()))?;
        if v >= db.len() {
            return Err(CliError::Data(format!(
                "object {v} out of range (n = {})",
                db.len()
            )));
        }
        let doms = dominators_of_with(&db, &pq, op, v, &cfg, Some(&pool));
        let ws = pool.stats();
        println!(
            "warm: {} hit(s), {} miss(es), {} eviction(s), {} resident byte(s)",
            ws.hits, ws.misses, ws.evictions, ws.resident_bytes
        );
        if doms.is_empty() {
            println!(
                "object {v} is a candidate under {}: no dominators",
                op.label()
            );
        } else {
            println!(
                "object {v} is not a candidate under {}: dominated by {} object(s):",
                op.label(),
                doms.len()
            );
            for u in &doms {
                println!("  object {u:>6}");
            }
        }
    }

    if matrix {
        if db.len() > MATRIX_CAP {
            return Err(CliError::BadArgument(format!(
                "--matrix is quadratic; dataset has {} objects (cap {MATRIX_CAP})",
                db.len()
            )));
        }
        let m = dominance_matrix(&db, &pq, op, &cfg);
        println!(
            "dominance matrix under {} (row dominates column; '#' = dominates):",
            op.label()
        );
        for (u, row) in m.iter().enumerate() {
            let cells: String = row.iter().map(|&d| if d { '#' } else { '.' }).collect();
            println!("{u:>6} {cells}");
        }
    }
    Ok(())
}

/// `osd score`: score one object of the dataset under the implemented NN
/// functions (useful once the user picks a function for the shortlist).
///
/// # Errors
/// Returns a [`CliError`] on bad flags or unreadable data.
pub fn cmd_score(flags: &Flags) -> Result<(), CliError> {
    let data = flags.required("--data")?;
    let query = parse_query_spec(flags.required("--query")?)?;
    let id: usize = flags
        .required("--object")?
        .parse()
        .map_err(|_| CliError::BadArgument("--object must be an id".into()))?;
    let (objects, _) = load_dataset(data, Some(&query))?;
    let obj = objects.get(id).ok_or_else(|| {
        CliError::Data(format!("object {id} out of range (n = {})", objects.len()))
    })?;

    println!("object {id} vs query:");
    for f in [
        N1Function::Min,
        N1Function::Mean,
        N1Function::Max,
        N1Function::Quantile(0.25),
        N1Function::Quantile(0.5),
        N1Function::Quantile(0.75),
    ] {
        println!("  {:<16} {:>12.4}", f.name(), f.score(obj, &query));
    }
    println!("  {:<16} {:>12.4}", "hausdorff", hausdorff(obj, &query));
    println!("  {:<16} {:>12.4}", "sum-min", sum_min(obj, &query));
    println!("  {:<16} {:>12.4}", "emd", emd(obj, &query));
    Ok(())
}

/// `osd gen`: generate a synthetic/surrogate dataset into a CSV file.
///
/// # Errors
/// Returns a [`CliError`] on bad flags (an `--n`, `--m` or `--dim` of 0,
/// a non-finite or negative `--edge`) or write failures.
pub fn cmd_gen(flags: &Flags) -> Result<(), CliError> {
    let out = flags.required("--out")?;
    let kind = flags.value("--dataset").unwrap_or("anti");
    let n: usize = flags.parsed_or("--n", 1000)?;
    let m: usize = flags.parsed_or("--m", 10)?;
    let dim: usize = flags.parsed_or("--dim", 3)?;
    let edge: f64 = flags.parsed_or("--edge", 400.0)?;
    let seed: u64 = flags.parsed_or("--seed", 42)?;
    for (flag, value) in [("--n", n), ("--m", m), ("--dim", dim)] {
        if value == 0 {
            return Err(CliError::BadArgument(format!("{flag} must be at least 1")));
        }
    }
    if !edge.is_finite() {
        return Err(CliError::BadArgument("--edge must be finite".into()));
    }
    if edge < 0.0 {
        return Err(CliError::BadArgument("--edge must not be negative".into()));
    }

    let objects = match kind {
        "anti" | "indep" => {
            let centers = if kind == "anti" {
                CenterDistribution::AntiCorrelated
            } else {
                CenterDistribution::Independent
            };
            generate_objects(&SynthParams {
                n,
                dim,
                instances: m,
                edge,
                centers,
                seed,
            })
        }
        "gw" | "gowalla" => gowalla_like(n, m, seed),
        "nba" => nba_like(n, m, seed),
        other => {
            return Err(CliError::BadArgument(format!(
                "unknown dataset {other:?} (use anti | indep | gw | nba)"
            )))
        }
    };
    write_objects_csv(Path::new(out), &objects).map_err(|e| CliError::Data(e.to_string()))?;
    println!(
        "wrote {} objects × {} instances to {out}",
        objects.len(),
        objects[0].len()
    );
    Ok(())
}

/// Dispatches a subcommand. Returns `Err` with a printable message on any
/// failure; the caller maps it to the exit code.
///
/// # Errors
/// Propagates the subcommand's [`CliError`].
pub fn run(subcommand: &str, flags: &Flags) -> Result<(), CliError> {
    match subcommand {
        "query" => cmd_query(flags),
        "explain" => cmd_explain(flags),
        "score" => cmd_score(flags),
        "gen" => cmd_gen(flags),
        "mutate" => cmd_mutate(flags),
        "watch" => cmd_watch(flags),
        "trace" => cmd_trace(flags),
        other => Err(CliError::BadArgument(format!(
            "unknown subcommand {other:?} (use query | explain | score | gen | mutate | watch | trace)"
        ))),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "osd — optimal spatial dominance NN-candidate search

USAGE:
  osd gen   --out data.csv [--dataset anti|indep|gw|nba] [--n N] [--m M]
            [--dim D] [--edge H] [--seed S]
  osd query --data data.csv --query \"x,y;x,y;…\" [--op ssd|sssd|psd|fsd|f+sd]
            [--k K] [--progressive] [--shards N]
            [--profile[=json|prom]] [--trace[=text|chrome]]
            [--recorder FILE] [--slow-ms MS]
  osd query --data data.csv --queries queries.txt [--op …] [--threads N]
            [--shards N] [--warm=on|off]
            [--profile[=json|prom]] [--trace[=text|chrome]]
            (one \"x,y;x,y;…\" spec per line; blank lines and # comments skipped)
  osd trace [last|slowest] [N] [--recorder FILE] [--trace=text|chrome]
            (inspect the flight-recorder file written by osd query --trace)
  osd explain --data data.csv --query \"x,y;…\" (--object ID | --matrix)
            [--op …] [--shards N]
  osd score --data data.csv --query \"x,y;…\" --object ID
  osd mutate --data data.csv --ops ops.txt [--shards N] [--out new.csv]
            (ops.txt: one op per line — insert x,y;… | delete ID |
             update ID x,y;… — each publishing one snapshot epoch)
  osd watch --data data.csv --query \"x,y;…\" --ops ops.txt
            [--op ssd|sssd|psd|fsd|f+sd] [--shards N]
            (standing query: the candidate set is incrementally repaired
             after every published epoch)

`--shards N` space-partitions the store into N STR tiles, each with its own
global R-tree; all tile roots are searched as one forest with a shared prune
bound, so candidates are bit-identical to the flat index. `--threads N`
applies to batch mode (`--queries`) only: it spreads the queries over N
worker threads.

Batch mode (`--queries`) runs warm by default: one snapshot-scoped cache is
shared by every query, and queries are dispatched in Morton (locality)
order. Output order always matches input order regardless. `--warm=off`
falls back to fully cold per-query state, bit-identical to the default
output.

`--profile` appends a per-phase timing/counter breakdown (prepare,
rtree-descent, level-prune, validate, refine) after the results, as JSON
(default) or Prometheus text.

`--trace` records a per-query structured trace tree and appends it to a
flight-recorder file (default osd-flight.log, override with --recorder;
--slow-ms sets the slow-query promotion threshold for new recorder
files). `--trace=chrome` prints Chrome trace-event JSON for
chrome://tracing / Perfetto instead of the indented text tree; `osd
trace` reads the file back.
"
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use osd_core::Database;

    fn flags(kv: &[&str]) -> Flags {
        Flags::new(kv.iter().map(|s| s.to_string()).collect())
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("osd-cli-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn gen_then_query_roundtrip() {
        let out = tmp("gen.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "50",
            "--m",
            "4",
            "--dim",
            "2",
        ]))
        .unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000;5100,5100",
            "--op",
            "sssd",
        ]))
        .unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--k",
            "3",
        ]))
        .unwrap();
        cmd_score(&flags(&["--data", &out, "--query", "0,0", "--object", "0"])).unwrap();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn batch_query_file_runs_multithreaded() {
        let out = tmp("batch.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "40",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let qfile = tmp("batch-queries.txt");
        std::fs::write(
            &qfile,
            "# workload\n5000,5000;5100,5100\n\n2000,8000\n7500,2500;7600,2400\n",
        )
        .unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--op",
            "psd",
            "--threads",
            "4",
        ]))
        .unwrap();
        // --query and --queries together is an error.
        let err = cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--query",
            "1,2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&qfile).ok();
    }

    #[test]
    fn batch_escape_hatches_run_and_bad_warm_is_rejected() {
        let out = tmp("batch-cold.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "30",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let qfile = tmp("batch-cold-queries.txt");
        std::fs::write(&qfile, "5000,5000\n2000,8000\n7500,2500\n").unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--warm=off",
            "--threads",
            "2",
        ]))
        .unwrap();
        let err = cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--warm=tepid",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--warm"));
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&qfile).ok();
    }

    #[test]
    fn batch_query_file_errors_are_located() {
        let out = tmp("batchdim.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "10",
            "--dim",
            "2",
        ]))
        .unwrap();
        let qfile = tmp("batchdim-queries.txt");
        std::fs::write(&qfile, "1,2\n3,4,5\n").unwrap();
        let err = cmd_query(&flags(&["--data", &out, "--queries", &qfile])).unwrap_err();
        assert!(err.to_string().contains(":2:"));
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&qfile).ok();
    }

    #[test]
    fn dimension_mismatch_reported() {
        let out = tmp("dim.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "10",
            "--dim",
            "2",
        ]))
        .unwrap();
        let query = ["--data", &out, "--query", "1,2,3"];
        let errs = [
            cmd_query(&flags(&query)),
            cmd_score(&flags(&[&query[..], &["--object", "0"]].concat())),
            cmd_explain(&flags(&[&query[..], &["--object", "0"]].concat())),
            cmd_watch(&flags(&[&query[..], &["--ops", "unread.ops"]].concat())),
        ];
        std::fs::remove_file(&out).ok();
        for err in errs.map(Result::unwrap_err) {
            assert!(matches!(err, CliError::Data(_)), "got {err:?}");
            assert!(err.to_string().contains("dimensionality"), "got {err}");
        }
    }

    #[test]
    fn empty_dataset_reported_not_panicked() {
        let out = tmp("empty.csv");
        std::fs::write(&out, "").unwrap();
        let err = cmd_query(&flags(&["--data", &out, "--query", "1,2"])).unwrap_err();
        std::fs::remove_file(&out).ok();
        assert!(matches!(err, CliError::Data(_)), "got {err:?}");
    }

    #[test]
    fn non_finite_dataset_coordinate_reported_not_panicked() {
        let out = tmp("nan.csv");
        std::fs::write(&out, "object_id,weight,coords...\n1,1,1,1\n2,1,nan,5\n").unwrap();
        let err = cmd_query(&flags(&["--data", &out, "--query", "1,1"])).unwrap_err();
        std::fs::remove_file(&out).ok();
        assert!(matches!(err, CliError::Data(_)), "got {err:?}");
        assert!(err.to_string().contains("line 3"), "got {err}");
    }

    #[test]
    fn coordinates_at_the_input_bound_query_without_panic() {
        // Farthest apart the parsers allow: every squared distance stays
        // finite, so every operator answers instead of panicking.
        let out = tmp("bound.csv");
        std::fs::write(
            &out,
            "object_id,weight,coords...\n0,1,1e150,1e150\n0,1,-1e150,-1e150\n1,1,0,0\n2,1,1e150,-1e150\n",
        )
        .unwrap();
        for op in ["ssd", "sssd", "psd", "fsd", "f+sd"] {
            let spec = "-1e150,1e150;1e150,-1e150";
            cmd_query(&flags(&["--data", &out, "--query", spec, "--op", op])).unwrap();
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn profile_renders_all_phases_and_legacy_counters() {
        use osd_core::nn_candidates;
        let out = tmp("profile.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "30",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let objects = read_objects_csv(Path::new(&out)).unwrap();
        std::fs::remove_file(&out).ok();
        let db = Database::try_new(objects).unwrap();
        let pq = PreparedQuery::new(parse_query_spec("5000,5000;5100,5100").unwrap());
        let res = nn_candidates(&db, &pq, Operator::PSd, &FilterConfig::all());
        let json = render_profile(ProfileFormat::Json, &res.metrics, &res.stats);
        for phase in [
            "prepare",
            "rtree-descent",
            "level-prune",
            "validate",
            "refine",
        ] {
            assert!(json.contains(&format!("\"{phase}\"")), "missing {phase}");
        }
        for legacy in [
            "instance_comparisons",
            "dominance_checks",
            "flow_runs",
            "mbr_checks",
        ] {
            assert!(json.contains(legacy), "missing {legacy}");
        }
        // Each counter has one home, so each name appears once.
        assert_eq!(json.matches("cache_hits").count(), 1);
        assert_eq!(json.matches("rtree_node").count(), 1);
        let prom = render_profile(ProfileFormat::Prom, &res.metrics, &res.stats);
        assert!(prom.contains("osd_counter{name=\"dominance_checks\"}"));
        assert!(prom.contains("osd_phase_latency_bucket{phase=\"validate\""));
    }

    #[test]
    fn profile_reports_stats_counters_in_both_builds() {
        // An empty registry stands in for the obs-off build: the counters
        // `Stats` holds must still carry their real values, once each.
        let stats = Stats {
            instance_comparisons: 135,
            dominance_checks: 59,
            flow_runs: 2,
            mbr_checks: 17,
            rtree_nodes_visited: 63,
            cache_hits: 5,
            cache_misses: 4,
        };
        let json = render_profile(ProfileFormat::Json, &QueryMetrics::new(), &stats);
        for (name, value) in stats.named() {
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 1, "{name}");
            assert!(json.contains(&format!("\"{name}\": {value}")), "{name}");
        }
        let prom = render_profile(ProfileFormat::Prom, &QueryMetrics::new(), &stats);
        for (name, value) in stats.named() {
            let sample = format!("osd_counter{{name=\"{name}\"}} {value}\n");
            assert_eq!(prom.matches(&sample).count(), 1, "{name}");
        }
    }

    #[test]
    fn query_accepts_profile_in_all_modes() {
        let out = tmp("profmode.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "20",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let base = ["--data", &out, "--query", "5000,5000"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            flags(&v)
        };
        cmd_query(&with(&["--profile"])).unwrap();
        cmd_query(&with(&["--profile=prom", "--k", "2"])).unwrap();
        cmd_query(&with(&["--profile=json", "--progressive"])).unwrap();
        assert!(cmd_query(&with(&["--profile=csv"])).is_err());
        let qfile = tmp("profmode-queries.txt");
        std::fs::write(&qfile, "5000,5000\n2000,8000\n").unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--threads",
            "2",
            "--profile",
        ]))
        .unwrap();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&qfile).ok();
    }

    #[test]
    fn query_rejects_k_zero() {
        let out = tmp("kzero.csv");
        cmd_gen(&flags(&["--out", &out, "--n", "10", "--dim", "2"])).unwrap();
        let err = cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--k",
            "0",
        ]))
        .unwrap_err();
        std::fs::remove_file(&out).ok();
        assert!(matches!(err, CliError::BadArgument(_)), "got {err:?}");
        assert!(err.to_string().contains("--k"), "got {err}");
    }

    #[test]
    fn gen_rejects_degenerate_flags() {
        let out = tmp("degenerate.csv");
        for (flag, args) in [
            ("--n", &["--n", "0"][..]),
            ("--m", &["--m", "0"]),
            ("--dim", &["--dim", "0"]),
            ("--edge", &["--edge", "nan"]),
            ("--edge", &["--edge", "inf"]),
            ("--edge", &["--edge", "-5"]),
            ("--n", &["--dataset", "gw", "--n", "0"]),
            ("--m", &["--dataset", "nba", "--m", "0"]),
        ] {
            let mut kv = vec!["--out", out.as_str()];
            kv.extend_from_slice(args);
            let err = cmd_gen(&flags(&kv)).unwrap_err();
            assert!(
                matches!(err, CliError::BadArgument(_)),
                "{args:?}: got {err:?}"
            );
            assert!(err.to_string().contains(flag), "{args:?}: got {err}");
        }
        assert!(!Path::new(&out).exists(), "no generator may run");
    }

    #[test]
    fn progressive_query_streams_k_robust_candidates() {
        use osd_core::k_nn_candidates;
        let out = tmp("progk.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "anti",
            "--n",
            "60",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let base = ["--data", &out, "--query", "5000,5000", "--progressive"];
        cmd_query(&flags(&[&base[..], &["--k", "3"]].concat())).unwrap();
        let objects = read_objects_csv(Path::new(&out)).unwrap();
        std::fs::remove_file(&out).ok();
        let db = Database::try_new(objects).unwrap();
        let pq = PreparedQuery::new(parse_query_spec("5000,5000").unwrap());
        let cfg = FilterConfig::all();
        let expected = k_nn_candidates(&db, &pq, Operator::PSd, 3, &cfg);
        assert!(
            expected.candidates.iter().any(|&(_, d)| d > 0),
            "the fixture must exercise non-zero dominator counts"
        );
        let mut lines = Vec::new();
        let res = run_query(&db, &pq, Operator::PSd, 3, &cfg, true, &mut |l| {
            lines.push(l)
        });
        assert_eq!(res.ids(), expected.ids(), "the k-robust set, not plain NNC");
        assert_eq!(res.stats, expected.stats);
        // A header, then one streamed row per candidate ending in its count.
        assert_eq!(lines.len(), expected.candidates.len() + 1);
        assert!(lines[0].contains("elapsed"));
        for (line, (c, d)) in lines[1..].iter().zip(&expected.candidates) {
            assert!(line.trim_start().starts_with(&c.id.to_string()), "{line}");
            assert!(line.ends_with(&format!("dominators {d}")), "{line}");
        }
        // At k = 1 the stream is NNC's, without a dominator column.
        let mut nnc_lines = Vec::new();
        run_query(&db, &pq, Operator::PSd, 1, &cfg, true, &mut |l| {
            nnc_lines.push(l)
        });
        assert!(nnc_lines.iter().all(|l| !l.contains("dominators")));
    }

    #[test]
    fn sharded_query_paths_run() {
        let out = tmp("shards.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "60",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let base = ["--data", &out, "--query", "5000,5000", "--shards", "4"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            flags(&v)
        };
        // Merged traversal, k-robust, progressive.
        cmd_query(&with(&[])).unwrap();
        cmd_query(&with(&["--k", "2"])).unwrap();
        cmd_query(&with(&["--progressive"])).unwrap();
        // Batch mode and explain accept --shards too.
        let qfile = tmp("shards-queries.txt");
        std::fs::write(&qfile, "5000,5000\n2000,8000\n").unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--queries",
            &qfile,
            "--shards",
            "4",
            "--threads",
            "2",
        ]))
        .unwrap();
        cmd_explain(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--object",
            "3",
            "--shards",
            "4",
        ]))
        .unwrap();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&qfile).ok();
    }

    #[test]
    fn explain_object_and_matrix() {
        let out = tmp("explain.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "15",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        cmd_explain(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--object",
            "3",
            "--op",
            "ssd",
        ]))
        .unwrap();
        cmd_explain(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--matrix",
        ]))
        .unwrap();
        // Either --object or --matrix is required.
        let err = cmd_explain(&flags(&["--data", &out, "--query", "5000,5000"])).unwrap_err();
        assert!(matches!(err, CliError::Missing(_)));
        // Out-of-range ids are a data error, not a panic.
        let err = cmd_explain(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--object",
            "999",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn explain_matrix_refuses_large_datasets() {
        let out = tmp("explaincap.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "80",
            "--m",
            "2",
            "--dim",
            "2",
        ]))
        .unwrap();
        let err = cmd_explain(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--matrix",
        ]))
        .unwrap_err();
        std::fs::remove_file(&out).ok();
        assert!(err.to_string().contains("quadratic"));
    }

    #[test]
    fn mutate_applies_script_and_writes_survivors() {
        let out = tmp("mutate.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "20",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let ops = tmp("mutate-ops.txt");
        std::fs::write(
            &ops,
            "# churn\ninsert 100,100;110,110\ndelete 3\nupdate 5 200,200;210,205\ndelete 3\n",
        )
        .unwrap();
        let rewritten = tmp("mutate-out.csv");
        // The second `delete 3` fails (dead id) but must not abort the run.
        cmd_mutate(&flags(&[
            "--data", &out, "--ops", &ops, "--out", &rewritten,
        ]))
        .unwrap();
        // 20 seeds + 1 insert - 1 delete survive.
        let survivors = read_objects_csv(Path::new(&rewritten)).unwrap();
        assert_eq!(survivors.len(), 20);
        // The sharded layout takes the same script to the same survivors.
        let sharded = tmp("mutate-out-sharded.csv");
        cmd_mutate(&flags(&[
            "--data", &out, "--ops", &ops, "--shards", "3", "--out", &sharded,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&sharded).unwrap(),
            std::fs::read(&rewritten).unwrap()
        );
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&ops).ok();
        std::fs::remove_file(&rewritten).ok();
        std::fs::remove_file(&sharded).ok();
    }

    #[test]
    fn mutate_rejects_malformed_scripts() {
        let out = tmp("badops.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "5",
            "--dim",
            "2",
        ]))
        .unwrap();
        let check = |script: &str, needle: &str| {
            let ops = tmp("badops-ops.txt");
            std::fs::write(&ops, script).unwrap();
            let err = cmd_mutate(&flags(&["--data", &out, "--ops", &ops])).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "script {script:?}: {err} should mention {needle:?}"
            );
            std::fs::remove_file(&ops).ok();
        };
        check("frobnicate 3\n", "unknown op");
        check("delete x\n", "expected an object id");
        check("insert 1,2,3\n", "dimensionality");
        check("update 2\n", "update needs an object spec");
        check("# nothing\n\n", "no ops");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn watch_repairs_across_epochs() {
        let out = tmp("watch.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "25",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let ops = tmp("watch-ops.txt");
        std::fs::write(
            &ops,
            "insert 5000,5000;5010,5010\ninsert 9900,9900\ndelete 2\nupdate 4 4900,4900;4910,4905\n",
        )
        .unwrap();
        for shards in ["1", "3"] {
            cmd_watch(&flags(&[
                "--data",
                &out,
                "--query",
                "5000,5000",
                "--ops",
                &ops,
                "--shards",
                shards,
            ]))
            .unwrap();
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&ops).ok();
    }

    #[test]
    fn traced_query_writes_recorder_and_trace_reads_it_back() {
        let out = tmp("trace.csv");
        cmd_gen(&flags(&[
            "--out",
            &out,
            "--dataset",
            "indep",
            "--n",
            "30",
            "--m",
            "3",
            "--dim",
            "2",
        ]))
        .unwrap();
        let rec = tmp("trace-flight.log");
        std::fs::remove_file(&rec).ok();
        // Text trace on the single-query path, chrome on k>1, text again
        // progressively: all append to the same recorder file.
        cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--trace",
            "--recorder",
            &rec,
        ]))
        .unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "5000,5000",
            "--k",
            "2",
            "--trace=chrome",
            "--recorder",
            &rec,
        ]))
        .unwrap();
        cmd_query(&flags(&[
            "--data",
            &out,
            "--query",
            "2000,8000",
            "--progressive",
            "--trace",
            "--recorder",
            &rec,
        ]))
        .unwrap();
        if osd_core::QueryTrace::enabled() {
            let text = std::fs::read_to_string(&rec).unwrap();
            let recorder = FlightRecorder::from_log(&text).unwrap();
            assert_eq!(recorder.recorded(), 3);
            // Appended runs re-stamp seq so the stream stays coherent.
            let seqs: Vec<u64> = recorder.last(10).iter().map(|t| t.seq).collect();
            assert_eq!(seqs, vec![2, 1, 0]);
            cmd_trace(&flags(&["last", "2", "--recorder", &rec])).unwrap();
            cmd_trace(&flags(&["slowest", "--recorder", &rec, "--trace=chrome"])).unwrap();
            std::fs::remove_file(&rec).ok();
        } else {
            // obs off: a traced run records nothing and writes no file.
            assert!(!Path::new(&rec).exists());
            assert!(cmd_trace(&flags(&["last", "--recorder", &rec])).is_err());
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn trace_rejects_bad_modes_and_counts() {
        let rec = tmp("trace-bad.log");
        std::fs::write(&rec, FlightRecorder::default().to_log()).unwrap();
        assert!(cmd_trace(&flags(&["sideways", "--recorder", &rec])).is_err());
        assert!(cmd_trace(&flags(&["last", "many", "--recorder", &rec])).is_err());
        assert!(cmd_trace(&flags(&["last", "1", "extra", "--recorder", &rec])).is_err());
        cmd_trace(&flags(&["--recorder", &rec])).unwrap(); // defaults: last 8
        std::fs::remove_file(&rec).ok();
        assert!(cmd_trace(&flags(&["last", "--recorder", &rec])).is_err());
    }

    #[test]
    fn unknown_subcommand() {
        assert!(run("frobnicate", &flags(&[])).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let err = cmd_query(&flags(&["--query", "1,2"])).unwrap_err();
        assert!(matches!(err, CliError::Missing(_)));
    }
}
