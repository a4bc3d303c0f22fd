//! `repro warm` — epoch-keyed warm-cache benchmark.
//!
//! Runs a repeated-query workload twice — fully cold (one throwaway
//! dominance cache per query) and warm (one snapshot-scoped
//! [`WarmPool`] shared by the whole batch) — and measures three things:
//!
//! 1. **bound-reuse savings** — median per-query level-prune + refine
//!    time, warm vs cold; the warm path reuses level snapshots, group
//!    MBRs and bound distributions across queries, so this combined
//!    median is where the reuse shows up;
//! 2. **bit-identity** — candidate ids, `min_dist` bit patterns and
//!    [`Stats`](osd_core::Stats) counters must match the cold run
//!    exactly, flat and sharded (the warm cache is a pure
//!    memoisation layer);
//! 3. **invalidation under churn** — a [`PublishedIndex`] applies an
//!    insert/delete/update script; after every epoch the same batch
//!    runs warm (through the index's own pool, invalidated
//!    incrementally from the epoch log) and cold, again bit-identical.
//!
//! The full run writes `BENCH_warm.json`; `--smoke` runs a small
//! assertion-only point for CI and never touches the artifact.

use crate::datasets::{build_objects, build_queries, DatasetId};
use crate::params::Scale;
use crate::throughput::host_cpus;
use osd_core::{
    Database, FilterConfig, NncResult, Operator, PublishedIndex, QueryEngine, ShardedDatabase,
    WarmPool,
};
use osd_obs::Phase;
use std::time::Instant;

/// A full `repro warm` run.
#[derive(Debug, Clone)]
pub struct WarmReport {
    /// Dataset label.
    pub dataset: &'static str,
    /// Operator label.
    pub op: &'static str,
    /// Objects in the database.
    pub objects: usize,
    /// Distinct query specs in the workload.
    pub base_queries: usize,
    /// How many times each spec repeats (shuffled interleaving).
    pub repeats: usize,
    /// STR tiles of the sharded validation index.
    pub shards: usize,
    /// Logical CPUs the host reports.
    pub host_cpus: usize,
    /// Wall-clock seconds for the cold batch (sequential).
    pub cold_elapsed_s: f64,
    /// Wall-clock seconds for the warm batch (sequential).
    pub warm_elapsed_s: f64,
    /// Median per-query level-prune + refine nanoseconds, cold run.
    pub cold_prune_refine_median_ns: u64,
    /// Median per-query level-prune + refine nanoseconds, warm run.
    pub warm_prune_refine_median_ns: u64,
    /// `1 - warm/cold` over the combined medians (0 when unmeasurable).
    pub prune_refine_reduction: f64,
    /// Warm-cache hits over the whole warm batch.
    pub warm_hits: u64,
    /// Warm-cache misses (entry builds) over the whole warm batch.
    pub warm_misses: u64,
    /// Approximate bytes resident in the warm cache after the batch.
    pub warm_resident_bytes: u64,
    /// Warm results bit-identical to cold — flat index.
    pub bit_identical: bool,
    /// Warm results bit-identical to cold — sharded index.
    pub sharded_bit_identical: bool,
    /// Mutations published in the churn phase.
    pub churn_mutations: usize,
    /// Accumulated warm batch seconds across all churn epochs.
    pub churn_warm_s: f64,
    /// Accumulated cold batch seconds across the same epochs.
    pub churn_cold_s: f64,
    /// Warm entries discarded by epoch invalidation during churn.
    pub churn_evictions: u64,
    /// Warm results bit-identical to cold at every churn epoch.
    pub churn_bit_identical: bool,
}

impl WarmReport {
    /// Renders the report as a JSON document (hand-formatted; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        out.push_str(&format!("  \"operator\": \"{}\",\n", self.op));
        out.push_str(&format!("  \"objects\": {},\n", self.objects));
        out.push_str(&format!("  \"base_queries\": {},\n", self.base_queries));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        out.push_str(&format!(
            "  \"elapsed_s\": {{ \"cold\": {:.6}, \"warm\": {:.6} }},\n",
            self.cold_elapsed_s, self.warm_elapsed_s
        ));
        out.push_str(&format!(
            "  \"prune_refine_median_ns\": {{ \"cold\": {}, \"warm\": {}, \"reduction\": {:.4} }},\n",
            self.cold_prune_refine_median_ns,
            self.warm_prune_refine_median_ns,
            self.prune_refine_reduction
        ));
        out.push_str(&format!(
            "  \"warm_cache\": {{ \"hits\": {}, \"misses\": {}, \"resident_bytes\": {} }},\n",
            self.warm_hits, self.warm_misses, self.warm_resident_bytes
        ));
        out.push_str(&format!(
            "  \"bit_identical\": {},\n",
            self.bit_identical && self.sharded_bit_identical && self.churn_bit_identical
        ));
        out.push_str(&format!(
            "  \"sharded_bit_identical\": {},\n",
            self.sharded_bit_identical
        ));
        out.push_str(&format!(
            "  \"churn\": {{ \"mutations\": {}, \"warm_s\": {:.6}, \"cold_s\": {:.6}, \
             \"evictions\": {}, \"bit_identical\": {} }}\n",
            self.churn_mutations,
            self.churn_warm_s,
            self.churn_cold_s,
            self.churn_evictions,
            self.churn_bit_identical
        ));
        out.push_str("}\n");
        out
    }
}

/// `(id, min_dist bits, stats)` fingerprint of one result — equality is
/// the bit-identity contract.
fn fingerprint(r: &NncResult) -> (Vec<(usize, u64)>, osd_core::Stats) {
    (
        r.candidates
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect(),
        r.stats,
    )
}

/// Median per-query level-prune + refine nanoseconds (upper median; 0
/// when the batch is empty or the `obs` feature is off).
fn prune_refine_median(results: &[NncResult]) -> u64 {
    let mut per_query: Vec<u64> = results
        .iter()
        .map(|r| r.metrics.phase_nanos(Phase::LevelPrune) + r.metrics.phase_nanos(Phase::Refine))
        .collect();
    per_query.sort_unstable();
    per_query.get(per_query.len() / 2).copied().unwrap_or(0)
}

/// The repeated-query workload: each base spec appears `repeats` times,
/// interleaved (q0 q1 … qk q0 q1 …) so warm reuse is cross-query, not
/// just adjacent duplicates.
fn repeat_interleaved(
    base: &[osd_core::PreparedQuery],
    repeats: usize,
) -> Vec<osd_core::PreparedQuery> {
    let mut out = Vec::with_capacity(base.len() * repeats);
    for _ in 0..repeats {
        out.extend(base.iter().cloned());
    }
    out
}

/// Runs the warm benchmark under `scale`: cold/warm batches on the flat
/// index, a sharded cross-validation, and the churn phase.
///
/// # Panics
/// Panics if a mutation fails to publish — that would be an epoch
/// machinery bug, not a measurement artefact.
pub fn measure_warm(scale: &Scale, shards: usize, repeats: usize, op: Operator) -> WarmReport {
    let objects = build_objects(DatasetId::AN, scale);
    let base = build_queries(&objects, DatasetId::AN, scale);
    let queries = repeat_interleaved(&base, repeats.max(1));
    let cfg = FilterConfig::all();

    let db = Database::new(objects.clone());

    // Cold: the engine default — no pool, per-query caches only.
    let cold_engine = QueryEngine::with_config(&db, op, cfg);
    let started = Instant::now();
    let cold = cold_engine.run_batch(&queries, 1);
    let cold_elapsed_s = started.elapsed().as_secs_f64();

    // Warm: one snapshot-scoped pool shared by the whole batch.
    let pool = WarmPool::new();
    let warm_engine = cold_engine.with_warm(&pool);
    let started = Instant::now();
    let warm = warm_engine.run_batch(&queries, 1);
    let warm_elapsed_s = started.elapsed().as_secs_f64();

    let bit_identical = cold
        .iter()
        .zip(warm.iter())
        .all(|(c, w)| fingerprint(c) == fingerprint(w));
    let stats = pool.stats();

    // Sharded cross-validation: same contract through the merged forest.
    let sdb = ShardedDatabase::new(objects.clone(), shards);
    let s_cold = QueryEngine::with_config(&sdb, op, cfg).run_batch(&queries, 1);
    let s_pool = WarmPool::new();
    let s_warm = QueryEngine::with_config(&sdb, op, cfg)
        .with_warm(&s_pool)
        .run_batch(&queries, 1);
    let sharded_bit_identical = s_cold
        .iter()
        .zip(s_warm.iter())
        .all(|(c, w)| fingerprint(c) == fingerprint(w));

    // Churn: every published epoch invalidates incrementally; the batch
    // must stay bit-identical to a cold run on the same snapshot.
    let churn_mutations = (scale.queries * 3).max(9);
    let published = PublishedIndex::new(ShardedDatabase::new(objects.clone(), shards));
    let mut alive: Vec<usize> = (0..objects.len()).collect();
    // Candidate ids of the last warm batch: objects the cache certainly
    // holds entries for, so deletes/updates exercise real eviction.
    let mut hot: Vec<usize> = Vec::new();
    let mut churn_warm_s = 0.0f64;
    let mut churn_cold_s = 0.0f64;
    let mut churn_bit_identical = true;
    for i in 0..churn_mutations {
        let pick = |fallback: usize, hot: &[usize], alive: &[usize]| {
            hot.iter()
                .find(|id| alive.contains(id))
                .copied()
                .unwrap_or(alive[fallback % alive.len()])
        };
        match i % 3 {
            0 => {
                let obj = objects[(i * 13) % objects.len()].clone();
                let id = published.insert(obj).unwrap_or_else(|e| {
                    unreachable!("insert must publish: {e}");
                });
                alive.push(id);
            }
            1 => {
                let victim = pick(i * 7, &hot, &alive);
                let pos = alive.iter().position(|&x| x == victim).unwrap();
                alive.swap_remove(pos);
                published.delete(victim).unwrap_or_else(|e| {
                    unreachable!("delete of live id {victim} must publish: {e}");
                });
            }
            _ => {
                let target = pick(i * 5, &hot, &alive);
                let obj = objects[(i + 1) % objects.len()].clone();
                published.update(target, obj).unwrap_or_else(|e| {
                    unreachable!("update of live id {target} must publish: {e}");
                });
            }
        }
        let snap = published.pin();
        let started = Instant::now();
        let w = QueryEngine::with_config(&*snap, op, cfg)
            .with_warm(published.warm_pool())
            .run_batch(&base, 1);
        churn_warm_s += started.elapsed().as_secs_f64();
        hot = w
            .iter()
            .flat_map(|r| r.candidates.iter().map(|c| c.id))
            .collect();
        let started = Instant::now();
        let c = QueryEngine::with_config(&*snap, op, cfg).run_batch(&base, 1);
        churn_cold_s += started.elapsed().as_secs_f64();
        churn_bit_identical &= w
            .iter()
            .zip(c.iter())
            .all(|(wr, cr)| fingerprint(wr) == fingerprint(cr));
    }
    let churn_evictions = published.warm_pool().stats().evictions;

    let cold_med = prune_refine_median(&cold);
    let warm_med = prune_refine_median(&warm);
    WarmReport {
        dataset: DatasetId::AN.label(),
        op: op.label(),
        objects: db.len(),
        base_queries: base.len(),
        repeats: repeats.max(1),
        shards,
        host_cpus: host_cpus(),
        cold_elapsed_s,
        warm_elapsed_s,
        cold_prune_refine_median_ns: cold_med,
        warm_prune_refine_median_ns: warm_med,
        prune_refine_reduction: if cold_med > 0 {
            1.0 - warm_med as f64 / cold_med as f64
        } else {
            0.0
        },
        warm_hits: stats.hits,
        warm_misses: stats.misses,
        warm_resident_bytes: stats.resident_bytes,
        bit_identical,
        sharded_bit_identical,
        churn_mutations,
        churn_warm_s,
        churn_cold_s,
        churn_evictions,
        churn_bit_identical,
    }
}

/// The workload shape of a warm point: enough objects that bound
/// distributions dominate, a small base query set repeated many times.
fn scale_for(n: usize, queries: usize) -> Scale {
    Scale {
        n,
        m_d: 10,
        m_q: 6,
        queries,
        dim: 2,
        seed: 0x0aa7,
        ..Scale::laptop()
    }
}

/// Runs the warm benchmark and prints the table; writes the JSON
/// artifact when `json_path` is given. `smoke` shrinks the run to an
/// assertion-heavy CI-sized point.
pub fn warm(shards: usize, smoke: bool, json_path: Option<&str>) {
    let op = Operator::PSd;
    let (n, queries, repeats) = if smoke { (250, 4, 3) } else { (1_500, 10, 12) };
    println!(
        "\n== Warm: {} on A-N ({} objects, {} base queries x{} repeats, {} shards) ==",
        op.label(),
        n,
        queries,
        repeats,
        shards
    );
    let r = measure_warm(&scale_for(n, queries), shards, repeats, op);
    assert!(
        r.bit_identical && r.sharded_bit_identical && r.churn_bit_identical,
        "warm path diverged from cold — the memoisation contract is broken"
    );
    if smoke {
        assert!(r.warm_hits > 0, "a repeated workload must hit the cache");
        assert!(r.warm_misses > 0, "first touches must be counted as misses");
        assert!(
            r.churn_evictions > 0,
            "churn must evict touched warm entries"
        );
    }
    println!(
        "batch:  cold {:.3}ms  warm {:.3}ms",
        r.cold_elapsed_s * 1e3,
        r.warm_elapsed_s * 1e3
    );
    println!(
        "prune+refine median: cold {}ns  warm {}ns  ({:.1}% reduction)",
        r.cold_prune_refine_median_ns,
        r.warm_prune_refine_median_ns,
        r.prune_refine_reduction * 100.0
    );
    println!(
        "cache:  {} hits, {} misses, {} resident bytes",
        r.warm_hits, r.warm_misses, r.warm_resident_bytes
    );
    println!(
        "churn:  {} epochs, warm {:.3}ms vs cold {:.3}ms, {} evictions",
        r.churn_mutations,
        r.churn_warm_s * 1e3,
        r.churn_cold_s * 1e3,
        r.churn_evictions
    );
    println!(
        "bit-identical: flat {}  sharded {}  churn {}",
        r.bit_identical, r.sharded_bit_identical, r.churn_bit_identical
    );
    if let Some(path) = json_path {
        match std::fs::write(path, r.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_batches_are_bit_identical_and_hit() {
        let r = measure_warm(&scale_for(150, 3), 3, 3, Operator::SSd);
        assert!(r.bit_identical);
        assert!(r.sharded_bit_identical);
        assert!(r.churn_bit_identical);
        assert!(r.warm_hits > 0);
        assert!(r.warm_misses > 0);
        assert!(r.churn_evictions > 0);
        assert_eq!(r.base_queries, 3);
        assert_eq!(r.repeats, 3);
    }

    #[test]
    fn json_is_balanced_and_carries_the_contract() {
        let r = measure_warm(&scale_for(100, 2), 2, 2, Operator::PSd);
        let json = r.to_json();
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"warm_cache\": {"));
        assert!(json.contains("\"churn\": {"));
        assert!(json.contains("\"prune_refine_median_ns\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
