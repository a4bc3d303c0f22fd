//! The per-query metrics registry: counters, gauges, histograms and
//! labelled tallies, with exact order-independent merging.
//!
//! One [`QueryMetrics`] accompanies one query's `CheckCtx` through the
//! pipeline; the batch engine folds per-query registries with
//! [`QueryMetrics::merge`]. Every stored quantity is an integer, counters
//! and histogram buckets merge by addition and gauges by `max`, so the
//! folded totals of an N-thread batch are identical to the sequential run
//! — the same exactness contract as `Stats::merge` in `osd-core`.

use crate::timer::PhaseSample;
use crate::Phase;

/// Number of finite histogram bucket bounds (one overflow bucket follows).
pub const NUM_BUCKETS: usize = 16;

/// Shards tracked individually by the per-shard node-visit tally; visits
/// attributed to shard ids at or past this bound fold into one trailing
/// overflow cell. Fixed capacity keeps the registry allocation-free on the
/// query path (the `LabelSet` idiom) and merging exact.
pub const MAX_TRACKED_SHARDS: usize = 32;

/// Fixed latency bucket upper bounds in nanoseconds: powers of four from
/// 256 ns to ~4.6 min. Samples above the last bound land in the overflow
/// bucket. Fixed bounds keep merging exact: equal-shape histograms add
/// bucket-wise with no re-binning.
pub const BUCKET_BOUNDS_NS: [u64; NUM_BUCKETS] = [
    1 << 8,  // 256 ns
    1 << 10, // ~1 µs
    1 << 12,
    1 << 14,
    1 << 16, // ~65 µs
    1 << 18,
    1 << 20, // ~1 ms
    1 << 22,
    1 << 24, // ~16 ms
    1 << 26,
    1 << 28, // ~268 ms
    1 << 30, // ~1 s
    1 << 32,
    1 << 34, // ~17 s
    1 << 36,
    1 << 38, // ~4.6 min
];

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_NS`].
///
/// Always compiled (it is plain data); whether anything ever observes into
/// it depends on the `enabled` feature of the recording side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples `≤ BUCKET_BOUNDS_NS[i]` (non-cumulative);
    /// `buckets[NUM_BUCKETS]` is the overflow bucket.
    buckets: [u64; NUM_BUCKETS + 1],
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS + 1],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample of `ns` nanoseconds.
    pub fn observe(&mut self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(NUM_BUCKETS);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Adds another histogram bucket-wise. Exact and order-independent:
    /// `u64` addition per bucket, commutative and associative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Non-cumulative bucket counts (`NUM_BUCKETS` finite buckets plus the
    /// overflow bucket).
    pub fn buckets(&self) -> [u64; NUM_BUCKETS + 1] {
        self.buckets
    }
}

/// The integer counters of the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Candidates emitted by the traversal (all operators combined; see
    /// [`QueryMetrics::candidates_by_op`] for the per-operator split).
    CandidatesEmitted,
    /// Entries pushed onto the progressive traversal heap.
    HeapPushes,
    /// Snapshot-scoped warm-cache lookups served from an already published
    /// entry. Deliberately *not* folded into `Stats::cache_hits`: the
    /// per-query cache counters keep their semantics bit-identical with
    /// the warm cache on or off.
    WarmHits,
    /// Snapshot-scoped warm-cache lookups that had to build (and publish)
    /// the entry.
    WarmMisses,
}

impl Counter {
    /// Number of counters (array dimension).
    pub const COUNT: usize = 4;

    /// All counters, in exposition order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::CandidatesEmitted,
        Counter::HeapPushes,
        Counter::WarmHits,
        Counter::WarmMisses,
    ];

    /// Stable exposition name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CandidatesEmitted => "candidates_emitted",
            Counter::HeapPushes => "heap_pushes",
            Counter::WarmHits => "warm_hits",
            Counter::WarmMisses => "warm_misses",
        }
    }

    #[cfg(feature = "enabled")]
    fn idx(self) -> usize {
        match self {
            Counter::CandidatesEmitted => 0,
            Counter::HeapPushes => 1,
            Counter::WarmHits => 2,
            Counter::WarmMisses => 3,
        }
    }
}

/// A small set of `(label, count, nanos)` cells kept sorted by label, so
/// that merge results are independent of insertion order and `PartialEq`
/// compares canonically. Capacity is fixed (no allocation on the query
/// path); overflow tallies under `"__other"`.
#[cfg(feature = "enabled")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LabelSet {
    cells: [Option<(&'static str, u64, u64)>; LabelSet::CAPACITY],
}

#[cfg(feature = "enabled")]
impl LabelSet {
    const CAPACITY: usize = 8;
    const OVERFLOW: &'static str = "__other";

    fn add(&mut self, label: &'static str, count: u64, nanos: u64) {
        // Find the insertion point in label-sorted order.
        let mut i = 0;
        while i < Self::CAPACITY {
            match self.cells[i] {
                None => {
                    self.cells[i] = Some((label, count, nanos));
                    return;
                }
                Some((l, ref mut c, ref mut n)) if l == label => {
                    *c += count;
                    *n = n.saturating_add(nanos);
                    return;
                }
                Some((l, _, _)) if label < l => break,
                Some(_) => i += 1,
            }
        }
        if i >= Self::CAPACITY {
            // Full and the label sorts past the end: fold into overflow.
            self.add_overflow(count, nanos);
            return;
        }
        // Shift the tail right to keep sorted order; a displaced last cell
        // folds into the overflow tally.
        if let Some(displaced) = self.cells[Self::CAPACITY - 1] {
            self.add_overflow(displaced.1, displaced.2);
        }
        for j in (i + 1..Self::CAPACITY).rev() {
            self.cells[j] = self.cells[j - 1];
        }
        self.cells[i] = Some((label, count, nanos));
    }

    fn add_overflow(&mut self, count: u64, nanos: u64) {
        // The overflow label starts with '_', sorting before alphabetic
        // labels, so a plain `add` would recurse; update it directly.
        for (l, c, n) in self.cells.iter_mut().flatten() {
            if *l == Self::OVERFLOW {
                *c += count;
                *n = n.saturating_add(nanos);
                return;
            }
        }
        // No overflow cell yet: steal the last slot (we only get here when
        // the set is full of distinct labels).
        if let Some((_, c0, n0)) = self.cells[Self::CAPACITY - 1] {
            for j in (1..Self::CAPACITY).rev() {
                self.cells[j] = self.cells[j - 1];
            }
            self.cells[0] = Some((Self::OVERFLOW, count + c0, nanos.saturating_add(n0)));
        } else {
            self.cells[0] = Some((Self::OVERFLOW, count, nanos));
        }
    }

    fn merge(&mut self, other: &LabelSet) {
        for cell in other.cells.into_iter().flatten() {
            self.add(cell.0, cell.1, cell.2);
        }
    }

    fn entries(&self) -> Vec<(&'static str, u64, u64)> {
        self.cells.iter().flatten().copied().collect()
    }
}

/// The per-query metrics registry.
///
/// With the `enabled` feature this holds the real counters, gauges and
/// histograms; without it the struct is zero-sized, every method is an
/// empty inline body, and every accessor reports zero/empty.
#[cfg(feature = "enabled")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMetrics {
    counters: [u64; Counter::COUNT],
    phase_nanos: [u64; Phase::COUNT],
    phase_hist: [Histogram; Phase::COUNT],
    heap_high_water: u64,
    /// Epoch of the snapshot the query ran against (merged by `max`: a
    /// batch reports the newest snapshot any of its queries saw).
    snapshot_epoch: u64,
    /// Live objects of that snapshot (merged by `max`, like the epoch).
    live_objects: u64,
    /// Tombstoned ids of that snapshot (merged by `max`, like the epoch).
    tombstones: u64,
    /// Cumulative warm-cache entries discarded by epoch invalidation, as
    /// observed by this query's warm view (merged by `max`: the count is
    /// already cumulative per pool, so adding would double-count).
    warm_evictions: u64,
    /// Approximate bytes resident in the warm cache this query ran against
    /// (merged by `max`, like the snapshot gauges).
    warm_resident_bytes: u64,
    per_op: LabelSet,
    /// Global-traversal node visits attributed to their source shard;
    /// the trailing cell tallies shards ≥ [`MAX_TRACKED_SHARDS`].
    shard_visits: [u64; MAX_TRACKED_SHARDS + 1],
}

// Manual because `Default` is not derivable for the 33-cell array.
#[cfg(feature = "enabled")]
impl Default for QueryMetrics {
    fn default() -> Self {
        QueryMetrics {
            counters: [0; Counter::COUNT],
            phase_nanos: [0; Phase::COUNT],
            phase_hist: [Histogram::new(); Phase::COUNT],
            heap_high_water: 0,
            snapshot_epoch: 0,
            live_objects: 0,
            tombstones: 0,
            warm_evictions: 0,
            warm_resident_bytes: 0,
            per_op: LabelSet::default(),
            shard_visits: [0; MAX_TRACKED_SHARDS + 1],
        }
    }
}

/// The per-query metrics registry (disabled build: a zero-sized no-op).
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryMetrics;

#[cfg(feature = "enabled")]
impl QueryMetrics {
    /// Whether the `enabled` feature compiled the real registry in.
    pub const fn enabled() -> bool {
        true
    }

    /// A fresh, zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.counters[counter.idx()] += 1;
    }

    /// Increments `counter` by `n`.
    #[inline]
    pub fn incr_by(&mut self, counter: Counter, n: u64) {
        self.counters[counter.idx()] += n;
    }

    /// Records the traversal heap's current depth into the high-water
    /// gauge (merged by `max`, which is commutative and associative).
    #[inline]
    pub fn heap_depth(&mut self, depth: u64) {
        self.heap_high_water = self.heap_high_water.max(depth);
    }

    /// Records the snapshot the query runs against: its epoch, live
    /// object count and tombstone count. Each gauge merges by `max`, so a
    /// merged batch reports the newest snapshot state any query saw.
    #[inline]
    pub fn snapshot(&mut self, epoch: u64, live_objects: u64, tombstones: u64) {
        self.snapshot_epoch = self.snapshot_epoch.max(epoch);
        self.live_objects = self.live_objects.max(live_objects);
        self.tombstones = self.tombstones.max(tombstones);
    }

    /// Records the state of the warm cache the query ran against: its
    /// cumulative eviction count and approximate resident bytes. Both
    /// gauges merge by `max` (the values are pool-cumulative snapshots,
    /// not per-query deltas).
    #[inline]
    pub fn warm_cache(&mut self, evictions: u64, resident_bytes: u64) {
        self.warm_evictions = self.warm_evictions.max(evictions);
        self.warm_resident_bytes = self.warm_resident_bytes.max(resident_bytes);
    }

    /// Records one emitted candidate under the operator's label.
    #[inline]
    pub fn candidate_emitted(&mut self, op_label: &'static str) {
        self.incr(Counter::CandidatesEmitted);
        self.per_op.add(op_label, 1, 0);
    }

    /// Records one global-traversal node visit attributed to `shard`
    /// (shards ≥ [`MAX_TRACKED_SHARDS`] fold into the overflow cell).
    #[inline]
    pub fn shard_visit(&mut self, shard: usize) {
        self.shard_visits[shard.min(MAX_TRACKED_SHARDS)] += 1;
    }

    /// Folds `sample` into its phase's total and latency histogram.
    #[inline]
    pub fn record(&mut self, sample: &PhaseSample) {
        let (idx, ns) = (sample.phase().idx(), sample.nanos());
        self.phase_nanos[idx] = self.phase_nanos[idx].saturating_add(ns);
        self.phase_hist[idx].observe(ns);
    }

    /// Merges another registry into this one, field by exact field:
    /// counters, phase totals and histogram buckets add; the heap gauge
    /// takes the `max`; labelled tallies add per label (kept label-sorted).
    /// All integer arithmetic — merged parallel totals equal sequential
    /// totals regardless of worker count or fold order.
    pub fn merge(&mut self, other: &QueryMetrics) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.phase_nanos.iter_mut().zip(other.phase_nanos.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.phase_hist.iter_mut().zip(other.phase_hist.iter()) {
            a.merge(b);
        }
        self.heap_high_water = self.heap_high_water.max(other.heap_high_water);
        self.snapshot_epoch = self.snapshot_epoch.max(other.snapshot_epoch);
        self.live_objects = self.live_objects.max(other.live_objects);
        self.tombstones = self.tombstones.max(other.tombstones);
        self.warm_evictions = self.warm_evictions.max(other.warm_evictions);
        self.warm_resident_bytes = self.warm_resident_bytes.max(other.warm_resident_bytes);
        self.per_op.merge(&other.per_op);
        for (a, b) in self.shard_visits.iter_mut().zip(other.shard_visits.iter()) {
            *a += b;
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.idx()]
    }

    /// Total nanoseconds recorded under `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.idx()]
    }

    /// Number of timer samples recorded under `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_hist[phase.idx()].count()
    }

    /// Non-cumulative latency bucket counts of `phase`.
    pub fn phase_buckets(&self, phase: Phase) -> [u64; NUM_BUCKETS + 1] {
        self.phase_hist[phase.idx()].buckets()
    }

    /// Highest traversal-heap depth seen.
    pub fn heap_high_water(&self) -> u64 {
        self.heap_high_water
    }

    /// Epoch of the newest snapshot any merged query ran against.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// Live object count of the newest snapshot seen.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Tombstone count of the newest snapshot seen.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Cumulative warm-cache evictions observed (largest merged value).
    pub fn warm_evictions(&self) -> u64 {
        self.warm_evictions
    }

    /// Approximate warm-cache resident bytes observed (largest merged
    /// value).
    pub fn warm_resident_bytes(&self) -> u64 {
        self.warm_resident_bytes
    }

    /// Candidates emitted per operator label, label-sorted.
    pub fn candidates_by_op(&self) -> Vec<(&'static str, u64)> {
        self.per_op
            .entries()
            .into_iter()
            .map(|(l, c, _)| (l, c))
            .collect()
    }

    /// Named span totals as `(label, count, total_ns)`: the flow solves,
    /// as `flow-solve`. Every refine-phase sample is one flow solve, so
    /// this reads the refine phase's count and nanoseconds (and nothing
    /// when it has no samples) rather than keeping a second record.
    pub fn spans(&self) -> Vec<(&'static str, u64, u64)> {
        let solves = self.phase_count(Phase::Refine);
        if solves == 0 {
            return Vec::new();
        }
        vec![("flow-solve", solves, self.phase_nanos(Phase::Refine))]
    }

    /// Per-shard global-traversal node visits: [`MAX_TRACKED_SHARDS`]
    /// individual cells plus one trailing overflow cell.
    pub fn shard_visits(&self) -> [u64; MAX_TRACKED_SHARDS + 1] {
        self.shard_visits
    }
}

#[cfg(not(feature = "enabled"))]
impl QueryMetrics {
    /// Whether the `enabled` feature compiled the real registry in.
    pub const fn enabled() -> bool {
        false
    }

    /// A fresh registry (zero-sized in this build).
    #[inline(always)]
    pub fn new() -> Self {
        QueryMetrics
    }

    /// No-op.
    #[inline(always)]
    pub fn incr(&mut self, _counter: Counter) {}

    /// No-op.
    #[inline(always)]
    pub fn incr_by(&mut self, _counter: Counter, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn heap_depth(&mut self, _depth: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn snapshot(&mut self, _epoch: u64, _live_objects: u64, _tombstones: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn warm_cache(&mut self, _evictions: u64, _resident_bytes: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn candidate_emitted(&mut self, _op_label: &'static str) {}

    /// No-op.
    #[inline(always)]
    pub fn shard_visit(&mut self, _shard: usize) {}

    /// No-op (the sample never read a clock).
    #[inline(always)]
    pub fn record(&mut self, _sample: &PhaseSample) {}

    /// No-op.
    #[inline(always)]
    pub fn merge(&mut self, _other: &QueryMetrics) {}

    /// Always zero in the disabled build.
    pub fn counter(&self, _counter: Counter) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn phase_nanos(&self, _phase: Phase) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn phase_count(&self, _phase: Phase) -> u64 {
        0
    }

    /// Always empty in the disabled build.
    pub fn phase_buckets(&self, _phase: Phase) -> [u64; NUM_BUCKETS + 1] {
        [0; NUM_BUCKETS + 1]
    }

    /// Always zero in the disabled build.
    pub fn heap_high_water(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn snapshot_epoch(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn live_objects(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn tombstones(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn warm_evictions(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn warm_resident_bytes(&self) -> u64 {
        0
    }

    /// Always empty in the disabled build.
    pub fn candidates_by_op(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Always empty in the disabled build.
    pub fn spans(&self) -> Vec<(&'static str, u64, u64)> {
        Vec::new()
    }

    /// Always zero in the disabled build.
    pub fn shard_visits(&self) -> [u64; MAX_TRACKED_SHARDS + 1] {
        [0; MAX_TRACKED_SHARDS + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sums() {
        let mut h = Histogram::new();
        h.observe(100); // bucket 0 (≤256)
        h.observe(300); // bucket 1 (≤1024)
        h.observe(u64::MAX); // overflow
        assert_eq!(h.count(), 3);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[NUM_BUCKETS], 1);
        assert_eq!(h.sum_ns(), u64::MAX); // saturated
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |samples: &[u64]| {
            let mut h = Histogram::new();
            for &s in samples {
                h.observe(s);
            }
            h
        };
        let parts = [
            mk(&[1, 5000]),
            mk(&[2_000_000]),
            mk(&[77, 1 << 20, 1 << 39]),
        ];
        // ((a + b) + c) == (a + (b + c)) == fold in reverse order.
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[2];
        right.merge(&parts[1]);
        right.merge(&parts[0]);
        let mut assoc = parts[1];
        assoc.merge(&parts[2]);
        let mut a0 = parts[0];
        a0.merge(&assoc);
        assert_eq!(left, right);
        assert_eq!(left, a0);
        assert_eq!(left.count(), 6);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn label_set_is_order_independent() {
        let mut a = LabelSet::default();
        a.add("psd", 1, 10);
        a.add("ssd", 2, 20);
        let mut b = LabelSet::default();
        b.add("ssd", 2, 20);
        b.add("psd", 1, 10);
        assert_eq!(a, b, "insertion order must not matter");
        assert_eq!(a.entries(), vec![("psd", 1, 10), ("ssd", 2, 20)]);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn label_set_overflow_tallies_under_other() {
        let labels = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let mut s = LabelSet::default();
        for (i, l) in labels.iter().enumerate() {
            s.add(l, (i + 1) as u64, 0);
        }
        let total: u64 = s.entries().iter().map(|&(_, c, _)| c).sum();
        assert_eq!(
            total,
            (1..=labels.len() as u64).sum::<u64>(),
            "no count lost"
        );
        assert!(s.entries().iter().any(|&(l, _, _)| l == "__other"));
    }

    #[test]
    fn merge_matches_enabled_state() {
        // In both builds: merging registries never panics, and the
        // deterministic accessors agree with the feature state.
        let mut a = QueryMetrics::new();
        let mut b = QueryMetrics::new();
        a.incr(Counter::HeapPushes);
        b.incr_by(Counter::HeapPushes, 4);
        b.heap_depth(9);
        a.heap_depth(3);
        a.candidate_emitted("PSD");
        a.merge(&b);
        if QueryMetrics::enabled() {
            assert_eq!(a.counter(Counter::HeapPushes), 5);
            assert_eq!(a.heap_high_water(), 9);
            assert_eq!(a.candidates_by_op(), vec![("PSD", 1)]);
        } else {
            assert_eq!(a.counter(Counter::HeapPushes), 0);
            assert_eq!(a.heap_high_water(), 0);
            assert!(a.candidates_by_op().is_empty());
        }
    }

    #[test]
    fn snapshot_gauges_merge_by_max() {
        let mut a = QueryMetrics::new();
        a.snapshot(3, 100, 2);
        let mut b = QueryMetrics::new();
        b.snapshot(5, 98, 4);
        a.merge(&b);
        if QueryMetrics::enabled() {
            assert_eq!(a.snapshot_epoch(), 5);
            assert_eq!(a.live_objects(), 100);
            assert_eq!(a.tombstones(), 4);
        } else {
            assert_eq!(a.snapshot_epoch(), 0);
            assert_eq!(a.live_objects(), 0);
            assert_eq!(a.tombstones(), 0);
        }
    }

    #[test]
    fn warm_gauges_merge_by_max() {
        let mut a = QueryMetrics::new();
        a.warm_cache(2, 4096);
        a.incr(Counter::WarmHits);
        let mut b = QueryMetrics::new();
        b.warm_cache(5, 1024);
        b.incr_by(Counter::WarmMisses, 3);
        a.merge(&b);
        if QueryMetrics::enabled() {
            assert_eq!(a.warm_evictions(), 5);
            assert_eq!(a.warm_resident_bytes(), 4096);
            assert_eq!(a.counter(Counter::WarmHits), 1);
            assert_eq!(a.counter(Counter::WarmMisses), 3);
        } else {
            assert_eq!(a.warm_evictions(), 0);
            assert_eq!(a.warm_resident_bytes(), 0);
            assert_eq!(a.counter(Counter::WarmHits), 0);
        }
    }

    #[test]
    fn shard_visits_track_and_overflow() {
        let mut m = QueryMetrics::new();
        m.shard_visit(0);
        m.shard_visit(0);
        m.shard_visit(3);
        m.shard_visit(MAX_TRACKED_SHARDS + 5); // folds into the overflow cell
        let mut other = QueryMetrics::new();
        other.shard_visit(3);
        m.merge(&other);
        let v = m.shard_visits();
        if QueryMetrics::enabled() {
            assert_eq!(v[0], 2);
            assert_eq!(v[3], 2);
            assert_eq!(v[MAX_TRACKED_SHARDS], 1);
            assert_eq!(v.iter().sum::<u64>(), 5);
        } else {
            assert!(v.iter().all(|&x| x == 0));
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn registry_merge_is_order_independent() {
        let mk = |seed: u64| {
            let mut m = QueryMetrics::new();
            m.incr_by(Counter::WarmHits, seed);
            m.incr_by(Counter::WarmMisses, seed * 3);
            m.heap_depth(seed * 7);
            m.candidate_emitted(if seed.is_multiple_of(2) { "PSD" } else { "SSD" });
            m
        };
        let parts = [mk(1), mk(2), mk(3), mk(4)];
        let mut fwd = QueryMetrics::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = QueryMetrics::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counter(Counter::WarmHits), 10);
        assert_eq!(fwd.heap_high_water(), 28);
        assert_eq!(fwd.candidates_by_op(), vec![("PSD", 2), ("SSD", 2)]);
    }
}
