//! # osd-obs
//!
//! Query-pipeline observability: spans, phase timers, counters, gauges and
//! fixed-bucket latency histograms for the NN-candidate search, plus JSON
//! and Prometheus-text exposition.
//!
//! The paper's efficiency claims (Figures 14–17) are stated in terms of
//! pruning-cost counters and per-phase wall-clock; this crate makes that
//! breakdown observable on every query without perturbing the measured
//! algorithm:
//!
//! * [`Phase`] — the five-phase taxonomy of one NNC query (*prepare*,
//!   *rtree-descent*, *level-prune*, *validate*, *refine*);
//! * [`PhaseTimer`] — the phase timer: two clock reads per sample, one
//!   [`PhaseSample`] that feeds the phase total and histogram and the
//!   trace span alike;
//! * [`QueryMetrics`] — the per-query registry: counters ([`Counter`]),
//!   the heap high-water gauge, per-phase totals and [`Histogram`]s, and
//!   labelled per-operator tallies (the `flow-solve` span total is read
//!   off the refine phase, not kept twice). Merging is exact and
//!   order-independent (field-wise `u64` addition, `max` for gauges), so
//!   per-worker registries fold to the same totals regardless of thread
//!   count — mirroring `Stats::merge` in `osd-core`;
//! * [`trace`] — per-query structured trace trees ([`QueryTrace`]), the
//!   flight-recorder ring buffer and slow-query log
//!   ([`FlightRecorder`]), and the Chrome-trace/text exporters — the
//!   forensic layer over the same pipeline the registry aggregates;
//! * [`expo`] — JSON and Prometheus text renderers over the registry.
//!
//! ## Zero overhead when disabled
//!
//! Everything is gated on the `enabled` cargo feature. Without it,
//! [`QueryMetrics`] and [`QueryTrace`] are zero-sized types, [`PhaseTimer`]
//! and [`PhaseSample`] carry only their phase, and every method is an
//! empty `#[inline]` body: no clock reads, no counter arithmetic, no
//! allocation — the instrumented pipeline compiles to the uninstrumented
//! one, keeping tier-1 results and counters bit-identical.
//!
//! The exception is [`Stopwatch`], which is always live: it backs the
//! progressive traversal's `Candidate::elapsed` timestamps, a result field
//! that predates this crate (Figure 14) and must keep working in every
//! build. It is also the single sanctioned clock shim of the workspace:
//! `clippy.toml` bans raw `std::time::Instant` / `SystemTime` in every
//! crate and target, and only `Stopwatch` carries the scoped `allow`, so
//! the phase timer, the tracer and the bench harness all read time
//! through it.
//!
//! A step cheaper than a clock pair is counted, not timed: the O(d) MBR
//! cover validation costs 42–52 ns at d = 2–3, less than the 72–90 ns of
//! the two reads that would time it, so it has a `Stats` counter in
//! `osd-core` and no phase sample.

pub mod expo;
pub mod metrics;
pub mod timer;
pub mod trace;

pub use metrics::{
    Counter, Histogram, QueryMetrics, BUCKET_BOUNDS_NS, MAX_TRACKED_SHARDS, NUM_BUCKETS,
};
pub use timer::{PhaseSample, PhaseTimer};
pub use trace::{
    chrome_trace, render_text, AttrValue, FlightRecorder, QueryTrace, SpanId, SpanKind, SpanRecord,
    TraceData,
};

use std::time::Duration;

/// The phases of one NNC query, in pipeline order.
///
/// The taxonomy follows Algorithm 1 and the §5.1 filter stack: *prepare*
/// (per-query heap seeding), *rtree-descent* (global best-first
/// traversal plus local-tree distance primitives), *level-prune*
/// (level-by-level bounds over local R-tree nodes, §5.1.1–5.1.2),
/// *validate* (the `U_Q ≠ V_Q` strictness guard of Definitions 2, 3 and
/// 5) and *refine* (the exact P-SD max-flow machinery, Theorem 12).
///
/// Phases are recorded where the work happens, so a phase nested inside
/// another (a flow solve fired from inside level pruning, a strictness
/// guard fired from a validated level bound) is attributed to **both**
/// enclosing timers: the breakdown is a profile of where time goes, not a
/// disjoint partition of wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Per-query setup once the context exists: snapshot gauges and heap
    /// seeding.
    Prepare,
    /// Best-first descent of the global R-tree and the local-tree
    /// nearest/furthest primitives keying the traversal.
    RtreeDescent,
    /// Level-by-level pruning/validation over local R-tree node bounds.
    LevelPrune,
    /// The `U_Q ≠ V_Q` strictness guard of the exact dominance paths.
    /// Cover-based MBR validation (Theorem 4) is cheaper than the two
    /// clock reads that would time it, so it is counted
    /// (`Stats::mbr_checks` in `osd-core`), not timed.
    Validate,
    /// Exact P-SD refinement: bipartite network construction + max-flow.
    Refine,
}

impl Phase {
    /// Number of phases (array dimension for per-phase storage).
    pub const COUNT: usize = 5;

    /// All phases in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Prepare,
        Phase::RtreeDescent,
        Phase::LevelPrune,
        Phase::Validate,
        Phase::Refine,
    ];

    /// Stable exposition label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::RtreeDescent => "rtree-descent",
            Phase::LevelPrune => "level-prune",
            Phase::Validate => "validate",
            Phase::Refine => "refine",
        }
    }

    /// Dense index into per-phase arrays.
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))] // only the real registry indexes
    pub(crate) fn idx(self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::RtreeDescent => 1,
            Phase::LevelPrune => 2,
            Phase::Validate => 3,
            Phase::Refine => 4,
        }
    }
}

/// A monotonic wall-clock stopwatch — the one timing primitive that stays
/// live with the `enabled` feature off.
///
/// Backs the progressive traversal's `Candidate::elapsed` field (the
/// Figure 14 emission timestamps), which is part of the query result in
/// every build. Everything that times uses this instead of
/// `std::time::Instant`, which `clippy.toml` bans everywhere else.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::disallowed_types)] // the one sanctioned clock (DESIGN.md §6.2)
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts the stopwatch now.
    #[allow(clippy::disallowed_types)]
    pub fn start() -> Self {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (~584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from `earlier`'s start to this stopwatch's start (0 if
    /// this one started first) — no clock read.
    #[cfg(feature = "enabled")]
    pub(crate) fn nanos_since(&self, earlier: &Stopwatch) -> u64 {
        let gap = self.started.saturating_duration_since(earlier.started);
        u64::try_from(gap.as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "prepare",
                "rtree-descent",
                "level-prune",
                "validate",
                "refine"
            ]
        );
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
