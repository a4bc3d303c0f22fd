//! Monotonic-clock timers: [`PhaseTimer`] for the fixed five-phase
//! taxonomy and [`Span`] for ad-hoc named regions.
//!
//! Both are start/stop value types recorded into a
//! [`QueryMetrics`](crate::QueryMetrics): start one at the top of a region,
//! hand it to [`QueryMetrics::record`](crate::QueryMetrics::record) /
//! [`record_span`](crate::QueryMetrics::record_span) at the bottom. With
//! the `enabled` feature off, both are zero-sized and never read the clock.

use crate::Phase;

#[cfg(feature = "enabled")]
use crate::Stopwatch;

/// A running timer for one of the five pipeline [`Phase`]s.
///
/// Not a RAII guard: dropping it without recording simply discards the
/// sample (the borrow checker would otherwise force `&mut` registry
/// borrows to span the whole timed region).
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    #[cfg(feature = "enabled")]
    started: Stopwatch,
}

impl PhaseTimer {
    /// Starts timing `phase` now (no clock read when disabled).
    #[inline]
    pub fn start(phase: Phase) -> Self {
        PhaseTimer {
            phase,
            #[cfg(feature = "enabled")]
            started: Stopwatch::start(),
        }
    }

    /// The phase this timer is attributed to.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Stops the timer, yielding `(phase, elapsed_ns)`.
    #[cfg(feature = "enabled")]
    pub(crate) fn stop(self) -> (Phase, u64) {
        (self.phase, self.started.elapsed_nanos())
    }
}

/// A running timer for an ad-hoc named region (label-tallied in the
/// registry rather than part of the phase taxonomy).
///
/// Labels must be `&'static str` so the registry can store them without
/// allocating on the query path.
#[derive(Debug)]
pub struct Span {
    label: &'static str,
    #[cfg(feature = "enabled")]
    started: Stopwatch,
}

impl Span {
    /// Enters the span `label` now (no clock read when disabled).
    #[inline]
    pub fn enter(label: &'static str) -> Self {
        Span {
            label,
            #[cfg(feature = "enabled")]
            started: Stopwatch::start(),
        }
    }

    /// The span's label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Stops the span, yielding `(label, elapsed_ns)`.
    #[cfg(feature = "enabled")]
    pub(crate) fn stop(self) -> (&'static str, u64) {
        (self.label, self.started.elapsed_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, QueryMetrics};

    #[test]
    fn phase_timer_records_into_registry() {
        let mut m = QueryMetrics::new();
        let t = PhaseTimer::start(Phase::Validate);
        assert_eq!(t.phase(), Phase::Validate);
        m.record(t);
        if QueryMetrics::enabled() {
            assert_eq!(m.phase_count(Phase::Validate), 1);
            assert_eq!(m.phase_count(Phase::Refine), 0);
        } else {
            assert_eq!(m.phase_count(Phase::Validate), 0);
        }
        // Untouched counters stay zero in both builds.
        assert_eq!(m.counter(Counter::WarmHits), 0);
    }

    #[test]
    fn span_records_under_its_label() {
        let mut m = QueryMetrics::new();
        let s = Span::enter("flow-rebuild");
        assert_eq!(s.label(), "flow-rebuild");
        m.record_span(s);
        if QueryMetrics::enabled() {
            let spans = m.spans();
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].0, "flow-rebuild");
            assert_eq!(spans[0].1, 1);
        } else {
            assert!(m.spans().is_empty());
        }
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_types_are_small() {
        // The disabled timer carries only its Phase/label tag — no Instant.
        assert!(std::mem::size_of::<PhaseTimer>() <= std::mem::size_of::<Phase>());
        assert_eq!(
            std::mem::size_of::<Span>(),
            std::mem::size_of::<&'static str>()
        );
    }
}
