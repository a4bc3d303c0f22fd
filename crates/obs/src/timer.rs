//! The phase timer: [`PhaseTimer`] reads the clock when a phase sample
//! starts, [`PhaseTimer::stop`] reads it again when it ends, and the
//! resulting [`PhaseSample`] feeds every record of that sample — the phase
//! total and histogram ([`QueryMetrics::record`](crate::QueryMetrics::record))
//! and, on a traced query, the span's start and duration
//! ([`QueryTrace::open_at`](crate::QueryTrace::open_at) /
//! [`close_at`](crate::QueryTrace::close_at)). Two clock reads per
//! sample, however many records it feeds, so the records agree to the
//! nanosecond. With the `enabled` feature off both types carry only
//! their phase and never read the clock.

use crate::Phase;

#[cfg(feature = "enabled")]
use crate::Stopwatch;

/// A running timer for one of the five pipeline [`Phase`]s.
///
/// Not a RAII guard: dropping it without stopping simply discards the
/// sample (the borrow checker would otherwise force `&mut` registry
/// borrows to span the whole timed region).
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    #[cfg(feature = "enabled")]
    started: Stopwatch,
}

impl PhaseTimer {
    /// Starts timing `phase` now: the sample's entry reading (no clock
    /// read when disabled).
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

    /// The entry reading, which a traced span takes as its start.
    #[cfg(feature = "enabled")]
    pub(crate) fn started(&self) -> &Stopwatch {
        &self.started
    }

    /// Stops the timer: the sample's exit reading (no clock read when
    /// disabled).
    #[inline]
    pub fn stop(self) -> PhaseSample {
        PhaseSample {
            phase: self.phase,
            #[cfg(feature = "enabled")]
            ns: self.started.elapsed_nanos(),
        }
    }
}

/// One finished phase sample: its phase and its length, measured once.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSample {
    phase: Phase,
    #[cfg(feature = "enabled")]
    ns: u64,
}

impl PhaseSample {
    /// The phase the sample is attributed to.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The sample's length in nanoseconds.
    #[cfg(feature = "enabled")]
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.ns
    }

    /// Always 0 in the disabled build.
    #[cfg(not(feature = "enabled"))]
    #[inline(always)]
    pub fn nanos(&self) -> u64 {
        0
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
        let sample = t.stop();
        assert_eq!(sample.phase(), Phase::Validate);
        m.record(&sample);
        if QueryMetrics::enabled() {
            assert_eq!(m.phase_count(Phase::Validate), 1);
            assert_eq!(m.phase_nanos(Phase::Validate), sample.nanos());
            assert_eq!(m.phase_count(Phase::Refine), 0);
        } else {
            assert_eq!(m.phase_count(Phase::Validate), 0);
            assert_eq!(sample.nanos(), 0);
        }
        // Untouched counters stay zero in both builds.
        assert_eq!(m.counter(Counter::WarmHits), 0);
    }

    #[test]
    fn refine_samples_read_as_the_flow_solve_span() {
        let mut m = QueryMetrics::new();
        m.record(&PhaseTimer::start(Phase::Validate).stop());
        assert!(
            m.spans().is_empty(),
            "no refine sample, no flow-solve entry"
        );
        let sample = PhaseTimer::start(Phase::Refine).stop();
        m.record(&sample);
        if QueryMetrics::enabled() {
            assert_eq!(
                m.spans(),
                vec![("flow-solve", 1, sample.nanos())],
                "the flow-solve entry is the refine phase's one record"
            );
        } else {
            assert!(m.spans().is_empty());
        }
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_types_are_small() {
        // The disabled timer and sample carry only their Phase — no clock
        // reading, no length.
        assert!(std::mem::size_of::<PhaseTimer>() <= std::mem::size_of::<Phase>());
        assert!(std::mem::size_of::<PhaseSample>() <= std::mem::size_of::<Phase>());
    }
}
