//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the speed at which a core reaches its caches and
//! memory changes by up to 1.7× in spells of seconds to minutes, while a
//! neighbour contends for them, and every time a run takes moves with it:
//! a whole run can fall into one slow spell, so no median over the run
//! removes it. Two fixed probes of the benchmark's own slow down in step
//! with the workloads: random reads over a warm 2 MiB array (the reach of
//! a core's share of L2/L3) with the queries, and a copy of 8 MiB into a
//! fresh allocation with the publishes and set-ups, which allocate and
//! copy index-sized data, and that copy on every CPU at once with the
//! batches, which slow down when any CPU does. On a 2-vCPU VM, scaling NNC
//! latencies by the read probe cut the spread of their 10-second medians
//! from 0.21 to 0.03-0.08 of the median (a pure compute loop, whose speed
//! did not change, left 0.17), and scaling publishes and batches by a
//! one-thread copy probe cut it from 0.11-0.14 to 0.04-0.07.
//!
//! So every end-to-end time is reported calibrated: its wall time times
//! the probe's reference time over the probe's time right after the
//! operation, that is what the operation takes on a host where the probe
//! takes its reference time. The probes are the benchmark's code, not the
//! program's, and the read probe warms its array before it is timed, so a
//! change to the program moves a calibrated time as it moves the wall
//! time. The traced per-layer run reports wall times.

use crate::phases::nproc;
use crate::stats::median;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// A probe, named after the operations it calibrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Random reads over a warm 2 MiB array: for query and refresh
    /// latencies.
    Reads,
    /// An 8 MiB copy into a fresh allocation: for publishes and set-ups.
    Copy,
    /// The copy probe on every logical CPU at once, timed until the last
    /// one ends: for batches, which run on every CPU and slow down when
    /// any one of them does.
    Parallel,
}

impl Probe {
    /// Both probes, in report order.
    pub const ALL: [Probe; 3] = [Probe::Reads, Probe::Copy, Probe::Parallel];

    /// The probe's median time, in milliseconds, over end-to-end runs on
    /// a 2-vCPU Xeon VM: on such a host a calibrated time reads as a
    /// typical wall time.
    pub fn reference_ms(self) -> f64 {
        match self {
            Probe::Reads => 0.48,
            Probe::Copy => 1.6,
            Probe::Parallel => 2.0,
        }
    }

    /// The probe's name in the notes.
    pub fn name(self) -> &'static str {
        match self {
            Probe::Reads => "reads",
            Probe::Copy => "copy",
            Probe::Parallel => "parallel copy",
        }
    }
}

/// Elements of the read probe's array (2 MiB of `f64`).
const ARRAY_LEN: usize = 1 << 18;
/// Random read pairs of one read probe.
const PAIRS: usize = 100_000;
/// Bytes of one copy probe.
const COPY_BYTES: usize = 8 << 20;
/// A scale is taken over this many of the latest probes, so one probe
/// that an interrupt lengthened moves it little.
const RECENT: usize = 3;

/// The probes' data and the times they took.
struct Probes {
    array: Vec<f64>,
    source: Vec<u8>,
    /// Every time of each probe in the run, ms, indexed like
    /// [`Probe::ALL`].
    times: [Vec<f64>; 3],
}

impl Probes {
    fn new() -> Probes {
        Probes {
            array: (0..ARRAY_LEN).map(|i| i as f64 * 0.5).collect(),
            source: vec![0x5a; COPY_BYTES],
            times: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Runs `probe` once. Returns milliseconds.
    fn time(&self, probe: Probe) -> f64 {
        match probe {
            Probe::Reads => {
                // Warm the array, then time the same seeded pairs as
                // every read probe.
                black_box(self.array.iter().sum::<f64>());
                let start = Instant::now();
                let mask = ARRAY_LEN - 1;
                let (mut h, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0.0);
                for _ in 0..PAIRS {
                    // xorshift64
                    h ^= h << 13;
                    h ^= h >> 7;
                    h ^= h << 17;
                    let a = self.array[h as usize & mask];
                    let b = self.array[(h >> 32) as usize & mask];
                    acc += (a - b) * (a - b);
                }
                black_box(acc);
                start.elapsed().as_secs_f64() * 1e3
            }
            Probe::Copy => {
                let start = Instant::now();
                black_box(self.source.clone());
                start.elapsed().as_secs_f64() * 1e3
            }
            Probe::Parallel => {
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..nproc() {
                        s.spawn(|| black_box(self.source.clone()));
                    }
                });
                start.elapsed().as_secs_f64() * 1e3
            }
        }
    }

    fn scale(&mut self, probe: Probe) -> f64 {
        let t = self.time(probe);
        let times = &mut self.times[probe as usize];
        times.push(t);
        let recent = &times[times.len().saturating_sub(RECENT)..];
        probe.reference_ms() / median(recent).unwrap_or(t)
    }
}

thread_local! {
    static PROBES: RefCell<Option<Probes>> = const { RefCell::new(None) };
}

/// Switches calibration on for this thread (the end-to-end run). Each
/// probe runs [`RECENT`] times first: the first copy faults its fresh
/// memory in and takes several times as long, which made the first
/// calibrated set-up of a run read a third of the others.
pub fn enable() {
    let mut probes = Probes::new();
    for probe in Probe::ALL {
        for _ in 0..RECENT {
            probes.scale(probe);
        }
    }
    PROBES.with(|p| *p.borrow_mut() = Some(probes));
}

/// Runs `probe` once and returns the factor that calibrates the wall time
/// of the operation that just ended: the probe's reference time over the
/// median of its latest times. Call it right after the operation's clock
/// stops. 1 when calibration is off.
pub fn scale(probe: Probe) -> f64 {
    PROBES.with(|p| p.borrow_mut().as_mut().map_or(1.0, |p| p.scale(probe)))
}

/// Every time of `probe` in the run so far, ms.
pub fn probe_times(probe: Probe) -> Vec<f64> {
    PROBES.with(|p| {
        p.borrow()
            .as_ref()
            .map_or(Vec::new(), |p| p.times[probe as usize].clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_when_off_and_positive_when_on() {
        for probe in Probe::ALL {
            assert_eq!(scale(probe), 1.0);
            assert!(probe_times(probe).is_empty());
        }
        enable();
        for probe in Probe::ALL {
            let k = scale(probe);
            assert!(k.is_finite() && k > 0.0);
            assert_eq!(probe_times(probe).len(), RECENT + 1);
        }
    }
}
