//! Float orderings go through `total_cmp`; every `partial_cmp` call is
//! banned, however the chain is split.
use std::cmp::Ordering;

pub fn order(a: f64, b: f64) -> Ordering {
    a
        .partial_cmp(&b)
        // NaN "cannot happen"
        .unwrap()
}

pub fn by_path(a: &f64, b: &f64) -> Option<Ordering> {
    f64::partial_cmp(a, b)
}

pub fn slices(a: &[f64], b: &[f64]) -> Option<Ordering> {
    a.partial_cmp(b)
}

pub fn iters(a: &[f64], b: &[f64]) -> Option<Ordering> {
    a.iter().partial_cmp(b.iter())
}

/// Ord plumbing is not a call site.
#[derive(PartialEq, Eq)]
pub struct Key(u32);

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

//~ expect: clippy::unwrap_used @ 6
//~ expect: clippy::disallowed_methods @ 7
//~ expect: clippy::disallowed_methods @ 13
//~ expect: clippy::disallowed_methods @ 17
//~ expect: clippy::disallowed_methods @ 21
