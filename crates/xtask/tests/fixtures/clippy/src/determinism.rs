//! Results never depend on hash order or thread identity.
use std::collections::HashMap;
use std::collections::HashSet;

pub type Index = HashMap<u64, usize>;

pub fn seen(xs: &[u64]) -> usize {
    let set: HashSet<u64> = xs.iter().copied().collect();
    set.len()
}

pub fn hasher() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

pub fn me() -> std::thread::ThreadId {
    std::thread::current().id()
}

//~ expect: clippy::disallowed_types @ 2
//~ expect: clippy::disallowed_types @ 3
//~ expect: clippy::disallowed_types @ 5
//~ expect: clippy::disallowed_types @ 8
//~ expect: clippy::disallowed_types @ 12
//~ expect: clippy::disallowed_types @ 13
//~ expect: clippy::disallowed_types @ 16
//~ expect: clippy::disallowed_methods @ 17
