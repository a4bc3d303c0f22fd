//~ path: crates/rtree/src/lib.rs
#![allow(
    clippy::module_name_repetitions,
    clippy::unwrap_used,
)]
#![allow(clippy::print_stdout)]
#![cfg_attr(feature = "obs", allow(clippy::print_stderr))]

#[allow(clippy::disallowed_types)]
pub type Index = std::collections::HashMap<u64, usize>;

#[expect(clippy::disallowed_methods)]
pub fn order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

/// The panic family's sanctioned escape hatch: scoped, on a cold path.
#[cold]
#[allow(clippy::expect_used)]
pub fn invariant(x: Option<u8>) -> u8 {
    x.expect("documented invariant")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::style)]
    #![allow(clippy::unwrap_used)]

    #[allow(clippy::disallowed_types)]
    fn scratch() -> std::time::Instant {
        std::time::Instant::now()
    }
}

//~ expect: no-panic-allow-in-libs @ 2
//~ expect: no-panic-allow-in-libs @ 6
//~ expect: no-panic-allow-in-libs @ 7
//~ expect: no-panic-allow-in-libs @ 9
//~ expect: no-panic-allow-in-libs @ 12
//~ expect: no-panic-allow-in-libs @ 26
//~ expect: no-panic-allow-in-libs @ 29
