//! Wall-clock reads go through one shim; naming an `Instant` span kind
//! is not a clock read.
use std::time::Instant;

/// Region or point event: the `Instant` variant is a name.
pub enum SpanKind {
    /// An open/close region.
    Region,
    /// A zero-duration point event.
    Instant,
}

pub fn stamp() -> u64 {
    let t = Instant::now();
    let _ = SpanKind::Instant;
    let _ = SpanKind::Region;
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn wall() -> bool {
    std::time::SystemTime::now() > std::time::UNIX_EPOCH
}

//~ expect: clippy::disallowed_types @ 3
//~ expect: clippy::disallowed_types @ 14
//~ expect: clippy::disallowed_types @ 21
