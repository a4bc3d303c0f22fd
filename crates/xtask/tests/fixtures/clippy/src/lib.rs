//! Seeded violations, one module per ban family. Each `//~ expect:`
//! annotation names the lint that must reject its line.

pub mod determinism;
pub mod partial_cmp;
pub mod print;
pub mod raw_cow;
pub mod rc;
pub mod timing;
