//! Shared ownership crosses threads, so it is `Arc`, never `Rc`.
use std::rc::Rc;
use std::sync::Arc;

pub type Shared = Rc<[f64]>;
pub type Weakly = std::rc::Weak<u8>;

pub fn fine(x: &Arc<u8>) -> Arc<u8> {
    Arc::clone(x)
}

//~ expect: clippy::disallowed_types @ 2
//~ expect: clippy::disallowed_types @ 5
//~ expect: clippy::disallowed_types @ 6
