//! Copy-on-write splices of a shared snapshot go through the epoch
//! builders, which log them; nowhere else calls `Arc::make_mut`.
use std::sync::Arc;

pub fn splice(store: &mut Arc<Vec<f64>>, x: f64) {
    Arc::make_mut(store).push(x);
}

pub fn clone_is_fine(store: &Arc<Vec<f64>>) -> Arc<Vec<f64>> {
    Arc::clone(store)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    #[test]
    fn tests_are_covered_too() {
        let mut s = Arc::new(vec![1.0]);
        Arc::make_mut(&mut s).push(2.0);
    }
}

//~ expect: clippy::disallowed_methods @ 6
//~ expect: clippy::disallowed_methods @ 20
