//~ path: crates/core/src/knnc.rs
fn copy_out(xs: &[f64]) -> Vec<f64> {
    xs
        .to_vec
        ()
}

//~ expect: no-owned-points-in-hot-paths @ 4
