//! The paper's §1 motivation, live: the prior NN-core proposal (Yuen et
//! al.) picks a single "winner-take-all" candidate set from pairwise
//! superseding competitions — and thereby misses the nearest neighbour
//! under common NN functions. The SD candidate sets never do.
//!
//! ```text
//! cargo run --release --example nncore_comparison
//! ```

// Example binary: aborting on bad state is fine here, and printing is
// its output.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::print_stdout
)]

use osd::datagen::{generate_objects, CenterDistribution, SynthParams};
use osd::nncore::{nn_core, win_probability};
use osd::prelude::*;

fn main() {
    // Figure 1, replayed: three objects on a line, query at the origin.
    let q1 = UncertainObject::uniform(vec![Point::from([0.0])]);
    let a = UncertainObject::new(vec![(Point::from([1.0]), 0.6), (Point::from([8.0]), 0.4)]);
    let b = UncertainObject::new(vec![(Point::from([2.0]), 0.6), (Point::from([5.0]), 0.4)]);
    let c = UncertainObject::new(vec![(Point::from([3.9]), 0.6), (Point::from([4.0]), 0.4)]);
    println!("--- Figure 1 ---");
    println!("Pr(A beats B) = {:.2}", win_probability(&a, &b, &q1));
    let objs = vec![a, b, c];
    println!("NN-core          = {:?} (A only)", nn_core(&objs, &q1));
    let by_mean = best(&objs, |o| N1Function::Mean.score(o, &q1));
    let by_max = best(&objs, |o| N1Function::Max.score(o, &q1));
    println!("winner under mean = object {by_mean} (B)  — missed by NN-core");
    println!("winner under max  = object {by_max} (C)  — missed by NN-core");
    let db = Database::new(objs);
    let pq = PreparedQuery::new(q1);
    let ssd = nn_candidates(&db, &pq, Operator::SSd, &FilterConfig::all());
    println!("NNC(S-SD)         = {:?} (contains both)", {
        let mut v = ssd.ids();
        v.sort_unstable();
        v
    });

    // The same effect at dataset scale: overlapping objects, many queries.
    println!("\n--- dataset scale (n = 200, overlapping) ---");
    let objects = generate_objects(&SynthParams {
        n: 200,
        dim: 2,
        instances: 6,
        edge: 2_500.0,
        centers: CenterDistribution::Independent,
        seed: 404,
    });
    let db = Database::new(objects);
    let boxed = db.store().to_objects();
    let mut core_misses = 0;
    let mut sd_misses = 0;
    let queries = 10;
    for k in 0..queries {
        let q = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([
            3_000.0 + 500.0 * k as f64,
            5_000.0,
        ])]));
        let core = nn_core(&boxed, q.object());
        let ssd = nn_candidates(&db, &q, Operator::SSd, &FilterConfig::all()).ids();
        let w = best(&boxed, |o| N1Function::Max.score(o, q.object()));
        if !core.contains(&w) {
            core_misses += 1;
        }
        if !ssd.contains(&w) {
            sd_misses += 1;
        }
    }
    println!("max-distance winner missed by NN-core: {core_misses}/{queries} queries");
    println!("max-distance winner missed by S-SD   : {sd_misses}/{queries} queries (always 0, by Theorem 5)");
}

fn best(objs: &[UncertainObject], score: impl Fn(&UncertainObject) -> f64) -> usize {
    (0..objs.len())
        .min_by(|&a, &b| score(&objs[a]).total_cmp(&score(&objs[b])))
        .unwrap()
}
