//! Quickstart: NN-candidate search over a handful of multi-instance
//! objects, comparing the five dominance operators.
//!
//! ```text
//! cargo run --example quickstart
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

use osd::prelude::*;

fn main() {
    // Four shops, each known by a few surveyed locations (e.g. noisy GPS
    // fixes). Instance weights are uniform.
    let objects = vec![
        // 0: tight cluster near the query
        UncertainObject::uniform(vec![
            Point::from([1.0, 1.0]),
            Point::from([1.2, 0.8]),
            Point::from([0.9, 1.1]),
        ]),
        // 1: slightly farther, slightly wider
        UncertainObject::uniform(vec![
            Point::from([1.6, 1.4]),
            Point::from([2.0, 1.9]),
            Point::from([1.8, 1.5]),
        ]),
        // 2: one instance very close, one far — risky but sometimes nearest
        UncertainObject::uniform(vec![Point::from([0.3, 0.4]), Point::from([6.0, 6.0])]),
        // 3: clearly distant
        UncertainObject::uniform(vec![Point::from([9.0, 9.0]), Point::from([9.5, 8.5])]),
    ];

    // The query is itself uncertain: two possible positions.
    let query = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([0.0, 0.0]),
        Point::from([0.5, 0.5]),
    ]));

    let db = Database::new(objects);
    println!("objects: {}, query instances: {}\n", db.len(), query.len());

    println!("{:<6} {:>10}  candidates", "op", "|NNC|");
    for op in Operator::ALL {
        let result = nn_candidates(&db, &query, op, &FilterConfig::all());
        println!(
            "{:<6} {:>10}  {:?}",
            op.label(),
            result.candidates.len(),
            result.ids()
        );
    }

    // Why the far object never shows up: everything peer-dominates it.
    let far = db.object(3).to_object();
    let near = db.object(0).to_object();
    println!(
        "\nP-SD(near, far, Q) = {}",
        p_sd(&near, &far, query.object())
    );

    // And why object 2 survives: under the `min` aggregate it is the best.
    let d0 = DistanceDistribution::between_ref(db.object(0), query.object());
    let d2 = DistanceDistribution::between_ref(db.object(2), query.object());
    println!(
        "min-dist: object0 = {:.3}, object2 = {:.3}  (object2 wins under f = min)",
        d0.min(),
        d2.min()
    );
}
