//! The progressive property (Figure 14): candidates stream out as the
//! traversal runs, best-first — a UI can show the first page immediately,
//! the way a web search engine does.
//!
//! ```text
//! cargo run --release --example progressive_browse
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
use osd::prelude::*;

fn main() {
    let objects = generate_objects(&SynthParams {
        n: 3_000,
        dim: 2,
        instances: 10,
        edge: 400.0,
        centers: CenterDistribution::Independent,
        seed: 99,
    });
    let db = Database::new(objects);
    let query = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([5_000.0, 5_000.0]),
        Point::from([5_200.0, 5_100.0]),
        Point::from([4_900.0, 5_150.0]),
    ]));

    let cfg = FilterConfig::all();
    let mut traversal = ProgressiveNnc::new(&db, &query, Operator::PSd, &cfg);

    println!(
        "{:>4} {:>8} {:>12} {:>12}",
        "#", "object", "min-dist", "elapsed"
    );
    let mut count = 0;
    while let Some(c) = traversal.next_candidate() {
        count += 1;
        // A real application would hand each candidate to the user as it
        // arrives; here we print the stream.
        println!(
            "{:>4} {:>8} {:>12.2} {:>10.2?}",
            count, c.id, c.min_dist, c.elapsed
        );
        if count >= 15 {
            println!("... (stopping the stream early — no wasted work on the rest)");
            break;
        }
    }
    println!(
        "\nchecked {} objects so far; dominance stats: {:?}",
        traversal.objects_checked(),
        traversal.stats()
    );
}
