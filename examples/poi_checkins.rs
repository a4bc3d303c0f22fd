//! Check-in scenario (the paper's GoWalla motivation): each user is an
//! object whose instances are their check-in locations. Given an event
//! venue (the query), compute the candidate set of "nearest users" that is
//! safe for *every* reasonable NN function — then drill into what each
//! concrete function would pick.
//!
//! ```text
//! cargo run --release --example poi_checkins
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

use osd::datagen::gowalla_like;
use osd::prelude::*;

fn main() {
    // 400 users, 15 check-ins each, deterministic seed.
    let users = gowalla_like(400, 15, 2026);
    let db = Database::new(users);

    // The event venue is uncertain too: three possible entrances.
    let venue = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([5_000.0, 5_000.0]),
        Point::from([5_060.0, 4_950.0]),
        Point::from([4_950.0, 5_080.0]),
    ]));

    println!("--- candidate sets (operator → size) ---");
    let mut psd_ids = Vec::new();
    for op in Operator::ALL {
        let res = nn_candidates(&db, &venue, op, &FilterConfig::all());
        println!("{:<6} {:>5} candidates", op.label(), res.candidates.len());
        if op == Operator::PSd {
            psd_ids = res.ids();
        }
    }

    // Every concrete NN function must pick its winner inside the matching
    // candidate set. Demonstrate with a few N1 and N3 functions.
    println!("\n--- who wins under concrete NN functions ---");
    let n1_funcs = [
        N1Function::Min,
        N1Function::Mean,
        N1Function::Max,
        N1Function::Quantile(0.5),
    ];
    let boxed = db.store().to_objects();
    for f in n1_funcs {
        let best = (0..db.len())
            .min_by(|&a, &b| {
                f.score(&boxed[a], venue.object())
                    .total_cmp(&f.score(&boxed[b], venue.object()))
            })
            .unwrap();
        println!(
            "{:<14} → user {:>3} (in P-SD candidates: {})",
            format!("{:?}", f),
            best,
            psd_ids.contains(&best)
        );
    }
    for (name, f) in [
        (
            "hausdorff",
            hausdorff as fn(&UncertainObject, &UncertainObject) -> f64,
        ),
        ("emd", emd),
        ("sum_min", sum_min),
    ] {
        let best = (0..db.len())
            .min_by(|&a, &b| f(&boxed[a], venue.object()).total_cmp(&f(&boxed[b], venue.object())))
            .unwrap();
        println!(
            "{:<14} → user {:>3} (in P-SD candidates: {})",
            name,
            best,
            psd_ids.contains(&best)
        );
    }

    println!(
        "\nThe P-SD candidate set ({} of {} users) is guaranteed to contain \
         the winner of every N1/N2/N3 function.",
        psd_ids.len(),
        db.len()
    );
}
