//! k-robust shortlists and CSV interchange.
//!
//! A dispatcher wants the nearest ambulance to an incident. Ambulances have
//! uncertain positions (recent GPS pings), some may turn out unavailable —
//! so the shortlist must still contain the nearest one after losing up to
//! `k − 1` entries. That is exactly the k-robust NN candidate set
//! (`NNC_k`): objects dominated by fewer than `k` others.
//!
//! The fleet is round-tripped through the CSV interchange format on the
//! way, showing how external data plugs in.
//!
//! ```text
//! cargo run --release --example robust_shortlist
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

use osd::datagen::{read_objects_csv, write_objects_csv};
use osd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Simulate a fleet of 200 ambulances, each with 5 recent GPS pings.
    let mut rng = StdRng::seed_from_u64(1234);
    let fleet: Vec<UncertainObject> = (0..200)
        .map(|_| {
            let cx = rng.gen_range(0.0..10_000.0);
            let cy = rng.gen_range(0.0..10_000.0);
            UncertainObject::uniform(
                (0..5)
                    .map(|_| {
                        Point::from([
                            cx + rng.gen_range(-150.0..150.0),
                            cy + rng.gen_range(-150.0..150.0),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();

    // Round-trip through the CSV interchange format.
    let path = std::env::temp_dir().join("osd-fleet.csv");
    write_objects_csv(&path, &fleet).expect("write fleet");
    let fleet = read_objects_csv(&path).expect("read fleet");
    std::fs::remove_file(&path).ok();
    println!("loaded {} ambulances from CSV", fleet.len());

    let db = Database::new(fleet);
    // The incident location is fuzzy (two witness reports).
    let incident = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([5_000.0, 5_000.0]),
        Point::from([5_120.0, 4_940.0]),
    ]));

    println!(
        "\n{:>3} {:>10} {:>30}",
        "k", "shortlist", "ids (emission order)"
    );
    for k in [1usize, 2, 3, 5] {
        let res = k_nn_candidates(&db, &incident, Operator::SsSd, k, &FilterConfig::all());
        let ids = res.ids();
        println!(
            "{:>3} {:>10} {:>30}",
            k,
            ids.len(),
            format!("{:?}", &ids[..ids.len().min(8)])
        );
    }

    // Robustness check: remove the k=1 candidates from the database and
    // verify the next-best is already inside the k=2 shortlist.
    let k1: Vec<usize> =
        k_nn_candidates(&db, &incident, Operator::SsSd, 1, &FilterConfig::all()).ids();
    let k2: Vec<usize> =
        k_nn_candidates(&db, &incident, Operator::SsSd, 2, &FilterConfig::all()).ids();
    let survivors: Vec<UncertainObject> = (0..db.len())
        .filter(|i| !k1.contains(i))
        .map(|i| db.object(i).to_object())
        .collect();
    let id_map: Vec<usize> = (0..db.len()).filter(|i| !k1.contains(i)).collect();
    let db2 = Database::new(survivors);
    let after: Vec<usize> = nn_candidates(&db2, &incident, Operator::SsSd, &FilterConfig::all())
        .ids()
        .into_iter()
        .map(|i| id_map[i])
        .collect();
    let all_covered = after.iter().all(|id| k2.contains(id));
    println!(
        "\nafter losing every rank-1 candidate, the new candidates {:?} are {} the k=2 shortlist",
        &after[..after.len().min(8)],
        if all_covered {
            "all inside"
        } else {
            "NOT all inside (!)"
        }
    );
}
