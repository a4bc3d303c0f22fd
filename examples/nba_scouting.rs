//! Multi-valued objects (the paper's NBA motivation): each player is a set
//! of per-game stat lines (points, assists, rebounds). A scout describes a
//! target profile — possibly a range of acceptable profiles — and asks for
//! the candidate set of most-similar players, without committing to one
//! similarity function.
//!
//! ```text
//! cargo run --release --example nba_scouting
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

use osd::datagen::nba_like;
use osd::prelude::*;

fn main() {
    // 150 players × 60 games, 3-d stat space scaled to [0, 10000].
    let players = nba_like(150, 60, 7);
    let db = Database::new(players);

    // The scout's target: a star-ish profile, with two acceptable variants
    // (score-first or playmaking-first).
    let target = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([6_500.0, 2_500.0, 4_000.0]),
        Point::from([5_500.0, 4_000.0, 3_500.0]),
    ]));

    println!("--- shortlist sizes by dominance operator ---");
    for op in Operator::ALL {
        let res = nn_candidates(&db, &target, op, &FilterConfig::all());
        println!("{:<6} {:>4} players", op.label(), res.candidates.len());
    }

    // Compare the winners of three very different similarity notions.
    let ssd = nn_candidates(&db, &target, Operator::SSd, &FilterConfig::all());
    let sssd = nn_candidates(&db, &target, Operator::SsSd, &FilterConfig::all());
    let psd = nn_candidates(&db, &target, Operator::PSd, &FilterConfig::all());

    let by_mean = best_by(&db, |o| N1Function::Mean.score(o, target.object()));
    let by_max = best_by(&db, |o| N1Function::Max.score(o, target.object()));
    let by_emd = best_by(&db, |o| emd(o, target.object()));
    let by_q25 = best_by(&db, |o| {
        N1Function::Quantile(0.25).score(o, target.object())
    });

    println!("\n--- winners under specific functions ---");
    println!(
        "expected distance  → player {by_mean:>3} | in SSD set: {}",
        ssd.ids().contains(&by_mean)
    );
    println!(
        "max distance       → player {by_max:>3} | in SSD set: {}",
        ssd.ids().contains(&by_max)
    );
    println!(
        "0.25-quantile      → player {by_q25:>3} | in SSD set: {}",
        ssd.ids().contains(&by_q25)
    );
    println!(
        "earth mover's      → player {by_emd:>3} | in PSD set: {}",
        psd.ids().contains(&by_emd)
    );

    // NN probability (a possible-world / N2 function) on the SS-SD
    // shortlist: computing it for the shortlist only is cheap, and the
    // winner is guaranteed to be inside.
    println!("\n--- NN probability across the SS-SD shortlist ---");
    let shortlist = sssd.ids();
    let objects = db.store().to_objects();
    let mut scored: Vec<(usize, f64)> = shortlist
        .iter()
        .map(|&id| (id, nn_probability(&objects, id, target.object())))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (id, p) in scored.iter().take(5) {
        println!("player {id:>3}  Pr(nearest) = {p:.4}");
    }
    println!(
        "\n(The shortlist has {} players out of {}; every possible-world \
         ranking winner is inside it.)",
        shortlist.len(),
        db.len()
    );
}

fn best_by(db: &Database, score: impl Fn(&UncertainObject) -> f64) -> usize {
    let objects = db.store().to_objects();
    (0..db.len())
        .min_by(|&a, &b| score(&objects[a]).total_cmp(&score(&objects[b])))
        .unwrap()
}
