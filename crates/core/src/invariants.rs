//! `strict-invariants` audit helpers.
//!
//! Compiled only with the `strict-invariants` cargo feature. The
//! cover-chain audit of Theorem 2 is wired directly into
//! [`crate::ops::dominates`]; this module adds the *relational* contracts
//! that need a whole database to state:
//!
//! * [`transitivity_spot_check`] — Theorem 9: each SD operator is
//!   transitive, so `SD(u, v)` and `SD(v, w)` must imply `SD(u, w)`;
//! * [`irreflexivity_spot_check`] — no object dominates itself (the
//!   `U_Q ≠ V_Q` side condition of Definitions 2/3/5 degenerates to
//!   falsity on identical operands).
//!
//! Both are exhaustive over the database they are given — callers keep the
//! databases small (they are spot-checkers, not production paths).

use crate::config::FilterConfig;
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;

/// Checks Theorem 9 (transitivity) exhaustively over all ordered triples
/// of `db`: whenever `u` dominates `v` and `v` dominates `w`, `u` must
/// dominate `w`. Returns the first violating triple as `(u, v, w)`.
pub fn transitivity_spot_check(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> Result<(), (usize, usize, usize)> {
    let n = db.len();
    let mut ctx = CheckCtx::new(db, query, *cfg);
    // Materialise the relation once: n² checks instead of n³.
    let mut dom = vec![vec![false; n]; n];
    for (u, row) in dom.iter_mut().enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            if u != v {
                *cell = ctx.dominates(op, u, v);
            }
        }
    }
    for (u, from_u) in dom.iter().enumerate() {
        for (v, from_v) in dom.iter().enumerate() {
            if u == v || !from_u[v] {
                continue;
            }
            for (w, (&vw, &uw)) in from_v.iter().zip(from_u).enumerate() {
                if w != u && w != v && vw && !uw {
                    return Err((u, v, w));
                }
            }
        }
    }
    Ok(())
}

/// Checks that the dominance relation never relates an object to an exact
/// distributional twin of itself (insert a clone to exercise this): for
/// every pair with identical distance distributions, neither direction may
/// dominate under the strict operators. Returns the first violating pair.
pub fn irreflexivity_spot_check(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> Result<(), (usize, usize)> {
    let n = db.len();
    let mut ctx = CheckCtx::new(db, query, *cfg);
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let du = osd_uncertain::DistanceDistribution::between_ref(db.object(u), query.object());
            let dv = osd_uncertain::DistanceDistribution::between_ref(db.object(v), query.object());
            if du.approx_eq(&dv, osd_uncertain::CDF_EPS) && ctx.dominates(op, u, v) {
                return Err((u, v));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    /// A deterministic pseudo-random scatter of multi-instance objects.
    fn scatter(n: usize, instances: usize, seed: u64) -> Vec<UncertainObject> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0
        };
        (0..n)
            .map(|_| {
                UncertainObject::uniform(
                    (0..instances)
                        .map(|_| Point::new(vec![next(), next()]))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn transitivity_holds_on_random_scatters() {
        for seed in 1..6u64 {
            let db = Database::new(scatter(8, 3, seed));
            let query =
                PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![10.0, 10.0])]));
            for op in Operator::ALL {
                assert_eq!(
                    transitivity_spot_check(&db, &query, op, &FilterConfig::all()),
                    Ok(()),
                    "op {op:?}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn twins_never_dominate_each_other() {
        let mut objects = scatter(5, 3, 42);
        // Clone of object 0 at the end: an exact distributional twin.
        objects.push(objects[0].clone());
        let db = Database::new(objects);
        let query = PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![0.0, 0.0])]));
        for op in Operator::ALL {
            assert_eq!(
                irreflexivity_spot_check(&db, &query, op, &FilterConfig::all()),
                Ok(()),
                "op {op:?}"
            );
        }
    }
}
