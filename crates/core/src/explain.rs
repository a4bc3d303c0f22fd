//! Explanation utilities: *why* is an object (not) a candidate?
//!
//! The paper's use case has a human browsing the shortlist; these helpers
//! answer the follow-up questions — which objects dominate a non-candidate,
//! and what does the full dominance relation look like.

use crate::config::FilterConfig;
use crate::ctx::CheckCtx;
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmPool;

/// All objects that dominate `v` under `op` (empty iff `v` is a candidate).
pub fn dominators_of(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    v: usize,
    cfg: &FilterConfig,
) -> Vec<usize> {
    dominators_of_with(db, query, op, v, cfg, None)
}

/// [`dominators_of`], optionally resolving query-keyed cache misses
/// through `warm` — same answer, fewer rebuilds when the explanation runs
/// next to a warmed query session.
pub fn dominators_of_with(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    v: usize,
    cfg: &FilterConfig,
    warm: Option<&WarmPool>,
) -> Vec<usize> {
    let view = warm.map(|pool| pool.view_for(db, query));
    let mut ctx = CheckCtx::with_warm(db, query, *cfg, view);
    (0..db.len())
        .filter(|&u| u != v && db.is_live(u) && db.is_live(v) && ctx.dominates(op, u, v))
        .collect()
}

/// The full `n × n` dominance matrix: `m[u][v]` iff `u` dominates `v`.
/// Quadratic — intended for analysis of small candidate sets, not full
/// databases.
pub fn dominance_matrix(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> Vec<Vec<bool>> {
    let mut ctx = CheckCtx::new(db, query, *cfg);
    let n = db.len();
    let mut m = vec![vec![false; n]; n];
    for (u, row) in m.iter_mut().enumerate() {
        if !db.is_live(u) {
            continue;
        }
        for (v, cell) in row.iter_mut().enumerate() {
            if u != v && db.is_live(v) {
                *cell = ctx.dominates(op, u, v);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::nnc::nn_candidates;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn setup() -> (Database, PreparedQuery) {
        let db = Database::new(vec![
            obj(&[(1.0, 0.0), (2.0, 0.0)]),
            obj(&[(5.0, 0.0), (6.0, 0.0)]),
            obj(&[(9.0, 0.0), (10.0, 0.0)]),
        ]);
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        (db, q)
    }

    #[test]
    fn dominators_match_candidacy() {
        let (db, q) = setup();
        let cfg = FilterConfig::all();
        let candidates = nn_candidates(&db, &q, Operator::PSd, &cfg).ids();
        for v in 0..db.len() {
            let doms = dominators_of(&db, &q, Operator::PSd, v, &cfg);
            assert_eq!(
                doms.is_empty(),
                candidates.contains(&v),
                "object {v}: dominators {doms:?} vs candidates {candidates:?}"
            );
        }
    }

    #[test]
    fn matrix_consistent_with_dominators() {
        let (db, q) = setup();
        let cfg = FilterConfig::all();
        let m = dominance_matrix(&db, &q, Operator::SSd, &cfg);
        // `v` is a column index, not a row: range-loop is the clear spelling.
        #[allow(clippy::needless_range_loop)]
        for v in 0..db.len() {
            let from_matrix: Vec<usize> = (0..db.len()).filter(|&u| m[u][v]).collect();
            assert_eq!(from_matrix, dominators_of(&db, &q, Operator::SSd, v, &cfg));
        }
        // A dominance chain: 0 → 1 → 2 with transitivity 0 → 2.
        assert!(m[0][1] && m[1][2] && m[0][2]);
        assert!(!m[1][0] && !m[2][1] && !m[2][0]);
    }

    #[test]
    fn diagonal_is_false() {
        let (db, q) = setup();
        let m = dominance_matrix(&db, &q, Operator::FSd, &FilterConfig::all());
        for (i, row) in m.iter().enumerate() {
            assert!(!row[i]);
        }
    }
}
