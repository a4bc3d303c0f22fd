//! The spatial dominance operators (§2, §5.1).
//!
//! * [`Operator`] selects among S-SD, SS-SD, P-SD, F-SD and F⁺-SD;
//! * [`dominates`] runs the configured dominance check between two objects
//!   of a [`Database`] with shared caching;
//! * `s_sd` / `ss_sd` / `p_sd` / `f_sd` / `f_plus_sd` are standalone
//!   convenience wrappers over raw objects.

mod fsd;
mod level;
mod psd;
mod ssd;
mod sssd;

use crate::cache::AggStats;
use crate::config::FilterConfig;
use crate::ctx::CheckCtx;
use crate::db::Database;
use crate::query::PreparedQuery;
use osd_uncertain::UncertainObject;

pub use psd::peer_network_flow;

/// The spatial dominance operators, ordered from strongest dominance
/// condition (fewest dominations, most candidates) to weakest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Full spatial dominance on MBRs (Emrich et al. \[16\]) — the F⁺-SD
    /// baseline of §6.
    FPlusSd,
    /// Full spatial dominance on instances (§1, §6).
    FSd,
    /// Peer spatial dominance (Definition 5) — optimal w.r.t. N1 ∪ N2 ∪ N3.
    PSd,
    /// Strict stochastic spatial dominance (Definition 3) — optimal w.r.t.
    /// N1 ∪ N2.
    SsSd,
    /// Stochastic spatial dominance (Definition 2) — optimal w.r.t. N1.
    SSd,
}

impl Operator {
    /// All five operators in the paper's presentation order
    /// (SSD, SSSD, PSD, FSD, F⁺SD).
    pub const ALL: [Operator; 5] = [
        Operator::SSd,
        Operator::SsSd,
        Operator::PSd,
        Operator::FSd,
        Operator::FPlusSd,
    ];

    /// The label used in the paper's figures (§6 evaluation).
    pub fn label(&self) -> &'static str {
        match self {
            Operator::SSd => "SSD",
            Operator::SsSd => "SSSD",
            Operator::PSd => "PSD",
            Operator::FSd => "FSD",
            Operator::FPlusSd => "F+SD",
        }
    }
}

/// Checks whether object `u` dominates object `v` under `op` — the
/// `SD(U, V, Q)` dispatch over Definitions 2–6 of the paper — against the
/// query environment carried by `ctx` (database, prepared query, filter
/// configuration, per-query cache and cost counters).
///
/// With the `strict-invariants` feature the result is cross-checked
/// against the cover chain of Theorem 2 on every call.
pub fn dominates(op: Operator, u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    debug_assert_ne!(u, v, "an object is never checked against itself");
    ctx.stats.dominance_checks += 1;
    let result = raw_check(op, u, v, ctx);
    #[cfg(feature = "strict-invariants")]
    audit_cover_chain(op, result, u, v, ctx);
    result
}

/// The undecorated per-operator dispatch (no stats bump, no audit) —
/// shared by [`dominates`] and the `strict-invariants` cover-chain audit.
fn raw_check(op: Operator, u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    match op {
        Operator::SSd => ssd::check(u, v, ctx),
        Operator::SsSd => sssd::check(u, v, ctx),
        Operator::PSd => psd::check(u, v, ctx),
        Operator::FSd => fsd::check(u, v, ctx),
        Operator::FPlusSd => {
            // MBR-level antisymmetry guard: mutual MBR dominance only occurs
            // for exactly-tied configurations (equidistant degenerate boxes),
            // where neither object should exclude the other — the same
            // equal-twin rationale as the instance-level guard in `fsd`.
            ctx.stats.mbr_checks += 2;
            let (db, query) = (ctx.db, ctx.query);
            osd_geom::mbr_dominates(db.object(u).mbr(), db.object(v).mbr(), query.mbr())
                && !osd_geom::mbr_dominates(db.object(v).mbr(), db.object(u).mbr(), query.mbr())
        }
    }
}

/// `true` when any of min/mean/max of `a` exceeds that of `b` — an
/// inverted statistic, which disproves `a`'s distribution stochastically
/// dominating `b`'s (Theorem 11).
fn inverted(a: AggStats, b: AggStats) -> bool {
    a.0 > b.0 || a.1 > b.1 || a.2 > b.2
}

/// Cover-chain audit (Theorem 2): `F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD` — a
/// domination under an operator must also hold under every weaker one down
/// the chain (P-SD refutes through SS-SD only, so its S-SD implication is
/// checked nowhere else). Cross-checked on small inputs only (the
/// weaker checks cost up to a flow solve), via `debug_assert!` so release
/// builds pay nothing even with the feature on. `Stats` is `Copy`, so the
/// audit snapshots and restores the counters rather than polluting the
/// measured run.
#[cfg(feature = "strict-invariants")]
fn audit_cover_chain(op: Operator, result: bool, u: usize, v: usize, ctx: &mut CheckCtx<'_>) {
    const MAX_AUDIT_INSTANCES: usize = 8;
    // Strongest first; F⁺-SD is the MBR-level baseline, outside the chain.
    const CHAIN: [Operator; 4] = [Operator::FSd, Operator::PSd, Operator::SsSd, Operator::SSd];
    if !result
        || ctx.db.object(u).len() > MAX_AUDIT_INSTANCES
        || ctx.db.object(v).len() > MAX_AUDIT_INSTANCES
        || ctx.query.len() > MAX_AUDIT_INSTANCES
    {
        return;
    }
    let Some(pos) = CHAIN.iter().position(|&o| o == op) else {
        return;
    };
    let snapshot = ctx.stats;
    for &weaker in &CHAIN[pos + 1..] {
        let weaker_holds = raw_check(weaker, u, v, ctx);
        debug_assert!(
            weaker_holds,
            "cover chain (Theorem 2) violated: {op:?} dominates u={u}, v={v} but {weaker:?} does not"
        );
    }
    ctx.stats = snapshot;
}

macro_rules! standalone {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(u: &UncertainObject, v: &UncertainObject, q: &UncertainObject) -> bool {
            let db = Database::new(vec![u.clone(), v.clone()]);
            let query = PreparedQuery::new(q.clone());
            let mut ctx = CheckCtx::new(&db, &query, FilterConfig::all());
            dominates($op, 0, 1, &mut ctx)
        }
    };
}

standalone!(
    /// Standalone stochastic spatial dominance check: `S-SD(u, v, q)` (Definition 2).
    s_sd,
    Operator::SSd
);
standalone!(
    /// Standalone strict stochastic spatial dominance check: `SS-SD(u, v, q)` (Definition 3).
    ss_sd,
    Operator::SsSd
);
standalone!(
    /// Standalone peer spatial dominance check: `P-SD(u, v, q)` (Definition 5).
    p_sd,
    Operator::PSd
);
standalone!(
    /// Standalone instance-level full spatial dominance check: `F-SD(u, v, q)` (Definition 6).
    f_sd,
    Operator::FSd
);
standalone!(
    /// Standalone MBR-level full spatial dominance check: `F⁺-SD(u, v, q)` (Definition 6 over MBRs, §6).
    f_plus_sd,
    Operator::FPlusSd
);
