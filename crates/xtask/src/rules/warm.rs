//! Warm-cache bypass rule: `no-warm-bypass`.

use super::{is_hot_path, push, Violation};
use crate::model::{SourceFile, Workspace};

/// Level snapshots, distance distributions (`U_Q`, `U_q`) and
/// bound-distribution tables are built by the shared constructors in
/// `core::cache`; the index holds each object's level snapshot and
/// `core::warm` promotes the query-keyed state to snapshot lifetime. A
/// hot-path file constructing them directly bypasses the per-query
/// hit/miss accounting, the shared copies *and* the epoch-keyed
/// invalidation protocol, so a stale table could silently survive a
/// publish. `core::cache` is the only builder.
pub(super) fn no_warm_bypass(_ws: &Workspace, file: &SourceFile, out: &mut Vec<Violation>) {
    if !is_hot_path(&file.path) {
        return;
    }
    for p in 0..file.sig.len() {
        if file.is_test_code(p) {
            continue;
        }
        let Some(t) = file.sig_tok(p) else { break };
        // `LevelSnapshot { .. }` / `LevelGroups { .. }` struct literals.
        // Type positions followed by a block (`-> LevelSnapshot {`,
        // `impl LevelSnapshot {`, `for LevelSnapshot {`) are not
        // construction.
        let type_position = p > 0
            && file
                .sig_tok(p - 1)
                .is_some_and(|b| b.is_punct("->") || b.is_ident("impl") || b.is_ident("for"));
        let literal = (t.is_ident("LevelSnapshot") || t.is_ident("LevelGroups"))
            && file.sig_tok(p + 1).is_some_and(|n| n.is_punct("{"))
            && !type_position;
        // Direct calls to the shared cache constructors, or to the
        // distribution constructors they wrap.
        let builder = [
            "build_level_snapshot",
            "build_bounds_whole",
            "build_bounds_instance",
            "build_dist_q",
            "build_per_q",
            "between_ref",
            "to_instance_ref",
        ]
        .iter()
        .any(|name| t.is_ident(name))
            && file.sig_tok(p + 1).is_some_and(|n| n.is_punct("("));
        if literal || builder {
            push(
                out,
                file,
                t.line,
                "no-warm-bypass",
                format!(
                    "`{}` constructed directly in a hot query path; obtain level \
                     snapshots, distance distributions and bound distributions \
                     through `CheckCtx`'s `DominanceCache` so warm promotion and \
                     epoch invalidation stay correct",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{check_src, rules};

    #[test]
    fn flags_literals_and_builder_calls_in_hot_paths() {
        let v = check_src(
            "crates/core/src/nnc.rs",
            "fn f() { let _s = LevelSnapshot { groups: g }; }\n",
        );
        assert_eq!(rules(&v), vec!["no-warm-bypass"]);
        let v = check_src(
            "crates/core/src/knnc.rs",
            "fn f(q: &Q, l: &L) { let _b = build_bounds_whole(q, l); }\n",
        );
        assert_eq!(rules(&v), vec!["no-warm-bypass"]);
        let v = check_src(
            "crates/core/src/ops/ssd.rs",
            "/// Per Definition 3.\npub fn f(q: &Q, l: &L) { let _b = crate::cache::build_bounds_instance(q, l); }\n",
        );
        assert!(v.iter().any(|x| x.rule == "no-warm-bypass"));
        let v = check_src(
            "crates/core/src/ops/sssd.rs",
            "fn f(o: O, q: &Q) { let _d = DistanceDistribution::between_ref(o, q); }\n",
        );
        assert_eq!(rules(&v), vec!["no-warm-bypass"]);
        let v = check_src(
            "crates/core/src/nnc.rs",
            "fn f(o: O, p: &P) { let _d = DistanceDistribution::to_instance_ref(o, p); }\n",
        );
        assert_eq!(rules(&v), vec!["no-warm-bypass"]);
    }

    #[test]
    fn cache_warm_and_type_mentions_are_fine() {
        // cache.rs and warm.rs own the constructors.
        assert!(check_src(
            "crates/core/src/cache.rs",
            "pub fn f() { let _s = LevelSnapshot { groups: g }; }\n"
        )
        .is_empty());
        assert!(check_src(
            "crates/core/src/warm.rs",
            "fn f(q: &Q, l: &L) { let _b = build_bounds_whole(q, l); }\n"
        )
        .is_empty());
        assert!(check_src(
            "crates/core/src/cache.rs",
            "fn f(o: O, q: &Q) { let _d = DistanceDistribution::between_ref(o, q); }\n"
        )
        .is_empty());
        // Naming the type (annotations, signatures) is not construction.
        assert!(check_src(
            "crates/core/src/nnc.rs",
            "fn f(s: &LevelSnapshot) -> usize { s.height() }\n"
        )
        .is_empty());
        // Test modules inside hot-path files are exempt.
        assert!(check_src(
            "crates/core/src/nnc.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _s = LevelSnapshot { groups: g }; }\n}\n"
        )
        .is_empty());
    }
}
