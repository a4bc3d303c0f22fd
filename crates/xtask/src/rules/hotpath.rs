//! Hot-path allocation rules: `no-owned-points-in-hot-paths`,
//! `no-alloc-in-kernels` and `no-per-shard-alloc-in-descent`.

use super::{is_hot_path, push, Violation};
use crate::model::{SourceFile, Workspace};

/// Hot query paths borrow rows from the columnar store; `.to_vec()`
/// gathers an owned copy per dominance check and reintroduces the
/// per-check heap traffic the flat SoA layout removed.
pub(super) fn no_owned_points_in_hot_paths(
    _ws: &Workspace,
    file: &SourceFile,
    out: &mut Vec<Violation>,
) {
    if !is_hot_path(&file.path) {
        return;
    }
    for p in 0..file.sig.len() {
        if file.is_test_code(p) {
            continue;
        }
        let Some(t) = file.sig_tok(p) else { break };
        if !t.is_punct(".") {
            continue;
        }
        if file.sig_tok(p + 1).is_some_and(|t| t.is_ident("to_vec"))
            && file.sig_tok(p + 2).is_some_and(|t| t.is_punct("("))
        {
            push(
                out,
                file,
                t.line,
                "no-owned-points-in-hot-paths",
                "`.to_vec()` in a hot query path gathers an owned copy per dominance \
                 check; borrow rows via the columnar accessors instead"
                    .into(),
            );
        }
    }
}

/// Files that are allocation-free in their entirety.
const ALLOC_FREE_FILES: &[&str] = &["crates/geom/src/kernels.rs", "crates/flow/src/transport.rs"];
/// Files with `// alloc-free: begin` / `// alloc-free: end` regions.
const ALLOC_FREE_REGION_FILES: &[&str] = &["crates/core/src/ops/psd.rs"];

/// The blocked distance kernels and the exact-network dominance loop
/// reuse caller scratch buffers; allocation idioms inside them silently
/// reintroduce per-call heap traffic.
pub(super) fn no_alloc_in_kernels(_ws: &Workspace, file: &SourceFile, out: &mut Vec<Violation>) {
    let path = file.path.to_string_lossy();
    let whole = ALLOC_FREE_FILES.iter().any(|f| *f == path);
    let regions = ALLOC_FREE_REGION_FILES.iter().any(|f| *f == path);
    if !whole && !regions {
        return;
    }
    // Per-token activity: the whole file, or the marked comment regions.
    let mut active = vec![whole; file.tokens.len()];
    if regions {
        mark_regions(file, "alloc-free: begin", "alloc-free: end", &mut active);
    }
    for p in 0..file.sig.len() {
        if file.is_test_code(p) || !active[file.sig[p]] {
            continue;
        }
        let Some(t) = file.sig_tok(p) else { break };
        let line = t.line;
        if let Some(what) = alloc_idiom_at(file, p) {
            push(
                out,
                file,
                line,
                "no-alloc-in-kernels",
                format!(
                    "`{what}` inside an allocation-free kernel region; reuse the caller's \
                     scratch buffers"
                ),
            );
        }
    }
}

/// Files with `// per-shard descent: begin` / `end` regions: the Node
/// expansion arms of the merged-forest traversals.
const DESCENT_REGION_FILES: &[&str] = &["crates/core/src/nnc.rs", "crates/core/src/knnc.rs"];

/// The merged-forest heap expansion runs once per visited node per shard;
/// an allocation there scales with shard count × node visits and would
/// silently erase the shared-bound advantage the sharded layout exists
/// to deliver.
pub(super) fn no_per_shard_alloc_in_descent(
    _ws: &Workspace,
    file: &SourceFile,
    out: &mut Vec<Violation>,
) {
    let path = file.path.to_string_lossy();
    if !DESCENT_REGION_FILES.iter().any(|f| *f == path) {
        return;
    }
    let mut active = vec![false; file.tokens.len()];
    mark_regions(
        file,
        "per-shard descent: begin",
        "per-shard descent: end",
        &mut active,
    );
    for p in 0..file.sig.len() {
        if file.is_test_code(p) || !active[file.sig[p]] {
            continue;
        }
        let Some(t) = file.sig_tok(p) else { break };
        let line = t.line;
        if let Some(what) = alloc_idiom_at(file, p) {
            push(
                out,
                file,
                line,
                "no-per-shard-alloc-in-descent",
                format!(
                    "`{what}` inside the per-shard descent region; the node-expansion arm \
                     runs once per visited node per shard — hoist the buffer to the \
                     traversal state"
                ),
            );
        }
    }
}

/// Marks the tokens between `begin`/`end` marker comments as active.
fn mark_regions(file: &SourceFile, begin: &str, end: &str, active: &mut [bool]) {
    let mut on = false;
    for (i, t) in file.tokens.iter().enumerate() {
        if t.is_comment() {
            if t.text.contains(begin) {
                on = true;
            } else if t.text.contains(end) {
                on = false;
            }
        }
        active[i] = on;
    }
}

/// The allocation idiom starting at significant-token position `p`, if any.
fn alloc_idiom_at(file: &SourceFile, p: usize) -> Option<&'static str> {
    let t = file.sig_tok(p)?;
    if t.is_ident("Vec")
        && file.sig_tok(p + 1).is_some_and(|t| t.is_punct("::"))
        && file.sig_tok(p + 2).is_some_and(|t| t.is_ident("new"))
    {
        Some("Vec::new()")
    } else if t.is_ident("vec") && file.sig_tok(p + 1).is_some_and(|t| t.is_punct("!")) {
        Some("vec![..]")
    } else if t.is_punct(".")
        && file.sig_tok(p + 1).is_some_and(|t| t.is_ident("to_vec"))
        && file.sig_tok(p + 2).is_some_and(|t| t.is_punct("("))
    {
        Some(".to_vec()")
    } else if t.is_punct(".") && file.sig_tok(p + 1).is_some_and(|t| t.is_ident("collect")) {
        Some(".collect()")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{check_src, rules};

    #[test]
    fn flags_to_vec_in_hot_paths() {
        let v = check_src(
            "crates/core/src/ops/ssd.rs",
            "/// Per Definition 3.\npub fn f(xs: &[f64]) { let _ = xs.to_vec(); }\n",
        );
        assert!(v.iter().any(|x| x.rule == "no-owned-points-in-hot-paths"));
    }

    #[test]
    fn to_vec_split_across_lines_is_still_flagged() {
        let v = check_src(
            "crates/core/src/knnc.rs",
            "fn f(xs: &[f64]) {\n    let _ = xs\n        .to_vec\n        ();\n}\n",
        );
        assert_eq!(rules(&v), vec!["no-owned-points-in-hot-paths"]);
    }

    #[test]
    fn to_vec_fine_outside_hot_paths_and_in_tests() {
        let src = "fn f(xs: &[f64]) { let _ = xs.to_vec(); }\n";
        assert!(check_src("crates/uncertain/src/object.rs", src).is_empty());
        assert!(check_src(
            "crates/core/src/nnc.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(xs: &[f64]) { let _ = xs.to_vec(); }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn kernels_file_is_alloc_free_everywhere() {
        let v = check_src(
            "crates/geom/src/kernels.rs",
            "fn f() { let v = vec![1.0];\n    let _: Vec<f64> = v.iter().copied().collect(); }\n",
        );
        assert_eq!(
            rules(&v),
            vec!["no-alloc-in-kernels", "no-alloc-in-kernels"]
        );
    }

    #[test]
    fn descent_regions_ban_alloc_idioms() {
        let src = "\
pub fn seed() { let _roots: Vec<usize> = (0..4).collect(); }
// per-shard descent: begin
pub fn expand(xs: &[usize]) { let _c: Vec<usize> = xs.iter().copied().collect(); }
// per-shard descent: end
pub fn finish() { let _v: Vec<usize> = Vec::new(); }
";
        for path in ["crates/core/src/nnc.rs", "crates/core/src/knnc.rs"] {
            let v = check_src(path, src);
            let hits: Vec<_> = v
                .iter()
                .filter(|x| x.rule == "no-per-shard-alloc-in-descent")
                .collect();
            assert_eq!(hits.len(), 1, "{v:?}");
            assert_eq!(hits[0].line, 3);
        }
        // Other files are out of scope even with the markers present.
        let v = check_src("crates/core/src/engine.rs", src);
        assert!(v.iter().all(|x| x.rule != "no-per-shard-alloc-in-descent"));
    }

    #[test]
    fn descent_region_test_code_is_exempt() {
        let src = "\
// per-shard descent: begin
#[cfg(test)]
mod tests {
    fn t() { let _v: Vec<usize> = (0..4).collect(); }
}
// per-shard descent: end
";
        let v = check_src("crates/core/src/knnc.rs", src);
        assert!(v.iter().all(|x| x.rule != "no-per-shard-alloc-in-descent"));
    }

    #[test]
    fn psd_regions_gate_by_markers() {
        let src = "\
/// Per Algorithm 2.
pub fn setup() { let _v = Vec::new(); }
// alloc-free: begin
/// Per Algorithm 2.
pub fn inner(xs: &[f64]) { let _ = xs.to_vec(); }
// alloc-free: end
/// Per Algorithm 2.
pub fn teardown() { let _v: Vec<f64> = vec![]; }
";
        let v = check_src("crates/core/src/ops/psd.rs", src);
        let allocs: Vec<_> = v
            .iter()
            .filter(|x| x.rule == "no-alloc-in-kernels")
            .collect();
        assert_eq!(allocs.len(), 1, "{v:?}");
        assert_eq!(allocs[0].line, 5);
    }
}
