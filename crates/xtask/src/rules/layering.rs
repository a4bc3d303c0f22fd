//! Cross-crate rules: `crate-layering` (the dependency DAG, enforced on
//! both manifests and `osd_*` imports) and `manifest-hygiene` (every
//! member must be declared in the layering map).

use super::{push, Violation};
use crate::lexer::Kind;
use crate::model::{Manifest, Workspace};

/// The layering map: each crate's level in the DAG. A crate may depend
/// only on strictly lower levels (dev-dependencies may additionally sit
/// at the same level — they cannot create build cycles).
///
/// ```text
/// 0  osd-geom   osd-flow   osd-obs          (foundations, no deps)
/// 1  osd-rtree  osd-uncertain               (index / model, → geom)
/// 2  osd-datagen osd-nnfuncs osd-nncore     (generators / functions)
/// 3  osd-core                               (query engine)
/// 4  osd-cli    osd-bench   osd             (leaves + facade)
/// ```
const LAYERS: &[(&str, u8)] = &[
    ("osd-geom", 0),
    ("osd-flow", 0),
    ("osd-obs", 0),
    ("osd-rtree", 1),
    ("osd-uncertain", 1),
    ("osd-datagen", 2),
    ("osd-nnfuncs", 2),
    ("osd-nncore", 2),
    ("osd-core", 3),
    ("osd-cli", 4),
    ("osd-bench", 4),
    ("osd", 4),
];

/// Crates nothing may depend on: the binary leaves and the facade.
const LEAVES: &[&str] = &["osd-cli", "osd-bench", "osd"];

/// Intra-crate layering of the index modules inside osd-core, bottom up:
/// `index` (the `SpatialIndex` trait every query operator compiles
/// against) → `sharded` (the one index implementation) → `db` (the flat
/// one-shard front). Each entry is a module file, the sibling modules its
/// non-test code may not reference, and why.
const INDEX_LAYERS: &[(&str, &[&str], &str)] = &[
    (
        "crates/core/src/index.rs",
        &["db", "sharded"],
        "the trait layer must stay implementation-agnostic — move shared code \
         into index.rs or depend on the trait instead",
    ),
    (
        "crates/core/src/sharded.rs",
        &["db"],
        "`db` is the one-shard front above the single index implementation — \
         move shared code into sharded.rs or index.rs instead of growing a second \
         implementation there",
    ),
];

fn level(name: &str) -> Option<u8> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

/// `osd_geom` (import path) → `osd-geom` (package name).
fn dash(name: &str) -> String {
    name.replace('_', "-")
}

pub(super) fn crate_layering(ws: &Workspace, out: &mut Vec<Violation>) {
    for m in &ws.manifests {
        // Unknown crates are manifest-hygiene's problem, not layering's.
        let Some(lvl) = level(&m.name) else { continue };
        for dep in &m.deps {
            check_manifest_edge(m, &dep.name, dep.line, lvl, false, out);
        }
        for dep in &m.dev_deps {
            check_manifest_edge(m, &dep.name, dep.line, lvl, true, out);
        }
    }
    // Import graph: every `osd_*` path root in scanned source must map to
    // a declared dependency (dev-dependencies only count in test code).
    for file in &ws.files {
        let Some(m) = ws.manifest(&file.crate_name) else {
            continue;
        };
        for p in 0..file.sig.len() {
            let Some(t) = file.sig_tok(p) else { break };
            if t.kind != Kind::Ident || !t.text.starts_with("osd_") {
                continue;
            }
            let pkg = dash(&t.text);
            if pkg == file.crate_name {
                continue;
            }
            let in_deps = m.deps.iter().any(|d| d.name == pkg);
            let in_dev = m.dev_deps.iter().any(|d| d.name == pkg);
            if in_deps || (in_dev && file.is_test_code(p)) {
                continue;
            }
            let msg = if in_dev {
                format!(
                    "`{}` is only a dev-dependency of {}; non-test code may not import it",
                    t.text, m.name
                )
            } else {
                format!(
                    "`{}` is not a declared dependency of {}; undeclared edges bypass \
                     the layering DAG",
                    t.text, m.name
                )
            };
            push(out, file, t.line, "crate-layering", msg);
        }
    }
    // Intra-crate layering of the index modules: `crate::X` / `super::X`
    // references up the stack invert it (test modules exercise the
    // concrete types and are exempt).
    for file in &ws.files {
        let path = file.path.to_string_lossy();
        let Some(&(_, banned, why)) = INDEX_LAYERS.iter().find(|(p, _, _)| *p == path) else {
            continue;
        };
        for p in 0..file.sig.len() {
            let Some(t) = file.sig_tok(p) else { break };
            if !(t.is_ident("crate") || t.is_ident("super")) || file.is_test_code(p) {
                continue;
            }
            if !file.sig_tok(p + 1).is_some_and(|n| n.is_punct("::")) {
                continue;
            }
            let Some(module) = file
                .sig_tok(p + 2)
                .filter(|n| banned.iter().any(|m| n.is_ident(m)))
            else {
                continue;
            };
            push(
                out,
                file,
                t.line,
                "crate-layering",
                format!(
                    "`{}::{}` reaches up the index layering; {why}",
                    t.text, module.text
                ),
            );
        }
    }
}

fn check_manifest_edge(
    m: &Manifest,
    dep: &str,
    line: usize,
    lvl: u8,
    dev: bool,
    out: &mut Vec<Violation>,
) {
    if !(dep == "osd" || dep.starts_with("osd-")) {
        return;
    }
    let path = m.path.display().to_string();
    if LEAVES.contains(&dep) && m.name != *dep {
        out.push(Violation {
            path,
            line,
            rule: "crate-layering",
            msg: format!(
                "{} depends on `{dep}`, a leaf/facade crate; nothing may depend on the \
                 leaves",
                m.name
            ),
        });
        return;
    }
    let Some(dep_lvl) = level(dep) else {
        out.push(Violation {
            path,
            line,
            rule: "crate-layering",
            msg: format!(
                "{} depends on `{dep}`, which is not in the layering map",
                m.name
            ),
        });
        return;
    };
    let inverted = if dev { dep_lvl > lvl } else { dep_lvl >= lvl };
    if inverted {
        out.push(Violation {
            path,
            line,
            rule: "crate-layering",
            msg: format!(
                "{} (layer {lvl}) depends on `{dep}` (layer {dep_lvl}); dependencies must \
                 point strictly downward{}",
                m.name,
                if dev {
                    " (dev-dependencies may be same-layer)"
                } else {
                    ""
                }
            ),
        });
    }
}

/// Every scanned crate must be declared in the layering map; a new member
/// silently escaping the DAG defeats the whole audit.
pub(super) fn manifest_hygiene(ws: &Workspace, out: &mut Vec<Violation>) {
    for m in &ws.manifests {
        if level(&m.name).is_none() {
            out.push(Violation {
                path: m.path.display().to_string(),
                line: 1,
                rule: "manifest-hygiene",
                msg: format!(
                    "crate `{}` is not in the layering map; declare its layer in \
                     crates/xtask/src/rules/layering.rs and DESIGN.md §6.2",
                    m.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{crate_layering, manifest_hygiene};
    use crate::model::{FileOrigin, Manifest, SourceFile, Workspace};
    use crate::rules::Violation;
    use std::path::PathBuf;

    fn manifest(rel: &str, text: &str) -> Manifest {
        Manifest::parse(PathBuf::from(rel), text)
    }

    fn ws(manifests: Vec<Manifest>, files: Vec<SourceFile>) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            files,
            manifests,
        }
    }

    fn file(path: &str, origin: FileOrigin, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(path), origin, krate, src)
    }

    fn run_layering(ws: &Workspace) -> Vec<Violation> {
        let mut out = Vec::new();
        crate_layering(ws, &mut out);
        out
    }

    #[test]
    fn real_shaped_edges_pass() {
        let w = ws(
            vec![
                manifest(
                    "crates/rtree/Cargo.toml",
                    "[package]\nname = \"osd-rtree\"\n[dependencies]\nosd-geom = { path = \"../geom\" }\n",
                ),
                manifest(
                    "crates/core/Cargo.toml",
                    "[package]\nname = \"osd-core\"\n[dependencies]\nosd-geom = {}\nosd-rtree = {}\nosd-obs = {}\n",
                ),
            ],
            vec![],
        );
        assert!(run_layering(&w).is_empty());
    }

    #[test]
    fn inverted_manifest_edge_is_flagged() {
        let w = ws(
            vec![manifest(
                "crates/geom/Cargo.toml",
                "[package]\nname = \"osd-geom\"\n[dependencies]\nosd-core = { path = \"../core\" }\n",
            )],
            vec![],
        );
        let v = run_layering(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("strictly downward"), "{}", v[0].msg);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn depending_on_a_leaf_is_flagged() {
        let w = ws(
            vec![manifest(
                "crates/uncertain/Cargo.toml",
                "[package]\nname = \"osd-uncertain\"\n[dependencies]\nosd-cli = {}\n",
            )],
            vec![],
        );
        let v = run_layering(&w);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("leaf"), "{}", v[0].msg);
    }

    #[test]
    fn same_layer_dev_dep_is_allowed() {
        let w = ws(
            vec![manifest(
                "crates/nncore/Cargo.toml",
                "[package]\nname = \"osd-nncore\"\n[dependencies]\nosd-geom = {}\n[dev-dependencies]\nosd-nnfuncs = {}\n",
            )],
            vec![],
        );
        assert!(run_layering(&w).is_empty());
    }

    #[test]
    fn undeclared_import_is_flagged() {
        let w = ws(
            vec![manifest(
                "crates/rtree/Cargo.toml",
                "[package]\nname = \"osd-rtree\"\n[dependencies]\nosd-geom = {}\n",
            )],
            vec![file(
                "crates/rtree/src/lib.rs",
                FileOrigin::LibSrc,
                "osd-rtree",
                "use osd_geom::Point;\nfn f() { let _ = osd_uncertain::World::new(); }\n",
            )],
        );
        let v = run_layering(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("osd_uncertain"), "{}", v[0].msg);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn dev_dep_import_allowed_only_in_test_code() {
        let m = manifest(
            "crates/nncore/Cargo.toml",
            "[package]\nname = \"osd-nncore\"\n[dependencies]\nosd-geom = {}\n[dev-dependencies]\nosd-nnfuncs = {}\n",
        );
        let test_file = file(
            "crates/nncore/tests/parity.rs",
            FileOrigin::TestDir,
            "osd-nncore",
            "use osd_nnfuncs::s_sd;\n",
        );
        let lib_file = file(
            "crates/nncore/src/lib.rs",
            FileOrigin::LibSrc,
            "osd-nncore",
            "use osd_nnfuncs::s_sd;\n",
        );
        let w = ws(
            vec![manifest(
                "crates/nncore/Cargo.toml",
                "[package]\nname = \"osd-nncore\"\n[dependencies]\nosd-geom = {}\n[dev-dependencies]\nosd-nnfuncs = {}\n",
            )],
            vec![test_file],
        );
        assert!(run_layering(&w).is_empty());
        let w = ws(vec![m], vec![lib_file]);
        let v = run_layering(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("dev-dependency"), "{}", v[0].msg);
    }

    #[test]
    fn trait_module_may_not_import_concrete_indexes() {
        let m = manifest(
            "crates/core/Cargo.toml",
            "[package]\nname = \"osd-core\"\n[dependencies]\nosd-geom = {}\n",
        );
        let bad = file(
            "crates/core/src/index.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "use crate::db::FlatDatabase;\npub trait SpatialIndex {}\n",
        );
        let v = run_layering(&ws(vec![m], vec![bad]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("implementation-agnostic"), "{}", v[0].msg);
        assert_eq!(v[0].line, 1);

        // Test modules exercise the concrete types and are exempt, and
        // the restriction is scoped to the trait module only.
        let m = manifest(
            "crates/core/Cargo.toml",
            "[package]\nname = \"osd-core\"\n[dependencies]\nosd-geom = {}\n",
        );
        let ok_test = file(
            "crates/core/src/index.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "pub trait SpatialIndex {}\n#[cfg(test)]\nmod tests {\n    use crate::db::Database;\n}\n",
        );
        let ok_other = file(
            "crates/core/src/nnc.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "use crate::db::DbError;\n",
        );
        assert!(run_layering(&ws(vec![m], vec![ok_test, ok_other])).is_empty());
    }

    #[test]
    fn index_implementation_may_not_import_the_flat_front() {
        let core = || {
            manifest(
                "crates/core/Cargo.toml",
                "[package]\nname = \"osd-core\"\n[dependencies]\nosd-geom = {}\n",
            )
        };
        let bad = file(
            "crates/core/src/sharded.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "use crate::index::DbError;\nfn f() { super::db::FlatDatabase::new(vec![]); }\n",
        );
        let v = run_layering(&ws(vec![core()], vec![bad]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("one-shard front"), "{}", v[0].msg);
        assert_eq!(v[0].line, 2);

        // Its tests may compare against the front, and the front may
        // build on the implementation.
        let ok_test = file(
            "crates/core/src/sharded.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "use crate::index::DbError;\n#[cfg(test)]\nmod tests {\n    use crate::db::Database;\n}\n",
        );
        let ok_front = file(
            "crates/core/src/db.rs",
            FileOrigin::LibSrc,
            "osd-core",
            "use crate::sharded::{invalid, ShardedDatabase};\n",
        );
        assert!(run_layering(&ws(vec![core()], vec![ok_test, ok_front])).is_empty());
    }

    #[test]
    fn unknown_crate_goes_to_manifest_hygiene() {
        let w = ws(
            vec![manifest(
                "crates/newbie/Cargo.toml",
                "[package]\nname = \"osd-newbie\"\n[dependencies]\n",
            )],
            vec![],
        );
        assert!(run_layering(&w).is_empty(), "layering skips unknown crates");
        let mut v = Vec::new();
        manifest_hygiene(&w, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "manifest-hygiene");
        assert!(v[0].msg.contains("osd-newbie"));
    }
}
