//! The rule registry.
//!
//! Every rule the analyzer knows is declared here with its machine id,
//! scope, intent and waiver policy — `cargo run -p xtask -- explain
//! <rule>` prints exactly this metadata, and DESIGN.md §6.2 mirrors it.
//! Rules come in two shapes: *per-file* rules that walk one token stream,
//! and *workspace* rules that see every scanned file plus the parsed
//! manifests (the cross-crate checks the old line scanner could never
//! express).

mod docs;
mod hotpath;
mod hygiene;
mod layering;
mod ordering;
mod purity;
mod warm;

use crate::model::{FileOrigin, SourceFile, Workspace};
use std::fmt;
use std::path::Path;

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the scan root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// How a rule is driven.
pub enum Run {
    /// Called once per scanned file.
    PerFile(fn(&Workspace, &SourceFile, &mut Vec<Violation>)),
    /// Called once with the whole workspace.
    Workspace(fn(&Workspace, &mut Vec<Violation>)),
    /// Enforced by the waiver-ledger driver, not a scan pass.
    Ledger,
}

/// One registered rule: id, documentation, and its check function.
pub struct Rule {
    /// Stable machine id (used in diagnostics and the waiver ledger).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Why the rule exists — the contract it protects.
    pub intent: &'static str,
    /// When (if ever) a waiver is acceptable.
    pub waiver: &'static str,
    /// The check function.
    pub run: Run,
}

/// Every rule, in documentation order. `explain` and DESIGN.md §6.2
/// follow this order.
pub fn registry() -> &'static [Rule] {
    &RULES
}

static RULES: [Rule; 11] = [
    Rule {
        id: "no-float-eq-in-kernels",
        summary: "no ==/!= on float-looking operands in the dominance kernels",
        scope: "crates/core/src/ops, crates/geom/src/dominance.rs, crates/core/src/nnc.rs, \
                crates/core/src/knnc.rs (test modules exempt)",
        intent: "exact float equality in a dominance kernel silently changes the operators' \
                 tie semantics, or makes a heap's Eq disagree with its Ord. Detection is \
                 heuristic (no type information): a comparison is flagged when either operand \
                 contains a float literal, an f64/f32 mention, or a distance-producing call.",
        waiver: "acceptable only for a comparison proven to be over exact sentinel values \
                 (e.g. a ±∞ bound initialisation); state the proof in the reason.",
        run: Run::PerFile(ordering::no_float_eq_in_kernels),
    },
    Rule {
        id: "doc-cites-paper",
        summary: "every pub fn in core::ops cites the paper construct it implements",
        scope: "crates/core/src/ops (test modules and crate-internal pub(crate)/pub(in …) \
                fns exempt); macro-generated pub fns are checked at the macro definition \
                and at every invocation",
        intent: "the operators are only 'optimal' relative to the paper's definitions, so \
                 each public entry point must name the Definition/Theorem/Lemma/Algorithm/§ \
                 it implements. A macro_rules! body generating `pub fn $name` must forward \
                 doc attributes ($(#[$doc])*), and each invocation must pass a citing doc \
                 comment — diagnostics attach to the macro definition or invocation site, \
                 which is where the fix goes.",
        waiver: "never waived — write the citation.",
        run: Run::PerFile(docs::doc_cites_paper),
    },
    Rule {
        id: "no-panic-allow-in-libs",
        summary: "library code never switches off the workspace's deny-level clippy lints",
        scope: "library src/ trees (bench/cli leaves and examples exempt): crate-level allows \
                of the panic family outside test code; any allow/expect, crate-level or \
                scoped, of print_stdout, print_stderr, disallowed_types, disallowed_methods \
                or a group holding them (all, style, restriction), test modules included, \
                except a scoped disallowed_types allow in crates/obs/src/lib.rs (the \
                Stopwatch clock shim) and a scoped disallowed_methods allow in \
                crates/uncertain/src/epoch.rs (the copy-on-write builders)",
        intent: "the workspace denies clippy::unwrap_used/expect_used/panic, the print lints, \
                 and the types and methods clippy.toml bans (Rc, raw clocks, hash containers, \
                 thread identity, partial_cmp, Arc::make_mut); an allow of them in a library \
                 crate silently defeats the gate, so the sanctioned sites are listed here.",
        waiver: "never waived — a scoped #[allow] on a documented #[cold] constructor is the \
                 panic family's escape hatch; a new clock or copy-on-write site belongs in \
                 osd-obs or uncertain::epoch.",
        run: Run::PerFile(hygiene::no_panic_allow_in_libs),
    },
    Rule {
        id: "no-owned-points-in-hot-paths",
        summary: "hot query paths borrow rows from the columnar store, never gather owned copies",
        scope: "crates/core/src/ops, crates/core/src/nnc.rs, crates/core/src/knnc.rs \
                (test modules exempt)",
        intent: ".to_vec() in a dominance kernel or NNC/k-NNC traversal allocates \
                 per dominance check and silently reintroduces the per-check heap traffic the \
                 flat SoA layout removed (PR 3).",
        waiver: "acceptable only on a cold error/reporting path; name the path in the reason.",
        run: Run::PerFile(hotpath::no_owned_points_in_hot_paths),
    },
    Rule {
        id: "no-alloc-in-kernels",
        summary: "allocation idioms are banned inside the allocation-free kernel regions",
        scope: "crates/geom/src/kernels.rs and crates/flow/src/transport.rs (whole files) \
                and `// alloc-free: begin/end` \
                regions of crates/core/src/ops/psd.rs (test modules exempt)",
        intent: "the blocked distance kernels and the exact-network dominance loop reuse \
                 caller scratch buffers; Vec::new / vec![ / .to_vec( / .collect( inside them \
                 silently reintroduces per-call heap traffic (PR 5's contract).",
        waiver: "acceptable only for a provably once-per-build allocation (e.g. a lazily \
                 initialised table); state the amortisation argument in the reason.",
        run: Run::PerFile(hotpath::no_alloc_in_kernels),
    },
    Rule {
        id: "no-per-shard-alloc-in-descent",
        summary: "no allocation idioms inside the merged-forest node-expansion regions",
        scope: "`// per-shard descent: begin/end` regions of crates/core/src/nnc.rs and \
                crates/core/src/knnc.rs (test modules exempt)",
        intent: "the merged-forest heap expansion runs once per visited node per shard; \
                 Vec::new / vec![ / .to_vec( / .collect( there scales heap traffic with \
                 shard count × node visits and silently erases the shared-bound advantage \
                 the sharded index exists to deliver (PR 7's contract).",
        waiver: "acceptable only on a cold error path or a provably once-per-query \
                 allocation hoisted out of the loop on the next line; state which in the \
                 reason.",
        run: Run::PerFile(hotpath::no_per_shard_alloc_in_descent),
    },
    Rule {
        id: "no-warm-bypass",
        summary: "hot query paths never construct level snapshots or bound tables directly",
        scope: "crates/core/src/ops, crates/core/src/nnc.rs, crates/core/src/knnc.rs \
                (test modules exempt; core::cache owns the constructors)",
        intent: "level snapshots, group MBRs and bound-distribution tables are built by \
                 the shared constructors in core::cache; the index holds one level \
                 snapshot per object entry, and every query-keyed value (distributions, \
                 statistics, images, bounds) has one home, its object's record, which \
                 is the query table's for an admitted query. A `LevelSnapshot { .. }`/\
                 `LevelGroups { .. }` literal or a direct build_level_snapshot/build_bounds_* \
                 call in a hot path bypasses the legacy hit/miss accounting, the index's \
                 shared copy and the record, whose table the snapshot invalidates. \
                 Snapshots and bounds flow through the CheckCtx getters, which read the \
                 index and the object's record.",
        waiver: "never waived — add a getter to CheckCtx (in core::cache) instead.",
        run: Run::PerFile(warm::no_warm_bypass),
    },
    Rule {
        id: "crate-layering",
        summary: "crate dependencies and osd_* imports must follow the layering DAG",
        scope: "every Cargo.toml [dependencies] section and every osd_* path in scanned \
                source (test code may additionally use dev-dependencies), plus non-test \
                crate::/super:: paths in core/src/index.rs and core/src/sharded.rs",
        intent: "the workspace layers as geom/flow/obs → rtree/uncertain → \
                 datagen/nnfuncs/nncore → core → cli/bench/facade. A library crate reaching \
                 a leaf (cli/bench) or skipping upward (geom importing core) creates cycles \
                 the build may tolerate today and a refactor breaks tomorrow; the DAG is \
                 enforced on both the manifests and the import graph. Inside osd-core the \
                 index modules layer the same way: index.rs (the trait) may not import \
                 db/sharded, and sharded.rs (the one index type) may not import db \
                 (which holds that type's flat constructors).",
        waiver: "acceptable only during a staged refactor that temporarily inverts an edge; \
                 the waiver must name the PR that removes it.",
        run: Run::Workspace(layering::crate_layering),
    },
    Rule {
        id: "obs-feature-purity",
        summary: "#[cfg(feature = \"obs\")] code in core only touches osd-obs state",
        scope: "crates/core/src, tokens under #[cfg(feature = \"obs\")]",
        intent: "the obs-off build must compile to the uninstrumented pipeline \
                 (tests/obs_purity.rs pins this dynamically; this rule enforces it \
                 statically). Obs-gated code may read pipeline state and write obs state, \
                 but must not call into result-affecting crates (osd_geom/osd_rtree/\
                 osd_flow/osd_uncertain) or assign non-obs places.",
        waiver: "acceptable for a read-only helper call proven side-effect-free; the reason \
                 must name the helper and why it cannot affect results.",
        run: Run::PerFile(purity::obs_feature_purity),
    },
    Rule {
        id: "manifest-hygiene",
        summary: "every scanned crate is known to the layering map",
        scope: "Cargo.toml of every workspace member",
        intent: "a new crate that is not in the layering map silently escapes the DAG; \
                 adding a crate requires declaring its layer here and in DESIGN.md §6.2.",
        waiver: "never waived — extend the map.",
        run: Run::Workspace(layering::manifest_hygiene),
    },
    Rule {
        id: "waiver-ledger",
        summary: "waivers live in xtask.waivers.toml and must be current and used",
        scope: "xtask.waivers.toml at the workspace root",
        intent: "suppressions are centralised in one reviewed ledger instead of ad-hoc \
                 inline allows. Every entry names a rule, a file (optionally a line span), \
                 a written reason, and optionally an expiry date. `check` fails on a \
                 malformed entry, an expired entry, or an entry that no longer suppresses \
                 anything — so the ledger can only shrink unless a human renews it.",
        waiver: "not applicable — this rule polices the ledger itself.",
        run: Run::Ledger,
    },
];

/// Looks up a rule by id.
pub fn find(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every scan rule over the workspace. Waiver handling happens in
/// the driver, not here.
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in &RULES {
        match rule.run {
            Run::PerFile(f) => {
                for file in &ws.files {
                    f(ws, file, &mut out);
                }
            }
            Run::Workspace(f) => f(ws, &mut out),
            Run::Ledger => {}
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Pushes a diagnostic for `file`.
pub(crate) fn push(
    out: &mut Vec<Violation>,
    file: &SourceFile,
    line: usize,
    rule: &'static str,
    msg: String,
) {
    out.push(Violation {
        path: file.path.display().to_string(),
        line,
        rule,
        msg,
    });
}

/// Whether `name` is a library crate (the leaves — cli, bench — and the
/// analyzer itself are not).
pub(crate) fn is_lib_crate(name: &str) -> bool {
    name == "osd" || (name.starts_with("osd-") && !matches!(name, "osd-cli" | "osd-bench"))
}

/// Whether `file` is shipping library code (a lib crate's `src/` tree).
pub(crate) fn in_lib_src(file: &SourceFile) -> bool {
    file.origin == FileOrigin::LibSrc && is_lib_crate(&file.crate_name)
}

/// The dominance kernels where exact float comparison is banned.
pub(crate) fn is_kernel(path: &Path) -> bool {
    const DIRS: &[&str] = &["crates/core/src/ops"];
    const FILES: &[&str] = &[
        "crates/geom/src/dominance.rs",
        "crates/core/src/nnc.rs",
        "crates/core/src/knnc.rs",
    ];
    DIRS.iter().any(|d| path.starts_with(d)) || FILES.iter().any(|f| Path::new(f) == path)
}

/// Hot query paths that must borrow rows from the columnar store.
pub(crate) fn is_hot_path(path: &Path) -> bool {
    const DIRS: &[&str] = &["crates/core/src/ops"];
    const FILES: &[&str] = &["crates/core/src/nnc.rs", "crates/core/src/knnc.rs"];
    DIRS.iter().any(|d| path.starts_with(d)) || FILES.iter().any(|f| Path::new(f) == path)
}

/// In sig-token space: the position of the closing delimiter matching the
/// opening one at `open_p`, or `None` if unbalanced.
pub(crate) fn matching_close(
    file: &SourceFile,
    open_p: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i64;
    for p in open_p..file.sig.len() {
        let t = file.sig_tok(p)?;
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(p);
            }
        }
    }
    None
}

/// Shared helpers for rule unit tests: parse one source string at a
/// virtual path and run the full registry over it.
#[cfg(test)]
pub(crate) mod testutil {
    use super::{run_all, Violation};
    use crate::model::{FileOrigin, SourceFile, Workspace};
    use std::path::PathBuf;

    /// Runs every rule over `src` as if it lived at `path`.
    pub(crate) fn check_src(path: &str, src: &str) -> Vec<Violation> {
        let origin = if path.contains("/tests/") || path.starts_with("tests/") {
            FileOrigin::TestDir
        } else if path.contains("/examples/") || path.starts_with("examples/") {
            FileOrigin::Example
        } else {
            FileOrigin::LibSrc
        };
        let file = SourceFile::parse(PathBuf::from(path), origin, crate_of(path), src);
        let ws = Workspace {
            root: PathBuf::from("."),
            files: vec![file],
            manifests: Vec::new(),
        };
        run_all(&ws)
    }

    /// Maps a virtual path to its crate's package name.
    pub(crate) fn crate_of(path: &str) -> &str {
        let Some(rest) = path.strip_prefix("crates/") else {
            return "osd";
        };
        match rest.split('/').next() {
            Some("geom") => "osd-geom",
            Some("rtree") => "osd-rtree",
            Some("flow") => "osd-flow",
            Some("uncertain") => "osd-uncertain",
            Some("nncore") => "osd-nncore",
            Some("nnfuncs") => "osd-nnfuncs",
            Some("datagen") => "osd-datagen",
            Some("core") => "osd-core",
            Some("obs") => "osd-obs",
            Some("cli") => "osd-cli",
            Some("bench") => "osd-bench",
            _ => "osd",
        }
    }

    /// The rule ids of a diagnostic list, in order.
    pub(crate) fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }
}
