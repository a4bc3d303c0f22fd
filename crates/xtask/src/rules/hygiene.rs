//! Library hygiene: `no-panic-allow-in-libs`, the guard that keeps the
//! workspace's deny-level clippy lints from being switched off in library
//! code.

use super::{in_lib_src, matching_close, push, Violation};
use crate::model::{SourceFile, Workspace};

/// Panic-family lints: a library may not opt out of them crate-wide. A
/// scoped `#[allow]` on a documented `#[cold]` constructor is the
/// sanctioned escape hatch, and test code may panic.
const PANIC_FAMILY: &[&str] = &["unwrap_used", "expect_used", "panic"];

/// The lints that carry the bans of `clippy.toml` and the print ban, plus
/// the groups that contain them: no `allow`/`expect` of them anywhere in
/// library code, crate-level or scoped, test modules included, outside
/// [`SANCTIONED`].
const CLIPPY_CARRIED: &[&str] = &[
    "print_stdout",
    "print_stderr",
    "disallowed_types",
    "disallowed_methods",
    "all",
    "style",
    "restriction",
];

/// The only library files where a scoped `allow` of a clippy-carried lint
/// is accepted: the `Stopwatch` clock shim and the copy-on-write epoch
/// builders.
const SANCTIONED: &[(&str, &str)] = &[
    ("crates/obs/src/lib.rs", "disallowed_types"),
    ("crates/uncertain/src/epoch.rs", "disallowed_methods"),
];

/// Flags, in library `src/` trees, a crate-level `allow` of a
/// panic-family lint outside test code, and any `allow`/`expect` of a
/// clippy-carried lint outside the sanctioned sites. Token-level: the
/// attribute may span lines or sit inside a `cfg_attr`.
pub(super) fn no_panic_allow_in_libs(_ws: &Workspace, file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_lib_src(file) {
        return;
    }
    for p in 0..file.sig.len() {
        // `#` [`!`] `[` … `]`
        if !file.sig_tok(p).is_some_and(|t| t.is_punct("#")) {
            continue;
        }
        let inner = file.sig_tok(p + 1).is_some_and(|t| t.is_punct("!"));
        let open = if inner { p + 2 } else { p + 1 };
        if !file.sig_tok(open).is_some_and(|t| t.is_punct("[")) {
            continue;
        }
        let Some(close) = matching_close(file, open, "[", "]") else {
            continue;
        };
        let suppresses = (open + 1..close).any(|q| {
            file.sig_tok(q)
                .is_some_and(|t| t.is_ident("allow") || t.is_ident("expect"))
        });
        if !suppresses {
            continue;
        }
        let line = file.sig_tok(p).map_or(1, |t| t.line);
        let scope = if inner {
            "crate/module-level"
        } else {
            "scoped"
        };
        for q in open + 1..close {
            let Some(name) = file
                .sig_tok(q)
                .filter(|t| t.is_ident("clippy"))
                .and_then(|_| file.sig_tok(q + 1).filter(|t| t.is_punct("::")))
                .and_then(|_| file.sig_tok(q + 2))
                .map(|t| t.text.as_str())
            else {
                continue;
            };
            let msg = if CLIPPY_CARRIED.contains(&name) {
                let path = file.path.to_string_lossy();
                if !inner && SANCTIONED.contains(&(path.as_ref(), name)) {
                    continue;
                }
                format!(
                    "{scope} allow of `clippy::{name}` in a library crate; the ban it \
                     carries holds everywhere but the sanctioned sites (DESIGN.md §6.2)"
                )
            } else if inner && PANIC_FAMILY.contains(&name) && !file.is_test_code(p) {
                format!(
                    "crate-level `#![allow(clippy::{name})]` in a library crate; only \
                     bench/cli leaves may opt out"
                )
            } else {
                continue;
            };
            push(out, file, line, "no-panic-allow-in-libs", msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{check_src, rules};

    #[test]
    fn flags_crate_level_panic_allow() {
        let v = check_src(
            "crates/rtree/src/lib.rs",
            "#![allow(clippy::unwrap_used)]\nfn f() {}\n",
        );
        assert_eq!(rules(&v), vec!["no-panic-allow-in-libs"]);
        assert!(check_src(
            "crates/rtree/src/lib.rs",
            "#![allow(clippy::module_name_repetitions)]\nfn f() {}\n"
        )
        .is_empty());
        // `clippy::panic` must not also match `panic_in_result_fn`.
        assert!(check_src(
            "crates/rtree/src/lib.rs",
            "#![allow(clippy::panic_in_result_fn)]\nfn f() {}\n"
        )
        .is_empty());
        // A scoped panic-family allow is the sanctioned escape hatch.
        assert!(check_src(
            "crates/rtree/src/lib.rs",
            "#[cold]\n#[allow(clippy::expect_used)]\nfn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn multiline_allow_attribute_is_flagged() {
        let v = check_src(
            "crates/rtree/src/lib.rs",
            "#![allow(\n    clippy::module_name_repetitions,\n    clippy::expect_used,\n)]\nfn f() {}\n",
        );
        assert_eq!(rules(&v), vec!["no-panic-allow-in-libs"]);
    }

    #[test]
    fn flags_clippy_carried_allows_in_every_shape() {
        for src in [
            "#![allow(clippy::print_stdout)]\n",
            "#[allow(clippy::print_stderr)]\nfn f() {}\n",
            "#[expect(clippy::disallowed_types)]\nfn f() {}\n",
            "#[cfg_attr(test, allow(clippy::disallowed_methods))]\nfn f() {}\n",
            "#![allow(clippy::style)]\n",
            "#[cfg(test)]\nmod tests {\n    #[allow(clippy::disallowed_types)]\n    fn t() {}\n}\n",
        ] {
            let v = check_src("crates/geom/src/point.rs", src);
            assert_eq!(rules(&v), vec!["no-panic-allow-in-libs"], "{src}");
        }
        // The leaves and examples are not library code.
        let leaf = "#![allow(clippy::print_stdout)]\n";
        assert!(check_src("crates/cli/src/lib.rs", leaf).is_empty());
        assert!(check_src("examples/quickstart.rs", leaf).is_empty());
    }

    #[test]
    fn sanctioned_sites_accept_only_their_scoped_allow() {
        let clock = "#[allow(clippy::disallowed_types)]\npub struct Stopwatch;\n";
        assert!(check_src("crates/obs/src/lib.rs", clock).is_empty());
        assert!(!check_src("crates/obs/src/trace.rs", clock).is_empty());
        let cow = "#[allow(clippy::disallowed_methods)]\npub fn append() {}\n";
        assert!(check_src("crates/uncertain/src/epoch.rs", cow).is_empty());
        assert!(!check_src("crates/uncertain/src/store.rs", cow).is_empty());
        // Crate-level, or the other lint, is not what the site is sanctioned for.
        for (path, src) in [
            (
                "crates/obs/src/lib.rs",
                "#![allow(clippy::disallowed_types)]\n",
            ),
            (
                "crates/obs/src/lib.rs",
                "#[allow(clippy::disallowed_methods)]\nfn f() {}\n",
            ),
            (
                "crates/uncertain/src/epoch.rs",
                "#[allow(clippy::disallowed_types)]\nfn f() {}\n",
            ),
        ] {
            assert_eq!(
                rules(&check_src(path, src)),
                vec!["no-panic-allow-in-libs"],
                "{src}"
            );
        }
    }
}
