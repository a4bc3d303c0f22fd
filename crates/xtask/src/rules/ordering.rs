//! Float-ordering rule: `no-float-eq-in-kernels`. (Float *orderings*
//! are clippy's: `clippy.toml` bans `PartialOrd::partial_cmp`.)

use super::{is_kernel, push, Violation};
use crate::lexer::Kind;
use crate::model::{SourceFile, Workspace};

/// No `==` / `!=` on float-looking operands inside the dominance kernels.
/// Heuristic (no type information): a comparison is flagged when either
/// operand contains a float literal, an `f64`/`f32` mention, or a
/// distance-producing call.
pub(super) fn no_float_eq_in_kernels(_ws: &Workspace, file: &SourceFile, out: &mut Vec<Violation>) {
    if !is_kernel(&file.path) {
        return;
    }
    for p in 0..file.sig.len() {
        if file.is_test_code(p) {
            continue;
        }
        let Some(t) = file.sig_tok(p) else { break };
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let op = t.text.clone();
        let line = t.line;
        if operand_looks_float(file, p, true) || operand_looks_float(file, p, false) {
            push(
                out,
                file,
                line,
                "no-float-eq-in-kernels",
                format!(
                    "`{op}` on a floating-point value in a dominance kernel; use total_cmp \
                     or an epsilon"
                ),
            );
        }
    }
}

/// Punctuation that terminates an operand walk at depth 0.
fn is_operand_stop(text: &str) -> bool {
    matches!(
        text,
        "," | ";"
            | "{"
            | "}"
            | "&&"
            | "||"
            | "&"
            | "|"
            | "="
            | "=="
            | "!="
            | "=>"
            | "->"
            | "+="
            | "-="
            | "*="
            | "/="
    )
}

/// Walks the operand on one side of the comparison at sig-position `op_p`
/// and reports whether it textually looks float-valued.
fn operand_looks_float(file: &SourceFile, op_p: usize, left: bool) -> bool {
    // Collect up to a bounded number of operand tokens, skipping over
    // balanced groups (their contents still count for marker search).
    const LIMIT: usize = 64;
    let mut depth = 0i64;
    let mut prev_dot = false;
    let mut steps = 0;
    let mut p = op_p;
    loop {
        steps += 1;
        if steps > LIMIT {
            return false;
        }
        p = if left {
            let Some(q) = p.checked_sub(1) else {
                return false;
            };
            q
        } else {
            p + 1
        };
        let Some(t) = file.sig_tok(p) else {
            return false;
        };
        if t.kind == Kind::Punct {
            let open = if left { ")" } else { "(" };
            let close = if left { "(" } else { ")" };
            let open2 = if left { "]" } else { "[" };
            let close2 = if left { "[" } else { "]" };
            if t.text == open || t.text == open2 {
                depth += 1;
            } else if t.text == close || t.text == close2 {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            } else if depth == 0 && is_operand_stop(&t.text) {
                return false;
            }
            prev_dot = t.text == ".";
            continue;
        }
        if t.kind == Kind::Ident && matches!(t.text.as_str(), "return" | "if" | "while" | "match") {
            return false;
        }
        if token_looks_float(t.kind, &t.text, if left { false } else { prev_dot }) {
            return true;
        }
        // Walking left, a marker method name is *followed* by the dot we
        // already passed; check the field/method markers directly.
        if left && marker_name(&t.text) {
            return true;
        }
        prev_dot = false;
    }
}

/// Whether a single token marks a float-valued expression.
fn token_looks_float(kind: Kind, text: &str, after_dot: bool) -> bool {
    if kind == Kind::Float {
        return true;
    }
    if kind != Kind::Ident {
        return false;
    }
    if matches!(text, "f64" | "f32" | "d_min" | "d_max") {
        return true;
    }
    after_dot && marker_name(text)
}

/// Method/field names that produce distances or probabilities.
fn marker_name(name: &str) -> bool {
    matches!(
        name,
        "dist" | "dist2" | "volume" | "coord" | "mean" | "quantile" | "cdf" | "key"
    ) || name.starts_with("min_dist")
        || name.starts_with("max_dist")
        || name.starts_with("prob")
        || name.starts_with("dist")
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{check_src, rules};

    #[test]
    fn flags_float_eq_in_kernel_only() {
        let src = "fn f(d: f64) -> bool { d == 0.0 }\n";
        assert_eq!(
            rules(&check_src("crates/core/src/ops/ssd.rs", src)),
            vec!["no-float-eq-in-kernels"]
        );
        assert!(check_src("crates/uncertain/src/object.rs", src).is_empty());
    }

    #[test]
    fn flags_float_eq_split_across_lines() {
        let src = "fn f(a: &H, b: &H) -> bool {\n    a.key\n        == b.key\n}\n";
        let v = check_src("crates/core/src/nnc.rs", src);
        assert_eq!(rules(&v), vec!["no-float-eq-in-kernels"]);
    }

    #[test]
    fn integer_eq_in_kernel_is_fine() {
        let v = check_src(
            "crates/core/src/ops/level.rs",
            "/// Per Theorem 7.\npub fn f(a: usize, b: usize) -> bool { a == b }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn le_is_not_eq() {
        let v = check_src(
            "crates/core/src/ops/level.rs",
            "/// Per Theorem 7.\npub fn f(a: f64, b: f64) -> bool { a <= b }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_inside_call_args() {
        let src = "fn f(d: f64) -> bool { g(d.dist(q) == x) }\n";
        let v = check_src("crates/core/src/ops/ssd.rs", src);
        assert_eq!(rules(&v), vec!["no-float-eq-in-kernels"]);
    }
}
