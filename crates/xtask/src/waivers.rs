//! The waiver ledger: `xtask.waivers.toml` at the workspace root.
//!
//! Suppressions are centralised in one reviewed file instead of ad-hoc
//! inline allows. Every entry names a rule, a path, a written reason, and
//! optionally a line span and an expiry date:
//!
//! ```toml
//! [[waiver]]
//! rule = "no-float-eq-in-kernels"
//! path = "crates/core/src/ops/ssd.rs"
//! lines = "40-55"            # optional: "N" or "N-M"; omit for whole file
//! reason = "comparison over the ±inf sentinel bounds, proven exact"
//! expires = "2026-12-31"     # optional ISO date; omit for permanent
//! ```
//!
//! `check` fails on a malformed entry, an **expired** entry (which also
//! stops suppressing, forcing renewal), and an **unused** entry (one that
//! suppresses nothing) — the ledger can only shrink unless a human renews
//! it. All ledger diagnostics carry the rule id `waiver-ledger`.

use crate::rules::{self, Violation};

/// One parsed ledger entry.
#[derive(Debug)]
pub struct Waiver {
    /// Rule id this entry suppresses.
    pub rule: String,
    /// Path (relative to the scan root) the waiver applies to.
    pub path: String,
    /// Optional inclusive 1-based line span.
    pub lines: Option<(usize, usize)>,
    /// Written justification (required).
    pub reason: String,
    /// Optional ISO `YYYY-MM-DD` expiry; the waiver is valid through that
    /// date.
    pub expires: Option<String>,
    /// Line of the `[[waiver]]` header in the ledger, for diagnostics.
    pub ledger_line: usize,
}

/// The parsed ledger.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Entries in file order.
    pub waivers: Vec<Waiver>,
}

/// Parses ledger text. Malformed entries become `waiver-ledger`
/// diagnostics anchored at `ledger_path`; well-formed entries parse into
/// the returned [`Ledger`].
pub fn parse(ledger_path: &str, text: &str) -> (Ledger, Vec<Violation>) {
    let mut ledger = Ledger::default();
    let mut diags = Vec::new();
    let mut current: Option<Waiver> = None;
    let bad = |diags: &mut Vec<Violation>, line: usize, msg: String| {
        diags.push(Violation {
            path: ledger_path.to_string(),
            line,
            rule: "waiver-ledger",
            msg,
        });
    };
    let finish = |w: Option<Waiver>, diags: &mut Vec<Violation>, ledger: &mut Ledger| {
        let Some(w) = w else { return };
        if w.rule.is_empty() || w.path.is_empty() || w.reason.is_empty() {
            bad(
                diags,
                w.ledger_line,
                "waiver entry is missing a required key (rule, path, reason)".to_string(),
            );
            return;
        }
        if rules::find(&w.rule).is_none() {
            bad(
                diags,
                w.ledger_line,
                format!("waiver names unknown rule `{}`", w.rule),
            );
            return;
        }
        ledger.waivers.push(w);
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[waiver]]" {
            finish(current.take(), &mut diags, &mut ledger);
            current = Some(Waiver {
                rule: String::new(),
                path: String::new(),
                lines: None,
                reason: String::new(),
                expires: None,
                ledger_line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            bad(
                &mut diags,
                lineno,
                format!("unparseable ledger line: `{line}`"),
            );
            continue;
        };
        // Strip a trailing end-of-line comment outside the quoted value.
        let value = value.trim();
        let value = value
            .rfind('"')
            .map_or(value, |q| &value[..=q])
            .trim()
            .trim_matches('"')
            .to_string();
        let Some(w) = current.as_mut() else {
            bad(
                &mut diags,
                lineno,
                "key outside a [[waiver]] table".to_string(),
            );
            continue;
        };
        match key.trim() {
            "rule" => w.rule = value,
            "path" => w.path = value,
            "reason" => w.reason = value,
            "expires" => {
                if valid_date(&value) {
                    w.expires = Some(value);
                } else {
                    bad(
                        &mut diags,
                        lineno,
                        format!("`expires = \"{value}\"` is not an ISO YYYY-MM-DD date"),
                    );
                }
            }
            "lines" => match parse_span(&value) {
                Some(span) => w.lines = Some(span),
                None => bad(
                    &mut diags,
                    lineno,
                    format!("`lines = \"{value}\"` is not \"N\" or \"N-M\""),
                ),
            },
            other => bad(&mut diags, lineno, format!("unknown waiver key `{other}`")),
        }
    }
    finish(current.take(), &mut diags, &mut ledger);
    (ledger, diags)
}

fn parse_span(value: &str) -> Option<(usize, usize)> {
    if let Some((a, b)) = value.split_once('-') {
        let (a, b) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
        (a <= b && a > 0).then_some((a, b))
    } else {
        let n: usize = value.trim().parse().ok()?;
        (n > 0).then_some((n, n))
    }
}

fn valid_date(s: &str) -> bool {
    let b = s.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return false;
    }
    let digits = |r: std::ops::Range<usize>| b[r].iter().all(u8::is_ascii_digit);
    if !(digits(0..4) && digits(5..7) && digits(8..10)) {
        return false;
    }
    let num = |r: std::ops::Range<usize>| s[r].parse::<u32>().unwrap_or(0);
    (1..=12).contains(&num(5..7)) && (1..=31).contains(&num(8..10))
}

/// Applies the ledger to a diagnostic list. Returns the surviving
/// diagnostics (suppressed ones removed, ledger diagnostics appended) and
/// the number of entries that suppressed something. `today` is an ISO
/// date; entries with `expires < today` are expired — they stop
/// suppressing and produce a diagnostic.
pub fn apply(
    ledger: &Ledger,
    ledger_path: &str,
    today: &str,
    diags: Vec<Violation>,
) -> (Vec<Violation>, usize) {
    let mut used = vec![false; ledger.waivers.len()];
    let expired: Vec<bool> = ledger
        .waivers
        .iter()
        .map(|w| w.expires.as_deref().is_some_and(|e| e < today))
        .collect();
    let mut kept: Vec<Violation> = Vec::new();
    for v in diags {
        let hit = ledger.waivers.iter().enumerate().find(|(i, w)| {
            !expired[*i]
                && w.rule == v.rule
                && w.path == v.path
                && w.lines.is_none_or(|(a, b)| a <= v.line && v.line <= b)
        });
        match hit {
            Some((i, _)) => used[i] = true,
            None => kept.push(v),
        }
    }
    let used_count = used.iter().filter(|u| **u).count();
    for (i, w) in ledger.waivers.iter().enumerate() {
        if expired[i] {
            kept.push(Violation {
                path: ledger_path.to_string(),
                line: w.ledger_line,
                rule: "waiver-ledger",
                msg: format!(
                    "waiver for `{}` on {} expired {}; renew it with a fresh review or \
                     fix the code",
                    w.rule,
                    w.path,
                    w.expires.as_deref().unwrap_or("")
                ),
            });
        } else if !used[i] {
            kept.push(Violation {
                path: ledger_path.to_string(),
                line: w.ledger_line,
                rule: "waiver-ledger",
                msg: format!(
                    "waiver for `{}` on {} suppresses nothing; delete the stale entry",
                    w.rule, w.path
                ),
            });
        }
    }
    (kept, used_count)
}

/// Today's UTC date as ISO `YYYY-MM-DD`, derived from the system clock
/// with Howard Hinnant's civil-from-days algorithm (std-only).
#[allow(clippy::disallowed_types)] // the ledger's expiry dates are calendar dates
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = i64::try_from(secs / 86_400).unwrap_or(0);
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → (year, month, day), proleptic Gregorian.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (y, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::{apply, civil_from_days, parse, valid_date};
    use crate::rules::Violation;

    const LEDGER: &str = "xtask.waivers.toml";

    fn violation(path: &str, line: usize, rule: &'static str) -> Violation {
        Violation {
            path: path.to_string(),
            line,
            rule,
            msg: "x".to_string(),
        }
    }

    #[test]
    fn parses_full_entry() {
        let (l, d) = parse(
            LEDGER,
            "# comment\n[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"crates/flow/src/lib.rs\"\nlines = \"3-9\"\nreason = \"staged refactor\"\nexpires = \"2027-01-31\"\n",
        );
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(l.waivers.len(), 1);
        assert_eq!(l.waivers[0].lines, Some((3, 9)));
        assert_eq!(l.waivers[0].expires.as_deref(), Some("2027-01-31"));
    }

    #[test]
    fn rejects_unknown_rule_and_missing_reason() {
        let (l, d) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-such-rule\"\npath = \"x.rs\"\nreason = \"r\"\n[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"x.rs\"\n",
        );
        assert!(l.waivers.is_empty());
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].msg.contains("unknown rule"));
        assert!(d[1].msg.contains("missing a required key"));
    }

    #[test]
    fn rejects_bad_dates_and_spans() {
        let (_, d) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"x.rs\"\nreason = \"r\"\nexpires = \"31/01/2027\"\nlines = \"9-3\"\n",
        );
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn active_waiver_suppresses_and_counts_used() {
        let (l, d) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"crates/flow/src/lib.rs\"\nreason = \"r\"\nexpires = \"2026-12-31\"\n",
        );
        assert!(d.is_empty());
        let diags = vec![
            violation("crates/flow/src/lib.rs", 7, "no-panic-allow-in-libs"),
            violation("crates/flow/src/lib.rs", 7, "no-float-eq-in-kernels"),
        ];
        let (kept, used) = apply(&l, LEDGER, "2026-08-08", diags);
        assert_eq!(used, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "no-float-eq-in-kernels");
    }

    #[test]
    fn expired_waiver_stops_suppressing_and_fails() {
        let (l, _) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"crates/flow/src/lib.rs\"\nreason = \"r\"\nexpires = \"2026-01-01\"\n",
        );
        let diags = vec![violation(
            "crates/flow/src/lib.rs",
            7,
            "no-panic-allow-in-libs",
        )];
        let (kept, used) = apply(&l, LEDGER, "2026-08-08", diags);
        assert_eq!(used, 0);
        assert_eq!(kept.len(), 2, "{kept:?}");
        assert!(kept.iter().any(|v| v.msg.contains("expired")));
    }

    #[test]
    fn unused_waiver_fails() {
        let (l, _) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-panic-allow-in-libs\"\npath = \"crates/flow/src/lib.rs\"\nreason = \"r\"\n",
        );
        let (kept, used) = apply(&l, LEDGER, "2026-08-08", Vec::new());
        assert_eq!(used, 0);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].msg.contains("suppresses nothing"));
    }

    #[test]
    fn span_bounds_are_inclusive() {
        let (l, _) = parse(
            LEDGER,
            "[[waiver]]\nrule = \"no-float-eq-in-kernels\"\npath = \"a.rs\"\nlines = \"5-6\"\nreason = \"r\"\n",
        );
        let diags = vec![
            violation("a.rs", 4, "no-float-eq-in-kernels"),
            violation("a.rs", 5, "no-float-eq-in-kernels"),
            violation("a.rs", 6, "no-float-eq-in-kernels"),
            violation("a.rs", 7, "no-float-eq-in-kernels"),
        ];
        let (kept, used) = apply(&l, LEDGER, "2026-08-08", diags);
        assert_eq!(used, 1);
        let lines: Vec<usize> = kept.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![4, 7]);
    }

    #[test]
    fn civil_date_math() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
        assert!(valid_date("2026-02-28"));
        assert!(!valid_date("2026-13-01"));
        assert!(!valid_date("2026-2-28"));
    }
}
