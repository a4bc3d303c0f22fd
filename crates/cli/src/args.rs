//! Argument handling for the `osd` CLI.

use osd_core::Operator;
use osd_geom::{Point, MAX_INPUT_COORD};
use osd_uncertain::UncertainObject;
use std::fmt;

/// CLI-level errors, printable to the user.
#[derive(Debug)]
pub enum CliError {
    /// A malformed flag or value.
    BadArgument(String),
    /// A missing required flag.
    Missing(String),
    /// Anything bubbling up from the library layers.
    Data(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::BadArgument(m) => write!(f, "bad argument: {m}"),
            CliError::Missing(m) => write!(f, "missing argument: {m}"),
            CliError::Data(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses a query specification of the form `"x,y;x,y;…"` (one instance
/// per semicolon-separated group, uniform probabilities) into an object.
///
/// # Errors
/// Returns [`CliError::BadArgument`] on malformed input.
pub fn parse_query_spec(spec: &str) -> Result<UncertainObject, CliError> {
    let mut points = Vec::new();
    for (i, group) in spec.split(';').enumerate() {
        let group = group.trim();
        if group.is_empty() {
            continue;
        }
        let coords: Result<Vec<f64>, _> =
            group.split(',').map(|c| c.trim().parse::<f64>()).collect();
        let coords = coords
            .map_err(|_| CliError::BadArgument(format!("instance {}: {:?}", i + 1, group)))?;
        // `f64::from_str` accepts `nan` and `inf`, which `Point` rejects,
        // and finite values whose distances overflow to `inf`.
        if coords
            .iter()
            .any(|c| !c.is_finite() || c.abs() > MAX_INPUT_COORD)
        {
            return Err(CliError::BadArgument(format!(
                "instance {}: non-finite coordinate, or one beyond ±{MAX_INPUT_COORD:e}, in {:?}",
                i + 1,
                group
            )));
        }
        if coords.is_empty() {
            return Err(CliError::BadArgument(format!(
                "instance {} is empty",
                i + 1
            )));
        }
        points.push(Point::new(coords));
    }
    if points.is_empty() {
        return Err(CliError::BadArgument("query has no instances".into()));
    }
    let dim = points[0].dim();
    if points.iter().any(|p| p.dim() != dim) {
        return Err(CliError::BadArgument(
            "query instances disagree on dimensionality".into(),
        ));
    }
    Ok(UncertainObject::uniform(points))
}

/// Parses an operator name.
///
/// # Errors
/// Returns [`CliError::BadArgument`] for unknown names.
pub fn parse_operator(name: &str) -> Result<Operator, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "ssd" | "s-sd" => Ok(Operator::SSd),
        "sssd" | "ss-sd" => Ok(Operator::SsSd),
        "psd" | "p-sd" => Ok(Operator::PSd),
        "fsd" | "f-sd" => Ok(Operator::FSd),
        "f+sd" | "fplussd" | "fplus" => Ok(Operator::FPlusSd),
        other => Err(CliError::BadArgument(format!(
            "unknown operator {other:?} (use ssd | sssd | psd | fsd | f+sd)"
        ))),
    }
}

/// Output format selected by `--profile[=json|prom]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Hand-formatted JSON document (the default).
    Json,
    /// Prometheus text exposition format.
    Prom,
}

/// Output format selected by `--trace[=text|chrome]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable indented span tree (the default).
    Text,
    /// Chrome trace-event JSON, loadable in `chrome://tracing` / Perfetto.
    Chrome,
}

/// A tiny flag scanner: `--name value` pairs plus boolean `--name` flags.
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Wraps an argument list (without the subcommand).
    pub fn new(args: Vec<String>) -> Self {
        Flags { args }
    }

    /// The value following `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// A required `--name value`.
    ///
    /// # Errors
    /// Returns [`CliError::Missing`] when absent.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.value(name)
            .ok_or_else(|| CliError::Missing(name.into()))
    }

    /// Whether the boolean flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The `--profile` selection: `None` when the flag is absent, `Json`
    /// for a bare `--profile` or `--profile=json`, `Prom` for
    /// `--profile=prom`.
    ///
    /// # Errors
    /// Returns [`CliError::BadArgument`] for an unknown format.
    pub fn profile(&self) -> Result<Option<ProfileFormat>, CliError> {
        for a in &self.args {
            match a.as_str() {
                "--profile" | "--profile=json" => return Ok(Some(ProfileFormat::Json)),
                "--profile=prom" | "--profile=prometheus" => return Ok(Some(ProfileFormat::Prom)),
                other => {
                    if let Some(v) = other.strip_prefix("--profile=") {
                        return Err(CliError::BadArgument(format!(
                            "--profile={v:?} (use json | prom)"
                        )));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The `--trace` selection: `None` when the flag is absent, `Text`
    /// for a bare `--trace` or `--trace=text`, `Chrome` for
    /// `--trace=chrome`.
    ///
    /// # Errors
    /// Returns [`CliError::BadArgument`] for an unknown format.
    pub fn trace(&self) -> Result<Option<TraceFormat>, CliError> {
        for a in &self.args {
            match a.as_str() {
                "--trace" | "--trace=text" => return Ok(Some(TraceFormat::Text)),
                "--trace=chrome" => return Ok(Some(TraceFormat::Chrome)),
                other => {
                    if let Some(v) = other.strip_prefix("--trace=") {
                        return Err(CliError::BadArgument(format!(
                            "--trace={v:?} (use text | chrome)"
                        )));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The `--warm` selection: `true` (warm execution on) when the flag is
    /// absent or spelled `--warm`/`--warm=on`, `false` for `--warm=off` —
    /// the escape hatch back to fully cold per-query caches.
    ///
    /// # Errors
    /// Returns [`CliError::BadArgument`] for an unknown value.
    pub fn warm(&self) -> Result<bool, CliError> {
        for a in &self.args {
            match a.as_str() {
                "--warm" | "--warm=on" => return Ok(true),
                "--warm=off" => return Ok(false),
                other => {
                    if let Some(v) = other.strip_prefix("--warm=") {
                        return Err(CliError::BadArgument(format!(
                            "--warm={v:?} (use on | off)"
                        )));
                    }
                }
            }
        }
        Ok(true)
    }

    /// The raw argument list — for subcommands taking positional words
    /// (`osd trace last 5`).
    pub fn raw(&self) -> &[String] {
        &self.args
    }

    /// A parsed optional value with a default.
    ///
    /// # Errors
    /// Returns [`CliError::BadArgument`] when the value does not parse.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::BadArgument(format!("{name} = {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn parses_multi_instance_query() {
        let q = parse_query_spec("1,2; 3,4 ;5,6").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.dim(), 2);
        let total: f64 = q.instances().iter().map(|i| i.prob).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query_spec("").is_err());
        assert!(parse_query_spec("1,2;x,4").is_err());
        assert!(parse_query_spec("1,2;3").is_err()); // mixed dims
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for spec in ["nan,1", "inf,1", "1,-inf", "1,2;3,nan"] {
            match parse_query_spec(spec) {
                Err(CliError::BadArgument(m)) => assert!(m.contains("non-finite"), "{spec}: {m}"),
                other => panic!("{spec}: expected BadArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_coordinates_past_the_input_bound() {
        // Distances from such a query overflow to `inf`, which used to
        // panic the first distance distribution the query built.
        for spec in ["1e308,1", "1,-1e151", "1,2;3,1e200"] {
            match parse_query_spec(spec) {
                Err(CliError::BadArgument(m)) => assert!(m.contains("beyond"), "{spec}: {m}"),
                other => panic!("{spec}: expected BadArgument, got {other:?}"),
            }
        }
        assert!(parse_query_spec("1e150,-1e150").is_ok());
    }

    #[test]
    fn operator_names() {
        assert_eq!(parse_operator("PSD").unwrap(), Operator::PSd);
        assert_eq!(parse_operator("f+sd").unwrap(), Operator::FPlusSd);
        assert!(parse_operator("xyz").is_err());
    }

    #[test]
    fn flag_scanner() {
        let f = Flags::new(vec![
            "--data".into(),
            "x.csv".into(),
            "--progressive".into(),
            "--k".into(),
            "3".into(),
        ]);
        assert_eq!(f.value("--data"), Some("x.csv"));
        assert!(f.has("--progressive"));
        assert!(!f.has("--nope"));
        assert_eq!(f.parsed_or("--k", 1usize).unwrap(), 3);
        assert_eq!(f.parsed_or("--missing", 7usize).unwrap(), 7);
        assert!(f.required("--data").is_ok());
        assert!(f.required("--query").is_err());
    }

    #[test]
    fn trace_flag_forms() {
        let none = Flags::new(vec!["--data".into(), "x.csv".into()]);
        assert_eq!(none.trace().unwrap(), None);
        let bare = Flags::new(vec!["--trace".into()]);
        assert_eq!(bare.trace().unwrap(), Some(TraceFormat::Text));
        let text = Flags::new(vec!["--trace=text".into()]);
        assert_eq!(text.trace().unwrap(), Some(TraceFormat::Text));
        let chrome = Flags::new(vec!["--trace=chrome".into()]);
        assert_eq!(chrome.trace().unwrap(), Some(TraceFormat::Chrome));
        let bad = Flags::new(vec!["--trace=xml".into()]);
        assert!(bad.trace().is_err());
    }

    #[test]
    fn warm_flag_forms() {
        let none = Flags::new(vec!["--data".into(), "x.csv".into()]);
        assert!(none.warm().unwrap(), "warm execution is the default");
        let on = Flags::new(vec!["--warm=on".into()]);
        assert!(on.warm().unwrap());
        let off = Flags::new(vec!["--warm=off".into()]);
        assert!(!off.warm().unwrap());
        let bad = Flags::new(vec!["--warm=tepid".into()]);
        assert!(bad.warm().is_err());
    }

    #[test]
    fn profile_flag_forms() {
        let none = Flags::new(vec!["--data".into(), "x.csv".into()]);
        assert_eq!(none.profile().unwrap(), None);
        let bare = Flags::new(vec!["--profile".into()]);
        assert_eq!(bare.profile().unwrap(), Some(ProfileFormat::Json));
        let json = Flags::new(vec!["--profile=json".into()]);
        assert_eq!(json.profile().unwrap(), Some(ProfileFormat::Json));
        let prom = Flags::new(vec!["--profile=prom".into()]);
        assert_eq!(prom.profile().unwrap(), Some(ProfileFormat::Prom));
        let bad = Flags::new(vec!["--profile=xml".into()]);
        assert!(bad.profile().is_err());
    }
}
