//! Plain-CSV import/export of multi-instance datasets.
//!
//! The paper's real datasets (NBA game logs, check-ins, …) arrive as flat
//! instance tables; this module reads and writes that shape so users can
//! swap the surrogate generators for their own data:
//!
//! ```text
//! object_id,weight,c0,c1[,c2,...]
//! 0,1.0,12.5,7.25
//! 0,1.0,13.0,8.00
//! 1,2.0,55.1,40.9
//! ```
//!
//! Weights are normalised per object (§2.1's multi-valued-object
//! transformation), so uniform datasets can simply use weight `1.0`.

use osd_geom::{Point, MAX_INPUT_COORD};
use osd_uncertain::{ObjectError, UncertainObject};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors raised while loading a dataset.
#[derive(Debug)]
pub enum DataError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV line (1-based line number and message).
    Parse(usize, String),
    /// A structurally invalid object (object id and cause).
    Object(u64, ObjectError),
    /// The file contained no instances.
    Empty,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            DataError::Object(id, e) => write!(f, "object {id}: {e}"),
            DataError::Empty => write!(f, "dataset contains no instances"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Writes objects as instance rows. Probabilities are emitted as weights.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_objects_csv(path: &Path, objects: &[UncertainObject]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "object_id,weight,coords...")?;
    for (id, o) in objects.iter().enumerate() {
        for inst in o.instances() {
            write!(w, "{id},{}", inst.prob)?;
            for c in inst.point.coords() {
                write!(w, ",{c}")?;
            }
            writeln!(w)?;
        }
    }
    w.flush()
}

/// Reads objects from instance rows (see the module docs for the format).
/// Lines starting with `#` and a leading header line are skipped. Object
/// ids need not be contiguous; output order follows ascending id.
///
/// # Errors
/// Returns a [`DataError`] on I/O failure, malformed rows, or invalid
/// objects.
pub fn read_objects_csv(path: &Path) -> Result<Vec<UncertainObject>, DataError> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut groups: BTreeMap<u64, Vec<(Point, f64)>> = BTreeMap::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() < 3 {
            if lineno == 0 {
                continue; // header
            }
            return Err(DataError::Parse(
                lineno + 1,
                format!("expected at least 3 fields, got {}", fields.len()),
            ));
        }
        let id: u64 = match fields[0].trim().parse() {
            Ok(v) => v,
            Err(_) => {
                if lineno == 0 {
                    continue; // header line
                }
                return Err(DataError::Parse(
                    lineno + 1,
                    format!("bad object id {:?}", fields[0]),
                ));
            }
        };
        let weight: f64 = fields[1]
            .trim()
            .parse()
            .map_err(|_| DataError::Parse(lineno + 1, format!("bad weight {:?}", fields[1])))?;
        // `f64::from_str` accepts `nan` and `inf`, which `Point` rejects,
        // and finite values whose distances overflow to `inf`.
        let coords: Result<Vec<f64>, DataError> = fields[2..]
            .iter()
            .map(|f| match f.trim().parse::<f64>() {
                Ok(c) if c.abs() <= MAX_INPUT_COORD => Ok(c),
                Ok(c) if c.is_finite() => Err(DataError::Parse(
                    lineno + 1,
                    format!("coordinate {f:?} exceeds ±{MAX_INPUT_COORD:e}"),
                )),
                Ok(_) => Err(DataError::Parse(
                    lineno + 1,
                    format!("non-finite coordinate {f:?}"),
                )),
                Err(_) => Err(DataError::Parse(
                    lineno + 1,
                    format!("bad coordinate {f:?}"),
                )),
            })
            .collect();
        groups
            .entry(id)
            .or_default()
            .push((Point::new(coords?), weight));
    }
    if groups.is_empty() {
        return Err(DataError::Empty);
    }
    groups
        .into_iter()
        .map(|(id, insts)| {
            UncertainObject::try_from_weighted(insts).map_err(|e| DataError::Object(id, e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::synthetic::{generate_objects, CenterDistribution, SynthParams};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("osd-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_objects() {
        let params = SynthParams {
            n: 12,
            dim: 3,
            instances: 4,
            edge: 250.0,
            centers: CenterDistribution::Independent,
            seed: 55,
        };
        let objects = generate_objects(&params);
        let path = tmp("roundtrip.csv");
        write_objects_csv(&path, &objects).unwrap();
        let loaded = read_objects_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), objects.len());
        for (a, b) in loaded.iter().zip(objects.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.instances().iter().zip(b.instances().iter()) {
                assert_eq!(x.point.coords(), y.point.coords());
                assert!((x.prob - y.prob).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reads_weighted_rows_and_normalises() {
        let path = tmp("weighted.csv");
        std::fs::write(
            &path,
            "object_id,weight,coords...\n# comment\n0,2.0,1.0,2.0\n0,6.0,3.0,4.0\n5,1.0,9.0,9.0\n",
        )
        .unwrap();
        let objects = read_objects_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(objects.len(), 2);
        assert!((objects[0].instances()[0].prob - 0.25).abs() < 1e-12);
        assert!((objects[0].instances()[1].prob - 0.75).abs() < 1e-12);
        assert_eq!(objects[1].len(), 1);
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let path = tmp("bad.csv");
        std::fs::write(
            &path,
            "object_id,weight,coords...\n0,1.0,1.0\nnot-an-id,1.0,2.0\n",
        )
        .unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            DataError::Parse(line, msg) => {
                assert_eq!(line, 3);
                assert!(msg.contains("bad object id"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn coordinates_past_the_input_bound_are_parse_errors() {
        // Distances between such points overflow to `inf`, which used to
        // panic the first distance distribution a query built.
        for bad in ["1e151", "-1e200", "1e308"] {
            let path = tmp(&format!("oversized-{bad}.csv"));
            std::fs::write(&path, format!("object_id,weight,coords...\n2,1,{bad},5\n")).unwrap();
            let err = read_objects_csv(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            match err {
                DataError::Parse(line, msg) => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(msg.contains("exceeds"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected parse error, got {other}"),
            }
        }
        let path = tmp("at-bound.csv");
        std::fs::write(&path, "object_id,weight,coords...\n2,1,1e150,-1e150\n").unwrap();
        let objects = read_objects_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(objects[0].instances()[0].point.coords(), &[1e150, -1e150]);
    }

    #[test]
    fn non_finite_coordinates_are_parse_errors() {
        for bad in ["nan", "inf", "-inf"] {
            let path = tmp(&format!("nonfinite-{bad}.csv"));
            std::fs::write(&path, format!("object_id,weight,coords...\n2,1,{bad},5\n")).unwrap();
            let err = read_objects_csv(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            match err {
                DataError::Parse(line, msg) => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(msg.contains("non-finite coordinate"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected parse error, got {other}"),
            }
        }
    }

    #[test]
    fn empty_file_is_an_error() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "object_id,weight,coords...\n").unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DataError::Empty));
    }

    #[test]
    fn bad_weight_is_attributed_to_object() {
        let path = tmp("badweight.csv");
        std::fs::write(&path, "h\n7,-1.0,1.0,2.0\n").unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DataError::Object(7, _)));
    }
}
