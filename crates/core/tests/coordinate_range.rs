//! Programmatic objects whose coordinates are finite but beyond
//! ±[`MAX_INPUT_COORD`] are rejected with a typed error naming the object
//! when they enter an index: on build, insert and update, for both
//! layouts. Past that bound a squared distance can overflow to infinity,
//! which the distance distributions of the dominance operators reject by
//! panicking.

// Integration test: exact values and aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::{
    nn_candidates, DbError, FilterConfig, FlatDatabase, Operator, PreparedQuery, ShardedDatabase,
    SpatialIndex,
};
use osd_geom::{Point, MAX_INPUT_COORD};
use osd_uncertain::UncertainObject;

/// A two-instance 2-d object around `(x, x)`.
fn obj(x: f64) -> UncertainObject {
    UncertainObject::uniform(vec![Point::new(vec![x, x]), Point::new(vec![1.0, x])])
}

/// Finite coordinates past the bound, on either side.
const OUT_OF_RANGE: [f64; 4] = [1e200, -1e200, f64::MAX, -1.0001e150];

fn seed_objects() -> Vec<UncertainObject> {
    (0..6).map(|i| obj(f64::from(i))).collect()
}

/// Both layouts over the seed objects.
fn layouts() -> Vec<Box<dyn SpatialIndex>> {
    vec![
        Box::new(FlatDatabase::try_new(seed_objects()).unwrap()),
        Box::new(ShardedDatabase::try_new(seed_objects(), 3).unwrap()),
    ]
}

#[test]
fn build_rejects_out_of_range_coordinates() {
    for bad in OUT_OF_RANGE {
        let mut objects = seed_objects();
        objects.insert(2, obj(bad));
        let want = DbError::CoordinateOutOfRange { object: 2 };
        let flat = FlatDatabase::try_new(objects.clone())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(flat, want, "flat build accepted {bad:e}");
        let sharded = ShardedDatabase::try_new(objects, 3)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(sharded, want, "sharded build accepted {bad:e}");
        assert!(format!("{want}").starts_with("object 2:"));
    }
}

#[test]
fn insert_rejects_out_of_range_coordinates_and_publishes_nothing() {
    for mut db in layouts() {
        for bad in OUT_OF_RANGE {
            let (len, epoch) = (db.len(), db.epoch());
            let err = db.try_insert(obj(bad)).unwrap_err();
            assert_eq!(err, DbError::CoordinateOutOfRange { object: 6 });
            assert_eq!(
                (db.len(), db.epoch()),
                (len, epoch),
                "a rejected insert publishes"
            );
        }
    }
}

#[test]
fn update_rejects_out_of_range_coordinates_and_keeps_the_object() {
    for mut db in layouts() {
        for bad in OUT_OF_RANGE {
            let epoch = db.epoch();
            let err = db.try_update(4, obj(bad)).unwrap_err();
            assert_eq!(err, DbError::CoordinateOutOfRange { object: 4 });
            assert_eq!(db.epoch(), epoch, "a rejected update publishes");
            assert_eq!(db.object(4).mbr().hi()[0].to_bits(), 4.0f64.to_bits());
        }
    }
}

#[test]
fn coordinates_at_the_bound_are_accepted_and_queryable() {
    let mut objects = seed_objects();
    objects.push(obj(MAX_INPUT_COORD));
    objects.push(obj(-MAX_INPUT_COORD));
    let q = PreparedQuery::new(obj(0.5));
    let mut flat = FlatDatabase::try_new(objects.clone()).unwrap();
    let mut sharded = ShardedDatabase::try_new(objects, 3).unwrap();
    flat.try_insert(obj(MAX_INPUT_COORD)).unwrap();
    sharded.try_update(0, obj(-MAX_INPUT_COORD)).unwrap();
    for op in Operator::ALL {
        let a = nn_candidates(&flat, &q, op, &FilterConfig::all());
        let b = nn_candidates(&sharded, &q, op, &FilterConfig::all());
        assert!(
            !a.candidates.is_empty() && !b.candidates.is_empty(),
            "{op:?}"
        );
    }
}
