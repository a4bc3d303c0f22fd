//! Possible-world enumeration (§3.3) — a small exact oracle.
//!
//! A possible world picks one instance from each object (and the query);
//! its probability is the product of the picked instances' probabilities.
//! Enumeration is exponential, so this module is used as a *test oracle*
//! and for the exact N2 functions on small inputs; the polynomial
//! computations live in `osd-nnfuncs`.

use crate::object::UncertainObject;

/// Hard cap on the number of worlds the enumerator will visit, as a guard
/// against accidental exponential blow-ups in tests.
pub const MAX_WORLDS: u128 = 20_000_000;

/// Enumerates every possible world over `objects`, invoking `visit` with the
/// chosen instance index per object and the world's probability.
///
/// # Panics
/// Panics if the total number of worlds exceeds [`MAX_WORLDS`].
pub fn for_each_world(objects: &[&UncertainObject], mut visit: impl FnMut(&[usize], f64)) {
    let total: u128 = objects.iter().map(|o| o.len() as u128).product();
    assert!(
        total <= MAX_WORLDS,
        "possible-world enumeration would visit {total} worlds (cap {MAX_WORLDS})"
    );
    let mut choice = vec![0usize; objects.len()];
    loop {
        let prob: f64 = objects
            .iter()
            .zip(choice.iter())
            .map(|(o, &i)| o.instances()[i].prob)
            .product();
        visit(&choice, prob);
        // Mixed-radix increment.
        let mut k = 0;
        loop {
            if k == objects.len() {
                return;
            }
            choice[k] += 1;
            if choice[k] < objects[k].len() {
                break;
            }
            choice[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use osd_geom::Point;

    fn obj(points: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(
            points
                .iter()
                .map(|&(x, y)| Point::new(vec![x, y]))
                .collect(),
        )
    }

    #[test]
    fn world_count_and_mass() {
        let a = obj(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = obj(&[(2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]);
        let mut count = 0usize;
        let mut mass = 0.0;
        for_each_world(&[&a, &b], |choice, p| {
            assert_eq!(choice.len(), 2);
            count += 1;
            mass += p;
        });
        assert_eq!(count, 6);
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_object_single_instance() {
        let a = obj(&[(0.0, 0.0)]);
        let mut worlds = Vec::new();
        for_each_world(&[&a], |c, p| worlds.push((c.to_vec(), p)));
        assert_eq!(worlds, vec![(vec![0], 1.0)]);
    }

    #[test]
    fn probabilities_multiply() {
        let a = UncertainObject::new(vec![
            (Point::new(vec![0.0]), 0.3),
            (Point::new(vec![1.0]), 0.7),
        ]);
        let b = UncertainObject::new(vec![
            (Point::new(vec![2.0]), 0.4),
            (Point::new(vec![3.0]), 0.6),
        ]);
        let mut seen = std::collections::BTreeMap::new();
        for_each_world(&[&a, &b], |c, p| {
            seen.insert((c[0], c[1]), p);
        });
        assert!((seen[&(0, 0)] - 0.12).abs() < 1e-12);
        assert!((seen[&(1, 1)] - 0.42).abs() < 1e-12);
    }
}
