//! # osd-geom
//!
//! Geometry substrate for the `osd` workspace — the from-scratch primitives
//! that *Optimal Spatial Dominance* (SIGMOD 2015) builds on:
//!
//! * [`Point`] — d-dimensional instances with Euclidean distances;
//! * [`Mbr`] — minimal bounding rectangles with min/max distance bounds;
//! * [`mbr_dominates`] — the exact `O(d)` MBR-level full-spatial-dominance
//!   test (Emrich et al., reused by the paper as F⁺-SD and for cover-based
//!   validation);
//! * [`hull`] — convex-hull vertex extraction (monotone chain in 2-D, LP
//!   based in higher dimensions) plus point-in-hull tests;
//! * [`closer`] — the `u ⪯_Q v` relation and its bisector side test;
//! * [`lp`] — a small dense two-phase simplex solver backing the hull code.
//!
//! ```
//! use osd_geom::{hull_vertices, mbr_dominates, Mbr, Point};
//!
//! // Convex hull: the interior point is dropped.
//! let pts = vec![
//!     Point::from([0.0, 0.0]),
//!     Point::from([4.0, 0.0]),
//!     Point::from([4.0, 4.0]),
//!     Point::from([0.0, 4.0]),
//!     Point::from([2.0, 2.0]),
//! ];
//! assert_eq!(hull_vertices(&pts).len(), 4);
//!
//! // Exact O(d) MBR dominance: U beats V for every query position in Q.
//! let u = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
//! let v = Mbr::new(vec![10.0, 10.0], vec![11.0, 11.0]);
//! let q = Mbr::new(vec![0.0, 0.0], vec![2.0, 2.0]);
//! assert!(mbr_dominates(&u, &v, &q));
//! ```

#![warn(missing_docs)]

pub mod closer;
pub mod dominance;
pub mod hull;
pub mod kernels;
pub mod lp;
pub mod mbr;
pub mod point;

pub use closer::{closer_to_all, closer_to_all_rows, on_near_side};
pub use dominance::{mbr_dominates, mbr_dominates_strict};
pub use hull::{hull_vertex_indices, hull_vertices, point_in_hull, point_in_hull_row};
pub use kernels::{dist2_rows_batch, max_dist2_rows, min_dist2_rows, min_dist2_rows_multi};
pub use mbr::Mbr;
pub use point::{dist2_slice, dist_slice, Point, MAX_INPUT_COORD};

// Compile-time auto-trait surface: the geometry primitives are shared
// read-only across query-engine worker threads, so losing `Send + Sync`
// (e.g. by adding an interior-mutable cache field) must fail compilation
// here, not at a distant spawn site.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Point>();
const _: () = _assert_send_sync::<Mbr>();
