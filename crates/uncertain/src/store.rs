//! Chunked columnar (SoA) instance storage with zero-copy views.
//!
//! The dominance kernels spend their time in tight loops over instance
//! pairs (§4–§6 of the paper). The boxed AoS layout
//! (`Vec<UncertainObject> → Vec<Instance> → Point(Box<[f64]>)`) scatters
//! those loops across the heap; an [`InstanceStore`] instead keeps the
//! instances of each object in one contiguous row-major `coords` run with
//! a parallel `probs` column.
//!
//! **Layout.** Objects live in *rows*, and rows are grouped into chunks of
//! 256 consecutive rows, each chunk behind an `Arc`. A chunk owns the
//! `coords` and `probs` columns of its rows, a chunk-local `(offset, len)`
//! span per row and an MBR per row. Row `r` is row `r % CHUNK` of chunk
//! `r / CHUNK`.
//!
//! **Row-stable.** Rows never move. Removing an object tombstones its row
//! (an empty span and no MBR) and compacts only that chunk's columns, so
//! the instance memory is freed at once; appending fills the last chunk or
//! opens a new one. Every write builds a fresh copy of the one chunk it
//! touches and never edits a chunk in place, so cloning a store costs one
//! count bump per chunk and a clone never observes a later write
//! (`uncertain::epoch` stays the only copy-on-write site).
//!
//! Invariants, maintained by construction and audited by
//! [`InstanceStore::validate`]:
//!
//! * every chunk holds 256 rows, except the last, which holds 1 to 256;
//! * per chunk, `coords.len() == probs.len() * dim`, and the spans tile the
//!   chunk's instance range exactly in row order: span `i+1` starts where
//!   span `i` ends, span `0` starts at `0`, the last span ends at
//!   `probs.len()`;
//! * a live row has a non-empty span and the tight MBR of its instances; a
//!   tombstoned row has an empty span and no MBR;
//! * per object, probabilities are each in `(0, 1]` and sum to 1 (within
//!   the same `1e-6` tolerance as [`UncertainObject`]);
//! * the store's live count equals the number of live rows.
//!
//! [`ObjectRef`]/[`InstanceRef`] are cheap borrowed views (a chunk
//! pointer, an MBR pointer and a row); cloning a view never clones
//! coordinates. Readers share a snapshot through `Arc<InstanceStore>`; the
//! store is plain data (`Send + Sync`), so worker threads borrow the same
//! allocation with zero copies.

use crate::error::ObjectError;
use crate::object::{Instance, UncertainObject};
use osd_geom::{max_dist2_rows, min_dist2_rows, Mbr, Point, MAX_INPUT_COORD};
use std::fmt;
use std::sync::Arc;

/// Rows per chunk. A store clone costs `n / CHUNK` count bumps and a write
/// copies one chunk of `CHUNK` rows; 256 keeps both near `√n` for the
/// index sizes of §6. The index's per-id tables (`osd_core`'s
/// `ChunkedVec`) use the same chunk size.
pub const CHUNK: usize = 256;

/// Why an [`InstanceStore`] could not be built or extended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No objects were supplied.
    Empty,
    /// An object disagrees with the store's dimensionality.
    DimensionMismatch {
        /// Dimensionality of the store (set by the first object).
        expected: usize,
        /// Dimensionality of the offending object.
        found: usize,
    },
    /// An instance coordinate is non-finite or beyond
    /// ±[`MAX_INPUT_COORD`], where a distance between two points could
    /// overflow to infinity.
    CoordinateOutOfRange,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Empty => write!(f, "an instance store needs at least one object"),
            StoreError::DimensionMismatch { expected, found } => write!(
                f,
                "object dimensionality must match the store: expected {expected}, found {found}"
            ),
            StoreError::CoordinateOutOfRange => write!(
                f,
                "object has a non-finite coordinate, or one beyond ±{MAX_INPUT_COORD:e}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// The columns of up to 256 consecutive rows. Never edited once
/// shared: a write builds a new chunk.
#[derive(Debug)]
struct Chunk {
    dim: usize,
    /// Row-major instance coordinates, `dim`-strided.
    coords: Vec<f64>,
    /// Instance probabilities, parallel to the rows of `coords`.
    probs: Vec<f64>,
    /// Per row, `(first instance index, instance count)` within this
    /// chunk's columns; a tombstone has count 0.
    spans: Vec<(usize, usize)>,
    /// Per row, its minimal bounding rectangle; `None` for a tombstone.
    mbrs: Vec<Option<Mbr>>,
}

impl Chunk {
    fn with_capacity(dim: usize, rows: usize, instances: usize) -> Chunk {
        Chunk {
            dim,
            coords: Vec::with_capacity(instances * dim),
            probs: Vec::with_capacity(instances),
            spans: Vec::with_capacity(rows),
            mbrs: Vec::with_capacity(rows),
        }
    }

    /// Number of rows, live or tombstoned.
    fn rows(&self) -> usize {
        self.spans.len()
    }

    /// The view of store row `row`, which lies in this chunk; `None` if it
    /// is tombstoned or past the chunk's last row.
    fn view(&self, row: usize) -> Option<ObjectRef<'_>> {
        let mbr = self.mbrs.get(row % CHUNK)?.as_ref()?;
        Some(ObjectRef {
            chunk: self,
            mbr,
            row,
        })
    }

    /// Appends a live row holding `object`'s instances.
    fn push_object(&mut self, object: &UncertainObject) {
        self.spans.push((self.probs.len(), object.len()));
        for inst in object.instances() {
            self.coords.extend_from_slice(inst.point.coords());
            self.probs.push(inst.prob);
        }
        self.mbrs.push(Some(object.mbr().clone()));
    }

    /// Appends a live row copied bit for bit from `view`.
    fn push_view(&mut self, view: ObjectRef<'_>) {
        self.spans.push((self.probs.len(), view.len()));
        self.coords.extend_from_slice(view.coords());
        self.probs.extend_from_slice(view.probs());
        self.mbrs.push(Some(view.mbr().clone()));
    }

    /// A copy of this chunk with local row `r` set to `with` (`None`
    /// tombstones it). `r == self.rows()` appends a row. The instances of
    /// every other row are copied verbatim; only the spans after `r` move.
    fn spliced(&self, r: usize, with: Option<&UncertainObject>) -> Chunk {
        let d = self.dim;
        let (offset, old_len) = self.spans.get(r).copied().unwrap_or((self.probs.len(), 0));
        let new_len = with.map_or(0, UncertainObject::len);
        let tail = offset + old_len;
        let rows = self.rows().max(r + 1);
        let mut out = Chunk::with_capacity(d, rows, self.probs.len() - old_len + new_len);
        out.coords.extend_from_slice(&self.coords[..offset * d]);
        out.probs.extend_from_slice(&self.probs[..offset]);
        out.spans.extend_from_slice(&self.spans[..r]);
        out.mbrs.extend_from_slice(&self.mbrs[..r]);
        match with {
            Some(object) => out.push_object(object),
            None => {
                out.spans.push((offset, 0));
                out.mbrs.push(None);
            }
        }
        out.coords.extend_from_slice(&self.coords[tail * d..]);
        out.probs.extend_from_slice(&self.probs[tail..]);
        let after = self.spans.get(r + 1..).unwrap_or(&[]);
        out.spans
            .extend(after.iter().map(|&(o, len)| (o - old_len + new_len, len)));
        out.mbrs
            .extend_from_slice(self.mbrs.get(r + 1..).unwrap_or(&[]));
        out
    }

    /// Audits this chunk's part of the [module](self) invariants; `base`
    /// is the store row of its first row. Returns the live row count.
    fn validate(&self, base: usize) -> Result<usize, String> {
        if self.coords.len() != self.probs.len() * self.dim {
            return Err(format!(
                "chunk at row {base}: coords length {} is not probs length {} times dim {}",
                self.coords.len(),
                self.probs.len(),
                self.dim
            ));
        }
        if self.spans.len() != self.mbrs.len() {
            return Err(format!(
                "chunk at row {base}: {} spans but {} MBRs",
                self.spans.len(),
                self.mbrs.len()
            ));
        }
        let mut expected_offset = 0usize;
        let mut live = 0;
        for (r, (&(offset, len), mbr)) in self.spans.iter().zip(&self.mbrs).enumerate() {
            let row = base + r;
            if offset != expected_offset {
                return Err(format!(
                    "object {row} span starts at {offset}, expected {expected_offset}"
                ));
            }
            expected_offset = offset + len;
            let Some(mbr) = mbr else {
                if len != 0 {
                    return Err(format!("tombstoned row {row} still holds {len} instances"));
                }
                continue;
            };
            if len == 0 {
                return Err(format!("object {row} has an empty span"));
            }
            live += 1;
            let coords = &self.coords[offset * self.dim..(offset + len) * self.dim];
            if Mbr::from_rows(coords, self.dim) != *mbr {
                return Err(format!("object {row} MBR is not the tight row bound"));
            }
            let mut mass = 0.0;
            for (i, &p) in self.probs[offset..offset + len].iter().enumerate() {
                if !(p > 0.0 && p <= 1.0 && p.is_finite()) {
                    return Err(format!("object {row} instance {i} probability {p} invalid"));
                }
                mass += p;
            }
            if (mass - 1.0).abs() > 1e-6 {
                return Err(format!("object {row} probability mass {mass} != 1"));
            }
        }
        if expected_offset != self.probs.len() {
            return Err(format!(
                "chunk at row {base}: spans cover {expected_offset} instances, chunk holds {}",
                self.probs.len()
            ));
        }
        Ok(live)
    }
}

/// Chunked columnar storage for the instances of a set of uncertain
/// objects, one object per row.
///
/// See the [module documentation](self) for the layout and its invariants.
#[derive(Debug, Clone)]
pub struct InstanceStore {
    dim: usize,
    /// Rows `c * CHUNK ..` live in `chunks[c]`.
    chunks: Vec<Arc<Chunk>>,
    /// Number of live (non-tombstoned) rows.
    live: usize,
}

impl InstanceStore {
    /// Builds a store from existing objects, one row each, copying each
    /// object's instances into the chunk columns (coordinates,
    /// probabilities and the already-computed MBRs are taken verbatim, so
    /// derived geometry is bit-for-bit identical to the boxed layout).
    ///
    /// # Errors
    /// [`StoreError::Empty`] if `objects` is empty; otherwise the
    /// [`InstanceStore::check_object`] error of the first object that
    /// fails it, against the first object's dimensionality.
    pub fn from_objects(objects: &[UncertainObject]) -> Result<Self, StoreError> {
        let first = objects.first().ok_or(StoreError::Empty)?;
        let dim = first.dim();
        if let Some(e) = objects
            .iter()
            .find_map(|o| Self::check_object(dim, o).err())
        {
            return Err(e);
        }
        Ok(InstanceStore {
            dim,
            chunks: build_chunks(dim, objects, UncertainObject::len, Chunk::push_object),
            live: objects.len(),
        })
    }

    /// Appends one object in a new row, returning the row. Copies the last
    /// chunk, or opens a new one when it is full.
    ///
    /// # Errors
    /// The [`InstanceStore::check_object`] error, if the object fails it.
    pub fn push_object(&mut self, object: &UncertainObject) -> Result<usize, StoreError> {
        Self::check_object(self.dim, object)?;
        let row = self.rows();
        match self.chunks.last_mut() {
            Some(last) if last.rows() < CHUNK => {
                *last = Arc::new(last.spliced(last.rows(), Some(object)));
            }
            _ => {
                let empty = Chunk::with_capacity(self.dim, 0, 0);
                self.chunks.push(Arc::new(empty.spliced(0, Some(object))));
            }
        }
        self.live += 1;
        Ok(row)
    }

    /// Removes the object at `row`: the row becomes a tombstone and its
    /// instances are compacted out of its chunk's columns, which is the
    /// one chunk copied. Every other row keeps its place and its bits.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds or already removed.
    pub fn remove_object(&mut self, row: usize) {
        self.assert_live(row);
        let chunk = &mut self.chunks[row / CHUNK];
        *chunk = Arc::new(chunk.spliced(row % CHUNK, None));
        self.live -= 1;
    }

    /// Replaces the object at live `row` in place, rebuilding its one
    /// chunk. Other rows' bits are untouched.
    ///
    /// # Errors
    /// The [`InstanceStore::check_object`] error, if the object fails it
    /// (the store is left unchanged).
    ///
    /// # Panics
    /// Panics if `row` is out of bounds or removed.
    pub fn replace_object(
        &mut self,
        row: usize,
        object: &UncertainObject,
    ) -> Result<(), StoreError> {
        self.assert_live(row);
        Self::check_object(self.dim, object)?;
        let chunk = &mut self.chunks[row / CHUNK];
        *chunk = Arc::new(chunk.spliced(row % CHUNK, Some(object)));
        Ok(())
    }

    /// Whether `object` may enter a store of dimensionality `dim`: every
    /// builder and mutator runs this one check on each new object.
    ///
    /// # Errors
    /// [`StoreError::DimensionMismatch`] if the object's dimensionality is
    /// not `dim`; [`StoreError::CoordinateOutOfRange`] if any instance
    /// coordinate is non-finite or beyond ±[`MAX_INPUT_COORD`].
    pub fn check_object(dim: usize, object: &UncertainObject) -> Result<(), StoreError> {
        if object.dim() != dim {
            return Err(StoreError::DimensionMismatch {
                expected: dim,
                found: object.dim(),
            });
        }
        // Points are finite by construction and the MBR is their exact
        // per-dimension min and max, so its two corners bound every
        // coordinate. `abs() <= bound` is false for NaN and ±inf.
        let mbr = object.mbr();
        if mbr
            .lo()
            .iter()
            .chain(mbr.hi())
            .all(|c| c.abs() <= MAX_INPUT_COORD)
        {
            Ok(())
        } else {
            Err(StoreError::CoordinateOutOfRange)
        }
    }

    #[track_caller]
    fn assert_live(&self, row: usize) {
        assert!(
            self.get(row).is_some(),
            "object row {row} is out of bounds or removed"
        );
    }

    /// Number of live objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff the store holds no live objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Size of the row space: live rows plus tombstones. The next
    /// [`InstanceStore::push_object`] returns this row.
    pub fn rows(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.rows(),
            None => 0,
        }
    }

    /// Dimensionality of the instance space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of instances across the live objects.
    pub fn instance_count(&self) -> usize {
        self.chunks.iter().map(|c| c.probs.len()).sum()
    }

    /// A borrowed view of the object at `row`; `None` if `row` is out of
    /// bounds or removed.
    #[inline]
    pub fn get(&self, row: usize) -> Option<ObjectRef<'_>> {
        self.chunks.get(row / CHUNK)?.view(row)
    }

    /// A borrowed view of the object at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds or removed.
    #[inline]
    #[track_caller]
    pub fn object(&self, row: usize) -> ObjectRef<'_> {
        match self.get(row) {
            Some(view) => view,
            None => missing_row(row),
        }
    }

    /// Iterates over the live object views in row order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectRef<'_>> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let base = c * CHUNK;
            (base..base + chunk.rows()).filter_map(move |row| chunk.view(row))
        })
    }

    /// Materialises the live objects back into boxed objects, in row order
    /// (interop with APIs that consume [`UncertainObject`]s).
    pub fn to_objects(&self) -> Vec<UncertainObject> {
        self.iter().map(|o| o.to_object()).collect()
    }

    /// Builds a compact store (no tombstones) holding the objects at
    /// `order`, in that order: the object at row `order[k]` of `self`
    /// becomes row `k` of the result. Coordinate and probability bits and
    /// MBRs are copied verbatim, so every per-object derived quantity is
    /// bit-for-bit unchanged.
    ///
    /// This is the layout step of the sharded index: a Sort-Tile-Recursive
    /// object ordering puts each spatial shard's objects in one contiguous
    /// run of rows.
    ///
    /// # Panics
    /// Panics if `order` does not list every live row exactly once.
    pub fn permuted(&self, order: &[usize]) -> InstanceStore {
        assert_eq!(order.len(), self.len(), "order must cover every object");
        let mut seen = vec![false; self.rows()];
        for &row in order {
            assert!(row < seen.len() && !seen[row], "order repeats object {row}");
            seen[row] = true;
        }
        InstanceStore {
            dim: self.dim,
            chunks: build_chunks(
                self.dim,
                order,
                |&row| self.object(row).len(),
                |chunk, &row| chunk.push_view(self.object(row)),
            ),
            live: order.len(),
        }
    }

    /// Approximate resident size of the live objects' columns and
    /// per-object metadata, in bytes (allocation headers, capacity slack
    /// and tombstones excluded).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes_for(self.dim, self.instance_count(), self.live)
    }

    /// Audits the chunk/span/column invariants listed in the
    /// [module documentation](self). Returns the first violation as text.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut live = 0;
        for (c, chunk) in self.chunks.iter().enumerate() {
            let base = c * CHUNK;
            if chunk.dim != self.dim {
                return Err(format!(
                    "chunk at row {base} has dim {}, store has {}",
                    chunk.dim, self.dim
                ));
            }
            let full = c + 1 < self.chunks.len();
            if chunk.rows() == 0 || chunk.rows() > CHUNK || (full && chunk.rows() < CHUNK) {
                return Err(format!(
                    "chunk at row {base} holds {} rows (capacity {CHUNK})",
                    chunk.rows()
                ));
            }
            live += chunk.validate(base)?;
        }
        if live != self.live {
            return Err(format!("{live} live rows, store counts {}", self.live));
        }
        Ok(())
    }
}

/// Groups `items` into chunks of `CHUNK` rows, each built with exact
/// capacity: `len` gives an item's instance count and `push` appends its
/// row.
fn build_chunks<T>(
    dim: usize,
    items: &[T],
    len: impl Fn(&T) -> usize,
    push: impl Fn(&mut Chunk, &T),
) -> Vec<Arc<Chunk>> {
    items
        .chunks(CHUNK)
        .map(|group| {
            let instances = group.iter().map(&len).sum();
            let mut chunk = Chunk::with_capacity(dim, group.len(), instances);
            for item in group {
                push(&mut chunk, item);
            }
            Arc::new(chunk)
        })
        .collect()
}

/// Shared byte-accounting for stores and objects: coordinate block +
/// probability column + `(offset, len)` spans + MBR lo/hi arrays.
fn approx_bytes_for(dim: usize, instances: usize, objects: usize) -> usize {
    let f = std::mem::size_of::<f64>();
    let u = std::mem::size_of::<usize>();
    instances * dim * f          // coords
        + instances * f          // probs
        + objects * 2 * u        // spans
        + objects * (2 * dim * f + std::mem::size_of::<Mbr>()) // mbr payloads + headers
}

/// Aborts [`InstanceStore::object`] on a row that holds no object. The
/// panic waiver mirrors the one on the panicking `UncertainObject`
/// constructors; [`InstanceStore::get`] is the fallible lookup.
#[cold]
#[track_caller]
#[allow(clippy::panic)]
fn missing_row(row: usize) -> ! {
    panic!("object row {row} is out of bounds or removed")
}

/// A cheap borrowed view of one object inside an [`InstanceStore`].
#[derive(Clone, Copy, Debug)]
pub struct ObjectRef<'a> {
    /// The chunk holding the object's row.
    chunk: &'a Chunk,
    mbr: &'a Mbr,
    /// The object's row in the store.
    row: usize,
}

impl<'a> ObjectRef<'a> {
    /// The object's row inside the store.
    #[inline]
    pub fn id(&self) -> usize {
        self.row
    }

    /// `(first instance, count)` within the chunk's columns.
    #[inline]
    fn span(&self) -> (usize, usize) {
        self.chunk.spans[self.row % CHUNK]
    }

    /// Number of instances (`|U|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.span().1
    }

    /// Never true — live spans are non-empty by construction — but
    /// provided for API completeness alongside `len`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` iff the object has exactly one instance (a certain point).
    #[inline]
    pub fn is_certain(&self) -> bool {
        self.len() == 1
    }

    /// Dimensionality of the instance space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.chunk.dim
    }

    /// All of this object's coordinate rows as one flat row-major slice.
    #[inline]
    pub fn coords(&self) -> &'a [f64] {
        let (offset, len) = self.span();
        let d = self.chunk.dim;
        &self.chunk.coords[offset * d..(offset + len) * d]
    }

    /// This object's probability column.
    #[inline]
    pub fn probs(&self) -> &'a [f64] {
        let (offset, len) = self.span();
        &self.chunk.probs[offset..offset + len]
    }

    /// The coordinate row of instance `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        let (offset, len) = self.span();
        debug_assert!(i < len, "instance index out of bounds");
        let d = self.chunk.dim;
        let start = (offset + i) * d;
        &self.chunk.coords[start..start + d]
    }

    /// The probability of instance `i`.
    #[inline]
    pub fn prob(&self, i: usize) -> f64 {
        let (offset, len) = self.span();
        debug_assert!(i < len, "instance index out of bounds");
        self.chunk.probs[offset + i]
    }
    /// The view of instance `i`.
    #[inline]
    pub fn instance(&self, i: usize) -> InstanceRef<'a> {
        InstanceRef {
            row: self.row(i),
            prob: self.prob(i),
        }
    }

    /// Iterates over the instance views in order.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = InstanceRef<'a>> + '_ {
        (0..self.len()).map(move |i| self.instance(i))
    }

    /// The object's minimal bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> &'a Mbr {
        self.mbr
    }

    /// Approximate bytes of columnar data held for this object (same model
    /// as [`InstanceStore::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes_for(self.chunk.dim, self.len(), 1)
    }

    /// Minimal distance from a point to any instance: `δ_min(q, U)`.
    ///
    /// Runs the blocked [`min_dist2_rows`] kernel over the contiguous rows
    /// and square-roots the folded minimum — bit-identical to the
    /// row-by-row `dist_slice` fold it replaces, because `√` is monotone
    /// and squared distances are never `-0.0`.
    pub fn min_dist(&self, q: &Point) -> f64 {
        min_dist2_rows(self.coords(), self.dim(), q.coords()).sqrt()
    }

    /// Maximal distance from a point to any instance: `δ_max(q, U)`.
    ///
    /// Blocked like [`ObjectRef::min_dist`]; `√(max δ²)` equals the scalar
    /// `fold(0.0, f64::max)` over `δ` bit-for-bit by the same monotonicity
    /// argument.
    pub fn max_dist(&self, q: &Point) -> f64 {
        max_dist2_rows(self.coords(), self.dim(), q.coords()).sqrt()
    }

    /// Materialises the view back into a boxed [`UncertainObject`].
    ///
    /// # Panics
    /// Panics if the store data violates the object invariants (impossible
    /// for stores built through the public constructors).
    pub fn to_object(&self) -> UncertainObject {
        match self.try_to_object() {
            Ok(o) => o,
            Err(e) => unreachable_invalid(e),
        }
    }

    /// Fallible variant of [`ObjectRef::to_object`].
    ///
    /// # Errors
    /// Returns an [`ObjectError`] if the stored data violates the object
    /// invariants.
    pub fn try_to_object(&self) -> Result<UncertainObject, ObjectError> {
        UncertainObject::try_new(
            self.instances()
                .map(|u| (Point::new(u.row.to_vec()), u.prob))
                .collect(),
        )
    }
}

/// Aborts a conversion whose source store is corrupt. Stores built through
/// the public constructors copy data out of validated `UncertainObject`s,
/// so this is unreachable in practice; the panic waiver mirrors the one on
/// the panicking `UncertainObject` constructors.
#[cold]
#[allow(clippy::panic)]
fn unreachable_invalid(e: ObjectError) -> ! {
    panic!("{e}")
}

/// A borrowed view of a single instance: its coordinate row and mass.
#[derive(Clone, Copy, Debug)]
pub struct InstanceRef<'a> {
    /// The instance's coordinate row.
    pub row: &'a [f64],
    /// The instance's probability mass.
    pub prob: f64,
}

impl InstanceRef<'_> {
    /// Materialises the view into a boxed [`Instance`].
    pub fn to_instance(&self) -> Instance {
        Instance {
            point: Point::new(self.row.to_vec()),
            prob: self.prob,
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn sample_objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![(p2(0.0, 0.0), 0.4), (p2(2.0, 4.0), 0.6)]),
            UncertainObject::uniform(vec![p2(5.0, 5.0), p2(6.0, 5.0), p2(5.5, 7.0)]),
            UncertainObject::uniform(vec![p2(-1.0, 3.0)]),
        ]
    }

    /// `n` two-instance objects, object `k` tagged by its first x.
    fn tagged(n: usize) -> Vec<UncertainObject> {
        (0..n)
            .map(|k| UncertainObject::uniform(vec![p2(k as f64, 0.0), p2(k as f64, 1.0)]))
            .collect()
    }

    fn assert_same_bits(view: ObjectRef<'_>, o: &UncertainObject) {
        assert_eq!(view.len(), o.len());
        assert_eq!(view.mbr(), o.mbr());
        for (i, inst) in o.instances().iter().enumerate() {
            assert_eq!(view.row(i), inst.point.coords());
            assert_eq!(view.prob(i).to_bits(), inst.prob.to_bits());
        }
    }

    #[test]
    fn round_trips_objects_exactly() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.rows(), 3);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.instance_count(), 6);
        store.validate().unwrap();
        for (id, o) in objects.iter().enumerate() {
            let view = store.object(id);
            assert_same_bits(view, o);
            let back = view.to_object();
            assert_eq!(back.len(), o.len());
            assert_eq!(back.mbr(), o.mbr());
        }
    }

    #[test]
    fn views_are_zero_copy_slices_into_the_chunk_columns() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let view = store.object(1);
        let flat = view.coords();
        assert_eq!(flat.len(), 3 * 2);
        // Rows of one chunk are sub-slices of one allocation, in row order.
        let base = store.object(0).coords().as_ptr() as usize;
        let sub = flat.as_ptr() as usize;
        assert_eq!((sub - base) / std::mem::size_of::<f64>(), 2 * 2);
        assert_eq!(view.row(2), &flat[4..6]);
    }

    #[test]
    fn min_max_dist_match_boxed_objects() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        let q = p2(1.0, 1.0);
        for (id, o) in objects.iter().enumerate() {
            let view = store.object(id);
            assert_eq!(view.min_dist(&q).to_bits(), o.min_dist(&q).to_bits());
            assert_eq!(view.max_dist(&q).to_bits(), o.max_dist(&q).to_bits());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            InstanceStore::from_objects(&[]).unwrap_err(),
            StoreError::Empty
        );
    }

    #[test]
    fn mixed_dimensionality_rejected() {
        let objects = vec![
            UncertainObject::uniform(vec![p2(0.0, 0.0)]),
            UncertainObject::uniform(vec![Point::new(vec![1.0])]),
        ];
        let err = InstanceStore::from_objects(&objects).unwrap_err();
        assert_eq!(
            err,
            StoreError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
        assert!(format!("{err}").contains("dimensionality must match"));
    }

    #[test]
    fn push_appends_a_row() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let id = store
            .push_object(&UncertainObject::uniform(vec![p2(9.0, 9.0), p2(10.0, 9.0)]))
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(store.len(), 4);
        assert_eq!(store.instance_count(), 8);
        store.validate().unwrap();
        assert_eq!(store.object(3).row(1), &[10.0, 9.0]);
    }

    #[test]
    fn remove_object_tombstones_the_row_and_keeps_the_others() {
        let objects = sample_objects();
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        store.remove_object(1);
        store.validate().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.rows(), 3);
        assert_eq!(store.instance_count(), 3);
        assert!(store.get(1).is_none());
        // Survivors keep their rows and their bits.
        for row in [0usize, 2] {
            assert_same_bits(store.object(row), &objects[row]);
        }
        let live: Vec<usize> = store.iter().map(|o| o.id()).collect();
        assert_eq!(live, vec![0, 2]);
        assert_eq!(store.to_objects().len(), 2);
        // Removing down to one object keeps the store valid.
        store.remove_object(0);
        store.validate().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.object(2).row(0), &[-1.0, 3.0]);
        // The next push takes a fresh row.
        assert_eq!(store.push_object(&objects[0]).unwrap(), 3);
        store.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds or removed")]
    fn removed_rows_cannot_be_read() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        store.remove_object(1);
        let _ = store.object(1);
    }

    #[test]
    #[should_panic(expected = "out of bounds or removed")]
    fn removed_rows_cannot_be_removed_again() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        store.remove_object(1);
        store.remove_object(1);
    }

    #[test]
    fn replace_object_respliced_with_different_len() {
        let objects = sample_objects();
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        // Replace the 3-instance middle object with a single instance.
        let shrunk = UncertainObject::uniform(vec![p2(8.0, 8.0)]);
        store.replace_object(1, &shrunk).unwrap();
        store.validate().unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.instance_count(), 4);
        assert_eq!(store.object(1).row(0), &[8.0, 8.0]);
        assert_eq!(store.object(2).row(0), &[-1.0, 3.0]);
        // Grow it back to two instances.
        let grown = UncertainObject::uniform(vec![p2(1.0, 1.0), p2(2.0, 2.0)]);
        store.replace_object(1, &grown).unwrap();
        store.validate().unwrap();
        assert_eq!(store.instance_count(), 5);
        assert_eq!(store.object(1).row(1), &[2.0, 2.0]);
        assert_eq!(store.object(2).row(0), &[-1.0, 3.0]);
        // Dimension mismatches leave the store untouched.
        let bad = UncertainObject::uniform(vec![Point::new(vec![1.0])]);
        assert!(store.replace_object(1, &bad).is_err());
        store.validate().unwrap();
        assert_eq!(store.object(1).row(1), &[2.0, 2.0]);
    }

    #[test]
    fn rows_map_across_chunk_boundaries() {
        let objects = tagged(2 * CHUNK + 3);
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        assert_eq!(store.chunks.len(), 3);
        store.validate().unwrap();
        for (row, o) in objects.iter().enumerate() {
            assert_same_bits(store.object(row), o);
        }
        store.remove_object(CHUNK);
        store.replace_object(CHUNK - 1, &objects[0]).unwrap();
        store.validate().unwrap();
        assert!(store.get(CHUNK).is_none());
        assert_same_bits(store.object(CHUNK - 1), &objects[0]);
        assert_same_bits(store.object(CHUNK + 1), &objects[CHUNK + 1]);
        assert!(store.get(store.rows()).is_none());
    }

    #[test]
    fn a_write_copies_one_chunk_and_shares_the_rest() {
        let objects = tagged(3 * CHUNK);
        let old = InstanceStore::from_objects(&objects).unwrap();
        let shared = |a: &InstanceStore, b: &InstanceStore| -> Vec<bool> {
            a.chunks
                .iter()
                .zip(&b.chunks)
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        let mut new = old.clone();
        new.replace_object(CHUNK + 5, &objects[0]).unwrap();
        assert_eq!(shared(&old, &new), vec![true, false, true]);
        let mut new = old.clone();
        new.remove_object(2 * CHUNK + 7);
        assert_eq!(shared(&old, &new), vec![true, true, false]);
        // The source is untouched.
        old.validate().unwrap();
        assert_eq!(old.len(), 3 * CHUNK);
        assert_same_bits(old.object(CHUNK + 5), &objects[CHUNK + 5]);
        assert_same_bits(old.object(2 * CHUNK + 7), &objects[2 * CHUNK + 7]);
    }

    #[test]
    fn push_fills_the_last_chunk_then_opens_a_new_one() {
        let objects = tagged(CHUNK + 1);
        let mut store = InstanceStore::from_objects(&objects[..CHUNK - 1]).unwrap();
        let before = store.clone();
        assert_eq!(store.push_object(&objects[CHUNK - 1]).unwrap(), CHUNK - 1);
        assert_eq!(store.chunks.len(), 1);
        assert!(!Arc::ptr_eq(&store.chunks[0], &before.chunks[0]));
        let full = store.clone();
        assert_eq!(store.push_object(&objects[CHUNK]).unwrap(), CHUNK);
        assert_eq!(store.chunks.len(), 2);
        assert!(Arc::ptr_eq(&store.chunks[0], &full.chunks[0]));
        store.validate().unwrap();
        for (row, o) in objects.iter().enumerate() {
            assert_same_bits(store.object(row), o);
        }
        assert_eq!(before.len(), CHUNK - 1, "the source is untouched");
        before.validate().unwrap();
    }

    #[test]
    fn permuted_store_is_bitwise_identical_per_object() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let order = [2usize, 0, 1];
        let perm = store.permuted(&order);
        perm.validate().unwrap();
        assert_eq!(perm.len(), store.len());
        assert_eq!(perm.instance_count(), store.instance_count());
        for (new_id, &old_id) in order.iter().enumerate() {
            let a = perm.object(new_id);
            let b = store.object(old_id);
            assert_eq!(a.len(), b.len());
            assert_eq!(a.mbr(), b.mbr());
            for i in 0..a.len() {
                assert_eq!(a.row(i), b.row(i));
                assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits());
            }
        }
    }

    #[test]
    fn permuting_a_store_with_tombstones_compacts_it() {
        let objects = sample_objects();
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        store.remove_object(0);
        let perm = store.permuted(&[2, 1]);
        perm.validate().unwrap();
        assert_eq!((perm.len(), perm.rows()), (2, 2));
        assert_same_bits(perm.object(0), &objects[2]);
        assert_same_bits(perm.object(1), &objects[1]);
    }

    #[test]
    #[should_panic(expected = "order repeats object")]
    fn permuted_rejects_non_permutations() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let _ = store.permuted(&[0, 0, 1]);
    }

    #[test]
    fn approx_bytes_count_live_objects_only() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let whole = store.approx_bytes();
        let middle = store.object(1).approx_bytes();
        assert_eq!(whole, store.iter().map(|o| o.approx_bytes()).sum::<usize>());
        store.remove_object(1);
        assert_eq!(store.approx_bytes(), whole - middle);
    }

    #[test]
    fn validate_reports_a_bad_live_count() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        store.live = 2;
        assert!(store.validate().unwrap_err().contains("live rows"));
    }

    #[test]
    fn to_objects_round_trip_preserves_pairwise_distances() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        let back = store.to_objects();
        for (a, b) in objects.iter().zip(back.iter()) {
            for (ia, ib) in a.instances().iter().zip(b.instances().iter()) {
                assert_eq!(ia.point, ib.point);
                assert_eq!(ia.prob.to_bits(), ib.prob.to_bits());
            }
        }
    }
}
