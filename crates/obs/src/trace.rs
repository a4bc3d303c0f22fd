//! Per-query structured trace trees, the flight-recorder ring buffer and
//! the slow-query log.
//!
//! Where [`QueryMetrics`](crate::QueryMetrics) *aggregates* (counters,
//! phase totals, histograms), this module *narrates*: one [`TraceData`] is
//! the tree of timed spans a single query walked — prepare, every
//! rtree-descent node pop, each level-prune decision, validation, flow
//! refinement — with per-span monotonic timestamps and a bounded set of
//! key/value attributes (candidate id, shard id, prune reason, counter
//! deltas). Traces answer "why was *this* query slow?", which no
//! aggregate can.
//!
//! The moving parts:
//!
//! * [`QueryTrace`] — the recording side, threaded through `CheckCtx` in
//!   `osd-core`. Feature-gated like the registry: with `enabled` off it is
//!   a zero-sized type whose methods are empty `#[inline]` bodies — no
//!   clock reads, no writes, no allocation;
//! * [`TraceData`] / [`SpanRecord`] / [`AttrValue`] — the recorded tree,
//!   always-compiled plain data (the [`Histogram`](crate::Histogram)
//!   precedent), so renderers and the recorder work in every build;
//! * [`FlightRecorder`] — a fixed-capacity ring of recent traces plus the
//!   slow-query log. Retention is a pure function of the trace *set*
//!   (overwrite-oldest by sequence number), so per-worker recorders merge
//!   exactly and order-independently — the `Stats::merge` contract;
//! * [`chrome_trace`] / [`render_text`] — exporters: Chrome trace-event
//!   JSON (loadable in `chrome://tracing` / `ui.perfetto.dev`) and a
//!   human-readable tree;
//! * [`FlightRecorder::to_log`] / [`FlightRecorder::from_log`] — a
//!   versioned plain-text round-trip so the CLI can persist the recorder
//!   between invocations without a serialization dependency.
//!
//! ## Cost model
//!
//! A trace allocates exactly twice, both at [`QueryTrace::start`] (the
//! span arena and the open-span stack, each `with_capacity`); after that
//! warm-up the hot path only writes into reserved capacity. When the arena
//! is full further events are *counted* ([`TraceData::dropped`]) but not
//! stored, so a pathological query cannot make the tracer allocate.
//! Recording is observation-only — it never influences a single branch of
//! the search — so traced results are bit-identical to untraced ones
//! (the `obs_purity` test suites assert this; `osdbench` measures the
//! overhead as `obs.trace_overhead_pct`).

#[cfg(feature = "enabled")]
use crate::Stopwatch;
use std::borrow::Cow;

/// Attribute slots per span. Fixed so a span record never allocates;
/// attributes past the capacity are silently ignored (every call site
/// attaches a bounded, known set).
pub const MAX_SPAN_ATTRS: usize = 4;

/// Default span-arena capacity of one trace (events beyond this are
/// counted as dropped, not stored).
pub const DEFAULT_TRACE_EVENTS: usize = 1024;

/// Default ring capacity of a [`FlightRecorder`].
pub const DEFAULT_RING_CAPACITY: usize = 32;

/// Default retained-slow-trace capacity of a [`FlightRecorder`].
pub const DEFAULT_SLOW_CAPACITY: usize = 8;

/// Sentinel parent index meaning "no parent" (the root span).
const NO_PARENT: u32 = u32::MAX;

/// A span attribute value.
///
/// `Str` holds `Cow` so the recording path stores `&'static str` labels
/// without allocating, while the log-file parser can rebuild owned values.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned counter-like value (ids, counts, deltas).
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Floating-point value (distances, keys). Round-trips bit-exactly
    /// through the log format via `to_bits`.
    F64(f64),
    /// Short label (prune reason, operator, cache kind). Must contain no
    /// whitespace — the log format is whitespace-delimited.
    Str(Cow<'static, str>),
}

impl AttrValue {
    /// Renders the value for the whitespace-delimited log format
    /// (`u:`/`i:`/`f:`/`s:` prefix; floats as hex bit patterns for exact
    /// round-trips).
    fn to_log(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("u:{v}"),
            AttrValue::I64(v) => format!("i:{v}"),
            AttrValue::F64(v) => format!("f:{:016x}", v.to_bits()),
            AttrValue::Str(s) => format!("s:{s}"),
        }
    }

    /// Parses a [`AttrValue::to_log`] rendering.
    fn from_log(s: &str) -> Result<AttrValue, String> {
        let (tag, body) = s.split_once(':').ok_or_else(|| bad_attr(s))?;
        match tag {
            "u" => body.parse().map(AttrValue::U64).map_err(|_| bad_attr(s)),
            "i" => body.parse().map(AttrValue::I64).map_err(|_| bad_attr(s)),
            "f" => u64::from_str_radix(body, 16)
                .map(|bits| AttrValue::F64(f64::from_bits(bits)))
                .map_err(|_| bad_attr(s)),
            "s" => Ok(AttrValue::Str(Cow::Owned(body.to_string()))),
            _ => Err(bad_attr(s)),
        }
    }

    /// Renders the value for human/JSON output.
    fn display(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("{v}"),
            AttrValue::I64(v) => format!("{v}"),
            AttrValue::F64(v) => format!("{v}"),
            AttrValue::Str(s) => s.to_string(),
        }
    }

    /// Renders the value as a JSON literal (numbers bare, strings quoted).
    fn to_json(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("{v}"),
            AttrValue::I64(v) => format!("{v}"),
            AttrValue::F64(v) if v.is_finite() => format!("{v}"),
            AttrValue::F64(v) => format!("\"{v}\""),
            AttrValue::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

fn bad_attr(s: &str) -> String {
    format!("malformed attribute value {s:?}")
}

/// Whether a span is a timed region or a zero-duration point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A timed region with distinct open and close timestamps.
    Span,
    /// A point event (node visit, candidate emission, prune decision).
    Instant,
}

/// One recorded span: a named, timestamped node of the trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name — `Borrowed` when recorded live, `Owned` when parsed
    /// back from a log file.
    pub name: Cow<'static, str>,
    /// Arena index of the parent span; `u32::MAX` on the root.
    pub parent: u32,
    /// Nesting depth (root = 0), denormalised for cheap tree rendering.
    pub depth: u16,
    /// Region or point event.
    pub kind: SpanKind,
    /// Monotonic nanoseconds from the trace epoch to the span opening.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instants and unclosed spans).
    pub dur_ns: u64,
    /// Key/value attributes, filled front to back.
    pub attrs: [Option<(Cow<'static, str>, AttrValue)>; MAX_SPAN_ATTRS],
}

impl SpanRecord {
    /// Whether this span is the trace root.
    pub fn is_root(&self) -> bool {
        self.parent == NO_PARENT
    }

    /// The attributes present, in attachment order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().flatten().map(|(k, v)| (k.as_ref(), v))
    }
}

/// One query's recorded trace tree — plain data, always compiled.
///
/// `spans[0]` is the root span (the whole query); children follow in
/// opening order. Equality and retention decisions use only integer
/// fields, so recorder behaviour is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceData {
    /// Batch-assigned sequence number — the recorder's retention key.
    /// Within one recorder stream sequence numbers must be unique (the
    /// batch executor uses the query's input index; the mutation path a
    /// publish counter), which is what makes per-worker recorder merges
    /// exact and order-independent.
    pub seq: u64,
    /// What the trace narrates: the operator label of a query trace, or
    /// `"mutate"` / `"repair"` on the mutation paths.
    pub label: Cow<'static, str>,
    /// Root-span duration: total wall-clock nanoseconds of the query.
    pub total_ns: u64,
    /// The span tree in opening order; `spans[0]` is the root.
    pub spans: Vec<SpanRecord>,
    /// Events not recorded because the span arena was full.
    pub dropped: u32,
}

impl TraceData {
    /// Child spans of the span at arena index `parent`.
    pub fn children(&self, parent: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == parent)
    }

    /// Number of spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Handle to an open (or dropped) span, returned by [`QueryTrace::open`].
///
/// Copyable and inert: a handle from an inactive tracer (or a span dropped
/// at capacity) is the `NONE` sentinel, and every operation on it is a
/// no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The inert handle: attributes and closes against it do nothing.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// The recording side of one query's trace.
///
/// With the `enabled` feature this wraps the span arena, a monotonic
/// epoch and the open-span stack; without it the struct is zero-sized and
/// every method is an empty `#[inline]` body — the traced pipeline
/// compiles to the untraced one. Even in the enabled build a tracer
/// created with [`QueryTrace::off`] holds no arena and records nothing,
/// so tracing stays a per-query runtime decision (`FilterConfig::trace`).
#[derive(Debug, Default)]
#[cfg(feature = "enabled")]
pub struct QueryTrace {
    /// `None` when tracing is off for this query — the only per-call cost
    /// is this discriminant check.
    inner: Option<Box<ActiveTrace>>,
}

#[cfg(feature = "enabled")]
#[derive(Debug)]
struct ActiveTrace {
    data: TraceData,
    clock: Stopwatch,
    /// Arena indices of the currently open spans, root at the bottom.
    stack: Vec<u32>,
    capacity: usize,
}

/// The recording side of one query's trace (disabled build: a zero-sized
/// no-op that never reads the clock).
#[derive(Debug, Default)]
#[cfg(not(feature = "enabled"))]
pub struct QueryTrace;

#[cfg(feature = "enabled")]
impl QueryTrace {
    /// Whether the `enabled` feature compiled the real tracer in.
    pub const fn enabled() -> bool {
        true
    }

    /// A tracer that records nothing (tracing off for this query).
    #[inline]
    pub fn off() -> Self {
        QueryTrace { inner: None }
    }

    /// Starts a trace: sets the monotonic epoch, reserves the span arena
    /// (`capacity` events — the tracer's only allocations) and opens the
    /// root span under `label`.
    pub fn start(label: &'static str, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut data = TraceData {
            label: Cow::Borrowed(label),
            spans: Vec::with_capacity(capacity),
            ..TraceData::default()
        };
        data.spans.push(SpanRecord {
            name: Cow::Borrowed(label),
            parent: NO_PARENT,
            depth: 0,
            kind: SpanKind::Span,
            start_ns: 0,
            dur_ns: 0,
            attrs: Default::default(),
        });
        let mut stack = Vec::with_capacity(16);
        stack.push(0);
        QueryTrace {
            inner: Some(Box::new(ActiveTrace {
                data,
                clock: Stopwatch::start(),
                stack,
                capacity,
            })),
        }
    }

    /// Whether this tracer is recording.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span of the innermost open span. Returns
    /// [`SpanId::NONE`] (and counts a drop) when the arena is full.
    #[inline]
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let Some(active) = self.inner.as_deref_mut() else {
            return SpanId::NONE;
        };
        let Some(idx) = active.push_record(name, SpanKind::Span) else {
            return SpanId::NONE;
        };
        active.stack.push(idx);
        SpanId(idx)
    }

    /// Records a point event under the innermost open span.
    #[inline]
    pub fn instant(&mut self, name: &'static str) -> SpanId {
        let Some(active) = self.inner.as_deref_mut() else {
            return SpanId::NONE;
        };
        match active.push_record(name, SpanKind::Instant) {
            Some(idx) => SpanId(idx),
            None => SpanId::NONE,
        }
    }

    /// Attaches `key = value` to span `id` (first [`MAX_SPAN_ATTRS`] win).
    #[inline]
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(record) = active.data.spans.get_mut(id.0 as usize) else {
            return;
        };
        if let Some(slot) = record.attrs.iter_mut().find(|s| s.is_none()) {
            *slot = Some((Cow::Borrowed(key), value));
        }
    }

    /// Closes span `id`, stamping its duration. Closing out of order
    /// also closes every span opened after `id` (value-type spans cannot
    /// dangle below a closed parent).
    #[inline]
    pub fn close(&mut self, id: SpanId) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        if id == SpanId::NONE {
            return;
        }
        let Some(pos) = active.stack.iter().rposition(|&i| i == id.0) else {
            return; // already closed, or never a region span
        };
        let now = active.clock.elapsed_nanos();
        while active.stack.len() > pos {
            if let Some(idx) = active.stack.pop() {
                if let Some(record) = active.data.spans.get_mut(idx as usize) {
                    record.dur_ns = now.saturating_sub(record.start_ns);
                }
            }
        }
    }

    /// Finishes the trace: closes every open span (the root last), stamps
    /// the total duration and yields the recorded tree. `None` if this
    /// tracer was [`off`](QueryTrace::off).
    pub fn finish(self) -> Option<TraceData> {
        let mut active = self.inner?;
        let now = active.clock.elapsed_nanos();
        while let Some(idx) = active.stack.pop() {
            if let Some(record) = active.data.spans.get_mut(idx as usize) {
                record.dur_ns = now.saturating_sub(record.start_ns);
            }
        }
        active.data.total_ns = now;
        Some(active.data)
    }
}

#[cfg(feature = "enabled")]
impl ActiveTrace {
    /// Appends a record under the innermost open span; `None` (counted as
    /// a drop) when the arena is at capacity.
    #[inline]
    fn push_record(&mut self, name: &'static str, kind: SpanKind) -> Option<u32> {
        if self.data.spans.len() >= self.capacity {
            self.data.dropped = self.data.dropped.saturating_add(1);
            return None;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let depth = self.stack.len() as u16;
        let idx = self.data.spans.len() as u32;
        self.data.spans.push(SpanRecord {
            name: Cow::Borrowed(name),
            parent,
            depth,
            kind,
            start_ns: self.clock.elapsed_nanos(),
            dur_ns: 0,
            attrs: Default::default(),
        });
        Some(idx)
    }
}

#[cfg(not(feature = "enabled"))]
impl QueryTrace {
    /// Whether the `enabled` feature compiled the real tracer in.
    pub const fn enabled() -> bool {
        false
    }

    /// A tracer that records nothing (zero-sized in this build).
    #[inline(always)]
    pub fn off() -> Self {
        QueryTrace
    }

    /// No-op — no clock read, no allocation.
    #[inline(always)]
    pub fn start(_label: &'static str, _capacity: usize) -> Self {
        QueryTrace
    }

    /// Always `false` in the disabled build.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        false
    }

    /// No-op; always [`SpanId::NONE`].
    #[inline(always)]
    pub fn open(&mut self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    /// No-op; always [`SpanId::NONE`].
    #[inline(always)]
    pub fn instant(&mut self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    /// No-op.
    #[inline(always)]
    pub fn attr(&mut self, _id: SpanId, _key: &'static str, _value: AttrValue) {}

    /// No-op.
    #[inline(always)]
    pub fn close(&mut self, _id: SpanId) {}

    /// Always `None` in the disabled build.
    #[inline(always)]
    pub fn finish(self) -> Option<TraceData> {
        None
    }
}

/// A fixed-capacity recorder of recent traces plus the slow-query log.
///
/// **Ring semantics.** The ring retains the `capacity` traces with the
/// *highest* sequence numbers — overwrite-oldest, stated as a pure
/// function of the trace set. Because retention depends only on the set
/// (never on arrival order), per-worker recorders [`merge`](FlightRecorder::merge) to exactly
/// the recorder a single worker would have produced, mirroring the
/// `Stats::merge` order-independence contract.
///
/// **Slow-log promotion.** At [`record`](FlightRecorder::record) time a
/// trace meeting the threshold is *promoted*: copied into the retained
/// slow list, which keeps the `slow_capacity` slowest traces (ties broken
/// by lower sequence number). Promotion is permanent — a slow trace
/// survives being overwritten in the ring, which is the point of the log.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    slow_threshold_ns: u64,
    slow_capacity: usize,
    /// Retained recent traces; unordered storage, retention by `seq`.
    ring: Vec<TraceData>,
    /// Retained slow traces, by `(total_ns desc, seq asc)`.
    slow: Vec<TraceData>,
    recorded: u64,
    evicted: u64,
    promoted: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAPACITY, 0, DEFAULT_SLOW_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining up to `capacity` recent traces, and
    /// promoting traces of at least `slow_threshold_ns` into a slow log
    /// of up to `slow_capacity` entries. A threshold of 0 disables the
    /// slow log.
    pub fn new(capacity: usize, slow_threshold_ns: u64, slow_capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_threshold_ns,
            slow_capacity,
            ring: Vec::new(),
            slow: Vec::new(),
            recorded: 0,
            evicted: 0,
            promoted: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slow-query promotion threshold in nanoseconds (0 = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Traces ever recorded (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Traces overwritten out of the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Traces promoted to the slow log (including ones later displaced by
    /// slower traces).
    pub fn promoted(&self) -> u64 {
        self.promoted
    }

    /// Traces currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained slow traces, slowest first.
    pub fn slow_log(&self) -> &[TraceData] {
        &self.slow
    }

    /// Records one trace: slow-log promotion first, then ring insertion
    /// with overwrite-oldest eviction.
    pub fn record(&mut self, trace: TraceData) {
        self.recorded += 1;
        if self.slow_threshold_ns > 0 && trace.total_ns >= self.slow_threshold_ns {
            self.promoted += 1;
            self.slow_insert(trace.clone());
        }
        self.ring_insert(trace);
    }

    /// Merges another recorder's retained traces and tallies into this
    /// one. Exact and order-independent: the merged ring is the
    /// top-`capacity`-by-`seq` of the union, the merged slow log the
    /// top-`slow_capacity`-by-duration of the union — the same recorder
    /// regardless of how work was split across workers.
    pub fn merge(&mut self, other: FlightRecorder) {
        self.recorded += other.recorded;
        self.evicted += other.evicted;
        self.promoted += other.promoted;
        for t in other.ring {
            self.ring_insert(t);
        }
        for t in other.slow {
            self.slow_insert(t);
        }
    }

    /// The `n` most recent traces (highest `seq`), newest first.
    pub fn last(&self, n: usize) -> Vec<&TraceData> {
        let mut all: Vec<&TraceData> = self.ring.iter().collect();
        all.sort_by_key(|t| std::cmp::Reverse(t.seq));
        all.truncate(n);
        all
    }

    /// The `n` slowest known traces (slow log ∪ ring, deduplicated by
    /// `seq`), slowest first.
    pub fn slowest(&self, n: usize) -> Vec<&TraceData> {
        let mut all: Vec<&TraceData> = self.slow.iter().chain(self.ring.iter()).collect();
        all.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        all.dedup_by_key(|t| t.seq);
        all.truncate(n);
        all
    }

    fn ring_insert(&mut self, trace: TraceData) {
        if self.ring.len() < self.capacity {
            self.ring.push(trace);
            return;
        }
        // Overwrite-oldest: the victim is the lowest (seq, total_ns) — a
        // total order over well-formed streams, where seqs are unique.
        let Some(victim) = self
            .ring
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| (t.seq, t.total_ns))
            .map(|(i, _)| i)
        else {
            return;
        };
        let Some(slot) = self.ring.get_mut(victim) else {
            return;
        };
        if (trace.seq, trace.total_ns) > (slot.seq, slot.total_ns) {
            *slot = trace;
        }
        self.evicted += 1;
    }

    fn slow_insert(&mut self, trace: TraceData) {
        if self.slow_capacity == 0 {
            return;
        }
        self.slow.push(trace);
        self.slow
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        self.slow.truncate(self.slow_capacity);
    }

    /// Serialises the recorder as the versioned `#osd-flight v1` text
    /// format (whitespace-delimited; floats as bit patterns), so the CLI
    /// can persist it across invocations. Inverse of
    /// [`from_log`](FlightRecorder::from_log).
    pub fn to_log(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "#osd-flight v1 cap={} slow_ns={} slow_cap={} recorded={} evicted={} promoted={}\n",
            self.capacity,
            self.slow_threshold_ns,
            self.slow_capacity,
            self.recorded,
            self.evicted,
            self.promoted
        ));
        for (section, traces) in [("ring", &self.ring), ("slow", &self.slow)] {
            for t in traces {
                out.push_str(&format!(
                    "trace {section} {} {} {} {}\n",
                    t.seq, t.total_ns, t.dropped, t.label
                ));
                for s in &t.spans {
                    let parent = if s.parent == NO_PARENT {
                        "-".to_string()
                    } else {
                        format!("{}", s.parent)
                    };
                    let kind = match s.kind {
                        SpanKind::Span => "s",
                        SpanKind::Instant => "i",
                    };
                    out.push_str(&format!(
                        "span {parent} {} {kind} {} {} {}",
                        s.depth, s.start_ns, s.dur_ns, s.name
                    ));
                    for (k, v) in s.attrs() {
                        out.push_str(&format!(" {k}={}", v.to_log()));
                    }
                    out.push('\n');
                }
                out.push_str("end\n");
            }
        }
        out
    }

    /// Parses a [`to_log`](FlightRecorder::to_log) document back into a
    /// recorder.
    ///
    /// # Errors
    /// A human-readable message when the header, a trace line or a span
    /// line is malformed — corrupted recorder files fail loudly rather
    /// than silently losing traces.
    pub fn from_log(text: &str) -> Result<FlightRecorder, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty flight-recorder file")?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("#osd-flight") || fields.next() != Some("v1") {
            return Err(format!("not a v1 flight-recorder file: {header:?}"));
        }
        let mut rec = FlightRecorder::default();
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed header field {field:?}"))?;
            let parsed: u64 = value
                .parse()
                .map_err(|_| format!("malformed header field {field:?}"))?;
            match key {
                "cap" => rec.capacity = (parsed as usize).max(1),
                "slow_ns" => rec.slow_threshold_ns = parsed,
                "slow_cap" => rec.slow_capacity = parsed as usize,
                "recorded" => rec.recorded = parsed,
                "evicted" => rec.evicted = parsed,
                "promoted" => rec.promoted = parsed,
                _ => return Err(format!("unknown header field {field:?}")),
            }
        }
        let mut current: Option<(bool, TraceData)> = None;
        for line in lines {
            let mut parts = lines_fields(line);
            match parts.next() {
                Some("trace") => {
                    if current.is_some() {
                        return Err("trace block not terminated by `end`".into());
                    }
                    let section = parts.next().ok_or("truncated trace line")?;
                    let slow = match section {
                        "ring" => false,
                        "slow" => true,
                        other => return Err(format!("unknown trace section {other:?}")),
                    };
                    let seq = parse_u64(parts.next(), "trace seq")?;
                    let total_ns = parse_u64(parts.next(), "trace total_ns")?;
                    let dropped = parse_u64(parts.next(), "trace dropped")? as u32;
                    let label = parts.next().ok_or("truncated trace line")?.to_string();
                    current = Some((
                        slow,
                        TraceData {
                            seq,
                            label: Cow::Owned(label),
                            total_ns,
                            spans: Vec::new(),
                            dropped,
                        },
                    ));
                }
                Some("span") => {
                    let (_, trace) = current.as_mut().ok_or("span line outside a trace")?;
                    let parent = match parts.next().ok_or("truncated span line")? {
                        "-" => NO_PARENT,
                        p => p
                            .parse()
                            .map_err(|_| format!("malformed span parent {p:?}"))?,
                    };
                    let depth = parse_u64(parts.next(), "span depth")? as u16;
                    let kind = match parts.next().ok_or("truncated span line")? {
                        "s" => SpanKind::Span,
                        "i" => SpanKind::Instant,
                        other => return Err(format!("unknown span kind {other:?}")),
                    };
                    let start_ns = parse_u64(parts.next(), "span start")?;
                    let dur_ns = parse_u64(parts.next(), "span dur")?;
                    let name = parts.next().ok_or("truncated span line")?.to_string();
                    let mut attrs: [Option<(Cow<'static, str>, AttrValue)>; MAX_SPAN_ATTRS] =
                        Default::default();
                    for (slot, kv) in attrs.iter_mut().zip(parts) {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("malformed span attribute {kv:?}"))?;
                        *slot = Some((Cow::Owned(k.to_string()), AttrValue::from_log(v)?));
                    }
                    trace.spans.push(SpanRecord {
                        name: Cow::Owned(name),
                        parent,
                        depth,
                        kind,
                        start_ns,
                        dur_ns,
                        attrs,
                    });
                }
                Some("end") => {
                    let (slow, trace) = current.take().ok_or("`end` line outside a trace block")?;
                    if slow {
                        rec.slow.push(trace);
                    } else {
                        rec.ring.push(trace);
                    }
                }
                Some(other) => return Err(format!("unknown line kind {other:?}")),
                None => {} // blank line
            }
        }
        if current.is_some() {
            return Err("truncated flight-recorder file (unterminated trace)".into());
        }
        rec.slow
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        Ok(rec)
    }
}

fn lines_fields(line: &str) -> impl Iterator<Item = &str> {
    line.split_whitespace()
}

fn parse_u64(field: Option<&str>, what: &str) -> Result<u64, String> {
    let s = field.ok_or_else(|| format!("truncated line: missing {what}"))?;
    s.parse().map_err(|_| format!("malformed {what}: {s:?}"))
}

/// Renders traces as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form), loadable in `chrome://tracing`
/// and `ui.perfetto.dev`.
///
/// Each trace becomes one "thread" (tid = `seq`) on pid 0: region spans
/// are complete (`"ph": "X"`) events, instants are thread-scoped instant
/// (`"ph": "i"`) events, and span attributes become `args`. Timestamps
/// are microseconds from each trace's own epoch, as the format requires.
pub fn chrome_trace(traces: &[&TraceData]) -> String {
    let mut events = Vec::new();
    for t in traces {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{} #{} ({} ns)\"}}}}",
            t.seq,
            escape_json(&t.label),
            t.seq,
            t.total_ns
        ));
        for s in &t.spans {
            let ts = s.start_ns as f64 / 1000.0;
            let mut args: Vec<String> = s
                .attrs()
                .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v.to_json()))
                .collect();
            if s.is_root() && t.dropped > 0 {
                args.push(format!("\"dropped_events\":{}", t.dropped));
            }
            let args = args.join(",");
            match s.kind {
                SpanKind::Span => events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                     \"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                    escape_json(&s.name),
                    t.seq,
                    s.dur_ns as f64 / 1000.0
                )),
                SpanKind::Instant => events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                     \"tid\":{},\"ts\":{ts:.3},\"args\":{{{args}}}}}",
                    escape_json(&s.name),
                    t.seq
                )),
            }
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Renders one trace as a human-readable tree: one line per span,
/// indented by depth, with durations and attributes.
pub fn render_text(t: &TraceData) -> String {
    let mut out = format!(
        "trace #{} {} total={} spans={} dropped={}\n",
        t.seq,
        t.label,
        fmt_ns(t.total_ns),
        t.spans.len(),
        t.dropped
    );
    for s in &t.spans {
        out.push_str(&"  ".repeat(s.depth as usize + 1));
        match s.kind {
            SpanKind::Span => {
                out.push_str(&format!("{} {}", s.name, fmt_ns(s.dur_ns)));
            }
            SpanKind::Instant => {
                out.push_str(&format!("* {} @{}", s.name, fmt_ns(s.start_ns)));
            }
        }
        let attrs: Vec<String> = s
            .attrs()
            .map(|(k, v)| format!("{k}={}", v.display()))
            .collect();
        if !attrs.is_empty() {
            out.push_str(&format!(" [{}]", attrs.join(" ")));
        }
        out.push('\n');
    }
    out
}

/// Formats nanoseconds with a human-scale unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic hand-built trace (no clock) for recorder tests.
    fn fake_trace(seq: u64, total_ns: u64) -> TraceData {
        TraceData {
            seq,
            label: Cow::Borrowed("PSD"),
            total_ns,
            spans: vec![
                SpanRecord {
                    name: Cow::Borrowed("PSD"),
                    parent: NO_PARENT,
                    depth: 0,
                    kind: SpanKind::Span,
                    start_ns: 0,
                    dur_ns: total_ns,
                    attrs: Default::default(),
                },
                SpanRecord {
                    name: Cow::Borrowed("prepare"),
                    parent: 0,
                    depth: 1,
                    kind: SpanKind::Span,
                    start_ns: 5,
                    dur_ns: 17,
                    attrs: [
                        Some((Cow::Borrowed("shards"), AttrValue::U64(seq))),
                        Some((Cow::Borrowed("key"), AttrValue::F64(1.5))),
                        None,
                        None,
                    ],
                },
                SpanRecord {
                    name: Cow::Borrowed("candidate"),
                    parent: 0,
                    depth: 1,
                    kind: SpanKind::Instant,
                    start_ns: 40,
                    dur_ns: 0,
                    attrs: [
                        Some((
                            Cow::Borrowed("reason"),
                            AttrValue::Str(Cow::Borrowed("mbr")),
                        )),
                        None,
                        None,
                        None,
                    ],
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn recording_matches_enabled_state() {
        let mut tr = QueryTrace::start("PSD", 16);
        let a = tr.open("prepare");
        tr.attr(a, "shards", AttrValue::U64(2));
        tr.close(a);
        let b = tr.instant("candidate");
        tr.attr(b, "id", AttrValue::U64(7));
        let data = tr.finish();
        if QueryTrace::enabled() {
            let data = data.expect("active tracer yields data");
            assert_eq!(data.spans.len(), 3, "root + span + instant");
            assert!(data.spans[0].is_root());
            assert_eq!(data.count("prepare"), 1);
            assert_eq!(data.count("candidate"), 1);
            assert_eq!(data.spans[1].depth, 1);
            assert_eq!(data.spans[1].attrs().count(), 1);
            assert_eq!(data.total_ns, data.spans[0].dur_ns);
        } else {
            assert!(data.is_none(), "disabled build records nothing");
            assert_eq!(std::mem::size_of::<QueryTrace>(), 0);
        }
    }

    #[test]
    fn off_tracer_records_nothing_in_every_build() {
        let mut tr = QueryTrace::off();
        assert!(!tr.is_active());
        let id = tr.open("prepare");
        assert_eq!(id, SpanId::NONE);
        tr.attr(id, "k", AttrValue::U64(1));
        tr.close(id);
        assert!(tr.finish().is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn arena_capacity_counts_drops() {
        let mut tr = QueryTrace::start("PSD", 2); // root + 1
        let a = tr.open("kept");
        tr.close(a);
        assert_eq!(tr.instant("dropped"), SpanId::NONE);
        assert_eq!(tr.open("dropped-too"), SpanId::NONE);
        let data = tr.finish().expect("active");
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.dropped, 2);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn out_of_order_close_unwinds_children() {
        let mut tr = QueryTrace::start("PSD", 8);
        let outer = tr.open("outer");
        let inner = tr.open("inner");
        tr.close(outer); // closes inner too
        let data = tr.finish().expect("active");
        assert!(data.spans.iter().all(|s| s.dur_ns <= data.total_ns));
        let _ = inner;
    }

    #[test]
    fn ring_keeps_newest_by_seq() {
        let mut rec = FlightRecorder::new(2, 0, 4);
        rec.record(fake_trace(0, 10));
        rec.record(fake_trace(1, 20));
        rec.record(fake_trace(2, 30));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.evicted(), 1);
        let last: Vec<u64> = rec.last(10).iter().map(|t| t.seq).collect();
        assert_eq!(last, vec![2, 1], "oldest seq overwritten");
    }

    #[test]
    fn slow_promotion_survives_ring_overwrite() {
        let mut rec = FlightRecorder::new(2, 100, 4);
        rec.record(fake_trace(0, 500)); // slow — promoted
        rec.record(fake_trace(1, 10));
        rec.record(fake_trace(2, 10));
        rec.record(fake_trace(3, 10)); // seq 0 long gone from the ring
        assert_eq!(rec.promoted(), 1);
        let slowest: Vec<u64> = rec.slowest(10).iter().map(|t| t.seq).collect();
        assert_eq!(slowest[0], 0, "promoted trace outlives the ring");
        assert_eq!(rec.slow_log().len(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let traces: Vec<TraceData> = (0..7).map(|i| fake_trace(i, 10 * (7 - i))).collect();
        // One worker sees everything...
        let mut solo = FlightRecorder::new(3, 25, 2);
        for t in &traces {
            solo.record(t.clone());
        }
        // ...vs. split across workers, merged in both orders.
        for split in 1..traces.len() {
            for flip in [false, true] {
                let mut a = FlightRecorder::new(3, 25, 2);
                let mut b = FlightRecorder::new(3, 25, 2);
                for t in &traces[..split] {
                    a.record(t.clone());
                }
                for t in &traces[split..] {
                    b.record(t.clone());
                }
                let mut merged = FlightRecorder::new(3, 25, 2);
                if flip {
                    merged.merge(b);
                    merged.merge(a);
                } else {
                    merged.merge(a);
                    merged.merge(b);
                }
                let key = |r: &FlightRecorder| {
                    (
                        r.last(10).iter().map(|t| t.seq).collect::<Vec<_>>(),
                        r.slowest(10).iter().map(|t| t.seq).collect::<Vec<_>>(),
                        r.recorded(),
                        r.promoted(),
                    )
                };
                assert_eq!(key(&merged), key(&solo), "split={split} flip={flip}");
            }
        }
    }

    #[test]
    fn log_round_trip_is_exact() {
        let mut rec = FlightRecorder::new(4, 15, 2);
        for i in 0..6 {
            rec.record(fake_trace(i, 3 + 7 * i));
        }
        let text = rec.to_log();
        let back = FlightRecorder::from_log(&text).expect("well-formed log");
        assert_eq!(back, rec, "to_log/from_log must round-trip exactly");
    }

    #[test]
    fn malformed_logs_fail_loudly() {
        assert!(FlightRecorder::from_log("").is_err());
        assert!(FlightRecorder::from_log("#other v9\n").is_err());
        assert!(FlightRecorder::from_log("#osd-flight v1\nspan - 0 s 0 0 x\n").is_err());
        assert!(FlightRecorder::from_log("#osd-flight v1\ntrace ring 0 1 0 PSD\n").is_err());
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let t = fake_trace(3, 100);
        let json = chrome_trace(&[&t]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "region spans present");
        assert!(json.contains("\"ph\":\"i\""), "instants present");
        assert!(json.contains("\"tid\":3"), "trace seq becomes the tid");
        // Every event rides the trace's tid — the complete events must not
        // leak their duration (or anything else) into the tid slot.
        for line in json.lines().filter(|l| l.contains("\"ph\":")) {
            assert!(
                line.contains("\"tid\":3,") || line.contains("\"tid\":3}"),
                "event off its trace thread: {line}"
            );
        }
        assert!(json.contains("\"shards\":3"), "attrs become args");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn text_render_shows_the_tree() {
        let t = fake_trace(5, 1_500);
        let text = render_text(&t);
        assert!(text.contains("trace #5 PSD total=1.50µs"));
        assert!(text.contains("prepare"));
        assert!(text.contains("* candidate"), "instants are starred");
        assert!(text.contains("reason=mbr"));
    }

    #[test]
    fn attr_value_log_round_trip() {
        for v in [
            AttrValue::U64(u64::MAX),
            AttrValue::I64(-42),
            AttrValue::F64(0.1 + 0.2), // a value that decimal text would mangle
            AttrValue::F64(f64::NAN),
            AttrValue::Str(Cow::Borrowed("mbr-dominated")),
        ] {
            let back = AttrValue::from_log(&v.to_log()).expect("round-trip");
            match (&v, &back) {
                (AttrValue::F64(a), AttrValue::F64(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "floats round-trip bit-exactly");
                }
                _ => assert_eq!(v, back),
            }
        }
    }
}
