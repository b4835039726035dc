//! The flight-recorder journal: lock-free-per-thread buffering of
//! [`EventRecord`]s over a bounded ring of binary frames, drained either
//! wholesale (batch exports) or incrementally through stable cursors
//! (live tailing), with JSONL and Chrome `trace_event` as export formats.
//!
//! # Architecture
//!
//! ```text
//! record()  ──► thread-local Vec (no lock, no allocation once warm)
//!                  │ every FLUSH_EVERY events / flush_local() / thread exit
//!                  ▼ encode into the thread's reused flush buffer
//!                  │ (wire frames, varint, ~10–50 B/event)
//!                  ▼ append bytes + one (seq, end) entry per frame
//!              bounded global ring of frames (brief mutex append)
//!                  │                          │
//!            drain() / drain_with_stats()   drain_since(cursor)
//!            take-and-clear, seq-sorted     incremental tail, no clear
//! ```
//!
//! The ring is **bounded** ([`DEFAULT_RING_CAPACITY`] frames): when full,
//! the oldest frames are overwritten and counted — a runaway loop costs
//! bounded memory and an explicit `events_overwritten` tally (surfaced by
//! [`drain_with_stats`], the binary journal's meta frame, and the
//! `gist-trace summary` gap warning) instead of either unbounded growth
//! or the old silent `MAX_EVENTS` drop-to-0-sentinel behavior.
//!
//! # Ordering and determinism
//!
//! Sequence numbers come from one process-global relaxed atomic, so the
//! drained journal (sorted by seq) is totally ordered. Records carry *no*
//! wall-clock field: under fixed seeds and sequential execution (fleet
//! batch = 1, the deterministic bench configuration) the journal — binary
//! frames and JSONL export alike — is **byte-identical** across runs.
//! Under parallel execution (batch > 1) events still record safely, but
//! interleaving makes seq assignment racy, which is why the bench drains
//! the journal *before* its throughput section.
//!
//! # Streaming drains
//!
//! [`drain_since`] reads the ring without clearing it and returns a new
//! [`Cursor`]. Cursors index the ring's monotonic *arrival order* (not
//! seq watermarks — cross-thread flushes arrive out of seq order, and a
//! watermark would drop late arrivals), so a consumer polling
//! `drain_since` sees every frame **exactly once**: no duplicates, no
//! drops, except frames overwritten before the consumer reached them,
//! which are counted in [`DrainChunk::overwritten`]. This is what
//! `gist-trace follow` and the journal_stream test tail.
//!
//! # `metrics-off`
//!
//! Every recording entry point compiles to a no-op returning the 0
//! sentinel; the [`crate::event!`] macro takes the payload as a closure,
//! so payload construction itself is compiled away. The pure
//! encode/decode/export functions remain available in both modes.

#[cfg(not(feature = "metrics-off"))]
use std::cell::RefCell;
#[cfg(not(feature = "metrics-off"))]
use std::collections::VecDeque;
#[cfg(not(feature = "metrics-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "metrics-off"))]
use std::sync::Mutex;

pub use crate::event::{EventKind, EventRecord, JournalEvent};
use crate::json::Json;
pub use crate::wire::JournalStats;

/// Default ring capacity in frames. A frame costs its encoded bytes
/// (10–50) plus a 16-byte index entry, so a full ring holds ~30–70 MB;
/// the full-bugbase bench records ~25k events, so overwrite only triggers
/// on runaway loops — which now lose the *oldest* events with accounting
/// instead of silently dropping the newest.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Thread-local buffer length that triggers a flush to the global ring.
/// Fewer events than this record without touching the ring.
pub const FLUSH_EVERY: usize = 256;

#[cfg(not(feature = "metrics-off"))]
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
#[cfg(not(feature = "metrics-off"))]
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
#[cfg(not(feature = "metrics-off"))]
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);
/// Reset epoch: bumped by [`reset`] so stale thread-local buffers (and
/// their cached thread indices) are discarded lazily, and so cursors from
/// before a reset read as "start over" instead of aliasing new positions.
#[cfg(not(feature = "metrics-off"))]
static GENERATION: AtomicU64 = AtomicU64::new(0);
#[cfg(not(feature = "metrics-off"))]
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
/// Cumulative nanoseconds spent encoding events to wire frames (the
/// journal's per-flush cost); read by [`encode_nanos`] for the bench
/// report's `encode_ms` split.
#[cfg(not(feature = "metrics-off"))]
static ENCODE_NANOS: AtomicU64 = AtomicU64::new(0);

/// The bounded global ring of encoded frames, in arrival (push) order:
/// the frames' bytes back to back in one byte deque, plus one `(seq, end)`
/// entry per frame, `end` being the frame's absolute end offset. Flushes
/// append whole buffers; overwrite and drains cut bytes off the front.
/// Both deques keep their capacity, so a steady recorder reuses the same
/// memory round after round.
#[cfg(not(feature = "metrics-off"))]
struct Ring {
    bytes: VecDeque<u8>,
    frames: VecDeque<(u64, u64)>,
    /// Absolute byte offset of `bytes[0]`.
    base: u64,
    /// Arrival index of `frames[0]`.
    start_pos: u64,
    /// Arrival index the next push will get.
    end_pos: u64,
    /// Frames overwritten this epoch.
    overwritten: u64,
    capacity: usize,
}

#[cfg(not(feature = "metrics-off"))]
impl Ring {
    /// Appends one flush: `bytes` holds its frames back to back, `frames`
    /// each frame's seq and end offset within `bytes`.
    fn push(&mut self, bytes: &[u8], frames: &[(u64, u32)]) {
        let base = self.base + self.bytes.len() as u64;
        self.bytes.extend(bytes);
        self.frames.extend(
            frames
                .iter()
                .map(|&(seq, end)| (seq, base + u64::from(end))),
        );
        self.end_pos += frames.len() as u64;
        self.trim();
    }

    /// Overwrites the oldest frames beyond capacity.
    fn trim(&mut self) {
        let excess = self.frames.len().saturating_sub(self.capacity.max(1));
        if excess == 0 {
            return;
        }
        let (_, end) = self.frames[excess - 1];
        self.frames.drain(..excess);
        self.bytes.drain(..(end - self.base) as usize);
        self.base = end;
        self.start_pos += excess as u64;
        self.overwritten += excess as u64;
    }

    /// Frame `k`'s byte range within `bytes`.
    fn frame_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 {
            self.base
        } else {
            self.frames[k - 1].1
        };
        (start - self.base) as usize..(self.frames[k].1 - self.base) as usize
    }

    /// Drops every frame (keeping the buffers).
    fn clear(&mut self) {
        self.bytes.clear();
        self.frames.clear();
        self.base = 0;
    }

    /// The oldest seq still present (0 when empty). An O(n) scan: frames
    /// arrive roughly seq-ordered but cross-thread flushes interleave, so
    /// the front frame is not necessarily the minimum.
    fn oldest_seq(&self) -> u64 {
        self.frames.iter().map(|&(seq, _)| seq).min().unwrap_or(0)
    }
}

#[cfg(not(feature = "metrics-off"))]
fn ring() -> &'static Mutex<Ring> {
    static RING: Mutex<Ring> = Mutex::new(Ring {
        bytes: VecDeque::new(),
        frames: VecDeque::new(),
        base: 0,
        start_pos: 0,
        end_pos: 0,
        overwritten: 0,
        capacity: DEFAULT_RING_CAPACITY,
    });
    &RING
}

#[cfg(not(feature = "metrics-off"))]
fn lock_ring() -> std::sync::MutexGuard<'static, Ring> {
    ring().lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(not(feature = "metrics-off"))]
struct LocalBuf {
    generation: u64,
    tid: u32,
    events: Vec<EventRecord>,
    /// Flush scratch, reused by every flush: the encoded frames, each
    /// frame's seq and end offset, and one frame body.
    bytes: Vec<u8>,
    frames: Vec<(u64, u32)>,
    body: Vec<u8>,
}

#[cfg(not(feature = "metrics-off"))]
impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // Events from a stale epoch must not leak into the new journal.
        if self.generation == GENERATION.load(Ordering::Relaxed) {
            // Encode outside the ring lock: only the append serializes.
            let t0 = std::time::Instant::now();
            for e in self.events.drain(..) {
                crate::wire::encode_event_into(&e, &mut self.body, &mut self.bytes);
                let end = u32::try_from(self.bytes.len()).expect("flush buffer fits in u32");
                self.frames.push((e.seq, end));
            }
            ENCODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            lock_ring().push(&self.bytes, &self.frames);
            self.bytes.clear();
            self.frames.clear();
        } else {
            self.events.clear();
        }
    }
}

#[cfg(not(feature = "metrics-off"))]
impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(not(feature = "metrics-off"))]
thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf {
            generation: u64::MAX,
            tid: 0,
            events: Vec::new(),
            bytes: Vec::new(),
            frames: Vec::new(),
            body: Vec::new(),
        })
    };
}

/// A stable position in the journal's arrival order, for incremental
/// drains via [`drain_since`]. `Cursor::default()` reads from the
/// beginning. Cursors survive across polls; a [`reset`] invalidates them
/// (the generation mismatch makes the next drain start over).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cursor {
    generation: u64,
    pos: u64,
}

/// One incremental drain result: the newly arrived events (sorted by seq
/// within the chunk), how many frames the consumer *missed* (overwritten
/// before this poll reached them), and the cursor to pass to the next
/// [`drain_since`] call.
#[derive(Clone, Debug, Default)]
pub struct DrainChunk {
    /// Events that arrived since the cursor, sorted by seq.
    pub events: Vec<EventRecord>,
    /// Frames lost between the cursor and the oldest retained frame:
    /// non-zero only when the ring overwrote faster than the consumer
    /// polled (or a full [`drain`] consumed frames out from under it).
    pub overwritten: u64,
    /// Position after this chunk; pass to the next [`drain_since`].
    pub cursor: Cursor,
}

/// Records one event, returning its sequence number (0 = not recorded:
/// `metrics-off` or during thread teardown).
///
/// Prefer the [`crate::event!`] macro, which defers payload construction
/// so `metrics-off` builds compile it away entirely.
pub fn record(kind: EventKind) -> u64 {
    #[cfg(not(feature = "metrics-off"))]
    {
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let trace = CURRENT_TRACE.load(Ordering::Relaxed);
        LOCAL
            .try_with(|l| {
                let mut l = l.borrow_mut();
                let generation = GENERATION.load(Ordering::Relaxed);
                if l.generation != generation {
                    l.events.clear();
                    l.generation = generation;
                    l.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
                }
                let tid = l.tid;
                l.events.push(EventRecord {
                    seq,
                    trace,
                    tid,
                    kind,
                });
                if l.events.len() >= FLUSH_EVERY {
                    l.flush();
                }
                seq
            })
            .unwrap_or(0)
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = kind;
        0
    }
}

/// Records the event produced by `f`, returning its sequence number.
/// Under `metrics-off` `f` is never called.
#[inline]
pub fn record_with(f: impl FnOnce() -> EventKind) -> u64 {
    #[cfg(not(feature = "metrics-off"))]
    {
        record(f())
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = f;
        0
    }
}

/// Starts a diagnosis trace: allocates the next trace id, makes it
/// current (all events until [`end_trace`] carry it — including events
/// from fleet worker threads), and records a `trace.start` event carrying
/// `label`. Returns the trace id (0 under `metrics-off`).
pub fn begin_trace(label: &str) -> u64 {
    #[cfg(not(feature = "metrics-off"))]
    {
        let id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        CURRENT_TRACE.store(id, Ordering::Relaxed);
        record(EventKind::TraceStarted {
            label: label.to_owned(),
        });
        id
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = label;
        0
    }
}

/// Ends the current diagnosis trace: records `trace.finish` and clears
/// the current trace id.
pub fn end_trace(iterations: u64, recurrences: u64) {
    #[cfg(not(feature = "metrics-off"))]
    {
        record(EventKind::TraceFinished {
            iterations,
            recurrences,
        });
        CURRENT_TRACE.store(0, Ordering::Relaxed);
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = (iterations, recurrences);
    }
}

/// Flushes the calling thread's buffered events into the global ring
/// without draining it. Thread-local buffers otherwise flush every
/// [`FLUSH_EVERY`] events and at thread exit — persistent worker threads
/// call this at batch end, and the core server calls it at each AsT
/// iteration boundary, so streaming consumers ([`drain_since`]) see
/// events at those checkpoints rather than [`FLUSH_EVERY`] granularity.
pub fn flush_local() {
    #[cfg(not(feature = "metrics-off"))]
    {
        let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    }
}

/// Flushes the calling thread's buffer and takes every buffered event,
/// sorted by sequence number. The journal is empty afterwards (recording
/// continues; seq numbers keep growing until [`reset`]).
pub fn drain() -> Vec<EventRecord> {
    drain_with_stats().0
}

/// [`drain`] plus the epoch's overwrite accounting: how many events the
/// bounded ring discarded, and the oldest seq that survived. The stats
/// feed the binary journal's meta frame (see [`to_binary`]) and the bench
/// report's `journal` section.
pub fn drain_with_stats() -> (Vec<EventRecord>, JournalStats) {
    let (binary, stats) = drain_binary();
    let (events, _) = crate::wire::parse_binary(&binary).expect("ring frames decode");
    (events, stats)
}

/// Takes the whole journal as a complete **binary journal** — header, all
/// frames sorted by seq, trailing meta frame — without decoding anything:
/// the ring already holds wire-encoded frames, so this is a sort plus one
/// concatenation. Byte-identical to `to_binary(&drain(), &stats)` and the
/// cheapest way to persist the journal (what `repro -- bench` writes).
/// The journal is empty afterwards, like [`drain`].
pub fn drain_binary() -> (Vec<u8>, JournalStats) {
    #[cfg(not(feature = "metrics-off"))]
    {
        let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
        let mut ring = lock_ring();
        ring.start_pos = ring.end_pos;
        // One thread's flushes arrive in seq order, so a single-threaded
        // journal needs no sort.
        let sorted = ring
            .frames
            .iter()
            .zip(ring.frames.iter().skip(1))
            .all(|(a, b)| a.0 < b.0);
        let stats = JournalStats {
            events_overwritten: ring.overwritten,
            oldest_seq: ring.oldest_seq(),
        };
        let mut out = Vec::with_capacity(ring.bytes.len() + 24);
        out.extend_from_slice(&crate::wire::MAGIC);
        crate::wire::put_varint(crate::wire::VERSION, &mut out);
        if sorted {
            let (a, b) = ring.bytes.as_slices();
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        } else {
            let mut order: Vec<usize> = (0..ring.frames.len()).collect();
            order.sort_unstable_by_key(|&k| ring.frames[k].0);
            ring.bytes.make_contiguous();
            let bytes = ring.bytes.as_slices().0;
            for k in order {
                out.extend_from_slice(&bytes[ring.frame_range(k)]);
            }
        }
        ring.clear();
        drop(ring);
        crate::wire::encode_meta(&stats, &mut out);
        (out, stats)
    }
    #[cfg(feature = "metrics-off")]
    {
        // A valid, empty binary journal (header + meta frame only).
        let stats = JournalStats::default();
        (crate::wire::to_binary(&[], &stats), stats)
    }
}

/// Incremental drain: every frame that arrived since `cursor`, without
/// clearing the ring. See the module docs for the exactly-once guarantee.
/// Flushes the calling thread first, so a single-threaded recorder can
/// tail itself; events from *other* threads appear once those threads
/// flush (fleet batch boundaries, server iteration boundaries, or thread
/// exit).
pub fn drain_since(cursor: Cursor) -> DrainChunk {
    #[cfg(not(feature = "metrics-off"))]
    {
        let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
        let mut ring = lock_ring();
        let generation = GENERATION.load(Ordering::Relaxed);
        // A cursor from another epoch restarts from the beginning.
        let pos = if cursor.generation == generation {
            cursor.pos.min(ring.end_pos)
        } else {
            0
        };
        let start = pos.max(ring.start_pos);
        ring.bytes.make_contiguous();
        let bytes = ring.bytes.as_slices().0;
        let mut events: Vec<EventRecord> = ((start - ring.start_pos) as usize..ring.frames.len())
            .map(|k| {
                crate::wire::decode_event(&bytes[ring.frame_range(k)]).expect("ring frame decodes")
            })
            .collect();
        events.sort_by_key(|e| e.seq);
        DrainChunk {
            events,
            overwritten: start - pos,
            cursor: Cursor {
                generation,
                pos: ring.end_pos,
            },
        }
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = cursor;
        DrainChunk::default()
    }
}

/// Current overwrite accounting without draining: events overwritten this
/// epoch and the oldest seq still held by the ring.
pub fn stats() -> JournalStats {
    #[cfg(not(feature = "metrics-off"))]
    {
        let ring = lock_ring();
        JournalStats {
            events_overwritten: ring.overwritten,
            oldest_seq: ring.oldest_seq(),
        }
    }
    #[cfg(feature = "metrics-off")]
    {
        JournalStats::default()
    }
}

/// Cumulative milliseconds spent encoding events into wire frames this
/// epoch — the journal's amortized recording cost, reported as
/// `encode_ms` in the bench's `timing.journal` section.
pub fn encode_ms() -> f64 {
    #[cfg(not(feature = "metrics-off"))]
    {
        ENCODE_NANOS.load(Ordering::Relaxed) as f64 / 1e6
    }
    #[cfg(feature = "metrics-off")]
    {
        0.0
    }
}

/// Overrides the ring capacity (in frames), trimming immediately if the
/// ring already holds more. The capacity persists across [`reset`] calls;
/// tests that shrink it must restore [`DEFAULT_RING_CAPACITY`].
pub fn set_ring_capacity(capacity: usize) {
    #[cfg(not(feature = "metrics-off"))]
    {
        let mut ring = lock_ring();
        ring.capacity = capacity.max(1);
        ring.trim();
    }
    #[cfg(feature = "metrics-off")]
    {
        let _ = capacity;
    }
}

/// Resets the journal: clears the ring and its accounting, restarts seq
/// and trace-id counters at 1, and bumps the epoch so stale thread-local
/// buffers and pre-reset cursors are discarded. Called from
/// [`crate::reset`].
pub fn reset() {
    #[cfg(not(feature = "metrics-off"))]
    {
        GENERATION.fetch_add(1, Ordering::Relaxed);
        NEXT_TID.store(0, Ordering::Relaxed);
        NEXT_SEQ.store(1, Ordering::Relaxed);
        NEXT_TRACE.store(1, Ordering::Relaxed);
        CURRENT_TRACE.store(0, Ordering::Relaxed);
        ENCODE_NANOS.store(0, Ordering::Relaxed);
        {
            let mut ring = lock_ring();
            ring.clear();
            ring.start_pos = 0;
            ring.end_pos = 0;
            ring.overwritten = 0;
        }
        let _ = LOCAL.try_with(|l| l.borrow_mut().events.clear());
    }
}

/// Assembles the canonical binary journal from drained records: wire
/// header, one frame per event (callers pass the seq-sorted [`drain`]
/// output), and a trailing meta frame carrying the overwrite accounting.
/// Deterministic: equal inputs produce byte-identical journals.
pub fn to_binary(events: &[EventRecord], stats: &JournalStats) -> Vec<u8> {
    crate::wire::to_binary(events, stats)
}

/// Parses a binary journal produced by [`to_binary`] back into records
/// plus its meta-frame accounting.
pub fn parse_binary(bytes: &[u8]) -> Result<(Vec<EventRecord>, JournalStats), String> {
    crate::wire::parse_binary(bytes)
}

/// Renders drained records as the deterministic JSONL **export**: one
/// compact JSON object per line, sorted by seq, no wall-clock fields.
/// JSONL is an export format; [`to_binary`] is the canonical journal.
pub fn to_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_value().render());
        out.push('\n');
    }
    out
}

/// Converts drained records to the schema-level representation used by
/// journal consumers ([`chrome_trace`], `gist-trace`).
pub fn to_events(events: &[EventRecord]) -> Vec<JournalEvent> {
    events.iter().map(EventRecord::to_event).collect()
}

/// Parses a JSONL journal back into events. Lines that are not objects
/// with the journal schema are rejected with a line-numbered error.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let get = |name: &str| match &v {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        let num = |name: &str| match get(name) {
            Some(Json::U64(n)) => Ok(n),
            _ => Err(format!("line {}: missing numeric `{name}`", i + 1)),
        };
        let kind = match get("kind") {
            Some(Json::Str(s)) => s,
            _ => return Err(format!("line {}: missing `kind`", i + 1)),
        };
        events.push(JournalEvent {
            seq: num("seq")?,
            trace: num("trace")?,
            tid: u32::try_from(num("tid")?)
                .map_err(|_| format!("line {}: `tid` exceeds u32", i + 1))?,
            kind,
            data: get("data").unwrap_or(Json::Null),
        });
    }
    Ok(events)
}

/// Builds a Chrome `trace_event` export (the `chrome://tracing` /
/// Perfetto JSON format) from journal events.
///
/// `span.begin` / `span.end` become `B` / `E` duration events; everything
/// else becomes a thread-scoped instant (`i`) event carrying its payload
/// as `args`. The journal has no wall-clock, so timestamps are synthesized
/// from sequence numbers (1 seq = 1 µs): relative ordering and nesting are
/// faithful, durations are logical.
///
/// The export is well-formed for *any* input — including unbalanced
/// spans (a guard still open at drain time, or an `E` whose `B` predates
/// a reset): an `E` without a matching open `B` on its thread is dropped,
/// an `E` that closes an outer span first closes the inner ones, and
/// spans still open at the end are closed with synthetic `E` events.
pub fn chrome_trace(events: &[JournalEvent]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    // Per-tid stack of open span names.
    let mut open: std::collections::BTreeMap<u32, Vec<String>> = std::collections::BTreeMap::new();
    let mut max_ts = 0u64;
    let base = |e: &JournalEvent, ph: &str, name: &str, ts: u64| -> Vec<(String, Json)> {
        vec![
            ("name".into(), Json::Str(name.to_owned())),
            ("ph".into(), Json::Str(ph.to_owned())),
            ("ts".into(), Json::U64(ts)),
            ("pid".into(), Json::U64(1)),
            ("tid".into(), Json::U64(u64::from(e.tid))),
        ]
    };
    for e in events {
        max_ts = max_ts.max(e.seq);
        match e.kind.as_str() {
            "span.begin" => {
                let path = e.field_str("path").unwrap_or("span").to_owned();
                out.push(Json::Obj(base(e, "B", &path, e.seq)));
                open.entry(e.tid).or_default().push(path);
            }
            "span.end" => {
                let path = e.field_str("path").unwrap_or("span");
                let stack = open.entry(e.tid).or_default();
                let Some(pos) = stack.iter().rposition(|p| p == path) else {
                    continue; // no matching B on this thread: drop
                };
                // Close inner spans first so B/E stay properly nested.
                while stack.len() > pos {
                    let inner = stack.pop().expect("stack non-empty");
                    out.push(Json::Obj(base(e, "E", &inner, e.seq)));
                }
            }
            _ => {
                let mut members = base(e, "i", &e.kind, e.seq);
                members.push(("s".into(), Json::Str("t".into())));
                members.push(("args".into(), e.data.clone()));
                out.push(Json::Obj(members));
            }
        }
    }
    // Close spans still open at drain time, innermost first.
    for (tid, stack) in &mut open {
        while let Some(inner) = stack.pop() {
            max_ts += 1;
            out.push(Json::Obj(vec![
                ("name".into(), Json::Str(inner)),
                ("ph".into(), Json::Str("E".into())),
                ("ts".into(), Json::U64(max_ts)),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(u64::from(*tid))),
            ]));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(out)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

/// Records the flight-recorder event built by the given [`EventKind`]
/// constructor expression, returning its journal sequence number (0 when
/// not recorded).
///
/// The payload is passed as a closure to [`journal::record_with`], so a
/// `gist-obs` built with `metrics-off` compiles both the recording *and*
/// the payload construction away (instrumented crates forward their own
/// `metrics-off` feature to `gist-obs/metrics-off`).
///
/// ```
/// let seq = gist_obs::event!(RunStarted { run: 1, seed: 42 });
/// # let _ = seq;
/// ```
///
/// [`journal::record_with`]: crate::journal::record_with
#[macro_export]
macro_rules! event {
    ($($kind:tt)+) => {
        $crate::journal::record_with(|| $crate::journal::EventKind::$($kind)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the journal is process-global; these tests run in one binary
    // alongside the metric tests, so they only assert properties robust
    // to interleaving (or run single-threaded logic on owned data).
    // Ring-capacity and cursor exactly-once behavior live in the
    // single-test integration binary tests/journal_stream.rs.

    #[test]
    fn record_and_drain_round_trip() {
        let seq = record(EventKind::RunStarted { run: 7, seed: 9 });
        if cfg!(feature = "metrics-off") {
            assert_eq!(seq, 0);
            assert!(drain().is_empty());
            return;
        }
        assert!(seq > 0);
        let events = drain();
        let mine: Vec<_> = events.iter().filter(|e| e.seq == seq).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(
            mine[0].kind,
            EventKind::RunStarted { run: 7, seed: 9 },
            "payload survives buffering and the frame encode/decode"
        );
        // Drained output is sorted by seq.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn drain_since_does_not_duplicate_own_events() {
        if cfg!(feature = "metrics-off") {
            let chunk = drain_since(Cursor::default());
            assert!(chunk.events.is_empty());
            return;
        }
        let seq = record(EventKind::WatchArmed {
            addr: 0x10,
            slot: 1,
        });
        // A sibling test's full drain() can steal the event between our
        // flush and read, so presence in the first chunk is not asserted;
        // exactly-once (no re-delivery) always is.
        let chunk = drain_since(Cursor::default());
        let next = drain_since(chunk.cursor);
        assert!(
            next.events.iter().all(|e| e.seq != seq),
            "cursor re-delivered an event"
        );
    }

    #[test]
    fn binary_round_trips_and_is_compact() {
        let records = vec![
            EventRecord {
                seq: 1,
                trace: 1,
                tid: 0,
                kind: EventKind::TraceStarted {
                    label: "Failure Sketch for t \"quoted\"".into(),
                },
            },
            EventRecord {
                seq: 2,
                trace: 1,
                tid: 0,
                kind: EventKind::WatchHit {
                    iid: 5,
                    addr: 0x1000,
                    value: -3,
                    hit_seq: 44,
                    hit_tid: 1,
                    discovered: true,
                },
            },
        ];
        let stats = JournalStats {
            events_overwritten: 7,
            oldest_seq: 1,
        };
        let bin = to_binary(&records, &stats);
        let (decoded, got) = parse_binary(&bin).expect("parses");
        assert_eq!(decoded, records);
        assert_eq!(got, stats);
        assert!(
            bin.len() * 2 < to_jsonl(&records).len(),
            "binary should be far smaller than the JSONL export"
        );
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let records = vec![
            EventRecord {
                seq: 1,
                trace: 1,
                tid: 0,
                kind: EventKind::TraceStarted {
                    label: "Failure Sketch for t \"quoted\"".into(),
                },
            },
            EventRecord {
                seq: 2,
                trace: 1,
                tid: 0,
                kind: EventKind::WatchHit {
                    iid: 5,
                    addr: 0x1000,
                    value: -3,
                    hit_seq: 44,
                    hit_tid: 1,
                    discovered: true,
                },
            },
        ];
        let jsonl = to_jsonl(&records);
        let parsed = parse_jsonl(&jsonl).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].kind, "trace.start");
        assert_eq!(
            parsed[0].field_str("label"),
            Some("Failure Sketch for t \"quoted\"")
        );
        assert_eq!(parsed[1].field_u64("hit_seq"), Some(44));
        assert_eq!(parsed[1].field("value"), Some(&Json::I64(-3)));
        assert_eq!(parsed, to_events(&records));
    }

    #[test]
    fn jsonl_rejects_out_of_range_tid_and_deep_nesting() {
        let line = |tid: u64| {
            format!(
                "{{\"seq\":1,\"trace\":0,\"tid\":{tid},\"kind\":\"run.start\",\"data\":null}}\n"
            )
        };
        let ok = parse_jsonl(&line(u64::from(u32::MAX))).expect("u32::MAX is a tid");
        assert_eq!(ok[0].tid, u32::MAX);
        let err =
            parse_jsonl(&format!("{}{}", line(1), line(u64::from(u32::MAX) + 1))).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("tid"), "{err}");
        let err = parse_jsonl(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn chrome_trace_balances_unmatched_spans() {
        let ev = |seq, tid, kind: &str, path: &str| JournalEvent {
            seq,
            trace: 0,
            tid,
            kind: kind.into(),
            data: Json::Obj(vec![("path".into(), Json::Str(path.into()))]),
        };
        // tid 0: orphan end, then an open begin never closed;
        // tid 1: end closes the outer span while inner is open.
        let events = vec![
            ev(1, 0, "span.end", "orphan"),
            ev(2, 0, "span.begin", "open"),
            ev(3, 1, "span.begin", "outer"),
            ev(4, 1, "span.begin", "outer/inner"),
            ev(5, 1, "span.end", "outer"),
        ];
        let chrome = chrome_trace(&events);
        let Json::Obj(members) = &chrome else {
            panic!("chrome export is an object")
        };
        let Json::Arr(items) = &members[0].1 else {
            panic!("traceEvents is an array")
        };
        // Per-tid stack discipline over the output.
        let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
        for item in items {
            let Json::Obj(f) = item else { panic!() };
            let get = |n: &str| f.iter().find(|(k, _)| k == n).map(|(_, v)| v.clone());
            let Some(Json::Str(ph)) = get("ph") else {
                panic!()
            };
            let Some(Json::Str(name)) = get("name") else {
                panic!()
            };
            let Some(Json::U64(tid)) = get("tid") else {
                panic!()
            };
            match ph.as_str() {
                "B" => stacks.entry(tid).or_default().push(name),
                "E" => assert_eq!(
                    stacks.entry(tid).or_default().pop().as_deref(),
                    Some(name.as_str()),
                    "E must close the innermost open B"
                ),
                _ => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
        }
    }

    #[test]
    fn event_macro_returns_seq() {
        let seq = crate::event!(PatchPlanned {
            tracked: 4,
            watch: 2,
            group: 0,
            bytes: 64,
        });
        if cfg!(feature = "metrics-off") {
            assert_eq!(seq, 0);
        } else {
            assert!(seq > 0);
        }
        let _ = drain();
    }
}
