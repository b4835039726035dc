//! The flight-recorder binary wire format.
//!
//! The journal's hot path stores *encoded frames*, not JSON: one compact,
//! schema-versioned binary frame per [`EventRecord`], varint-packed so a
//! typical event costs 10–30 bytes instead of ~110 bytes of JSONL. JSONL
//! is an **export format only** (see [`crate::journal::to_jsonl`]); the
//! binary journal is the canonical on-disk and in-ring representation.
//!
//! # File layout
//!
//! ```text
//! magic   "GSTJ"            4 bytes
//! version varint            currently 1
//! frame*                    event frames, sorted by seq at export time
//! meta                      one accounting frame (tag 255), appended last
//! ```
//!
//! # Frame layout
//!
//! Every frame — event or meta — is length-prefixed and self-contained:
//!
//! ```text
//! body_len varint           bytes in the body that follows
//! seq      varint           0 for the meta frame
//! trace    varint
//! tid      varint
//! tag      1 byte           EventKind discriminant (0–16) or 255 = meta
//! fields…                   tag-specific, in declaration order
//! ```
//!
//! Field encodings: `u64` → LEB128 varint; `i64` → zigzag varint; `bool` →
//! one byte (0/1); `str` → varint length + UTF-8 bytes; `Vec<u64>` →
//! varint count + varints. The meta frame body is `events_overwritten,
//! oldest_seq` (both varint) and records the ring's overwrite accounting
//! at drain time.
//!
//! # Versioning rules
//!
//! * The version varint bumps only on *incompatible* layout changes;
//!   readers reject versions newer than [`VERSION`].
//! * New event kinds append new tags. Readers **skip frames with unknown
//!   tags** (the length prefix makes every frame skippable), so old
//!   readers tolerate journals from newer writers of the same version.
//! * Encoding is canonical (minimal-length varints, fields in declaration
//!   order), so equal event sequences produce byte-identical journals —
//!   the same-seed determinism contract extends to the binary format.

use crate::event::{EventKind, EventRecord};

/// File magic: the first four bytes of every binary journal.
pub const MAGIC: [u8; 4] = *b"GSTJ";

/// Current wire-format version.
pub const VERSION: u64 = 1;

/// Frame tag reserved for the journal-accounting meta frame.
pub const META_TAG: u8 = 255;

/// Journal-level overwrite accounting, carried by the meta frame and
/// surfaced by [`crate::journal::drain_with_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Events overwritten (lost to the bounded ring) this epoch. Non-zero
    /// means the journal has a gap at its oldest end.
    pub events_overwritten: u64,
    /// The oldest sequence number still present (0 when the journal is
    /// empty). `oldest_seq > 1` together with `events_overwritten > 0`
    /// locates the gap.
    pub oldest_seq: u64,
}

/// Appends a LEB128 varint.
pub fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            out.push(byte | 0x80);
        } else {
            out.push(byte);
            break;
        }
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it. `None` when the buffer
/// ends mid-varint (the streaming decoder's "wait for more bytes" case);
/// an error when the encoding overflows 64 bits.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<Option<u64>, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Ok(None);
        };
        *pos += 1;
        if shift == 63 && byte > 0x01 {
            return Err(format!("varint overflows u64 at byte {}", *pos - 1));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
        if shift > 63 {
            return Err(format!("varint longer than 10 bytes at byte {}", *pos));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// The wire tag of an event kind (its declaration-order discriminant).
pub fn kind_tag(kind: &EventKind) -> u8 {
    match kind {
        EventKind::TraceStarted { .. } => 0,
        EventKind::TraceFinished { .. } => 1,
        EventKind::SliceComputed { .. } => 2,
        EventKind::IterationStarted { .. } => 3,
        EventKind::StmtPromoted { .. } => 4,
        EventKind::StmtDemoted { .. } => 5,
        EventKind::RunStarted { .. } => 6,
        EventKind::RunFinished { .. } => 7,
        EventKind::PatchPlanned { .. } => 8,
        EventKind::WatchArmed { .. } => 9,
        EventKind::WatchHit { .. } => 10,
        EventKind::PtSegmentDecoded { .. } => 11,
        EventKind::TraceDecoded { .. } => 12,
        EventKind::PredictorRanked { .. } => 13,
        EventKind::SketchStepEmitted { .. } => 14,
        EventKind::SpanBegin { .. } => 15,
        EventKind::SpanEnd { .. } => 16,
    }
}

fn encode_kind(kind: &EventKind, out: &mut Vec<u8>) {
    out.push(kind_tag(kind));
    match kind {
        EventKind::TraceStarted { label } => put_str(label, out),
        EventKind::TraceFinished {
            iterations,
            recurrences,
        } => {
            put_varint(*iterations, out);
            put_varint(*recurrences, out);
        }
        EventKind::SliceComputed {
            criterion,
            len,
            alias,
        } => {
            put_varint(u64::from(*criterion), out);
            put_varint(*len, out);
            out.push(u8::from(*alias));
        }
        EventKind::IterationStarted {
            iteration,
            sigma,
            tracked,
        } => {
            put_varint(*iteration, out);
            put_varint(*sigma, out);
            put_varint(*tracked, out);
        }
        EventKind::StmtPromoted {
            iid,
            reason,
            via,
            sigma,
        } => {
            put_varint(u64::from(*iid), out);
            put_str(reason, out);
            put_varint(*via, out);
            put_varint(*sigma, out);
        }
        EventKind::StmtDemoted { iid, reason, sigma } => {
            put_varint(u64::from(*iid), out);
            put_str(reason, out);
            put_varint(*sigma, out);
        }
        EventKind::RunStarted { run, seed } => {
            put_varint(*run, out);
            put_varint(*seed, out);
        }
        EventKind::RunFinished {
            run,
            failing,
            retired,
            hits,
        } => {
            put_varint(*run, out);
            out.push(u8::from(*failing));
            put_varint(*retired, out);
            put_varint(*hits, out);
        }
        EventKind::PatchPlanned {
            tracked,
            watch,
            group,
            bytes,
        } => {
            put_varint(*tracked, out);
            put_varint(*watch, out);
            put_varint(*group, out);
            put_varint(*bytes, out);
        }
        EventKind::WatchArmed { addr, slot } => {
            put_varint(*addr, out);
            put_varint(*slot, out);
        }
        EventKind::WatchHit {
            iid,
            addr,
            value,
            hit_seq,
            hit_tid,
            discovered,
        } => {
            put_varint(u64::from(*iid), out);
            put_varint(*addr, out);
            put_varint(zigzag(*value), out);
            put_varint(*hit_seq, out);
            put_varint(u64::from(*hit_tid), out);
            out.push(u8::from(*discovered));
        }
        EventKind::PtSegmentDecoded {
            core,
            segment,
            bytes,
            stmts,
        } => {
            put_varint(u64::from(*core), out);
            put_varint(*segment, out);
            put_varint(*bytes, out);
            put_varint(*stmts, out);
        }
        EventKind::TraceDecoded {
            stmts,
            branches,
            bytes,
        } => {
            put_varint(*stmts, out);
            put_varint(*branches, out);
            put_varint(*bytes, out);
        }
        EventKind::PredictorRanked {
            category,
            rank,
            f_milli,
            iid,
        } => {
            put_str(category, out);
            put_varint(*rank, out);
            put_varint(*f_milli, out);
            put_varint(u64::from(*iid), out);
        }
        EventKind::SketchStepEmitted {
            step,
            iid,
            provenance,
        } => {
            put_varint(*step, out);
            put_varint(u64::from(*iid), out);
            put_varint(provenance.len() as u64, out);
            for &p in provenance {
                put_varint(p, out);
            }
        }
        EventKind::SpanBegin { path } | EventKind::SpanEnd { path } => put_str(path, out),
    }
}

/// A cursor over one complete frame body, erroring (rather than waiting)
/// on truncation: the length prefix guaranteed the body is complete.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Body<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        get_varint(self.buf, &mut self.pos)?.ok_or_else(|| "frame body truncated".to_owned())
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| "u32 field out of range".to_owned())
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(unzigzag(self.u64()?))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| "frame body truncated".to_owned())?;
        self.pos += 1;
        match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other}")),
        }
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u64()? as usize;
        let bytes = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or_else(|| "string field truncated".to_owned())?;
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string field is not UTF-8".to_owned())
    }
}

/// Statically-known promotion/demotion reasons: decoding re-interns onto
/// these so round-tripped records compare equal to the originals. Reasons
/// outside the table (possible only for journals from other writers) leak
/// one allocation each, which is acceptable for an offline decoder.
const KNOWN_REASONS: [&str; 3] = ["race-seed", "watch-discovery", "never-executed"];

fn intern_reason(s: String) -> &'static str {
    for known in KNOWN_REASONS {
        if known == s {
            return known;
        }
    }
    Box::leak(s.into_boxed_str())
}

fn decode_kind(tag: u8, b: &mut Body) -> Result<EventKind, String> {
    Ok(match tag {
        0 => EventKind::TraceStarted { label: b.str()? },
        1 => EventKind::TraceFinished {
            iterations: b.u64()?,
            recurrences: b.u64()?,
        },
        2 => EventKind::SliceComputed {
            criterion: b.u32()?,
            len: b.u64()?,
            alias: b.boolean()?,
        },
        3 => EventKind::IterationStarted {
            iteration: b.u64()?,
            sigma: b.u64()?,
            tracked: b.u64()?,
        },
        4 => EventKind::StmtPromoted {
            iid: b.u32()?,
            reason: intern_reason(b.str()?),
            via: b.u64()?,
            sigma: b.u64()?,
        },
        5 => EventKind::StmtDemoted {
            iid: b.u32()?,
            reason: intern_reason(b.str()?),
            sigma: b.u64()?,
        },
        6 => EventKind::RunStarted {
            run: b.u64()?,
            seed: b.u64()?,
        },
        7 => EventKind::RunFinished {
            run: b.u64()?,
            failing: b.boolean()?,
            retired: b.u64()?,
            hits: b.u64()?,
        },
        8 => EventKind::PatchPlanned {
            tracked: b.u64()?,
            watch: b.u64()?,
            group: b.u64()?,
            bytes: b.u64()?,
        },
        9 => EventKind::WatchArmed {
            addr: b.u64()?,
            slot: b.u64()?,
        },
        10 => EventKind::WatchHit {
            iid: b.u32()?,
            addr: b.u64()?,
            value: b.i64()?,
            hit_seq: b.u64()?,
            hit_tid: b.u32()?,
            discovered: b.boolean()?,
        },
        11 => EventKind::PtSegmentDecoded {
            core: b.u32()?,
            segment: b.u64()?,
            bytes: b.u64()?,
            stmts: b.u64()?,
        },
        12 => EventKind::TraceDecoded {
            stmts: b.u64()?,
            branches: b.u64()?,
            bytes: b.u64()?,
        },
        13 => EventKind::PredictorRanked {
            category: b.str()?,
            rank: b.u64()?,
            f_milli: b.u64()?,
            iid: b.u32()?,
        },
        14 => {
            let step = b.u64()?;
            let iid = b.u32()?;
            let n = b.u64()? as usize;
            let mut provenance = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                provenance.push(b.u64()?);
            }
            EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            }
        }
        15 => EventKind::SpanBegin {
            path: b.str()?.into(),
        },
        16 => EventKind::SpanEnd {
            path: b.str()?.into(),
        },
        other => return Err(format!("unknown event tag {other}")),
    })
}

/// Encodes one record as a complete length-prefixed frame.
pub fn encode_event(rec: &EventRecord, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(24);
    encode_event_into(rec, &mut body, out);
}

/// [`encode_event`] with a caller-provided body scratch buffer, so hot
/// flush loops encode thousands of events without per-event allocation.
pub(crate) fn encode_event_into(rec: &EventRecord, body: &mut Vec<u8>, out: &mut Vec<u8>) {
    body.clear();
    put_varint(rec.seq, body);
    put_varint(rec.trace, body);
    put_varint(u64::from(rec.tid), body);
    encode_kind(&rec.kind, body);
    put_varint(body.len() as u64, out);
    out.extend_from_slice(body);
}

pub(crate) fn encode_meta(stats: &JournalStats, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(8);
    put_varint(0, &mut body); // seq
    put_varint(0, &mut body); // trace
    put_varint(0, &mut body); // tid
    body.push(META_TAG);
    put_varint(stats.events_overwritten, &mut body);
    put_varint(stats.oldest_seq, &mut body);
    put_varint(body.len() as u64, out);
    out.extend_from_slice(&body);
}

/// Decodes exactly one complete frame (as produced by [`encode_event`]).
/// Used by the ring, whose frames are complete by construction.
pub fn decode_event(frame: &[u8]) -> Result<EventRecord, String> {
    let mut pos = 0usize;
    let mut dec = StreamDecoder::past_header();
    match dec.next_frame(frame, &mut pos)? {
        Some(Decoded::Event(rec)) => Ok(rec),
        Some(_) => Err("expected an event frame".to_owned()),
        None => Err("incomplete frame".to_owned()),
    }
}

/// Assembles a complete binary journal: header, the given records as
/// frames (in the order given — callers pass seq-sorted slices), and the
/// trailing meta frame.
pub fn to_binary(events: &[EventRecord], stats: &JournalStats) -> Vec<u8> {
    // Typical frames run 10–30 bytes; 24 is a close fit that avoids
    // re-allocation churn without overshooting.
    let mut out = Vec::with_capacity(8 + events.len() * 24);
    out.extend_from_slice(&MAGIC);
    put_varint(VERSION, &mut out);
    for e in events {
        encode_event(e, &mut out);
    }
    encode_meta(stats, &mut out);
    out
}

/// Whether `bytes` start with the binary-journal magic.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// One decoded frame.
enum Decoded {
    Event(EventRecord),
    /// A meta frame; its accounting lands in [`StreamDecoder::stats`].
    Meta,
    /// A frame with an unknown tag, skipped per the versioning rules.
    Unknown,
}

/// Incremental frame decoder: feed it a growing buffer (a file being
/// appended to) and it consumes only *complete* frames, leaving `pos` at
/// the first incomplete one. This is what `gist-trace follow` uses to
/// tail a live binary journal.
pub struct StreamDecoder {
    header_seen: bool,
    /// Accounting from the latest meta frame seen.
    pub stats: JournalStats,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// A decoder expecting the file header first.
    pub fn new() -> Self {
        StreamDecoder {
            header_seen: false,
            stats: JournalStats::default(),
        }
    }

    /// A decoder for headerless frame sequences (single-frame decode).
    fn past_header() -> Self {
        StreamDecoder {
            header_seen: true,
            stats: JournalStats::default(),
        }
    }

    /// Consumes the header if not yet seen. `Ok(false)` = need more bytes.
    fn consume_header(&mut self, buf: &[u8], pos: &mut usize) -> Result<bool, String> {
        if self.header_seen {
            return Ok(true);
        }
        if buf.len() < *pos + MAGIC.len() {
            return Ok(false);
        }
        if buf[*pos..*pos + MAGIC.len()] != MAGIC {
            return Err("not a binary journal (bad magic)".to_owned());
        }
        let mut p = *pos + MAGIC.len();
        let Some(version) = get_varint(buf, &mut p)? else {
            return Ok(false);
        };
        if version > VERSION {
            return Err(format!(
                "journal version {version} is newer than supported {VERSION}"
            ));
        }
        *pos = p;
        self.header_seen = true;
        Ok(true)
    }

    /// Decodes the next complete frame at `*pos`. `Ok(None)` = the buffer
    /// ends mid-frame; `*pos` is left unchanged so the caller can retry
    /// with more bytes.
    fn next_frame(&mut self, buf: &[u8], pos: &mut usize) -> Result<Option<Decoded>, String> {
        let mut p = *pos;
        let Some(len) = get_varint(buf, &mut p)? else {
            return Ok(None);
        };
        let len = len as usize;
        let Some(body) = buf.get(p..p + len) else {
            return Ok(None);
        };
        let mut b = Body { buf: body, pos: 0 };
        let seq = b.u64()?;
        let trace = b.u64()?;
        let tid = u32::try_from(b.u64()?).map_err(|_| "tid out of range".to_owned())?;
        let tag = *b
            .buf
            .get(b.pos)
            .ok_or_else(|| "frame body truncated".to_owned())?;
        b.pos += 1;
        *pos = p + len;
        if tag == META_TAG {
            let stats = JournalStats {
                events_overwritten: b.u64()?,
                oldest_seq: b.u64()?,
            };
            self.stats = stats;
            return Ok(Some(Decoded::Meta));
        }
        match decode_kind(tag, &mut b) {
            Ok(kind) => Ok(Some(Decoded::Event(EventRecord {
                seq,
                trace,
                tid,
                kind,
            }))),
            // Unknown tag: skip the frame (forward compatibility).
            Err(e) if e.starts_with("unknown event tag") => Ok(Some(Decoded::Unknown)),
            Err(e) => Err(e),
        }
    }

    /// Decodes every complete frame from `*pos` onward, advancing `*pos`
    /// past them. Returns the decoded events (meta/unknown frames update
    /// [`StreamDecoder::stats`] / are skipped).
    pub fn feed(&mut self, buf: &[u8], pos: &mut usize) -> Result<Vec<EventRecord>, String> {
        let mut events = Vec::new();
        if !self.consume_header(buf, pos)? {
            return Ok(events);
        }
        while let Some(frame) = self.next_frame(buf, pos)? {
            if let Decoded::Event(rec) = frame {
                events.push(rec);
            }
        }
        Ok(events)
    }
}

/// Parses a complete binary journal into records plus the accounting from
/// its meta frame. Frames with unknown tags are skipped (see the module
/// docs' versioning rules); a journal that ends mid-frame is rejected.
pub fn parse_binary(bytes: &[u8]) -> Result<(Vec<EventRecord>, JournalStats), String> {
    let mut dec = StreamDecoder::new();
    let mut pos = 0usize;
    let events = dec.feed(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!(
            "journal truncated: {} trailing bytes form no complete frame",
            bytes.len() - pos
        ));
    }
    Ok((events, dec.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(Some(v)));
            assert_eq!(pos, buf.len());
        }
        // Truncated varint: wait, don't error.
        let mut buf = Vec::new();
        put_varint(u64::MAX, &mut buf);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Ok(None));
        // Overflowing 10-byte varint: error.
        let bad = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(get_varint(&bad, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn event_frames_round_trip() {
        let records = [
            EventRecord {
                seq: u64::MAX,
                trace: 7,
                tid: 3,
                kind: EventKind::TraceStarted {
                    label: "Failure Sketch \"quoted\" ünïcode".into(),
                },
            },
            EventRecord {
                seq: 1,
                trace: 0,
                tid: 0,
                kind: EventKind::WatchHit {
                    iid: 30,
                    addr: 0x40_0000,
                    value: i64::MIN,
                    hit_seq: 12345,
                    hit_tid: 2,
                    discovered: true,
                },
            },
            EventRecord {
                seq: 2,
                trace: 1,
                tid: 0,
                kind: EventKind::SketchStepEmitted {
                    step: 9,
                    iid: 4,
                    provenance: vec![],
                },
            },
            EventRecord {
                seq: 3,
                trace: 1,
                tid: 0,
                kind: EventKind::StmtPromoted {
                    iid: 5,
                    reason: "watch-discovery",
                    via: 2,
                    sigma: 4,
                },
            },
        ];
        for rec in &records {
            let mut buf = Vec::new();
            encode_event(rec, &mut buf);
            assert_eq!(&decode_event(&buf).expect("decodes"), rec);
        }
        let stats = JournalStats {
            events_overwritten: 42,
            oldest_seq: 43,
        };
        let bin = to_binary(&records, &stats);
        assert!(is_binary(&bin));
        let (decoded, got) = parse_binary(&bin).expect("parses");
        assert_eq!(decoded, records);
        assert_eq!(got, stats);
    }

    #[test]
    fn stream_decoder_waits_for_complete_frames() {
        let rec = EventRecord {
            seq: 300,
            trace: 1,
            tid: 0,
            kind: EventKind::RunStarted { run: 5, seed: 9 },
        };
        let bin = to_binary(std::slice::from_ref(&rec), &JournalStats::default());
        let mut dec = StreamDecoder::new();
        let mut pos = 0usize;
        // Feed byte by byte: events appear only once their frame completes,
        // and every prefix is either "wait" or yields the full record.
        let mut seen = Vec::new();
        for end in 0..=bin.len() {
            seen.extend(dec.feed(&bin[..end], &mut pos).expect("no error"));
        }
        assert_eq!(seen, vec![rec]);
        assert_eq!(pos, bin.len());
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let rec = EventRecord {
            seq: 1,
            trace: 0,
            tid: 0,
            kind: EventKind::RunStarted { run: 1, seed: 2 },
        };
        let mut bin = Vec::new();
        bin.extend_from_slice(&MAGIC);
        put_varint(VERSION, &mut bin);
        // A frame with tag 200 (unknown) and arbitrary body bytes.
        let mut body = Vec::new();
        put_varint(9, &mut body);
        put_varint(0, &mut body);
        put_varint(0, &mut body);
        body.push(200);
        body.extend_from_slice(&[1, 2, 3]);
        put_varint(body.len() as u64, &mut bin);
        bin.extend_from_slice(&body);
        encode_event(&rec, &mut bin);
        let (events, _) = parse_binary(&bin).expect("skips unknown tag");
        assert_eq!(events, vec![rec]);
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut bin = Vec::new();
        bin.extend_from_slice(&MAGIC);
        put_varint(VERSION + 1, &mut bin);
        assert!(parse_binary(&bin).is_err());
        assert!(parse_binary(b"not a journal").is_err());
    }
}
