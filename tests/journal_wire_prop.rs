//! Property tests for the flight-recorder wire format: for *arbitrary*
//! [`EventRecord`]s — every kind, max varints, empty payloads, unicode
//! strings — the binary journal must round-trip exactly:
//!
//! 1. `to_binary` → `parse_binary` reproduces the records and the meta
//!    stats bit-for-bit (canonical encoding, lossless decode).
//! 2. The JSONL export rendered from the decoded records is byte-identical
//!    to the JSONL rendered from the originals (the export is lossless),
//!    and `parse_jsonl` recovers the schema-level view of every record.
//! 3. A [`StreamDecoder`] fed the same bytes in arbitrary chunk sizes
//!    (down to one byte at a time) yields exactly the `parse_binary`
//!    result — incremental tailing never splits or drops a frame.
//!
//! These tests use only pure encode/decode functions (no process-global
//! journal state), so many `#[test]`s can share this binary safely.

use gist_obs::journal::{parse_binary, parse_jsonl, to_binary, to_events, to_jsonl, JournalStats};
use gist_obs::wire::{is_binary, StreamDecoder};
use gist_obs::{EventKind, EventRecord};
use proptest::prelude::*;

/// u64s biased toward varint boundaries: 0, one-byte max, continuation
/// edges, and `u64::MAX` (10-byte LEB128).
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(127u64),
        Just(128u64),
        Just(16_383u64),
        Just(16_384u64),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        0u64..1_000_000,
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..100_000]
}

/// i64s biased toward zigzag edges (both extremes map to max varints).
fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(-1i64),
        Just(1i64),
        Just(i64::MIN),
        Just(i64::MAX),
        -1_000_000i64..1_000_000,
    ]
}

fn arb_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

/// Strings including empty, plain ASCII, and arbitrary multi-byte UTF-8.
fn arb_str() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("Failure Sketch for pbzip2 0.9.4".to_owned()),
        proptest::collection::vec(1u32..0xD7FF, 0..12)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

/// Promotion/demotion reasons: the interned pool plus a non-interned
/// static (exercises the `Box::leak` fallback on decode).
fn arb_reason() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("race-seed"),
        Just("watch-discovery"),
        Just("never-executed"),
        Just("a reason the decoder has never seen"),
        Just(""),
    ]
}

fn arb_provenance() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(arb_u64(), 0..6)
}

/// Every [`EventKind`], with adversarial field values. Variants with more
/// than four fields nest tuples (the strategy tuples cap at four).
fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        arb_str().prop_map(|label| EventKind::TraceStarted { label }),
        (arb_u64(), arb_u64()).prop_map(|(iterations, recurrences)| EventKind::TraceFinished {
            iterations,
            recurrences
        }),
        (arb_u32(), arb_u64(), arb_bool()).prop_map(|(criterion, len, alias)| {
            EventKind::SliceComputed {
                criterion,
                len,
                alias,
            }
        }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(iteration, sigma, tracked)| {
            EventKind::IterationStarted {
                iteration,
                sigma,
                tracked,
            }
        }),
        (arb_u32(), arb_reason(), arb_u64(), arb_u64()).prop_map(|(iid, reason, via, sigma)| {
            EventKind::StmtPromoted {
                iid,
                reason,
                via,
                sigma,
            }
        }),
        (arb_u32(), arb_reason(), arb_u64())
            .prop_map(|(iid, reason, sigma)| { EventKind::StmtDemoted { iid, reason, sigma } }),
        (arb_u64(), arb_u64()).prop_map(|(run, seed)| EventKind::RunStarted { run, seed }),
        ((arb_u64(), arb_bool()), (arb_u64(), arb_u64())).prop_map(
            |((run, failing), (retired, hits))| EventKind::RunFinished {
                run,
                failing,
                retired,
                hits,
            }
        ),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(|(tracked, watch, group, bytes)| {
            EventKind::PatchPlanned {
                tracked,
                watch,
                group,
                bytes,
            }
        }),
        (arb_u64(), arb_u64()).prop_map(|(addr, slot)| EventKind::WatchArmed { addr, slot }),
        (
            (arb_u32(), arb_u64(), arb_i64()),
            (arb_u64(), arb_u32(), arb_bool())
        )
            .prop_map(|((iid, addr, value), (hit_seq, hit_tid, discovered))| {
                EventKind::WatchHit {
                    iid,
                    addr,
                    value,
                    hit_seq,
                    hit_tid,
                    discovered,
                }
            }),
        (arb_u32(), arb_u64(), arb_u64(), arb_u64()).prop_map(|(core, segment, bytes, stmts)| {
            EventKind::PtSegmentDecoded {
                core,
                segment,
                bytes,
                stmts,
            }
        }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(stmts, branches, bytes)| {
            EventKind::TraceDecoded {
                stmts,
                branches,
                bytes,
            }
        }),
        (arb_str(), arb_u64(), arb_u64(), arb_u32()).prop_map(|(category, rank, f_milli, iid)| {
            EventKind::PredictorRanked {
                category,
                rank,
                f_milli,
                iid,
            }
        }),
        (arb_u64(), arb_u32(), arb_provenance()).prop_map(|(step, iid, provenance)| {
            EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            }
        }),
        arb_str().prop_map(|path| EventKind::SpanBegin { path: path.into() }),
        arb_str().prop_map(|path| EventKind::SpanEnd { path: path.into() }),
    ]
}

fn arb_record() -> impl Strategy<Value = EventRecord> {
    (arb_u64(), arb_u64(), arb_u32(), arb_kind()).prop_map(|(seq, trace, tid, kind)| EventRecord {
        seq,
        trace,
        tid,
        kind,
    })
}

fn arb_stats() -> impl Strategy<Value = JournalStats> {
    (arb_u64(), arb_u64()).prop_map(|(events_overwritten, oldest_seq)| JournalStats {
        events_overwritten,
        oldest_seq,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_round_trips_records_and_stats(
        events in proptest::collection::vec(arb_record(), 0..40),
        stats in arb_stats(),
    ) {
        let binary = to_binary(&events, &stats);
        prop_assert!(is_binary(&binary), "encoded journal carries the magic");
        let (decoded, decoded_stats) = parse_binary(&binary).expect("binary parses");
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(decoded_stats, stats);
        // Canonical encoding: re-encoding the decode is byte-identical.
        prop_assert_eq!(to_binary(&decoded, &decoded_stats), binary);
    }

    #[test]
    fn jsonl_export_from_binary_is_lossless(
        events in proptest::collection::vec(arb_record(), 0..40),
    ) {
        let stats = JournalStats::default();
        let (decoded, _) = parse_binary(&to_binary(&events, &stats)).expect("binary parses");
        let jsonl = to_jsonl(&events);
        prop_assert_eq!(to_jsonl(&decoded), jsonl.clone());
        // And the JSONL itself parses back to the schema-level view.
        // Compared *rendered*: JSON cannot distinguish `I64(5)` from
        // `U64(5)`, so Json-level equality would be spuriously strict.
        let parsed = parse_jsonl(&jsonl).expect("exported JSONL parses");
        let expected = to_events(&events);
        prop_assert_eq!(parsed.len(), expected.len());
        for (p, e) in parsed.iter().zip(&expected) {
            prop_assert_eq!((p.seq, p.trace, p.tid, &p.kind), (e.seq, e.trace, e.tid, &e.kind));
            prop_assert_eq!(p.data.render(), e.data.render());
        }
    }

    #[test]
    fn stream_decoder_matches_parse_binary_at_any_chunk_size(
        events in proptest::collection::vec(arb_record(), 0..24),
        stats in arb_stats(),
        chunk in 1usize..19,
    ) {
        let binary = to_binary(&events, &stats);
        let mut dec = StreamDecoder::new();
        let mut streamed = Vec::new();
        // Simulate arrival: `avail` grows by `chunk` bytes per turn; the
        // decoder is offered everything arrived-but-unconsumed and reports
        // via `pos` how much it took (a partial frame consumes nothing and
        // is re-offered once more bytes arrive).
        let mut fed = 0usize;
        let mut avail = 0usize;
        while fed < binary.len() {
            avail = (avail + chunk).min(binary.len());
            let mut pos = 0usize;
            let got = dec.feed(&binary[fed..avail], &mut pos).expect("stream decodes");
            streamed.extend(got);
            prop_assert!(pos <= avail - fed);
            fed += pos;
            if avail == binary.len() && pos == 0 {
                break;
            }
        }
        prop_assert_eq!(fed, binary.len(), "decoder consumed the whole journal");
        prop_assert_eq!(&streamed, &events);
        prop_assert_eq!(dec.stats, stats);
    }
}

/// The adversarial corners, pinned explicitly (the properties above reach
/// them probabilistically): all-max varints and an entirely empty record.
#[test]
fn extreme_records_round_trip() {
    let events = vec![
        EventRecord {
            seq: u64::MAX,
            trace: u64::MAX,
            tid: u32::MAX,
            kind: EventKind::WatchHit {
                iid: u32::MAX,
                addr: u64::MAX,
                value: i64::MIN,
                hit_seq: u64::MAX,
                hit_tid: u32::MAX,
                discovered: true,
            },
        },
        EventRecord {
            seq: 0,
            trace: 0,
            tid: 0,
            kind: EventKind::SketchStepEmitted {
                step: 0,
                iid: 0,
                provenance: Vec::new(),
            },
        },
        EventRecord {
            seq: 1,
            trace: 0,
            tid: 0,
            kind: EventKind::TraceStarted {
                label: String::new(),
            },
        },
    ];
    let stats = JournalStats {
        events_overwritten: u64::MAX,
        oldest_seq: u64::MAX,
    };
    let binary = to_binary(&events, &stats);
    let (decoded, decoded_stats) = parse_binary(&binary).expect("extremes parse");
    assert_eq!(decoded, events);
    assert_eq!(decoded_stats, stats);
    assert_eq!(to_jsonl(&decoded), to_jsonl(&events));
}

/// An empty journal still has a header + meta frame and round-trips.
#[test]
fn empty_journal_round_trips() {
    let stats = JournalStats::default();
    let binary = to_binary(&[], &stats);
    assert!(is_binary(&binary));
    let (decoded, decoded_stats) = parse_binary(&binary).expect("empty journal parses");
    assert!(decoded.is_empty());
    assert_eq!(decoded_stats, stats);
}
