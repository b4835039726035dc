//! The PT decoder: packets + static CFG → executed statement sequence.
//!
//! A real PT decoder walks the program binary alongside the packet stream:
//! straight-line code and direct branches are followed from the binary
//! alone; each conditional branch consumes one TNT bit; each indirect
//! transfer consumes a TIP packet; compressed RETs pop the decoder's own
//! call stack. This module does exactly that over MiniC programs, reading
//! each statement's successors from the program's shared lowering
//! ([`CompiledProgram::flow`]) rather than re-resolving the IR per step.
//!
//! The output of decoding is what Gist's refinement step consumes: the set
//! (and per-core sequence) of statements that *actually executed* during
//! the traced windows (paper §3.2.2: "control flow traces identify
//! statements that get executed during production runs").

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use gist_ir::{InstrId, Program};
use gist_vm::{CompiledProgram, StmtFlow};

use crate::packet::Packet;

/// A decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream was malformed.
    BadBytes(String),
    /// A packet arrived that the walker state cannot apply.
    Desync {
        /// Explanation.
        what: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadBytes(m) => write!(f, "malformed packet bytes: {m}"),
            DecodeError::Desync { what } => write!(f, "decoder desync: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The decoded control flow of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedTrace {
    /// Per-core statement sequences `(tid, stmt)`, in core-trace order.
    /// Only *per-core* order is meaningful — Intel PT does not order
    /// across cores (paper §6).
    pub per_core: Vec<Vec<(u32, InstrId)>>,
    /// Branch outcomes observed: `(tid, condbr stmt, taken)`.
    pub branches: Vec<(u32, InstrId, bool)>,
    /// True if any core's buffer overflowed (OVF seen).
    pub overflowed: bool,
}

impl DecodedTrace {
    /// All distinct statements that executed, across cores.
    pub fn executed(&self) -> HashSet<InstrId> {
        self.per_core
            .iter()
            .flat_map(|c| c.iter().map(|&(_, s)| s))
            .collect()
    }

    /// The statements executed by one thread, in that thread's order.
    /// (Within one thread, per-core order *is* program order because a
    /// thread never migrates cores in the VM.)
    pub fn thread_stmts(&self, tid: u32) -> Vec<InstrId> {
        self.per_core
            .iter()
            .flat_map(|c| c.iter())
            .filter(|&&(t, _)| t == tid)
            .map(|&(_, s)| s)
            .collect()
    }
}

/// What a walker needs next.
enum Need {
    /// A TNT bit (walker is at a conditional branch).
    Tnt,
    /// A TIP packet (indirect call, or ret with empty decoder stack).
    Tip,
}

/// Per-thread walker state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Walker {
    /// Next statement to execute (None = window closed).
    pos: Option<InstrId>,
    /// Return-site stack for RET compression.
    stack: Vec<InstrId>,
    /// Last statement emitted for this walker (PGD/FUP may point at it
    /// when the window closed immediately after a consumed decision).
    last_emitted: Option<InstrId>,
}

/// One core's walkers by tid (threads never migrate cores). A `BTreeMap`:
/// cores carry a handful of threads, and iteration comes out sorted for
/// [`StateSnapshot`].
type Walkers = BTreeMap<u32, Walker>;

/// Applies a run of packets to the decoder state, emitting statements into
/// `core_seq` and branches into `out`. This is the core-decode inner loop,
/// shared between the cold path and per-segment cache misses.
fn apply_packets(
    code: &CompiledProgram,
    packets: &[Packet],
    out: &mut DecodedTrace,
    core_seq: &mut Vec<(u32, InstrId)>,
    walkers: &mut Walkers,
    current: &mut Option<u32>,
) -> Result<(), DecodeError> {
    for p in packets {
        match p {
            Packet::Psb => {}
            Packet::Ovf => {
                out.overflowed = true;
                // All walker state on this core is unreliable now.
                for (_, w) in walkers.iter_mut() {
                    w.pos = None;
                }
            }
            Packet::Pip { tid } => *current = Some(*tid),
            Packet::Pge { ip } => {
                let tid = (*current).ok_or_else(|| DecodeError::Desync {
                    what: "PGE before any PIP".into(),
                })?;
                let w = walkers.entry(tid).or_default();
                w.pos = Some(*ip);
                w.stack.clear();
            }
            Packet::Tnt { bits } => {
                let tid = (*current).ok_or_else(|| DecodeError::Desync {
                    what: "TNT before any PIP".into(),
                })?;
                let w = walkers.entry(tid).or_default();
                for &taken in bits {
                    let condbr = walk_to_need(code, w, tid, core_seq, Need::Tnt)?;
                    out.branches.push((tid, condbr, taken));
                    let target = match code.flow(condbr) {
                        StmtFlow::CondBr { then_to, else_to } => {
                            if taken {
                                then_to
                            } else {
                                else_to
                            }
                        }
                        _ => {
                            return Err(DecodeError::Desync {
                                what: format!("TNT bit but walker not at condbr ({condbr})"),
                            })
                        }
                    };
                    w.pos = Some(target);
                }
            }
            Packet::Tip { ip } => {
                let tid = (*current).ok_or_else(|| DecodeError::Desync {
                    what: "TIP before any PIP".into(),
                })?;
                let w = walkers.entry(tid).or_default();
                let at = walk_to_need(code, w, tid, core_seq, Need::Tip)?;
                // An indirect call pushes its return site before jumping.
                if let StmtFlow::IndirectCall { ret_to } = code.flow(at) {
                    w.stack.push(ret_to);
                }
                w.pos = Some(*ip);
            }
            Packet::Pgd { ip } | Packet::Fup { ip } => {
                let tid = (*current).ok_or_else(|| DecodeError::Desync {
                    what: "PGD/FUP before any PIP".into(),
                })?;
                let w = walkers.entry(tid).or_default();
                walk_until_ip(code, w, tid, core_seq, *ip)?;
                w.pos = None;
            }
        }
    }
    Ok(())
}

/// Decodes one core's byte stream, cache-cold.
fn decode_core(
    code: &CompiledProgram,
    bytes: &[u8],
    out: &mut DecodedTrace,
    core_seq: &mut Vec<(u32, InstrId)>,
) -> Result<(), DecodeError> {
    let packets = Packet::decode_all(bytes).map_err(DecodeError::BadBytes)?;
    gist_obs::counter!("pt.packets_decoded").add(packets.len() as u64);
    let mut walkers = Walkers::new();
    let mut current: Option<u32> = None;
    apply_packets(code, &packets, out, core_seq, &mut walkers, &mut current)
}

/// Decoder state at a segment boundary: which thread the core's stream is
/// attributed to, plus every walker, sorted by tid for stable comparison.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct StateSnapshot {
    current: Option<u32>,
    walkers: Vec<(u32, Walker)>,
}

fn snapshot(walkers: &Walkers, current: Option<u32>) -> StateSnapshot {
    StateSnapshot {
        current,
        walkers: walkers.iter().map(|(&t, w)| (t, w.clone())).collect(),
    }
}

/// One memoized decode of a PSB-delimited packet segment.
#[derive(Debug)]
struct CacheEntry {
    /// Full key, verified on every hit (the map key is only a hash).
    fingerprint: u64,
    entry_state: StateSnapshot,
    bytes: Vec<u8>,
    /// Replay data: exactly what [`apply_packets`] emitted for the segment.
    seq: Vec<(u32, InstrId)>,
    branches: Vec<(u32, InstrId, bool)>,
    overflowed: bool,
    exit_state: StateSnapshot,
}

/// A cross-run PT decode cache, keyed by PSB-delimited packet segments.
///
/// Real PT streams resynchronize at periodic PSB packets; fleets of runs
/// over the same program re-emit many identical segments (same windows,
/// same control flow). The cache memoizes *(program fingerprint, decoder
/// state at segment entry, segment bytes)* → *(emitted statements,
/// branches, overflow flag, decoder state at segment exit)*, so a repeat
/// segment replays without walking the CFG.
///
/// Guarantees:
///
/// * **Identical output.** A hit replays exactly what the cold decode of
///   the same segment from the same entry state would emit; the full key
///   is compared on every probe, so hash collisions fall back to a cold
///   decode.
/// * **Determinism-invisible.** The cache records no observability
///   metrics: decode counters (`pt.packets_decoded`, `pt.stmts_decoded`,
///   ...) count the same logical work whether or not a segment hits, so
///   warm-cache runs stay byte-identical to cold ones.
/// * Only successful decodes are cached; a [`DecodeError`] caches nothing.
///
/// Thread-safe sharing model: the cache holds an *epoch-published*
/// read-only snapshot (`Arc<HashMap<…>>`) behind a mutex that is touched
/// only at publish/refresh points, never per segment. Decoding goes through
/// a [`DecodeCacheShard`] — a single-owner view holding the snapshot `Arc`
/// plus a private map of fresh entries — so the hot loop probes plain
/// `HashMap`s with zero lock acquisitions. Fleet workers refresh their
/// shard at batch start and [`DecodeCache::absorb`] it at batch end, which
/// copy-on-write-merges the fresh entries and publishes a new snapshot for
/// the next epoch.
#[derive(Debug, Default)]
pub struct DecodeCache {
    published: Mutex<Arc<HashMap<u64, Arc<CacheEntry>>>>,
}

impl DecodeCache {
    /// Retention bound: beyond this many segments, new entries are not
    /// inserted (steady-state fleets reuse a small working set).
    const MAX_ENTRIES: usize = 4096;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized segments in the published snapshot.
    pub fn len(&self) -> usize {
        self.published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// True if nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates a shard warmed from the current published snapshot.
    pub fn shard(&self) -> DecodeCacheShard {
        DecodeCacheShard {
            snapshot: Arc::clone(&self.published.lock().unwrap_or_else(|e| e.into_inner())),
            fresh: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Merges the shard's fresh entries into the cache and publishes a new
    /// snapshot, then re-points the shard at it (so the shard can keep
    /// decoding in the next epoch without a separate refresh). Statistics
    /// are left on the shard for the caller to harvest.
    ///
    /// Insertion respects [`DecodeCache::MAX_ENTRIES`]; concurrent absorbs
    /// of the same segment from two shards keep whichever lands second —
    /// both map to identical replay data, so the choice is unobservable.
    pub fn absorb(&self, shard: &mut DecodeCacheShard) {
        let mut published = self.published.lock().unwrap_or_else(|e| e.into_inner());
        if shard.fresh.is_empty() {
            shard.snapshot = Arc::clone(&published);
            return;
        }
        let mut merged: HashMap<u64, Arc<CacheEntry>> = (**published).clone();
        for (hash, entry) in shard.fresh.drain() {
            if merged.len() >= Self::MAX_ENTRIES && !merged.contains_key(&hash) {
                continue;
            }
            merged.insert(hash, entry);
        }
        *published = Arc::new(merged);
        shard.snapshot = Arc::clone(&published);
    }
}

/// A single-owner decode view over a [`DecodeCache`]: an immutable epoch
/// snapshot plus privately accumulated fresh entries. Probing and insertion
/// never take a lock; fresh entries become visible to other shards only
/// after [`DecodeCache::absorb`].
///
/// Hit/miss tallies are *scheduling-dependent* (which worker decodes which
/// run, and what its shard has absorbed, varies with thread interleaving),
/// so they are plain fields harvested by the fleet's contention stats — by
/// design they never touch the global metric registry, keeping the
/// deterministic snapshot batch-shape-invariant.
#[derive(Debug)]
pub struct DecodeCacheShard {
    snapshot: Arc<HashMap<u64, Arc<CacheEntry>>>,
    fresh: HashMap<u64, Arc<CacheEntry>>,
    hits: u64,
    misses: u64,
}

impl DecodeCacheShard {
    /// Segment probes answered from the snapshot or fresh map.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Segment probes that fell through to a cold decode.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the hit/miss tallies (typically after harvesting them into a
    /// batch report).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Re-points the shard at `cache`'s current published snapshot without
    /// contributing the shard's fresh entries (use [`DecodeCache::absorb`]
    /// to contribute *and* refresh).
    pub fn refresh(&mut self, cache: &DecodeCache) {
        self.snapshot = Arc::clone(&cache.published.lock().unwrap_or_else(|e| e.into_inner()));
    }

    fn lookup(&self, hash: u64) -> Option<&Arc<CacheEntry>> {
        self.snapshot.get(&hash).or_else(|| self.fresh.get(&hash))
    }

    fn insert(&mut self, hash: u64, entry: CacheEntry) {
        if self.snapshot.len() + self.fresh.len() < DecodeCache::MAX_ENTRIES {
            self.fresh.insert(hash, Arc::new(entry));
        }
    }
}

fn segment_hash(fingerprint: u64, entry_state: &StateSnapshot, seg_bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    fingerprint.hash(&mut h);
    entry_state.hash(&mut h);
    seg_bytes.hash(&mut h);
    h.finish()
}

/// Decodes one core's byte stream through a segment-cache shard.
fn decode_core_cached(
    code: &CompiledProgram,
    bytes: &[u8],
    out: &mut DecodedTrace,
    core_seq: &mut Vec<(u32, InstrId)>,
    shard: &mut DecodeCacheShard,
) -> Result<(), DecodeError> {
    let packets = Packet::decode_all(bytes).map_err(DecodeError::BadBytes)?;
    gist_obs::counter!("pt.packets_decoded").add(packets.len() as u64);
    let fingerprint = code.source_fingerprint();
    let mut walkers = Walkers::new();
    let mut current: Option<u32> = None;
    // Byte offset of each packet, so segments key on their raw bytes.
    let mut offsets = Vec::with_capacity(packets.len() + 1);
    let mut off = 0usize;
    for p in &packets {
        offsets.push(off);
        off += p.encoded_len();
    }
    offsets.push(off);
    // Each PSB resync point starts a new segment.
    let mut bounds: Vec<usize> = vec![0];
    for (i, p) in packets.iter().enumerate() {
        if i > 0 && matches!(p, Packet::Psb) {
            bounds.push(i);
        }
    }
    bounds.push(packets.len());
    for w in bounds.windows(2) {
        let (p0, p1) = (w[0], w[1]);
        if p0 == p1 {
            continue;
        }
        let seg_bytes = &bytes[offsets[p0]..offsets[p1]];
        let entry_state = snapshot(&walkers, current);
        let hash = segment_hash(fingerprint, &entry_state, seg_bytes);
        let hit = match shard.lookup(hash) {
            Some(e)
                if e.fingerprint == fingerprint
                    && e.entry_state == entry_state
                    && e.bytes == seg_bytes =>
            {
                core_seq.extend_from_slice(&e.seq);
                out.branches.extend_from_slice(&e.branches);
                out.overflowed |= e.overflowed;
                walkers = e.exit_state.walkers.iter().cloned().collect();
                current = e.exit_state.current;
                true
            }
            _ => false,
        };
        if hit {
            shard.hits += 1;
            continue;
        }
        shard.misses += 1;
        let seq0 = core_seq.len();
        let br0 = out.branches.len();
        apply_packets(
            code,
            &packets[p0..p1],
            out,
            core_seq,
            &mut walkers,
            &mut current,
        )?;
        let entry = CacheEntry {
            fingerprint,
            entry_state,
            bytes: seg_bytes.to_vec(),
            seq: core_seq[seq0..].to_vec(),
            branches: out.branches[br0..].to_vec(),
            // OVF is the only packet that sets the flag, so the segment's
            // contribution is exactly "did it contain an OVF".
            overflowed: packets[p0..p1].iter().any(|p| matches!(p, Packet::Ovf)),
            exit_state: snapshot(&walkers, current),
        };
        shard.insert(hash, entry);
    }
    Ok(())
}

/// Decodes all cores' streams of one run.
pub fn decode(program: &Program, core_bytes: &[Vec<u8>]) -> Result<DecodedTrace, DecodeError> {
    decode_inner(program, core_bytes, None)
}

/// Like [`decode`], but memoizes PSB-delimited segments in `cache`. The
/// result is guaranteed identical to [`decode`] on the same input — see
/// [`DecodeCache`] for the contract.
///
/// Convenience wrapper over the shard API: snapshots the cache, decodes
/// lock-free, then absorbs fresh segments back — two lock acquisitions per
/// run instead of the shard-less one-per-segment. Long-lived callers (fleet
/// workers) should hold a [`DecodeCacheShard`] across runs and use
/// [`decode_with_shard`] instead.
pub fn decode_with_cache(
    program: &Program,
    core_bytes: &[Vec<u8>],
    cache: &DecodeCache,
) -> Result<DecodedTrace, DecodeError> {
    let mut shard = cache.shard();
    let out = decode_inner(program, core_bytes, Some(&mut shard));
    cache.absorb(&mut shard);
    out
}

/// Like [`decode`], but memoizes PSB-delimited segments in the caller's
/// [`DecodeCacheShard`] with zero lock acquisitions. Output is guaranteed
/// identical to [`decode`] on the same input.
pub fn decode_with_shard(
    program: &Program,
    core_bytes: &[Vec<u8>],
    shard: &mut DecodeCacheShard,
) -> Result<DecodedTrace, DecodeError> {
    decode_inner(program, core_bytes, Some(shard))
}

fn decode_inner(
    program: &Program,
    core_bytes: &[Vec<u8>],
    mut shard: Option<&mut DecodeCacheShard>,
) -> Result<DecodedTrace, DecodeError> {
    let _span = gist_obs::span("pt.decode");
    gist_obs::counter!("pt.decodes").inc();
    gist_obs::counter!("pt.bytes_decoded")
        .add(core_bytes.iter().map(|b| b.len() as u64).sum::<u64>());
    let code = CompiledProgram::shared(program);
    let mut out = DecodedTrace::default();
    for (core, bytes) in core_bytes.iter().enumerate() {
        let mut seq = Vec::new();
        match shard.as_deref_mut() {
            Some(s) => decode_core_cached(&code, bytes, &mut out, &mut seq, s)?,
            None => decode_core(&code, bytes, &mut out, &mut seq)?,
        }
        // One journal event per core buffer, recorded after the decode so
        // the payload is identical whether the segment cache hit or missed
        // (the cache must stay observation-invisible).
        gist_obs::event!(PtSegmentDecoded {
            core: core as u32,
            segment: core as u64,
            bytes: bytes.len() as u64,
            stmts: seq.len() as u64,
        });
        out.per_core.push(seq);
    }
    gist_obs::counter!("pt.stmts_decoded")
        .add(out.per_core.iter().map(|c| c.len() as u64).sum::<u64>());
    Ok(out)
}

/// Advances `tid`'s walker, emitting statements, until it reaches a
/// statement that needs the given packet kind. Returns that statement
/// (also emitted).
fn walk_to_need(
    code: &CompiledProgram,
    w: &mut Walker,
    tid: u32,
    seq: &mut Vec<(u32, InstrId)>,
    need: Need,
) -> Result<InstrId, DecodeError> {
    let mut guard = 0usize;
    loop {
        let pos = w.pos.ok_or_else(|| DecodeError::Desync {
            what: format!("packet for tid {tid} with no open window"),
        })?;
        guard += 1;
        if guard > 10_000_000 {
            return Err(DecodeError::Desync {
                what: "walker did not reach a decision point".into(),
            });
        }
        match classify(code, pos, &mut w.stack) {
            Step::Plain(next) => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                w.pos = Some(next);
            }
            Step::End => {
                return Err(DecodeError::Desync {
                    what: format!("walker fell off the program at {pos}"),
                });
            }
            Step::NeedTnt => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                return match need {
                    Need::Tnt => Ok(pos),
                    Need::Tip => Err(DecodeError::Desync {
                        what: format!("expected TIP consumer, found condbr at {pos}"),
                    }),
                };
            }
            Step::NeedTip => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                return match need {
                    Need::Tip => Ok(pos),
                    Need::Tnt => Err(DecodeError::Desync {
                        what: format!("expected condbr, found TIP consumer at {pos}"),
                    }),
                };
            }
        }
    }
}

/// Advances the walker, emitting statements, until `ip` is emitted.
fn walk_until_ip(
    code: &CompiledProgram,
    w: &mut Walker,
    tid: u32,
    seq: &mut Vec<(u32, InstrId)>,
    ip: InstrId,
) -> Result<(), DecodeError> {
    // The window may close immediately after a consumed decision point; the
    // PGD/FUP ip then names the statement the walker just emitted.
    if w.last_emitted == Some(ip) {
        return Ok(());
    }
    let mut guard = 0usize;
    loop {
        let pos = match w.pos {
            Some(p) => p,
            // Window already closed (e.g. FUP then PGD): nothing to do.
            None => return Ok(()),
        };
        seq.push((tid, pos));
        w.last_emitted = Some(pos);
        if pos == ip {
            return Ok(());
        }
        guard += 1;
        if guard > 10_000_000 {
            return Err(DecodeError::Desync {
                what: format!("never reached PGD/FUP ip {ip}"),
            });
        }
        match classify(code, pos, &mut w.stack) {
            Step::Plain(next) => w.pos = Some(next),
            Step::End | Step::NeedTnt | Step::NeedTip => {
                return Err(DecodeError::Desync {
                    what: format!("hit decision point {pos} before PGD/FUP target {ip}"),
                });
            }
        }
    }
}

/// How the walker leaves statement `pos`. May pop `stack` for rets and
/// push it for direct calls.
enum Step {
    /// Deterministic successor.
    Plain(InstrId),
    /// Conditional branch: needs a TNT bit.
    NeedTnt,
    /// Indirect transfer: needs a TIP packet.
    NeedTip,
    /// No successor (thread exit via ret with empty stack handled as
    /// NeedTip in real PT; End is for unreachable).
    End,
}

fn classify(code: &CompiledProgram, pos: InstrId, stack: &mut Vec<InstrId>) -> Step {
    match code.flow(pos) {
        StmtFlow::Next(next) => Step::Plain(next),
        StmtFlow::Call { entry, ret_to } => {
            stack.push(ret_to);
            Step::Plain(entry)
        }
        StmtFlow::IndirectCall { .. } => Step::NeedTip,
        StmtFlow::CondBr { .. } => Step::NeedTnt,
        StmtFlow::Ret => match stack.pop() {
            Some(site) => Step::Plain(site),
            None => Step::NeedTip,
        },
        StmtFlow::End => Step::End,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PtDriver;
    use crate::tracer::{PtConfig, PtTracer};
    use gist_ir::parser::parse_program;
    use gist_vm::{Event, Observer, SchedulerKind, Vm, VmConfig};

    /// Runs with full tracing and checks the decoded statement stream for
    /// each thread matches exactly the statements the VM retired.
    fn assert_roundtrip(text: &str, cfg: VmConfig) {
        let p = parse_program("t", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: cfg.num_cores,
                buffer_capacity: crate::buffer::DEFAULT_CAPACITY,
            },
        );
        let mut truth = gist_vm::event::EventLog::default();
        let mut vm = Vm::new(&p, cfg);
        vm.run(&mut [&mut truth, &mut tracer]);
        tracer.finish();
        let traces = tracer.take_traces();
        let decoded = decode(&p, &traces).expect("decode");
        assert!(!decoded.overflowed);
        // Per-thread retired sequences from ground truth.
        let mut tids: Vec<u32> = truth
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Retired { tid, .. } => Some(*tid),
                _ => None,
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let truth_seq: Vec<InstrId> = truth
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                    _ => None,
                })
                .collect();
            let got = decoded.thread_stmts(tid);
            assert_eq!(got, truth_seq, "thread {tid} statement stream");
        }
    }

    #[test]
    fn roundtrip_straightline() {
        assert_roundtrip(
            "fn main() {\nentry:\n  x = const 1\n  y = add x, 2\n  print y\n  ret\n}\n",
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_loop() {
        assert_roundtrip(
            r#"
fn main() {
entry:
  n = const 25
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  br head
exit:
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_calls_and_branches() {
        assert_roundtrip(
            r#"
fn collatz(n) {
entry:
  c = cmp eq n, 1
  condbr c, done, step
step:
  r = rem n, 2
  z = cmp eq r, 0
  condbr z, even, odd
even:
  h = div n, 2
  v = call collatz(h)
  ret v
odd:
  t = mul n, 3
  t1 = add t, 1
  v2 = call collatz(t1)
  ret v2
done:
  ret 1
}
fn main() {
entry:
  r = call collatz(27)
  print r
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_indirect_calls() {
        assert_roundtrip(
            r#"
fn inc(x) {
entry:
  y = add x, 1
  ret y
}
fn dec(x) {
entry:
  y = sub x, 1
  ret y
}
fn main() {
entry:
  f1 = funcaddr inc
  f2 = funcaddr dec
  a = icall f1(10)
  b = icall f2(a)
  print b
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_multithreaded_single_core() {
        assert_roundtrip(
            r#"
global x = 0
fn worker(arg) {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 8
  condbr c, body, exit
body:
  v = load $x
  v2 = add v, 1
  store $x, v2
  i = add i, 1
  br head
exit:
  ret
}
fn main() {
entry:
  t1 = spawn worker(0)
  t2 = spawn worker(0)
  join t1
  join t2
  ret
}
"#,
            VmConfig {
                num_cores: 1,
                scheduler: SchedulerKind::Random {
                    seed: 9,
                    preempt: 0.5,
                },
                ..VmConfig::default()
            },
        );
    }

    #[test]
    fn roundtrip_multithreaded_multicore() {
        assert_roundtrip(
            r#"
global m = 0
global x = 0
fn worker(arg) {
entry:
  lock $m
  v = load $x
  v2 = add v, arg
  store $x, v2
  unlock $m
  ret
}
fn main() {
entry:
  t1 = spawn worker(1)
  t2 = spawn worker(2)
  t3 = spawn worker(3)
  join t1
  join t2
  join t3
  v = load $x
  print v
  ret
}
"#,
            VmConfig {
                num_cores: 4,
                scheduler: SchedulerKind::Random {
                    seed: 4,
                    preempt: 0.6,
                },
                ..VmConfig::default()
            },
        );
    }

    #[test]
    fn roundtrip_crashing_run() {
        assert_roundtrip(
            r#"
fn main() {
entry:
  p = alloc 2
  free p
  v = load p
  print v
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn windowed_tracing_decodes_only_the_window() {
        // Enable tracing in the middle of the run; the decoded set must
        // contain only post-enable statements.
        let text = r#"
fn main() {
entry:
  a = const 1
  b = add a, 1
  c = add b, 1
  d = add c, 1
  print d
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = p.function_by_name("main").unwrap();
        let c_iid = main.blocks[0].instrs[2].id;
        let driver = PtDriver::new();
        struct At {
            driver: PtDriver,
            at: InstrId,
        }
        impl Observer for At {
            fn on_event(&mut self, ev: &Event) {
                if let Event::Retired { iid, .. } = ev {
                    if *iid == self.at {
                        self.driver.set_default(true);
                    }
                }
            }
        }
        let mut en = At {
            driver: driver.clone(),
            at: c_iid,
        };
        let mut tracer = PtTracer::new(&p, driver, PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut en, &mut tracer]);
        tracer.finish();
        let decoded = decode(&p, &tracer.take_traces()).unwrap();
        let executed = decoded.executed();
        let a_iid = main.blocks[0].instrs[0].id;
        let d_iid = main.blocks[0].instrs[3].id;
        assert!(!executed.contains(&a_iid), "pre-window stmt must be absent");
        assert!(
            executed.contains(&d_iid),
            "post-enable stmt must be present"
        );
        // The enabler observer runs before the tracer sees c's Retired
        // event, so the window opens exactly at c.
        assert!(executed.contains(&c_iid));
    }

    #[test]
    fn overflow_truncates_but_decodes() {
        let text = r#"
fn main() {
entry:
  n = const 10000
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  br head
exit:
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 4,
                buffer_capacity: 256,
            },
        );
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        assert!(tracer.buffers()[0].overflowed());
        let decoded = decode(&p, &tracer.take_traces()).unwrap();
        assert!(decoded.overflowed);
        // Some prefix decoded.
        assert!(!decoded.per_core[0].is_empty());
    }
}
