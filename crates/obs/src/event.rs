//! Structured flight-recorder events.
//!
//! Every decision the diagnosis pipeline makes — a slice computed, a
//! statement promoted into tracking, a watchpoint hit, a sketch step
//! emitted — is recorded as one typed [`EventKind`] wrapped in an
//! [`EventRecord`] carrying a globally monotonic sequence number and the
//! current diagnosis trace id. Records are purely *logical*: no wall-clock
//! field exists, so the drained journal is byte-identical across same-seed
//! runs (the same contract counters obey; see the crate docs).
//!
//! Kind strings follow the metric naming scheme, `<layer>.<noun>`:
//! `trace.start`, `slice.computed`, `ast.promoted`, `run.finish`,
//! `watch.hit`, `pt.decoded`, `sketch.step`, `span.begin`, …

use std::borrow::Cow;

use crate::json::Json;

/// The typed payload of one flight-recorder event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A diagnosis began; `label` is the sketch title (one trace id per
    /// diagnosis, all events until [`crate::journal::end_trace`] nest
    /// under it).
    TraceStarted {
        /// Human-readable diagnosis label (the sketch title).
        label: String,
    },
    /// The diagnosis finished.
    TraceFinished {
        /// AsT iterations performed.
        iterations: u64,
        /// Failure recurrences consumed.
        recurrences: u64,
    },
    /// The static slice backing the diagnosis was computed.
    SliceComputed {
        /// Slice criterion (the failing statement's `InstrId`).
        criterion: u32,
        /// Slice size in IR statements.
        len: u64,
        /// Whether alias-aware slicing was enabled.
        alias: bool,
    },
    /// An AsT iteration began.
    IterationStarted {
        /// 1-based iteration number.
        iteration: u64,
        /// Current σ (tracked-portion size).
        sigma: u64,
        /// Statements tracked this iteration (σ-portion + seeds +
        /// discoveries).
        tracked: u64,
    },
    /// A statement joined the tracked set beyond the σ-portion.
    StmtPromoted {
        /// The promoted statement.
        iid: u32,
        /// Why: `"race-seed"` (static race detector) or
        /// `"watch-discovery"` (a watchpoint hit revealed it).
        reason: &'static str,
        /// The event seq that justified the promotion (the discovering
        /// `watch.hit`, or the `slice.computed` event for race seeds).
        via: u64,
        /// σ at promotion time (the AsT input of the decision).
        sigma: u64,
    },
    /// A tracked statement was demoted (refinement proved it never
    /// executes in failing runs).
    StmtDemoted {
        /// The demoted statement.
        iid: u32,
        /// Why the statement left tracking.
        reason: &'static str,
        /// σ at demotion time.
        sigma: u64,
    },
    /// A fleet production run was dispatched.
    RunStarted {
        /// Monotonic run id.
        run: u64,
        /// Workload seed.
        seed: u64,
    },
    /// A fleet production run completed.
    RunFinished {
        /// Monotonic run id.
        run: u64,
        /// Whether the run failed.
        failing: bool,
        /// Statements the run retired.
        retired: u64,
        /// Watchpoint hits the run collected.
        hits: u64,
    },
    /// The planner produced an instrumentation patch.
    PatchPlanned {
        /// Tracked statements in the patch.
        tracked: u64,
        /// Watchpoint access sites in this cooperative group.
        watch: u64,
        /// Cooperative watch-group index.
        group: u64,
        /// Serialized patch size in bytes.
        bytes: u64,
    },
    /// A hardware watchpoint was armed.
    WatchArmed {
        /// Watched address.
        addr: u64,
        /// Debug-register slot used.
        slot: u64,
    },
    /// A watchpoint hit was attributed to a run (hit attribution happens
    /// when the tracker packages the run's trace).
    WatchHit {
        /// The accessing statement.
        iid: u32,
        /// Accessed address.
        addr: u64,
        /// Observed value.
        value: i64,
        /// The VM's global access sequence number (total order).
        hit_seq: u64,
        /// The accessing thread.
        hit_tid: u32,
        /// True if the statement was *not* tracked — a discovery that
        /// closes the static alias-analysis gap.
        discovered: bool,
    },
    /// One per-core PT buffer segment was decoded. Identical whether the
    /// decode came from the cross-run cache or a cold decode (the cache is
    /// determinism-invisible).
    PtSegmentDecoded {
        /// Core (trace buffer) id.
        core: u32,
        /// Segment index within the decode (= core index today).
        segment: u64,
        /// Encoded bytes in the segment.
        bytes: u64,
        /// Statements decoded from the segment.
        stmts: u64,
    },
    /// A whole run's PT trace finished decoding.
    TraceDecoded {
        /// Total statements decoded.
        stmts: u64,
        /// Branch outcomes recovered.
        branches: u64,
        /// Total encoded PT bytes.
        bytes: u64,
    },
    /// A failure predictor placed in the per-iteration ranking.
    PredictorRanked {
        /// Predictor category (`order` / `branch` / `value`).
        category: String,
        /// 1-based rank within the iteration.
        rank: u64,
        /// Fβ measure ×1000 (integer so the journal stays exact).
        f_milli: u64,
        /// The predictor's primary statement.
        iid: u32,
    },
    /// A sketch step was emitted, with its provenance chain: the event
    /// seq-nos (hit → decode → promotion → slice criterion) that explain
    /// why the step is in the sketch.
    SketchStepEmitted {
        /// 1-based step number within the sketch.
        step: u64,
        /// The step's statement.
        iid: u32,
        /// Event seq-nos justifying the step, most specific first.
        provenance: Vec<u64>,
    },
    /// A span timer opened (`/`-joined path). Journal counterpart of the
    /// wall-clock span; carries no time — the Chrome export synthesizes
    /// timestamps from seq order.
    SpanBegin {
        /// Full `/`-joined span path: borrowed from the interned span
        /// tree when recorded, owned when decoded.
        path: Cow<'static, str>,
    },
    /// A span timer closed.
    SpanEnd {
        /// Full `/`-joined span path.
        path: Cow<'static, str>,
    },
}

impl EventKind {
    /// The stable kind string (`<layer>.<noun>`) used in the journal and
    /// by `gist-trace grep`.
    pub fn kind_str(&self) -> &'static str {
        match self {
            EventKind::TraceStarted { .. } => "trace.start",
            EventKind::TraceFinished { .. } => "trace.finish",
            EventKind::SliceComputed { .. } => "slice.computed",
            EventKind::IterationStarted { .. } => "ast.iteration",
            EventKind::StmtPromoted { .. } => "ast.promoted",
            EventKind::StmtDemoted { .. } => "ast.demoted",
            EventKind::RunStarted { .. } => "run.start",
            EventKind::RunFinished { .. } => "run.finish",
            EventKind::PatchPlanned { .. } => "tracking.plan",
            EventKind::WatchArmed { .. } => "watch.armed",
            EventKind::WatchHit { .. } => "watch.hit",
            EventKind::PtSegmentDecoded { .. } => "pt.segment",
            EventKind::TraceDecoded { .. } => "pt.decoded",
            EventKind::PredictorRanked { .. } => "predictor.ranked",
            EventKind::SketchStepEmitted { .. } => "sketch.step",
            EventKind::SpanBegin { .. } => "span.begin",
            EventKind::SpanEnd { .. } => "span.end",
        }
    }

    /// The payload as a JSON object (member order fixed per kind, so the
    /// rendered journal is byte-stable).
    pub fn data_value(&self) -> Json {
        let u = Json::U64;
        match self {
            EventKind::TraceStarted { label } => {
                Json::Obj(vec![("label".into(), Json::Str(label.clone()))])
            }
            EventKind::TraceFinished {
                iterations,
                recurrences,
            } => Json::Obj(vec![
                ("iterations".into(), u(*iterations)),
                ("recurrences".into(), u(*recurrences)),
            ]),
            EventKind::SliceComputed {
                criterion,
                len,
                alias,
            } => Json::Obj(vec![
                ("criterion".into(), u(u64::from(*criterion))),
                ("len".into(), u(*len)),
                ("alias".into(), Json::Bool(*alias)),
            ]),
            EventKind::IterationStarted {
                iteration,
                sigma,
                tracked,
            } => Json::Obj(vec![
                ("iteration".into(), u(*iteration)),
                ("sigma".into(), u(*sigma)),
                ("tracked".into(), u(*tracked)),
            ]),
            EventKind::StmtPromoted {
                iid,
                reason,
                via,
                sigma,
            } => Json::Obj(vec![
                ("iid".into(), u(u64::from(*iid))),
                ("reason".into(), Json::Str((*reason).to_owned())),
                ("via".into(), u(*via)),
                ("sigma".into(), u(*sigma)),
            ]),
            EventKind::StmtDemoted { iid, reason, sigma } => Json::Obj(vec![
                ("iid".into(), u(u64::from(*iid))),
                ("reason".into(), Json::Str((*reason).to_owned())),
                ("sigma".into(), u(*sigma)),
            ]),
            EventKind::RunStarted { run, seed } => {
                Json::Obj(vec![("run".into(), u(*run)), ("seed".into(), u(*seed))])
            }
            EventKind::RunFinished {
                run,
                failing,
                retired,
                hits,
            } => Json::Obj(vec![
                ("run".into(), u(*run)),
                ("failing".into(), Json::Bool(*failing)),
                ("retired".into(), u(*retired)),
                ("hits".into(), u(*hits)),
            ]),
            EventKind::PatchPlanned {
                tracked,
                watch,
                group,
                bytes,
            } => Json::Obj(vec![
                ("tracked".into(), u(*tracked)),
                ("watch".into(), u(*watch)),
                ("group".into(), u(*group)),
                ("bytes".into(), u(*bytes)),
            ]),
            EventKind::WatchArmed { addr, slot } => {
                Json::Obj(vec![("addr".into(), u(*addr)), ("slot".into(), u(*slot))])
            }
            EventKind::WatchHit {
                iid,
                addr,
                value,
                hit_seq,
                hit_tid,
                discovered,
            } => Json::Obj(vec![
                ("iid".into(), u(u64::from(*iid))),
                ("addr".into(), u(*addr)),
                ("value".into(), Json::I64(*value)),
                ("hit_seq".into(), u(*hit_seq)),
                ("hit_tid".into(), u(u64::from(*hit_tid))),
                ("discovered".into(), Json::Bool(*discovered)),
            ]),
            EventKind::PtSegmentDecoded {
                core,
                segment,
                bytes,
                stmts,
            } => Json::Obj(vec![
                ("core".into(), u(u64::from(*core))),
                ("segment".into(), u(*segment)),
                ("bytes".into(), u(*bytes)),
                ("stmts".into(), u(*stmts)),
            ]),
            EventKind::TraceDecoded {
                stmts,
                branches,
                bytes,
            } => Json::Obj(vec![
                ("stmts".into(), u(*stmts)),
                ("branches".into(), u(*branches)),
                ("bytes".into(), u(*bytes)),
            ]),
            EventKind::PredictorRanked {
                category,
                rank,
                f_milli,
                iid,
            } => Json::Obj(vec![
                ("category".into(), Json::Str(category.clone())),
                ("rank".into(), u(*rank)),
                ("f_milli".into(), u(*f_milli)),
                ("iid".into(), u(u64::from(*iid))),
            ]),
            EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            } => Json::Obj(vec![
                ("step".into(), u(*step)),
                ("iid".into(), u(u64::from(*iid))),
                (
                    "provenance".into(),
                    Json::Arr(provenance.iter().map(|&s| u(s)).collect()),
                ),
            ]),
            EventKind::SpanBegin { path } | EventKind::SpanEnd { path } => {
                Json::Obj(vec![("path".into(), Json::Str(path.to_string()))])
            }
        }
    }
}

/// One recorded event: a typed payload plus the journal bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Globally monotonic sequence number (1-based; 0 is the "not
    /// journaled" sentinel returned when recording is off or capped).
    pub seq: u64,
    /// The diagnosis trace id active when the event fired (0 = none).
    pub trace: u64,
    /// Journal-assigned thread index (0 = first recording thread after a
    /// reset; deterministic under sequential execution).
    pub tid: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl EventRecord {
    /// The record as one JSON journal line value.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), Json::U64(self.seq)),
            ("trace".into(), Json::U64(self.trace)),
            ("tid".into(), Json::U64(u64::from(self.tid))),
            ("kind".into(), Json::Str(self.kind.kind_str().to_owned())),
            ("data".into(), self.kind.data_value()),
        ])
    }

    /// The record in the parsed (schema-level) representation.
    pub fn to_event(&self) -> JournalEvent {
        JournalEvent {
            seq: self.seq,
            trace: self.trace,
            tid: self.tid,
            kind: self.kind.kind_str().to_owned(),
            data: self.kind.data_value(),
        }
    }
}

/// The schema-level view of one journal line: what `gist-trace` works
/// with after parsing a JSONL journal (typed in-process records convert
/// via [`EventRecord::to_event`]).
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Diagnosis trace id (0 = none).
    pub trace: u64,
    /// Journal-assigned thread index.
    pub tid: u32,
    /// Kind string (`watch.hit`, `sketch.step`, …).
    pub kind: String,
    /// Kind-specific payload object.
    pub data: Json,
}

impl JournalEvent {
    /// Fetches a field from the payload object.
    pub fn field<'a>(&'a self, name: &str) -> Option<&'a Json> {
        match &self.data {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Fetches an unsigned integer field from the payload.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Json::U64(n)) => Some(*n),
            Some(Json::I64(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Fetches a string field from the payload.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }
}
