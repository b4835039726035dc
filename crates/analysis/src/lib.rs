//! Static analyses over the MiniC IR.
//!
//! Gist's server-side pipeline (paper §3) runs entirely on static program
//! structure before any production run is instrumented: it slices backwards
//! from the failure, then picks instrumentation points. This crate adds the
//! two static analyses that sit naturally in front of that pipeline:
//!
//! * an **IR verifier and lint** ([`verify`]) that rejects malformed
//!   programs (bad branch targets, undominated register uses, call arity
//!   mismatches, textual blocks without terminators) and warns about
//!   suspicious-but-legal shapes (dead blocks, write-only globals), with
//!   `error[GA0xx]`-style diagnostics carrying source locations, and
//! * a **static data race detector** ([`race`]) in the lockset tradition of
//!   Eraser/RELAY: a thread-escape analysis over the TICFG finds memory
//!   that is reachable from more than one thread, a flow-sensitive lockset
//!   analysis computes the locks held at each shared access, and accesses
//!   on overlapping cells with disjoint locksets become ranked
//!   [`race::RaceCandidate`]s.
//!
//! The race ranking feeds two consumers downstream: the instrumentation
//! planner orders hardware watchpoints by race rank instead of slice order
//! (so the four DR registers go to the most suspicious accesses first), and
//! the Gist server seeds the first Adaptive Slice Tracking iteration with
//! race-candidate statements, which lets accesses that are invisible to the
//! alias-free data-flow slice (a racing `free`, for instance) be tracked
//! from recurrence one.
//!
//! Underneath the lints sits a **monotone dataflow framework**
//! ([`dataflow`]): one worklist solver over the TICFG parameterised by
//! direction, join, and transfer, with interprocedural propagation riding
//! the graph's call/return/spawn edges. It powers reaching definitions,
//! register liveness, memory-cell liveness (whose complement is the
//! dead-store set the watchpoint planner prunes against), and a sparse
//! constant propagation that fills sketch `value_note`s statically. The
//! [`deadlock`] module adds a lock-order-graph detector on top of the
//! race detector's lockset stage, predicting ABBA inversions before any
//! run observes them.
//!
//! On top of the dataflow framework sits a **sparse value-flow graph**
//! ([`svfg`]): interprocedural def-use chains with 1-CFA call/return
//! binding and a branch-condition path-feasibility pruner, built so every
//! edge is a filtered version of what the legacy slicer would pull (SVFG
//! backward slices are subsets of TICFG slices by construction). The
//! [`lint`] module uses it for the `gist-lint` detector suite:
//! use-after-free/double-free (`GA020`/`GA021`), atomicity-violation
//! candidates ranked by interleaving pattern (`GA022`), and Casper-style
//! null-value flow into dereferences (`GA023`).
//!
//! The third static pillar is the **happens-before/MHP relation**
//! ([`mhp`]): a thread-structure-aware happens-before graph (spawn/join
//! edges, lock regions, join-before-spawn chaining) solved into a
//! per-pair fact lattice — must-precede > sequential > lock-excluded >
//! parallel. It screens the lint suite's cross-thread findings, adds the
//! order-violation detector (`GA024`), lets the watchpoint planner and
//! the Gist server skip never-parallel stores and statically-impossible
//! interleaving hypotheses, and drives the [`predict`] module's *static
//! predicted failure sketches*: per finding, the minimal two-thread
//! ordering behind the failure, diffable against the dynamic sketches
//! the runtime pipeline reconstructs.
//!
//! Every program-wide fact — TICFG, points-to, the [`ThreadModel`]
//! (spawn sites, thread contexts, locksets, shared origins), constant
//! propagation, SVFG, MHP, race candidates and dead stores — lives in one
//! lazily filled [`pass::ProgramFacts`] per program, so each is computed at
//! most once and shared: the slicer owns one and exposes it to the Gist
//! server, the sketch engine and the planner, and the [`pass::Pass`]es run
//! by a [`pass::PassManager`] all borrow the same instance.

pub mod bitset;
pub mod dataflow;
pub mod deadlock;
pub mod diag;
pub mod ground_truth;
pub mod lint;
pub mod mhp;
pub mod pass;
pub mod points_to;
pub mod predict;
pub mod race;
pub mod svfg;
pub mod threads;
pub mod verify;

pub use bitset::{BitIndex, BitSet, StmtSet};
pub use dataflow::{
    dead_stores, live_variables, reaching_definitions, solve, ConstProp, ConstVal,
    DataflowAnalysis, DeadStoreLintPass, Direction, Liveness, MemLiveness, ReachingDefs, Solution,
    VarSet,
};
pub use deadlock::{DeadlockAnalysis, DeadlockCycle, DeadlockLintPass, LockOrderEdge};
pub use diag::{has_errors, render_report, sort_diagnostics, Diagnostic, Severity};
pub use ground_truth::{
    code_histogram, diag_references_line, findings_on_lines, lint_all, prediction_covers,
    predictions,
};
pub use lint::{
    lint_passes, AtomicityLintPass, AvPattern, NullFlowLintPass, OrderLintPass, UafLintPass,
};
pub use mhp::{LockRegion, LockSummary, Mhp, OrderFact};
pub use pass::{default_passes, Pass, PassManager, ProgramFacts};
pub use points_to::{Loc, LocSet, MemOrigin, PointsTo};
pub use predict::{predicted_sketches, render_prediction, PredictedSketch, PredictedStep};
pub use race::{analyze, AccessKind, RaceAnalysis, RaceCandidate, RaceEndpoint};
pub use svfg::{Feasibility, Svfg, SvfgEdge, SvfgEdgeKind};
pub use threads::ThreadModel;
pub use verify::{verify, verify_source, SourceVerification};
