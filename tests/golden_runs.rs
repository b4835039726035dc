//! Golden per-run digests of tracked production runs.
//!
//! For every bugbase bug, a σ=8 patch over the failure's SVFG slice is
//! planned once, and runs with seeds `0..64` are pinned in
//! `tests/golden/fleet.runs`, one line per run:
//!
//! * every [`RunResult`] field of the tracked run, plus a digest of the
//!   full observer event stream (the schedule),
//! * the length and FNV-1a digest of each core's bytes from an always-on
//!   [`PtTracer`] over the same schedule,
//! * every [`RunTrace`] field the tracker returns. Journal sequence
//!   numbers (`hit_events`, `decode_event`) depend on what else the
//!   process recorded and on the `metrics-off` feature, so they are
//!   checked structurally instead of pinned.
//!
//! The same runs are then collected through a sequential and a pooled
//! [`SimulatedFleet`], whose traces must render identically to the direct
//! run. Unlike the compiled-vs-treewalk differential, which runs the same
//! tracker on both sides, this pins the VM, PT, watch, tracking and fleet
//! layers against recorded output.
//!
//! To accept an intentional change, regenerate the snapshot:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gist-bench --test golden_runs
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use gist_bugbase::{all_bugs, BugSpec};
use gist_coop::{FleetConfig, SimulatedFleet};
use gist_core::Fleet;
use gist_pt::{PtConfig, PtDriver, PtTracer};
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner, RunTrace, TrackerRuntime};
use gist_vm::event::EventLog;
use gist_vm::{FailureReport, RunResult, Vm};

/// Slice prefix length of the pinned patches.
const SIGMA: usize = 8;
/// Seeds pinned per bug.
const SEEDS: u64 = 64;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fleet.runs")
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// `len:digest` of a sequence, hashed element by element.
fn seq_digest<T: std::fmt::Debug>(items: &[T]) -> String {
    let mut h = Fnv::new();
    for i in items {
        h.debug(i);
    }
    format!("{}:{:016x}", items.len(), h.0)
}

fn ids(set: &std::collections::BTreeSet<gist_ir::InstrId>) -> String {
    let v: Vec<String> = set.iter().map(|i| i.0.to_string()).collect();
    format!("[{}]", v.join(","))
}

fn outcome(report: Option<&FailureReport>) -> String {
    match report {
        None => "ok".to_owned(),
        Some(r) => {
            let stack: Vec<String> = r.stack.iter().map(|f| f.func.0.to_string()).collect();
            format!(
                "fail:{:?}@{}/t{}/[{}]",
                r.kind,
                r.failing_stmt.0,
                r.tid,
                stack.join(",")
            )
        }
    }
}

fn render_result(r: &RunResult) -> String {
    format!(
        "{} steps={} per_core={:?} br={} ind={} mem={} thr={} picks={} pre={} out={}",
        outcome(r.outcome.failure()),
        r.steps,
        r.retired_per_core,
        r.branches,
        r.indirect_transfers,
        r.mem_accesses,
        r.threads,
        r.sched_picks,
        r.preemptions,
        seq_digest(&r.output),
    )
}

/// Every journal-independent field of a [`RunTrace`]; asserts the
/// structure of the journal-dependent ones.
fn render_trace(t: &RunTrace, what: &str) -> String {
    assert_eq!(
        t.hit_events.len(),
        t.hits.len(),
        "{what}: one event per hit"
    );
    let journaled = t.decode_event != 0;
    assert!(
        t.hit_events.iter().all(|&e| (e != 0) == journaled),
        "{what}: hit events journaled iff the decode event is"
    );
    assert!(
        !journaled || t.hit_events.iter().all(|&e| e != t.decode_event),
        "{what}: hit events distinct from the decode event"
    );
    let per_core: Vec<String> = t.decoded.per_core.iter().map(|c| seq_digest(c)).collect();
    format!(
        "dec=[{}] dbr={} ovf={} hits={} exec={} disc={} br={} bytes={} trans={} traced={} traps={} ptrace={} missed={}",
        per_core.join(","),
        seq_digest(&t.decoded.branches),
        t.decoded.overflowed,
        seq_digest(&t.hits),
        ids(&t.executed_tracked),
        ids(&t.discovered),
        seq_digest(&t.branches),
        t.pt_bytes,
        t.pt_transitions,
        t.traced_retired,
        t.watch_traps,
        t.ptrace_ops,
        t.missed_arms,
    )
}

fn planned_patch(bug: &BugSpec) -> InstrumentationPatch {
    let (_, report) = bug.find_failure(2_000).expect("bug manifests");
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute_with_svfg(report.failing_stmt);
    Planner::new(&bug.program, slicer.ticfg()).plan(slice.prefix(SIGMA), 0)
}

/// One tracked run plus one always-on PT run of the same seed, rendered
/// as a golden line; also returns the run as [`fleet_runs`] renders it.
fn direct_run(bug: &BugSpec, patch: &InstrumentationPatch, seed: u64) -> (String, String) {
    let cfg = bug.vm_config(seed);
    let what = format!("{} seed {seed}", bug.name);
    let mut log = EventLog::default();
    let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), cfg.num_cores);
    let result = Vm::new(&bug.program, cfg.clone()).run(&mut [&mut log, &mut tracker]);
    let trace = render_trace(&tracker.finish(), &what);

    let pt_cfg = PtConfig {
        num_cores: cfg.num_cores,
        ..PtConfig::default()
    };
    let mut tracer = PtTracer::new(&bug.program, PtDriver::always_on(), pt_cfg);
    let bare = Vm::new(&bug.program, cfg).run(&mut [&mut tracer]);
    assert_eq!(
        render_result(&bare),
        render_result(&result),
        "{what}: observers changed the schedule"
    );
    tracer.finish();
    let pt: Vec<String> = tracer
        .take_traces()
        .iter()
        .map(|b| format!("{}:{:016x}", b.len(), fnv(b)))
        .collect();
    let line = format!(
        "{} {seed} | {} ev={} | pt=[{}] | {trace}",
        bug.name,
        render_result(&result),
        seq_digest(&log.events),
        pt.join(","),
    );
    let as_fleet = format!(
        "{} retired={} {trace}",
        outcome(result.outcome.failure()),
        result.steps
    );
    (line, as_fleet)
}

/// The same runs collected through a fleet: run `n` of a one-endpoint
/// fleet executes seed `n`. Renders each run's outcome, retired count
/// and trace.
fn fleet_runs(bug: &BugSpec, patch: &InstrumentationPatch, batch: usize) -> Vec<String> {
    let config = FleetConfig {
        endpoints: 1,
        num_cores: bug.vm_config(0).num_cores,
        batch,
        workers: Some(batch.saturating_sub(1).min(1)),
    };
    let mut fleet = SimulatedFleet::for_bug(bug, config);
    (0..SEEDS)
        .map(|seed| {
            let run = fleet.next_run(patch);
            assert_eq!(run.run_id, seed);
            let what = format!("{} seed {seed} (fleet batch {batch})", bug.name);
            format!(
                "{} retired={} {}",
                outcome(run.outcome.as_ref()),
                run.retired,
                render_trace(&run.trace, &what)
            )
        })
        .collect()
}

/// A readable line diff: every differing line as `-expected` / `+actual`.
fn line_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..exp.len().max(act.len()) {
        let (e, a) = (exp.get(i), act.get(i));
        if e != a {
            if let Some(e) = e {
                let _ = writeln!(out, "  line {:>4} - {e}", i + 1);
            }
            if let Some(a) = a {
                let _ = writeln!(out, "  line {:>4} + {a}", i + 1);
            }
        }
    }
    out
}

#[test]
fn tracked_runs_match_golden_digests() {
    let mut rendered = String::new();
    for bug in all_bugs() {
        let patch = planned_patch(&bug);
        let mut direct = Vec::new();
        for seed in 0..SEEDS {
            let (line, as_fleet) = direct_run(&bug, &patch, seed);
            rendered.push_str(&line);
            rendered.push('\n');
            direct.push(as_fleet);
        }
        for batch in [1, 4] {
            let fleet = fleet_runs(&bug, &patch, batch);
            for (seed, (d, f)) in direct.iter().zip(&fleet).enumerate() {
                assert_eq!(
                    d, f,
                    "{} seed {seed}: fleet batch {batch} differs from the direct run",
                    bug.name
                );
            }
        }
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden runs at {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        golden == rendered,
        "tracked runs differ from {} (UPDATE_GOLDEN=1 to accept):\n{}",
        path.display(),
        line_diff(&golden, &rendered)
    );
}
