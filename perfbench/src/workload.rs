//! The three workloads: their inputs (made from the seed during set-up),
//! one measured round each, and the output checks.
//!
//! * `bugbase` — the 11 paper bugs, each diagnosed by `GistServer::new` +
//!   `GistServer::diagnose` over a batch=1 `SimulatedFleet`; the seed
//!   permutes the bug order. Every workload diagnoses at batch=1.
//! * `synth` — seeded synthetic bugs, an equal number per injected
//!   pattern, diagnosed with `diagnose_until` to root-cause coverage.
//! * `fleet` — steady-state `Fleet::next_run` on one persistent fleet per
//!   program under a fixed σ=8 patch, with warm decode caches and per-run
//!   VM seeds varied from the workload seed, alongside the bugbase
//!   diagnoses (every workload reports every end-to-end metric).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use gist_bugbase::synth::{self, synth_config, PatternKind, SplitMix64, SynthBug};
use gist_bugbase::{all_bugs, BugSpec};
use gist_coop::{EvalConfig, FleetConfig, FleetStats, SimulatedFleet};
use gist_core::{diagnose_until, ClientRunData, CoverageTarget, Fleet, GistConfig, GistServer};
use gist_ir::{InstrId, Program};
use gist_sketch::accuracy::measure;
use gist_sketch::IdealSketch;
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner};
use gist_vm::{FailureReport, VmConfig};

use crate::spans::{self, Spans, ROOT};

/// Synthetic bugs generated per injected pattern per `synth` seed. The
/// mix is stratified — every pattern equally often — so the seed varies
/// the programs but not the pattern mix, which dominates diagnosis cost.
const SYNTH_PER_PATTERN: usize = 96;
/// Synthetic bugs generated per `synth` seed.
const SYNTH_BUGS: usize = SYNTH_PER_PATTERN * PatternKind::INJECTED.len();
/// Seeds tried per synthetic bug to find a manifesting failure.
const SYNTH_MANIFEST_SEEDS: u64 = 400;
/// Seeds tried per bugbase bug to find its failure report.
const BUG_MANIFEST_SEEDS: u64 = 2_000;
/// Statements in the fixed tracked slice prefix of the steady-state and
/// layer-arm patches.
pub const SIGMA: usize = 8;
/// Distinct VM seeds per program: the steady-state fleets and the layer
/// arms cycle through this many per-run configurations.
pub const SEEDS_PER_PROGRAM: u64 = 64;
/// Steady-state runs per program per round (whole periods of
/// [`SEEDS_PER_PROGRAM`]).
const STEADY_RUNS: u64 = 2 * SEEDS_PER_PROGRAM;

/// A workload name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// The 11 paper bugs at batch=1.
    Bugbase,
    /// Seeded synthetic bugs at batch=1.
    Synth,
    /// Steady-state fleet runs on persistent fleets, plus the bugbase
    /// diagnoses.
    Fleet,
}

impl Kind {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "bugbase" => Some(Kind::Bugbase),
            "synth" => Some(Kind::Synth),
            "fleet" => Some(Kind::Fleet),
            _ => None,
        }
    }
}

/// Logical cores of this host (the layer sweep's pooled batch size).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One program under diagnosis.
pub enum Subject {
    /// A bugbase bug.
    Bug(BugSpec),
    /// A synthetic bug and its root-cause coverage target.
    Synth(SynthBug, CoverageTarget),
}

impl Subject {
    /// Short name.
    pub fn name(&self) -> &str {
        match self {
            Subject::Bug(b) => b.name,
            Subject::Synth(b, _) => &b.name,
        }
    }

    /// The program.
    pub fn program(&self) -> &Program {
        match self {
            Subject::Bug(b) => &b.program,
            Subject::Synth(b, _) => &b.program,
        }
    }

    /// The production workload's per-seed VM configuration.
    pub fn make_config(&self) -> fn(u64) -> VmConfig {
        match self {
            Subject::Bug(b) => b.make_config,
            Subject::Synth(..) => synth_config,
        }
    }

    fn find_failure(&self) -> Option<FailureReport> {
        match self {
            Subject::Bug(b) => b.find_failure(BUG_MANIFEST_SEEDS),
            Subject::Synth(b, _) => b.find_failure(SYNTH_MANIFEST_SEEDS),
        }
        .map(|(_, report)| report)
    }

    /// The server configuration `repro` evaluates with.
    fn gist_config(&self) -> GistConfig {
        let e = EvalConfig::default();
        let (title, bug_class) = match self {
            Subject::Bug(b) => (b.display.to_owned(), b.class.label().to_owned()),
            Subject::Synth(b, _) => (b.name.clone(), b.truth.pattern.family().label().to_owned()),
        };
        GistConfig {
            sigma0: e.sigma0,
            growth: e.growth,
            failing_runs_per_iteration: e.failing_per_iteration,
            max_runs_per_iteration: e.max_runs_per_iteration,
            max_iterations: e.max_iterations,
            title: format!("Failure Sketch for {title}"),
            bug_class,
            ..GistConfig::default()
        }
    }

    fn ideal_stmts(&self) -> BTreeSet<InstrId> {
        match self {
            Subject::Bug(b) => b.ideal_stmts(),
            Subject::Synth(b, _) => b.ideal_stmts(),
        }
    }

    fn ideal_sketch(&self) -> IdealSketch {
        match self {
            Subject::Bug(b) => b.ideal_sketch(),
            Subject::Synth(b, _) => b.ideal_sketch(),
        }
    }

    fn root_cause_covered(&self, stmts: &BTreeSet<InstrId>) -> bool {
        match self {
            Subject::Bug(b) => b.root_cause_covered(stmts),
            Subject::Synth(b, _) => b.root_cause_covered(stmts),
        }
    }
}

/// The σ=[`SIGMA`] patch over the failure's SVFG slice: the first watch
/// group of the slice prefix, planned as the server plans it.
pub fn plan_patch(program: &Program, failing: InstrId) -> InstrumentationPatch {
    let slicer = StaticSlicer::new(program);
    let slice = slicer.compute_with_svfg(failing);
    Planner::new(program, slicer.ticfg()).plan(slice.prefix(SIGMA), 0)
}

/// Per-program VM configurations derived from the workload seed, as plain
/// `fn` pointers for `SimulatedFleet::new`'s `make_config` hook. A fleet
/// with one endpoint asks for run `n`'s configuration with seed `n`;
/// program `I`'s entry maps it to `base[I](salt + n % SEEDS_PER_PROGRAM)`,
/// so every [`SEEDS_PER_PROGRAM`] runs repeat the same configurations.
struct Salted {
    base: Vec<fn(u64) -> VmConfig>,
    salt: u64,
}

static SALTED: OnceLock<Salted> = OnceLock::new();

fn salted<const I: usize>(n: u64) -> VmConfig {
    let s = SALTED.get().expect("salted configurations installed");
    (s.base[I])(s.salt.wrapping_add(n % SEEDS_PER_PROGRAM))
}

const SALTED_FNS: [fn(u64) -> VmConfig; 16] = [
    salted::<0>,
    salted::<1>,
    salted::<2>,
    salted::<3>,
    salted::<4>,
    salted::<5>,
    salted::<6>,
    salted::<7>,
    salted::<8>,
    salted::<9>,
    salted::<10>,
    salted::<11>,
    salted::<12>,
    salted::<13>,
    salted::<14>,
    salted::<15>,
];

/// Installs the per-program configurations (once per process; a second
/// call must pass the same programs) and returns their `make_config`
/// hooks, index-aligned with `base`.
pub fn install_salted(base: Vec<fn(u64) -> VmConfig>, seed: u64) -> Vec<fn(u64) -> VmConfig> {
    assert!(base.len() <= SALTED_FNS.len(), "too many salted programs");
    let n = base.len();
    let salt = SplitMix64::new(seed ^ 0x5eed_f1ee_7000_0000).next_u64() >> 16;
    let s = SALTED.get_or_init(|| Salted { base, salt });
    assert_eq!(s.base.len(), n, "salted configurations installed twice");
    SALTED_FNS[..n].to_vec()
}

/// Run `j`'s VM configuration for salted program `i` (what the fleet's
/// run `j` executes).
pub fn salted_config(i: usize, j: u64) -> VmConfig {
    SALTED_FNS[i](j)
}

/// Everything set-up derives from the seed, before any fleet exists.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Programs under diagnosis, in seed-permuted order.
    pub subjects: Vec<Subject>,
    /// Each subject's failure report.
    pub reports: Vec<FailureReport>,
    configs: Vec<GistConfig>,
    ideals: Vec<BTreeSet<InstrId>>,
    /// Fleet workload: each subject's σ=8 steady-state patch.
    pub patches: Vec<InstrumentationPatch>,
    /// Fleet workload: each subject's `make_config` hook.
    hooks: Vec<fn(u64) -> VmConfig>,
    /// Synthetic bugs dropped because no failure manifested.
    pub unmanifested: usize,
}

/// Fisher–Yates with the workload's seed stream.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

impl Inputs {
    /// Builds the workload's inputs from `seed`.
    pub fn build(kind: Kind, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let mut subjects: Vec<Subject> = match kind {
            Kind::Bugbase | Kind::Fleet => all_bugs().into_iter().map(Subject::Bug).collect(),
            Kind::Synth => (0..SYNTH_BUGS)
                .map(|i| {
                    let pattern = PatternKind::INJECTED[i % PatternKind::INJECTED.len()];
                    let bug = synth::generate_with_pattern(rng.next_u64(), pattern);
                    let target = CoverageTarget::from_groups(
                        bug.truth
                            .root_cause_lines
                            .iter()
                            .map(|&l| bug.stmts_at(l))
                            .collect(),
                    );
                    Subject::Synth(bug, target)
                })
                .collect(),
        };
        let mut reports = Vec::new();
        let mut kept = Vec::new();
        for s in subjects.drain(..) {
            match s.find_failure() {
                Some(r) => {
                    reports.push(r);
                    kept.push(s);
                }
                None if matches!(s, Subject::Synth(..)) => {}
                None => panic!("{}: bug never manifests", s.name()),
            }
        }
        let unmanifested = match kind {
            Kind::Synth => SYNTH_BUGS - kept.len(),
            _ => 0,
        };
        let mut order: Vec<usize> = (0..kept.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut slots: Vec<Option<(Subject, FailureReport)>> =
            kept.into_iter().zip(reports).map(Some).collect();
        let (subjects, reports): (Vec<Subject>, Vec<FailureReport>) = order
            .iter()
            .map(|&i| slots[i].take().expect("each index once"))
            .unzip();
        let configs = subjects.iter().map(Subject::gist_config).collect();
        let ideals = subjects.iter().map(Subject::ideal_stmts).collect();
        let (patches, hooks) = if kind == Kind::Fleet {
            let patches = subjects
                .iter()
                .zip(&reports)
                .map(|(s, r)| plan_patch(s.program(), r.failing_stmt))
                .collect();
            let hooks = install_salted(subjects.iter().map(Subject::make_config).collect(), seed);
            (patches, hooks)
        } else {
            (Vec::new(), Vec::new())
        };
        Inputs {
            kind,
            subjects,
            reports,
            configs,
            ideals,
            patches,
            hooks,
            unmanifested,
        }
    }
}

/// What a correct diagnosis of one subject produces (from the reference
/// round); every later round must reproduce the sketch byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// The rendered sketch.
    pub sketch: String,
    /// Whether the sketch covers the root cause.
    pub found: bool,
    /// Failure recurrences consumed.
    pub recurrences: usize,
    /// Production runs consumed.
    pub runs: usize,
    /// AsT iterations.
    pub iterations: usize,
    /// Overall accuracy A (percent) against the ideal sketch.
    pub accuracy: f64,
}

/// One steady-state fleet of the `fleet` workload.
struct Steady<'a> {
    fleet: SimulatedFleet<'a>,
    patch: &'a InstrumentationPatch,
    /// Digests of the first [`SEEDS_PER_PROGRAM`] runs, made during
    /// set-up with a cold decode cache; every later pass must reproduce
    /// them.
    reference: Vec<u64>,
}

/// The measured quantities of one round.
#[derive(Default, Debug)]
pub struct RoundStats {
    /// Wall time of each diagnosis, indexed by subject.
    pub diag_ns: Vec<u64>,
    /// Time inside each program's steady-state `next_run` calls, indexed
    /// by program.
    pub steady_ns: Vec<u64>,
    /// Steady-state runs completed.
    pub steady_runs: u64,
    /// Operations checked (diagnoses + steady-state runs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Diagnoses that missed the root cause or panicked.
    pub misses: u64,
    /// Diagnoses whose sketch differs from the reference round's.
    pub mismatches: u64,
    /// Diagnoses that panicked.
    pub panics: u64,
    /// Steady-state runs whose digest differs from the reference.
    pub bad_digests: u64,
    /// Decode-cache shard probes answered from the cache.
    pub shard_hits: u64,
    /// Decode-cache shard probes.
    pub shard_probes: u64,
}

impl RoundStats {
    /// Adds a fleet's contention statistics.
    pub fn add_contention(&mut self, stats: &FleetStats) {
        for w in &stats.workers {
            self.shard_hits += w.shard_hits;
            self.shard_probes += w.shard_hits + w.shard_misses;
        }
    }
}

/// Digest of one run's outcome, PT bytes and watch hits.
pub fn run_digest(run: &ClientRunData) -> u64 {
    let mut h = DefaultHasher::new();
    run.outcome
        .as_ref()
        .map(FailureReport::signature)
        .hash(&mut h);
    run.trace.pt_bytes.hash(&mut h);
    for hit in &run.trace.hits {
        (hit.seq, hit.tid, hit.iid.0, hit.addr, hit.value, hit.kind).hash(&mut h);
    }
    h.finish()
}

/// A `Fleet` that records one span per `next_run`.
struct TimedFleet<'s, 'f, 'p> {
    inner: &'f mut SimulatedFleet<'p>,
    spans: &'s mut Spans,
    parent: usize,
}

impl Fleet for TimedFleet<'_, '_, '_> {
    fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
        let s = self.spans.open("coop.next_run", self.parent);
        let run = self.inner.next_run(patch);
        self.spans.close(s);
        run
    }

    fn hint_runs_remaining(&mut self, remaining: u64) {
        self.inner.hint_runs_remaining(remaining);
    }
}

/// One diagnosis's result.
struct Diagnosis {
    sketch: gist_sketch::FailureSketch,
    recurrences: usize,
    runs: usize,
    iterations: usize,
    contention: FleetStats,
}

/// The measured workload: inputs plus the fleets and references built
/// from them during set-up.
pub struct State<'a> {
    inputs: &'a Inputs,
    /// Per-subject references.
    pub refs: Vec<Reference>,
    steady: Vec<Steady<'a>>,
}

impl<'a> State<'a> {
    /// Finishes set-up: the reference round, which is also the diagnosis
    /// warm-up, then for the fleet workload the steady-state fleets and one
    /// warm-up pass that records their reference digests.
    pub fn new(inputs: &'a Inputs) -> State<'a> {
        let mut state = State {
            inputs,
            refs: Vec::new(),
            steady: Vec::new(),
        };
        state.refs = (0..inputs.subjects.len())
            .map(|i| state.reference(i))
            .collect();
        if inputs.kind == Kind::Fleet {
            state.steady = (0..inputs.subjects.len())
                .map(|i| Steady {
                    fleet: SimulatedFleet::new(
                        inputs.subjects[i].program(),
                        inputs.hooks[i],
                        steady_config(1),
                    ),
                    patch: &inputs.patches[i],
                    reference: Vec::new(),
                })
                .collect();
            state.steady_pass(&mut RoundStats::default(), &mut None, ROOT);
        }
        state
    }

    /// Diagnoses subject `i` once and scores it.
    fn reference(&self, i: usize) -> Reference {
        let subject = &self.inputs.subjects[i];
        let (_, diag) = self.diagnose(i, &mut None, ROOT);
        let d = diag.unwrap_or_else(|| panic!("{}: reference diagnosis panicked", subject.name()));
        let stmts: BTreeSet<InstrId> = d.sketch.stmts().into_iter().collect();
        Reference {
            sketch: d.sketch.render(),
            found: subject.root_cause_covered(&stmts),
            recurrences: d.recurrences,
            runs: d.runs,
            iterations: d.iterations,
            accuracy: measure(&d.sketch, &subject.ideal_sketch()).overall(),
        }
    }

    /// One closed-loop diagnosis of subject `i`: server construction,
    /// fleet construction and the AsT loop. Returns its wall time and the
    /// result (`None` if it panicked).
    fn diagnose(
        &self,
        i: usize,
        spans: &mut Option<&mut Spans>,
        parent: usize,
    ) -> (u64, Option<Diagnosis>) {
        let inputs = self.inputs;
        let subject = &inputs.subjects[i];
        let program = subject.program();
        let report = &inputs.reports[i];
        let ideal = &inputs.ideals[i];
        let t0 = Instant::now();
        let group = spans::open_group(spans, "harness.diagnosis", parent);
        let out = catch_unwind(AssertUnwindSafe(|| {
            let s = spans::open(spans, "core.new", group);
            let server = GistServer::new(program, inputs.configs[i].clone());
            spans::close(spans, s);
            let s = spans::open(spans, "coop.fleet_new", group);
            let mut fleet =
                SimulatedFleet::new(program, subject.make_config(), FleetConfig::default());
            spans::close(spans, s);
            let s = spans::open(spans, "core.diagnose", group);
            let mut timed;
            let fleet_ref: &mut dyn Fleet = match spans.as_deref_mut() {
                Some(sp) => {
                    timed = TimedFleet {
                        inner: &mut fleet,
                        spans: sp,
                        parent: s,
                    };
                    &mut timed
                }
                None => &mut fleet,
            };
            let result = match subject {
                Subject::Bug(bug) => {
                    server.diagnose(report, fleet_ref, Some(ideal), &mut |sketch| {
                        let stmts: BTreeSet<InstrId> = sketch.stmts().into_iter().collect();
                        bug.ideal_covered(&stmts) && bug.root_cause_covered(&stmts)
                    })
                }
                Subject::Synth(_, target) => {
                    diagnose_until(&server, report, fleet_ref, Some(ideal), target)
                }
            };
            spans::close(spans, s);
            Diagnosis {
                sketch: result.sketch,
                recurrences: result.recurrences,
                runs: result.total_runs,
                iterations: result.iterations,
                contention: fleet.contention_stats(),
            }
        }))
        .ok();
        spans::close(spans, group);
        (t0.elapsed().as_nanos() as u64, out)
    }

    /// One measured round: every subject diagnosed once in seed order,
    /// then (fleet workload) [`STEADY_RUNS`] steady-state runs per
    /// program. Every output is checked against the references.
    pub fn round(&mut self, mut spans: Option<&mut Spans>) -> RoundStats {
        let mut st = RoundStats::default();
        let root = spans::open(&mut spans, "harness.round", ROOT);
        for i in 0..self.inputs.subjects.len() {
            let (ns, diag) = self.diagnose(i, &mut spans, root);
            st.diag_ns.push(ns);
            st.attempted += 1;
            let reference = &self.refs[i];
            match diag {
                Some(d) => {
                    st.add_contention(&d.contention);
                    let same = d.sketch.render() == reference.sketch;
                    if !reference.found {
                        st.misses += 1;
                    }
                    if !same {
                        st.mismatches += 1;
                    }
                    if !reference.found || !same {
                        st.failed += 1;
                    }
                }
                None => {
                    st.panics += 1;
                    st.misses += 1;
                    st.failed += 1;
                }
            }
        }
        self.steady_pass(&mut st, &mut spans, root);
        spans::close(&mut spans, root);
        st
    }

    /// [`STEADY_RUNS`] steady-state runs per program, each checked against
    /// the reference digest of the same run (fleet workload); the first
    /// pass records the references.
    fn steady_pass(&mut self, st: &mut RoundStats, spans: &mut Option<&mut Spans>, root: usize) {
        for s in &mut self.steady {
            let group = spans::open_group(spans, "harness.steady", root);
            let mut pass_ns = 0;
            for j in 0..STEADY_RUNS {
                let t0 = Instant::now();
                let sp = spans::open(spans, "coop.next_run", group);
                let run = s.fleet.next_run(s.patch);
                spans::close(spans, sp);
                pass_ns += t0.elapsed().as_nanos() as u64;
                st.steady_runs += 1;
                st.attempted += 1;
                let digest = run_digest(&run);
                match s.reference.get((j % SEEDS_PER_PROGRAM) as usize) {
                    None => s.reference.push(digest),
                    Some(&d) if d != digest => {
                        st.bad_digests += 1;
                        st.failed += 1;
                    }
                    Some(_) => {}
                }
            }
            st.steady_ns.push(pass_ns);
            spans::close(spans, group);
        }
    }

    /// Each steady-state fleet's reference digests (fleet workload).
    pub fn steady_digests(&self) -> Vec<Vec<u64>> {
        self.steady.iter().map(|s| s.reference.clone()).collect()
    }

    /// Contention statistics of the steady-state fleets so far.
    pub fn steady_contention(&self) -> FleetStats {
        FleetStats {
            workers: self
                .steady
                .iter()
                .flat_map(|s| s.fleet.contention_stats().workers)
                .collect(),
        }
    }
}

/// The steady-state fleet shape: one endpoint, so run `n` asks its
/// `make_config` hook for seed `n`.
pub fn steady_config(batch: usize) -> FleetConfig {
    FleetConfig {
        endpoints: 1,
        batch,
        ..FleetConfig::default()
    }
}
