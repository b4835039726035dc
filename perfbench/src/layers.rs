//! The layer sweep of the traced run: every crate's public entry points
//! called directly from here, one span per call, over the workload's own
//! programs and the same per-run VM seeds its steady-state fleets use.
//!
//! Per-run layers are measured as arms over identical runs — bare
//! `Vm::run`, + always-on `PtTracer`, + watch-only tracker, + full σ=8
//! tracker, `Recorder::record`, cold PT decode, and `SimulatedFleet` at
//! batch=1 and batch=`nproc` — and each difference is divided by its
//! deterministic unit count (retired statements, packets, traps). Static
//! layers are timed per program. Arms are interleaved and repeated; each
//! per-program figure is the median over repetitions.

use std::time::Instant;

use gist_analysis::{dead_stores, Mhp, PointsTo};
use gist_baselines::Recorder;
use gist_coop::SimulatedFleet;
use gist_core::Fleet;
use gist_ir::{InstrId, Program};
use gist_obs::counter_by_name;
use gist_pt::{PtConfig, PtDriver, PtTracer};
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner, TrackerRuntime};
use gist_vm::{CompiledProgram, Vm, VmConfig};

use crate::spans::{Spans, ROOT};
use crate::workload::{
    install_salted, nproc, plan_patch, salted_config, steady_config, SEEDS_PER_PROGRAM, SIGMA,
};
use crate::{median, Metrics};

/// The bugbase programs of the measured Fig. 13.
pub const FIG13: [&str; 3] = ["pbzip2-1", "curl-965", "memcached-127"];

/// One program of the sweep.
pub struct ArmProgram<'a> {
    /// Short name.
    pub name: String,
    /// The program.
    pub program: &'a Program,
    /// The failing statement (slice criterion).
    pub failing: InstrId,
    /// The production workload's per-seed VM configuration.
    pub make_config: fn(u64) -> VmConfig,
    /// Counted in the workload's per-layer aggregates (the extra Fig. 13
    /// programs of the `synth` sweep are not).
    pub aggregate: bool,
}

/// Per-run arms, in the order of [`Arm::ALL`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Arm {
    Bare,
    Pt,
    Watch,
    Tracked,
    Record,
    Decode,
    Fleet1,
    FleetN,
}

impl Arm {
    const ALL: [Arm; 8] = [
        Arm::Bare,
        Arm::Pt,
        Arm::Watch,
        Arm::Tracked,
        Arm::Record,
        Arm::Decode,
        Arm::Fleet1,
        Arm::FleetN,
    ];
}

/// Static calls timed once per program per repetition.
const STATIC: [&str; 8] = [
    "vm.compile",
    "slicing.new",
    "slicing.slice",
    "analysis.mhp",
    "analysis.races",
    "analysis.points_to",
    "analysis.dead_stores",
    "tracking.plan",
];

/// Deterministic unit counts of one program's runs (one pass).
#[derive(Default, Clone, Copy)]
struct Units {
    retired: u64,
    sched_picks: u64,
    packets: u64,
    traps: u64,
    missed_arms: u64,
    armed: u64,
}

struct Prepared<'a> {
    arm: &'a ArmProgram<'a>,
    compiled: std::sync::Arc<CompiledProgram>,
    configs: Vec<VmConfig>,
    patch: InstrumentationPatch,
    watch_patch: InstrumentationPatch,
    traces: Vec<Vec<Vec<u8>>>,
    fleet1: SimulatedFleet<'a>,
    fleet_n: SimulatedFleet<'a>,
    units: Units,
    /// `[arm][rep]` nanoseconds for one pass over the seeds.
    arm_ns: Vec<Vec<u64>>,
    /// `[rep]` nanoseconds in `TrackerRuntime::finish` of the tracked arm.
    finish_ns: Vec<u64>,
    /// `[static call][rep]` nanoseconds.
    static_ns: Vec<Vec<u64>>,
}

fn delta(name: &'static str, f: impl FnOnce()) -> u64 {
    let c = counter_by_name(name);
    let before = c.get();
    f();
    c.get() - before
}

impl<'a> Prepared<'a> {
    fn new(arm: &'a ArmProgram<'a>, hook: fn(u64) -> VmConfig, index: usize) -> Prepared<'a> {
        let patch = plan_patch(arm.program, arm.failing);
        let watch_patch = InstrumentationPatch {
            watch_accesses: patch.watch_accesses.clone(),
            tracked: patch.tracked.clone(),
            ..InstrumentationPatch::default()
        };
        Prepared {
            arm,
            compiled: CompiledProgram::shared(arm.program),
            configs: (0..SEEDS_PER_PROGRAM)
                .map(|j| salted_config(index, j))
                .collect(),
            patch,
            watch_patch,
            traces: Vec::new(),
            fleet1: SimulatedFleet::new(arm.program, hook, steady_config(1)),
            fleet_n: SimulatedFleet::new(arm.program, hook, steady_config(nproc())),
            units: Units::default(),
            arm_ns: vec![Vec::new(); Arm::ALL.len()],
            finish_ns: Vec::new(),
            static_ns: vec![Vec::new(); STATIC.len()],
        }
    }

    /// One pass of `arm` over this program's seeds; returns the summed
    /// span time. The first pass of each arm also records unit counts.
    fn run_arm(&mut self, arm: Arm, spans: &mut Spans, first: bool) -> u64 {
        let program = self.arm.program;
        let mut total = 0u64;
        match arm {
            Arm::Bare => {
                let mut work = || {
                    for cfg in &self.configs {
                        let cfg = cfg.clone();
                        let g = spans.open_group("vm.run", ROOT);
                        let r = Vm::with_compiled(program, self.compiled.clone(), cfg).run(&mut []);
                        total += spans.close(g);
                        std::hint::black_box(r);
                    }
                };
                if first {
                    let picks = counter_by_name("vm.sched_picks");
                    let p0 = picks.get();
                    self.units.retired = delta("vm.instr_retired", work);
                    self.units.sched_picks = picks.get() - p0;
                } else {
                    work();
                }
            }
            Arm::Pt => {
                let keep = first;
                let mut traces = Vec::new();
                let mut work = || {
                    for cfg in &self.configs {
                        let cfg = cfg.clone();
                        let pt_cfg = PtConfig {
                            num_cores: cfg.num_cores,
                            ..PtConfig::default()
                        };
                        let g = spans.open_group("pt.traced_run", ROOT);
                        let mut tracer = PtTracer::new(program, PtDriver::always_on(), pt_cfg);
                        let r = Vm::with_compiled(program, self.compiled.clone(), cfg)
                            .run(&mut [&mut tracer]);
                        tracer.finish();
                        total += spans.close(g);
                        std::hint::black_box(r);
                        if keep {
                            traces.push(tracer.take_traces());
                        }
                    }
                };
                if first {
                    self.units.packets = delta("pt.packets_encoded", work);
                    self.traces = traces;
                } else {
                    work();
                }
            }
            Arm::Watch | Arm::Tracked => {
                let (patch, name) = match arm {
                    Arm::Watch => (&self.watch_patch, "watch.tracked_run"),
                    _ => (&self.patch, "tracking.tracked_run"),
                };
                let armed = counter_by_name("watch.armed");
                let a0 = armed.get();
                let (mut traps, mut missed, mut finish_total) = (0, 0, 0);
                for cfg in &self.configs {
                    let cfg = cfg.clone();
                    let patch = patch.clone();
                    let g = spans.open_group(name, ROOT);
                    let mut tracker = TrackerRuntime::new(program, patch, cfg.num_cores);
                    let r = Vm::with_compiled(program, self.compiled.clone(), cfg)
                        .run(&mut [&mut tracker]);
                    let f = spans.open("tracking.finish", g);
                    let trace = tracker.finish();
                    let finish_ns = spans.close(f);
                    let whole_ns = spans.close(g);
                    // The full tracker's finish is its own figure.
                    if arm == Arm::Watch {
                        total += whole_ns;
                    } else {
                        total += whole_ns - finish_ns;
                        finish_total += finish_ns;
                    }
                    traps += trace.watch_traps;
                    missed += trace.missed_arms;
                    std::hint::black_box((r, trace));
                }
                if first && arm == Arm::Watch {
                    self.units.traps = traps;
                    self.units.missed_arms = missed;
                    self.units.armed = armed.get() - a0;
                }
                if !first && arm == Arm::Tracked {
                    self.finish_ns.push(finish_total);
                }
            }
            Arm::Record => {
                for cfg in &self.configs {
                    let cfg = cfg.clone();
                    let g = spans.open_group("baselines.record", ROOT);
                    let rec = Recorder::record(program, cfg);
                    total += spans.close(g);
                    std::hint::black_box(rec);
                }
            }
            Arm::Decode => {
                for t in &self.traces {
                    let g = spans.open_group("pt.decode", ROOT);
                    let d = gist_pt::decoder::decode(program, t);
                    total += spans.close(g);
                    std::hint::black_box(d.expect("captured traces decode"));
                }
            }
            Arm::Fleet1 | Arm::FleetN => {
                let (fleet, name) = match arm {
                    Arm::Fleet1 => (&mut self.fleet1, "harness.fleet_batch1"),
                    _ => (&mut self.fleet_n, "harness.fleet_batchn"),
                };
                let g = spans.open_group(name, ROOT);
                for _ in 0..SEEDS_PER_PROGRAM {
                    let s = spans.open("coop.next_run", g);
                    let run = fleet.next_run(&self.patch);
                    total += spans.close(s);
                    std::hint::black_box(run);
                }
                spans.close(g);
            }
        }
        total
    }

    /// One timed call of each static entry point.
    fn run_static(&mut self, spans: &mut Spans) {
        let program = self.arm.program;
        let g = spans.open_group("harness.static", ROOT);
        let mut timed = |k: usize, spans: &mut Spans, f: &mut dyn FnMut()| {
            let s = spans.open(STATIC[k], g);
            f();
            self.static_ns[k].push(spans.close(s));
        };
        timed(0, spans, &mut || {
            std::hint::black_box(CompiledProgram::compile(program));
        });
        let mut slicer = None;
        timed(1, spans, &mut || slicer = Some(StaticSlicer::new(program)));
        let slicer = slicer.expect("slicer built");
        let mut slice = None;
        timed(2, spans, &mut || {
            slice = Some(slicer.compute_with_svfg(self.arm.failing))
        });
        let slice = slice.expect("slice computed");
        timed(3, spans, &mut || {
            std::hint::black_box(Mhp::compute(program, slicer.ticfg()));
        });
        timed(4, spans, &mut || {
            std::hint::black_box(gist_analysis::analyze(program));
        });
        let mut pts = None;
        timed(5, spans, &mut || {
            pts = Some(PointsTo::compute(program, slicer.ticfg()))
        });
        let pts = pts.expect("points-to computed");
        timed(6, spans, &mut || {
            std::hint::black_box(dead_stores(program, slicer.ticfg(), &pts));
        });
        let planner = Planner::new(program, slicer.ticfg());
        timed(7, spans, &mut || {
            std::hint::black_box(planner.plan(slice.prefix(SIGMA), 0));
        });
        spans.close(g);
    }

    fn arm_median(&self, arm: Arm) -> f64 {
        let i = Arm::ALL.iter().position(|&a| a == arm).expect("listed arm");
        median(self.arm_ns[i].iter().map(|&n| n as f64).collect())
    }

    fn finish_median(&self) -> f64 {
        median(self.finish_ns.iter().map(|&n| n as f64).collect())
    }

    fn static_median(&self, k: usize) -> f64 {
        median(self.static_ns[k].iter().map(|&n| n as f64).collect())
    }
}

/// Runs the sweep for about `budget_s` seconds (at least 3 repetitions)
/// and adds its per-layer metrics to `out`.
pub fn sweep(
    programs: &[ArmProgram],
    seed: u64,
    budget_s: f64,
    spans: &mut Spans,
    out: &mut Metrics,
) {
    let hooks = install_salted(programs.iter().map(|p| p.make_config).collect(), seed);
    let mut prepared: Vec<Prepared> = programs
        .iter()
        .zip(hooks)
        .enumerate()
        .map(|(i, (p, hook))| Prepared::new(p, hook, i))
        .collect();
    // Warm the fleets' pools and decode caches, record unit counts.
    for p in &mut prepared {
        for arm in Arm::ALL {
            p.run_arm(arm, spans, true);
        }
    }
    let start = Instant::now();
    let mut reps = 0usize;
    while reps < 3 || (start.elapsed().as_secs_f64() < budget_s && reps < 40) {
        for p in &mut prepared {
            for k in 0..Arm::ALL.len() {
                // Rotate the arm order so no arm always runs first.
                let arm = Arm::ALL[(k + reps) % Arm::ALL.len()];
                let ns = p.run_arm(arm, spans, false);
                let i = Arm::ALL.iter().position(|&a| a == arm).expect("listed arm");
                p.arm_ns[i].push(ns);
            }
            p.run_static(spans);
        }
        reps += 1;
    }

    let agg: Vec<&Prepared> = prepared.iter().filter(|p| p.arm.aggregate).collect();
    let sum = |arm: Arm| agg.iter().map(|p| p.arm_median(arm)).sum::<f64>();
    let units = |f: fn(&Units) -> u64| agg.iter().map(|p| f(&p.units)).sum::<u64>() as f64;
    let (bare, pt, watch) = (sum(Arm::Bare), sum(Arm::Pt), sum(Arm::Watch));
    let (tracked, record, decode) = (sum(Arm::Tracked), sum(Arm::Record), sum(Arm::Decode));
    let finish = agg.iter().map(|p| p.finish_median()).sum::<f64>();
    let (fleet1, fleet_n) = (sum(Arm::Fleet1), sum(Arm::FleetN));
    let retired = units(|u| u.retired);
    let packets = units(|u| u.packets);
    let traps = units(|u| u.traps);
    let runs = (agg.len() as u64 * SEEDS_PER_PROGRAM) as f64;
    let statics = |k: usize| agg.iter().map(|p| p.static_median(k)).sum::<f64>() / agg.len() as f64;

    let programs = agg.len();
    let pass = format!("{programs} programs x {SEEDS_PER_PROGRAM} seeds, median of {reps} reps");
    let per_program = format!("per program, over {programs} programs, median of {reps} reps");
    out.push("layers.reps", reps as f64, "count");
    out.push("layers.programs", programs as f64, "count");
    out.push("vm.ns_per_stmt", bare / retired, "ns");
    out.base(format!(
        "bare runs over {retired} retired statements, {pass}"
    ));
    out.push("vm.stmts_retired", retired, "count");
    out.push(
        "vm.sched_picks_per_stmt",
        units(|u| u.sched_picks) / retired,
        "ratio",
    );
    out.base(format!("over {retired} retired statements"));
    out.push("vm.compile_us", statics(0) / 1e3, "us");
    out.base(per_program.clone());
    out.push("pt.encode_ns_per_stmt", (pt - bare) / retired, "ns");
    out.base(format!(
        "PT arm minus bare arm, over {retired} retired statements"
    ));
    out.push("pt.encode_ns_per_packet", (pt - bare) / packets, "ns");
    out.base(format!("PT arm minus bare arm, over {packets} packets"));
    out.push("pt.packets_encoded", packets, "count");
    out.push("pt.decode_ns_per_packet", decode / packets, "ns");
    out.base(format!("cold decode, over {packets} packets"));
    out.push("pt.overhead_pct", pct(pt, bare), "%");
    out.base(format!("PT arm over bare arm, {pass}"));
    out.push("watch.ns_per_trap", (watch - bare) / traps, "ns");
    out.base(format!("watch-only arm minus bare arm, over {traps} traps"));
    out.push("watch.traps", traps, "count");
    let armed = units(|u| u.armed);
    let missed = units(|u| u.missed_arms);
    out.push(
        "watch.missed_arm_ratio",
        missed / (missed + armed).max(1.0),
        "ratio",
    );
    out.base(format!(
        "{missed} missed of {} arm attempts",
        missed + armed
    ));
    out.push("tracking.overhead_pct", pct(tracked + finish, bare), "%");
    out.base(format!("full tracker incl. finish over bare arm, {pass}"));
    out.push("tracking.plan_us", statics(7) / 1e3, "us");
    out.base(per_program.clone());
    out.push("tracking.plans", (reps * programs) as f64, "count");
    out.push("tracking.finish_us", finish / runs / 1e3, "us");
    out.base(format!("per run, over {runs} runs"));
    out.push("tracking.runs", runs, "count");
    out.push("baselines.rr_overhead_pct", pct(record, bare), "%");
    out.base(format!("Recorder::record over bare arm, {pass}"));
    for (name, k) in [
        ("slicing.new_us", 1),
        ("slicing.slice_us", 2),
        ("analysis.mhp_us", 3),
        ("analysis.races_us", 4),
        ("analysis.points_to_us", 5),
        ("analysis.dead_stores_us", 6),
    ] {
        out.push(name, statics(k) / 1e3, "us");
        out.base(per_program.clone());
    }
    out.push("coop.pool_speedup", fleet1 / fleet_n, "ratio");
    out.base(format!("batch=1 over batch={} time, {pass}", nproc()));
    let steals: u64 = agg
        .iter()
        .flat_map(|p| p.fleet_n.contention_stats().workers)
        .map(|w| w.steals)
        .sum();
    out.push("coop.steals", steals as f64, "count");
    out.base(format!("in the batch={} arm, all passes", nproc()));
    out.push("coop.run_us_batch1", fleet1 / runs / 1e3, "us");
    out.base(format!("per next_run, over {runs} runs"));

    for name in FIG13 {
        let p = prepared
            .iter()
            .find(|p| p.arm.name == name)
            .expect("Fig. 13 programs are in every sweep");
        let bare = p.arm_median(Arm::Bare);
        let full = p.arm_median(Arm::Tracked) + p.finish_median();
        out.push(
            &format!("fig13.{name}.pt_overhead_pct"),
            pct(p.arm_median(Arm::Pt), bare),
            "%",
        );
        out.push(
            &format!("fig13.{name}.tracking_overhead_pct"),
            pct(full, bare),
            "%",
        );
        out.push(
            &format!("fig13.{name}.rr_overhead_pct"),
            pct(p.arm_median(Arm::Record), bare),
            "%",
        );
        out.base(format!("{SEEDS_PER_PROGRAM} seeds, median of {reps} reps"));
    }
}

/// `(arm - base) / base` in percent.
fn pct(arm: f64, base: f64) -> f64 {
    (arm / base - 1.0) * 100.0
}
