//! Differential oracle for the bitset dataflow problems.
//!
//! `ReachingDefs` and `MemLiveness` solve over dense bitsets with
//! precomputed gen/kill tables. This test re-solves both with a naive
//! round-robin fixpoint over `BTreeSet` facts whose transfer functions
//! query the points-to result directly on every visit, and demands exact
//! equality of every statement's `before`/`after` fact and of the
//! dead-store set — over all paper bugs and over 117 seeded synthetic
//! programs (13 per injected pattern).

use std::collections::BTreeSet;

use gist_analysis::{
    dead_stores, reaching_definitions, solve, Loc, LocSet, MemLiveness, PointsTo, ProgramFacts,
};
use gist_bugbase::synth::{generate_with_pattern, PatternKind};
use gist_ir::icfg::Ticfg;
use gist_ir::{FuncId, InstrId, Op, Operand, Program};

/// Synthetic seeds per injected pattern.
const SYNTH_SEEDS: u64 = 13;

/// A naive solution: the fact before and after every statement.
struct Naive<F> {
    before: Vec<F>,
    after: Vec<F>,
}

/// Round-robin chaotic iteration to the least fixpoint: every statement
/// recomputes its input from scratch each pass, until a pass changes
/// nothing.
fn naive_fixpoint<F: Clone + PartialEq + Default>(
    program: &Program,
    ticfg: &Ticfg,
    forward: bool,
    transfer: impl Fn(InstrId, &mut F),
    join: impl Fn(&mut F, &F),
) -> Naive<F> {
    let n = program.stmt_count();
    let mut before = vec![F::default(); n];
    let mut after = vec![F::default(); n];
    let mut order: Vec<InstrId> = program.all_stmt_ids().collect();
    if !forward {
        order.reverse();
    }
    loop {
        let mut changed = false;
        for &id in &order {
            let (preds, ins, outs) = if forward {
                (ticfg.preds(id), &mut before, &mut after)
            } else {
                (ticfg.succs(id), &mut after, &mut before)
            };
            let mut input = F::default();
            for &(p, _) in preds {
                join(&mut input, &outs[p.index()]);
            }
            let mut output = input.clone();
            transfer(id, &mut output);
            ins[id.index()] = input;
            if outs[id.index()] != output {
                outs[id.index()] = output;
                changed = true;
            }
        }
        if !changed {
            return Naive { before, after };
        }
    }
}

fn union<T: Ord + Copy>(into: &mut BTreeSet<T>, from: &BTreeSet<T>) {
    into.extend(from.iter().copied());
}

fn strong_target(pts: &PointsTo, func: FuncId, addr: Operand) -> Option<Loc> {
    let targets = pts.operand_origins(func, addr);
    let only = *targets.iter().next()?;
    (targets.len() == 1 && only.offset.is_some()).then_some(only)
}

fn naive_reaching_defs(
    program: &Program,
    ticfg: &Ticfg,
    pts: &PointsTo,
) -> Naive<BTreeSet<InstrId>> {
    let transfer = |id: InstrId, fact: &mut BTreeSet<InstrId>| {
        let (Some(func), Some(instr)) = (program.stmt_func(id), program.instr(id)) else {
            return;
        };
        let strong = |s: InstrId| match program.instr(s).map(|i| &i.op) {
            Some(Op::Store { addr, .. }) => strong_target(pts, program.stmt_func(s)?, *addr),
            _ => None,
        };
        if let Op::Store { addr, .. } = &instr.op {
            if let Some(cell) = strong_target(pts, func, *addr) {
                fact.retain(|&d| d == id || strong(d) != Some(cell));
            }
        }
        if instr.op.def().is_some() || matches!(instr.op, Op::Store { .. } | Op::Free { .. }) {
            fact.insert(id);
        }
    };
    naive_fixpoint(program, ticfg, true, transfer, union)
}

fn naive_mem_liveness(program: &Program, ticfg: &Ticfg, pts: &PointsTo) -> Naive<LocSet> {
    let transfer = |id: InstrId, fact: &mut LocSet| {
        let (Some(func), Some(instr)) = (program.stmt_func(id), program.instr(id)) else {
            return;
        };
        match &instr.op {
            Op::Load { addr, .. }
            | Op::Free { addr }
            | Op::MutexLock { addr }
            | Op::MutexUnlock { addr } => fact.extend(pts.operand_origins(func, *addr)),
            Op::Intrinsic { args, .. } => {
                for a in args {
                    for loc in pts.operand_origins(func, *a) {
                        fact.insert(Loc::anywhere(loc.origin));
                    }
                }
            }
            Op::Store { addr, .. } => {
                if let Some(cell) = strong_target(pts, func, *addr) {
                    fact.remove(&cell);
                }
            }
            _ => {}
        }
    };
    naive_fixpoint(program, ticfg, false, transfer, union)
}

fn naive_dead_stores(program: &Program, pts: &PointsTo, live: &Naive<LocSet>) -> BTreeSet<InstrId> {
    let mut dead = BTreeSet::new();
    for id in program.all_stmt_ids() {
        let (Some(func), Some(Op::Store { addr, .. })) =
            (program.stmt_func(id), program.instr(id).map(|i| &i.op))
        else {
            continue;
        };
        let targets = pts.operand_origins(func, *addr);
        let after = &live.after[id.index()];
        if !targets.is_empty() && targets.iter().all(|t| !after.iter().any(|l| l.overlaps(t))) {
            dead.insert(id);
        }
    }
    dead
}

/// Checks both problems on one program; returns the statements compared.
fn check(name: &str, program: &Program) -> usize {
    let facts = ProgramFacts::new(program);
    let (ticfg, pts) = (facts.ticfg(), facts.points_to());

    let rd = reaching_definitions(program, ticfg, pts);
    let naive_rd = naive_reaching_defs(program, ticfg, pts);
    let problem = MemLiveness::new(program, pts);
    let live = solve(program, ticfg, &problem);
    let naive_live = naive_mem_liveness(program, ticfg, pts);
    for id in program.all_stmt_ids() {
        let i = id.index();
        let got: BTreeSet<InstrId> = rd.before(id).iter().collect();
        assert_eq!(
            got, naive_rd.before[i],
            "{name}: reaching defs before {id:?}"
        );
        let got: BTreeSet<InstrId> = rd.after(id).iter().collect();
        assert_eq!(got, naive_rd.after[i], "{name}: reaching defs after {id:?}");
        assert_eq!(
            problem.loc_set(live.before(id)),
            naive_live.before[i],
            "{name}: live cells before {id:?}"
        );
        assert_eq!(
            problem.loc_set(live.after(id)),
            naive_live.after[i],
            "{name}: live cells after {id:?}"
        );
    }
    let dead = dead_stores(program, ticfg, pts);
    assert_eq!(
        dead,
        naive_dead_stores(program, pts, &naive_live),
        "{name}: dead stores"
    );
    assert_eq!(&dead, facts.dead_stores(), "{name}: shared dead-store fact");
    program.stmt_count()
}

#[test]
fn bitset_dataflow_equals_naive_fixpoint_on_every_bugbase_program() {
    let mut stmts = 0;
    let bugs = gist_bugbase::all_bugs();
    assert_eq!(bugs.len(), 11);
    for bug in &bugs {
        stmts += check(bug.name, &bug.program);
    }
    assert!(stmts > 400, "compared {stmts} statements");
}

#[test]
fn bitset_dataflow_equals_naive_fixpoint_on_synthetic_programs() {
    let mut programs = 0;
    for pattern in PatternKind::INJECTED {
        for seed in 0..SYNTH_SEEDS {
            let bug = generate_with_pattern(seed, pattern);
            check(&bug.name, &bug.program);
            programs += 1;
        }
    }
    assert!(programs >= 100, "compared {programs} programs");
}
