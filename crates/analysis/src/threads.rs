//! The program's thread model: the static facts about threads that the
//! race detector, the MHP relation, the lock-order detector, the lints
//! and the alias-aware slicer all share.
//!
//! * **Spawn sites**, in program order. Each opens one thread context:
//!   context 0 is the main thread, context `i + 1` the thread started at
//!   `spawn_sites[i]`.
//! * **Function contexts**: the contexts that may run each function,
//!   found by walking plain call edges from the entry function and from
//!   each spawn site's routines (a spawned routine roots its own context).
//! * The **CFG-cycle test**: whether a spawn's block sits on a cycle of
//!   its function's CFG, so the spawn may start several threads.
//! * **Locksets**: a flow-sensitive, interprocedural analysis of the
//!   mutexes certainly held before every statement — `lock` adds the
//!   mutex's abstract cells, `unlock` removes them, control-flow joins
//!   intersect, and a callee starts with the intersection of its call
//!   sites' locksets.
//! * **Shared origins**: memory origins accessed from two different
//!   contexts, or from a context whose spawn sits on a cycle.
//!
//! What each consumer *concludes* from these facts stays its own policy:
//! the race detector sheds initialization code from the main thread, and
//! the MHP relation treats more spawn sites as multi-instance than the
//! cycle test alone.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gist_ir::dom::DomTree;
use gist_ir::icfg::Ticfg;
use gist_ir::program::StmtPos;
use gist_ir::{BlockId, FuncId, InstrId, Op, Program, Terminator};

use crate::points_to::{Loc, MemOrigin, PointsTo};
use crate::race::{lockset_intersect, AccessKind, Lockset};

/// The solved thread model of one program.
#[derive(Clone, Debug)]
pub struct ThreadModel {
    /// Static `spawn` statements in program order, with the function
    /// containing each.
    pub(crate) spawn_sites: Vec<(InstrId, FuncId)>,
    /// Thread contexts that may run each function (0 = main thread,
    /// `i + 1` = the thread of `spawn_sites[i]`).
    pub(crate) func_ctxs: BTreeMap<FuncId, BTreeSet<usize>>,
    /// Per spawn site: its block sits on a CFG cycle.
    pub(crate) spawn_in_cycle: Vec<bool>,
    /// Locks certainly held before each statement.
    pub(crate) locksets: BTreeMap<InstrId, Lockset>,
    /// Origins accessed from more than one thread context, or from a
    /// context whose spawn sits on a cycle — the cells where cross-thread
    /// aliasing matters.
    ///
    /// The alias-aware slicer restricts its may-alias write pulling to
    /// these origins: same-thread heap flows are already captured by
    /// def-use chains and runtime watchpoints, so pulling every aliasing
    /// write in a sequential program would only inflate the slice (the
    /// §3.1 blow-up). Single-threaded programs have no shared origins.
    /// Initialization code is *not* shed from the main thread here: writes
    /// to a cell that later escapes still belong in the slice.
    pub shared_origins: BTreeSet<MemOrigin>,
}

/// One statement's memory access: what it does and which cells it may
/// touch.
pub(crate) struct MemAccess {
    /// The accessing statement.
    pub stmt: InstrId,
    /// The function containing it.
    pub func: FuncId,
    /// How it touches memory.
    pub kind: AccessKind,
    /// Cells it may touch (a free covers its whole origin).
    pub locs: BTreeSet<Loc>,
}

impl ThreadModel {
    /// Solves the model over a program, its TICFG and its points-to facts.
    pub(crate) fn compute(program: &Program, ticfg: &Ticfg, pts: &PointsTo) -> ThreadModel {
        let mut spawn_sites = Vec::new();
        let mut spawn_in_cycle = Vec::new();
        for f in &program.functions {
            for b in &f.blocks {
                for instr in &b.instrs {
                    if matches!(instr.op, Op::ThreadCreate { .. }) {
                        spawn_sites.push((instr.id, f.id));
                        spawn_in_cycle.push(block_in_cycle(ticfg, f.id, b.id));
                    }
                }
            }
        }
        let mut func_ctxs: BTreeMap<FuncId, BTreeSet<usize>> = BTreeMap::new();
        let mut mark = |roots: &[FuncId], ctx: usize| {
            for f in call_reach(program, ticfg, roots) {
                func_ctxs.entry(f).or_default().insert(ctx);
            }
        };
        mark(&[program.entry], 0);
        for (i, &(site, _)) in spawn_sites.iter().enumerate() {
            mark(call_targets(ticfg, site), i + 1);
        }
        let locksets = compute_locksets(program, ticfg, pts, &spawn_sites);
        let mut model = ThreadModel {
            spawn_sites,
            func_ctxs,
            spawn_in_cycle,
            locksets,
            shared_origins: BTreeSet::new(),
        };
        let accesses = memory_accesses(program, pts);
        model.shared_origins = model.shared_among(
            accesses
                .iter()
                .filter_map(|a| Some((&a.locs, model.func_ctxs.get(&a.func)?))),
        );
        model
    }

    /// True for a spawned context whose spawn site sits on a CFG cycle.
    pub(crate) fn ctx_in_cycle(&self, ctx: usize) -> bool {
        ctx > 0 && self.spawn_in_cycle[ctx - 1]
    }

    /// The origins among `accesses` (cells touched, contexts touching
    /// them) that are reached from two different contexts, or from one
    /// context whose spawn sits on a cycle.
    pub(crate) fn shared_among<'a>(
        &self,
        accesses: impl IntoIterator<Item = (&'a BTreeSet<Loc>, &'a BTreeSet<usize>)>,
    ) -> BTreeSet<MemOrigin> {
        let mut origin_ctxs: BTreeMap<MemOrigin, BTreeSet<usize>> = BTreeMap::new();
        for (locs, ctxs) in accesses {
            for loc in locs {
                origin_ctxs
                    .entry(loc.origin)
                    .or_default()
                    .extend(ctxs.iter().copied());
            }
        }
        origin_ctxs
            .into_iter()
            .filter(|(_, ctxs)| ctxs.len() >= 2 || ctxs.iter().any(|&c| self.ctx_in_cycle(c)))
            .map(|(o, _)| o)
            .collect()
    }
}

/// The routines a call or spawn statement may invoke.
fn call_targets(ticfg: &Ticfg, site: InstrId) -> &[FuncId] {
    ticfg.call_targets.get(&site).map_or(&[], Vec::as_slice)
}

/// Functions reachable from `roots` over plain call edges (spawn edges
/// open their own context, so they are excluded here).
fn call_reach(program: &Program, ticfg: &Ticfg, roots: &[FuncId]) -> BTreeSet<FuncId> {
    let mut seen: BTreeSet<FuncId> = roots.iter().copied().collect();
    let mut queue: VecDeque<FuncId> = seen.iter().copied().collect();
    while let Some(f) = queue.pop_front() {
        for b in &program.function(f).blocks {
            for instr in &b.instrs {
                if !matches!(instr.op, Op::Call { .. }) {
                    continue;
                }
                for &t in call_targets(ticfg, instr.id) {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
    }
    seen
}

/// True if `block` sits on a CFG cycle within its function.
fn block_in_cycle(ticfg: &Ticfg, func: FuncId, block: BlockId) -> bool {
    let cfg = &ticfg.cfgs[func.index()];
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<BlockId> = cfg.succs[block.index()].iter().copied().collect();
    while let Some(b) = queue.pop_front() {
        if b == block {
            return true;
        }
        if seen.insert(b) {
            queue.extend(cfg.succs[b.index()].iter().copied());
        }
    }
    false
}

/// Strict statement-level dominance within one function: `a` executes
/// before `b` on every path through their common function.
pub(crate) fn stmt_strictly_dominates(doms: &[DomTree], a: StmtPos, b: StmtPos) -> bool {
    if a.func != b.func {
        return false;
    }
    if a.block == b.block {
        return a.index < b.index;
    }
    doms[a.func.index()].strictly_dominates(a.block, b.block)
}

/// Every load, store, free, lock and unlock whose address the points-to
/// analysis resolves, in program order.
pub(crate) fn memory_accesses(program: &Program, pts: &PointsTo) -> Vec<MemAccess> {
    let mut out = Vec::new();
    for f in &program.functions {
        for b in &f.blocks {
            for instr in &b.instrs {
                let kind = match &instr.op {
                    Op::Load { .. } => AccessKind::Read,
                    Op::Store { .. } => AccessKind::Write,
                    Op::Free { .. } => AccessKind::Free,
                    Op::MutexLock { .. } | Op::MutexUnlock { .. } => AccessKind::Sync,
                    _ => continue,
                };
                let Some(addr) = instr.op.access_addr() else {
                    continue;
                };
                let mut locs = pts.operand_origins(f.id, addr);
                if kind == AccessKind::Free {
                    // A free invalidates the whole origin.
                    locs = locs.into_iter().map(|l| Loc::anywhere(l.origin)).collect();
                }
                if !locs.is_empty() {
                    out.push(MemAccess {
                        stmt: instr.id,
                        func: f.id,
                        kind,
                        locs,
                    });
                }
            }
        }
    }
    out
}

/// Flow-sensitive, interprocedural lockset analysis: the locks certainly
/// held before each statement.
fn compute_locksets(
    program: &Program,
    ticfg: &Ticfg,
    pts: &PointsTo,
    spawn_sites: &[(InstrId, FuncId)],
) -> BTreeMap<InstrId, Lockset> {
    let mut stmt_ls: BTreeMap<InstrId, Lockset> = BTreeMap::new();
    // None = not yet observed (top of the "intersection of call sites"
    // lattice). The entry and all spawn routines start lock-free.
    let mut entry_ls: BTreeMap<FuncId, Option<Lockset>> = BTreeMap::new();
    entry_ls.insert(program.entry, Some(Lockset::new()));
    for &(site, _) in spawn_sites {
        for &t in call_targets(ticfg, site) {
            entry_ls.insert(t, Some(Lockset::new()));
        }
    }
    // Locks a function certainly still holds at return, beyond what it
    // was entered with.
    let mut gains: BTreeMap<FuncId, Lockset> = BTreeMap::new();

    for _round in 0..32 {
        let mut changed = false;
        for f in &program.functions {
            if f.blocks.is_empty() {
                continue;
            }
            let Some(Some(entry_set)) = entry_ls.get(&f.id).cloned() else {
                continue;
            };
            // Per-block dataflow with intersection joins.
            let nblocks = f.blocks.len();
            let mut ins: Vec<Option<Lockset>> = vec![None; nblocks];
            ins[0] = Some(entry_set.clone());
            let mut worklist: VecDeque<usize> = VecDeque::from([0]);
            let mut ret_ls: Vec<Lockset> = Vec::new();
            let mut callee_updates: Vec<(FuncId, Lockset)> = Vec::new();
            let mut iterations = 0usize;
            while let Some(bi) = worklist.pop_front() {
                iterations += 1;
                if iterations > nblocks * 64 {
                    break; // defensive bound
                }
                let Some(mut ls) = ins[bi].clone() else {
                    continue;
                };
                let b = &f.blocks[bi];
                for instr in &b.instrs {
                    stmt_ls.insert(instr.id, ls.clone());
                    match &instr.op {
                        Op::MutexLock { addr } => {
                            ls.extend(pts.operand_origins(f.id, *addr));
                        }
                        Op::MutexUnlock { addr } => {
                            for loc in pts.operand_origins(f.id, *addr) {
                                ls.remove(&loc);
                            }
                        }
                        Op::Call { .. } => {
                            for &t in call_targets(ticfg, instr.id) {
                                callee_updates.push((t, ls.clone()));
                                ls.extend(gains.get(&t).cloned().unwrap_or_default());
                            }
                        }
                        _ => {}
                    }
                }
                stmt_ls.insert(b.term.id(), ls.clone());
                if matches!(b.term, Terminator::Ret { .. }) {
                    ret_ls.push(ls.difference(&entry_set).copied().collect());
                }
                for succ in b.term.successors() {
                    if succ.index() >= nblocks {
                        continue;
                    }
                    let merged = match &ins[succ.index()] {
                        None => ls.clone(),
                        Some(prev) => lockset_intersect(prev, &ls),
                    };
                    if ins[succ.index()].as_ref() != Some(&merged) {
                        ins[succ.index()] = Some(merged);
                        worklist.push_back(succ.index());
                    }
                }
            }
            // Net lock gain: held at every return.
            let gain = ret_ls
                .into_iter()
                .reduce(|a, b| lockset_intersect(&a, &b))
                .unwrap_or_default();
            if gains.get(&f.id) != Some(&gain) {
                gains.insert(f.id, gain);
                changed = true;
            }
            // Callee entry locksets: intersection over call sites.
            for (t, ls) in callee_updates {
                let next = match entry_ls.get(&t) {
                    Some(Some(prev)) => lockset_intersect(prev, &ls),
                    _ => ls,
                };
                if entry_ls.get(&t) != Some(&Some(next.clone())) {
                    entry_ls.insert(t, Some(next));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stmt_ls
}
