//! The sparse value-flow graph (SVFG) and the path-feasibility pruner.
//!
//! The slicer's Algorithm 1 walks the TICFG and pulls in *every* feasible
//! definition of every item it touches — flow-insensitive on globals,
//! context-insensitive across calls, and blind to branch conditions. Each
//! surviving statement becomes a watchpoint candidate, so that slack is
//! paid for at runtime in debug registers and AsT iterations. This module
//! builds the sparse counterpart: a graph whose nodes are statements and
//! whose edges are *value flows*, assembled from the reaching-definitions
//! solution ([`crate::dataflow::reaching_definitions`]) and the Andersen
//! points-to result ([`crate::points_to::PointsTo`]):
//!
//! * [`SvfgEdgeKind::Direct`] — register def → use, kept only when the
//!   def actually reaches the use (flow-sensitive, unlike the slicer's
//!   "all defs of the register" pull);
//! * [`SvfgEdgeKind::Memory`] — store/free → same-thread memory access
//!   through a syntactic global name, again filtered by reaching defs;
//! * [`SvfgEdgeKind::Interleaved`] — cross-thread flow on a shared
//!   origin. These deliberately mirror the slicer's alias pull verbatim:
//!   a write in another thread has no forward TICFG path to the reader,
//!   so reaching-definitions cannot vouch for it and the flow must stay
//!   over-approximate;
//! * [`SvfgEdgeKind::Param`]/[`SvfgEdgeKind::Ret`] — call/return bindings
//!   labelled with their call site, giving the backward walk one level of
//!   context sensitivity (1-CFA): entering a callee through the return
//!   edge of call site `c` only exits through parameters bound at `c`.
//!
//! Every edge additionally passes the [`Feasibility`] pruner: branch
//! conditions decided by constant propagation and must-equality facts
//! along CFG edges mark edges no concrete execution can take; value flows
//! whose every def→use path crosses such an edge are dropped.
//!
//! Because each edge is the corresponding Algorithm 1 pull *plus* extra
//! filters, a backward SVFG slice is a subset of the legacy TICFG slice
//! for the same criterion — the property test in `tests/svfg_prop.rs`
//! pins this, and the `repro -- svfg` ablation measures the shrink.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use gist_ir::icfg::Ticfg;
use gist_ir::{
    BlockId, CmpKind, FuncId, GlobalId, InstrId, Op, Operand, Program, Terminator, Value, VarId,
};

use crate::bitset::StmtSet;
use crate::dataflow::{reaching_definitions, ConstProp, ConstVal, Solution};
use crate::pass::ProgramFacts;
use crate::points_to::{LocSet, MemOrigin, PointsTo};

/// How a value reaches a use site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SvfgEdgeKind {
    /// Register def → register use within one function.
    Direct,
    /// Store/free → memory access through a syntactic global name, in
    /// program order (the def reaches the use).
    Memory,
    /// Write → access on a thread-shared origin; may cross threads, so it
    /// carries no reaching-defs guarantee.
    Interleaved,
    /// Call site → parameter use in the callee; the id is the call site.
    Param(InstrId),
    /// Callee return → call result; the id is the call site.
    Ret(InstrId),
}

/// One incoming value-flow edge of a use site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvfgEdge {
    /// The defining statement the value comes from.
    pub def: InstrId,
    /// How the value travels.
    pub kind: SvfgEdgeKind,
}

/// The sparse value-flow graph, stored backward: for each use site, the
/// edges the value may have arrived on.
pub struct Svfg {
    edges_in: BTreeMap<InstrId, Vec<SvfgEdge>>,
    /// The feasibility pruner used while building (shared with clients
    /// that want to ask their own path questions, e.g. the null-flow
    /// lint's guard check).
    pub feasibility: Feasibility,
}

impl Svfg {
    /// Builds the graph from the program's points-to facts, constant
    /// propagation and shared origins: reaching defs and the feasibility
    /// pruner, then one pass over all statements.
    pub(crate) fn build(facts: &ProgramFacts<'_>) -> Svfg {
        let (program, ticfg, pts) = (facts.program(), facts.ticfg(), facts.points_to());
        let rd = reaching_definitions(program, ticfg, pts);
        let feasibility = Feasibility::compute(program, ticfg, facts.consts());
        let mut b = Builder {
            program,
            ticfg,
            pts,
            rd: &rd,
            feas: &feasibility,
            shared: &facts.threads().shared_origins,
            reg_defs: HashMap::new(),
            global_writes: HashMap::new(),
            write_locs: pts.write_locs(program),
            edges: BTreeMap::new(),
        };
        b.index();
        b.run();
        Svfg {
            edges_in: b.edges,
            feasibility,
        }
    }

    /// The incoming value-flow edges of a use site (empty if none).
    pub fn edges_in(&self, use_site: InstrId) -> &[SvfgEdge] {
        self.edges_in.get(&use_site).map_or(&[], Vec::as_slice)
    }

    /// All use sites that have at least one incoming edge, in id order.
    pub fn use_sites(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.edges_in.keys().copied()
    }

    /// Total edge count (ablation reporting).
    pub fn edge_count(&self) -> usize {
        self.edges_in.values().map(Vec::len).sum()
    }

    /// Backward 1-CFA value-flow reachability from `criterion`: every
    /// statement whose value may flow into it, with the hop distance of
    /// the shortest flow chain. Context discipline: following a
    /// [`SvfgEdgeKind::Ret`] edge into a callee remembers the call site,
    /// and a [`SvfgEdgeKind::Param`] edge only exits through the same
    /// site (or any site when the context is unknown).
    pub fn backward_value_flow(&self, criterion: InstrId) -> HashMap<InstrId, u64> {
        let mut dist: HashMap<InstrId, u64> = HashMap::new();
        let mut seen: BTreeSet<(InstrId, Option<InstrId>)> = BTreeSet::new();
        let mut q: VecDeque<(InstrId, Option<InstrId>, u64)> = VecDeque::new();
        seen.insert((criterion, None));
        q.push_back((criterion, None, 0));
        while let Some((s, ctx, d)) = q.pop_front() {
            let slot = dist.entry(s).or_insert(d);
            if d < *slot {
                *slot = d;
            }
            for e in self.edges_in(s) {
                let next_ctx = match e.kind {
                    SvfgEdgeKind::Ret(c) => Some(c),
                    SvfgEdgeKind::Param(c) => {
                        if ctx.is_some() && ctx != Some(c) {
                            continue; // entered through a different call site
                        }
                        None
                    }
                    _ => ctx,
                };
                if seen.insert((e.def, next_ctx)) {
                    q.push_back((e.def, next_ctx, d + 1));
                }
            }
        }
        dist
    }
}

struct Builder<'a> {
    program: &'a Program,
    ticfg: &'a Ticfg,
    pts: &'a PointsTo,
    rd: &'a Solution<StmtSet>,
    feas: &'a Feasibility,
    shared: &'a BTreeSet<MemOrigin>,
    reg_defs: HashMap<(FuncId, VarId), Vec<InstrId>>,
    global_writes: HashMap<GlobalId, Vec<InstrId>>,
    /// Cells written by each store/free (frees widened to the origin).
    write_locs: BTreeMap<InstrId, LocSet>,
    edges: BTreeMap<InstrId, Vec<SvfgEdge>>,
}

impl Builder<'_> {
    fn index(&mut self) {
        for f in &self.program.functions {
            for b in &f.blocks {
                for i in &b.instrs {
                    if let Some(d) = i.op.def() {
                        self.reg_defs.entry((f.id, d)).or_default().push(i.id);
                    }
                    if let Some(Operand::Global(g)) = i.op.access_addr() {
                        if i.op.is_memory_write() {
                            self.global_writes.entry(g).or_default().push(i.id);
                        }
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        for fi in 0..self.program.functions.len() {
            let f = &self.program.functions[fi];
            let fid = f.id;
            let nparams = f.params.len() as u32;
            let mut work: Vec<(InstrId, Vec<Operand>, bool)> = Vec::new();
            for b in &f.blocks {
                for i in &b.instrs {
                    work.push((i.id, i.op.uses(), true));
                }
                work.push((b.term.id(), b.term.uses(), false));
            }
            for (s, uses, is_instr) in work {
                if !self.feas.stmt_live(self.program, s) {
                    continue;
                }
                for o in &uses {
                    match *o {
                        Operand::Var(v) => self.register_edges(fid, s, v, nparams),
                        Operand::Global(g) => self.global_edges(s, g),
                        Operand::Const(_) => {}
                    }
                }
                if is_instr {
                    self.alias_edges(s);
                    self.return_edges(s);
                }
            }
        }
    }

    fn push(&mut self, use_site: InstrId, def: InstrId, kind: SvfgEdgeKind) {
        let edges = self.edges.entry(use_site).or_default();
        let e = SvfgEdge { def, kind };
        if !edges.contains(&e) {
            edges.push(e);
        }
    }

    /// `Direct` edges from reaching defs of `v`, plus `Param` edges from
    /// every call site when `v` is a parameter.
    fn register_edges(&mut self, fid: FuncId, s: InstrId, v: VarId, nparams: u32) {
        let defs: Vec<InstrId> = self.reg_defs.get(&(fid, v)).cloned().unwrap_or_default();
        for d in defs {
            if d != s
                && self.rd.before(s).contains(d)
                && self.feas.stmt_live(self.program, d)
                && self.feas.intra_path_feasible(self.program, d, s)
            {
                self.push(s, d, SvfgEdgeKind::Direct);
            }
        }
        if v.0 < nparams {
            if let Some(callers) = self.ticfg.callers.get(&fid) {
                let callers = callers.clone();
                for cs in callers {
                    if self.feas.stmt_live(self.program, cs) {
                        self.push(s, cs, SvfgEdgeKind::Param(cs));
                    }
                }
            }
        }
    }

    /// Value flow through a syntactic global name. Thread-shared globals
    /// keep the slicer's flow-insensitive pull (`Interleaved`: any write,
    /// including locks); thread-confined ones get the sparse treatment
    /// (`Memory`: only writes that reach, only along feasible paths).
    fn global_edges(&mut self, s: InstrId, g: GlobalId) {
        let writes = self
            .global_writes
            .get(&g)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .to_vec();
        let is_shared = self.shared.contains(&MemOrigin::Global(g));
        for w in writes {
            if w == s || !self.feas.stmt_live(self.program, w) {
                continue;
            }
            if is_shared {
                self.push(s, w, SvfgEdgeKind::Interleaved);
            } else if self.rd.before(s).contains(w)
                && self.feas.intra_path_feasible(self.program, w, s)
            {
                self.push(s, w, SvfgEdgeKind::Memory);
            }
        }
    }

    /// The slicer's alias pull, verbatim: an access on a thread-shared
    /// cell flows from every store/free on an overlapping cell.
    fn alias_edges(&mut self, s: InstrId) {
        let locs: LocSet = self
            .pts
            .stmt_locs(self.program, s)
            .into_iter()
            .filter(|l| self.shared.contains(&l.origin))
            .collect();
        if locs.is_empty() {
            return;
        }
        let pulls: Vec<InstrId> = self
            .write_locs
            .iter()
            .filter(|(&w, wlocs)| {
                w != s && wlocs.iter().any(|wl| locs.iter().any(|rl| wl.overlaps(rl)))
            })
            .map(|(&w, _)| w)
            .collect();
        for w in pulls {
            if self.feas.stmt_live(self.program, w) {
                self.push(s, w, SvfgEdgeKind::Interleaved);
            }
        }
    }

    /// `Ret` edges: a call whose result is consumed flows from every
    /// returning statement of every callee, tagged with the call site.
    fn return_edges(&mut self, s: InstrId) {
        let Some(instr) = self.program.instr(s) else {
            return;
        };
        let Op::Call { dst: Some(_), .. } = &instr.op else {
            return;
        };
        let Some(targets) = self.ticfg.call_targets.get(&s) else {
            return;
        };
        let targets = targets.clone();
        for callee in targets {
            for b in &self.program.function(callee).blocks {
                if let Terminator::Ret {
                    id, value: Some(_), ..
                } = &b.term
                {
                    let id = *id;
                    if self.feas.stmt_live(self.program, id) {
                        self.push(s, id, SvfgEdgeKind::Ret(s));
                    }
                }
            }
        }
    }
}

/// A must-fact about a single-assignment register on entry to a block:
/// the register certainly equals a constant, or certainly differs from a
/// set of constants.
#[derive(Clone, Debug, Default, PartialEq)]
struct VarFact {
    eq: Option<Value>,
    ne: BTreeSet<Value>,
}

/// A branch-edge implication about a register.
#[derive(Clone, Copy, Debug, PartialEq)]
enum EdgeFact {
    /// The register equals this value on the edge.
    Eq(VarId, Value),
    /// The register differs from this value on the edge.
    Ne(VarId, Value),
}

type BlockFacts = BTreeMap<VarId, VarFact>;

/// The path-feasibility pruner: constant-propagated branch decisions plus
/// a per-function must-equality dataflow whose contradictions mark CFG
/// edges no concrete execution can take.
///
/// Soundness: facts are tracked only for registers with exactly one
/// defining statement (true SSA temporaries — MiniC allows shadowing
/// re-assignment, which disqualifies a register), so a fact learned on a
/// branch edge can never be invalidated downstream. Join is intersection:
/// a fact survives a merge point only if every feasible incoming edge
/// implies it.
pub struct Feasibility {
    /// (branch terminator, successor block) pairs that cannot be taken.
    infeasible: BTreeSet<(InstrId, BlockId)>,
    /// Per function, per block: reachable from the function entry over
    /// feasible edges only.
    live_blocks: Vec<Vec<bool>>,
    /// Per function, per block: the block set reachable through at least
    /// one feasible edge (so a block appears in its own set only on a
    /// cycle).
    reach: Vec<Vec<BTreeSet<usize>>>,
    /// Per function: branch-edge implications, for hypothesis queries.
    edge_facts: HashMap<(InstrId, BlockId), Vec<EdgeFact>>,
}

impl Feasibility {
    /// Runs the pruner: seeds infeasible edges from constant-propagated
    /// branch conditions, then iterates the must-fact dataflow and the
    /// contradiction check to a fixpoint (bounded at four rounds; each
    /// round only removes edges, so the bound is a safety net).
    pub fn compute(program: &Program, ticfg: &Ticfg, consts: &ConstProp) -> Feasibility {
        let mut feas = Feasibility {
            infeasible: BTreeSet::new(),
            live_blocks: Vec::new(),
            reach: Vec::new(),
            edge_facts: HashMap::new(),
        };
        for f in &program.functions {
            let single_defs = single_def_map(f);
            // Edge facts and constprop-decided branches.
            for b in &f.blocks {
                if let Terminator::CondBr {
                    id,
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } = &b.term
                {
                    if let ConstVal::Const(c) = consts.operand_const(f.id, *cond) {
                        let dead = if c != 0 { *else_bb } else { *then_bb };
                        feas.infeasible.insert((*id, dead));
                    }
                    for (taken, target) in [(true, *then_bb), (false, *else_bb)] {
                        let facts = branch_implications(&single_defs, *cond, taken);
                        if !facts.is_empty() {
                            feas.edge_facts.insert((*id, target), facts);
                        }
                    }
                }
            }
            // Must-fact rounds: propagate, find contradictions, repeat.
            for _round in 0..4 {
                let in_facts = feas.solve_facts(f);
                let mut grew = false;
                for b in &f.blocks {
                    let Some(Some(facts)) = in_facts.get(b.id.index()) else {
                        continue;
                    };
                    let term_id = b.term.id();
                    for succ in b.term.successors() {
                        if feas.infeasible.contains(&(term_id, succ)) {
                            continue;
                        }
                        let contradicted = feas
                            .edge_facts
                            .get(&(term_id, succ))
                            .map(|efs| efs.iter().any(|ef| contradicts(facts, ef)))
                            .unwrap_or(false);
                        if contradicted {
                            feas.infeasible.insert((term_id, succ));
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
        }
        // Per-function block liveness and reachability over feasible edges.
        for f in &program.functions {
            let n = f.blocks.len();
            let mut live = vec![false; n];
            if n > 0 {
                let mut q = VecDeque::from([0usize]);
                live[0] = true;
                while let Some(bi) = q.pop_front() {
                    for succ in feas.feasible_succs(f, bi) {
                        if !live[succ] {
                            live[succ] = true;
                            q.push_back(succ);
                        }
                    }
                }
            }
            let mut reach = Vec::with_capacity(n);
            for start in 0..n {
                let mut seen: BTreeSet<usize> = BTreeSet::new();
                let mut q: VecDeque<usize> = feas.feasible_succs(f, start).collect();
                while let Some(bi) = q.pop_front() {
                    if seen.insert(bi) {
                        q.extend(feas.feasible_succs(f, bi));
                    }
                }
                reach.push(seen);
            }
            feas.live_blocks.push(live);
            feas.reach.push(reach);
        }
        let _ = ticfg;
        feas
    }

    fn feasible_succs<'f>(
        &'f self,
        f: &'f gist_ir::Function,
        bi: usize,
    ) -> impl Iterator<Item = usize> + 'f {
        let term = &f.blocks[bi].term;
        let term_id = term.id();
        term.successors()
            .into_iter()
            .filter(move |s| !self.infeasible.contains(&(term_id, *s)))
            .map(|s| s.index())
    }

    /// One forward must-fact pass over a function, given the current
    /// infeasible-edge set. `None` = block unreachable.
    fn solve_facts(&self, f: &gist_ir::Function) -> Vec<Option<BlockFacts>> {
        let n = f.blocks.len();
        let mut facts: Vec<Option<BlockFacts>> = vec![None; n];
        if n == 0 {
            return facts;
        }
        facts[0] = Some(BlockFacts::new());
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        let mut guard = 0usize;
        while let Some(bi) = work.pop_front() {
            guard += 1;
            if guard > n.saturating_mul(64) + 64 {
                break; // defensive bound
            }
            let Some(cur) = facts[bi].clone() else {
                continue;
            };
            let term = &f.blocks[bi].term;
            let term_id = term.id();
            for succ in term.successors() {
                if self.infeasible.contains(&(term_id, succ)) {
                    continue;
                }
                let mut out = cur.clone();
                if let Some(efs) = self.edge_facts.get(&(term_id, succ)) {
                    for ef in efs {
                        apply_fact(&mut out, ef);
                    }
                }
                let si = succ.index();
                let merged = match &facts[si] {
                    None => out,
                    Some(prev) => meet(prev, &out),
                };
                if facts[si].as_ref() != Some(&merged) {
                    facts[si] = Some(merged);
                    work.push_back(si);
                }
            }
        }
        facts
    }

    /// True if the (branch, successor block) edge may be taken.
    pub fn edge_feasible(&self, branch: InstrId, target: BlockId) -> bool {
        !self.infeasible.contains(&(branch, target))
    }

    /// Number of pruned CFG edges (ablation reporting).
    pub fn pruned_edge_count(&self) -> usize {
        self.infeasible.len()
    }

    /// True if the statement's block is reachable from its function entry
    /// over feasible edges.
    pub fn stmt_live(&self, program: &Program, s: InstrId) -> bool {
        let Some(pos) = program.stmt_pos(s) else {
            return true;
        };
        self.live_blocks
            .get(pos.func.index())
            .and_then(|blocks| blocks.get(pos.block.index()))
            .copied()
            .unwrap_or(true)
    }

    /// True if some feasible intra-function CFG path runs from `from` to
    /// `to`. Statements in different functions conservatively answer
    /// true (the caller decides whether a cross-function check applies).
    pub fn intra_path_feasible(&self, program: &Program, from: InstrId, to: InstrId) -> bool {
        let (Some(a), Some(b)) = (program.stmt_pos(from), program.stmt_pos(to)) else {
            return true;
        };
        if a.func != b.func {
            return true;
        }
        if a.block == b.block && a.index < b.index {
            return true;
        }
        self.reach
            .get(a.func.index())
            .and_then(|r| r.get(a.block.index()))
            .map(|set| set.contains(&b.block.index()))
            .unwrap_or(true)
    }

    /// True if some feasible path from `from` to `to` exists on which the
    /// hypothesis `var == 0` is never contradicted by a branch-edge fact —
    /// i.e. `to` can still execute with `var` null. Returns false when
    /// every path is guarded by a null check (the Casper-style suppression
    /// in the null-flow lint). Both statements must be in one function;
    /// cross-function queries conservatively answer true.
    pub fn reachable_with_null(
        &self,
        program: &Program,
        from: InstrId,
        to: InstrId,
        var: VarId,
    ) -> bool {
        let (Some(a), Some(b)) = (program.stmt_pos(from), program.stmt_pos(to)) else {
            return true;
        };
        if a.func != b.func {
            return true;
        }
        if a.block == b.block && a.index < b.index {
            return true; // no branch in between
        }
        let f = program.function(a.func);
        let goal = b.block.index();
        let allowed = |term_id: InstrId, succ: BlockId| -> bool {
            if self.infeasible.contains(&(term_id, succ)) {
                return false;
            }
            match self.edge_facts.get(&(term_id, succ)) {
                None => true,
                Some(efs) => !efs.iter().any(|ef| match *ef {
                    EdgeFact::Ne(v, k) => v == var && k == 0,
                    EdgeFact::Eq(v, k) => v == var && k != 0,
                }),
            }
        };
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        let start_term = &f.blocks[a.block.index()].term;
        for succ in start_term.successors() {
            if allowed(start_term.id(), succ) {
                q.push_back(succ.index());
            }
        }
        while let Some(bi) = q.pop_front() {
            if bi == goal {
                return true;
            }
            if !seen.insert(bi) {
                continue;
            }
            let term = &f.blocks[bi].term;
            for succ in term.successors() {
                if allowed(term.id(), succ) {
                    q.push_back(succ.index());
                }
            }
        }
        false
    }
}

/// The single-assignment registers of `f`: parameters with no body
/// re-definition, and non-parameters with exactly one defining statement
/// (MiniC allows shadowing re-assignment, which disqualifies a register).
/// Only these can carry must-facts. Mapped to the defining op when there
/// is one in the body.
struct SingleDefs<'f> {
    safe: BTreeSet<VarId>,
    def_op: HashMap<VarId, &'f Op>,
}

fn single_def_map(f: &gist_ir::Function) -> SingleDefs<'_> {
    let mut counts: HashMap<VarId, usize> = HashMap::new();
    let mut def_op: HashMap<VarId, &Op> = HashMap::new();
    for b in &f.blocks {
        for i in &b.instrs {
            if let Some(d) = i.op.def() {
                *counts.entry(d).or_insert(0) += 1;
                def_op.insert(d, &i.op);
            }
        }
    }
    let nparams = f.params.len() as u32;
    let mut safe = BTreeSet::new();
    for v in 0..f.var_names.len() as u32 {
        let v = VarId(v);
        let body_defs = counts.get(&v).copied().unwrap_or(0);
        let is_param = v.0 < nparams;
        if (is_param && body_defs == 0) || (!is_param && body_defs == 1) {
            safe.insert(v);
        }
    }
    def_op.retain(|v, _| safe.contains(v));
    SingleDefs { safe, def_op }
}

/// What taking (or not taking) a branch on `cond` implies about
/// single-assignment registers.
fn branch_implications(single_defs: &SingleDefs<'_>, cond: Operand, taken: bool) -> Vec<EdgeFact> {
    let mut out = Vec::new();
    let Operand::Var(c) = cond else {
        return out;
    };
    // A single-assignment condition register is itself constrained.
    if single_defs.safe.contains(&c) {
        if taken {
            out.push(EdgeFact::Ne(c, 0));
        } else {
            out.push(EdgeFact::Eq(c, 0));
        }
        // And if it is a comparison against a constant, so is its operand.
        if let Some(Op::Cmp { kind, a, b, .. }) = single_defs.def_op.get(&c) {
            let vk = match (a, b) {
                (Operand::Var(v), Operand::Const(k)) | (Operand::Const(k), Operand::Var(v)) => {
                    Some((*v, *k))
                }
                _ => None,
            };
            if let Some((v, k)) = vk {
                if single_defs.safe.contains(&v) {
                    match (kind, taken) {
                        (CmpKind::Eq, true) | (CmpKind::Ne, false) => {
                            out.push(EdgeFact::Eq(v, k));
                        }
                        (CmpKind::Eq, false) | (CmpKind::Ne, true) => {
                            out.push(EdgeFact::Ne(v, k));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

fn apply_fact(facts: &mut BlockFacts, ef: &EdgeFact) {
    match *ef {
        EdgeFact::Eq(v, k) => {
            facts.entry(v).or_default().eq = Some(k);
        }
        EdgeFact::Ne(v, k) => {
            facts.entry(v).or_default().ne.insert(k);
        }
    }
}

/// Intersection of two must-fact maps: a fact survives only if both sides
/// carry it.
fn meet(a: &BlockFacts, b: &BlockFacts) -> BlockFacts {
    let mut out = BlockFacts::new();
    for (v, fa) in a {
        let Some(fb) = b.get(v) else { continue };
        let eq = match (fa.eq, fb.eq) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        };
        let ne: BTreeSet<Value> = fa.ne.intersection(&fb.ne).copied().collect();
        if eq.is_some() || !ne.is_empty() {
            out.insert(*v, VarFact { eq, ne });
        }
    }
    out
}

/// True if the incoming must-facts rule the edge fact out.
fn contradicts(facts: &BlockFacts, ef: &EdgeFact) -> bool {
    match *ef {
        EdgeFact::Eq(v, k) => facts
            .get(&v)
            .map(|f| f.eq.is_some_and(|e| e != k) || f.ne.contains(&k))
            .unwrap_or(false),
        EdgeFact::Ne(v, k) => facts.get(&v).map(|f| f.eq == Some(k)).unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn build(text: &str) -> (Program, Svfg) {
        let p = parse_program("t", text).unwrap();
        let g = Svfg::build(&ProgramFacts::new(&p));
        (p, g)
    }

    #[test]
    fn direct_edges_follow_reaching_defs() {
        let (p, g) = build(
            r#"
fn main() {
entry:
  a = const 1
  b = add a, 1
  assert b, "boom"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let a = main.blocks[0].instrs[0].id;
        let b = main.blocks[0].instrs[1].id;
        let assert_ = main.blocks[0].instrs[2].id;
        assert!(g
            .edges_in(b)
            .iter()
            .any(|e| e.def == a && e.kind == SvfgEdgeKind::Direct));
        assert!(g
            .edges_in(assert_)
            .iter()
            .any(|e| e.def == b && e.kind == SvfgEdgeKind::Direct));
        let flow = g.backward_value_flow(assert_);
        assert_eq!(flow.get(&a), Some(&2));
        assert_eq!(flow.get(&b), Some(&1));
    }

    #[test]
    fn param_and_ret_edges_carry_the_call_site() {
        let (p, g) = build(
            r#"
fn mk(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  a = const 41
  r = call mk(a)
  assert r, "boom"
  ret
}
"#,
        );
        let mk = p.function_by_name("mk").unwrap();
        let main = p.function_by_name("main").unwrap();
        let call = main.blocks[0].instrs[1].id;
        let add = mk.blocks[0].instrs[0].id;
        let ret = mk.blocks[0].term.id();
        assert!(g
            .edges_in(call)
            .iter()
            .any(|e| e.def == ret && e.kind == SvfgEdgeKind::Ret(call)));
        assert!(g
            .edges_in(add)
            .iter()
            .any(|e| e.def == call && e.kind == SvfgEdgeKind::Param(call)));
        let flow = g.backward_value_flow(main.blocks[0].instrs[2].id);
        assert!(flow.contains_key(&add), "callee computation reached");
        assert!(
            flow.contains_key(&main.blocks[0].instrs[0].id),
            "argument source reached through the matching call site"
        );
    }

    #[test]
    fn one_cfa_context_blocks_cross_call_site_leaks() {
        // Two calls into `id`; the value flowing out of call site 1 must
        // not be attributed to call site 2's argument.
        let (p, g) = build(
            r#"
fn id(x) {
entry:
  ret x
}
fn main() {
entry:
  a = const 1
  b = const 2
  r1 = call id(a)
  r2 = call id(b)
  assert r1, "boom"
  ret
}
"#,
        );
        let main = p.function_by_name("main").unwrap();
        let a = main.blocks[0].instrs[0].id;
        let b = main.blocks[0].instrs[1].id;
        let assert_ = main.blocks[0].instrs[4].id;
        let flow = g.backward_value_flow(assert_);
        assert!(flow.contains_key(&a), "r1's argument flows in");
        assert!(
            !flow.contains_key(&b),
            "r2's argument must be blocked by the 1-CFA context: {flow:?}"
        );
    }

    #[test]
    fn thread_confined_global_flows_are_reaching_def_filtered() {
        // The overwritten store cannot reach the load; the legacy slicer
        // would pull it anyway (flow-insensitive global item pull).
        let (p, g) = build(
            r#"
global g = 0
fn main() {
entry:
  store $g, 1
  store $g, 2
  v = load $g
  assert v, "boom"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let s1 = main.blocks[0].instrs[0].id;
        let s2 = main.blocks[0].instrs[1].id;
        let load = main.blocks[0].instrs[2].id;
        let defs: Vec<InstrId> = g.edges_in(load).iter().map(|e| e.def).collect();
        assert!(defs.contains(&s2), "reaching store flows: {defs:?}");
        assert!(!defs.contains(&s1), "killed store pruned: {defs:?}");
    }

    #[test]
    fn shared_origin_writes_stay_interleaved() {
        let (p, g) = build(
            r#"
fn cons(q) {
entry:
  m = load q
  lock m
  unlock m
  ret
}
fn main() {
entry:
  q = alloc 1
  mu = alloc 1
  store q, mu
  t = spawn cons(q)
  free mu
  store q, 0
  join t
  ret
}
"#,
        );
        let cons = p.function_by_name("cons").unwrap();
        let main = p.function_by_name("main").unwrap();
        let load_q = cons.blocks[0].instrs[0].id;
        let store_null = main.blocks[0].instrs[5].id;
        let lock_m = cons.blocks[0].instrs[1].id;
        let free_mu = main.blocks[0].instrs[4].id;
        assert!(
            g.edges_in(load_q)
                .iter()
                .any(|e| e.def == store_null && e.kind == SvfgEdgeKind::Interleaved),
            "cross-thread store into the queue cell is an interleaved flow"
        );
        assert!(
            g.edges_in(lock_m)
                .iter()
                .any(|e| e.def == free_mu && e.kind == SvfgEdgeKind::Interleaved),
            "racing free flows into the lock"
        );
    }

    #[test]
    fn constprop_decided_branches_prune_flows() {
        // The false arm of `if (1)` writes g; that write can never reach
        // the load.
        let (p, g) = build(
            r#"
global g = 0
fn main() {
entry:
  c = const 1
  condbr c, yes, no
no:
  store $g, 7
  br done
yes:
  store $g, 9
  br done
done:
  v = load $g
  assert v, "boom"
  ret
}
"#,
        );
        let main = &p.functions[0];
        // Block ids follow first-reference order: entry, yes, no, done.
        let store_live = main.blocks[1].instrs[0].id; // in `yes`
        let store_dead = main.blocks[2].instrs[0].id; // in `no`
        let load = main.blocks[3].instrs[0].id;
        let defs: Vec<InstrId> = g.edges_in(load).iter().map(|e| e.def).collect();
        assert!(defs.contains(&store_live), "live arm flows: {defs:?}");
        assert!(!defs.contains(&store_dead), "dead arm pruned: {defs:?}");
    }

    #[test]
    fn contradictory_branch_facts_prune_paths() {
        // v == 0 on the taken edge contradicts the second check's taken
        // edge (v != 0): the store behind it can never reach the load.
        let (p, g) = build(
            r#"
global g = 0
global src = 0
fn main() {
entry:
  v = load $src
  z = cmp eq v, 0
  condbr z, zero, other
zero:
  z2 = cmp ne v, 0
  condbr z2, dead, done
dead:
  store $g, 7
  br done
other:
  br done
done:
  out = load $g
  assert out, "boom"
  ret
}
"#,
        );
        let main = &p.functions[0];
        // Block ids follow first-reference order: entry, zero, other, dead, done.
        let store_dead = main.blocks[3].instrs[0].id;
        let load = main.blocks[4].instrs[0].id;
        let defs: Vec<InstrId> = g.edges_in(load).iter().map(|e| e.def).collect();
        assert!(
            !defs.contains(&store_dead),
            "store behind contradictory checks pruned: {defs:?}"
        );
        assert!(!g.feasibility.stmt_live(&p, store_dead));
    }

    #[test]
    fn null_hypothesis_blocked_by_guard() {
        let p = parse_program(
            "t",
            r#"
global slot = 0
fn main() {
entry:
  m = load $slot
  z = cmp eq m, 0
  condbr z, skip, use
use:
  lock m
  br skip
skip:
  ret
}
"#,
        )
        .unwrap();
        let g = Svfg::build(&ProgramFacts::new(&p));
        let main = &p.functions[0];
        let load = main.blocks[0].instrs[0].id;
        // Block ids follow first-reference order: entry, skip, use.
        let lock = main.blocks[2].instrs[0].id;
        let m = main.var_names.iter().position(|n| n == "m").unwrap() as u32;
        assert!(
            !g.feasibility.reachable_with_null(&p, load, lock, VarId(m)),
            "the eq-zero check guards the lock"
        );
        // Without the guard the hypothesis survives.
        let p2 = parse_program(
            "t",
            r#"
global slot = 0
fn main() {
entry:
  m = load $slot
  lock m
  ret
}
"#,
        )
        .unwrap();
        let g2 = Svfg::build(&ProgramFacts::new(&p2));
        let main2 = &p2.functions[0];
        let load2 = main2.blocks[0].instrs[0].id;
        let lock2 = main2.blocks[0].instrs[1].id;
        let m2 = main2.var_names.iter().position(|n| n == "m").unwrap() as u32;
        assert!(g2
            .feasibility
            .reachable_with_null(&p2, load2, lock2, VarId(m2)));
    }
}
