//! One program's static facts, and a small pass framework over them.
//!
//! [`ProgramFacts`] holds every program-wide static analysis — TICFG,
//! points-to, thread model, constant propagation, SVFG, MHP, race
//! candidates and dead stores — each filled on first use and then
//! shared, the way the paper's server runs its analyses once per program
//! before instrumenting any production run (§3.1). The slicer, the Gist
//! server, the sketch engine and every lint borrow from one instance.
//! The [`PassManager`] runs a list of passes over one `ProgramFacts` and
//! collects their diagnostics into one sorted report, mirroring how the
//! paper's prototype chains LLVM analysis passes on the Gist server
//! before computing instrumentation plans.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use gist_ir::icfg::{Icfg, Ticfg};
use gist_ir::{InstrId, Program};

use crate::dataflow::{dead_stores, ConstProp};
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::mhp::Mhp;
use crate::points_to::PointsTo;
use crate::race::RaceAnalysis;
use crate::svfg::Svfg;
use crate::threads::ThreadModel;

/// The static facts of one program, each computed at most once.
///
/// Every slot is filled lazily on first use, so a consumer that never
/// asks for a fact (a disabled server toggle, say) never pays for it.
/// Facts live exactly as long as this value.
pub struct ProgramFacts<'p> {
    program: &'p Program,
    ticfg: OnceLock<Ticfg>,
    points_to: OnceLock<PointsTo>,
    threads: OnceLock<ThreadModel>,
    consts: OnceLock<ConstProp>,
    svfg: OnceLock<Svfg>,
    mhp: OnceLock<Mhp>,
    races: OnceLock<RaceAnalysis>,
    dead_stores: OnceLock<BTreeSet<InstrId>>,
}

impl<'p> ProgramFacts<'p> {
    /// Creates the facts of `program`. Nothing is computed up front.
    pub fn new(program: &'p Program) -> Self {
        ProgramFacts {
            program,
            ticfg: OnceLock::new(),
            points_to: OnceLock::new(),
            threads: OnceLock::new(),
            consts: OnceLock::new(),
            svfg: OnceLock::new(),
            mhp: OnceLock::new(),
            races: OnceLock::new(),
            dead_stores: OnceLock::new(),
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The thread-interprocedural CFG.
    pub fn ticfg(&self) -> &Ticfg {
        self.ticfg.get_or_init(|| Icfg::build_ticfg(self.program))
    }

    /// The points-to analysis.
    pub fn points_to(&self) -> &PointsTo {
        self.points_to
            .get_or_init(|| PointsTo::compute(self.program, self.ticfg()))
    }

    /// The thread model: spawn sites, contexts, locksets, shared origins.
    pub fn threads(&self) -> &ThreadModel {
        self.threads
            .get_or_init(|| ThreadModel::compute(self.program, self.ticfg(), self.points_to()))
    }

    /// Sparse interprocedural constant propagation.
    pub fn consts(&self) -> &ConstProp {
        self.consts
            .get_or_init(|| ConstProp::compute(self.program, self.ticfg()))
    }

    /// The sparse value-flow graph.
    pub fn svfg(&self) -> &Svfg {
        self.svfg.get_or_init(|| Svfg::build(self))
    }

    /// The may-happen-in-parallel relation.
    pub fn mhp(&self) -> &Mhp {
        self.mhp
            .get_or_init(|| Mhp::build(self.program, self.ticfg(), self.threads()))
    }

    /// The ranked static race candidates.
    pub fn races(&self) -> &RaceAnalysis {
        self.races.get_or_init(|| crate::race::detect(self))
    }

    /// Stores whose written cell is never observed again.
    pub fn dead_stores(&self) -> &BTreeSet<InstrId> {
        self.dead_stores
            .get_or_init(|| dead_stores(self.program, self.ticfg(), self.points_to()))
    }
}

/// One static analysis that reports diagnostics.
pub trait Pass {
    /// Short name used in reports and debugging.
    fn name(&self) -> &'static str;
    /// Runs the pass, returning its findings.
    fn run(&self, facts: &ProgramFacts<'_>) -> Vec<Diagnostic>;
}

/// Runs a sequence of passes over one program's shared facts.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes over `program` and returns the sorted diagnostics.
    pub fn run(&self, program: &Program) -> Vec<Diagnostic> {
        let facts = ProgramFacts::new(program);
        let mut diags = Vec::new();
        for pass in &self.passes {
            diags.extend(pass.run(&facts));
        }
        sort_diagnostics(&mut diags);
        diags
    }
}

/// The default pipeline: the IR verifier followed by the dataflow lints
/// (race, lock-order deadlock, dead store).
pub fn default_passes() -> PassManager {
    PassManager::new()
        .with_pass(crate::verify::VerifierPass)
        .with_pass(crate::race::RaceLintPass::default())
        .with_pass(crate::deadlock::DeadlockLintPass::default())
        .with_pass(crate::dataflow::DeadStoreLintPass::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new("tiny");
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn default_pipeline_accepts_a_trivial_program() {
        let p = tiny_program();
        let pm = default_passes();
        assert_eq!(
            pm.pass_names(),
            vec!["verify", "race-lint", "deadlock-lint", "dead-store-lint"]
        );
        assert!(pm.run(&p).is_empty());
    }

    #[test]
    fn ticfg_is_built_lazily_and_cached() {
        let p = tiny_program();
        let facts = ProgramFacts::new(&p);
        assert!(facts.ticfg.get().is_none(), "nothing is computed up front");
        // Every getter returns the cached object on repeat calls.
        assert!(std::ptr::eq(facts.ticfg(), facts.ticfg()));
        assert!(
            facts.points_to.get().is_none() && facts.svfg.get().is_none(),
            "a slot fills only what it depends on"
        );
        assert!(std::ptr::eq(facts.points_to(), facts.points_to()));
        assert!(std::ptr::eq(facts.threads(), facts.threads()));
        assert!(std::ptr::eq(facts.consts(), facts.consts()));
        assert!(std::ptr::eq(facts.svfg(), facts.svfg()));
        assert!(std::ptr::eq(facts.mhp(), facts.mhp()));
        assert!(std::ptr::eq(facts.races(), facts.races()));
        assert!(std::ptr::eq(facts.dead_stores(), facts.dead_stores()));
    }
}
