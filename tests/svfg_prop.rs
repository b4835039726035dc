//! Properties of the sparse value-flow graph (SVFG).
//!
//! Checked exhaustively over every bugbase program and every statement,
//! which is stronger than sampling: the miniatures are small enough that
//! the full cross-product runs in well under a second.
//!
//! 1. Intra-thread SVFG edges agree with reaching definitions: a
//!    `Direct` (register) or `Memory` (same-thread store) edge `def → use`
//!    only exists if `def` is in the reaching-defs fact before `use`.
//!    `Interleaved` edges deliberately carry no such guarantee, and
//!    `Param`/`Ret` edges cross call boundaries where the def site itself
//!    (the call or return) is the reaching definition.
//! 2. Sparse slices are subsets of legacy slices: for every criterion,
//!    every statement in `compute_with_svfg` also appears in `compute`.
//!    The SVFG prunes; it must never invent dependencies.

use gist_analysis::{reaching_definitions, ProgramFacts, SvfgEdgeKind};
use gist_ir::{InstrId, Program};
use gist_slicing::StaticSlicer;

fn all_instrs(program: &Program) -> Vec<InstrId> {
    program
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instrs.iter())
        .map(|i| i.id)
        .collect()
}

#[test]
fn intra_thread_edges_agree_with_reaching_defs() {
    for bug in gist_bugbase::all_bugs() {
        let program = &bug.program;
        let facts = ProgramFacts::new(program);
        let rd = reaching_definitions(program, facts.ticfg(), facts.points_to());
        let svfg = facts.svfg();
        for use_site in svfg.use_sites() {
            for edge in svfg.edges_in(use_site) {
                if !matches!(edge.kind, SvfgEdgeKind::Direct | SvfgEdgeKind::Memory) {
                    continue;
                }
                assert!(
                    rd.before(use_site).contains(&edge.def),
                    "{}: {:?} edge {:?} -> {:?} has no reaching definition",
                    bug.name,
                    edge.kind,
                    edge.def,
                    use_site,
                );
            }
        }
    }
}

#[test]
fn svfg_slices_are_subsets_of_legacy_slices() {
    for bug in gist_bugbase::all_bugs() {
        let slicer = StaticSlicer::new(&bug.program);
        for criterion in all_instrs(&bug.program) {
            let legacy = slicer.compute(criterion);
            let sparse = slicer.compute_with_svfg(criterion);
            for &s in sparse.in_program_order().iter() {
                assert!(
                    legacy.contains(s),
                    "{}: criterion {:?}: sparse slice member {:?} missing from legacy slice",
                    bug.name,
                    criterion,
                    s,
                );
            }
            assert!(
                sparse.contains(criterion),
                "{}: sparse slice must contain its own criterion {:?}",
                bug.name,
                criterion,
            );
        }
    }
}
