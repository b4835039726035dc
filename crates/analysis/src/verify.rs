//! The IR verifier and lint pass.
//!
//! Checks, in the order they were assigned codes:
//!
//! * **GA001** (error) — a textual block has no terminator. The in-memory
//!   IR cannot represent this (every [`gist_ir::BasicBlock`] owns exactly
//!   one terminator), so the check runs on `.gir` source text via
//!   [`verify_source`] before parsing.
//! * **GA002** (error) — a branch targets a nonexistent block.
//! * **GA003** (error) — a register use is not dominated by any definition.
//!   MiniC is not SSA, so the rule is: some definition of the register must
//!   appear earlier in the same block, in a strictly dominating block, or
//!   in the parameter list.
//! * **GA004** (error) — a direct call passes the wrong number of
//!   arguments (spawn routines take exactly one), or targets a
//!   nonexistent function.
//! * **GA005** (warning) — a block is unreachable from the function entry.
//! * **GA006** (warning) — a global is stored to but never read.
//! * **GA007** (warning) — a call binds the result of a callee that never
//!   returns a value.

use std::collections::{BTreeMap, BTreeSet};

use gist_ir::cfg::Cfg;
use gist_ir::dom::DomTree;
use gist_ir::parser::parse_program;
use gist_ir::{Callee, Function, GlobalId, Op, Operand, Program, Terminator, VarId};

use crate::diag::{sort_diagnostics, Diagnostic};
use crate::pass::{Pass, ProgramFacts};

/// Runs every program-level verifier check (GA002–GA007) and returns the
/// sorted diagnostics. GA001 is textual; see [`verify_source`].
pub fn verify(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &program.functions {
        verify_function(program, f, &mut diags);
    }
    lint_write_only_globals(program, &mut diags);
    sort_diagnostics(&mut diags);
    diags
}

fn verify_function(program: &Program, f: &Function, diags: &mut Vec<Diagnostic>) {
    if f.blocks.is_empty() {
        // Declared-but-undefined functions are legal (externs); nothing to
        // check inside them.
        return;
    }
    // GA002 first: branch targets must exist before a CFG can be built at
    // all, so the dominance-based checks below are skipped on failure.
    let mut bad_targets = false;
    for b in &f.blocks {
        for t in b.term.successors() {
            if t.index() >= f.blocks.len() {
                bad_targets = true;
                diags.push(
                    Diagnostic::error(
                        "GA002",
                        format!("branch in fn `{}` targets nonexistent block {t}", f.name),
                    )
                    .at(b.term.loc())
                    .in_func(f.id),
                );
            }
        }
    }
    let cfg_dom = if bad_targets {
        None
    } else {
        let cfg = Cfg::build(f);
        let dom = DomTree::dominators(&cfg);
        Some((cfg, dom))
    };

    // GA005: dead blocks.
    if let Some((cfg, _)) = &cfg_dom {
        for b in &f.blocks {
            if !cfg.reachable.get(b.id.index()).copied().unwrap_or(false) {
                diags.push(
                    Diagnostic::warning(
                        "GA005",
                        format!("block `{}` in fn `{}` is unreachable", b.label, f.name),
                    )
                    .at(b.term.loc())
                    .in_func(f.id),
                );
            }
        }
    }

    // Definition sites per register: (block, index-within-block).
    let mut defs: BTreeMap<VarId, Vec<(gist_ir::BlockId, usize)>> = BTreeMap::new();
    for b in &f.blocks {
        for (i, instr) in b.instrs.iter().enumerate() {
            if let Some(d) = instr.op.def() {
                defs.entry(d).or_default().push((b.id, i));
            }
        }
    }
    let params: BTreeSet<VarId> = f.params.iter().copied().collect();

    let dominated = |v: VarId, block: gist_ir::BlockId, index: usize| -> bool {
        if params.contains(&v) {
            return true;
        }
        let Some((_, dom)) = &cfg_dom else {
            return true; // no CFG: skip dominance checks (GA002 reported)
        };
        defs.get(&v).is_some_and(|sites| {
            sites
                .iter()
                .any(|&(db, di)| (db == block && di < index) || dom.strictly_dominates(db, block))
        })
    };

    for b in &f.blocks {
        // Dominance is meaningless in dead blocks (already GA005).
        let live = cfg_dom
            .as_ref()
            .is_some_and(|(cfg, _)| cfg.reachable.get(b.id.index()).copied().unwrap_or(false));
        for (i, instr) in b.instrs.iter().enumerate() {
            // GA003: every register use must be dominated by a definition.
            if live {
                for u in instr.op.uses() {
                    if let Operand::Var(v) = u {
                        if !dominated(v, b.id, i) {
                            diags.push(
                                Diagnostic::error(
                                    "GA003",
                                    format!(
                                        "use of register `{}` in fn `{}` is not dominated \
                                         by any definition",
                                        f.var_name(v),
                                        f.name
                                    ),
                                )
                                .at(instr.loc)
                                .in_func(f.id),
                            );
                        }
                    }
                }
            }
            // GA004: call arity and callee existence.
            let call = match &instr.op {
                Op::Call { callee, args, .. } => Some((callee, args.len(), "call")),
                Op::ThreadCreate { routine, .. } => Some((routine, 1, "spawn")),
                _ => None,
            };
            if let Some((Callee::Direct(target), nargs, what)) = call {
                if target.index() >= program.functions.len() {
                    diags.push(
                        Diagnostic::error(
                            "GA004",
                            format!(
                                "{what} in fn `{}` targets nonexistent function {target}",
                                f.name
                            ),
                        )
                        .at(instr.loc)
                        .in_func(f.id),
                    );
                } else {
                    let callee_fn = &program.functions[target.index()];
                    let want = callee_fn.params.len();
                    if want != nargs {
                        diags.push(
                            Diagnostic::error(
                                "GA004",
                                format!(
                                    "{what} in fn `{}` passes {nargs} argument{} to \
                                     `{}` which expects {want}",
                                    f.name,
                                    if nargs == 1 { "" } else { "s" },
                                    callee_fn.name
                                ),
                            )
                            .at(instr.loc)
                            .in_func(f.id),
                        );
                    }
                    // GA007: result bound from a callee that never returns
                    // a value.
                    if let Op::Call { dst: Some(_), .. } = &instr.op {
                        if !callee_fn.blocks.is_empty() && !returns_value(callee_fn) {
                            diags.push(
                                Diagnostic::warning(
                                    "GA007",
                                    format!(
                                        "call in fn `{}` binds the result of `{}`, \
                                         which never returns a value",
                                        f.name, callee_fn.name
                                    ),
                                )
                                .at(instr.loc)
                                .in_func(f.id),
                            );
                        }
                    }
                }
            }
        }
        // Terminator checks.
        if live {
            for u in b.term.uses() {
                if let Operand::Var(v) = u {
                    if !dominated(v, b.id, b.instrs.len()) {
                        diags.push(
                            Diagnostic::error(
                                "GA003",
                                format!(
                                    "use of register `{}` in fn `{}` is not dominated \
                                     by any definition",
                                    f.var_name(v),
                                    f.name
                                ),
                            )
                            .at(b.term.loc())
                            .in_func(f.id),
                        );
                    }
                }
            }
        }
    }
}

/// True if any `ret` in `f` carries a value.
fn returns_value(f: &Function) -> bool {
    f.blocks
        .iter()
        .any(|b| matches!(&b.term, Terminator::Ret { value: Some(_), .. }))
}

/// GA006: globals that are stored to but never read or otherwise used.
fn lint_write_only_globals(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut stored: BTreeSet<GlobalId> = BTreeSet::new();
    let mut otherwise_used: BTreeSet<GlobalId> = BTreeSet::new();
    for f in &program.functions {
        for b in &f.blocks {
            for instr in &b.instrs {
                if let Op::Store { addr, value } = &instr.op {
                    if let Operand::Global(g) = addr {
                        stored.insert(*g);
                    }
                    if let Operand::Global(g) = value {
                        otherwise_used.insert(*g);
                    }
                    continue;
                }
                for u in instr.op.uses() {
                    if let Operand::Global(g) = u {
                        otherwise_used.insert(g);
                    }
                }
            }
            for u in b.term.uses() {
                if let Operand::Global(g) = u {
                    otherwise_used.insert(g);
                }
            }
        }
    }
    for g in stored.difference(&otherwise_used) {
        let global = &program.globals[g.index()];
        diags.push(
            Diagnostic::warning(
                "GA006",
                format!("global `{}` is stored to but never read", global.name),
            )
            .at(global.loc),
        );
    }
}

/// The result of verifying a `.gir` source text.
#[derive(Debug)]
pub struct SourceVerification {
    /// The parsed program, when parsing succeeded.
    pub program: Option<Program>,
    /// All diagnostics: textual (GA001), parse errors (GA000), and
    /// program-level checks.
    pub diagnostics: Vec<Diagnostic>,
}

impl SourceVerification {
    /// True if the source is free of errors (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        !crate::diag::has_errors(&self.diagnostics)
    }
}

/// Verifies `.gir` source text: first the textual block-structure check
/// (GA001 — only representable at the text level, since the in-memory IR
/// forces one terminator per block), then a parse, then [`verify`] on the
/// parsed program.
pub fn verify_source(name: &str, text: &str) -> SourceVerification {
    let mut diagnostics = missing_terminators(text);
    match parse_program(name, text) {
        Ok(program) => {
            diagnostics.extend(verify(&program));
            sort_diagnostics(&mut diagnostics);
            SourceVerification {
                program: Some(program),
                diagnostics,
            }
        }
        Err(e) => {
            // Parse errors are only worth reporting when the textual scan
            // did not already explain the malformation.
            if diagnostics.is_empty() {
                diagnostics.push(Diagnostic::error("GA000", format!("parse error: {e}")));
            }
            SourceVerification {
                program: None,
                diagnostics,
            }
        }
    }
}

/// GA001: scans textual function bodies for blocks whose last statement is
/// not a terminator (`br`, `condbr`, `ret`, `unreachable`).
fn missing_terminators(text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut current_fn: Option<String> = None;
    // (label, line-number of label, last statement seen in the block)
    let mut block: Option<(String, usize, Option<String>)> = None;

    let mut close_block = |block: &mut Option<(String, usize, Option<String>)>, fn_name: &str| {
        if let Some((label, lineno, last)) = block.take() {
            let terminated = last.as_deref().map(is_terminator_stmt).unwrap_or(false);
            if !terminated {
                diags.push(Diagnostic::error(
                    "GA001",
                    format!(
                        "block `{label}` in fn `{fn_name}` (line {lineno}) has no \
                             terminator"
                    ),
                ));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(fn_name) = &current_fn {
            if line == "}" {
                let name = fn_name.clone();
                close_block(&mut block, &name);
                current_fn = None;
                continue;
            }
            if let Some(label) = line.strip_suffix(':') {
                if !label.contains(char::is_whitespace) {
                    let name = fn_name.clone();
                    close_block(&mut block, &name);
                    block = Some((label.to_owned(), lineno, None));
                    continue;
                }
            }
            match &mut block {
                Some((_, _, last)) => *last = Some(line.to_owned()),
                // Statements before any label: the implicit entry block.
                None => block = Some(("<entry>".to_owned(), lineno, Some(line.to_owned()))),
            }
        } else if let Some(rest) = line.strip_prefix("fn ") {
            let name = rest.split('(').next().unwrap_or(rest).trim().to_owned();
            current_fn = Some(name);
            block = None;
        }
    }
    diags
}

/// True if a textual statement is one of the four terminators.
fn is_terminator_stmt(stmt: &str) -> bool {
    let head = stmt.split_whitespace().next().unwrap_or("");
    matches!(head, "br" | "condbr" | "ret" | "unreachable")
}

/// [`verify`] packaged as a [`Pass`].
pub struct VerifierPass;

impl Pass for VerifierPass {
    fn name(&self) -> &'static str {
        "verify"
    }

    fn run(&self, facts: &ProgramFacts<'_>) -> Vec<Diagnostic> {
        verify(facts.program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;
    use gist_ir::{BlockId, FuncId};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ga001_missing_terminator_in_source_text() {
        let text = "\
fn main() {
entry:
  x = const 1
body:
  ret
}
";
        let v = verify_source("t", text);
        assert!(
            v.diagnostics.iter().any(|d| d.code == "GA001"),
            "expected GA001, got {:?}",
            v.diagnostics
        );
        assert!(!v.is_clean());
        let msg = &v
            .diagnostics
            .iter()
            .find(|d| d.code == "GA001")
            .unwrap()
            .message;
        assert!(msg.contains("entry") && msg.contains("main"), "{msg}");
    }

    #[test]
    fn ga002_bad_branch_target() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let exit = f.new_block("exit");
        f.br(exit);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let mut p = pb.finish().unwrap();
        if let Terminator::Br { target, .. } = &mut p.functions[0].blocks[0].term {
            *target = BlockId(42);
        } else {
            panic!("expected Br");
        }
        let diags = verify(&p);
        assert!(codes(&diags).contains(&"GA002"), "got {diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("bb42")));
    }

    #[test]
    fn ga003_undominated_use() {
        // `y` is defined only on the `then` path but used at the join.
        let text = "\
fn main() {
entry:
  c = const 0
  condbr c, then, join
then:
  y = const 7
  br join
join:
  z = add y, 1
  ret
}
";
        let v = verify_source("t", text);
        assert!(
            v.diagnostics.iter().any(|d| d.code == "GA003"),
            "expected GA003, got {:?}",
            v.diagnostics
        );
        // The same register dominated along every path is fine.
        let ok = "\
fn main() {
entry:
  y = const 1
  c = const 0
  condbr c, then, join
then:
  y = const 7
  br join
join:
  z = add y, 1
  ret
}
";
        assert!(verify_source("t", ok).is_clean());
    }

    #[test]
    fn ga004_call_arity_mismatch() {
        let mut pb = ProgramBuilder::new("t");
        let callee = {
            let mut g = pb.function("g", &["x"]);
            g.ret(None);
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        f.call(None, Callee::Direct(callee), &[Operand::Const(1)]);
        f.ret(None);
        f.finish();
        let mut p = pb.finish().unwrap();
        // Drop the argument after validation so only the verifier sees it.
        if let Op::Call { args, .. } = &mut p.functions[1].blocks[0].instrs[0].op {
            args.clear();
        } else {
            panic!("expected Call");
        }
        let diags = verify(&p);
        assert!(codes(&diags).contains(&"GA004"), "got {diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("expects 1")));
    }

    #[test]
    fn ga004_spawn_routine_arity() {
        let mut pb = ProgramBuilder::new("t");
        let routine = {
            let mut r = pb.function("worker", &["arg"]);
            r.ret(None);
            r.finish()
        };
        let mut f = pb.function("main", &[]);
        f.spawn(None, Callee::Direct(routine), Operand::Const(0));
        f.ret(None);
        f.finish();
        let mut p = pb.finish().unwrap();
        // A routine that takes two parameters can't be spawned with one arg.
        p.functions[0].params = vec![VarId(0), VarId(1)];
        p.functions[0].var_names = vec!["arg".to_owned(), "extra".to_owned()];
        let diags = verify(&p);
        assert!(codes(&diags).contains(&"GA004"), "got {diags:?}");
    }

    #[test]
    fn ga004_nonexistent_callee() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        f.call(None, Callee::Direct(FuncId(0)), &[]);
        f.ret(None);
        f.finish();
        let mut p = pb.finish().unwrap();
        if let Op::Call { callee, .. } = &mut p.functions[0].blocks[0].instrs[0].op {
            *callee = Callee::Direct(FuncId(9));
        } else {
            panic!("expected Call");
        }
        let diags = verify(&p);
        assert!(codes(&diags).contains(&"GA004"), "got {diags:?}");
    }

    #[test]
    fn ga005_dead_block_is_a_warning() {
        let text = "\
fn main() {
entry:
  ret
orphan:
  ret
}
";
        let v = verify_source("t", text);
        let dead: Vec<_> = v.diagnostics.iter().filter(|d| d.code == "GA005").collect();
        assert_eq!(dead.len(), 1, "got {:?}", v.diagnostics);
        assert!(!dead[0].is_error());
        assert!(v.is_clean(), "warnings must not make verification fail");
    }

    #[test]
    fn ga006_write_only_global() {
        let text = "\
global counter = 0

fn main() {
entry:
  store $counter, 1
  ret
}
";
        let v = verify_source("t", text);
        assert!(v.diagnostics.iter().any(|d| d.code == "GA006"));
        assert!(v.is_clean());
    }

    #[test]
    fn ga007_result_from_void_callee() {
        let mut pb = ProgramBuilder::new("t");
        let callee = {
            let mut g = pb.function("g", &[]);
            g.ret(None);
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        f.call(Some("r"), Callee::Direct(callee), &[]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let diags = verify(&p);
        assert!(codes(&diags).contains(&"GA007"), "got {diags:?}");
        assert!(!crate::diag::has_errors(&diags));
    }

    #[test]
    fn loop_carried_registers_are_dominated() {
        // `i` defined in entry, updated in the loop body: the body use of
        // `i` is dominated by the entry definition.
        let text = "\
fn main() {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 10
  condbr c, body, exit
body:
  i = add i, 1
  br head
exit:
  ret
}
";
        assert!(verify_source("t", text).is_clean());
    }
}
