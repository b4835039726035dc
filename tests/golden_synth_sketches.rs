//! Golden pin of the synthetic-bugbase diagnoses.
//!
//! Synthetic bugs are where the server's static analyses run most often,
//! so a fixed set of them — three seeds per injected pattern plus negative
//! controls — is diagnosed end to end and summarized one line per bug in
//! `tests/golden/synth.sketches`: recovery, overall accuracy, and FNV-1a
//! digests of the rendered sketch, the lint report and the static
//! predicted sketches. Any change to a synthetic sketch, finding or
//! prediction fails here with a line diff.
//!
//! To accept intentional changes, regenerate the snapshot:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gist-bench --test golden_synth_sketches
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use gist_analysis::ground_truth as gt;
use gist_analysis::{render_prediction, render_report};
use gist_bugbase::synth::{generate_control, generate_with_pattern, PatternKind, SynthBug};
use gist_coop::{diagnose_synth, EvalConfig};

/// Seeds diagnosed for every injected pattern.
const SEEDS: [u64; 3] = [1, 2, 3];
/// Seeds of the negative controls.
const CONTROL_SEEDS: [u64; 2] = [1, 2];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/synth.sketches")
}

/// 64-bit FNV-1a: a digest that is stable across toolchains.
fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One summary line: the diagnosis outcome plus the static findings.
fn summarize(bug: &SynthBug) -> String {
    let eval = diagnose_synth(bug, &EvalConfig::default());
    let sketch = eval
        .sketch
        .as_ref()
        .map_or_else(|| "-".to_owned(), |s| fnv1a(&s.render()));
    let lints = fnv1a(&render_report(
        Some(&bug.program),
        &gt::lint_all(&bug.program),
    ));
    let predictions: String = gt::predictions(&bug.program)
        .iter()
        .map(render_prediction)
        .collect();
    format!(
        "{} manifested={} recovered={} overall={:.3} runs={} sketch={sketch} lints={} predict={}\n",
        bug.name,
        eval.manifested,
        eval.recovered,
        eval.overall,
        eval.total_runs,
        lints,
        fnv1a(&predictions),
    )
}

fn render_all() -> String {
    let mut out = String::new();
    for pattern in PatternKind::INJECTED {
        for seed in SEEDS {
            out.push_str(&summarize(&generate_with_pattern(seed, pattern)));
        }
    }
    for seed in CONTROL_SEEDS {
        out.push_str(&summarize(&generate_control(seed)));
    }
    out
}

/// A readable line diff: every differing line as `-expected` / `+actual`.
fn line_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            if let Some(e) = e {
                let _ = writeln!(out, "  line {:>3} - {e}", i + 1);
            }
            if let Some(a) = a {
                let _ = writeln!(out, "  line {:>3} + {a}", i + 1);
            }
        }
    }
    out
}

#[test]
fn synthetic_diagnoses_match_golden_snapshot() {
    let rendered = render_all();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden snapshot at {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        golden == rendered,
        "synthetic diagnoses differ from {} (UPDATE_GOLDEN=1 to accept):\n{}",
        path.display(),
        line_diff(&golden, &rendered)
    );
}
