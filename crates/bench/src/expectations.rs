//! Recorded per-bug accuracy expectations.
//!
//! `repro -- table1` (and `fig9`, `all`, `bench`) used to exit 0 even when
//! sketch accuracy regressed; these floors make a regression fail the run.
//! Each floor pins the bug's deterministic overall accuracy from
//! `BENCH_gist.json` (`deterministic.bugs`) under the paper-default
//! pipeline (σ₀ = 2, multiplicative growth, β = 0.5). The pipeline is
//! deterministic, so there is no noise to leave margin for: any drop in
//! accuracy fails. Accuracies are compared at the three decimal places
//! the report records.

use gist_coop::BugEvaluation;

use crate::synth_report::SynthReport;

/// The recorded floor for one bug.
#[derive(Clone, Copy, Debug)]
pub struct BugExpectation {
    /// Bugbase short name.
    pub bug: &'static str,
    /// Minimum acceptable overall accuracy (percent).
    pub min_overall: f64,
    /// Whether the diagnosis must identify the root cause.
    pub require_root_cause: bool,
}

/// Per-bug floors: today's deterministic overall accuracy per bug.
pub const EXPECTATIONS: &[BugExpectation] = &[
    BugExpectation {
        bug: "apache-21285",
        min_overall: 87.5,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "apache-21287",
        min_overall: 92.857,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "apache-25520",
        min_overall: 65.152,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "apache-45605",
        min_overall: 91.667,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "cppcheck-2782",
        min_overall: 100.0,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "cppcheck-3238",
        min_overall: 82.353,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "curl-965",
        min_overall: 91.667,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "memcached-127",
        min_overall: 65.625,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "pbzip2-1",
        min_overall: 90.909,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "sqlite-1672",
        min_overall: 90.0,
        require_root_cause: true,
    },
    BugExpectation {
        bug: "transmission-1818",
        min_overall: 83.333,
        require_root_cause: true,
    },
];

/// Recovery floor (percent) for the synthetic bugbase, recorded 2026-08
/// from `repro bench --synthetic 200 --seed 1` on the seed pipeline
/// (which recovers well above this; the floor trips on real regressions,
/// not sampling noise).
pub const SYNTH_RECOVERY_FLOOR: f64 = 90.0;

/// Static-lint conformance floor (percent) for the synthetic bugbase.
pub const SYNTH_LINT_FLOOR: f64 = 90.0;

/// Checks a synthetic-bugbase report against the recorded floors.
/// Returns one human-readable violation per failing criterion.
pub fn check_synth(report: &SynthReport) -> Vec<String> {
    let mut violations = Vec::new();
    let recovery = report.recovery_rate();
    if recovery < SYNTH_RECOVERY_FLOOR {
        violations.push(format!(
            "synthetic recovery {recovery:.1}% below recorded floor {SYNTH_RECOVERY_FLOOR:.1}%"
        ));
    }
    let lint = report.lint_rate();
    if lint < SYNTH_LINT_FLOOR {
        violations.push(format!(
            "synthetic lint conformance {lint:.1}% below recorded floor {SYNTH_LINT_FLOOR:.1}%"
        ));
    }
    if report.dirty_controls > 0 {
        violations.push(format!(
            "{} of {} negative controls were not clean",
            report.dirty_controls, report.controls
        ));
    }
    violations
}

/// Checks evaluations against the recorded floors. Returns one human-readable
/// violation per failing bug; empty means accuracy is no worse than recorded.
pub fn check(evals: &[BugEvaluation]) -> Vec<String> {
    let mut violations = Vec::new();
    for exp in EXPECTATIONS {
        let Some(eval) = evals.iter().find(|e| e.bug == exp.bug) else {
            violations.push(format!("{}: missing from results", exp.bug));
            continue;
        };
        // Rounded as `BENCH_gist.json` renders it, so a floor copied from
        // the report matches the value it was copied from.
        let overall = (eval.overall * 1000.0).round() / 1000.0;
        if overall < exp.min_overall {
            violations.push(format!(
                "{}: overall accuracy {overall:.3}% below recorded floor {:.3}%",
                exp.bug, exp.min_overall
            ));
        }
        if exp.require_root_cause && !eval.found_root_cause {
            violations.push(format!(
                "{}: root cause no longer identified in the sketch",
                exp.bug
            ));
        }
    }
    violations
}
