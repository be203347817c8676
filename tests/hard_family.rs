//! Hard-family generator knobs (`family_fanout`, `hard_family_ratio`):
//! hardened contradiction patterns stay infeasible — zero findings —
//! but their refutation lives in the wait/notify order theory, beyond
//! the construction-time prefilter, so they cost real CDCL(T) work.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions};
use canary_smt::{SolverOptions, SolverStrategy};
use canary_workloads::{generate, WorkloadSpec};

fn spec(ratio: f64, fanout: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("hard-{ratio}-{fanout}"),
        seed: 0x4A8D,
        target_stmts: 0,
        threads: 0,
        shared_cells: 1,
        true_bugs: 0,
        benign_patterns: 0,
        contradiction_patterns: 4,
        handshake_patterns: 0,
        order_fp_patterns: 0,
        double_free: 0,
        null_deref: 0,
        leak: 0,
        double_lock: 0,
        conflict_lock: 0,
        sb_patterns: 0,
        mp_patterns: 0,
        lb_patterns: 0,
        family_fanout: fanout,
        hard_family_ratio: ratio,
        filler: false,
    }
}

fn analyze(ratio: f64, fanout: usize, solver: SolverOptions) -> AnalysisOutcome {
    let w = generate(&spec(ratio, fanout));
    Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            inter_thread_only: false,
            solver,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    })
    .analyze(&w.prog)
}

fn incremental() -> SolverOptions {
    SolverOptions {
        strategy: SolverStrategy::Incremental,
        ..SolverOptions::default()
    }
}

#[test]
fn hard_families_are_refuted_but_cost_real_solver_work() {
    let easy = analyze(0.0, 4, incremental());
    let hard = analyze(1.0, 4, incremental());
    assert_eq!(easy.reports.len(), 0, "legacy contradictions refuted");
    assert_eq!(hard.reports.len(), 0, "hard families stay infeasible");
    let work = |o: &AnalysisOutcome| {
        o.metrics.detect.decisions
            + o.metrics.detect.conflicts
            + o.metrics.detect.propagations
            + o.metrics.detect.theory_lemmas
    };
    assert!(
        work(&hard) > work(&easy),
        "hard families must out-work the prefilter-folded ones: {} vs {}",
        work(&hard),
        work(&easy),
    );
    assert!(
        hard.metrics.detect.conflicts > 0,
        "refuting notify disjuncts must produce CDCL conflicts"
    );
}

#[test]
fn hard_families_scale_work_with_fanout() {
    let narrow = analyze(1.0, 2, incremental());
    let wide = analyze(1.0, 8, incremental());
    assert_eq!(narrow.reports.len(), 0);
    assert_eq!(wide.reports.len(), 0);
    assert!(
        wide.metrics.detect.queries > narrow.metrics.detect.queries,
        "fan-out widens the query family: {} vs {}",
        wide.metrics.detect.queries,
        narrow.metrics.detect.queries,
    );
}
