//! The shard/thread equivalence contract: the shard count that sizes
//! the family dispatcher's epochs, the solver thread count and the
//! fresh path's §5.2 cube-and-conquer split are *pure scheduling
//! knobs* — none of them may change a report, a per-query verdict, a
//! refutation core, or (for fixed solver flags) any deterministic
//! work counter.
//!
//! Layers:
//!
//! 1. a property test (12 cases) over random `canary-workloads`
//!    programs with hard query families, comparing canonical outcomes
//!    across shard counts × thread counts × cube settings against a
//!    fresh-strategy baseline;
//! 2. thread-invariance of the deterministic counter block
//!    (`DetectStats`) for a fixed incremental configuration.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use canary_smt::SolverStrategy;
use canary_workloads::{generate, WorkloadSpec};
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct Knobs {
    strategy: SolverStrategy,
    shards: usize,
    threads: usize,
    cube_split: usize,
}

impl Knobs {
    fn fresh() -> Knobs {
        Knobs {
            strategy: SolverStrategy::Fresh,
            shards: 0,
            threads: 1,
            cube_split: 0,
        }
    }

    fn incremental() -> Knobs {
        Knobs {
            strategy: SolverStrategy::Incremental,
            ..Knobs::fresh()
        }
    }

    fn analyze(self, prog: &canary_ir::Program) -> AnalysisOutcome {
        let mut config = CanaryConfig::default();
        config.detect.solver.strategy = self.strategy;
        config.detect.solver.shards = self.shards;
        config.detect.solver.num_threads = self.threads;
        config.detect.solver.cube_split = self.cube_split;
        config.detect.explain_refutations = true;
        Canary::with_config(config).analyze(prog)
    }
}

/// Canonical JSON for everything a scheduling knob must NOT change:
/// reports (with witness schedules), refutation cores, and per-query
/// verdicts.
fn canonical_json(outcome: &AnalysisOutcome) -> String {
    let reports: Vec<serde_json::Value> = outcome
        .reports
        .iter()
        .map(|r| {
            serde_json::json!({
                "kind": r.kind.to_string(),
                "source": r.source.0,
                "sink": r.sink.0,
                "inter_thread": r.inter_thread,
                "path": r.path,
                "schedule": r.schedule.iter().map(|l| l.0).collect::<Vec<u32>>(),
            })
        })
        .collect();
    let verdicts: Vec<serde_json::Value> = outcome
        .metrics
        .query_profiles
        .iter()
        .map(|p| {
            serde_json::json!({
                "kind": p.kind.to_string(),
                "source": p.source.0,
                "sink": p.sink.0,
                "sat": p.sat,
                "prefiltered": p.prefiltered,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "reports": reports,
        "verdicts": verdicts,
        "refuted": outcome.refuted.iter().map(|r| {
            serde_json::json!({
                "kind": r.kind.to_string(),
                "source": r.source.0,
                "sink": r.sink.0,
                "core": r.core,
            })
        }).collect::<Vec<_>>(),
        "queries": outcome.metrics.detect.queries,
        "confirmed": outcome.metrics.detect.confirmed,
    });
    serde_json::to_string_pretty(&doc).expect("valid json")
}

/// Workloads that include hard query families (`family_fanout`,
/// `hard_family_ratio`) so refutations cost real solver work instead
/// of folding at construction.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        150usize..400,
        1usize..4,
        1usize..4,
        0usize..3,
        1usize..4,
        2usize..6,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, contra, fanout)| WorkloadSpec {
                name: format!("shard-eq-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: 1,
                contradiction_patterns: contra,
                handshake_patterns: 1,
                order_fp_patterns: 1,
                double_free: 0,
                null_deref: 1,
                leak: 0,
                double_lock: 0,
                conflict_lock: 0,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: fanout,
                hard_family_ratio: 0.75,
                filler: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn outcomes_identical_across_shard_thread_and_cube_settings(spec in spec_strategy()) {
        let w = generate(&spec);
        let base = canonical_json(&Knobs::fresh().analyze(&w.prog));
        for knobs in [
            Knobs::incremental(),
            Knobs { shards: 1, ..Knobs::incremental() },
            Knobs { shards: 16, threads: 4, ..Knobs::incremental() },
            Knobs { cube_split: 2, threads: 4, ..Knobs::fresh() },
        ] {
            prop_assert_eq!(&base, &canonical_json(&knobs.analyze(&w.prog)));
        }
        // Stronger than verdict equality: for fixed solver flags the
        // whole deterministic counter block — decisions, conflicts,
        // propagations, lemmas, families, epochs — is invariant under
        // the worker thread count.
        let c1 = Knobs { threads: 1, shards: 4, ..Knobs::incremental() }.analyze(&w.prog);
        let c4 = Knobs { threads: 4, shards: 4, ..Knobs::incremental() }.analyze(&w.prog);
        prop_assert_eq!(
            format!("{:?}", c1.metrics.detect),
            format!("{:?}", c4.metrics.detect)
        );
    }
}
