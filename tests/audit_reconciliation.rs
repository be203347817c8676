//! The audit layer's two contracts (PR-10):
//!
//! 1. **Exactly one disposition** — every candidate the pipeline ever
//!    considers ends in exactly one terminal disposition, and the
//!    counts reconcile: `candidates = reported + deduped + prefiltered
//!    + unsat + memoized + scope-filtered`.
//! 2. **Strategy invariance** — the `--audit-out` JSONL export is
//!    byte-identical across solver strategy, shard count, worker
//!    thread count and `--explain`: every
//!    disposition is derived from term-determined data, never from
//!    scheduling.
//!
//! Plus targeted certificate checks: the three suppression layers
//! (MHP, lock-sharpened MHP, SMT refutation) each produce a concrete
//! machine-checkable certificate that `canary why-not` can surface.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use canary_detect::Disposition;
use canary_smt::SolverStrategy;
use canary_workloads::{generate, WorkloadSpec};
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct Knobs {
    strategy: SolverStrategy,
    shards: usize,
    threads: usize,
    explain: bool,
}

impl Knobs {
    fn fresh() -> Knobs {
        Knobs {
            strategy: SolverStrategy::Fresh,
            shards: 0,
            threads: 1,
            explain: false,
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
        config.detect.explain_refutations = self.explain;
        Canary::with_config(config).analyze(prog)
    }
}

/// Workloads spanning all six checkers so every disposition source —
/// checker candidates, prefilter folds, SMT refutations, report dedup
/// — is exercised, with hard query families so refutations cost real
/// solver work.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        150usize..350,
        1usize..4,
        1usize..4,
        0usize..3,
        2usize..5,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, fanout)| WorkloadSpec {
                name: format!("audit-rec-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: 1,
                contradiction_patterns: 2,
                handshake_patterns: 1,
                order_fp_patterns: 1,
                double_free: 1,
                null_deref: 1,
                leak: 1,
                double_lock: 1,
                conflict_lock: 1,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: fanout,
                hard_family_ratio: 0.5,
                filler: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn audit_reconciles_and_export_is_knob_invariant(spec in spec_strategy()) {
        let w = generate(&spec);
        let base = Knobs::fresh().analyze(&w.prog);
        let summary = base.metrics.audit.reconcile();
        prop_assert!(summary.is_ok(), "{}", summary.unwrap_err());
        let summary = summary.unwrap();
        // The suppression-accounting gate: every emitted report has
        // exactly one Reported record, nothing leaks, nothing is
        // double-counted.
        prop_assert_eq!(summary.reported, base.reports.len());
        let base_jsonl = base.metrics.audit.to_jsonl();
        prop_assert!(!base_jsonl.is_empty() || summary.candidates == 0);
        for knobs in [
            Knobs::incremental(),
            Knobs { threads: 4, ..Knobs::fresh() },
            Knobs { shards: 16, threads: 4, ..Knobs::incremental() },
            Knobs { explain: true, ..Knobs::fresh() },
            Knobs { explain: true, threads: 4, ..Knobs::incremental() },
        ] {
            let o = knobs.analyze(&w.prog);
            prop_assert!(o.metrics.audit.reconcile().is_ok());
            prop_assert_eq!(&base_jsonl, &o.metrics.audit.to_jsonl());
        }
    }
}

fn analyze(src: &str) -> AnalysisOutcome {
    Canary::new().analyze_source(src).expect("parses")
}

/// A load that happens-before the forked writer's store: the pair is
/// impossible interference, killed by MHP with the consulted facts as
/// the certificate.
#[test]
fn mhp_pruned_pair_has_certificate() {
    let outcome = analyze(
        "fn main() {
            x = alloc c;
            e = *x;
            use e;
            fork t w(x);
         }
         fn w(p) {
            b = alloc o;
            *p = b;
         }",
    );
    let audit = &outcome.metrics.audit;
    let rec = audit
        .records()
        .iter()
        .find(|r| matches!(r.disposition, Some(Disposition::PrunedMhp { .. })))
        .expect("an MHP-pruned pair");
    let Some(Disposition::PrunedMhp {
        parallel,
        ordered_before,
    }) = rec.disposition
    else {
        unreachable!()
    };
    assert!(!parallel && !ordered_before);
    // `canary why-not <store> <load>` finds the same record.
    let found = audit.find_pair(rec.source, rec.sink.unwrap());
    assert!(found.iter().any(|r| r.seq == rec.seq), "{found:?}");
    assert!(rec.describe().contains("MHP"), "{}", rec.describe());
}

/// Both accesses inside critical sections of one lock class, with a
/// later store overwriting the value before the writer's unlock: the
/// certificate names the class and the killing store.
#[test]
fn lock_sharpened_pair_names_killing_store() {
    let outcome = analyze(
        "fn main() {
            x = alloc cell; m = alloc mu;
            v = alloc o1; u = alloc o2;
            fork t r(x, m);
            lock m;
            *x = v;
            *x = u;
            unlock m;
         }
         fn r(p, n) {
            lock n;
            c = *p;
            use c;
            unlock n;
         }",
    );
    let audit = &outcome.metrics.audit;
    let rec = audit
        .records()
        .iter()
        .find(|r| matches!(r.disposition, Some(Disposition::PrunedLockSharpen { .. })))
        .expect("a lock-sharpened pair");
    let Some(Disposition::PrunedLockSharpen { killing_store, .. }) = rec.disposition else {
        unreachable!()
    };
    // The killing store is the *x = u after the pruned *x = v, inside
    // the same region — in particular a different label than the
    // pruned store itself.
    assert_ne!(killing_store, rec.source);
    assert!(
        rec.describe().contains(&killing_store.to_string()),
        "{}",
        rec.describe()
    );
}

/// A refutation that only falls to the solver (the freed value is
/// overwritten before the reader starts — Eq. 2's no-overwrite
/// disjunction): the certificate carries the refuted conjunct set,
/// mapped back to named order atoms.
#[test]
fn solver_refuted_pair_has_unsat_core_conjuncts() {
    let outcome = analyze(
        "fn main() {
            cell = alloc c;
            v = alloc o;
            *cell = v;
            free v;
            g = alloc o2;
            *cell = g;
            fork t w(cell);
         }
         fn w(s) { x = *s; use x; }",
    );
    assert!(outcome.reports.is_empty());
    let audit = &outcome.metrics.audit;
    let rec = audit
        .records()
        .iter()
        .find(|r| matches!(r.disposition, Some(Disposition::UnsatCore { .. })))
        .expect("a solver-refuted pair");
    let Some(Disposition::UnsatCore {
        conjuncts,
        conjunct_ids,
        subsumed_by,
    }) = &rec.disposition
    else {
        unreachable!()
    };
    assert!(!conjuncts.is_empty());
    assert_eq!(subsumed_by, &None, "first refutation of this set");
    assert!(
        conjunct_ids.len() >= conjuncts.len(),
        "ids cover at least the rendered prefix"
    );
    assert!(conjuncts.iter().any(|c| c.contains('O')), "{conjuncts:?}");
}

/// Reported pairs reconcile against the emitted reports: the audit
/// record's fingerprint is the report's fingerprint, and duplicate
/// candidates point at the surviving winner.
#[test]
fn reported_and_deduped_records_match_emitted_reports() {
    let src = "fn main() { p = alloc o; fork t w(p); free p; }
         fn w(q) { use q; }";
    let parsed = canary_ir::parse(src).expect("parses");
    let outcome = analyze(src);
    assert_eq!(outcome.reports.len(), 1);
    let prog = outcome.analyzed_program.as_ref().unwrap_or(&parsed);
    let fp = outcome.reports[0].fingerprint(prog);
    let audit = &outcome.metrics.audit;
    let reported: Vec<_> = audit
        .records()
        .iter()
        .filter_map(|r| match &r.disposition {
            Some(Disposition::Reported { fingerprint }) => Some(*fingerprint),
            _ => None,
        })
        .collect();
    assert_eq!(reported, vec![fp]);
    for r in audit.records() {
        if let Some(Disposition::Deduped { winner }) = &r.disposition {
            assert_eq!(*winner, fp, "duplicates point at the survivor");
        }
    }
}

/// The flagship bug-free program: its lone candidate folds to `ff` at
/// construction, so the audit shows a prefilter certificate and zero
/// solver work — identically with and without `--explain`, which keeps
/// such candidates alive longer for core extraction.
#[test]
fn prefiltered_disposition_is_explain_invariant() {
    const FIG2: &str = "fn main(a) {
            x = alloc o1;
            *x = a;
            fork t thread1(x);
            if (theta1) { c = *x; use c; }
         }
         fn thread1(y) {
            b = alloc o2;
            if (!theta1) { *y = b; free b; }
         }";
    let plain = analyze(FIG2);
    let mut config = CanaryConfig::default();
    config.detect.explain_refutations = true;
    let explained = Canary::with_config(config).analyze_source(FIG2).unwrap();
    let jsonl = plain.metrics.audit.to_jsonl();
    assert!(jsonl.contains("\"prefiltered\""), "{jsonl}");
    assert_eq!(jsonl, explained.metrics.audit.to_jsonl());
    assert_eq!(plain.metrics.detect.queries, 0, "no solver work");
}

/// A tiny path budget leaves a `path_budget` marker: enumeration was
/// truncated, so missing candidates are accounted for rather than
/// silently absent.
#[test]
fn path_budget_truncation_is_recorded() {
    let mut config = CanaryConfig::default();
    config.detect.limits.max_paths = 1;
    let outcome = Canary::with_config(config)
        .analyze_source(
            "fn main() {
                c1 = alloc c1;
                v = alloc o;
                *c1 = v;
                t0 = *c1;
                *c1 = t0;
                free v;
                fork t w(c1);
             }
             fn w(p) { x = *p; use x; }",
        )
        .unwrap();
    let audit = &outcome.metrics.audit;
    let summary = audit.reconcile().expect("reconciles");
    assert!(
        summary.path_budget >= 1,
        "expected a truncation marker: {}",
        summary.render()
    );
    assert!(audit
        .records()
        .iter()
        .any(|r| matches!(r.disposition, Some(Disposition::PathBudget { limit: "max_paths" }))));
}
