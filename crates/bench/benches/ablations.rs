//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **MHP pruning** on/off in Alg. 2 (§6 "Performance");
//! * **semi-decision prefilter** on/off (§5.2 optimization 1);
//! * **parallel query solving** 1/2/4 workers (§5.2 optimization 2);
//! * **lazy vs eager guard solving** — the paper's "judiciously
//!   delaying the disjunctive reasoning": eager mode solves every VFG
//!   edge guard at construction time, lazy mode (Canary's) only solves
//!   aggregated path constraints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use canary_core::{Canary, CanaryConfig, ProgramFacts, VfgBuild};
use canary_detect::{BugKind, DetectOptions};
use canary_interference::InterferenceOptions;
use canary_smt::{check, SolverOptions, SolverStats, SolverStrategy};
use canary_workloads::{generate, Workload, WorkloadSpec};

fn workload(stmts: usize) -> Workload {
    generate(&WorkloadSpec {
        target_stmts: stmts,
        ..WorkloadSpec::small(0xAB1A)
    })
}

fn uaf_config(mhp: bool, prefilter: bool, threads: usize) -> CanaryConfig {
    CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        interference: InterferenceOptions {
            use_mhp: mhp,
            ..InterferenceOptions::default()
        },
        detect: DetectOptions {
            inter_thread_only: true,
            solver: SolverOptions {
                prefilter,
                num_threads: threads,
                ..SolverOptions::default()
            },
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    }
}

fn bench_mhp(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_mhp");
    g.sample_size(10);
    let w = workload(1200);
    for (label, mhp) in [("with_mhp", true), ("without_mhp", false)] {
        g.bench_with_input(BenchmarkId::new(label, 1200), &w, |b, w| {
            let canary = Canary::with_config(uaf_config(mhp, true, 1));
            b.iter(|| canary.analyze(&w.prog));
        });
    }
    g.finish();
}

fn bench_prefilter(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_prefilter");
    g.sample_size(10);
    let w = workload(1200);
    for (label, pf) in [("with_prefilter", true), ("without_prefilter", false)] {
        g.bench_with_input(BenchmarkId::new(label, 1200), &w, |b, w| {
            let canary = Canary::with_config(uaf_config(true, pf, 1));
            b.iter(|| canary.analyze(&w.prog));
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel");
    g.sample_size(10);
    let w = workload(2400);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("solver_threads", threads), &w, |b, w| {
            let canary = Canary::with_config(uaf_config(true, true, threads));
            b.iter(|| canary.analyze(&w.prog));
        });
    }
    g.finish();
}

fn bench_lazy_vs_eager(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_lazy_solving");
    g.sample_size(10);
    let w = workload(1200);
    // Lazy (Canary): aggregate guards, solve per source-sink path only.
    g.bench_with_input(BenchmarkId::new("lazy", 1200), &w, |b, w| {
        let canary = Canary::with_config(uaf_config(true, true, 1));
        b.iter(|| canary.analyze(&w.prog));
    });
    // Eager: additionally decide every single edge guard with the full
    // solver at construction time (what Canary's delayed disjunctive
    // reasoning avoids).
    g.bench_with_input(BenchmarkId::new("eager", 1200), &w, |b, w| {
        let canary = Canary::with_config(uaf_config(true, true, 1));
        b.iter(|| {
            let facts = ProgramFacts::compute(&w.prog);
            let VfgBuild { pool, df, .. } = canary.build_vfg(&w.prog, &facts);
            let stats = SolverStats::default();
            let opts = SolverOptions::default();
            let mut sat_edges = 0usize;
            for e in df.vfg.edges() {
                if check(&pool, e.guard, &opts, &stats).is_sat() {
                    sat_edges += 1;
                }
            }
            sat_edges
        });
    });
    g.finish();
}

fn bench_solver_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_solver_reuse");
    g.sample_size(10);
    // A query-family-heavy subject: many guarded value-flow paths per
    // source, all refuted through the same lock/handshake disjunctions
    // — the shape where the incremental back-end's shared-prefix
    // solving and UNSAT-core subsumption pay off.
    let prog = canary_bench::family_subject(4, 10, 6);
    for (label, strategy) in [
        ("fresh", SolverStrategy::Fresh),
        ("incremental", SolverStrategy::Incremental),
    ] {
        g.bench_with_input(BenchmarkId::new(label, 40), &prog, |b, prog| {
            let mut cfg = uaf_config(true, true, 1);
            cfg.detect.solver.strategy = strategy;
            let canary = Canary::with_config(cfg);
            b.iter(|| canary.analyze(prog));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mhp,
    bench_prefilter,
    bench_parallel,
    bench_lazy_vs_eager,
    bench_solver_reuse
);
criterion_main!(benches);
