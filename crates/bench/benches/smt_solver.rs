//! Criterion bench for the CDCL(T) substrate: the constraint families
//! Canary actually emits — guard conjunctions with complementary branch
//! atoms, load-store order chains, and no-overwrite disjunctions
//! (Eq. 2) — at growing sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use canary_smt::{check, SolverOptions, TermId, TermPool};

/// Φ_ls-shaped formula: one store→load order plus `n` competing stores
/// that must each land outside the window.
fn ls_formula(pool: &mut TermPool, n: u32) -> TermId {
    let store = 0u32;
    let load = 1u32;
    let mut parts = vec![pool.order_lt(store, load)];
    for i in 0..n {
        let s2 = 2 + i;
        let before = pool.order_lt(s2, store);
        let after = pool.order_lt(load, s2);
        parts.push(pool.or2(before, after));
    }
    // Program order pins every competing store between the two — the
    // conjunction is unsatisfiable, exercising the theory conflicts.
    for i in 0..n {
        let s2 = 2 + i;
        parts.push(pool.order_lt(store, s2));
        parts.push(pool.order_lt(s2, load));
    }
    pool.and(parts)
}

/// Guard-aggregation-shaped formula: a conjunction of `n` branch atoms
/// with one complementary pair hidden inside a disjunction.
fn guard_formula(pool: &mut TermPool, n: u32) -> TermId {
    let mut parts: Vec<TermId> = (0..n).map(|i| pool.bool_atom(i)).collect();
    let a = pool.bool_atom(0);
    let na = pool.not(a);
    let b = pool.bool_atom(n + 1);
    let left = pool.and2(na, b);
    let nb = pool.not(b);
    let right = pool.and2(na, nb);
    parts.push(pool.or2(left, right));
    pool.and(parts)
}

fn bench_smt(c: &mut Criterion) {
    let mut g = c.benchmark_group("smt_solver");
    for &n in &[8u32, 32, 128] {
        g.bench_with_input(BenchmarkId::new("load_store_unsat", n), &n, |b, &n| {
            b.iter(|| {
                let mut pool = TermPool::new();
                let f = ls_formula(&mut pool, n);
                check(&pool, f, &SolverOptions::default())
            });
        });
        g.bench_with_input(BenchmarkId::new("guard_conjunction", n), &n, |b, &n| {
            b.iter(|| {
                let mut pool = TermPool::new();
                let f = guard_formula(&mut pool, n);
                check(&pool, f, &SolverOptions::default())
            });
        });
        g.bench_with_input(
            BenchmarkId::new("load_store_no_prefilter", n),
            &n,
            |b, &n| {
                b.iter(|| {
                    let mut pool = TermPool::new();
                    let f = ls_formula(&mut pool, n);
                    let opts = SolverOptions {
                        prefilter: false,
                        ..SolverOptions::default()
                    };
                    check(&pool, f, &opts)
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_smt);
criterion_main!(benches);
