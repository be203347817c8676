//! Constraint aggregation: `Φ_all = Φ_guards ∧ Φ_po` (Eq. 5).
//!
//! Guards are conjoined along the path (Eq. 3); the partial-order
//! constraints `Φ_po` (Eq. 4) are generated *lazily*, at checking time,
//! over the set of execution events the query mentions — the path
//! labels, the source and sink, and every event named by an order atom
//! inside the aggregated guards (the competing stores of Eq. 2). For
//! every event pair ordered by the program order `<P` — control flow
//! plus fork/join semantics, as decided by [`OrderGraph`] — an explicit
//! order atom is conjoined so the order theory can combine them with
//! the load-store constraints transitively.

use std::collections::BTreeSet;

use canary_ir::{Label, OrderGraph};
use canary_smt::{TermId, TermPool};

/// Builds `Φ_po` over the given events (Eq. 4, extended to ground every
/// event the guards mention).
pub fn partial_order_constraints(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    events: &BTreeSet<Label>,
) -> TermId {
    partial_order_constraints_with(pool, og, events, &|_, _| true)
}

/// `Φ_po` with a *retention policy*: the §9 relaxed-memory extension
/// drops the program-order constraints a weaker memory model does not
/// enforce (TSO: store→load to different locations; PSO: additionally
/// store→store). `keep(a, b)` decides whether the ordered pair `a <P b`
/// is encoded.
pub fn partial_order_constraints_with(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    events: &BTreeSet<Label>,
    keep: &dyn Fn(Label, Label) -> bool,
) -> TermId {
    let evs: Vec<Label> = events.iter().copied().collect();
    let mut parts = Vec::new();
    for i in 0..evs.len() {
        for j in (i + 1)..evs.len() {
            let (a, b) = (evs[i], evs[j]);
            if og.happens_before(a, b) {
                if keep(a, b) {
                    parts.push(pool.order_lt(a.0, b.0));
                }
            } else if og.happens_before(b, a) && keep(b, a) {
                parts.push(pool.order_lt(b.0, a.0));
            }
        }
    }
    pool.and(parts)
}

/// Collects every execution event a constraint term mentions through
/// its order atoms.
pub fn events_of(pool: &TermPool, t: TermId) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    for (a, b) in pool.atoms_of(t).orders {
        out.insert(Label(a));
        out.insert(Label(b));
    }
    out
}

/// Assembles `Φ_all` for one source-sink query:
/// `Φ_guards(π) ∧ Φ_src ∧ Φ_extra ∧ Φ_po(events)`.
pub fn assemble(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    path_guards: &[TermId],
    path_labels: &[Label],
    extra: &[TermId],
) -> TermId {
    assemble_with(pool, og, path_guards, path_labels, extra, &|_, _| true)
}

/// [`assemble`] with an explicit program-order retention policy.
pub fn assemble_with(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    path_guards: &[TermId],
    path_labels: &[Label],
    extra: &[TermId],
    keep: &dyn Fn(Label, Label) -> bool,
) -> TermId {
    let mut conj: Vec<TermId> = path_guards.to_vec();
    conj.extend_from_slice(extra);
    let guards = pool.and(conj);
    if guards == pool.ff() {
        return guards;
    }
    let mut events = events_of(pool, guards);
    events.extend(path_labels.iter().copied());
    let po = partial_order_constraints_with(pool, og, &events, keep);
    pool.and2(guards, po)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph};
    use canary_smt::{check, SolverOptions};

    #[test]
    fn po_orders_straightline_labels() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let events: BTreeSet<Label> = prog.labels().collect();
        let po = partial_order_constraints(&mut pool, &og, &events);
        // Adding the reversed order of two straightline statements must
        // contradict Φ_po.
        let rev = pool.order_lt(2, 1);
        let t = pool.and2(po, rev);
        assert_eq!(t, pool.ff());
    }

    #[test]
    fn events_of_reads_order_atoms() {
        let mut pool = TermPool::new();
        let o = pool.order_lt(3, 7);
        let b = pool.bool_atom(0);
        let t = pool.and2(o, b);
        let evs = events_of(&pool, t);
        assert!(evs.contains(&Label(3)));
        assert!(evs.contains(&Label(7)));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn assemble_grounds_guard_events() {
        // A guard that orders l2 before l1 while program order says
        // l1 < l2 must assemble to an unsatisfiable constraint.
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let bad = pool.order_lt(2, 1); // "use before free"
        let all = assemble(&mut pool, &og, &[bad], &[], &[]);
        assert!(!check(&pool, all, &SolverOptions::default()).is_sat());
    }

    #[test]
    fn assemble_keeps_feasible_constraints_sat() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let fine = pool.order_lt(1, 2);
        let all = assemble(&mut pool, &og, &[fine], &[], &[]);
        assert!(check(&pool, all, &SolverOptions::default()).is_sat());
    }

    #[test]
    fn transitive_cycle_through_program_order_detected() {
        // Guards say O_use < O_alloc (label 2 < label 0); program order
        // says 0 < 1 < 2; the theory must find the cycle.
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let back = pool.order_lt(2, 0);
        let all = assemble(&mut pool, &og, &[back], &[], &[]);
        assert!(!check(&pool, all, &SolverOptions::default()).is_sat());
    }
}
