//! A CDCL SAT solver.
//!
//! Standard architecture: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning, VSIDS-style decision
//! activities with exponential decay, Luby restarts, and incremental
//! clause addition between `solve` calls (which is how the lazy
//! order-theory lemmas of [`crate::theory`] are fed back, and how
//! source-sink queries add blocking clauses).
//!
//! The solver is deliberately dependency-free and deterministic: given
//! the same clauses in the same order it explores the same tree, which
//! keeps the benchmark harness reproducible.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Index into variable-indexed tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a sign. Encoded as `var << 1 | sign`
/// where sign 1 means negated.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub const fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub const fn neg(v: Var) -> Self {
        Lit(v.0 << 1 | 1)
    }

    /// Builds a literal from a variable and a truth value it asserts.
    #[inline]
    pub const fn new(v: Var, value: bool) -> Self {
        if value {
            Self::pos(v)
        } else {
            Self::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub const fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated.
    #[inline]
    pub const fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[inline]
    #[must_use]
    pub const fn negate(self) -> Self {
        Lit(self.0 ^ 1)
    }

    #[inline]
    const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// Ternary assignment value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// The result of a SAT query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; the model maps each variable to a truth value.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Learnt clauses participate in activity-based bookkeeping (kept
    /// simple here: we never delete, bounded programs stay small).
    learnt: bool,
}

/// Statistics counters exposed for the benchmark harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
}

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// watches[lit] = clause indices watching `lit`.
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (u32::MAX = decision/unassigned).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<u32>,
    /// Next trail position to propagate.
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Saved phases for phase-saving.
    phase: Vec<bool>,
    /// Stats for the harness.
    pub stats: SatStats,
    ok: bool,
    /// Assumption literals responsible for the last
    /// unsat-under-assumptions answer (empty when the clause set alone
    /// is unsatisfiable).
    last_core: Vec<Lit>,
}

const NO_REASON: u32 = u32::MAX;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            stats: SatStats::default(),
            ok: true,
            last_core: Vec::new(),
        }
    }

    /// Whether the clause set is still possibly satisfiable (false once
    /// a level-0 conflict has been derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The subset of the assumption literals that the last
    /// [`SatSolver::solve_with_assumptions`] call proved jointly
    /// inconsistent with the clause set (MiniSat's *final conflict
    /// clause*, unnegated). Empty when the last answer was `Sat`, or
    /// when the clauses are unsatisfiable on their own — in that case
    /// the refutation holds under *any* assumptions.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Adds a clause. Returns `false` if the solver becomes trivially
    /// unsatisfiable (at level 0).
    ///
    /// May be called between [`SatSolver::solve`] invocations — the
    /// trail is rewound to level 0 first.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology check: l and ¬l in one clause.
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        // Remove literals already false at level 0; satisfied clause is
        // dropped.
        let mut filtered = Vec::with_capacity(c.len());
        for &l in &c {
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[filtered[0].negate().index()].push(idx);
                self.watches[filtered[1].negate().index()].push(idx);
                self.clauses.push(Clause {
                    lits: filtered,
                    learnt: false,
                });
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn backtrack_to(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let start = self.trail_lim[lvl as usize] as usize;
        for i in (start..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            self.assign[v] = LBool::Undef;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(start);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation; returns the index of a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must find a new watch or propagate.
            let mut i = 0;
            let watch_idx = p.index();
            while i < self.watches[watch_idx].len() {
                let ci = self.watches[watch_idx][i];
                let np = p.negate();
                // Ensure lits[0] is the other watched literal.
                {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == np {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != LBool::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[watch_idx].swap_remove(i);
                        self.watches[lk.negate().index()].push(ci);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(first) == LBool::False {
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack
    /// level).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut clause = confl;
        loop {
            let start = usize::from(p.is_some());
            let lits = self.clauses[clause as usize].lits.clone();
            for &q in &lits[start..] {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal to resolve on.
            loop {
                idx -= 1;
                if seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            clause = self.reason[lit.var().index()];
            p = Some(lit);
        }
        learnt[0] = p.expect("conflict at level > 0 has a UIP").negate();
        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// Resolves a conflict raised while only assumptions had been
    /// decided back to the assumption decisions it depends on
    /// (MiniSat's `analyzeFinal`). `seeds` are the literals of the
    /// conflicting clause (or the falsified assumption itself); the
    /// returned literals are the assumption decisions in the conflict
    /// cone, i.e. `clauses ∧ core` is unsatisfiable.
    fn analyze_final(&self, seeds: &[Lit]) -> Vec<Lit> {
        let mut seen = vec![false; self.num_vars()];
        for &l in seeds {
            if self.level[l.var().index()] > 0 {
                seen[l.var().index()] = true;
            }
        }
        let mut core = Vec::new();
        let start = self.trail_lim.first().map_or(self.trail.len(), |&s| s as usize);
        for i in (start..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !seen[v.index()] {
                continue;
            }
            let r = self.reason[v.index()];
            if r == NO_REASON {
                // A decision: with decision_level() <= #assumptions,
                // every decision on the trail is an assumption.
                core.push(self.trail[i]);
            } else {
                for &l in &self.clauses[r as usize].lits {
                    if self.level[l.var().index()] > 0 {
                        seen[l.var().index()] = true;
                    }
                }
            }
        }
        core.sort_unstable();
        core
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        match learnt.len() {
            0 => self.ok = false,
            1 => self.enqueue(learnt[0], NO_REASON),
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[learnt[0].negate().index()].push(idx);
                self.watches[learnt[1].negate().index()].push(idx);
                self.enqueue(learnt[0], idx);
                self.clauses.push(Clause {
                    lits: learnt,
                    learnt: true,
                });
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        let mut best: Option<Var> = None;
        let mut best_act = -1.0;
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef && self.activity[v] > best_act {
                best_act = self.activity[v];
                best = Some(Var(v as u32));
            }
        }
        best.map(|v| Lit::new(v, self.phase[v.index()]))
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals (used by
    /// cube-and-conquer, §5.2, and by the query-family solver).
    ///
    /// Invariant (MiniSat-style): decision levels `1..=k` hold the `k`
    /// assumptions, so a conflict raised while only assumptions have
    /// been decided means the clause set is unsatisfiable *under the
    /// assumptions*; learned clauses remain valid for later calls.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.last_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let k = assumptions.len() as u32;
        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 0u64;
        let mut restart_budget = 100 * luby(restart_idx);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                if self.decision_level() <= k {
                    // Every decision on the trail is an assumption, so
                    // the conflict follows from clauses + assumptions.
                    let seeds = self.clauses[confl as usize].lits.clone();
                    self.last_core = self.analyze_final(&seeds);
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack_to(bt);
                self.record_learnt(learnt);
                self.var_inc *= 1.0 / 0.95;
                if conflicts_since_restart > restart_budget {
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_idx += 1;
                    restart_budget = 100 * luby(restart_idx);
                    self.backtrack_to(0);
                }
            } else if self.decision_level() < k {
                // Re-establish the assumption prefix one level at a time
                // (levels may have been popped by backjumps/restarts).
                let next = assumptions[self.decision_level() as usize];
                match self.value(next) {
                    LBool::True => {
                        // Already implied: give it an empty level so the
                        // invariant "level i decides assumption i" holds.
                        self.trail_lim.push(self.trail.len() as u32);
                    }
                    LBool::False => {
                        // `next` is already falsified: the core is the
                        // cone of that assignment plus `next` itself.
                        let mut core = self.analyze_final(&[next]);
                        core.push(next);
                        core.sort_unstable();
                        core.dedup();
                        self.last_core = core;
                        return SatResult::Unsat;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len() as u32);
                        self.enqueue(next, NO_REASON);
                    }
                }
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self
                            .assign
                            .iter()
                            .map(|&a| a == LBool::True)
                            .collect();
                        return SatResult::Sat(model);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len() as u32);
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// Number of clauses (including learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learnt clauses.
    pub fn num_learnt(&self) -> usize {
        self.clauses.iter().filter(|c| c.learnt).count()
    }
}

/// The Luby restart sequence 1,1,2,1,1,2,4,…
fn luby(i: u64) -> u64 {
    let mut k = 1u64;
    while (1u64 << (k + 1)) - 1 <= i + 1 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if i + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        if i + 1 < (1u64 << kk) - 1 {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        i -= (1u64 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= i + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&x| {
                let v = Var((x.abs() - 1) as u32);
                if x > 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect()
    }

    fn solver_with(n: usize, clauses: &[&[i32]]) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with(1, &[&[1]]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m[0]),
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // x1, x1→x2, x2→x3, and ¬x3 is unsat.
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3], &[-3]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn three_coloring_of_triangle_is_sat() {
        // vars: v_ic for vertex i in {0,1,2}, color c in {0,1,2}
        let var = |i: usize, c: usize| (i * 3 + c + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push((0..3).map(|c| var(i, c)).collect());
            for c1 in 0..3 {
                for c2 in (c1 + 1)..3 {
                    clauses.push(vec![-var(i, c1), -var(i, c2)]);
                }
            }
        }
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            for c in 0..3 {
                clauses.push(vec![-var(i, c), -var(j, c)]);
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(9, &refs);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn two_coloring_of_triangle_is_unsat() {
        let var = |i: usize, c: usize| (i * 2 + c + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push((0..2).map(|c| var(i, c)).collect());
            clauses.push(vec![-var(i, 0), -var(i, 1)]);
        }
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            for c in 0..2 {
                clauses.push(vec![-var(i, c), -var(j, c)]);
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert!(s.solve().is_sat());
        s.add_clause(&lits(&[-1]));
        assert!(s.solve().is_sat());
        s.add_clause(&lits(&[-2]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let a = lits(&[-1, -2]);
        assert_eq!(s.solve_with_assumptions(&a), SatResult::Unsat);
        // Solver remains usable afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_core_names_the_conflicting_subset() {
        // ¬x1 ∨ ¬x2: assuming x1, x2, x3 is unsat, and the core must
        // name exactly {x1, x2} — x3 is innocent.
        let mut s = solver_with(3, &[&[-1, -2]]);
        let a = lits(&[1, 2, 3]);
        assert_eq!(s.solve_with_assumptions(&a), SatResult::Unsat);
        let mut core = s.assumption_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, lits(&[1, 2]));
        // A satisfiable assumption set leaves no core behind.
        assert!(s.solve_with_assumptions(&lits(&[1, 3])).is_sat());
        assert!(s.assumption_core().is_empty());
        // Clause-set-level unsat (no assumptions involved) reports an
        // empty core: the refutation holds under any assumptions.
        s.add_clause(&lits(&[1]));
        s.add_clause(&lits(&[2]));
        assert_eq!(s.solve_with_assumptions(&lits(&[3])), SatResult::Unsat);
        assert!(s.assumption_core().is_empty());
        assert!(!s.is_ok());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![-2, 3],
            vec![1, -2],
            vec![2, -1, 3],
        ];
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(3, &refs);
        match s.solve() {
            SatResult::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&x| {
                            let v = (x.abs() - 1) as usize;
                            (x > 0) == m[v]
                        }),
                        "clause {c:?} not satisfied by {m:?}"
                    );
                }
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut s = solver_with(1, &[&[1, -1]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.num_clauses(), 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_ij: pigeon i in hole j. 3 pigeons, 2 holes.
        let var = |i: usize, j: usize| (i * 2 + j + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    clauses.push(vec![-var(i1, j), -var(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats.conflicts > 0);
    }
}
