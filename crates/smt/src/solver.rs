//! The CDCL(T) solving loop and its parallel drivers (§5.2).
//!
//! The propositional skeleton of `Φ_all` is solved by the CDCL core;
//! full models are checked against the strict-partial-order theory, and
//! theory conflicts come back as blocking lemmas. Three §5.2
//! optimizations are implemented and individually switchable for the
//! ablation benches:
//!
//! 1. the semi-decision *prefilter* ([`crate::simplify`]);
//! 2. *parallel portfolio* solving of independent queries (one query per
//!    source-sink path — they share nothing, so they parallelize
//!    embarrassingly);
//! 3. *cube-and-conquer* splitting of a single hard query on its most
//!    frequent atoms.
//!
//! On top of these sits the *query-family* back-end
//! ([`check_all_grouped`], [`SolverStrategy::Incremental`]): related
//! queries (same checker, same source) are solved on one persistent
//! [`SatSolver`] — each conjunct is encoded once behind an activation
//! literal, each member becomes one assumption call, and learned
//! clauses plus theory lemmas stay alive across the family. Refuted
//! members leave behind an UNSAT-core subsumption entry in a
//! [`QueryCache`], and hash-consed duplicate queries are answered from
//! a result memo, so whole queries are discharged without touching the
//! CDCL core at all.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cnf::{encode, encode_gated, Encoding};
use crate::sat::{Lit, SatResult, SatSolver, SatStats, Var};
use crate::simplify::obviously_false;
use crate::term::{EventId, Node, TermId, TermPool};
use crate::theory::{check_orders, OrderEdge, TheoryResult};

/// Result of an SMT query.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmtResult {
    /// A sequentially consistent execution satisfying the constraints
    /// exists.
    Sat,
    /// No such execution exists — the value-flow path is irrealizable.
    Unsat,
}

impl SmtResult {
    /// Whether the query was satisfiable.
    pub fn is_sat(self) -> bool {
        matches!(self, SmtResult::Sat)
    }
}

/// How a batch of related queries is discharged by
/// [`check_all_grouped`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// One fresh CNF encoding and CDCL solver per query. Kept as the
    /// reference semantics the equivalence suites compare against.
    Fresh,
    /// Query-family solving (the default): one persistent solver per
    /// family with every conjunct behind an activation literal,
    /// UNSAT-core subsumption, and hash-consed result memoization.
    Incremental,
}

impl SolverStrategy {
    /// Parses a CLI spelling of a strategy.
    pub fn parse(s: &str) -> Option<SolverStrategy> {
        match s {
            "fresh" => Some(SolverStrategy::Fresh),
            "incremental" => Some(SolverStrategy::Incremental),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverStrategy::Fresh => "fresh",
            SolverStrategy::Incremental => "incremental",
        }
    }
}

/// How [`check_all_grouped`] schedules query families across worker
/// threads. There is one scheduler; the type remains so that
/// configurations naming it keep building.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Families are solved in epochs of `2 × shards` families in family
    /// order; the workers of an epoch claim whole families from one
    /// shared cursor. The cache snapshot rotates at epoch boundaries,
    /// which depend only on the family list and the shard count —
    /// never on worker timing — so outcomes stay byte-identical for
    /// every thread count.
    WorkSteal,
}

impl Dispatch {
    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Dispatch::WorkSteal => "worksteal",
        }
    }
}

/// Shard count that sizes dispatcher epochs when
/// [`SolverOptions::shards`] is 0 (auto). Deliberately independent of
/// the worker thread count: epoch boundaries (and therefore
/// cache-snapshot visibility) must be identical for every `--threads`
/// value.
pub const DEFAULT_SHARDS: usize = 8;

/// Families per shard in one epoch: an epoch spans
/// `shards × EPOCH_FAMILIES_PER_SHARD` families in family order.
const EPOCH_FAMILIES_PER_SHARD: usize = 2;

/// Options controlling the solving strategy.
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Apply the semi-decision prefilter before full solving.
    pub prefilter: bool,
    /// Worker threads for [`check_all`] and [`check_all_grouped`]; 1
    /// disables parallelism.
    pub num_threads: usize,
    /// Atoms to split a freshly solved query on for cube-and-conquer
    /// (§5.2 opt. 3; 0 disables). Takes effect on the fresh path with
    /// more than one worker thread.
    pub cube_split: usize,
    /// Fresh-per-query or incremental query-family solving.
    pub strategy: SolverStrategy,
    /// How grouped batches are scheduled across worker threads.
    pub dispatch: Dispatch,
    /// Sizes the dispatcher's epochs at `2 × shards` families (0 =
    /// auto, [`DEFAULT_SHARDS`]).
    pub shards: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            prefilter: true,
            num_threads: 1,
            cube_split: 0,
            strategy: SolverStrategy::Incremental,
            dispatch: Dispatch::WorkSteal,
            shards: 0,
        }
    }
}

/// Per-query solver work counters — the unit of attribution the
/// observability layer reports (which query was hot, and why).
///
/// Without cube-and-conquer the counters are fully deterministic: the
/// CDCL core explores the same tree for the same clauses, regardless
/// of how many *other* queries solve concurrently. Under
/// cube-and-conquer the early-exit race makes the counts best-effort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// The query was answered by the semi-decision prefilter alone.
    pub prefiltered: bool,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL conflicts analyzed.
    pub conflicts: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Restarts.
    pub restarts: u64,
    /// Learned clauses retained (conflict clauses; theory lemmas are
    /// counted separately).
    pub learned: u64,
    /// Theory (order-cycle) lemmas fed back into the SAT core.
    pub theory_lemmas: u64,
}

impl QueryStats {
    /// Sums another query's counters into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.prefiltered |= other.prefiltered;
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.theory_lemmas += other.theory_lemmas;
    }

    /// Adds the CDCL work `sat` did since `before` (and the learned
    /// clauses it gained since `learnt_before`).
    fn add_sat_work(&mut self, sat: &SatSolver, before: SatStats, learnt_before: u64) {
        self.decisions += sat.stats.decisions - before.decisions;
        self.conflicts += sat.stats.conflicts - before.conflicts;
        self.propagations += sat.stats.propagations - before.propagations;
        self.restarts += sat.stats.restarts - before.restarts;
        self.learned += sat.num_learnt() as u64 - learnt_before;
    }
}

/// The lazy CDCL(T) loop shared by every solving path: solve under
/// `assumptions`, check the model's oriented order atoms (only those
/// in `scope`, when given) against the order theory, and block each
/// cyclic orientation with a lemma until the model is consistent.
/// Returns the consistent model, or `None` when the clause set is
/// unsatisfiable under the assumptions. Lemmas are counted into
/// `lemmas`; they are theory-valid, so they stay sound for every later
/// call on the same solver.
pub(crate) fn solve_modulo_orders(
    sat: &mut SatSolver,
    enc: &Encoding,
    assumptions: &[Lit],
    scope: Option<&HashSet<Var>>,
    lemmas: &mut u64,
) -> Option<Vec<bool>> {
    loop {
        let model = match sat.solve_with_assumptions(assumptions) {
            SatResult::Unsat => return None,
            SatResult::Sat(model) => model,
        };
        let edges: Vec<OrderEdge> = enc
            .oriented_edges(&model)
            .into_iter()
            .filter(|(_, _, var)| scope.is_none_or(|s| s.contains(var)))
            .map(|(from, to, var)| OrderEdge {
                from,
                to,
                atom: var.index(),
            })
            .collect();
        match check_orders(&edges) {
            TheoryResult::Consistent => return Some(model),
            TheoryResult::Conflict(vars) => {
                *lemmas += 1;
                // Block this orientation of the cycle.
                let clause: Vec<Lit> = vars
                    .iter()
                    .map(|&vi| Lit::new(Var(vi as u32), !model[vi]))
                    .collect();
                if !sat.add_clause(&clause) {
                    return None;
                }
            }
        }
    }
}

/// Decides one term with the CDCL(T) loop.
pub fn check(pool: &TermPool, t: TermId, opts: &SolverOptions) -> SmtResult {
    check_counted(pool, t, opts).0
}

/// Like [`check`], additionally returning the query's own work
/// counters.
pub fn check_counted(pool: &TermPool, t: TermId, opts: &SolverOptions) -> (SmtResult, QueryStats) {
    let mut q = QueryStats::default();
    if opts.prefilter {
        if t == pool.tt() {
            q.prefiltered = true;
            return (SmtResult::Sat, q);
        }
        if obviously_false(pool, t) {
            q.prefiltered = true;
            return (SmtResult::Unsat, q);
        }
    }
    let res = if opts.cube_split > 0 && opts.num_threads > 1 {
        cube_and_conquer(pool, t, opts, &mut q)
    } else {
        check_with_assumptions(pool, t, &[], &mut q)
    };
    (res, q)
}

/// One fresh encoding of `t` through the CDCL(T) loop, optionally
/// under cube assumptions given as (bool atom index, value) pairs.
fn check_with_assumptions(
    pool: &TermPool,
    t: TermId,
    cube: &[(u32, bool)],
    q: &mut QueryStats,
) -> SmtResult {
    let mut sat = SatSolver::new();
    let mut enc = Encoding::default();
    encode(pool, t, &mut sat, &mut enc);
    let assumptions: Vec<Lit> = cube
        .iter()
        .filter_map(|&(atom, val)| enc.bool_vars.get(&atom).map(|&v| Lit::new(v, val)))
        .collect();
    let model = solve_modulo_orders(&mut sat, &enc, &assumptions, None, &mut q.theory_lemmas);
    q.add_sat_work(&sat, SatStats::default(), 0);
    if model.is_some() {
        SmtResult::Sat
    } else {
        SmtResult::Unsat
    }
}

/// Cube-and-conquer (§5.2): split on the most frequent Boolean atoms
/// and solve the cubes in parallel, each in its own solver.
fn cube_and_conquer(
    pool: &TermPool,
    t: TermId,
    opts: &SolverOptions,
    q: &mut QueryStats,
) -> SmtResult {
    let atoms = pick_split_atoms(pool, t, opts.cube_split);
    if atoms.is_empty() {
        return check_with_assumptions(pool, t, &[], q);
    }
    let n_cubes = 1usize << atoms.len();
    let found_sat = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let agg = Mutex::new(QueryStats::default());
    let workers = opts.num_threads.min(n_cubes).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_cubes || found_sat.load(Ordering::Relaxed) {
                    return;
                }
                let cube: Vec<(u32, bool)> = atoms
                    .iter()
                    .enumerate()
                    .map(|(bit, &a)| (a, (i >> bit) & 1 == 1))
                    .collect();
                let mut local = QueryStats::default();
                let res = check_with_assumptions(pool, t, &cube, &mut local);
                agg.lock().expect("no poisoning").merge(&local);
                if res == SmtResult::Sat {
                    found_sat.store(true, Ordering::Relaxed);
                    return;
                }
            });
        }
    });
    q.merge(&agg.into_inner().expect("scope joined"));
    if found_sat.load(Ordering::Relaxed) {
        SmtResult::Sat
    } else {
        SmtResult::Unsat
    }
}

/// Picks up to `k` Boolean atoms by occurrence count for splitting.
fn pick_split_atoms(pool: &TermPool, t: TermId, k: usize) -> Vec<u32> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    let mut stack = vec![t];
    let mut seen = HashSet::new();
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        match pool.node(x) {
            Node::BoolAtom(i) => *counts.entry(*i).or_insert(0) += 1,
            Node::Not(inner) => stack.push(*inner),
            Node::And(xs) | Node::Or(xs) => stack.extend(xs.iter().copied()),
            _ => {}
        }
    }
    let mut atoms: Vec<(u32, usize)> = counts.into_iter().collect();
    atoms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    atoms.into_iter().take(k).map(|(a, _)| a).collect()
}

/// A satisfying theory model of a query, in replay-friendly form: the
/// order-constrained events arranged in one concrete sequentially
/// consistent execution order, plus the Boolean-atom assignment the
/// model chose (the branch-atom valuation a concrete replay must run
/// under).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WitnessModel {
    /// Events of the query in one theory-consistent total order
    /// (a topological order of the model's oriented order atoms).
    /// Events that appear in no order atom are omitted — their
    /// position is unconstrained.
    pub events: Vec<EventId>,
    /// The model's Boolean-atom assignment as sorted
    /// `(atom index, value)` pairs.
    pub bools: Vec<(u32, bool)>,
    /// The model *slice* over the order theory: the oriented order
    /// atoms `(a, b)` (meaning `O_a < O_b`) the model committed to,
    /// sorted and deduplicated. This is exactly the evidence the
    /// topological order in [`WitnessModel::events`] was built from —
    /// report provenance records it as the SMT justification of the
    /// witness interleaving.
    pub orders: Vec<(EventId, EventId)>,
}

/// A satisfying witness: the events of the query arranged in one
/// concrete sequentially consistent execution order (a topological
/// order of the model's oriented order atoms).
///
/// Returns `None` when the query is unsatisfiable. Events that appear
/// in no order atom are omitted (their position is unconstrained).
pub fn check_witness(pool: &TermPool, t: TermId) -> Option<Vec<EventId>> {
    check_witness_model(pool, t).map(|w| w.events)
}

/// Like [`check_witness`], additionally returning the Boolean-atom
/// assignment of the model — everything a concrete interpreter needs
/// to replay the witness (schedule + branch valuation).
pub fn check_witness_model(pool: &TermPool, t: TermId) -> Option<WitnessModel> {
    let mut sat = SatSolver::new();
    let mut enc = Encoding::default();
    encode(pool, t, &mut sat, &mut enc);
    let model = solve_modulo_orders(&mut sat, &enc, &[], None, &mut 0)?;
    let oriented = enc.oriented_edges(&model);
    let mut orders: Vec<(EventId, EventId)> = oriented.iter().map(|&(a, b, _)| (a, b)).collect();
    orders.sort_unstable();
    orders.dedup();
    Some(WitnessModel {
        events: topological_events(&oriented),
        bools: enc.bool_assignment(&model),
        orders,
    })
}

/// Topologically sorts the events of an acyclic oriented edge set
/// (Kahn's algorithm; ties broken by event id for determinism).
fn topological_events(oriented: &[(EventId, EventId, Var)]) -> Vec<EventId> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut succs: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut indeg: BTreeMap<u32, usize> = BTreeMap::new();
    for &(a, b, _) in oriented {
        if succs.entry(a).or_default().insert(b) {
            *indeg.entry(b).or_insert(0) += 1;
        }
        indeg.entry(a).or_insert(0);
    }
    let mut ready: BTreeSet<u32> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&e, _)| e)
        .collect();
    let mut out = Vec::with_capacity(indeg.len());
    while let Some(&e) = ready.iter().next() {
        ready.remove(&e);
        out.push(e);
        if let Some(next) = succs.get(&e) {
            for &n in next {
                let d = indeg.get_mut(&n).expect("edge target has an indegree");
                *d -= 1;
                if *d == 0 {
                    ready.insert(n);
                }
            }
        }
    }
    out
}

/// One solved query, with its verdict, work counters, and timing.
/// `started` is the wall-clock instant solving began (relative to
/// whatever epoch the caller tracks); only `result` and `stats` are
/// deterministic — the timing fields carry real wall time.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Sat/unsat verdict.
    pub result: SmtResult,
    /// Deterministic work counters for this query.
    pub stats: QueryStats,
    /// When solving of this query started.
    pub started: Instant,
    /// Wall time spent solving this query.
    pub wall: Duration,
    /// Answered from the hash-consed result memo — no solver touched.
    pub memo_hit: bool,
    /// Refuted because a cached UNSAT core is a subset of this query's
    /// conjunct set — no solver touched.
    pub core_subsumed: bool,
    /// Solved on a persistent family solver via assumption literals
    /// (as opposed to the fresh-per-query path or a cache hit).
    pub incremental: bool,
    /// On refutation under the incremental strategy: the refuted
    /// conjunct set (the assumption core mapped back to named
    /// conjuncts, or the subsuming cached core). Strategy-dependent —
    /// `None` on the fresh path, memo hits and prefiltered queries —
    /// so it feeds human-facing explanations only, never the canonical
    /// audit export.
    pub core: Option<Vec<TermId>>,
}

/// Maps `f` over `items` on up to `workers` scoped threads that claim
/// items from one shared cursor, returning the results in item order
/// and the number of items each worker claimed.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, Vec<u64>) {
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return (items.iter().map(f).collect(), vec![items.len() as u64]);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let claimed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return claimed;
                        }
                        claimed += 1;
                        let r = f(&items[i]);
                        *slots[i].lock().expect("no poisoning: workers do not panic") = Some(r);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker threads do not panic"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("scope joined").expect("all items claimed"))
        .collect();
    (results, claimed)
}

/// Solves many independent queries, optionally in parallel (§5.2:
/// "the constraints on different source-sink paths are independent of
/// each other, which gives us the ability to leverage parallelization").
pub fn check_all(pool: &TermPool, queries: &[TermId], opts: &SolverOptions) -> Vec<SmtResult> {
    check_all_recorded(pool, queries, opts)
        .into_iter()
        .map(|o| o.result)
        .collect()
}

/// Like [`check_all`], returning the full per-query record (verdict,
/// work counters, wall time) in query order.
pub fn check_all_recorded(
    pool: &TermPool,
    queries: &[TermId],
    opts: &SolverOptions,
) -> Vec<QueryOutcome> {
    let solve_one = |q: TermId, o: &SolverOptions| -> QueryOutcome {
        let started = Instant::now();
        let (result, stats) = check_counted(pool, q, o);
        QueryOutcome {
            result,
            stats,
            started,
            wall: started.elapsed(),
            memo_hit: false,
            core_subsumed: false,
            incremental: false,
            core: None,
        }
    };
    if opts.num_threads <= 1 || queries.len() <= 1 {
        // A lone query keeps every worker for its own cube split.
        return queries.iter().map(|&q| solve_one(q, opts)).collect();
    }
    let sequential = SolverOptions {
        num_threads: 1,
        ..opts.clone()
    };
    parallel_map(queries, opts.num_threads, |&q| solve_one(q, &sequential)).0
}

/// Cross-query result cache for the incremental strategy: a verdict
/// memo keyed on hash-consed [`TermId`]s plus the UNSAT-core
/// subsumption store.
///
/// Both parts are *semantically* deterministic: the memo value for a
/// term is its theory satisfiability (independent of which family
/// solved it first), and cores are appended in family-commit order at
/// the epoch barrier, so lookups never depend on scheduling.
#[derive(Debug, Default)]
pub struct QueryCache {
    /// Hash-consed query term → verdict.
    memo: HashMap<TermId, SmtResult>,
    /// Refuted conjunct sets (each sorted): any query whose conjunct
    /// set is a superset of an entry is unsat without solving.
    cores: Vec<Vec<TermId>>,
    /// Dedup guard for `cores`.
    core_seen: HashSet<Vec<TermId>>,
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized verdict for `t`, if any.
    pub fn lookup(&self, t: TermId) -> Option<SmtResult> {
        self.memo.get(&t).copied()
    }

    /// Memoizes a verdict (first write wins; all writers agree on the
    /// value because the verdict is a property of the term alone).
    pub fn memoize(&mut self, t: TermId, r: SmtResult) {
        self.memo.entry(t).or_insert(r);
    }

    /// Whether some cached refuted conjunct set is a subset of the
    /// (sorted) conjunct set `conj` — if so, `conj` is unsat.
    pub fn subsumes(&self, conj: &[TermId]) -> bool {
        self.subsuming_core(conj).is_some()
    }

    /// The first cached refuted conjunct set (in commit order) that is
    /// a subset of the (sorted) conjunct set `conj` — the certificate
    /// behind a [`QueryOutcome::core_subsumed`] verdict.
    pub fn subsuming_core(&self, conj: &[TermId]) -> Option<&[TermId]> {
        self.cores
            .iter()
            .find(|c| is_sorted_subset(c, conj))
            .map(Vec::as_slice)
    }

    /// Records a refuted conjunct set (must be sorted). Empty sets are
    /// ignored defensively — an empty core would subsume everything.
    pub fn insert_core(&mut self, core: Vec<TermId>) {
        if core.is_empty() || self.core_seen.contains(&core) {
            return;
        }
        self.core_seen.insert(core.clone());
        self.cores.push(core);
    }

    /// Merges another cache into this one (used at the deterministic
    /// epoch barrier, in family-commit order).
    pub fn merge(&mut self, other: QueryCache) {
        for (t, r) in other.memo {
            self.memoize(t, r);
        }
        for c in other.cores {
            self.insert_core(c);
        }
    }

    /// Number of memoized verdicts.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Number of cached UNSAT cores.
    pub fn core_len(&self) -> usize {
        self.cores.len()
    }
}

/// Whether sorted `sub` is a subset of sorted `sup` (two-pointer walk;
/// exact — never fires on a non-superset).
fn is_sorted_subset(sub: &[TermId], sup: &[TermId]) -> bool {
    let mut i = 0;
    for &x in sup {
        if i == sub.len() {
            return true;
        }
        if sub[i] == x {
            i += 1;
        } else if sub[i] < x {
            return false;
        }
    }
    i == sub.len()
}

/// `all \ minus` for sorted slices, preserving order.
fn sorted_diff(all: &[TermId], minus: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::with_capacity(all.len().saturating_sub(minus.len()));
    let mut j = 0;
    for &x in all {
        while j < minus.len() && minus[j] < x {
            j += 1;
        }
        if j < minus.len() && minus[j] == x {
            j += 1;
        } else {
            out.push(x);
        }
    }
    out
}

/// The result of a grouped batch: per-query outcomes in input order
/// plus family-level aggregates.
#[derive(Debug)]
pub struct GroupedOutcome {
    /// One record per query, in query order.
    pub outcomes: Vec<QueryOutcome>,
    /// Query families formed (0 under [`SolverStrategy::Fresh`]).
    pub families: u64,
    /// Learned clauses alive on family solvers at family end — the
    /// state the fresh strategy would have thrown away between queries.
    pub clauses_retained: u64,
    /// Cache merge barriers executed (dispatcher epochs; 0 under
    /// [`SolverStrategy::Fresh`]). Depends only on the family list and
    /// the shard count, never on worker timing.
    pub epochs: u64,
    /// Per-worker load record. Timing-dependent — surfaced only through
    /// the volatile `canary_dispatch_*` metrics family and the stderr
    /// progress heartbeat, never through deterministic counters,
    /// reports, or the canonical audit export.
    pub worker_loads: Vec<WorkerLoad>,
}

/// How much work one dispatcher worker ended up doing.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerLoad {
    /// Families this worker solved.
    pub families: u64,
}

/// Persistent per-family solver state: one [`SatSolver`] carrying every
/// conjunct of the family behind its own activation literal, the
/// Tseitin encoding shared by all members, and the order atoms each
/// conjunct mentions.
struct FamilySolver {
    sat: SatSolver,
    enc: Encoding,
    acts: HashMap<TermId, Lit>,
    /// Activation literal per shared-prefix conjunct, in prefix order.
    /// Gating the prefix too makes assumption cores name exactly the
    /// responsible conjuncts — shared or delta — which leaves the
    /// smallest, most subsuming cores in the cache.
    shared_acts: Vec<(TermId, Lit)>,
    /// Order atoms mentioned by the shared prefix.
    shared_orders: HashSet<(EventId, EventId)>,
    /// Order atoms mentioned by each delta conjunct (memoized).
    delta_orders: HashMap<TermId, Vec<(EventId, EventId)>>,
}

impl FamilySolver {
    fn new(pool: &TermPool, shared: &[TermId]) -> FamilySolver {
        let mut sat = SatSolver::new();
        let mut enc = Encoding::default();
        let mut shared_orders = HashSet::new();
        let mut seen = HashSet::new();
        let mut shared_acts = Vec::with_capacity(shared.len());
        for &c in shared {
            let l = Lit::pos(sat.new_var());
            encode_gated(pool, c, &mut sat, &mut enc, l);
            shared_acts.push((c, l));
            collect_order_atoms(pool, c, &mut seen, &mut shared_orders);
        }
        FamilySolver {
            sat,
            enc,
            acts: HashMap::new(),
            shared_acts,
            shared_orders,
            delta_orders: HashMap::new(),
        }
    }
}

/// Collects the canonical `(a, b)` event pair of every order atom
/// reachable from `t`. The persistent family solver carries the union
/// of all members' atoms, but a member's theory check must range over
/// exactly the atoms *its* formula mentions — matching the fresh
/// strategy's semantics and keeping the orientation graph from growing
/// with the family (inactive members' gated atoms are irrelevant to the
/// active query).
fn collect_order_atoms(
    pool: &TermPool,
    t: TermId,
    seen: &mut HashSet<TermId>,
    out: &mut HashSet<(EventId, EventId)>,
) {
    if !seen.insert(t) {
        return;
    }
    match pool.node(t) {
        Node::Order(a, b) => {
            out.insert((*a, *b));
        }
        Node::Not(x) => collect_order_atoms(pool, *x, seen, out),
        Node::And(xs) | Node::Or(xs) => {
            for &x in xs {
                collect_order_atoms(pool, x, seen, out);
            }
        }
        Node::True | Node::False | Node::BoolAtom(_) => {}
    }
}

/// What one family hands back to the batch driver for the
/// deterministic merge.
struct FamilyOutput {
    outcomes: Vec<QueryOutcome>,
    additions: QueryCache,
    clauses_retained: u64,
}

/// Solves one query family on a persistent solver.
///
/// The shared conjunct prefix (intersection of all members' conjunct
/// sets) and each member's delta conjuncts are encoded once behind
/// activation literals; each member then becomes one
/// `solve_with_assumptions` call. Learned clauses stay valid across
/// members because the gating clauses are part of the clause set, and
/// theory lemmas are globally valid (they block cyclic orientations).
/// `snapshot` is the cache state at epoch start — shared by every
/// family in the epoch so results cannot depend on family scheduling.
fn solve_family(
    pool: &TermPool,
    queries: &[TermId],
    opts: &SolverOptions,
    snapshot: &QueryCache,
) -> FamilyOutput {
    let conjs: Vec<Vec<TermId>> = queries.iter().map(|&t| pool.conjuncts_of(t)).collect();
    let mut shared = conjs[0].clone();
    for c in conjs.iter().skip(1) {
        shared.retain(|x| c.binary_search(x).is_ok());
    }
    let mut local = QueryCache::new();
    let mut fam: Option<FamilySolver> = None;
    // Solve members with the fewest conjuncts first (ties broken by
    // candidate order, so the schedule is deterministic). A smaller
    // member's conjunct set is closer to the shared prefix, so its
    // refutation leaves behind the most subsuming core — and solving
    // it first keeps the persistent solver small, before larger
    // members' delta encodings pile up. Outcomes are emitted in the
    // caller's order regardless.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| (conjs[i].len(), i));
    let mut outcomes: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
    for i in order {
        let t = queries[i];
        let started = Instant::now();
        let mut q = QueryStats::default();
        let mut memo_hit = false;
        let mut core_subsumed = false;
        let mut incremental = false;
        let mut core: Option<Vec<TermId>> = None;
        // The prefilter runs first in both strategies, so the
        // `prefiltered` counter is strategy-invariant.
        let result = if opts.prefilter && t == pool.tt() {
            q.prefiltered = true;
            SmtResult::Sat
        } else if opts.prefilter && obviously_false(pool, t) {
            q.prefiltered = true;
            SmtResult::Unsat
        } else if let Some(r) = snapshot.lookup(t).or_else(|| local.lookup(t)) {
            memo_hit = true;
            r
        } else if let Some(cached) = snapshot
            .subsuming_core(&conjs[i])
            .or_else(|| local.subsuming_core(&conjs[i]))
            .map(<[TermId]>::to_vec)
        {
            core_subsumed = true;
            core = Some(cached);
            local.memoize(t, SmtResult::Unsat);
            SmtResult::Unsat
        } else {
            incremental = true;
            let was_absent = fam.is_none();
            let fam = fam.get_or_insert_with(|| FamilySolver::new(pool, &shared));
            // The member that forced solver construction also pays for
            // encoding the shared prefix (as the fresh path would).
            let base = if was_absent {
                SatStats::default()
            } else {
                fam.sat.stats
            };
            let (r, member_core) =
                solve_member(pool, fam, &shared, &conjs[i], &mut q, &mut local, base);
            core = member_core;
            local.memoize(t, r);
            r
        };
        outcomes[i] = Some(QueryOutcome {
            result,
            stats: q,
            started,
            wall: started.elapsed(),
            memo_hit,
            core_subsumed,
            incremental,
            core,
        });
    }
    FamilyOutput {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every member solved"))
            .collect(),
        additions: local,
        clauses_retained: fam.map_or(0, |f| f.sat.num_learnt() as u64),
    }
}

/// One member's CDCL(T) loop on the persistent family solver. On
/// refutation, records the refuted conjunct set (the assumption core
/// mapped back to conjuncts) into `local` and returns it as the
/// member's certificate. `base` is the solver-counter baseline this
/// member's work is measured against.
fn solve_member(
    pool: &TermPool,
    fam: &mut FamilySolver,
    shared: &[TermId],
    conj: &[TermId],
    q: &mut QueryStats,
    local: &mut QueryCache,
    base: SatStats,
) -> (SmtResult, Option<Vec<TermId>>) {
    let deltas = sorted_diff(conj, shared);
    let mut assumptions = Vec::with_capacity(fam.shared_acts.len() + deltas.len());
    let mut by_lit: HashMap<Lit, TermId> =
        HashMap::with_capacity(fam.shared_acts.len() + deltas.len());
    for &(c, l) in &fam.shared_acts {
        by_lit.insert(l, c);
        assumptions.push(l);
    }
    for &d in &deltas {
        let lit = match fam.acts.get(&d) {
            Some(&l) => l,
            None => {
                let l = Lit::pos(fam.sat.new_var());
                encode_gated(pool, d, &mut fam.sat, &mut fam.enc, l);
                let mut seen = HashSet::new();
                let mut orders = HashSet::new();
                collect_order_atoms(pool, d, &mut seen, &mut orders);
                let mut orders: Vec<_> = orders.into_iter().collect();
                orders.sort_unstable();
                fam.delta_orders.insert(d, orders);
                fam.acts.insert(d, l);
                l
            }
        };
        by_lit.insert(lit, d);
        assumptions.push(lit);
    }
    // The theory check ranges over exactly the order atoms of *this*
    // member's formula (shared prefix + its deltas) — the same scope
    // the fresh strategy would orient. Without the restriction the
    // orientation graph grows with every member encoded, and cycles
    // among inactive gated atoms cost spurious lemmas.
    let mut scope: HashSet<Var> = fam
        .shared_orders
        .iter()
        .filter_map(|p| fam.enc.order_vars.get(p).copied())
        .collect();
    for d in &deltas {
        for p in &fam.delta_orders[d] {
            if let Some(&v) = fam.enc.order_vars.get(p) {
                scope.insert(v);
            }
        }
    }
    let learnt_before = fam.sat.num_learnt() as u64;
    let model = solve_modulo_orders(
        &mut fam.sat,
        &fam.enc,
        &assumptions,
        Some(&scope),
        &mut q.theory_lemmas,
    );
    let result = if model.is_some() {
        SmtResult::Sat
    } else {
        SmtResult::Unsat
    };
    if std::env::var_os("CANARY_SMT_DEBUG").is_some() {
        eprintln!(
            "[smt-debug] member: vars={} assumptions={} decisions=+{} props=+{} lemmas={} result={result:?}",
            fam.sat.num_vars(),
            assumptions.len(),
            fam.sat.stats.decisions - base.decisions,
            fam.sat.stats.propagations - base.propagations,
            q.theory_lemmas,
        );
    }
    q.add_sat_work(&fam.sat, base, learnt_before);
    if result == SmtResult::Sat {
        return (result, None);
    }
    // The assumption core names exactly the responsible conjuncts,
    // shared or delta — the smallest, most subsuming core the solver
    // can certify. A refutation without one (the clause set alone went
    // unsat) certifies nothing smaller than this member's own formula.
    let mut refuted: Vec<TermId> = if fam.sat.is_ok() {
        fam.sat
            .assumption_core()
            .iter()
            .filter_map(|l| by_lit.get(l).copied())
            .collect()
    } else {
        Vec::new()
    };
    refuted.sort_unstable();
    refuted.dedup();
    if refuted.is_empty() {
        refuted = conj.to_vec();
    }
    local.insert_core(refuted.clone());
    (result, Some(refuted))
}

/// Like [`check_all_recorded`], but queries carry a *group key*
/// (`groups[i]`, e.g. the candidate's source label): maximal contiguous
/// runs of equal keys form query families, solved per
/// `opts.strategy`.
///
/// Under the incremental strategy families are processed in *epochs*:
/// contiguous runs of `2 × shards` families in family order. The
/// workers of an epoch claim whole families from one shared cursor —
/// whole families, so the persistent solver's reuse survives — against
/// a cache snapshot frozen for the epoch; the epoch's additions merge
/// back into `cache` in family order at the epoch barrier, so later
/// epochs reuse earlier epochs' cores and verdicts. Epoch boundaries
/// depend only on the family list and the shard count — never on the
/// worker count — which keeps outcomes byte-identical for every
/// `num_threads`.
pub fn check_all_grouped(
    pool: &TermPool,
    queries: &[TermId],
    groups: &[u64],
    opts: &SolverOptions,
    cache: &mut QueryCache,
) -> GroupedOutcome {
    assert_eq!(queries.len(), groups.len(), "one group key per query");
    if opts.strategy == SolverStrategy::Fresh {
        return GroupedOutcome {
            outcomes: check_all_recorded(pool, queries, opts),
            families: 0,
            clauses_retained: 0,
            epochs: 0,
            worker_loads: Vec::new(),
        };
    }
    let mut fams: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=queries.len() {
        if i == queries.len() || groups[i] != groups[start] {
            fams.push((start, i));
            start = i;
        }
    }
    let shards = if opts.shards > 0 {
        opts.shards
    } else {
        DEFAULT_SHARDS
    };
    let workers = opts.num_threads.max(1);
    let mut worker_loads = vec![WorkerLoad::default(); workers];
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut clauses_retained = 0u64;
    let mut epochs = 0u64;
    for epoch in fams.chunks(shards * EPOCH_FAMILIES_PER_SHARD) {
        epochs += 1;
        let snapshot: &QueryCache = cache;
        let (outputs, claimed) = parallel_map(epoch, workers, |&(s, e)| {
            solve_family(pool, &queries[s..e], opts, snapshot)
        });
        for (load, n) in worker_loads.iter_mut().zip(claimed) {
            load.families += n;
        }
        // Epoch barrier: commit outcomes and merge cache additions in
        // family order, so the next epoch's snapshot — identical for
        // every worker count — includes everything learned so far.
        for out in outputs {
            outcomes.extend(out.outcomes);
            clauses_retained += out.clauses_retained;
            cache.merge(out.additions);
        }
    }
    GroupedOutcome {
        outcomes,
        families: fams.len() as u64,
        clauses_retained,
        epochs,
        worker_loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_boolean_sat_and_unsat() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let na = p.not(a);
        let f = p.or2(a, b);
        let opts = SolverOptions::default();
        assert_eq!(check(&p, f, &opts), SmtResult::Sat);
        let nb = p.not(b);
        let g = p.and([f, na, nb]);
        assert_eq!(check(&p, g, &opts), SmtResult::Unsat);
    }

    #[test]
    fn fig2_guard_is_unsat() {
        // θ1 ∧ ¬θ1 with order constraints — the paper's Fig. 2 example.
        let mut p = TermPool::new();
        let theta = p.bool_atom(0);
        let ntheta = p.not(theta);
        let o1 = p.order_lt(13, 6); // store before load
        let o2 = p.order_lt(3, 13); // no overwrite
        let guard = p.and([theta, ntheta, o1, o2]);
        let opts = SolverOptions::default();
        assert_eq!(check(&p, guard, &opts), SmtResult::Unsat);
    }

    #[test]
    fn order_cycle_through_boolean_structure_is_unsat() {
        // (O1<O2) ∧ (O2<O3) ∧ (O3<O1) is hidden from the prefilter by a
        // disjunctive wrapper, so the theory loop must catch it.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let na = p.not(a);
        let cyc = p.and([o12, o23, o31]);
        // Distinct boolean tails on each side keep the construction-time
        // factoring rewrite from collapsing the disjunction.
        let left = p.and([cyc, a, b]);
        let right = p.and2(cyc, na);
        let f = p.or2(left, right);
        let opts = SolverOptions::default();
        let (result, q) = check_counted(&p, f, &opts);
        assert_eq!(result, SmtResult::Unsat);
        assert!(q.theory_lemmas > 0);
    }

    #[test]
    fn order_choice_is_sat() {
        // (O1<O2 ∨ O2<O1) ∧ O2<O3: satisfiable.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o21 = p.order_lt(2, 1);
        let o23 = p.order_lt(2, 3);
        let choice = p.or2(o12, o21);
        let f = p.and2(choice, o23);
        let opts = SolverOptions::default();
        assert_eq!(check(&p, f, &opts), SmtResult::Sat);
    }

    #[test]
    fn transitivity_is_enforced_lazily() {
        // O1<O2 ∧ O2<O3 ∧ O3<O1 must be unsat even though no single
        // atom pair is contradictory.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        // Disable prefilter to force the lazy loop.
        let opts = SolverOptions {
            prefilter: false,
            ..SolverOptions::default()
        };
        let f = p.and([o12, o23, o31]);
        assert_eq!(check(&p, f, &opts), SmtResult::Unsat);
    }

    #[test]
    fn prefilter_short_circuits() {
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let f = p.and([o12, o23, o31]);
        let opts = SolverOptions::default();
        let (result, q) = check_counted(&p, f, &opts);
        assert_eq!(result, SmtResult::Unsat);
        // Answered by the prefilter alone: no CDCL work at all.
        let prefiltered_only = QueryStats {
            prefiltered: true,
            ..QueryStats::default()
        };
        assert_eq!(q, prefiltered_only);
    }

    #[test]
    fn parallel_check_all_matches_sequential() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        for i in 0..16u32 {
            let a = p.bool_atom(i);
            let na = p.not(a);
            let o = p.order_lt(i, i + 1);
            let q = if i % 2 == 0 {
                p.and2(a, o)
            } else {
                p.and([a, na]) // unsat
            };
            queries.push(q);
        }
        let seq_opts = SolverOptions::default();
        let par_opts = SolverOptions {
            num_threads: 4,
            ..SolverOptions::default()
        };
        let seq = check_all(&p, &queries, &seq_opts);
        let par = check_all(&p, &queries, &par_opts);
        assert_eq!(seq, par);
        for (i, r) in seq.iter().enumerate() {
            assert_eq!(r.is_sat(), i % 2 == 0, "query {i}");
        }
    }

    #[test]
    fn sorted_subset_is_exact() {
        let t = |x: u32| TermId(x);
        let sub = vec![t(1), t(3)];
        assert!(is_sorted_subset(&sub, &[t(0), t(1), t(2), t(3)]));
        assert!(is_sorted_subset(&sub, &[t(1), t(3)]));
        assert!(!is_sorted_subset(&sub, &[t(1), t(2)]));
        assert!(!is_sorted_subset(&sub, &[t(3)]));
        assert!(is_sorted_subset(&[], &[t(7)]));
        assert_eq!(
            sorted_diff(&[t(0), t(1), t(2), t(3)], &[t(1), t(3)]),
            vec![t(0), t(2)]
        );
    }

    #[test]
    fn cached_core_refutes_strict_superset_never_non_superset() {
        let mut cache = QueryCache::new();
        let t = |x: u32| TermId(x);
        cache.insert_core(vec![t(2), t(5)]);
        // Strict superset: refuted without solving.
        assert!(cache.subsumes(&[t(1), t(2), t(5), t(9)]));
        // The refuted set itself.
        assert!(cache.subsumes(&[t(2), t(5)]));
        // Non-supersets: never fires.
        assert!(!cache.subsumes(&[t(2), t(9)]));
        assert!(!cache.subsumes(&[t(5)]));
        assert!(!cache.subsumes(&[]));
        // Empty cores are ignored — they would subsume everything.
        cache.insert_core(Vec::new());
        assert!(!cache.subsumes(&[t(1)]));
    }

    #[test]
    fn family_core_subsumption_and_memo_fire_in_batch() {
        let mut p = TermPool::new();
        let oa = p.order_lt(10, 11);
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let b = p.bool_atom(0);
        let q_sat = p.and([oa, o12, o23]);
        let q_unsat = p.and([oa, o12, o23, o31]); // order cycle
        let q_super = p.and([oa, o12, o23, o31, b]); // superset of the core
        let q_other = p.and([oa, o12, b]); // shares atoms but no cycle
        let q_dup = q_sat; // hash-consed duplicate
        let queries = [q_sat, q_unsat, q_super, q_other, q_dup];
        let groups = [7u64; 5];
        let opts = SolverOptions {
            prefilter: false, // force everything past the prefilter
            strategy: SolverStrategy::Incremental,
            ..SolverOptions::default()
        };
        let mut cache = QueryCache::new();
        let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
        let verdicts: Vec<SmtResult> = out.outcomes.iter().map(|o| o.result).collect();
        assert_eq!(
            verdicts,
            vec![
                SmtResult::Sat,
                SmtResult::Unsat,
                SmtResult::Unsat,
                SmtResult::Sat,
                SmtResult::Sat
            ]
        );
        assert_eq!(out.families, 1);
        assert!(out.outcomes[1].incremental);
        // The superset of the refuted set is discharged by the core
        // cache, the duplicate by the memo — neither touches a solver.
        assert!(out.outcomes[2].core_subsumed);
        assert!(!out.outcomes[3].core_subsumed && !out.outcomes[3].memo_hit);
        assert!(out.outcomes[4].memo_hit);
        // The batch merged its additions into the caller's cache.
        assert!(cache.core_len() >= 1);
        assert!(cache.subsumes(&p.conjuncts_of(q_super)));
        // A later batch reuses the merged cache across families.
        let out2 = check_all_grouped(&p, &[q_super], &[99], &opts, &mut cache);
        assert_eq!(out2.outcomes[0].result, SmtResult::Unsat);
        assert!(out2.outcomes[0].memo_hit || out2.outcomes[0].core_subsumed);
    }

    #[test]
    fn grouped_incremental_matches_fresh_verdicts() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..4u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            let g = p.bool_atom(src as u32);
            for k in 0..4u32 {
                let d1 = p.order_lt(k, k + 1);
                let q = if k == 3 {
                    // An order cycle hidden behind the shared prefix.
                    let c1 = p.order_lt(100, 101);
                    let c2 = p.order_lt(101, 100);
                    p.and([base, g, c1, c2])
                } else {
                    p.and([base, g, d1])
                };
                queries.push(q);
                groups.push(src);
            }
        }
        let fresh = SolverOptions {
            strategy: SolverStrategy::Fresh,
            ..SolverOptions::default()
        };
        let incr = SolverOptions {
            strategy: SolverStrategy::Incremental,
            ..SolverOptions::default()
        };
        let mut c1 = QueryCache::new();
        let mut c2 = QueryCache::new();
        let a = check_all_grouped(&p, &queries, &groups, &fresh, &mut c1);
        let b = check_all_grouped(&p, &queries, &groups, &incr, &mut c2);
        let va: Vec<SmtResult> = a.outcomes.iter().map(|o| o.result).collect();
        let vb: Vec<SmtResult> = b.outcomes.iter().map(|o| o.result).collect();
        assert_eq!(va, vb);
        // Prefilter accounting is strategy-invariant.
        let pa: Vec<bool> = a.outcomes.iter().map(|o| o.stats.prefiltered).collect();
        let pb: Vec<bool> = b.outcomes.iter().map(|o| o.stats.prefiltered).collect();
        assert_eq!(pa, pb);
        assert_eq!(a.families, 0);
        assert_eq!(b.families, 4);
    }

    #[test]
    fn grouped_parallel_output_is_byte_identical_to_sequential() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..6u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            for k in 0..3u32 {
                let d = p.order_lt(k, k + 1);
                let q = p.and([base, d]);
                queries.push(q);
                groups.push(src);
            }
        }
        let mk = |threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Incremental,
                ..SolverOptions::default()
            };
            let mut cache = QueryCache::new();
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
            out.outcomes
                .iter()
                .map(|o| (o.result, o.stats, o.memo_hit, o.core_subsumed, o.incremental))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(4));
    }

    /// Query set with enough families to span several dispatcher
    /// epochs, mixing sat members, an unsat order cycle per third
    /// family, and duplicate members for the memo.
    fn epoch_scale_queries(p: &mut TermPool) -> (Vec<TermId>, Vec<u64>) {
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..40u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            for k in 0..3u32 {
                let d = p.order_lt(k, k + 1);
                let q = if src % 3 == 0 && k == 2 {
                    let c1 = p.order_lt(500, 501);
                    let c2 = p.order_lt(501, 500);
                    p.and([base, d, c1, c2])
                } else {
                    p.and([base, d])
                };
                queries.push(q);
                groups.push(src);
            }
        }
        (queries, groups)
    }

    #[test]
    fn shard_counts_agree_on_verdicts() {
        let mut p = TermPool::new();
        let (queries, groups) = epoch_scale_queries(&mut p);
        let mk = |shards: usize, threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Incremental,
                shards,
                ..SolverOptions::default()
            };
            let mut cache = QueryCache::new();
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
            assert_eq!(out.families, 40);
            (
                out.outcomes
                    .iter()
                    .map(|o| o.result)
                    .collect::<Vec<SmtResult>>(),
                out.epochs,
            )
        };
        let (base_verdicts, base_epochs) = mk(0, 1);
        // 40 families at 8 shards × 2 families/shard = 3 epochs.
        assert_eq!(base_epochs, 3);
        for (shards, threads) in [(0, 4), (2, 1), (2, 4), (16, 3)] {
            let (verdicts, _) = mk(shards, threads);
            assert_eq!(
                verdicts, base_verdicts,
                "verdicts differ at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn grouped_outcomes_byte_identical_across_thread_counts() {
        let mut p = TermPool::new();
        let (queries, groups) = epoch_scale_queries(&mut p);
        let mk = |threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Incremental,
                ..SolverOptions::default()
            };
            let mut cache = QueryCache::new();
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
            out.outcomes
                .iter()
                .map(|o| {
                    (
                        o.result,
                        o.stats,
                        o.memo_hit,
                        o.core_subsumed,
                        o.incremental,
                    )
                })
                .collect::<Vec<_>>()
        };
        let one = mk(1);
        assert_eq!(one, mk(2));
        assert_eq!(one, mk(4));
        assert_eq!(one, mk(7));
    }

    #[test]
    fn cube_and_conquer_agrees_with_plain_solving() {
        let mut p = TermPool::new();
        // A formula with enough booleans to split on.
        let atoms: Vec<TermId> = (0..6).map(|i| p.bool_atom(i)).collect();
        let mut clauses = Vec::new();
        for i in 0..6 {
            let x = atoms[i];
            let y = atoms[(i + 1) % 6];
            let ny = p.not(y);
            clauses.push(p.or2(x, ny));
        }
        let o = p.order_lt(0, 1);
        clauses.push(o);
        let f = p.and(clauses);
        let plain_opts = SolverOptions::default();
        let cube_opts = SolverOptions {
            num_threads: 4,
            cube_split: 3,
            prefilter: false,
            ..SolverOptions::default()
        };
        assert_eq!(check(&p, f, &plain_opts), check(&p, f, &cube_opts));
    }
}
