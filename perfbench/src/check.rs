//! One check, untraced and traced.
//!
//! A check does in process what
//! `canary <file> --format sarif --audit-out … --metrics-out …` does,
//! minus the file I/O. The traced variant calls each layer's public
//! functions in pipeline order, timing each call from outside; it must
//! produce the same reports, SARIF and audit bytes as the untraced one.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use canary_core::{Canary, CanaryConfig, Metrics};
use canary_detect::{
    AuditLog, BugKind, BugReport, DetectContext, DetectOptions, DetectStats, Disposition,
};
use canary_interference::PruneReason;
use canary_ir::{CallGraph, MhpAnalysis, Program, Steensgaard, ThreadStructure};
use canary_report::RunManifest;
use canary_smt::{Dispatch, QueryCache, SolverOptions, SolverStrategy, TermPool};
use canary_trace::Tracer;

use crate::workloads::{parse_cir, Subject, Verdict, Workload};

/// The six checkers, in the order the pipeline runs them, with the
/// per-layer metric naming each one's wall time.
pub const CHECKERS: [(BugKind, &str); 6] = [
    (BugKind::UseAfterFree, "detect.uaf_s"),
    (BugKind::DoubleFree, "detect.double_free_s"),
    (BugKind::NullDeref, "detect.null_deref_s"),
    (BugKind::DataLeak, "detect.data_leak_s"),
    (BugKind::DoubleLock, "detect.double_lock_s"),
    (BugKind::ConflictLock, "detect.conflict_lock_s"),
];

/// Worker threads for the front end and the solver portfolio, on every
/// workload. With two, wall time and peak RSS varied several times more
/// from run to run (see README.md).
pub const WORKERS: usize = 1;

/// The configuration every check runs with. Each option a workload
/// relies on is set here rather than taken from a default, because
/// some defaults read the environment.
pub fn config(w: &Workload, s: &Subject) -> CanaryConfig {
    CanaryConfig {
        detect: DetectOptions {
            solver: SolverOptions {
                prefilter: true,
                num_threads: WORKERS,
                cube_split: 0,
                strategy: SolverStrategy::Incremental,
                dispatch: Dispatch::WorkSteal,
                shards: 0,
                ..SolverOptions::default()
            },
            inter_thread_only: false,
            sync_constraints: true,
            memory_model: s.model,
            explain_refutations: false,
            slow_query_ms: None,
            ..DetectOptions::default()
        },
        checkers: CHECKERS.iter().map(|&(k, _)| k).collect(),
        context_depth: 0,
        threads: WORKERS,
        verify_witnesses: w.verify_witnesses,
        memory_budget_mb: None,
        ..CanaryConfig::default()
    }
}

/// The SARIF manifest for a subject. It leaves out wall times so that
/// the SARIF bytes of two checks can be compared.
fn manifest(s: &Subject) -> RunManifest {
    RunManifest {
        file: s.name.clone(),
        corpus_hash: s.corpus_hash.clone(),
        strategy: SolverStrategy::Incremental.as_str().into(),
        threads: WORKERS,
        config: Vec::new(),
        canary_version: String::new(),
        rustc_version: String::new(),
        timings_ms: Vec::new(),
    }
}

/// What a check produced, reduced to what the gate compares.
pub struct Output {
    pub verdicts: BTreeSet<Verdict>,
    /// Hash of every report's kind, labels, path and schedule.
    pub reports: u64,
    pub sarif: u64,
    pub audit: u64,
    pub replays: usize,
    pub replays_confirmed: usize,
}

fn digest<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn output(reports: &[BugReport], sarif: &str, audit: &str, replays: &[bool]) -> Output {
    let shape: Vec<_> = reports
        .iter()
        .map(|r| (r.kind, r.source.0, r.sink.0, &r.path, &r.schedule))
        .collect();
    Output {
        verdicts: reports
            .iter()
            .map(|r| (r.kind, r.source.0, r.sink.0))
            .collect(),
        reports: digest(&shape),
        sarif: digest(&sarif),
        audit: digest(&audit),
        replays: replays.len(),
        replays_confirmed: replays.iter().filter(|&&c| c).count(),
    }
}

fn program<'a>(s: &'a Subject, parsed: &'a mut Option<Program>) -> Result<&'a Program, String> {
    match &s.source {
        Some(src) => Ok(parsed.insert(parse_cir(src)?)),
        None => Ok(&s.prog),
    }
}

/// Wall and CPU time of one check, in seconds.
#[derive(Clone, Copy)]
pub struct Times {
    pub wall: f64,
    pub cpu: f64,
}

/// One untraced check; returns its times and its output.
pub fn check(w: &Workload, s: &Subject) -> Result<(Times, Output), String> {
    let canary = Canary::with_config(config(w, s));
    let manifest = manifest(s);
    let mut parsed = None;
    let (run, wall, cpu) = crate::clock::timed(|| -> Result<_, String> {
        let prog = program(s, &mut parsed)?;
        let outcome = canary.analyze(prog);
        let doc = canary_report::sarif_document(prog, &outcome.reports, &manifest);
        let sarif = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        let audit = outcome.metrics.audit.to_jsonl();
        let openmetrics = outcome.metrics.to_registry().to_openmetrics();
        Ok((outcome, sarif, audit, openmetrics))
    });
    let (outcome, sarif, audit, openmetrics) = run?;
    black_box(&openmetrics);
    let replays: Vec<bool> = outcome
        .witness_replays
        .iter()
        .map(|r| r.confirmed())
        .collect();
    Ok((
        Times { wall, cpu },
        output(&outcome.reports, &sarif, &audit, &replays),
    ))
}

/// Per-layer walls (seconds) and counts of one traced check.
pub type Layers = BTreeMap<&'static str, f64>;

fn timed<T>(layers: &mut Layers, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *layers.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
    out
}

/// One traced check: the pipeline of `Canary::analyze` rebuilt from
/// each layer's public functions. Two differences from the pipeline
/// are deliberate: the Steensgaard pass is timed apart from the call
/// graph it feeds, and the MHP relation is built once and handed to
/// detection, where the pipeline builds it a second time. That second
/// build, audit seeding and the pipeline's bookkeeping are what
/// `core.unattributed_s` measures.
pub fn traced(w: &Workload, s: &Subject) -> Result<(Layers, Output), String> {
    let cfg = config(w, s);
    let manifest = manifest(s);
    let mut l = Layers::new();
    let mut parsed = None;
    let t = Instant::now();
    let prog = program(s, &mut parsed)?;
    l.insert("ir.parse_s", t.elapsed().as_secs_f64());

    let steens = timed(&mut l, "ir.steensgaard_s", || Steensgaard::run(prog));
    let cg = timed(&mut l, "ir.callgraph_s", || {
        CallGraph::build_with(prog, &steens)
    });
    drop(steens);
    let ts = timed(&mut l, "ir.threads_s", || {
        ThreadStructure::compute(prog, &cg)
    });
    let mut pool = TermPool::new();
    let mut df = timed(&mut l, "dataflow.alg1_s", || {
        canary_dataflow::run_with(prog, &cg, &mut pool, WORKERS)
    });
    let mhp = timed(&mut l, "ir.mhp_s", || MhpAnalysis::new(prog, &cg, &ts));
    let mut iopts = cfg.interference.clone();
    iopts.threads = iopts.threads.max(WORKERS);
    let ir = timed(&mut l, "interference.alg2_s", || {
        canary_interference::run(prog, &ts, &mhp, &mut df, &mut pool, &iopts)
    });

    let mut audit = AuditLog::new();
    for p in &ir.pruned_pairs {
        let d = match p.reason {
            PruneReason::Mhp {
                parallel,
                ordered_before,
            } => Disposition::PrunedMhp {
                parallel,
                ordered_before,
            },
            PruneReason::LockSharpen {
                class,
                killing_store,
            } => Disposition::PrunedLockSharpen {
                class,
                killing_store,
            },
            PruneReason::StoreAfterLoad => Disposition::PrunedStoreOrder,
        };
        let object = Some(prog.obj_name(p.object).to_string());
        audit.record_interference_prune(p.store, p.load, object, d);
    }

    let mut dopts = cfg.detect.clone();
    dopts.solver.num_threads = dopts.solver.num_threads.max(WORKERS);
    let ctx = timed(&mut l, "detect.context_s", || {
        DetectContext::new(prog, &ts, &mhp, &df, &dopts)
    });
    let mut stats = DetectStats::default();
    let mut qcache = QueryCache::new();
    let tracer = Tracer::disabled();
    let mut reports = Vec::new();
    let mut profiles = Vec::new();
    for &(kind, name) in &CHECKERS {
        let (rs, _refuted, profs) = timed(&mut l, name, || {
            canary_detect::check_kind_traced(
                &ctx,
                &mut pool,
                kind,
                &dopts,
                &mut stats,
                &tracer,
                &mut qcache,
                &mut audit,
            )
        });
        reports.extend(rs);
        profiles.extend(profs);
    }
    let raw = reports.len();
    let reports = canary_detect::dedup_reports(prog, reports);
    let kept: std::collections::HashSet<_> =
        reports.iter().map(|r| (r.kind, r.source, r.sink)).collect();
    audit.apply_report_dedup(&kept);

    let sarif = timed(&mut l, "report.sarif_s", || {
        let doc = canary_report::sarif_document(prog, &reports, &manifest);
        serde_json::to_string_pretty(&doc)
    })
    .map_err(|e| e.to_string())?;
    let jsonl = timed(&mut l, "detect.audit_export_s", || audit.to_jsonl());

    let solve: f64 = profiles.iter().map(|p| p.wall.as_secs_f64()).sum();
    let checkers: f64 = CHECKERS.iter().map(|(_, n)| l[n]).sum();
    let count = |l: &mut Layers, name, v: usize| {
        l.insert(name, v as f64);
    };
    count(&mut l, "ir.stmts", prog.stmt_count());
    count(&mut l, "dataflow.tasks", df.tasks);
    count(&mut l, "interference.rounds", ir.rounds);
    count(&mut l, "interference.edges", ir.interference_edges);
    count(&mut l, "interference.escaped", ir.escaped.len());
    count(&mut l, "interference.pruned_pairs", ir.pruned_pairs.len());
    count(&mut l, "vfg.nodes", df.vfg.node_count());
    count(&mut l, "vfg.edges", df.vfg.edge_count());
    count(&mut l, "vfg.bytes", df.vfg.approx_bytes());
    count(&mut l, "smt.terms", pool.len());
    count(&mut l, "smt.term_bytes", pool.approx_bytes());
    count(&mut l, "detect.candidate_paths", stats.candidate_paths);
    count(&mut l, "detect.queries", stats.queries);
    count(&mut l, "detect.prefiltered", stats.prefiltered as usize);
    count(&mut l, "detect.confirmed", stats.confirmed);
    count(&mut l, "detect.deduped", raw - reports.len());
    count(&mut l, "smt.decisions", stats.decisions as usize);
    count(&mut l, "smt.conflicts", stats.conflicts as usize);
    count(&mut l, "smt.propagations", stats.propagations as usize);
    count(&mut l, "smt.theory_lemmas", stats.theory_lemmas as usize);
    count(&mut l, "smt.memo_hits", stats.memo_hits as usize);
    count(&mut l, "smt.core_subsumed", stats.core_subsumed as usize);
    count(&mut l, "report.sarif_bytes", sarif.len());
    count(&mut l, "detect.audit_bytes", jsonl.len());
    l.insert("smt.solve_s", solve);
    l.insert("detect.search_s", checkers - solve);

    let metrics = Metrics {
        stmt_count: prog.stmt_count(),
        thread_count: prog.threads.len(),
        vfg_nodes: df.vfg.node_count(),
        vfg_edges: df.vfg.edge_count(),
        interference_edges: df.vfg.interference_edge_count(),
        mhp_lock_pruned: ir.mhp_lock_pruned,
        escaped_objects: ir.escaped.len(),
        vfg_bytes: df.vfg.approx_bytes(),
        term_count: pool.len(),
        term_bytes: pool.approx_bytes(),
        detect: stats,
        worker_threads: WORKERS,
        reports_deduped: raw - reports.len(),
        func_profiles: df.func_profiles.clone(),
        query_profiles: profiles,
        audit,
        ..Metrics::default()
    };
    let openmetrics = timed(&mut l, "trace.openmetrics_s", || {
        metrics.to_registry().to_openmetrics()
    });
    black_box(&openmetrics);

    let replays: Vec<bool> = if cfg.verify_witnesses {
        timed(&mut l, "oracle.replay_s", || {
            reports
                .iter()
                .map(|r| canary_oracle::replay_report_under(prog, s.model, r).confirmed())
                .collect()
        })
    } else {
        Vec::new()
    };
    let out = output(&reports, &sarif, &jsonl, &replays);
    count(&mut l, "oracle.replays", out.replays);
    count(&mut l, "oracle.confirmed", out.replays_confirmed);
    Ok((l, out))
}
