//! Time-to-verdict benchmark for the canary analyzer.
//!
//! ```text
//! perfbench --workload <table1|detect_heavy|small_programs> --seed N
//!           --seconds S --trace <0|1> [--quick] [--wrong-verdict]
//! ```
//!
//! Builds the workload's inputs from the seed, then checks every
//! subject once per pass for about `S` seconds (at least two passes;
//! with `--trace 1`, pairs of one untraced and one traced pass). Every
//! check is scored against the subject's known answer. With `--trace 0` it
//! prints the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--quick` shrinks every input (for the self-test) and
//! `--wrong-verdict` plants one false expected verdict, which must make
//! the run fail. See README.md for the workloads and metrics.

mod check;
mod clock;
mod stats;
mod workloads;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use check::{Layers, Output};
use stats::{loglog_slope, median, tail};
use workloads::{Subject, Workload};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("check_cpu_s", "s"),
    ("scaling_slope", "log/log"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Layer walls the traced check times directly. Their sum, against the
/// untraced pass wall, gives `core.unattributed_s`.
const TIMED_LAYERS: [&str; 18] = [
    "ir.parse_s",
    "ir.steensgaard_s",
    "ir.callgraph_s",
    "ir.threads_s",
    "ir.mhp_s",
    "dataflow.alg1_s",
    "interference.alg2_s",
    "detect.context_s",
    "detect.uaf_s",
    "detect.double_free_s",
    "detect.null_deref_s",
    "detect.data_leak_s",
    "detect.double_lock_s",
    "detect.conflict_lock_s",
    "report.sarif_s",
    "detect.audit_export_s",
    "trace.openmetrics_s",
    "oracle.replay_s",
];

/// Per-layer metrics (`--trace 1`), with units. Walls are medians over
/// traced passes of the per-pass sum over subjects; counts are sums
/// over subjects; slopes fit per-subject walls against statements.
const PER_LAYER: [(&str, &str); 53] = [
    ("ir.parse_s", "s"),
    ("ir.steensgaard_s", "s"),
    ("ir.callgraph_s", "s"),
    ("ir.threads_s", "s"),
    ("ir.mhp_s", "s"),
    ("ir.stmts", "count"),
    ("ir.steensgaard_slope", "log/log"),
    ("dataflow.alg1_s", "s"),
    ("dataflow.tasks", "count"),
    ("interference.alg2_s", "s"),
    ("interference.rounds", "count"),
    ("interference.edges", "count"),
    ("interference.escaped", "count"),
    ("interference.pruned_pairs", "count"),
    ("interference.alg2_slope", "log/log"),
    ("vfg.nodes", "count"),
    ("vfg.edges", "count"),
    ("vfg.bytes", "bytes"),
    ("smt.terms", "count"),
    ("smt.term_bytes", "bytes"),
    ("detect.context_s", "s"),
    ("detect.uaf_s", "s"),
    ("detect.double_free_s", "s"),
    ("detect.null_deref_s", "s"),
    ("detect.data_leak_s", "s"),
    ("detect.double_lock_s", "s"),
    ("detect.conflict_lock_s", "s"),
    ("detect.search_s", "s"),
    ("detect.uaf_slope", "log/log"),
    ("detect.candidate_paths", "count"),
    ("detect.queries", "count"),
    ("detect.prefiltered", "count"),
    ("detect.confirmed", "count"),
    ("detect.deduped", "count"),
    ("detect.confirmed_per_query", "ratio"),
    ("smt.solve_s", "s"),
    ("smt.decisions", "count"),
    ("smt.conflicts", "count"),
    ("smt.propagations", "count"),
    ("smt.theory_lemmas", "count"),
    ("smt.memo_hits", "count"),
    ("smt.core_subsumed", "count"),
    ("smt.decisions_per_query", "ratio"),
    ("report.sarif_s", "s"),
    ("report.sarif_bytes", "bytes"),
    ("report.sarif_slope", "log/log"),
    ("detect.audit_export_s", "s"),
    ("detect.audit_bytes", "bytes"),
    ("trace.openmetrics_s", "s"),
    ("oracle.replay_s", "s"),
    ("oracle.replays", "count"),
    ("oracle.confirmed", "count"),
    ("core.unattributed_s", "s"),
];

/// Layer walls fitted against statements for the `*_slope` metrics.
const SLOPES: [(&str, &str); 4] = [
    ("ir.steensgaard_slope", "ir.steensgaard_s"),
    ("interference.alg2_slope", "interference.alg2_s"),
    ("detect.uaf_slope", "detect.uaf_s"),
    ("report.sarif_slope", "report.sarif_s"),
];

/// Variables that change the analyzer's defaults or its logging. The
/// benchmark refuses to run while any is set, so the caller's
/// environment cannot change the numbers.
const PINNED_ENV: [&str; 5] = [
    "CANARY_TEST_THREADS",
    "CANARY_SOLVER_STRATEGY",
    "CANARY_DISPATCH",
    "CANARY_LOG",
    "CANARY_SMT_DEBUG",
];

/// An untraced run makes at least this many passes, and reads
/// `peak_rss_mib` when they are done. Later passes can raise the peak by
/// heap fragmentation alone (on `detect_heavy`, by about 5 MiB from pass
/// 6 on, in 5 of 10 runs of 35 s on a 2-vCPU host), and how many passes
/// a run makes depends on the host's speed.
const RSS_PASSES: usize = 2;

/// Subjects of at least this many statements enter `scaling_slope`.
const SLOPE_MIN_STMTS: f64 = 1000.0;

/// `setup_s` is the median of at least `SETUP_MIN_BUILDS` builds of the
/// workload. After the first `RSS_PASSES` passes of an untraced run the
/// workload is rebuilt between passes until builds have taken
/// `SETUP_SHARE` of the run, so that `setup_s`, like `check_cpu_s`,
/// samples the host over the whole run: the host's speed changes by up
/// to half within seconds, and builds made only at the start read
/// whichever speed it had then.
const SETUP_MIN_BUILDS: usize = 5;
const SETUP_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    wrong_verdict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        wrong_verdict: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--wrong-verdict" => args.wrong_verdict = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(args)
}

/// The correctness gate: scores every check and remembers the first
/// output of each subject, against which later checks are compared.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failed: usize,
    reported: BTreeSet<String>,
    first: HashMap<usize, (u64, u64, u64)>,
}

impl Gate {
    /// Runs and scores one check of subject `i`; returns the check's
    /// value when it produced output, even if that output is wrong.
    fn score<T>(
        &mut self,
        w: &Workload,
        i: usize,
        run: impl FnOnce() -> Result<(T, f64, Output), String>,
    ) -> Option<T> {
        self.attempted += 1;
        let s = &w.subjects[i];
        let result =
            catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("panicked".to_string()));
        let (value, wall, out) = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(w, s, format!("error: {e}"));
                return None;
            }
        };
        let mut problems = Vec::new();
        if wall > w.check_limit.as_secs_f64() {
            problems.push(format!(
                "over the {:?} check limit ({wall:.2} s)",
                w.check_limit
            ));
        }
        if out.verdicts != s.expected {
            let missing: Vec<_> = s.expected.difference(&out.verdicts).collect();
            let extra: Vec<_> = out.verdicts.difference(&s.expected).collect();
            problems.push(format!(
                "wrong verdict: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        if out.replays_confirmed < out.replays {
            problems.push(format!(
                "{} of {} witness replays unconfirmed",
                out.replays - out.replays_confirmed,
                out.replays
            ));
        }
        let (reports, sarif, audit) =
            *self
                .first
                .entry(i)
                .or_insert((out.reports, out.sarif, out.audit));
        if out.reports != reports {
            problems.push("reports differ between checks (traced or untraced)".into());
        }
        if out.sarif != sarif {
            problems.push("SARIF bytes differ between checks".into());
        }
        if out.audit != audit {
            problems.push("audit JSONL bytes differ between checks".into());
        }
        if !problems.is_empty() {
            self.fail(w, s, problems.join("; "));
        }
        Some(value)
    }

    fn fail(&mut self, w: &Workload, s: &Subject, why: String) {
        self.failed += 1;
        let line = format!("FAILED {}/{}: {why}", w.name, s.name);
        if self.reported.insert(line.clone()) {
            eprintln!("{line}");
        }
    }
}

/// The resolved configuration, printed next to the metrics.
fn describe_config(w: &Workload) -> String {
    let s = &w.subjects[0];
    let c = check::config(w, s);
    let o = &c.detect.solver;
    let models: BTreeSet<String> = w
        .subjects
        .iter()
        .map(|s| format!("{:?}", s.model).to_lowercase())
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "config: threads={} solver_threads={} strategy={} dispatch={} shards={} cube_split={} \
         prefilter={} sync_constraints={} inter_thread_only={} use_mhp={} lock_sharpen={} \
         context_depth={} verify_witnesses={} memory_budget_mb={:?} memory_models={} checkers={} \
         available_parallelism={cores}",
        c.threads,
        o.num_threads,
        o.strategy.as_str(),
        o.dispatch.as_str(),
        o.shards,
        o.cube_split,
        o.prefilter,
        c.detect.sync_constraints,
        c.detect.inter_thread_only,
        c.interference.use_mhp,
        c.interference.lock_sharpen,
        c.context_depth,
        c.verify_witnesses,
        c.memory_budget_mb,
        models.into_iter().collect::<Vec<_>>().join(","),
        c.checkers
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; it changes the analyzer's defaults");
        return ExitCode::from(2);
    }
    // Set-up time is CPU time, like `check_cpu_s`.
    let build = || {
        let (w, _, cpu) = clock::timed(|| {
            workloads::build(&args.workload, args.seed, args.quick, args.wrong_verdict)
        });
        w.map(|w| (w, cpu))
    };
    let (w, first_build) = match build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut setup = vec![first_build];
    let n = w.subjects.len();
    let mut gate = Gate::default();
    let mut pass_walls = Vec::new();
    let mut pass_cpu = Vec::new();
    let mut subject_cpu: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced_passes: Vec<Layers> = Vec::new();
    let mut subject_layers: Vec<Vec<Layers>> = vec![Vec::new(); n];
    let mut peak_rss = 0;
    let start = Instant::now();
    loop {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for (i, samples) in subject_cpu.iter_mut().enumerate() {
            let times = gate.score(&w, i, || {
                check::check(&w, &w.subjects[i]).map(|(t, out)| (t, t.wall, out))
            });
            if let Some(t) = times {
                wall += t.wall;
                cpu += t.cpu;
                samples.push(t.cpu);
            }
        }
        pass_walls.push(wall);
        pass_cpu.push(cpu);
        if pass_walls.len() == RSS_PASSES {
            peak_rss = canary_trace::metrics::peak_rss_bytes();
        }
        if !args.trace && pass_walls.len() >= RSS_PASSES {
            let share = SETUP_SHARE * start.elapsed().as_secs_f64();
            while setup.len() < SETUP_MIN_BUILDS || setup.iter().sum::<f64>() < share {
                match build() {
                    Ok((_, t)) => setup.push(t),
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        if args.trace {
            let mut sum = Layers::new();
            for (i, per_subject) in subject_layers.iter_mut().enumerate() {
                let layers = gate.score(&w, i, || {
                    check::traced(&w, &w.subjects[i]).map(|(l, out)| {
                        let wall = TIMED_LAYERS.iter().filter_map(|k| l.get(k)).sum();
                        (l, wall, out)
                    })
                });
                if let Some(l) = layers {
                    for (k, v) in &l {
                        *sum.entry(k).or_insert(0.0) += v;
                    }
                    per_subject.push(l);
                }
            }
            traced_passes.push(sum);
        }
        // Stop once another pass would end nearer after the deadline
        // than before it, so a run lasts about `--seconds` even when one
        // pass takes a third of it.
        let min_passes = if args.trace { 1 } else { RSS_PASSES };
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / pass_walls.len() as f64;
        if pass_walls.len() >= min_passes && elapsed + per_pass / 2.0 >= args.seconds {
            break;
        }
    }

    println!(
        "perfbench: workload={} seed={} subjects={n} passes={} trace={}",
        w.name,
        args.seed,
        pass_walls.len(),
        u8::from(args.trace)
    );
    println!("{}", describe_config(&w));
    for (s, samples) in w.subjects.iter().zip(&subject_cpu) {
        let cpu = if samples.is_empty() {
            f64::NAN
        } else {
            median(samples)
        };
        println!(
            "subject {:<20} {:>7} stmts {:>3} expected reports  check {cpu:.6} s cpu",
            s.name,
            s.prog.stmt_count(),
            s.expected.len()
        );
    }
    let metrics = if args.trace {
        per_layer(&w, &pass_walls, &traced_passes, &subject_layers)
    } else {
        end_to_end(&w, &pass_cpu, &subject_cpu, &setup, peak_rss)
    };
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, value) in &metrics {
        println!("{name:<28} {value:>16.6} {}", units[name]);
    }
    if !args.trace {
        println!("{:<28} {:>16.6} s", "check_wall_s", median(&pass_walls));
        for (name, passes) in [("check_wall_s", &pass_walls), ("check_cpu_s", &pass_cpu)] {
            let v: Vec<String> = passes.iter().map(|x| format!("{x:.4}")).collect();
            println!("{name} per pass: {}", v.join(" "));
            match tail(passes) {
                Some((p, v)) => println!("{name} p{p:.0} {v:.6} s over {} passes", passes.len()),
                None => println!(
                    "{name} tail: n/a ({} passes; a tail percentile needs at least 11)",
                    passes.len()
                ),
            }
        }
    }
    println!(
        "failed_share {:.6} ({} of {} checks failed)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                units[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Log-log slope of each subject's median sample against its size.
/// Subjects without samples (their checks failed) are left out.
fn slope(w: &Workload, samples: &[Vec<f64>]) -> f64 {
    let points: Vec<(f64, f64)> = w
        .subjects
        .iter()
        .zip(samples)
        .filter(|(_, v)| !v.is_empty())
        .map(|(s, v)| (s.prog.stmt_count() as f64, median(v)))
        .collect();
    loglog_slope(&points, SLOPE_MIN_STMTS)
}

fn end_to_end(
    w: &Workload,
    pass_cpu: &[f64],
    subject_cpu: &[Vec<f64>],
    setup: &[f64],
    peak_rss: u64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("check_cpu_s", median(pass_cpu)),
        ("scaling_slope", slope(w, subject_cpu)),
        ("peak_rss_mib", peak_rss as f64 / (1024.0 * 1024.0)),
        ("setup_s", median(setup)),
    ]
}

/// Per-layer metrics from at least one traced pass.
fn per_layer(
    w: &Workload,
    pass_walls: &[f64],
    traced_passes: &[Layers],
    subject_layers: &[Vec<Layers>],
) -> Vec<(&'static str, f64)> {
    let of = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let last = traced_passes.last().expect("at least one traced pass");
    let wall = |k: &str| median(&traced_passes.iter().map(|p| of(p, k)).collect::<Vec<_>>());
    let traced_total: Vec<f64> = traced_passes
        .iter()
        .map(|p| TIMED_LAYERS.iter().map(|k| of(p, k)).sum())
        .collect();
    let ratio = |a: &str, b: &str| {
        let b = of(last, b);
        if b > 0.0 {
            of(last, a) / b
        } else {
            0.0
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "core.unattributed_s" => median(pass_walls) - median(&traced_total),
                "detect.confirmed_per_query" => ratio("detect.confirmed", "detect.queries"),
                "smt.decisions_per_query" => ratio("smt.decisions", "detect.queries"),
                _ if unit == "s" => wall(name),
                _ => match SLOPES.iter().find(|(s, _)| *s == name) {
                    Some(&(_, layer)) => {
                        let samples: Vec<Vec<f64>> = subject_layers
                            .iter()
                            .map(|ls| ls.iter().map(|l| of(l, layer)).collect())
                            .collect();
                        slope(w, &samples)
                    }
                    None => of(last, name),
                },
            };
            (name, value)
        })
        .collect()
}
