//! The three workloads, their inputs and their known answers.
//!
//! Every input is generated from the run's `--seed` (or read from the
//! `.cir` copies under `cir/`), and every subject carries the verdict
//! set it must produce. Expected verdicts come from the generator's
//! ground truth or from verdicts pinned by hand, never from a run of
//! the analyzer.

use std::collections::BTreeSet;
use std::time::Duration;

use canary_detect::{BugKind, MemoryModel};
use canary_ir::Program;
use canary_workloads::{generate, table1_suite, GroundTruth, SuiteScale, WorkloadSpec};

/// One verdict: bug kind, source label, sink label.
pub type Verdict = (BugKind, u32, u32);

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["table1", "detect_heavy", "small_programs"];

/// One program to check, with everything its check needs.
pub struct Subject {
    pub name: String,
    pub prog: Program,
    /// `.cir` source text; the check parses it, as the CLI does.
    pub source: Option<String>,
    pub model: MemoryModel,
    pub expected: BTreeSet<Verdict>,
    /// FNV hash of the program text, stamped into the SARIF manifest.
    pub corpus_hash: String,
}

/// A named set of subjects and the pinned configuration they run with.
pub struct Workload {
    pub name: &'static str,
    /// Replay every report's witness on the concrete oracle.
    pub verify_witnesses: bool,
    /// A check that takes longer than this counts as failed.
    pub check_limit: Duration,
    pub subjects: Vec<Subject>,
}

/// Seed 0 keeps every spec's fixed seed (the numbers in the README);
/// any other seed replaces each fixed seed by a mix of both, so a claim
/// can be re-checked on inputs nobody tuned against.
pub fn derive_seed(seed: u64, fixed: u64) -> u64 {
    if seed == 0 {
        fixed
    } else {
        splitmix64(seed ^ splitmix64(fixed))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476C_E5B9_C5BB);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds workload `name`. `quick` shrinks every input for the
/// self-test; `wrong_verdict` plants one false expectation so the
/// correctness gate can be seen to fail.
pub fn build(name: &str, seed: u64, quick: bool, wrong_verdict: bool) -> Result<Workload, String> {
    let mut w = match name {
        "table1" => table1(seed, quick),
        "detect_heavy" => detect_heavy(seed, quick),
        "small_programs" => small_programs(seed, quick)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    };
    if wrong_verdict {
        let s = w.subjects.first_mut().expect("every workload has subjects");
        s.expected.insert((BugKind::DataLeak, u32::MAX, u32::MAX));
    }
    Ok(w)
}

/// Expected reports of a generated subject: every seeded bug the model
/// can reach, plus each benign pattern as a use-after-free false
/// positive (Tbl. 1's #FP column).
fn expected_of(truth: &GroundTruth, model: MemoryModel) -> BTreeSet<Verdict> {
    let seeded = truth
        .seeded
        .iter()
        .filter(|b| b.visible_under(model))
        .map(|b| (b.kind, b.source.0, b.sink.0));
    let benign = truth
        .benign
        .iter()
        .map(|&(free, deref)| (BugKind::UseAfterFree, free.0, deref.0));
    seeded.chain(benign).collect()
}

fn generated(spec: &WorkloadSpec, model: MemoryModel) -> Subject {
    let w = generate(spec);
    subject(
        spec.name.clone(),
        w.prog,
        None,
        model,
        expected_of(&w.truth, model),
    )
}

fn subject(
    name: String,
    prog: Program,
    source: Option<String>,
    model: MemoryModel,
    expected: BTreeSet<Verdict>,
) -> Subject {
    let text = canary_ir::print_program(&prog);
    Subject {
        name,
        corpus_hash: canary_report::content_hash(text.as_bytes()),
        prog,
        source,
        model,
        expected,
    }
}

/// The 20 subjects of Tbl. 1 (0.4k–70k statements): the Fig. 8 size
/// sweep, where the front end and Alg. 2 dominate.
fn table1(seed: u64, quick: bool) -> Workload {
    let scale = if quick {
        SuiteScale {
            stmts_per_kloc: 0.25,
            min_stmts: 120,
            max_stmts: 2_500,
        }
    } else {
        SuiteScale::default()
    };
    let subjects = table1_suite(scale)
        .into_iter()
        .map(|mut spec| {
            spec.seed = derive_seed(seed, spec.seed);
            generated(&spec, MemoryModel::Sc)
        })
        .collect();
    Workload {
        name: "table1",
        verify_witnesses: false,
        check_limit: Duration::from_secs(60),
        subjects,
    }
}

/// The BENCH_5 saturation sweep, as `canary_bench::saturation_corpus`
/// builds it, with seeds derived from the run's seed.
pub fn saturation_specs(seed: u64, scale: f64) -> Vec<WorkloadSpec> {
    [
        ("sat-2k", 2000, 8, 5),
        ("sat-5k", 5000, 12, 6),
        ("sat-9k", 9000, 16, 6),
    ]
    .iter()
    .map(|&(name, size, families, fanout)| WorkloadSpec {
        name: name.into(),
        seed: derive_seed(seed, 0xB50 + size as u64),
        target_stmts: ((size as f64 * scale) as usize).max(50),
        threads: 3,
        shared_cells: 6,
        true_bugs: 2,
        benign_patterns: 2,
        contradiction_patterns: families,
        handshake_patterns: 1,
        order_fp_patterns: 2,
        double_free: 1,
        null_deref: 1,
        leak: 1,
        double_lock: 0,
        conflict_lock: 0,
        sb_patterns: 0,
        mp_patterns: 0,
        lb_patterns: 0,
        family_fanout: fanout,
        hard_family_ratio: 0.5,
        filler: true,
    })
    .collect()
}

/// A ~4k-statement subject whose contradiction families are all hard:
/// each is refuted only through the wait/notify order theory, so its
/// cost is real CDCL(T) search. 16 families × 8 readers keeps the
/// search visible (the README records how it grows) while a pass
/// stays short.
pub fn hard_family_spec(seed: u64, quick: bool) -> WorkloadSpec {
    let (stmts, families, fanout) = if quick { (600, 4, 4) } else { (4000, 16, 8) };
    WorkloadSpec {
        name: format!("hard-{families}x{fanout}"),
        seed: derive_seed(seed, 0x4A8D),
        target_stmts: stmts,
        threads: 3,
        shared_cells: 4,
        true_bugs: 1,
        benign_patterns: 1,
        contradiction_patterns: families,
        handshake_patterns: 1,
        order_fp_patterns: 2,
        double_free: 1,
        null_deref: 1,
        leak: 1,
        double_lock: 0,
        conflict_lock: 0,
        sb_patterns: 0,
        mp_patterns: 0,
        lb_patterns: 0,
        family_fanout: fanout,
        hard_family_ratio: 1.0,
        filler: true,
    }
}

/// Subjects whose cost is detection and SMT solving.
fn detect_heavy(seed: u64, quick: bool) -> Workload {
    let scale = if quick { 0.1 } else { 1.0 };
    let mut subjects: Vec<Subject> = saturation_specs(seed, scale)
        .iter()
        .map(|spec| generated(spec, MemoryModel::Sc))
        .collect();
    // Every family member is refuted: the subject has no bug at all.
    let (sources, stores, locks) = if quick { (3, 8, 2) } else { (12, 32, 6) };
    subjects.push(subject(
        format!("family-{sources}x{stores}x{locks}"),
        canary_bench::family_subject(sources, stores, locks),
        None,
        MemoryModel::Sc,
        BTreeSet::new(),
    ));
    subjects.push(generated(&hard_family_spec(seed, quick), MemoryModel::Sc));
    Workload {
        name: "detect_heavy",
        verify_witnesses: false,
        check_limit: Duration::from_secs(60),
        subjects,
    }
}

/// The shipped `.cir` examples with the verdicts `ci.sh` and `tests/`
/// pin for them. `tso_sb.cir` is the store-buffering litmus test: its
/// double free is reachable under TSO only, so it runs under TSO.
const CIR: [(&str, MemoryModel, &[Verdict]); 5] = [
    ("fig2.cir", MemoryModel::Sc, &[]),
    (
        "fig2_variant.cir",
        MemoryModel::Sc,
        &[(BugKind::UseAfterFree, 7, 4)],
    ),
    (
        "deadlock.cir",
        MemoryModel::Sc,
        &[(BugKind::DoubleLock, 1, 2), (BugKind::ConflictLock, 8, 13)],
    ),
    ("audited.cir", MemoryModel::Sc, &[]),
    (
        "tso_sb.cir",
        MemoryModel::Tso,
        &[(BugKind::DoubleFree, 10, 14)],
    ),
];

/// Parses and validates `.cir` source as the CLI does.
pub fn parse_cir(src: &str) -> Result<Program, String> {
    let prog = canary_ir::parse(src).map_err(|e| e.to_string())?;
    prog.validate().map_err(|e| e.to_string())?;
    Ok(prog)
}

/// Many small programs, where the fixed cost of a check dominates: the
/// only workload that parses source, encodes a weak memory model and
/// replays witnesses on the oracle.
fn small_programs(seed: u64, quick: bool) -> Result<Workload, String> {
    let count: u64 = if quick { 8 } else { 200 };
    let mut subjects: Vec<Subject> = (0..count)
        .map(|i| {
            let s = derive_seed(seed, i);
            let (spec, model) = match i % 4 {
                0 => (WorkloadSpec::small(s), MemoryModel::Sc),
                1 => (WorkloadSpec::lean(s), MemoryModel::Sc),
                2 => (WorkloadSpec::lean_locks(s), MemoryModel::Sc),
                _ => (WorkloadSpec::litmus(s), MemoryModel::Tso),
            };
            generated(&spec, model)
        })
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("cir");
    for (file, model, verdicts) in CIR {
        let path = dir.join(file);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let prog = parse_cir(&src).map_err(|e| format!("{file}: {e}"))?;
        let expected = verdicts.iter().copied().collect();
        subjects.push(subject(file.to_string(), prog, Some(src), model, expected));
    }
    Ok(Workload {
        name: "small_programs",
        verify_witnesses: true,
        check_limit: Duration::from_secs(10),
        subjects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_saturation_corpus() {
        let ours: Vec<Program> = saturation_specs(0, 1.0)
            .iter()
            .map(|s| generate(s).prog)
            .collect();
        let fixed: Vec<Program> = canary_bench::saturation_corpus(1.0)
            .into_iter()
            .map(|(_, w)| w.prog)
            .collect();
        assert!(
            ours == fixed,
            "seed 0 must give the BENCH_5 saturation corpus"
        );
    }

    #[test]
    fn other_seeds_change_the_inputs() {
        for name in NAMES {
            let a = build(name, 0, true, false).expect("builds");
            let b = build(name, 7, true, false).expect("builds");
            let changed = a
                .subjects
                .iter()
                .zip(&b.subjects)
                .filter(|(x, y)| x.prog != y.prog);
            assert!(
                changed.count() > 0,
                "{name}: seed 7 gave the inputs of seed 0"
            );
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        for name in NAMES {
            let a = build(name, 3, true, false).expect("builds");
            let b = build(name, 3, true, false).expect("builds");
            for (x, y) in a.subjects.iter().zip(&b.subjects) {
                assert!(
                    x.prog == y.prog && x.expected == y.expected,
                    "{name}/{}",
                    x.name
                );
            }
        }
    }
}
