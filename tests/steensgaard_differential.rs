//! Differential test of the union-find Steensgaard pass against a naive
//! reference: the plain whole-program transfer (no ranks, no path
//! compression, hash-map pointees, callee labels rescanned at every call
//! site) re-run until the partition stops changing. Both must agree on
//! `func_targets` for every variable and on `may_alias` for sampled
//! pairs, on generated workloads, on the shipped `.cir` examples and on
//! random function-pointer-heavy programs.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use canary_ir::{parse, Callee, FuncId, Inst, Label, Program, Steensgaard, VarId};
use canary_workloads::{generate, WorkloadSpec};

/// The reference: node layout `[vars][objs][funcs][fresh...]`, as in
/// the analysis under test, but every query walks the raw parent chain.
struct Naive {
    parent: Vec<u32>,
    pointee: HashMap<u32, u32>,
    n_vars: u32,
    func_node: Vec<u32>,
}

impl Naive {
    fn run(prog: &Program) -> Self {
        let n_vars = prog.vars.len() as u32;
        let n_objs = prog.objs.len() as u32;
        let n_funcs = prog.funcs.len() as u32;
        let total = n_vars + n_objs + n_funcs;
        let mut s = Naive {
            parent: (0..total).collect(),
            pointee: HashMap::new(),
            n_vars,
            func_node: ((n_vars + n_objs)..total).collect(),
        };
        loop {
            let before = s.partition();
            for l in prog.labels() {
                s.transfer(prog, l);
            }
            if s.partition() == before {
                return s;
            }
        }
    }

    /// Every node's root, plus every root's pointee root.
    fn partition(&self) -> (Vec<u32>, Vec<(u32, u32)>) {
        let roots = (0..self.parent.len() as u32)
            .map(|x| self.find(x))
            .collect();
        let mut pointees: Vec<(u32, u32)> = self
            .pointee
            .iter()
            .map(|(&r, &p)| (self.find(r), self.find(p)))
            .collect();
        pointees.sort_unstable();
        (roots, pointees)
    }

    fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        self.parent[rb as usize] = ra;
        match (self.pointee.remove(&ra), self.pointee.remove(&rb)) {
            (Some(x), Some(y)) => {
                let p = self.union(x, y);
                let r = self.find(ra);
                self.pointee.insert(r, p);
            }
            (Some(x), None) | (None, Some(x)) => {
                let r = self.find(ra);
                let p = self.find(x);
                self.pointee.insert(r, p);
            }
            (None, None) => {}
        }
        self.find(ra)
    }

    fn deref_class(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        if let Some(&p) = self.pointee.get(&r) {
            return self.find(p);
        }
        let fresh = self.parent.len() as u32;
        self.parent.push(fresh);
        self.pointee.insert(r, fresh);
        fresh
    }

    fn transfer(&mut self, prog: &Program, l: Label) {
        match prog.inst(l) {
            Inst::Alloc { dst, obj } => {
                let d = self.deref_class(dst.0);
                self.union(d, self.n_vars + obj.0);
            }
            Inst::FuncAddr { dst, func } => {
                let d = self.deref_class(dst.0);
                self.union(d, self.func_node[func.index()]);
            }
            Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                self.union(dst.0, src.0);
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                self.union(dst.0, lhs.0);
                self.union(dst.0, rhs.0);
            }
            Inst::Load { dst, addr } => {
                let p = self.deref_class(addr.0);
                self.union(dst.0, p);
            }
            Inst::Store { addr, src } => {
                let p = self.deref_class(addr.0);
                self.union(p, src.0);
            }
            Inst::Call {
                dsts, callee, args, ..
            } => self.bind_call(prog, callee, args, dsts),
            Inst::Fork { entry, args, .. } => self.bind_call(prog, entry, args, &[]),
            _ => {}
        }
    }

    fn bind_call(&mut self, prog: &Program, callee: &Callee, args: &[VarId], dsts: &[VarId]) {
        let targets = match callee {
            Callee::Direct(f) => vec![*f],
            Callee::Indirect(fp) => self.func_targets(*fp),
        };
        for f in targets {
            let func = prog.func(f);
            for (&a, &p) in args.iter().zip(&func.params) {
                self.union(a.0, p.0);
            }
            for l in func.labels() {
                if let Inst::Return { vals } = prog.inst(l) {
                    for (&d, &r) in dsts.iter().zip(vals) {
                        self.union(d.0, r.0);
                    }
                }
            }
        }
    }

    fn func_targets(&self, fp: VarId) -> Vec<FuncId> {
        let Some(&p) = self.pointee.get(&self.find(fp.0)) else {
            return Vec::new();
        };
        let p = self.find(p);
        self.func_node
            .iter()
            .enumerate()
            .filter(|&(_, &n)| self.find(n) == p)
            .map(|(i, _)| FuncId::new(i as u32))
            .collect()
    }

    fn may_alias(&self, a: VarId, b: VarId) -> bool {
        let (ra, rb) = (self.find(a.0), self.find(b.0));
        if ra == rb {
            return true;
        }
        match (self.pointee.get(&ra), self.pointee.get(&rb)) {
            (Some(&x), Some(&y)) => self.find(x) == self.find(y),
            _ => false,
        }
    }
}

/// Asserts that the analysis and the reference agree on `prog`, and
/// that targets come out in ascending `FuncId` order.
fn assert_agrees(name: &str, prog: &Program) {
    let fast = Steensgaard::run(prog);
    let naive = Naive::run(prog);
    let vars: Vec<VarId> = (0..prog.vars.len() as u32).map(VarId).collect();
    for &v in &vars {
        let got = fast.func_targets(v);
        assert_eq!(got, naive.func_targets(v), "{name}: func_targets({v:?})");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "{name}: func_targets({v:?}) not ascending: {got:?}"
        );
    }
    let n = vars.len();
    let pairs: Vec<(VarId, VarId)> = if n <= 64 {
        vars.iter()
            .flat_map(|&a| vars.iter().map(move |&b| (a, b)))
            .collect()
    } else {
        let mut rng = StdRng::seed_from_u64(n as u64);
        (0..4096)
            .map(|_| (vars[rng.gen_range(0..n)], vars[rng.gen_range(0..n)]))
            .collect()
    };
    for (a, b) in pairs {
        assert_eq!(
            fast.may_alias(a, b),
            naive.may_alias(a, b),
            "{name}: may_alias({a:?}, {b:?})"
        );
    }
}

#[test]
fn generated_workloads_agree() {
    for seed in 0..4 {
        for spec in [
            WorkloadSpec::small(seed),
            WorkloadSpec::lean(seed),
            WorkloadSpec::lean_locks(seed),
        ] {
            let w = generate(&spec);
            assert_agrees(&spec.name, &w.prog);
        }
    }
}

#[test]
fn examples_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cir"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "{files:?}");
    for f in &files {
        let prog = parse(&std::fs::read_to_string(f).unwrap()).unwrap();
        assert_agrees(&f.display().to_string(), &prog);
    }
}

/// One random statement over a function's local pool `p q r s`, the
/// functions `f0..f{n-1}` and fresh object and thread names.
fn stmt(kind: u8, a: u8, b: u8, c: u8, func: u8, n_funcs: u8, id: usize) -> String {
    let v = |i: u8| ["p", "q", "r", "s"][i as usize % 4];
    let f = func % n_funcs;
    match kind % 8 {
        0 => format!("{} = alloc o{id};", v(a)),
        1 => format!("{} = fnptr f{f};", v(a)),
        2 => format!("{} = {};", v(a), v(b)),
        3 => format!("*{} = {};", v(a), v(b)),
        4 => format!("{} = *{};", v(a), v(b)),
        5 => format!("{} = call {}({}, {});", v(a), v(b), v(c), v(a)),
        6 => format!("{} = call f{f}({}, {});", v(a), v(b), v(c)),
        _ => format!("fork t{id} {}({});", v(a), v(b)),
    }
}

type Body = Vec<(u8, u8, u8, u8, u8)>;

fn program(bodies: &[(Body, u8)]) -> String {
    let n = bodies.len() as u8;
    let mut src = String::new();
    let mut id = 0;
    for (i, (body, ret)) in bodies.iter().enumerate() {
        src += &format!("fn f{i}(p, q) {{\n");
        for &(kind, a, b, c, func) in body {
            src += &format!("    {}\n", stmt(kind, a, b, c, func, n, id));
            id += 1;
        }
        src += &format!(
            "    return {};\n}}\n",
            ["p", "q", "r", "s"][*ret as usize % 4]
        );
    }
    src
}

fn body_strategy() -> impl Strategy<Value = (Body, u8)> {
    (
        prop::collection::vec((0u8..8, 0u8..4, 0u8..4, 0u8..4, 0u8..8), 1..8),
        0u8..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_fnptr_programs_agree(bodies in prop::collection::vec(body_strategy(), 2..7)) {
        let src = program(&bodies);
        let prog = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_agrees(&src, &prog);
    }
}
