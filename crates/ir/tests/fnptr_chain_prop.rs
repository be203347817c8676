//! The Steensgaard pass must resolve an indirect fork at the end of a
//! function-pointer chain of any depth. Each link loads a pointer from
//! a heap cell, calls it, and stores the returned pointer into the next
//! cell; with the links defined last-first, every sweep over the
//! statements in label order learns exactly one more link, so a fixed
//! round cap drops the fork target once the chain is deeper than the cap.

use proptest::prelude::*;

use canary_ir::{parse, CallGraph, Inst};

/// A chain of `depth` steps: `step0` .. `step(depth-1)`, the last of
/// which returns `fnptr worker`, forked with `x` at the end.
fn chain(depth: usize, last_link_first: bool) -> String {
    let mut main = String::from("fn main() {\n    x = alloc obj;\n");
    for k in 0..=depth {
        main += &format!("    c{k} = alloc cell{k};\n");
    }
    main += "    s = fnptr step0;\n    *c0 = s;\n";
    for k in 0..=depth {
        let next = if k == depth {
            "x".to_string()
        } else {
            format!("c{}", k + 1)
        };
        main += &format!("    call d{k}(c{k}, {next});\n");
    }
    main += "    free x;\n}\n";

    let mut links: Vec<String> = (0..depth)
        .map(|k| format!("fn d{k}(a, b) {{\n    f = *a;\n    g = call f();\n    *b = g;\n}}\n"))
        .collect();
    links.push(format!(
        "fn d{depth}(c, v) {{\n    f = *c;\n    fork t f(v);\n}}\n"
    ));
    if last_link_first {
        links.reverse();
    }
    let steps: String = (0..depth)
        .map(|k| {
            let next = if k + 1 == depth {
                "worker".to_string()
            } else {
                format!("step{}", k + 1)
            };
            format!("fn step{k}() {{\n    r = fnptr {next};\n    return r;\n}}\n")
        })
        .collect();
    format!(
        "{main}{}{steps}fn worker(y) {{\n    use y;\n}}\n",
        links.concat()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fork_at_the_end_of_a_fnptr_chain_resolves_to_worker(
        depth in 1usize..=8,
        last_link_first in any::<bool>(),
    ) {
        let prog = parse(&chain(depth, last_link_first)).unwrap();
        let cg = CallGraph::build(&prog);
        let worker = prog.func_by_name("worker").unwrap();
        let fork = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Fork { .. }))
            .unwrap();
        prop_assert_eq!(&cg.fork_targets[&fork], &vec![worker]);
        // Every link's indirect call resolves to exactly its own step.
        for k in 0..depth {
            let link = prog.func_by_name(&format!("d{k}")).unwrap();
            let step = prog.func_by_name(&format!("step{k}")).unwrap();
            let site = prog
                .labels()
                .find(|&l| prog.func_of(l) == link && matches!(prog.inst(l), Inst::Call { .. }))
                .unwrap();
            prop_assert_eq!(&cg.call_targets[&site], &vec![step]);
        }
    }
}
