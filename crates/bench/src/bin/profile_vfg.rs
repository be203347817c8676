fn main() {
    for stmts in [8000usize, 16000, 32000, 64000] {
        let spec = canary_workloads::WorkloadSpec {
            target_stmts: stmts,
            ..canary_workloads::WorkloadSpec::small(3)
        };
        let w = canary_workloads::generate(&spec);
        let canary = canary_core::Canary::new();
        let t0 = std::time::Instant::now();
        let facts = canary_core::ProgramFacts::compute(&w.prog);
        let m = canary.build_vfg(&w.prog, &facts).metrics;
        println!(
            "{} stmts: total {:?} (dataflow {:?}, interference {:?})",
            w.prog.stmt_count(), t0.elapsed(), m.t_dataflow, m.t_interference
        );
    }
}
