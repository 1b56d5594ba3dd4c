//! The tiered-execution differential matrix at suite scale: all 19
//! workloads, under both software policies and a grid of machine
//! configurations, executed by the fast functional tier (with per-step
//! oracle lockstep) and by the detailed pipeline — every architectural
//! outcome must be bit-identical. Plus the sampled tier's determinism
//! contract: the whole `tiered_run` experiment renders byte-identical
//! tables and JSON at any worker count.

use fac_asm::Program;
use fac_bench::experiments::only;
use fac_bench::{build_suite, Cx};
use fac_sim::tier::{run_fast_verified, run_sampled, Functional, SampleSpec, WindowStats};
use fac_sim::{functional_snapshot, Machine, MachineConfig};
use fac_workloads::Scale;

/// Every workload × {plain, tuned} × {baseline, fac, fac+tlb, strict}:
/// the fast tier lockstep-verifies against the oracle, and its final
/// architectural state matches the detailed pipeline's bit for bit.
#[test]
fn suite_matrix_three_way_differential() {
    let suite = build_suite(Scale::Smoke);
    assert_eq!(suite.len(), 19);
    let configs = [
        ("baseline", MachineConfig::paper_baseline()),
        ("fac", MachineConfig::paper_baseline().with_fac()),
        ("fac+tlb", MachineConfig::paper_baseline().with_fac().with_tlb()),
        ("strict", MachineConfig::paper_baseline().with_strict_memory()),
    ];
    for b in &suite {
        for (policy, program) in [("plain", &b.plain), ("tuned", &b.tuned)] {
            for (cname, cfg) in configs {
                let label = format!("{}:{policy}:{cname}", b.workload.name);
                let fast = run_fast_verified(&cfg, program, fac_bench::MAX_INSTS);
                let full = Machine::new(cfg).run(program);
                match (fast, full) {
                    (Ok(fast), Ok(full)) => {
                        assert_eq!(fast.insts, full.stats.insts, "{label}: insts differ");
                        let (f, d) = (&fast.final_state, &full.final_state);
                        assert_eq!(f.regs, d.regs, "{label}: regs differ");
                        assert_eq!(f.fregs, d.fregs, "{label}: fregs differ");
                        assert_eq!(f.hi, d.hi, "{label}: HI differs");
                        assert_eq!(f.lo, d.lo, "{label}: LO differs");
                        assert_eq!(f.fcc, d.fcc, "{label}: fcc differs");
                        assert_eq!(f.pc, d.pc, "{label}: PC differs");
                        assert_eq!(f.mem, d.mem, "{label}: memory differs");
                    }
                    // A legitimate architectural trap (strict memory) must
                    // fire identically on both tiers.
                    (Err(fe), Err(de)) => {
                        assert_eq!(fe.to_string(), de.to_string(), "{label}: traps differ");
                    }
                    (Ok(_), Err(de)) => panic!("{label}: only the detailed machine trapped: {de}"),
                    (Err(fe), Ok(_)) => panic!("{label}: only the fast tier trapped: {fe}"),
                }
            }
        }
    }
}

/// The sampled tier's sweep artifact is a pure function of its inputs:
/// the `tiered_run` experiment — fast check, detailed reference and
/// sampled estimate per workload — renders byte-identical human and JSON
/// lanes at any `--jobs` count.
#[test]
fn tiered_run_experiment_is_byte_identical_at_any_job_count() {
    let serial = only("tiered_run", &Cx::simple(Scale::Smoke, 1)).unwrap();
    for jobs in [2usize, 8] {
        let parallel = only("tiered_run", &Cx::simple(Scale::Smoke, jobs)).unwrap();
        assert_eq!(serial.human, parallel.human, "human table differs at jobs={jobs}");
        assert_eq!(
            serial.json.to_pretty(2),
            parallel.json.to_pretty(2),
            "JSON artifact differs at jobs={jobs}"
        );
    }
    // The sweep actually covered the suite and verified every fast run.
    assert!(serial.human.contains("compress"));
    assert!(serial.json.to_pretty(2).contains("\"fast_verified\": true"));
}

/// `run_sampled`'s windows, driven by hand through the public hand-off:
/// `functional_snapshot` and `Machine::restore`, each fingerprinting the
/// program on every call.
fn sampled_by_hand(cfg: &MachineConfig, program: &Program, spec: SampleSpec) -> Vec<WindowStats> {
    let machine = Machine::new(*cfg).with_max_insts(u64::MAX);
    let mut fun = Functional::new(program).with_strict_mem(cfg.strict_mem);
    let mut windows = Vec::new();
    while !fun.halted() {
        let start_inst = fun.insts();
        let snap = functional_snapshot(cfg, program, fun.state());
        let mut sess = machine.restore(program, &snap).unwrap();
        let mut w = 0;
        while w < spec.window && !sess.halted() && sess.step().unwrap() {
            w += 1;
        }
        let rep = sess.finish().unwrap();
        windows.push(WindowStats { start_inst, insts: rep.stats.insts, cycles: rep.stats.cycles });
        fun.adopt(rep.final_state, w);
        if !fun.halted() {
            fun.run(spec.every - spec.window).unwrap();
        }
    }
    windows
}

/// `run_sampled` fingerprints once per run; its windows must equal the
/// public, fingerprint-per-call hand-off on two kernels under both
/// configurations.
#[test]
fn sampled_windows_match_the_public_hand_off() {
    let spec = SampleSpec { every: 1_000, window: 200 };
    let suite = build_suite(Scale::Smoke);
    for b in suite.iter().filter(|b| ["compress", "tomcatv"].contains(&b.workload.name)) {
        for cfg in [MachineConfig::paper_baseline(), MachineConfig::paper_baseline().with_fac()] {
            let name = b.workload.name;
            let sampled = run_sampled(&cfg, &b.tuned, spec, fac_bench::MAX_INSTS).unwrap();
            assert!(sampled.windows.len() > 1, "{name}: one window");
            assert_eq!(sampled.windows, sampled_by_hand(&cfg, &b.tuned, spec), "{name}");
        }
    }
}
