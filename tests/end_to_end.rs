//! End-to-end integration: every workload runs to completion on every
//! machine configuration, with configuration-independent architectural
//! results and internally consistent statistics.

use fac::asm::SoftwareSupport;
use fac::sim::{Machine, MachineConfig};
use fac::workloads::{suite, Scale};

fn machine(cfg: MachineConfig) -> Machine {
    Machine::new(cfg).with_max_insts(100_000_000)
}

#[test]
fn all_workloads_halt_on_all_machines() {
    let configs = [
        MachineConfig::paper_baseline(),
        MachineConfig::paper_baseline().with_fac(),
        MachineConfig::paper_baseline().with_fac().with_block_size(16),
        MachineConfig::paper_baseline().with_one_cycle_loads(),
        MachineConfig::paper_baseline().with_perfect_dcache(),
        MachineConfig::paper_baseline().with_tlb(),
    ];
    for wl in suite() {
        for sw in [SoftwareSupport::on(), SoftwareSupport::off()] {
            let p = wl.build(&sw, Scale::Smoke);
            for cfg in configs {
                let r = machine(cfg).run(&p).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
                assert!(r.stats.cycles > 0, "{}", wl.name);
                assert!(r.stats.insts > 0, "{}", wl.name);
            }
        }
    }
}

#[test]
fn instruction_count_is_timing_invariant() {
    // The timing model must never change what executes.
    for wl in suite() {
        let p = wl.build(&SoftwareSupport::on(), Scale::Smoke);
        let a = machine(MachineConfig::paper_baseline()).run(&p).unwrap();
        let b = machine(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
        let c = machine(MachineConfig::paper_baseline().with_one_cycle_loads())
            .run(&p)
            .unwrap();
        assert_eq!(a.stats.insts, b.stats.insts, "{}", wl.name);
        assert_eq!(a.stats.insts, c.stats.insts, "{}", wl.name);
        assert_eq!(a.stats.loads, b.stats.loads, "{}", wl.name);
        assert_eq!(a.stats.stores, b.stats.stores, "{}", wl.name);
    }
}

#[test]
fn checksums_are_machine_independent() {
    for wl in suite() {
        for sw in [SoftwareSupport::on(), SoftwareSupport::off()] {
            let p = wl.build(&sw, Scale::Smoke);
            let addr = p.symbol("checksum");
            let a = machine(MachineConfig::paper_baseline()).run(&p).unwrap();
            let b = machine(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
            assert_eq!(
                a.final_state.mem.read_u32(addr),
                b.final_state.mem.read_u32(addr),
                "{} checksum changed under FAC",
                wl.name
            );
        }
    }
}

#[test]
fn stats_identities_hold_everywhere() {
    for wl in suite() {
        let p = wl.build(&SoftwareSupport::off(), Scale::Smoke);
        let r = machine(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
        let s = &r.stats;
        assert_eq!(s.loads, s.loads_by_class.iter().sum::<u64>(), "{}", wl.name);
        assert_eq!(s.stores, s.stores_by_class.iter().sum::<u64>(), "{}", wl.name);
        assert_eq!(
            s.loads,
            s.load_offsets.iter().map(|h| h.total()).sum::<u64>(),
            "{}",
            wl.name
        );
        let pl = &s.pred_loads;
        let ps = &s.pred_stores;
        assert_eq!(pl.attempts() + pl.not_speculated, s.loads, "{}", wl.name);
        assert_eq!(ps.attempts() + ps.not_speculated, s.stores, "{}", wl.name);
        assert_eq!(s.extra_accesses, pl.fails() + ps.fails(), "{}", wl.name);
        assert!(s.ipc() > 0.0 && s.ipc() <= 4.0, "{} ipc {}", wl.name, s.ipc());
        // Every misprediction has a recorded cause.
        assert_eq!(
            s.fail_causes.iter().sum::<u64>(),
            pl.fails() + ps.fails(),
            "{}",
            wl.name
        );
    }
}

#[test]
fn fac_never_hurts_with_software_support() {
    // The paper's key robustness claim: with (and even without) software
    // support, fast address calculation consistently speeds programs up.
    for wl in suite() {
        let p = wl.build(&SoftwareSupport::on(), Scale::Smoke);
        let base = machine(MachineConfig::paper_baseline()).run(&p).unwrap();
        let fac = machine(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
        assert!(
            fac.stats.cycles <= base.stats.cycles,
            "{}: fac {} vs base {}",
            wl.name,
            fac.stats.cycles,
            base.stats.cycles
        );
    }
}

/// The per-program decode table is a pure cache of the per-instruction
/// decoders: a session (which reads each instruction's timing facts from
/// the table) and a hand-driven loop over the public
/// `Pipeline::advance_traced` (which decodes every dynamic instruction)
/// must time every instruction identically and end with identical
/// statistics, on every kernel and pipeline organization.
#[test]
fn decode_table_matches_per_instruction_decode() {
    use fac::sim::{ArchState, Pipeline, RefClass, SimStats};
    let configs = [
        MachineConfig::paper_baseline(),
        MachineConfig::paper_baseline().with_fac(),
        MachineConfig::paper_baseline().with_agi_pipeline(),
        MachineConfig::paper_baseline().with_ltb(512),
    ];
    for wl in suite() {
        let p = wl.build(&SoftwareSupport::on(), Scale::Smoke);
        for cfg in configs {
            let mut state = ArchState::new(&p);
            let mut pipe = Pipeline::new(cfg);
            let mut stats = SimStats::default();
            let mut timings = Vec::new();
            while !state.halted {
                let ex = state.step(&p).unwrap();
                stats.insts += 1;
                if let Some(m) = &ex.mem {
                    let class = RefClass::of(m.base_reg).index();
                    if m.is_store {
                        stats.stores += 1;
                        stats.stores_by_class[class] += 1;
                    } else {
                        stats.loads += 1;
                        stats.loads_by_class[class] += 1;
                        stats.loads_reg_reg += u64::from(m.is_reg_reg());
                        stats.load_offsets[class].record(m.offset_value());
                    }
                }
                timings.push(pipe.advance_traced(&ex, &mut stats));
            }
            stats.cycles = pipe.finish(&mut stats);
            stats.mem_footprint = state.mem.footprint();

            let (traced, trace) = machine(cfg).run_traced(&p).unwrap();
            let session = machine(cfg).run(&p).unwrap();
            assert!(
                trace.iter().map(|t| t.timing).eq(timings.iter().copied()),
                "{} {cfg:?}: issue timings differ",
                wl.name
            );
            assert_eq!(traced.stats, stats, "{}: run_traced stats", wl.name);
            assert_eq!(session.stats, stats, "{}: session stats", wl.name);
        }
    }
}
