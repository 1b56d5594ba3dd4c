//! The program and configuration fingerprints key on-disk `FACCELL`
//! stores and `FACSNAP` checkpoints, so their values must never drift.
//! Both are pinned here to the plain formula they were defined by: FNV-1a
//! over each field, with instructions, data blobs and configurations
//! hashed as their `Debug` rendering collected into a `String`.

use fac_asm::Program;
use fac_bench::build_suite;
use fac_bench::serve::{config_by_name, CONFIG_NAMES};
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::{config_fingerprint, program_fingerprint, MachineConfig};
use fac_workloads::Scale;

fn rendered_program_fingerprint(p: &Program) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, p.name.as_bytes());
    for word in [p.text_base, p.entry, p.gp, p.sp, p.heap_base] {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h = fnv1a(h, &p.static_bytes.to_le_bytes());
    h = fnv1a(h, &(p.text.len() as u64).to_le_bytes());
    for insn in &p.text {
        h = fnv1a(h, format!("{insn:?}").as_bytes());
    }
    h = fnv1a(h, &(p.data.len() as u64).to_le_bytes());
    for blob in &p.data {
        h = fnv1a(h, format!("{blob:?}").as_bytes());
    }
    h
}

#[test]
fn program_fingerprint_matches_the_rendered_formula_on_the_suite() {
    for scale in [Scale::Smoke, Scale::Paper] {
        let suite = build_suite(scale);
        assert_eq!(suite.len(), 19);
        for b in &suite {
            for p in [&b.plain, &b.tuned] {
                let want = rendered_program_fingerprint(p);
                assert_eq!(program_fingerprint(p), want, "{} {scale:?}", p.name);
            }
        }
    }
}

#[test]
fn config_fingerprint_matches_the_rendered_formula() {
    let named = CONFIG_NAMES.iter().map(|n| config_by_name(n).unwrap());
    let more = [
        MachineConfig::paper_baseline().with_fac().with_tlb(),
        MachineConfig::paper_baseline().with_strict_memory(),
    ];
    for cfg in named.chain(more) {
        assert_eq!(config_fingerprint(&cfg), fnv1a(FNV_OFFSET, format!("{cfg:?}").as_bytes()));
    }
}
