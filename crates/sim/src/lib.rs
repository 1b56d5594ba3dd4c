#![warn(missing_docs)]

//! # fac-sim — the detailed superscalar timing simulator
//!
//! Reimplementation of the paper's evaluation vehicle (Table 5): a 4-way
//! in-order-issue superscalar with out-of-order completion, a traditional
//! 5-stage pipeline, 16 KB direct-mapped instruction and data caches with
//! 32-byte blocks and a 6-cycle miss latency, a 2048-entry BTB with 2-bit
//! counters, a 16-entry non-merging store buffer, and the functional-unit
//! mix of the paper.
//!
//! Fast address calculation is integrated exactly as §5.5 describes: loads
//! and stores whose set index predicts correctly access the data cache in
//! EX and complete in one cycle; mispredictions replay in MEM, consume an
//! extra cache access (the Table 6 bandwidth overhead), and block the
//! speculation slot of accesses issued in the following cycle — except that
//! a load may speculate immediately after a misspeculated load. Stores are
//! speculated into the store buffer and their buffered address fixed on
//! misprediction.
//!
//! ```
//! use fac_asm::{Asm, SoftwareSupport};
//! use fac_isa::Reg;
//! use fac_sim::{Machine, MachineConfig};
//!
//! let mut a = Asm::new();
//! a.gp_word("x", 7);
//! a.lw_gp(Reg::T0, "x", 0);
//! a.addiu(Reg::T0, Reg::T0, 1);
//! a.halt();
//! let program = a.link("inc", &SoftwareSupport::on()).unwrap();
//!
//! let base = Machine::new(MachineConfig::paper_baseline()).run(&program).unwrap();
//! let fac = Machine::new(MachineConfig::paper_baseline().with_fac()).run(&program).unwrap();
//! assert!(fac.stats.cycles <= base.stats.cycles);
//! ```

mod btb;
mod checker;
mod ckpt;
mod config;
mod exec;
mod machine;
pub mod obs;
pub mod oracle;
mod pipeline;
mod profiler;
mod stats;
pub mod tier;
mod trace;

pub use btb::Btb;
pub use checker::{InvariantChecker, InvariantViolation};
pub use ckpt::{config_fingerprint, functional_snapshot, program_fingerprint};
pub use config::{
    ConfigError, FacConfig, FuConfig, FuTiming, LoadLatencyMode, MachineConfig, PipelineOrg,
};
pub use exec::{dst_regs, src_regs, ArchState, ExecError, Executed, MemRef, RegList};
pub use machine::{Machine, Session, SimError, SimReport};
pub use oracle::{GoldenMem, GoldenStep, GoldenStore, Lockstep, Oracle};
pub use pipeline::{FuClass, FuKind, IssueInfo, Pipeline, StaticInsn};
pub use profiler::{profile_predictions, ProfileReport};
pub use trace::{chrome_trace, render_diagram, TracedInsn};
pub use stats::{OffsetHistogram, PredCounters, RefClass, SimStats};
