//! Top-level simulation driver.

use crate::checker::{InvariantChecker, InvariantViolation};
use crate::config::{ConfigError, MachineConfig};
use crate::exec::{ArchState, ExecError};
use crate::obs::{NullObserver, Observer};
use crate::pipeline::{DecodeTable, Pipeline};
use crate::stats::{RefClass, SimStats};
use fac_asm::Program;

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Program name.
    pub program: String,
    /// All measured statistics.
    pub stats: SimStats,
    /// Final architectural state (for functional checks).
    pub final_state: ArchState,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Functional execution failed.
    Exec(ExecError),
    /// The instruction budget was exhausted before `halt`.
    Runaway(u64),
    /// The machine configuration cannot be honoured
    /// ([`MachineConfig::validate`] failed).
    InvalidConfig(ConfigError),
    /// The timing model broke one of its own invariants (detected by the
    /// [`InvariantChecker`], active in debug builds and under
    /// [`MachineConfig::with_checks`]).
    Invariant(InvariantViolation),
    /// An I/O operation on behalf of the simulator failed (writing a
    /// `--json` / `--events` export, for example). Carries the path (`"-"`
    /// for stdout) and the OS error message.
    Io {
        /// The file being written (or `"-"` for stdout).
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A benchmark job panicked. The parallel harness in `fac-bench`
    /// catches the unwind at the job boundary so one bad cell surfaces as
    /// a typed error instead of poisoning the worker pool.
    Panic {
        /// The name of the job that panicked.
        job: String,
        /// The rendered panic payload.
        message: String,
    },
    /// A machine snapshot could not be restored: the file is corrupt,
    /// truncated, from an unknown format version, or belongs to a
    /// different (configuration, program) pair. A rejected snapshot is
    /// never partially applied — restore is all-or-nothing.
    Checkpoint {
        /// The snapshot being read (`"<memory>"` for in-memory restores).
        path: String,
        /// Why the snapshot was rejected.
        reason: String,
    },
    /// A benchmark job exceeded its wall-clock deadline. Raised by the
    /// watchdog in `fac-bench`'s parallel harness when `--timeout-secs`
    /// is set.
    Timeout {
        /// The name of the job that overran.
        job: String,
        /// The configured deadline, in seconds.
        secs: u64,
    },
    /// A request was shed by the campaign server's bounded admission
    /// queue: accepting it would have grown the backlog past the
    /// configured limit. Overload is answered with this typed error —
    /// load is shed, memory is never allowed to grow without bound.
    Overloaded {
        /// Simulations already admitted (queued or running).
        pending: usize,
        /// The admission limit in force.
        limit: usize,
    },
    /// A serving endpoint could not be dialed at all: the socket path is
    /// stale (`ENOENT`), nothing is listening (`ECONNREFUSED`), or the
    /// host rejected the connection outright. Distinguished from a plain
    /// [`SimError::Io`] so clients and operators can tell "the server is
    /// not there" from "the connection broke mid-flight".
    Unreachable {
        /// The endpoint that was dialed, rendered (`unix:/path` / `host:port`).
        endpoint: String,
        /// The underlying OS error, rendered.
        reason: String,
    },
    /// The client-side circuit breaker for an endpoint is open: the last
    /// `failures` consecutive transport attempts failed, and the breaker
    /// is refusing new attempts until the cooldown elapses and a half-open
    /// probe succeeds. Fail-fast signal — no connection was attempted.
    CircuitOpen {
        /// The endpoint the breaker guards, rendered.
        endpoint: String,
        /// Consecutive transport failures observed when the breaker opened.
        failures: u32,
    },
    /// A supervised campaign worker crash-looped: it was restarted
    /// `restarts` times within the last `window_secs` seconds and the
    /// supervisor has stopped respawning it. Work routed to it fails over
    /// to surviving workers; the quarantine itself is an operator page.
    WorkerQuarantined {
        /// The worker, rendered (`"worker-2 (unix:/run/fleet/w2.sock)"`).
        worker: String,
        /// Restarts observed inside the window when the breaker tripped.
        restarts: u32,
        /// The crash-loop detection window, seconds.
        window_secs: u64,
    },
    /// The machine and the golden reference oracle disagreed — the lockstep
    /// differential checker ([`crate::Lockstep`]) found the first retired
    /// instruction after which the architectural states differ.
    Divergence {
        /// Zero-based retirement index of the diverging instruction.
        step: u64,
        /// PC of the diverging instruction.
        pc: u32,
        /// What the oracle holds, rendered (`"$t3 = 0x0000002a"`).
        expected: String,
        /// What the machine holds, rendered.
        actual: String,
    },
}

impl SimError {
    /// Wraps an [`std::io::Error`] with the path it occurred on.
    pub fn io(path: &str, err: std::io::Error) -> SimError {
        SimError::Io { path: path.to_string(), message: err.to_string() }
    }

    /// Wraps a snapshot decoding failure with the file it came from.
    pub(crate) fn checkpoint(path: &str, err: fac_core::snap::SnapError) -> SimError {
        SimError::Checkpoint { path: path.to_string(), reason: err.to_string() }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "execution error: {e}"),
            SimError::Runaway(n) => write!(f, "no halt within {n} instructions"),
            SimError::InvalidConfig(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Invariant(v) => write!(f, "timing invariant violated: {v}"),
            SimError::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            SimError::Panic { job, message } => write!(f, "job '{job}' panicked: {message}"),
            SimError::Checkpoint { path, reason } => {
                write!(f, "cannot restore snapshot {path}: {reason}")
            }
            SimError::Timeout { job, secs } => {
                write!(f, "job '{job}' exceeded its {secs}s deadline")
            }
            SimError::Overloaded { pending, limit } => write!(
                f,
                "server overloaded: {pending} simulations pending (admission limit {limit})"
            ),
            SimError::Unreachable { endpoint, reason } => {
                write!(f, "endpoint {endpoint} unreachable: {reason}")
            }
            SimError::CircuitOpen { endpoint, failures } => write!(
                f,
                "circuit breaker open for {endpoint} after {failures} consecutive \
                 transport failures"
            ),
            SimError::WorkerQuarantined { worker, restarts, window_secs } => write!(
                f,
                "{worker} quarantined: {restarts} restarts within {window_secs}s \
                 (crash loop); not respawning"
            ),
            SimError::Divergence { step, pc, expected, actual } => write!(
                f,
                "architectural divergence from the golden oracle at step {step}, \
                 pc {pc:#010x}: oracle has {expected}, machine has {actual}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::InvalidConfig(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> SimError {
        SimError::Invariant(v)
    }
}

/// The simulated machine: couples the functional executor with the timing
/// pipeline and gathers statistics.
///
/// ```
/// use fac_asm::{Asm, SoftwareSupport};
/// use fac_isa::Reg;
/// use fac_sim::{Machine, MachineConfig};
///
/// let mut a = Asm::new();
/// a.gp_word("x", 1);
/// a.lw_gp(Reg::T0, "x", 0);
/// a.addiu(Reg::T0, Reg::T0, 41);
/// a.halt();
/// let program = a.link("demo", &SoftwareSupport::on()).unwrap();
///
/// let report = Machine::new(MachineConfig::paper_baseline().with_fac())
///     .run(&program)
///     .unwrap();
/// assert_eq!(report.final_state.regs[Reg::T0.index()], 42);
/// assert!(report.stats.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    max_insts: u64,
}

/// The single step-budget rule every executor shares — the detailed
/// [`Session`], [`Machine::run_traced`], the [`crate::Oracle`], the
/// [`crate::Lockstep`] checker, the profiler, and the fast functional tier
/// in [`crate::tier`]. Called with the number of instructions already
/// retired *before* attempting the next one: a program that halts at
/// exactly `max` retired instructions succeeds, and the watchdog fires as
/// [`SimError::Runaway`] only when instruction `max + 1` would be needed.
/// Keeping this in one place pins every tier to the identical boundary, so
/// lockstep comparisons never desynchronize at budget exhaustion.
pub(crate) fn check_budget(insts: u64, max: u64) -> Result<(), SimError> {
    if insts >= max {
        return Err(SimError::Runaway(max));
    }
    Ok(())
}

/// Records the reference-classification statistics for one instruction
/// (shared with the lockstep runner in [`crate::oracle`]).
pub(crate) fn record_ref(stats: &mut SimStats, ex: &crate::Executed) {
    let Some(mref) = &ex.mem else { return };
    let class = RefClass::of(mref.base_reg);
    if mref.is_store {
        stats.stores += 1;
        stats.stores_by_class[class.index()] += 1;
    } else {
        stats.loads += 1;
        stats.loads_by_class[class.index()] += 1;
        if mref.is_reg_reg() {
            stats.loads_reg_reg += 1;
        }
        stats.load_offsets[class.index()].record(mref.offset_value());
    }
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Machine {
        Machine { config, max_insts: 2_000_000_000 }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Caps the number of simulated instructions (guards against runaway
    /// workloads; default 2 × 10⁹).
    pub fn with_max_insts(mut self, max: u64) -> Machine {
        self.max_insts = max;
        self
    }

    /// Whether this run carries the invariant checker: always in debug
    /// builds, opt-in via [`MachineConfig::with_checks`] elsewhere.
    fn checker(&self) -> Option<InvariantChecker> {
        (self.config.checks || cfg!(debug_assertions)).then(|| InvariantChecker::new(&self.config))
    }

    /// Runs `program` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid, the program
    /// leaves its text segment or does not halt within the instruction
    /// budget, a strict-memory trap fires, or (with checking enabled) the
    /// timing model breaks one of its invariants.
    pub fn run(&self, program: &Program) -> Result<SimReport, SimError> {
        self.run_observed(program, &mut NullObserver)
    }

    /// Runs `program` with a live [`Observer`] receiving every pipeline
    /// event. [`Machine::run`] is this with the [`NullObserver`], whose
    /// emission sites monomorphize away — timing and statistics are
    /// bit-identical whatever observer is attached (pinned down by
    /// `crates/sim/tests/obs.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_observed<O: Observer>(
        &self,
        program: &Program,
        obs: &mut O,
    ) -> Result<SimReport, SimError> {
        self.begin(program)?.run_observed(obs)
    }

    /// Starts an incremental simulation [`Session`] over `program`.
    ///
    /// [`Machine::run`] is `begin(..)?.run()`; a session additionally
    /// supports stepping a bounded number of instructions and
    /// [checkpointing](Session::checkpoint) the complete machine state
    /// mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the configuration cannot be
    /// honoured.
    pub fn begin<'p>(&self, program: &'p Program) -> Result<Session<'p>, SimError> {
        self.config.validate()?;
        let mut state = ArchState::new(program);
        state.strict_mem = self.config.strict_mem;
        Ok(Session {
            config: self.config,
            max_insts: self.max_insts,
            program,
            decoded: DecodeTable::new(program, &self.config),
            state,
            pipe: Pipeline::new(self.config),
            stats: SimStats::default(),
            checker: self.checker(),
        })
    }

    /// Restores a [`Session`] from snapshot bytes produced by
    /// [`Session::checkpoint`]. The snapshot must come from this exact
    /// configuration and program — both are fingerprinted into the
    /// snapshot and verified before any state is applied.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] when the snapshot is corrupt, truncated,
    /// from another format version, or from a different configuration or
    /// program; [`SimError::InvalidConfig`] when this machine's own
    /// configuration is invalid.
    pub fn restore<'p>(
        &self,
        program: &'p Program,
        bytes: &[u8],
    ) -> Result<Session<'p>, SimError> {
        self.restore_labelled(program, crate::ckpt::program_fingerprint(program), bytes, "<memory>")
    }

    /// Restores a [`Session`] from a snapshot file written by
    /// [`Session::checkpoint_to`].
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the file cannot be read; otherwise as
    /// [`Machine::restore`].
    pub fn restore_from<'p>(
        &self,
        program: &'p Program,
        path: &std::path::Path,
    ) -> Result<Session<'p>, SimError> {
        let label = path.display().to_string();
        let bytes = std::fs::read(path).map_err(|e| SimError::io(&label, e))?;
        self.restore_labelled(program, crate::ckpt::program_fingerprint(program), &bytes, &label)
    }

    /// The one restore path. `program_fp` must be
    /// [`crate::program_fingerprint`] of `program`: the public wrappers
    /// compute it per call, [`crate::tier::run_sampled`] once per run.
    pub(crate) fn restore_labelled<'p>(
        &self,
        program: &'p Program,
        program_fp: u64,
        bytes: &[u8],
        label: &str,
    ) -> Result<Session<'p>, SimError> {
        use fac_core::snap::{SnapError, SnapReader};
        self.config.validate()?;
        let ck = |e: SnapError| SimError::checkpoint(label, e);
        let payload = crate::ckpt::unframe(bytes).map_err(ck)?;
        let mut r = SnapReader::new(payload);

        let config_fp = r.u64("config fingerprint").map_err(ck)?;
        let want = crate::ckpt::config_fingerprint(&self.config);
        if config_fp != want {
            return Err(ck(SnapError::new(format!(
                "snapshot was taken under a different machine configuration \
                 (fingerprint {config_fp:#018x}, this machine is {want:#018x})"
            ))));
        }
        let snap_fp = r.u64("program fingerprint").map_err(ck)?;
        if snap_fp != program_fp {
            return Err(ck(SnapError::new(format!(
                "snapshot was taken over a different program \
                 (fingerprint {snap_fp:#018x}, '{}' is {program_fp:#018x})",
                program.name
            ))));
        }

        let state = ArchState::load_state(&mut r).map_err(ck)?;
        let stats = crate::ckpt::load_stats(&mut r).map_err(ck)?;
        let mut pipe = Pipeline::new(self.config);
        pipe.load_state(&mut r).map_err(ck)?;
        let snapshot_has_checker = r.bool("checker present").map_err(ck)?;
        let checker = match (snapshot_has_checker, self.checker()) {
            (true, Some(_)) => Some(InvariantChecker::load_state(&self.config, &mut r).map_err(ck)?),
            (true, None) => {
                // Read past the state so trailing-byte detection still works.
                let _ = InvariantChecker::load_state(&self.config, &mut r).map_err(ck)?;
                None
            }
            (false, Some(_)) => {
                return Err(ck(SnapError::new(
                    "snapshot lacks invariant-checker state but this machine \
                     runs with checking enabled"
                        .to_string(),
                )))
            }
            (false, None) => None,
        };
        r.finish().map_err(ck)?;

        Ok(Session {
            config: self.config,
            max_insts: self.max_insts,
            program,
            decoded: DecodeTable::new(program, &self.config),
            state,
            pipe,
            stats,
            checker,
        })
    }

    /// Runs `program`, additionally recording the pipeline timing of every
    /// committed instruction (see [`crate::render_diagram`]). Intended for
    /// short programs — the trace grows with the dynamic instruction count.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_traced(
        &self,
        program: &Program,
    ) -> Result<(SimReport, Vec<crate::TracedInsn>), SimError> {
        self.config.validate()?;
        let mut state = ArchState::new(program);
        state.strict_mem = self.config.strict_mem;
        let decoded = DecodeTable::new(program, &self.config);
        let mut pipe = Pipeline::new(self.config);
        let mut stats = SimStats::default();
        let mut checker = self.checker();
        let mut trace = Vec::new();

        while !state.halted {
            check_budget(stats.insts, self.max_insts)?;
            let ex = state.step(program)?;
            stats.insts += 1;
            record_ref(&mut stats, &ex);
            let timing = pipe.advance_obs(&ex, decoded.get(ex.pc), &mut stats, &mut NullObserver);
            if let Some(chk) = &mut checker {
                chk.check_insn(&ex, &timing)?;
            }
            trace.push(crate::TracedInsn { pc: ex.pc, insn: ex.insn, timing });
        }

        stats.cycles = pipe.finish(&mut stats);
        stats.mem_footprint = state.mem.footprint();
        if let Some(chk) = &checker {
            chk.check_finish(&stats, &pipe)?;
        }
        Ok((SimReport { program: program.name.clone(), stats, final_state: state }, trace))
    }
}

/// An in-flight simulation: the coupled functional + timing state of one
/// [`Machine`] running one program.
///
/// Obtained from [`Machine::begin`] (fresh) or [`Machine::restore`] /
/// [`Machine::restore_from`] (from a snapshot). A session can run to
/// completion, step instruction-by-instruction, or serialize its complete
/// state with [`Session::checkpoint`] so a later process can resume the
/// run bit-identically:
///
/// ```
/// use fac_asm::{Asm, SoftwareSupport};
/// use fac_isa::Reg;
/// use fac_sim::{Machine, MachineConfig};
///
/// let mut a = Asm::new();
/// a.li(Reg::T0, 0);
/// for _ in 0..8 {
///     a.addiu(Reg::T0, Reg::T0, 1);
/// }
/// a.halt();
/// let program = a.link("count", &SoftwareSupport::on()).unwrap();
/// let machine = Machine::new(MachineConfig::paper_baseline().with_fac());
///
/// // Run half the program, checkpoint, and abandon the session.
/// let mut first = machine.begin(&program).unwrap();
/// for _ in 0..4 {
///     first.step().unwrap();
/// }
/// let snapshot = first.checkpoint();
///
/// // A restored session finishes with the same report as a straight run.
/// let resumed = machine.restore(&program, &snapshot).unwrap().run().unwrap();
/// let straight = machine.run(&program).unwrap();
/// assert_eq!(resumed, straight);
/// ```
#[derive(Debug, Clone)]
pub struct Session<'p> {
    config: MachineConfig,
    max_insts: u64,
    program: &'p Program,
    /// `program` decoded under `config`; rebuilt on restore, never
    /// checkpointed.
    decoded: DecodeTable,
    state: ArchState,
    pipe: Pipeline,
    stats: SimStats,
    checker: Option<InvariantChecker>,
}

impl<'p> Session<'p> {
    /// Whether the program has executed its `halt`.
    pub fn halted(&self) -> bool {
        self.state.halted
    }

    /// Committed instructions so far.
    pub fn insts(&self) -> u64 {
        self.stats.insts
    }

    /// Executes one instruction (functional + timing). Returns `false`
    /// when the program had already halted, `true` otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.step_observed(&mut NullObserver)
    }

    /// [`Session::step`] with a live [`Observer`].
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn step_observed<O: Observer>(&mut self, obs: &mut O) -> Result<bool, SimError> {
        if self.state.halted {
            return Ok(false);
        }
        check_budget(self.stats.insts, self.max_insts)?;
        let ex = self.state.step(self.program)?;
        self.stats.insts += 1;
        record_ref(&mut self.stats, &ex);
        let si = self.decoded.get(ex.pc);
        if let Some(chk) = &mut self.checker {
            let info = self.pipe.advance_obs(&ex, si, &mut self.stats, obs);
            chk.check_insn(&ex, &info)?;
        } else {
            self.pipe.advance_obs(&ex, si, &mut self.stats, obs);
        }
        Ok(true)
    }

    /// Runs to completion and produces the report.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_observed(&mut NullObserver)
    }

    /// [`Session::run`] with a live [`Observer`].
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_observed<O: Observer>(mut self, obs: &mut O) -> Result<SimReport, SimError> {
        while self.step_observed(obs)? {}
        self.finish()
    }

    /// Drains the pipeline and closes the books on this session, whether or
    /// not the program has halted, producing the report for the
    /// instructions committed so far. This is how the sampled tier in
    /// [`crate::tier`] ends a measurement window mid-program: the window's
    /// cycles include the full drain of in-flight work, exactly as a run
    /// that halted there would count them. The whole-run invariant check
    /// only applies to sessions that actually reached `halt` — a partial
    /// window legitimately ends with work the checker would flag.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] when the program has halted and the final
    /// invariant check fails.
    pub fn finish(mut self) -> Result<SimReport, SimError> {
        self.stats.cycles = self.pipe.finish(&mut self.stats);
        self.stats.mem_footprint = self.state.mem.footprint();
        if let Some(chk) = &self.checker {
            if self.state.halted {
                chk.check_finish(&self.stats, &self.pipe)?;
            }
        }
        Ok(SimReport {
            program: self.program.name.clone(),
            stats: self.stats,
            final_state: self.state,
        })
    }

    /// The current architectural state (registers, memory, PC).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Serializes the complete machine state — architectural registers and
    /// memory, every timing structure, statistics, and all deterministic
    /// random streams — into a self-describing snapshot (format documented
    /// in `ckpt.rs`). Restoring it with [`Machine::restore`] and running
    /// to completion yields the same [`SimReport`] as never stopping.
    pub fn checkpoint(&self) -> Vec<u8> {
        crate::ckpt::encode(
            crate::ckpt::config_fingerprint(&self.config),
            crate::ckpt::program_fingerprint(self.program),
            &self.state,
            &self.stats,
            &self.pipe,
            self.checker.as_ref(),
        )
    }

    /// Writes [`Session::checkpoint`] to `path` atomically (temporary
    /// file, fsync, rename) so a crash mid-write never leaves a torn
    /// snapshot behind.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the write fails.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), SimError> {
        use std::io::Write;
        let label = path.display().to_string();
        let err = |e: std::io::Error| SimError::io(&label, e);
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp).map_err(err)?;
        f.write_all(&self.checkpoint()).map_err(err)?;
        f.sync_all().map_err(err)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fac_asm::{Asm, SoftwareSupport};
    use fac_isa::Reg;

    fn sum_program(sw: &SoftwareSupport) -> Program {
        let mut a = Asm::new();
        a.gp_array("data", 1024, 4);
        a.gp_addr(Reg::S0, "data", 0);
        // Fill 256 words with 1..=256 and sum them.
        a.li(Reg::T0, 256);
        a.li(Reg::T1, 1);
        a.label("fill");
        a.sw_pi(Reg::T1, Reg::S0, 4);
        a.addiu(Reg::T1, Reg::T1, 1);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, "fill");
        a.gp_addr(Reg::S0, "data", 0);
        a.li(Reg::T0, 256);
        a.li(Reg::V0, 0);
        a.label("sum");
        a.lw_pi(Reg::T2, Reg::S0, 4);
        a.addu(Reg::V0, Reg::V0, Reg::T2);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, "sum");
        a.halt();
        a.link("sum", sw).unwrap()
    }

    #[test]
    fn functional_result_is_config_independent() {
        let expected = (1..=256u32).sum::<u32>();
        for sw in [SoftwareSupport::on(), SoftwareSupport::off()] {
            let p = sum_program(&sw);
            for cfg in [
                MachineConfig::paper_baseline(),
                MachineConfig::paper_baseline().with_fac(),
                MachineConfig::paper_baseline().with_one_cycle_loads(),
                MachineConfig::paper_baseline().with_perfect_dcache(),
            ] {
                let r = Machine::new(cfg).run(&p).unwrap();
                assert_eq!(r.final_state.regs[Reg::V0.index()], expected);
            }
        }
    }

    #[test]
    fn fac_speeds_up_the_kernel() {
        let p = sum_program(&SoftwareSupport::on());
        let base = Machine::new(MachineConfig::paper_baseline()).run(&p).unwrap();
        let fac = Machine::new(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
        assert!(
            fac.stats.cycles < base.stats.cycles,
            "fac {} vs base {}",
            fac.stats.cycles,
            base.stats.cycles
        );
        assert_eq!(fac.stats.insts, base.stats.insts, "same dynamic instruction count");
    }

    #[test]
    fn stats_are_consistent() {
        let p = sum_program(&SoftwareSupport::on());
        let r = Machine::new(MachineConfig::paper_baseline().with_fac()).run(&p).unwrap();
        let s = &r.stats;
        assert_eq!(s.loads + s.stores, s.refs());
        assert_eq!(s.loads, s.loads_by_class.iter().sum::<u64>());
        assert_eq!(s.stores, s.stores_by_class.iter().sum::<u64>());
        assert_eq!(
            s.loads,
            s.load_offsets.iter().map(|h| h.total()).sum::<u64>()
        );
        assert!(s.ipc() > 0.0 && s.ipc() <= 4.0);
        assert!(s.mem_footprint > 0);
        let pl = &s.pred_loads;
        assert_eq!(pl.attempts() + pl.not_speculated, s.loads);
    }

    #[test]
    fn runaway_guard_fires() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let p = a.link("spin", &SoftwareSupport::on()).unwrap();
        let err = Machine::new(MachineConfig::paper_baseline())
            .with_max_insts(1000)
            .run(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Runaway(1000)));
    }

    #[test]
    fn strict_memory_traps_misaligned_access() {
        let mut a = Asm::new();
        a.gp_array("buf", 16, 4);
        a.gp_addr(Reg::S0, "buf", 0);
        a.addiu(Reg::S0, Reg::S0, 2);
        a.lw(Reg::T0, 0, Reg::S0);
        a.halt();
        let p = a.link("mis", &SoftwareSupport::on()).unwrap();

        // Lenient (default): unaligned loads are modelled as-is.
        Machine::new(MachineConfig::paper_baseline()).run(&p).unwrap();

        let err = Machine::new(MachineConfig::paper_baseline().with_strict_memory())
            .run(&p)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Exec(ExecError::Misaligned { size: 4, .. })),
            "got {err}"
        );
    }

    #[test]
    fn strict_memory_traps_unmapped_load() {
        let mut a = Asm::new();
        a.li(Reg::S0, 0x4bad_0000u32 as i32);
        a.lw(Reg::T0, 0, Reg::S0);
        a.halt();
        let p = a.link("wild", &SoftwareSupport::on()).unwrap();

        // Lenient: untouched memory reads as zero.
        let r = Machine::new(MachineConfig::paper_baseline()).run(&p).unwrap();
        assert_eq!(r.final_state.regs[Reg::T0.index()], 0);

        let err = Machine::new(MachineConfig::paper_baseline().with_strict_memory())
            .run(&p)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Exec(ExecError::Unmapped { addr: 0x4bad_0000, .. })),
            "got {err}"
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let p = sum_program(&SoftwareSupport::on());
        let mut cfg = MachineConfig::paper_baseline();
        cfg.dcache.size_bytes = 12345;
        let err = Machine::new(cfg).run(&p).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "got {err}");
    }

    #[test]
    fn tlb_is_optional_and_recorded() {
        let p = sum_program(&SoftwareSupport::on());
        let with = Machine::new(MachineConfig::paper_baseline().with_tlb()).run(&p).unwrap();
        let without = Machine::new(MachineConfig::paper_baseline()).run(&p).unwrap();
        assert!(with.stats.tlb.is_some());
        assert!(without.stats.tlb.is_none());
        assert!(with.stats.tlb.unwrap().accesses == with.stats.refs());
    }
}
