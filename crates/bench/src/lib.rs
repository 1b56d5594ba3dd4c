#![warn(missing_docs)]

//! # fac-bench — the evaluation harness
//!
//! Every table and figure of the paper is an experiment of the
//! [`experiments::ALL`] registry, built on the shared runners in this
//! library:
//!
//! | experiment | regenerates |
//! |---|---|
//! | `fig2` | Figure 2 — IPC under load-latency what-ifs |
//! | `table1` | Table 1 — program reference behavior |
//! | `table2` | Table 2 — the benchmark programs and their inputs |
//! | `fig3` | Figure 3 — load offset cumulative distributions |
//! | `table3` | Table 3 — program statistics without software support |
//! | `table4` | Table 4 — program statistics with software support |
//! | `table5` | Table 5 — the baseline simulation model |
//! | `fig6` | Figure 6 — speedups (hw / hw+sw × block size × reg+reg) |
//! | `table6` | Table 6 — cache-bandwidth overhead of misspeculation |
//! | `ablate_*` | design-choice ablations called out in DESIGN.md |
//! | `compare_*` | related-work comparisons (LTB, LUI vs AGI pipelines) |
//! | `tiered_run` | tiered execution — fast-tier check + sampled CPI accuracy |
//!
//! `cargo run --release -p fac-bench --bin all_experiments` runs them all,
//! in order; add `--only <experiment>` to run one.
//!
//! The experiment binaries take `--smoke` (tiny workloads), `--json <path|->`
//! (machine-readable output) and `--jobs N` (worker threads for the
//! [`par`] harness; default: all hardware threads). Argv is validated
//! strictly — an unrecognized or malformed flag is a typed
//! [`SimError::InvalidConfig`] and a nonzero exit, never a silently
//! ignored typo that runs the wrong sweep.

use fac_asm::{Program, SoftwareSupport};
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_core::{AddrFields, PredictorConfig};
use fac_sim::obs::Json;
use fac_sim::{
    profile_predictions, ConfigError, Machine, MachineConfig, ProfileReport, SimError, SimReport,
};
use fac_workloads::{suite, Scale, Workload};
use std::io::Write as _;

pub mod chaos;
pub mod experiments;
#[cfg(unix)]
pub mod fleet;
pub mod fuzz;
pub mod io;
pub mod par;
pub mod serve;
pub mod telemetry;

/// Instruction budget per simulation (well above any Paper-scale kernel).
pub const MAX_INSTS: u64 = 400_000_000;

/// A built program plus its workload metadata.
pub struct Bench {
    /// Workload descriptor.
    pub workload: Workload,
    /// Linked without software support.
    pub plain: Program,
    /// Linked with the §4 software support.
    pub tuned: Program,
}

/// Builds the whole suite at the given scale, under both software policies.
pub fn build_suite(scale: Scale) -> Vec<Bench> {
    suite()
        .into_iter()
        .map(|workload| Bench {
            plain: workload.build(&SoftwareSupport::off(), scale),
            tuned: workload.build(&SoftwareSupport::on(), scale),
            workload,
        })
        .collect()
}

/// Runs a program on a machine configuration.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn run(program: &Program, cfg: MachineConfig) -> Result<SimReport, SimError> {
    Machine::new(cfg).with_max_insts(MAX_INSTS).run(program)
}

/// Profiles every reference of a program against the prediction circuit
/// with the given data-cache block size (§5.3 methodology).
///
/// # Errors
///
/// Propagates any [`SimError`] from the functional run.
pub fn profile(
    program: &Program,
    block_bytes: u32,
    config: PredictorConfig,
) -> Result<ProfileReport, SimError> {
    profile_predictions(
        program,
        AddrFields::for_direct_mapped(16 * 1024, block_bytes),
        config,
        MAX_INSTS,
    )
}

/// Weighted average of per-program `values`, weighted by `weights`
/// (the paper weights its averages by program run-time in cycles).
pub fn weighted_mean(values: &[f64], weights: &[u64]) -> f64 {
    let wsum: u64 = weights.iter().sum();
    if wsum == 0 {
        return 0.0;
    }
    values
        .iter()
        .zip(weights)
        .map(|(v, &w)| v * w as f64)
        .sum::<f64>()
        / wsum as f64
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a signed percentage change; `"-"` when the baseline is zero
/// (undefined, not 0%).
pub fn pct_change(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}", (new - old) / old * 100.0)
}

/// The JSON lane of [`pct_change`]: the same cell the human table renders
/// as `"-"` is `null` — undefined, not a raw quotient or a fabricated
/// number.
pub fn pct_change_json(new: f64, old: f64) -> Json {
    if old == 0.0 {
        Json::Null
    } else {
        Json::F64((new - old) / old * 100.0)
    }
}

/// A rule line of the given width (append with the table builders).
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// A rendered experiment: the human-readable table plus the same data as
/// a machine-readable JSON document.
pub struct Exp {
    /// The complete table text, as the serial harness printed it.
    pub human: String,
    /// The experiment's JSON document.
    pub json: Json,
}

/// Shared run context every experiment receives: workload scale, the
/// worker count for the [`par`] harness, the robustness policy, and the
/// result cache (when `--resume` is active).
#[derive(Debug, Clone, Copy)]
pub struct Cx<'m> {
    /// Workload scale (`--smoke` or Paper).
    pub scale: Scale,
    /// Worker threads (`--jobs N`, default: available parallelism).
    pub jobs: usize,
    /// Watchdog / retry / keep-going policy (`--timeout-secs`,
    /// `--retries`, `--keep-going`).
    pub opts: par::RunOptions,
    /// Result cache (`--resume <dir>`): completed jobs are skipped and
    /// their stored results re-merged.
    pub cache: Option<&'m par::Cache>,
    /// Emit wall-clock timing lanes (`--timings`). Off by default so
    /// artifacts stay byte-identical across runs and `--jobs` counts;
    /// opting in adds `bench.*` latency percentiles to `--json` output.
    pub timings: bool,
}

impl Cx<'static> {
    /// A context with default robustness policy and no cache (for tests
    /// and library callers).
    pub fn simple(scale: Scale, jobs: usize) -> Cx<'static> {
        Cx { scale, jobs, opts: par::RunOptions::default(), cache: None, timings: false }
    }
}

/// Strictly parsed command-line arguments.
///
/// Every argument must be a declared boolean flag, a declared value flag
/// followed by its value, or a positional; anything else is a typed
/// [`SimError::InvalidConfig`]. This replaces the seed harness's
/// scan-for-a-flag helpers, where `--smokee` silently ran the full
/// Paper-scale sweep and `--json` as the last argument silently exported
/// nothing.
#[derive(Debug)]
pub struct Args {
    positionals: Vec<String>,
    bools: Vec<String>,
    values: Vec<(String, String)>,
}

/// Boolean flags every experiment binary accepts.
pub const STD_BOOL_FLAGS: &[&str] = &["--smoke", "--keep-going", "--timings"];
/// Value-taking flags every experiment binary accepts.
pub const STD_VALUE_FLAGS: &[&str] =
    &["--json", "--jobs", "--resume", "--timeout-secs", "--retries"];
/// The flags that cannot change any job's result, left out of
/// [`Args::fingerprint`]: worker count, where output and the cache go,
/// timing lanes, and the robustness policy (a failed job is never cached).
pub const NON_SHAPING_FLAGS: &[&str] = &[
    "--jobs",
    "--resume",
    "--json",
    "--timings",
    "--timeout-secs",
    "--retries",
    "--keep-going",
    "--repro-dir",
];

impl Args {
    /// Parses the process argv (excluding the program name).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an undeclared flag, a value flag
    /// with no value, or a malformed value.
    pub fn parse(bool_flags: &[&str], value_flags: &[&str]) -> Result<Args, SimError> {
        Args::parse_from(std::env::args().skip(1), bool_flags, value_flags)
    }

    /// [`Args::parse`] over an explicit argument list (for tests).
    ///
    /// # Errors
    ///
    /// As for [`Args::parse`].
    pub fn parse_from(
        argv: impl IntoIterator<Item = String>,
        bool_flags: &[&str],
        value_flags: &[&str],
    ) -> Result<Args, SimError> {
        let expected = || {
            bool_flags
                .iter()
                .copied()
                .chain(value_flags.iter().copied())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut args = Args { positionals: Vec::new(), bools: Vec::new(), values: Vec::new() };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if bool_flags.contains(&arg.as_str()) {
                args.bools.push(arg);
            } else if value_flags.contains(&arg.as_str()) {
                match argv.next() {
                    // Another flag in the value slot means the value is
                    // missing, not that the flag's value is "--whatever".
                    Some(v) if !v.starts_with("--") => args.values.push((arg, v)),
                    _ => {
                        return Err(ConfigError::MissingFlagValue { flag: arg }.into());
                    }
                }
            } else if arg.starts_with('-') && arg != "-" {
                return Err(ConfigError::UnknownFlag { flag: arg, expected: expected() }.into());
            } else {
                args.positionals.push(arg);
            }
        }
        Ok(args)
    }

    /// `true` when the boolean flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.bools.iter().any(|f| f == name)
    }

    /// The value of a value flag, if passed (first occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
    }

    /// The value of a flag parsed as `T`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the value does not parse;
    /// `expected` describes a valid value in the message.
    pub fn parse_value<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<T>, SimError> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                SimError::from(ConfigError::BadFlagValue {
                    flag: name.to_string(),
                    value: v.to_string(),
                    expected,
                })
            }),
        }
    }

    /// Positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Rejects stray positional arguments (for binaries that take none).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first stray argument.
    pub fn no_positionals(&self, expected_flags: &str) -> Result<(), SimError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(arg) => Err(ConfigError::UnknownFlag {
                flag: arg.clone(),
                expected: expected_flags.to_string(),
            }
            .into()),
        }
    }

    /// The workload scale: `--smoke` or the Paper scale.
    pub fn scale(&self) -> Scale {
        if self.flag("--smoke") {
            Scale::Smoke
        } else {
            Scale::Paper
        }
    }

    /// The `--jobs` worker count (default: available parallelism).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a non-numeric or zero count.
    pub fn jobs(&self) -> Result<usize, SimError> {
        const EXPECTED: &str = "a worker count of at least 1";
        match self.parse_value::<usize>("--jobs", EXPECTED)? {
            Some(0) => Err(ConfigError::BadFlagValue {
                flag: "--jobs".to_string(),
                value: "0".to_string(),
                expected: EXPECTED,
            }
            .into()),
            Some(n) => Ok(n),
            None => Ok(par::default_jobs()),
        }
    }

    /// The robustness policy from `--timeout-secs`, `--retries` and
    /// `--keep-going`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for non-numeric or zero values.
    pub fn run_options(&self) -> Result<par::RunOptions, SimError> {
        const TIMEOUT: &str = "a per-job deadline in whole seconds, at least 1";
        let timeout_secs = match self.parse_value::<u64>("--timeout-secs", TIMEOUT)? {
            Some(0) => {
                return Err(ConfigError::BadFlagValue {
                    flag: "--timeout-secs".to_string(),
                    value: "0".to_string(),
                    expected: TIMEOUT,
                }
                .into())
            }
            other => other,
        };
        let retries = self
            .parse_value::<u32>("--retries", "a retry count (0 disables retries)")?
            .unwrap_or(0);
        Ok(par::RunOptions { timeout_secs, retries, keep_going: self.flag("--keep-going") })
    }

    /// The campaign fingerprint: FNV-1a over every argument except the
    /// [`NON_SHAPING_FLAGS`], flags in name order (repeats keep their
    /// order, since the first one wins). Any flag not listed there shapes
    /// the fingerprint, so a new flag can cost a cache miss but never
    /// serve another campaign's result.
    pub fn fingerprint(&self) -> u64 {
        let mut flags: Vec<(&str, &str)> = self
            .bools
            .iter()
            .map(|f| (f.as_str(), ""))
            .chain(self.values.iter().map(|(f, v)| (f.as_str(), v.as_str())))
            .filter(|(f, _)| !NON_SHAPING_FLAGS.contains(f))
            .collect();
        flags.sort_by_key(|&(f, _)| f);
        flags
            .into_iter()
            .flat_map(|(f, v)| [f, v])
            .chain(self.positionals.iter().map(String::as_str))
            .fold(FNV_OFFSET, |fp, part| fnv1a(fnv1a(fp, part.as_bytes()), b"\0"))
    }

    /// Opens the result cache at the `--resume` directory, if passed,
    /// keyed by this campaign's [`Args::fingerprint`].
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be created.
    pub fn cache(&self) -> Result<Option<par::Cache>, SimError> {
        let Some(dir) = self.value("--resume") else { return Ok(None) };
        let store = serve::store::Store::open(std::path::Path::new(dir))?;
        Ok(Some(par::Cache::new(store, self.fingerprint())))
    }
}

/// Writes a JSON document to `path` atomically (via [`io::write_atomic`]),
/// or to stdout when `path` is `"-"` — an interrupted export never leaves
/// a torn artifact where a previous good one stood.
///
/// # Errors
///
/// Returns [`SimError::Io`] carrying the path and the OS error.
pub fn write_json(path: &str, doc: &Json) -> Result<(), SimError> {
    let text = doc.to_pretty(2);
    if path == "-" {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{text}").map_err(|e| SimError::io(path, e))
    } else {
        io::write_atomic(std::path::Path::new(path), (text + "\n").as_bytes())
    }
}

/// Standard entry path for every experiment binary: **strictly validate
/// argv first** (a typo exits nonzero before any simulation starts), open
/// the `--resume` cache if requested, run the experiment with the
/// parsed [`Cx`], print its human table, honour `--json <path|->`, and
/// map any [`SimError`] to a nonzero exit. A failed cache read or write
/// also fails the run — a campaign must not claim durable success it
/// cannot deliver. The binary's own extra flags parse alongside the
/// standard set and the experiment receives the full [`Args`] to read
/// them back.
pub fn conclude_with(
    extra_bool_flags: &[&str],
    extra_value_flags: &[&str],
    experiment: impl FnOnce(&Cx, &Args) -> Result<Exp, SimError>,
) -> std::process::ExitCode {
    match conclude_inner(extra_bool_flags, extra_value_flags, experiment) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn conclude_inner(
    extra_bool_flags: &[&str],
    extra_value_flags: &[&str],
    experiment: impl FnOnce(&Cx, &Args) -> Result<Exp, SimError>,
) -> Result<(), SimError> {
    let bools: Vec<&str> = STD_BOOL_FLAGS.iter().chain(extra_bool_flags).copied().collect();
    let values: Vec<&str> = STD_VALUE_FLAGS.iter().chain(extra_value_flags).copied().collect();
    let args = Args::parse(&bools, &values)?;
    args.no_positionals(&bools.iter().chain(&values).copied().collect::<Vec<_>>().join(", "))?;
    let cache = args.cache()?;
    let cx = Cx {
        scale: args.scale(),
        jobs: args.jobs()?,
        opts: args.run_options()?,
        cache: cache.as_ref(),
        timings: args.flag("--timings"),
    };
    let exp = experiment(&cx, &args)?;
    print!("{}", exp.human);
    if let Some(path) = args.value("--json") {
        write_json(path, &exp.json)?;
    }
    if let Some(e) = cache.as_ref().and_then(par::Cache::error) {
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std_args(argv: &[&str]) -> Result<Args, SimError> {
        Args::parse_from(
            argv.iter().map(|s| s.to_string()),
            STD_BOOL_FLAGS,
            STD_VALUE_FLAGS,
        )
    }

    #[test]
    fn weighted_mean_behaves() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1, 1]), 2.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[3, 1]), 1.5);
        assert_eq!(weighted_mean(&[], &[]), 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.1234), "12.3");
        assert_eq!(pct_change(1.1, 1.0), "+10.0");
        assert_eq!(pct_change(1.0, 0.0), "-");
    }

    /// The JSON lane agrees with the human lane: an undefined
    /// percent-change is `null`, not a raw quotient and not `0.0`.
    #[test]
    fn pct_change_json_matches_human_lane() {
        assert_eq!(pct_change_json(1.1, 1.0), Json::F64(10.000000000000009));
        assert_eq!(pct_change_json(1.0, 0.0), Json::Null);
        assert_eq!(pct_change_json(1.0, 0.0).to_string(), "null");
        assert_eq!(pct_change_json(0.0, 0.0), Json::Null);
        // Human says "-" exactly when JSON says null.
        for (new, old) in [(1.0, 0.0), (2.5, 1.0), (0.0, 3.0), (0.0, 0.0)] {
            assert_eq!(
                pct_change(new, old) == "-",
                pct_change_json(new, old) == Json::Null,
                "lanes disagree for ({new}, {old})"
            );
        }
    }

    #[test]
    fn strict_args_accept_declared_flags() {
        let args = std_args(&["--smoke", "--jobs", "4", "--json", "-"]).unwrap();
        assert!(args.flag("--smoke"));
        assert_eq!(args.jobs().unwrap(), 4);
        assert_eq!(args.value("--json"), Some("-"));
        assert_eq!(args.scale(), fac_workloads::Scale::Smoke);
    }

    #[test]
    fn strict_args_reject_typos() {
        let err = std_args(&["--smokee"]).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig(ConfigError::UnknownFlag { flag, .. }) if flag == "--smokee"),
            "got {err}"
        );
        assert!(err.to_string().contains("--smokee"), "message must name the flag: {err}");
    }

    #[test]
    fn strict_args_reject_missing_and_bad_values() {
        let err = std_args(&["--json"]).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig(ConfigError::MissingFlagValue { flag }) if flag == "--json"),
            "got {err}"
        );
        // A flag in the value slot is a missing value, not a value.
        let err = std_args(&["--json", "--smoke"]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(ConfigError::MissingFlagValue { .. })));

        let err = std_args(&["--jobs", "zero"]).unwrap().jobs().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(ConfigError::BadFlagValue { .. })));
        let err = std_args(&["--jobs", "0"]).unwrap().jobs().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(ConfigError::BadFlagValue { .. })));
    }

    #[test]
    fn strict_args_reject_stray_positionals() {
        let args = std_args(&["smoke"]).unwrap();
        assert!(args.no_positionals("--smoke").is_err());
        // But binaries that declare positionals read them in order.
        let args = Args::parse_from(
            ["compress", "--fac"].iter().map(|s| s.to_string()),
            &["--fac"],
            &[],
        )
        .unwrap();
        assert_eq!(args.positionals(), ["compress".to_string()]);
        assert!(args.flag("--fac"));
    }

    /// The fingerprint ignores exactly the flags that cannot change a
    /// result, and every other flag, value and repeat order changes it.
    #[test]
    fn fingerprint_keys_on_result_shaping_arguments() {
        let values = ["--json", "--jobs", "--resume", "--timeout-secs", "--retries", "--tier"];
        let fp = |argv: &[&str]| {
            Args::parse_from(argv.iter().map(|s| s.to_string()), STD_BOOL_FLAGS, &values)
                .unwrap()
                .fingerprint()
        };
        let base = fp(&["--smoke", "--tier", "sampled"]);
        assert_eq!(base, fp(&["--tier", "sampled", "--smoke"]), "flag order is not a result");
        assert_eq!(
            base,
            fp(&[
                "--smoke", "--tier", "sampled", "--jobs", "3", "--json", "x.json", "--resume", "d",
                "--timeout-secs", "9", "--retries", "2", "--keep-going", "--timings",
            ]),
            "non-shaping flags must not move the fingerprint"
        );
        for other in [
            fp(&["--tier", "sampled"]),
            fp(&["--smoke"]),
            fp(&["--smoke", "--tier", "fast"]),
            fp(&["--smoke", "--tier", "sampled", "--tier", "fast"]),
        ] {
            assert_ne!(base, other);
        }
        assert_ne!(
            fp(&["--tier", "fast", "--tier", "sampled"]),
            fp(&["--tier", "sampled", "--tier", "fast"]),
            "the first of repeated flags wins, so repeat order shapes the result"
        );
    }

    #[test]
    fn smoke_suite_builds_and_runs() {
        let benches = build_suite(Scale::Smoke);
        assert_eq!(benches.len(), 19);
        let b = &benches[0];
        let r = run(&b.plain, MachineConfig::paper_baseline()).unwrap();
        assert!(r.stats.cycles > 0);
        let p = profile(&b.tuned, 32, PredictorConfig::default()).unwrap();
        assert!(p.refs() > 0);
    }

    #[test]
    fn write_json_reports_typed_io_errors() {
        let doc = Json::obj();
        let err = write_json("/nonexistent-dir/x.json", &doc).unwrap_err();
        assert!(matches!(err, fac_sim::SimError::Io { .. }), "got {err}");
    }
}
