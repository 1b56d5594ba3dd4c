//! CLI: the differential fuzzing campaign.
//!
//! ```sh
//! # 1000 random programs through the lockstep oracle, all fault plans:
//! cargo run --release -p fac-bench --bin fuzz_programs -- --seeds 1000
//!
//! # Self-test: arm the escaped-speculation saboteur; the campaign must
//! # diverge, and each divergence is shrunk to a minimal repro:
//! cargo run --release -p fac-bench --bin fuzz_programs -- \
//!     --seeds 10 --escape silent-wrong --repro-dir repros/
//! ```
//!
//! Exit status: nonzero when the campaign found a failure (normal mode),
//! when no seed diverged at all (escape mode — an oracle that cannot see
//! the saboteur is broken), or when `--keep-going` had to degrade any seed
//! (like `make -k`: finish everything, then report the run incomplete).
//! The `--json` artifact is byte-identical at any `--jobs` count.
//!
//! Crash safety: `--resume <dir>` stores every finished seed so a killed
//! campaign picks up where it stopped with a byte-identical artifact;
//! `--timeout-secs` / `--retries` bound and retry individual seeds;
//! `--keep-going` turns failed seed jobs into `null` artifact lanes plus
//! an `errors` block instead of aborting.

use fac_bench::fuzz::{run_campaign_with, CampaignConfig};
use fac_bench::Args;
use fac_core::FaultPlan;
use fac_sim::SimError;
use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: fuzz_programs [--seeds N] [--start N] [--jobs N] [--json <path|->]");
    eprintln!("       [--max-steps N] [--repro-dir <dir>] [--escape <plan>]");
    eprintln!("       [--resume <dir>] [--timeout-secs N] [--retries N] [--keep-going]");
    eprintln!("fault plans: always-wrong, random-flip[:per1024], flip-index-bit:<bit>,");
    eprintln!("             suppress-signals, silent-wrong  (each optionally @<seed>)");
    std::process::exit(2);
}

const BOOL_FLAGS: &[&str] = &["--keep-going"];
const VALUE_FLAGS: &[&str] = &[
    "--seeds",
    "--start",
    "--jobs",
    "--json",
    "--max-steps",
    "--repro-dir",
    "--escape",
    "--resume",
    "--timeout-secs",
    "--retries",
];

fn or_usage<T>(result: Result<T, SimError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

/// Turns a config label into a filename fragment (`fac+flip-index-bit:3`
/// becomes `fac+flip-index-bit-3`).
fn sanitize(label: &str) -> String {
    label.chars().map(|c| if c == ':' || c == '@' || c == '/' { '-' } else { c }).collect()
}

fn main() -> std::process::ExitCode {
    let args = or_usage(Args::parse(BOOL_FLAGS, VALUE_FLAGS));
    if !args.positionals().is_empty() {
        usage();
    }
    let mut cc = CampaignConfig::default();
    if let Some(n) = or_usage(args.parse_value::<u64>("--seeds", "a seed count")) {
        cc.count = n;
    }
    if let Some(n) = or_usage(args.parse_value::<u64>("--start", "a first seed")) {
        cc.start = n;
    }
    if let Some(n) = or_usage(args.parse_value::<u64>("--max-steps", "an instruction budget")) {
        cc.max_steps = n;
    }
    if let Some(spec) = args.value("--escape") {
        match FaultPlan::parse(spec) {
            Ok(plan) => cc.escape = Some(plan),
            Err(e) => {
                eprintln!("--escape: {e}");
                return std::process::ExitCode::from(2);
            }
        }
    }
    let jobs = or_usage(args.jobs());
    let opts = or_usage(args.run_options());
    let cache = match args.cache() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let json_path = args.value("--json").map(String::from);
    let repro_dir = args.value("--repro-dir").map(String::from);
    // `--json -` keeps stdout pure JSON.
    let human = json_path.as_deref() != Some("-");

    let campaign = match run_campaign_with(&cc, jobs, &opts, cache.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let report = match campaign.report() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let failures: Vec<_> = report.failures().collect();
    let clean: Vec<u64> = report.clean_seeds().collect();
    if human {
        let mode = match cc.escape {
            Some(plan) => format!("escape self-test ({plan})"),
            None => "differential".to_string(),
        };
        println!(
            "fuzz: {} {} programs (seeds {}..{}), {} failures",
            cc.count,
            mode,
            cc.start,
            cc.start + cc.count,
            failures.len()
        );
        for (seed, f) in &failures {
            println!(
                "  seed {seed} [{}]: {} (shrunk {} -> {} lines)",
                f.config, f.error, f.original_lines, f.shrunk_lines
            );
        }
        for (job, e) in &campaign.errors {
            println!("  [degraded] {job}: {e}");
        }
    }

    if let Some(dir) = &repro_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: {}", SimError::io(dir, e));
            return std::process::ExitCode::FAILURE;
        }
        for (seed, f) in &failures {
            let path = format!("{dir}/seed{seed:06}-{}.fasm", sanitize(&f.config));
            if let Err(e) = fac_bench::io::write_atomic(Path::new(&path), f.shrunk.as_bytes()) {
                eprintln!("error: {e}");
                return std::process::ExitCode::FAILURE;
            }
            if human {
                println!("  wrote {path}");
            }
        }
    }

    if let Some(path) = &json_path {
        if let Err(e) = fac_bench::write_json(path, &campaign.to_json()) {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }

    // A broken resume cache means the run cannot claim durable success.
    if let Some(e) = cache.as_ref().and_then(fac_bench::par::Cache::error) {
        eprintln!("error: {e}");
        return std::process::ExitCode::FAILURE;
    }

    let bad = if cc.escape.is_some() {
        // Self-test: the campaign must catch the saboteur. Individual
        // seeds may legitimately stay clean (the wrongly-read location can
        // coincidentally hold the right value), but a campaign with zero
        // divergences means the oracle is blind.
        if !clean.is_empty() && human {
            println!("  no divergence for seeds: {clean:?}");
        }
        failures.is_empty()
    } else {
        // Degraded seeds make the exit nonzero too (as `make -k` does):
        // the artifact is usable, but the campaign did not fully run.
        !failures.is_empty() || !campaign.errors.is_empty()
    };
    if bad {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}
