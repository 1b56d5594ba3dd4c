//! Emits a machine-readable benchmark snapshot of the paper-baseline
//! workload sweep: every workload run on the baseline machine and on the
//! fast-address-calculation machine (both with §4 software support), with
//! cycles, IPC, speedup and prediction quality per program. The sweep
//! fans out over the `fac_bench::par` pool (`--jobs N`) with output
//! bit-identical at any worker count.
//!
//! Tiered execution (DESIGN.md §13): `--tier sampled` replaces each
//! detailed run with a SMARTS-style sampled run — est. cycles and CPI ±
//! stderr per cell, far faster at Paper scale — with `--sample-every N`
//! and `--sample-window W` controlling the regime; `--tier fast` runs the
//! functional tier only (no timing) and reports instruction counts, a
//! whole-suite architectural smoke check.
//!
//! Crash safety: `--resume <dir>` commits every finished cell to a
//! content-addressed store and skips it on the next invocation with the
//! same result-shaping flags, so a killed sweep resumes where it stopped
//! with a byte-identical final artifact;
//! `--keep-going` renders failed cells as `null` row lanes plus an
//! `errors` block instead of aborting; `--timeout-secs` / `--retries`
//! bound and retry individual cells.
//!
//! ```sh
//! cargo run --release -p fac-bench --bin bench_snapshot -- --json BENCH_pr2.json
//! ```

use fac_bench::par::{degrade, errors_json, strict, JobSet};
use fac_bench::{build_suite, run, weighted_mean, Args, Cx, Exp, MAX_INSTS};
use fac_sim::obs::Json;
use fac_sim::tier::{run_fast, run_sampled, SampleSpec};
use fac_sim::{ConfigError, MachineConfig, SimError};
use std::fmt::Write as _;

/// Which execution tier the sweep's cells run under.
#[derive(Clone, Copy)]
enum Tier {
    /// Full detail (the default).
    Detail,
    /// Functional only: no timing, architectural outcome + insts.
    Fast,
    /// SMARTS-style sampled timing under the given regime.
    Sampled(SampleSpec),
}

fn parse_tier(args: &Args) -> Result<Tier, SimError> {
    let every = args.parse_value::<u64>("--sample-every", "a sampling period in instructions")?;
    let window = args.parse_value::<u64>("--sample-window", "a window length in instructions")?;
    let tier = args.value("--tier");
    if tier != Some("sampled") && (every.is_some() || window.is_some()) {
        return Err(ConfigError::BadFlagValue {
            flag: "--sample-every/--sample-window".to_string(),
            value: "(set)".to_string(),
            expected: "--tier sampled when a sampling regime is given",
        }
        .into());
    }
    match tier {
        None => Ok(Tier::Detail),
        Some("fast") => Ok(Tier::Fast),
        Some("sampled") => {
            let spec = SampleSpec {
                every: every.unwrap_or(100_000),
                window: window.unwrap_or(10_000),
            };
            spec.validate()?;
            Ok(Tier::Sampled(spec))
        }
        Some(other) => Err(ConfigError::BadFlagValue {
            flag: "--tier".to_string(),
            value: other.to_string(),
            expected: "fast or sampled",
        }
        .into()),
    }
}

/// One sweep cell under the requested tier. Returns the standard cell
/// envelope: `human` line, `row` document, `speedup` + `weight` lanes
/// (zero-weighted under `--tier fast`, which measures no cycles).
fn snapshot_cell(b: &fac_bench::Bench, tier: Tier) -> Result<Json, SimError> {
    let base_cfg = MachineConfig::paper_baseline();
    let fac_cfg = MachineConfig::paper_baseline().with_fac();
    let mut j = Json::obj();
    j.set("program", Json::Str(b.workload.name.to_string()));
    j.set("kind", Json::Str(if b.workload.fp { "fp" } else { "int" }.to_string()));
    let (human, speedup, weight) = match tier {
        Tier::Detail => {
            let base = run(&b.tuned, base_cfg)?;
            let fac = run(&b.tuned, fac_cfg)?;
            let speedup = base.stats.cycles as f64 / fac.stats.cycles as f64;
            let human = format!(
                "{:10} {:>10} -> {:>10} cycles  ({:.3}x, load fail {:.2}%)",
                b.workload.name,
                base.stats.cycles,
                fac.stats.cycles,
                speedup,
                fac.stats.pred_loads.fail_rate_all() * 100.0
            );
            j.set("cycles.baseline", Json::U64(base.stats.cycles));
            j.set("cycles.fac", Json::U64(fac.stats.cycles));
            j.set("ipc.baseline", Json::F64(base.stats.ipc()));
            j.set("ipc.fac", Json::F64(fac.stats.ipc()));
            j.set("speedup", Json::F64(speedup));
            j.set("load_fail_rate", Json::F64(fac.stats.pred_loads.fail_rate_all()));
            j.set("store_fail_rate", Json::F64(fac.stats.pred_stores.fail_rate_all()));
            j.set("bandwidth_overhead", Json::F64(fac.stats.bandwidth_overhead()));
            (human, speedup, base.stats.cycles)
        }
        Tier::Fast => {
            let r = run_fast(&base_cfg, &b.tuned, MAX_INSTS)?;
            let human = format!(
                "{:10} {:>10} insts (fast functional tier, no timing)",
                b.workload.name, r.insts
            );
            j.set("insts", Json::U64(r.insts));
            j.set("mem_footprint", Json::U64(r.final_state.mem.footprint()));
            (human, 0.0, 0)
        }
        Tier::Sampled(spec) => {
            let base = run_sampled(&base_cfg, &b.tuned, spec, MAX_INSTS)?;
            let fac = run_sampled(&fac_cfg, &b.tuned, spec, MAX_INSTS)?;
            let speedup = base.est_cycles as f64 / fac.est_cycles.max(1) as f64;
            let human = format!(
                "{:10} {:>10} -> {:>10} est.cycles  ({:.3}x, CPI {:.3}±{:.4}, {} windows)",
                b.workload.name,
                base.est_cycles,
                fac.est_cycles,
                speedup,
                fac.cpi,
                fac.cpi_stderr,
                fac.windows.len()
            );
            j.set("insts", Json::U64(fac.insts));
            j.set("est_cycles.baseline", Json::U64(base.est_cycles));
            j.set("est_cycles.fac", Json::U64(fac.est_cycles));
            j.set("cpi.baseline", Json::F64(base.cpi));
            j.set("cpi.fac", Json::F64(fac.cpi));
            j.set("cpi_stderr.baseline", Json::F64(base.cpi_stderr));
            j.set("cpi_stderr.fac", Json::F64(fac.cpi_stderr));
            j.set("windows", Json::U64(fac.windows.len() as u64));
            j.set("sample_every", Json::U64(spec.every));
            j.set("sample_window", Json::U64(spec.window));
            j.set("speedup", Json::F64(speedup));
            (human, speedup, base.est_cycles)
        }
    };
    let mut c = Json::obj();
    c.set("human", Json::Str(human));
    c.set("row", j);
    c.set("speedup", Json::F64(speedup));
    c.set("weight", Json::U64(weight));
    Ok(c)
}

fn sweep(cx: &Cx, args: &Args) -> Result<Exp, SimError> {
    let tier = parse_tier(args)?;
    let suite = build_suite(cx.scale);
    let mut jobs = JobSet::new();
    for b in &suite {
        jobs.push(format!("snapshot:{}", b.workload.name), move || snapshot_cell(b, tier));
    }
    let (results, wall) = jobs.run_cached_timed(cx.jobs, &cx.opts, cx.cache);
    let (cells, errors) = if cx.opts.keep_going {
        degrade(results)
    } else {
        (strict(results)?, Vec::new())
    };

    let mut human = String::new();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut weights = Vec::new();
    for mut c in cells {
        // A degraded (`null`) cell keeps its row lane — positions stay
        // stable for diffing — but contributes nothing to the averages.
        if c == Json::Null {
            rows.push(Json::Null);
            continue;
        }
        if let Some(Json::Str(line)) = c.take("human") {
            let _ = writeln!(human, "{line}");
        }
        speedups.push(c.get("speedup").and_then(Json::as_f64).unwrap_or(0.0));
        weights.push(c.get("weight").and_then(Json::as_u64).unwrap_or(0));
        rows.push(c.take("row").unwrap_or_else(Json::obj));
    }
    for (job, e) in &errors {
        let _ = writeln!(human, "[degraded] {job}: {e}");
    }
    let mut doc = Json::obj();
    doc.set("benchmark", Json::Str("paper_baseline_sweep".to_string()));
    doc.set("config", Json::Str("paper_baseline vs paper_baseline+fac, sw support on".to_string()));
    doc.set(
        "tier",
        Json::Str(
            match tier {
                Tier::Detail => "detail",
                Tier::Fast => "fast",
                Tier::Sampled(_) => "sampled",
            }
            .to_string(),
        ),
    );
    doc.set("rows", Json::Arr(rows));
    doc.set("speedup.weighted_mean", Json::F64(weighted_mean(&speedups, &weights)));
    if !errors.is_empty() {
        doc.set("errors", errors_json(&errors));
    }
    // Wall-clock lanes are opt-in: default artifacts must stay
    // byte-identical cold vs. resumed and at any --jobs count, and timing
    // is exactly the lane that can't be.
    if cx.timings {
        let _ = writeln!(
            human,
            "cell wall-clock: p50 {:.0} ms, p99 {:.0} ms over {} simulated cells",
            wall.p(0.50),
            wall.p(0.99),
            wall.count()
        );
        doc.set("bench.cell_wall_ms", wall.to_json());
    }
    Ok(Exp { human, json: doc })
}

fn main() -> std::process::ExitCode {
    fac_bench::conclude_with(&[], &["--tier", "--sample-every", "--sample-window"], sweep)
}
