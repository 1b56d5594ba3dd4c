//! `perfbench` — host-speed benchmark of the FAC reproduction, end to end
//! and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bins <dir>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds everything first). `--bins` names the directory holding
//! the `campaign_server` and `campaign_supervisor` binaries. Every run
//! gates its outputs against the committed references in
//! `perfbench/ref/`, prints a human summary, writes a detailed result (and,
//! traced, its spans) under `perfbench/.work/`, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer ones.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod gate;
mod host;
mod inproc;
mod layers;
mod report;
mod serving;
mod stats;
mod trace;

use fac_core::rng::SplitMix64;
use fac_sim::obs::Json;
use report::{Metric, Report, Run};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper-sweep", "sampled-sweep", "serve-warm", "fleet-warm"];

/// End-to-end metrics and their units (untraced runs).
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units (traced runs). A layer a workload
/// bypasses reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("core.predict_ns", "ns"),
    ("core.predictions", "count"),
    ("core.fac_fail_rate", "ratio"),
    ("mem.cache_access_ns", "ns"),
    ("mem.dcache_accesses", "count"),
    ("sim.detail_minst_per_s", "Minst/s"),
    ("sim.detail_busy_s", "s"),
    ("tier.fast_minst_per_s", "Minst/s"),
    ("tier.windows", "count"),
    ("ckpt.snapshot_ms", "ms"),
    ("ckpt.restore_ms", "ms"),
    ("ckpt.frame_kb", "KiB"),
    ("ckpt.fingerprint_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("par.busy_share", "ratio"),
    ("par.idle_tail_s", "s"),
    ("client.cell_request_ms", "ms"),
    ("client.connect_ms", "ms"),
    ("client.retries", "count"),
    ("proto.parse_request_us", "us"),
    ("proto.render_response_us", "us"),
    ("proto.parse_response_us", "us"),
    ("store.get_us", "us"),
    ("store.put_ms", "ms"),
    ("server.queue_us_p50", "us"),
    ("server.serialize_us_p50", "us"),
    ("server.request_us_p50", "us"),
    ("server.hit_ratio", "ratio"),
    ("fleet.hop_ms", "ms"),
    ("fleet.forwarded", "count"),
    ("fleet.failovers", "count"),
    ("trace.overhead_sweep_s", "s"),
    ("trace.overhead_p50_ms", "ms"),
];

/// A permutation of `0..n` drawn from the workload seed and a stream id
/// (sweep number, client), so every cell order is a function of `--seed`.
pub fn shuffled(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --bins <dir>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bins: PathBuf,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bins) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next()?;
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.contains(&value.as_str()).then_some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--bins" => bins = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        bins: bins?,
    })
}

/// Resolves `path` against the current directory.
fn absolute(path: &Path) -> PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::env::current_dir()
            .map(|d| d.join(path))
            .unwrap_or_else(|_| path.to_path_buf())
    }
}

/// Checks that a report carries exactly the metrics its mode prints.
fn select(
    measured: &[Metric],
    wanted: &[(&'static str, &'static str)],
    zero_missing: bool,
) -> Result<Vec<(Metric, &'static str)>, String> {
    if let Some(extra) = measured
        .iter()
        .find(|m| !wanted.iter().any(|w| w.0 == m.name))
    {
        return Err(format!("metric {} is not declared", extra.name));
    }
    wanted
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => Ok((m.clone(), unit)),
                Some(m) => Err(format!("metric {name} is not finite ({})", m.value)),
                None if zero_missing => Ok((
                    Metric {
                        name,
                        value: 0.0,
                        samples: 0,
                        note: "bypassed".to_string(),
                    },
                    unit,
                )),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let root = absolute(Path::new("."));
    let refs = root.join("perfbench").join("ref");
    let work = root.join("perfbench").join(".work");
    let bins = absolute(&args.bins);
    for bin in ["campaign_server", "campaign_supervisor"] {
        if !bins.join(bin).is_file() {
            eprintln!(
                "perfbench: {} not found; build it first (see perfbench/run.py)",
                bins.join(bin).display()
            );
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::env::set_current_dir(&work)) {
        eprintln!("perfbench: work directory {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        jobs: fac_bench::par::default_jobs(),
        work: work.clone(),
        bins,
    };
    let facts = [
        ("nproc", run.jobs.to_string()),
        ("cpu", host::cpu_model()),
        ("profile", host::build_profile().to_string()),
        ("revision", host::git_revision(&root)),
    ];
    println!(
        "perfbench {} seed={} seconds={} trace={} | {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        facts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let result: Result<Report, String> = match run.workload.as_str() {
        "paper-sweep" => gate::RowGate::load(&refs.join("detail.json"))
            .map(|g| inproc::run(inproc::Tier::Detail, &g, &run)),
        "sampled-sweep" => gate::RowGate::load(&refs.join("sampled.json"))
            .map(|g| inproc::run(inproc::Tier::Sampled, &g, &run)),
        "serve-warm" | "fleet-warm" => gate::ArtifactGate::load(&refs.join("server_sweep.json"))
            .and_then(|g| {
                let mode = if run.workload == "serve-warm" {
                    serving::Mode::Direct
                } else {
                    serving::Mode::Fleet
                };
                serving::run(mode, &g, &run)
            }),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected = if run.trace {
        select(&report.layers, LAYERS, true)
    } else {
        select(&report.e2e, E2E, false)
    };
    let selected = match selected {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut metrics = Json::obj();
    let mut detail = Json::obj();
    for (m, unit) in &selected {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        println!(
            "  {:28} {:>14.6} {:8} n={}{note}",
            m.name, m.value, unit, m.samples
        );
        let mut v = Json::obj();
        v.set("value", Json::F64(m.value));
        v.set("unit", Json::Str(unit.to_string()));
        metrics.set(m.name, v.clone());
        v.set("samples", Json::U64(m.samples as u64));
        if !m.note.is_empty() {
            v.set("note", Json::Str(m.note.clone()));
        }
        detail.set(m.name, v);
    }
    println!(
        "  operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    let mut out = Json::obj();
    out.set(
        "correct",
        Json::Bool(report.failed == 0 && report.attempted > 0),
    );
    out.set("attempted", Json::U64(report.attempted.max(1)));
    out.set("failed", Json::U64(report.failed));
    out.set("metrics", metrics);

    let mut record = Json::obj();
    record.set("correct", out.get("correct").cloned().unwrap_or(Json::Null));
    record.set("attempted", Json::U64(report.attempted));
    record.set("failed", Json::U64(report.failed));
    record.set("metrics", detail);
    record.set("workload", Json::Str(run.workload.clone()));
    record.set("seed", Json::U64(run.seed));
    record.set("seconds", Json::U64(run.seconds));
    record.set("trace", Json::Bool(run.trace));
    let mut host_doc = Json::obj();
    for (k, v) in &facts {
        host_doc.set(k, Json::Str(v.clone()));
    }
    record.set("host", host_doc);
    let mut raw = Json::obj();
    for (name, samples) in &report.raw {
        raw.set(
            name,
            Json::Arr(samples.iter().map(|&v| Json::F64(v)).collect()),
        );
    }
    record.set("samples", raw);
    let path = work.join(format!(
        "result-{}-trace{}.json",
        run.workload,
        u8::from(run.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_pretty(2) + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(7, 0, 38);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..38).collect::<Vec<_>>());
        assert_eq!(a, shuffled(7, 0, 38), "same seed, same order");
        assert_ne!(a, shuffled(8, 0, 38), "another seed, another order");
        assert_ne!(a, shuffled(7, 1, 38), "another stream, another order");
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = fac_sim::obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(E2E));
        assert_eq!(names("per_layer"), own(LAYERS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
