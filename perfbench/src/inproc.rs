//! The in-process workloads: the 19×2 Paper-scale grid through the
//! `fac_bench::par` pool, on the detailed pipeline (`paper-sweep`) or
//! under SMARTS-style sampling (`sampled-sweep`).
//!
//! Rows are assembled exactly as `bench_snapshot` assembles them and gated
//! against its committed artifacts. Cell `2w + k` is workload `w` of the
//! suite under configuration `k` (0 baseline, 1 FAC), the order
//! `campaign_client` sweeps in.

use crate::gate::RowGate;
use crate::report::{Report, Run};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::{layers, shuffled};
use fac_asm::{Program, SoftwareSupport};
use fac_bench::par::{JobSet, RunOptions};
use fac_bench::MAX_INSTS;
use fac_sim::tier::{run_sampled, SampleSpec};
use fac_sim::{Machine, MachineConfig, SimError};
use fac_workloads::{suite, Scale, Workload};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `bench_snapshot --tier sampled`'s default regime.
pub const SPEC: SampleSpec = SampleSpec {
    every: 100_000,
    window: 10_000,
};

/// Set-up is timed in batches: one before the first sweep and one after
/// every sweep, each repeated until [`SETUP_BATCH`] has passed (and at
/// least [`SETUP_MIN_REPS`] times); the median over every batch is
/// reported. One suite build takes a few milliseconds, so a single sample
/// is mostly noise, and the host's speed drifts in phases of a few
/// seconds, so one contiguous batch would report whichever phase it
/// happened to fall in.
const SETUP_BATCH: Duration = Duration::from_millis(100);
const SETUP_MIN_REPS: usize = 9;

/// Which tier the grid runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `Machine::run`, full detail.
    Detail,
    /// `run_sampled` under [`SPEC`].
    Sampled,
}

/// The grid's two configurations: baseline, then FAC.
pub fn configs() -> [MachineConfig; 2] {
    [
        MachineConfig::paper_baseline(),
        MachineConfig::paper_baseline().with_fac(),
    ]
}

/// The suite's Paper-scale programs, §4 software support on.
pub struct Suite {
    /// Workload descriptors, suite order.
    pub workloads: Vec<Workload>,
    /// Their built programs.
    pub programs: Vec<Program>,
}

/// Builds the suite once, one `workloads.build` span per program.
pub fn build_suite(tr: &Tracer) -> Suite {
    let workloads = suite();
    let programs = workloads
        .iter()
        .enumerate()
        .map(|(w, wl)| {
            tr.span("workloads.build", ROOT, Some(w as u32), |_| {
                wl.build(&SoftwareSupport::on(), Scale::Paper)
            })
        })
        .collect();
    Suite {
        workloads,
        programs,
    }
}

/// One set-up batch: repeats [`build_suite`], appends every set-up time
/// (seconds) to `samples` and returns the last suite.
pub fn timed_setup(tr: &Tracer, samples: &mut Vec<f64>) -> Suite {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let built = build_suite(tr);
        samples.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MIN_REPS && started.elapsed() >= SETUP_BATCH {
            return built;
        }
    }
}

/// What one cell produced: the lanes its half of a row needs.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Detail {
        insts: u64,
        cycles: u64,
        ipc: f64,
        load_fail: f64,
        store_fail: f64,
        bw: f64,
    },
    Sampled {
        insts: u64,
        est_cycles: u64,
        cpi: f64,
        cpi_stderr: f64,
        windows: u64,
    },
}

impl Cell {
    fn insts(&self) -> u64 {
        match *self {
            Cell::Detail { insts, .. } | Cell::Sampled { insts, .. } => insts,
        }
    }
}

/// One grid cell on the detailed pipeline.
fn detail_cell(
    cfg: &MachineConfig,
    program: &Program,
    tr: &Tracer,
    parent: u64,
    cell: u32,
) -> Result<Cell, SimError> {
    let r = tr.span("sim.run", parent, Some(cell), |_| {
        Machine::new(*cfg).with_max_insts(MAX_INSTS).run(program)
    })?;
    tr.count("sim.insts", r.stats.insts);
    layers::count_sim(tr, &r.stats);
    Ok(Cell::Detail {
        insts: r.stats.insts,
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        load_fail: r.stats.pred_loads.fail_rate_all(),
        store_fail: r.stats.pred_stores.fail_rate_all(),
        bw: r.stats.bandwidth_overhead(),
    })
}

/// One grid cell under sampling: one `run_sampled` call.
fn sampled_cell(
    cfg: &MachineConfig,
    program: &Program,
    tr: &Tracer,
    parent: u64,
    cell: u32,
) -> Result<Cell, SimError> {
    let r = tr.span("tier.run_sampled", parent, Some(cell), |_| {
        run_sampled(cfg, program, SPEC, MAX_INSTS)
    })?;
    tr.count("tier.windows", r.windows.len() as u64);
    Ok(Cell::Sampled {
        insts: r.insts,
        est_cycles: r.est_cycles,
        cpi: r.cpi,
        cpi_stderr: r.cpi_stderr,
        windows: r.windows.len() as u64,
    })
}

/// The `bench_snapshot` row of workload `wl` from its baseline and FAC
/// cells.
fn row(wl: &Workload, base: &Cell, fac: &Cell) -> fac_sim::obs::Json {
    use fac_sim::obs::Json;
    let mut j = Json::obj();
    j.set("program", Json::Str(wl.name.to_string()));
    j.set(
        "kind",
        Json::Str(if wl.fp { "fp" } else { "int" }.to_string()),
    );
    match (*base, *fac) {
        (
            Cell::Detail {
                cycles: bc,
                ipc: bi,
                ..
            },
            Cell::Detail {
                cycles: fc,
                ipc: fi,
                load_fail,
                store_fail,
                bw,
                ..
            },
        ) => {
            j.set("cycles.baseline", Json::U64(bc));
            j.set("cycles.fac", Json::U64(fc));
            j.set("ipc.baseline", Json::F64(bi));
            j.set("ipc.fac", Json::F64(fi));
            j.set("speedup", Json::F64(bc as f64 / fc as f64));
            j.set("load_fail_rate", Json::F64(load_fail));
            j.set("store_fail_rate", Json::F64(store_fail));
            j.set("bandwidth_overhead", Json::F64(bw));
        }
        (
            Cell::Sampled {
                est_cycles: be,
                cpi: bcpi,
                cpi_stderr: bse,
                ..
            },
            Cell::Sampled {
                insts,
                est_cycles: fe,
                cpi: fcpi,
                cpi_stderr: fse,
                windows,
            },
        ) => {
            j.set("insts", Json::U64(insts));
            j.set("est_cycles.baseline", Json::U64(be));
            j.set("est_cycles.fac", Json::U64(fe));
            j.set("cpi.baseline", Json::F64(bcpi));
            j.set("cpi.fac", Json::F64(fcpi));
            j.set("cpi_stderr.baseline", Json::F64(bse));
            j.set("cpi_stderr.fac", Json::F64(fse));
            j.set("windows", Json::U64(windows));
            j.set("sample_every", Json::U64(SPEC.every));
            j.set("sample_window", Json::U64(SPEC.window));
            j.set("speedup", Json::F64(be as f64 / fe.max(1) as f64));
        }
        _ => unreachable!("both cells of a row run on one tier"),
    }
    j
}

/// One sweep's outcome.
struct Sweep {
    wall_s: f64,
    /// Per-cell wall-clock, ms, in completion-independent grid order.
    cell_ms: Vec<f64>,
    insts: u64,
    failed: u64,
}

/// Runs the whole grid once through the pool, cells submitted in
/// `order`, and gates every row.
fn sweep(
    suite: &Suite,
    tier: Tier,
    order: &[usize],
    jobs: usize,
    gate: &RowGate,
    tr: &Tracer,
) -> Sweep {
    let cfgs = configs();
    let timings = Mutex::new(vec![0.0f64; order.len()]);
    let started = Instant::now();
    let outcomes = tr.span("par.sweep", ROOT, None, |sweep_id| {
        let mut set = JobSet::new();
        for &c in order {
            let (program, cfg, timings) = (&suite.programs[c / 2], &cfgs[c % 2], &timings);
            set.push(format!("cell:{c}"), move || {
                let t = Instant::now();
                let out = tr.span("par.job", sweep_id, Some(c as u32), |job| match tier {
                    Tier::Detail => detail_cell(cfg, program, tr, job, c as u32),
                    Tier::Sampled => sampled_cell(cfg, program, tr, job, c as u32),
                });
                timings.lock().expect("cell timings poisoned")[c] = t.elapsed().as_secs_f64() * 1e3;
                out.map(|cell| (c, cell))
            });
        }
        set.run_each(jobs, &RunOptions::default())
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut cells: Vec<Option<Cell>> = vec![None; order.len()];
    let mut failed = 0u64;
    for (name, outcome) in outcomes {
        match outcome {
            Ok((c, cell)) => cells[c] = Some(cell),
            Err(e) => eprintln!("perfbench: {name} failed: {e}"),
        }
    }
    for (w, wl) in suite.workloads.iter().enumerate() {
        let ok = match (&cells[2 * w], &cells[2 * w + 1]) {
            (Some(b), Some(f)) => gate.check(w, &row(wl, b, f)),
            _ => false,
        };
        if !ok {
            eprintln!(
                "perfbench: row {} ({}) differs from the reference",
                w, wl.name
            );
            failed += 2;
        }
    }
    Sweep {
        wall_s,
        cell_ms: timings.into_inner().expect("cell timings poisoned"),
        insts: cells.iter().flatten().map(Cell::insts).sum(),
        failed,
    }
}

/// Each cell's median wall-clock over `sweeps`, ms. Latency percentiles
/// are taken over these, one sample per cell: a cell's time depends on
/// which cell shares the host with it, and the median over the run's
/// differently ordered sweeps keeps that pairing out of the percentiles.
fn per_cell_ms(sweeps: &[Sweep], cells: usize) -> Vec<f64> {
    (0..cells)
        .map(|c| median(&sweeps.iter().map(|s| s.cell_ms[c]).collect::<Vec<_>>()))
        .collect()
}

/// Runs an in-process workload for `run.seconds` and reports it.
pub fn run(tier: Tier, gate: &RowGate, run: &Run) -> Report {
    let mut report = Report::new();
    let setup_tr = if run.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let mut setup = Vec::new();
    let suite = timed_setup(&setup_tr, &mut setup);

    let traced = Tracer::new();
    let off = Tracer::off();
    let mut plain: Vec<Sweep> = Vec::new();
    let mut with_trace: Vec<Sweep> = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs(run.seconds);
    for k in 0u64.. {
        // A traced run alternates untraced and traced sweeps, so the
        // difference between the two is the tracing overhead.
        let tr = if run.trace && k % 2 == 1 {
            &traced
        } else {
            &off
        };
        let order = shuffled(run.seed, k, 2 * suite.workloads.len());
        let s = sweep(&suite, tier, &order, run.jobs, gate, tr);
        report.attempted += order.len() as u64;
        report.failed += s.failed;
        let last = Duration::from_secs_f64(s.wall_s);
        if tr.is_on() {
            with_trace.push(s);
        } else {
            plain.push(s);
        }
        timed_setup(&setup_tr, &mut setup);
        let enough = !run.trace || !with_trace.is_empty();
        if enough && started.elapsed() + last > budget {
            break;
        }
    }
    report.e2e("setup_s", median(&setup), setup.len());
    report.keep("setup_s", &setup);

    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let wall: f64 = walls.iter().sum();
    let insts: u64 = plain.iter().map(|s| s.insts).sum();
    let cells = 2 * suite.workloads.len();
    let cell_ms = per_cell_ms(&plain, cells);
    report.keep("sweep_s", &walls);
    report.keep(
        "cell_ms",
        &plain
            .iter()
            .flat_map(|s| s.cell_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    report.e2e("sweep_s", median(&walls), walls.len());
    report.e2e("sim_minst_per_s", insts as f64 / wall / 1e6, walls.len());
    report.e2e(
        "cells_per_s",
        (cells * plain.len()) as f64 / wall,
        walls.len(),
    );
    report.latency(&cell_ms);
    report.e2e(
        "peak_rss_mb",
        crate::host::peak_rss_mb(None).unwrap_or(0.0),
        1,
    );

    if run.trace {
        let traced_walls: Vec<f64> = with_trace.iter().map(|s| s.wall_s).collect();
        let traced_ms = per_cell_ms(&with_trace, cells);
        report.overhead(&walls, &traced_walls, &cell_ms, &traced_ms);
        layers::setup_layers(&mut report, &setup_tr);
        layers::pool_layers(&mut report, &traced, run.jobs);
        match tier {
            Tier::Detail => {
                layers::sim_layers(&mut report, &traced, with_trace.len());
                layers::core_and_mem(&mut report, &suite.programs, &traced, with_trace.len());
            }
            Tier::Sampled => {
                // One sweep's worth of window-boundary calls, replayed.
                let replay = Tracer::new();
                report.attempted += 1;
                if let Err(e) = layers::replay_sampled(&suite.programs, &replay) {
                    eprintln!("perfbench: sampled replay failed: {e}");
                    report.failed += 1;
                }
                layers::sim_layers(&mut report, &replay, 1);
                layers::core_and_mem(&mut report, &suite.programs, &replay, 1);
                layers::tier_layers(&mut report, &traced, with_trace.len(), &replay);
                run.write_spans(&replay, "replay");
            }
        }
        run.write_spans(&traced, "sweep");
    }
    report
}
