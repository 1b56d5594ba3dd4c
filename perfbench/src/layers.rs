//! Per-layer metrics: derived from a traced run's spans and counts, plus
//! microbenchmarks of the calls a layer makes per operation, fed with
//! inputs taken from the Paper-scale programs and the real served traffic.

use crate::inproc::{configs, SPEC};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{LayerTime, Span, Tracer, ROOT};
use fac_asm::{Program, SoftwareSupport};
use fac_bench::serve::proto::{parse_request, parse_response, render_response, Response};
use fac_bench::serve::store::{Lookup, Store};
use fac_bench::MAX_INSTS;
use fac_core::{AddrFields, Predictor};
use fac_mem::Cache;
use fac_sim::obs::Json;
use fac_sim::tier::Functional;
use fac_sim::{
    functional_snapshot, program_fingerprint, ArchState, Machine, MachineConfig, MemRef, SimError,
};
use fac_workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Memory references captured per program for the predictor and cache
/// microbenchmarks (the first ones the program executes).
const REFS_PER_PROGRAM: usize = 1 << 15;

/// Each microbenchmark repeats its pass until this much time has passed
/// and at least [`MIN_PASSES`] passes ran; the median pass is reported.
const PASS_BUDGET: Duration = Duration::from_millis(250);
const MIN_PASSES: usize = 5;

/// Fresh scratch stores the served results are put into, each result
/// once per store, so every timed put creates a new entry.
const PUT_STORES: usize = 3;

fn time_of(times: &BTreeMap<&'static str, LayerTime>, name: &str) -> LayerTime {
    times.get(name).copied().unwrap_or_default()
}

fn mean_ms(t: LayerTime) -> f64 {
    if t.calls == 0 {
        0.0
    } else {
        t.total_ns as f64 / t.calls as f64 / 1e6
    }
}

fn per(n: u64, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Millions of instructions per second from a count and nanoseconds.
fn minst_per_s(insts: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        insts as f64 * 1e3 / ns as f64
    }
}

/// Times `pass` (one batch of `calls` calls into a layer) under a span
/// named `name`; returns the median nanoseconds per call.
fn passes(tr: &Tracer, name: &'static str, calls: usize, mut pass: impl FnMut()) -> (f64, usize) {
    pass();
    let started = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < MIN_PASSES || started.elapsed() < PASS_BUDGET {
        let t = Instant::now();
        tr.span(name, ROOT, None, |_| pass());
        ns.push(t.elapsed().as_nanos() as f64);
        tr.count(name, calls as u64);
    }
    (median(&ns) / calls.max(1) as f64, ns.len() * calls)
}

/// `workloads.build_ms`: mean time of one `Workload::build` in the
/// in-process set-up's spans.
pub fn setup_layers(report: &mut Report, tr: &Tracer) {
    let t = time_of(&tr.layer_times(), "workloads.build");
    report.layer("workloads.build_ms", mean_ms(t), t.calls as usize);
}

/// The two calls `cell_request` makes per cell, replayed over the suite:
/// `Workload::build` at Paper scale with software support on
/// (`workloads.build_ms`), and `program_fingerprint` of each built program
/// (`ckpt.fingerprint_ms`).
pub fn program_layers(report: &mut Report, tr: &Tracer, workloads: &[Workload]) {
    let build = || -> Vec<Program> {
        workloads
            .iter()
            .map(|wl| wl.build(&SoftwareSupport::on(), Scale::Paper))
            .collect()
    };
    let programs = build();
    let (build_ns, builds) = passes(tr, "workloads.build", workloads.len(), || {
        black_box(build());
    });
    let (fp_ns, fps) = passes(tr, "ckpt.fingerprint", programs.len(), || {
        for p in &programs {
            black_box(program_fingerprint(black_box(p)));
        }
    });
    report.layer("workloads.build_ms", build_ns / 1e6, builds);
    report.layer("ckpt.fingerprint_ms", fp_ns / 1e6, fps);
}

/// `par.busy_share` and `par.idle_tail_s`, averaged over traced sweeps:
/// the share of `jobs × sweep wall` the cells kept the pool busy, and the
/// time between the first worker running dry and the sweep's end.
pub fn pool_layers(report: &mut Report, tr: &Tracer, jobs: usize) {
    let spans = tr.spans();
    let (mut share, mut tail, mut n) = (0.0, 0.0, 0usize);
    for sweep in spans.iter().filter(|s| s.name == "par.sweep") {
        let cells: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "par.job" && s.parent == sweep.id)
            .collect();
        let busy: u64 = cells.iter().map(|s| s.dur()).sum();
        let mut lane_end: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &cells {
            let e = lane_end.entry(s.lane).or_default();
            *e = (*e).max(s.end);
        }
        let first_dry = if lane_end.len() < jobs {
            sweep.start
        } else {
            lane_end.values().copied().min().unwrap_or(sweep.start)
        };
        share += busy as f64 / (jobs as f64 * sweep.dur().max(1) as f64);
        tail += sweep.end.saturating_sub(first_dry) as f64 / 1e9;
        n += 1;
    }
    let avg = |x: f64| if n == 0 { 0.0 } else { x / n as f64 };
    report.layer("par.busy_share", avg(share), n);
    report.layer("par.idle_tail_s", avg(tail), n);
}

/// The detailed pipeline's busy time per sweep and its single-thread
/// speed: `sim.run` spans (a whole detailed cell) or `sim.window` spans (a
/// replayed sampled window).
pub fn sim_layers(report: &mut Report, tr: &Tracer, sweeps: usize) {
    let t = tr.layer_times();
    let (run, window) = (time_of(&t, "sim.run"), time_of(&t, "sim.window"));
    let self_ns = run.self_ns + window.self_ns;
    report.layer("sim.detail_busy_s", per(self_ns, sweeps) / 1e9, sweeps);
    report.layer(
        "sim.detail_minst_per_s",
        minst_per_s(tr.counter("sim.insts"), run.total_ns + window.total_ns),
        (run.calls + window.calls) as usize,
    );
}

/// Replays the calls one sweep of `sampled-sweep` makes at its window
/// boundaries, each under its own span, on inputs taken from the programs'
/// own runs: the functional tier walks each program to every window start,
/// where the state is snapshotted (`functional_snapshot`), restored into
/// each configuration's machine (`Machine::restore`) and run for one
/// detailed window (`Session::step`, `Session::finish`); between windows
/// the fast tier runs (`Functional::run`). The sessions are discarded, so
/// the replay times the public calls without re-implementing the
/// estimator.
pub fn replay_sampled(programs: &[Program], tr: &Tracer) -> Result<(), SimError> {
    let cfgs = configs();
    let machines = cfgs.map(|cfg| Machine::new(cfg).with_max_insts(u64::MAX));
    for (w, program) in programs.iter().enumerate() {
        let mut fun = Functional::new(program)
            .with_strict_mem(cfgs[0].strict_mem)
            .with_max_insts(MAX_INSTS);
        while !fun.halted() {
            for (k, (cfg, machine)) in cfgs.iter().zip(&machines).enumerate() {
                let cell = Some((2 * w + k) as u32);
                let snap = tr.span("ckpt.snapshot", ROOT, cell, |_| {
                    functional_snapshot(cfg, program, fun.state())
                });
                tr.count("ckpt.frame_bytes", snap.len() as u64);
                let mut sess = tr.span("ckpt.restore", ROOT, cell, |_| {
                    machine.restore(program, &snap)
                })?;
                let rep = tr.span("sim.window", ROOT, cell, |_| {
                    let mut w = 0;
                    while w < SPEC.window && !sess.halted() && sess.step()? {
                        w += 1;
                    }
                    sess.finish()
                })?;
                tr.count("sim.insts", rep.stats.insts);
                count_sim(tr, &rep.stats);
            }
            fun.run(SPEC.window)?;
            if !fun.halted() {
                let ran = tr.span("tier.fast", ROOT, Some(2 * w as u32), |_| {
                    fun.run(SPEC.every - SPEC.window)
                })?;
                tr.count("tier.fast_insts", ran);
            }
        }
    }
    Ok(())
}

/// The fast tier and the checkpoint codec: `tier.windows` per traced
/// sweep from the windows `run_sampled` reported, the rest from the
/// [`replay_sampled`] spans in `replay`.
pub fn tier_layers(report: &mut Report, traced: &Tracer, sweeps: usize, replay: &Tracer) {
    let t = replay.layer_times();
    let (fast, snap, restore) = (
        time_of(&t, "tier.fast"),
        time_of(&t, "ckpt.snapshot"),
        time_of(&t, "ckpt.restore"),
    );
    report.layer(
        "tier.windows",
        per(traced.counter("tier.windows"), sweeps),
        sweeps,
    );
    report.layer(
        "tier.fast_minst_per_s",
        minst_per_s(replay.counter("tier.fast_insts"), fast.total_ns),
        fast.calls as usize,
    );
    report.layer("ckpt.snapshot_ms", mean_ms(snap), snap.calls as usize);
    report.layer("ckpt.restore_ms", mean_ms(restore), restore.calls as usize);
    report.layer(
        "ckpt.frame_kb",
        per(replay.counter("ckpt.frame_bytes"), snap.calls as usize) / 1024.0,
        snap.calls as usize,
    );
}

/// The first [`REFS_PER_PROGRAM`] memory references of every program.
fn capture_refs(programs: &[Program]) -> Vec<MemRef> {
    let mut refs = Vec::with_capacity(programs.len() * REFS_PER_PROGRAM);
    for p in programs {
        let mut state = ArchState::new(p);
        let mut taken = 0;
        while !state.halted && taken < REFS_PER_PROGRAM {
            let Ok(ex) = state.step(p) else { break };
            if let Some(m) = ex.mem {
                refs.push(m);
                taken += 1;
            }
        }
    }
    refs
}

/// The FAC circuit and the data cache. Counts come from the traced
/// sweeps' own simulation reports (predictions made and failed, cache
/// accesses, per sweep); the per-call times come from replaying the
/// programs' captured reference streams through `Predictor::predict` and
/// `Cache::access` under the Paper FAC machine's geometry.
pub fn core_and_mem(report: &mut Report, programs: &[Program], tr: &Tracer, sweeps: usize) {
    let cfg = MachineConfig::paper_baseline().with_fac();
    let d = cfg.dcache;
    let fields = AddrFields::for_set_associative(d.size_bytes, d.block_bytes, d.ways);
    let predictor = Predictor::new(fields, cfg.fac.map(|f| f.predictor).unwrap_or_default());
    let refs = capture_refs(programs);

    let (predict_ns, predict_calls) = passes(tr, "core.predict", refs.len(), || {
        for r in &refs {
            black_box(predictor.predict(black_box(r.base_value), black_box(r.offset)));
        }
    });
    let (access_ns, access_calls) = passes(tr, "mem.cache_access", refs.len(), || {
        let mut cache = Cache::new(d);
        for r in &refs {
            black_box(cache.access(black_box(r.addr), r.is_store));
        }
    });
    let predictions = tr.counter("core.predictions");
    report.layer("core.predict_ns", predict_ns, predict_calls);
    report.layer("core.predictions", per(predictions, sweeps), sweeps);
    report.layer(
        "core.fac_fail_rate",
        per(tr.counter("core.fac_fails"), predictions as usize),
        predictions as usize,
    );
    report.layer("mem.cache_access_ns", access_ns, access_calls);
    report.layer(
        "mem.dcache_accesses",
        per(tr.counter("mem.dcache_accesses"), sweeps),
        sweeps,
    );
}

/// Counts a simulation report's predictor and cache work at the boundary
/// where the benchmark received it.
pub fn count_sim(tr: &Tracer, stats: &fac_sim::SimStats) {
    tr.count(
        "core.predictions",
        stats.pred_loads.attempts() + stats.pred_stores.attempts(),
    );
    tr.count(
        "core.fac_fails",
        stats.pred_loads.fails() + stats.pred_stores.fails(),
    );
    tr.count("mem.dcache_accesses", stats.dcache.accesses);
}

/// The client's per-cell work in traced sweeps: `cell_request`, the first
/// RPC's excess over a steady hit (dial plus the server's accept-poll
/// wait), and retries.
pub fn client_layers(report: &mut Report, tr: &Tracer, retries: u64) {
    let req = time_of(&tr.layer_times(), "client.cell_request");
    report.layer("client.cell_request_ms", mean_ms(req), req.calls as usize);
    let spans = tr.spans();
    let mut excess = Vec::new();
    for sweep in spans.iter().filter(|s| s.name == "client.sweep") {
        let mut rpcs: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "client.rpc" && s.parent == sweep.id)
            .collect();
        rpcs.sort_by_key(|s| s.start);
        let Some((first, rest)) = rpcs.split_first() else {
            continue;
        };
        let steady: Vec<f64> = rest.iter().map(|s| s.dur() as f64).collect();
        excess.push((first.dur() as f64 - median(&steady)) / 1e6);
    }
    report.layer("client.connect_ms", median(&excess), excess.len());
    report.layer("client.retries", retries as f64, req.calls as usize);
}

/// Protocol parse and render times over the served traffic: the request
/// lines the clients sent and the responses they received.
pub fn proto_layers(report: &mut Report, tr: &Tracer, requests: &[String], responses: &[Response]) {
    let lines: Vec<String> = responses.iter().map(render_response).collect();
    let (parse_req, n1) = passes(tr, "proto.parse_request", requests.len(), || {
        for l in requests {
            let _ = black_box(parse_request(black_box(l)));
        }
    });
    let (render, n2) = passes(tr, "proto.render_response", responses.len(), || {
        for r in responses {
            black_box(render_response(black_box(r)));
        }
    });
    let (parse_resp, n3) = passes(tr, "proto.parse_response", lines.len(), || {
        for l in &lines {
            let _ = black_box(parse_response(black_box(l)));
        }
    });
    report.layer("proto.parse_request_us", parse_req / 1e3, n1);
    report.layer("proto.render_response_us", render / 1e3, n2);
    report.layer("proto.parse_response_us", parse_resp / 1e3, n3);
}

/// Store put and get over the served results, in scratch stores under
/// `dir`: every put is the durable atomic write the server makes on a
/// miss, of a key the store does not hold yet ([`PUT_STORES`] fresh
/// stores, each result put once into each); every get is the verified read
/// the server makes on a hit. A result whose put fails or whose get does
/// not hit is a failed operation.
pub fn store_layers(report: &mut Report, tr: &Tracer, dir: &std::path::Path, docs: &[(u64, Json)]) {
    let mut put_ms = Vec::new();
    let mut bad = vec![false; docs.len()];
    let mut last = None;
    for k in 0..PUT_STORES {
        let path = dir.join(k.to_string());
        std::fs::remove_dir_all(&path).ok();
        let store = match Store::open(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: scratch store: {e}");
                report.failed += 1;
                return;
            }
        };
        for (i, (key, doc)) in docs.iter().enumerate() {
            let t = Instant::now();
            if tr
                .span("store.put", ROOT, None, |_| store.put(*key, doc))
                .is_err()
            {
                bad[i] = true;
            }
            put_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        last = Some(store);
    }
    let store = last.expect("at least one scratch store");
    let (get_ns, gets) = passes(tr, "store.get", docs.len(), || {
        for (i, (key, _)) in docs.iter().enumerate() {
            if !matches!(store.get(black_box(*key)), Ok(Lookup::Hit(_))) {
                bad[i] = true;
            }
        }
    });
    // One operation per result: its puts and every get of it must land.
    report.attempted += docs.len() as u64;
    report.failed += bad.iter().filter(|&&b| b).count() as u64;
    report.layer("store.put_ms", median(&put_ms), put_ms.len());
    report.layer("store.get_us", get_ns / 1e3, gets);
    std::fs::remove_dir_all(dir).ok();
}

/// The `p50` of `latency.<key>` in a server `stats` document.
fn p50(stats: &Json, key: &str) -> (f64, u64) {
    let h = stats.get("latency").and_then(|l| l.get(key));
    let p = h
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let n = h
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    (p, n)
}

/// A count-weighted mean of several servers' `latency.<key>` p50s.
pub fn weighted_p50(stats: &[Json], key: &str) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for s in stats {
        let (p, c) = p50(s, key);
        sum += p * c as f64;
        n += c;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The server's own request phases from its `stats` RPC (one document for
/// a lone server, one per worker for a fleet).
pub fn server_layers(report: &mut Report, stats: &[Json]) {
    let count = |k: &str| {
        stats
            .iter()
            .filter_map(|s| s.get(k).and_then(Json::as_u64))
            .sum::<u64>()
    };
    let (hits, served) = (
        count("hits"),
        count("hits") + count("misses") + count("coalesced"),
    );
    let requests = stats.iter().map(|s| p50(s, "request_us").1).sum::<u64>() as usize;
    report.layer(
        "server.queue_us_p50",
        weighted_p50(stats, "queue_us"),
        requests,
    );
    report.layer(
        "server.serialize_us_p50",
        weighted_p50(stats, "serialize_us"),
        requests,
    );
    report.layer(
        "server.request_us_p50",
        weighted_p50(stats, "request_us"),
        requests,
    );
    report.layer(
        "server.hit_ratio",
        per(hits, served as usize),
        served as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fac_sim::tier::run_sampled;

    #[test]
    fn replay_visits_every_window_run_sampled_measures() {
        // The shortest Paper program: several windows, fast-forwards between.
        let wl = fac_workloads::find("su2cor").expect("su2cor is in the suite");
        let programs = vec![wl.build(&SoftwareSupport::on(), Scale::Paper)];
        let tr = Tracer::new();
        replay_sampled(&programs, &tr).expect("replay runs");
        let t = tr.layer_times();
        let cfgs = configs();
        let (mut windows, mut insts, mut fast) = (0, 0, 0);
        for cfg in &cfgs {
            let r = run_sampled(cfg, &programs[0], SPEC, MAX_INSTS).expect("sampled run");
            windows += r.windows.len() as u64;
            insts += r.measured_insts;
            fast = r.insts - r.measured_insts;
        }
        assert!(windows > 2 && fast > 0);
        for name in ["ckpt.snapshot", "ckpt.restore", "sim.window"] {
            assert_eq!(time_of(&t, name).calls, windows, "{name}");
        }
        assert_eq!(tr.counter("sim.insts"), insts);
        assert_eq!(tr.counter("tier.fast_insts"), fast);
        assert!(tr.counter("ckpt.frame_bytes") > 0);
    }
}
