//! The serving workloads: the real `campaign_server` (`serve-warm`) or
//! `campaign_supervisor` with two workers (`fleet-warm`), spawned as child
//! processes and driven by `nproc` client threads of this process.
//!
//! Set-up fills an empty store with a cold sweep, three times on fresh
//! stores; the median is `setup_s`. The measured phase then serves warm
//! sweeps from a freshly started service on the last filled store, so the
//! service's own latency histograms hold store hits only. Each client
//! runs one sweep per connection, as `campaign_client` does, in a cell
//! order drawn from the seed; the first RPC of each connection waits for
//! the service's accept poll and stays in the latency samples.

use crate::gate::ArtifactGate;
use crate::layers;
use crate::report::{Report, Run};
use crate::shuffled;
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use fac_bench::serve::client::{
    cell_request, sweep_artifact, CellError, Client, ResilientClient, RetryPolicy, SweepReport,
};
use fac_bench::serve::proto::{render_request, CellRequest, Request, Response};
use fac_bench::serve::{Endpoint, CONFIG_NAMES};
use fac_bench::telemetry::Hist;
use fac_sim::obs::Json;
use fac_workloads::{suite, Scale};
use std::io::BufRead as _;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cold sweeps in one run's set-up.
const SETUP_REPS: usize = 3;
/// Workers behind the supervisor.
const FLEET_WORKERS: usize = 2;
/// How long a stopping service may drain before it is killed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Per-RPC response deadline (a cold Paper-scale cell takes under a
/// second; this only bounds a hung service).
const RPC_DEADLINE: Duration = Duration::from_secs(120);

/// Which front end serves the cells.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `campaign_server`.
    Direct,
    /// `campaign_supervisor` over [`FLEET_WORKERS`] workers.
    Fleet,
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

fn signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else { return };
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // `pid` is a process this benchmark started (or one its supervisor
    // reported), and a stale pid only makes the call fail.
    unsafe {
        kill(pid, sig);
    }
}

/// Lowers the calling client thread's scheduling priority (nice 10).
///
/// The clients share the host's `nproc` CPUs with the service they load.
/// At equal priority a client busy fingerprinting its next request delays
/// the service thread that should answer the other client's RPC by a
/// scheduler slice, so RPC latency would measure the load generator's
/// competition more than the service. Niced clients yield to the service
/// whenever it has work; they still use every idle cycle.
fn yield_to_service() {
    extern "C" {
        fn gettid() -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: both calls take plain integers and touch no memory of ours;
    // on Linux `setpriority(PRIO_PROCESS, tid, _)` renices only the
    // calling thread, and raising a nice value needs no privilege.
    unsafe {
        let tid = gettid();
        setpriority(PRIO_PROCESS, tid as u32, 10);
    }
}

/// `true` while `pid` exists and is not a zombie.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| s.rsplit_once(") ").map(|(_, rest)| !rest.starts_with('Z')))
        .unwrap_or(false)
}

/// A running service: the child process, its announced endpoint and, for
/// a fleet, its workers' pids and endpoints.
struct Service {
    child: Child,
    /// Held open until the child exits, so its last lines never hit a
    /// closed pipe.
    _stdout: std::io::BufReader<ChildStdout>,
    endpoint: Endpoint,
    workers: Vec<(u32, Endpoint)>,
}

impl Service {
    /// Starts a service on `store`; its log and (for a fleet) its run
    /// directory are named after `tag` and start empty, so nothing a
    /// previous run left behind (a dispatch journal above all) is replayed.
    fn spawn(mode: Mode, run: &Run, store: &str, tag: &str) -> Result<Service, String> {
        let run_dir = format!("{tag}-run");
        std::fs::remove_dir_all(run.work.join(&run_dir)).ok();
        let log = std::fs::File::create(run.work.join(format!("{tag}.log")))
            .map_err(|e| format!("service log: {e}"))?;
        let server = run.bins.join("campaign_server");
        let mut cmd = match mode {
            Mode::Direct => {
                let mut c = Command::new(&server);
                c.args(["--listen", "tcp:127.0.0.1:0", "--store-dir", store]);
                c
            }
            Mode::Fleet => {
                // Clients reach the supervisor over a Unix socket: it
                // writes each response line in two writes, and over TCP
                // a Nagle/delayed-ACK stall of about 40 ms lands on a
                // timing-dependent share of RPCs, which splits the
                // latency distribution in two.
                let mut c = Command::new(run.bins.join("campaign_supervisor"));
                c.args([
                    "--listen",
                    &format!("unix:{tag}.sock"),
                    "--store-dir",
                    store,
                ])
                .args(["--run-dir", &run_dir])
                .args(["--workers", &FLEET_WORKERS.to_string()])
                .arg("--worker-bin")
                .arg(&server);
                c
            }
        };
        // Relative store and run paths keep the workers' Unix socket paths
        // short wherever the checkout lives.
        cmd.current_dir(&run.work)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cmd.get_program().to_string_lossy()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let endpoint = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit_once(" on ")
                .and_then(|(_, ep)| Endpoint::parse("--listen", ep).ok()),
            _ => None,
        };
        let mut svc = Service {
            child,
            _stdout: stdout,
            endpoint: Endpoint::Tcp(String::new()),
            workers: Vec::new(),
        };
        let Some(endpoint) = endpoint else {
            svc.kill();
            return Err(format!(
                "service did not announce its endpoint (got {line:?}); see {tag}.log"
            ));
        };
        svc.endpoint = endpoint;
        if mode == Mode::Fleet {
            svc.workers = match fleet_stats(&svc.endpoint) {
                Some(doc) => workers_of(&doc),
                None => Vec::new(),
            };
            if svc.workers.len() != FLEET_WORKERS {
                svc.kill();
                return Err("fleet did not report its workers".to_string());
            }
        }
        Ok(svc)
    }

    /// Peak resident set of the service's processes, MiB.
    fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.child.id())
            .chain(self.workers.iter().map(|w| w.0))
            .filter_map(|pid| crate::host::peak_rss_mb(Some(pid)))
            .sum()
    }

    /// SIGTERM, then wait for a clean drain (workers included); anything
    /// still running after [`DRAIN_DEADLINE`] is killed.
    fn stop(mut self) -> Result<(), String> {
        signal(self.child.id(), SIGTERM);
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        while self.workers.iter().any(|w| alive(w.0)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained =
            status.is_some_and(|s| s.success()) && !self.workers.iter().any(|w| alive(w.0));
        self.kill();
        if drained {
            Ok(())
        } else {
            Err(format!("service did not drain cleanly (exit {status:?})"))
        }
    }

    fn kill(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        for (pid, _) in &self.workers {
            if alive(*pid) {
                signal(*pid, SIGKILL);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.workers.iter().any(|w| alive(w.0)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.kill();
    }
}

fn fleet_stats(endpoint: &Endpoint) -> Option<Json> {
    match Client::connect(endpoint, RPC_DEADLINE).and_then(|mut c| c.rpc(&Request::FleetStats)) {
        Ok(Response::Fleet(doc)) => Some(doc),
        _ => None,
    }
}

fn stats(endpoint: &Endpoint) -> Option<Json> {
    match Client::connect(endpoint, RPC_DEADLINE).and_then(|mut c| c.rpc(&Request::Stats)) {
        Ok(Response::Stats(doc)) => Some(doc),
        _ => None,
    }
}

fn workers_of(fleet: &Json) -> Vec<(u32, Endpoint)> {
    fleet
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            let pid = u32::try_from(row.get("pid")?.as_u64()?).ok()?;
            let ep = Endpoint::parse("--connect", row.get("endpoint")?.as_str()?).ok()?;
            Some((pid, ep))
        })
        .collect()
}

/// The grid's cells: `(workload, config)` in `campaign_client` order.
fn cells() -> Vec<(fac_workloads::Workload, &'static str)> {
    suite()
        .into_iter()
        .flat_map(|w| CONFIG_NAMES.iter().map(move |c| (w, *c)))
        .collect()
}

/// One served cell as the client saw it.
#[derive(Clone)]
struct Served {
    /// RPC wall-clock, ms.
    ms: f64,
    result: Result<Response, String>,
}

/// Builds the `server_sweep` artifact of a set of served cells (grid
/// order) and returns the number of cells the gate rejects.
fn gate_sweep(gate: &ArtifactGate, served: &[Option<Served>]) -> u64 {
    let cells = cells();
    let mut report = SweepReport {
        rows: Vec::new(),
        trace_ids: Vec::new(),
        errors: Vec::new(),
        fatal: None,
        hits: 0,
        misses: 0,
        coalesces: 0,
        total: served.len(),
        latency: Hist::new(),
    };
    for ((wl, config), s) in cells.iter().zip(served) {
        let sent = format!("sweep.{}.{config}.paper", wl.name);
        match s.as_ref().map(|s| &s.result) {
            Some(Ok(Response::Cell {
                trace_id, result, ..
            })) => {
                report
                    .trace_ids
                    .push(Json::Str(trace_id.clone().unwrap_or(sent)));
                report.rows.push(result.clone());
            }
            other => {
                let message = match other {
                    Some(Err(e)) => e.clone(),
                    Some(Ok(resp)) => format!("unexpected response {resp:?}"),
                    None => "never sent".to_string(),
                };
                eprintln!("perfbench: cell {sent} failed: {message}");
                report.trace_ids.push(Json::Str(sent.clone()));
                report.rows.push(Json::Null);
                report.errors.push((
                    sent,
                    CellError::Transport(fac_sim::SimError::Io {
                        path: "cell".to_string(),
                        message,
                    }),
                ));
            }
        }
    }
    gate.failures(&sweep_artifact(&report, Scale::Paper, false)) as u64
}

fn rpc(client: &mut ResilientClient, req: CellRequest) -> Result<Response, String> {
    match client.rpc(&Request::Cell(req)) {
        Ok(Response::Error { kind, message, .. }) => {
            Err(format!("refused ({}): {message}", kind.token()))
        }
        Ok(resp) => Ok(resp),
        Err(e) => Err(e.to_string()),
    }
}

fn client(endpoint: &Endpoint, seed: u64) -> ResilientClient {
    let policy = RetryPolicy {
        seed,
        ..RetryPolicy::default()
    };
    ResilientClient::new(endpoint.clone(), RPC_DEADLINE, policy)
}

/// The cold sweep: `jobs` clients share one cursor over the grid (in
/// `campaign_client` order), each on one connection. Returns the served
/// cells, grid order.
fn cold_fill(endpoint: &Endpoint, jobs: usize, seed: u64) -> (Vec<Option<Served>>, u64) {
    let grid = cells();
    let next = AtomicUsize::new(0);
    let served = Mutex::new(vec![None; grid.len()]);
    let retries = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for i in 0..jobs {
            let (grid, next, served, retries) = (&grid, &next, &served, &retries);
            s.spawn(move || {
                yield_to_service();
                let mut cl = client(endpoint, seed ^ i as u64);
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some((wl, config)) = grid.get(c) else {
                        break;
                    };
                    let req = cell_request(wl.name, config, Scale::Paper);
                    let t = Instant::now();
                    let result = rpc(&mut cl, req);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    served.lock().expect("served cells poisoned")[c] = Some(Served { ms, result });
                }
                retries.fetch_add(cl.stats.retries as usize, Ordering::Relaxed);
            });
        }
    });
    (
        served.into_inner().expect("served cells poisoned"),
        retries.into_inner() as u64,
    )
}

/// One warm sweep on a fresh connection.
struct WarmSweep {
    wall_s: f64,
    served: Vec<Option<Served>>,
    retries: u64,
}

fn warm_sweep(endpoint: &Endpoint, order: &[usize], seed: u64, tr: &Tracer) -> WarmSweep {
    let grid = cells();
    let mut served: Vec<Option<Served>> = vec![None; grid.len()];
    let started = Instant::now();
    let retries = tr.span("client.sweep", ROOT, None, |sweep| {
        let mut cl = client(endpoint, seed);
        for &c in order {
            let (wl, config) = grid[c];
            let req = tr.span("client.cell_request", sweep, Some(c as u32), |_| {
                cell_request(wl.name, config, Scale::Paper)
            });
            let t = Instant::now();
            let result = tr.span("client.rpc", sweep, Some(c as u32), |_| rpc(&mut cl, req));
            served[c] = Some(Served {
                ms: t.elapsed().as_secs_f64() * 1e3,
                result,
            });
        }
        cl.stats.retries
    });
    WarmSweep {
        wall_s: started.elapsed().as_secs_f64(),
        served,
        retries,
    }
}

/// Cells of a warm sweep that were not store hits: set-up filled the
/// store, so a miss means a hit and a miss would share one percentile.
fn warm_misses(served: &[Option<Served>]) -> u64 {
    served
        .iter()
        .filter(|s| {
            !matches!(
                s,
                Some(Served {
                    result: Ok(Response::Cell { cached: true, .. }),
                    ..
                })
            )
        })
        .count() as u64
}

fn insts_of(served: &[Option<Served>]) -> u64 {
    served
        .iter()
        .flatten()
        .filter_map(|s| match &s.result {
            Ok(Response::Cell { result, .. }) => result.get("insts").and_then(Json::as_u64),
            _ => None,
        })
        .sum()
}

/// Runs a serving workload and reports it.
pub fn run(mode: Mode, gate: &ArtifactGate, run: &Run) -> Result<Report, String> {
    let mut report = Report::new();
    let tag = match mode {
        Mode::Direct => "serve",
        Mode::Fleet => "fleet",
    };
    let mut setup = Vec::new();
    let mut store = String::new();
    let mut retries = 0u64;
    for k in 0..SETUP_REPS {
        if !store.is_empty() {
            std::fs::remove_dir_all(run.work.join(&store)).ok();
        }
        store = format!("{tag}-store-{k}");
        std::fs::remove_dir_all(run.work.join(&store)).ok();
        let svc = Service::spawn(mode, run, &store, &format!("{tag}-cold-{k}"))?;
        let t = Instant::now();
        let (served, r) = cold_fill(&svc.endpoint, run.jobs, run.seed);
        setup.push(t.elapsed().as_secs_f64());
        retries += r;
        report.attempted += served.len() as u64;
        report.failed += gate_sweep(gate, &served);
        svc.stop()?;
    }
    report.e2e("setup_s", median(&setup), setup.len());
    report.keep("setup_s", &setup);

    let svc = Service::spawn(mode, run, &store, &format!("{tag}-warm"))?;
    // One untimed sweep per client first: the service's program cache and
    // the page cache fill, and its requests and responses feed the
    // protocol microbenchmarks of a traced run.
    let warmup: Vec<WarmSweep> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.jobs)
            .map(|i| {
                let order = shuffled(run.seed, u64::MAX - i as u64, cells().len());
                let ep = &svc.endpoint;
                s.spawn(move || {
                    yield_to_service();
                    warm_sweep(ep, &order, run.seed ^ i as u64, &Tracer::off())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    for w in &warmup {
        report.attempted += w.served.len() as u64;
        report.failed += gate_sweep(gate, &w.served) + warm_misses(&w.served);
        retries += w.retries;
    }

    let traced = Tracer::new();
    let budget = Duration::from_secs(run.seconds);
    let started = Instant::now();
    let per_client: Vec<(Vec<WarmSweep>, Vec<WarmSweep>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.jobs)
            .map(|i| {
                let (ep, traced) = (&svc.endpoint, &traced);
                s.spawn(move || {
                    yield_to_service();
                    let off = Tracer::off();
                    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
                    for k in 0u64.. {
                        let tr = if run.trace && k % 2 == 1 {
                            traced
                        } else {
                            &off
                        };
                        let order = shuffled(run.seed, (i as u64) << 32 | k, cells().len());
                        let sweep = warm_sweep(ep, &order, run.seed ^ (i as u64) << 32 ^ k, tr);
                        let last = Duration::from_secs_f64(sweep.wall_s);
                        if tr.is_on() {
                            with_trace.push(sweep);
                        } else {
                            plain.push(sweep);
                        }
                        let enough = !run.trace || !with_trace.is_empty();
                        if enough && started.elapsed() + last > budget {
                            break;
                        }
                    }
                    (plain, with_trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();

    let server_stats: Vec<Json> = match mode {
        Mode::Direct => stats(&svc.endpoint).into_iter().collect(),
        Mode::Fleet => svc.workers.iter().filter_map(|(_, ep)| stats(ep)).collect(),
    };
    let fleet_doc = if mode == Mode::Fleet {
        fleet_stats(&svc.endpoint)
    } else {
        None
    };
    let rss = svc.peak_rss_mb();
    svc.stop()?;

    let all = || per_client.iter().flat_map(|(p, t)| p.iter().chain(t));
    for s in all() {
        report.attempted += s.served.len() as u64;
        report.failed += gate_sweep(gate, &s.served) + warm_misses(&s.served);
        retries += s.retries;
    }
    let plain: Vec<&WarmSweep> = per_client.iter().flat_map(|(p, _)| p).collect();
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let ms = |sweeps: &[&WarmSweep]| -> Vec<f64> {
        sweeps
            .iter()
            .flat_map(|s| s.served.iter().flatten().map(|c| c.ms))
            .collect()
    };
    let plain_ms = ms(&plain);
    report.keep("sweep_s", &walls);
    report.keep("rpc_ms", &plain_ms);
    report.e2e("sweep_s", median(&walls), walls.len());
    // Throughput counts every sweep in the window; a traced run's sweeps
    // are half traced, but a traced run reports no end-to-end metrics.
    let cells_served: usize = all().map(|s| s.served.len()).sum();
    let insts: u64 = all().map(|s| insts_of(&s.served)).sum();
    report.e2e("cells_per_s", cells_served as f64 / window_s, cells_served);
    report.e2e(
        "sim_minst_per_s",
        insts as f64 / window_s / 1e6,
        cells_served,
    );
    report.latency(&plain_ms);
    report.e2e("peak_rss_mb", rss, 1 + svc_workers(mode));

    if run.trace {
        let traced_sweeps: Vec<&WarmSweep> = per_client.iter().flat_map(|(_, t)| t).collect();
        let traced_walls: Vec<f64> = traced_sweeps.iter().map(|s| s.wall_s).collect();
        report.overhead(&walls, &traced_walls, &plain_ms, &ms(&traced_sweeps));
        layers::client_layers(&mut report, &traced, retries);
        layers::program_layers(&mut report, &traced, &suite());
        let grid = cells();
        let requests: Vec<String> = grid
            .iter()
            .map(|(wl, c)| render_request(&Request::Cell(cell_request(wl.name, c, Scale::Paper))))
            .collect();
        let responses: Vec<Response> = warmup
            .iter()
            .flat_map(|w| w.served.iter().flatten())
            .filter_map(|s| s.result.clone().ok())
            .collect();
        layers::proto_layers(&mut report, &traced, &requests, &responses);
        let docs: Vec<(u64, Json)> = warmup[0]
            .served
            .iter()
            .flatten()
            .filter_map(|s| match &s.result {
                Ok(Response::Cell { key, result, .. }) => Some((*key, result.clone())),
                _ => None,
            })
            .collect();
        layers::store_layers(
            &mut report,
            &traced,
            &run.work.join(format!("{tag}-scratch-store")),
            &docs,
        );
        layers::server_layers(&mut report, &server_stats);
        if let Some(doc) = fleet_doc {
            let hop = median(&plain_ms) - layers::weighted_p50(&server_stats, "request_us") / 1e3;
            let lane = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
            report.layer("fleet.hop_ms", hop, plain_ms.len());
            report.layer("fleet.forwarded", lane("forwarded"), 1);
            report.layer("fleet.failovers", lane("failovers"), 1);
        }
        run.write_spans(&traced, "clients");
    }
    std::fs::remove_dir_all(run.work.join(&store)).ok();
    Ok(report)
}

fn svc_workers(mode: Mode) -> usize {
    match mode {
        Mode::Direct => 0,
        Mode::Fleet => FLEET_WORKERS,
    }
}
