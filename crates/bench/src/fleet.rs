//! Fleet supervision: N `campaign_server` worker processes behind one
//! routing supervisor (DESIGN.md §15).
//!
//! PR 6–9 hardened a single server process against bad input, crashes,
//! and faulty I/O; this module survives the *process itself* dying. The
//! supervisor owns the workers end to end:
//!
//! - **Spawn & own**: each worker is a `campaign_server` child on its
//!   own Unix socket, all sharing one content-addressed store directory.
//! - **Route**: cell requests are routed by rendezvous (highest random
//!   weight) hashing over the cell identity digest — stable under
//!   worker death, no ring to rebalance — with automatic inline
//!   failover to the next-ranked live worker.
//! - **Heartbeat**: every `heartbeat_ms` the supervisor pings each
//!   worker over the campaign protocol; `miss_budget` consecutive
//!   misses gets the worker killed and restarted.
//! - **Restart with backoff**: respawns are paced by the seeded
//!   [`Backoff`] from the chaos module, and a worker that restarts
//!   `quarantine_after` times within `quarantine_window_secs` is
//!   quarantined (typed [`SimError::WorkerQuarantined`]) instead of
//!   crash-looping forever.
//! - **Recovery without a journal**: no cell is lost to a dead worker or
//!   a dead supervisor, and nothing records in-flight work to get there.
//!   A forward that breaks fails over inline to the next rendezvous
//!   choice, so the client that was waiting still gets its answer. The
//!   content-addressed store makes every re-sent cell a hit or a
//!   coalesced wait, never a second result. A client that lost the
//!   supervisor itself re-sends by trace id once a new one is up.
//! - **Rolling drain**: SIGTERM to the supervisor drains workers one at
//!   a time, so serving capacity never hits zero until the end.
//!
//! The supervisor speaks the same line protocol as a worker: `ping`,
//! aggregated `stats`, per-worker `fleet-stats`, and transparent `cell`
//! forwarding — a `ResilientClient` pointed at the supervisor cannot
//! tell it is not a single server, except that it survives `kill -9`.
//!
//! **Metrics** come from two tables ([`crate::telemetry::Metric`]). The
//! supervisor's own `METRICS` table renders the `fleet` object of `stats`,
//! the top of `fleet-stats` and `/metrics`. The aggregated `stats` walks
//! the *server's* table over the workers' own `stats`: counters and the
//! load gauges are summed, the shared store's size comes from one
//! worker, `store_degraded` is set if any worker sets it, and latency
//! histograms stay per worker.

use crate::chaos::Backoff;
use crate::serve::client::Client;
use crate::serve::proto::{
    parse_request, read_line, render_response, write_line, ErrorKind, LineEvent, Request,
    Response,
};
use crate::serve::server::{self, lock, Shutdown};
use crate::serve::{cell_identity, Conn, Endpoint, Listener};
use crate::telemetry::{self, spawn_health_endpoint, Kind, Metric};
use fac_core::rng::splitmix64;
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::obs::Json;
use fac_sim::SimError;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked loops wake to check flags.
const POLL: Duration = Duration::from_millis(50);

/// How long `Fleet::start` waits for the initial fleet to answer pings.
const BOOT_DEADLINE: Duration = Duration::from_secs(30);

/// How long a drained worker gets to exit on SIGTERM before SIGKILL.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Raw `kill(2)`: the drain path needs SIGTERM and the miss-budget path
/// SIGKILL, both aimed at child pids std's `Child` API can also signal —
/// but only with SIGKILL, and only synchronously.
fn send_signal(pid: i32, sig: i32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if pid <= 0 {
        return false;
    }
    // SAFETY: kill(2) takes two plain integers and touches no memory.
    unsafe { kill(pid, sig) == 0 }
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Knobs for a supervised fleet.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker processes to spawn (at least 1).
    pub workers: usize,
    /// The `campaign_server` binary to spawn workers from.
    pub worker_bin: PathBuf,
    /// The shared content-addressed store directory.
    pub store_dir: PathBuf,
    /// Runtime directory: worker sockets and worker logs.
    pub run_dir: PathBuf,
    /// Heartbeat ping interval, milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive heartbeat misses before a worker is killed and
    /// restarted.
    pub miss_budget: u32,
    /// Seed for restart-backoff jitter.
    pub seed: u64,
    /// First restart delay, milliseconds.
    pub backoff_base_ms: u64,
    /// Restart delay ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Restarts within the window that quarantine a worker.
    pub quarantine_after: u32,
    /// The crash-loop detection window, seconds.
    pub quarantine_window_secs: u64,
    /// Deadline for one forwarded RPC, seconds.
    pub request_timeout_secs: u64,
    /// Pass `--test-cells` to workers (integration/soak tests).
    pub test_cells: bool,
    /// Store-scrubber interval for worker 0, seconds (0 disables; one
    /// scrubber per fleet is enough — the store is shared).
    pub scrub_interval_secs: u64,
    /// Aggregated health/metrics HTTP listener (`host:port`), if any.
    pub metrics_addr: Option<String>,
}

impl FleetOptions {
    /// Defaults sized for a local fleet: 3 workers, half-second
    /// heartbeats, quarantine after 5 restarts in 30 s.
    pub fn new(
        worker_bin: impl Into<PathBuf>,
        store_dir: impl Into<PathBuf>,
        run_dir: impl Into<PathBuf>,
    ) -> FleetOptions {
        FleetOptions {
            workers: 3,
            worker_bin: worker_bin.into(),
            store_dir: store_dir.into(),
            run_dir: run_dir.into(),
            heartbeat_ms: 500,
            miss_budget: 3,
            seed: 0,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            quarantine_after: 5,
            quarantine_window_secs: 30,
            request_timeout_secs: 600,
            test_cells: false,
            scrub_interval_secs: 0,
            metrics_addr: None,
        }
    }
}

/// A worker's position in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Spawned, not yet seen answering a ping.
    Starting,
    /// Answering heartbeats.
    Up,
    /// Missing heartbeats (carries the consecutive miss count).
    Suspect(u32),
    /// Dead; will be respawned at the carried deadline.
    Restarting,
    /// Crash-looped past the quarantine threshold; never respawned.
    Quarantined,
}

impl WorkerState {
    fn token(self) -> &'static str {
        match self {
            WorkerState::Starting => "starting",
            WorkerState::Up => "up",
            WorkerState::Suspect(_) => "suspect",
            WorkerState::Restarting => "restarting",
            WorkerState::Quarantined => "quarantined",
        }
    }

    /// Routable: a forward may be attempted (the socket may answer).
    fn routable(self) -> bool {
        matches!(self, WorkerState::Starting | WorkerState::Up | WorkerState::Suspect(_))
    }
}

/// One supervised worker process.
struct Worker {
    index: usize,
    endpoint: Endpoint,
    log_path: PathBuf,
    child: Option<Child>,
    pid: i32,
    state: WorkerState,
    /// When the current incarnation was spawned.
    started_at: Instant,
    /// When a `Restarting` worker is due to respawn.
    restart_at: Instant,
    /// Total restarts (not counting the initial spawn).
    restarts: u32,
    /// Restart timestamps inside the quarantine window.
    recent_restarts: Vec<Instant>,
    backoff: Backoff,
    /// Cells forwarded to this worker.
    forwarded: u64,
}

impl Worker {
    /// A rendering suitable for errors and logs:
    /// `"worker-2 (unix:/run/fleet/worker-2.sock)"`.
    fn label(&self) -> String {
        format!("worker-{} ({})", self.index, self.endpoint)
    }
}

/// Supervisor-level monotonic counters. What each one counts is the HELP
/// text of its row in [`METRICS`].
#[derive(Debug, Default)]
struct FleetCounters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    restarts: AtomicU64,
    quarantined: AtomicU64,
    heartbeat_misses: AtomicU64,
    unrouted: AtomicU64,
}

/// The supervisor's metrics table: every supervision metric once. The
/// `fleet` object of `stats`, the top of `fleet-stats` and `/metrics`
/// are rendered from it; the workers' own metrics come from the server's
/// table ([`server::METRICS`]).
static METRICS: &[Metric<Shared>] = &[
    Metric::new("workers", Kind::Gauge(|s| s.alive().1 as u64),
        0, "facfleet_workers", None, "Configured fleet size."),
    Metric::new("alive", Kind::Gauge(|s| s.alive().0 as u64),
        1, "facfleet_workers_alive", None, "Workers in a routable state."),
    Metric::new("quorum", Kind::Flag(Shared::quorum),
        2, "facfleet_quorum", None, "1 when a majority of workers is routable."),
    Metric::new("requests", Kind::Counter(|s| &s.counters.requests),
        3, "facfleet_requests_total", None, "Client requests accepted."),
    Metric::new("forwarded", Kind::Counter(|s| &s.counters.forwarded),
        4, "facfleet_forwarded_total", None, "Cell forwards attempted."),
    Metric::new("failovers", Kind::Counter(|s| &s.counters.failovers),
        5, "facfleet_failovers_total", None, "Inline forward failovers."),
    Metric::new("restarts", Kind::Counter(|s| &s.counters.restarts),
        6, "facfleet_restarts_total", None, "Worker respawns."),
    Metric::new("quarantined", Kind::Counter(|s| &s.counters.quarantined),
        7, "facfleet_quarantined_total", None, "Workers quarantined for crash-looping."),
    Metric::new("heartbeat_misses", Kind::Counter(|s| &s.counters.heartbeat_misses),
        8, "facfleet_heartbeat_misses_total", None, "Heartbeat pings that went unanswered."),
    Metric::new("unrouted", Kind::Counter(|s| &s.counters.unrouted),
        9, "facfleet_unrouted_total", None, "Cells refused because no worker was reachable."),
];

/// State shared between the accept loop, per-client threads, the
/// supervision thread, and the metrics listener.
struct Shared {
    opts: FleetOptions,
    workers: Mutex<Vec<Worker>>,
    counters: FleetCounters,
    started: Instant,
    shutdown: Shutdown,
}

impl Shared {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Live workers (routable states) out of the total.
    fn alive(&self) -> (usize, usize) {
        let workers = lock(&self.workers);
        let alive = workers.iter().filter(|w| w.state.routable()).count();
        (alive, workers.len())
    }

    /// Majority quorum over the configured fleet size.
    fn quorum(&self) -> bool {
        let (alive, total) = self.alive();
        alive > total / 2
    }
}

/// A running fleet: supervisor listener plus its worker processes.
pub struct Fleet {
    shared: Arc<Shared>,
    listener: Listener,
    supervision: Option<std::thread::JoinHandle<()>>,
    metrics: Option<std::net::TcpListener>,
}

impl Fleet {
    /// Spawns the workers and binds the supervisor endpoint. Returns once
    /// every worker answered a ping (or the boot deadline passed — a
    /// worker that cannot boot at all is a startup error, not a runtime
    /// restart case).
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when directories, sockets, or worker processes
    /// cannot be created; the typed worker error when no worker comes up.
    pub fn start(endpoint: &Endpoint, opts: FleetOptions) -> Result<Fleet, SimError> {
        if opts.workers == 0 {
            return Err(SimError::Io {
                path: "fleet".to_string(),
                message: "a fleet needs at least one worker".to_string(),
            });
        }
        std::fs::create_dir_all(&opts.run_dir)
            .map_err(|e| SimError::io(&opts.run_dir.display().to_string(), e))?;
        std::fs::create_dir_all(&opts.store_dir)
            .map_err(|e| SimError::io(&opts.store_dir.display().to_string(), e))?;

        let mut workers = Vec::with_capacity(opts.workers);
        for index in 0..opts.workers {
            let mut worker = Worker {
                index,
                endpoint: Endpoint::Unix(opts.run_dir.join(format!("worker-{index}.sock"))),
                log_path: opts.run_dir.join(format!("worker-{index}.log")),
                child: None,
                pid: 0,
                state: WorkerState::Starting,
                started_at: Instant::now(),
                restart_at: Instant::now(),
                restarts: 0,
                recent_restarts: Vec::new(),
                backoff: Backoff::new(
                    opts.seed ^ index as u64,
                    opts.backoff_base_ms,
                    opts.backoff_cap_ms,
                ),
                forwarded: 0,
            };
            if let Err(e) = spawn_worker(&opts, &mut worker) {
                kill_workers(&mut workers);
                return Err(e);
            }
            workers.push(worker);
        }

        let listener = match Listener::bind(endpoint) {
            Ok(l) => l,
            Err(e) => {
                kill_workers(&mut workers);
                return Err(e);
            }
        };
        let metrics = match &opts.metrics_addr {
            None => None,
            Some(addr) => match std::net::TcpListener::bind(addr) {
                Ok(l) => Some(l),
                Err(e) => {
                    kill_workers(&mut workers);
                    return Err(SimError::io(&format!("tcp:{addr}"), e));
                }
            },
        };

        let shared = Arc::new(Shared {
            opts,
            workers: Mutex::new(workers),
            counters: FleetCounters::default(),
            started: Instant::now(),
            shutdown: Shutdown::new(),
        });

        if let Err(e) = wait_for_boot(&shared) {
            kill_workers(&mut lock(&shared.workers));
            return Err(e);
        }

        let supervision = {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || supervise(&shared)))
        };
        Ok(Fleet { shared, listener, supervision, metrics })
    }

    /// The endpoint clients should dial.
    pub fn endpoint(&self) -> Endpoint {
        self.listener.endpoint()
    }

    /// The metrics listener's resolved address, when configured.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A handle that triggers the rolling drain from any thread or
    /// signal handler.
    pub fn shutdown_handle(&self) -> Shutdown {
        self.shared.shutdown.clone()
    }

    /// The pids of currently-running workers — the chaos
    /// [`crate::chaos::WorkerReaper`]'s victim feed in soak tests.
    pub fn worker_pids(&self) -> Vec<i32> {
        lock(&self.shared.workers)
            .iter()
            .filter(|w| w.child.is_some() && w.state.routable())
            .map(|w| w.pid)
            .collect()
    }

    /// Serves until the shutdown flag is raised, then drains the
    /// workers one at a time (rolling: capacity never hits zero until
    /// the last worker) and exits.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the accept loop breaks unrecoverably.
    pub fn run(mut self) -> Result<(), SimError> {
        let label = self.endpoint().to_string();
        self.listener.set_nonblocking(true).map_err(|e| SimError::io(&label, e))?;
        let metrics_thread = self.metrics.take().map(|listener| {
            let (ready, render) = (Arc::clone(&self.shared), Arc::clone(&self.shared));
            spawn_health_endpoint(
                listener,
                self.shared.shutdown.clone(),
                move || if ready.quorum() { Ok(()) } else { Err("no fleet quorum") },
                move || telemetry::exposition(METRICS, render.as_ref()),
            )
        });
        let mut clients: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.is_set() {
            match self.listener.accept() {
                Ok(conn) => {
                    let shared = Arc::clone(&self.shared);
                    clients.push(std::thread::spawn(move || handle_client(&shared, conn)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SimError::io(&label, e)),
            }
            clients.retain(|c| !c.is_finished());
        }
        // Stop accepting, let in-flight clients finish, then drain the
        // workers one at a time.
        for c in clients {
            c.join().ok();
        }
        if let Some(t) = self.supervision.take() {
            t.join().ok();
        }
        if let Some(m) = metrics_thread {
            m.join().ok();
        }
        drain_workers(&self.shared);
        Ok(())
    }
}

/// Spawns (or respawns) a worker process onto its socket, stdout/stderr
/// appended to its log file.
fn spawn_worker(opts: &FleetOptions, worker: &mut Worker) -> Result<(), SimError> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&worker.log_path)
        .map_err(|e| SimError::io(&worker.log_path.display().to_string(), e))?;
    let err_log = log.try_clone().map_err(|e| SimError::io(&worker.log_path.display().to_string(), e))?;
    let mut cmd = Command::new(&opts.worker_bin);
    cmd.arg("--listen")
        .arg(worker.endpoint.to_string())
        .arg("--store-dir")
        .arg(&opts.store_dir)
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(err_log))
        .stdin(Stdio::null());
    if opts.test_cells {
        cmd.arg("--test-cells");
    }
    // One scrubber per fleet: the store is shared, so worker 0 scrubbing
    // covers everyone's frames.
    if worker.index == 0 && opts.scrub_interval_secs > 0 {
        cmd.arg("--scrub-interval-secs").arg(opts.scrub_interval_secs.to_string());
    }
    let child = cmd.spawn().map_err(|e| SimError::io(&opts.worker_bin.display().to_string(), e))?;
    worker.pid = child.id() as i32;
    worker.child = Some(child);
    worker.state = WorkerState::Starting;
    worker.started_at = Instant::now();
    Ok(())
}

/// Kills and reaps every spawned child: the bail-out path when
/// [`Fleet::start`] fails after workers already exist, so a failed boot
/// never leaks `campaign_server` processes holding the store directory
/// and stale sockets.
fn kill_workers(workers: &mut [Worker]) {
    for w in workers.iter_mut() {
        if let Some(mut child) = w.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Blocks until every worker answers a ping or the boot deadline trips.
fn wait_for_boot(shared: &Arc<Shared>) -> Result<(), SimError> {
    let deadline = Instant::now() + BOOT_DEADLINE;
    let endpoints: Vec<(usize, Endpoint)> =
        lock(&shared.workers).iter().map(|w| (w.index, w.endpoint.clone())).collect();
    for (index, endpoint) in endpoints {
        loop {
            match ping(&endpoint, Duration::from_millis(500)) {
                true => {
                    if let Some(w) = lock(&shared.workers).get_mut(index) {
                        w.state = WorkerState::Up;
                    }
                    break;
                }
                false if Instant::now() >= deadline => {
                    return Err(SimError::Unreachable {
                        endpoint: endpoint.to_string(),
                        reason: format!(
                            "worker-{index} did not answer a ping within {}s of spawning",
                            BOOT_DEADLINE.as_secs()
                        ),
                    });
                }
                false => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
    Ok(())
}

/// One liveness probe over the campaign protocol.
fn ping(endpoint: &Endpoint, deadline: Duration) -> bool {
    matches!(
        Client::connect(endpoint, deadline).and_then(|mut c| c.rpc(&Request::Ping)),
        Ok(Response::Pong)
    )
}

// ---------------------------------------------------------------------------
// Routing and forwarding
// ---------------------------------------------------------------------------

/// The routing digest of a cell: FNV-1a over its canonical identity.
/// Fingerprints are deliberately excluded — the supervisor routes
/// without building programs, and a fingerprint mismatch is the
/// *worker's* refusal to issue, not a routing concern.
fn route_key(workload: &str, sw: bool, scale: fac_workloads::Scale, config: &str) -> u64 {
    fnv1a(FNV_OFFSET, cell_identity(workload, sw, scale, config).as_bytes())
}

/// Rendezvous (highest-random-weight) order of workers for a key: every
/// worker is scored by mixing the key with its index, and candidates are
/// tried best-first. Stable under worker death — losing a worker only
/// moves the cells that hashed *to it*.
fn route_order(key: u64, total: usize) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = (0..total)
        .map(|i| (splitmix64(key ^ splitmix64(i as u64 ^ 0xfacf_1ee7_c0de)), i))
        .collect();
    scored.sort_unstable_by(|a, b| b.cmp(a));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// Forwards one raw request line to a worker and returns the raw
/// response line (transparent proxying: the client sees exactly the
/// bytes the worker produced).
fn forward_line(endpoint: &Endpoint, line: &str, deadline: Duration) -> Result<String, SimError> {
    let label = endpoint.to_string();
    let mut conn = Conn::dial(endpoint)?;
    conn.set_read_timeout(Some(POLL)).map_err(|e| SimError::io(&label, e))?;
    conn.set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| SimError::io(&label, e))?;
    write_line(&mut conn, line).map_err(|e| SimError::io(&label, e))?;
    let start = Instant::now();
    let mut pending = Vec::new();
    loop {
        match read_line(&mut conn, &mut pending) {
            LineEvent::Line(resp) => return Ok(resp),
            LineEvent::Timeout => {
                if start.elapsed() >= deadline {
                    return Err(SimError::Timeout {
                        job: format!("request to {label}"),
                        secs: deadline.as_secs(),
                    });
                }
            }
            LineEvent::Eof => {
                return Err(SimError::Io {
                    path: label,
                    message: "worker closed the connection".to_string(),
                })
            }
            LineEvent::Poison(e) => {
                return Err(SimError::Io { path: label, message: e.to_string() })
            }
            LineEvent::Io(e) => return Err(SimError::io(&label, e)),
        }
    }
}

/// Routes a cell line through the fleet: rendezvous order, skipping
/// unroutable workers, failing over on transport faults. Returns the raw
/// response line to relay.
fn route_cell(shared: &Arc<Shared>, req: &Request, line: &str) -> String {
    let Request::Cell(cell) = req else { unreachable!("route_cell takes cells") };
    let key = route_key(&cell.workload, cell.sw, cell.scale, &cell.config);
    let deadline = Duration::from_secs(shared.opts.request_timeout_secs);

    let total = lock(&shared.workers).len();
    let mut attempts = 0u32;
    for index in route_order(key, total) {
        let endpoint = {
            let workers = lock(&shared.workers);
            let w = &workers[index];
            if !w.state.routable() {
                continue;
            }
            w.endpoint.clone()
        };
        attempts += 1;
        shared.bump(&shared.counters.forwarded);
        if attempts > 1 {
            // This forward re-sends a cell a lost worker was responsible
            // for; the store makes it a hit if the first try committed.
            shared.bump(&shared.counters.failovers);
        }
        match forward_line(&endpoint, line, deadline) {
            Ok(resp) => {
                let mut workers = lock(&shared.workers);
                workers[index].forwarded += 1;
                return resp;
            }
            Err(e) => {
                eprintln!(
                    "campaign supervisor: forward to worker-{index} failed ({e}); failing over"
                );
                // The heartbeat/reap machinery decides restarts; routing
                // just moves on to the next candidate.
            }
        }
    }
    shared.bump(&shared.counters.unrouted);
    render_response(&Response::Error {
        kind: ErrorKind::Sim,
        message: "no fleet worker reachable for this cell".to_string(),
        trace_id: cell.trace_id.clone(),
    })
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

/// Serves one client connection: parse, route, relay.
fn handle_client(shared: &Arc<Shared>, mut conn: Conn) {
    if conn.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    conn.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let mut pending = Vec::new();
    let idle_deadline = Duration::from_secs(300);
    let mut last_activity = Instant::now();
    loop {
        if shared.shutdown.is_set() {
            return;
        }
        match read_line(&mut conn, &mut pending) {
            LineEvent::Line(line) => {
                last_activity = Instant::now();
                shared.bump(&shared.counters.requests);
                let resp_line = match parse_request(&line) {
                    Ok(Request::Ping) => render_response(&Response::Pong),
                    Ok(Request::Stats) => {
                        render_response(&Response::Stats(aggregate_stats(shared)))
                    }
                    Ok(Request::FleetStats) => {
                        render_response(&Response::Fleet(fleet_stats(shared)))
                    }
                    Ok(req @ Request::Cell(_)) => route_cell(shared, &req, &line),
                    Err(e) => render_response(&Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: e.to_string(),
                        trace_id: None,
                    }),
                };
                if write_line(&mut conn, &resp_line).is_err() {
                    return;
                }
            }
            LineEvent::Timeout => {
                if last_activity.elapsed() >= idle_deadline {
                    return;
                }
            }
            LineEvent::Eof | LineEvent::Poison(_) | LineEvent::Io(_) => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// One worker's stats document, best-effort.
fn worker_stats(endpoint: &Endpoint) -> Option<Json> {
    match Client::connect(endpoint, Duration::from_secs(2))
        .and_then(|mut c| c.rpc(&Request::Stats))
    {
        Ok(Response::Stats(doc)) => Some(doc),
        _ => None,
    }
}

/// The supervisor's `stats` response: the workers' `stats` folded row by
/// row through the server's metrics table — counters and load gauges
/// summed, the shared store's size from one worker, latency histograms
/// left per worker — plus a `fleet` object with the supervision lanes.
fn aggregate_stats(shared: &Arc<Shared>) -> Json {
    let endpoints: Vec<Endpoint> =
        lock(&shared.workers).iter().map(|w| w.endpoint.clone()).collect();
    let docs: Vec<Json> = endpoints.iter().filter_map(worker_stats).collect();
    let mut doc = telemetry::merge_stats(server::METRICS, &docs, shared.started);
    doc.set("fleet", telemetry::stats_json(METRICS, shared.as_ref()));
    doc
}

/// The `fleet-stats` response: the supervision lanes plus one row per
/// worker, each enriched (best-effort) with the worker's own counters
/// and load gauges so `campaign_top` can show per-worker hit ratios.
fn fleet_stats(shared: &Arc<Shared>) -> Json {
    let mut doc = telemetry::stats_json(METRICS, shared.as_ref());
    let snapshot: Vec<(usize, Endpoint, i32, &'static str, u64, u32, u64)> = lock(&shared.workers)
        .iter()
        .map(|w| {
            (
                w.index,
                w.endpoint.clone(),
                w.pid,
                w.state.token(),
                w.started_at.elapsed().as_secs(),
                w.restarts,
                w.forwarded,
            )
        })
        .collect();
    let mut rows = Vec::with_capacity(snapshot.len());
    for (index, endpoint, pid, state, uptime, restarts, forwarded) in snapshot {
        let mut row = Json::obj();
        row.set("index", Json::U64(index as u64));
        row.set("pid", Json::U64(pid.max(0) as u64));
        row.set("endpoint", Json::Str(endpoint.to_string()));
        row.set("state", Json::Str(state.to_string()));
        row.set("uptime_secs", Json::U64(uptime));
        row.set("restarts", Json::U64(u64::from(restarts)));
        row.set("forwarded", Json::U64(forwarded));
        if state != "quarantined" && state != "restarting" {
            if let Some(stats) = worker_stats(&endpoint) {
                for m in server::METRICS {
                    if matches!(m.kind, Kind::Counter(_) | Kind::Gauge(_)) {
                        let value = stats.get(m.key).and_then(Json::as_u64).unwrap_or(0);
                        row.set(m.key, Json::U64(value));
                    }
                }
            }
        }
        rows.push(row);
    }
    doc.set("rows", Json::Arr(rows));
    doc
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// The supervision loop: reap exits, heartbeat the living, and respawn
/// the dead (with backoff and crash-loop quarantine).
fn supervise(shared: &Arc<Shared>) {
    let heartbeat = Duration::from_millis(shared.opts.heartbeat_ms.max(50));
    let mut next_beat = Instant::now() + heartbeat;
    while !shared.shutdown.is_set() {
        std::thread::sleep(POLL.min(heartbeat));
        reap_and_respawn(shared);
        if Instant::now() >= next_beat {
            next_beat = Instant::now() + heartbeat;
            heartbeat_pass(shared);
        }
    }
}

/// Detects exited children, schedules respawns, performs due respawns,
/// and quarantines crash-loopers.
fn reap_and_respawn(shared: &Arc<Shared>) {
    let mut workers = lock(&shared.workers);
    for w in workers.iter_mut() {
        // Reap: a dead child moves to Restarting with a backoff
        // deadline.
        if w.state.routable() {
            let exited = match &mut w.child {
                Some(child) => child.try_wait().ok().flatten().is_some(),
                None => true,
            };
            if exited {
                eprintln!(
                    "campaign supervisor: {} exited; restart scheduled",
                    w.label()
                );
                w.child = None;
                w.state = WorkerState::Restarting;
                w.restart_at = Instant::now() + w.backoff.next_delay();
            }
        }
        // Respawn when due, unless the crash-loop breaker trips.
        if w.state == WorkerState::Restarting && Instant::now() >= w.restart_at {
            let window = Duration::from_secs(shared.opts.quarantine_window_secs);
            let now = Instant::now();
            w.recent_restarts.retain(|t| now.duration_since(*t) <= window);
            if w.recent_restarts.len() as u32 + 1 > shared.opts.quarantine_after {
                let err = SimError::WorkerQuarantined {
                    worker: w.label(),
                    restarts: w.recent_restarts.len() as u32 + 1,
                    window_secs: shared.opts.quarantine_window_secs,
                };
                eprintln!("campaign supervisor: {err}");
                w.state = WorkerState::Quarantined;
                shared.bump(&shared.counters.quarantined);
                continue;
            }
            w.recent_restarts.push(now);
            w.restarts += 1;
            shared.bump(&shared.counters.restarts);
            if let Err(e) = spawn_worker(&shared.opts, w) {
                eprintln!(
                    "campaign supervisor: respawn of {} failed ({e}); retrying with backoff",
                    w.label()
                );
                w.state = WorkerState::Restarting;
                w.restart_at = Instant::now() + w.backoff.next_delay();
            } else {
                eprintln!("campaign supervisor: {} respawned (pid {})", w.label(), w.pid);
            }
        }
    }
}

/// Pings every routable worker; a worker over its miss budget is killed
/// (the reap path then schedules its restart).
fn heartbeat_pass(shared: &Arc<Shared>) {
    let targets: Vec<(usize, Endpoint)> = lock(&shared.workers)
        .iter()
        .filter(|w| w.state.routable())
        .map(|w| (w.index, w.endpoint.clone()))
        .collect();
    let deadline = Duration::from_millis(shared.opts.heartbeat_ms.max(250));
    for (index, endpoint) in targets {
        let ok = ping(&endpoint, deadline);
        let mut workers = lock(&shared.workers);
        let Some(w) = workers.get_mut(index) else { continue };
        if !w.state.routable() {
            continue; // reaped between the ping and the lock
        }
        if ok {
            w.state = WorkerState::Up;
            w.backoff.reset();
        } else {
            // A just-(re)spawned worker gets the same boot deadline the
            // initial fleet got before misses count: with default knobs
            // the miss budget trips ~2 s after spawn, which on a loaded
            // host kill-cycles a healthy-but-slow worker straight into
            // quarantine.
            if w.state == WorkerState::Starting && w.started_at.elapsed() < BOOT_DEADLINE {
                continue;
            }
            shared.bump(&shared.counters.heartbeat_misses);
            let misses = match w.state {
                WorkerState::Suspect(n) => n + 1,
                _ => 1,
            };
            if misses > shared.opts.miss_budget {
                eprintln!(
                    "campaign supervisor: {} missed {misses} heartbeats; killing for restart",
                    w.label()
                );
                send_signal(w.pid, SIGKILL);
                // try_wait in the reap pass observes the exit and
                // schedules the respawn.
            } else {
                w.state = WorkerState::Suspect(misses);
            }
        }
    }
}

/// Rolling drain: SIGTERM each worker in turn and wait for it to exit
/// before moving to the next, so capacity degrades one worker at a time.
fn drain_workers(shared: &Arc<Shared>) {
    let count = lock(&shared.workers).len();
    for index in 0..count {
        let (pid, mut child) = {
            let mut workers = lock(&shared.workers);
            let w = &mut workers[index];
            (w.pid, w.child.take())
        };
        let Some(ref mut c) = child else { continue };
        send_signal(pid, SIGTERM);
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            match c.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() >= deadline => {
                    eprintln!(
                        "campaign supervisor: worker-{index} ignored SIGTERM; killing"
                    );
                    c.kill().ok();
                    c.wait().ok();
                    break;
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rendezvous routing is deterministic, covers every worker, and is
    /// *stable*: removing one worker only moves the keys that ranked it
    /// first — every other key keeps its primary.
    #[test]
    fn route_order_is_stable_under_worker_loss() {
        let keys: Vec<u64> = (0..200).map(splitmix64).collect();
        for &key in &keys {
            assert_eq!(route_order(key, 3), route_order(key, 3));
            let order = route_order(key, 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "a permutation of all workers");
        }
        // Spread: with 200 keys and 3 workers, no worker is starved.
        for worker in 0..3 {
            let primary = keys.iter().filter(|&&k| route_order(k, 3)[0] == worker).count();
            assert!(primary > 20, "worker {worker} got only {primary}/200 primaries");
        }
        // Stability: dropping the last-ranked candidate of a key must
        // not move that key's primary (simulate loss by skipping).
        for &key in &keys {
            let order = route_order(key, 3);
            let dead = order[2];
            let survivor_order: Vec<usize> =
                route_order(key, 3).into_iter().filter(|&i| i != dead).collect();
            assert_eq!(order[0], survivor_order[0], "losing a non-primary moved the primary");
        }
    }

    /// The supervisor's exposition and `fleet` lanes, pinned on a fleet
    /// with no workers. The golden text was generated from the
    /// hand-written renderer the metrics table replaced, plus the
    /// `facfleet_unrouted_total` series it was missing. The merged
    /// `stats` carries every worker field of the server's table.
    #[test]
    fn exposition_and_stats_keep_their_golden_shape() {
        let shared = Arc::new(Shared {
            opts: FleetOptions::new("campaign_server", "store", "run"),
            workers: Mutex::new(Vec::new()),
            counters: FleetCounters::default(),
            started: Instant::now(),
            shutdown: Shutdown::new(),
        });
        assert_eq!(
            telemetry::exposition(METRICS, shared.as_ref()),
            "# HELP facfleet_workers Configured fleet size.\n\
             # TYPE facfleet_workers gauge\n\
             facfleet_workers 0\n\
             # HELP facfleet_workers_alive Workers in a routable state.\n\
             # TYPE facfleet_workers_alive gauge\n\
             facfleet_workers_alive 0\n\
             # HELP facfleet_quorum 1 when a majority of workers is routable.\n\
             # TYPE facfleet_quorum gauge\n\
             facfleet_quorum 0\n\
             # HELP facfleet_requests_total Client requests accepted.\n\
             # TYPE facfleet_requests_total counter\n\
             facfleet_requests_total 0\n\
             # HELP facfleet_forwarded_total Cell forwards attempted.\n\
             # TYPE facfleet_forwarded_total counter\n\
             facfleet_forwarded_total 0\n\
             # HELP facfleet_failovers_total Inline forward failovers.\n\
             # TYPE facfleet_failovers_total counter\n\
             facfleet_failovers_total 0\n\
             # HELP facfleet_restarts_total Worker respawns.\n\
             # TYPE facfleet_restarts_total counter\n\
             facfleet_restarts_total 0\n\
             # HELP facfleet_quarantined_total Workers quarantined for crash-looping.\n\
             # TYPE facfleet_quarantined_total counter\n\
             facfleet_quarantined_total 0\n\
             # HELP facfleet_heartbeat_misses_total Heartbeat pings that went unanswered.\n\
             # TYPE facfleet_heartbeat_misses_total counter\n\
             facfleet_heartbeat_misses_total 0\n\
             # HELP facfleet_unrouted_total Cells refused because no worker was reachable.\n\
             # TYPE facfleet_unrouted_total counter\n\
             facfleet_unrouted_total 0\n"
        );
        let fleet = "{\"workers\":0,\"alive\":0,\"quorum\":false,\"requests\":0,\"forwarded\":0,\"failovers\":0,\"restarts\":0,\"quarantined\":0,\"heartbeat_misses\":0,\"unrouted\":0}";
        assert_eq!(fleet_stats(&shared).to_string(), fleet.replace('}', ",\"rows\":[]}"));
        let stats = aggregate_stats(&shared);
        assert_eq!(stats.get("fleet").map(Json::to_string).as_deref(), Some(fleet));
        for m in server::METRICS.iter().filter(|m| !matches!(m.kind, Kind::Hist(_) | Kind::Text(_))) {
            assert!(stats.get(m.key).is_some(), "supervisor stats lacks {}", m.key);
        }
    }

}
