//! The campaign server: a std-only thread-per-connection front end over
//! the [`crate::par::JobSet`] pool and the [`super::store::Store`].
//!
//! Request flow for a cell:
//!
//! 1. **Resolve.** The named configuration and workload are looked up in
//!    the shared catalogs; the server computes both fingerprints itself
//!    and cross-checks any the client sent (version skew is a typed
//!    `bad-request`, never two silently incomparable results).
//! 2. **Store lookup.** A verified entry is served in microseconds. A
//!    corrupted entry is quarantined by the store and treated as a miss.
//! 3. **Coalesce.** If another connection is already simulating the same
//!    key, this request waits on its result — N clients asking for one
//!    cell trigger exactly one simulation.
//! 4. **Admit.** Genuinely new work passes the bounded admission gate;
//!    past the bound the request is shed with a typed
//!    [`SimError::Overloaded`] — the server degrades by refusing, never
//!    by growing without bound.
//! 5. **Simulate.** The cell runs as a one-job [`crate::par::JobSet`]
//!    under [`crate::par::RunOptions`], inheriting its panic containment
//!    (a panicking cell is a typed error, not a poisoned server) and its
//!    wall-clock watchdog.
//! 6. **Commit.** The result is written atomically to the store, then
//!    published to any coalesced waiters.
//!
//! Shutdown (SIGTERM/SIGINT, or [`Shutdown::trigger`] in tests) drains:
//! the accept loop stops, every connection finishes the request it is
//! writing, worker threads are joined, the store directory is fsynced,
//! and `run` returns `Ok` — exit code 0.
//!
//! **Telemetry** (DESIGN.md §12): every request is timed as a span split
//! into queue / coalesce / simulate / commit / serialize phases and keyed
//! by a trace id (client-supplied or server-minted). Cell requests' phase
//! and total latencies land in mergeable [`Hist`]ograms. Every metric is
//! one row of `METRICS`, which renders both the `stats` response and
//! the Prometheus text exposition `--metrics <addr>` serves over a
//! read-only HTTP/1.0 listener that bypasses the admission gate (scrapes
//! keep working while cell traffic is being shed). `--access-log <path>`
//! writes one structured JSONL line per request, cell or not, through
//! the same latched-error [`fac_sim::obs::JsonlWriter`] the event streams
//! use.

use super::proto::{
    parse_request, read_line, render_response, write_line, ErrorKind, LineEvent, Request,
    Response,
};
use super::store::{Lookup, Store};
use super::{
    catalog_fingerprint, cell_identity, config_by_name, scale_name, serve_connections, sw_support,
    Conn, Endpoint, Listener, CONFIG_NAMES,
};
use crate::par::{JobSet, RunOptions};
use crate::serve::proto::CellRequest;
use crate::telemetry::{self, Hist, Kind, Metric};
use fac_asm::Program;
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::obs::{Json, JsonlWriter};
use fac_sim::{config_fingerprint, program_fingerprint, MachineConfig, SimError};
use fac_workloads::Scale;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often a blocked connection read re-checks the shutdown flag.
/// Bounds drain latency, not throughput.
const POLL: Duration = Duration::from_millis(50);
/// A stalled client gets this long to absorb a response before the
/// connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Locks a mutex, recovering the data from a poisoned lock: a panic on
/// one connection thread must never wedge the whole server, supervisor
/// or chaos harness (the data they guard — counters, the in-flight map,
/// the degraded-store state, worker tables, fault schedules — stays
/// consistent because every critical section is a few straight-line
/// statements).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where the content-addressed result store lives.
    pub store_dir: PathBuf,
    /// How many simulations may be admitted (queued or running) at once;
    /// requests beyond the bound are shed with a typed error.
    pub max_queue: usize,
    /// Per-request wall-clock deadline in seconds (the
    /// [`RunOptions::timeout_secs`] watchdog on each cell).
    pub request_timeout_secs: u64,
    /// How long a connection may sit idle (no complete request line)
    /// before the server closes it — slow-loris byte dribbles do not
    /// reset the clock.
    pub idle_timeout_secs: u64,
    /// Enables the `__panic` / `__sleep:<ms>` test cells used by the
    /// fault-injection suites. Never enabled in production.
    pub test_cells: bool,
    /// TCP address (`host:port`) to serve Prometheus text exposition on
    /// (`--metrics`). The listener is read-only and outside the admission
    /// gate: scrapes keep answering while cell traffic is shed. `None`
    /// disables it.
    pub metrics_addr: Option<String>,
    /// Structured JSONL access log path (`--access-log`): one line per
    /// request with trace id, peer, phase timings and outcome. `None`
    /// disables it.
    pub access_log: Option<PathBuf>,
    /// Requests whose total latency exceeds this many milliseconds get
    /// `"slow": true` in their access-log line (`--slow-ms`).
    pub slow_ms: u64,
    /// Consecutive store-write failures that flip the store into
    /// degraded (read-only/compute-through) mode.
    pub degrade_after: u32,
    /// While degraded, one probe write is attempted at most every this
    /// many milliseconds; a probe that lands exits degraded mode.
    pub store_probe_ms: u64,
    /// Fault-inject the store's filesystem per this plan
    /// (`--chaos-store`). Testing/ops tooling; `None` in production.
    pub chaos_store: Option<crate::chaos::ChaosPlan>,
}

impl ServeOptions {
    /// Defaults tuned for an interactive campaign: store at `dir`,
    /// admission bounded at 32, five-minute request and idle deadlines,
    /// test cells off.
    pub fn new(dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            store_dir: dir.into(),
            max_queue: 32,
            request_timeout_secs: 300,
            idle_timeout_secs: 300,
            test_cells: false,
            metrics_addr: None,
            access_log: None,
            slow_ms: 1000,
            degrade_after: 3,
            store_probe_ms: 2000,
            chaos_store: None,
        }
    }
}

/// A cloneable shutdown flag: signal handlers, tests, and the drain logic
/// all observe the same bit.
#[derive(Debug, Clone, Default)]
pub struct Shutdown(Arc<AtomicBool>);

impl Shutdown {
    /// A fresh, untriggered flag.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Requests a graceful drain (idempotent, async-signal-safe).
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once a drain has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Monotonic service counters. What each one counts is the HELP text of
/// its row in [`METRICS`].
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    sheds: AtomicU64,
    quarantined: AtomicU64,
    sim_errors: AtomicU64,
    conn_panics: AtomicU64,
    store_put_errors: AtomicU64,
    store_read_errors: AtomicU64,
    store_put_skipped: AtomicU64,
    degraded_intervals: AtomicU64,
}

/// HELP text shared by the rows of one series.
const REQUESTS: &str = "Cell requests by outcome.";
const PHASES: &str = "Cell request latency per phase, microseconds.";

/// The server's metrics table (DESIGN.md §12): every metric once, in
/// `stats` key order. The `stats` response and `/metrics` are rendered
/// from it, and the supervisor walks it to fold its workers' `stats`.
/// Ranks keep the exposition's series in the order scrapers know.
pub(crate) static METRICS: &[Metric<Shared>] = &[
    Metric::new("hits", Kind::Counter(|s| &s.counters.hits),
        0, "faccell_requests_total", Some(("outcome", "hit")), REQUESTS),
    Metric::new("misses", Kind::Counter(|s| &s.counters.misses),
        0, "faccell_requests_total", Some(("outcome", "miss")), REQUESTS),
    Metric::new("coalesced", Kind::Counter(|s| &s.counters.coalesced),
        0, "faccell_requests_total", Some(("outcome", "coalesced")), REQUESTS),
    Metric::new("sheds", Kind::Counter(|s| &s.counters.sheds),
        0, "faccell_requests_total", Some(("outcome", "shed")), REQUESTS),
    Metric::new("quarantined", Kind::Counter(|s| &s.counters.quarantined),
        1, "faccell_quarantined_total", None,
        "Store entries quarantined after failing verification."),
    Metric::new("sim_errors", Kind::Counter(|s| &s.counters.sim_errors),
        0, "faccell_requests_total", Some(("outcome", "sim_error")), REQUESTS),
    Metric::new("conn_panics", Kind::Counter(|s| &s.counters.conn_panics),
        2, "faccell_conn_panics_total", None,
        "Connection threads that panicked outside the job boundary."),
    Metric::new("store_put_errors", Kind::Counter(|s| &s.counters.store_put_errors),
        3, "faccell_store_put_errors_total", None,
        "Store writes that failed (the result was still served)."),
    Metric::new("store_read_errors", Kind::Counter(|s| &s.counters.store_read_errors),
        4, "faccell_store_read_errors_total", None,
        "Store reads that failed and fell through to recomputation."),
    Metric::new("store_put_skipped", Kind::Counter(|s| &s.counters.store_put_skipped),
        5, "faccell_store_put_skipped_total", None,
        "Store writes skipped while the store was degraded."),
    Metric::new("degraded_intervals", Kind::Counter(|s| &s.counters.degraded_intervals),
        6, "faccell_degraded_intervals_total", None,
        "Times the store entered degraded (read-only) mode."),
    Metric::new("store_degraded", Kind::Flag(Shared::store_degraded),
        7, "faccell_store_degraded", None,
        "1 while the store is in degraded (read-only) mode."),
    Metric::new("entries", Kind::Shared(|s| s.store.len().unwrap_or(0) as u64),
        11, "faccell_store_entries", None,
        "Committed cells in the content-addressed store."),
    Metric::new("admitted", Kind::Gauge(|s| s.admitted.load(Ordering::SeqCst) as u64),
        9, "faccell_admitted", None,
        "Simulations past the admission gate right now."),
    Metric::new("uptime_secs", Kind::Uptime(|s| s.telemetry.started),
        12, "faccell_uptime_seconds", None,
        "Seconds since the server started."),
    Metric::new("build_version", Kind::Text(|_| build_version()), 0, "", None, ""),
    Metric::new("inflight", Kind::Gauge(|s| lock(&s.inflight).len() as u64),
        8, "faccell_inflight", None,
        "Simulations registered for coalescing right now."),
    Metric::new("max_queue", Kind::Gauge(|s| s.opts.max_queue as u64),
        10, "faccell_queue_limit", None,
        "Admission bound (--max-queue)."),
    Metric::new("latency.request_us", Kind::Hist(|s| lock(&s.telemetry.request_us).clone()),
        13, "faccell_request_us", None,
        "Cell request latency across all phases, microseconds."),
    Metric::new("latency.queue_us", Kind::Hist(|s| s.telemetry.phase(QUEUE)),
        14, "faccell_phase_us", Some(("phase", "queue")), PHASES),
    Metric::new("latency.coalesce_us", Kind::Hist(|s| s.telemetry.phase(COALESCE)),
        14, "faccell_phase_us", Some(("phase", "coalesce")), PHASES),
    Metric::new("latency.simulate_us", Kind::Hist(|s| s.telemetry.phase(SIMULATE)),
        14, "faccell_phase_us", Some(("phase", "simulate")), PHASES),
    Metric::new("latency.commit_us", Kind::Hist(|s| s.telemetry.phase(COMMIT)),
        14, "faccell_phase_us", Some(("phase", "commit")), PHASES),
    Metric::new("latency.serialize_us", Kind::Hist(|s| s.telemetry.phase(SERIALIZE)),
        14, "faccell_phase_us", Some(("phase", "serialize")), PHASES),
];

/// Span phases, in request order. `queue` is everything before a role is
/// decided (parse, resolve, store lookup, admission), `coalesce` is a
/// follower's wait on the leader, `simulate` is the leader's run,
/// `commit` is the store write + publish, `serialize` is rendering the
/// response line (the socket write follows the access-log line).
const PHASE_NAMES: [&str; 5] = ["queue", "coalesce", "simulate", "commit", "serialize"];
const QUEUE: usize = 0;
const COALESCE: usize = 1;
const SIMULATE: usize = 2;
const COMMIT: usize = 3;
const SERIALIZE: usize = 4;

/// One request's telemetry: trace id, outcome, and per-phase wall clock.
/// Phases that did not happen (a store hit never simulates) stay zero and
/// are skipped by the phase histograms.
struct Span {
    trace_id: String,
    outcome: &'static str,
    phases: [Duration; PHASE_NAMES.len()],
    workload: Option<String>,
    config: Option<String>,
}

impl Span {
    fn new(trace_id: String, outcome: &'static str) -> Span {
        Span {
            trace_id,
            outcome,
            phases: [Duration::ZERO; PHASE_NAMES.len()],
            workload: None,
            config: None,
        }
    }
}

/// Aggregated serving telemetry (DESIGN.md §12): latency histograms, the
/// access log sink, and the mint for server-side trace ids.
struct Telemetry {
    started: Instant,
    /// Total request latency (all phases), microseconds.
    request_us: Mutex<Hist>,
    /// Per-phase latency, microseconds, indexed like [`PHASE_NAMES`].
    phase_us: [Mutex<Hist>; PHASE_NAMES.len()],
    /// Structured access log, when `--access-log` is set.
    access: Option<Mutex<JsonlWriter<std::io::BufWriter<std::fs::File>>>>,
    trace_seq: AtomicU64,
}

impl Telemetry {
    fn new(opts: &ServeOptions) -> Result<Telemetry, SimError> {
        let access = match &opts.access_log {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| SimError::io(&path.display().to_string(), e))?;
                Some(Mutex::new(JsonlWriter::new(std::io::BufWriter::new(file))))
            }
            None => None,
        };
        Ok(Telemetry {
            started: Instant::now(),
            request_us: Mutex::new(Hist::new()),
            phase_us: std::array::from_fn(|_| Mutex::new(Hist::new())),
            access,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// Mints a trace id for requests that carried none. The format obeys
    /// the wire grammar, so minted ids round-trip through responses and
    /// logs exactly like client-supplied ones.
    fn mint(&self) -> String {
        format!(
            "srv-{:x}.{:x}",
            std::process::id(),
            self.trace_seq.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// One phase's histogram, copied out.
    fn phase(&self, phase: usize) -> Hist {
        lock(&self.phase_us[phase]).clone()
    }

    /// Folds a finished span into the histograms when it is a cell
    /// request and, when enabled, appends its access-log line. Every
    /// request gets its log line, successful or not — observability must
    /// not depend on the happy path — but only cells are timed: the
    /// supervisor's heartbeat pings and `stats` polls would otherwise
    /// drown a worker's cell latencies.
    fn observe(&self, span: &Span, peer: &str, slow_ms: u64) {
        let total: Duration = span.phases.iter().sum();
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        // Only cell requests name a workload.
        if span.workload.is_some() {
            lock(&self.request_us).record(us(total));
            for (hist, d) in self.phase_us.iter().zip(span.phases.iter()) {
                if !d.is_zero() {
                    lock(hist).record(us(*d));
                }
            }
        }
        let Some(log) = &self.access else { return };
        let mut doc = Json::obj();
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        doc.set("ts", Json::U64(ts));
        doc.set("trace_id", Json::Str(span.trace_id.clone()));
        doc.set("peer", Json::Str(peer.to_string()));
        doc.set("outcome", Json::Str(span.outcome.to_string()));
        if let Some(w) = &span.workload {
            doc.set("workload", Json::Str(w.clone()));
        }
        if let Some(c) = &span.config {
            doc.set("config", Json::Str(c.clone()));
        }
        for (name, d) in PHASE_NAMES.iter().zip(span.phases.iter()) {
            doc.set(&format!("{name}_us"), Json::U64(us(*d)));
        }
        doc.set("total_us", Json::U64(us(total)));
        doc.set("slow", Json::Bool(total > Duration::from_millis(slow_ms)));
        let mut w = lock(log);
        w.write_value(&doc);
        // Flush per line: the log exists to be tailed while the campaign
        // runs, and request rate is far below any flush cost that matters.
        w.flush();
    }
}

/// One in-flight simulation that followers can wait on.
#[derive(Debug, Default)]
struct InFlight {
    done: Mutex<Option<Result<Json, SimError>>>,
    cv: Condvar,
}

impl InFlight {
    /// Blocks until the leader publishes, bounded by `deadline` — a
    /// follower must not wait forever on a leader that died between
    /// registering and publishing.
    fn wait(&self, deadline: Duration, job: &str) -> Result<Json, SimError> {
        let start = Instant::now();
        let mut done = lock(&self.done);
        while done.is_none() {
            let Some(left) = deadline.checked_sub(start.elapsed()) else {
                return Err(SimError::Timeout { job: job.to_string(), secs: deadline.as_secs() });
            };
            done = self
                .cv
                .wait_timeout(done, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        done.clone().expect("loop exits only when published")
    }

    fn publish(&self, result: Result<Json, SimError>) {
        *lock(&self.done) = Some(result);
        self.cv.notify_all();
    }
}

/// The degraded-store state machine (DESIGN.md §14): after
/// `degrade_after` *consecutive* write failures the store flips to
/// read-only/compute-through — cells are still answered, hits are still
/// served, misses are simulated but no longer cached. While degraded,
/// at most one probe write per `store_probe_ms` touches the disk; the
/// first probe that lands exits the mode. Persistent ENOSPC therefore
/// costs throughput, never availability.
#[derive(Debug, Default)]
struct Degrade {
    /// Consecutive write failures (any success resets it).
    consecutive: u32,
    /// `true` while the store is read-only/compute-through.
    degraded: bool,
    /// When the last probe write was attempted.
    last_probe: Option<Instant>,
}

/// State shared by every connection thread.
pub(crate) struct Shared {
    opts: ServeOptions,
    store: Store,
    degrade: Mutex<Degrade>,
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    /// Simulations admitted (queued or running) right now.
    admitted: AtomicUsize,
    counters: Counters,
    /// Built programs and their fingerprints, keyed by
    /// `workload:sw:scale` — a sweep asks for each program many times
    /// (two configs × repeat runs) and builds are deterministic, so build
    /// and fingerprint once and share.
    programs: Mutex<HashMap<String, (Arc<Program>, u64)>>,
    telemetry: Telemetry,
}

impl Shared {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The built program for a cell and its fingerprint.
    fn program(
        &self,
        workload: &fac_workloads::Workload,
        sw: bool,
        scale: Scale,
    ) -> (Arc<Program>, u64) {
        let key = format!("{}:{}:{}", workload.name, u8::from(sw), scale_name(scale));
        lock(&self.programs)
            .entry(key)
            .or_insert_with(|| {
                let program = workload.build(&sw_support(sw), scale);
                let fp = program_fingerprint(&program);
                (Arc::new(program), fp)
            })
            .clone()
    }

    /// Passes the admission gate or sheds with a typed error.
    fn admit(&self) -> Result<(), SimError> {
        let limit = self.opts.max_queue;
        self.admitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < limit).then_some(n + 1))
            .map(|_| ())
            .map_err(|pending| SimError::Overloaded { pending, limit })
    }

    fn release(&self) {
        self.admitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// `true` while the store is in degraded (read-only) mode.
    fn store_degraded(&self) -> bool {
        lock(&self.degrade).degraded
    }

    /// Commits a result through the degraded-store state machine. Never
    /// fails the request: a write failure is counted, logged, and —
    /// after `degrade_after` consecutive failures — flips the store to
    /// compute-through until a throttled probe write lands again.
    fn store_put(&self, key: u64, doc: &Json) {
        // Holding `degrade` across the put serializes store writes; reads
        // take no lock (`Store` is `Sync`).
        let mut d = lock(&self.degrade);
        if d.degraded {
            let probe_due = d
                .last_probe
                .is_none_or(|t| t.elapsed() >= Duration::from_millis(self.opts.store_probe_ms));
            if !probe_due {
                self.bump(&self.counters.store_put_skipped);
                return;
            }
            d.last_probe = Some(Instant::now());
        }
        match self.store.put(key, doc) {
            Ok(()) => {
                if d.degraded {
                    d.degraded = false;
                    eprintln!(
                        "campaign server: store writable again after probe for {key:#018x}; \
                         leaving degraded mode"
                    );
                }
                d.consecutive = 0;
            }
            Err(e) => {
                self.bump(&self.counters.store_put_errors);
                d.consecutive = d.consecutive.saturating_add(1);
                if d.degraded {
                    eprintln!("campaign server: store probe for {key:#018x} failed: {e}");
                } else {
                    eprintln!("campaign server: store write for {key:#018x} failed: {e}");
                    if d.consecutive >= self.opts.degrade_after {
                        d.degraded = true;
                        d.last_probe = Some(Instant::now());
                        self.bump(&self.counters.degraded_intervals);
                        eprintln!(
                            "campaign server: {} consecutive store write failures; store is \
                             now read-only (compute-through) until a probe write lands",
                            d.consecutive
                        );
                    }
                }
            }
        }
    }
}

/// The campaign server: bind, then [`Server::run`] until drained.
pub struct Server {
    listener: Listener,
    /// Bound eagerly in [`Server::bind`] so the caller can report the
    /// resolved address (`:0` → real port) before serving starts.
    metrics: Option<std::net::TcpListener>,
    shared: Arc<Shared>,
    shutdown: Shutdown,
}

impl Server {
    /// Binds the endpoint and opens (creating if needed) the store.
    /// Raising `shutdown` — from any thread or a signal handler, before
    /// or during [`Server::run`] — drains the server.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the socket cannot be bound or the store
    /// directory cannot be created.
    pub fn bind(
        endpoint: &Endpoint,
        opts: ServeOptions,
        shutdown: Shutdown,
    ) -> Result<Server, SimError> {
        let listener = Listener::bind(endpoint)?;
        let store = match &opts.chaos_store {
            Some(plan) => Store::open_with(
                &opts.store_dir,
                Box::new(crate::chaos::ChaosFs::new(plan.clone())),
            )?,
            None => Store::open(&opts.store_dir)?,
        };
        let metrics = match &opts.metrics_addr {
            Some(addr) => Some(
                std::net::TcpListener::bind(addr).map_err(|e| SimError::io(addr, e))?,
            ),
            None => None,
        };
        let telemetry = Telemetry::new(&opts)?;
        Ok(Server {
            listener,
            metrics,
            shared: Arc::new(Shared {
                opts,
                store,
                degrade: Mutex::new(Degrade::default()),
                inflight: Mutex::new(HashMap::new()),
                admitted: AtomicUsize::new(0),
                counters: Counters::default(),
                programs: Mutex::new(HashMap::new()),
                telemetry,
            }),
            shutdown,
        })
    }

    /// The endpoint actually bound (`:0` resolved to the real port).
    pub fn endpoint(&self) -> Endpoint {
        self.listener.endpoint()
    }

    /// The metrics listener's resolved address, when `--metrics` is set.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until the shutdown flag is raised, then drains: stops
    /// accepting, lets every connection finish its in-flight request,
    /// joins the worker threads, and fsyncs the store directory.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on a hard listener failure or when the final
    /// store sync fails (an individual connection's I/O error only drops
    /// that connection).
    pub fn run(mut self) -> Result<(), SimError> {
        // Readiness: a full admission queue sheds and a degraded store
        // cannot commit, so either one stops routing here.
        let metrics_thread = self.metrics.take().map(|listener| {
            let (ready, render) = (Arc::clone(&self.shared), Arc::clone(&self.shared));
            crate::telemetry::spawn_health_endpoint(
                Listener::Tcp(listener),
                self.shutdown.clone(),
                move || {
                    if ready.admitted.load(Ordering::SeqCst) >= ready.opts.max_queue {
                        Err("shedding: admission queue full")
                    } else if ready.store_degraded() {
                        Err("degraded: store not accepting writes")
                    } else {
                        Ok(())
                    }
                },
                move || telemetry::exposition(METRICS, &render),
            )
        });
        // Drain: connections observe the flag after their current request
        // and return; every in-flight response is finished, not cut.
        let (shared, shutdown) = (Arc::clone(&self.shared), self.shutdown.clone());
        serve_connections(&self.listener, &self.shutdown, move |conn| {
            // Panic containment at the connection boundary: whatever
            // happens on one socket, the server and every other
            // connection keep running.
            if catch_unwind(AssertUnwindSafe(|| handle_conn(&shared, &shutdown, conn))).is_err() {
                shared.bump(&shared.counters.conn_panics);
            }
        })
        .map_err(|e| SimError::io(&self.endpoint().to_string(), e))?;
        if let Some(m) = metrics_thread {
            m.join().ok();
        }
        if let Some(log) = &self.shared.telemetry.access {
            lock(log).flush();
        }
        self.shared.store.sync()
    }
}

/// One connection's read-dispatch-respond loop.
fn handle_conn(shared: &Arc<Shared>, shutdown: &Shutdown, mut conn: Conn) {
    if conn.set_read_timeout(Some(POLL)).is_err()
        || conn.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let idle_limit = Duration::from_secs(shared.opts.idle_timeout_secs);
    let mut idle = Duration::ZERO;
    let mut pending = Vec::new();
    let peer = conn.peer();
    // Renders the response and times that as the serialize phase, folds
    // the finished span into the histograms and access log, and only then
    // writes the line — so a client holding its answer can already read
    // the request's log line. Every response path goes through here, so
    // every request leaves a span.
    let conclude = |conn: &mut Conn, resp: &Response, mut span: Span| -> bool {
        let start = Instant::now();
        let line = render_response(resp);
        span.phases[SERIALIZE] = start.elapsed();
        shared.telemetry.observe(&span, &peer, shared.opts.slow_ms);
        write_line(conn, &line).is_ok()
    };
    loop {
        if shutdown.is_set() {
            return;
        }
        match read_line(&mut conn, &mut pending) {
            LineEvent::Line(line) => {
                // Only a complete request resets the idle clock — a
                // client dribbling single bytes is still idle.
                idle = Duration::ZERO;
                let (resp, span) = match parse_request(&line) {
                    Ok(req) => handle_request(shared, &req),
                    Err(e) => (
                        Response::Error {
                            kind: ErrorKind::BadRequest,
                            message: e.message,
                            trace_id: None,
                        },
                        Span::new(shared.telemetry.mint(), "bad_request"),
                    ),
                };
                if !conclude(&mut conn, &resp, span) {
                    return;
                }
            }
            LineEvent::Eof => return,
            LineEvent::Timeout => {
                idle += POLL;
                if idle >= idle_limit {
                    return;
                }
            }
            LineEvent::Poison(e) => {
                // A flooding or non-UTF-8 peer gets one diagnostic, then
                // the connection is dropped (its stream is unframeable).
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: e.message,
                    trace_id: None,
                };
                conclude(&mut conn, &resp, Span::new(shared.telemetry.mint(), "bad_request"));
                return;
            }
            LineEvent::Io(_) => return,
        }
    }
}

fn handle_request(shared: &Arc<Shared>, req: &Request) -> (Response, Span) {
    match req {
        Request::Ping => (Response::Pong, Span::new(shared.telemetry.mint(), "ping")),
        Request::Stats => {
            let stats = telemetry::stats_json(METRICS, shared.as_ref());
            (Response::Stats(stats), Span::new(shared.telemetry.mint(), "stats"))
        }
        // A lone server has no fleet; `campaign_top` uses this refusal
        // to fall back to single-server stats.
        Request::FleetStats => (
            bad_request("fleet-stats is answered by a campaign supervisor, not a worker"),
            Span::new(shared.telemetry.mint(), "bad_request"),
        ),
        Request::Cell(cell) => handle_cell(shared, cell),
    }
}

fn bad_request(message: impl Into<String>) -> Response {
    Response::Error { kind: ErrorKind::BadRequest, message: message.into(), trace_id: None }
}

fn error_response(e: &SimError) -> Response {
    let kind = match e {
        SimError::Overloaded { .. } => ErrorKind::Overloaded,
        _ => ErrorKind::Sim,
    };
    Response::Error { kind, message: e.to_string(), trace_id: None }
}

/// Stamps the request's trace id onto a refusal, so a resilient client
/// resending after a transport fault can match the refusal to the RPC in
/// flight (and discard stale, duplicate-induced ones).
fn with_trace(mut resp: Response, echo: &Option<String>) -> Response {
    if let Response::Error { trace_id, .. } = &mut resp {
        trace_id.clone_from(echo);
    }
    resp
}

/// The crate version plus the catalog fingerprint: two servers report the
/// same string exactly when they would produce comparable artifacts.
fn build_version() -> String {
    format!("fac-bench {} cfg:{:#018x}", env!("CARGO_PKG_VERSION"), catalog_fingerprint())
}

/// Everything resolved about a cell before simulation: the plan the
/// store key is derived from.
struct CellPlan {
    identity: String,
    key: u64,
    config: MachineConfig,
    /// `None` for test cells, which run no real program.
    program: Option<Arc<Program>>,
}

/// Resolves names to a concrete simulation plan and cross-checks the
/// client's fingerprints.
fn resolve(shared: &Arc<Shared>, cell: &CellRequest) -> Result<CellPlan, Response> {
    let Some(config) = config_by_name(&cell.config) else {
        return Err(bad_request(format!(
            "unknown config '{}' (known: {})",
            cell.config,
            CONFIG_NAMES.join(", ")
        )));
    };
    let is_test = cell.workload.starts_with("__");
    let (program, program_fp) = if is_test {
        if !shared.opts.test_cells {
            return Err(bad_request(format!("unknown workload '{}'", cell.workload)));
        }
        if cell.workload != "__panic" && parse_sleep_ms(&cell.workload).is_none() {
            return Err(bad_request(format!(
                "unknown test cell '{}' (known: __panic, __sleep:<ms>)",
                cell.workload
            )));
        }
        (None, fnv1a(FNV_OFFSET, cell.workload.as_bytes()))
    } else {
        let Some(workload) = fac_workloads::find(&cell.workload) else {
            return Err(bad_request(format!("unknown workload '{}'", cell.workload)));
        };
        let (program, fp) = shared.program(&workload, cell.sw, cell.scale);
        (Some(program), fp)
    };
    let config_fp = config_fingerprint(&config);
    if let Some(sent) = cell.config_fp {
        if sent != config_fp {
            return Err(bad_request(format!(
                "config fingerprint mismatch: client sent {sent:#018x}, server computes {config_fp:#018x} (version skew between client and server?)"
            )));
        }
    }
    if let Some(sent) = cell.program_fp {
        if sent != program_fp {
            return Err(bad_request(format!(
                "program fingerprint mismatch: client sent {sent:#018x}, server computes {program_fp:#018x} (version skew between client and server?)"
            )));
        }
    }
    let identity = cell_identity(&cell.workload, cell.sw, cell.scale, &cell.config);
    let mut key = fnv1a(FNV_OFFSET, identity.as_bytes());
    key = fnv1a(key, &config_fp.to_le_bytes());
    key = fnv1a(key, &program_fp.to_le_bytes());
    Ok(CellPlan { identity, key, config, program })
}

/// `__sleep:<ms>` → the milliseconds, if well-formed.
fn parse_sleep_ms(workload: &str) -> Option<u64> {
    workload.strip_prefix("__sleep:")?.parse().ok()
}

/// The cell path: store lookup, coalesce, admit, simulate, commit. Every
/// exit fills the span's phase clocks and outcome; the `queue` phase is
/// everything up to the point a role (hit / leader / follower / shed) is
/// decided.
fn handle_cell(shared: &Arc<Shared>, cell: &CellRequest) -> (Response, Span) {
    let trace_id = cell.trace_id.clone().unwrap_or_else(|| shared.telemetry.mint());
    let echo = Some(trace_id.clone());
    let mut span = Span::new(trace_id, "bad_request");
    span.workload = Some(cell.workload.clone());
    span.config = Some(cell.config.clone());
    let queued = Instant::now();

    let plan = match resolve(shared, cell) {
        Ok(plan) => plan,
        Err(resp) => {
            span.phases[QUEUE] = queued.elapsed();
            return (with_trace(resp, &echo), span);
        }
    };

    match shared.store.get(plan.key) {
        Ok(Lookup::Hit(result)) => {
            shared.bump(&shared.counters.hits);
            span.phases[QUEUE] = queued.elapsed();
            span.outcome = "hit";
            return (
                Response::Cell {
                    key: plan.key,
                    cached: true,
                    coalesced: false,
                    trace_id: echo,
                    result,
                },
                span,
            );
        }
        Ok(Lookup::Quarantined(reason)) => {
            shared.bump(&shared.counters.quarantined);
            eprintln!(
                "campaign server: quarantined store entry {:#018x} ({reason}); recomputing",
                plan.key
            );
        }
        Ok(Lookup::Miss) => {}
        Err(e) => {
            // Compute-through: a store read failure costs a cache lookup,
            // never the cell. The same philosophy as degraded-write mode —
            // the disk's problems are the operator's page, not the
            // client's error.
            shared.bump(&shared.counters.store_read_errors);
            eprintln!(
                "campaign server: store read for {:#018x} failed ({e}); recomputing",
                plan.key
            );
        }
    }

    // Coalesce with an in-flight simulation of the same key, or become
    // the leader (registering before the admission gate would let shed
    // requests strand followers on a leader that never ran).
    enum Role {
        Leader(Arc<InFlight>),
        Follower(Arc<InFlight>),
    }
    let role = {
        let mut inflight = lock(&shared.inflight);
        if let Some(flight) = inflight.get(&plan.key) {
            Role::Follower(Arc::clone(flight))
        } else {
            if let Err(e) = shared.admit() {
                shared.bump(&shared.counters.sheds);
                span.phases[QUEUE] = queued.elapsed();
                span.outcome = "shed";
                return (with_trace(error_response(&e), &echo), span);
            }
            let flight = Arc::new(InFlight::default());
            inflight.insert(plan.key, Arc::clone(&flight));
            Role::Leader(flight)
        }
    };
    span.phases[QUEUE] = queued.elapsed();

    match role {
        Role::Follower(flight) => {
            // Generous bound: the leader's own watchdog fires first; the
            // slack covers publish latency.
            let deadline = Duration::from_secs(shared.opts.request_timeout_secs * 2 + 30);
            let waiting = Instant::now();
            let waited = flight.wait(deadline, &plan.identity);
            span.phases[COALESCE] = waiting.elapsed();
            match waited {
                Ok(result) => {
                    shared.bump(&shared.counters.coalesced);
                    span.outcome = "coalesced";
                    (
                        Response::Cell {
                            key: plan.key,
                            cached: false,
                            coalesced: true,
                            trace_id: echo,
                            result,
                        },
                        span,
                    )
                }
                Err(e) => {
                    span.outcome = "sim_error";
                    (with_trace(error_response(&e), &echo), span)
                }
            }
        }
        Role::Leader(flight) => {
            let simulating = Instant::now();
            let result = simulate(shared, cell, &plan);
            span.phases[SIMULATE] = simulating.elapsed();
            shared.release();
            let committing = Instant::now();
            if let Ok(doc) = &result {
                // Routed through the degraded-store state machine: a
                // failed write degrades to a cache miss next time (or to
                // compute-through mode if failures persist); the client
                // still gets its result.
                shared.store_put(plan.key, doc);
            }
            // Commit to the store *before* deregistering: a new request
            // sees either the in-flight entry or the stored result,
            // never a gap that would double-simulate.
            lock(&shared.inflight).remove(&plan.key);
            flight.publish(result.clone());
            span.phases[COMMIT] = committing.elapsed();
            match result {
                Ok(result) => {
                    shared.bump(&shared.counters.misses);
                    span.outcome = "miss";
                    (
                        Response::Cell {
                            key: plan.key,
                            cached: false,
                            coalesced: false,
                            trace_id: echo,
                            result,
                        },
                        span,
                    )
                }
                Err(e) => {
                    shared.bump(&shared.counters.sim_errors);
                    span.outcome = "sim_error";
                    (with_trace(error_response(&e), &echo), span)
                }
            }
        }
    }
}

/// Runs one cell as a single-job [`JobSet`], inheriting the pool's panic
/// containment and wall-clock watchdog.
fn simulate(shared: &Arc<Shared>, cell: &CellRequest, plan: &CellPlan) -> Result<Json, SimError> {
    let opts = RunOptions {
        timeout_secs: Some(shared.opts.request_timeout_secs),
        ..RunOptions::default()
    };
    let mut jobs = JobSet::new();
    let workload = cell.workload.clone();
    let config_name = cell.config.clone();
    let sw = cell.sw;
    let scale = cell.scale;
    let config = plan.config;
    let program = plan.program.clone();
    jobs.push(plan.identity.clone(), move || match &program {
        Some(program) => {
            let report = crate::run(program, config)?;
            let s = &report.stats;
            let mut doc = Json::obj();
            doc.set("workload", Json::Str(workload.clone()));
            doc.set("config", Json::Str(config_name.clone()));
            doc.set("sw", Json::Bool(sw));
            doc.set("scale", Json::Str(scale_name(scale).to_string()));
            doc.set("cycles", Json::U64(s.cycles));
            doc.set("insts", Json::U64(s.insts));
            doc.set("ipc", Json::F64(s.ipc()));
            doc.set("load_fail_rate", Json::F64(s.pred_loads.fail_rate_all()));
            doc.set("store_fail_rate", Json::F64(s.pred_stores.fail_rate_all()));
            doc.set("bandwidth_overhead", Json::F64(s.bandwidth_overhead()));
            Ok(doc)
        }
        None => {
            // Test cells, enabled only by the fault-injection suites.
            if workload == "__panic" {
                panic!("test cell '__panic' exploded on purpose");
            }
            let ms = parse_sleep_ms(&workload).expect("resolve validated the name");
            std::thread::sleep(Duration::from_millis(ms));
            let mut doc = Json::obj();
            doc.set("workload", Json::Str(workload.clone()));
            doc.set("slept_ms", Json::U64(ms));
            Ok(doc)
        }
    });
    let mut outcomes = jobs.run_each(1, &opts);
    outcomes.pop().expect("exactly one job").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::proto::{parse_response, render_request};
    use fac_sim::obs::json;
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fac_serve_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_opts(dir: &std::path::Path) -> ServeOptions {
        ServeOptions {
            store_dir: dir.join("store"),
            max_queue: 8,
            request_timeout_secs: 30,
            idle_timeout_secs: 30,
            test_cells: true,
            metrics_addr: None,
            access_log: None,
            slow_ms: 1000,
            degrade_after: 3,
            store_probe_ms: 50,
            chaos_store: None,
        }
    }

    /// Boots a server on an ephemeral TCP port; returns the endpoint, the
    /// shutdown handle, and the running thread.
    fn boot(opts: ServeOptions) -> (Endpoint, Shutdown, std::thread::JoinHandle<Result<(), SimError>>) {
        let (endpoint, shutdown, handle, _) = boot_shared(opts);
        (endpoint, shutdown, handle)
    }

    fn rpc(conn: &mut Conn, req: &Request) -> Response {
        let mut line = render_request(req);
        line.push('\n');
        conn.write_all(line.as_bytes()).unwrap();
        conn.flush().unwrap();
        let mut pending = Vec::new();
        let start = Instant::now();
        loop {
            match read_line(conn, &mut pending) {
                LineEvent::Line(line) => return parse_response(&line).unwrap(),
                LineEvent::Timeout => {
                    assert!(start.elapsed() < Duration::from_secs(60), "no response in 60 s");
                }
                other => panic!("connection died awaiting response: {other:?}"),
            }
        }
    }

    fn cell_req(workload: &str, config: &str) -> Request {
        Request::Cell(CellRequest {
            workload: workload.to_string(),
            sw: true,
            scale: Scale::Smoke,
            config: config.to_string(),
            config_fp: None,
            program_fp: None,
            trace_id: None,
        })
    }

    fn stat(resp: &Response, key: &str) -> u64 {
        match resp {
            Response::Stats(doc) => doc.get(key).and_then(Json::as_u64).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ping_miss_then_hit_byte_identical() {
        let dir = temp_dir("hit");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        assert_eq!(rpc(&mut conn, &Request::Ping), Response::Pong);

        let first = rpc(&mut conn, &cell_req("compress", "fac"));
        let (key1, doc1) = match &first {
            Response::Cell { key, cached: false, coalesced: false, result, .. } => {
                (*key, result.to_string())
            }
            other => panic!("{other:?}"),
        };
        let second = rpc(&mut conn, &cell_req("compress", "fac"));
        match &second {
            Response::Cell { key, cached: true, coalesced: false, result, .. } => {
                assert_eq!(*key, key1);
                assert_eq!(result.to_string(), doc1, "cached result must be byte-identical");
            }
            other => panic!("{other:?}"),
        }
        // A different config is a different key.
        match rpc(&mut conn, &cell_req("compress", "baseline")) {
            Response::Cell { key, cached: false, .. } => assert_ne!(key, key1),
            other => panic!("{other:?}"),
        }

        let stats = rpc(&mut conn, &Request::Stats);
        assert_eq!(stat(&stats, "hits"), 1);
        assert_eq!(stat(&stats, "misses"), 2);
        assert_eq!(stat(&stats, "entries"), 2);

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_requests_for_one_cell_run_one_simulation() {
        let dir = temp_dir("dedup");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));

        let results: Vec<Response> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let endpoint = endpoint.clone();
                    scope.spawn(move || {
                        let mut conn = Conn::dial(&endpoint).unwrap();
                        conn.set_read_timeout(Some(POLL)).unwrap();
                        rpc(&mut conn, &cell_req("__sleep:400", "fac"))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        let mut leaders = 0;
        let mut followers = 0u64;
        let mut docs = Vec::new();
        for resp in &results {
            match resp {
                Response::Cell { cached, coalesced, result, .. } => {
                    // A straggler that arrives after the leader committed
                    // legitimately sees a store hit instead.
                    if *coalesced {
                        followers += 1;
                    } else if !cached {
                        leaders += 1;
                    }
                    docs.push(result.to_string());
                }
                other => panic!("{other:?}"),
            }
        }
        // Races allowed: a straggler that connects after the leader
        // published sees a cache hit instead. But exactly one simulation
        // ran, and every request was answered one of the three ways.
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        let stats = rpc(&mut conn, &Request::Stats);
        assert_eq!(stat(&stats, "misses"), 1, "exactly one simulation must run");
        assert_eq!(stat(&stats, "misses") + stat(&stats, "hits") + stat(&stats, "coalesced"), 3);
        assert_eq!(stat(&stats, "coalesced"), followers);
        assert_eq!(leaders, 1);
        docs.dedup();
        assert_eq!(docs.len(), 1, "every waiter gets the same bytes");

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_bound_sheds_with_typed_overload() {
        let dir = temp_dir("shed");
        let mut opts = test_opts(&dir);
        opts.max_queue = 1;
        let (endpoint, shutdown, handle) = boot(opts);

        let ep = endpoint.clone();
        let slow = std::thread::spawn(move || {
            let mut conn = Conn::dial(&ep).unwrap();
            conn.set_read_timeout(Some(POLL)).unwrap();
            rpc(&mut conn, &cell_req("__sleep:700", "fac"))
        });
        std::thread::sleep(Duration::from_millis(250));

        // A *different* cell cannot be admitted while the slot is taken.
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        match rpc(&mut conn, &cell_req("__sleep:10", "fac")) {
            Response::Error { kind: ErrorKind::Overloaded, message, .. } => {
                assert!(message.contains("overloaded"), "{message}");
                assert!(message.contains("limit 1"), "{message}");
            }
            other => panic!("{other:?}"),
        }

        // Once the slot frees, the same request is admitted.
        assert!(matches!(slow.join().unwrap(), Response::Cell { .. }));
        assert!(matches!(
            rpc(&mut conn, &cell_req("__sleep:10", "fac")),
            Response::Cell { .. }
        ));
        let stats = rpc(&mut conn, &Request::Stats);
        assert_eq!(stat(&stats, "sheds"), 1);

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_cell_poisons_nothing() {
        let dir = temp_dir("panic");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        match rpc(&mut conn, &cell_req("__panic", "fac")) {
            Response::Error { kind: ErrorKind::Sim, message, .. } => {
                assert!(message.contains("panic"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // The same connection and the server both keep working.
        assert_eq!(rpc(&mut conn, &Request::Ping), Response::Pong);
        assert!(matches!(rpc(&mut conn, &cell_req("compress", "fac")), Response::Cell { .. }));
        let stats = rpc(&mut conn, &Request::Stats);
        assert_eq!(stat(&stats, "sim_errors"), 1);
        assert_eq!(stat(&stats, "conn_panics"), 0, "panic must be contained at the job");
        // A failed simulation is not memoized — the next attempt re-runs.
        match rpc(&mut conn, &cell_req("__panic", "fac")) {
            Response::Error { kind: ErrorKind::Sim, .. } => {}
            other => panic!("{other:?}"),
        }

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_entry_is_quarantined_and_recomputed_identically() {
        let dir = temp_dir("quarantine");
        let opts = test_opts(&dir);
        let store_dir = opts.store_dir.clone();
        let (endpoint, shutdown, handle) = boot(opts);
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        let first = rpc(&mut conn, &cell_req("grep", "fac"));
        let doc1 = match &first {
            Response::Cell { result, .. } => result.to_string(),
            other => panic!("{other:?}"),
        };

        // Flip one byte of the only stored entry.
        let entry = std::fs::read_dir(&store_dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "cell"))
            .expect("one committed entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();

        let again = rpc(&mut conn, &cell_req("grep", "fac"));
        match &again {
            Response::Cell { cached, result, .. } => {
                assert!(!cached, "a corrupt entry must not be served as a hit");
                assert_eq!(result.to_string(), doc1, "recomputed cell must be byte-identical");
            }
            other => panic!("{other:?}"),
        }
        let stats = rpc(&mut conn, &Request::Stats);
        assert_eq!(stat(&stats, "quarantined"), 1);
        assert!(store_dir.join("quarantine").exists());
        // And the recomputed entry serves as a hit from then on.
        assert!(matches!(
            rpc(&mut conn, &cell_req("grep", "fac")),
            Response::Cell { cached: true, .. }
        ));

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A connection is served the moment it arrives: twenty pings, each
    /// on a freshly dialed connection, finish well inside what twenty
    /// accept-poll sleeps would cost.
    #[test]
    fn fresh_connections_are_served_without_waiting() {
        let dir = temp_dir("fresh");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let start = Instant::now();
        for _ in 0..20 {
            let mut conn = Conn::dial(&endpoint).unwrap();
            conn.set_read_timeout(Some(POLL)).unwrap();
            assert!(matches!(rpc(&mut conn, &Request::Ping), Response::Pong));
        }
        let took = start.elapsed();
        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(took < Duration::from_millis(500), "20 fresh-connection pings took {took:?}");
    }

    /// With no traffic at all, a drain still ends every accept wait: the
    /// server, a health endpoint and a chaos proxy each return within a
    /// second of the flag going up.
    #[test]
    fn idle_listeners_drain_promptly() {
        fn finishes_within_a_second<T>(thread: &std::thread::JoinHandle<T>) -> bool {
            let start = Instant::now();
            while !thread.is_finished() && start.elapsed() < Duration::from_secs(1) {
                std::thread::sleep(Duration::from_millis(5));
            }
            thread.is_finished()
        }
        let dir = temp_dir("quiet");
        let mut opts = test_opts(&dir);
        opts.metrics_addr = Some("127.0.0.1:0".to_string());
        let (endpoint, shutdown, server) = boot(opts);
        let health_flag = Shutdown::new();
        let health = telemetry::spawn_health_endpoint(
            Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap(),
            health_flag.clone(),
            || Ok(()),
            String::new,
        );
        let proxy = crate::chaos::ChaosProxy::start(&endpoint, Default::default()).unwrap();
        std::thread::sleep(Duration::from_millis(200));

        shutdown.trigger();
        health_flag.trigger();
        let proxy = std::thread::spawn(move || proxy.stop());
        assert!(finishes_within_a_second(&server), "idle server still running");
        assert!(finishes_within_a_second(&health), "idle health endpoint still running");
        assert!(finishes_within_a_second(&proxy), "idle chaos proxy still running");
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_finishes_inflight_requests_then_exits_cleanly() {
        let dir = temp_dir("drain");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));

        let ep = endpoint.clone();
        let inflight = std::thread::spawn(move || {
            let mut conn = Conn::dial(&ep).unwrap();
            conn.set_read_timeout(Some(POLL)).unwrap();
            rpc(&mut conn, &cell_req("__sleep:500", "fac"))
        });
        std::thread::sleep(Duration::from_millis(150));
        shutdown.trigger();

        // The in-flight request is answered, not cut...
        match inflight.join().unwrap() {
            Response::Cell { result, .. } => {
                assert_eq!(result.get("slept_ms").and_then(Json::as_u64), Some(500));
            }
            other => panic!("{other:?}"),
        }
        // ...and the server exits 0 (Ok) promptly.
        handle.join().unwrap().unwrap();
        // The drained store is durable and intact.
        let store = Store::open(&dir.join("store")).unwrap();
        assert_eq!(store.len().unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_are_survivable_and_floods_are_dropped() {
        let dir = temp_dir("junk");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));

        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        conn.write_all(b"this is not json\n").unwrap();
        let mut pending = Vec::new();
        let start = Instant::now();
        loop {
            match read_line(&mut conn, &mut pending) {
                LineEvent::Line(line) => {
                    match parse_response(&line).unwrap() {
                        Response::Error { kind: ErrorKind::BadRequest, .. } => {}
                        other => panic!("{other:?}"),
                    }
                    break;
                }
                LineEvent::Timeout => {
                    assert!(start.elapsed() < Duration::from_secs(30), "no reply to junk line");
                }
                other => panic!("{other:?}"),
            }
        }
        // The connection survives a malformed request...
        assert_eq!(rpc(&mut conn, &Request::Ping), Response::Pong);

        // ...but an unterminated flood is shed with the connection.
        let mut flood = Conn::dial(&endpoint).unwrap();
        flood.set_read_timeout(Some(POLL)).unwrap();
        let chunk = vec![b'x'; 64 * 1024];
        let mut dropped = false;
        for _ in 0..64 {
            if flood.write_all(&chunk).is_err() {
                dropped = true;
                break;
            }
        }
        if !dropped {
            // The server's diagnostic-then-close also shows up as EOF.
            let mut pending = Vec::new();
            let start = Instant::now();
            loop {
                match read_line(&mut flood, &mut pending) {
                    LineEvent::Eof | LineEvent::Io(_) => break,
                    LineEvent::Line(_) | LineEvent::Timeout => {
                        assert!(
                            start.elapsed() < Duration::from_secs(30),
                            "flooding connection was not dropped"
                        );
                    }
                    LineEvent::Poison(e) => panic!("{e}"),
                }
            }
        }

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_connections_are_closed() {
        let dir = temp_dir("idle");
        let mut opts = test_opts(&dir);
        opts.idle_timeout_secs = 1;
        let (endpoint, shutdown, handle) = boot(opts);

        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let start = Instant::now();
        let mut pending = Vec::new();
        loop {
            match read_line(&mut conn, &mut pending) {
                LineEvent::Eof | LineEvent::Io(_) => break,
                LineEvent::Timeout => {
                    assert!(start.elapsed() < Duration::from_secs(10), "idle conn never closed");
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(start.elapsed() >= Duration::from_millis(900), "closed too eagerly");

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_skew_is_a_typed_bad_request() {
        let dir = temp_dir("skew");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        let mut cell = CellRequest {
            workload: "compress".to_string(),
            sw: true,
            scale: Scale::Smoke,
            config: "fac".to_string(),
            config_fp: Some(0x1234),
            program_fp: None,
            trace_id: None,
        };
        match rpc(&mut conn, &Request::Cell(cell.clone())) {
            Response::Error { kind: ErrorKind::BadRequest, message, .. } => {
                assert!(message.contains("fingerprint mismatch"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // With the *correct* fingerprints the request is served.
        cell.config_fp = Some(config_fingerprint(&MachineConfig::paper_baseline().with_fac()));
        let workload = fac_workloads::find("compress").unwrap();
        cell.program_fp =
            Some(program_fingerprint(&workload.build(&sw_support(true), Scale::Smoke)));
        assert!(matches!(rpc(&mut conn, &Request::Cell(cell)), Response::Cell { .. }));

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_report_uptime_version_inflight_and_latency() {
        let dir = temp_dir("telemetry_stats");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        assert!(matches!(rpc(&mut conn, &cell_req("__sleep:5", "fac")), Response::Cell { .. }));
        let stats = rpc(&mut conn, &Request::Stats);
        let doc = match &stats {
            Response::Stats(doc) => doc,
            other => panic!("{other:?}"),
        };
        assert!(doc.get("uptime_secs").and_then(Json::as_u64).is_some());
        assert_eq!(stat(&stats, "inflight"), 0);
        assert_eq!(stat(&stats, "max_queue"), 8);
        let version = match doc.get("build_version") {
            Some(Json::Str(v)) => v,
            other => panic!("{other:?}"),
        };
        assert_eq!(version, &build_version());
        assert!(version.contains("cfg:0x"), "{version}");
        // The latency object carries the request histogram and all five
        // phase lanes; the cell is timed, this stats request is not.
        let latency = doc.get("latency").expect("latency object");
        let count = latency
            .get("request_us")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(count >= 1, "request histogram must have samples, got {count}");
        for name in PHASE_NAMES {
            assert!(latency.get(&format!("{name}_us")).is_some(), "missing phase {name}");
        }
        // The sleeping cell must have landed in the simulate lane.
        let sim = latency.get("simulate_us").and_then(|h| h.get("count")).and_then(Json::as_u64);
        assert_eq!(sim, Some(1));

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_ids_are_echoed_or_minted() {
        let dir = temp_dir("trace");
        let (endpoint, shutdown, handle) = boot(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        let mut req = CellRequest {
            workload: "__sleep:1".to_string(),
            sw: true,
            scale: Scale::Smoke,
            config: "fac".to_string(),
            config_fp: None,
            program_fp: None,
            trace_id: Some("sweep-7.cell:3".to_string()),
        };
        match rpc(&mut conn, &Request::Cell(req.clone())) {
            Response::Cell { trace_id, .. } => {
                assert_eq!(trace_id.as_deref(), Some("sweep-7.cell:3"));
            }
            other => panic!("{other:?}"),
        }
        // An unstamped request gets a server-minted id that obeys the
        // wire grammar (it just round-tripped through the response).
        req.trace_id = None;
        match rpc(&mut conn, &Request::Cell(req)) {
            Response::Cell { trace_id: Some(id), .. } => {
                assert!(id.starts_with("srv-"), "{id}");
                assert!(crate::serve::proto::valid_trace_id(&id), "{id}");
            }
            other => panic!("{other:?}"),
        }

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_and_access_log_cover_every_request() {
        let dir = temp_dir("telemetry_e2e");
        let mut opts = test_opts(&dir);
        opts.metrics_addr = Some("127.0.0.1:0".to_string());
        opts.access_log = Some(dir.join("access.jsonl"));
        let shutdown = Shutdown::new();
        let server =
            Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), opts, shutdown.clone())
                .unwrap();
        let endpoint = server.endpoint();
        let metrics = server.metrics_addr().expect("metrics listener bound");
        let handle = std::thread::spawn(move || server.run());

        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        assert_eq!(rpc(&mut conn, &Request::Ping), Response::Pong);
        assert!(matches!(rpc(&mut conn, &cell_req("__sleep:5", "fac")), Response::Cell { .. }));
        assert!(matches!(
            rpc(&mut conn, &cell_req("__sleep:5", "fac")),
            Response::Cell { cached: true, .. }
        ));

        let body = scrape(metrics);
        assert!(body.starts_with("# HELP"), "{body}");
        assert!(body.contains("# TYPE faccell_requests_total counter"), "{body}");
        assert!(body.contains("faccell_requests_total{outcome=\"miss\"} 1"), "{body}");
        assert!(body.contains("faccell_requests_total{outcome=\"hit\"} 1"), "{body}");
        assert!(body.contains("# TYPE faccell_request_us histogram"), "{body}");
        assert!(body.contains("faccell_request_us_bucket{le=\"+Inf\"}"), "{body}");
        assert!(body.contains("faccell_phase_us_bucket{phase=\"simulate\","), "{body}");
        assert!(body.contains("faccell_uptime_seconds"), "{body}");
        // Cumulative buckets are monotone and end at _count.
        let buckets: Vec<u64> = body
            .lines()
            .filter(|l| l.starts_with("faccell_request_us_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!buckets.is_empty());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        let count: u64 = body
            .lines()
            .find(|l| l.starts_with("faccell_request_us_count"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .unwrap();
        assert_eq!(*buckets.last().unwrap(), count);

        shutdown.trigger();
        handle.join().unwrap().unwrap();

        // Every request left exactly one access-log line, each parseable
        // by the hardened JSON parser, with trace id, outcome, phases.
        let log = std::fs::read_to_string(dir.join("access.jsonl")).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3, "ping + two cells: {log}");
        for line in &lines {
            let doc = json::parse(line).unwrap();
            let id = match doc.get("trace_id") {
                Some(Json::Str(id)) => id.clone(),
                other => panic!("{other:?}"),
            };
            assert!(crate::serve::proto::valid_trace_id(&id), "{id}");
            assert!(doc.get("outcome").is_some());
            assert!(doc.get("peer").is_some());
            assert!(doc.get("total_us").and_then(Json::as_u64).is_some());
            assert!(doc.get("serialize_us").and_then(Json::as_u64).is_some());
            assert!(matches!(doc.get("slow"), Some(Json::Bool(_))));
        }
        let outcomes: Vec<String> = lines
            .iter()
            .map(|l| match json::parse(l).unwrap().get("outcome") {
                Some(Json::Str(o)) => o.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(outcomes, ["ping", "miss", "hit"]);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fetches the exposition body over plain HTTP/1.0.
    fn scrape(addr: std::net::SocketAddr) -> String {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        body
    }

    /// One HTTP/1.0 GET against the metrics listener: (head, body).
    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        use std::io::Read;
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("complete HTTP response");
        (head.to_string(), body.to_string())
    }

    /// Persistent write failure flips the store into degraded mode
    /// (visible in stats, the exposition, and `/readyz`), cells keep
    /// getting answered throughout, and a successful probe write brings
    /// the store back.
    #[test]
    fn degraded_store_flips_readyz_and_recovers() {
        let dir = temp_dir("degraded");
        let mut opts = test_opts(&dir);
        opts.metrics_addr = Some("127.0.0.1:0".to_string());
        opts.degrade_after = 2;
        opts.store_probe_ms = 25;
        // ENOSPC bursts long enough to trip degrade_after=2, frequent
        // enough to hit within a few cells, with a 40% chance per probe
        // of escaping the burst once degraded.
        opts.chaos_store = Some(crate::chaos::ChaosPlan {
            seed: 11,
            enospc_pct: 60,
            enospc_burst: 4,
            ..crate::chaos::ChaosPlan::default()
        });
        let shutdown = Shutdown::new();
        let server =
            Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), opts, shutdown.clone())
                .unwrap();
        let endpoint = server.endpoint();
        let metrics = server.metrics_addr().expect("metrics listener bound");
        let handle = std::thread::spawn(move || server.run());
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();

        let ready = |addr| http_get(addr, "/readyz").0;
        assert!(ready(metrics).starts_with("HTTP/1.0 200 OK"), "fresh server must be ready");

        // Drive distinct cells until the store degrades. Every response
        // must still be a real cell result — degraded mode is invisible
        // to the client.
        let degraded_at = (0..400u64).find(|&i| {
            let req = Request::Cell(CellRequest {
                workload: format!("__sleep:{}", 1 + i % 3),
                sw: i.is_multiple_of(2),
                scale: Scale::Smoke,
                config: if (i / 2).is_multiple_of(2) { "fac" } else { "baseline" }.to_string(),
                config_fp: None,
                program_fp: None,
                trace_id: None,
            });
            assert!(matches!(rpc(&mut conn, &req), Response::Cell { .. }));
            stat(&rpc(&mut conn, &Request::Stats), "degraded_intervals") >= 1
        });
        assert!(degraded_at.is_some(), "store never degraded under 60% ENOSPC bursts");

        // While degraded: liveness holds, readiness refuses, the gauge
        // shows, and the lanes say why.
        let (head, body) = http_get(metrics, "/readyz");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(body.contains("degraded"), "{body}");
        assert!(ready_healthz(metrics), "degraded is not dead: /healthz stays 200");
        let exposition = scrape(metrics);
        assert!(exposition.contains("faccell_store_degraded 1"), "{exposition}");
        let stats = rpc(&mut conn, &Request::Stats);
        assert!(matches!(
            stats,
            Response::Stats(ref doc) if doc.get("store_degraded") == Some(&Json::Bool(true))
        ));

        // Keep cells flowing so probe writes fire; a successful probe
        // ends the interval and readiness returns.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut recovered = false;
        let mut i = 0u64;
        while Instant::now() < deadline {
            let req = Request::Cell(CellRequest {
                workload: format!("__sleep:{}", 1 + i % 3),
                sw: i.is_multiple_of(2),
                scale: Scale::Smoke,
                config: if (i / 2).is_multiple_of(2) { "fac" } else { "baseline" }.to_string(),
                config_fp: None,
                program_fp: None,
                trace_id: None,
            });
            i += 1;
            assert!(matches!(rpc(&mut conn, &req), Response::Cell { .. }));
            let stats = rpc(&mut conn, &Request::Stats);
            if matches!(
                stats,
                Response::Stats(ref doc) if doc.get("store_degraded") == Some(&Json::Bool(false))
            ) {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(recovered, "store never exited degraded mode");
        assert!(ready(metrics).starts_with("HTTP/1.0 200 OK"), "recovered server must be ready");
        let stats = rpc(&mut conn, &Request::Stats);
        assert!(stat(&stats, "store_put_skipped") >= 1, "degraded mode must skip puts");
        assert!(stat(&stats, "store_put_errors") >= 2, "the failures that tripped it");

        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn ready_healthz(addr: std::net::SocketAddr) -> bool {
        let (head, body) = http_get(addr, "/healthz");
        head.starts_with("HTTP/1.0 200 OK") && body == "ok\n"
    }

    /// [`boot`], also handing back the server's shared state so a test
    /// can read the metrics table after the drain.
    fn boot_shared(
        opts: ServeOptions,
    ) -> (Endpoint, Shutdown, std::thread::JoinHandle<Result<(), SimError>>, Arc<Shared>) {
        let shutdown = Shutdown::new();
        let server =
            Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), opts, shutdown.clone())
                .unwrap();
        let endpoint = server.endpoint();
        let shared = Arc::clone(&server.shared);
        (endpoint, shutdown, std::thread::spawn(move || server.run()), shared)
    }

    /// The lone server's `stats` keys with their JSON types, and its
    /// exposition's series, labels and HELP/TYPE lines, after one miss,
    /// one hit and one shed. Both golden texts were generated from the
    /// hand-written renderers the metrics table replaced; the only
    /// difference is the two "Cell request" HELP lines.
    #[test]
    fn stats_and_exposition_keep_their_golden_shape() {
        let dir = temp_dir("golden");
        let (endpoint, shutdown, handle, shared) = boot_shared(test_opts(&dir));
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        let miss = rpc(&mut conn, &cell_req("__sleep:1", "fac"));
        assert!(matches!(miss, Response::Cell { cached: false, .. }), "{miss:?}");
        let hit = rpc(&mut conn, &cell_req("__sleep:1", "fac"));
        assert!(matches!(hit, Response::Cell { cached: true, .. }), "{hit:?}");
        shared.admitted.store(shared.opts.max_queue, Ordering::SeqCst);
        let shed = rpc(&mut conn, &cell_req("__sleep:2", "fac"));
        assert!(matches!(shed, Response::Error { kind: ErrorKind::Overloaded, .. }), "{shed:?}");
        shared.admitted.store(0, Ordering::SeqCst);
        shutdown.trigger();
        handle.join().unwrap().unwrap();

        assert_eq!(
            telemetry::json_shape(&telemetry::stats_json(METRICS, shared.as_ref())),
            "hits: u64\n\
             misses: u64\n\
             coalesced: u64\n\
             sheds: u64\n\
             quarantined: u64\n\
             sim_errors: u64\n\
             conn_panics: u64\n\
             store_put_errors: u64\n\
             store_read_errors: u64\n\
             store_put_skipped: u64\n\
             degraded_intervals: u64\n\
             store_degraded: bool\n\
             entries: u64\n\
             admitted: u64\n\
             uptime_secs: u64\n\
             build_version: str\n\
             inflight: u64\n\
             max_queue: u64\n\
             latency: obj\n\
             latency.request_us: obj\n\
             latency.request_us.count: u64\n\
             latency.request_us.sum: u64\n\
             latency.request_us.min: u64\n\
             latency.request_us.max: u64\n\
             latency.request_us.p50: f64\n\
             latency.request_us.p90: f64\n\
             latency.request_us.p99: f64\n\
             latency.queue_us: obj\n\
             latency.queue_us.count: u64\n\
             latency.queue_us.sum: u64\n\
             latency.queue_us.min: u64\n\
             latency.queue_us.max: u64\n\
             latency.queue_us.p50: f64\n\
             latency.queue_us.p90: f64\n\
             latency.queue_us.p99: f64\n\
             latency.coalesce_us: obj\n\
             latency.coalesce_us.count: u64\n\
             latency.coalesce_us.sum: u64\n\
             latency.coalesce_us.min: null\n\
             latency.coalesce_us.max: null\n\
             latency.coalesce_us.p50: f64\n\
             latency.coalesce_us.p90: f64\n\
             latency.coalesce_us.p99: f64\n\
             latency.simulate_us: obj\n\
             latency.simulate_us.count: u64\n\
             latency.simulate_us.sum: u64\n\
             latency.simulate_us.min: u64\n\
             latency.simulate_us.max: u64\n\
             latency.simulate_us.p50: f64\n\
             latency.simulate_us.p90: f64\n\
             latency.simulate_us.p99: f64\n\
             latency.commit_us: obj\n\
             latency.commit_us.count: u64\n\
             latency.commit_us.sum: u64\n\
             latency.commit_us.min: u64\n\
             latency.commit_us.max: u64\n\
             latency.commit_us.p50: f64\n\
             latency.commit_us.p90: f64\n\
             latency.commit_us.p99: f64\n\
             latency.serialize_us: obj\n\
             latency.serialize_us.count: u64\n\
             latency.serialize_us.sum: u64\n\
             latency.serialize_us.min: u64\n\
             latency.serialize_us.max: u64\n\
             latency.serialize_us.p50: f64\n\
             latency.serialize_us.p90: f64\n\
             latency.serialize_us.p99: f64\n"
        );
        assert_eq!(
            telemetry::exposition_shape(&telemetry::exposition(METRICS, shared.as_ref())),
            "# HELP faccell_requests_total Cell requests by outcome.\n\
             # TYPE faccell_requests_total counter\n\
             faccell_requests_total{outcome=\"hit\"}\n\
             faccell_requests_total{outcome=\"miss\"}\n\
             faccell_requests_total{outcome=\"coalesced\"}\n\
             faccell_requests_total{outcome=\"shed\"}\n\
             faccell_requests_total{outcome=\"sim_error\"}\n\
             # HELP faccell_quarantined_total Store entries quarantined after failing verification.\n\
             # TYPE faccell_quarantined_total counter\n\
             faccell_quarantined_total\n\
             # HELP faccell_conn_panics_total Connection threads that panicked outside the job boundary.\n\
             # TYPE faccell_conn_panics_total counter\n\
             faccell_conn_panics_total\n\
             # HELP faccell_store_put_errors_total Store writes that failed (the result was still served).\n\
             # TYPE faccell_store_put_errors_total counter\n\
             faccell_store_put_errors_total\n\
             # HELP faccell_store_read_errors_total Store reads that failed and fell through to recomputation.\n\
             # TYPE faccell_store_read_errors_total counter\n\
             faccell_store_read_errors_total\n\
             # HELP faccell_store_put_skipped_total Store writes skipped while the store was degraded.\n\
             # TYPE faccell_store_put_skipped_total counter\n\
             faccell_store_put_skipped_total\n\
             # HELP faccell_degraded_intervals_total Times the store entered degraded (read-only) mode.\n\
             # TYPE faccell_degraded_intervals_total counter\n\
             faccell_degraded_intervals_total\n\
             # HELP faccell_store_degraded 1 while the store is in degraded (read-only) mode.\n\
             # TYPE faccell_store_degraded gauge\n\
             faccell_store_degraded\n\
             # HELP faccell_inflight Simulations registered for coalescing right now.\n\
             # TYPE faccell_inflight gauge\n\
             faccell_inflight\n\
             # HELP faccell_admitted Simulations past the admission gate right now.\n\
             # TYPE faccell_admitted gauge\n\
             faccell_admitted\n\
             # HELP faccell_queue_limit Admission bound (--max-queue).\n\
             # TYPE faccell_queue_limit gauge\n\
             faccell_queue_limit\n\
             # HELP faccell_store_entries Committed cells in the content-addressed store.\n\
             # TYPE faccell_store_entries gauge\n\
             faccell_store_entries\n\
             # HELP faccell_uptime_seconds Seconds since the server started.\n\
             # TYPE faccell_uptime_seconds gauge\n\
             faccell_uptime_seconds\n\
             # HELP faccell_request_us Cell request latency across all phases, microseconds.\n\
             # TYPE faccell_request_us histogram\n\
             faccell_request_us_bucket{le=\"*\"}\n\
             faccell_request_us_sum\n\
             faccell_request_us_count\n\
             # HELP faccell_phase_us Cell request latency per phase, microseconds.\n\
             # TYPE faccell_phase_us histogram\n\
             faccell_phase_us_bucket{phase=\"queue\",le=\"*\"}\n\
             faccell_phase_us_sum{phase=\"queue\"}\n\
             faccell_phase_us_count{phase=\"queue\"}\n\
             faccell_phase_us_bucket{phase=\"coalesce\",le=\"*\"}\n\
             faccell_phase_us_sum{phase=\"coalesce\"}\n\
             faccell_phase_us_count{phase=\"coalesce\"}\n\
             faccell_phase_us_bucket{phase=\"simulate\",le=\"*\"}\n\
             faccell_phase_us_sum{phase=\"simulate\"}\n\
             faccell_phase_us_count{phase=\"simulate\"}\n\
             faccell_phase_us_bucket{phase=\"commit\",le=\"*\"}\n\
             faccell_phase_us_sum{phase=\"commit\"}\n\
             faccell_phase_us_count{phase=\"commit\"}\n\
             faccell_phase_us_bucket{phase=\"serialize\",le=\"*\"}\n\
             faccell_phase_us_sum{phase=\"serialize\"}\n\
             faccell_phase_us_count{phase=\"serialize\"}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Latency histograms time cell requests only; pings and `stats`
    /// polls still get their access-log line.
    #[test]
    fn latency_times_cells_only_and_the_access_log_keeps_every_request() {
        const PINGS: usize = 4;
        let dir = temp_dir("cells_only");
        let mut opts = test_opts(&dir);
        opts.access_log = Some(dir.join("access.jsonl"));
        let (endpoint, shutdown, handle, shared) = boot_shared(opts);
        let mut conn = Conn::dial(&endpoint).unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        for _ in 0..PINGS {
            assert_eq!(rpc(&mut conn, &Request::Ping), Response::Pong);
        }
        assert!(matches!(rpc(&mut conn, &Request::Stats), Response::Stats(_)));
        assert!(matches!(rpc(&mut conn, &cell_req("__sleep:1", "fac")), Response::Cell { .. }));
        assert!(matches!(rpc(&mut conn, &cell_req("__sleep:1", "fac")), Response::Cell { .. }));
        shutdown.trigger();
        handle.join().unwrap().unwrap();

        let stats = telemetry::stats_json(METRICS, shared.as_ref());
        let latency = stats.get("latency").expect("latency object");
        let count = |lane: &str| latency.get(lane).and_then(|h| h.get("count")).and_then(Json::as_u64);
        assert_eq!(count("request_us"), Some(2), "{stats}");
        assert_eq!(count("serialize_us"), Some(2), "{stats}");
        let log = std::fs::read_to_string(dir.join("access.jsonl")).unwrap();
        assert_eq!(log.lines().count(), PINGS + 3, "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }

}
