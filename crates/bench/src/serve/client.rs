//! Campaign-protocol clients: a blocking single-connection [`Client`]
//! and a fault-tolerant [`ResilientClient`] that layers reconnection,
//! jittered exponential backoff, idempotent resend, and a per-endpoint
//! circuit breaker on top of it.
//!
//! The resend story leans on the protocol being idempotent by
//! construction: a cell request names a pure function of its fingerprints,
//! so sending it twice costs at most one coalesced wait on the server.
//! Responses carry the request's trace id back, which lets the resilient
//! client discard stale responses (e.g. the answer to a duplicated
//! request line) instead of mis-pairing them with the RPC in flight.

use super::proto::{
    parse_response, read_line, render_request, write_line, CellRequest, ErrorKind, LineEvent,
    Request, Response,
};
use super::{
    config_by_name, scale_name, sw_support, Conn, Endpoint, CONFIG_NAMES,
};
use crate::chaos::Backoff;
use crate::telemetry::Hist;
use fac_sim::obs::Json;
use fac_sim::{config_fingerprint, program_fingerprint, SimError};
use fac_workloads::Scale;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often a blocked response read wakes to check the deadline.
const POLL: Duration = Duration::from_millis(100);

/// A connected campaign client.
pub struct Client {
    conn: Conn,
    endpoint: String,
    /// Partial-line carry between reads (a response split across TCP
    /// segments must not be lost to a poll timeout).
    pending: Vec<u8>,
    deadline: Duration,
}

impl Client {
    /// Dials the server and arms the per-request response deadline.
    ///
    /// # Errors
    ///
    /// [`SimError::Unreachable`] when nothing answers at the endpoint,
    /// [`SimError::Io`] for any other connection failure.
    pub fn connect(endpoint: &Endpoint, deadline: Duration) -> Result<Client, SimError> {
        let conn = Conn::dial(endpoint)?;
        let label = endpoint.to_string();
        conn.set_read_timeout(Some(POLL)).map_err(|e| SimError::io(&label, e))?;
        conn.set_write_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| SimError::io(&label, e))?;
        Ok(Client { conn, endpoint: label, pending: Vec::new(), deadline })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the connection drops or the peer sends an
    /// unparseable line; [`SimError::Timeout`] when no response arrives
    /// within the deadline. A protocol-level refusal (`ok: false`) is a
    /// successful RPC — it returns [`Response::Error`].
    pub fn rpc(&mut self, req: &Request) -> Result<Response, SimError> {
        let line = self.rpc_line(&render_request(req))?;
        self.parse(&line)
    }

    /// Sends one raw request line and blocks for the raw response line,
    /// unparsed — the fleet supervisor relays a worker's answer byte for
    /// byte.
    ///
    /// # Errors
    ///
    /// As [`Client::rpc`], minus the parse.
    pub fn rpc_line(&mut self, line: &str) -> Result<String, SimError> {
        write_line(&mut self.conn, line).map_err(|e| SimError::io(&self.endpoint, e))?;
        self.recv_line()
    }

    /// Blocks for the next response without sending anything. Used by
    /// the resilient layer to skim past a stale response (a duplicate in
    /// flight) and reach the one that answers the current request.
    ///
    /// # Errors
    ///
    /// As [`Client::rpc`], minus the send path.
    pub fn recv(&mut self) -> Result<Response, SimError> {
        let line = self.recv_line()?;
        self.parse(&line)
    }

    fn parse(&self, line: &str) -> Result<Response, SimError> {
        parse_response(line).map_err(|e| SimError::Io {
            path: self.endpoint.clone(),
            message: format!("unparseable response: {e}"),
        })
    }

    /// The next response line, within the deadline.
    fn recv_line(&mut self) -> Result<String, SimError> {
        let io_err = |message: String| SimError::Io { path: self.endpoint.clone(), message };
        let start = Instant::now();
        loop {
            match read_line(&mut self.conn, &mut self.pending) {
                LineEvent::Line(line) => return Ok(line),
                LineEvent::Timeout => {
                    if start.elapsed() >= self.deadline {
                        return Err(SimError::Timeout {
                            job: format!("request to {}", self.endpoint),
                            secs: self.deadline.as_secs(),
                        });
                    }
                }
                LineEvent::Eof => {
                    return Err(io_err("server closed the connection".to_string()));
                }
                LineEvent::Poison(e) => return Err(io_err(e.to_string())),
                LineEvent::Io(e) => return Err(SimError::io(&self.endpoint, e)),
            }
        }
    }
}

/// Knobs for [`ResilientClient`]: how hard to retry, how to pace the
/// retries, and when to stop dialing a dead endpoint altogether.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Transport attempts per RPC before the last error surfaces.
    pub attempts: u32,
    /// First backoff delay, milliseconds (doubles per retry).
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Consecutive transport failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks before admitting a probe.
    pub breaker_cooldown_ms: u64,
    /// With the breaker open and the cooldown not yet elapsed: `true`
    /// returns [`SimError::CircuitOpen`] immediately, `false` sleeps out
    /// the cooldown and probes.
    pub fail_fast: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 6,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 500,
            fail_fast: false,
        }
    }
}

/// What the resilience layer did on the caller's behalf. None of these
/// lanes belong in a campaign artifact — they depend on fault timing.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// Successful dials after the first (each one replaced a dead
    /// connection).
    pub reconnects: u64,
    /// RPC attempts beyond the first, across all requests.
    pub retries: u64,
    /// Transitions into the breaker's open state.
    pub breaker_trips: u64,
    /// Responses discarded because their trace id did not match the
    /// request in flight.
    pub stale_discards: u64,
}

/// Circuit breaker state: closed counts consecutive failures, open
/// blocks until the cooldown admits a half-open probe, and the probe's
/// outcome either closes the circuit or snaps it back open. `HalfOpen`
/// means a probe is in flight — concurrent callers are refused until
/// its outcome is reported.
#[derive(Debug)]
enum BreakerState {
    Closed { failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// What [`CircuitBreaker::admit`] decided for one caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed: go ahead.
    Admitted,
    /// Circuit was open and the cooldown has elapsed; this caller — and
    /// only this caller — carries the half-open probe. Its
    /// success/failure report decides whether the circuit closes.
    Probe,
    /// Circuit open, cooldown still running: wait this long and ask
    /// again (or fail fast, per the caller's policy).
    Wait(Duration),
    /// A probe is already in flight; this caller is refused outright.
    Refused {
        /// Consecutive failures that opened the circuit.
        failures: u32,
    },
}

/// A thread-safe circuit breaker shared by every caller hitting one
/// endpoint. Closed counts consecutive failures; at `threshold` the
/// circuit opens and [`CircuitBreaker::admit`] refuses work for
/// `cooldown`; the first admit after the cooldown is granted
/// [`Admission::Probe`] — exactly one, however many threads race for
/// it — and everyone else is refused until that probe's outcome is
/// reported via [`CircuitBreaker::note_success`] or
/// [`CircuitBreaker::note_failure`].
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: Mutex<BreakerState>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures and admits a probe after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
            trips: AtomicU64::new(0),
        }
    }

    /// Gates one attempt. See [`Admission`] for the verdicts; the
    /// `Probe` verdict is handed to exactly one caller per open→half-open
    /// transition.
    pub fn admit(&self) -> Admission {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match *state {
            BreakerState::Closed { .. } => Admission::Admitted,
            BreakerState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed < self.cooldown {
                    Admission::Wait(self.cooldown - elapsed)
                } else {
                    *state = BreakerState::HalfOpen;
                    Admission::Probe
                }
            }
            BreakerState::HalfOpen => Admission::Refused { failures: self.threshold },
        }
    }

    /// Records a success: the circuit closes and the failure count
    /// resets, whatever state it was in.
    pub fn note_success(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *state = BreakerState::Closed { failures: 0 };
    }

    /// Records a failure. Closed accumulates toward the threshold; a
    /// failed half-open probe snaps straight back to open — one bad
    /// probe is proof enough that the endpoint is still down.
    pub fn note_failure(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match *state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    *state = BreakerState::Open { since: Instant::now() };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                } else {
                    *state = BreakerState::Closed { failures };
                }
            }
            BreakerState::HalfOpen => {
                *state = BreakerState::Open { since: Instant::now() };
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Transitions into the open state since construction.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// A campaign client that survives a flaky path to the server: dead
/// connections are redialed with jittered exponential backoff, requests
/// are resent (idempotently — the protocol keys work by content, not by
/// connection), stale responses are discarded by trace id, and an
/// endpoint that keeps failing trips a circuit breaker instead of
/// absorbing the full retry budget on every call.
pub struct ResilientClient {
    endpoint: Endpoint,
    deadline: Duration,
    policy: RetryPolicy,
    backoff: Backoff,
    breaker: CircuitBreaker,
    conn: Option<Client>,
    ever_connected: bool,
    /// Resilience counters, readable at any point between RPCs.
    pub stats: ClientStats,
}

impl ResilientClient {
    /// Wraps an endpoint. The first connection is dialed lazily by the
    /// first RPC, so construction never fails.
    pub fn new(endpoint: Endpoint, deadline: Duration, policy: RetryPolicy) -> ResilientClient {
        let backoff = Backoff::new(policy.seed, policy.base_ms, policy.cap_ms);
        let breaker = CircuitBreaker::new(
            policy.breaker_threshold,
            Duration::from_millis(policy.breaker_cooldown_ms),
        );
        ResilientClient {
            endpoint,
            deadline,
            policy,
            backoff,
            breaker,
            conn: None,
            ever_connected: false,
            stats: ClientStats::default(),
        }
    }

    /// Sends one request, retrying transport failures within the policy's
    /// budget. Protocol refusals are returned, not retried — except
    /// `overloaded`, which is backed off and resent (shedding is the
    /// server asking exactly for that).
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted, or
    /// [`SimError::CircuitOpen`] under a `fail_fast` policy while the
    /// breaker's cooldown holds.
    pub fn rpc(&mut self, req: &Request) -> Result<Response, SimError> {
        let expected = match req {
            Request::Cell(cell) => cell.trace_id.clone(),
            _ => None,
        };
        let mut last_err: Option<SimError> = None;
        let mut last_refusal: Option<Response> = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            self.admit()?;
            if let Err(e) = self.ensure_conn() {
                self.note_failure();
                last_err = Some(e);
                self.pause();
                continue;
            }
            let conn = self.conn.as_mut().expect("ensure_conn populated the connection");
            match exchange(conn, req, &expected, &mut self.stats) {
                Ok(resp) => {
                    // Any parsed response proves the transport: the
                    // breaker closes even if the server said no.
                    self.breaker.note_success();
                    if let Response::Error { kind: ErrorKind::Overloaded, .. } = &resp {
                        last_refusal = Some(resp);
                        self.pause();
                        continue;
                    }
                    self.backoff.reset();
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    self.note_failure();
                    last_err = Some(e);
                    self.pause();
                }
            }
        }
        if let Some(resp) = last_refusal {
            // Every attempt was shed: surface the refusal so the caller
            // can map it to its documented exit path.
            return Ok(resp);
        }
        Err(last_err.unwrap_or_else(|| SimError::Io {
            path: self.endpoint.to_string(),
            message: "retry budget exhausted".to_string(),
        }))
    }

    /// Gates an attempt on the breaker. Open + cooled down becomes a
    /// half-open probe; open + hot either fails fast or sleeps the
    /// cooldown out and asks again.
    fn admit(&mut self) -> Result<(), SimError> {
        loop {
            match self.breaker.admit() {
                Admission::Admitted | Admission::Probe => return Ok(()),
                Admission::Wait(remaining) => {
                    if self.policy.fail_fast {
                        return Err(SimError::CircuitOpen {
                            endpoint: self.endpoint.to_string(),
                            failures: self.policy.breaker_threshold,
                        });
                    }
                    std::thread::sleep(remaining);
                }
                // Single-threaded use never races a probe, but a shared
                // breaker can: treat an in-flight probe like an open
                // circuit.
                Admission::Refused { failures } => {
                    if self.policy.fail_fast {
                        return Err(SimError::CircuitOpen {
                            endpoint: self.endpoint.to_string(),
                            failures,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(self.policy.breaker_cooldown_ms));
                }
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<(), SimError> {
        if self.conn.is_none() {
            let client = Client::connect(&self.endpoint, self.deadline)?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(client);
        }
        Ok(())
    }

    /// Records a transport failure against the breaker and mirrors its
    /// trip count into the client's stats.
    fn note_failure(&mut self) {
        self.breaker.note_failure();
        self.stats.breaker_trips = self.breaker.trips();
    }

    fn pause(&mut self) {
        std::thread::sleep(self.backoff.next_delay());
    }
}

/// One send/receive with trace-id pairing: stale responses (wrong or
/// missing id relative to the request in flight) are skimmed past or
/// converted to a retryable transport error.
fn exchange(
    client: &mut Client,
    req: &Request,
    expected: &Option<String>,
    stats: &mut ClientStats,
) -> Result<Response, SimError> {
    let mut resp = client.rpc(req)?;
    loop {
        match (&resp, expected) {
            // The answer to some other (duplicated, superseded) request.
            (Response::Cell { trace_id: Some(id), .. }, Some(want)) if id != want => {}
            (Response::Error { trace_id: Some(id), .. }, Some(want)) if id != want => {}
            (Response::Pong | Response::Stats(_) | Response::Fleet(_), Some(_)) => {}
            (Response::Cell { .. }, None) => {}
            (Response::Error { trace_id: Some(_), .. }, None) => {}
            // We stamped a trace id but the refusal carries none: the
            // server never parsed our request (the line was mangled in
            // flight). That is a transport fault, not a real refusal —
            // resending the intact line is safe and correct.
            (
                Response::Error { kind: ErrorKind::BadRequest, trace_id: None, .. },
                Some(want),
            ) => {
                return Err(SimError::Io {
                    path: "campaign server".to_string(),
                    message: format!("request {want} was refused without a trace id (mangled in flight?)"),
                });
            }
            _ => return Ok(resp),
        }
        stats.stale_discards += 1;
        resp = client.recv()?;
    }
}

/// A cell that failed within a sweep: either the server said no, or the
/// transport gave out after the retry budget.
#[derive(Debug)]
pub enum CellError {
    /// A protocol refusal (`ok: false`).
    Refused {
        /// The refusal's machine-readable kind.
        kind: ErrorKind,
        /// The refusal's human-readable message.
        message: String,
    },
    /// A transport failure that outlived the retry budget.
    Transport(SimError),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Refused { kind, message } => {
                write!(f, "server refused ({}): {message}", kind.token())
            }
            CellError::Transport(e) => write!(f, "{e}"),
        }
    }
}

/// Everything a sweep produced, including what it failed to produce.
/// Rows and trace ids stay index-aligned with the workload × config
/// grid; a failed cell holds a `null` row under its deterministic trace
/// id, so partial artifacts keep their shape.
pub struct SweepReport {
    /// One result document per cell (`Json::Null` where the cell failed).
    pub rows: Vec<Json>,
    /// The trace id each cell was served (or attempted) under.
    pub trace_ids: Vec<Json>,
    /// Failed cells, in sweep order, keyed by trace id.
    pub errors: Vec<(String, CellError)>,
    /// The transport error that aborted the sweep, when not keep-going.
    pub fatal: Option<SimError>,
    /// Cells served from the store.
    pub hits: usize,
    /// Cells simulated fresh.
    pub misses: usize,
    /// Cells coalesced with an in-flight simulation.
    pub coalesces: usize,
    /// Cells attempted.
    pub total: usize,
    /// Client-observed RPC latency, microseconds.
    pub latency: Hist,
}

/// Builds a cell request, computing fingerprints locally for real
/// workloads (test cells have no client-side build to fingerprint). The
/// trace id is derived from the cell's identity, not a clock or counter:
/// the ids land in sweep artifacts and must not vary run to run.
pub fn cell_request(workload: &str, config: &str, scale: Scale) -> CellRequest {
    let mut req = CellRequest {
        workload: workload.to_string(),
        sw: true,
        scale,
        config: config.to_string(),
        config_fp: None,
        program_fp: None,
        trace_id: Some(format!("sweep.{workload}.{config}.{}", scale_name(scale))),
    };
    if let Some(cfg) = config_by_name(config) {
        req.config_fp = Some(config_fingerprint(&cfg));
    }
    if let Some(wl) = fac_workloads::find(workload) {
        req.program_fp = Some(program_fingerprint(&wl.build(&sw_support(true), scale)));
    }
    req
}

/// Drives the full sweep — every workload under every named config —
/// buffering per-cell results as it goes. A transport failure after the
/// retry budget either aborts (recording `fatal`) or, under
/// `keep_going`, records the cell's error and moves on. Either way the
/// report holds everything completed so far: a killed connection costs
/// one RPC, not the campaign.
///
/// `on_line` receives one formatted progress line per completed cell.
pub fn run_sweep(
    client: &mut ResilientClient,
    scale: Scale,
    keep_going: bool,
    mut on_line: impl FnMut(&str),
) -> SweepReport {
    let mut report = SweepReport {
        rows: Vec::new(),
        trace_ids: Vec::new(),
        errors: Vec::new(),
        fatal: None,
        hits: 0,
        misses: 0,
        coalesces: 0,
        total: 0,
        latency: Hist::new(),
    };
    for workload in fac_workloads::suite() {
        for config in CONFIG_NAMES {
            report.total += 1;
            let req = cell_request(workload.name, config, scale);
            let sent_id = req.trace_id.clone().unwrap_or_default();
            let start = Instant::now();
            let resp = client.rpc(&Request::Cell(req));
            report
                .latency
                .record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
            let err = match resp {
                Ok(Response::Cell { cached, coalesced, trace_id, result, .. }) => {
                    let cycles = result.get("cycles").and_then(Json::as_u64).unwrap_or(0);
                    on_line(&format!(
                        "{:10} {:8} {:>12} cycles{}",
                        workload.name,
                        config,
                        cycles,
                        if cached { "  (cached)" } else { "" }
                    ));
                    if cached {
                        report.hits += 1;
                    } else if coalesced {
                        report.coalesces += 1;
                    } else {
                        report.misses += 1;
                    }
                    // The artifact records the id the server actually
                    // served under; for a stamped request that is the
                    // echo of our own deterministic id.
                    report.trace_ids.push(Json::Str(trace_id.unwrap_or(sent_id)));
                    report.rows.push(result);
                    continue;
                }
                Ok(Response::Error { kind, message, .. }) => CellError::Refused { kind, message },
                Ok(other) => CellError::Transport(unexpected(&other)),
                Err(e) => CellError::Transport(e),
            };
            report.trace_ids.push(Json::Str(sent_id.clone()));
            report.rows.push(Json::Null);
            let abort = !keep_going;
            if abort {
                if let CellError::Transport(e) = &err {
                    report.fatal = Some(e.clone());
                }
            }
            report.errors.push((sent_id, err));
            if abort {
                return report;
            }
        }
    }
    report
}

/// Renders a sweep report as the `server_sweep` artifact. The `errors`
/// key appears only when cells failed, so a clean sweep's artifact is
/// byte-identical whether it ran through a perfect network or a chaotic
/// one that the resilience layer papered over. RPC latency is
/// wall-clock, so it rides behind `timings` only.
pub fn sweep_artifact(report: &SweepReport, scale: Scale, timings: bool) -> Json {
    let mut doc = Json::obj();
    doc.set("campaign", Json::Str("server_sweep".to_string()));
    doc.set("scale", Json::Str(scale_name(scale).to_string()));
    doc.set(
        "configs",
        Json::Arr(CONFIG_NAMES.iter().map(|c| Json::Str(c.to_string())).collect()),
    );
    doc.set("trace_ids", Json::Arr(report.trace_ids.clone()));
    doc.set("rows", Json::Arr(report.rows.clone()));
    if !report.errors.is_empty() {
        let errors = report
            .errors
            .iter()
            .map(|(job, err)| {
                let mut e = Json::obj();
                e.set("job", Json::Str(job.clone()));
                e.set("error", Json::Str(err.to_string()));
                e
            })
            .collect();
        doc.set("errors", Json::Arr(errors));
    }
    if timings {
        doc.set("client_latency", report.latency.to_json());
    }
    doc
}

/// A response that violates the protocol's request/response pairing.
fn unexpected(resp: &Response) -> SimError {
    SimError::Io {
        path: "campaign server".to_string(),
        message: format!("unexpected response: {resp:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn trip(breaker: &CircuitBreaker, threshold: u32) {
        for _ in 0..threshold {
            breaker.note_failure();
        }
    }

    #[test]
    fn breaker_opens_at_threshold_and_recovers_through_a_probe() {
        let breaker = CircuitBreaker::new(3, Duration::from_millis(0));
        assert_eq!(breaker.admit(), Admission::Admitted);
        breaker.note_failure();
        breaker.note_failure();
        assert_eq!(breaker.admit(), Admission::Admitted, "below threshold stays closed");
        breaker.note_failure();
        assert_eq!(breaker.trips(), 1);
        // Zero cooldown: the first admit after the trip is the probe.
        assert_eq!(breaker.admit(), Admission::Probe);
        assert_eq!(breaker.admit(), Admission::Refused { failures: 3 });
        breaker.note_success();
        assert_eq!(breaker.admit(), Admission::Admitted, "good probe closes the circuit");

        // A failed probe snaps back open and counts a second trip.
        trip(&breaker, 3);
        assert_eq!(breaker.admit(), Admission::Probe);
        breaker.note_failure();
        assert_eq!(breaker.trips(), 3);
        assert_eq!(breaker.admit(), Admission::Probe, "re-opened with zero cooldown probes again");
    }

    #[test]
    fn breaker_open_and_hot_reports_the_remaining_cooldown() {
        let breaker = CircuitBreaker::new(1, Duration::from_secs(3600));
        breaker.note_failure();
        match breaker.admit() {
            Admission::Wait(remaining) => {
                assert!(remaining <= Duration::from_secs(3600));
                assert!(remaining > Duration::from_secs(3000), "cooldown barely started");
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    /// The satellite guarantee: however many threads race an open
    /// breaker whose cooldown has elapsed, exactly one is handed the
    /// half-open probe; the rest are refused until its outcome lands.
    #[test]
    fn breaker_admits_exactly_one_halfopen_probe_under_concurrency() {
        const THREADS: usize = 16;
        for round in 0..8 {
            let breaker = Arc::new(CircuitBreaker::new(2, Duration::from_millis(0)));
            trip(&breaker, 2);
            let barrier = Arc::new(Barrier::new(THREADS));
            let verdicts: Vec<Admission> = (0..THREADS)
                .map(|_| {
                    let breaker = Arc::clone(&breaker);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        breaker.admit()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("admit thread panicked"))
                .collect();
            let probes = verdicts.iter().filter(|v| **v == Admission::Probe).count();
            let refused = verdicts
                .iter()
                .filter(|v| matches!(v, Admission::Refused { .. }))
                .count();
            assert_eq!(probes, 1, "round {round}: probe handed to {probes} callers: {verdicts:?}");
            assert_eq!(refused, THREADS - 1, "round {round}: {verdicts:?}");
        }
    }
}
