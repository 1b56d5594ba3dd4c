//! Chaos harness: seeded fault injection for the serving stack.
//!
//! PR 1 proved the FAC verification circuit against a fault-injection
//! matrix; this module applies the same philosophy to the layer the
//! campaigns run through. Two injectors, both deterministic from a seed:
//!
//! - [`ChaosFs`] wraps the [`crate::io::Fs`] seam the content-addressed
//!   store writes through and injects the disk's greatest hits — ENOSPC
//!   bursts, silent short writes (torn frames the store's checksums must
//!   catch), fsync failures, rename loss, and read errors — per a
//!   [`ChaosPlan`].
//! - [`ChaosProxy`] is a std-only in-process TCP proxy that forwards a
//!   client to any [`Endpoint`] while dropping, delaying, duplicating,
//!   truncating mid-line, and resetting connections per a [`ProxyPlan`].
//!   Drop *storms* (several consecutive refused connections) exist
//!   specifically to trip the client's circuit breaker.
//!
//! [`Backoff`] rounds the module out: the seeded jittered-exponential
//! delay schedule the resilient client retries on, deterministic so
//! `--jobs` artifacts stay byte-identical.
//!
//! Everything here is test/ops tooling: nothing in the production path
//! depends on this module, but the production path is built so this
//! module can wrap it (`Store::open_with`, the proxy speaking the real
//! protocol endpoint-to-endpoint).

use crate::io::{Fs, RealFs};
use crate::serve::server::{lock, Shutdown};
use crate::serve::{serve_connections, Conn, Endpoint, Listener};
use fac_core::rng::{splitmix64, SplitMix64};
use fac_sim::{ConfigError, SimError};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Filesystem fault plans
// ---------------------------------------------------------------------------

/// A seeded disk-fault schedule for [`ChaosFs`]. All rates are percent
/// probabilities per operation; `0` disables a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Chance (per write) of starting an ENOSPC burst: this write and
    /// the next `enospc_burst - 1` write/fsync operations fail with
    /// "no space left on device". Bursts — not independent coin flips —
    /// are what drive a store into (and back out of) degraded mode.
    pub enospc_pct: u8,
    /// How many consecutive write/fsync operations an ENOSPC burst eats.
    pub enospc_burst: u32,
    /// Chance of a *silent* short write: only a prefix of the bytes
    /// lands, yet the operation reports success. The torn frame must be
    /// caught later by the store's checksum, never served.
    pub short_pct: u8,
    /// Chance an fsync fails after the data was written.
    pub fsync_pct: u8,
    /// Chance a rename is *lost*: the source vanishes, the destination
    /// never appears, and the operation reports success.
    pub rename_pct: u8,
    /// Chance a read fails with an I/O error.
    pub read_pct: u8,
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            enospc_pct: 0,
            enospc_burst: 6,
            short_pct: 0,
            fsync_pct: 0,
            rename_pct: 0,
            read_pct: 0,
        }
    }
}

impl ChaosPlan {
    /// Parses a `--chaos-store` spec: comma-separated `key=value` pairs
    /// over `seed`, `enospc`, `burst`, `short`, `fsync`, `rename`,
    /// `read` (rates in percent). Example: `seed=3,enospc=20,burst=9`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFlagValue`] for `--chaos-store`, naming the
    /// offending pair: not `key=value`, a non-numeric value, an unknown
    /// key, a rate above 100 percent, or a burst above `u32::MAX`.
    pub fn parse(spec: &str) -> Result<ChaosPlan, SimError> {
        let mut plan = ChaosPlan::default();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let bad = |expected: &'static str| -> SimError {
                ConfigError::BadFlagValue {
                    flag: "--chaos-store".to_string(),
                    value: pair.to_string(),
                    expected,
                }
                .into()
            };
            let (key, value) = pair.split_once('=').ok_or_else(|| bad("key=value pairs"))?;
            let num = value
                .parse::<u64>()
                .map_err(|_| bad("a non-negative integer value"))?;
            let pct = |num: u64| match u8::try_from(num) {
                Ok(p) if p <= 100 => Ok(p),
                _ => Err(bad("a rate of 0 to 100 percent")),
            };
            match key {
                "seed" => plan.seed = num,
                "enospc" => plan.enospc_pct = pct(num)?,
                "burst" => {
                    plan.enospc_burst = u32::try_from(num)
                        .map_err(|_| bad("a burst of at most u32::MAX operations"))?;
                }
                "short" => plan.short_pct = pct(num)?,
                "fsync" => plan.fsync_pct = pct(num)?,
                "rename" => plan.rename_pct = pct(num)?,
                "read" => plan.read_pct = pct(num)?,
                _ => {
                    return Err(bad(
                        "keys seed, enospc, burst, short, fsync, rename or read",
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// A moderate all-faults preset used by the soak tests and CI: every
    /// fault class enabled at rates a resilient stack should ride out.
    pub fn light(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            enospc_pct: 15,
            enospc_burst: 8,
            short_pct: 8,
            fsync_pct: 5,
            rename_pct: 5,
            read_pct: 5,
        }
    }
}

struct FsState {
    rng: SplitMix64,
    /// Remaining write/fsync operations the current ENOSPC burst fails.
    burst_left: u32,
}

/// An [`Fs`] that injects faults per a [`ChaosPlan`] in front of a real
/// filesystem. Deterministic given the plan and the operation sequence.
pub struct ChaosFs {
    inner: RealFs,
    plan: ChaosPlan,
    state: Mutex<FsState>,
    injected: AtomicU64,
}

impl ChaosFs {
    /// A chaotic filesystem following `plan`.
    pub fn new(plan: ChaosPlan) -> ChaosFs {
        let rng = SplitMix64::new(plan.seed ^ 0xfac_d15c_0fa0_17ed);
        ChaosFs { inner: RealFs, plan, state: Mutex::new(FsState { rng, burst_left: 0 }), injected: AtomicU64::new(0) }
    }

    /// How many faults have been injected so far (all classes).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn fault(&self, what: &str) -> std::io::Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        std::io::Error::other(format!("chaos: injected {what}"))
    }
}

impl Fs for ChaosFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let hit = lock(&self.state).rng.chance(u64::from(self.plan.read_pct), 100);
        if hit {
            return Err(self.fault("read failure"));
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        enum Verdict {
            Ok,
            Enospc,
            Short,
        }
        let verdict = {
            let mut st = lock(&self.state);
            if st.burst_left > 0 {
                st.burst_left -= 1;
                Verdict::Enospc
            } else if st.rng.chance(u64::from(self.plan.enospc_pct), 100) {
                st.burst_left = self.plan.enospc_burst.saturating_sub(1);
                Verdict::Enospc
            } else if st.rng.chance(u64::from(self.plan.short_pct), 100) {
                Verdict::Short
            } else {
                Verdict::Ok
            }
        };
        match verdict {
            Verdict::Ok => self.inner.write(path, bytes),
            Verdict::Enospc => {
                // A real ENOSPC can land a prefix before failing.
                self.inner.write(path, &bytes[..bytes.len() / 2]).ok();
                Err(self.fault("ENOSPC (no space left on device)"))
            }
            Verdict::Short => {
                // Silent torn write: a prefix lands, success is reported.
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.inner.write(path, &bytes[..bytes.len() / 2])
            }
        }
    }

    fn sync(&self, path: &Path) -> std::io::Result<()> {
        let verdict = {
            let mut st = lock(&self.state);
            if st.burst_left > 0 {
                st.burst_left -= 1;
                true
            } else {
                st.rng.chance(u64::from(self.plan.fsync_pct), 100)
            }
        };
        if verdict {
            return Err(self.fault("fsync failure"));
        }
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let hit = lock(&self.state).rng.chance(u64::from(self.plan.rename_pct), 100);
        if hit {
            // Rename loss: the source is consumed, the destination never
            // appears — as after a crash between unlink and link.
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::fs::remove_file(from).ok();
            return Ok(());
        }
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        // Directory creation happens once at open; faulting it would only
        // test `Store::open`'s error return, which a unit test covers
        // directly.
        self.inner.create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// Jittered exponential backoff
// ---------------------------------------------------------------------------

/// A deterministic jittered-exponential retry schedule: delay `i` is
/// uniform in `[d/2, d]` where `d = min(cap, base << i)`. Seeded, so a
/// campaign's retry timing — and therefore everything the artifact
/// records — is reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: SplitMix64,
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base_ms`, capped at `cap_ms`.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff { rng: SplitMix64::new(seed ^ 0xfac_bac0_ff5e_7ee1), base_ms: base_ms.max(1), cap_ms: cap_ms.max(1), attempt: 0 }
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let d = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let jittered = d / 2 + self.rng.below(d / 2 + 1);
        Duration::from_millis(jittered)
    }

    /// Restarts the schedule after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// ---------------------------------------------------------------------------
// Kill-worker fault mode
// ---------------------------------------------------------------------------

/// Raw `kill(2)` with SIGKILL. The reaper targets supervisor-owned
/// worker processes it holds no `Child` handle for, so std's
/// `Child::kill` is not an option.
fn sigkill(pid: i32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    if pid <= 0 {
        // Never signal process groups (0, negative) by accident.
        return false;
    }
    // SAFETY: kill(2) takes two plain integers and touches no memory.
    unsafe { kill(pid, SIGKILL) == 0 }
}

/// A seeded kill-worker schedule for [`WorkerReaper`]: how many workers
/// to SIGKILL and how long to idle between kills.
#[derive(Debug, Clone)]
pub struct KillPlan {
    /// Seed for victim choice and delay jitter.
    pub seed: u64,
    /// Workers to kill before the reaper retires.
    pub kills: u32,
    /// Shortest idle between kills, milliseconds.
    pub min_delay_ms: u64,
    /// Longest idle between kills, milliseconds.
    pub max_delay_ms: u64,
}

/// The kill-worker fault mode: a background thread that SIGKILLs a
/// seeded-random live worker pid at seeded-random intervals, simulating
/// a fleet whose processes keep dying under it. The victim set is
/// sampled fresh before each kill via the `victims` closure, so the
/// reaper always shoots a *currently live* worker, including ones the
/// supervisor restarted since the last kill.
pub struct WorkerReaper {
    stop: Arc<AtomicBool>,
    killed: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerReaper {
    /// Starts the reaper. `victims` returns the pids currently eligible
    /// to die; an empty set just delays the next kill until a worker
    /// shows up (or the reaper is stopped).
    pub fn start(
        plan: KillPlan,
        victims: impl Fn() -> Vec<i32> + Send + 'static,
    ) -> WorkerReaper {
        let stop = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_killed = Arc::clone(&killed);
        let thread = std::thread::spawn(move || {
            let mut rng = SplitMix64::new(plan.seed ^ 0xfac_dead_bee5_4ea9);
            let (lo, hi) = (plan.min_delay_ms, plan.max_delay_ms.max(plan.min_delay_ms));
            for _ in 0..plan.kills {
                let delay = lo + rng.below(hi - lo + 1);
                if !sleep_unless_stopped(&thread_stop, Duration::from_millis(delay)) {
                    return;
                }
                loop {
                    if thread_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let pids = victims();
                    if !pids.is_empty() {
                        let victim = pids[rng.below(pids.len() as u64) as usize];
                        if sigkill(victim) {
                            thread_killed.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                    if !sleep_unless_stopped(&thread_stop, Duration::from_millis(10)) {
                        return;
                    }
                }
            }
        });
        WorkerReaper { stop, killed, thread: Some(thread) }
    }

    /// Workers SIGKILLed so far — soak tests assert this is nonzero,
    /// proving the run exercised the fault it claims to survive.
    pub fn killed(&self) -> u64 {
        self.killed.load(Ordering::Relaxed)
    }

    /// Stops the schedule (kills already delivered stay delivered) and
    /// joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for WorkerReaper {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Sleeps `total` in short slices, returning `false` early if `stop`
/// flips.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) -> bool {
    let mut left = total;
    while !left.is_zero() {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let slice = left.min(PUMP_POLL);
        std::thread::sleep(slice);
        left -= slice;
    }
    !stop.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Chaos TCP proxy
// ---------------------------------------------------------------------------

/// A seeded network-fault schedule for [`ChaosProxy`]. Rates are percent
/// probabilities; `0` disables a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Chance an accepted connection is closed before any byte flows.
    pub drop_pct: u8,
    /// Chance an accepted connection starts a *storm*: it and the next
    /// `storm_len - 1` connections are refused. Storms are what trip a
    /// client's circuit breaker — independent drops rarely produce the
    /// N *consecutive* failures the breaker counts.
    pub storm_pct: u8,
    /// Connections a storm refuses.
    pub storm_len: u32,
    /// Chance a forwarded line/chunk is delayed by `delay_ms` first.
    pub delay_pct: u8,
    /// The injected delay.
    pub delay_ms: u64,
    /// Chance a complete client→server line is forwarded twice —
    /// duplicate delivery, which the server's idempotent store and the
    /// client's trace-id filtering must both absorb.
    pub dup_pct: u8,
    /// Chance a line (client→server) or chunk (server→client) is cut in
    /// half mid-flight and the connection killed — the torn-frame case
    /// the framing layer must contain.
    pub truncate_pct: u8,
    /// Chance the connection is killed between server→client chunks.
    pub reset_pct: u8,
}

impl Default for ProxyPlan {
    fn default() -> ProxyPlan {
        ProxyPlan {
            seed: 0,
            drop_pct: 0,
            storm_pct: 0,
            storm_len: 4,
            delay_pct: 0,
            delay_ms: 10,
            dup_pct: 0,
            truncate_pct: 0,
            reset_pct: 0,
        }
    }
}

impl ProxyPlan {
    /// A moderate all-faults preset used by the soak tests and CI.
    pub fn light(seed: u64) -> ProxyPlan {
        ProxyPlan {
            seed,
            drop_pct: 5,
            storm_pct: 4,
            storm_len: 4,
            delay_pct: 10,
            delay_ms: 5,
            dup_pct: 8,
            truncate_pct: 8,
            reset_pct: 4,
        }
    }
}

/// How often a proxy pump blocked on a quiet socket wakes to check the
/// stop flag.
const PUMP_POLL: Duration = Duration::from_millis(50);

struct ProxyShared {
    plan: ProxyPlan,
    stop: Shutdown,
    /// Accept-side state: the RNG that decides each connection's fate and
    /// seeds its pump RNGs, the storm counter, and the connections
    /// accepted so far.
    accept: Mutex<(SplitMix64, u32, u64)>,
    faults: AtomicU64,
}

impl ProxyShared {
    fn fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }
}

/// An in-process chaos TCP proxy: listens on an ephemeral local port,
/// forwards to `upstream`, and injects the [`ProxyPlan`]'s faults.
///
/// ```no_run
/// use fac_bench::chaos::{ChaosProxy, ProxyPlan};
/// use fac_bench::serve::Endpoint;
///
/// let upstream = Endpoint::parse("--connect", "127.0.0.1:7199").unwrap();
/// let proxy = ChaosProxy::start(&upstream, ProxyPlan::light(1)).unwrap();
/// let flaky_endpoint = proxy.endpoint(); // point the client here
/// # drop(flaky_endpoint);
/// proxy.stop();
/// ```
pub struct ChaosProxy {
    endpoint: Endpoint,
    shared: Arc<ProxyShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the listening socket cannot be bound.
    pub fn start(upstream: &Endpoint, plan: ProxyPlan) -> Result<ChaosProxy, SimError> {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()))?;
        let endpoint = listener.endpoint();
        let accept_rng = SplitMix64::new(plan.seed ^ 0xfac_9707_ace0_90cb);
        let shared = Arc::new(ProxyShared {
            plan,
            stop: Shutdown::new(),
            accept: Mutex::new((accept_rng, 0, 0)),
            faults: AtomicU64::new(0),
        });
        let (upstream, conns) = (upstream.clone(), Arc::clone(&shared));
        let accept_thread = std::thread::spawn(move || {
            let stop = conns.stop.clone();
            serve_connections(&listener, &stop, move |client| {
                proxy_conn(client, &upstream, &conns);
            })
            .ok();
        });
        Ok(ChaosProxy { endpoint, shared, accept_thread: Some(accept_thread) })
    }

    /// The endpoint clients should dial.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Faults injected so far (drops, storms, delays, dups, truncations,
    /// resets) — soak tests assert this is nonzero, proving the run
    /// actually exercised the faults it claims to survive.
    pub fn faults(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Stops accepting, tears down the pumps, and joins every thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.stop.trigger();
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Decides an accepted connection's fate and, if it lives, pumps it: the
/// client→server direction on this thread, server→client on a second
/// one that is joined before returning.
fn proxy_conn(client: Conn, upstream: &Endpoint, shared: &Arc<ProxyShared>) {
    let (c2s_seed, s2c_seed) = {
        let mut accept = lock(&shared.accept);
        let (ref mut rng, ref mut storm_left, ref mut conn_index) = *accept;
        *conn_index += 1;
        let conn_index = *conn_index;
        if *storm_left > 0 {
            *storm_left -= 1;
            shared.fault();
            return; // dropped: the storm eats this connection
        }
        if rng.chance(u64::from(shared.plan.storm_pct), 100) {
            *storm_left = shared.plan.storm_len.saturating_sub(1);
            shared.fault();
            return;
        }
        if rng.chance(u64::from(shared.plan.drop_pct), 100) {
            shared.fault();
            return;
        }
        (splitmix64(rng.next_u64() ^ conn_index), splitmix64(rng.next_u64() ^ !conn_index))
    };

    let Ok(server) = Conn::dial(upstream) else {
        return; // upstream gone: dropping the client is the honest signal
    };
    // Short read timeouts keep the pumps responsive to the stop flag.
    client.set_read_timeout(Some(PUMP_POLL)).ok();
    server.set_read_timeout(Some(PUMP_POLL)).ok();

    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let kill = KillSwitch::new(&client, &server);
    let back = {
        let (shared, kill) = (Arc::clone(shared), kill.clone());
        std::thread::spawn(move || {
            pump_server_to_client(server_r, client, &shared, s2c_seed, &kill);
        })
    };
    pump_client_to_server(client_r, server, shared, c2s_seed, &kill);
    back.join().ok();
}

/// Kills both halves of a proxied connection, from either pump thread.
#[derive(Clone)]
struct KillSwitch {
    client: Arc<Conn>,
    server: Arc<Conn>,
}

impl KillSwitch {
    fn new(client: &Conn, server: &Conn) -> KillSwitch {
        KillSwitch {
            client: Arc::new(client.try_clone().expect("conn clone")),
            server: Arc::new(server.try_clone().expect("conn clone")),
        }
    }

    fn kill(&self) {
        self.client.shutdown().ok();
        self.server.shutdown().ok();
    }
}

/// Client→server pump: line-aware, so duplication and truncation operate
/// on whole protocol frames (the campaign protocol never stalls on a
/// partial line — every writer sends complete LF-terminated requests).
fn pump_client_to_server(
    mut from: Conn,
    mut to: Conn,
    shared: &ProxyShared,
    seed: u64,
    kill: &KillSwitch,
) {
    let mut rng = SplitMix64::new(seed);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    while !shared.stop.is_set() {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let rest = pending.split_off(pos + 1);
                    let line = std::mem::replace(&mut pending, rest);
                    if rng.chance(u64::from(shared.plan.truncate_pct), 100) && line.len() > 2 {
                        shared.fault();
                        to.write_all(&line[..line.len() / 2]).ok();
                        to.flush().ok();
                        kill.kill();
                        return;
                    }
                    if rng.chance(u64::from(shared.plan.delay_pct), 100) {
                        shared.fault();
                        std::thread::sleep(Duration::from_millis(shared.plan.delay_ms));
                    }
                    let copies =
                        if rng.chance(u64::from(shared.plan.dup_pct), 100) {
                            shared.fault();
                            2
                        } else {
                            1
                        };
                    for _ in 0..copies {
                        if to.write_all(&line).and_then(|()| to.flush()).is_err() {
                            kill.kill();
                            return;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    kill.kill();
}

/// Server→client pump: chunk-level, so truncation can land mid-line —
/// exactly the torn response frame the client's `read_line` must absorb.
fn pump_server_to_client(
    mut from: Conn,
    mut to: Conn,
    shared: &ProxyShared,
    seed: u64,
    kill: &KillSwitch,
) {
    let mut rng = SplitMix64::new(seed);
    let mut chunk = [0u8; 4096];
    while !shared.stop.is_set() {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if rng.chance(u64::from(shared.plan.reset_pct), 100) {
                    shared.fault();
                    kill.kill();
                    return;
                }
                if rng.chance(u64::from(shared.plan.truncate_pct), 100) && n > 2 {
                    shared.fault();
                    to.write_all(&chunk[..n / 2]).ok();
                    to.flush().ok();
                    kill.kill();
                    return;
                }
                if rng.chance(u64::from(shared.plan.delay_pct), 100) {
                    shared.fault();
                    std::thread::sleep(Duration::from_millis(shared.plan.delay_ms));
                }
                if to.write_all(&chunk[..n]).and_then(|()| to.flush()).is_err() {
                    kill.kill();
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    kill.kill();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn chaos_plan_parses_and_rejects() {
        let plan = ChaosPlan::parse("seed=3,enospc=20,burst=9,short=5,fsync=4,rename=3,read=2")
            .unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.enospc_pct, 20);
        assert_eq!(plan.enospc_burst, 9);
        assert_eq!(plan.short_pct, 5);
        assert_eq!(plan.fsync_pct, 4);
        assert_eq!(plan.rename_pct, 3);
        assert_eq!(plan.read_pct, 2);
        assert_eq!(ChaosPlan::parse("").unwrap(), ChaosPlan::default());
        for bad in [
            "warp=1",
            "enospc",
            "enospc=abc",
            "enospc=101",
            "burst=4294967296",
        ] {
            let err = ChaosPlan::parse(bad).unwrap_err();
            let typed = matches!(
                &err,
                SimError::InvalidConfig(ConfigError::BadFlagValue { flag, value, .. })
                    if flag == "--chaos-store" && value == bad
            );
            assert!(typed, "{bad}: {err}");
        }
        assert_eq!(
            ChaosPlan::parse("burst=4294967295").unwrap().enospc_burst,
            u32::MAX
        );
    }

    #[test]
    fn chaos_fs_is_deterministic_per_seed() {
        let dir = std::env::temp_dir().join(format!("fac_chaosfs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |seed: u64| -> Vec<bool> {
            let fs = ChaosFs::new(ChaosPlan { seed, ..ChaosPlan::light(seed) });
            (0..40)
                .map(|i| fs.write(&dir.join(format!("f{i}")), b"payload-bytes").is_ok())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fault schedule");
        assert_ne!(run(7), run(8), "different seeds, different schedules");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_comes_in_bursts() {
        let dir = std::env::temp_dir().join(format!("fac_chaosburst_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = ChaosPlan { seed: 1, enospc_pct: 10, enospc_burst: 5, ..ChaosPlan::default() };
        let fs = ChaosFs::new(plan);
        let payload = vec![b'x'; 64];
        let outcomes: Vec<bool> =
            (0..200).map(|i| fs.write(&dir.join(format!("f{i}")), &payload).is_ok()).collect();
        // Every failure run is at least the burst length (bursts only
        // start from a clean state, so runs can merge but never shrink).
        let mut run = 0;
        let mut saw_failure = false;
        for ok in outcomes.iter().chain(std::iter::once(&true)) {
            if !ok {
                run += 1;
                saw_failure = true;
            } else {
                assert!(run == 0 || run >= 5, "burst of only {run} failures");
                run = 0;
            }
        }
        assert!(saw_failure, "plan injected nothing in 200 writes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_jittered_exponential_and_deterministic() {
        let delays = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(seed, 50, 2000);
            (0..8).map(|_| b.next_delay().as_millis() as u64).collect()
        };
        let a = delays(3);
        assert_eq!(a, delays(3), "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let full = (50u64 << i).min(2000);
            assert!(*d >= full / 2 && *d <= full, "delay {i} = {d} outside [{}, {full}]", full / 2);
        }
        let mut b = Backoff::new(3, 50, 2000);
        b.next_delay();
        b.next_delay();
        b.reset();
        assert!(b.next_delay().as_millis() <= 50, "reset restarts the schedule");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The documented jitter bound — delay `i` uniform in `[d/2, d]`
        /// with `d = min(cap, base << i)` — holds for arbitrary
        /// seed/base/cap, the schedule is a pure function of its seed,
        /// and `reset()` snaps the exponent (not the jitter RNG) back to
        /// the first rung.
        #[test]
        fn backoff_jitter_stays_in_bounds_and_is_deterministic(
            seed in 0u64..1_000_000,
            base_ms in 1u64..1_000,
            cap_ms in 1u64..10_000,
        ) {
            let schedule = |seed: u64| -> Vec<u64> {
                let mut b = Backoff::new(seed, base_ms, cap_ms);
                (0..12).map(|_| b.next_delay().as_millis() as u64).collect()
            };
            let bounds_ok = |i: usize, d: u64| -> (u64, u64, bool) {
                let full = base_ms
                    .saturating_mul(1u64.checked_shl(i as u32).unwrap_or(u64::MAX))
                    .min(cap_ms);
                (full / 2, full, d >= full / 2 && d <= full)
            };
            let a = schedule(seed);
            prop_assert_eq!(&a, &schedule(seed), "same seed must replay the same schedule");
            for (i, d) in a.iter().enumerate() {
                let (lo, hi, ok) = bounds_ok(i, *d);
                prop_assert!(ok, "delay {} = {} outside [{}, {}]", i, d, lo, hi);
            }
            let mut b = Backoff::new(seed, base_ms, cap_ms);
            for _ in 0..5 {
                b.next_delay();
            }
            b.reset();
            for i in 0..4 {
                let d = b.next_delay().as_millis() as u64;
                let (lo, hi, ok) = bounds_ok(i, d);
                prop_assert!(ok, "post-reset delay {} = {} outside [{}, {}]", i, d, lo, hi);
            }
        }
    }

    /// The kill-worker fault mode actually kills: live victim processes
    /// die by SIGKILL, the kill counter matches, and the schedule stops
    /// once the budget is spent.
    #[test]
    fn worker_reaper_kills_live_pids() {
        let spawn = || {
            std::process::Command::new("sleep")
                .arg("30")
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn sleep")
        };
        let mut children = vec![spawn(), spawn()];
        let pids: Vec<i32> = children.iter().map(|c| c.id() as i32).collect();
        let survivor = spawn();
        let plan = KillPlan { seed: 11, kills: 2, min_delay_ms: 1, max_delay_ms: 5 };
        // Feed the reaper one victim per kill (pids of processes we have
        // already seen die must not be re-offered: on a real fleet the
        // supervisor's live set provides that; here a queue does).
        let queue = Arc::new(Mutex::new(pids));
        let view = Arc::clone(&queue);
        let reaper = WorkerReaper::start(plan, move || {
            let mut q = lock(&view);
            if q.is_empty() { Vec::new() } else { vec![q.remove(0)] }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !children.is_empty() {
            assert!(std::time::Instant::now() < deadline, "reaper left a victim alive for 10s");
            children.retain_mut(|c| c.try_wait().expect("try_wait").is_none());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reaper.killed(), 2, "both victims counted");
        reaper.stop();
        let mut survivor = survivor;
        assert!(
            survivor.try_wait().expect("try_wait").is_none(),
            "reaper shot a pid outside the victim set"
        );
        survivor.kill().ok();
        survivor.wait().ok();
    }

    /// A fault-free proxy is a transparent byte pipe for line traffic.
    #[test]
    fn clean_proxy_passes_lines_through() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = upstream.local_addr().unwrap().to_string();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 256];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let proxy = ChaosProxy::start(&Endpoint::Tcp(addr), ProxyPlan::default()).unwrap();
        let Endpoint::Tcp(paddr) = proxy.endpoint() else { panic!("proxy is tcp") };
        let mut c = TcpStream::connect(paddr).unwrap();
        c.write_all(b"hello line one\nand two\n").unwrap();
        let mut got = Vec::new();
        while got.iter().filter(|&&b| b == b'\n').count() < 2 {
            let mut buf = [0u8; 64];
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "eof before both lines echoed");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"hello line one\nand two\n");
        assert_eq!(proxy.faults(), 0);
        drop(c);
        proxy.stop();
        echo.join().unwrap();
    }

    /// A 100%-storm proxy refuses every connection: dials succeed (the
    /// listener is live) but the stream is dead — the transport-failure
    /// signal the client's breaker counts.
    #[test]
    fn storming_proxy_drops_connections() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = upstream.local_addr().unwrap().to_string();
        let plan = ProxyPlan { seed: 1, storm_pct: 100, storm_len: 1000, ..ProxyPlan::default() };
        let proxy = ChaosProxy::start(&Endpoint::Tcp(addr), plan).unwrap();
        let Endpoint::Tcp(paddr) = proxy.endpoint() else { panic!("proxy is tcp") };
        for _ in 0..3 {
            let mut c = TcpStream::connect(&paddr).unwrap();
            c.write_all(b"{\"cmd\":\"ping\"}\n").ok();
            let mut buf = [0u8; 8];
            // The proxy dropped us: the read sees EOF (or a reset).
            match c.read(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(n) => panic!("storm-dropped connection delivered {n} bytes"),
            }
        }
        assert!(proxy.faults() >= 3);
        proxy.stop();
    }
}
