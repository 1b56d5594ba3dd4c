//! The campaign server: simulation-as-a-service with a content-addressed
//! result cache.
//!
//! ROADMAP item 2 promotes the one-shot sweep machinery — the
//! [`crate::par::JobSet`] pool, the content-addressed [`store`] behind
//! crash-safe `--resume` — into a long-lived service. Exploring the
//! design spaces the related work opens means re-running thousands of
//! (configuration × workload) cells with heavy overlap; a memoizing
//! server answers repeats from its store in microseconds and only
//! simulates genuinely new cells.
//!
//! The subsystem splits into three modules plus two binaries:
//!
//! - [`proto`] — the line-delimited JSON protocol (requests, responses,
//!   capped line framing) built on the hardened `fac_sim::obs::json`
//!   parser.
//! - [`store`] — the content-addressed on-disk result store:
//!   FNV-1a-checksummed `FACCELL` frames written atomically, corrupted
//!   entries quarantined and transparently recomputed.
//! - [`server`] — the std-only thread-per-connection front end:
//!   in-flight deduplication (N clients asking for one cell trigger one
//!   simulation), a bounded admission queue with typed
//!   [`fac_sim::SimError::Overloaded`] backpressure, per-request
//!   watchdogs via [`crate::par::RunOptions`], idle/slow-client socket
//!   timeouts, per-connection panic containment, and graceful drain.
//! - `campaign_server` / `campaign_client` — the CLI front ends.
//!
//! A cell is identified by the *fingerprints* of its machine
//! configuration and its built program (the same FNV-1a identities the
//! checkpoint frames verify on restore), so the store key changes
//! whenever either side of the cell changes — a stale entry can never be
//! served for a different experiment.

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

use fac_asm::SoftwareSupport;
use fac_sim::{ConfigError, MachineConfig, SimError};
use fac_workloads::Scale;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use server::Shutdown;
use std::time::Duration;

/// Where the server listens (or the client connects): `tcp:<host:port>`
/// or `unix:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address such as `127.0.0.1:7199` (`:0` asks the OS
    /// for an ephemeral port; the server prints the bound address).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string from a `--listen` / `--connect` flag.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] (a [`ConfigError::BadFlagValue`])
    /// naming the flag when the string is neither `tcp:host:port` nor
    /// `unix:path`.
    pub fn parse(flag: &'static str, value: &str) -> Result<Endpoint, SimError> {
        const EXPECTED: &str = "tcp:<host:port> or unix:<path>";
        let bad = || {
            SimError::from(ConfigError::BadFlagValue {
                flag: flag.to_string(),
                value: value.to_string(),
                expected: EXPECTED,
            })
        };
        if let Some(path) = value.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err(bad());
                }
                return Ok(Endpoint::Unix(std::path::PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                return Err(bad());
            }
        }
        let addr = value.strip_prefix("tcp:").unwrap_or(value);
        // A TCP endpoint must look like host:port with a numeric port.
        match addr.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            _ => Err(bad()),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted (or dialed) connection: a TCP or Unix stream behind a
/// uniform blocking-I/O surface.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dials `endpoint`.
    ///
    /// # Errors
    ///
    /// [`SimError::Unreachable`] when nothing is listening — the port
    /// refuses the connection or the Unix socket path is stale/absent
    /// (`ECONNREFUSED` / `ENOENT`); [`SimError::Io`] naming the endpoint
    /// for any other failure.
    pub fn dial(endpoint: &Endpoint) -> Result<Conn, SimError> {
        let label = endpoint.to_string();
        let map = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::NotFound => {
                SimError::Unreachable { endpoint: label.clone(), reason: e.to_string() }
            }
            _ => SimError::io(&label, e),
        };
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp).map_err(map),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix).map_err(map),
        }
    }

    /// A second handle to the same socket (independent read/write
    /// positions; the chaos proxy pumps each direction from its own
    /// thread).
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Tears the connection down in both directions — the chaos proxy's
    /// "reset" and "truncate" faults end with this.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Sets the read timeout (used both as the server's shutdown-poll
    /// granularity and the client's response deadline).
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets the write timeout (a slow or stalled client must not pin a
    /// server thread forever).
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// The peer's address for the access log: `host:port` for TCP,
    /// `"unix"` for Unix-domain peers (which are usually unnamed).
    pub fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => {
                s.peer_addr().map_or_else(|_| "tcp:?".to_string(), |a| a.to_string())
            }
            #[cfg(unix)]
            Conn::Unix(_) => "unix".to_string(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket: the campaign server's and supervisor's
/// endpoint, the health endpoint's TCP port, or the chaos proxy's.
#[derive(Debug)]
pub(crate) enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (plus its socket path, removed on drop).
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<Listener, SimError> {
        let label = endpoint.to_string();
        match endpoint {
            Endpoint::Tcp(addr) => {
                TcpListener::bind(addr).map(Listener::Tcp).map_err(|e| SimError::io(&label, e))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // The server owns its socket path: a stale socket left by
                // a kill -9 would otherwise make every restart fail with
                // AddrInUse — exactly the restart the crash-recovery
                // story depends on.
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| SimError::io(&label, e))?;
                }
                UnixListener::bind(path)
                    .map(|l| Listener::Unix(l, path.clone()))
                    .map_err(|e| SimError::io(&label, e))
            }
        }
    }

    /// The endpoint actually bound (TCP resolves `:0` to the real port).
    pub(crate) fn endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr().map_or_else(|_| "?".to_string(), |a| a.to_string()),
            ),
            #[cfg(unix)]
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// Accepts the next connection, waiting at most [`ACCEPT_POLL_MS`]
    /// for one to arrive: `Ok(None)` when none did. The wait is a
    /// `poll(2)` on the listener, so an arriving connection ends it at
    /// once; a signal ends it with `Interrupted`.
    #[cfg(unix)]
    fn accept_within_poll(&self) -> std::io::Result<Option<Conn>> {
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[cfg(any(target_os = "linux", target_os = "android"))]
        type Nfds = std::os::raw::c_ulong;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        type Nfds = std::os::raw::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
        }
        const POLLIN: i16 = 1;
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        let mut want = PollFd { fd, events: POLLIN, revents: 0 };
        // SAFETY: one valid pollfd for a descriptor `self` keeps open;
        // poll(2) writes only its `revents`.
        match unsafe { poll(&mut want, 1, ACCEPT_POLL_MS) } {
            0 => Ok(None),
            n if n < 0 => Err(std::io::Error::last_os_error()),
            _ => match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Some(Conn::Tcp(s))),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Some(Conn::Unix(s))),
            },
        }
    }

    /// Without `poll(2)`, a non-blocking accept that sleeps out
    /// [`ACCEPT_POLL_MS`] when nothing is waiting.
    #[cfg(not(unix))]
    fn accept_within_poll(&self) -> std::io::Result<Option<Conn>> {
        let Listener::Tcp(l) = self;
        l.set_nonblocking(true)?;
        match l.accept() {
            Ok((s, _)) => s.set_nonblocking(false).map(|()| Some(Conn::Tcp(s))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS as u64));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            std::fs::remove_file(path).ok();
        }
    }
}

/// How long an idle accept loop waits before it looks at the shutdown
/// flag again: the bound on an idle listener's drain latency. A
/// connection ends the wait the moment it arrives.
const ACCEPT_POLL_MS: i32 = 50;

/// The accept loop of every serving listener — campaign server, fleet
/// supervisor, health endpoint and chaos proxy. Accepts connections
/// until `shutdown` is set, runs `handle` for each on a thread of its
/// own, drops the handles of finished threads as it goes, and on drain
/// joins the rest.
///
/// # Errors
///
/// The listener's I/O error when accepting fails for any reason but an
/// interrupted wait or a connection aborted before it was accepted;
/// connection threads still running are left detached.
pub(crate) fn serve_connections(
    listener: &Listener,
    shutdown: &Shutdown,
    handle: impl Fn(Conn) + Send + Sync + 'static,
) -> std::io::Result<()> {
    use std::io::ErrorKind::{ConnectionAborted, Interrupted};
    let handle = std::sync::Arc::new(handle);
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.is_set() {
        let conn = match listener.accept_within_poll() {
            Ok(Some(conn)) => conn,
            Ok(None) => continue,
            Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => continue,
            Err(e) => return Err(e),
        };
        threads.retain(|t| !t.is_finished());
        let handle = std::sync::Arc::clone(&handle);
        threads.push(std::thread::spawn(move || handle(conn)));
    }
    for t in threads {
        t.join().ok();
    }
    Ok(())
}

/// Routes SIGTERM and SIGINT to `shutdown`, the drain flag of a campaign
/// server or fleet supervisor. Raw `signal(2)` FFI: the handler's one
/// atomic store is async-signal-safe, and there is no libc crate to lean
/// on. The accept loop sees a drain raised this way within 50 ms.
#[cfg(unix)]
pub fn install_signal_handlers(shutdown: Shutdown) {
    use std::sync::OnceLock;
    static DRAIN: OnceLock<Shutdown> = OnceLock::new();
    DRAIN.set(shutdown).ok();
    extern "C" fn on_signal(_signum: i32) {
        if let Some(drain) = DRAIN.get() {
            drain.trigger();
        }
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_signal` only loads a `OnceLock` set before the handler
    // is installed and stores one atomic.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Signals are a Unix notion; elsewhere only [`Shutdown::trigger`] drains.
#[cfg(not(unix))]
pub fn install_signal_handlers(_shutdown: Shutdown) {}

/// The named machine configurations a cell request may ask for. Both the
/// server and the client resolve names through this one catalog, so the
/// fingerprints they compute agree by construction.
pub fn config_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "baseline" => Some(MachineConfig::paper_baseline()),
        "fac" => Some(MachineConfig::paper_baseline().with_fac()),
        _ => None,
    }
}

/// The configuration names [`config_by_name`] accepts, for error messages
/// and the client sweep.
pub const CONFIG_NAMES: &[&str] = &["baseline", "fac"];

/// The fingerprint of the whole configuration catalog: the FNV-1a chain
/// of every named configuration's fingerprint, in catalog order. Two
/// builds that would store incomparable cells have different catalog
/// fingerprints, so the `build_version` the stats report advertises
/// changes with them.
pub fn catalog_fingerprint() -> u64 {
    use fac_core::snap::{fnv1a, FNV_OFFSET};
    let mut fp = FNV_OFFSET;
    for name in CONFIG_NAMES {
        let config = config_by_name(name).expect("catalog names resolve");
        fp = fnv1a(fp, name.as_bytes());
        fp = fnv1a(fp, &fac_sim::config_fingerprint(&config).to_le_bytes());
    }
    fp
}

/// Renders a scale for the wire (`"smoke"` / `"paper"`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Paper => "paper",
    }
}

/// Parses a wire scale name.
pub fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::Smoke),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// The canonical identity of a cell: every request field that selects
/// what is simulated, in one deterministic rendering. The store key is
/// the FNV-1a digest of this string chained with both fingerprints.
pub fn cell_identity(workload: &str, sw: bool, scale: Scale, config: &str) -> String {
    format!(
        "cell:{workload}:sw={}:scale={}:cfg={config}",
        u8::from(sw),
        scale_name(scale)
    )
}

/// Builds the §4-software-support flag for a cell request.
pub fn sw_support(sw: bool) -> SoftwareSupport {
    if sw {
        SoftwareSupport::on()
    } else {
        SoftwareSupport::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_accepts_tcp_and_unix() {
        assert_eq!(
            Endpoint::parse("--listen", "127.0.0.1:7199").unwrap(),
            Endpoint::Tcp("127.0.0.1:7199".to_string())
        );
        assert_eq!(
            Endpoint::parse("--listen", "tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("--connect", "unix:/tmp/fac.sock").unwrap(),
            Endpoint::Unix(std::path::PathBuf::from("/tmp/fac.sock"))
        );
    }

    #[test]
    fn endpoint_parse_rejects_malformed_values() {
        for bad in ["", "localhost", "tcp:", "tcp:nohost", ":-1", "127.0.0.1:notaport", "unix:"] {
            let err = Endpoint::parse("--listen", bad).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(ConfigError::BadFlagValue { .. })),
                "{bad:?} got {err}"
            );
        }
    }

    #[test]
    fn cell_identity_is_canonical() {
        assert_eq!(
            cell_identity("compress", true, Scale::Smoke, "fac"),
            "cell:compress:sw=1:scale=smoke:cfg=fac"
        );
        // Every selector changes the identity.
        let base = cell_identity("compress", true, Scale::Smoke, "fac");
        for other in [
            cell_identity("espresso", true, Scale::Smoke, "fac"),
            cell_identity("compress", false, Scale::Smoke, "fac"),
            cell_identity("compress", true, Scale::Paper, "fac"),
            cell_identity("compress", true, Scale::Smoke, "baseline"),
        ] {
            assert_ne!(base, other);
        }
    }

    /// Dialing an endpoint nothing listens on is a typed
    /// [`SimError::Unreachable`], not a raw I/O error — "the server is
    /// not there" must be actionable for clients and operators.
    #[test]
    fn dialing_nothing_is_typed_unreachable() {
        let parked = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = parked.local_addr().unwrap().to_string();
        drop(parked);
        let err = Conn::dial(&Endpoint::Tcp(addr)).unwrap_err();
        assert!(matches!(err, SimError::Unreachable { .. }), "got {err}");

        #[cfg(unix)]
        {
            let stale = std::env::temp_dir()
                .join(format!("fac_stale_sock_{}.sock", std::process::id()));
            std::fs::remove_file(&stale).ok();
            let err = Conn::dial(&Endpoint::Unix(stale)).unwrap_err();
            assert!(matches!(err, SimError::Unreachable { .. }), "got {err}");
        }
    }

    #[test]
    fn config_catalog_round_trips() {
        for name in CONFIG_NAMES {
            assert!(config_by_name(name).is_some(), "{name}");
        }
        assert!(config_by_name("warp-drive").is_none());
        assert_eq!(scale_by_name("smoke"), Some(Scale::Smoke));
        assert_eq!(scale_by_name("paper"), Some(Scale::Paper));
        assert_eq!(scale_by_name("Smoke"), None);
    }
}
