//! The campaign server daemon: simulation-as-a-service with a
//! content-addressed result cache.
//!
//! ```sh
//! cargo run --release -p fac-bench --bin campaign_server -- \
//!     --listen unix:/tmp/fac.sock --store-dir /tmp/fac-store
//! ```
//!
//! Listens on a TCP or Unix-domain socket, answers repeated cells from
//! the on-disk store, coalesces concurrent requests for one cell into a
//! single simulation, sheds work past `--max-queue` with a typed
//! overload error, and drains gracefully on SIGTERM/SIGINT: in-flight
//! requests finish, the store is fsynced, and the process exits 0.
//!
//! Telemetry (DESIGN.md §12): `--metrics tcp-addr` serves Prometheus
//! text exposition on a read-only HTTP listener that keeps answering
//! while cell traffic is shed; `--access-log path` appends one JSONL
//! line per request (trace id, peer, phase timings, outcome); requests
//! slower than `--slow-ms` are flagged `"slow": true` in that log.

use fac_bench::serve::server::{Server, ServeOptions, Shutdown};
use fac_bench::serve::{install_signal_handlers, Endpoint};
use fac_bench::Args;
use fac_sim::{ConfigError, SimError};
use std::io::Write as _;

fn usage() -> ! {
    eprintln!("usage: campaign_server --listen <tcp:host:port|unix:path> --store-dir <dir>");
    eprintln!("       [--max-queue N] [--request-timeout-secs N] [--idle-timeout-secs N]");
    eprintln!("       [--metrics host:port] [--access-log <path>] [--slow-ms N]");
    eprintln!("       [--test-cells] [--chaos-store <spec>] [--degrade-after N] [--store-probe-ms N]");
    eprintln!("       (chaos spec: seed=N,enospc=PCT,burst=N,short=PCT,fsync=PCT,rename=PCT,read=PCT)");
    std::process::exit(2);
}

/// Boolean flags this binary accepts.
const BOOL_FLAGS: &[&str] = &["--test-cells"];
/// Value-taking flags this binary accepts.
const VALUE_FLAGS: &[&str] = &[
    "--listen",
    "--store-dir",
    "--max-queue",
    "--request-timeout-secs",
    "--idle-timeout-secs",
    "--metrics",
    "--access-log",
    "--slow-ms",
    "--chaos-store",
    "--degrade-after",
    "--store-probe-ms",
];

/// Unwraps a parse result or exits with the typed error and the usage.
fn or_usage<T>(result: Result<T, SimError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

/// A positive-integer flag: zero is rejected with the flag's own name.
fn positive(args: &Args, flag: &'static str, expected: &'static str) -> Option<u64> {
    match or_usage(args.parse_value::<u64>(flag, expected)) {
        Some(0) => or_usage(Err(ConfigError::BadFlagValue {
            flag: flag.to_string(),
            value: "0".to_string(),
            expected,
        }
        .into())),
        other => other,
    }
}

fn main() -> std::process::ExitCode {
    let args = or_usage(Args::parse(BOOL_FLAGS, VALUE_FLAGS));
    or_usage(args.no_positionals(
        "--listen, --store-dir, --max-queue, --request-timeout-secs, --idle-timeout-secs, \
         --metrics, --access-log, --slow-ms, --test-cells, --chaos-store, --degrade-after, \
         --store-probe-ms",
    ));
    let Some(listen) = args.value("--listen") else { usage() };
    let endpoint = or_usage(Endpoint::parse("--listen", listen));
    let Some(store_dir) = args.value("--store-dir") else { usage() };

    let mut opts = ServeOptions::new(store_dir);
    if let Some(n) = positive(&args, "--max-queue", "an admission bound of at least 1") {
        opts.max_queue = n as usize;
    }
    if let Some(n) =
        positive(&args, "--request-timeout-secs", "a per-request deadline in whole seconds, at least 1")
    {
        opts.request_timeout_secs = n;
    }
    if let Some(n) =
        positive(&args, "--idle-timeout-secs", "an idle deadline in whole seconds, at least 1")
    {
        opts.idle_timeout_secs = n;
    }
    opts.test_cells = args.flag("--test-cells");
    opts.metrics_addr = args.value("--metrics").map(str::to_string);
    opts.access_log = args.value("--access-log").map(std::path::PathBuf::from);
    if let Some(n) =
        positive(&args, "--slow-ms", "a slow-request threshold in whole milliseconds, at least 1")
    {
        opts.slow_ms = n;
    }
    // Fault injection for soak testing: the store's filesystem lies per
    // the spec's seeded schedule. Never useful in production — which is
    // the point.
    if let Some(spec) = args.value("--chaos-store") {
        opts.chaos_store = Some(or_usage(fac_bench::chaos::ChaosPlan::parse(spec)));
    }
    if let Some(n) =
        positive(&args, "--degrade-after", "consecutive store-write failures before degrading, at least 1")
    {
        opts.degrade_after = n as u32;
    }
    if let Some(n) =
        positive(&args, "--store-probe-ms", "a degraded-store probe interval in whole milliseconds, at least 1")
    {
        opts.store_probe_ms = n;
    }

    // Signals are routed before the socket exists: a SIGTERM sent as
    // soon as the endpoint answers drains instead of killing.
    let shutdown = Shutdown::new();
    install_signal_handlers(shutdown.clone());
    let server = match Server::bind(&endpoint, opts, shutdown) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    // Announce (and flush) the bound endpoint before serving, so a script
    // that started us knows when — and where — to connect. The metrics
    // address is announced the same way (`:0` resolved to a real port).
    println!("campaign server listening on {}", server.endpoint());
    if let Some(addr) = server.metrics_addr() {
        println!("campaign server metrics on tcp:{addr}");
    }
    std::io::stdout().flush().ok();

    match server.run() {
        Ok(()) => {
            println!("campaign server drained cleanly");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
