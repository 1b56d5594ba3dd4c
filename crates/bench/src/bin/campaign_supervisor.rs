//! The fleet supervisor daemon: N `campaign_server` workers behind one
//! routing endpoint (DESIGN.md §15).
//!
//! ```sh
//! cargo run --release -p fac-bench --bin campaign_supervisor -- \
//!     --listen unix:/tmp/fac-fleet.sock --store-dir /tmp/fac-store \
//!     --run-dir /tmp/fac-fleet --workers 3
//! ```
//!
//! Spawns and owns the workers (one shared store, one Unix socket per
//! worker under `--run-dir`, beside their logs), routes cells by
//! rendezvous hashing, heartbeats every worker, restarts the dead with
//! seeded backoff, and quarantines crash-loopers. A `kill -9` of any
//! worker loses zero cells without a journal: a broken forward fails
//! over inline to the next rendezvous choice, the shared store turns a
//! re-sent cell into a hit, and clients re-send by trace id. SIGTERM
//! drains the fleet one worker at a time.

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("error: campaign_supervisor needs Unix-domain sockets and kill(2)");
    std::process::ExitCode::FAILURE
}

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    unix::main()
}

#[cfg(unix)]
mod unix {
    use fac_bench::fleet::{Fleet, FleetOptions};
    use fac_bench::serve::server::Shutdown;
    use fac_bench::serve::{install_signal_handlers, Endpoint};
    use fac_bench::Args;
    use fac_sim::{ConfigError, SimError};
    use std::io::Write as _;

    fn usage() -> ! {
        eprintln!(
            "usage: campaign_supervisor --listen <tcp:host:port|unix:path> --store-dir <dir> \
             --run-dir <dir>"
        );
        eprintln!("       [--workers N] [--worker-bin <path>] [--heartbeat-ms N] [--miss-budget N]");
        eprintln!("       [--seed N] [--backoff-base-ms N] [--backoff-cap-ms N]");
        eprintln!("       [--quarantine-after N] [--quarantine-window-secs N]");
        eprintln!("       [--request-timeout-secs N] [--metrics host:port] [--test-cells]");
        std::process::exit(2);
    }

    const BOOL_FLAGS: &[&str] = &["--test-cells"];
    const VALUE_FLAGS: &[&str] = &[
        "--listen",
        "--store-dir",
        "--run-dir",
        "--workers",
        "--worker-bin",
        "--heartbeat-ms",
        "--miss-budget",
        "--seed",
        "--backoff-base-ms",
        "--backoff-cap-ms",
        "--quarantine-after",
        "--quarantine-window-secs",
        "--request-timeout-secs",
        "--metrics",
    ];

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

    /// The sibling `campaign_server` binary: next to our own executable
    /// unless `--worker-bin` overrides it.
    fn default_worker_bin() -> std::path::PathBuf {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("campaign_server")))
            .unwrap_or_else(|| std::path::PathBuf::from("campaign_server"))
    }

    pub fn main() -> std::process::ExitCode {
        let args = or_usage(Args::parse(BOOL_FLAGS, VALUE_FLAGS));
        or_usage(args.no_positionals(
            "--listen, --store-dir, --run-dir, --workers, --worker-bin, --heartbeat-ms, \
             --miss-budget, --seed, --backoff-base-ms, --backoff-cap-ms, --quarantine-after, \
             --quarantine-window-secs, --request-timeout-secs, --metrics, --test-cells",
        ));
        let Some(listen) = args.value("--listen") else { usage() };
        let endpoint = or_usage(Endpoint::parse("--listen", listen));
        let Some(store_dir) = args.value("--store-dir") else { usage() };
        let Some(run_dir) = args.value("--run-dir") else { usage() };

        let worker_bin = args
            .value("--worker-bin")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(default_worker_bin);
        let mut opts = FleetOptions::new(worker_bin, store_dir, run_dir);
        if let Some(n) = positive(&args, "--workers", "a fleet size of at least 1") {
            opts.workers = n as usize;
        }
        if let Some(n) =
            positive(&args, "--heartbeat-ms", "a heartbeat interval in whole milliseconds, at least 1")
        {
            opts.heartbeat_ms = n;
        }
        if let Some(n) =
            positive(&args, "--miss-budget", "consecutive missed heartbeats before a restart, at least 1")
        {
            opts.miss_budget = n as u32;
        }
        if let Some(n) = or_usage(args.parse_value::<u64>("--seed", "a backoff-jitter seed")) {
            opts.seed = n;
        }
        if let Some(n) =
            positive(&args, "--backoff-base-ms", "a first restart delay in whole milliseconds, at least 1")
        {
            opts.backoff_base_ms = n;
        }
        if let Some(n) =
            positive(&args, "--backoff-cap-ms", "a restart delay ceiling in whole milliseconds, at least 1")
        {
            opts.backoff_cap_ms = n;
        }
        if let Some(n) =
            positive(&args, "--quarantine-after", "restarts within the window before quarantine, at least 1")
        {
            opts.quarantine_after = n as u32;
        }
        if let Some(n) = positive(
            &args,
            "--quarantine-window-secs",
            "a crash-loop window in whole seconds, at least 1",
        ) {
            opts.quarantine_window_secs = n;
        }
        if let Some(n) = positive(
            &args,
            "--request-timeout-secs",
            "a forwarded-request deadline in whole seconds, at least 1",
        ) {
            opts.request_timeout_secs = n;
        }
        opts.metrics_addr = args.value("--metrics").map(str::to_string);
        opts.test_cells = args.flag("--test-cells");

        // Signals are routed before any worker is spawned: a SIGTERM
        // during boot drains the fleet instead of orphaning its workers.
        let shutdown = Shutdown::new();
        install_signal_handlers(shutdown.clone());
        let fleet = match Fleet::start(&endpoint, opts, shutdown) {
            Ok(fleet) => fleet,
            Err(e) => {
                eprintln!("error: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        // Announce (and flush) after every worker answered its first
        // ping, so a script that started us can connect immediately.
        println!("campaign supervisor listening on {}", fleet.endpoint());
        if let Some(addr) = fleet.metrics_addr() {
            println!("campaign supervisor metrics on tcp:{addr}");
        }
        std::io::stdout().flush().ok();

        match fleet.run() {
            Ok(()) => {
                println!("campaign supervisor drained the fleet cleanly");
                std::process::ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::ExitCode::FAILURE
            }
        }
    }
}
