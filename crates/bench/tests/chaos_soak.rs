//! Chaos soak: the full campaign sweep, driven through a fault-injecting
//! TCP proxy against a server whose store filesystem is also injecting
//! faults, must produce an artifact byte-identical to a fault-free run.
//!
//! This is the contract the whole resilience layer exists to uphold:
//! every fault either retries to success (reconnect, resend, backoff) or
//! triggers a deterministic recomputation (quarantine, compute-through,
//! degraded store), so chaos can change *how long* a sweep takes and
//! *what the operator sees*, but never *what the science says*.

use fac_bench::chaos::{ChaosPlan, ChaosProxy, ProxyPlan};
use fac_bench::serve::client::{run_sweep, sweep_artifact, Client, ResilientClient, RetryPolicy};
use fac_bench::serve::proto::{Request, Response};
use fac_bench::serve::server::{Server, ServeOptions, Shutdown};
use fac_bench::serve::Endpoint;
use fac_sim::obs::Json;
use fac_sim::SimError;
use fac_workloads::Scale;
use std::path::PathBuf;
use std::time::Duration;

/// Pinned chaos seeds. Three is enough to exercise every fault class
/// (the totals are asserted below) while keeping the soak CI-speed.
const SEEDS: [u64; 3] = [1, 2, 3];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fac_chaos_soak_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn boot(
    opts: ServeOptions,
) -> (Endpoint, Shutdown, std::thread::JoinHandle<Result<(), SimError>>) {
    let shutdown = Shutdown::new();
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), opts, shutdown.clone()).unwrap();
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.run());
    (endpoint, shutdown, handle)
}

/// Reads one server counter over a direct (unproxied) connection.
fn server_stat(endpoint: &Endpoint, key: &str) -> u64 {
    let mut client = Client::connect(endpoint, Duration::from_secs(30)).unwrap();
    match client.rpc(&Request::Stats).unwrap() {
        Response::Stats(doc) => doc.get(key).and_then(Json::as_u64).unwrap_or(0),
        other => panic!("stats request answered with {other:?}"),
    }
}

#[test]
fn chaotic_sweeps_match_the_fault_free_artifact() {
    // The fault-free reference: clean store, clean network.
    let reference = {
        let dir = temp_dir("reference");
        let (endpoint, shutdown, handle) = boot(ServeOptions::new(dir.join("store")));
        let mut client = ResilientClient::new(
            endpoint,
            Duration::from_secs(120),
            RetryPolicy::default(),
        );
        let report = run_sweep(&mut client, Scale::Smoke, false, |_| {});
        assert!(report.fatal.is_none(), "fault-free sweep died: {:?}", report.fatal);
        assert!(report.errors.is_empty(), "fault-free sweep erred: {:?}", report.errors);
        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        sweep_artifact(&report, Scale::Smoke, false).to_string()
    };

    // Aggregate resilience evidence across seeds: each lane must have
    // actually fired somewhere, or the soak proved nothing.
    let mut faults = 0u64;
    let mut reconnects = 0u64;
    let mut breaker_trips = 0u64;
    let mut degraded_intervals = 0u64;

    for seed in SEEDS {
        let dir = temp_dir(&format!("seed{seed}"));
        let mut opts = ServeOptions::new(dir.join("store"));
        // Degrade quickly and probe often, so the ENOSPC bursts in the
        // light plan push the store into degraded mode and back out
        // within one sweep.
        opts.degrade_after = 2;
        opts.store_probe_ms = 25;
        opts.chaos_store = Some(ChaosPlan::light(seed));
        let (endpoint, shutdown, handle) = boot(opts);

        // Storm-heavy proxy: bursts of refused connections are what trip
        // the client's circuit breaker.
        let plan = ProxyPlan { storm_pct: 25, storm_len: 5, ..ProxyPlan::light(seed) };
        let proxy = ChaosProxy::start(&endpoint, plan).unwrap();
        let policy = RetryPolicy {
            attempts: 40,
            base_ms: 5,
            cap_ms: 100,
            seed,
            breaker_threshold: 3,
            breaker_cooldown_ms: 100,
            fail_fast: false,
        };
        let mut client = ResilientClient::new(proxy.endpoint(), Duration::from_secs(120), policy);
        let report = run_sweep(&mut client, Scale::Smoke, false, |_| {});
        assert!(report.fatal.is_none(), "seed {seed}: sweep died: {:?}", report.fatal);
        assert!(report.errors.is_empty(), "seed {seed}: cells failed: {:?}", report.errors);

        let artifact = sweep_artifact(&report, Scale::Smoke, false).to_string();
        assert_eq!(artifact, reference, "seed {seed}: artifact diverged under chaos");

        faults += proxy.faults();
        reconnects += client.stats.reconnects;
        breaker_trips += client.stats.breaker_trips;
        degraded_intervals += server_stat(&endpoint, "degraded_intervals");

        proxy.stop();
        shutdown.trigger();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    assert!(faults >= 1, "the proxy injected nothing — the soak proved nothing");
    assert!(reconnects >= 1, "no connection ever died and was redialed");
    assert!(breaker_trips >= 1, "no storm ever tripped the circuit breaker");
    assert!(degraded_intervals >= 1, "the store never entered degraded mode");
}
