//! Fleet-supervision integration tests, driving the real
//! `campaign_supervisor` / `campaign_server` / `campaign_client` /
//! `store_scrub` binaries over Unix sockets:
//!
//! - SIGKILL of one worker mid-sweep loses zero cells: the artifact is
//!   byte-identical to a fault-free run, the supervisor's `fleet-stats`
//!   shows the restart and the inline failovers, and the restarted
//!   worker serves cache hits.
//! - A worker killed on every respawn trips the crash-loop breaker and
//!   is quarantined; the remaining workers keep serving.
//! - The whole fleet killed -9 mid-sweep loses nothing it committed: a
//!   restarted fleet on the same store serves every committed cell as a
//!   hit and the new sweep's artifact is byte-identical.
//! - The supervisor's `stats` sums every counter and load gauge of its
//!   workers' own `stats`.
//! - The one health endpoint answers the same way on a lone server and
//!   on the supervisor, and an idle scraper delays nobody.
//! - SIGTERM drains the fleet one worker at a time to a clean exit 0.
//! - `store_scrub` detects a flipped byte, quarantines the frame with
//!   `component=scrubber` provenance, and a second pass after recompute
//!   is clean.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fac_bench::serve::client::{cell_request, Client};
use fac_bench::serve::proto::{Request, Response};
use fac_bench::serve::Endpoint;
use fac_sim::obs::Json;
use fac_workloads::Scale;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fac_fleet_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns a supervisor with `workers` workers on `sock`, stderr to
/// `base/sup.err` and stdout piped (see [`metrics_addr`]), and waits
/// until the endpoint accepts connections (the supervisor announces only
/// after every worker answered a ping).
fn spawn_fleet(base: &Path, sock: &Path, workers: u32, extra: &[&str]) -> Child {
    let err = std::fs::File::create(base.join("sup.err")).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_campaign_supervisor"))
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .arg("--store-dir")
        .arg(base.join("store"))
        .arg("--run-dir")
        .arg(base.join("run"))
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--worker-bin")
        .arg(env!("CARGO_BIN_EXE_campaign_server"))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::from(err))
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::os::unix::net::UnixStream::connect(sock).is_err() {
        assert!(Instant::now() < deadline, "supervisor never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

/// One raw `fleet-stats` RPC; returns the `fleet` document.
fn fleet_stats(sock: &Path) -> Json {
    let stream = std::os::unix::net::UnixStream::connect(sock).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"{\"cmd\":\"fleet-stats\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let doc = fac_sim::obs::json::parse(&line).unwrap();
    doc.get("fleet").cloned().expect("fleet-stats reply carries a fleet document")
}

fn leaf(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Reads a daemon's stdout up to its `metrics on tcp:<addr>` line and
/// returns the address, then keeps draining stdout on a thread so the
/// daemon's later lines never meet a closed pipe.
fn metrics_addr(child: &mut Child) -> SocketAddr {
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let addr = loop {
        let line = lines.next().expect("exited before announcing its metrics").unwrap();
        if let Some((_, addr)) = line.split_once("metrics on tcp:") {
            break addr.parse().unwrap();
        }
    };
    std::thread::spawn(move || lines.for_each(drop));
    addr
}

/// The per-worker rows of a fleet document as (pid, state) pairs.
fn worker_rows(fleet: &Json) -> Vec<(u64, String)> {
    let Some(Json::Arr(rows)) = fleet.get("rows") else { return Vec::new() };
    rows.iter()
        .map(|r| {
            (leaf(r, "pid"), r.get("state").and_then(Json::as_str).unwrap_or("?").to_string())
        })
        .collect()
}

/// A client sweep against `sock`, smoke scale, artifact to `json`.
fn sweep(sock: &Path, json: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_client"))
        .arg("--connect")
        .arg(format!("unix:{}", sock.display()))
        .args(["--smoke", "--json"])
        .arg(json)
        .output()
        .unwrap()
}

fn cell_files(store: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(store)
        .map(|iter| {
            iter.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "cell"))
                .collect()
        })
        .unwrap_or_default()
}

fn send_signal(pid: u64, signal: &str) {
    let status =
        Command::new("kill").arg(format!("-{signal}")).arg(pid.to_string()).status().unwrap();
    assert!(status.success(), "kill -{signal} {pid} failed");
}

fn pid_alive(pid: u64) -> bool {
    Command::new("kill").args(["-0", &pid.to_string()]).status().unwrap().success()
}

/// True once `pid` has exited, reaped or not: a killed worker whose
/// supervisor died with it lingers as a zombie until its new parent
/// reaps it, and `kill -0` still reaches a zombie.
fn pid_exited(pid: u64) -> bool {
    let out = Command::new("ps").args(["-o", "stat=", "-p", &pid.to_string()]).output().unwrap();
    let stat = String::from_utf8_lossy(&out.stdout);
    stat.trim().is_empty() || stat.trim_start().starts_with('Z')
}

/// Polls `fleet-stats` until a worker row reports a cell in flight on
/// two polls in a row, and returns that worker's pid. The parked
/// `__sleep` cell holds its worker for seconds, while a smoke sweep cell
/// is over in a fraction of the poll gap, so a row that stays busy
/// across two polls is the parked cell's worker.
fn parked_cell_worker(sock: &Path, secs: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut busy_before: Vec<u64> = Vec::new();
    loop {
        let fleet = fleet_stats(sock);
        let Some(Json::Arr(rows)) = fleet.get("rows") else { panic!("no rows: {fleet}") };
        let busy: Vec<u64> =
            rows.iter().filter(|r| leaf(r, "inflight") > 0).map(|r| leaf(r, "pid")).collect();
        if let Some(&pid) = busy.iter().find(|pid| busy_before.contains(pid)) {
            return pid;
        }
        busy_before = busy;
        assert!(Instant::now() < deadline, "no worker held the parked cell: {fleet}");
        std::thread::sleep(Duration::from_millis(250));
    }
}

fn wait_exit(child: &mut Child, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "process did not exit within {secs}s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A fault-free sweep against a lone server on its own store, artifact
/// to `base/reference.json`. The supervisor is a transparent proxy, so
/// every fleet artifact must match this byte for byte.
fn reference_sweep(base: &Path) -> PathBuf {
    let ref_sock = base.join("ref.sock");
    let mut ref_server = Command::new(env!("CARGO_BIN_EXE_campaign_server"))
        .arg("--listen")
        .arg(format!("unix:{}", ref_sock.display()))
        .arg("--store-dir")
        .arg(base.join("ref-store"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::os::unix::net::UnixStream::connect(&ref_sock).is_err() {
        assert!(Instant::now() < deadline, "reference server never bound");
        std::thread::sleep(Duration::from_millis(10));
    }
    let reference = base.join("reference.json");
    let out = sweep(&ref_sock, &reference);
    assert!(out.status.success(), "reference sweep failed: {out:?}");
    send_signal(u64::from(ref_server.id()), "TERM");
    ref_server.wait().unwrap();
    reference
}

/// SIGKILL one worker mid-sweep: the artifact is byte-identical to a
/// fault-free run, the supervisor restarted the worker and failed its
/// cells over inline, and a second sweep is answered entirely from the store —
/// including by the restarted worker.
#[test]
fn sigkill_worker_mid_sweep_loses_no_cells() {
    let base = temp_dir("kill");
    let sock = base.join("sup.sock");

    let reference = reference_sweep(&base);

    // A slow restart backoff keeps the killed worker down long enough
    // that the sweep must route around it — the loss is exercised, not
    // raced past. Test cells are enabled so a slow `__sleep` cell can be
    // parked on the victim.
    let mut sup =
        spawn_fleet(&base, &sock, 3, &["--test-cells", "--backoff-base-ms", "2000"]);

    let sweep_json = base.join("sweep.json");
    let sweep_sock = sock.clone();
    let sweeper = std::thread::spawn(move || sweep(&sweep_sock, &sweep_json));
    // Wait until the sweep is demonstrably mid-flight (some cells
    // committed, most still to come).
    let deadline = Instant::now() + Duration::from_secs(300);
    while cell_files(&base.join("store")).len() < 3 {
        assert!(Instant::now() < deadline, "no cells committed before deadline");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Park a slow test cell and kill the worker holding it: the kill
    // then breaks a forward in flight, which must fail over inline — a
    // victim chosen blind could die idle with nothing to recover.
    let cell_sock = format!("unix:{}", sock.display());
    let parked = std::thread::spawn(move || {
        Command::new(env!("CARGO_BIN_EXE_campaign_client"))
            .args(["--connect", &cell_sock, "--cell", "__sleep:5000", "--config", "fac"])
            .output()
            .unwrap()
    });
    let victim = parked_cell_worker(&sock, 60);
    send_signal(victim, "KILL");
    let out = sweeper.join().unwrap();
    assert!(out.status.success(), "sweep across the kill failed: {out:?}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(base.join("sweep.json")).unwrap(),
        "artifact across a worker kill -9 differs from the fault-free run"
    );

    // The supervisor observed the loss and recovered it: the fleet
    // returns to full strength with the restart and the failovers on the
    // counters.
    let deadline = Instant::now() + Duration::from_secs(60);
    let fleet = loop {
        let fleet = fleet_stats(&sock);
        if leaf(&fleet, "restarts") >= 1
            && worker_rows(&fleet).iter().all(|(_, state)| state == "up")
        {
            break fleet;
        }
        assert!(Instant::now() < deadline, "killed worker never restarted: {fleet}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(leaf(&fleet, "failovers") >= 1, "no cell failed over: {fleet}");
    assert_eq!(leaf(&fleet, "alive"), 3, "fleet not back to full strength: {fleet}");

    // The parked cell was in flight on the killed worker and still got
    // an answer: the supervisor failed it over to a survivor.
    let out = parked.join().unwrap();
    assert!(out.status.success(), "parked cell lost to the kill: {out:?}");

    // A second sweep is pure store hits — the restarted worker serves
    // from the shared store like everyone else.
    let second = base.join("second.json");
    let out = sweep(&sock, &second);
    assert!(out.status.success(), "second sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache hits: 38/38"), "expected an all-hit sweep: {stdout}");
    assert_eq!(std::fs::read(&reference).unwrap(), std::fs::read(&second).unwrap());

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}

/// A worker killed on every respawn crosses the crash-loop threshold and
/// is quarantined — the supervisor stops burning restarts on it, says so
/// with the typed error, and the surviving workers keep answering.
#[test]
fn crash_looping_worker_is_quarantined() {
    let base = temp_dir("quarantine");
    let sock = base.join("sup.sock");
    let mut sup = spawn_fleet(
        &base,
        &sock,
        3,
        &[
            "--test-cells",
            "--backoff-base-ms",
            "50",
            "--backoff-cap-ms",
            "200",
            "--quarantine-after",
            "2",
            "--quarantine-window-secs",
            "60",
        ],
    );

    // Kill worker 0 every time it comes back up. After two restarts
    // inside the window, the third respawn is refused.
    let mut last_pid = 0;
    let deadline = Instant::now() + Duration::from_secs(120);
    let fleet = loop {
        let fleet = fleet_stats(&sock);
        let rows = worker_rows(&fleet);
        let (pid, state) = &rows[0];
        if state == "quarantined" {
            break fleet;
        }
        if state == "up" && *pid != last_pid && *pid != 0 {
            last_pid = *pid;
            send_signal(*pid, "KILL");
        }
        assert!(Instant::now() < deadline, "worker never quarantined: {fleet}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(leaf(&fleet, "quarantined"), 1, "{fleet}");
    assert_eq!(leaf(&fleet, "alive"), 2, "{fleet}");
    assert_eq!(fleet.get("quorum"), Some(&Json::Bool(true)), "{fleet}");

    // The typed crash-loop error names the worker and the window.
    let err = std::fs::read_to_string(base.join("sup.err")).unwrap();
    assert!(err.contains("quarantined:") && err.contains("crash loop"), "{err}");

    // Two survivors still answer cells.
    let out = Command::new(env!("CARGO_BIN_EXE_campaign_client"))
        .arg("--connect")
        .arg(format!("unix:{}", sock.display()))
        .args(["--cell", "__sleep:1", "--config", "fac"])
        .output()
        .unwrap();
    assert!(out.status.success(), "quarantined fleet stopped serving: {out:?}");

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}

/// Kill -9 everything mid-sweep — the sweeping client, the supervisor
/// and every worker — then restart the fleet on the same store and run
/// directories. Nothing records in-flight work, and nothing needs to:
/// every cell committed before the kill is served as a hit, the rest are
/// recomputed, and the new sweep's artifact is byte-identical to the
/// fault-free reference.
#[test]
fn whole_fleet_kill_mid_sweep_loses_no_committed_cell() {
    let base = temp_dir("wholekill");
    let sock = base.join("sup.sock");
    let store = base.join("store");
    let reference = reference_sweep(&base);
    let mut sup = spawn_fleet(&base, &sock, 2, &[]);

    let mut sweeper = Command::new(env!("CARGO_BIN_EXE_campaign_client"))
        .arg("--connect")
        .arg(format!("unix:{}", sock.display()))
        .args(["--smoke", "--json"])
        .arg(base.join("doomed.json"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    while cell_files(&store).len() < 3 {
        assert!(Instant::now() < deadline, "no cells committed before deadline");
        std::thread::sleep(Duration::from_millis(10));
    }
    let pids = worker_rows(&fleet_stats(&sock));
    send_signal(u64::from(sweeper.id()), "KILL");
    send_signal(u64::from(sup.id()), "KILL");
    for (pid, _) in &pids {
        send_signal(*pid, "KILL");
    }
    sweeper.wait().unwrap();
    sup.wait().unwrap();
    for (pid, _) in &pids {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !pid_exited(*pid) {
            assert!(Instant::now() < deadline, "worker {pid} survived kill -9");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let committed = cell_files(&store).len();
    assert!(committed < 38, "the sweep finished before the kill; nothing was interrupted");

    let mut sup = spawn_fleet(&base, &sock, 2, &[]);
    let resumed = base.join("resumed.json");
    let out = sweep(&sock, &resumed);
    assert!(out.status.success(), "sweep after the restart failed: {out:?}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "artifact after a whole-fleet kill -9 differs from the fault-free run"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("cache hits: {committed}/38")),
        "every cell committed before the kill ({committed}) must be a hit: {stdout}"
    );

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}

/// One `stats` RPC against a lone server, a worker or the supervisor.
fn stats(endpoint: &Endpoint) -> Json {
    let mut client = Client::connect(endpoint, Duration::from_secs(30)).unwrap();
    match client.rpc(&Request::Stats).unwrap() {
        Response::Stats(doc) => doc,
        other => panic!("stats refused: {other:?}"),
    }
}

/// On a quiescent fleet the supervisor's `stats` carries every field of
/// its workers' own: each counter and load gauge is the sum over the
/// workers, `max_queue` is the fleet's admission bound, and the shared
/// store's size and degraded flag are there once.
#[test]
fn supervisor_stats_sum_every_worker_field() {
    let base = temp_dir("sum");
    let sock = base.join("sup.sock");
    let mut sup = spawn_fleet(&base, &sock, 2, &["--test-cells"]);
    let endpoint = Endpoint::Unix(sock.clone());
    let mut client = Client::connect(&endpoint, Duration::from_secs(30)).unwrap();
    for ms in 1..=6 {
        for _ in 0..2 {
            let cell = cell_request(&format!("__sleep:{ms}"), "fac", Scale::Smoke);
            let resp = client.rpc(&Request::Cell(cell)).unwrap();
            assert!(matches!(resp, Response::Cell { .. }), "cell refused: {resp:?}");
        }
    }

    let fleet = stats(&endpoint);
    let workers: Vec<Json> = (0..2)
        .map(|i| stats(&Endpoint::Unix(base.join("run").join(format!("worker-{i}.sock")))))
        .collect();
    let Json::Obj(fields) = &workers[0] else { panic!("{}", workers[0]) };
    let mut summed = 0;
    for (key, value) in fields {
        if !matches!(value, Json::U64(_)) || key == "uptime_secs" || key == "entries" {
            continue;
        }
        let sum: u64 = workers.iter().map(|w| leaf(w, key)).sum();
        assert_eq!(fleet.get(key).and_then(Json::as_u64), Some(sum), "{key}: {fleet}");
        summed += 1;
    }
    assert!(summed >= 17, "only {summed} summed fields in {}", workers[0]);
    assert_eq!(leaf(&fleet, "hits"), 6, "{fleet}");
    assert_eq!(leaf(&fleet, "misses"), 6, "{fleet}");
    assert_eq!(leaf(&fleet, "max_queue"), 2 * 32, "{fleet}");
    assert_eq!(fleet.get("store_degraded"), Some(&Json::Bool(false)), "{fleet}");
    assert_eq!(fleet.get("entries"), workers[0].get("entries"), "{fleet}");
    assert_eq!(fleet.get("build_version"), workers[0].get("build_version"), "{fleet}");
    assert!(fleet.get("fleet").is_some(), "{fleet}");

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}

/// One HTTP exchange with a health endpoint: `request` out, the whole
/// response (head and body) back.
fn http(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Drives one health endpoint through every path it routes, then checks
/// that an idle scraper holds up neither a cell RPC on `sock` nor the
/// next scrape. `series` names a metric the process's exposition has.
fn check_health_endpoint(sock: &Path, addr: SocketAddr, series: &str) {
    let get = |path: &str| http(addr, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
    let healthz = get("/healthz");
    assert!(healthz.starts_with("HTTP/1.0 200 OK\r\n"), "{healthz}");
    assert!(healthz.ends_with("\r\n\r\nok\n"), "{healthz}");
    let readyz = get("/readyz?verbose=1");
    assert!(readyz.starts_with("HTTP/1.0 200 OK\r\n"), "{readyz}");
    assert!(readyz.ends_with("\r\n\r\nready\n"), "{readyz}");
    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
    assert!(metrics.contains(&format!("# TYPE {series} ")), "{metrics}");
    let missing = get("/favicon.ico");
    assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"), "{missing}");
    // A head that cannot be parsed still gets the exposition.
    let garbled = http(addr, b"\xff\xfe\r\n\r\n");
    assert!(garbled.starts_with("HTTP/1.0 200 OK\r\n"), "{garbled}");
    assert!(garbled.contains(&format!("# TYPE {series} ")), "{garbled}");

    // An idle scraper holds its connection for the endpoint's 2 s read
    // deadline; a cell RPC and a second scrape must both finish well
    // inside that.
    let idle = TcpStream::connect(addr).unwrap();
    let start = Instant::now();
    let endpoint = Endpoint::Unix(sock.to_path_buf());
    let mut client = Client::connect(&endpoint, Duration::from_secs(30)).unwrap();
    let resp = client.rpc(&Request::Cell(cell_request("__sleep:1", "fac", Scale::Smoke))).unwrap();
    assert!(matches!(resp, Response::Cell { .. }), "cell RPC refused: {resp:?}");
    let second = get("/metrics");
    assert!(second.contains(&format!("# TYPE {series} ")), "{second}");
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(1500), "an idle scraper held things up: {elapsed:?}");
    drop(idle);
}

/// The campaign server and the supervisor serve `/healthz`, `/readyz`
/// and `/metrics` through one shared endpoint: same routes, same 404,
/// same answer to a garbled head, and an idle scraper blocks nothing.
#[test]
fn health_endpoint_is_shared_by_server_and_supervisor() {
    let base = temp_dir("health");
    let srv_sock = base.join("srv.sock");
    let mut server = Command::new(env!("CARGO_BIN_EXE_campaign_server"))
        .arg("--listen")
        .arg(format!("unix:{}", srv_sock.display()))
        .arg("--store-dir")
        .arg(base.join("srv-store"))
        .args(["--metrics", "127.0.0.1:0", "--test-cells"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let addr = metrics_addr(&mut server);
    check_health_endpoint(&srv_sock, addr, "faccell_requests_total");
    send_signal(u64::from(server.id()), "TERM");
    assert_eq!(wait_exit(&mut server, 60).code(), Some(0), "server drain must exit 0");

    let sock = base.join("sup.sock");
    let mut sup = spawn_fleet(&base, &sock, 2, &["--test-cells", "--metrics", "127.0.0.1:0"]);
    let addr = metrics_addr(&mut sup);
    check_health_endpoint(&sock, addr, "facfleet_quorum");
    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}

/// SIGTERM drains the fleet: exit 0, every worker gone, socket removed.
#[test]
fn sigterm_drains_the_whole_fleet() {
    let base = temp_dir("drain");
    let sock = base.join("sup.sock");
    let mut sup = spawn_fleet(&base, &sock, 2, &["--test-cells"]);
    let pids = worker_rows(&fleet_stats(&sock));
    assert_eq!(pids.len(), 2);

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    for (pid, _) in &pids {
        assert!(!pid_alive(*pid), "worker {pid} survived the drain");
    }
    assert!(!sock.exists(), "supervisor socket left behind after drain");
    std::fs::remove_dir_all(&base).ok();
}

/// The offline scrubber detects a flipped byte, quarantines the frame
/// with scrubber provenance in its `.reason` note, and — after the cell
/// is transparently recomputed — a second pass is clean.
#[test]
fn store_scrub_quarantines_flips_and_passes_clean_after_recompute() {
    let base = temp_dir("scrub");
    let sock = base.join("sup.sock");
    let store = base.join("store");
    let mut sup = spawn_fleet(&base, &sock, 2, &[]);
    let first = base.join("first.json");
    let out = sweep(&sock, &first);
    assert!(out.status.success(), "sweep failed: {out:?}");

    // Flip one byte mid-frame.
    let victim = cell_files(&store).into_iter().next().expect("at least one frame");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    // First pass: exit 1, frame quarantined, provenance note written.
    let out = Command::new(env!("CARGO_BIN_EXE_store_scrub"))
        .arg("--store-dir")
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "scrub must fail on corruption: {out:?}");
    let qdir = store.join("quarantine");
    assert_eq!(cell_files(&qdir).len(), 1, "frame not quarantined");
    let reason = std::fs::read_dir(&qdir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "reason"))
        .expect("a .reason note beside the quarantined frame");
    let note = std::fs::read_to_string(&reason).unwrap();
    assert!(note.starts_with("component=scrubber check="), "provenance missing: {note}");
    assert!(note.contains("key=0x"), "store key missing from note: {note}");

    // Recompute through the fleet (exactly one miss), then a clean pass.
    let second = base.join("second.json");
    let out = sweep(&sock, &second);
    assert!(out.status.success(), "recompute sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache hits: 37/38"), "exactly one recompute expected: {stdout}");
    assert_eq!(std::fs::read(&first).unwrap(), std::fs::read(&second).unwrap());
    let out = Command::new(env!("CARGO_BIN_EXE_store_scrub"))
        .arg("--store-dir")
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "second scrub pass must be clean: {out:?}");

    send_signal(u64::from(sup.id()), "TERM");
    assert_eq!(wait_exit(&mut sup, 60).code(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(&base).ok();
}
