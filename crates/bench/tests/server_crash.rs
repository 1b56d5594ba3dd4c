//! Campaign-server fault-matrix integration tests, driving the real
//! `campaign_server` / `campaign_client` binaries over Unix sockets:
//!
//! - CLI validation: malformed `--listen` / `--connect` / numeric flags
//!   exit nonzero with a typed message, before any socket is bound.
//! - SIGKILL mid-campaign (no destructors, no flushes): the surviving
//!   store entries verify after restart, and a re-run completes the sweep
//!   with a byte-identical artifact.
//! - A flipped byte in a store entry is detected, quarantined, and the
//!   cell recomputed — again byte-identical.
//! - SIGTERM drains: exit 0 within the drain deadline.
//! - Telemetry under overload: the `--metrics` listener keeps answering
//!   (read-only) while cell traffic is shed, stops with the drain, and
//!   the `--access-log` holds one valid JSONL line per request.

#![cfg(unix)]

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fac_server_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns a server on `sock` with its store at `store`, and waits until
/// the socket accepts connections. The probe is a real connect, not a
/// file-existence check: a kill -9'd predecessor leaves its stale socket
/// file behind, and connecting to that inode is refused until the new
/// process unlinks it and rebinds.
fn spawn_server(sock: &Path, store: &Path, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_campaign_server"))
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .arg("--store-dir")
        .arg(store)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::os::unix::net::UnixStream::connect(sock).is_err() {
        assert!(Instant::now() < deadline, "server never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    child
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

/// Sends `signal` to a child by PID (std has no kill API).
fn send_signal(child: &Child, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(status.success(), "kill -{signal} failed");
}

/// Malformed server and client flags exit nonzero with a typed message —
/// never a default silently substituted for a typo.
#[test]
fn malformed_cli_flags_are_rejected_nonzero() {
    let server = env!("CARGO_BIN_EXE_campaign_server");
    let client = env!("CARGO_BIN_EXE_campaign_client");
    let cases: &[(&str, &[&str], &str)] = &[
        // Missing required flags.
        (server, &[], "usage"),
        (server, &["--listen", "unix:/tmp/x.sock"], "usage"),
        // Malformed endpoints.
        (server, &["--listen", "localhost", "--store-dir", "/tmp/s"], "--listen"),
        (server, &["--listen", "tcp:", "--store-dir", "/tmp/s"], "--listen"),
        (client, &["--connect", "127.0.0.1:notaport", "--ping"], "--connect"),
        (client, &["--connect", "unix:", "--ping"], "--connect"),
        // Malformed / out-of-range numerics.
        (
            server,
            &["--listen", "unix:/tmp/x.sock", "--store-dir", "/tmp/s", "--max-queue", "0"],
            "--max-queue",
        ),
        (
            server,
            &["--listen", "unix:/tmp/x.sock", "--store-dir", "/tmp/s", "--max-queue", "many"],
            "--max-queue",
        ),
        (
            server,
            &[
                "--listen",
                "unix:/tmp/x.sock",
                "--store-dir",
                "/tmp/s",
                "--request-timeout-secs",
                "0",
            ],
            "--request-timeout-secs",
        ),
        // Unknown flags.
        (server, &["--listen", "unix:/tmp/x.sock", "--store-dir", "/tmp/s", "--lisen", "x"], "--lisen"),
        (client, &["--connect", "unix:/tmp/x.sock", "--pingg"], "--pingg"),
    ];
    for (bin, args, needle) in cases {
        let output = Command::new(bin).args(*args).output().unwrap();
        assert!(!output.status.success(), "{bin} {args:?} must exit nonzero");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(needle),
            "{bin} {args:?}: stderr should mention {needle:?}, got: {stderr}"
        );
    }
}

/// SIGKILL the server mid-campaign, restart on the same store, re-run the
/// sweep: every surviving entry verifies and is served from the store,
/// and the completed artifact is byte-identical to an uninterrupted run.
#[test]
fn sigkill_mid_campaign_recovers_byte_identically() {
    let base = temp_dir("kill9");
    let store = base.join("store");
    let sock = base.join("s.sock");

    // Reference: an uninterrupted sweep against a throwaway store.
    let ref_store = base.join("ref-store");
    let server = spawn_server(&sock, &ref_store, &[]);
    let reference = base.join("reference.json");
    let out = sweep(&sock, &reference);
    assert!(out.status.success(), "reference sweep failed: {out:?}");
    send_signal(&server, "TERM");
    let mut server = server;
    server.wait().unwrap();

    // Interrupted campaign: kill -9 once a few cells are committed. The
    // process gets no chance to flush, fsync, or remove its socket file.
    let server = spawn_server(&sock, &store, &[]);
    let partial = base.join("partial.json");
    let sock_for_client = sock.clone();
    let client = std::thread::spawn(move || {
        let _ = sweep(&sock_for_client, &partial);
    });
    let deadline = Instant::now() + Duration::from_secs(300);
    while cell_files(&store).len() < 3 {
        assert!(Instant::now() < deadline, "no cells committed before deadline");
        std::thread::sleep(Duration::from_millis(10));
    }
    send_signal(&server, "KILL");
    let mut server = server;
    server.wait().unwrap();
    client.join().unwrap();
    let survivors = cell_files(&store).len();
    assert!(survivors >= 3, "committed cells vanished after kill -9");

    // Restart on the same store (the stale socket file must not block the
    // rebind) and finish the campaign.
    let server = spawn_server(&sock, &store, &[]);
    let resumed = base.join("resumed.json");
    let out = sweep(&sock, &resumed);
    assert!(out.status.success(), "resumed sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every cell the killed run committed is answered from the store.
    let hits: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cache hits: "))
        .and_then(|l| l.split('/').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(hits >= survivors, "expected at least {survivors} store hits, saw {hits}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "artifact after kill -9 + restart differs from the uninterrupted run"
    );
    // And no entry was quarantined: everything the atomic writes
    // committed verified after the crash.
    assert!(!store.join("quarantine").exists(), "crash recovery quarantined entries");

    send_signal(&server, "TERM");
    let mut server = server;
    server.wait().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// SIGKILL the *client* mid-sweep: the server keeps the cells it already
/// committed, and a fresh client resumes the campaign — serving those
/// cells from the store — to an artifact byte-identical to an
/// uninterrupted fresh-store run. A killed connection costs one RPC, not
/// the campaign.
#[test]
fn sigkilled_client_mid_sweep_resumes_byte_identically() {
    let base = temp_dir("killclient");
    let store = base.join("store");
    let sock = base.join("s.sock");

    // Reference: an uninterrupted sweep against a throwaway store.
    let ref_store = base.join("ref-store");
    let mut server = spawn_server(&sock, &ref_store, &[]);
    let reference = base.join("reference.json");
    let out = sweep(&sock, &reference);
    assert!(out.status.success(), "reference sweep failed: {out:?}");
    send_signal(&server, "TERM");
    server.wait().unwrap();

    // Cold store; kill -9 the sweeping client once a few cells landed.
    let mut server = spawn_server(&sock, &store, &[]);
    let mut client = Command::new(env!("CARGO_BIN_EXE_campaign_client"))
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
    send_signal(&client, "KILL");
    client.wait().unwrap();
    let survivors = cell_files(&store).len();
    assert!(survivors >= 3, "committed cells vanished with the client");

    // A fresh client finishes the campaign against the same server; the
    // dead client's cells are store hits, and the artifact matches the
    // uninterrupted run byte for byte.
    let resumed = base.join("resumed.json");
    let out = sweep(&sock, &resumed);
    assert!(out.status.success(), "resumed sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let hits: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cache hits: "))
        .and_then(|l| l.split('/').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(hits >= survivors, "expected at least {survivors} store hits, saw {hits}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "artifact after a client kill -9 differs from the uninterrupted run"
    );

    send_signal(&server, "TERM");
    server.wait().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// A sweep that aborts early still writes its partial `--json` artifact,
/// with an `errors` block naming the cell that failed — buffered results
/// are never discarded on the way out.
#[test]
fn aborted_sweep_still_writes_partial_artifact() {
    let base = temp_dir("partial");
    let store = base.join("store");
    let sock = base.join("s.sock");
    let mut server = spawn_server(&sock, &store, &["--test-cells", "--max-queue", "1"]);
    let sock_str = format!("unix:{}", sock.display());

    // Occupy the single admission slot...
    let slow = {
        let sock_str = sock_str.clone();
        std::thread::spawn(move || {
            Command::new(env!("CARGO_BIN_EXE_campaign_client"))
                .args(["--connect", &sock_str, "--cell", "__sleep:3000", "--config", "fac"])
                .output()
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(400));
    // ...so the sweep's first cell is shed; with retries off the sweep
    // aborts immediately — but the artifact must still appear.
    let partial = base.join("partial.json");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign_client"))
        .arg("--connect")
        .arg(&sock_str)
        .args(["--smoke", "--attempts", "1", "--json"])
        .arg(&partial)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "expected overload exit: {out:?}");
    let text = std::fs::read_to_string(&partial).expect("partial artifact must be written");
    assert!(text.contains("\"errors\""), "partial artifact lacks an errors block: {text}");
    assert!(text.contains("overloaded"), "errors block should name the refusal: {text}");
    assert!(text.contains("null"), "the failed cell should hold a null row: {text}");

    assert!(slow.join().unwrap().status.success(), "slow cell must finish");
    send_signal(&server, "TERM");
    server.wait().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// A flipped byte in a committed store entry is detected by checksum,
/// quarantined, and the cell transparently recomputed — with the re-run
/// artifact byte-identical to the original.
#[test]
fn flipped_store_byte_is_quarantined_and_recomputed() {
    let base = temp_dir("flip");
    let store = base.join("store");
    let sock = base.join("s.sock");

    let server = spawn_server(&sock, &store, &[]);
    let first = base.join("first.json");
    let out = sweep(&sock, &first);
    assert!(out.status.success(), "first sweep failed: {out:?}");

    // Corrupt one committed entry on disk, mid-file.
    let victim = cell_files(&store).into_iter().next().expect("at least one entry");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let second = base.join("second.json");
    let out = sweep(&sock, &second);
    assert!(out.status.success(), "re-sweep over corrupt entry failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cache hits: 37/38"),
        "exactly the corrupted cell should re-simulate, got: {stdout}"
    );
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "recomputed artifact differs from the original"
    );
    // The damaged bytes are preserved for post-mortem, and the slot holds
    // a fresh verified entry.
    let quarantined = cell_files(&store.join("quarantine"));
    assert_eq!(quarantined.len(), 1);
    assert_eq!(cell_files(&store).len(), 38);
    // The serving read path, the only in-process check, found it.
    let note = std::fs::read_to_string(quarantined[0].with_extension("reason")).unwrap();
    assert!(note.starts_with("component=read-path check="), "{note}");

    send_signal(&server, "TERM");
    let mut server = server;
    server.wait().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// Like [`spawn_server`], but with stdout captured to `log` so the test
/// can learn the resolved `--metrics` port from the announcement line.
fn spawn_server_logged(sock: &Path, store: &Path, extra: &[&str], log: &Path) -> Child {
    let out = std::fs::File::create(log).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_campaign_server"))
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .arg("--store-dir")
        .arg(store)
        .args(extra)
        .stdout(Stdio::from(out))
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::os::unix::net::UnixStream::connect(sock).is_err() {
        assert!(Instant::now() < deadline, "server never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// Polls the server's log for the metrics announcement and returns the
/// resolved address.
fn metrics_addr(log: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.contains("metrics on tcp:")) {
            return line.rsplit("tcp:").next().unwrap().trim().to_string();
        }
        assert!(Instant::now() < deadline, "metrics address never announced: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One HTTP scrape of the exposition endpoint; returns the body. The
/// request method is caller-chosen so the test can prove writes are
/// inert.
fn scrape(addr: &str, request_head: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request_head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete HTTP response");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    body.to_string()
}

/// The value of a single-sample Prometheus line, e.g.
/// `faccell_requests_total{outcome="shed"} 3` → 3.
fn metric(body: &str, prefix: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("metric {prefix} missing from: {body}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// The metrics listener answers scrapes while the admission gate is
/// shedding cell traffic, ignores scrape "writes", stops with the
/// SIGTERM drain, and the access log holds one valid JSONL line per
/// request with a trace id and outcome on every line.
#[test]
fn metrics_stay_readable_under_overload_and_drain_with_sigterm() {
    let base = temp_dir("telemetry");
    let store = base.join("store");
    let sock = base.join("s.sock");
    let log = base.join("server.log");
    let access = base.join("access.jsonl");
    let access_flag = access.display().to_string();
    let mut server = spawn_server_logged(
        &sock,
        &store,
        &[
            "--test-cells",
            "--max-queue",
            "1",
            "--metrics",
            "127.0.0.1:0",
            "--access-log",
            &access_flag,
            "--slow-ms",
            "100",
        ],
        &log,
    );
    let addr = metrics_addr(&log);

    // Occupy the single admission slot with a slow cell...
    let sock_str = format!("unix:{}", sock.display());
    let slow = {
        let sock_str = sock_str.clone();
        std::thread::spawn(move || {
            Command::new(env!("CARGO_BIN_EXE_campaign_client"))
                .args(["--connect", &sock_str, "--cell", "__sleep:1500", "--config", "fac"])
                .output()
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(400));
    // ...so a different cell is shed with the documented exit code 3.
    // `--attempts 1` turns off the overload backoff-and-resend, which
    // would otherwise wait out the slow cell and succeed.
    let shed = Command::new(env!("CARGO_BIN_EXE_campaign_client"))
        .args([
            "--connect",
            &sock_str,
            "--cell",
            "__sleep:1",
            "--config",
            "fac",
            "--attempts",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(shed.status.code(), Some(3), "expected overload exit: {shed:?}");

    // Mid-overload, the metrics listener still answers — it sits outside
    // the admission gate — and reports the shed.
    let body = scrape(&addr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(metric(&body, "faccell_requests_total{outcome=\"shed\"}"), 1);
    assert_eq!(metric(&body, "faccell_queue_limit"), 1);
    // A scraper that tries to write gets the same read-only answer, and
    // nothing it sends perturbs the counters.
    let body = scrape(&addr, "POST /metrics HTTP/1.0\r\n\r\nhits=999");
    assert_eq!(metric(&body, "faccell_requests_total{outcome=\"shed\"}"), 1);

    assert!(slow.join().unwrap().status.success(), "slow cell must finish");
    let body = scrape(&addr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(metric(&body, "faccell_requests_total{outcome=\"miss\"}"), 1);
    // The 1500 ms cell crossed the --slow-ms 100 threshold; its access
    // line must be flagged.
    let text = std::fs::read_to_string(&access).unwrap();
    assert!(
        text.lines().any(|l| l.contains("\"slow\":true") && l.contains("__sleep:1500")),
        "slow request not flagged: {text}"
    );

    // SIGTERM: the server exits 0 and the metrics listener dies with it.
    send_signal(&server, "TERM");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not drain within the deadline");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "drained server must exit 0");
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "metrics listener survived the drain"
    );

    // Every request — cells, the shed, nothing missing — left exactly one
    // line of well-formed JSON with a trace id and an outcome.
    let text = std::fs::read_to_string(&access).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one miss + one shed expected: {text}");
    let mut outcomes = Vec::new();
    for line in &lines {
        let doc = fac_sim::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable access line {line}: {e:?}"));
        let id = match doc.get("trace_id") {
            Some(fac_sim::obs::Json::Str(id)) => id.clone(),
            other => panic!("bad trace_id in {line}: {other:?}"),
        };
        assert!(!id.is_empty());
        match doc.get("outcome") {
            Some(fac_sim::obs::Json::Str(o)) => outcomes.push(o.clone()),
            other => panic!("bad outcome in {line}: {other:?}"),
        }
        assert!(doc.get("total_us").is_some(), "{line}");
    }
    outcomes.sort();
    assert_eq!(outcomes, ["miss", "shed"]);

    std::fs::remove_dir_all(&base).ok();
}

/// SIGTERM drains gracefully: the server stops accepting, finishes
/// in-flight work, and exits 0 within the drain deadline.
#[test]
fn sigterm_drains_and_exits_zero() {
    let base = temp_dir("drain");
    let store = base.join("store");
    let sock = base.join("s.sock");

    let mut server = spawn_server(&sock, &store, &[]);
    send_signal(&server, "TERM");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not drain within the deadline");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "drained server must exit 0");
    // The drained server removed its socket file.
    assert!(!sock.exists(), "socket file left behind after drain");
    std::fs::remove_dir_all(&base).ok();
}
