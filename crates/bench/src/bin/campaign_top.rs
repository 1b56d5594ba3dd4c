//! A live terminal dashboard for a running `campaign_server` or
//! `campaign_supervisor` fleet.
//!
//! ```sh
//! campaign_top --connect tcp:127.0.0.1:7199             # refresh loop
//! campaign_top --connect unix:/tmp/fac.sock --once      # one frame
//! campaign_top --connect tcp:... --interval-secs 5
//! ```
//!
//! Polls the server's `stats` request — which carries the telemetry
//! histograms since DESIGN.md §12 — and renders hit ratio, load,
//! shed/quarantine rates, and latency percentiles per phase. The refresh
//! loop clears the screen each frame; `--once` prints a single frame
//! with no escape codes, which is what scripts and CI want.
//!
//! Pointed at a fleet supervisor (DESIGN.md §15), each frame leads with
//! a per-worker table — pid, state, uptime, restarts, inflight, hit
//! ratio — from the supervisor's `fleet-stats` RPC. A lone
//! `campaign_server` refuses `fleet-stats` with a bad-request error;
//! the viewer takes that refusal as its cue to render the
//! single-server view.

use fac_bench::serve::client::Client;
use fac_bench::serve::proto::{Request, Response};
use fac_bench::serve::Endpoint;
use fac_bench::Args;
use fac_sim::obs::Json;
use fac_sim::SimError;
use std::fmt::Write as _;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: campaign_top --connect <tcp:host:port|unix:path>");
    eprintln!("       [--interval-secs N] [--once]");
    std::process::exit(2);
}

/// Boolean flags this binary accepts.
const BOOL_FLAGS: &[&str] = &["--once"];
/// Value-taking flags this binary accepts.
const VALUE_FLAGS: &[&str] = &["--connect", "--interval-secs"];

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

/// A u64 leaf of the stats document, defaulting to 0 for missing lanes
/// (an older server simply shows zeros rather than crashing the viewer).
fn leaf(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// One latency lane (`count` plus percentile gauges) as a rendered line.
fn latency_line(out: &mut String, label: &str, hist: Option<&Json>) {
    let Some(h) = hist else { return };
    let count = leaf(h, "count");
    if count == 0 {
        let _ = writeln!(out, "  {label:<10} (no samples)");
        return;
    }
    let p = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  {label:<10} p50 {:>9.0} us   p90 {:>9.0} us   p99 {:>9.0} us   n={count}",
        p("p50"),
        p("p90"),
        p("p99")
    );
}

/// The per-worker fleet table from a supervisor's `fleet-stats` reply.
fn render_fleet(out: &mut String, doc: &Json) {
    let quorum = matches!(doc.get("quorum"), Some(Json::Bool(true)));
    let _ = writeln!(
        out,
        "fleet      {} workers   {} alive   quorum {}   restarts {}   failovers {}",
        leaf(doc, "workers"),
        leaf(doc, "alive"),
        if quorum { "yes" } else { "NO" },
        leaf(doc, "restarts"),
        leaf(doc, "failovers")
    );
    let Some(Json::Arr(rows)) = doc.get("rows") else { return };
    let _ = writeln!(
        out,
        "  {:<4} {:<12} {:>7} {:>7} {:>8} {:>9} {:>8} {:>6}",
        "idx", "state", "pid", "up(s)", "restarts", "forwarded", "inflight", "hit%"
    );
    for row in rows {
        let hits = leaf(row, "hits");
        let answered = hits + leaf(row, "misses") + leaf(row, "coalesced");
        let ratio = if answered == 0 { 0.0 } else { hits as f64 / answered as f64 * 100.0 };
        let _ = writeln!(
            out,
            "  {:<4} {:<12} {:>7} {:>7} {:>8} {:>9} {:>8} {:>6.1}",
            leaf(row, "index"),
            row.get("state").and_then(Json::as_str).unwrap_or("?"),
            leaf(row, "pid"),
            leaf(row, "uptime_secs"),
            leaf(row, "restarts"),
            leaf(row, "forwarded"),
            leaf(row, "inflight"),
            ratio
        );
    }
}

/// The counters every rate is derived from, captured per frame.
#[derive(Clone, Copy, Default)]
struct Counts {
    hits: u64,
    misses: u64,
    coalesced: u64,
    sheds: u64,
    quarantined: u64,
}

impl Counts {
    fn of(doc: &Json) -> Counts {
        Counts {
            hits: leaf(doc, "hits"),
            misses: leaf(doc, "misses"),
            coalesced: leaf(doc, "coalesced"),
            sheds: leaf(doc, "sheds"),
            quarantined: leaf(doc, "quarantined"),
        }
    }

    fn answered(self) -> u64 {
        self.hits + self.misses + self.coalesced
    }
}

/// Renders one dashboard frame from a stats document. `prev` (the last
/// frame's counters) and `interval` turn monotone counters into rates.
fn render(doc: &Json, prev: Option<Counts>, interval: Duration) -> (String, Counts) {
    let now = Counts::of(doc);
    let mut out = String::new();
    let version = match doc.get("build_version") {
        Some(Json::Str(v)) => v.as_str(),
        _ => "?",
    };
    let _ = writeln!(out, "campaign server — up {} s — {version}", leaf(doc, "uptime_secs"));

    let answered = now.answered();
    let ratio = if answered == 0 { 0.0 } else { now.hits as f64 / answered as f64 * 100.0 };
    let _ = writeln!(
        out,
        "requests   hits {}   misses {}   coalesced {}   hit ratio {ratio:.1}%",
        now.hits, now.misses, now.coalesced
    );
    let rate = |later: u64, earlier: u64| {
        later.saturating_sub(earlier) as f64 / interval.as_secs_f64().max(f64::EPSILON)
    };
    match prev {
        Some(prev) => {
            let _ = writeln!(
                out,
                "pressure   sheds {}  ({:.1}/s)   quarantined {}  ({:.1}/s)   throughput {:.1} req/s",
                now.sheds,
                rate(now.sheds, prev.sheds),
                now.quarantined,
                rate(now.quarantined, prev.quarantined),
                rate(now.answered(), prev.answered())
            );
        }
        None => {
            let _ = writeln!(
                out,
                "pressure   sheds {}   quarantined {}",
                now.sheds, now.quarantined
            );
        }
    }
    let _ = writeln!(
        out,
        "errors     sim {}   conn panics {}   store put {}",
        leaf(doc, "sim_errors"),
        leaf(doc, "conn_panics"),
        leaf(doc, "store_put_errors")
    );
    let _ = writeln!(
        out,
        "load       inflight {}   admitted {}/{}   store entries {}",
        leaf(doc, "inflight"),
        leaf(doc, "admitted"),
        leaf(doc, "max_queue"),
        leaf(doc, "entries")
    );
    if let Some(latency) = doc.get("latency") {
        let _ = writeln!(out, "latency");
        latency_line(&mut out, "request", latency.get("request_us"));
        for phase in ["queue", "coalesce", "simulate", "commit", "serialize"] {
            latency_line(&mut out, phase, latency.get(&format!("{phase}_us")));
        }
    }
    (out, now)
}

fn main() -> std::process::ExitCode {
    let args = or_usage(Args::parse(BOOL_FLAGS, VALUE_FLAGS));
    or_usage(args.no_positionals("--connect, --interval-secs, --once"));
    let Some(connect) = args.value("--connect") else { usage() };
    let endpoint = or_usage(Endpoint::parse("--connect", connect));
    let interval = or_usage(args.parse_value::<u64>(
        "--interval-secs",
        "a refresh interval in whole seconds, at least 1",
    ))
    .unwrap_or(2);
    if interval == 0 {
        eprintln!("error: --interval-secs must be at least 1");
        usage()
    }
    let interval = Duration::from_secs(interval);
    let once = args.flag("--once");

    let mut prev: Option<Counts> = None;
    loop {
        // A fresh connection per frame keeps the viewer robust to server
        // restarts and to the server's own idle-connection reaping. The
        // frame is (fleet table if talking to a supervisor, stats doc):
        // a lone server refuses `fleet-stats` with bad-request, which is
        // the documented cue to fall back to the single-server view.
        let frame = Client::connect(&endpoint, Duration::from_secs(30)).and_then(|mut c| {
            let fleet = match c.rpc(&Request::FleetStats)? {
                Response::Fleet(doc) => Some(doc),
                Response::Error { .. } => None,
                other => return Ok(Err(other)),
            };
            match c.rpc(&Request::Stats)? {
                Response::Stats(stats) => Ok(Ok((fleet, stats))),
                other => Ok(Err(other)),
            }
        });
        match frame {
            Ok(Ok((fleet, doc))) => {
                let (mut frame, counts) = render(&doc, prev, interval);
                if let Some(fleet) = fleet {
                    let mut headed = String::new();
                    render_fleet(&mut headed, &fleet);
                    headed.push_str(&frame);
                    frame = headed;
                }
                if !once {
                    // Clear and home, then draw — flicker-free enough for
                    // a 2 s cadence without pulling in a TUI dependency.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{frame}");
                prev = Some(counts);
            }
            Ok(Err(other)) => {
                eprintln!("error: unexpected response: {other:?}");
                return std::process::ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
        if once {
            return std::process::ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}
