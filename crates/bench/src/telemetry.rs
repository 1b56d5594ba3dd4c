//! Serving-stack telemetry: mergeable latency histograms, one metrics
//! table per serving process, and Prometheus text exposition.
//!
//! The campaign server (DESIGN.md §11) was a black box in production:
//! its `stats` request returned a handful of monotonic counters with no
//! latency distribution and no way for a scraper to watch a live
//! campaign. This module is the measurement layer every serving-side
//! consumer shares:
//!
//! - [`Hist`] — a log2-bucketed latency histogram with **exact** `u64`
//!   counts, min/max/sum, and deterministic p50/p90/p99 estimates.
//!   Histograms merge losslessly (`merge(a, b)` equals recording the
//!   union of both sample sets — pinned by a property test), so
//!   per-worker or per-phase histograms can be combined without a shared
//!   lock on the hot path.
//! - [`Metric`] — one row of a process's metrics table. The campaign
//!   server and the fleet supervisor each declare every metric once, in
//!   one table next to their counters: its `stats` key, its Prometheus
//!   series, label, HELP text and [`Kind`]. [`stats_json`] and
//!   [`exposition`] render the two outputs by walking that table, and
//!   [`merge_stats`] walks the server's table to fold the workers'
//!   `stats` into the supervisor's, so no list of metric names exists
//!   twice.
//! - [`Exposition`] — a Prometheus *text exposition format* builder
//!   (`# HELP`/`# TYPE` lines, counters, gauges, and cumulative
//!   `_bucket`/`_sum`/`_count` histogram series) behind [`exposition`].
//!   The grammar is documented in DESIGN.md §12.
//! - `spawn_health_endpoint` — the one `/healthz` / `/readyz` /
//!   `/metrics` HTTP listener, shared by the campaign server and the
//!   fleet supervisor; each passes its own readiness rule and exposition.
//!
//! Units are the caller's choice: the serving layer records
//! microseconds (`*_us` metrics — store hits answer in microseconds and
//! must not all collapse into one bucket), the sweep harness records
//! milliseconds (`bench.cell_wall_ms`). A histogram's buckets are the
//! powers of two, so the relative error of a percentile estimate is
//! bounded by 2× at any scale — the right trade for latency, where the
//! interesting signal is the order of magnitude of the tail.

use crate::serve::server::Shutdown;
use crate::serve::{serve_connections, Listener};
use fac_sim::obs::Json;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log2 buckets: bucket 0 holds values in `[0, 1]`, bucket
/// `i >= 1` holds `(2^(i-1), 2^i]`, and bucket 64 holds everything above
/// `2^63` (its exposition label is `+Inf`).
pub const BUCKETS: usize = 65;

/// A mergeable log2-bucketed histogram of `u64` samples.
///
/// ```
/// use fac_bench::telemetry::Hist;
///
/// let mut h = Hist::new();
/// for v in [1, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 1106);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(1000));
/// assert!(h.p(0.50) >= 2.0 && h.p(0.50) <= 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// The bucket index a value lands in: 0 for `v <= 1`, otherwise the
/// number of bits in `v - 1` (so bucket `i` covers `(2^(i-1), 2^i]`).
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros()) as usize
    }
}

/// The inclusive upper bound of bucket `i` (`None` for the overflow
/// bucket, whose exposition label is `+Inf`).
fn bucket_bound(i: usize) -> Option<u64> {
    if i < BUCKETS - 1 {
        Some(1u64 << i)
    } else {
        None
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram in. Exact: the result is
    /// indistinguishable from recording both sample sets into one
    /// histogram (the property test in this module pins it).
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating — a campaign that wraps a u64 of
    /// microseconds has bigger problems than a clipped mean).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the bucket holding the target rank, clamped
    /// to the exact observed `[min, max]`. Deterministic — a pure
    /// function of the recorded multiset — and total: an empty histogram
    /// answers 0.0, `q` outside `[0, 1]` is clamped (so `q = NaN` behaves
    /// as `q = 0`), and samples in the `+Inf` overflow bucket interpolate
    /// toward the exact observed `max` instead of a fabricated bound —
    /// the result is always finite and within `[min, max]`.
    pub fn p(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // clamp() propagates NaN; pin it to 0 so the result stays finite.
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate the rank's position inside this bucket.
                let lo = if i == 0 { 0 } else { (1u64 << (i - 1)) + 1 };
                let hi = bucket_bound(i).unwrap_or(self.max.max(lo));
                let into = (rank - seen - 1) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * into;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Iterates `(inclusive upper bound, cumulative count)` over every
    /// bucket up to and including the one holding `max`, ending with the
    /// `(None, count)` `+Inf` lane. Cumulative counts are monotone by
    /// construction — the shape Prometheus histogram series require.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::new();
        if self.count > 0 {
            let mut seen = 0u64;
            for i in 0..=bucket_index(self.max).min(BUCKETS - 2) {
                seen += self.counts[i];
                out.push((bucket_bound(i), seen));
            }
        }
        out.push((None, self.count));
        out
    }

    /// The histogram's summary document: exact count/sum/min/max plus
    /// percentile estimates. The JSON shape the `stats` response and the
    /// `--json` artifacts embed.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::U64(self.count));
        o.set("sum", Json::U64(self.sum));
        match self.min() {
            Some(v) => o.set("min", Json::U64(v)),
            None => o.set("min", Json::Null),
        };
        match self.max() {
            Some(v) => o.set("max", Json::U64(v)),
            None => o.set("max", Json::Null),
        };
        o.set("p50", Json::F64(self.p(0.50)));
        o.set("p90", Json::F64(self.p(0.90)));
        o.set("p99", Json::F64(self.p(0.99)));
        o
    }
}

/// A Prometheus *text exposition format* builder.
///
/// Series names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`; label values are
/// escaped per the format spec (`\\`, `\"`, `\n`). Every series gets its
/// `# HELP` and `# TYPE` header exactly once, on first touch.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    headered: Vec<String>,
}

/// Renders a `{k="v",...}` label set (empty string for no labels).
fn label_set(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Exposition {
    /// An empty exposition document.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.headered.iter().any(|h| h == name) {
            return;
        }
        self.headered.push(name.to_string());
        self.out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name}{} {value}\n", label_set(labels)));
    }

    /// Appends one gauge sample. Non-finite values are rendered as 0 —
    /// the same policy as [`fac_sim::obs::MetricsRegistry::gauge`].
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.header(name, help, "gauge");
        let v = if value.is_finite() { value } else { 0.0 };
        self.out.push_str(&format!("{name}{} {v}\n", label_set(labels)));
    }

    /// Appends one histogram: cumulative `_bucket` series (ending with
    /// the mandatory `le="+Inf"` lane equal to `_count`), then `_sum`
    /// and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], hist: &Hist) {
        self.header(name, help, "histogram");
        for (bound, cumulative) in hist.cumulative() {
            let le = match bound {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.out.push_str(&format!("{name}_bucket{} {cumulative}\n", label_set(&with_le)));
        }
        self.out.push_str(&format!("{name}_sum{} {}\n", label_set(labels), hist.sum()));
        self.out.push_str(&format!("{name}_count{} {}\n", label_set(labels), hist.count()));
    }

    /// The rendered exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

/// What kind of metric a [`Metric`] row is, with the function that reads
/// it from a process's state `S`. The kind decides how each output
/// renders the value and how [`merge_stats`] folds workers' values.
pub enum Kind<S> {
    /// A monotonic count: a `stats` integer and a counter. Summed.
    Counter(fn(&S) -> &AtomicU64),
    /// How much of something the process holds now: a `stats` integer
    /// and a gauge. Summed.
    Gauge(fn(&S) -> u64),
    /// The size of a resource every worker shares (the store): a `stats`
    /// integer and a gauge. One worker's view stands for all.
    Shared(fn(&S) -> u64),
    /// A yes/no state: a `stats` boolean and a 0/1 gauge. Set if any
    /// worker sets it.
    Flag(fn(&S) -> bool),
    /// `stats`-only text. The first worker's stands for all.
    Text(fn(&S) -> String),
    /// Time since start: whole seconds in `stats`, fractional in the
    /// gauge. A merged document reports the merging process's own.
    Uptime(fn(&S) -> Instant),
    /// A latency histogram: a summary object in `stats` and bucket
    /// series in the exposition. Never merged: percentile summaries do
    /// not add up.
    Hist(fn(&S) -> Hist),
}

/// One row of a serving process's metrics table: every fact about one
/// metric, declared once.
pub struct Metric<S> {
    /// The `stats` key. A table lists its rows in `stats` key order;
    /// `outer.inner` puts `inner` inside the object `outer`, whose rows
    /// must be adjacent.
    pub key: &'static str,
    /// The metric's kind and how to read it.
    pub kind: Kind<S>,
    /// Where the series sits in the exposition: series are emitted by
    /// ascending rank, and the rows of one series in table order.
    pub rank: u8,
    /// The Prometheus series name; empty keeps the row out of the
    /// exposition.
    pub series: &'static str,
    /// The label telling this row apart from its series' other rows.
    pub label: Option<(&'static str, &'static str)>,
    /// The `# HELP` text (the series' first row supplies it).
    pub help: &'static str,
}

impl<S> Metric<S> {
    /// A row from its fields in declaration order, so a table reads one
    /// line of arguments per metric.
    pub const fn new(
        key: &'static str,
        kind: Kind<S>,
        rank: u8,
        series: &'static str,
        label: Option<(&'static str, &'static str)>,
        help: &'static str,
    ) -> Metric<S> {
        Metric { key, kind, rank, series, label, help }
    }
}

/// The `stats` document of `table`, read from `s`: one key per row, in
/// table order.
pub fn stats_json<S>(table: &[Metric<S>], s: &S) -> Json {
    let mut doc = Json::obj();
    for m in table {
        let value = match &m.kind {
            Kind::Counter(read) => Json::U64(read(s).load(Ordering::Relaxed)),
            Kind::Gauge(read) | Kind::Shared(read) => Json::U64(read(s)),
            Kind::Flag(read) => Json::Bool(read(s)),
            Kind::Text(read) => Json::Str(read(s)),
            Kind::Uptime(read) => Json::U64(read(s).elapsed().as_secs()),
            Kind::Hist(read) => read(s).to_json(),
        };
        // The rows of one nested object are adjacent, so re-setting the
        // object keeps it in place: it is always the last key so far.
        match m.key.split_once('.') {
            Some((outer, inner)) => {
                let mut nested = doc.take(outer).unwrap_or_else(Json::obj);
                nested.set(inner, value);
                doc.set(outer, nested)
            }
            None => doc.set(m.key, value),
        };
    }
    doc
}

/// The Prometheus exposition of `table`, read from `s`: every row with a
/// series, series by rank.
pub fn exposition<S>(table: &[Metric<S>], s: &S) -> String {
    let mut rows: Vec<&Metric<S>> = table.iter().filter(|m| !m.series.is_empty()).collect();
    rows.sort_by_key(|m| m.rank);
    let mut exp = Exposition::new();
    for m in rows {
        let (name, help, labels) = (m.series, m.help, m.label.as_slice());
        match &m.kind {
            Kind::Counter(read) => exp.counter(name, help, labels, read(s).load(Ordering::Relaxed)),
            Kind::Gauge(read) | Kind::Shared(read) => exp.gauge(name, help, labels, read(s) as f64),
            Kind::Flag(read) => exp.gauge(name, help, labels, f64::from(u8::from(read(s)))),
            Kind::Uptime(read) => exp.gauge(name, help, labels, read(s).elapsed().as_secs_f64()),
            Kind::Hist(read) => exp.histogram(name, help, labels, &read(s)),
            Kind::Text(_) => {}
        }
    }
    exp.finish()
}

/// Folds `stats` documents rendered from `table` (one per worker) into
/// one, in table order, each row by its [`Kind`]. `started` is the
/// merging process's own start, which its uptime rows report.
pub fn merge_stats<S>(table: &[Metric<S>], docs: &[Json], started: Instant) -> Json {
    let mut doc = Json::obj();
    for m in table {
        let mut lanes = docs.iter().filter_map(|d| d.get(m.key));
        let value = match m.kind {
            Kind::Counter(_) | Kind::Gauge(_) => Json::U64(lanes.filter_map(Json::as_u64).sum()),
            Kind::Shared(_) => Json::U64(lanes.find_map(Json::as_u64).unwrap_or(0)),
            Kind::Flag(_) => Json::Bool(lanes.any(|v| matches!(v, Json::Bool(true)))),
            Kind::Text(_) => match lanes.find_map(Json::as_str) {
                Some(text) => Json::Str(text.to_string()),
                None => continue,
            },
            Kind::Uptime(_) => Json::U64(started.elapsed().as_secs()),
            Kind::Hist(_) => continue,
        };
        doc.set(m.key, value);
    }
    doc
}

/// Renders a complete minimal HTTP/1.0 response (`Connection: close`,
/// explicit `Content-Length`): the one shape every answer of
/// [`spawn_health_endpoint`] takes.
fn http_response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Drains an HTTP request head from `stream` (bounded at 4 KiB, stopping
/// at the blank line) and returns the raw bytes read. Never fails: a
/// scraper that sent only a bare request line — or nothing parseable —
/// still deserves an answer, so timeouts and errors just end the drain.
fn read_request_head(stream: &mut impl Read) -> Vec<u8> {
    let mut head = [0u8; 4096];
    let mut len = 0;
    while len < head.len() {
        match stream.read(&mut head[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if head[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    head[..len].to_vec()
}

/// The path component of an HTTP request head's first line, if one is
/// present (`GET /readyz HTTP/1.0` → `/readyz`). Query strings are
/// stripped: `/readyz?verbose=1` still means `/readyz`.
fn request_path(head: &[u8]) -> Option<&str> {
    let head = std::str::from_utf8(head).ok()?;
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    let target = parts.next()?;
    Some(target.split('?').next().unwrap_or(target))
}

/// The answer to one request head:
///
/// - `/healthz` — always 200: the process answers, full stop. A degraded
///   store or a lost quorum is a reason to stop *routing*, not to restart.
/// - `/readyz` — 200, or 503 with the readiness rule's reason.
/// - `/metrics`, and a head that cannot be parsed (a scraper that sent a
///   bare request line still deserves its metrics) — the exposition.
/// - any other well-formed path — 404.
fn probe_response(
    head: &[u8],
    ready: &impl Fn() -> Result<(), &'static str>,
    exposition: &impl Fn() -> String,
) -> String {
    match request_path(head) {
        Some("/healthz") => http_response("200 OK", "text/plain", "ok\n"),
        Some("/readyz") => match ready() {
            Ok(()) => http_response("200 OK", "text/plain", "ready\n"),
            Err(reason) => {
                http_response("503 Service Unavailable", "text/plain", &format!("{reason}\n"))
            }
        },
        Some("/metrics") | None => {
            http_response("200 OK", "text/plain; version=0.0.4", &exposition())
        }
        Some(_) => http_response("404 Not Found", "text/plain", "not found\n"),
    }
}

/// Serves the read-only observability listener of a campaign server or
/// fleet supervisor — `/healthz`, `/readyz` and `/metrics` over minimal
/// HTTP/1.0, routed by `probe_response` — on a thread of its own until
/// `shutdown` is raised, and returns that thread. `ready` is the
/// process's readiness rule: `Err` carries the reason it should not get
/// traffic.
///
/// Outside every data-plane loop and admission gate, a scrape keeps
/// answering while cell traffic is shed. Each connection gets its own
/// short-lived thread from [`serve_connections`] with 2 s read/write
/// deadlines, so a scraper that connects and sends nothing delays
/// neither the next scrape nor a cell RPC.
pub(crate) fn spawn_health_endpoint(
    listener: Listener,
    shutdown: Shutdown,
    ready: impl Fn() -> Result<(), &'static str> + Send + Sync + 'static,
    exposition: impl Fn() -> String + Send + Sync + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        serve_connections(&listener, &shutdown, move |mut conn| {
            let deadline = Some(Duration::from_secs(2));
            if conn.set_read_timeout(deadline).is_err() || conn.set_write_timeout(deadline).is_err()
            {
                return;
            }
            let head = read_request_head(&mut conn);
            let response = probe_response(&head, &ready, &exposition);
            let _ = conn.write_all(response.as_bytes());
            let _ = conn.flush();
        })
        .ok();
    })
}

/// The shape of a `stats` document for golden tests: one `key: type`
/// line per key, nested objects as `outer.inner`.
#[cfg(test)]
pub(crate) fn json_shape(doc: &Json) -> String {
    fn walk(doc: &Json, prefix: &str, out: &mut String) {
        let Json::Obj(fields) = doc else { return };
        for (k, v) in fields {
            let ty = match v {
                Json::Null => "null",
                Json::Bool(_) => "bool",
                Json::U64(_) => "u64",
                Json::I64(_) => "i64",
                Json::F64(_) => "f64",
                Json::Str(_) => "str",
                Json::Arr(_) => "arr",
                Json::Obj(_) => "obj",
            };
            out.push_str(&format!("{prefix}{k}: {ty}\n"));
            walk(v, &format!("{prefix}{k}."), out);
        }
    }
    let mut out = String::new();
    walk(doc, "", &mut out);
    out
}

/// The shape of an exposition for golden tests: every `#` line, and
/// every sample's series name and labels without its value. Histogram
/// bucket bounds depend on timing, so `le` reads `*` and a histogram's
/// bucket lines collapse into one.
#[cfg(test)]
pub(crate) fn exposition_shape(text: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        let shape = if line.starts_with('#') {
            line.to_string()
        } else {
            let series = line.rsplit_once(' ').expect("sample line").0;
            match series.split_once("le=\"") {
                Some((head, tail)) => format!("{head}le=\"*{}", &tail[tail.find('"').unwrap()..]),
                None => series.to_string(),
            }
        };
        if out.last() != Some(&shape) {
            out.push(shape);
        }
    }
    out.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A toy process with one row of every kind.
    struct Toy {
        hits: AtomicU64,
        level: u64,
        down: bool,
        started: Instant,
        lat: Hist,
    }

    static TOY: &[Metric<Toy>] = &[
        Metric::new("hits", Kind::Counter(|t| &t.hits), 1, "toy_hits_total", None, "Hits."),
        Metric::new("held", Kind::Gauge(|t| t.level), 0, "toy_held", Some(("k", "v")), "Held."),
        Metric::new("size", Kind::Shared(|t| t.level * 10), 2, "toy_size", None, "Size."),
        Metric::new("down", Kind::Flag(|t| t.down), 3, "toy_down", None, "Down."),
        Metric::new("version", Kind::Text(|_| "v1".to_string()), 0, "", None, ""),
        Metric::new("uptime", Kind::Uptime(|t| t.started), 4, "toy_uptime", None, "Up."),
        Metric::new("lat.all_us", Kind::Hist(|t| t.lat.clone()), 5, "toy_us", None, "Lat."),
    ];

    fn toy(hits: u64, level: u64, down: bool) -> Toy {
        let mut lat = Hist::new();
        lat.record(3);
        Toy { hits: AtomicU64::new(hits), level, down, started: Instant::now(), lat }
    }

    /// One table renders both outputs: `stats` in table order with
    /// dotted keys nested, the exposition by rank without `stats`-only
    /// rows.
    #[test]
    fn table_renders_stats_and_exposition() {
        let t = toy(7, 2, true);
        let doc = stats_json(TOY, &t);
        assert_eq!(
            json_shape(&doc),
            "hits: u64\nheld: u64\nsize: u64\ndown: bool\nversion: str\nuptime: u64\n\
             lat: obj\nlat.all_us: obj\nlat.all_us.count: u64\nlat.all_us.sum: u64\n\
             lat.all_us.min: u64\nlat.all_us.max: u64\nlat.all_us.p50: f64\n\
             lat.all_us.p90: f64\nlat.all_us.p99: f64\n"
        );
        assert_eq!(doc.get("size").and_then(Json::as_u64), Some(20));
        let text = exposition(TOY, &t);
        let series: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        assert_eq!(
            series,
            [
                "toy_held{k=\"v\"}",
                "toy_hits_total",
                "toy_size",
                "toy_down",
                "toy_uptime",
                "toy_us_bucket{le=\"1\"}",
                "toy_us_bucket{le=\"2\"}",
                "toy_us_bucket{le=\"4\"}",
                "toy_us_bucket{le=\"+Inf\"}",
                "toy_us_sum",
                "toy_us_count",
            ]
        );
        assert!(text.contains("toy_hits_total 7\n") && text.contains("toy_down 1\n"), "{text}");
    }

    /// Merging folds each row by its kind: counters and gauges sum, a
    /// shared level is one document's, a flag is any, text is the first
    /// present, uptime is the merger's own, histograms are left out.
    #[test]
    fn merge_folds_each_kind() {
        let docs = [stats_json(TOY, &toy(7, 2, false)), stats_json(TOY, &toy(5, 3, true))];
        let merged = merge_stats(TOY, &docs, Instant::now());
        assert_eq!(
            merged.to_string(),
            "{\"hits\":12,\"held\":5,\"size\":20,\"down\":true,\"version\":\"v1\",\"uptime\":0}"
        );
        let none = merge_stats(TOY, &[], Instant::now());
        assert_eq!(none.to_string(), "{\"hits\":0,\"held\":0,\"size\":0,\"down\":false,\"uptime\":0}");
    }

    #[test]
    fn http_response_shape() {
        let r = http_response("200 OK", "text/plain", "ok\n");
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"), "{r}");
        assert!(r.contains("Content-Length: 3\r\n"), "{r}");
        assert!(r.ends_with("\r\n\r\nok\n"), "{r}");
    }

    #[test]
    fn request_path_parses_the_target() {
        assert_eq!(request_path(b"GET /readyz HTTP/1.0\r\n\r\n"), Some("/readyz"));
        assert_eq!(request_path(b"GET /readyz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n"), Some("/readyz"));
        assert_eq!(request_path(b"POST /metrics HTTP/1.0\r\n\r\nhits=9"), Some("/metrics"));
        assert_eq!(request_path(b"GET\r\n\r\n"), None);
        assert_eq!(request_path(b"\xff\xfe"), None);
        assert_eq!(request_path(b""), None);
    }

    /// The routing table of the health endpoint, per path.
    #[test]
    fn probe_response_routes_every_path() {
        let ready = || Ok(());
        let unready = || Err("no fleet quorum");
        let exposition = || "facfleet_quorum 1\n".to_string();
        let status = |r: String| r.lines().next().unwrap_or("").to_string();
        let get = |path: &str| format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes();

        assert_eq!(status(probe_response(&get("/healthz"), &ready, &exposition)), "HTTP/1.0 200 OK");
        assert_eq!(status(probe_response(&get("/healthz"), &unready, &exposition)), "HTTP/1.0 200 OK");
        assert_eq!(status(probe_response(&get("/readyz"), &ready, &exposition)), "HTTP/1.0 200 OK");
        let r = probe_response(&get("/readyz"), &unready, &exposition);
        assert!(r.starts_with("HTTP/1.0 503 Service Unavailable\r\n"), "{r}");
        assert!(r.ends_with("\r\n\r\nno fleet quorum\n"), "{r}");
        for head in [get("/metrics"), get("/metrics?x=1"), b"\xff garbage".to_vec(), Vec::new()] {
            let r = probe_response(&head, &ready, &exposition);
            assert!(r.starts_with("HTTP/1.0 200 OK\r\n"), "{r}");
            assert!(r.ends_with("facfleet_quorum 1\n"), "{r}");
        }
        let r = probe_response(&get("/nope"), &ready, &exposition);
        assert!(r.starts_with("HTTP/1.0 404 Not Found\r\n"), "{r}");
    }

    #[test]
    fn empty_hist_is_inert() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!(h.is_empty());
        assert_eq!(h.p(0.5), 0.0);
        assert_eq!(h.p(0.99), 0.0);
        // The +Inf lane alone, at zero.
        assert_eq!(h.cumulative(), vec![(None, 0)]);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's bound contains exactly its range end.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(i).unwrap()), i);
        }
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Hist::new();
        h.record(777);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.p(q), 777.0, "q={q}");
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.record(v * 7);
        }
        let (p50, p90, p99) = (h.p(0.50), h.p(0.90), h.p(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p50 >= h.min().unwrap() as f64);
        assert!(p99 <= h.max().unwrap() as f64);
        // log2 buckets bound the relative error by 2x.
        assert!((0.5 * 3500.0..=2.0 * 3500.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        let mut other = Hist::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
    }

    proptest! {
        /// The module's headline property: merging two histograms is
        /// exactly recording the union of their sample sets.
        #[test]
        fn merge_equals_record_of_union(
            a in proptest::collection::vec(any::<u64>(), 0..200),
            b in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut ha = Hist::new();
            for &v in &a {
                ha.record(v);
            }
            let mut hb = Hist::new();
            for &v in &b {
                hb.record(v);
            }
            let mut merged = ha.clone();
            merged.merge(&hb);

            let mut union = Hist::new();
            for &v in a.iter().chain(b.iter()) {
                union.record(v);
            }
            prop_assert_eq!(&merged, &union);
            // And the derived views agree too.
            prop_assert_eq!(merged.to_json().to_string(), union.to_json().to_string());
            prop_assert_eq!(merged.cumulative(), union.cumulative());
        }

        /// Cumulative bucket counts are monotone and the +Inf lane equals
        /// the total count — the invariants Prometheus requires of a
        /// histogram.
        #[test]
        fn cumulative_is_monotone_and_ends_at_count(
            vs in proptest::collection::vec(0u64..1_000_000, 0..300),
        ) {
            let mut h = Hist::new();
            for &v in &vs {
                h.record(v);
            }
            let cum = h.cumulative();
            let mut last = 0u64;
            let mut last_bound = None::<u64>;
            for (bound, c) in &cum {
                prop_assert!(*c >= last, "cumulative counts must be monotone");
                if let (Some(b), Some(lb)) = (bound, last_bound) {
                    prop_assert!(*b > lb, "bounds must strictly increase");
                }
                last = *c;
                last_bound = *bound;
            }
            let (inf_bound, inf_count) = cum.last().unwrap();
            prop_assert_eq!(*inf_bound, None, "last lane must be +Inf");
            prop_assert_eq!(*inf_count, h.count());
        }

        /// Percentile estimates are deterministic, ordered, and bounded by
        /// the exact observed min/max for arbitrary sample sets.
        #[test]
        fn percentiles_ordered_and_bounded(
            vs in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let mut h = Hist::new();
            for &v in &vs {
                h.record(v);
            }
            let (p50, p90, p99) = (h.p(0.50), h.p(0.90), h.p(0.99));
            prop_assert!(p50 <= p90 && p90 <= p99, "{} {} {}", p50, p90, p99);
            prop_assert!(p50 >= h.min().unwrap() as f64);
            prop_assert!(p99 <= h.max().unwrap() as f64);
        }

        /// `p()` is total: finite, within `[min, max]`, and monotone in
        /// `q` — including out-of-range and NaN quantiles, merged
        /// histograms, and samples confined to the `+Inf` overflow bucket
        /// (`> 2^63`, exercised by the `any::<u64>()` generator above and
        /// pinned directly in `p_handles_overflow_bucket`).
        #[test]
        fn p_is_finite_and_monotone_in_q(
            a in proptest::collection::vec(any::<u64>(), 0..200),
            b in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut h = Hist::new();
            for &v in &a {
                h.record(v);
            }
            let mut other = Hist::new();
            for &v in &b {
                other.record(v);
            }
            h.merge(&other);

            let qs = [f64::NEG_INFINITY, -1.0, 0.0, 0.01, 0.25, 0.5,
                      0.75, 0.9, 0.99, 1.0, 2.0, f64::INFINITY];
            let mut last = f64::NEG_INFINITY;
            for q in qs {
                let p = h.p(q);
                prop_assert!(p.is_finite(), "p({q}) = {p} not finite");
                if let (Some(min), Some(max)) = (h.min(), h.max()) {
                    prop_assert!(p >= min as f64 && p <= max as f64,
                        "p({q}) = {p} outside [{min}, {max}]");
                } else {
                    prop_assert_eq!(p, 0.0, "empty histogram must answer 0.0");
                }
                prop_assert!(p >= last, "p({q}) = {p} < previous {last}: not monotone");
                last = p;
            }
            // NaN behaves as q = 0 — total, finite, documented.
            let pn = h.p(f64::NAN);
            prop_assert!(pn.is_finite(), "p(NaN) = {pn}");
            prop_assert_eq!(pn, h.p(0.0));
        }
    }

    /// Every sample above 2^63 lands in the `+Inf` bucket; percentiles
    /// must still interpolate to finite values inside `[min, max]`.
    #[test]
    fn p_handles_overflow_bucket() {
        let mut h = Hist::new();
        let lo = (1u64 << 63) + 5;
        h.record(lo);
        h.record(u64::MAX - 1);
        h.record(u64::MAX);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = h.p(q);
            assert!(p.is_finite(), "p({q}) = {p}");
            assert!(p >= lo as f64 && p <= u64::MAX as f64, "p({q}) = {p}");
        }
    }

    /// The empty histogram and out-of-range quantiles are well-defined.
    #[test]
    fn p_edge_cases_are_total() {
        let empty = Hist::new();
        for q in [f64::NAN, f64::NEG_INFINITY, -3.0, 0.0, 0.5, 1.0, 7.0, f64::INFINITY] {
            assert_eq!(empty.p(q), 0.0, "empty.p({q})");
        }
        let mut one = Hist::new();
        one.record(42);
        assert_eq!(one.p(f64::NAN), 42.0);
        assert_eq!(one.p(-1.0), 42.0);
        assert_eq!(one.p(2.0), 42.0);
    }

    #[test]
    fn to_json_shape() {
        let mut h = Hist::new();
        h.record(10);
        h.record(20);
        let doc = h.to_json();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("sum").and_then(Json::as_u64), Some(30));
        assert_eq!(doc.get("min").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(20));
        assert!(doc.get("p50").and_then(Json::as_f64).is_some());
        // Empty histograms export null min/max, not fabricated zeros.
        let empty = Hist::new().to_json();
        assert_eq!(empty.get("min"), Some(&Json::Null));
        assert_eq!(empty.get("max"), Some(&Json::Null));
    }

    /// Golden test for the exposition grammar: `# TYPE` lines, valid
    /// sample lines, cumulative buckets, and `+Inf == _count`.
    #[test]
    fn exposition_golden() {
        let mut h = Hist::new();
        for v in [1u64, 2, 3, 3, 7] {
            h.record(v);
        }
        let mut e = Exposition::new();
        e.counter("faccell_requests_total", "Requests by outcome.", &[("outcome", "hit")], 41);
        e.counter("faccell_requests_total", "Requests by outcome.", &[("outcome", "miss")], 1);
        e.gauge("faccell_inflight", "Cells simulating now.", &[], 2.0);
        e.histogram("faccell_request_us", "Request latency.", &[], &h);
        let text = e.finish();
        assert_eq!(
            text,
            "# HELP faccell_requests_total Requests by outcome.\n\
             # TYPE faccell_requests_total counter\n\
             faccell_requests_total{outcome=\"hit\"} 41\n\
             faccell_requests_total{outcome=\"miss\"} 1\n\
             # HELP faccell_inflight Cells simulating now.\n\
             # TYPE faccell_inflight gauge\n\
             faccell_inflight 2\n\
             # HELP faccell_request_us Request latency.\n\
             # TYPE faccell_request_us histogram\n\
             faccell_request_us_bucket{le=\"1\"} 1\n\
             faccell_request_us_bucket{le=\"2\"} 2\n\
             faccell_request_us_bucket{le=\"4\"} 4\n\
             faccell_request_us_bucket{le=\"8\"} 5\n\
             faccell_request_us_bucket{le=\"+Inf\"} 5\n\
             faccell_request_us_sum 16\n\
             faccell_request_us_count 5\n"
        );
    }

    /// Structural validity of arbitrary expositions: every non-comment
    /// line is `name[{labels}] value`, every series has exactly one
    /// `# TYPE`, bucket series are monotone, `+Inf` equals `_count`.
    #[test]
    fn exposition_is_structurally_valid() {
        let mut h = Hist::new();
        for v in 0..100u64 {
            h.record(v * v);
        }
        let mut e = Exposition::new();
        e.counter("a_total", "A.", &[], 7);
        e.gauge("b", "B with \"quotes\" and \\slashes\\.", &[("k", "v\"w\\x\ny")], 1.5);
        e.histogram("lat_us", "Latency.", &[("phase", "simulate")], &h);
        let text = e.finish();

        let mut type_lines = 0;
        let mut buckets: Vec<u64> = Vec::new();
        let mut count_value = None;
        for line in text.lines() {
            if line.starts_with("# TYPE ") {
                type_lines += 1;
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty() && value.parse::<f64>().is_ok(), "bad line: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if name == "lat_us_bucket" {
                buckets.push(value.parse().unwrap());
                assert!(series.contains("phase=\"simulate\""), "{line}");
                assert!(series.contains("le="), "{line}");
            }
            if name == "lat_us_count" {
                count_value = Some(value.parse::<u64>().unwrap());
            }
        }
        assert_eq!(type_lines, 3, "one TYPE header per series");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets must be monotone");
        assert_eq!(buckets.last().copied(), count_value, "+Inf bucket must equal _count");
    }
}
