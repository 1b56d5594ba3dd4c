//! The campaign protocol: line-delimited JSON over a byte stream.
//!
//! Grammar (one object per LF-terminated line, both directions):
//!
//! ```text
//! request  = ping | stats | fleet | cell
//! ping     = {"cmd":"ping"}
//! stats    = {"cmd":"stats"}
//! fleet    = {"cmd":"fleet-stats"}
//! cell     = {"cmd":"cell","workload":<name>,"sw":<bool>,
//!             "scale":"smoke"|"paper","config":"baseline"|"fac"
//!             [,"config_fp":"0x<16 hex>"][,"program_fp":"0x<16 hex>"]
//!             [,"trace_id":<id>]}
//!
//! response = {"ok":true,"pong":true}
//!          | {"ok":true,"stats":{...}}
//!          | {"ok":true,"fleet":{...}}
//!          | {"ok":true,"key":"0x<16 hex>","cached":<bool>,
//!             "coalesced":<bool>[,"trace_id":<id>],"result":{...}}
//!          | {"ok":false,"kind":"bad-request"|"overloaded"|"sim",
//!             "error":<message>[,"trace_id":<id>]}
//! ```
//!
//! `fleet-stats` is answered by the campaign *supervisor* (per-worker
//! pid/state/restart rows); a single `campaign_server` refuses it with
//! `bad-request`, which is how `campaign_top` detects it is watching a
//! lone server rather than a fleet.
//!
//! The optional fingerprints let a client that built the cell itself
//! assert that the server's build agrees — version skew between client
//! and server surfaces as a typed `bad-request`, never as silently
//! incomparable results.
//!
//! `trace_id` is the telemetry correlation key (DESIGN.md §12): a client
//! may stamp each cell request with one; the server echoes it in the
//! response and in the structured access log, and mints its own for
//! unstamped requests. Ids are constrained to 1–64 characters of
//! `[A-Za-z0-9._:-]` so a hostile client cannot inject structure into
//! log lines or exposition labels.
//!
//! Everything on the wire is parsed with the hardened
//! [`fac_sim::obs::json`] parser (nesting-depth and input-size bounded)
//! behind [`read_line`]'s own line-length cap: an adversarial peer can
//! neither blow the stack nor balloon memory.

use fac_sim::obs::{json, Json};
use fac_workloads::Scale;
use std::io::{Read, Write};

/// The longest protocol line either side accepts (1 MiB). Requests are a
/// few hundred bytes; responses carry one cell result. A peer that
/// streams more than this without a newline is shed, not buffered.
pub const MAX_LINE_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server counters (hits, misses, sheds, quarantined, ...).
    Stats,
    /// Per-worker fleet rows (supervisor only; a lone server refuses).
    FleetStats,
    /// Run-or-fetch one (configuration × workload) cell.
    Cell(CellRequest),
}

/// The cell selector carried by a [`Request::Cell`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// Workload name (a `fac_workloads::suite()` member, or a `__test_*`
    /// hook when the server runs with test cells enabled).
    pub workload: String,
    /// Link with the §4 software support?
    pub sw: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Named machine configuration (see [`crate::serve::config_by_name`]).
    pub config: String,
    /// Client-computed configuration fingerprint, if it built one.
    pub config_fp: Option<u64>,
    /// Client-computed program fingerprint, if it built one.
    pub program_fp: Option<u64>,
    /// Client-supplied telemetry correlation id, echoed in the response
    /// and the server's access log. `None` lets the server mint one.
    pub trace_id: Option<String>,
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was malformed, named an unknown workload or
    /// configuration, or its fingerprints disagree with the server's.
    BadRequest,
    /// The admission queue is full; the request was shed.
    Overloaded,
    /// The simulation itself failed (typed `SimError`, rendered).
    Sim,
}

impl ErrorKind {
    /// The wire token for this kind.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Sim => "sim",
        }
    }

    /// Parses a wire token.
    pub fn from_token(token: &str) -> Option<ErrorKind> {
        match token {
            "bad-request" => Some(ErrorKind::BadRequest),
            "overloaded" => Some(ErrorKind::Overloaded),
            "sim" => Some(ErrorKind::Sim),
            _ => None,
        }
    }
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ping acknowledged.
    Pong,
    /// Server counters.
    Stats(Json),
    /// Fleet rows from a supervisor (`fleet-stats`).
    Fleet(Json),
    /// A cell result.
    Cell {
        /// The content-address of the cell in the store.
        key: u64,
        /// `true` when the result came from the on-disk store.
        cached: bool,
        /// `true` when this request piggybacked on an in-flight
        /// simulation started by another connection.
        coalesced: bool,
        /// The telemetry correlation id this request was served under:
        /// the client's own id echoed back, or the server-minted one.
        trace_id: Option<String>,
        /// The cell's result document.
        result: Json,
    },
    /// The request failed.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
        /// The trace id of the request being refused, when the server
        /// got far enough to know it. A resilient client resending after
        /// a transport fault uses this to match refusals to the RPC in
        /// flight and discard stale (duplicate-induced) ones.
        trace_id: Option<String>,
    },
}

/// A protocol-level failure: the line was not a well-formed request or
/// response. Carries a message suitable for a `bad-request` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the line.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError { message: message.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

fn str_field<'j>(doc: &'j Json, key: &str) -> Result<&'j str, ProtoError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(format!("missing or non-string '{key}' field")))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, ProtoError> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(ProtoError::new(format!("missing or non-boolean '{key}' field"))),
    }
}

/// Renders a fingerprint / store key for the wire (`"0x<16 hex>"`).
pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn hex_field(doc: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .and_then(|s| s.strip_prefix("0x"))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(Some)
            .ok_or_else(|| ProtoError::new(format!("malformed '{key}' field (want 0x<hex>)"))),
    }
}

/// `true` when `id` is an acceptable trace id: 1–64 characters drawn
/// from `[A-Za-z0-9._:-]`. Everything the server later interpolates into
/// an access-log line is constrained here, at the trust boundary.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

fn trace_id_field(doc: &Json) -> Result<Option<String>, ProtoError> {
    match doc.get("trace_id") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(id) if valid_trace_id(id) => Ok(Some(id.to_string())),
            _ => Err(ProtoError::new(
                "malformed 'trace_id' field (want 1-64 chars of [A-Za-z0-9._:-])",
            )),
        },
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] describing the first malformed field; the server turns
/// it into a `bad-request` response without dropping the connection.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(line).map_err(|e| ProtoError::new(format!("malformed JSON: {e}")))?;
    match str_field(&doc, "cmd")? {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "fleet-stats" => Ok(Request::FleetStats),
        "cell" => {
            let workload = str_field(&doc, "workload")?.to_string();
            let sw = bool_field(&doc, "sw")?;
            let scale = crate::serve::scale_by_name(str_field(&doc, "scale")?)
                .ok_or_else(|| ProtoError::new("bad 'scale' (want smoke or paper)"))?;
            let config = str_field(&doc, "config")?.to_string();
            Ok(Request::Cell(CellRequest {
                workload,
                sw,
                scale,
                config,
                config_fp: hex_field(&doc, "config_fp")?,
                program_fp: hex_field(&doc, "program_fp")?,
                trace_id: trace_id_field(&doc)?,
            }))
        }
        other => Err(ProtoError::new(format!("unknown cmd '{other}'"))),
    }
}

/// Renders a request as a wire line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    let mut doc = Json::obj();
    match req {
        Request::Ping => {
            doc.set("cmd", Json::Str("ping".to_string()));
        }
        Request::Stats => {
            doc.set("cmd", Json::Str("stats".to_string()));
        }
        Request::FleetStats => {
            doc.set("cmd", Json::Str("fleet-stats".to_string()));
        }
        Request::Cell(cell) => {
            doc.set("cmd", Json::Str("cell".to_string()));
            doc.set("workload", Json::Str(cell.workload.clone()));
            doc.set("sw", Json::Bool(cell.sw));
            doc.set("scale", Json::Str(crate::serve::scale_name(cell.scale).to_string()));
            doc.set("config", Json::Str(cell.config.clone()));
            if let Some(fp) = cell.config_fp {
                doc.set("config_fp", Json::Str(hex(fp)));
            }
            if let Some(fp) = cell.program_fp {
                doc.set("program_fp", Json::Str(hex(fp)));
            }
            if let Some(id) = &cell.trace_id {
                doc.set("trace_id", Json::Str(id.clone()));
            }
        }
    }
    doc.to_string()
}

/// Renders a response as a wire line (no trailing newline).
pub fn render_response(resp: &Response) -> String {
    let mut doc = Json::obj();
    match resp {
        Response::Pong => {
            doc.set("ok", Json::Bool(true));
            doc.set("pong", Json::Bool(true));
        }
        Response::Stats(stats) => {
            doc.set("ok", Json::Bool(true));
            doc.set("stats", stats.clone());
        }
        Response::Fleet(fleet) => {
            doc.set("ok", Json::Bool(true));
            doc.set("fleet", fleet.clone());
        }
        Response::Cell { key, cached, coalesced, trace_id, result } => {
            doc.set("ok", Json::Bool(true));
            doc.set("key", Json::Str(hex(*key)));
            doc.set("cached", Json::Bool(*cached));
            doc.set("coalesced", Json::Bool(*coalesced));
            if let Some(id) = trace_id {
                doc.set("trace_id", Json::Str(id.clone()));
            }
            doc.set("result", result.clone());
        }
        Response::Error { kind, message, trace_id } => {
            doc.set("ok", Json::Bool(false));
            doc.set("kind", Json::Str(kind.token().to_string()));
            doc.set("error", Json::Str(message.clone()));
            if let Some(id) = trace_id {
                doc.set("trace_id", Json::Str(id.clone()));
            }
        }
    }
    doc.to_string()
}

/// Parses one response line.
///
/// # Errors
///
/// [`ProtoError`] when the line is not a well-formed response.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let doc = json::parse(line).map_err(|e| ProtoError::new(format!("malformed JSON: {e}")))?;
    match doc.get("ok") {
        Some(Json::Bool(true)) => {
            if doc.get("pong").is_some() {
                return Ok(Response::Pong);
            }
            if let Some(stats) = doc.get("stats") {
                return Ok(Response::Stats(stats.clone()));
            }
            if let Some(fleet) = doc.get("fleet") {
                return Ok(Response::Fleet(fleet.clone()));
            }
            let key = hex_field(&doc, "key")?
                .ok_or_else(|| ProtoError::new("missing 'key' field"))?;
            let result = doc
                .get("result")
                .cloned()
                .ok_or_else(|| ProtoError::new("missing 'result' field"))?;
            Ok(Response::Cell {
                key,
                cached: bool_field(&doc, "cached")?,
                coalesced: bool_field(&doc, "coalesced")?,
                trace_id: trace_id_field(&doc)?,
                result,
            })
        }
        Some(Json::Bool(false)) => {
            let kind = ErrorKind::from_token(str_field(&doc, "kind")?)
                .ok_or_else(|| ProtoError::new("unknown error 'kind'"))?;
            Ok(Response::Error {
                kind,
                message: str_field(&doc, "error")?.to_string(),
                trace_id: trace_id_field(&doc)?,
            })
        }
        _ => Err(ProtoError::new("missing or non-boolean 'ok' field")),
    }
}

/// What one [`read_line`] attempt produced.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete LF-terminated line (the terminator stripped).
    Line(String),
    /// The peer closed the stream.
    Eof,
    /// The read timed out with no complete line; the caller decides
    /// whether the idle budget or a shutdown flag says to stop.
    Timeout,
    /// The peer exceeded [`MAX_LINE_BYTES`] without a newline, or sent
    /// bytes that are not UTF-8 — the connection should be dropped.
    Poison(ProtoError),
    /// A hard I/O error.
    Io(std::io::Error),
}

/// Reads until `pending` holds a complete line, the stream ends, the read
/// times out, or the line-length cap trips. `pending` carries partial
/// data across calls, so a timeout never loses bytes.
pub fn read_line(stream: &mut impl Read, pending: &mut Vec<u8>) -> LineEvent {
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let rest = pending.split_off(pos + 1);
            let mut line = std::mem::replace(pending, rest);
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => LineEvent::Line(s),
                Err(_) => LineEvent::Poison(ProtoError::new("line is not valid UTF-8")),
            };
        }
        if pending.len() > MAX_LINE_BYTES {
            return LineEvent::Poison(ProtoError::new(format!(
                "line longer than {MAX_LINE_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return LineEvent::Eof,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineEvent::Timeout
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return LineEvent::Io(e),
        }
    }
}

/// Writes one protocol line — `line` plus its LF terminator — with a
/// single `write_all`, then flushes. Writing the terminator separately
/// sends it in a segment of its own, which Nagle's algorithm holds back
/// until the peer's delayed ACK fires: about 40 ms added to every RPC
/// over TCP.
///
/// # Errors
///
/// The stream's write or flush error.
pub fn write_line(conn: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    conn.write_all(&framed)?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// One line is one write: the terminator rides with the payload.
    #[test]
    fn write_line_is_one_write_per_line() {
        let mut w = CountingWriter::default();
        write_line(&mut w, "{\"cmd\":\"ping\"}").unwrap();
        write_line(&mut w, "").unwrap();
        assert_eq!(w.writes, vec![b"{\"cmd\":\"ping\"}\n".to_vec(), b"\n".to_vec()]);
        assert_eq!(w.flushes, 2);
    }

    fn cell() -> CellRequest {
        CellRequest {
            workload: "compress".to_string(),
            sw: true,
            scale: Scale::Smoke,
            config: "fac".to_string(),
            config_fp: Some(0xdead_beef),
            program_fp: None,
            trace_id: Some("sweep-1.cell:3".to_string()),
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [Request::Ping, Request::Stats, Request::FleetStats, Request::Cell(cell())] {
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut result = Json::obj();
        result.set("cycles", Json::U64(123));
        for resp in [
            Response::Pong,
            Response::Stats(Json::obj()),
            Response::Fleet(Json::obj()),
            Response::Cell {
                key: 7,
                cached: true,
                coalesced: false,
                trace_id: Some("abc123".to_string()),
                result: result.clone(),
            },
            Response::Cell { key: 7, cached: false, coalesced: true, trace_id: None, result },
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "shed".to_string(),
                trace_id: None,
            },
            Response::Error {
                kind: ErrorKind::Sim,
                message: "boom".to_string(),
                trace_id: Some("sweep.x.y".to_string()),
            },
        ] {
            let line = render_response(&resp);
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"cell"}"#,
            r#"{"cmd":"cell","workload":"compress","sw":"yes","scale":"smoke","config":"fac"}"#,
            r#"{"cmd":"cell","workload":"compress","sw":true,"scale":"galaxy","config":"fac"}"#,
            r#"{"cmd":"cell","workload":"compress","sw":true,"scale":"smoke","config":"fac","config_fp":"feed"}"#,
            // Trace ids that could smuggle structure into log lines.
            r#"{"cmd":"cell","workload":"compress","sw":true,"scale":"smoke","config":"fac","trace_id":""}"#,
            r#"{"cmd":"cell","workload":"compress","sw":true,"scale":"smoke","config":"fac","trace_id":"a b"}"#,
            r#"{"cmd":"cell","workload":"compress","sw":true,"scale":"smoke","config":"fac","trace_id":7}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn trace_id_grammar() {
        assert!(valid_trace_id("client-1234.7:0xdeadbeef"));
        assert!(valid_trace_id("a"));
        assert!(valid_trace_id(&"x".repeat(64)));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(65)));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("quote\"inject"));
        assert!(!valid_trace_id("new\nline"));
    }

    #[test]
    fn read_line_splits_frames_and_keeps_partials() {
        let mut pending = Vec::new();
        let mut stream: &[u8] = b"one\ntwo\r\nthr";
        match read_line(&mut stream, &mut pending) {
            LineEvent::Line(s) => assert_eq!(s, "one"),
            other => panic!("{other:?}"),
        }
        match read_line(&mut stream, &mut pending) {
            LineEvent::Line(s) => assert_eq!(s, "two"),
            other => panic!("{other:?}"),
        }
        // The trailing partial line is not a line; the stream ends.
        match read_line(&mut stream, &mut pending) {
            LineEvent::Eof => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(pending, b"thr");
    }

    #[test]
    fn read_line_caps_unterminated_floods() {
        let flood = vec![b'x'; MAX_LINE_BYTES + 4096];
        let mut stream: &[u8] = &flood;
        let mut pending = Vec::new();
        match read_line(&mut stream, &mut pending) {
            LineEvent::Poison(e) => assert!(e.message.contains("longer than"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    /// A stream that yields its bytes in arbitrary pre-cut chunks, with
    /// timeouts interleaved — the worst case the chaos proxy (and a slow
    /// network) can legally produce.
    struct ChunkedStream {
        /// `Some(bytes)` is delivered (possibly split across several
        /// `read` calls); `None` is a read timeout.
        chunks: Vec<Option<Vec<u8>>>,
        idx: usize,
        off: usize,
    }

    impl Read for ChunkedStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.chunks.get(self.idx) {
                    None => return Ok(0),
                    Some(None) => {
                        self.idx += 1;
                        return Err(std::io::ErrorKind::WouldBlock.into());
                    }
                    Some(Some(bytes)) => {
                        if self.off >= bytes.len() {
                            self.idx += 1;
                            self.off = 0;
                            continue;
                        }
                        let n = buf.len().min(bytes.len() - self.off);
                        buf[..n].copy_from_slice(&bytes[self.off..self.off + n]);
                        self.off += n;
                        return Ok(n);
                    }
                }
            }
        }
    }

    use fac_core::rng::SplitMix64;
    use proptest::prelude::*;

    proptest! {
        /// The framing state machine reassembles exactly the lines that
        /// were sent, no matter how the byte stream is cut into chunks or
        /// how many timeouts land between them — and a trailing partial
        /// line survives in `pending` instead of being lost or invented.
        #[test]
        fn framing_survives_arbitrary_chunking(seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            const CHARS: &[u8] = b"abcXYZ019 {}:\",/._-";
            let text = |rng: &mut SplitMix64, max: u64| -> String {
                let len = rng.below(max) as usize;
                (0..len).map(|_| *rng.pick(CHARS) as char).collect()
            };

            let lines: Vec<String> =
                (0..rng.below(8)).map(|_| text(&mut rng, 40)).collect();
            let mut wire = Vec::new();
            for line in &lines {
                wire.extend_from_slice(line.as_bytes());
                wire.extend_from_slice(if rng.chance(1, 4) { b"\r\n".as_slice() } else { b"\n" });
            }
            // Sometimes the stream ends mid-line (chaos truncation).
            let tail = if rng.chance(1, 3) { text(&mut rng, 20) } else { String::new() };
            wire.extend_from_slice(tail.as_bytes());

            // Cut the wire into chunks of 1..=5 bytes with timeouts between.
            let mut chunks = Vec::new();
            let mut at = 0;
            while at < wire.len() {
                if rng.chance(1, 5) {
                    chunks.push(None);
                }
                let n = (1 + rng.below(5) as usize).min(wire.len() - at);
                chunks.push(Some(wire[at..at + n].to_vec()));
                at += n;
            }
            if rng.chance(1, 4) {
                chunks.push(None);
            }

            let mut stream = ChunkedStream { chunks, idx: 0, off: 0 };
            let mut pending = Vec::new();
            let mut got = Vec::new();
            loop {
                match read_line(&mut stream, &mut pending) {
                    LineEvent::Line(s) => got.push(s),
                    LineEvent::Timeout => {}
                    LineEvent::Eof => break,
                    other => prop_assert!(false, "unexpected event {other:?}"),
                }
            }
            prop_assert_eq!(got, lines);
            prop_assert_eq!(pending, tail.into_bytes());
        }
    }
}
