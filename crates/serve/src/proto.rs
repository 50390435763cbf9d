//! The line-delimited wire protocol and the socket [`RequestSource`].
//!
//! ## Grammar (one request or response per `\n`-terminated line)
//!
//! ```text
//! request   := "req" SP id SP tenant SP kind SP addr SP at-ns
//! kind      := "r" | "w"
//! id, tenant, addr, at-ns := decimal u64 / u32 (at-ns ≤ u64::MAX / 1000)
//!
//! response  := "ack" SP id                 ; admitted, completion follows
//!            | "ok"  SP id SP latency-ps   ; served (latency simulated)
//!            | "shed" SP id SP depth       ; refused (429-style)
//!            | "err" SP message            ; malformed request line
//! summary   := "done" SP "served=" n SP "shed=" n SP "peakw=" n
//! ```
//!
//! `at-ns` is the request's arrival offset in **simulated** nanoseconds
//! from the start of the connection; the server never consults the host
//! clock, so a replayed request file produces bit-identical responses.
//! Client-chosen `id`s are echoed back verbatim and need not be dense,
//! but must be unique per connection.

use pcm_memsim::{AccessKind, RequestSource, TraceOp};
use pcm_types::Ps;
use std::fmt;
use std::io::BufRead;

/// One parsed request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen request id (echoed in responses).
    pub id: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Byte address (mapped modulo capacity, line-aligned by the engine).
    pub addr: u64,
    /// Arrival offset in simulated nanoseconds.
    pub at_ns: u64,
}

/// A malformed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request line: {}", self.msg)
    }
}

impl std::error::Error for ProtoError {}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError { msg: msg.into() }
}

/// The largest `at-ns` whose picosecond time still fits a `u64`.
const MAX_AT_NS: u64 = u64::MAX / 1_000;

/// Parse one request line. Empty lines and `#` comments return `None`.
pub fn parse_request(line: &str) -> Result<Option<WireRequest>, ProtoError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("req") => {}
        Some(other) => return Err(bad(format!("unknown verb `{other}`"))),
        None => return Ok(None),
    }
    let mut field = |name: &str| {
        parts
            .next()
            .ok_or_else(|| bad(format!("missing field `{name}`")))
    };
    let id = field("id")?
        .parse::<u64>()
        .map_err(|_| bad("id must be a decimal u64"))?;
    let tenant = field("tenant")?
        .parse::<u32>()
        .map_err(|_| bad("tenant must be a decimal u32"))?;
    let kind = match field("kind")? {
        "r" => AccessKind::Read,
        "w" => AccessKind::Write,
        other => return Err(bad(format!("kind must be r|w, got `{other}`"))),
    };
    let addr = field("addr")?
        .parse::<u64>()
        .map_err(|_| bad("addr must be a decimal u64"))?;
    let at_ns = field("at-ns")?
        .parse::<u64>()
        .map_err(|_| bad("at-ns must be a decimal u64"))?;
    if at_ns > MAX_AT_NS {
        return Err(bad(format!("at-ns must be at most {MAX_AT_NS}")));
    }
    if parts.next().is_some() {
        return Err(bad("trailing fields after at-ns"));
    }
    Ok(Some(WireRequest {
        id,
        tenant,
        kind,
        addr,
        at_ns,
    }))
}

/// Render a request line (the inverse of [`parse_request`]).
pub fn format_request(r: &WireRequest) -> String {
    let k = match r.kind {
        AccessKind::Read => "r",
        AccessKind::Write => "w",
    };
    format!("req {} {} {} {} {}", r.id, r.tenant, k, r.addr, r.at_ns)
}

/// `ack <id>` — admitted.
pub fn format_ack(id: u64) -> String {
    format!("ack {id}")
}

/// `ok <id> <latency-ps>` — served.
pub fn format_ok(id: u64, latency_ps: u64) -> String {
    format!("ok {id} {latency_ps}")
}

/// `shed <id> <depth>` — refused by admission control.
pub fn format_shed(id: u64, depth: usize) -> String {
    format!("shed {id} {depth}")
}

/// `done served=<n> shed=<n> peakw=<n>` — end-of-connection summary.
pub fn format_done(served: u64, shed: u64, peak_write_depth: usize) -> String {
    format!("done served={served} shed={shed} peakw={peak_write_depth}")
}

/// A [`RequestSource`] that pulls protocol lines off any [`BufRead`] — a
/// TCP socket, stdin, or a request file — and feeds them to the
/// *simulator* as a single-core op stream (the third source family next
/// to trace files and synthetic generators).
///
/// Arrival offsets become instruction gaps at the given core frequency,
/// so replaying the stream through [`pcm_memsim::System`] reproduces the
/// stream's pacing in simulated time. Malformed lines end the stream
/// (the error is retrievable via [`LineSource::error`]).
pub struct LineSource<R: BufRead> {
    input: R,
    freq_mhz: u64,
    last_ns: u64,
    error: Option<ProtoError>,
    finished: bool,
}

impl<R: BufRead> LineSource<R> {
    /// Wrap a line reader; gaps are cycles at `freq_mhz`.
    pub fn new(input: R, freq_mhz: u64) -> Self {
        LineSource {
            input,
            freq_mhz,
            last_ns: 0,
            error: None,
            finished: false,
        }
    }

    /// The parse error that ended the stream, if any.
    pub fn error(&self) -> Option<&ProtoError> {
        self.error.as_ref()
    }
}

impl<R: BufRead + Send> RequestSource for LineSource<R> {
    fn next(&mut self, core: usize) -> Option<TraceOp> {
        if core != 0 || self.finished {
            return None;
        }
        loop {
            let mut line = String::new();
            match self.input.read_line(&mut line) {
                Ok(0) => {
                    self.finished = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.error = Some(bad(format!("read failed: {e}")));
                    self.finished = true;
                    return None;
                }
            }
            match parse_request(&line) {
                Ok(None) => continue,
                Ok(Some(r)) => {
                    let gap_ns = r.at_ns.saturating_sub(self.last_ns);
                    self.last_ns = self.last_ns.max(r.at_ns);
                    let gap = Ps::from_ns(gap_ns).cycles_at(self.freq_mhz).0;
                    return Some(TraceOp {
                        gap: gap.min(u32::MAX as u64) as u32,
                        kind: r.kind,
                        addr: r.addr,
                    });
                }
                Err(e) => {
                    self.error = Some(e);
                    self.finished = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_lines_round_trip() {
        let r = WireRequest {
            id: 7,
            tenant: 2,
            kind: AccessKind::Write,
            addr: 123_456,
            at_ns: 987,
        };
        let line = format_request(&r);
        assert_eq!(line, "req 7 2 w 123456 987");
        assert_eq!(parse_request(&line).unwrap(), Some(r));
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("  # warmup\n").unwrap(), None);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_request("req 1 0 x 64 0").is_err());
        assert!(parse_request("req 1 0 r 64").is_err());
        assert!(parse_request("req 1 0 r 64 0 extra").is_err());
        assert!(parse_request("get 1 0 r 64 0").is_err());
        assert!(parse_request("req -1 0 r 64 0").is_err());
        assert!(parse_request("req 1 0 r 0 18446744073709551615").is_err());
        assert!(parse_request(&format!("req 1 0 r 0 {}", MAX_AT_NS + 1)).is_err());
        assert!(parse_request(&format!("req 1 0 r 0 {MAX_AT_NS}")).is_ok());
    }

    #[test]
    fn responses_are_byte_stable() {
        assert_eq!(format_ack(3), "ack 3");
        assert_eq!(format_ok(3, 431_000), "ok 3 431000");
        assert_eq!(format_shed(4, 32), "shed 4 32");
        assert_eq!(format_done(10, 2, 31), "done served=10 shed=2 peakw=31");
    }

    #[test]
    fn line_source_feeds_core_zero_with_gap_cycles() {
        let text = "req 0 0 r 64 0\n# comment\nreq 1 0 w 128 10\nreq 2 0 r 192 10\n";
        let mut src = LineSource::new(BufReader::new(text.as_bytes()), 2_000);
        assert!(src.next(1).is_none(), "only core 0 carries the stream");
        let a = src.next(0).unwrap();
        assert_eq!((a.gap, a.kind, a.addr), (0, AccessKind::Read, 64));
        let b = src.next(0).unwrap();
        assert_eq!(b.gap, 20, "10 ns at 2 GHz");
        assert_eq!(b.kind, AccessKind::Write);
        let c = src.next(0).unwrap();
        assert_eq!(c.gap, 0, "same timestamp, no gap");
        assert!(src.next(0).is_none());
        assert!(src.error().is_none());
    }

    #[test]
    fn line_source_stops_at_parse_error() {
        let text = "req 0 0 r 64 0\nbogus line\nreq 1 0 r 64 5\n";
        let mut src = LineSource::new(BufReader::new(text.as_bytes()), 2_000);
        assert!(src.next(0).is_some());
        assert!(src.next(0).is_none());
        assert!(src.error().is_some());
    }
}
