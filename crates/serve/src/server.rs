//! The blocking serving loop: protocol lines in, responses out.
//!
//! One connection drives one [`ServeEngine`]. Every request line gets an
//! immediate `ack` (admitted) or `shed` (refused) response; completions
//! surface as `ok` lines as the simulated clock advances past them —
//! possibly several per input line, possibly none. At end of input the
//! engine drains, the remaining `ok` lines flush, and a final `done`
//! summary closes the stream. Malformed lines get an `err` response and
//! are otherwise ignored, so one bad client line cannot wedge the run.

use crate::engine::{Admission, ServeEngine};
use crate::proto;
use pcm_types::Ps;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;

/// Pump one request stream through the engine, writing responses to
/// `out`. Returns the `(served, shed)` totals from the engine.
pub fn serve_connection<R: BufRead, W: Write>(
    engine: &mut ServeEngine,
    input: R,
    out: &mut W,
) -> io::Result<(u64, u64)> {
    // Engine-assigned id → client-chosen wire id, for `ok` responses.
    let mut wire_ids: BTreeMap<u64, u64> = BTreeMap::new();
    fn respond<W: Write>(
        engine: &mut ServeEngine,
        wire_ids: &mut BTreeMap<u64, u64>,
        out: &mut W,
    ) -> io::Result<()> {
        for c in engine.take_completions() {
            if let Some(wire) = wire_ids.remove(&c.id) {
                writeln!(out, "{}", proto::format_ok(wire, c.latency.as_ps()))?;
            }
        }
        Ok(())
    }
    for line in input.lines() {
        let line = line?;
        let req = match proto::parse_request(&line) {
            Ok(None) => continue,
            Ok(Some(r)) => r,
            Err(e) => {
                writeln!(out, "err {}", e.msg)?;
                continue;
            }
        };
        match engine.submit(req.tenant, req.kind, req.addr, Ps::from_ns(req.at_ns)) {
            Ok(Admission::Accepted { id }) => {
                wire_ids.insert(id, req.id);
                writeln!(out, "{}", proto::format_ack(req.id))?;
            }
            Ok(Admission::Shed { depth }) => {
                writeln!(out, "{}", proto::format_shed(req.id, depth))?;
            }
            Err(e) => writeln!(out, "err {e}")?,
        }
        respond(engine, &mut wire_ids, out)?;
    }
    engine
        .drain()
        .map_err(|e| io::Error::other(e.to_string()))?;
    respond(engine, &mut wire_ids, out)?;
    let s = engine.stats();
    writeln!(
        out,
        "{}",
        proto::format_done(s.served, s.shed, s.peak_write_depth)
    )?;
    out.flush()?;
    Ok((s.served, s.shed))
}

/// Bind `addr` (e.g. `127.0.0.1:0`), announce the bound address on
/// stdout as `listening <addr>`, serve exactly one connection, then
/// return. One-shot by design: the engine's simulated clock belongs to
/// one request stream, and CI smoke tests want a process that exits.
pub fn listen_once(addr: &str, engine: &mut ServeEngine) -> io::Result<(u64, u64)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let mut stdout = io::stdout();
    writeln!(stdout, "listening {bound}")?;
    stdout.flush()?;
    let (stream, _) = listener.accept()?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    serve_connection(engine, reader, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::load::{OpenLoop, OpenLoopConfig};
    use crate::proto::format_request;
    use pcm_telemetry::NullSink;

    fn engine(shed_watermark: usize) -> ServeEngine {
        let cfg = ServeConfig {
            shed_watermark,
            ..ServeConfig::default()
        };
        ServeEngine::new(cfg, Box::new(NullSink)).unwrap()
    }

    #[test]
    fn connection_acks_serves_and_summarizes() {
        let mut input = String::new();
        for r in OpenLoop::new(OpenLoopConfig {
            requests: 64,
            ..OpenLoopConfig::default()
        }) {
            input.push_str(&format_request(&r));
            input.push('\n');
        }
        let mut out = Vec::new();
        let mut e = engine(usize::MAX);
        let (served, shed) = serve_connection(&mut e, input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 64);
        assert_eq!(shed, 0);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("ack ")).count(), 64);
        assert_eq!(text.lines().filter(|l| l.starts_with("ok ")).count(), 64);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("done served=64 shed=0"), "got `{last}`");
    }

    #[test]
    fn bad_lines_get_err_responses_and_are_skipped() {
        let input = "req 0 0 r 64 0\nnonsense\nreq 1 0 r 128 50\n";
        let mut out = Vec::new();
        let (served, _) =
            serve_connection(&mut engine(usize::MAX), input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("err ")).count(), 1);
    }

    #[test]
    fn over_range_arrival_gets_err_and_the_stream_goes_on() {
        let input = "req 1 0 r 0 18446744073709551615\nreq 2 0 r 64 10\n";
        let mut out = Vec::new();
        let (served, _) =
            serve_connection(&mut engine(usize::MAX), input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("err ") && lines[0].contains("at-ns"),
            "{text}"
        );
        assert_eq!(lines[1], "ack 2");
        assert!(lines.iter().any(|l| l.starts_with("ok 2 ")), "{text}");
        assert!(!lines.iter().any(|l| l.starts_with("ok 1 ")), "{text}");
    }

    #[test]
    fn saturating_stream_sheds_on_the_wire() {
        // Same-instant writes to one bank with a tiny watermark.
        let mut input = String::new();
        for i in 0..128u64 {
            input.push_str(&format!("req {i} 0 w {} 0\n", i * 64));
        }
        let mut out = Vec::new();
        let (served, shed) = serve_connection(&mut engine(2), input.as_bytes(), &mut out).unwrap();
        assert!(shed > 0, "tiny watermark must shed");
        assert_eq!(served + shed, 128);
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().any(|l| l.starts_with("shed ")));
    }

    #[test]
    fn loopback_socket_round_trip() {
        use std::io::Read;
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let bound = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut e = engine(usize::MAX);
            serve_connection(&mut e, reader, &mut writer).unwrap()
        });
        let mut client = TcpStream::connect(bound).unwrap();
        client
            .write_all(b"req 0 1 r 4096 0\nreq 1 1 w 8192 100\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        BufReader::new(client).read_to_string(&mut reply).unwrap();
        let (served, shed) = server.join().unwrap();
        assert_eq!((served, shed), (2, 0));
        assert!(reply.lines().any(|l| l == "ack 0"));
        assert!(reply.lines().last().unwrap().starts_with("done served=2"));
    }
}
