//! `pcm-serve` — request-serving front end for the Tetris Write simulator.
//!
//! ```text
//! pcm-serve listen [--addr HOST:PORT] [ENGINE]
//! pcm-serve stdin [ENGINE]
//! pcm-serve open-loop [ENGINE] [LOAD] [--connect HOST:PORT]
//! pcm-serve closed-loop [ENGINE] [--users N] [--rpu N] [--think-ns N] [LOAD]
//! pcm-serve report TRACE.jsonl
//!
//! ENGINE: --ranks N | --scheme dcw|fnw|two-stage|three-stage|tetris|preset
//!         --shed-watermark N | --telemetry OUT.jsonl
//! LOAD:   --requests N | --tenants N | --mean-gap-ns N | --burstiness F
//!         --write-frac F | --hot-frac F | --seed N
//! ```
//!
//! A flag the subcommand does not read is a usage error (exit 2).
//!
//! `listen` binds a loopback port (printing `listening <addr>` on stdout
//! so scripts can discover the port), serves exactly one connection, and
//! exits. `open-loop --connect` is the matching client: it streams a
//! generated request file over the socket and relays the responses.
//! Without `--connect`, `open-loop` and `closed-loop` drive an in-process
//! engine. `report` renders per-tenant SLO percentiles from a JSONL
//! telemetry file produced via `--telemetry`.

use pcm_schemes::SchemeSelect;
use pcm_serve::engine::{ServeConfig, ServeEngine};
use pcm_serve::load::{run_open_loop, ClosedLoop, ClosedLoopConfig, OpenLoop, OpenLoopConfig};
use pcm_serve::proto::format_request;
use pcm_serve::report::SloReport;
use pcm_serve::server::{listen_once, serve_connection};
use pcm_telemetry::{read_events, JsonlSink, NullSink, Telemetry, TraceDetail};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::str::FromStr;

/// Print to stdout, exiting quietly if the consumer closed the pipe.
fn out(text: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{text}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

const USAGE: &str = "usage: pcm-serve <listen|stdin|open-loop|closed-loop|report> [flags]
  listen      [--addr HOST:PORT] [engine flags]     serve one TCP connection
  stdin       [engine flags]                        serve requests from stdin
  open-loop   [engine+load flags] [--connect ADDR]  generated arrival stream
  closed-loop [engine flags] [--users N --rpu N --think-ns N]
              [--tenants N --write-frac F --seed N]
  report      TRACE.jsonl                           per-tenant SLO table
engine flags: --ranks N --scheme NAME --shed-watermark N --telemetry OUT.jsonl
load flags:   --requests N --tenants N --mean-gap-ns N --burstiness F
              --write-frac F --hot-frac F --seed N";

const ENGINE_FLAGS: &[&str] = &["--ranks", "--scheme", "--shed-watermark", "--telemetry"];
const LOAD_FLAGS: &[&str] = &[
    "--requests",
    "--tenants",
    "--mean-gap-ns",
    "--burstiness",
    "--write-frac",
    "--hot-frac",
    "--seed",
];
const CLOSED_LOOP_FLAGS: &[&str] = &[
    "--users",
    "--rpu",
    "--think-ns",
    "--tenants",
    "--write-frac",
    "--seed",
];

fn fail(msg: String) -> ! {
    eprintln!("pcm-serve: {msg}");
    std::process::exit(2);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("pcm-serve: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// A subcommand's arguments: `--flag value` pairs plus positionals.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Accept `args` if every `--flag` in it is one of `known`.
    fn parse(args: Vec<String>, known: &[&[&str]]) -> Flags {
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a.starts_with("--") {
                if !known.iter().any(|set| set.contains(&a.as_str())) {
                    usage_error(&format!("unknown flag `{a}`"));
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        Flags { args }
    }

    fn get(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        match self.args.get(i + 1) {
            Some(v) => Some(v),
            None => usage_error(&format!("{name} needs a value")),
        }
    }

    fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{name}: cannot parse `{v}`"))),
            None => default,
        }
    }

    /// First argument that is neither a flag nor a flag's value.
    fn positional(&self) -> Option<&str> {
        let mut i = 0;
        while i < self.args.len() {
            let a = &self.args[i];
            if a.starts_with("--") {
                i += 2;
            } else {
                return Some(a);
            }
        }
        None
    }
}

fn serve_config(f: &Flags) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if let Some(r) = f.get("--ranks") {
        cfg.system.mem.org.ranks = r
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("--ranks: cannot parse `{r}`")));
    }
    if let Some(s) = f.get("--scheme") {
        cfg.system.mem.select =
            SchemeSelect::from_str(s).unwrap_or_else(|e| usage_error(&format!("--scheme: {e}")));
    }
    cfg.system
        .validate()
        .unwrap_or_else(|e| fail(format!("invalid system configuration: {e}")));
    cfg.shed_watermark = f.num("--shed-watermark", cfg.system.controller.write_queue_cap);
    cfg
}

fn telemetry(f: &Flags) -> Box<dyn Telemetry> {
    match f.get("--telemetry") {
        Some(p) => Box::new(
            JsonlSink::create(std::path::Path::new(p), TraceDetail::Fine)
                .unwrap_or_else(|e| fail(format!("cannot create {p}: {e}"))),
        ),
        None => Box::new(NullSink),
    }
}

fn engine(f: &Flags) -> ServeEngine {
    ServeEngine::new(serve_config(f), telemetry(f))
        .unwrap_or_else(|e| fail(format!("cannot build engine: {e}")))
}

fn open_loop_config(f: &Flags) -> OpenLoopConfig {
    let d = OpenLoopConfig::default();
    OpenLoopConfig {
        seed: f.num("--seed", d.seed),
        requests: f.num("--requests", d.requests),
        tenants: f.num("--tenants", d.tenants),
        mean_gap_ns: f.num("--mean-gap-ns", d.mean_gap_ns),
        burstiness: f.num("--burstiness", d.burstiness),
        write_frac: f.num("--write-frac", d.write_frac),
        hot_frac: f.num("--hot-frac", d.hot_frac),
        ..d
    }
}

fn summary_line(e: &ServeEngine) -> String {
    let s = e.stats();
    format!(
        "done served={} shed={} peakw={} span_ns={}",
        s.served,
        s.shed,
        s.peak_write_depth,
        e.now().as_ns()
    )
}

fn cmd_listen(f: &Flags) {
    let addr = f.get("--addr").unwrap_or("127.0.0.1:0").to_string();
    let mut e = engine(f);
    listen_once(&addr, &mut e).unwrap_or_else(|err| fail(format!("serve failed: {err}")));
    eprintln!("{}", summary_line(&e));
}

fn cmd_stdin(f: &Flags) {
    let mut e = engine(f);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    serve_connection(&mut e, stdin.lock(), &mut stdout)
        .unwrap_or_else(|err| fail(format!("serve failed: {err}")));
}

/// Stream a generated open-loop request file to a remote `listen`
/// instance and relay its responses. The writer runs on its own thread:
/// with ~100k requests in flight the response stream outgrows the socket
/// buffer long before the request stream ends, and a single-threaded
/// write-all-then-read client would deadlock against the server.
fn cmd_open_loop_connect(addr: &str, gen: OpenLoopConfig) {
    let stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    let write_half = stream
        .try_clone()
        .unwrap_or_else(|e| fail(format!("clone stream: {e}")));
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(write_half);
        for r in OpenLoop::new(gen) {
            if writeln!(w, "{}", format_request(&r)).is_err() {
                return;
            }
        }
        let _ = w.flush();
        // Half-close tells the server the request stream is complete.
        if let Ok(s) = w.into_inner() {
            let _ = s.shutdown(std::net::Shutdown::Write);
        }
    });
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut done = String::new();
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| fail(format!("read response: {e}")));
        if line.starts_with("ok ") {
            served += 1;
        } else if line.starts_with("shed ") {
            shed += 1;
        } else if line.starts_with("done ") {
            done = line;
        } else if line.starts_with("err ") {
            fail(format!("server rejected a request: {line}"));
        }
    }
    writer
        .join()
        .unwrap_or_else(|_| fail("writer thread panicked".to_string()));
    if done.is_empty() {
        fail("connection closed before the done summary".to_string());
    }
    outln!("{done}");
    outln!("client saw served={served} shed={shed}");
}

fn cmd_open_loop(f: &Flags) {
    let gen = open_loop_config(f);
    if let Some(addr) = f.get("--connect") {
        cmd_open_loop_connect(addr, gen);
        return;
    }
    let mut e = engine(f);
    run_open_loop(&mut e, gen).unwrap_or_else(|err| fail(format!("open-loop run: {err}")));
    outln!("{}", summary_line(&e));
}

fn cmd_closed_loop(f: &Flags) {
    let d = ClosedLoopConfig::default();
    let load = ClosedLoopConfig {
        seed: f.num("--seed", d.seed),
        users: f.num("--users", d.users),
        requests_per_user: f.num("--rpu", d.requests_per_user),
        think_ns: f.num("--think-ns", d.think_ns),
        tenants: f.num("--tenants", d.tenants),
        write_frac: f.num("--write-frac", d.write_frac),
        ..d
    };
    let mut e = engine(f);
    let stats = ClosedLoop::new(load)
        .run(&mut e)
        .unwrap_or_else(|err| fail(format!("closed-loop run: {err}")));
    outln!("{}", summary_line(&e));
    outln!(
        "closed-loop completed={} shed_retries={}",
        stats.completed,
        stats.shed_retries
    );
}

fn cmd_report(path: &str) {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail(format!("cannot open {path}: {e}")));
    let events = read_events(BufReader::new(file))
        .unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")));
    outln!("{}", SloReport::from_events(&events).render());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("missing subcommand");
    }
    let cmd = args.remove(0);
    let flags = |known: &[&[&str]]| Flags::parse(args.clone(), known);
    match cmd.as_str() {
        "listen" => cmd_listen(&flags(&[ENGINE_FLAGS, &["--addr"]])),
        "stdin" => cmd_stdin(&flags(&[ENGINE_FLAGS])),
        "open-loop" => cmd_open_loop(&flags(&[ENGINE_FLAGS, LOAD_FLAGS, &["--connect"]])),
        "closed-loop" => cmd_closed_loop(&flags(&[ENGINE_FLAGS, CLOSED_LOOP_FLAGS])),
        "report" => match flags(&[]).positional() {
            Some(path) => cmd_report(path),
            None => usage_error("report needs a TRACE.jsonl argument"),
        },
        "--help" | "-h" | "help" => outln!("{USAGE}"),
        other => usage_error(&format!("unknown subcommand `{other}`")),
    }
}
