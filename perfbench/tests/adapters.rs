//! The benchmark's timing adapters and traced loops must not perturb
//! what they measure, and its output checks must catch broken output.

use pcm_memsim::PcmMainMemory;
use pcm_schemes::{WriteCtx, WriteScheme};
use pcm_serve::serve_connection;
use pcm_telemetry::{NullSink, TraceDetail};
use pcm_types::LineData;
use perfbench::batch::{
    instantiate_scheme, timed_memory, BatchWorkload, CANNEAL_TETRIS, VIPS_TETRIS,
};
use perfbench::layers::{Span, TimedScheme};
use perfbench::serve::{
    check_responses, traced_serve_loop, ServeSpans, ServeWorkload, SERVE_OPENLOOP,
};
use std::collections::HashMap;
use std::sync::Arc;

fn small(w: BatchWorkload) -> BatchWorkload {
    BatchWorkload {
        instructions_per_core: 200_000,
        ..w
    }
}

#[test]
fn timed_runs_match_the_untimed_run() {
    for w in [small(VIPS_TETRIS), small(CANNEAL_TETRIS)] {
        let (_, plain) = w.run_plain(7).unwrap();
        let traced = w.run_traced(7).unwrap();
        assert!(
            traced.out.same_as(&plain),
            "{}: adapters changed the SimResult",
            w.name
        );
        assert_eq!(
            traced.content.0, plain.result.mem_writes,
            "one generate per write"
        );
        assert!(
            traced.gen.0 >= plain.ops(),
            "every op came through the source"
        );
        let counted = w.run_counted(7, TraceDetail::Fine).unwrap();
        assert!(
            counted.out.same_as(&plain),
            "{}: telemetry changed the SimResult",
            w.name
        );
        assert!(counted.events > 0);
        assert_eq!(
            plain.ops(),
            w.offered_ops(7),
            "every offered op is serviced"
        );
    }
}

#[test]
fn timed_scheme_plans_match_the_bare_scheme() {
    let w = small(VIPS_TETRIS);
    let cfg = w.system_config();
    let stream = w.write_stream(3);
    assert!(stream.len() > 1_000);
    let bare = instantiate_scheme(&cfg);
    let span = Span::shared();
    let timed = TimedScheme::new(instantiate_scheme(&cfg), Arc::clone(&span));
    assert_eq!(timed.name(), bare.name());
    assert_eq!(timed.uses_flip_bits(), bare.uses_flip_bits());

    let mut logical: HashMap<u64, LineData> = HashMap::new();
    let mut olds = Vec::new();
    for (addr, new) in &stream {
        let zero = LineData::zeroed(new.len());
        olds.push(logical.insert(*addr, *new).unwrap_or(zero));
    }
    let ctxs: Vec<WriteCtx<'_>> = stream
        .iter()
        .zip(&olds)
        .map(|((_, new), old)| WriteCtx {
            old_stored: old,
            old_flips: 0,
            new_logical: new,
            cfg: &cfg.mem,
        })
        .collect();
    for ctx in &ctxs {
        assert_eq!(
            format!("{:?}", timed.plan(ctx)),
            format!("{:?}", bare.plan(ctx))
        );
    }
    for batch in ctxs.chunks(4).take(256) {
        assert_eq!(
            format!("{:?}", timed.plan_batched(batch)),
            format!("{:?}", bare.plan_batched(batch))
        );
    }
    assert!(span.calls() >= ctxs.len() as u64);

    // Through the memory, as the replay drives it.
    let mut a = PcmMainMemory::new(cfg.mem, instantiate_scheme(&cfg)).unwrap();
    let mut b = timed_memory(&cfg, Span::shared()).unwrap();
    for w in &stream {
        let one = std::slice::from_ref(w);
        assert_eq!(
            format!("{:?}", a.write_lines_batch(one).unwrap()),
            format!("{:?}", b.write_lines_batch(one).unwrap())
        );
    }
    assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
}

fn serve_workload(requests: u64, mean_gap_ns: u64) -> ServeWorkload {
    ServeWorkload {
        requests,
        mean_gap_ns,
        ..SERVE_OPENLOOP
    }
}

#[test]
fn traced_serve_loop_is_byte_identical_to_serve_connection() {
    // The second mix arrives fast enough to be shed; the extra lines
    // exercise the comment, blank and `err` paths.
    for w in [
        serve_workload(3_000, SERVE_OPENLOOP.mean_gap_ns),
        serve_workload(3_000, 5),
    ] {
        let mut input = w.input(11);
        input
            .bytes
            .extend_from_slice(b"# comment\n\nbogus line\nreq 1 2\n");
        let (_, mut engine) = w.engine(Box::new(NullSink)).unwrap();
        let mut expected = Vec::new();
        serve_connection(&mut engine, &input.bytes[..], &mut expected).unwrap();
        let expected_text = String::from_utf8(expected.clone()).unwrap();
        assert_eq!(expected_text.contains("\nshed "), w.mean_gap_ns == 5);

        let (_, mut engine) = w.engine(Box::new(NullSink)).unwrap();
        let mut got = Vec::new();
        let mut spans = ServeSpans::default();
        traced_serve_loop(&mut engine, &input.bytes[..], &mut got, &mut spans).unwrap();
        assert_eq!(String::from_utf8(got).unwrap(), expected_text);
        assert_eq!(spans.submit_ns.len(), 3_000);

        let traced = w.run_traced(&w.input(11)).unwrap();
        let (_, plain) = w.run_plain(&w.input(11)).unwrap();
        assert_eq!(traced.out, plain);
    }
}

#[test]
fn response_checks_catch_broken_streams() {
    let w = serve_workload(2_000, SERVE_OPENLOOP.mean_gap_ns);
    let input = w.input(5);
    let (_, out) = w.run_plain(&input).unwrap();
    let summary = check_responses(&input, &out).unwrap();
    assert_eq!(summary.served + summary.shed, 2_000);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let ack = lines.iter().position(|l| l.starts_with("ack ")).unwrap();
    let ok = lines.iter().position(|l| l.starts_with("ok ")).unwrap();
    let broken = [
        lines[..lines.len() - 1].join("\n"),
        [&lines[..=ack], &lines[ack..]].concat().join("\n"),
        [&lines[..ack], &lines[ack + 1..]].concat().join("\n"),
        [&lines[..ok], &lines[ok + 1..]].concat().join("\n"),
        [&lines[..], &["done served=0 shed=0 peakw=0"]]
            .concat()
            .join("\n"),
    ];
    for (i, b) in broken.iter().enumerate() {
        assert!(
            check_responses(&input, b.as_bytes()).is_err(),
            "broken stream {i} passed"
        );
    }
}
