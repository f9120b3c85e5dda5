//! Seeded fuzz of the wire decoders: whatever text reaches
//! `parse_request`, `parse_submit_body` or `parse_journal_line`, the answer
//! is `Ok` or a typed `Err` — never a panic — and every integer an `Ok`
//! carries is one an f64 holds exactly (at most 2^53), so ids, deadlines
//! and knob values cannot overflow the arithmetic downstream of the
//! decoder.
//!
//! Cases come from the in-tree seeded harness (`salam_obs::det`): valid
//! templates whose numeric slots are filled with plain and hostile values,
//! then garbled byte by byte.

use salam_obs::det::{check_cases, SplitMix64};
use salam_serve::wire::Request;
use salam_serve::wire::{parse_journal_line, parse_request, parse_submit_body, JournalEvent};
use salam_serve::JobRequest;

/// The largest integer every smaller one of which an f64 holds exactly.
const MAX_EXACT: u64 = 1 << 53;

/// Values for a template's `#` slots: in range, at and past 2^53, past
/// u64, negative, fractional, exponent form, not a number at all.
const NUMBERS: [&str; 16] = [
    "0",
    "3",
    "60000",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e300",
    "1e400",
    "-1",
    "-0",
    "0.5",
    "2.0",
    "null",
    "\"7\"",
    "",
];

const REQUESTS: [&str; 9] = [
    r#"{"op":"status","id":#}"#,
    r#"{"op":"wait","id":#}"#,
    r#"{"op":"cancel","id":#}"#,
    r#"{"op":"result","id":#,"artifact":"report"}"#,
    r#"{"op":"submit","tenant":"t","deadline_ms":#,"job":{"type":"kernel","bench":"gemm","knobs":{"ports":#}}}"#,
    r#"{"op":"submit","tenant":"t","job":{"type":"faulted","bench":"spmv","knobs":{"window":#},"plan":{"seed":#,"mem_delay_cycles":#}}}"#,
    r#"{"op":"submit","tenant":"t","job":{"type":"sweep","name":"s","kernels":["gemm"],"axes":[{"knob":"ports","values":[#,#]}],"replay":true}}"#,
    r#"{"op":"metrics","format":"prom"}"#,
    r#"{"op":"stats"}"#,
];

const BODIES: [&str; 3] = [
    r#"{"tenant":"t","deadline_ms":#,"job":{"type":"kernel","bench":"bfs","knobs":{"spm-latency":#}}}"#,
    r#"{"tenant":"t","job":{"type":"sweep","name":"s","kernels":["spmv"],"axes":[{"knob":"window","values":[#]}]}}"#,
    r#"{"tenant":"t","job":{"type":"faulted","bench":"gemm","plan":{"mem_drop_rate":#}}}"#,
];

const JOURNAL: [&str; 3] = [
    r#"{"event": "admit", "id": #, "tenant": "t", "deadline_ms": #, "job": {"type": "kernel", "bench": "gemm", "knobs": {"ports": #}, "trace": false}}"#,
    r#"{"event": "admit", "id": #, "tenant": "t", "deadline_ms": null, "job": {"type": "sweep", "name": "s", "kernels": ["gemm"], "axes": [{"knob": "ports", "values": [#]}], "replay": false}}"#,
    r#"{"event": "terminal", "id": #}"#,
];

/// Bytes a garbling step may insert: JSON structure, digits and letters.
const NOISE: &[u8] = b"{}[]\",:-.0123456789eE aznull";

/// Fills `template`'s slots, then garbles the text 0-3 times: truncate,
/// delete a byte, insert a byte, or duplicate a slice.
fn case(template: &str, g: &mut SplitMix64) -> String {
    let mut text = String::new();
    for (i, part) in template.split('#').enumerate() {
        if i > 0 {
            text.push_str(g.choose::<&str>(&NUMBERS));
        }
        text.push_str(part);
    }
    let mut bytes = text.into_bytes();
    for _ in 0..g.range_usize(0, 4) {
        let at = g.range_usize(0, bytes.len() + 1);
        match g.range_u64(0, 4) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, *g.choose(NOISE)),
            _ => {
                let end = (at + g.range_usize(1, 8)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    String::from_utf8(bytes).expect("templates and noise are ASCII")
}

fn job_ints(job: &JobRequest) -> Vec<u64> {
    match job {
        JobRequest::Kernel { knobs, .. } | JobRequest::Faulted { knobs, .. } => {
            knobs.iter().map(|(_, v)| *v).collect()
        }
        JobRequest::Sweep { axes, .. } => axes.iter().flat_map(|a| a.values.clone()).collect(),
    }
}

fn request_ints(req: &Request) -> Vec<u64> {
    match req {
        Request::Submit {
            job, deadline_ms, ..
        } => job_ints(job).into_iter().chain(*deadline_ms).collect(),
        Request::Status(id) | Request::Wait(id) | Request::Cancel(id) => vec![*id],
        Request::Result { id, .. } => vec![*id],
        Request::Metrics | Request::MetricsProm | Request::Stats | Request::Shutdown => Vec::new(),
    }
}

fn assert_exact(ints: &[u64], text: &str) {
    for &n in ints {
        assert!(n <= MAX_EXACT, "accepted {n} from {text}");
    }
}

#[test]
fn request_lines_decode_or_fail_typed() {
    check_cases("parse_request", 3000, 0x5e12_7e01, |g| {
        let text = case(g.choose::<&str>(&REQUESTS), g);
        if let Ok(req) = parse_request(&text) {
            assert_exact(&request_ints(&req), &text);
        }
    });
}

#[test]
fn submit_bodies_decode_or_fail_typed() {
    check_cases("parse_submit_body", 2000, 0x5e12_7e02, |g| {
        let text = case(g.choose::<&str>(&BODIES), g);
        if let Ok(req) = parse_submit_body(&text) {
            assert_exact(&request_ints(&req), &text);
        }
    });
}

#[test]
fn journal_lines_decode_or_fail_typed() {
    check_cases("parse_journal_line", 3000, 0x5e12_7e03, |g| {
        let text = case(g.choose::<&str>(&JOURNAL), g);
        match parse_journal_line(&text) {
            Ok(JournalEvent::Admit(a)) => {
                let ints: Vec<u64> = job_ints(&a.job)
                    .into_iter()
                    .chain(a.deadline_ms)
                    .chain([a.id])
                    .collect();
                assert_exact(&ints, &text);
            }
            Ok(JournalEvent::Terminal { id }) => assert_exact(&[id], &text),
            Err(_) => {}
        }
    });
}

#[test]
fn the_unfilled_templates_decode() {
    let fill = |t: &str| t.replace('#', "2");
    for t in REQUESTS {
        assert!(parse_request(&fill(t)).is_ok(), "{t}");
    }
    for t in BODIES {
        assert!(parse_submit_body(&fill(t)).is_ok(), "{t}");
    }
    for t in JOURNAL {
        assert!(parse_journal_line(&fill(t)).is_ok(), "{t}");
    }
}
