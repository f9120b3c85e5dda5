//! Seeded fuzz of the recorded-stream surface: whatever bytes reach
//! `DepStream::from_json`, and whatever stream then reaches
//! `Prepared::new` and the scheduler, the answer is `Ok` or a typed `Err` —
//! never a panic. The suite runs in debug, so an arithmetic overflow
//! anywhere on the path is a panic too.
//!
//! Cases come from the in-tree seeded harness (`salam_obs::det`): the
//! checked-in format fixture and a recorded BFS stream, with rows mutated
//! cell by cell.

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
use salam_obs::det::{check_cases, SplitMix64};
use salam_obs::DepStream;
use salam_replay::{replay, replay_prepared, Prepared, ReplayConfig, ReplayError};
use std::sync::atomic::{AtomicUsize, Ordering};

const FIXTURE: &str = include_str!("fixtures/depstream_v1.json");

/// Cell values a recorder never writes: past every field width, negative,
/// fractional, exponent form, not a number at all.
const HOSTILE: [&str; 14] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "4294967296",
    "4294967295",
    "256",
    "3",
    "-1",
    "-3.5",
    "0.5",
    "1e9",
    "null",
    "\"7\"",
    "",
];

/// A stream document taken apart: the text around the op rows, and each
/// row as its thirteen numeric cells plus the text of its deps array.
struct Doc {
    head: String,
    rows: Vec<(Vec<String>, String)>,
    tail: String,
}

impl Doc {
    fn parse(text: &str) -> Doc {
        let start = text.find("\"ops\": [").expect("ops array") + "\"ops\": [".len();
        let end = text.rfind("\n]").expect("closing bracket");
        let rows = text[start..end]
            .lines()
            .filter(|l| !l.is_empty())
            .map(|line| {
                let row = line.trim_end_matches(',');
                let inner = &row[1..row.len() - 1];
                let deps_at = inner.find('[').expect("deps array");
                let cells = inner[..deps_at - 1]
                    .split(',')
                    .map(str::to_string)
                    .collect();
                (cells, inner[deps_at..].to_string())
            })
            .collect();
        Doc {
            head: text[..start].to_string(),
            rows,
            tail: text[end..].to_string(),
        }
    }

    fn render(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(cells, deps)| {
                let mut parts = cells.clone();
                if !deps.is_empty() {
                    parts.push(deps.clone());
                }
                format!("\n[{}]", parts.join(","))
            })
            .collect();
        format!("{}{}{}", self.head, rows.join(","), self.tail)
    }

    /// One random edit of the kind a truncated write, a hand edit or a
    /// schema drift would leave behind.
    fn mutate(&mut self, g: &mut SplitMix64) {
        let n = self.rows.len();
        let (a, b) = (g.range_usize(0, n), g.range_usize(0, n));
        match g.range_usize(0, 8) {
            // Two cells of one row trade places.
            0 => {
                let cells = &mut self.rows[a].0;
                if cells.len() > 1 {
                    let (i, j) = (g.range_usize(0, cells.len()), g.range_usize(0, cells.len()));
                    cells.swap(i, j);
                }
            }
            // A cell or a dependence becomes a value no recorder writes.
            1 | 2 => {
                let value = g.choose(&HOSTILE).to_string();
                let cells = &mut self.rows[a].0;
                if g.gen_bool(0.8) && !cells.is_empty() {
                    let i = g.range_usize(0, cells.len());
                    cells[i] = value;
                } else {
                    self.rows[a].1 = format!("[{value}]");
                }
            }
            // A row loses its tail.
            3 => {
                let cells = &mut self.rows[a].0;
                cells.truncate(g.range_usize(0, cells.len() + 1));
                if g.gen_bool(0.5) {
                    self.rows[a].1.clear();
                }
            }
            // Two ops trade uids: still dense, but edges now point forward.
            4 => {
                if a != b && !self.rows[a].0.is_empty() && !self.rows[b].0.is_empty() {
                    let uid = self.rows[a].0[0].clone();
                    self.rows[a].0[0] = std::mem::replace(&mut self.rows[b].0[0], uid);
                }
            }
            // A cell is copied from another row (a plausible value in the
            // wrong place: a group, a ctrl, an address producer).
            5 => {
                let i = g.range_usize(0, 13);
                if let Some(v) = self.rows[b].0.get(i).cloned() {
                    if let Some(cell) = self.rows[a].0.get_mut(i) {
                        *cell = v;
                    }
                }
            }
            // A row is dropped or doubled.
            6 => {
                if g.gen_bool(0.5) && n > 1 {
                    self.rows.remove(a);
                } else {
                    let row = (self.rows[a].0.clone(), self.rows[a].1.clone());
                    self.rows.insert(b, row);
                }
            }
            // Two rows trade places (commit order is not uid order).
            _ => self.rows.swap(a, b),
        }
    }
}

/// How far each case got, so a harness that rejects everything at the
/// first gate cannot pass for coverage.
#[derive(Default)]
struct Reached {
    decoded: AtomicUsize,
    prepared: AtomicUsize,
    replayed: AtomicUsize,
    wedged: AtomicUsize,
}

fn drive(text: &str, reached: &Reached) {
    let Ok(stream) = DepStream::from_json(text) else {
        return;
    };
    reached.decoded.fetch_add(1, Ordering::Relaxed);
    let cfg = ReplayConfig {
        fu_pool: FuKind::ALL.into_iter().map(|k| (k, 2)).collect(),
        max_cycles: 5_000_000,
        ..ReplayConfig::default()
    };
    let Ok(prepared) = Prepared::new(&stream) else {
        assert!(matches!(
            replay(&stream, &cfg),
            Err(ReplayError::BadStream(_))
        ));
        return;
    };
    reached.prepared.fetch_add(1, Ordering::Relaxed);
    let lean = replay_prepared(&prepared, &cfg);
    let full = replay(&stream, &cfg);
    match (&lean, &full) {
        (Ok(lean), Ok(full)) => {
            reached.replayed.fetch_add(1, Ordering::Relaxed);
            assert_eq!(lean.cycles, full.cycles);
            assert_eq!(full.attribution.total(), full.cycles);
            assert_eq!(
                full.retimed.as_ref().map(DepStream::len),
                Some(stream.len())
            );
        }
        (Err(lean), Err(full)) => {
            reached.wedged.fetch_add(1, Ordering::Relaxed);
            assert_eq!(lean, full);
        }
        _ => panic!("replay and replay_prepared disagree: {lean:?} vs {full:?}"),
    }
}

fn fuzz(label: &str, text: &str, cases: u64, seed: u64) -> Reached {
    let reached = Reached::default();
    check_cases(label, cases, seed, |g| {
        let mut doc = Doc::parse(text);
        for _ in 0..g.range_usize(1, 4) {
            doc.mutate(g);
        }
        drive(&doc.render(), &reached);
    });
    eprintln!(
        "{label}: decoded {} prepared {} replayed {} wedged {} of {cases}",
        reached.decoded.load(Ordering::Relaxed),
        reached.prepared.load(Ordering::Relaxed),
        reached.replayed.load(Ordering::Relaxed),
        reached.wedged.load(Ordering::Relaxed),
    );
    reached
}

#[test]
fn the_unmutated_documents_survive_the_harness() {
    let reached = Reached::default();
    assert_eq!(Doc::parse(FIXTURE).render(), FIXTURE);
    drive(FIXTURE, &reached);
    assert_eq!(reached.replayed.load(Ordering::Relaxed), 1);
}

#[test]
fn mutated_fixture_rows_never_panic() {
    let reached = fuzz("depstream fixture", FIXTURE, 4000, 0xD5E9);
    for (stage, count) in [
        ("decoded", &reached.decoded),
        ("prepared", &reached.prepared),
        ("replayed", &reached.replayed),
        ("wedged", &reached.wedged),
    ] {
        assert!(count.load(Ordering::Relaxed) > 20, "few cases {stage}");
    }
}

#[test]
fn mutated_recorded_stream_never_panics() {
    let kernel = Bench::Bfs.build_standard();
    let (_, trace) =
        try_run_kernel_profiled(&kernel, &StandaloneConfig::default()).expect("bfs records");
    let text = trace.to_json();
    assert_eq!(Doc::parse(&text).render(), text);
    let reached = fuzz("recorded bfs stream", &text, 150, 0xBF5);
    assert!(reached.replayed.load(Ordering::Relaxed) > 5);
    assert!(reached.decoded.load(Ordering::Relaxed) < 150);
}
