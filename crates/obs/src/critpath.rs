//! Dynamic critical-path extraction over a recorded [`DepStream`].
//!
//! The stream is the *realized* dynamic DAG: every committed op with its
//! issue/commit cycles and producer uids. The analyzer answers three
//! questions a stall counter cannot:
//!
//! * **What bounds runtime?** The critical path — the chain of ops walked
//!   backward from the last commit, following at each step the producer
//!   that committed latest (the dependency that actually gated issue).
//! * **Which ops had room to slip?** Per-op slack: how many cycles an op's
//!   commit could slide — assuming each consumer re-issues as soon as its
//!   inputs are ready — before moving the end of the run. Ops on the
//!   critical chain have zero slack whenever their consumers issued as
//!   soon as they were ready.
//! * **What would relaxing a resource buy?** Per-class headroom: the sum of
//!   issue waits (`issue − ready`) of critical-path ops in each resource
//!   class — an upper bound on the speedup from giving that class more
//!   ports/units, in the spirit of the paper's FU-constraint sweeps.

use std::collections::{BTreeMap, HashMap};

use crate::profile::DepStream;

/// The analyzer's result. All fields are deterministic functions of the
/// stream (ties broken by uid), so repeated runs render identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritPath {
    /// Cycles spanned by the critical path: `commit(last) − issue(first) + 1`.
    /// Always ≤ the engine's total cycle count.
    pub length: u64,
    /// Cycle of the last commit in the stream.
    pub end_cycle: u64,
    /// Critical-path op uids in execution order (producer first).
    pub path: Vec<u64>,
    /// Per-resource-class upper bound on cycles reclaimable by relaxing
    /// that class, keyed by class name.
    pub headroom: BTreeMap<String, u64>,
    /// Per-op slack in cycles, parallel to `stream.ops()` order.
    pub slack: Vec<u64>,
    /// Number of ops with zero slack (the critical "front").
    pub zero_slack_ops: usize,
}

impl CritPath {
    /// Classes ranked by headroom, largest first (ties by name).
    pub fn headroom_ranked(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .headroom
            .iter()
            .map(|(k, &n)| (k.as_str(), n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

/// Extracts the realized critical path, per-op slack, and per-class
/// headroom from a dependency stream. An empty stream yields a default
/// (all-zero) result.
pub fn analyze(stream: &DepStream) -> CritPath {
    let ops = stream.ops();
    if ops.is_empty() {
        return CritPath::default();
    }
    // uid → position in the stream. Deps referencing uids that never
    // committed (terminators, constants) are simply absent and skipped.
    let index: HashMap<u64, usize> = ops.iter().enumerate().map(|(i, o)| (o.uid, i)).collect();

    // Terminal: the op with the latest commit; ties break toward the
    // smaller uid (first in program order) for determinism.
    let mut terminal = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let best = &ops[terminal];
        if op.commit > best.commit || (op.commit == best.commit && op.uid < best.uid) {
            terminal = i;
        }
    }
    let end_cycle = ops[terminal].commit;

    // Backward walk: at each op, follow the producer that committed latest
    // (the dependency that actually gated readiness). Ties → smaller uid.
    let mut path_rev: Vec<usize> = vec![terminal];
    let mut cur = terminal;
    loop {
        let mut next: Option<usize> = None;
        for &dep in stream.deps(&ops[cur]) {
            let Some(&di) = index.get(&dep) else { continue };
            match next {
                None => next = Some(di),
                Some(bi) => {
                    let (d, b) = (&ops[di], &ops[bi]);
                    if d.commit > b.commit || (d.commit == b.commit && d.uid < b.uid) {
                        next = Some(di);
                    }
                }
            }
        }
        match next {
            Some(ni) => {
                path_rev.push(ni);
                cur = ni;
            }
            None => break,
        }
    }
    let path_idx: Vec<usize> = path_rev.into_iter().rev().collect();
    let length = end_cycle - ops[path_idx[0]].issue + 1;

    // Headroom: for each critical-path op, its issue wait is
    // `issue − max(dep commits)` — cycles spent ready-blocked on a
    // resource rather than a producer. Charged to the op's class.
    let mut headroom: BTreeMap<String, u64> = BTreeMap::new();
    for &i in &path_idx {
        let op = &ops[i];
        let ready = stream
            .deps(op)
            .iter()
            .filter_map(|d| index.get(d).map(|&di| ops[di].commit))
            .max()
            .unwrap_or(0);
        let wait = op.issue.saturating_sub(ready);
        *headroom
            .entry(stream.class(op.class).to_string())
            .or_insert(0) += wait;
    }

    // Slack: a backward latest-commit pass. Every op may commit as late as
    // `end_cycle` unless a consumer constrains it: a consumer that takes
    // `dur_c` cycles and must itself commit by `latest_c` needs its inputs
    // by `latest_c − dur_c`. Deps always point to older (smaller) uids, so
    // one pass in decreasing-uid order propagates consumer constraints onto
    // producers. Chained zero-latency ops can push `latest` below the
    // realized commit; slack clamps at zero.
    let mut by_uid: Vec<usize> = (0..ops.len()).collect();
    by_uid.sort_by_key(|&i| std::cmp::Reverse(ops[i].uid));
    let mut latest: Vec<i64> = vec![end_cycle as i64; ops.len()];
    for &i in &by_uid {
        let dur = (ops[i].commit - ops[i].issue + 1) as i64;
        let need_by = latest[i] - dur;
        for d in stream.deps(&ops[i]) {
            if let Some(&di) = index.get(d) {
                latest[di] = latest[di].min(need_by);
            }
        }
    }
    let slack: Vec<u64> = ops
        .iter()
        .zip(&latest)
        .map(|(o, &l)| l.saturating_sub(o.commit as i64).max(0) as u64)
        .collect();
    let zero_slack_ops = slack.iter().filter(|&&s| s == 0).count();

    CritPath {
        length,
        end_cycle,
        path: path_idx.iter().map(|&i| ops[i].uid).collect(),
        headroom,
        slack,
        zero_slack_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: two loads feed an fmul; the slower load is critical.
    ///
    /// ```text
    ///   load#1 (0..2)     load#2 (0..5)
    ///          \           /
    ///           fmul#3 (6..9)
    /// ```
    fn diamond() -> DepStream {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, &[]);
        s.record(2, "load", "load", 0, 5, &[]);
        s.record(3, "fmul", "fp_mul_f64", 6, 9, &[1, 2]);
        s
    }

    #[test]
    fn empty_stream_yields_zero_result() {
        let cp = analyze(&DepStream::new());
        assert_eq!(cp.length, 0);
        assert!(cp.path.is_empty());
        assert!(cp.headroom.is_empty());
    }

    #[test]
    fn critical_path_follows_latest_committing_producer() {
        let cp = analyze(&diamond());
        assert_eq!(cp.path, vec![2, 3], "the slow load gates the fmul");
        assert_eq!(cp.end_cycle, 9);
        assert_eq!(cp.length, 10); // issue 0 .. commit 9 inclusive
    }

    #[test]
    fn slack_is_zero_on_path_and_positive_off_path() {
        let s = diamond();
        let cp = analyze(&s);
        // ops order: load#1, load#2, fmul#3
        assert_eq!(cp.slack, vec![3, 0, 0], "fast load can slip 3 cycles");
        assert_eq!(cp.zero_slack_ops, 2);
    }

    #[test]
    fn headroom_charges_issue_waits_per_class() {
        let cp = analyze(&diamond());
        // fmul was ready at commit(load#2)=5 but issued at 6 → 1 cycle.
        assert_eq!(cp.headroom.get("fp_mul_f64"), Some(&1));
        // load#2 issued the cycle it was ready → 0 headroom for loads.
        assert_eq!(cp.headroom.get("load"), Some(&0));
        assert_eq!(cp.headroom_ranked()[0], ("fp_mul_f64", 1));
    }

    #[test]
    fn unknown_dep_uids_are_skipped() {
        let mut s = DepStream::new();
        s.record(5, "add", "int_alu", 0, 1, &[99]); // 99 never committed
        let cp = analyze(&s);
        assert_eq!(cp.path, vec![5]);
        assert_eq!(cp.length, 2);
    }

    #[test]
    fn chain_length_equals_span_of_chain() {
        let mut s = DepStream::new();
        s.record(1, "a", "int_alu", 0, 0, &[]);
        s.record(2, "b", "int_alu", 1, 1, &[1]);
        s.record(3, "c", "int_alu", 2, 2, &[2]);
        let cp = analyze(&s);
        assert_eq!(cp.path, vec![1, 2, 3]);
        assert_eq!(cp.length, 3);
        assert_eq!(cp.zero_slack_ops, 3);
    }
}
