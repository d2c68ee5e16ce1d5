//! Self time per span kind, from a traced run's causal spans.
//!
//! A span's self time is its duration minus the part of it that its
//! children cover. Sibling spans can overlap (the per-shard legs of a
//! scatter-gather run in parallel), so every instant of a request is
//! given to exactly one span: the deepest span covering it, and among
//! overlapping siblings the one that ends last (the leg the request is
//! waiting for). The self times of one trace then sum to its root's
//! duration exactly.

use std::collections::HashMap;

use catfish_core::obs::{LatencyHistogram, SpanKind, SpanRecord, TraceAssembler};

/// Span kinds in report order.
pub const KINDS: [SpanKind; 6] = [
    SpanKind::Request,
    SpanKind::Rpc,
    SpanKind::Dispatch,
    SpanKind::IndexExec,
    SpanKind::Merge,
    SpanKind::Offload,
];

/// Self-time distributions of one traced run.
#[derive(Debug, Clone)]
pub struct SelfTimes {
    /// One histogram of per-span self time for each entry of [`KINDS`].
    pub by_kind: Vec<LatencyHistogram>,
    /// Traces assembled.
    pub traces: u64,
    /// Traces that were not one connected tree.
    pub disconnected: u64,
    /// Traces whose self times did not sum to the root's duration.
    pub sum_mismatches: u64,
}

/// Splits every trace in `spans` into per-span self times.
pub fn self_times(spans: &[SpanRecord]) -> SelfTimes {
    let assembly = TraceAssembler::assemble(spans);
    let mut out = SelfTimes {
        by_kind: KINDS.iter().map(|_| LatencyHistogram::new()).collect(),
        traces: assembly.len() as u64,
        disconnected: 0,
        sum_mismatches: 0,
    };
    for tree in &assembly.traces {
        if !tree.connected() {
            out.disconnected += 1;
            continue;
        }
        let root = tree.roots[0];
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in tree.spans.iter().enumerate() {
            if i != root {
                children.entry(s.parent_span).or_default().push(i);
            }
        }
        let mut own = vec![0u64; tree.spans.len()];
        let r = &tree.spans[root];
        attribute(
            &tree.spans,
            &children,
            root,
            vec![(r.start_ns, r.end_ns)],
            &mut own,
        );
        if own.iter().sum::<u64>() != r.end_ns - r.start_ns {
            out.sum_mismatches += 1;
        }
        for (s, &ns) in tree.spans.iter().zip(&own) {
            let k = KINDS
                .iter()
                .position(|&k| k == s.kind)
                .expect("every span kind is listed");
            out.by_kind[k].record_nanos(ns);
        }
    }
    out
}

/// Gives each instant of `segments` (disjoint, inside span `idx`) to the
/// child that covers it, or to `idx` itself, and recurses.
fn attribute(
    spans: &[SpanRecord],
    children: &HashMap<u64, Vec<usize>>,
    idx: usize,
    segments: Vec<(u64, u64)>,
    own: &mut [u64],
) {
    let kids = children
        .get(&spans[idx].span_id)
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    let mut given: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for (a, b) in segments {
        let mut cuts = vec![a, b];
        for &c in kids {
            for t in [spans[c].start_ns, spans[c].end_ns] {
                if a < t && t < b {
                    cuts.push(t);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            let cover = kids
                .iter()
                .copied()
                .filter(|&c| spans[c].start_ns <= x && spans[c].end_ns >= y)
                .max_by_key(|&c| (spans[c].end_ns, std::cmp::Reverse(spans[c].span_id)));
            match cover {
                Some(c) => {
                    let segs = given.entry(c).or_default();
                    match segs.last_mut() {
                        Some(last) if last.1 == x => last.1 = y,
                        _ => segs.push((x, y)),
                    }
                }
                None => own[idx] += y - x,
            }
        }
    }
    for (c, segs) in given {
        attribute(spans, children, c, segs, own);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_span: parent,
            kind,
            node: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_legs_tile_the_root() {
        // A scatter-gather: two overlapping legs, one server span each,
        // and a merge after both.
        let spans = [
            span(1, 0, SpanKind::Request, 0, 100),
            span(2, 1, SpanKind::Rpc, 10, 60),
            span(3, 1, SpanKind::Rpc, 20, 80),
            span(4, 2, SpanKind::IndexExec, 30, 50),
            span(5, 3, SpanKind::IndexExec, 40, 70),
            span(6, 1, SpanKind::Merge, 80, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st.traces, 1);
        assert_eq!(st.disconnected, 0);
        assert_eq!(st.sum_mismatches, 0);
        let total: u128 = st.by_kind.iter().map(|h| h.sum_nanos()).sum();
        assert_eq!(total, 100);
        // Request keeps [0,10) and [90,100); merge owns [80,90).
        assert_eq!(st.by_kind[0].sum_nanos(), 20);
        assert_eq!(st.by_kind[4].sum_nanos(), 10);
        // Leg 2 covers [10,20) alone; leg 3 ends later, so it wins
        // [20,80) and its index span [40,70).
        assert_eq!(st.by_kind[1].sum_nanos(), 10 + 30);
        assert_eq!(st.by_kind[3].sum_nanos(), 30);
    }

    #[test]
    fn orphans_are_counted_not_attributed() {
        let spans = [
            span(1, 0, SpanKind::Request, 0, 10),
            span(2, 99, SpanKind::Dispatch, 2, 4),
        ];
        let st = self_times(&spans);
        assert_eq!(st.disconnected, 1);
        assert!(st.by_kind.iter().all(LatencyHistogram::is_empty));
    }
}
