//! Offline views of a recorded event stream: the Chrome span trace, the
//! dependency-graph mirror, and the hot-node profile.
//!
//! Each view is a pure fold over [`TraceFile`] records. Timestamps come
//! from each record's `ts` (the JSONL format's 1 µs resolution) and names
//! from its `label`, so a view can be rebuilt any time after the traced
//! process has exited, from the same file that `why`/`waves`/`waste` read.

use crate::model::{display, TraceFile};
use alphonse::trace::{json_escape, render_dot, GraphSnapshot, SnapshotNode, TraceEvent};
use alphonse::{NodeId, NodeKind};
use alphonse_graph::UnionFind;
use std::fmt::Write as _;

/// Grows a dense per-node table so `n` has a slot.
fn slot<T: Default>(table: &mut Vec<T>, n: NodeId) -> &mut T {
    if table.len() <= n.index() {
        table.resize_with(n.index() + 1, T::default);
    }
    &mut table[n.index()]
}

/// Removes the innermost open frame of `node` from `stack`, returning its
/// position and payload. In a sequential trace that is the top of the
/// stack. A level-parallel wave begins every execution of a level before
/// committing them in order, so there it is the oldest frame.
fn close<F>(stack: &mut Vec<(NodeId, F)>, node: NodeId) -> Option<(usize, F)> {
    let i = stack.iter().rposition(|(n, _)| *n == node)?;
    Some((i, stack.remove(i).1))
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Renders the trace as a Chrome trace-event JSON document, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Executions and propagation runs become duration (`B`/`E`) spans; writes,
/// dirtyings, cache hits, cutoffs, level starts and batch commits become
/// instant (`i`) events. Reads and new edges are not emitted one by one:
/// each execution span's `args` tallies the reads and edges delivered
/// while it was the innermost open execution, so a nested call's reads are
/// never charged to its caller.
pub fn chrome(tf: &TraceFile) -> String {
    let mut records: Vec<String> = Vec::new();
    // (node, reads, edges) of every open execution span, innermost last.
    let mut open: Vec<(NodeId, (u64, u64))> = Vec::new();
    for rec in &tf.records {
        let ts = rec.ts;
        let name = |n: NodeId| json_escape(&display(rec.label.as_deref(), n));
        let instant = |name: &str, cat: &str, args: String| {
            format!(
                r#"{{"name":"{name}","cat":"{cat}","ph":"i","s":"t","ts":{ts},"pid":1,"tid":1,"args":{{{args}}}}}"#
            )
        };
        let end =
            |args: String| format!(r#"{{"ph":"E","ts":{ts},"pid":1,"tid":1,"args":{{{args}}}}}"#);
        let record = match &rec.event {
            TraceEvent::Read { .. } => {
                if let Some((_, (reads, _))) = open.last_mut() {
                    *reads += 1;
                }
                continue;
            }
            TraceEvent::EdgeAdded { .. } => {
                if let Some((_, (_, edges))) = open.last_mut() {
                    *edges += 1;
                }
                continue;
            }
            TraceEvent::Write { node, changed } => instant(
                &format!("write {}", name(*node)),
                "write",
                format!(r#""changed":{changed}"#),
            ),
            TraceEvent::Dirtied {
                node,
                reason,
                cause,
            } => instant(
                &format!("dirty {}", name(*node)),
                "dirty",
                match cause {
                    Some(c) => format!(r#""reason":"{reason:?}","cause":"{c}""#),
                    None => format!(r#""reason":"{reason:?}""#),
                },
            ),
            TraceEvent::PropagateBegin { .. } => format!(
                r#"{{"name":"propagate","cat":"propagate","ph":"B","ts":{ts},"pid":1,"tid":1}}"#
            ),
            TraceEvent::PropagateEnd { wave, steps } => {
                end(format!(r#""wave":{wave},"steps":{steps}"#))
            }
            // Executions within a level may overlap in time, which
            // single-track B/E pairing cannot show; levels export as
            // instants so the execution spans keep pairing up.
            TraceEvent::LevelBegin {
                wave,
                height,
                width,
            } => instant(
                &format!("level h{height}"),
                "level",
                format!(r#""wave":{wave},"height":{height},"width":{width}"#),
            ),
            TraceEvent::ExecuteBegin { node } => {
                open.push((*node, (0, 0)));
                format!(
                    r#"{{"name":"exec {}","cat":"execute","ph":"B","ts":{ts},"pid":1,"tid":1}}"#,
                    name(*node)
                )
            }
            TraceEvent::ExecuteEnd { node, changed } => {
                let (reads, edges) = close(&mut open, *node).map_or((0, 0), |(_, t)| t);
                end(format!(
                    r#""changed":{changed},"reads":{reads},"edges":{edges}"#
                ))
            }
            TraceEvent::CacheHit { node } => {
                instant(&format!("hit {}", name(*node)), "cache", String::new())
            }
            TraceEvent::CutoffStop { node } => {
                instant(&format!("cutoff {}", name(*node)), "cutoff", String::new())
            }
            TraceEvent::BatchCommit {
                writes,
                coalesced,
                wave,
            } => instant(
                "batch commit",
                "batch",
                format!(r#""writes":{writes},"coalesced":{coalesced},"wave":{wave}"#),
            ),
            // Node creation, labels, edge removals and level ends have no
            // record of their own.
            _ => continue,
        };
        records.push(record);
    }
    if records.is_empty() {
        return "[\n]".to_string();
    }
    format!("[\n{}\n]", records.join(",\n"))
}

// ---------------------------------------------------------------------------
// Dependency-graph mirror
// ---------------------------------------------------------------------------

/// Per-node state of the event-driven graph mirror.
#[derive(Default)]
struct MirrorNode {
    kind: Option<NodeKind>,
    label: Option<String>,
    /// Incoming edges — the direction `RemovePredEdges` clears in bulk.
    preds: Vec<NodeId>,
    queued: bool,
    /// A computation dirtied since its last execution.
    stale: bool,
    execs: u64,
    last_exec: u64,
}

/// Mirrors the dependency graph from the event stream: nodes, labels,
/// edges, queue membership and staleness, execution counts and ordinals,
/// and the partition forest (every edge ever added unions its endpoints).
///
/// A node joins the queue when dirtied and leaves it when it executes or
/// when the propagation wave that drains it ends, so a written location
/// and a demand computation marked stale both read as unqueued once the
/// wave is over; a computation stays stale until it executes again. (A
/// step-bounded or per-partition wave can end with dirt still queued; the
/// stream does not show which, so the mirror reads it as drained.)
///
/// Node ids are per runtime: when a trace holds several runtimes (one
/// `--trace-out` over many experiments), the mirror restarts at each new
/// runtime's first node and shows the last one.
pub fn graph_snapshot(tf: &TraceFile) -> GraphSnapshot {
    let mut nodes: Vec<MirrorNode> = Vec::new();
    let mut uf = UnionFind::new();
    let mut clock = 0u64;
    for rec in &tf.records {
        match &rec.event {
            TraceEvent::NodeCreated { node, kind, label } => {
                if node.index() == 0 && !nodes.is_empty() {
                    nodes.clear();
                    uf = UnionFind::new();
                    clock = 0;
                }
                let n = slot(&mut nodes, *node);
                n.kind = Some(*kind);
                n.label = label.as_deref().map(str::to_owned);
            }
            TraceEvent::Labeled { node, label } => {
                slot(&mut nodes, *node).label = Some(label.to_string());
            }
            TraceEvent::EdgeAdded { from, to } => {
                slot(&mut nodes, *from);
                slot(&mut nodes, *to).preds.push(*from);
                uf.ensure(*from.max(to));
                uf.union(*from, *to);
            }
            TraceEvent::EdgesRemoved { node, .. } => slot(&mut nodes, *node).preds.clear(),
            TraceEvent::Dirtied { node, .. } => {
                let n = slot(&mut nodes, *node);
                n.queued = true;
                n.stale = true;
            }
            TraceEvent::ExecuteBegin { node } => {
                clock += 1;
                let n = slot(&mut nodes, *node);
                n.execs += 1;
                n.last_exec = clock;
            }
            TraceEvent::ExecuteEnd { node, .. } => {
                let n = slot(&mut nodes, *node);
                n.queued = false;
                n.stale = false;
            }
            TraceEvent::PropagateEnd { .. } => nodes.iter_mut().for_each(|n| n.queued = false),
            TraceEvent::Write { node, .. } => {
                slot(&mut nodes, *node);
            }
            _ => {}
        }
    }
    if let Some(last) = nodes.len().checked_sub(1) {
        uf.ensure(NodeId::from_index(last));
    }
    let partitioned = nodes.len() > 1;
    let mut snap = GraphSnapshot::default();
    for (i, n) in nodes.into_iter().enumerate() {
        let id = NodeId::from_index(i);
        let kind = n.kind.unwrap_or(NodeKind::Location);
        snap.edges.extend(n.preds.iter().map(|&p| (p, id)));
        snap.nodes.push(SnapshotNode {
            id,
            kind,
            label: n.label,
            consistent: kind == NodeKind::Location || !n.stale,
            queued: n.queued,
            partition: partitioned.then(|| uf.find(id)),
            last_exec: n.last_exec,
            execs: n.execs,
        });
    }
    snap
}

/// The mirrored graph as a Graphviz DOT document (rendered by the
/// runtime's own [`render_dot`]).
pub fn dot(tf: &TraceFile) -> String {
    render_dot(&graph_snapshot(tf))
}

// ---------------------------------------------------------------------------
// Hot-node profile
// ---------------------------------------------------------------------------

/// Per-node aggregates of the hot-node profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCounts {
    /// Completed executions.
    pub execs: u64,
    /// Calls answered from the cache.
    pub hits: u64,
    /// Times the node entered an inconsistent set.
    pub dirtied: u64,
    /// Execution time minus time in nested executions, µs.
    pub self_us: u64,
    /// Execution time including nested executions, µs.
    pub cum_us: u64,
}

/// One row of the hot-node table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRow {
    /// The node (ids of several runtimes in one trace share rows).
    pub node: NodeId,
    /// `label (nI)`, from the node's last label in the trace.
    pub name: String,
    /// The node's aggregates.
    pub counts: HotCounts,
}

/// Per-node execution statistics folded from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotProfile {
    /// Every node that executed, hit the cache or was dirtied, hottest
    /// first: by self time, then executions, then id.
    pub rows: Vec<HotRow>,
    /// Propagation waves observed.
    pub propagations: u64,
    /// Total time inside propagation waves, µs.
    pub propagate_us: u64,
    /// `ExecuteEnd` records without a recorded `ExecuteBegin` (the trace
    /// began mid-execution); those executions are missing from the rows.
    pub unmatched: u64,
}

/// Folds the trace into per-node execution counts, cache hits, dirtyings,
/// and self and cumulative time.
pub fn hot(tf: &TraceFile) -> HotProfile {
    let mut counts: Vec<HotCounts> = Vec::new();
    let mut labels: Vec<Option<String>> = Vec::new();
    // (node, (begin ts, time in nested executions)) per open execution.
    let mut open: Vec<(NodeId, (u64, u64))> = Vec::new();
    let mut waves: Vec<u64> = Vec::new();
    let mut prof = HotProfile::default();
    for rec in &tf.records {
        match &rec.event {
            TraceEvent::NodeCreated { node, label, .. } => {
                *slot(&mut labels, *node) = label.as_deref().map(str::to_owned);
            }
            TraceEvent::Labeled { node, label } => {
                *slot(&mut labels, *node) = Some(label.to_string());
            }
            TraceEvent::ExecuteBegin { node } => open.push((*node, (rec.ts, 0))),
            TraceEvent::ExecuteEnd { node, .. } => {
                let Some((i, (start, nested))) = close(&mut open, *node) else {
                    prof.unmatched += 1;
                    continue;
                };
                let elapsed = rec.ts.saturating_sub(start);
                let c = slot(&mut counts, *node);
                c.execs += 1;
                c.cum_us += elapsed;
                c.self_us += elapsed.saturating_sub(nested);
                if let Some((_, (_, parent_nested))) = open[..i].last_mut() {
                    *parent_nested += elapsed;
                }
            }
            TraceEvent::CacheHit { node } => slot(&mut counts, *node).hits += 1,
            TraceEvent::Dirtied { node, .. } => slot(&mut counts, *node).dirtied += 1,
            TraceEvent::PropagateBegin { .. } => waves.push(rec.ts),
            TraceEvent::PropagateEnd { .. } => {
                if let Some(start) = waves.pop() {
                    prof.propagations += 1;
                    prof.propagate_us += rec.ts.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    prof.rows = counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| c.execs > 0 || c.hits > 0 || c.dirtied > 0)
        .map(|(i, counts)| HotRow {
            node: NodeId::from_index(i),
            name: display(
                labels.get(i).and_then(|l| l.as_deref()),
                NodeId::from_index(i),
            ),
            counts,
        })
        .collect();
    prof.rows.sort_by(|a, b| {
        b.counts
            .self_us
            .cmp(&a.counts.self_us)
            .then(b.counts.execs.cmp(&a.counts.execs))
            .then(a.node.cmp(&b.node))
    });
    prof
}

impl HotProfile {
    /// Executions counted across all rows.
    pub fn total_execs(&self) -> u64 {
        self.rows.iter().map(|r| r.counts.execs).sum()
    }

    /// The `top_k` hottest rows as an aligned table.
    pub fn render(&self, top_k: usize) -> String {
        let rows = &self.rows[..top_k.min(self.rows.len())];
        let header = ["node", "execs", "hits", "dirtied", "self_us", "cum_us"].map(String::from);
        let cells: Vec<[String; 6]> = rows
            .iter()
            .map(|r| {
                let c = r.counts;
                [
                    r.name.clone(),
                    c.execs.to_string(),
                    c.hits.to_string(),
                    c.dirtied.to_string(),
                    c.self_us.to_string(),
                    c.cum_us.to_string(),
                ]
            })
            .collect();
        let mut widths = [0usize; 6];
        for row in std::iter::once(&header).chain(&cells) {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if self.unmatched > 0 {
            let _ = writeln!(
                out,
                "warning: {} executions ended without a recorded begin — aggregates undercount",
                self.unmatched
            );
        }
        let _ = writeln!(
            out,
            "hot nodes (top {} by self time; {} propagations, {} us propagating)",
            rows.len(),
            self.propagations,
            self.propagate_us,
        );
        for row in std::iter::once(&header).chain(&cells) {
            for (i, (c, w)) in row.iter().zip(widths).enumerate() {
                if i == 0 {
                    let _ = write!(out, "{c:<w$}");
                } else {
                    let _ = write!(out, "  {c:>w$}");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphonse::trace::{Recorder, TraceSink};
    use std::sync::Arc;

    /// Writes `events` through the runtime's JSONL encoder and parses them
    /// back, so labels are resolved exactly as a recorded trace has them.
    fn replay(events: &[TraceEvent]) -> TraceFile {
        let rec = Recorder::new(1024);
        for ev in events {
            rec.event(ev);
        }
        TraceFile::parse(&rec.to_jsonl()).unwrap()
    }

    fn created(i: usize, kind: NodeKind, label: Option<&str>) -> TraceEvent {
        TraceEvent::NodeCreated {
            node: NodeId::from_index(i),
            kind,
            label: label.map(Arc::from),
        }
    }

    #[test]
    fn chrome_json_is_balanced_and_named() {
        let n = NodeId::from_index(0);
        let json = chrome(&replay(&[
            created(0, NodeKind::Computation, Some("he\"llo")),
            TraceEvent::ExecuteBegin { node: n },
            TraceEvent::Read { node: n },
            TraceEvent::ExecuteEnd {
                node: n,
                changed: true,
            },
        ]));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#"exec he\"llo"#), "{json}");
        assert!(json.contains(r#""reads":1"#), "{json}");
    }

    #[test]
    fn graph_mirror_tracks_edges_and_removals() {
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        let mut events = vec![
            created(0, NodeKind::Location, None),
            created(1, NodeKind::Computation, None),
            TraceEvent::EdgeAdded { from: a, to: b },
        ];
        assert_eq!(graph_snapshot(&replay(&events)).edges, vec![(a, b)]);
        events.push(TraceEvent::EdgesRemoved { node: b, count: 1 });
        let tf = replay(&events);
        assert!(graph_snapshot(&tf).edges.is_empty());
        assert!(dot(&tf).contains("digraph alphonse"));
    }

    #[test]
    fn wave_end_unqueues_but_a_stale_computation_stays_stale() {
        // A demand computation is popped and marked stale by the wave but
        // not executed; a location is popped and fans out.
        let (a, f) = (NodeId::from_index(0), NodeId::from_index(1));
        let snap = graph_snapshot(&replay(&[
            created(0, NodeKind::Location, None),
            created(1, NodeKind::Computation, None),
            TraceEvent::Dirtied {
                node: a,
                reason: alphonse::trace::DirtyReason::WriteChanged,
                cause: None,
            },
            TraceEvent::PropagateBegin { wave: 1 },
            TraceEvent::Dirtied {
                node: f,
                reason: alphonse::trace::DirtyReason::Fanout,
                cause: Some(a),
            },
            TraceEvent::PropagateEnd { wave: 1, steps: 2 },
        ]));
        let state: Vec<_> = snap
            .nodes
            .iter()
            .map(|n| (n.queued, n.consistent))
            .collect();
        assert_eq!(state, vec![(false, true), (false, false)]);
    }

    #[test]
    fn hot_attributes_self_time_to_frames() {
        let (outer, inner) = (NodeId::from_index(0), NodeId::from_index(1));
        let prof = hot(&replay(&[
            TraceEvent::ExecuteBegin { node: outer },
            TraceEvent::ExecuteBegin { node: inner },
            TraceEvent::ExecuteEnd {
                node: inner,
                changed: true,
            },
            TraceEvent::ExecuteEnd {
                node: outer,
                changed: true,
            },
        ]));
        assert_eq!(prof.total_execs(), 2);
        let counts = |n| prof.rows.iter().find(|r| r.node == n).unwrap().counts;
        let (o, i) = (counts(outer), counts(inner));
        assert_eq!(
            o.cum_us,
            o.self_us + i.cum_us,
            "nested time is not self time"
        );
        let report = prof.render(10);
        assert!(report.contains("execs"), "{report}");
    }

    #[test]
    fn hot_counts_an_end_without_a_begin_as_unmatched() {
        let prof = hot(&replay(&[TraceEvent::ExecuteEnd {
            node: NodeId::from_index(0),
            changed: true,
        }]));
        assert_eq!((prof.unmatched, prof.total_execs()), (1, 0));
        assert!(prof.render(5).starts_with("warning: 1 executions"));
    }
}
