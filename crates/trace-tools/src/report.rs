//! Offline analytics over a parsed trace: per-wave propagation statistics
//! and the waste (cutoff-effectiveness) accounting.
//!
//! Both reports are deterministic functions of the record sequence — no
//! timestamps enter the output — so they are golden-testable and stable
//! across machines.

use crate::model::{Record, TraceFile};
use alphonse::trace::TraceEvent;
use alphonse::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Display map from the `label` stamps carried on the records.
struct Names(Vec<Option<String>>);

impl Names {
    fn build(records: &[Record]) -> Names {
        let mut names: Vec<Option<String>> = Vec::new();
        for rec in records {
            if let (Some(label), Some(node)) = (&rec.label, rec.event.node()) {
                let i = node.index();
                if names.len() <= i {
                    names.resize(i + 1, None);
                }
                names[i] = Some(label.clone());
            }
        }
        Names(names)
    }

    fn raw(&self, n: NodeId) -> Option<&str> {
        self.0.get(n.index()).and_then(|l| l.as_deref())
    }

    fn display(&self, n: NodeId) -> String {
        crate::model::display(self.raw(n), n)
    }
}

// ---------------------------------------------------------------------------
// Waves
// ---------------------------------------------------------------------------

/// Statistics of one propagation wave.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStats {
    /// The wave id from its `PropagateBegin`.
    pub wave: u64,
    /// Nodes dirtied into this wave — including the seed dirt queued before
    /// the wave began (writes and batch commits between waves).
    pub dirtied: usize,
    /// Bodies re-executed during the wave.
    pub executed: usize,
    /// Executions that committed a different value.
    pub changed: usize,
    /// Cutoff stops (equal value found; propagation pruned).
    pub cutoffs: usize,
    /// Calls answered from cache.
    pub cache_hits: usize,
    /// Dirty nodes processed, from `PropagateEnd` (`None` if the trace ends
    /// mid-wave).
    pub steps: Option<u64>,
    /// Length of the longest causal dirtying chain in the wave.
    pub depth: usize,
    /// That longest chain, origin first, rendered with labels.
    pub critical_path: Vec<String>,
}

/// All waves of a trace plus the work done outside any wave.
#[derive(Debug, Clone, PartialEq)]
pub struct WavesReport {
    /// Executions delivered outside any wave — the initial from-scratch
    /// runs when memos are first called.
    pub initial_executions: usize,
    /// Per-wave statistics, in wave order.
    pub waves: Vec<WaveStats>,
}

/// Computes per-wave statistics (see [`WaveStats`]).
///
/// Dirtying that happens *between* waves (the seed write, batch commits) is
/// charged to the wave that drains it — the next one to begin — mirroring
/// the `BatchCommit.wave` linkage the runtime emits.
pub fn waves(tf: &TraceFile) -> WavesReport {
    let names = Names::build(&tf.records);
    let mut report = WavesReport {
        initial_executions: 0,
        waves: Vec::new(),
    };
    // Seed dirt queued since the last wave ended: (node, cause).
    let mut pending: Vec<(NodeId, Option<NodeId>)> = Vec::new();
    let mut current: Option<WaveStats> = None;
    // Per-node dirtying depth and cause link within the open wave.
    let mut depth: HashMap<usize, (usize, Option<NodeId>)> = HashMap::new();

    let mark = |depth: &mut HashMap<usize, (usize, Option<NodeId>)>,
                node: NodeId,
                cause: Option<NodeId>| {
        let d = cause
            .and_then(|c| depth.get(&c.index()).map(|(d, _)| *d))
            .unwrap_or(0)
            + 1;
        depth.insert(node.index(), (d, cause));
    };

    for rec in &tf.records {
        match &rec.event {
            TraceEvent::PropagateBegin { wave } => {
                let mut stats = WaveStats {
                    wave: *wave,
                    dirtied: 0,
                    executed: 0,
                    changed: 0,
                    cutoffs: 0,
                    cache_hits: 0,
                    steps: None,
                    depth: 0,
                    critical_path: Vec::new(),
                };
                depth.clear();
                for (node, cause) in pending.drain(..) {
                    stats.dirtied += 1;
                    mark(&mut depth, node, cause);
                }
                current = Some(stats);
            }
            TraceEvent::PropagateEnd { steps, .. } => {
                if let Some(mut stats) = current.take() {
                    stats.steps = Some(*steps);
                    finalize(&mut stats, &depth, &names);
                    report.waves.push(stats);
                }
            }
            TraceEvent::Dirtied { node, cause, .. } => match current.as_mut() {
                Some(stats) => {
                    stats.dirtied += 1;
                    mark(&mut depth, *node, *cause);
                }
                None => pending.push((*node, *cause)),
            },
            TraceEvent::ExecuteEnd { changed, .. } => match current.as_mut() {
                Some(stats) => {
                    stats.executed += 1;
                    if *changed {
                        stats.changed += 1;
                    }
                }
                None => report.initial_executions += 1,
            },
            TraceEvent::CutoffStop { .. } => {
                if let Some(stats) = current.as_mut() {
                    stats.cutoffs += 1;
                }
            }
            TraceEvent::CacheHit { .. } => {
                if let Some(stats) = current.as_mut() {
                    stats.cache_hits += 1;
                }
            }
            _ => {}
        }
    }
    // A trace truncated mid-wave still reports the partial wave.
    if let Some(mut stats) = current.take() {
        finalize(&mut stats, &depth, &names);
        report.waves.push(stats);
    }
    report
}

/// Fills `depth` / `critical_path` from the wave's dirtying-depth map.
fn finalize(stats: &mut WaveStats, depth: &HashMap<usize, (usize, Option<NodeId>)>, names: &Names) {
    let Some((&deepest, &(d, _))) = depth
        .iter()
        .max_by_key(|(i, (d, _))| (*d, std::cmp::Reverse(**i)))
    else {
        return;
    };
    stats.depth = d;
    let mut path = Vec::new();
    let mut cur = Some(NodeId::from_index(deepest));
    while let Some(n) = cur {
        path.push(names.display(n));
        if path.len() > depth.len() {
            break; // defensive: cause links never cycle in a real trace
        }
        cur = depth.get(&n.index()).and_then(|(_, c)| *c);
    }
    path.reverse();
    stats.critical_path = path;
}

/// Renders [`waves`] as a human-readable multi-line report.
pub fn waves_report(tf: &TraceFile) -> String {
    let r = waves(tf);
    let mut out = String::new();
    if r.initial_executions > 0 {
        let _ = writeln!(
            out,
            "initial run (outside waves): {} executions",
            r.initial_executions
        );
    }
    if r.waves.is_empty() {
        out.push_str("no propagation waves in trace\n");
        return out;
    }
    for w in &r.waves {
        let steps = match w.steps {
            Some(s) => s.to_string(),
            None => "? (trace ends mid-wave)".to_string(),
        };
        let _ = writeln!(
            out,
            "wave {}: dirtied {}, executed {} ({} changed), cutoffs {}, cache hits {}, steps {}, depth {}",
            w.wave, w.dirtied, w.executed, w.changed, w.cutoffs, w.cache_hits, steps, w.depth
        );
        if !w.critical_path.is_empty() {
            let _ = writeln!(out, "  critical path: {}", w.critical_path.join(" -> "));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Waste
// ---------------------------------------------------------------------------

/// Per-label execution accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasteRow {
    /// The node label (memo name), or `nI` for unlabeled nodes.
    pub label: String,
    /// Executions whose committed value differed from the stored one.
    pub productive: usize,
    /// Executions that recomputed an equal value — work a finer-grained
    /// dependency or an earlier cutoff could have avoided.
    pub wasted: usize,
}

/// Every `ExecuteEnd` of the trace classified productive vs wasted.
///
/// Invariant: `productive + wasted == total`, and `total` equals the number
/// of `ExecuteEnd` records in the file — nothing is silently skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasteReport {
    /// Per-label rows, most wasted first (ties break by label).
    pub rows: Vec<WasteRow>,
    /// Total executions that changed their value.
    pub productive: usize,
    /// Total executions that did not.
    pub wasted: usize,
    /// Total `ExecuteEnd` records classified.
    pub total: usize,
}

/// Classifies every execution in the trace (see [`WasteReport`]).
pub fn waste(tf: &TraceFile) -> WasteReport {
    let names = Names::build(&tf.records);
    let mut per_label: HashMap<String, (usize, usize)> = HashMap::new();
    let (mut productive, mut wasted) = (0usize, 0usize);
    for rec in &tf.records {
        let TraceEvent::ExecuteEnd { node, changed } = rec.event else {
            continue;
        };
        let label = names
            .raw(node)
            .map(str::to_string)
            .unwrap_or_else(|| node.to_string());
        let entry = per_label.entry(label).or_insert((0, 0));
        if changed {
            entry.0 += 1;
            productive += 1;
        } else {
            entry.1 += 1;
            wasted += 1;
        }
    }
    let mut rows: Vec<WasteRow> = per_label
        .into_iter()
        .map(|(label, (productive, wasted))| WasteRow {
            label,
            productive,
            wasted,
        })
        .collect();
    rows.sort_by(|a, b| b.wasted.cmp(&a.wasted).then_with(|| a.label.cmp(&b.label)));
    WasteReport {
        rows,
        productive,
        wasted,
        total: productive + wasted,
    }
}

/// Renders [`waste`] as a human-readable table.
pub fn waste_report(tf: &TraceFile) -> String {
    let r = waste(tf);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "waste: {} executions, {} productive (changed), {} wasted (unchanged value)",
        r.total, r.productive, r.wasted
    );
    if r.rows.is_empty() {
        out.push_str("  (no executions in trace)\n");
        return out;
    }
    let width = r
        .rows
        .iter()
        .map(|row| row.label.len())
        .max()
        .unwrap_or(0)
        .max("label".len());
    let _ = writeln!(out, "  {:<width$}  productive  wasted", "label");
    for row in &r.rows {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10}  {:>6}",
            row.label, row.productive, row.wasted
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceFile;

    const SAMPLE: &str = r#"{"meta":{"format":"alphonse-trace","version":1,"dropped":0}}
{"ts":0,"ev":"NodeCreated","node":0,"kind":"Location","label":"a"}
{"ts":1,"ev":"NodeCreated","node":1,"kind":"Computation","label":"top"}
{"ts":2,"ev":"ExecuteEnd","node":1,"changed":true,"label":"top"}
{"ts":3,"ev":"Write","node":0,"changed":true,"label":"a"}
{"ts":4,"ev":"Dirtied","node":0,"reason":"WriteChanged","label":"a"}
{"ts":5,"wave":1,"ev":"PropagateBegin"}
{"ts":6,"wave":1,"ev":"Dirtied","node":2,"reason":"Fanout","cause":0}
{"ts":7,"wave":1,"ev":"ExecuteEnd","node":2,"changed":false}
{"ts":8,"wave":1,"ev":"CutoffStop","node":2}
{"ts":9,"wave":1,"ev":"Dirtied","node":1,"reason":"Fanout","cause":2,"label":"top"}
{"ts":10,"wave":1,"ev":"ExecuteEnd","node":1,"changed":true,"label":"top"}
{"ts":11,"wave":1,"ev":"CacheHit","node":2}
{"ts":12,"wave":1,"ev":"PropagateEnd","steps":3}
"#;

    #[test]
    fn waves_charges_seed_dirt_to_the_draining_wave() {
        let tf = TraceFile::parse(SAMPLE).unwrap();
        let r = waves(&tf);
        assert_eq!(r.initial_executions, 1);
        assert_eq!(r.waves.len(), 1);
        let w = &r.waves[0];
        assert_eq!(w.wave, 1);
        assert_eq!(w.dirtied, 3, "seed dirt on n0 counts into wave 1");
        assert_eq!(w.executed, 2);
        assert_eq!(w.changed, 1);
        assert_eq!(w.cutoffs, 1);
        assert_eq!(w.cache_hits, 1);
        assert_eq!(w.steps, Some(3));
        assert_eq!(w.depth, 3);
        assert_eq!(w.critical_path, vec!["a (n0)", "n2", "top (n1)"]);
    }

    #[test]
    fn waste_totals_cover_every_execution() {
        let tf = TraceFile::parse(SAMPLE).unwrap();
        let r = waste(&tf);
        assert_eq!(r.total, tf.executions());
        assert_eq!(r.productive + r.wasted, r.total);
        assert_eq!(r.productive, 2);
        assert_eq!(r.wasted, 1);
        // Most wasted first: the unlabeled n2 row leads.
        assert_eq!(r.rows[0].label, "n2");
        assert_eq!(r.rows[0].wasted, 1);
        assert_eq!(r.rows[1].label, "top");
        assert_eq!(r.rows[1].productive, 2);
    }

    #[test]
    fn reports_render_without_panicking() {
        let tf = TraceFile::parse(SAMPLE).unwrap();
        let w = waves_report(&tf);
        assert!(w.contains("wave 1:"), "{w}");
        assert!(w.contains("critical path: a (n0) -> n2 -> top (n1)"), "{w}");
        let s = waste_report(&tf);
        assert!(s.contains("3 executions"), "{s}");
    }
}
