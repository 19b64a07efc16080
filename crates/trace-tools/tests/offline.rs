//! End-to-end tests over real runtime traces: record the canonical diamond
//! through the live sinks, then replay the artifacts through the offline
//! tooling and check the two sides agree.

use alphonse::trace::{JsonlSink, Recorder, Tee, TraceSink};
use alphonse::{Runtime, Strategy};
use alphonse_trace_tools::json::Json;
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::{report, views};
use std::sync::{Arc, Mutex};

/// An in-memory writer the test can read back after the sink is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take_string(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// Runs the canonical diamond (`a` feeds `left = a/100` and `right = a*2`,
/// both feed `top`) under `sink`: initial call, then a changed write and a
/// propagation wave. Returns the runtime, detached from the sink.
fn run_diamond(sink: Arc<dyn TraceSink>) -> Runtime {
    let rt = Runtime::new();
    rt.set_sink(Some(sink));
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    assert_eq!(top.call(&rt, ()), 20);
    a.set(&rt, 20);
    rt.propagate();
    rt.set_sink(None);
    rt
}

/// Records the diamond simultaneously into a [`Recorder`] (live truth) and
/// a [`JsonlSink`] (the on-disk format), returning both views.
fn record_diamond() -> (Arc<Recorder>, String) {
    let (_, rec, text) = record_diamond_live();
    (rec, text)
}

/// [`record_diamond`], also returning the traced runtime so offline views
/// can be checked against its live state.
fn record_diamond_live() -> (Runtime, Arc<Recorder>, String) {
    let buf = SharedBuf::default();
    let rec = Arc::new(Recorder::new(4096));
    let jsonl = Arc::new(JsonlSink::new(buf.clone()).unwrap());
    let rt = run_diamond(Arc::new(Tee::new(vec![rec.clone(), jsonl.clone()])));
    jsonl.flush().unwrap();
    (rt, rec, buf.take_string())
}

/// The diamond's trace as the offline tools read it.
fn diamond_file() -> TraceFile {
    TraceFile::parse(&record_diamond().1).unwrap()
}

#[test]
fn jsonl_round_trip_preserves_the_event_sequence() {
    let (rec, text) = record_diamond();
    let tf = TraceFile::parse(&text).expect("the streamed document parses");
    assert_eq!(tf.meta.dropped, 0);
    let replayed: Vec<_> = tf.records.iter().map(|r| r.event.clone()).collect();
    assert_eq!(
        replayed,
        rec.events(),
        "replaying the JSONL yields the exact live event sequence"
    );
}

#[test]
fn recorder_jsonl_export_round_trips_too() {
    let (rec, _) = record_diamond();
    let tf = TraceFile::parse(&rec.to_jsonl()).expect("Recorder::to_jsonl parses");
    assert_eq!(tf.meta.capacity, Some(4096));
    let replayed: Vec<_> = tf.records.iter().map(|r| r.event.clone()).collect();
    assert_eq!(replayed, rec.events());
}

#[test]
fn offline_why_matches_the_live_golden() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let prov = tf.replay_provenance();
    let top = prov.node_by_label("top").expect("top is labeled");
    let report = prov.why_report(top).expect("top was dirtied");
    // Same golden as the live-index test in alphonse::trace::provenance.
    let golden = "\
why top (n1): wave 1
  write a (n0) changed=true
  -> dirtied a (n0) [WriteChanged]
  -> dirtied right (n3) [Fanout <- a (n0)]
  -> dirtied top (n1) [Fanout <- right (n3)]
  -> executed top (n1) changed=true
";
    assert_eq!(report, golden, "offline why diverged:\n{report}");
}

#[test]
fn waste_accounts_for_every_execution() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let w = report::waste(&tf);
    assert_eq!(w.total, tf.executions());
    assert_eq!(w.productive + w.wasted, w.total);
    // Initial run: left, right, top execute (3 productive). The wave:
    // left recomputes to an equal value (wasted), right and top change.
    assert_eq!(w.productive, 5);
    assert_eq!(w.wasted, 1);
    let left = w.rows.iter().find(|r| r.label == "left").unwrap();
    assert_eq!((left.productive, left.wasted), (1, 1));
}

#[test]
fn waves_summarizes_the_propagation() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let r = report::waves(&tf);
    assert_eq!(r.initial_executions, 3);
    assert_eq!(r.waves.len(), 1);
    let w = &r.waves[0];
    assert_eq!(w.wave, 1);
    assert_eq!(w.executed, 3);
    assert_eq!(w.changed, 2);
    assert_eq!(w.steps, Some(4));
    // Longest causal chain: a -> right -> top (left's arm cuts off).
    assert_eq!(w.depth, 3);
    assert_eq!(w.critical_path, vec!["a (n0)", "right (n3)", "top (n1)"]);
}

#[test]
fn chrome_trace_is_valid_json_with_well_nested_spans() {
    let doc = Json::parse(&views::chrome(&diamond_file())).expect("Chrome trace is valid JSON");
    let events = doc.as_arr().expect("top level is an array");
    assert!(!events.is_empty());
    let mut open = 0i64;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every record has ph");
        match ph {
            "B" => {
                assert!(ev.get("name").is_some(), "begin spans carry a name");
                open += 1;
            }
            "E" => {
                open -= 1;
                assert!(open >= 0, "span end without a matching begin");
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(open, 0, "every begun span ends");
}

#[test]
fn chrome_trace_from_diamond_is_valid_json_shape() {
    let json = views::chrome(&diamond_file());
    assert!(json.starts_with("[\n") && json.ends_with(']'));
    // Spans balance: one E per B (3 initial + 3 re-executions + 1
    // propagation run).
    let begins = json.matches(r#""ph":"B""#).count();
    let ends = json.matches(r#""ph":"E""#).count();
    assert_eq!(begins, ends, "unbalanced spans:\n{json}");
    assert_eq!(begins, 7, "expected 6 exec spans + 1 propagate span");
    assert!(json.contains(r#""name":"exec top (n1)""#), "{json}");
    assert!(json.contains(r#""name":"cutoff left (n2)""#), "{json}");
}

#[test]
fn chrome_exec_spans_tally_only_their_own_reads_and_edges() {
    // Regression: one shared tally reset at every span start let `right`'s
    // read leak into the enclosing first `top` span (`"reads":1`), though
    // `top` reads no location — it only calls the arms and adds two edges.
    let json = views::chrome(&diamond_file());
    let exec_args: Vec<&str> = json
        .lines()
        .filter(|l| l.starts_with(r#"{"ph":"E""#) && l.contains(r#""reads""#))
        .map(|l| l[l.find(r#""args""#).unwrap()..].trim_end_matches(','))
        .collect();
    let golden = [
        // Initial build: `left` and `right` end inside `top`.
        r#""args":{"changed":true,"reads":1,"edges":1}}"#,
        r#""args":{"changed":true,"reads":1,"edges":1}}"#,
        r#""args":{"changed":true,"reads":0,"edges":2}}"#,
        // The wave: right, left (cut off), then top once.
        r#""args":{"changed":true,"reads":1,"edges":1}}"#,
        r#""args":{"changed":false,"reads":1,"edges":1}}"#,
        r#""args":{"changed":true,"reads":0,"edges":2}}"#,
    ];
    assert_eq!(exec_args, golden, "{json}");
}

#[test]
fn hot_counts_diamond_executions() {
    let prof = views::hot(&diamond_file());
    assert_eq!(prof.total_execs(), 6); // 3 initial + 3 re-executions
    assert_eq!(prof.propagations, 1); // only the explicit rt.propagate()
    let report = prof.render(3);
    assert!(report.contains("top (n1)"), "{report}");
    assert!(
        report.lines().count() <= 2 + 3,
        "top-k not applied:\n{report}"
    );
}

#[test]
fn graph_mirror_agrees_with_live_snapshot_topology() {
    let (rt, _, text) = record_diamond_live();
    let live = rt.graph_snapshot();
    let mirrored = views::graph_snapshot(&TraceFile::parse(&text).unwrap());
    assert_eq!(live.nodes.len(), mirrored.nodes.len());
    let mut live_edges = live.edges.clone();
    let mut mirror_edges = mirrored.edges.clone();
    live_edges.sort();
    mirror_edges.sort();
    assert_eq!(live_edges, mirror_edges);
    for (l, m) in live.nodes.iter().zip(&mirrored.nodes) {
        assert_eq!(l.kind, m.kind, "kind mismatch at {}", l.id);
        assert_eq!(l.label, m.label, "label mismatch at {}", l.id);
    }
    // The event-driven mirror also carries execution counts the live
    // snapshot cannot: 3 initial executions + 3 re-executions.
    assert_eq!(mirrored.nodes.iter().map(|n| n.execs).sum::<u64>(), 6);
}

#[test]
fn offline_dot_shows_the_drained_wave_like_the_live_snapshot() {
    // Regression: the mirror cleared dirt only on `ExecuteEnd`, which a
    // location never emits, so the written `a` stayed queued (bold red
    // border) after its wave drained.
    let (rt, _, text) = record_diamond_live();
    let live = rt.graph_snapshot();
    let mirrored = views::graph_snapshot(&TraceFile::parse(&text).unwrap());
    for (l, m) in live.nodes.iter().zip(&mirrored.nodes) {
        assert_eq!(
            (l.queued, l.consistent),
            (m.queued, m.consistent),
            "queue/consistency mismatch at {}",
            l.id
        );
    }
    assert_eq!(live.edges.len(), mirrored.edges.len());
    let dot = views::dot(&TraceFile::parse(&text).unwrap());
    assert!(!dot.contains("penwidth"), "nothing is queued:\n{dot}");
}
