//! Shared trace activation: one spec grammar for every entry point.
//!
//! The bench harness (`--trace <spec>`, `--trace-out <path>`) and the lang
//! interpreter (`ALPHONSE_TRACE=<spec>`) both funnel through
//! [`TraceConfig`]. The spec grammar:
//!
//! | spec | consumer |
//! |---|---|
//! | `1` | stderr event dump via a bounded [`Recorder`] |
//! | `jsonl[:path]`, or any path-like value | JSONL event stream ([`JsonlSink`]; default `TRACE_<stem>.jsonl`) |
//!
//! Every other view is an `alphonse-trace` command over the recorded
//! stream: record with `jsonl:<path>`, then run `alphonse-trace chrome
//! <path>` (Perfetto spans), `dot <path>` (dependency graph) or `hot <path>`
//! (hot-node table). The retired live-view specs `chrome`, `dot` and `hot`
//! are refused with that two-step hint.
//!
//! [`TraceConfig::start`] yields an [`ActiveTrace`]: the requested consumer
//! teed with a live [`Provenance`] index, so causal `why(node)` queries are
//! always available while tracing — the lang interpreter quotes them in
//! runtime error messages.

use super::provenance::Provenance;
use super::{JsonlSink, Recorder, Tee, TraceSink};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Capacity of the stderr recorder (spec `1`). Large enough for small
/// programs to be complete; the dump warns when the ring dropped events.
const STDERR_RING: usize = 8192;

/// A parsed trace spec: which consumer to attach and where its output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceConfig {
    /// Record everything and dump human-readable lines to stderr at the end.
    Stderr,
    /// Stream every event as JSON lines to this file.
    Jsonl(PathBuf),
}

impl TraceConfig {
    /// Parses a trace spec (see the [module docs](self) for the grammar).
    /// `stem` names the default output file, `TRACE_<stem>.jsonl`.
    pub fn parse(spec: &str, stem: &str) -> Result<TraceConfig, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        match head {
            "1" if arg.is_none() => Ok(TraceConfig::Stderr),
            "jsonl" => Ok(TraceConfig::Jsonl(
                arg.map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from(format!("TRACE_{stem}.jsonl"))),
            )),
            // Matched before the path fall-through: `chrome:x.json` contains
            // a `.` and would otherwise be taken as a JSONL file name.
            "chrome" | "dot" | "hot" => Err(format!(
                "trace spec `{spec}` is no longer a live consumer: record with \
                 `jsonl:<path>`, then run `alphonse-trace {head} <path>`"
            )),
            // Any path-like value is shorthand for `jsonl:<path>` — the
            // common `ALPHONSE_TRACE=trace.jsonl` case.
            _ if spec.contains('.') || spec.contains('/') => {
                Ok(TraceConfig::Jsonl(PathBuf::from(spec)))
            }
            _ => Err(format!(
                "unrecognized trace spec `{spec}` (expected 1, jsonl[:path], or a file path)"
            )),
        }
    }

    /// Reads the `ALPHONSE_TRACE` environment variable. `None` when unset
    /// or empty; `Some(Err(…))` when set but malformed.
    pub fn from_env(stem: &str) -> Option<Result<TraceConfig, String>> {
        match std::env::var("ALPHONSE_TRACE") {
            Ok(v) if !v.is_empty() => Some(TraceConfig::parse(&v, stem)),
            _ => None,
        }
    }

    /// Builds the consumer (creating the output file where needed) and tees
    /// it with a live [`Provenance`] index.
    pub fn start(self) -> io::Result<ActiveTrace> {
        let provenance = Arc::new(Provenance::new());
        let (consumer, consumer_sink): (Consumer, Arc<dyn TraceSink>) = match self {
            TraceConfig::Stderr => {
                let rec = Arc::new(Recorder::new(STDERR_RING));
                (Consumer::Stderr(rec.clone()), rec)
            }
            TraceConfig::Jsonl(path) => {
                let sink = Arc::new(JsonlSink::create(&path)?);
                (
                    Consumer::Jsonl {
                        sink: sink.clone(),
                        path,
                    },
                    sink,
                )
            }
        };
        let sink = Arc::new(Tee::new(vec![
            provenance.clone() as Arc<dyn TraceSink>,
            consumer_sink,
        ]));
        Ok(ActiveTrace {
            consumer,
            provenance,
            sink,
        })
    }
}

enum Consumer {
    Stderr(Arc<Recorder>),
    Jsonl { sink: Arc<JsonlSink>, path: PathBuf },
}

/// A started trace: hand [`ActiveTrace::sink`] to the runtime (or install
/// it as the thread default), then call [`ActiveTrace::finish`] once the
/// workload is done to flush or print the consumer's output.
pub struct ActiveTrace {
    consumer: Consumer,
    provenance: Arc<Provenance>,
    sink: Arc<Tee>,
}

impl ActiveTrace {
    /// The sink to attach (tee of the consumer and the provenance index).
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.sink.clone() as Arc<dyn TraceSink>
    }

    /// The live causal index fed by this trace.
    pub fn provenance(&self) -> &Arc<Provenance> {
        &self.provenance
    }

    /// Installs [`ActiveTrace::sink`] as the thread-default sink (picked up
    /// by runtimes built afterwards); returns the previous default.
    pub fn install_default(&self) -> Option<Arc<dyn TraceSink>> {
        super::set_default_sink(Some(self.sink()))
    }

    /// Finalizes the consumer: dumps the recorder to stderr, or flushes the
    /// JSONL file and returns a one-line completion message naming it.
    pub fn finish(self) -> io::Result<Option<String>> {
        match self.consumer {
            Consumer::Stderr(rec) => {
                eprint!("{}", rec.dump());
                Ok(None)
            }
            Consumer::Jsonl { sink, path } => {
                sink.flush()?;
                Ok(Some(format!("trace: wrote {}", path.display())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn parse_covers_the_grammar() {
        let p = |s: &str| TraceConfig::parse(s, "bin");
        assert_eq!(p("1"), Ok(TraceConfig::Stderr));
        assert_eq!(p("jsonl"), Ok(TraceConfig::Jsonl("TRACE_bin.jsonl".into())));
        assert_eq!(p("jsonl:x.jsonl"), Ok(TraceConfig::Jsonl("x.jsonl".into())));
        assert_eq!(
            p("out/t.jsonl"),
            Ok(TraceConfig::Jsonl("out/t.jsonl".into()))
        );
        // The retired live views are refused with the two-step replacement,
        // even when the argument looks like a path.
        for (spec, cmd) in [
            ("chrome", "chrome"),
            ("chrome:x.json", "chrome"),
            ("dot", "dot"),
            ("hot", "hot"),
            ("hot:5", "hot"),
        ] {
            let err = p(spec).unwrap_err();
            assert!(err.contains("jsonl:<path>"), "{spec}: {err}");
            assert!(
                err.contains(&format!("alphonse-trace {cmd} <path>")),
                "{spec}: {err}"
            );
        }
        assert!(p("hot:x").is_err());
        assert!(p("bogus").is_err());
    }

    #[test]
    fn stderr_session_feeds_provenance() {
        let active = TraceConfig::Stderr.start().unwrap();
        let rt = Runtime::new();
        rt.set_sink(Some(active.sink()));
        let v = rt.var_named("v", 1i64);
        let double = rt.memo("double", move |rt, &(): &()| v.get(rt) * 2);
        double.call(&rt, ());
        v.set(&rt, 2);
        rt.propagate();
        rt.set_sink(None);
        let prov = active.provenance().clone();
        let n = double.instance_node(&()).unwrap();
        let chain = prov.why(n).expect("double was dirtied by the write");
        assert_eq!(chain.write, Some((v.node(), true)));
        // finish() dumps to stderr and returns no message.
        assert_eq!(active.finish().unwrap(), None);
    }
}
