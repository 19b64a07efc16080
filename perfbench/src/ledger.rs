//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each update gets one root span (`update`), each setup one root span
//! (`setup`); every layer call inside is a child span. Spans stay in memory
//! and are aggregated (and optionally written out) when the run ends. With
//! the ledger off, [`Ledger::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span name of one update.
pub const UPDATE: &str = "update";
/// Root span name of one setup.
pub const SETUP: &str = "setup";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    /// Index of the root span this span belongs to (itself for a root).
    root: u32,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Ledger {
    /// A ledger that records when `on`.
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p as usize].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` and every span opened after it (a panic may have
    /// skipped their closes).
    pub fn close(&mut self, open: Open) {
        let Open(Some(idx)) = open else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    /// Aggregates the recorded spans.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut sum = Summary::default();
        // Per setup root: total duration of each span name inside it.
        let mut per_setup: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            match self.spans[s.root as usize].name {
                UPDATE => {
                    if s.parent.is_none() {
                        sum.updates += 1;
                        sum.update_ns += dur;
                        sum.unattributed_ns += self_ns;
                    } else {
                        *sum.update_self_ns.entry(s.name).or_default() += self_ns;
                    }
                }
                SETUP if s.parent.is_some() => {
                    *per_setup
                        .entry(s.root)
                        .or_default()
                        .entry(s.name)
                        .or_default() += dur;
                }
                _ => {}
            }
        }
        for (_, names) in per_setup {
            for (name, ns) in names {
                sum.setup_ns.entry(name).or_default().push(ns);
            }
        }
        sum
    }

    /// The spans as a Chrome trace-event document (open it in Perfetto or
    /// `chrome://tracing`); `args.root` is the id of the update or setup span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"root\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.root,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Aggregated spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Update root spans.
    pub updates: u64,
    /// Total duration of the update root spans.
    pub update_ns: u64,
    /// Update root time not covered by any child span.
    pub unattributed_ns: u64,
    /// Self time per child span name, summed over all updates.
    pub update_self_ns: BTreeMap<&'static str, u64>,
    /// Per span name inside setups: one total per setup.
    pub setup_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Summary {
    /// Mean self time of `name` per update, in microseconds.
    pub fn per_update_us(&self, name: &str) -> f64 {
        let ns = self.update_self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.updates.max(1) as f64
    }

    /// Median over setups of the time spent in `name`, in seconds.
    pub fn setup_median_s(&self, name: &str) -> f64 {
        self.setup_ns
            .get(name)
            .map_or(0.0, |v| crate::stats::median_u64(v) as f64 / 1e9)
    }

    /// Share of update time no child span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_ns as f64 / self.update_ns.max(1) as f64
    }
}
