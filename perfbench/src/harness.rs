//! The closed loop shared by every workload, and the metrics it reports.
//!
//! A run is a sequence of *rounds*. Each round generates fresh inputs from
//! `(seed, round)`, builds the structure from an empty runtime (timed as one
//! `setup_s` sample), checks the first answer set, then applies a fixed
//! number of updates. Each update applies one edit and demands every answer
//! the workload watches; only that part is timed. Edit generation and the
//! reference checks run between updates, outside the timed spans. Rounds
//! repeat until the run has used its seconds, so every round measures the
//! same distribution and a faster program gets more samples, not a larger
//! structure.
//!
//! Counts are taken on round 0 only, over its fixed update sequence, so
//! they repeat exactly for a seed whatever the machine's speed.

use crate::ledger::{self, Ledger, Summary};
use crate::rng::Rng;
use crate::stats;
use alphonse::mem;
use alphonse::Stats;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Input size: `Full` for measurement, `Small` for the repeat tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Reduced sizes with the same structure, for tests.
    Small,
}

/// Work counters by name: every `Runtime::stats` field (`Stats::fields`),
/// plus `lang_steps` (`Interp::steps`) and `rejected_edits` (sheet edits
/// rejected as cycles), which the runtime does not keep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    /// The runtime's counters.
    pub fn from_stats(s: &Stats) -> Counts {
        Counts(s.fields().into_iter().collect())
    }

    /// Adds (or replaces) one counter.
    pub fn with(mut self, name: &'static str, value: u64) -> Counts {
        self.0.insert(name, value);
        self
    }

    /// One counter; 0 when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Counter-wise sum.
    pub fn plus(&self, o: &Counts) -> Counts {
        let mut sum = self.clone();
        for (name, v) in &o.0 {
            *sum.0.entry(name).or_default() += v;
        }
        sum
    }

    /// Counter-wise difference (`self` is the later reading).
    pub fn minus(&self, o: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(name, v)| (*name, v.saturating_sub(o.get(name))))
                .collect(),
        )
    }
}

/// Operations checked against the reference, and those that failed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checked {
    pub ops: u64,
    pub failed: u64,
    /// The first failure's description.
    pub first_failure: Option<String>,
}

impl Checked {
    /// One operation; `Err` describes how it failed.
    pub fn op(result: Result<(), String>) -> Checked {
        let mut c = Checked::default();
        c.record(result);
        c
    }

    /// Adds one operation.
    pub fn record(&mut self, result: Result<(), String>) {
        self.ops += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Checked) {
        self.ops += other.ops;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// One workload of the benchmark.
///
/// `setup` and `apply` are the timed calls into the program; everything
/// else is the benchmark's own work and runs outside the timed spans.
pub trait Workload: Sized {
    /// One round's generated inputs, with what the reference needs.
    type Input;
    /// One update's edit.
    type Edit;
    /// What one update's demands returned.
    type Answer;

    /// Updates per round.
    fn updates_per_round(scale: Scale) -> usize;
    /// Generates a round's inputs.
    fn generate(rng: Rng, scale: Scale) -> Self::Input;
    /// A fingerprint of the generated inputs.
    fn digest(input: &Self::Input) -> u64;
    /// Builds the structure from an empty runtime and demands the first
    /// answer set.
    fn setup(input: Self::Input, ledger: &mut Ledger) -> Self;
    /// Checks the first answer set against the reference.
    fn check_setup(&mut self) -> Checked;
    /// Generates update `i`'s edit.
    fn next_edit(&mut self, i: usize) -> Self::Edit;
    /// Applies the edit and demands the answers. May take the parts of the
    /// edit it hands to the program, so building them stays untimed.
    fn apply(&mut self, edit: &mut Self::Edit, ledger: &mut Ledger) -> Self::Answer;
    /// Advances the reference by the edit and checks the answers.
    fn verify(&mut self, edit: Self::Edit, answer: Self::Answer) -> Checked;
    /// End-of-round checks of the final state (none by default: every
    /// update was checked).
    fn finish(&mut self) -> Checked {
        Checked::default()
    }
    /// Current work counters.
    fn counts(&self) -> Counts;
    /// Dependency-graph nodes and edges.
    fn graph(&self) -> (u64, u64);
    /// Layer metrics read once per round, after `finish` (medians over
    /// rounds are reported).
    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample counts and the like, for the human-readable table.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub checked: Checked,
    pub rounds: usize,
    /// Fingerprint of round 0's generated inputs.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or the per-layer ledger (traced).
    pub metrics: Vec<Metric>,
    /// Whether the ledger reconciled (always true untraced).
    pub ledger_ok: bool,
}

/// Tallies kept across rounds.
#[derive(Default)]
struct Tally {
    checked: Checked,
    rounds: usize,
    digest: u64,
    setup_ns: Vec<u64>,
    latency_ns: Vec<u64>,
    /// Round 0: counters at the end of setup.
    setup_counts: Counts,
    /// Round 0: counters over the update sequence.
    update_counts: Counts,
    graph: (u64, u64),
    /// Round 0: live bytes each allocation tag gained during setup.
    mem_delta: BTreeMap<&'static str, i64>,
    /// Round 0: runtime and substrate bytes still live once the structure
    /// was dropped.
    retained_bytes: i64,
    /// Peak RSS at the end of round 0.
    peak_rss_mib: Option<Result<f64, String>>,
    round_metrics: BTreeMap<&'static str, Vec<f64>>,
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn mem_delta(before: &mem::MemSnapshot, after: &mem::MemSnapshot) -> BTreeMap<&'static str, i64> {
    after
        .tags
        .iter()
        .zip(&before.tags)
        .map(|(a, b)| (a.tag, a.live_bytes as i64 - b.live_bytes as i64))
        .collect()
}

/// Runs rounds of `W` until `seconds` have passed (at least one round).
pub fn run_rounds<W: Workload>(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Report {
    let start = Instant::now();
    let mut ledger = Ledger::new(traced);
    let mut t = Tally::default();
    let k = W::updates_per_round(scale);
    'rounds: for round in 0u64.. {
        let mem_start = mem::snapshot();
        let input = W::generate(Rng::derive(seed, round), scale);
        if round == 0 {
            t.digest = W::digest(&input);
        }
        let mem0 = mem::snapshot();
        let open = ledger.open(ledger::SETUP);
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| W::setup(input, &mut ledger)));
        let setup_ns = t0.elapsed().as_nanos() as u64;
        ledger.close(open);
        let mut w = match built {
            Ok(w) => w,
            Err(p) => {
                t.checked
                    .record(Err(format!("setup panicked: {}", panic_message(&*p))));
                break;
            }
        };
        t.rounds += 1;
        t.setup_ns.push(setup_ns);
        if round == 0 {
            t.setup_counts = w.counts();
            t.graph = w.graph();
            t.mem_delta = mem_delta(&mem0, &mem::snapshot());
        }
        t.checked.absorb(w.check_setup());
        let before = w.counts();
        for i in 0..k {
            let mut edit = w.next_edit(i);
            let open = ledger.open(ledger::UPDATE);
            let t0 = Instant::now();
            let answer = catch_unwind(AssertUnwindSafe(|| w.apply(&mut edit, &mut ledger)));
            let ns = t0.elapsed().as_nanos() as u64;
            ledger.close(open);
            match answer {
                Ok(a) => {
                    t.latency_ns.push(ns);
                    t.checked.absorb(w.verify(edit, a));
                }
                Err(p) => {
                    // The structure's state is unknown after a panic: count
                    // it and start a fresh round.
                    t.checked
                        .record(Err(format!("update panicked: {}", panic_message(&*p))));
                    if start.elapsed().as_secs_f64() >= seconds {
                        break 'rounds;
                    }
                    continue 'rounds;
                }
            }
        }
        t.checked.absorb(w.finish());
        if round == 0 {
            t.update_counts = w.counts().minus(&before);
        }
        for (name, v) in w.round_metrics() {
            t.round_metrics.entry(name).or_default().push(v);
        }
        drop(w);
        if round == 0 {
            // Later rounds would add whatever a dropped structure leaks, so
            // the peak is taken over exactly one structure's life.
            t.peak_rss_mib = Some(stats::peak_rss_mib());
            t.retained_bytes = mem_delta(&mem_start, &mem::snapshot())
                .iter()
                .filter(|(tag, _)| **tag != "untagged")
                .map(|(_, b)| b)
                .sum();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let summary = ledger.summary();
    let ledger_ok = !traced || summary.unattributed_pct() <= 10.0;
    let metrics = if traced {
        per_layer(&t, &summary, k)
    } else {
        end_to_end(&t)
    };
    if traced {
        if let Ok(path) = std::env::var("PERFBENCH_SPANS") {
            if let Err(e) = std::fs::write(&path, ledger.chrome_json()) {
                eprintln!("perfbench: writing spans to {path}: {e}");
            }
        }
    }
    Report {
        checked: t.checked,
        rounds: t.rounds,
        digest: t.digest,
        metrics,
        ledger_ok,
    }
}

fn updates_per_s(t: &Tally) -> f64 {
    let busy: u64 = t.latency_ns.iter().sum();
    t.latency_ns.len() as f64 / (busy.max(1) as f64 / 1e9)
}

fn end_to_end(t: &Tally) -> Vec<Metric> {
    let mut lat = t.latency_ns.clone();
    lat.sort_unstable();
    let n = lat.len();
    let (p50, p99) = if n == 0 {
        (0, 0)
    } else {
        (stats::percentile(&lat, 0.50), stats::percentile(&lat, 0.99))
    };
    let beyond = lat.iter().filter(|&&v| v > p99).count();
    let setup = if t.setup_ns.is_empty() {
        0
    } else {
        stats::median_u64(&t.setup_ns)
    };
    let rss = match &t.peak_rss_mib {
        Some(Ok(mib)) => *mib,
        Some(Err(e)) => {
            eprintln!("perfbench: {e}");
            0.0
        }
        None => 0.0,
    };
    vec![
        Metric {
            note: format!("median of {} setups", t.setup_ns.len()),
            ..metric("setup_s", setup as f64 / 1e9, "s")
        },
        Metric {
            note: format!("n={n}"),
            ..metric("update_p50_us", p50 as f64 / 1e3, "us")
        },
        Metric {
            note: format!("n={n}, {beyond} samples above"),
            ..metric("update_p99_us", p99 as f64 / 1e3, "us")
        },
        Metric {
            note: format!("n={n}, one client, busy time only"),
            ..metric("updates_per_s", updates_per_s(t), "1/s")
        },
        Metric {
            note: "VmHWM after round 0".to_string(),
            ..metric("peak_rss_mib", rss, "MiB")
        },
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise read 0.
fn per_layer(t: &Tally, s: &Summary, updates_per_round: usize) -> Vec<Metric> {
    let per = |v: u64| v as f64 / updates_per_round as f64;
    let c = &t.update_counts;
    let sc = &t.setup_counts;
    let nodes = t.graph.0.max(1) as f64;
    let tag = |name: &str| t.mem_delta.get(name).copied().unwrap_or(0) as f64;
    let total_bytes: f64 = t.mem_delta.values().map(|&b| b as f64).sum();
    let round_median = |name: &str| {
        t.round_metrics.get(name).map_or(0.0, |v| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            v[(v.len() - 1) / 2]
        })
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        metric(
            "sheet.build_set_formulas_s",
            s.setup_median_s("sheet.set_formulas"),
            "s",
        ),
        metric(
            "sheet.first_demand_s",
            s.setup_median_s("sheet.value_at"),
            "s",
        ),
        metric(
            "sheet.set_formulas_us",
            s.per_update_us("sheet.set_formulas"),
            "us",
        ),
        metric("sheet.value_at_us", s.per_update_us("sheet.value_at"), "us"),
        metric(
            "sheet.rejected_edits",
            per(c.get("rejected_edits")),
            "1/update",
        ),
        metric(
            "agkit.instantiate_s",
            s.setup_median_s("agkit.instantiate"),
            "s",
        ),
        metric("agkit.first_syn_s", s.setup_median_s("agkit.syn"), "s"),
        metric("agkit.edit_us", s.per_update_us("agkit.edit"), "us"),
        metric("agkit.syn_us", s.per_update_us("agkit.syn"), "us"),
        metric(
            "lang.compile_us",
            s.setup_median_s("lang.compile") * 1e6,
            "us",
        ),
        metric("lang.insert_us", s.per_update_us("lang.insert"), "us"),
        metric("lang.contains_us", s.per_update_us("lang.contains"), "us"),
        metric("lang.steps", per(c.get("lang_steps")), "1/update"),
        metric(
            "runtime.propagate_us",
            s.per_update_us("runtime.propagate"),
            "us",
        ),
        metric("runtime.executions", per(c.get("executions")), "1/update"),
        metric(
            "runtime.wasted_executions",
            per(c.get("wasted_executions")),
            "1/update",
        ),
        metric(
            "runtime.useful_ratio",
            1.0 - ratio(c.get("wasted_executions"), c.get("executions")),
            "ratio",
        ),
        metric("runtime.dirtied", per(c.get("dirtied")), "1/update"),
        metric(
            "runtime.propagation_steps",
            per(c.get("propagation_steps")),
            "1/update",
        ),
        metric("runtime.comparisons", per(c.get("comparisons")), "1/update"),
        metric("runtime.reads", per(c.get("reads")), "1/update"),
        metric("runtime.calls", per(c.get("calls")), "1/update"),
        metric(
            "runtime.batched_writes",
            per(c.get("batched_writes")),
            "1/update",
        ),
        metric(
            "runtime.coalesced_writes",
            per(c.get("coalesced_writes")),
            "1/update",
        ),
        metric("runtime.changes", per(c.get("changes")), "1/update"),
        metric("memo.probes", per(c.get("memo_probes")), "1/update"),
        metric("memo.cache_hits", per(c.get("cache_hits")), "1/update"),
        metric(
            "memo.hit_ratio",
            ratio(c.get("cache_hits"), c.get("memo_probes")),
            "ratio",
        ),
        metric("graph.nodes", t.graph.0 as f64, "count"),
        metric("graph.edges", t.graph.1 as f64, "count"),
        metric(
            "graph.setup_edges_created",
            sc.get("edges_created") as f64,
            "count",
        ),
        metric(
            "graph.setup_height_raises",
            sc.get("height_raises") as f64,
            "count",
        ),
        metric(
            "graph.setup_height_seeded",
            sc.get("height_seeded") as f64,
            "count",
        ),
        metric(
            "graph.edges_created",
            per(c.get("edges_created")),
            "1/update",
        ),
        metric(
            "graph.edges_removed",
            per(c.get("edges_removed")),
            "1/update",
        ),
        metric(
            "graph.height_raises",
            per(c.get("height_raises")),
            "1/update",
        ),
        metric(
            "graph.height_seeded",
            per(c.get("height_seeded")),
            "1/update",
        ),
        metric("mem.bytes_per_node", total_bytes / nodes, "B/node"),
        metric("mem.graph_core_bpn", tag("graph_core") / nodes, "B/node"),
        metric("mem.value_slab_bpn", tag("value_slab") / nodes, "B/node"),
        metric("mem.memo_bpn", tag("memo") / nodes, "B/node"),
        metric("mem.queues_bpn", tag("queues") / nodes, "B/node"),
        metric("mem.substrate_bpn", tag("substrate") / nodes, "B/node"),
        metric("mem.untagged_bpn", tag("untagged") / nodes, "B/node"),
        metric(
            "mem.untagged_share",
            if total_bytes > 0.0 {
                tag("untagged") / total_bytes
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "mem.retained_bpn",
            t.retained_bytes as f64 / nodes,
            "B/node",
        ),
        metric("pool.submit_us", s.per_update_us("pool.submit"), "us"),
        metric("pool.query_us", s.per_update_us("pool.query"), "us"),
        metric(
            "pool.sojourn_p50_us",
            round_median("pool.sojourn_p50_us"),
            "us",
        ),
        Metric {
            note: format!("n={}", t.latency_ns.len()),
            ..metric("trace.updates_per_s", updates_per_s(t), "1/s")
        },
        Metric {
            note: format!("over {} updates", s.updates),
            ..metric("ledger.unattributed_pct", s.unattributed_pct(), "%")
        },
    ]
}
