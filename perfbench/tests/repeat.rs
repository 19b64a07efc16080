//! Counts must repeat exactly for a seed, so that a later change may rest a
//! claim on them; and the seed must reach the generated inputs.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use alphonse_perfbench::harness::{Metric, Report, Scale};
use alphonse_perfbench::workloads::Kind;

/// One round of `kind` at the small scale, traced (the per-layer ledger).
fn one_round(kind: Kind, seed: u64) -> Report {
    let report = kind.run(seed, 0.0, true, Scale::Small);
    assert_eq!(
        report.rounds,
        1,
        "{}: seconds 0 runs exactly one round",
        kind.name()
    );
    assert_eq!(
        report.checked.failed,
        0,
        "{}: {:?}",
        kind.name(),
        report.checked.first_failure
    );
    report
}

/// Count-type metrics: everything measured in operations, not time or
/// bytes (the test binary has no counting allocator).
fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|m: &&Metric| matches!(m.unit, "1/update" | "count" | "ratio"))
        .filter(|m| !m.name.starts_with("mem."))
        .map(|m| (m.name, m.value))
        .collect()
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for kind in Kind::ALL {
        let (a, b) = (one_round(kind, 11), one_round(kind, 11));
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, same inputs",
            kind.name()
        );
        assert_eq!(counts(&a), counts(&b), "{}", kind.name());
        assert!(
            metric(&a, "runtime.executions") > 0.0,
            "{}: updates re-executed nothing",
            kind.name()
        );
        assert!(metric(&a, "graph.nodes") > 0.0, "{}", kind.name());
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    for kind in Kind::ALL {
        assert_ne!(
            one_round(kind, 11).digest,
            one_round(kind, 12).digest,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn workload_counters_reach_their_layers() {
    let sheet = one_round(Kind::SheetGrid, 5);
    // Every sixteenth update submits one cyclic edit, and each is rejected.
    assert_eq!(metric(&sheet, "sheet.rejected_edits"), 1.0 / 16.0);
    assert_eq!(metric(&sheet, "runtime.batched_writes"), 16.0);
    let avl = one_round(Kind::AvlLang, 5);
    assert!(metric(&avl, "lang.steps") > 0.0);
    assert!(metric(&avl, "memo.cache_hits") > 0.0);
    let pool = one_round(Kind::TenantsPool, 5);
    assert!(metric(&pool, "pool.query_us") > 0.0);
    assert!(metric(&pool, "ledger.unattributed_pct") <= 10.0);
}
