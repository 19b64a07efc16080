//! Differential testing of bulk edits: `Sheet::set_formulas` (through
//! `set_bulk`) must accept a batch exactly when the post-batch sheet is
//! acyclic, leave the sheet untouched when it rejects one, and agree with
//! the full-recalculation baseline after every accepted batch.
//!
//! Cycles are judged by a brute-force reachability oracle over the
//! post-batch formula table, computed from the generated edits themselves
//! rather than from the sheet's own reference visitor.

use alphonse::Runtime;
use alphonse_sheet::{Addr, RecalcSheet, Sheet, SheetError};
use proptest::prelude::*;

const W: u32 = 5;
const H: u32 = 5;

#[derive(Debug, Clone)]
enum Edit {
    Num(i64),
    /// May point one column or row past the sheet (an out-of-bounds
    /// reference evaluates to an error and adds no dependence).
    Ref(Addr),
    Sum(Addr, Addr),
    Expr(Addr, Addr),
}

impl Edit {
    fn src(&self) -> String {
        match self {
            Edit::Num(v) => v.to_string(),
            Edit::Ref(a) => format!("={a}"),
            Edit::Sum(from, to) => format!("=SUM({from}:{to})"),
            Edit::Expr(a, b) => format!("={a} * 2 - {b} / 3"),
        }
    }

    /// In-bounds cells this formula reads, as grid indices.
    fn refs(&self) -> Vec<usize> {
        let cells = match self {
            Edit::Num(_) => vec![],
            Edit::Ref(a) => vec![*a],
            Edit::Sum(from, to) => (from.col..=to.col)
                .flat_map(|c| (from.row..=to.row).map(move |r| Addr::new(c, r)))
                .collect(),
            Edit::Expr(a, b) => vec![*a, *b],
        };
        cells.into_iter().filter_map(index).collect()
    }
}

fn index(a: Addr) -> Option<usize> {
    (a.col < W && a.row < H).then(|| (a.row * W + a.col) as usize)
}

fn cell() -> impl Strategy<Value = Addr> {
    (0..W, 0..H).prop_map(|(c, r)| Addr::new(c, r))
}

fn target() -> impl Strategy<Value = Addr> {
    (0..W + 1, 0..H + 1).prop_map(|(c, r)| Addr::new(c, r))
}

fn edit_strategy() -> impl Strategy<Value = (Addr, Edit)> {
    let edit = prop_oneof![
        2 => (-50i64..50).prop_map(Edit::Num),
        3 => target().prop_map(Edit::Ref),
        1 => (target(), target()).prop_map(|(a, b)| Edit::Sum(
            Addr::new(a.col.min(b.col), a.row.min(b.row)),
            Addr::new(a.col.max(b.col), a.row.max(b.row)),
        )),
        2 => (target(), target()).prop_map(|(a, b)| Edit::Expr(a, b)),
    ];
    (cell(), edit)
}

/// For each cell, whether it lies on a reference cycle of `table`: a
/// breadth-first search from its references that reaches it again.
fn on_cycle(table: &[Edit]) -> Vec<bool> {
    (0..table.len())
        .map(|start| {
            let mut seen = vec![false; table.len()];
            let mut work = table[start].refs();
            while let Some(c) = work.pop() {
                if c == start {
                    return true;
                }
                if !std::mem::replace(&mut seen[c], true) {
                    work.extend(table[c].refs());
                }
            }
            false
        })
        .collect()
}

fn values(sheet: &Sheet) -> Vec<alphonse_sheet::CellValue> {
    (0..W * H)
        .map(|i| sheet.value_at(Addr::new(i % W, i / W)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_edits_match_reachability_oracle_and_recalc(
        stored in proptest::collection::vec(edit_strategy(), 0..20),
        batches in proptest::collection::vec(
            proptest::collection::vec(edit_strategy(), 1..8),
            1..12,
        ),
    ) {
        let rt = Runtime::new();
        let inc = Sheet::new(&rt, W, H);
        let base = RecalcSheet::new(W, H);
        let mut table = vec![Edit::Num(0); (W * H) as usize];

        // Pre-store formulas one `set` at a time, keeping the accepted ones.
        for (addr, edit) in stored {
            let mut next = table.clone();
            next[index(addr).unwrap()] = edit.clone();
            let cyclic = on_cycle(&next).into_iter().any(|c| c);
            let src = edit.src();
            match inc.set(&addr.to_string(), &src) {
                Ok(()) => {
                    prop_assert!(!cyclic, "accepted cyclic set {}={}", addr, src);
                    base.set(&addr.to_string(), &src).unwrap();
                    table = next;
                }
                Err(e) => {
                    prop_assert!(cyclic, "rejected acyclic set {}={}: {}", addr, src, e);
                    prop_assert_eq!(e, SheetError::Cycle(addr));
                }
            }
        }

        for batch in batches {
            let mut next = table.clone();
            for (addr, edit) in &batch {
                next[index(*addr).unwrap()] = edit.clone();
            }
            let cycles = on_cycle(&next);
            let cyclic = cycles.iter().any(|&c| c);
            let text: Vec<(String, String)> =
                batch.iter().map(|(a, e)| (a.to_string(), e.src())).collect();
            let before = values(&inc);
            let batches_before = rt.stats().batches;

            match inc.set_bulk(text.iter().map(|(a, s)| (a.as_str(), s.as_str()))) {
                Ok(()) => {
                    prop_assert!(!cyclic, "accepted cyclic batch {:?}", text);
                    prop_assert_eq!(rt.stats().batches, batches_before + 1);
                    for (a, s) in &text {
                        base.set(a, s).unwrap();
                    }
                    table = next;
                    for i in 0..W * H {
                        let addr = Addr::new(i % W, i / W);
                        prop_assert_eq!(
                            inc.value_at(addr),
                            base.value_at(addr),
                            "cell {} diverged after {:?}",
                            addr,
                            text
                        );
                    }
                }
                Err(SheetError::Cycle(a)) => {
                    prop_assert!(cyclic, "rejected acyclic batch {:?}", text);
                    prop_assert!(
                        batch.iter().any(|(b, _)| *b == a),
                        "Cycle({}) names a cell the batch does not edit: {:?}",
                        a,
                        text
                    );
                    prop_assert!(
                        cycles[index(a).unwrap()],
                        "Cycle({}) names a cell on no cycle: {:?}",
                        a,
                        text
                    );
                    prop_assert_eq!(rt.stats().batches, batches_before);
                    prop_assert_eq!(values(&inc), before);
                }
                Err(e) => prop_assert!(false, "unexpected error {} for {:?}", e, text),
            }
        }
    }
}
