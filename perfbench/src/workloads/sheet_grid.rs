//! `sheet_grid`: a grid of add-one column chains under a `SUM` dashboard.
//!
//! Why: setup is dominated by the sheet's per-edit cycle walk, and updates
//! by demand-time re-execution inside `Sheet::value_at`, which a
//! `propagate()`-only timer misses.
//!
//! Cell `(c, 0)` holds a number; cell `(c, r)` for `r >= 1` holds
//! `=X{r-1}+1` for some column `X` (initially `c`). The dashboard row holds
//! one `SUM` per block of bottom-row columns. Each update is one batch of
//! edits (mostly row-0 values, some rewires to another cell of the row
//! above); every sixteenth update also submits one cycle-creating edit
//! alone, which must be rejected. Then `Runtime::propagate` and a demand of
//! every dashboard cell.
//!
//! The reference is a plain-Rust mirror of the grid: a row-0 value vector
//! and the source column of every chain cell, evaluated row by row.

use crate::harness::{Checked, Counts, Scale, Workload};
use crate::ledger::Ledger;
use crate::rng::Rng;
use alphonse::Runtime;
use alphonse_sheet::{Addr, CellValue, Formula, Op, Sheet, SheetError};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Columns summed by one dashboard cell.
const BLOCK: u32 = 64;
/// Edits per update batch.
const BATCH: usize = 16;
/// Row-0 values are drawn from `0..VALUES`.
const VALUES: u64 = 1000;

/// The grid mirror: what every cell holds, without the program.
#[derive(Debug, Clone)]
pub struct Mirror {
    cols: u32,
    rows: u32,
    /// Row-0 values.
    top: Vec<i64>,
    /// Source column of cell `(c, r)` at `(r - 1) * cols + c`, `r >= 1`.
    src: Vec<u32>,
}

impl Mirror {
    fn dash_cells(&self) -> u32 {
        self.cols / BLOCK
    }

    /// Dashboard values, evaluated row by row.
    fn dashboard(&self) -> Vec<i64> {
        let cols = self.cols as usize;
        let mut row = self.top.clone();
        let mut next = vec![0i64; cols];
        for r in 1..self.rows as usize {
            let src = &self.src[(r - 1) * cols..r * cols];
            for (n, &s) in next.iter_mut().zip(src) {
                *n = row[s as usize] + 1;
            }
            std::mem::swap(&mut row, &mut next);
        }
        row.chunks(BLOCK as usize).map(|b| b.iter().sum()).collect()
    }

    /// Column at row `row` of the chain that bottom-row column `col` reads.
    fn chain_col(&self, col: u32, row: u32) -> u32 {
        let mut c = col;
        for r in (row + 1..self.rows).rev() {
            c = self.src[((r - 1) * self.cols + c) as usize];
        }
        c
    }

    fn apply(&mut self, e: CellEdit) {
        match e {
            CellEdit::Value { col, v } => self.top[col as usize] = v,
            CellEdit::Rewire { col, row, src } => {
                self.src[((row - 1) * self.cols + col) as usize] = src;
            }
        }
    }
}

fn chain_formula(src: Addr) -> Formula {
    Formula::Bin {
        op: Op::Add,
        lhs: Arc::new(Formula::Ref(src)),
        rhs: Arc::new(Formula::Num(1)),
    }
}

/// One cell edit as the mirror sees it.
#[derive(Debug, Clone, Copy)]
enum CellEdit {
    Value { col: u32, v: i64 },
    Rewire { col: u32, row: u32, src: u32 },
}

/// One update.
#[derive(Debug)]
pub struct Edit {
    batch: Vec<(Addr, Formula)>,
    cells: Vec<CellEdit>,
    /// A cyclic edit, submitted alone after the batch: cell `(col, row)`
    /// made to read a bottom-row cell whose chain passes through it.
    cycle: Option<Vec<(Addr, Formula)>>,
}

/// What one update returned.
#[derive(Debug)]
pub struct Answer {
    batch: Result<(), SheetError>,
    cycle: Option<Result<(), SheetError>>,
    dashboard: Vec<CellValue>,
}

/// Generated inputs of one round.
#[derive(Debug)]
pub struct Input {
    rng: Rng,
    mirror: Mirror,
}

/// The running workload.
pub struct SheetGrid {
    rt: Runtime,
    sheet: Sheet,
    mirror: Mirror,
    rng: Rng,
    first: Vec<CellValue>,
    rejected: u64,
}

impl SheetGrid {
    fn dash_addr(&self, k: u32) -> Addr {
        Addr::new(k, self.mirror.rows)
    }

    fn check_dashboard(&self, got: &[CellValue]) -> Result<(), String> {
        let want: Vec<CellValue> = self
            .mirror
            .dashboard()
            .into_iter()
            .map(CellValue::Num)
            .collect();
        if got == want.as_slice() {
            Ok(())
        } else {
            Err(format!("dashboard {got:?}, reference {want:?}"))
        }
    }
}

impl Workload for SheetGrid {
    type Input = Input;
    type Edit = Edit;
    type Answer = Answer;

    fn updates_per_round(scale: Scale) -> usize {
        match scale {
            Scale::Full => 1024,
            Scale::Small => 64,
        }
    }

    fn generate(mut rng: Rng, scale: Scale) -> Input {
        let (cols, rows) = match scale {
            Scale::Full => (2048, 64),
            Scale::Small => (256, 8),
        };
        let top = (0..cols).map(|_| rng.below(VALUES) as i64).collect();
        let src = (0..(rows - 1) * cols).map(|i| i % cols).collect();
        Input {
            rng,
            mirror: Mirror {
                cols,
                rows,
                top,
                src,
            },
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        input.mirror.top.hash(&mut h);
        input.mirror.src.hash(&mut h);
        h.finish()
    }

    fn setup(input: Input, ledger: &mut Ledger) -> SheetGrid {
        let Input { rng, mirror } = input;
        let (cols, rows) = (mirror.cols, mirror.rows);
        let rt = Runtime::new();
        // One extra row for the dashboard.
        let sheet = Sheet::new(&rt, cols, rows + 1);
        let mut edits = Vec::with_capacity((cols * rows + mirror.dash_cells()) as usize);
        for c in 0..cols {
            edits.push((Addr::new(c, 0), Formula::Num(mirror.top[c as usize])));
        }
        for r in 1..rows {
            for c in 0..cols {
                let s = mirror.src[((r - 1) * cols + c) as usize];
                edits.push((Addr::new(c, r), chain_formula(Addr::new(s, r - 1))));
            }
        }
        for k in 0..mirror.dash_cells() {
            let from = Addr::new(k * BLOCK, rows - 1);
            let to = Addr::new(k * BLOCK + BLOCK - 1, rows - 1);
            edits.push((Addr::new(k, rows), Formula::Sum { from, to }));
        }
        ledger
            .span("sheet.set_formulas", || sheet.set_formulas(edits))
            .expect("the generated grid is in bounds and acyclic");
        let first = (0..mirror.dash_cells())
            .map(|k| ledger.span("sheet.value_at", || sheet.value_at(Addr::new(k, rows))))
            .collect();
        SheetGrid {
            rt,
            sheet,
            mirror,
            rng,
            first,
            rejected: 0,
        }
    }

    fn check_setup(&mut self) -> Checked {
        Checked::op(self.check_dashboard(&self.first))
    }

    fn next_edit(&mut self, i: usize) -> Edit {
        let (cols, rows) = (self.mirror.cols, self.mirror.rows);
        let rng = &mut self.rng;
        let mut batch = Vec::with_capacity(BATCH);
        let mut cells = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let col = rng.below(u64::from(cols)) as u32;
            if rng.one_in(8) {
                let row = 1 + rng.below(u64::from(rows - 1)) as u32;
                let src = rng.below(u64::from(cols)) as u32;
                batch.push((Addr::new(col, row), chain_formula(Addr::new(src, row - 1))));
                cells.push(CellEdit::Rewire { col, row, src });
            } else {
                let v = rng.below(VALUES) as i64;
                batch.push((Addr::new(col, 0), Formula::Num(v)));
                cells.push(CellEdit::Value { col, v });
            }
        }
        let cycle = (i % 16 == 15).then(|| {
            // Pick a bottom cell, walk its chain (as it stands once this
            // update's batch has landed) up to a random row, and make that
            // cell read the bottom cell.
            let mut after = self.mirror.clone();
            cells.iter().for_each(|&e| after.apply(e));
            let bottom = rng.below(u64::from(cols)) as u32;
            let row = rng.below(u64::from(rows - 1)) as u32;
            let col = after.chain_col(bottom, row);
            vec![(
                Addr::new(col, row),
                chain_formula(Addr::new(bottom, rows - 1)),
            )]
        });
        Edit {
            batch,
            cells,
            cycle,
        }
    }

    fn apply(&mut self, edit: &mut Edit, ledger: &mut Ledger) -> Answer {
        let sheet = &self.sheet;
        let batch = std::mem::take(&mut edit.batch);
        let batch = ledger.span("sheet.set_formulas", || sheet.set_formulas(batch));
        let cycle = edit
            .cycle
            .take()
            .map(|c| ledger.span("sheet.set_formulas", || sheet.set_formulas(c)));
        ledger.span("runtime.propagate", || self.rt.propagate());
        let mut dashboard = Vec::with_capacity(self.mirror.dash_cells() as usize);
        for k in 0..self.mirror.dash_cells() {
            let a = self.dash_addr(k);
            dashboard.push(ledger.span("sheet.value_at", || sheet.value_at(a)));
        }
        Answer {
            batch,
            cycle,
            dashboard,
        }
    }

    fn verify(&mut self, edit: Edit, answer: Answer) -> Checked {
        let mut checked = Checked::default();
        if let Some(got) = &answer.cycle {
            checked.record(match got {
                Err(SheetError::Cycle(_)) => {
                    self.rejected += 1;
                    Ok(())
                }
                other => Err(format!("cyclic edit not rejected: {other:?}")),
            });
        }
        let result = match &answer.batch {
            Ok(()) => {
                edit.cells.iter().for_each(|&e| self.mirror.apply(e));
                self.check_dashboard(&answer.dashboard)
            }
            Err(e) => Err(format!("update batch rejected: {e}")),
        };
        checked.record(result);
        checked
    }

    fn counts(&self) -> Counts {
        Counts::from_stats(&self.rt.stats()).with("rejected_edits", self.rejected)
    }

    fn graph(&self) -> (u64, u64) {
        (self.rt.node_count() as u64, self.rt.edge_count() as u64)
    }
}
