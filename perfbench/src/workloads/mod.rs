//! The four workloads, each built on one public surface of the workspace.

pub mod avl_lang;
pub mod let_eager;
pub mod sheet_grid;
pub mod tenants_pool;

use crate::harness::{run_rounds, Report, Scale};

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SheetGrid,
    LetEager,
    AvlLang,
    TenantsPool,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::SheetGrid,
        Kind::LetEager,
        Kind::AvlLang,
        Kind::TenantsPool,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SheetGrid => "sheet_grid",
            Kind::LetEager => "let_eager",
            Kind::AvlLang => "avl_lang",
            Kind::TenantsPool => "tenants_pool",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Runs this workload for `seconds` (at least one round).
    pub fn run(self, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Report {
        match self {
            Kind::SheetGrid => run_rounds::<sheet_grid::SheetGrid>(seed, seconds, traced, scale),
            Kind::LetEager => run_rounds::<let_eager::LetEager>(seed, seconds, traced, scale),
            Kind::AvlLang => run_rounds::<avl_lang::AvlLang>(seed, seconds, traced, scale),
            Kind::TenantsPool => {
                run_rounds::<tenants_pool::TenantsPool>(seed, seconds, traced, scale)
            }
        }
    }
}
