//! Experiment harness for the Alphonse reproduction.
//!
//! The paper (PLDI 1992) contains no empirical tables or figures — its
//! evaluation is the asymptotic analysis of Section 9 plus per-example cost
//! claims. Each claim is reproduced here as an experiment (see DESIGN.md's
//! experiment index): a workload generator plus machine-independent work
//! counters, printed as a table by the `all_experiments` binary
//! (`all_experiments e7` runs one). EXPERIMENTS.md records paper-claim vs.
//! measured shape for each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod trace_support;
pub mod workloads;

pub use table::Table;
