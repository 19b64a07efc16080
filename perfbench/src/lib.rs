//! Edit-to-fresh-answer benchmark for the Alphonse workspace.
//!
//! Each workload builds a structure through one public surface (the
//! spreadsheet, the attribute-grammar kit, the Alphonse-L interpreter, the
//! session pool), then runs a closed loop with one client: apply an edit,
//! demand every watched answer, check the answers against an independent
//! reference, and only then send the next edit. See `README.md`.

pub mod cli;
pub mod harness;
pub mod ledger;
pub mod rng;
pub mod stats;
pub mod workloads;
