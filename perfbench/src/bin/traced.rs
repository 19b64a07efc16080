//! Traced arm: prints the per-layer ledger of one workload.
//!
//! Usage: `perfbench-traced --workload <name> --seed <n> --seconds <s>`
//!
//! Installs the runtime's counting allocator, so allocation is billed to
//! subsystem tags (the `mem.*` metrics); set `PERFBENCH_SPANS=<path>` to
//! write the recorded spans as a Chrome trace.

use alphonse::mem::TrackingAlloc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() {
    std::process::exit(alphonse_perfbench::cli::main(true));
}
