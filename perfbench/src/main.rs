//! Untraced arm: prints the end-to-end metrics of one workload.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>`

fn main() {
    std::process::exit(alphonse_perfbench::cli::main(false));
}
