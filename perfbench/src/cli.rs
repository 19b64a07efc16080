//! Command line of both arms.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! A readable table goes to standard error. The exit code is 0 only when
//! every checked answer agreed with its reference and, traced, the ledger
//! reconciled.

use crate::harness::{Report, Scale};
use crate::workloads::Kind;
use std::fmt::Write as _;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds) = (None, 1u64, 10.0f64);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {value} is outside 0..=600"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
    })
}

/// The result line.
fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.checked.failed == 0 && report.ledger_ok && report.checked.ops > 0,
        report.checked.ops,
        report.checked.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Runs one arm; returns the process exit code.
pub fn main(traced: bool) -> i32 {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s>");
            return 2;
        }
    };
    let report = args.kind.run(args.seed, args.seconds, traced, Scale::Full);
    let c = &report.checked;
    eprintln!(
        "{} seed {} ({}): {} rounds, {} ops, {} failed (failed_op_share {})",
        args.kind.name(),
        args.seed,
        if traced { "traced" } else { "untraced" },
        report.rounds,
        c.ops,
        c.failed,
        c.failed as f64 / c.ops.max(1) as f64
    );
    for m in &report.metrics {
        eprintln!(
            "  {:<28} {:>16.4} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(f) = &c.first_failure {
        eprintln!("perfbench: first failure: {f}");
    }
    if !report.ledger_ok {
        eprintln!("perfbench: ledger does not reconcile: unattributed update time above 10%");
    }
    println!("{}", json(&report));
    if c.failed == 0 && c.ops > 0 && report.ledger_ok {
        0
    } else {
        1
    }
}
