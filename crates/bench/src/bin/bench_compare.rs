//! Diffs two `OD_BENCH_JSON` snapshots row by row, using each row's
//! min/median spread as its noise band:
//!
//! ```text
//! cargo run --release -p od-bench --bin bench-compare -- OLD.json NEW.json
//! ```
//!
//! Prints one line per row (old and new medians in ms, the relative
//! change, the band and a verdict) and a count of each verdict. Exits 1
//! when a row got slower by more than its band, 2 on a usage or read
//! error, 0 otherwise; CI runs it report-only by ignoring the status.

use od_bench::compare::{compare, parse_snapshot, render, Verdict};
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<od_bench::compare::Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old, new] = args.as_slice() else {
        eprintln!("usage: bench-compare OLD.json NEW.json");
        return ExitCode::from(2);
    };
    match (load(old), load(new)) {
        (Ok(old), Ok(new)) => {
            let comparisons = compare(&old, &new);
            print!("{}", render(&comparisons));
            if comparisons.iter().any(|c| c.verdict == Verdict::Slower) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-compare: {e}");
            ExitCode::from(2)
        }
    }
}
