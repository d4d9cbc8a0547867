//! `check_telemetry` — validate a telemetry JSONL stream against the
//! versioned schema.
//!
//! Reads one file (or stdin with `-`), runs every non-empty line
//! through [`ecl_telemetry::schema::validate_line`] — full JSON parse,
//! schema version check, required preamble (`schema`/`ts`/`run_id`/
//! `event`), per-kind required fields, unknown-kind rejection — and
//! through [`ecl_telemetry::schema::SessionAttribution`]: a line
//! stamped with a fleet session must carry the `run_id` of that
//! session's open `run_start`. It prints a per-kind tally. Any invalid
//! or misattributed line is reported with its line number and the
//! process exits non-zero, so CI can gate on emitted streams staying
//! schema-valid and attributable.
//!
//! Usage: `check_telemetry <FILE|->`

use ecl_telemetry::schema;
use std::collections::BTreeMap;
use std::io::Read as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: check_telemetry <FILE|->");
        std::process::exit(2);
    };
    let input = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };

    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut attribution = schema::SessionAttribution::new();
    let mut bad = 0usize;
    let mut total = 0usize;
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        let checked = schema::validate_line(line)
            .and_then(|()| schema::parse(line))
            .and_then(|j| attribution.check(&j).map(|()| j));
        match checked {
            Ok(j) => {
                // validate_line guarantees `event` exists and is a string.
                let kind = j.get("event").and_then(|e| e.as_str()).unwrap_or_default();
                *kinds.entry(kind.to_string()).or_insert(0) += 1;
            }
            Err(e) => {
                eprintln!("line {}: {e}", i + 1);
                eprintln!("  {line}");
                bad += 1;
            }
        }
    }

    if total == 0 {
        eprintln!("{path}: no telemetry lines found");
        std::process::exit(1);
    }
    if bad > 0 {
        eprintln!("{path}: {bad}/{total} invalid lines");
        std::process::exit(1);
    }
    let tally = kinds
        .iter()
        .map(|(k, n)| format!("{k}: {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{path}: {total} lines OK (schema v{}; {tally})",
        schema::SCHEMA_VERSION
    );
}
