//! `ecl-perfbench` — the repository's one benchmark.
//!
//! `ecl-perfbench --workload <stack|pager|fleet|compile> --seed <n>
//! --seconds <s> --trace <0|1>` sets the workload up from its seed,
//! measures it for `--seconds`, checks its outputs and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! traced run also writes its spans to `.bench_out/`. `perfbench/run.py`
//! builds this binary and adds the process's peak resident memory;
//! `perfbench/README.md` explains the workloads and the metrics.

mod compile;
mod fleet;
mod instants;
mod measure;

use measure::Spans;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`
/// (`peak_rss_mb` is added by `run.py`, which owns the process).
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("sim.reaction_ns", "ns"),
    ("observe.step_ns", "ns"),
    ("observe.mon_steps_per_instant", "count"),
    ("rtk.dispatches_per_instant", "count"),
    ("rtk.deliveries_per_instant", "count"),
    ("ecl-types.vm_ops_per_instant", "count"),
    ("ecl-types.hook_runs_per_instant", "count"),
    ("ecl-types.fallback_stmts", "count"),
    ("efsm.table_steps_per_instant", "count"),
    ("efsm.rows_scanned_per_instant", "count"),
    ("efsm.fused_ops_per_instant", "count"),
    ("efsm.walk_fallbacks", "count"),
    ("sim.trace_instants", "count"),
    ("sim.trace_dropped", "count"),
    ("sim.session_lifetime_instants", "instants"),
    ("fleet.snapshot_us", "us"),
    ("fleet.restore_us", "us"),
    ("fleet.batch_ms", "ms"),
    ("fleet.solo_session_us", "us"),
    ("fleet.shard_efficiency", "ratio"),
    ("fleet.checkpoints_per_session", "count"),
    ("fleet.restarts", "count"),
    ("fleet.rejected", "count"),
    ("fleet.shed", "count"),
    ("telemetry.lines_per_session", "count"),
    ("telemetry.bytes_per_session", "bytes"),
    ("telemetry.overhead_pct", "%"),
    ("ecl-syntax.parse_us", "us"),
    ("core.elaborate_us", "us"),
    ("core.split_us", "us"),
    ("esterel.efsm_us", "us"),
    ("sim.program_us", "us"),
    ("observe.synth_us", "us"),
    ("codegen.emit_us", "us"),
    ("efsm.states", "count"),
    ("efsm.fused_rows", "count"),
    ("codegen.c_bytes", "bytes"),
    ("codegen.verilog_bytes", "bytes"),
    ("rtk.task_cycles_per_instant", "cycles"),
    ("rtk.rtos_cycles_per_instant", "cycles"),
    ("rtk.events_lost", "count"),
    ("failed_share", "fraction"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's result: output checks, operation counts and metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        if !ok {
            eprintln!("CHECK FAILED: {}", what.as_ref());
            self.correct = false;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Write the traced run's spans under `.bench_out/`.
    pub fn write_spans(&self, spans: &Spans, args: &Args, sample_every: u64) {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"instant_sample_every\":{sample_every}}}",
            args.workload, args.seed
        );
        match spans.write(&path, &header) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => panic!("cannot write {}: {e}", path.display()),
        }
    }

    /// The result line: the metrics of this mode, every one of them.
    fn json(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ecl-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "stack" => instants::run(instants::Kind::Stack, &args),
        "pager" => instants::run(instants::Kind::Pager, &args),
        "fleet" => fleet::run(&args),
        "compile" => compile::run(&args),
        other => {
            eprintln!("ecl-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    assert!(out.attempted > 0, "no operation was attempted");
    if args.trace {
        out.set("failed_share", out.failed as f64 / out.attempted as f64);
    }
    println!("{}", out.json(args.trace));
}
