//! The shipped design configurations, the staged compile every workload
//! sets up with, and the `compile` workload.

use crate::measure::{quiet_median, Spans, Windows};
use crate::{Args, Outcome};
use ecl_repro::codegen::artifacts::Artifacts;
use ecl_repro::ecl_core::pipeline::{Parsed, Source, Split};
use ecl_repro::ecl_core::Design;
use ecl_repro::ecl_observe::{synthesize_all, MonitorSpec};
use ecl_repro::esterel::CompileOptions;
use ecl_repro::sim::runner::{AsyncRunner, SharedProgram};
use std::sync::Arc;
use std::time::Instant;

/// One of the two designs the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shipped {
    Stack,
    Pager,
}

/// A design compiled either as one synchronous machine or as the
/// asynchronous partition of its top level (one task per submodule).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub design: Shipped,
    pub parts: bool,
}

/// Every configuration the `compile` workload cycles through.
const ALL: [Config; 4] = [
    Config {
        design: Shipped::Stack,
        parts: false,
    },
    Config {
        design: Shipped::Stack,
        parts: true,
    },
    Config {
        design: Shipped::Pager,
        parts: false,
    },
    Config {
        design: Shipped::Pager,
        parts: true,
    },
];

impl Config {
    fn source(self) -> Source {
        match self.design {
            Shipped::Stack => Source::named(
                "protocol_stack.ecl",
                ecl_repro::sim::designs::PROTOCOL_STACK,
            ),
            Shipped::Pager => {
                Source::named("voice_pager.ecl", ecl_repro::sim::designs::VOICE_PAGER)
            }
        }
    }

    fn top(self) -> &'static str {
        match self.design {
            Shipped::Stack => "toplevel",
            Shipped::Pager => "pager",
        }
    }
}

/// Parse, elaborate and split `cfg`: one split for the monolithic
/// machine, or one per instantiation of the top level for the
/// partition. Each stage is a child span of `parent`.
fn front(cfg: Config, spans: &mut Spans, op: u64, parent: Option<usize>) -> (Parsed, Vec<Split>) {
    let s = spans.open(op, "ecl-syntax.parse", parent);
    let parsed = cfg.source().parse().expect("shipped design parses");
    spans.close(s);
    let units: Vec<(String, Option<Vec<String>>)> = if cfg.parts {
        parsed
            .instantiations(cfg.top())
            .into_iter()
            .map(|i| (i.module, Some(i.actuals)))
            .collect()
    } else {
        vec![(cfg.top().to_string(), None)]
    };
    assert!(!units.is_empty(), "{cfg:?} has no tasks");
    let splits = units
        .iter()
        .map(|(module, actuals)| {
            let s = spans.open(op, "core.elaborate", parent);
            let elaborated = parsed
                .elaborate_bound(module, actuals.as_deref())
                .expect("shipped design elaborates");
            spans.close(s);
            let s = spans.open(op, "core.split", parent);
            let split = elaborated.split().expect("shipped design splits");
            spans.close(s);
            split
        })
        .collect();
    (parsed, splits)
}

fn synth(
    parsed: &Parsed,
    spans: &mut Spans,
    op: u64,
    parent: Option<usize>,
) -> Vec<Arc<MonitorSpec>> {
    let s = spans.open(op, "observe.synth", parent);
    let specs = synthesize_all(parsed.ast()).expect("shipped observers synthesize");
    spans.close(s);
    specs
}

/// What the simulating workloads set up from source: the designs of
/// every task and their observers.
pub struct Program {
    pub designs: Vec<Design>,
    pub specs: Vec<Arc<MonitorSpec>>,
}

/// Set up `cfg` for simulation: front end and observer synthesis.
pub fn program(cfg: Config, spans: &mut Spans, op: u64) -> Program {
    let (parsed, splits) = front(cfg, spans, op, None);
    Program {
        designs: splits.iter().map(Split::to_design).collect(),
        specs: synth(&parsed, spans, op, None),
    }
}

/// `SharedProgram::compile` of `designs`, as one `sim.program` span.
pub fn shared(designs: &[Design], spans: &mut Spans, op: u64) -> SharedProgram {
    let s = spans.open(op, "sim.program", None);
    let p = SharedProgram::compile(designs.to_vec(), &CompileOptions::default())
        .expect("shipped design compiles to a program");
    spans.close(s);
    p
}

/// A fresh runner of `program` with the default cost and kernel
/// parameters.
pub fn fresh(program: &SharedProgram) -> AsyncRunner {
    AsyncRunner::from_shared(program, Default::default(), Default::default())
}

/// The observable result of one full compile. Two compiles of one
/// configuration must agree on all of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Compiled {
    states: usize,
    fused_rows: u32,
    c_bytes: usize,
    verilog_bytes: usize,
    observers: usize,
    valid: bool,
    fully_fused: bool,
}

/// Take `cfg` from source text to a runnable program plus emitted C
/// and Verilog: parse, elaborate, split, Esterel to EFSM,
/// `SharedProgram::compile`, observer synthesis and `Artifacts::emit`.
fn compile(cfg: Config, spans: &mut Spans, op: u64) -> Compiled {
    let root = spans.open(op, "compile", None);
    let (parsed, splits) = front(cfg, spans, op, Some(root));
    let opts = CompileOptions::default();

    let s = spans.open(op, "esterel.efsm", Some(root));
    let machines: Vec<_> = splits
        .iter()
        .map(|split| {
            split
                .ir()
                .compile(&opts)
                .expect("shipped design compiles to an EFSM")
        })
        .collect();
    spans.close(s);
    let valid = machines.iter().all(|m| m.validate().is_ok());

    let s = spans.open(op, "sim.program", Some(root));
    let program = SharedProgram::compile(machines.iter().map(|m| m.design()).collect(), &opts)
        .expect("shipped design compiles to a program");
    spans.close(s);

    let specs = synth(&parsed, spans, op, Some(root));

    let s = spans.open(op, "codegen.emit", Some(root));
    let artifacts: Vec<Artifacts> = machines
        .iter()
        .map(|m| Artifacts::emit(m).expect("shipped design emits"))
        .collect();
    spans.close(s);

    let coverage = fresh(&program).coverage();
    spans.close(root);
    Compiled {
        states: machines.iter().map(|m| m.efsm().states.len()).sum(),
        fused_rows: coverage.fused_rows(),
        c_bytes: artifacts.iter().map(|a| a.c().len()).sum(),
        verilog_bytes: artifacts
            .iter()
            .filter_map(|a| a.verilog())
            .map(str::len)
            .sum(),
        observers: specs.len(),
        valid,
        fully_fused: coverage.fully_fused(),
    }
}

/// Seconds each workload spends repeating its set-up before the timed
/// loop, and again after it in the untraced run; `setup_s` is the
/// median of the quietest repetitions. Two groups far apart in time
/// keep one stretch of host noise from deciding the figure.
const SETUP_SECONDS: f64 = 0.5;

/// Repeat `setup` (given the repetition's number) for
/// [`SETUP_SECONDS`], at least once, appending each duration to
/// `times`; return the last product.
pub fn repeat_setup<T>(times: &mut Vec<f64>, mut setup: impl FnMut(u64) -> T) -> T {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let product = setup(times.len() as u64);
        times.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return product;
        }
    }
}

/// Per-compile self time of stage `name` in microseconds, over the
/// `compiles` compiles recorded in `spans`.
fn stage_us(spans: &Spans, name: &str, compiles: usize) -> f64 {
    let total = spans.self_times(name).iter().fold(0.0, |a, b| a + b);
    total / compiles.max(1) as f64 / 1e3
}

/// Every stage metric, from the compiles recorded in `spans`.
pub fn stage_metrics(out: &mut Outcome, spans: &Spans, compiles: usize) {
    for (metric, span) in [
        ("ecl-syntax.parse_us", "ecl-syntax.parse"),
        ("core.elaborate_us", "core.elaborate"),
        ("core.split_us", "core.split"),
        ("esterel.efsm_us", "esterel.efsm"),
        ("sim.program_us", "sim.program"),
        ("observe.synth_us", "observe.synth"),
        ("codegen.emit_us", "codegen.emit"),
    ] {
        out.set(metric, stage_us(spans, span, compiles));
    }
}

/// The `compile` workload: one caller compiles all four
/// configurations round-robin, cold each time, for the run's length.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(args.trace);

    // Set-up: one warm round over every configuration, which also
    // fixes the reference result each later compile must reproduce.
    let mut setup_s = Vec::new();
    let round = |spans: &mut Spans, op| ALL.map(|c| compile(c, spans, op));
    let reference = repeat_setup(&mut setup_s, |op| round(&mut spans, op));
    for (cfg, r) in ALL.iter().zip(&reference) {
        out.check(r.valid, format!("{cfg:?}: a machine fails validate()"));
        out.check(
            r.fully_fused,
            format!("{cfg:?}: program is not fully fused"),
        );
        out.check(
            r.observers > 0,
            format!("{cfg:?}: no observers synthesized"),
        );
    }
    // Stage times in the traced run come from the timed compiles only.
    let mut spans = Spans::new(args.trace);

    // The seed picks which configuration each round starts from; one
    // round (all four configurations) is one window.
    let first = (args.seed % ALL.len() as u64) as usize;
    let mut windows = Windows::new();
    let mut compiles = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        for k in 0..ALL.len() {
            let i = (first + k) % ALL.len();
            let t0 = Instant::now();
            let got = compile(ALL[i], &mut spans, compiles);
            windows.record(t0.elapsed().as_nanos() as u64);
            compiles += 1;
            if got != reference[i] {
                out.failed += 1;
                out.check(
                    false,
                    format!(
                        "{:?}: compile {compiles} gave {got:?}, expected {:?}",
                        ALL[i], reference[i]
                    ),
                );
            }
        }
        windows.close(ALL.len() as u64);
    }
    let secs = start.elapsed().as_secs_f64();
    out.attempted = compiles;
    eprintln!("compile: {compiles} compiles in {secs:.3} s");

    if args.trace {
        stage_metrics(&mut out, &spans, compiles as usize);
        let round = &reference;
        out.set("efsm.states", round.iter().map(|r| r.states as f64).sum());
        out.set(
            "efsm.fused_rows",
            round.iter().map(|r| r.fused_rows as f64).sum(),
        );
        out.set(
            "codegen.c_bytes",
            round.iter().map(|r| r.c_bytes as f64).sum(),
        );
        out.set(
            "codegen.verilog_bytes",
            round.iter().map(|r| r.verilog_bytes as f64).sum(),
        );
        out.write_spans(&spans, args, 1);
    } else {
        windows.report(&mut out);
        repeat_setup(&mut setup_s, |op| round(&mut spans, op));
        out.set("setup_s", quiet_median(&setup_s));
    }
    out
}
