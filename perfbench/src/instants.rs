//! The `stack` and `pager` workloads: one long-lived runner replays a
//! seeded testbench stream, one environment instant at a time, with
//! every observer stepped after each instant.

use crate::compile::{self, fresh, repeat_setup, Config, Shipped};
use crate::measure::{median, quiet_median, Spans, Windows};
use crate::{Args, Outcome};
use ecl_repro::ecl_observe::{Monitor, MonitorSpec, Verdict};
use ecl_repro::ecl_telemetry::{self as telemetry, metrics};
use ecl_repro::efsm::Backend;
use ecl_repro::sim::runner::{AsyncRunner, InterpRunner, Runner, SharedProgram};
use ecl_repro::sim::tb::{InstantEvents, PacketTb, PagerTb, PKTSIZE};
use std::sync::Arc;
use std::time::Instant;

/// Stack testbench: the paper's 500 packets, every 5th with a
/// corrupted CRC (the paper testbench's default).
const PACKETS: usize = 500;
const CORRUPT_EVERY: usize = 5;
/// Pager testbench: 25 record/playback rounds of 4 frames.
const PAGER_ROUNDS: usize = 25;
const PAGER_FRAMES: usize = 4;
/// The pager's trace ring, as in VCD debugging.
const PAGER_TRACE: usize = 256;
/// Instants one runner may run in the lifetime measurement.
const LIFETIME_CAP: u64 = 10_000_000;
/// Traced run: one instant in this many records its spans.
pub const SAMPLE_EVERY: u64 = 256;
/// Instants per window of the timed loop.
const WINDOW_INSTANTS: u64 = 8192;
/// Traced run: traced instants over which work counts are exact.
const COUNTED_INSTANTS: usize = 100_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stack,
    Pager,
}

impl Kind {
    /// The stack runs as its 3-task partition on the kernel; the pager
    /// as one synchronous machine.
    fn config(self) -> Config {
        match self {
            Kind::Stack => Config {
                design: Shipped::Stack,
                parts: true,
            },
            Kind::Pager => Config {
                design: Shipped::Pager,
                parts: false,
            },
        }
    }

    fn events(self, seed: u64) -> Vec<InstantEvents> {
        match self {
            Kind::Stack => PacketTb {
                packets: PACKETS,
                corrupt_every: CORRUPT_EVERY,
                reset_every: 0,
                seed,
            }
            .events(),
            Kind::Pager => PagerTb {
                rounds: PAGER_ROUNDS,
                frames: PAGER_FRAMES,
                seed,
            }
            .events(),
        }
    }
}

/// The per-instant work counts of the layers, from registry deltas
/// over `instants` instants.
pub fn work_metrics(out: &mut Outcome, counts: &metrics::Snapshot, instants: f64) {
    let per = |name: &str| counts.get(name) as f64 / instants.max(1.0);
    let total = |name: &str| counts.get(name) as f64;
    let vm_ops: u64 = metrics::VM_OPS.iter().map(|c| counts.get(c.name())).sum();
    out.set("observe.mon_steps_per_instant", per("mon.steps"));
    out.set("rtk.dispatches_per_instant", per("rtk.dispatches"));
    out.set("rtk.deliveries_per_instant", per("rtk.deliveries"));
    out.set(
        "ecl-types.vm_ops_per_instant",
        vm_ops as f64 / instants.max(1.0),
    );
    out.set("ecl-types.hook_runs_per_instant", per("vm.hook_runs"));
    out.set("ecl-types.fallback_stmts", total("vm.fallback_stmts"));
    out.set("efsm.table_steps_per_instant", per("table.steps"));
    out.set("efsm.rows_scanned_per_instant", per("table.rows_scanned"));
    out.set("efsm.fused_ops_per_instant", per("table.fused_ops"));
    out.set("efsm.walk_fallbacks", total("table.walk_fallbacks"));
    out.set("sim.trace_instants", total("sim.trace_instants"));
    out.set("sim.trace_dropped", total("sim.trace_dropped"));
    out.set("rtk.task_cycles_per_instant", per("rtk.task_cycles"));
    out.set("rtk.rtos_cycles_per_instant", per("rtk.rtos_cycles"));
    out.set("rtk.events_lost", total("rtk.events_lost"));
}

/// Observers bound to `runner`'s signal table.
pub fn bound_monitors(specs: &[Arc<MonitorSpec>], runner: &AsyncRunner) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(runner.sig_table());
            m
        })
        .collect()
}

struct Bench {
    shared: SharedProgram,
    designs: Vec<ecl_repro::ecl_core::Design>,
    runner: AsyncRunner,
    monitors: Vec<Monitor>,
    events: Vec<InstantEvents>,
}

fn setup(kind: Kind, seed: u64, spans: &mut Spans, op: u64) -> Bench {
    let prog = compile::program(kind.config(), spans, op);
    let shared = compile::shared(&prog.designs, spans, op);
    let mut runner = fresh(&shared);
    runner.set_backend(Backend::Compiled);
    if kind == Kind::Pager {
        runner.enable_trace(PAGER_TRACE);
    }
    let monitors = bound_monitors(&prog.specs, &runner);
    Bench {
        shared,
        designs: prog.designs,
        runner,
        monitors,
        events: kind.events(seed),
    }
}

/// Sorted present-signal names of every instant of one pass.
fn present_sets<R: Runner>(runner: &mut R, events: &[InstantEvents]) -> Vec<Vec<String>> {
    let mut sets = Vec::new();
    runner
        .run_events(events, |_, p| {
            let mut names = p.to_names();
            names.sort_unstable();
            sets.push(names);
        })
        .expect("reference pass runs");
    sets
}

/// Check the workload's design against independent references and
/// return the emissions of one pass, which every pass of the timed
/// runner must reproduce.
fn reference(kind: Kind, b: &Bench, out: &mut Outcome) -> Vec<u64> {
    let mut r = fresh(&b.shared);
    r.run_events(&b.events, |_, _| {})
        .expect("reference pass runs");
    let first = r.counts_slot().to_vec();
    r.run_events(&b.events, |_, _| {})
        .expect("reference pass runs");
    let second: Vec<u64> = r
        .counts_slot()
        .iter()
        .zip(&first)
        .map(|(a, b)| a - b)
        .collect();
    out.check(
        first == second,
        "a second pass of the stream emits differently",
    );
    match kind {
        Kind::Stack => {
            // One addr_match per packet with a good CRC, on the
            // partition, the monolithic machine and the interpreter.
            let good = (PACKETS - PACKETS / CORRUPT_EVERY) as u64;
            let parts = r.count_of("addr_match") / 2;
            let untraced = &mut Spans::new(false);
            let mono = compile::program(
                Config {
                    design: Shipped::Stack,
                    parts: false,
                },
                untraced,
                0,
            );
            let mut m = fresh(&compile::shared(&mono.designs, untraced, 0));
            m.run_events(&b.events, |_, _| {})
                .expect("monolithic pass runs");
            let mut i = InterpRunner::new(&mono.designs[0]).expect("interpreter builds");
            i.run_events(&b.events, |_, _| {})
                .expect("interpreted pass runs");
            for (what, n) in [
                ("partition", parts),
                ("monolithic machine", m.count_of("addr_match")),
                ("interpreter", i.count_of("addr_match")),
            ] {
                out.check(
                    n == good,
                    format!("{what}: {n} addr_match for {good} good packets"),
                );
            }
        }
        Kind::Pager => {
            // The compiled machine's present sets equal the
            // interpreter's, instant by instant, over one pass.
            let compiled = present_sets(&mut fresh(&b.shared), &b.events);
            let mut i = InterpRunner::new(&b.designs[0]).expect("interpreter builds");
            let interp = present_sets(&mut i, &b.events);
            let agree = compiled
                .iter()
                .zip(&interp)
                .take_while(|(a, b)| a == b)
                .count();
            out.check(
                compiled.len() == b.events.len()
                    && agree == compiled.len()
                    && interp.len() == agree,
                format!(
                    "compiled and interpreter present sets agree on {agree} of {} instants",
                    b.events.len()
                ),
            );
        }
    }
    first
}

/// Final verdicts. Stack: the CRC and liveness observers pass and the
/// forwarding observer fails inside the first corrupted packet. Pager:
/// every observer passes.
fn check_verdicts(kind: Kind, monitors: &mut [Monitor], out: &mut Outcome) {
    // The first corrupted packet and the one after it (the violation
    // lands when its forwarding deadline expires).
    let from = 1 + (CORRUPT_EVERY as u64 - 1) * (PKTSIZE as u64 + 1);
    let until = from + 2 * (PKTSIZE as u64 + 1);
    for m in monitors {
        let name = m.spec().name.clone();
        let v = m.finish();
        let ok = match (kind, name.as_str(), &v) {
            (Kind::Stack, "forward_watch", Verdict::Fail(f)) => (from..until).contains(&f.instant),
            (Kind::Stack, "forward_watch", _) => false,
            (_, _, v) => *v == Verdict::Pass,
        };
        out.check(ok, format!("observer {name}: {v}"));
    }
}

/// Instants one fresh runner of `program` completes, replaying `events`
/// over and over, before its first error, up to [`LIFETIME_CAP`].
pub fn lifetime(program: &SharedProgram, events: &[InstantEvents]) -> u64 {
    let mut r = fresh(program);
    let mut n = 0u64;
    while n < LIFETIME_CAP {
        if let Err(e) = r.run_events(events, |_, _| n += 1) {
            eprintln!("lifetime: runner failed after {n} instants: {e}");
            break;
        }
    }
    n
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(args.trace);

    let mut setup_s = Vec::new();
    let mut b = repeat_setup(&mut setup_s, |op| setup(kind, args.seed, &mut spans, op));
    let compiles = setup_s.len();
    let expected = reference(kind, &b, &mut out);
    let pass_len = b.events.len();
    let counted_passes = COUNTED_INSTANTS.div_ceil(pass_len) as u64;

    // The timed loop: pass after pass on the one runner until time is
    // up or the runner dies. With tracing on, odd passes run with
    // telemetry and spans and even passes without, so the same run
    // gives the tracing overhead.
    let Bench {
        runner,
        monitors,
        events,
        ..
    } = &mut b;
    let mut windows = Windows::new();
    let mut pass_ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut counts = None;
    let base = metrics::snapshot();
    let mut completed = 0u64;
    let mut died = None;
    let op0 = compiles as u64;
    let start = Instant::now();
    let mut last = start;
    for pass in 0u64.. {
        let traced = args.trace && pass % 2 == 1;
        telemetry::set_enabled(traced);
        let before = runner.counts_slot().to_vec();
        let t0 = Instant::now();
        let r = if traced {
            runner.run_events(events, |i, p| {
                let t_in = Instant::now();
                for m in monitors.iter_mut() {
                    m.step_present(i, p);
                }
                let t_out = Instant::now();
                if completed.is_multiple_of(SAMPLE_EVERY) {
                    spans.instant(op0 + completed, last, t_in, t_out);
                }
                last = t_out;
                completed += 1;
            })
        } else {
            runner.run_events(events, |i, p| {
                let t = Instant::now();
                windows.record(t.duration_since(last).as_nanos() as u64);
                last = t;
                for m in monitors.iter_mut() {
                    m.step_present(i, p);
                }
                completed += 1;
                if completed.is_multiple_of(WINDOW_INSTANTS) {
                    windows.close(WINDOW_INSTANTS);
                    // Closing is not part of the next instant.
                    last = Instant::now();
                }
            })
        };
        telemetry::set_enabled(false);
        if let Err(e) = r {
            died = Some(e);
            break;
        }
        pass_ns[traced as usize].push(t0.elapsed().as_nanos() as f64);
        let same = runner
            .counts_slot()
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .eq(expected.iter().copied());
        out.check(
            same,
            format!("pass {pass}: emissions differ from the reference pass"),
        );
        if args.trace && pass + 1 == 2 * counted_passes {
            counts = Some(metrics::snapshot().since(&base));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let alive = start.elapsed().as_secs_f64();
    let rate = completed as f64 / alive;
    // A dead runner is not rebuilt: the instant that failed and every
    // instant the rest of the run would have held at the runner's own
    // rate are lost.
    let lost = match &died {
        Some(e) => {
            eprintln!("runner died after {completed} instants ({alive:.3} s): {e}");
            1 + (rate * (args.seconds - alive).max(0.0)).round() as u64
        }
        None => 0,
    };
    out.attempted = completed + lost;
    out.failed = lost;
    check_verdicts(kind, monitors, &mut out);
    eprintln!("{completed} instants in {alive:.3} s ({rate:.0}/s), {lost} lost");

    if !args.trace {
        windows.report(&mut out);
        repeat_setup(&mut setup_s, |op| setup(kind, args.seed, &mut spans, op));
        out.set("setup_s", quiet_median(&setup_s));
        return out;
    }

    let counts = counts.unwrap_or_else(|| {
        eprintln!("warning: fewer than {counted_passes} traced passes ran; counts are not exact");
        metrics::snapshot().since(&base)
    });
    work_metrics(&mut out, &counts, counts.get("sim.instants") as f64);
    out.set("sim.reaction_ns", spans.mean_self_ns("sim.run_events"));
    out.set("observe.step_ns", spans.mean_self_ns("observe.step"));
    let cov = runner.coverage();
    out.set("efsm.states", cov.states() as f64);
    out.set("efsm.fused_rows", cov.fused_rows() as f64);
    if pass_ns.iter().all(|v| !v.is_empty()) {
        out.set(
            "telemetry.overhead_pct",
            (median(&pass_ns[1]) / median(&pass_ns[0]) - 1.0) * 100.0,
        );
    }
    compile::stage_metrics(&mut out, &spans, compiles);
    out.set(
        "sim.session_lifetime_instants",
        lifetime(&b.shared, &b.events) as f64,
    );
    out.write_spans(&spans, args, SAMPLE_EVERY);
    out
}
