//! The `fleet` workload: batches of voice-pager sessions through the
//! supervisor, with checkpoints, observers, trace rings and telemetry
//! all doing their real work.

use crate::compile::{self, fresh, repeat_setup, Config, Shipped};
use crate::instants::{bound_monitors, SAMPLE_EVERY};
use crate::measure::{median, quiet_median, Spans, Windows};
use crate::{Args, Outcome};
use ecl_repro::ecl_fleet::{FleetConfig, SessionReport, SessionSpec, SessionStatus, Supervisor};
use ecl_repro::ecl_observe::{MonitorReport, MonitorSpec};
use ecl_repro::ecl_telemetry::{self as telemetry, metrics, Sink};
use ecl_repro::esterel::CompileOptions;
use ecl_repro::sim::runner::{Runner, Snapshot};
use ecl_repro::sim::tb::{InstantEvents, PagerTb};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sessions per batch.
const SESSIONS: u64 = 1000;
const SHARDS: usize = 2;
/// Each session replays a 691-instant pager stream: 10 rounds of 4
/// frames.
const ROUNDS: usize = 10;
const FRAMES: usize = 4;
/// Trace ring of every session.
const TRACE: usize = 64;
/// Traced run: batches over which work counts are exact.
const COUNTED_BATCHES: u64 = 2;
/// Traced run: solo sessions per mode, and sessions whose checkpoints
/// are timed.
const SOLO_SESSIONS: usize = 60;
const CKPT_SESSIONS: usize = 20;

/// Telemetry sink owned by the benchmark: counts lines and bytes and
/// keeps the wall time each session's `run_end` line reports.
#[derive(Clone, Default)]
struct CountingSink(Arc<Mutex<SinkCounts>>);

#[derive(Default)]
struct SinkCounts {
    lines: u64,
    bytes: u64,
    session_ns: Vec<u64>,
}

impl CountingSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, SinkCounts> {
        self.0
            .lock()
            .expect("no sink writer panics while holding the counts")
    }
}

impl Sink for CountingSink {
    fn write_line(&mut self, line: &str) {
        let mut c = self.lock();
        c.lines += 1;
        c.bytes += line.len() as u64 + 1;
        if line.contains("\"event\":\"run_end\"") {
            if let Some(ns) = field_u64(line, "\"wall_ns\":") {
                c.session_ns.push(ns);
            }
        }
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Fleet {
    sup: Supervisor,
    specs: Vec<Arc<MonitorSpec>>,
    events: Arc<Vec<InstantEvents>>,
}

fn setup(seed: u64, spans: &mut Spans, op: u64) -> Fleet {
    let cfg = Config {
        design: Shipped::Pager,
        parts: true,
    };
    let prog = compile::program(cfg, spans, op);
    let s = spans.open(op, "sim.program", None);
    // A queue twice the batch admits every session at nominal pressure.
    let sup = Supervisor::new(
        prog.designs,
        &CompileOptions::default(),
        FleetConfig {
            shards: SHARDS,
            queue_cap: 2 * SESSIONS as usize,
            ..FleetConfig::default()
        },
    )
    .expect("pager partition compiles");
    spans.close(s);
    let events = Arc::new(
        PagerTb {
            rounds: ROUNDS,
            frames: FRAMES,
            seed,
        }
        .events(),
    );
    Fleet {
        sup,
        specs: prog.specs,
        events,
    }
}

/// One session run outside the supervisor: the same program, stream,
/// observers and trace ring. With `spans`, sampled instants record
/// their reaction and observer spans.
fn solo(f: &Fleet, spans: Option<(&mut Spans, u64)>) -> (MonitorReport, HashMap<String, u64>, f64) {
    let mut r = fresh(f.sup.shared());
    r.enable_trace(TRACE);
    let mut monitors = bound_monitors(&f.specs, &r);
    let t0 = Instant::now();
    let res = match spans {
        None => r.run_events(&f.events, |i, p| {
            for m in monitors.iter_mut() {
                m.step_present(i, p);
            }
        }),
        Some((spans, op0)) => {
            let mut last = t0;
            r.run_events(&f.events, |i, p| {
                let t_in = Instant::now();
                for m in monitors.iter_mut() {
                    m.step_present(i, p);
                }
                let t_out = Instant::now();
                if i.is_multiple_of(SAMPLE_EVERY) {
                    spans.instant(op0 + i, last, t_in, t_out);
                }
                last = t_out;
            })
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    res.expect("solo session runs");
    (MonitorReport::conclude(monitors), r.counts(), secs)
}

/// Checkpoint cost on a solo session: run the stream in quanta of the
/// supervisor's cadence and time a snapshot and a restore at each
/// boundary.
fn checkpoints(f: &Fleet, spans: &mut Spans, op0: u64) -> u64 {
    let every = f.sup.config().checkpoint_every as usize;
    let mut op = op0;
    for _ in 0..CKPT_SESSIONS {
        let mut r = fresh(f.sup.shared());
        r.enable_trace(TRACE);
        for quantum in f.events.chunks(every) {
            r.run_events(quantum, |_, _| {}).expect("solo session runs");
            let s = spans.open(op, "fleet.snapshot", None);
            let snap = r.snapshot().expect("snapshot at an instant boundary");
            spans.close(s);
            let s = spans.open(op, "fleet.restore", None);
            r.restore(&snap).expect("restore into the same runner");
            spans.close(s);
            op += 1;
        }
    }
    op
}

fn batch(f: &Fleet, first_id: u64) -> Vec<SessionReport> {
    let sessions = (0..SESSIONS)
        .map(|k| SessionSpec {
            id: first_id + k,
            events: Arc::clone(&f.events),
            specs: f.specs.clone(),
            trace_capacity: Some(TRACE),
        })
        .collect();
    f.sup.run(sessions).sessions
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(args.trace);

    let mut setup_s = Vec::new();
    let f = repeat_setup(&mut setup_s, |op| setup(args.seed, &mut spans, op));
    let compiles = setup_s.len();
    let len = f.events.len() as u64;
    let (want, want_counts, _) = solo(&f, None);
    out.check(want.all_pass(), format!("solo session verdicts:\n{want}"));

    // Telemetry stays on for the whole fleet, feeding the counting sink.
    let sink = CountingSink::default();
    telemetry::install_sink(Box::new(sink.clone()));
    telemetry::set_enabled(true);

    let mut op = compiles as u64;
    let mut solo_s: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    if args.trace {
        // Solo sessions in three interleaved modes: as in the fleet
        // (telemetry on), untraced (telemetry off) and traced
        // (telemetry on plus spans).
        for _ in 0..SOLO_SESSIONS {
            solo_s[0].push(solo(&f, None).2);
            telemetry::set_enabled(false);
            solo_s[1].push(solo(&f, None).2);
            telemetry::set_enabled(true);
            solo_s[2].push(solo(&f, Some((&mut spans, op))).2);
            op += len;
        }
        op = checkpoints(&f, &mut spans, op);
    }

    // One batch is one window.
    let mut windows = Windows::new();
    let mut completed = 0u64;
    let mut lost = 0u64;
    let mut batches = 0u64;
    let mut counted = None;
    let base = metrics::snapshot();
    sink.lock().session_ns.clear();
    let (lines0, bytes0) = {
        let c = sink.lock();
        (c.lines, c.bytes)
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let reports = batch(&f, 1 + batches * SESSIONS);
        spans.add(op + batches, "fleet.batch", None, t0, Instant::now());
        let before = completed;
        for s in &reports {
            if s.status == SessionStatus::Finished && s.instants == len {
                completed += len;
                let same = s
                    .report
                    .as_ref()
                    .is_some_and(|r| r.verdicts == want.verdicts)
                    && s.counts == want_counts;
                out.check(
                    same,
                    format!("session {}: output differs from a solo run", s.id),
                );
            } else {
                // Every instant of a session that did not finish is lost.
                lost += len;
                eprintln!("session {}: {:?} {:?}", s.id, s.status, s.error);
            }
        }
        for ns in sink.lock().session_ns.drain(..) {
            windows.record(ns);
        }
        windows.close(completed - before);
        batches += 1;
        if batches == COUNTED_BATCHES {
            let c = sink.lock();
            counted = Some((
                metrics::snapshot().since(&base),
                c.lines - lines0,
                c.bytes - bytes0,
            ));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    telemetry::set_enabled(false);
    telemetry::uninstall_sink();
    out.attempted = completed + lost;
    out.failed = lost;
    let rate = completed as f64 / secs;
    eprintln!("fleet: {batches} batches of {SESSIONS} sessions, {completed} instants in {secs:.3} s ({rate:.0}/s)");

    if !args.trace {
        windows.report(&mut out);
        repeat_setup(&mut setup_s, |op| setup(args.seed, &mut spans, op));
        out.set("setup_s", quiet_median(&setup_s));
        return out;
    }

    let (counts, lines, bytes) = counted.unwrap_or_else(|| {
        eprintln!("warning: fewer than {COUNTED_BATCHES} batches ran; counts are not exact");
        let c = sink.lock();
        (
            metrics::snapshot().since(&base),
            c.lines - lines0,
            c.bytes - bytes0,
        )
    });
    let sessions = (COUNTED_BATCHES.min(batches) * SESSIONS) as f64;
    crate::instants::work_metrics(&mut out, &counts, sessions * len as f64);
    out.set("sim.reaction_ns", spans.mean_self_ns("sim.run_events"));
    out.set("observe.step_ns", spans.mean_self_ns("observe.step"));
    let solo_session_s = median(&solo_s[0]);
    let us = |name: &str| spans.mean_self_ns(name) / 1e3;
    out.set("fleet.snapshot_us", us("fleet.snapshot"));
    out.set("fleet.restore_us", us("fleet.restore"));
    out.set("fleet.batch_ms", us("fleet.batch") / 1e3);
    out.set("fleet.solo_session_us", solo_session_s * 1e6);
    out.set(
        "fleet.shard_efficiency",
        rate / (SHARDS as f64 * len as f64 / solo_session_s),
    );
    out.set(
        "fleet.checkpoints_per_session",
        counts.get("fleet.checkpoints") as f64 / sessions,
    );
    out.set("fleet.restarts", counts.get("fleet.restarts") as f64);
    out.set("fleet.rejected", counts.get("fleet.rejected") as f64);
    out.set("fleet.shed", counts.get("fleet.shed") as f64);
    out.set("telemetry.lines_per_session", lines as f64 / sessions);
    out.set("telemetry.bytes_per_session", bytes as f64 / sessions);
    out.set(
        "telemetry.overhead_pct",
        (median(&solo_s[2]) / median(&solo_s[1]) - 1.0) * 100.0,
    );
    let cov = fresh(f.sup.shared()).coverage();
    out.set("efsm.states", cov.states() as f64);
    out.set("efsm.fused_rows", cov.fused_rows() as f64);
    out.set(
        "sim.session_lifetime_instants",
        crate::instants::lifetime(f.sup.shared(), &f.events) as f64,
    );
    compile::stage_metrics(&mut out, &spans, compiles);
    out.write_spans(&spans, args, SAMPLE_EVERY);
    out
}
