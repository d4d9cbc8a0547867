//! Fleet chaos: killing or stalling some sessions must never touch
//! their neighbors. With a kill plan installed, the supervisor
//! restores victims from their last checkpoint and replays — and
//! *every* session (victim or survivor) must end byte-identical to a
//! solo run with no plan installed: same VCD bytes, same verdicts,
//! same emission counts, same loss accounting. Shard stalls are
//! purely temporal and must change nothing at all.
//!
//! The fault plan and telemetry switchboard are process-global, so
//! every test here takes one lock.

use ecl_fleet::{FleetConfig, RestartPolicy, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{Monitor, MonitorReport, Verdict};
use ecl_telemetry::schema::{Json, SessionAttribution};
use sim::runner::{AsyncRunner, Runner, WatchdogBudget};
use sim::tb::{InstantEvents, PacketTb, PagerTb};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn supervisor(cfg: FleetConfig) -> Supervisor {
    let designs = ecl_core::Compiler::default()
        .partition(sim::designs::PROTOCOL_STACK, "toplevel")
        .expect("protocol stack partitions");
    Supervisor::new(designs, &Default::default(), cfg).expect("fleet compiles")
}

fn specs() -> Vec<Arc<ecl_observe::MonitorSpec>> {
    ecl_observe::synthesize_all(&ecl_syntax::parse_str(sim::designs::PROTOCOL_STACK).unwrap())
        .unwrap()
}

fn events() -> Arc<Vec<InstantEvents>> {
    Arc::new(
        PacketTb {
            packets: 3,
            corrupt_every: 0,
            reset_every: 0,
            seed: 7,
        }
        .events(),
    )
}

fn session(
    id: u64,
    ev: &Arc<Vec<InstantEvents>>,
    specs: &[Arc<ecl_observe::MonitorSpec>],
) -> SessionSpec {
    SessionSpec {
        id,
        events: Arc::clone(ev),
        specs: specs.to_vec(),
        trace_capacity: Some(0),
    }
}

/// Everything a session must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunOut {
    vcd: String,
    counts: HashMap<String, u64>,
    verdicts: Vec<(String, Verdict)>,
    events_lost: u64,
}

/// The no-plan reference: one solo runner over the supervisor's own
/// shared program.
fn baseline(
    sup: &Supervisor,
    ev: &[InstantEvents],
    specs: &[Arc<ecl_observe::MonitorSpec>],
) -> RunOut {
    let mut r = AsyncRunner::from_shared(sup.shared(), Default::default(), Default::default());
    r.enable_trace(0);
    let mut monitors: Vec<Monitor> = specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    r.run_events(ev, |i, p| {
        for m in &mut monitors {
            m.step_present(i, p);
        }
    })
    .expect("clean run");
    RunOut {
        vcd: r.take_trace().expect("trace recorded").to_vcd("fleet"),
        counts: r.counts(),
        verdicts: MonitorReport::conclude(monitors).verdicts,
        events_lost: r.kernel().events_lost,
    }
}

fn out_of(s: &ecl_fleet::SessionReport) -> RunOut {
    RunOut {
        vcd: s.trace.as_ref().expect("trace kept").to_vcd("fleet"),
        counts: s.counts.clone(),
        verdicts: s
            .report
            .as_ref()
            .expect("verdicts concluded")
            .verdicts
            .clone(),
        events_lost: s.events_lost,
    }
}

/// k of N sessions killed at seeded instants: victims restart from
/// their checkpoints and converge; survivors never notice. Everyone
/// ends byte-identical to the unfaulted solo run.
#[test]
fn kills_are_contained_and_victims_converge() {
    let _g = locked();
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 2,
        checkpoint_every: 8,
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    ecl_faults::install(ecl_faults::FaultPlan {
        kill_session: 0.5,
        kill_within: 40,
        ..ecl_faults::FaultPlan::seeded(11)
    });
    // The kill schedule is a pure function of (seed, session) —
    // predict the victims before running.
    let victims: Vec<u64> = (1..=6)
        .filter(|id| ecl_faults::kill_instant(*id).is_some())
        .collect();
    let rep = sup.run((1..=6).map(|id| session(id, &ev, &sp)).collect());
    let stats = ecl_faults::uninstall().expect("plan was installed");

    assert!(
        !victims.is_empty() && victims.len() < 6,
        "seed must kill some but not all: {victims:?}"
    );
    assert_eq!(stats.session_kills, victims.len() as u64, "{stats:?}");
    assert_eq!(rep.health.finished, 6, "{:?}", rep.health);
    assert_eq!(rep.health.restarts, victims.len() as u64);
    for s in &rep.sessions {
        assert_eq!(s.status, SessionStatus::Finished, "session {}", s.id);
        if victims.contains(&s.id) {
            assert_eq!(s.restarts, 1, "one kill, one restore (session {})", s.id);
            assert!(s.backoff_ticks > 0);
        } else {
            assert_eq!(s.restarts, 0, "survivor restarted (session {})", s.id);
        }
        assert_eq!(
            out_of(s),
            want,
            "session {} diverged from the solo baseline",
            s.id
        );
    }
}

/// Shard stalls delay quanta but are invisible in every output byte.
#[test]
fn shard_stalls_are_purely_temporal() {
    let _g = locked();
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 2,
        checkpoint_every: 8,
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    ecl_faults::install(ecl_faults::FaultPlan {
        shard_stall: 0.5,
        stall_ms: 1,
        ..ecl_faults::FaultPlan::seeded(21)
    });
    let rep = sup.run((1..=4).map(|id| session(id, &ev, &sp)).collect());
    let stats = ecl_faults::uninstall().expect("plan was installed");

    assert!(stats.shard_stalls > 0, "stalls must fire: {stats:?}");
    assert_eq!(rep.health.finished, 4);
    assert_eq!(rep.health.restarts, 0, "stalls are not failures");
    for s in &rep.sessions {
        assert_eq!(out_of(s), want, "session {} diverged under stalls", s.id);
    }
}

/// A panic *mid-instant* (the `panic_at` site tears the runner inside
/// phase 1) poisons exactly one session; the supervisor restores its
/// checkpoint, replays, and converges. One shard, so the one-shot
/// global panic latch lands deterministically on the first session.
#[test]
fn mid_instant_panic_recovers_from_checkpoint() {
    let _g = locked();
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 1,
        checkpoint_every: 8,
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    ecl_faults::install(ecl_faults::FaultPlan {
        panic_at: Some(13),
        ..ecl_faults::FaultPlan::seeded(5)
    });
    let rep = sup.run((1..=2).map(|id| session(id, &ev, &sp)).collect());
    let stats = ecl_faults::uninstall().expect("plan was installed");

    assert_eq!(stats.panics, 1, "{stats:?}");
    assert_eq!(rep.health.finished, 2, "{:?}", rep.health);
    assert_eq!(rep.sessions[0].restarts, 1, "first session eats the panic");
    assert_eq!(rep.sessions[1].restarts, 0);
    for s in &rep.sessions {
        assert_eq!(out_of(s), want, "session {} diverged after the panic", s.id);
    }
}

/// Admission rejections are attributed per session in the telemetry
/// stream (mirroring `events_lost`), and the fleet emits its
/// aggregate `fleet_health` snapshot.
#[test]
fn rejections_and_health_reach_the_telemetry_stream() {
    let _g = locked();
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 1,
        queue_cap: 2,
        ..Default::default()
    });

    ecl_telemetry::set_enabled(true);
    let sink = ecl_telemetry::MemorySink::new();
    ecl_telemetry::install_sink(Box::new(sink.clone()));
    let rep = sup.run((1..=3).map(|id| session(id, &ev, &sp)).collect());
    ecl_telemetry::sink::flush();
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);

    assert_eq!(rep.health.rejected, 1);
    let lines = sink.lines();
    let rejection = lines.iter().any(|l| {
        let Ok(j) = ecl_telemetry::schema::parse(l) else {
            return false;
        };
        j.get("event").and_then(|v| v.as_str()) == Some("events_lost")
            && j.get("reason").and_then(|v| v.as_str()) == Some("admission_refused")
            && j.get("session").and_then(|v| v.as_u64()) == Some(3)
            && j.get("total").and_then(|v| v.as_u64()) == Some(ev.len() as u64)
    });
    assert!(rejection, "no admission-refused events_lost line");
    let health = lines.iter().any(|l| {
        let Ok(j) = ecl_telemetry::schema::parse(l) else {
            return false;
        };
        j.get("event").and_then(|v| v.as_str()) == Some("fleet_health")
            && j.get("sessions").and_then(|v| v.as_u64()) == Some(3)
            && j.get("rejected").and_then(|v| v.as_u64()) == Some(1)
    });
    assert!(health, "no fleet_health line");
    for l in &lines {
        ecl_telemetry::schema::validate_line(l)
            .unwrap_or_else(|e| panic!("invalid line: {e}\n  {l}"));
    }
}

/// Every session failure reaches the stream, not only panics: a
/// watchdog node budget the pager exceeds on its first instant trips
/// each attempt of each session, and every trip is a session-stamped
/// `error` line (kind `watchdog`) counted in `sim.errors`, attributed
/// to the run its session opened.
#[test]
fn watchdog_trips_are_session_stamped_error_lines() {
    let _g = locked();
    let designs = ecl_core::Compiler::default()
        .partition(sim::designs::VOICE_PAGER, "pager")
        .expect("pager partitions");
    let specs =
        ecl_observe::synthesize_all(&ecl_syntax::parse_str(sim::designs::VOICE_PAGER).unwrap())
            .unwrap();
    let ev = Arc::new(
        PagerTb {
            rounds: 1,
            frames: 2,
            seed: 7,
        }
        .events(),
    );
    let sup = Supervisor::new(
        designs,
        &Default::default(),
        FleetConfig {
            shards: 2,
            restart: RestartPolicy {
                max_retries: 2,
                base_ticks: 1,
                max_ticks: 4,
                seed: 3,
            },
            watchdog: Some(WatchdogBudget {
                max_nodes: Some(1),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .expect("fleet compiles");

    ecl_telemetry::set_enabled(true);
    let sink = ecl_telemetry::MemorySink::new();
    ecl_telemetry::install_sink(Box::new(sink.clone()));
    let base = ecl_telemetry::metrics::snapshot();
    let rep = sup.run((1..=2).map(|id| session(id, &ev, &specs)).collect());
    let errors = ecl_telemetry::metrics::snapshot()
        .since(&base)
        .get("sim.errors");
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);

    let lines: Vec<Json> = sink
        .lines()
        .iter()
        .map(|l| {
            ecl_telemetry::schema::validate_line(l)
                .unwrap_or_else(|e| panic!("invalid line: {e}\n  {l}"));
            ecl_telemetry::schema::parse(l).expect("valid line parses")
        })
        .collect();
    let mut attribution = SessionAttribution::new();
    for l in &lines {
        attribution.check(l).expect("session attribution holds");
    }
    let mut reported = 0;
    for s in &rep.sessions {
        assert_eq!(s.status, SessionStatus::Failed, "session {}", s.id);
        assert_eq!(s.restarts, 2, "session {}", s.id);
        let trips: Vec<&Json> = lines
            .iter()
            .filter(|l| {
                l.get("event").and_then(Json::as_str) == Some("error")
                    && l.get("session").and_then(Json::as_u64) == Some(s.id)
            })
            .collect();
        assert_eq!(
            trips.len(),
            1 + s.restarts as usize,
            "one error line per attempt of session {}",
            s.id
        );
        for t in trips {
            assert_eq!(t.get("kind").and_then(Json::as_str), Some("watchdog"));
            assert_eq!(t.get("instant").and_then(Json::as_u64), Some(0));
        }
        reported += 1 + s.restarts as u64;
    }
    assert_eq!(
        errors, reported,
        "every reported error counts in sim.errors"
    );
}

/// The `fleet_health` line is the last of a fleet run, and it is
/// flushed with it: a buffered writer sink holds it without any later
/// run end or uninstall to push it out.
#[test]
fn fleet_health_is_flushed_as_the_last_line() {
    let _g = locked();
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig::default());

    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    ecl_telemetry::set_enabled(true);
    ecl_telemetry::install_sink(Box::new(ecl_telemetry::WriterSink::new(Shared(
        Arc::clone(&buf),
    ))));
    sup.run((1..=2).map(|id| session(id, &ev, &sp)).collect());
    let written = String::from_utf8(buf.lock().unwrap_or_else(|e| e.into_inner()).clone())
        .expect("utf-8 stream");
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);

    let last = written.lines().last().expect("the run wrote lines");
    let j = ecl_telemetry::schema::parse(last).expect("last line parses");
    assert_eq!(
        j.get("event").and_then(Json::as_str),
        Some("fleet_health"),
        "last line written: {last}"
    );
}
