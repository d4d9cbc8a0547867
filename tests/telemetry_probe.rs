//! Probe flushes are exact: the same sessions counted solo, on a
//! one-shard fleet and on a two-shard fleet leave identical registry
//! deltas.
//!
//! Runners count into their own probes, monitors into the probe of
//! the thread that steps them, and both flush at the runner's
//! boundaries (end of `run_events`, fleet quanta, restores, drops).
//! Nothing may be lost or counted twice on the way — not by checkpoint
//! clones of a probe's owner, not by two shards flushing into the same
//! cells. The solo drive mirrors the supervisor's quantum loop
//! (`step_event`, then the monitors), so every counter outside the
//! supervisor's own `fleet.*` family must match it exactly. A
//! `run_events` drive checks that monitors stepped in its callback are
//! counted by the time it returns, and only while telemetry is on.
//!
//! One test function on purpose: the telemetry switch and registry are
//! process-global, so nothing else in this binary may count while the
//! deltas are taken.

use ecl_fleet::{FleetConfig, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{synthesize_all, Monitor};
use ecl_telemetry::metrics::{self, Snapshot};
use efsm::BitSet;
use sim::designs::VOICE_PAGER;
use sim::runner::{AsyncRunner, Runner, Snapshot as _};
use sim::tb::{InstantEvents, PagerTb};
use std::sync::Arc;

const SESSIONS: u64 = 6;
const TRACE: usize = 64;

fn specs_for(
    events: &Arc<Vec<InstantEvents>>,
    specs: &[Arc<ecl_observe::MonitorSpec>],
) -> Vec<SessionSpec> {
    (1..=SESSIONS)
        .map(|id| SessionSpec {
            id,
            events: Arc::clone(events),
            specs: specs.to_vec(),
            trace_capacity: Some(TRACE),
        })
        .collect()
}

/// Registry delta of one fleet run.
fn fleet_delta(sup: &Supervisor, sessions: Vec<SessionSpec>) -> Snapshot {
    let base = metrics::snapshot();
    let report = sup.run(sessions);
    assert!(
        report
            .sessions
            .iter()
            .all(|s| s.status == SessionStatus::Finished),
        "{:?}",
        report.health
    );
    metrics::snapshot().since(&base)
}

/// Registry delta of the same sessions driven one after another on
/// this thread, the way a shard drives them.
fn solo_delta(sup: &Supervisor, sessions: &[SessionSpec]) -> Snapshot {
    let base = metrics::snapshot();
    for spec in sessions {
        let mut runner =
            AsyncRunner::from_shared(sup.shared(), Default::default(), Default::default());
        runner.enable_trace(TRACE);
        let mut monitors: Vec<Monitor> = spec
            .specs
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(runner.sig_table());
                m
            })
            .collect();
        let mut stimuli = BitSet::new();
        let mut present = BitSet::new();
        for ev in spec.events.iter() {
            let instant = runner
                .step_event(ev, &mut stimuli, &mut present, false)
                .expect("instant");
            for m in &mut monitors {
                m.step_ids(instant, &present, runner.sig_table());
            }
            // The supervisor's checkpoint cadence, but taken with the
            // probes unflushed: copying a probe's owner must not copy
            // its counts.
            if runner.now().is_multiple_of(64) {
                let checkpoint = (runner.snapshot().expect("boundary"), monitors.clone());
                drop(checkpoint);
            }
        }
        // Runner and monitors flush when dropped here.
    }
    metrics::snapshot().since(&base)
}

/// Registry delta of one telemetry-on `run_events` pass with both
/// monitors stepped in its callback, taken while runner and monitors
/// are alive, after a telemetry-off pass over the same runner.
fn run_events_delta(sup: &Supervisor, spec: &SessionSpec) -> Snapshot {
    let mut runner = AsyncRunner::from_shared(sup.shared(), Default::default(), Default::default());
    runner.enable_trace(TRACE);
    let mut monitors: Vec<Monitor> = spec
        .specs
        .iter()
        .map(|s| Monitor::new(Arc::clone(s)))
        .collect();
    let mut pass = |runner: &mut AsyncRunner| {
        runner
            .run_events(&spec.events, |i, p| {
                for m in monitors.iter_mut() {
                    m.step_present(i, p);
                }
            })
            .expect("pass runs");
    };
    ecl_telemetry::set_enabled(false);
    pass(&mut runner);
    ecl_telemetry::set_enabled(true);
    let base = metrics::snapshot();
    pass(&mut runner);
    metrics::snapshot().since(&base)
}

#[test]
fn solo_one_shard_and_two_shards_count_identically() {
    ecl_telemetry::set_enabled(true);
    let designs = ecl_core::Compiler::default()
        .partition(VOICE_PAGER, "pager")
        .expect("pager partitions");
    let specs = synthesize_all(&ecl_syntax::parse_str(VOICE_PAGER).unwrap()).unwrap();
    let events = Arc::new(
        PagerTb {
            rounds: 4,
            frames: 4,
            seed: 7,
        }
        .events(),
    );
    let fleet = |shards| {
        Supervisor::new(
            designs.clone(),
            &Default::default(),
            FleetConfig {
                shards,
                ..FleetConfig::default()
            },
        )
        .expect("fleet compiles")
    };
    let (one, two) = (fleet(1), fleet(2));
    let session = &specs_for(&events, &specs)[0];
    let pass = run_events_delta(&one, session);
    let n = events.len() as u64;
    assert_eq!(pass.get("sim.instants"), n);
    assert_eq!(
        pass.get("mon.steps"),
        2 * n,
        "monitor steps reach the registry when run_events returns"
    );
    assert_eq!(
        pass.get("table.steps"),
        pass.get("rtk.dispatches") + 2 * n,
        "one table step per dispatch and per monitor step"
    );
    let solo = solo_delta(&one, &specs_for(&events, &specs));
    let sharded1 = fleet_delta(&one, specs_for(&events, &specs));
    let sharded2 = fleet_delta(&two, specs_for(&events, &specs));
    ecl_telemetry::set_enabled(false);

    assert_eq!(
        sharded1.counters, sharded2.counters,
        "one shard and two shards counted differently"
    );
    for (name, n) in &solo.counters {
        if !name.starts_with("fleet.") {
            assert_eq!(
                sharded1.get(name),
                *n,
                "`{name}`: the fleet and the solo drive disagree"
            );
        }
    }
    let instants = SESSIONS * events.len() as u64;
    assert_eq!(
        solo.get("rtk.dispatches"),
        3 * instants,
        "3 tasks tick per instant"
    );
    assert_eq!(
        solo.get("mon.steps"),
        2 * instants,
        "2 monitors per instant"
    );
    assert_eq!(solo.get("sim.trace_instants"), instants);
    for name in [
        "table.steps",
        "table.rows_scanned",
        "vm.hook_runs",
        "rtk.deliveries",
    ] {
        assert!(solo.get(name) > 0, "`{name}` never counted");
    }
    assert!(
        sharded1.get("fleet.checkpoints") > SESSIONS,
        "periodic checkpoints were taken"
    );
}
