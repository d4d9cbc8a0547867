//! Panic-isolated checking sessions: run a batch of monitored checks
//! so that one panicking (or poisoned) session never takes down its
//! siblings or the process.
//!
//! A *session* is one monitored run — a closure producing a
//! [`MonitoredRun`] (typically a [`crate::check_async_with`] or
//! [`crate::check_interp_with`] call). [`run_session`] wraps it in
//! `catch_unwind`; a panic is contained and surfaces as
//! [`SessionOutcome::Poisoned`] with the panic message, a
//! `sim.poisoned_sessions` counter bump and a telemetry `error`
//! event. [`run_sessions`] drives a batch sequentially, isolating
//! each — the batch always returns one outcome per session, in order.
//!
//! The runners cooperate: a panic that unwinds out of an instant
//! leaves the runner's `in_instant` latch set, so any later use of the
//! same runner is refused with a `poisoned` error instead of
//! continuing from torn state (see `sim::runner`). Sessions built
//! through the closures here construct a fresh runner per session, so
//! poisoning cannot leak across sessions either way.

use crate::check::MonitoredRun;
use ecl_syntax::diag::EclError;
use ecl_telemetry::metrics as tm;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What became of one isolated checking session.
#[derive(Debug)]
pub enum SessionOutcome {
    /// The session ran to completion (its report may still contain
    /// `Fail` or `Inconclusive` verdicts).
    Finished(MonitoredRun),
    /// The session returned an error through the normal channel.
    Error(EclError),
    /// The session panicked; the panic was contained at the session
    /// boundary and the rest of the batch kept running.
    Poisoned {
        /// The panic payload, when it was a string.
        msg: String,
    },
}

impl SessionOutcome {
    /// Did the session run to completion?
    pub fn is_finished(&self) -> bool {
        matches!(self, SessionOutcome::Finished(_))
    }

    /// The completed run, if the session finished.
    pub fn run(&self) -> Option<&MonitoredRun> {
        match self {
            SessionOutcome::Finished(r) => Some(r),
            _ => None,
        }
    }
}

/// Run one checking session with panic isolation. A panic inside `f`
/// is caught at this boundary: it bumps `sim.poisoned_sessions`,
/// emits a telemetry `error` event (kind `panic`) and returns
/// [`SessionOutcome::Poisoned`] — it never unwinds into the caller.
pub fn run_session<F>(label: &str, f: F) -> SessionOutcome
where
    F: FnOnce() -> Result<MonitoredRun, EclError>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(run)) => SessionOutcome::Finished(run),
        Ok(Err(e)) => SessionOutcome::Error(e),
        Err(p) => {
            let msg = ecl_telemetry::panic_msg(p.as_ref());
            tm::SIM_POISONED_SESSIONS.incr();
            if let Some(e) = ecl_telemetry::event("error") {
                e.str("kind", "panic")
                    .str("session", label)
                    .str("msg", &msg)
                    .emit();
            }
            SessionOutcome::Poisoned { msg }
        }
    }
}

/// Run a batch of labelled sessions, each isolated by
/// [`run_session`]. One outcome per session, in batch order; a
/// poisoned session never prevents its siblings from running.
pub fn run_sessions<F>(sessions: Vec<(String, F)>) -> Vec<SessionOutcome>
where
    F: FnOnce() -> Result<MonitoredRun, EclError>,
{
    sessions
        .into_iter()
        .map(|(label, f)| run_session(&label, f))
        .collect()
}
