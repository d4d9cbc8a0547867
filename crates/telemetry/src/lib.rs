//! `ecl-telemetry` — structured observability for the reaction hot
//! path.
//!
//! Every execution backend in this repo (s-graph walker, transition
//! tables, bytecode VM) ultimately runs inside the same per-instant
//! loop; this crate gives that loop one shared window: a **closed
//! metric registry** of counter and histogram handles, **per-runner
//! probes** that count into it, a **per-run correlation id**, and a
//! **pluggable sink** that emits one JSON object per line (run
//! boundaries, per-N-instant span summaries, monitor verdicts, error
//! instants, `events_lost` warnings).
//!
//! The overhead contract, enforced by `tests/alloc_counter.rs` and the
//! normalized bench gate:
//!
//! * **No atomics on the hot path.** Every runner owns a [`Probe`]:
//!   plain `u64` counters and non-atomic histograms, indexed by the
//!   registry in [`metrics`] (the histograms are allocated once, on
//!   their first record). Table steps, VM ops and trace recording
//!   count into it with ordinary adds, on or off; the kernel's own
//!   plain totals are folded in at the flush. Monitors, stepped on
//!   the runner's thread, count into that thread's probe
//!   ([`with_thread_probe`]). Fleet shards therefore never write a
//!   cache line another shard reads.
//! * **Probes flush at boundaries.** [`Probe::flush`] adds the deltas
//!   into the process-wide atomic cells at the end of `run_events`,
//!   at each span line, at each fleet quantum and at a session's end
//!   (and when the probe is dropped); a runner's flush takes the
//!   thread's probe along ([`flush_thread_probe`]), and so does
//!   concluding a monitor. With telemetry **disabled** (the
//!   default) the flush discards the deltas and the registry never
//!   moves; **enabled**, [`metrics::snapshot`] reports exactly the
//!   totals per-event counting would have. Cold sites (fault
//!   injection, supervision) may still [`Counter::add`] directly.
//! * **No steady-state allocation** either way. Heap traffic happens
//!   only when an *event line* is rendered for the sink (run
//!   boundaries, spans, verdicts — never per instant in steady state
//!   unless a span closes). The clock is read per instant only while
//!   enabled (for the `sim.instant_ns` histogram).
//!
//! Nothing here depends on the rest of the workspace: `rtk`, `efsm`,
//! `ecl-types`, `sim`, `ecl-observe` and `ecl-fleet` all depend on
//! this crate and count against the well-known handles in
//! [`metrics`].

pub mod json;
pub mod metrics;
mod probe;
pub mod run;
pub mod schema;
pub mod sink;

pub use metrics::{Counter, Histogram};
pub use probe::{flush_thread_probe, with_thread_probe, Probe};
pub use run::{current_session, event, EventBuilder, Run, RunCoverage};
pub use sink::{install_sink, uninstall_sink, MemorySink, Sink, WriterSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Master switch. Off by default; probe flushes, cold-site counter
/// adds and event emission all check this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span summary cadence in instants (0 = spans off). Read once per
/// `run_events` call by the sim runners.
static SPAN_EVERY: AtomicU64 = AtomicU64::new(1024);

/// Is telemetry collection on? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current span cadence (instants per span summary; 0 = off).
pub fn span_every() -> u64 {
    SPAN_EVERY.load(Ordering::Relaxed)
}

/// Set the span cadence (0 disables span summaries).
pub fn set_span_every(n: u64) {
    SPAN_EVERY.store(n, Ordering::Relaxed);
}

/// Configure from the environment — the switchboard for binaries and
/// examples: `ECL_TELEMETRY=1` enables collection,
/// `ECL_TELEMETRY_OUT=<path>` installs a line-buffered file sink
/// (stderr with `ECL_TELEMETRY_OUT=-`), `ECL_TELEMETRY_SPAN=<n>`
/// overrides the span cadence. Returns whether telemetry ended up
/// enabled.
pub fn init_from_env() -> bool {
    let on = std::env::var("ECL_TELEMETRY").is_ok_and(|v| v != "0" && !v.is_empty());
    set_enabled(on);
    if let Ok(n) = std::env::var("ECL_TELEMETRY_SPAN") {
        if let Ok(n) = n.parse::<u64>() {
            set_span_every(n);
        }
    }
    if on {
        match std::env::var("ECL_TELEMETRY_OUT").as_deref() {
            Ok("-") => install_sink(Box::new(WriterSink::stderr())),
            Ok(path) => match std::fs::File::create(path) {
                Ok(f) => install_sink(Box::new(WriterSink::new(f))),
                Err(e) => eprintln!("ecl-telemetry: cannot open {path}: {e}"),
            },
            Err(_) => {}
        }
    }
    on
}

/// Bucket count of a [`Histogram`]: one power-of-two bucket per
/// possible `leading_zeros` answer (bucket `i` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 holds zero).
pub const HIST_BUCKETS: usize = 65;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FLEET_FAILED, SIM_INSTANT_NS};

    // Process-global state (ENABLED, the registry) is shared across
    // test threads; serialize the tests that flip or read it.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_counter_does_not_move() {
        let _g = locked();
        set_enabled(false);
        FLEET_FAILED.reset();
        FLEET_FAILED.add(5);
        FLEET_FAILED.incr();
        assert_eq!(FLEET_FAILED.get(), 0);
    }

    #[test]
    fn enabled_counter_counts_and_resets() {
        let _g = locked();
        set_enabled(true);
        FLEET_FAILED.reset();
        FLEET_FAILED.add(5);
        FLEET_FAILED.incr();
        assert_eq!(FLEET_FAILED.get(), 6);
        FLEET_FAILED.reset();
        assert_eq!(FLEET_FAILED.get(), 0);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = locked();
        set_enabled(true);
        SIM_INSTANT_NS.reset();
        let mut p = Probe::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            p.record(SIM_INSTANT_NS, v);
        }
        p.flush();
        assert_eq!(SIM_INSTANT_NS.count(), 6);
        assert_eq!(SIM_INSTANT_NS.sum(), 1106);
        assert_eq!(SIM_INSTANT_NS.max(), 1000);
        assert_eq!(SIM_INSTANT_NS.quantile(0.0), 0);
        // p50 lands in the bucket of 2..=3.
        assert_eq!(SIM_INSTANT_NS.quantile(0.5), 3);
        assert!(SIM_INSTANT_NS.quantile(1.0) >= 1000);
        SIM_INSTANT_NS.reset();
        assert_eq!(SIM_INSTANT_NS.quantile(0.5), 0);
        set_enabled(false);
    }
}
