//! Per-runner telemetry probes: plain counters on the hot path,
//! atomics only at boundaries.
//!
//! A [`Probe`] mirrors the registry in [`crate::metrics`] with plain
//! `u64` counters and non-atomic log₂ histograms. Hot paths (table
//! steps, VM ops, trace recording, mailbox occupancy) count into the
//! probe of the runner that owns them; monitors, which have no
//! boundary of their own, count into the probe of the thread that
//! steps them ([`with_thread_probe`]). No cache line either writes is
//! shared with another thread. [`Probe::flush`] adds the deltas into
//! the process-wide cells once per boundary (end of `run_events`, a
//! span line, a fleet quantum, a session's end; a runner's flush also
//! runs [`flush_thread_probe`]) — [`crate::metrics::snapshot`] then
//! reports exactly the totals per-event atomics would have.
//!
//! Counting is unconditional; only the flush looks at
//! [`crate::enabled`]: with telemetry off it discards the deltas, so
//! the registry stays untouched.

use crate::metrics::{self, Counter, Histogram, N_COUNTERS, N_HISTOGRAMS};
use crate::HIST_BUCKETS;
use std::cell::RefCell;
use std::fmt;

/// One histogram's unflushed records.
#[derive(Clone, Copy)]
struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl LocalHistogram {
    const EMPTY: LocalHistogram = LocalHistogram {
        buckets: [0; HIST_BUCKETS],
        count: 0,
        sum: 0,
        max: 0,
    };
}

/// Unflushed metric deltas, owned by one runner or monitor.
///
/// Counters are a fixed array and the histograms are allocated once,
/// on their first record, so steady-state counting never allocates.
/// A clone starts empty and dropping a probe flushes it: unflushed
/// deltas belong to the instants that produced them, so copying a
/// probe along with its owner (a checkpoint, a session stamped from a
/// prototype) must not count that work twice, and discarding an owner
/// (a restore, a finished session) must not lose it.
pub struct Probe {
    counts: [u64; N_COUNTERS],
    /// Boxed and allocated on the first record: only runners record
    /// histograms, and the probes of data runtimes and monitors —
    /// cloned with every checkpoint — stay small.
    histograms: Option<Box<[LocalHistogram; N_HISTOGRAMS]>>,
}

impl Probe {
    /// An empty probe.
    pub const fn new() -> Probe {
        Probe {
            counts: [0; N_COUNTERS],
            histograms: None,
        }
    }

    /// Count `n` against `c`.
    #[inline(always)]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c.slot()] += n;
    }

    /// Record `v` into `h`.
    #[inline]
    pub fn record(&mut self, h: Histogram, v: u64) {
        let local = &mut self.histograms_mut()[h.slot()];
        local.buckets[metrics::bucket(v)] += 1;
        local.count += 1;
        local.sum += v;
        local.max = local.max.max(v);
    }

    fn histograms_mut(&mut self) -> &mut [LocalHistogram; N_HISTOGRAMS] {
        self.histograms
            .get_or_insert_with(|| Box::new([LocalHistogram::EMPTY; N_HISTOGRAMS]))
    }

    /// The unflushed count of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c.slot()]
    }

    /// Move `other`'s deltas into this probe (plain adds), leaving
    /// `other` empty — owners of several probes fold them into one
    /// before a single [`Probe::flush`].
    pub fn absorb(&mut self, other: &mut Probe) {
        for (n, m) in self.counts.iter_mut().zip(other.counts.iter_mut()) {
            *n += std::mem::take(m);
        }
        let Some(others) = other.histograms.as_deref_mut() else {
            return;
        };
        for (slot, theirs) in others.iter_mut().enumerate() {
            if theirs.count != 0 {
                let local = &mut self.histograms_mut()[slot];
                for (b, t) in local.buckets.iter_mut().zip(&theirs.buckets) {
                    *b += t;
                }
                local.count += theirs.count;
                local.sum += theirs.sum;
                local.max = local.max.max(theirs.max);
                *theirs = LocalHistogram::EMPTY;
            }
        }
    }

    /// Add every delta into the process-wide registry when telemetry
    /// is enabled (discard them when not), leaving the probe empty.
    pub fn flush(&mut self) {
        let on = crate::enabled();
        for (c, n) in metrics::counters().zip(self.counts.iter_mut()) {
            if *n != 0 {
                if on {
                    c.merge(*n);
                }
                *n = 0;
            }
        }
        let Some(histograms) = self.histograms.as_deref_mut() else {
            return;
        };
        for (h, local) in metrics::histograms().zip(histograms.iter_mut()) {
            if local.count != 0 {
                if on {
                    h.merge(&local.buckets, local.count, local.sum, local.max);
                }
                *local = LocalHistogram::EMPTY;
            }
        }
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Clone for Probe {
    /// An empty probe (see the type docs).
    fn clone(&self) -> Probe {
        Probe::new()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// The calling thread's probe (see [`with_thread_probe`]).
    static THREAD_PROBE: RefCell<Probe> = const { RefCell::new(Probe::new()) };
}

/// Count into the calling thread's probe.
///
/// For work stepped from inside a runner's instant loop that has no
/// flush boundary of its own — monitors, which are stepped in
/// `run_events` callbacks and fleet quanta on the runner's thread. Every
/// runner flush runs [`flush_thread_probe`], so these counts reach the
/// registry at the same boundaries, and under the same
/// [`crate::enabled`] state, as the runner's own.
#[inline]
pub fn with_thread_probe<R>(f: impl FnOnce(&mut Probe) -> R) -> R {
    THREAD_PROBE.with(|p| f(&mut p.borrow_mut()))
}

/// [`Probe::flush`] the calling thread's probe. A no-op while the
/// thread is being torn down (its probe flushes on drop then).
pub fn flush_thread_probe() {
    let _ = THREAD_PROBE.try_with(|p| {
        if let Ok(mut p) = p.try_borrow_mut() {
            p.flush();
        }
    });
}

impl fmt::Debug for Probe {
    /// The non-zero unflushed counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                metrics::counters()
                    .zip(&self.counts)
                    .filter(|(_, n)| **n != 0)
                    .map(|(c, n)| (c.name(), n)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RTK_DISPATCHES, SIM_INSTANT_NS, VM_OPS};

    #[test]
    fn flush_adds_deltas_exactly_once() {
        let _g = crate::tests::locked();
        crate::set_enabled(true);
        metrics::reset_all();
        let mut p = Probe::new();
        p.add(RTK_DISPATCHES, 3);
        p.add(VM_OPS[4], 2);
        for v in [0u64, 1, 2, 3, 100, 1000] {
            p.record(SIM_INSTANT_NS, v);
        }
        assert_eq!(RTK_DISPATCHES.get(), 0, "nothing global before a flush");
        p.flush();
        p.flush();
        assert_eq!(RTK_DISPATCHES.get(), 3);
        assert_eq!(VM_OPS[4].get(), 2);
        assert_eq!(SIM_INSTANT_NS.count(), 6);
        assert_eq!(SIM_INSTANT_NS.sum(), 1106);
        crate::set_enabled(false);
        metrics::reset_all();
    }

    #[test]
    fn absorb_moves_every_delta() {
        let _g = crate::tests::locked();
        let mut a = Probe::new();
        let mut b = Probe::new();
        a.add(RTK_DISPATCHES, 1);
        b.add(RTK_DISPATCHES, 2);
        b.add(VM_OPS[0], 4);
        b.record(SIM_INSTANT_NS, 9);
        a.absorb(&mut b);
        assert_eq!(a.get(RTK_DISPATCHES), 3);
        assert_eq!(a.get(VM_OPS[0]), 4);
        assert_eq!(a.histograms_mut()[SIM_INSTANT_NS.slot()].count, 1);
        assert_eq!(b.get(RTK_DISPATCHES), 0);
        assert_eq!(b.histograms_mut()[SIM_INSTANT_NS.slot()].count, 0);
        crate::set_enabled(false);
        a.flush();
    }

    #[test]
    fn thread_probe_flushes_on_demand() {
        let _g = crate::tests::locked();
        crate::set_enabled(true);
        metrics::reset_all();
        with_thread_probe(|p| p.add(RTK_DISPATCHES, 2));
        assert_eq!(RTK_DISPATCHES.get(), 0, "nothing global before a flush");
        flush_thread_probe();
        flush_thread_probe();
        assert_eq!(RTK_DISPATCHES.get(), 2);
        crate::set_enabled(false);
        metrics::reset_all();
    }

    #[test]
    fn disabled_flush_discards_and_drop_flushes() {
        let _g = crate::tests::locked();
        crate::set_enabled(false);
        metrics::reset_all();
        let mut p = Probe::new();
        p.add(RTK_DISPATCHES, 5);
        p.flush();
        assert_eq!(p.get(RTK_DISPATCHES), 0, "a disabled flush still empties");
        crate::set_enabled(true);
        assert_eq!(RTK_DISPATCHES.get(), 0, "discarded deltas never land");
        p.add(RTK_DISPATCHES, 7);
        let copy = p.clone();
        assert_eq!(copy.get(RTK_DISPATCHES), 0, "a clone starts empty");
        drop(copy);
        drop(p);
        assert_eq!(RTK_DISPATCHES.get(), 7, "drop flushed the original once");
        crate::set_enabled(false);
        metrics::reset_all();
    }
}
