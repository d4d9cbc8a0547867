//! The well-known metric registry: every instrumented subsystem counts
//! against a handle defined here, and profiling harnesses snapshot the
//! whole set by enumeration.
//!
//! Handles live in this crate (not in the crates that count them) so
//! the registry is closed and enumerable without link-time tricks. A
//! handle is a `Copy` index into two parallel stores: the process-wide
//! atomic cells that [`snapshot`] reads, and the plain per-runner
//! arrays of a [`crate::Probe`], which hot paths count into and flush
//! into the cells at run boundaries. [`counters`] and [`histograms`]
//! return every handle, and [`Snapshot`] captures/diffs them for
//! per-config profiling (`gen_profile` resets between configs to
//! attribute counts to one design).

use crate::HIST_BUCKETS;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonically increasing counter: slot `slot` of the
/// registry. Hot paths count into a [`crate::Probe`]; cold sites
/// (fault injection, supervision) may [`Counter::add`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    slot: usize,
    name: &'static str,
}

/// A named log₂-bucketed histogram: slot `slot` of the registry.
///
/// Quantiles are answered from the bucket upper bounds (within 2x of
/// the true value, which is plenty for "did the per-instant wall time
/// move"). Bucket `i` holds values in `[2^(i-1), 2^i)`; bucket 0 holds
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    slot: usize,
    name: &'static str,
}

/// Declares one kind of handle: an index enum (so slots follow
/// declaration order) and a documented `pub const` per entry, plus
/// the list of all of them.
macro_rules! handles {
    ($ty:ident, $slot:ident, $all:ident; $( $(#[$doc:meta])* $id:ident = $name:literal; )*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum $slot { $($id),* }
        $( $(#[$doc])* pub const $id: $ty = $ty { slot: $slot::$id as usize, name: $name }; )*
        const $all: &[$ty] = &[$($id),*];
    };
}

handles! { Counter, CounterSlot, SCALAR_COUNTERS;
    // ---- rtk: the POLIS-style kernel ------------------------------------
    /// Task dispatches (scheduler picks + periodic ticks).
    RTK_DISPATCHES = "rtk.dispatches";
    /// Events delivered into task mailboxes (external + internal).
    RTK_DELIVERIES = "rtk.deliveries";
    /// Events overwritten in a 1-place mailbox before consumption.
    RTK_EVENTS_LOST = "rtk.events_lost";
    /// Cycles charged to application reactions.
    RTK_TASK_CYCLES = "rtk.task_cycles";
    /// Cycles charged to kernel services.
    RTK_RTOS_CYCLES = "rtk.rtos_cycles";

    // ---- sim: the runners -----------------------------------------------
    /// Environment instants driven through `run_events`.
    SIM_INSTANTS = "sim.instants";
    /// Reaction failures surfaced by `run_events`.
    SIM_ERRORS = "sim.errors";
    /// Instants recorded into a trace ring.
    SIM_TRACE_INSTANTS = "sim.trace_instants";
    /// Instants evicted from a trace ring (recorded then dropped).
    SIM_TRACE_DROPPED = "sim.trace_dropped";

    // ---- efsm: the compiled-table control engine ------------------------
    /// Reactions stepped through `CompiledEfsm::step_table`.
    TABLE_STEPS = "table.steps";
    /// Rows compared until the hit, summed over all table-scanned steps
    /// (rows-per-hit = this / table-scanned steps).
    TABLE_ROWS_SCANNED = "table.rows_scanned";
    /// Steps answered by the single-row `Always` fast path.
    TABLE_ALWAYS_HITS = "table.always_hits";
    /// Steps that fell back to the s-graph walker (row-cap blowouts,
    /// fault-demoted states, or `Backend::Walker`).
    TABLE_WALK_FALLBACKS = "table.walk_fallbacks";
    /// Rows that fired a fused residual program (vs a simple emission
    /// slice).
    TABLE_FUSED_HITS = "table.fused_hits";
    /// Ops executed inside fused residual programs (preds, actions,
    /// emits, pads, ends).
    TABLE_FUSED_OPS = "table.fused_ops";

    // ---- ecl-types: the data-path bytecode VM ---------------------------
    /// Compiled-program runs (one per predicate/action/valued-emit hook).
    VM_HOOK_RUNS = "vm.hook_runs";
    /// `FallbackStmt` executions (statement subtrees the walker ran
    /// inside a compiled program).
    VM_FALLBACK_STMTS = "vm.fallback_stmts";
    /// Hook dispatches that bypassed the VM entirely (walker-compiled
    /// hook, a demoted hook, or `Backend::Walker` forced).
    VM_WALKER_HOOKS = "vm.walker_hooks";

    // ---- ecl-observe: monitors ------------------------------------------
    /// Monitor instants stepped (per monitor per environment instant).
    MON_STEPS = "mon.steps";
    /// Violations latched (first failure per monitor).
    MON_VIOLATIONS = "mon.violations";

    // ---- ecl-faults: injection & recovery -------------------------------
    /// Faults injected (all sites: drops, delays, corruption, squeezes,
    /// demotions, panics).
    FAULTS_INJECTED = "faults.injected";
    /// Compiled backends demoted to the walker (VM hooks + table states).
    FAULTS_DEGRADED = "faults.degraded";
    /// Runs ended by a per-instant watchdog budget (nodes/fuel/wall).
    SIM_WATCHDOG_TRIPS = "sim.watchdog_trips";
    /// Sessions whose panic was contained at the batch boundary.
    SIM_POISONED_SESSIONS = "sim.poisoned_sessions";

    // ---- ecl-fleet: session supervision ---------------------------------
    /// Checkpoints taken at instant boundaries (initial + periodic).
    FLEET_CHECKPOINTS = "fleet.checkpoints";
    /// Sessions restored from a checkpoint and replayed after a
    /// poisoned/inconclusive outcome.
    FLEET_RESTARTS = "fleet.restarts";
    /// Sessions refused admission by a full shard queue (the top rung of
    /// the pressure ladder).
    FLEET_REJECTED = "fleet.rejected";
    /// Sessions admitted in a degraded mode (trace/spans shed, monitors
    /// sampled).
    FLEET_SHED = "fleet.shed";
    /// Sessions that exhausted their restart budget and escalated to
    /// `Failed`.
    FLEET_FAILED = "fleet.failed_sessions";
}

handles! { Histogram, HistogramSlot, HISTOGRAMS;
    /// Mailbox occupancy (pending events) observed at each dispatch.
    RTK_MAILBOX_OCCUPANCY = "rtk.mailbox_occupancy";
    /// Wall time of one environment instant, nanoseconds.
    SIM_INSTANT_NS = "sim.instant_ns";
    /// Trace-ring occupancy (retained instants) sampled per recorded
    /// instant.
    SIM_TRACE_OCCUPANCY = "sim.trace_occupancy";
}

/// Opcode mnemonics, in the VM's `Op` declaration order.
/// `ecl_types::vm::Op::telemetry_index` indexes [`VM_OPS`] with this
/// ordering; a unit test over there keeps the two in sync.
pub const VM_OP_NAMES: [&str; 21] = [
    "burn",
    "const",
    "conv",
    "add_const",
    "add_scaled",
    "load_var",
    "store_var",
    "load_var_off",
    "store_var_off",
    "load_var_at",
    "store_var_at",
    "load_sig",
    "load_sig_off",
    "load_sig_at",
    "store_sig",
    "emit_copy",
    "bin",
    "un",
    "jmp",
    "jmp_if",
    "fallback_stmt",
];

/// Registered names of the per-opcode counters (`vm.op.<mnemonic>`).
const VM_OP_COUNTER_NAMES: [&str; 21] = [
    "vm.op.burn",
    "vm.op.const",
    "vm.op.conv",
    "vm.op.add_const",
    "vm.op.add_scaled",
    "vm.op.load_var",
    "vm.op.store_var",
    "vm.op.load_var_off",
    "vm.op.store_var_off",
    "vm.op.load_var_at",
    "vm.op.store_var_at",
    "vm.op.load_sig",
    "vm.op.load_sig_off",
    "vm.op.load_sig_at",
    "vm.op.store_sig",
    "vm.op.emit_copy",
    "vm.op.bin",
    "vm.op.un",
    "vm.op.jmp",
    "vm.op.jmp_if",
    "vm.op.fallback_stmt",
];

/// Per-opcode execution counters, indexed by `Op::telemetry_index`
/// (same order as [`VM_OP_NAMES`]); they follow the scalar counters
/// in the registry.
pub const VM_OPS: [Counter; 21] = {
    let mut ops = [RTK_DISPATCHES; 21];
    let mut i = 0;
    while i < ops.len() {
        ops[i] = Counter {
            slot: SCALAR_COUNTERS.len() + i,
            name: VM_OP_COUNTER_NAMES[i],
        };
        i += 1;
    }
    ops
};

/// Number of registered counters (the length of a probe's counter
/// array).
pub const N_COUNTERS: usize = SCALAR_COUNTERS.len() + VM_OPS.len();

/// Number of registered histograms.
pub const N_HISTOGRAMS: usize = HISTOGRAMS.len();

/// Cache-line isolation for the process-wide cells: they are written
/// at every flush, from every shard, so they must not share a line
/// with a static the hot path reads.
#[repr(align(128))]
struct Isolated<T>(T);

/// The process-wide totals: one relaxed atomic per counter, written
/// only when a probe flushes (or a cold site adds directly).
static COUNTER_CELLS: Isolated<[AtomicU64; N_COUNTERS]> =
    Isolated([const { AtomicU64::new(0) }; N_COUNTERS]);

/// The process-wide cells of one histogram.
struct HistogramCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

static HISTOGRAM_CELLS: Isolated<[HistogramCells; N_HISTOGRAMS]> = Isolated(
    [const {
        HistogramCells {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }; N_HISTOGRAMS],
);

/// The bucket of `v`: `64 - clz(v)`.
#[inline(always)]
pub(crate) fn bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Counter {
    /// The registered name.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Index into the registry (and into every probe).
    #[inline(always)]
    pub(crate) fn slot(self) -> usize {
        self.slot
    }

    /// Add `n` to the process-wide total if telemetry is enabled —
    /// for cold sites that run outside any probe's owner (fault
    /// injection, supervision). Hot paths count into a
    /// [`crate::Probe`] instead.
    pub fn add(self, n: u64) {
        if crate::enabled() {
            self.merge(n);
        }
    }

    /// Add 1 if telemetry is enabled (see [`Counter::add`]).
    pub fn incr(self) {
        self.add(1);
    }

    /// Unconditional add into the process-wide cell (probe flushes).
    pub(crate) fn merge(self, n: u64) {
        COUNTER_CELLS.0[self.slot].fetch_add(n, Ordering::Relaxed);
    }

    /// Current process-wide value (flushed counts only).
    pub fn get(self) -> u64 {
        COUNTER_CELLS.0[self.slot].load(Ordering::Relaxed)
    }

    /// Reset to zero (profiling harnesses isolate configs this way).
    pub fn reset(self) {
        COUNTER_CELLS.0[self.slot].store(0, Ordering::Relaxed);
    }
}

impl Histogram {
    /// The registered name.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Index into the registry (and into every probe).
    #[inline(always)]
    pub(crate) fn slot(self) -> usize {
        self.slot
    }

    fn cells(self) -> &'static HistogramCells {
        &HISTOGRAM_CELLS.0[self.slot]
    }

    /// Add a probe's buckets into the process-wide cells.
    pub(crate) fn merge(self, buckets: &[u64; HIST_BUCKETS], count: u64, sum: u64, max: u64) {
        let cells = self.cells();
        for (cell, &n) in cells.buckets.iter().zip(buckets) {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        cells.count.fetch_add(count, Ordering::Relaxed);
        cells.sum.fetch_add(sum, Ordering::Relaxed);
        cells.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(self) -> u64 {
        self.cells().count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(self) -> u64 {
        self.cells().sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value.
    pub fn max(self) -> u64 {
        self.cells().max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty).
    pub fn quantile(self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.cells().buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).wrapping_sub(1)
                };
            }
        }
        self.max()
    }

    /// Reset every cell to zero.
    pub fn reset(self) {
        let cells = self.cells();
        for b in &cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        cells.count.store(0, Ordering::Relaxed);
        cells.sum.store(0, Ordering::Relaxed);
        cells.max.store(0, Ordering::Relaxed);
    }
}

/// Every registered counter, in slot order.
pub fn counters() -> impl Iterator<Item = Counter> {
    SCALAR_COUNTERS.iter().chain(VM_OPS.iter()).copied()
}

/// Every registered histogram, in slot order.
pub fn histograms() -> impl Iterator<Item = Histogram> {
    HISTOGRAMS.iter().copied()
}

/// Zero the whole registry (profiling harnesses call this between
/// configs so counts attribute to exactly one run).
pub fn reset_all() {
    counters().for_each(Counter::reset);
    histograms().for_each(Histogram::reset);
}

/// A point-in-time capture of every counter (histograms are read live
/// via their handles; only counters need delta arithmetic).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(&'static str, u64)>,
}

/// Capture every counter.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: counters().map(|c| (c.name(), c.get())).collect(),
    }
}

impl Snapshot {
    /// Value of a named counter (0 when unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Per-counter difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (*n, v.saturating_sub(earlier.get(n))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = counters().map(Counter::name).collect();
        names.extend(histograms().map(Histogram::name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(n, names.len(), "duplicate metric name in registry");
        for (i, c) in counters().enumerate() {
            assert_eq!(c.slot(), i, "counter `{}` out of slot order", c.name());
        }
        for (i, h) in histograms().enumerate() {
            assert_eq!(h.slot(), i, "histogram `{}` out of slot order", h.name());
        }
    }

    #[test]
    fn vm_op_counters_follow_the_name_table() {
        for (i, name) in VM_OP_NAMES.iter().enumerate() {
            assert_eq!(VM_OPS[i].name(), format!("vm.op.{name}"));
        }
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let _g = crate::tests::locked();
        crate::set_enabled(true);
        reset_all();
        RTK_DISPATCHES.add(3);
        let base = snapshot();
        RTK_DISPATCHES.add(4);
        SIM_INSTANTS.add(2);
        let delta = snapshot().since(&base);
        assert_eq!(delta.get("rtk.dispatches"), 4);
        assert_eq!(delta.get("sim.instants"), 2);
        assert_eq!(delta.get("vm.hook_runs"), 0);
        crate::set_enabled(false);
        reset_all();
    }
}
