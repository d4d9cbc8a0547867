//! Task runners: compiled EFSMs on the RTOS, and an interpreter-backed
//! reference runner for differential testing.
//!
//! Both runners intern every global signal name into a shared
//! [`SigTable`] at construction and then run the whole reaction hot
//! path on dense [`SigId`]s and [`BitSet`] presence sets: kernel
//! mailboxes, task dispatch, emission fan-out and trace recording never
//! touch a string. The [`Runner`] trait exposes that fast path as
//! [`Runner::instant_ids`] (zero heap allocations per instant in steady
//! state) and keeps the original `&str`-based [`Runner::instant`] as a
//! thin compatibility shim on top.
//!
//! Both runners can record a [`Trace`] of every signal occurrence
//! (enable with `enable_trace`), and both implement the [`Runner`]
//! trait, whose `run_events` testbench hook drives a whole
//! [`InstantEvents`] stream and hands the per-instant [`Present`] set
//! to a callback — the attachment point for online monitors
//! (`ecl-observe`).

use crate::tb::InstantEvents;
use crate::trace::{Recorder, Trace};
use codegen::cost::CostParams;
use ecl_core::{Design, Rt};
use ecl_telemetry::metrics as tm;
use ecl_telemetry::Probe;
use efsm::{Backend, BitSet, CompiledEfsm, DataHooks, Efsm, SigId, SigTable, Signal, StateId};
use esterel::compile::CompileOptions;
use rtk::{Kernel, KernelParams, KernelTotals, TaskId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What class of failure ended a simulation — recovery layers map
/// these onto verdicts: [`SimErrorKind::is_inconclusive`] kinds end a
/// monitored run as `Inconclusive` (the run was cut short, nothing
/// was proven), the rest stay definite errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorKind {
    /// A reaction or data-path evaluation failure — definite.
    Eval,
    /// The phase-2 cascade budget ran out (tasks kept waking each
    /// other).
    Livelock,
    /// A per-instant [`WatchdogBudget`] was exceeded.
    Watchdog,
    /// The runner state was torn by a panic in an earlier instant —
    /// the session must not be driven further.
    Poisoned,
}

impl SimErrorKind {
    /// Stable lowercase name (telemetry `error` lines carry it).
    pub fn as_str(self) -> &'static str {
        match self {
            SimErrorKind::Eval => "eval",
            SimErrorKind::Livelock => "livelock",
            SimErrorKind::Watchdog => "watchdog",
            SimErrorKind::Poisoned => "poisoned",
        }
    }

    /// Should a monitored run conclude `Inconclusive` rather than
    /// propagate an error? True for budget trips: the run was ended
    /// deliberately, not because the design misbehaved.
    pub fn is_inconclusive(self) -> bool {
        matches!(self, SimErrorKind::Livelock | SimErrorKind::Watchdog)
    }
}

/// Simulation failure.
#[derive(Debug)]
pub struct SimError {
    /// Explanation.
    pub msg: String,
    /// Failure class (see [`SimErrorKind`]).
    pub kind: SimErrorKind,
}

impl SimError {
    /// A definite evaluation failure.
    pub fn eval(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Eval,
        }
    }

    /// A cascade-budget (livelock) failure.
    pub fn livelock(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Livelock,
        }
    }

    /// A watchdog-budget trip.
    pub fn watchdog(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Watchdog,
        }
    }

    /// A poisoned-runner rejection.
    pub fn poisoned(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Poisoned,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.msg)
    }
}

impl std::error::Error for SimError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SimError> {
    Err(SimError::eval(msg))
}

/// Per-instant resource budgets — the watchdog that turns a hung or
/// runaway run into a definite [`SimErrorKind::Watchdog`] stop (which
/// monitored runs report as an `Inconclusive` verdict) instead of an
/// endless sit. All limits apply to a *single* environment instant;
/// `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogBudget {
    /// Max s-graph nodes visited per instant (on the interpreter
    /// runner: constructive passes — its reaction reports no node
    /// counts). Deterministic across backends.
    pub max_nodes: Option<u64>,
    /// Max data-path fuel burned per instant. Deterministic across
    /// backends (fuel charges are bit-identical by the VM contract).
    pub max_fuel: Option<u64>,
    /// Max wall-clock nanoseconds per instant. Inherently
    /// nondeterministic — use for hang protection, not for
    /// reproducible chaos plans.
    pub max_wall_ns: Option<u64>,
}

/// One instant's present set: interned ids plus the table to resolve
/// them — what [`Runner::run_events`] hands its callback. Names are
/// materialized only on demand (the lazy name iterator), so monitors
/// that work on ids never pay for strings.
#[derive(Debug, Clone, Copy)]
pub struct Present<'a> {
    table: &'a SigTable,
    set: &'a BitSet,
}

impl<'a> Present<'a> {
    /// Wrap a presence set.
    pub fn new(table: &'a SigTable, set: &'a BitSet) -> Present<'a> {
        Present { table, set }
    }

    /// The signal table the ids resolve against.
    pub fn table(&self) -> &'a SigTable {
        self.table
    }

    /// The present ids.
    pub fn ids(&self) -> &'a BitSet {
        self.set
    }

    /// Is `sig` present?
    pub fn contains_id(&self, sig: SigId) -> bool {
        self.set.contains(sig.bit())
    }

    /// Is the (exact) global name present?
    pub fn contains(&self, name: &str) -> bool {
        self.table
            .lookup(name)
            .is_some_and(|id| self.set.contains(id.bit()))
    }

    /// Lazy iterator over the present names, in id order.
    pub fn names(&self) -> impl Iterator<Item = &'a str> + 'a {
        self.table.names_of(self.set)
    }

    /// Materialize the present names (compatibility helper).
    pub fn to_names(&self) -> Vec<String> {
        self.names().map(str::to_string).collect()
    }
}

/// Compiled-backend coverage of one task: how much of its control
/// and data path executes fused/compiled rather than on the walker,
/// and how much fault injection has demoted back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCoverage {
    /// Task entry-module name.
    pub task: String,
    /// Control states in the task's EFSM.
    pub states: u32,
    /// States fused into compiled rows (the rest walk).
    pub fused_states: u32,
    /// Fused transition rows.
    pub fused_rows: u32,
    /// Data hooks compiled to VM bytecode.
    pub vm_compiled: u32,
    /// Total data hooks (predicates + actions + valued emits).
    pub vm_total: u32,
    /// States demoted to the walker by the fault-injection ladder.
    pub demoted_states: u32,
    /// Data hooks demoted to the walker by the fault-injection ladder.
    pub demoted_hooks: u32,
}

/// Compiled-backend coverage over a whole runner, per task — the one
/// schema that replaced the `vm_coverage()`/`tabled_states()` tuple
/// pair. Consumed by `gen_bench`, `gen_profile`, and (via
/// [`CoverageReport::telemetry`]) the `run_end` telemetry event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// One entry per task, in task order.
    pub tasks: Vec<TaskCoverage>,
}

impl CoverageReport {
    /// Total control states.
    pub fn states(&self) -> u32 {
        self.tasks.iter().map(|t| t.states).sum()
    }

    /// Total fused states.
    pub fn fused_states(&self) -> u32 {
        self.tasks.iter().map(|t| t.fused_states).sum()
    }

    /// Total fused rows.
    pub fn fused_rows(&self) -> u32 {
        self.tasks.iter().map(|t| t.fused_rows).sum()
    }

    /// Total VM-compiled data hooks.
    pub fn vm_compiled(&self) -> u32 {
        self.tasks.iter().map(|t| t.vm_compiled).sum()
    }

    /// Total data hooks.
    pub fn vm_total(&self) -> u32 {
        self.tasks.iter().map(|t| t.vm_total).sum()
    }

    /// Total walker-demoted sites (states + hooks).
    pub fn demoted_sites(&self) -> u32 {
        self.tasks
            .iter()
            .map(|t| t.demoted_states + t.demoted_hooks)
            .sum()
    }

    /// Does every state and every data hook execute compiled — i.e.
    /// under [`Backend::Compiled`] no s-graph walker step can occur
    /// inside an instant (absent fault demotions)?
    pub fn fully_fused(&self) -> bool {
        self.fused_states() == self.states() && self.vm_compiled() == self.vm_total()
    }

    /// The flat shape the telemetry `run_end` event carries.
    pub fn telemetry(&self) -> ecl_telemetry::RunCoverage {
        ecl_telemetry::RunCoverage {
            fused_states: self.fused_states(),
            states: self.states(),
            fused_rows: self.fused_rows(),
            vm_compiled: self.vm_compiled(),
            vm_total: self.vm_total(),
            demoted_sites: self.demoted_sites(),
        }
    }
}

/// The common driving surface of both runners.
///
/// Trace recording and emission accounting are implemented here once,
/// as default methods over the two slot accessors ([`Runner::trace_slot`]
/// / [`Runner::counts_slot`]) — runners only expose their [`Recorder`]
/// and count array.
pub trait Runner {
    /// Choose the execution backend — [`Backend::Compiled`] (the
    /// default) runs fused per-task programs (mask-scan rows falling
    /// through into bytecode), [`Backend::Walker`] forces the
    /// reference tree interpreter for control and data alike. The two
    /// are observationally identical (differential-tested); the switch
    /// exists for measurement, bisection and differential gating.
    fn set_backend(&mut self, backend: Backend);

    /// The active execution backend.
    fn backend(&self) -> Backend;

    /// Compiled-backend coverage, per task.
    fn coverage(&self) -> CoverageReport;

    /// The design-wide signal interner (built once at construction).
    fn sig_table(&self) -> &Arc<SigTable>;

    /// The runner's trace recorder.
    fn trace_slot(&self) -> &Recorder;

    /// The runner's trace recorder, mutably.
    fn trace_slot_mut(&mut self) -> &mut Recorder;

    /// Emission counts indexed by interned [`SigId`] bit.
    fn counts_slot(&self) -> &[u64];

    /// Start recording a signal trace retaining the last `capacity`
    /// instants (0 = unbounded).
    fn enable_trace(&mut self, capacity: usize) {
        self.trace_slot_mut().enable(capacity);
    }

    /// The recorded trace so far, if tracing is enabled.
    fn recorded_trace(&self) -> Option<&Trace> {
        self.trace_slot().current()
    }

    /// Detach and return the recorded trace (tracing stops).
    fn take_trace(&mut self) -> Option<Trace> {
        self.trace_slot_mut().take()
    }

    /// Emission count of one signal.
    fn count_of(&self, name: &str) -> u64 {
        self.sig_table()
            .lookup(name)
            .map_or(0, |id| self.counts_slot()[id.bit()])
    }

    /// Emission counts by signal name (signals emitted at least once).
    fn counts(&self) -> HashMap<String, u64> {
        let table = self.sig_table();
        self.counts_slot()
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (table.name(SigId(i as u32)).to_string(), *n))
            .collect()
    }

    /// Set a valued external input by interned id (the fast path of
    /// [`Runner::set_input_i64`]).
    ///
    /// # Errors
    ///
    /// Unknown or pure signal.
    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError>;

    /// Set a valued external input (the testbench side of `emit_v`).
    ///
    /// # Errors
    ///
    /// Unknown or pure signal.
    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.sig_table().lookup(name) else {
            return err(format!("no task reads signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// Run one environment instant with the interned `events` present.
    /// The emitted ids are written into `out` (cleared first). This is
    /// the zero-allocation fast path: in steady state neither runner
    /// touches the heap here (scratch buffers are reused across
    /// instants).
    ///
    /// # Errors
    ///
    /// Propagates reaction and data-evaluation failures.
    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError>;

    /// Run one environment instant; returns the emitted names in
    /// delivery order. Compatibility shim over [`Runner::instant_ids`]
    /// (allocates; unknown event names are ignored).
    ///
    /// # Errors
    ///
    /// Propagates reaction and data-evaluation failures.
    fn instant(&mut self, events: &[&str]) -> Result<Vec<String>, SimError>;

    /// The next environment instant number.
    fn now(&self) -> u64;

    /// The fleet session id telemetry `error` lines carry (0 for
    /// runners outside a fleet — see [`AsyncRunner::set_session`]).
    fn session_id(&self) -> u64 {
        0
    }

    /// Flush loss accounting to telemetry (an `events_lost` event per
    /// task with a non-zero count). A no-op for runners without a
    /// kernel; [`AsyncRunner`] reports mailbox-overwrite losses.
    /// Called from the `run_events` brackets on both the success and
    /// the error path so losses never silently vanish from a stream.
    fn emit_losses(&self) {}

    /// The runner's telemetry probe: the per-instant counts
    /// [`Runner::run_events`] keeps (instants, errors, instant wall
    /// time) land here next to the runner's own.
    fn probe_mut(&mut self) -> &mut Probe;

    /// Flush every probe the runner owns into the process-wide
    /// registry (see [`Probe::flush`]), and the calling thread's probe,
    /// where monitors stepped beside the runner count
    /// ([`ecl_telemetry::with_thread_probe`]). [`Runner::run_events`] calls
    /// this at each span line and when it returns; callers that drive
    /// [`Runner::instant_ids`] themselves call it at their own
    /// boundaries. Dropping a runner flushes too.
    fn flush_telemetry(&mut self);

    /// Testbench hook: drive a whole event stream, calling
    /// `on_instant` with the instant number and the [`Present`] set
    /// (stimuli plus emissions) after each instant — the attachment
    /// point for online monitors. Runs entirely on the id fast path;
    /// the only per-instant heap traffic is whatever the callback does.
    ///
    /// # Errors
    ///
    /// Propagates input and reaction failures.
    fn run_events<F>(&mut self, events: &[InstantEvents], mut on_instant: F) -> Result<(), SimError>
    where
        Self: Sized,
        F: FnMut(u64, Present<'_>),
    {
        let mut ev_bits = BitSet::new();
        let mut present = BitSet::new();
        // The clock is read only when collection is on (checked once
        // per call), and span bookkeeping is all locals (no allocation
        // until a span line is rendered).
        let tel = ecl_telemetry::enabled();
        let span_every = if tel { ecl_telemetry::span_every() } else { 0 };
        let mut span_from = self.now();
        let mut span_t0 = (span_every > 0).then(std::time::Instant::now);
        let mut in_window = 0u64;
        for ev in events {
            ev_bits.clear();
            for (name, v) in &ev.valued {
                let Some(id) = self.sig_table().lookup(name) else {
                    return err(format!("no task reads signal `{name}`"));
                };
                self.set_input_i64_id(id, *v)?;
                ev_bits.insert(id.bit());
            }
            for name in ev.pure.iter() {
                if let Some(id) = self.sig_table().lookup(name) {
                    ev_bits.insert(id.bit());
                }
            }
            let instant = self.now();
            let r = if tel {
                let t0 = std::time::Instant::now();
                let r = self.instant_ids(&ev_bits, &mut present);
                let ns = t0.elapsed().as_nanos() as u64;
                self.probe_mut().record(tm::SIM_INSTANT_NS, ns);
                r
            } else {
                self.instant_ids(&ev_bits, &mut present)
            };
            self.probe_mut().add(tm::SIM_INSTANTS, 1);
            if let Err(e) = r {
                self.probe_mut().add(tm::SIM_ERRORS, 1);
                if let Some(ev) = ecl_telemetry::event("error") {
                    ev.u64("instant", instant)
                        .u64("session", self.session_id())
                        .str("kind", e.kind.as_str())
                        .str("msg", &e.msg)
                        .emit();
                }
                self.emit_losses();
                self.flush_telemetry();
                return Err(e);
            }
            present.union_with(&ev_bits);
            on_instant(instant, Present::new(self.sig_table(), &present));
            if span_every > 0 {
                in_window += 1;
                if in_window >= span_every {
                    let window_ns = span_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    // The quantiles are read from the registry, so
                    // flush this runner's window into it first.
                    self.flush_telemetry();
                    if let Some(e) = ecl_telemetry::event("span") {
                        e.u64("from", span_from)
                            .u64("to", instant + 1)
                            .u64("window_ns", window_ns)
                            .u64("p50_ns", tm::SIM_INSTANT_NS.quantile(0.5))
                            .u64("p99_ns", tm::SIM_INSTANT_NS.quantile(0.99))
                            .emit();
                    }
                    span_from = instant + 1;
                    span_t0 = Some(std::time::Instant::now());
                    in_window = 0;
                }
            }
        }
        self.emit_losses();
        self.flush_telemetry();
        Ok(())
    }

    /// [`Runner::run_events`] with the legacy name-vector callback
    /// (kept for comparison benchmarks and external callers; clones
    /// every present name per instant).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runner::run_events`].
    fn run_events_names<F>(
        &mut self,
        events: &[InstantEvents],
        mut on_instant: F,
    ) -> Result<(), SimError>
    where
        Self: Sized,
        F: FnMut(u64, &[String]),
    {
        for ev in events {
            for (name, v) in &ev.valued {
                self.set_input_i64(name, *v)?;
            }
            let names: Vec<&str> = ev.names();
            let instant = self.now();
            let emitted = self.instant(&names)?;
            let mut present: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            present.extend(emitted);
            on_instant(instant, &present);
        }
        self.emit_losses();
        Ok(())
    }
}

/// Trace-friendly scalar view of a signal value: integers read as
/// `i64`, aggregates (packets, frames) trace as presence only.
fn trace_value(rt: &Rt, v: &ecl_types::Value) -> Option<i64> {
    let table = rt.machine().table();
    table.get(v.ty).is_integer().then(|| v.as_i64(table))
}

/// Shared watchdog verdict for an instant that just completed: trips
/// the first exceeded budget as a [`SimErrorKind::Watchdog`] error
/// (bumping `sim.watchdog_trips`), otherwise `Ok(())`.
fn check_watchdog(
    wd: Option<WatchdogBudget>,
    instant: u64,
    nodes: u64,
    fuel: u64,
    wall_t0: Option<std::time::Instant>,
) -> Result<(), SimError> {
    let Some(w) = wd else { return Ok(()) };
    let trip = |what: &str, spent: u64, max: u64| {
        tm::SIM_WATCHDOG_TRIPS.incr();
        Err(SimError::watchdog(format!(
            "instant {instant} exceeded the {what} budget ({spent} > {max})"
        )))
    };
    if let Some(max) = w.max_nodes {
        if nodes > max {
            return trip("node", nodes, max);
        }
    }
    if let Some(max) = w.max_fuel {
        if fuel > max {
            return trip("fuel", fuel, max);
        }
    }
    if let (Some(max), Some(t0)) = (w.max_wall_ns, wall_t0) {
        let elapsed = t0.elapsed().as_nanos() as u64;
        if elapsed > max {
            return trip("wall-time", elapsed, max);
        }
    }
    Ok(())
}

/// The immutable compilation product of one task: the design, its
/// EFSM, the fused compiled program, the local ↔ global signal wiring
/// and a prototype runtime. Built once by [`SharedProgram::compile`]
/// and `Arc`-shared by every runner instantiated from it — a fleet of
/// N sessions pays for compilation exactly once.
pub struct TaskProgram {
    design: Design,
    efsm: Efsm,
    /// Fused compiled backend of `efsm`: every state — pure or mixed —
    /// as mask-scan rows falling through into residual bytecode (only
    /// row-cap blowouts keep the s-graph walker).
    table: CompiledEfsm,
    /// Prototype runtime, cloned per session (its compiled data
    /// programs are themselves `Arc`-shared inside [`Rt`]).
    proto_rt: Rt,
    /// Local signal index → interned global id.
    to_global: Vec<SigId>,
    /// Global id → local signal (None when this task doesn't know it).
    from_global: Vec<Option<Signal>>,
    /// Local signal index → carries a value?
    valued: Vec<bool>,
    /// Global bits of the task's external inputs (kernel watch-set).
    watches: BitSet,
    /// Kernel priority (program order: earlier designs run higher).
    priority: u8,
}

/// One design set compiled once, instantiable many times: the shared,
/// immutable half of a session fleet. [`AsyncRunner::from_shared`]
/// stamps out an independent runner (own kernel, runtimes, trace,
/// counters) over these `Arc`'d programs without recompiling.
#[derive(Clone)]
pub struct SharedProgram {
    tasks: Vec<Arc<TaskProgram>>,
    sig_table: Arc<SigTable>,
}

impl SharedProgram {
    /// Compile `designs` (one task each) into a shareable program set.
    ///
    /// # Errors
    ///
    /// Propagates EFSM compilation and runtime construction failures.
    pub fn compile(
        designs: Vec<Design>,
        compile_opts: &CompileOptions,
    ) -> Result<SharedProgram, SimError> {
        // Pass 1: compile everything and intern the global namespace.
        let mut table = SigTable::new();
        let mut compiled = Vec::new();
        for design in designs {
            let efsm = design
                .to_efsm(compile_opts)
                .map_err(|e| SimError::eval(e.to_string()))?;
            for info in &efsm.signals {
                table.intern(&info.name);
            }
            let rt = design.new_rt().map_err(|e| SimError::eval(e.to_string()))?;
            compiled.push((design, efsm, rt));
        }
        // Pass 2: wire each task through the now-complete table.
        let mut tasks = Vec::new();
        for (i, (design, efsm, proto_rt)) in compiled.into_iter().enumerate() {
            let to_global: Vec<SigId> = efsm
                .signals
                .iter()
                .map(|info| table.lookup(&info.name).expect("interned in pass 1"))
                .collect();
            let mut from_global: Vec<Option<Signal>> = vec![None; table.len()];
            for (local, gid) in to_global.iter().enumerate() {
                from_global[gid.bit()] = Some(Signal(local as u32));
            }
            let valued: Vec<bool> = efsm.signals.iter().map(|info| info.valued).collect();
            let watches: BitSet = efsm
                .inputs()
                .map(|(s, _)| to_global[s.0 as usize].bit())
                .collect();
            let table_c = CompiledEfsm::compile(&efsm);
            tasks.push(Arc::new(TaskProgram {
                design,
                efsm,
                table: table_c,
                proto_rt,
                to_global,
                from_global,
                valued,
                watches,
                priority: (10 - i.min(9)) as u8,
            }));
        }
        Ok(SharedProgram {
            tasks,
            sig_table: Arc::new(table),
        })
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.sig_table
    }

    /// Number of tasks in the program set.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The designs, in task order.
    pub fn designs(&self) -> impl Iterator<Item = &Design> {
        self.tasks.iter().map(|t| &t.design)
    }
}

/// One RTOS task: an `Arc`-shared compiled program plus this
/// session's private mutable state (runtime, control state,
/// degradation latches).
struct Task {
    prog: Arc<TaskProgram>,
    rt: Rt,
    state: StateId,
    id: TaskId,
    /// States whose compiled table row was demoted to the s-graph
    /// walker by the graceful-degradation ladder (latched; empty
    /// unless a fault plan demoted something).
    demoted_states: BitSet,
    /// Fuel withheld from this task by the current instant's
    /// starvation squeeze, restored when the instant ends.
    fuel_credit: u64,
}

/// N compiled designs running as RTOS tasks (N = 1 models the paper's
/// synchronous single-task implementation: the whole design is one EFSM
/// and only external I/O passes through the kernel).
pub struct AsyncRunner {
    tasks: Vec<Task>,
    kernel: Kernel,
    cost: CostParams,
    table: Arc<SigTable>,
    /// Execution backend: [`Backend::Compiled`] (default) drives every
    /// state through its fused program (mask-scan rows + residual
    /// bytecode, data hooks on the VM); [`Backend::Walker`] forces the
    /// s-graph walker and the tree-walking data interpreter everywhere
    /// — the two are observationally identical (differential-tested),
    /// the toggle exists for benchmarking and bisection.
    backend: Backend,
    /// Current environment instant number.
    pub instant: u64,
    /// Emission counts by interned id.
    counts: Vec<u64>,
    /// Optional full-trace recorder (see [`AsyncRunner::enable_trace`]).
    recorder: Recorder,
    /// Per-instant resource budgets (None = no watchdog).
    watchdog: Option<WatchdogBudget>,
    /// An instant is currently executing. Left latched when a panic
    /// unwinds through `instant_ids` — the poisoned-state detector:
    /// further instants are refused with [`SimErrorKind::Poisoned`].
    in_instant: bool,
    /// Fleet session id carried on telemetry `error` lines (0 outside
    /// a fleet).
    session: u64,
    /// Externally-delayed events: `(due instant, signal bit)`. Empty
    /// unless a fault plan delays stimuli.
    delayed: Vec<(u64, usize)>,
    // Reusable per-instant scratch (what makes `instant_ids`
    // allocation-free in steady state).
    evset_scratch: BitSet,
    local_scratch: BitSet,
    emit_scratch: Vec<Signal>,
    order_scratch: Vec<SigId>,
    /// Effective-stimulus scratch for fault-adjusted instants (only
    /// touched when a plan is installed).
    fault_scratch: BitSet,
    /// Unflushed telemetry of the control path (table steps, trace
    /// ring, mailbox occupancy, `run_events` instants). Not part of a
    /// [`RunnerSnapshot`]: replayed instants count as work again.
    probe: Probe,
    /// Kernel totals at the last flush (the kernel's own counters are
    /// folded into `probe` as differences from these).
    flushed: KernelTotals,
}

impl AsyncRunner {
    /// Build a runner from compiled designs (one task each). Compiles
    /// a private [`SharedProgram`] — fleets that stamp out many
    /// sessions over one design set should compile once and use
    /// [`AsyncRunner::from_shared`] instead.
    ///
    /// # Errors
    ///
    /// Propagates EFSM compilation and runtime construction failures.
    pub fn new(
        designs: Vec<Design>,
        compile_opts: &CompileOptions,
        cost: CostParams,
        kernel_params: KernelParams,
    ) -> Result<AsyncRunner, SimError> {
        let shared = SharedProgram::compile(designs, compile_opts)?;
        Ok(AsyncRunner::from_shared(&shared, cost, kernel_params))
    }

    /// Instantiate an independent session over an already-compiled
    /// program set: fresh kernel, cloned prototype runtimes, zeroed
    /// counters — no recompilation, no copy of the compiled tables or
    /// bytecode (both stay behind the shared `Arc`s).
    pub fn from_shared(
        shared: &SharedProgram,
        cost: CostParams,
        kernel_params: KernelParams,
    ) -> AsyncRunner {
        let mut kernel = Kernel::new(kernel_params);
        let mut tasks = Vec::new();
        for prog in &shared.tasks {
            let id = kernel.add_task(
                prog.design.entry.clone(),
                prog.priority,
                prog.watches.clone(),
            );
            tasks.push(Task {
                rt: prog.proto_rt.clone(),
                state: prog.efsm.init,
                prog: Arc::clone(prog),
                id,
                demoted_states: BitSet::new(),
                fuel_credit: 0,
            });
        }
        let table = Arc::clone(&shared.sig_table);
        let counts = vec![0; table.len()];
        AsyncRunner {
            tasks,
            kernel,
            cost,
            recorder: Recorder::new(Arc::clone(&table)),
            table,
            backend: Backend::default(),
            instant: 0,
            counts,
            watchdog: None,
            in_instant: false,
            session: 0,
            delayed: Vec::new(),
            evset_scratch: BitSet::new(),
            local_scratch: BitSet::new(),
            emit_scratch: Vec::new(),
            order_scratch: Vec::new(),
            fault_scratch: BitSet::new(),
            probe: Probe::new(),
            flushed: KernelTotals::default(),
        }
    }

    /// Fold the kernel's work since the last flush and every task's
    /// data-path probe into the runner's probe, then flush it into the
    /// process-wide registry.
    pub fn flush_telemetry(&mut self) {
        self.kernel.flush_into(&mut self.flushed, &mut self.probe);
        for t in &mut self.tasks {
            self.probe.absorb(t.rt.probe_mut());
        }
        self.probe.flush();
        ecl_telemetry::flush_thread_probe();
    }

    /// Tag this runner with a fleet session id — carried on its
    /// telemetry `error` lines (and by the supervisor's `run_*`
    /// events) so fleet JSONL streams are attributable per session.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// The session id this runner is tagged with (0 outside a fleet).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Access the kernel (cycle counters, loss statistics).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.table
    }

    /// The designs running in the tasks.
    pub fn designs(&self) -> impl Iterator<Item = &Design> {
        self.tasks.iter().map(|t| &t.prog.design)
    }

    /// The compiled machines.
    pub fn machines(&self) -> impl Iterator<Item = &Efsm> {
        self.tasks.iter().map(|t| &t.prog.efsm)
    }

    /// Choose the execution backend for every task — control dispatch
    /// and data hooks switch together. See [`Runner::set_backend`].
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        for t in &mut self.tasks {
            t.rt.set_backend(backend);
        }
    }

    /// The active execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Compiled-backend coverage, one [`TaskCoverage`] per task.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport {
            tasks: self
                .tasks
                .iter()
                .map(|t| {
                    let (vm_compiled, vm_total) = t.rt.vm_coverage();
                    TaskCoverage {
                        task: t.prog.design.entry.clone(),
                        states: t.prog.efsm.states.len() as u32,
                        fused_states: t.prog.table.fused_states(),
                        fused_rows: t.prog.table.row_count() as u32,
                        vm_compiled,
                        vm_total,
                        demoted_states: t.demoted_states.len() as u32,
                        demoted_hooks: t.rt.demoted_hooks(),
                    }
                })
                .collect(),
        }
    }

    /// Install (or clear) the per-instant watchdog budgets.
    pub fn set_watchdog(&mut self, wd: Option<WatchdogBudget>) {
        self.watchdog = wd;
    }

    /// The active watchdog budgets, if any.
    pub fn watchdog(&self) -> Option<WatchdogBudget> {
        self.watchdog
    }

    /// Did a panic unwind through an instant, leaving the runner
    /// state torn? A poisoned runner refuses further instants.
    pub fn is_poisoned(&self) -> bool {
        self.in_instant
    }

    /// Table states latched onto the walker by the degradation
    /// ladder, summed over tasks.
    pub fn demoted_states(&self) -> u32 {
        self.tasks
            .iter()
            .map(|t| t.demoted_states.len() as u32)
            .sum()
    }

    /// Set the value of a valued *external* input on every task that
    /// reads it (the testbench side of `emit_v`).
    ///
    /// # Errors
    ///
    /// Fails when no task knows the signal.
    pub fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.table.lookup(name) else {
            return err(format!("no task reads signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// [`AsyncRunner::set_input_i64`] by interned id.
    ///
    /// # Errors
    ///
    /// Fails when no task knows the signal, or the signal is pure.
    pub fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        let mut hit = false;
        let entry_err = |t: &Task, e: ecl_core::rt::RtError| {
            SimError::eval(format!("task `{}`: {e}", t.prog.design.entry))
        };
        for ti in 0..self.tasks.len() {
            let Some(Some(local)) = self.tasks[ti].prog.from_global.get(sig.bit()).copied() else {
                continue;
            };
            let t = &mut self.tasks[ti];
            t.rt.set_input_i64_idx(local.0 as usize, v)
                .map_err(|e| entry_err(t, e))?;
            hit = true;
        }
        if !hit {
            return err(format!("no task reads signal `{}`", self.table.name(sig)));
        }
        self.recorder.note_input(sig, v);
        Ok(())
    }

    /// Run one environment instant entirely on interned ids: post the
    /// external `events`, tick every task once (the paper's footnote:
    /// tasks with pending `await ()` deltas must be rescheduled even
    /// without events), then run event cascades to quiescence. The
    /// emitted ids land in `out` (cleared first); delivery order is
    /// retained internally for the name shim. Allocation-free in
    /// steady state.
    ///
    /// With a fault plan installed, the external drop/delay sites are
    /// applied here (keyed by `(instant, signal)`, identically on the
    /// interpreter runner), and a panic that unwinds through the
    /// instant latches the poisoned flag: further instants are
    /// refused with [`SimErrorKind::Poisoned`] instead of running on
    /// torn state.
    ///
    /// # Errors
    ///
    /// Propagates data-evaluation errors from any task; trips the
    /// watchdog budgets, if set.
    pub fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "runner state torn by a panic in an earlier instant",
            ));
        }
        if !ecl_faults::enabled() && self.delayed.is_empty() {
            self.in_instant = true;
            let r = self.instant_ids_inner(events, out);
            self.in_instant = false;
            return r;
        }
        // Fault-adjusted stimulus set: drop/delay fresh events, then
        // merge delayed ones that are due (keyed decisions — the
        // interpreter runner computes the identical set).
        let mut scratch = std::mem::take(&mut self.fault_scratch);
        scratch.clear();
        let now = self.instant;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                scratch.insert(self.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        for bit in events.iter() {
            if ecl_faults::drop_external(now, bit as u32) {
                continue;
            }
            if let Some(d) = ecl_faults::delay_external(now, bit as u32) {
                self.delayed.push((now + d, bit));
                continue;
            }
            scratch.insert(bit);
        }
        self.in_instant = true;
        let r = self.instant_ids_inner(&scratch, out);
        self.in_instant = false;
        self.fault_scratch = scratch;
        r
    }

    fn instant_ids_inner(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        let faults = ecl_faults::enabled();
        if faults {
            if ecl_faults::panic_due(self.instant) {
                panic!("ecl-faults: injected panic at instant {}", self.instant);
            }
            self.kernel.flush_deferred();
            if let Some(cap) = ecl_faults::fuel_cap(self.instant) {
                for t in &mut self.tasks {
                    let fuel = t.rt.machine().fuel();
                    if fuel > cap {
                        t.rt.machine_mut().set_fuel(cap);
                        t.fuel_credit = fuel - cap;
                    }
                }
            }
        }
        let wall_t0 = self
            .watchdog
            .and_then(|w| w.max_wall_ns.map(|_| std::time::Instant::now()));
        let mut nodes_spent = 0u64;
        let mut fuel_spent = 0u64;
        out.clear();
        self.order_scratch.clear();
        self.recorder.begin(self.instant, events);
        for e in events.iter() {
            self.kernel.post_external(e as u32);
        }
        // Phase 1: periodic tick — every task reacts once.
        for ti in 0..self.tasks.len() {
            let id = self.tasks[ti].id;
            self.kernel.dispatch_into(id, &mut self.evset_scratch);
            // The drained mailbox is the occupancy at dispatch.
            self.probe
                .record(tm::RTK_MAILBOX_OCCUPANCY, self.evset_scratch.len() as u64);
            let (nodes, ops) = self.react_task(ti, out)?;
            nodes_spent += nodes as u64;
            fuel_spent += ops;
        }
        // Phase 2: cascades from internal emissions.
        let mut budget = 100_000u32; // runaway guard
        while let Some(tid) = self.kernel.schedule_into(&mut self.evset_scratch) {
            budget = budget.checked_sub(1).ok_or_else(|| {
                SimError::livelock("asynchronous network livelock (tasks keep waking each other)")
            })?;
            self.probe
                .record(tm::RTK_MAILBOX_OCCUPANCY, self.evset_scratch.len() as u64);
            let ti = self
                .tasks
                .iter()
                .position(|t| t.id == tid)
                .expect("scheduled task exists");
            let (nodes, ops) = self.react_task(ti, out)?;
            nodes_spent += nodes as u64;
            fuel_spent += ops;
        }
        if faults {
            // Hand back the fuel the starvation squeeze withheld —
            // starvation is per instant, not permanent.
            for t in &mut self.tasks {
                if t.fuel_credit > 0 {
                    let fuel = t.rt.machine().fuel();
                    t.rt.machine_mut().set_fuel(fuel + t.fuel_credit);
                    t.fuel_credit = 0;
                }
            }
        }
        self.recorder.end(&mut self.probe);
        self.instant += 1;
        check_watchdog(
            self.watchdog,
            self.instant - 1,
            nodes_spent,
            fuel_spent,
            wall_t0,
        )
    }

    /// Run one environment instant; returns the names emitted during
    /// the instant (in delivery order). Compatibility shim over
    /// [`AsyncRunner::instant_ids`]; unknown event names are ignored.
    ///
    /// # Errors
    ///
    /// Propagates data-evaluation errors from any task.
    pub fn instant(&mut self, events: &[&str]) -> Result<Vec<String>, SimError> {
        let ev: BitSet = events
            .iter()
            .filter_map(|n| self.table.lookup(n))
            .map(SigId::bit)
            .collect();
        let mut out = BitSet::new();
        self.instant_ids(&ev, &mut out)?;
        Ok(self
            .order_scratch
            .iter()
            .map(|id| self.table.name(*id).to_string())
            .collect())
    }

    /// Run one reaction of task `ti` with `evset_scratch` as the
    /// present input snapshot (global ids), accumulating emissions
    /// into `out` and `order_scratch`. Returns `(nodes visited, fuel
    /// burned)` for the watchdog accounting.
    fn react_task(&mut self, ti: usize, out: &mut BitSet) -> Result<(u32, u64), SimError> {
        // Map the global event snapshot into the task's signal space.
        self.local_scratch.clear();
        {
            let t = &self.tasks[ti];
            for g in self.evset_scratch.iter() {
                if let Some(Some(local)) = t.prog.from_global.get(g) {
                    self.local_scratch.insert(local.0 as usize);
                }
            }
        }
        let fuel_before = self.tasks[ti].rt.machine().fuel();
        let emit_base = self.emit_scratch.len();
        debug_assert_eq!(emit_base, 0);
        let r = {
            let t = &mut self.tasks[ti];
            let mut compiled = self.backend == Backend::Compiled;
            // Graceful degradation: a state whose fused rows were
            // demoted stays on the walker (latched). The extra
            // branches only run with a plan installed or after a
            // demotion — the fault-free hot path is untouched.
            if compiled && (!t.demoted_states.is_empty() || ecl_faults::enabled()) {
                if t.demoted_states.contains(t.state.0 as usize) {
                    compiled = false;
                } else if ecl_faults::table_fault(ti, t.state.0) {
                    t.demoted_states.insert(t.state.0 as usize);
                    ecl_faults::note_degraded("table", "state", t.state.0 as u64);
                    compiled = false;
                }
            }
            let r = if compiled {
                t.prog.table.step_table(
                    &t.prog.efsm,
                    t.state,
                    &self.local_scratch,
                    &mut t.rt,
                    &mut self.emit_scratch,
                    &mut self.probe,
                )
            } else {
                t.prog.efsm.step_bits(
                    t.state,
                    &self.local_scratch,
                    &mut t.rt,
                    &mut self.emit_scratch,
                )
            };
            t.state = r.next;
            if let Some(e) = t.rt.take_error() {
                self.emit_scratch.clear();
                return err(format!("task `{}`: {e}", t.prog.design.entry));
            }
            r
        };
        // Cycle charges for the reaction.
        let fuel_after = self.tasks[ti].rt.machine().fuel();
        let ops = fuel_before.saturating_sub(fuel_after);
        let cycles = self.cost.cyc_reaction_base
            + r.nodes_visited as u64 * self.cost.cyc_test
            + ops * self.cost.cyc_per_op
            + self.emit_scratch.len() as u64 * self.cost.cyc_emit;
        self.kernel.charge_task(cycles);
        // Deliver emissions: values first, then events.
        let tid = self.tasks[ti].id;
        for k in 0..self.emit_scratch.len() {
            let local = self.emit_scratch[k];
            let gid = self.tasks[ti].prog.to_global[local.0 as usize];
            if self.recorder.is_enabled() {
                let t = &self.tasks[ti];
                let traced =
                    t.rt.signal_value(local.0 as usize)
                        .and_then(|v| trace_value(&t.rt, v));
                self.recorder.emit(gid, traced);
            }
            // Copy the value into every *other* task that reads it
            // (single-task runs skip the clone entirely).
            if self.tasks.len() > 1 && self.tasks[ti].prog.valued[local.0 as usize] {
                let value = self.tasks[ti].rt.signal_value(local.0 as usize).cloned();
                if let Some(v) = value {
                    for rj in 0..self.tasks.len() {
                        if rj == ti {
                            continue;
                        }
                        let Some(Some(lj)) =
                            self.tasks[rj].prog.from_global.get(gid.bit()).copied()
                        else {
                            continue;
                        };
                        let _ = self.tasks[rj].rt.set_input_value_idx(lj.0 as usize, &v);
                        self.kernel
                            .charge_task(v.bytes.len() as u64 * self.cost.cyc_per_value_byte);
                    }
                }
            }
            self.kernel.post_internal(tid, gid.0);
            self.counts[gid.bit()] += 1;
            self.order_scratch.push(gid);
            out.insert(gid.bit());
        }
        self.emit_scratch.clear();
        Ok((r.nodes_visited, ops))
    }
}

/// One task's private mutable state inside a [`RunnerSnapshot`].
#[derive(Clone)]
struct TaskSnapshot {
    state: StateId,
    rt: Rt,
    demoted_states: BitSet,
    fuel_credit: u64,
}

/// The full mutable reaction state of an [`AsyncRunner`] captured at
/// an instant boundary: kernel mailboxes and deferred queues, every
/// task's EFSM control state and data runtime (slot file, signal
/// values, demotion latches, fuel), emission counters, the trace
/// ring, pending delayed stimuli, the backend choice and the watchdog
/// budgets. Restoring it resumes the session bit-identically — VCD
/// bytes, verdicts, `nodes_visited` and fuel all match a run that was
/// never interrupted (property-tested in `tests/checkpoint.rs`).
#[derive(Clone)]
pub struct RunnerSnapshot {
    instant: u64,
    backend: Backend,
    kernel: Kernel,
    counts: Vec<u64>,
    recorder: Recorder,
    watchdog: Option<WatchdogBudget>,
    delayed: Vec<(u64, usize)>,
    session: u64,
    tasks: Vec<TaskSnapshot>,
}

impl RunnerSnapshot {
    /// The instant the snapshot was taken at (the next one to run).
    pub fn instant(&self) -> u64 {
        self.instant
    }
}

/// Checkpoint/restore of a runner's mutable state at instant
/// boundaries — the state-extraction surface the fleet supervisor
/// builds restart-with-backoff on.
pub trait Snapshot {
    /// Capture the full mutable reaction state. Only valid at an
    /// instant boundary.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::Poisoned`] when called mid-instant (a poisoned
    /// runner's state is torn; restore from an earlier snapshot
    /// instead).
    fn snapshot(&self) -> Result<RunnerSnapshot, SimError>;

    /// Restore a previously captured state, clearing any poisoning —
    /// this is what makes restart-after-panic safe: every byte of
    /// torn state is replaced by the checkpoint's copy.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot was taken from a runner with a
    /// different task topology.
    fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), SimError>;
}

impl Snapshot for AsyncRunner {
    fn snapshot(&self) -> Result<RunnerSnapshot, SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "cannot snapshot mid-instant (runner state is torn)",
            ));
        }
        Ok(RunnerSnapshot {
            instant: self.instant,
            backend: self.backend,
            kernel: self.kernel.clone(),
            counts: self.counts.clone(),
            recorder: self.recorder.clone(),
            watchdog: self.watchdog,
            delayed: self.delayed.clone(),
            session: self.session,
            tasks: self
                .tasks
                .iter()
                .map(|t| TaskSnapshot {
                    state: t.state,
                    rt: t.rt.clone(),
                    demoted_states: t.demoted_states.clone(),
                    fuel_credit: t.fuel_credit,
                })
                .collect(),
        })
    }

    fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), SimError> {
        if snap.tasks.len() != self.tasks.len() {
            return err(format!(
                "snapshot has {} tasks, runner has {}",
                snap.tasks.len(),
                self.tasks.len()
            ));
        }
        // The work since the last flush happened (replayed instants
        // count again); count it before the kernel totals rewind.
        self.flush_telemetry();
        self.instant = snap.instant;
        self.backend = snap.backend;
        self.kernel = snap.kernel.clone();
        self.flushed = self.kernel.totals();
        self.counts = snap.counts.clone();
        self.recorder = snap.recorder.clone();
        self.watchdog = snap.watchdog;
        self.delayed = snap.delayed.clone();
        self.session = snap.session;
        for (t, s) in self.tasks.iter_mut().zip(&snap.tasks) {
            t.state = s.state;
            t.rt = s.rt.clone();
            t.demoted_states = s.demoted_states.clone();
            t.fuel_credit = s.fuel_credit;
        }
        // A restore heals a poisoned runner: the torn state (including
        // any half-filled scratch) is gone.
        self.in_instant = false;
        self.emit_scratch.clear();
        self.order_scratch.clear();
        Ok(())
    }
}

/// Interpreter-backed single-design runner (reference semantics, used
/// for differential testing against [`AsyncRunner`] with one task).
pub struct InterpRunner<'d> {
    design: &'d Design,
    machine: esterel::Machine<'d>,
    rt: Rt,
    table: Arc<SigTable>,
    /// Emission counts by interned id.
    counts: Vec<u64>,
    /// Current environment instant number.
    pub instant: u64,
    recorder: Recorder,
    order_scratch: Vec<SigId>,
    /// Per-instant resource budgets (None = no watchdog).
    watchdog: Option<WatchdogBudget>,
    /// Panic-poisoning latch, as on [`AsyncRunner`].
    in_instant: bool,
    /// Externally-delayed events: `(due instant, signal bit)`.
    delayed: Vec<(u64, usize)>,
    /// Effective-stimulus scratch for fault-adjusted instants.
    fault_scratch: BitSet,
    /// Unflushed telemetry (trace ring, `run_events` instants).
    probe: Probe,
}

impl<'d> InterpRunner<'d> {
    /// Build a runner over a design.
    ///
    /// # Errors
    ///
    /// Propagates runtime construction failures.
    pub fn new(design: &'d Design) -> Result<InterpRunner<'d>, SimError> {
        let rt = design.new_rt().map_err(|e| SimError::eval(e.to_string()))?;
        // Interning in program order makes SigId(i) ≡ Signal(i): the
        // global and local signal spaces coincide for a single design.
        let mut table = SigTable::new();
        for info in design.program().signals() {
            table.intern(&info.name);
        }
        let table = Arc::new(table);
        let counts = vec![0; table.len()];
        Ok(InterpRunner {
            design,
            machine: esterel::Machine::new(design.program()),
            rt,
            recorder: Recorder::new(Arc::clone(&table)),
            table,
            counts,
            instant: 0,
            order_scratch: Vec::new(),
            watchdog: None,
            in_instant: false,
            delayed: Vec::new(),
            fault_scratch: BitSet::new(),
            probe: Probe::new(),
        })
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.table
    }

    /// Set a valued input.
    ///
    /// # Errors
    ///
    /// Unknown/pure signal.
    pub fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.table.lookup(name) else {
            return err(format!("unknown signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// [`InterpRunner::set_input_i64`] by interned id.
    ///
    /// # Errors
    ///
    /// Unknown/pure signal.
    pub fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        self.rt
            .set_input_i64_idx(sig.bit(), v)
            .map_err(|e| SimError::eval(e.to_string()))?;
        self.recorder.note_input(sig, v);
        Ok(())
    }

    /// Run one instant on interned ids; emitted ids land in `out`
    /// (cleared first). For this runner global ids coincide with the
    /// program's signal indices, so `events` feeds the interpreter
    /// directly.
    ///
    /// With a fault plan installed, the external drop/delay sites are
    /// applied with the same `(instant, signal)` keys as on
    /// [`AsyncRunner`], so a kernel-free plan replays identically on
    /// both runners.
    ///
    /// # Errors
    ///
    /// Non-constructive programs and data errors; watchdog trips.
    pub fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "runner state torn by a panic in an earlier instant",
            ));
        }
        if !ecl_faults::enabled() && self.delayed.is_empty() {
            self.in_instant = true;
            let r = self.instant_ids_inner(events, out);
            self.in_instant = false;
            return r;
        }
        let mut scratch = std::mem::take(&mut self.fault_scratch);
        scratch.clear();
        let now = self.instant;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                scratch.insert(self.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        for bit in events.iter() {
            if ecl_faults::drop_external(now, bit as u32) {
                continue;
            }
            if let Some(d) = ecl_faults::delay_external(now, bit as u32) {
                self.delayed.push((now + d, bit));
                continue;
            }
            scratch.insert(bit);
        }
        self.in_instant = true;
        let r = self.instant_ids_inner(&scratch, out);
        self.in_instant = false;
        self.fault_scratch = scratch;
        r
    }

    fn instant_ids_inner(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        let mut fuel_credit = 0u64;
        if ecl_faults::enabled() {
            if ecl_faults::panic_due(self.instant) {
                panic!("ecl-faults: injected panic at instant {}", self.instant);
            }
            if let Some(cap) = ecl_faults::fuel_cap(self.instant) {
                let fuel = self.rt.machine().fuel();
                if fuel > cap {
                    self.rt.machine_mut().set_fuel(cap);
                    fuel_credit = fuel - cap;
                }
            }
        }
        let wall_t0 = self
            .watchdog
            .and_then(|w| w.max_wall_ns.map(|_| std::time::Instant::now()));
        let fuel_before = self.rt.machine().fuel();
        let passes_before = self.machine.passes;
        out.clear();
        self.order_scratch.clear();
        self.recorder.begin(self.instant, events);
        let r = self
            .machine
            .react_set(events, &mut self.rt as &mut dyn DataHooks)
            .map_err(|e| SimError::eval(e.to_string()))?;
        if let Some(e) = self.rt.take_error() {
            return err(e.to_string());
        }
        for s in &r.emitted {
            let gid = SigId(s.0);
            if self.recorder.is_enabled() {
                let traced = self
                    .rt
                    .signal_value(s.0 as usize)
                    .and_then(|v| trace_value(&self.rt, v));
                self.recorder.emit(gid, traced);
            }
            self.counts[gid.bit()] += 1;
            self.order_scratch.push(gid);
            out.insert(gid.bit());
        }
        let fuel_spent = fuel_before.saturating_sub(self.rt.machine().fuel());
        if fuel_credit > 0 {
            let fuel = self.rt.machine().fuel();
            self.rt.machine_mut().set_fuel(fuel + fuel_credit);
        }
        self.recorder.end(&mut self.probe);
        self.instant += 1;
        let passes = self.machine.passes - passes_before;
        check_watchdog(self.watchdog, self.instant - 1, passes, fuel_spent, wall_t0)
    }

    /// Run one instant; returns emitted names. Compatibility shim over
    /// [`InterpRunner::instant_ids`]; unknown event names are ignored.
    ///
    /// # Errors
    ///
    /// Non-constructive programs and data errors.
    pub fn instant(&mut self, events: &[&str]) -> Result<Vec<String>, SimError> {
        let ev: BitSet = events
            .iter()
            .filter_map(|n| self.table.lookup(n))
            .map(SigId::bit)
            .collect();
        let mut out = BitSet::new();
        self.instant_ids(&ev, &mut out)?;
        Ok(self
            .order_scratch
            .iter()
            .map(|id| self.table.name(*id).to_string())
            .collect())
    }

    /// Choose the data-hook backend. The reactive side — the
    /// constructive Esterel interpreter — evaluates the very same
    /// hooks either way; only the data path switches between bytecode
    /// VM and tree-walker, so [`Backend::Compiled`] here means
    /// "compiled data hooks", never fused control rows.
    pub fn set_backend(&mut self, backend: Backend) {
        self.rt.set_backend(backend);
    }

    /// The active data-hook backend.
    pub fn backend(&self) -> Backend {
        self.rt.backend()
    }

    /// Compiled-backend coverage of the single design. Control always
    /// runs on the constructive interpreter here, so the report covers
    /// the data path only (`states == fused_states == 0`).
    pub fn coverage(&self) -> CoverageReport {
        let (vm_compiled, vm_total) = self.rt.vm_coverage();
        CoverageReport {
            tasks: vec![TaskCoverage {
                task: self.design.entry.clone(),
                states: 0,
                fused_states: 0,
                fused_rows: 0,
                vm_compiled,
                vm_total,
                demoted_states: 0,
                demoted_hooks: self.rt.demoted_hooks(),
            }],
        }
    }

    /// Access the runtime (inspect signal values).
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// Install (or clear) the per-instant watchdog budgets.
    pub fn set_watchdog(&mut self, wd: Option<WatchdogBudget>) {
        self.watchdog = wd;
    }

    /// The active watchdog budgets, if any.
    pub fn watchdog(&self) -> Option<WatchdogBudget> {
        self.watchdog
    }

    /// Did a panic unwind through an instant, leaving the runner
    /// state torn? A poisoned runner refuses further instants.
    pub fn is_poisoned(&self) -> bool {
        self.in_instant
    }

    /// The design this runner executes.
    pub fn design(&self) -> &'d Design {
        self.design
    }
}

impl Runner for AsyncRunner {
    fn set_backend(&mut self, backend: Backend) {
        AsyncRunner::set_backend(self, backend)
    }

    fn backend(&self) -> Backend {
        AsyncRunner::backend(self)
    }

    fn coverage(&self) -> CoverageReport {
        AsyncRunner::coverage(self)
    }

    fn sig_table(&self) -> &Arc<SigTable> {
        AsyncRunner::sig_table(self)
    }

    fn trace_slot(&self) -> &Recorder {
        &self.recorder
    }

    fn trace_slot_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn counts_slot(&self) -> &[u64] {
        &self.counts
    }

    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        AsyncRunner::set_input_i64_id(self, sig, v)
    }

    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        AsyncRunner::set_input_i64(self, name, v)
    }

    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        AsyncRunner::instant_ids(self, events, out)
    }

    fn instant(&mut self, events: &[&str]) -> Result<Vec<String>, SimError> {
        AsyncRunner::instant(self, events)
    }

    fn now(&self) -> u64 {
        self.instant
    }

    fn session_id(&self) -> u64 {
        self.session
    }

    fn emit_losses(&self) {
        self.kernel.emit_events_lost_event();
    }

    fn probe_mut(&mut self) -> &mut Probe {
        &mut self.probe
    }

    fn flush_telemetry(&mut self) {
        AsyncRunner::flush_telemetry(self)
    }
}

impl Drop for AsyncRunner {
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

impl<'d> Runner for InterpRunner<'d> {
    fn set_backend(&mut self, backend: Backend) {
        InterpRunner::set_backend(self, backend)
    }

    fn backend(&self) -> Backend {
        InterpRunner::backend(self)
    }

    fn coverage(&self) -> CoverageReport {
        InterpRunner::coverage(self)
    }

    fn sig_table(&self) -> &Arc<SigTable> {
        InterpRunner::sig_table(self)
    }

    fn trace_slot(&self) -> &Recorder {
        &self.recorder
    }

    fn trace_slot_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn counts_slot(&self) -> &[u64] {
        &self.counts
    }

    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        InterpRunner::set_input_i64_id(self, sig, v)
    }

    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        InterpRunner::set_input_i64(self, name, v)
    }

    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        InterpRunner::instant_ids(self, events, out)
    }

    fn instant(&mut self, events: &[&str]) -> Result<Vec<String>, SimError> {
        InterpRunner::instant(self, events)
    }

    fn now(&self) -> u64 {
        self.instant
    }

    fn probe_mut(&mut self) -> &mut Probe {
        &mut self.probe
    }

    fn flush_telemetry(&mut self) {
        self.probe.absorb(self.rt.probe_mut());
        self.probe.flush();
        ecl_telemetry::flush_thread_probe();
    }
}
impl From<SimError> for ecl_syntax::EclError {
    fn from(e: SimError) -> Self {
        ecl_syntax::EclError::msg(
            ecl_syntax::Stage::Sim,
            e.msg.clone(),
            ecl_syntax::Span::dummy(),
        )
    }
}

impl From<ecl_syntax::EclError> for SimError {
    fn from(e: ecl_syntax::EclError) -> Self {
        SimError::eval(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::Compiler;

    const RELAY: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }";

    #[test]
    fn single_task_runner_relays() {
        let d = Compiler::default().compile_str(RELAY, "top").unwrap();
        let mut r = AsyncRunner::new(
            vec![d],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        // Warm-up instant (awaits start), then i.
        r.instant(&[]).unwrap();
        r.instant(&["i"]).unwrap();
        // Synchronous whole-program machine: mid and o fire in the same
        // reaction chain... mid is compiled away as a local; o needs a
        // second i? No: within one EFSM, await(mid) sees the emission
        // only in a later instant (delayed await). Drive more instants.
        let mut got_o = false;
        for _ in 0..4 {
            let e = r.instant(&["i"]).unwrap();
            if e.iter().any(|n| n == "o") {
                got_o = true;
            }
        }
        assert!(got_o, "o should fire; counts: {:?}", r.counts());
        assert!(r.kernel().task_cycles > 0);
        assert!(r.kernel().rtos_cycles > 0);
    }

    #[test]
    fn partitioned_runner_relays_via_mailboxes() {
        let parts = Compiler::default().partition(RELAY, "top").unwrap();
        let mut r = AsyncRunner::new(
            parts,
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        r.instant(&[]).unwrap();
        let mut got_o = false;
        for _ in 0..6 {
            let e = r.instant(&["i"]).unwrap();
            if e.iter().any(|n| n == "o") {
                got_o = true;
            }
        }
        assert!(got_o, "counts: {:?}", r.counts());
        // Internal deliveries happened.
        assert!(r.kernel().deliveries > 0);
    }

    #[test]
    fn interp_runner_matches_async_single_task() {
        use rand::{Rng, SeedableRng};
        let d = Compiler::default().compile_str(RELAY, "top").unwrap();
        let mut interp = InterpRunner::new(&d).unwrap();
        let mut efsm_run = AsyncRunner::new(
            vec![d.clone()],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for step in 0..120 {
            let on = rng.gen_bool(0.5);
            let ev: Vec<&str> = if on { vec!["i"] } else { vec![] };
            let mut a = interp.instant(&ev).unwrap();
            let mut b = efsm_run.instant(&ev).unwrap();
            // Only compare design outputs (locals are reported by the
            // interpreter too; the compiled machine also reports them —
            // both should agree on `o`).
            a.retain(|n| n == "o");
            b.retain(|n| n == "o");
            assert_eq!(a, b, "step {step}");
        }
    }

    #[test]
    fn instant_ids_matches_the_name_shim() {
        let d = Compiler::default().compile_str(RELAY, "top").unwrap();
        let mut by_name = AsyncRunner::new(
            vec![d.clone()],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        let mut by_id = AsyncRunner::new(
            vec![d],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        let i = by_id.sig_table().lookup("i").unwrap();
        let mut out = BitSet::new();
        for step in 0..40 {
            let on = step % 3 != 0;
            let names = by_name.instant(if on { &["i"] } else { &[] }).unwrap();
            let ev: BitSet = if on {
                [i.bit()].into_iter().collect()
            } else {
                BitSet::new()
            };
            by_id.instant_ids(&ev, &mut out).unwrap();
            let mut got: Vec<&str> = by_id.sig_table().names_of(&out).collect();
            let mut want: Vec<&str> = names.iter().map(String::as_str).collect();
            got.sort_unstable();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn present_set_resolves_names_lazily() {
        let mut table = SigTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let set: BitSet = [a.bit(), b.bit()].into_iter().collect();
        let p = Present::new(&table, &set);
        assert!(p.contains_id(a));
        assert!(p.contains("b"));
        assert!(!p.contains("c"));
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(p.to_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
