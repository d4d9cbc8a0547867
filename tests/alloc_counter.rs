//! Zero-allocation guarantee of the `instant_ids` fast path.
//!
//! A counting global allocator wraps `System`; after a warm-up phase
//! (scratch buffers grown to their steady-state capacity), driving
//! further instants through `AsyncRunner::instant_ids` must perform
//! **zero** heap allocations — the acceptance bar of the interned-id
//! hot path. Two tiers:
//!
//! * the pure-control relay covers the control path — kernel
//!   mailboxes, dispatch, EFSM stepping, emission fan-out;
//! * the full protocol stack (valued signals, packet aggregates, CRC
//!   loops, monitored) covers the *data* path on the bytecode VM:
//!   programs compile once at construction, then predicates, actions
//!   and valued emits run register-to-slot with zero heap traffic —
//!   unlike the tree-walker, which clones a `Value` per signal read.
//! * the same relay with telemetry *enabled* pins the instrumentation
//!   down: the runner's probe is plain counters and histogram
//!   buckets allocated during warm-up, so the steady state stays at
//!   zero allocations — heap traffic happens only when a span line renders
//!   into the sink, which the test keeps out of the measured window
//!   (`set_span_every(0)`).
//!
//! The telemetry master switch is process-global, so the tests
//! serialize on a mutex and each pins the switch to the state it
//! measures.

use codegen::cost::CostParams;
use ecl_core::Compiler;
use efsm::BitSet;
use rtk::KernelParams;
use sim::runner::{AsyncRunner, Runner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests (they toggle the process-global telemetry
/// switch); a panicking holder must not wedge the others.
static TELEMETRY_STATE: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    TELEMETRY_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates concurrently on
// other threads (channels, progress bookkeeping); a process-global
// counter would race those allocations into the measured window and
// flake. `try_with` tolerates the TLS teardown window.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn my_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pure-control relay: two modules wired by an internal signal, all
/// signals presence-only.
const RELAY: &str = "
    module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
    module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
    module top(input pure i, output pure o) {
      signal pure mid;
      par { a(i, mid); b(mid, o); }
    }";

#[test]
fn instant_ids_is_allocation_free_in_steady_state() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let design = Compiler::default().compile_str(RELAY, "top").unwrap();
    let mut runner = AsyncRunner::new(
        vec![design],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    let i = runner.sig_table().lookup("i").unwrap();
    let on: BitSet = [i.bit()].into_iter().collect();
    let off = BitSet::new();
    let mut out = BitSet::new();
    // Warm-up: grow every scratch buffer to steady-state capacity,
    // covering both stimulus shapes.
    for k in 0..100u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    // Steady state: not a single heap allocation over 1000 instants
    // (on this thread — the driving thread is the only one touching
    // the runner).
    let before = my_allocs();
    for k in 0..1000u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let after = my_allocs();
    assert_eq!(
        after - before,
        0,
        "instant_ids allocated {} times over 1000 steady-state instants",
        after - before
    );
    // The run did something: emissions reached `out` at least once.
    assert!(runner.count_of("o") > 0, "relay never fired");
}

#[test]
fn vm_data_path_is_allocation_free_in_steady_state() {
    use ecl_observe::{synthesize_all, Monitor};
    use sim::designs::PROTOCOL_STACK;
    use sim::tb::PacketTb;
    use std::sync::Arc;

    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let design = Compiler::default()
        .compile_str(PROTOCOL_STACK, "toplevel")
        .unwrap();
    let prog = ecl_syntax::parse_str(PROTOCOL_STACK).unwrap();
    let specs = synthesize_all(&prog).expect("observers synthesize");
    let mut runner = AsyncRunner::new(
        vec![design],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    // The whole reaction must be on the compiled backend — a walker
    // fallback would clone `Value`s per signal read and void the
    // guarantee.
    let cov = runner.coverage();
    assert!(
        cov.fully_fused() && cov.vm_total() > 0,
        "stack should fuse completely ({}/{} states, {}/{} hooks)",
        cov.fused_states(),
        cov.states(),
        cov.vm_compiled(),
        cov.vm_total()
    );
    let mut monitors: Vec<Monitor> = specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(runner.sig_table());
            m
        })
        .collect();
    let events = PacketTb {
        packets: 40,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    // One driving pass: the first `WARM` instants grow every scratch
    // buffer (register file, kernel mailboxes, driver bitsets) to
    // steady state; the next 1000 monitored instants of packet
    // assembly, CRC accumulation and valued emission must then be
    // allocation-free. Boundaries are sampled inside the callback so
    // the whole window runs through a single `run_events` call.
    const WARM: u64 = 300;
    let mut before = 0u64;
    let mut after = 0u64;
    assert!(events.len() as u64 >= WARM + 1000, "testbench long enough");
    runner
        .run_events(&events[..(WARM + 1000) as usize], |instant, present| {
            for m in monitors.iter_mut() {
                m.step_present(instant, present);
            }
            if instant + 1 == WARM {
                before = my_allocs();
            } else if instant + 1 == WARM + 1000 {
                after = my_allocs();
            }
        })
        .unwrap();
    assert!(after > 0 || before == my_allocs(), "boundaries sampled");
    assert_eq!(
        after - before,
        0,
        "VM data path allocated {} times over 1000 steady-state instants",
        after - before
    );
    assert!(runner.count_of("top::packet") > 0, "packets were assembled");
}

#[test]
fn telemetry_enabled_steady_state_is_allocation_free() {
    let _g = locked();
    // Full instrumentation: master switch on, a sink installed —
    // but span summaries off, so nothing renders a line inside the
    // measured window. The runner counts into its probe, whose
    // histograms were allocated by the warm-up; that must not touch
    // the heap.
    ecl_telemetry::set_enabled(true);
    ecl_telemetry::set_span_every(0);
    let sink = ecl_telemetry::MemorySink::new();
    ecl_telemetry::install_sink(Box::new(sink.clone()));
    ecl_telemetry::metrics::reset_all();

    let design = Compiler::default().compile_str(RELAY, "top").unwrap();
    let mut runner = AsyncRunner::new(
        vec![design],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    let i = runner.sig_table().lookup("i").unwrap();
    let on: BitSet = [i.bit()].into_iter().collect();
    let off = BitSet::new();
    let mut out = BitSet::new();
    for k in 0..100u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let before = my_allocs();
    for k in 0..1000u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let after = my_allocs();
    // Driving `instant_ids` directly, the caller owns the flush
    // boundary (outside the measured window).
    runner.flush_telemetry();

    // Restore the global default before asserting, so a failure here
    // cannot leak an enabled switch into an unrelated test.
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);
    ecl_telemetry::set_span_every(1024);

    assert_eq!(
        after - before,
        0,
        "enabled telemetry allocated {} times over 1000 steady-state instants",
        after - before
    );
    // The instrumentation really ran: the kernel counted dispatches.
    assert!(
        ecl_telemetry::metrics::RTK_DISPATCHES.get() >= 1000,
        "dispatch counter did not advance"
    );
    assert!(runner.count_of("o") > 0, "relay never fired");
}
