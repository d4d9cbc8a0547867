//! Interpreter fuel is a per-instant budget, not a lifetime one.
//!
//! Every instant starts with `DEFAULT_FUEL` (or the fault plan's cap
//! on a fuel-starved instant), so a runner lives as long as its
//! stimulus stream: a handful of heavy instants that together burn
//! more than `DEFAULT_FUEL` run to completion on both runners. A
//! starved instant still fails — identically on both backends — and
//! the instant after it gets its full budget back.
//!
//! The fault plan is process-global, so every test here takes one
//! lock.

use ecl_core::{Compiler, Design};
use ecl_types::interp::DEFAULT_FUEL;
use efsm::{Backend, BitSet};
use sim::runner::{AsyncRunner, InterpRunner, Runner, SimError, SimErrorKind};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Each `n` stimulus runs a data loop of `n` iterations inside one
/// instant; `sum` carries its result. The chain of identity casts
/// burns one unit of fuel per cast on every backend, but lowers to no
/// bytecode at all — it makes the loop fuel-heavy and still quick in
/// a debug build.
fn burner() -> Design {
    let src = format!(
        "module burner (input int n, output int sum) {{
            int i;
            int acc;
            while (1) {{
                await (n);
                acc = 0;
                for (i = 0; i < n; i++) {{
                    acc = (acc + {casts}i) & 0xFFFF;
                }}
                emit_v (sum, acc);
            }}
        }}",
        casts = "(int)".repeat(CASTS)
    );
    Compiler::default()
        .compile_str(&src, "burner")
        .expect("burner compiles")
}

/// Identity casts per loop iteration.
const CASTS: usize = 40;

/// Loop iterations per heavy instant: about a quarter of `DEFAULT_FUEL`
/// (asserted below), so five heavy instants outlive a lifetime budget.
const HEAVY: i64 = 250_000;
const HEAVY_INSTANTS: usize = 5;

fn async_runner(design: &Design, backend: Backend) -> AsyncRunner {
    let mut r = AsyncRunner::new(
        vec![design.clone()],
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    r.set_backend(backend);
    r
}

/// One instant with `n` present (valued) or nothing present. Returns
/// whether `sum` was emitted.
fn step<R: Runner>(r: &mut R, n: Option<i64>) -> Result<bool, SimError> {
    let mut events = BitSet::new();
    if let Some(v) = n {
        r.set_input_i64("n", v)?;
        events.insert(r.sig_table().lookup("n").expect("n interned").bit());
    }
    let mut out = BitSet::new();
    r.instant_ids(&events, &mut out)?;
    let sum = r.sig_table().lookup("sum").expect("sum interned");
    Ok(out.contains(sum.bit()))
}

/// Warm up (the first instant starts the `await`), then run every
/// heavy instant.
fn run_heavy<R: Runner>(r: &mut R, name: &str) {
    step(r, None).expect("warm-up instant");
    for k in 0..HEAVY_INSTANTS {
        let emitted = step(r, Some(HEAVY))
            .unwrap_or_else(|e| panic!("{name}: heavy instant {k} failed: {e}"));
        assert!(emitted, "{name}: heavy instant {k} emitted no `sum`");
    }
}

#[test]
fn heavy_instants_outlive_a_lifetime_budget_on_both_runners() {
    let _g = locked();
    let design = burner();

    let mut interp = InterpRunner::new(&design).expect("interp builds");
    run_heavy(&mut interp, "interp");
    // The budget is refilled per instant, so what is missing from it
    // is exactly the last heavy instant's burn.
    let per_instant = DEFAULT_FUEL - interp.rt().machine().fuel();
    assert!(
        per_instant * HEAVY_INSTANTS as u64 > DEFAULT_FUEL && per_instant < DEFAULT_FUEL,
        "a heavy instant burns {per_instant}: the stream must outlive DEFAULT_FUEL \
         while each instant stays inside it"
    );

    run_heavy(&mut async_runner(&design, Backend::Compiled), "compiled");
}

/// Warm up, then run one light instant under a plan that starves
/// every instant of fuel; the instant's error.
fn starved<R: Runner>(r: &mut R) -> SimError {
    step(r, None).expect("warm-up instant");
    ecl_faults::install(ecl_faults::FaultPlan {
        fuel_starve: 1.0,
        starved_fuel: 500,
        ..ecl_faults::FaultPlan::seeded(3)
    });
    let res = step(r, Some(LIGHT));
    ecl_faults::uninstall();
    res.expect_err("a starved instant must fail")
}

const LIGHT: i64 = 1_000;

/// A fuel-starved instant fails with the same error on the walker and
/// the compiled backend of the RTOS runner, and on the interpreter
/// runner. Once the plan is gone, the next instant runs on a full
/// budget on all three — an error on a starved instant used to leave
/// the runtime capped.
#[test]
fn a_starved_instant_errors_identically_then_the_budget_returns() {
    let _g = locked();
    let design = burner();
    let mut walker = async_runner(&design, Backend::Walker);
    let mut compiled = async_runner(&design, Backend::Compiled);
    let mut interp = InterpRunner::new(&design).expect("interp builds");

    let (w, c, i) = (
        starved(&mut walker),
        starved(&mut compiled),
        starved(&mut interp),
    );
    for e in [&w, &c, &i] {
        assert_eq!(e.kind, SimErrorKind::Eval, "{e}");
        assert!(e.msg.contains("fuel exhausted"), "{e}");
    }
    // The message is the walker's; only the source span of a fuel
    // error may differ (the VM reports the first node of a coalesced
    // burn).
    let unspanned = |e: &SimError| {
        e.msg
            .rsplit_once(" (at ")
            .map_or(e.msg.clone(), |m| m.0.into())
    };
    assert_eq!(
        unspanned(&w),
        unspanned(&c),
        "walker and compiled failed differently"
    );
    assert_eq!(
        unspanned(&w),
        format!("task `burner`: {}", unspanned(&i)),
        "the runners failed differently"
    );

    for (name, ran) in [
        ("interp", step(&mut interp, Some(LIGHT))),
        ("walker", step(&mut walker, Some(LIGHT))),
        ("compiled", step(&mut compiled, Some(LIGHT))),
    ] {
        assert!(
            ran.unwrap_or_else(|e| panic!("{name}: still starved after the plan: {e}")),
            "{name}: no `sum` after the starved instant"
        );
    }
}
