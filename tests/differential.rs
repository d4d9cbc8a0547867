//! Property-based implementation verification (paper Section 2: "one
//! can perform ... implementation verification"): randomly generated
//! ECL programs must behave identically under the constructive
//! interpreter and the compiled EFSM, for random input sequences.

use ecl_core::{Compiler, Options, SplitStrategy};
use ecl_observe::Monitor;
use efsm::{Backend, BitSet};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sim::runner::AsyncRunner;
use std::collections::HashSet;
use std::sync::Arc;

/// Generate a small random (constructive) ECL module over two inputs
/// and two outputs, built from the reactive statement grammar.
fn gen_module(seed: u64) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut stmts = 0;
    gen_block(&mut rng, &mut body, 2, &mut stmts);
    format!(
        "module m(input pure a, input pure b, output pure x, output pure y) {{\n\
           int v;\n while (1) {{ await (a | b); {body} }} }}"
    )
}

fn gen_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32) {
    let n = rng.gen_range(1..=3);
    for _ in 0..n {
        if *stmts > 12 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..8) {
            0 => out.push_str("emit (x); "),
            1 => out.push_str("emit (y); "),
            2 => out.push_str("v = v + 1; "),
            3 => out.push_str("await (b); "),
            4 if depth > 0 => {
                out.push_str("present (a) { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} else { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            5 if depth > 0 => {
                out.push_str("do { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("halt (); } abort (b); ");
            }
            6 if depth > 0 => {
                out.push_str("if (v > 2) { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            _ => out.push_str("await (); "),
        }
    }
}

fn check_equiv(src: &str, strategy: SplitStrategy, seeds: u64) -> Result<(), TestCaseError> {
    let Ok(design) = Compiler::new(Options { strategy }).compile_str(src, "m") else {
        // Some generated programs are (correctly) rejected; that is
        // consistent behavior, not a divergence.
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let x = design.signal("x").unwrap();
    let y = design.signal("y").unwrap();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_i = design.new_rt().unwrap();
        let mut rt_m = design.new_rt().unwrap();
        let mut interp = esterel::Machine::new(design.program());
        let mut st = machine.init;
        for step in 0..50 {
            let mut present = HashSet::new();
            if rng.gen_bool(0.5) {
                present.insert(a);
            }
            if rng.gen_bool(0.3) {
                present.insert(b);
            }
            let r1 = interp
                .react(&present, &mut rt_i)
                .expect("constructive program");
            let r2 = machine.step(st, &present, &mut rt_m);
            st = r2.next;
            for sig in [x, y] {
                prop_assert_eq!(
                    r1.has(sig),
                    r2.emitted.contains(&sig),
                    "signal {:?} diverged at seed {} step {} in\n{}",
                    sig,
                    seed,
                    step,
                    src
                );
            }
        }
    }
    Ok(())
}

/// Generate a data-heavy module: integer locals, an aggregate record,
/// valued signals read in predicates/actions/projections (including
/// signal-rooted chains through the aggregate output `q`), valued and
/// aggregate emits, inc/dec and compound assignments, for/do-while
/// loops, casts/sizeof/comma, a helper C function (exercising the
/// VM's statement-level walker fallback), and *deliberate* runtime errors
/// (divisions whose divisor is input-dependent, occasionally
/// out-of-bounds indices) — the workload of the `vm_matches_walker`
/// differential.
fn gen_data_module(seed: u64) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut stmts = 0;
    gen_data_block(&mut rng, &mut body, 2, &mut stmts);
    format!(
        "typedef unsigned char byte;\n\
         typedef struct {{ byte d[4]; int w; }} rec_t;\n\
         int helper(int z) {{ return z * 3 - 1; }}\n\
         module m(input int a, input pure b, output int x, output rec_t q, output pure y) {{\n\
           int u; int v; rec_t r;\n\
           while (1) {{ await (a | b); {body} }} }}"
    )
}

fn gen_data_expr(rng: &mut impl Rng, depth: u32) -> String {
    if depth == 0 {
        // Leaves include signal-rooted projections (`q.*` reads the
        // aggregate output's current value — LoadSigOff/LoadSigAt).
        return match rng.gen_range(0..8) {
            0 => "u".to_string(),
            1 => "v".to_string(),
            2 => "a".to_string(),
            3 => "r.w".to_string(),
            4 => format!("r.d[{}]", rng.gen_range(0..4)),
            5 => format!("q.d[{}]", rng.gen_range(0..4)),
            6 => "q.w".to_string(),
            _ => format!("{}", rng.gen_range(-3..60)),
        };
    }
    let a = gen_data_expr(rng, depth - 1);
    let b = gen_data_expr(rng, depth - 1);
    match rng.gen_range(0..19) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        // Input-dependent divisors: zero sometimes → real error instants.
        3 => format!("({a} / (a & 3))"),
        4 => format!("({a} % ((v & 7) + {}))", rng.gen_range(0..2)),
        5 => format!("({a} < {b})"),
        6 => format!("({a} == {b})"),
        7 => format!("({a} & {b})"),
        8 => format!("({a} ^ {b})"),
        9 => format!("({a} << ({b} & 7))"),
        10 => format!("({a} >> 1)"),
        11 => format!("(-{a})"),
        12 => format!("(~{a})"),
        13 => format!("((byte) {a})"),
        14 => format!("((unsigned int) {a} >> 1)"),
        15 => format!("(sizeof(rec_t) + {a})"),
        16 => format!("(q.d[(u & 3)] + {a})"),
        17 => format!("(v = {a}, v & 31)"),
        _ => format!("(!{a})"),
    }
}

fn gen_data_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32) {
    let n = rng.gen_range(2..=4);
    for _ in 0..n {
        if *stmts > 14 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..19) {
            0 => {
                let e = gen_data_expr(rng, 2);
                out.push_str(&format!("u = {e}; "));
            }
            1 => {
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("v = v + {e}; "));
            }
            2 => {
                // Sometimes a deliberately out-of-bounds index.
                let i = if rng.gen_bool(0.15) {
                    "(a & 7)".to_string()
                } else {
                    format!("{}", rng.gen_range(0..4))
                };
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("r.d[{i}] = {e}; "));
            }
            3 => out.push_str("r.w = r.w + r.d[1] + 1; "),
            4 if depth > 0 => {
                let c = gen_data_expr(rng, 1);
                out.push_str(&format!("if ({c}) {{ "));
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} else { ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            5 if depth > 0 => {
                out.push_str("u = u & 15; while (u > 0) { u = u - 1; ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            // Outside the bytecode subset → statement-level fallback.
            6 => out.push_str("v = helper(v & 63); "),
            7 => {
                let e = gen_data_expr(rng, 2);
                out.push_str(&format!("emit_v (x, {e}); "));
            }
            8 => out.push_str("emit (y); "),
            9 => out.push_str("await (b); "),
            10 => out.push_str("u = u + (a > 2 ? v : r.w); "),
            11 => {
                let c = gen_data_expr(rng, 1);
                out.push_str(&format!("if ({c}) {{ emit_v (x, v); }} "));
            }
            // Inc/dec and compound assignments (pre/post, += families).
            12 => out.push_str("u++; --v; r.w += u; "),
            13 => {
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("v ^= {e}; u <<= 1; u &= 255; "));
            }
            // For / do-while with per-iteration burn placement.
            14 if depth > 0 => {
                out.push_str("for (u = 0; u < (a & 7); u++) { ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            15 if depth > 0 => {
                out.push_str("v = v & 7; do { v--; ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} while (v > 0); ");
            }
            // Aggregate emit (EmitCopy) feeding the `q.*` signal reads.
            16 => out.push_str("emit_v (q, r); "),
            17 => out.push_str("u = (v += r.d[2], v) % 97 + sizeof(int); "),
            _ => out.push_str("v = v + r.d[u & 3] - q.d[v & 3]; "),
        }
    }
}

/// The bytecode VM ≡ the tree-walker, hook for hook. Two runtimes
/// drive the same compiled EFSM in lockstep — one on the VM (the
/// default), one forced onto the walker — and must agree every step on
/// emissions and next state, the emitted value of `x`, every root-frame
/// variable, error presence (message *and* span), the
/// `pred_evals`/`action_runs` counters, and — on error-free steps —
/// the exact fuel consumed (the kernel's cycle-charge source).
fn check_vm_vs_walker(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let Ok(design) = Compiler::default().compile_str(src, "m") else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_vm = design.new_rt().unwrap();
        let mut rt_w = design.new_rt().unwrap();
        prop_assert!(
            rt_vm.backend() == Backend::Compiled,
            "compiled is the default backend"
        );
        rt_w.set_backend(Backend::Walker);
        // Small fuel budget: generated programs can loop for real, and
        // exhaustion is itself a behavior the two backends must share.
        rt_vm.machine_mut().set_fuel(200_000);
        rt_w.machine_mut().set_fuel(200_000);
        let mut st_vm = machine.init;
        let mut st_w = machine.init;
        for step in 0..60 {
            let mut bits = BitSet::new();
            if rng.gen_bool(0.6) {
                let val = rng.gen_range(-4i64..12);
                rt_vm.set_input_i64("a", val).unwrap();
                rt_w.set_input_i64("a", val).unwrap();
                bits.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                bits.insert(b.0 as usize);
            }
            let fuel_before = rt_vm.machine().fuel();
            prop_assert_eq!(fuel_before, rt_w.machine().fuel());
            let mut e_vm = Vec::new();
            let mut e_w = Vec::new();
            let r_vm = machine.step_bits(st_vm, &bits, &mut rt_vm, &mut e_vm);
            let r_w = machine.step_bits(st_w, &bits, &mut rt_w, &mut e_w);
            st_vm = r_vm.next;
            st_w = r_w.next;
            prop_assert_eq!(
                &e_vm,
                &e_w,
                "emissions diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            prop_assert_eq!(
                r_vm,
                r_w,
                "StepOut diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            let err_vm = rt_vm.take_error();
            let err_w = rt_w.take_error();
            // Fuel exhaustion reports the span where the counter hit
            // zero — burn coalescing legitimately shifts it within the
            // exhausted expression, so compare those by message.
            let fuel_err = err_vm.as_ref().is_some_and(|e| e.msg.contains("fuel"));
            if fuel_err {
                prop_assert_eq!(
                    err_vm.as_ref().map(|e| &e.msg),
                    err_w.as_ref().map(|e| &e.msg),
                    "errors diverged at seed {} step {} in\n{}",
                    seed,
                    step,
                    src
                );
            } else {
                prop_assert_eq!(
                    &err_vm,
                    &err_w,
                    "errors diverged at seed {} step {} in\n{}",
                    seed,
                    step,
                    src
                );
            }
            prop_assert_eq!(rt_vm.pred_evals, rt_w.pred_evals, "pred_evals diverged");
            prop_assert_eq!(rt_vm.action_runs, rt_w.action_runs, "action_runs diverged");
            prop_assert_eq!(
                rt_vm.signal_value_by_name("x"),
                rt_w.signal_value_by_name("x"),
                "value of x diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            // Whole-frame comparison: every variable slot byte-equal.
            for ((n1, v1), (n2, v2)) in rt_vm
                .machine()
                .root_entries()
                .zip(rt_w.machine().root_entries())
            {
                prop_assert_eq!(n1, n2);
                prop_assert_eq!(
                    v1,
                    v2,
                    "variable `{}` diverged at seed {} step {} in\n{}",
                    n1,
                    seed,
                    step,
                    src
                );
            }
            if err_vm.is_none() {
                // Error-free steps consume identical fuel (burn
                // parity); after an error the tails legitimately differ
                // (coalesced burns stop at the error) — resynchronize.
                prop_assert_eq!(
                    rt_vm.machine().fuel(),
                    rt_w.machine().fuel(),
                    "fuel diverged at seed {} step {} in\n{}",
                    seed,
                    step,
                    src
                );
            } else {
                let sync = rt_vm.machine().fuel().min(rt_w.machine().fuel());
                rt_vm.machine_mut().set_fuel(sync);
                rt_w.machine_mut().set_fuel(sync);
            }
        }
    }
    Ok(())
}

/// The fused instant programs ≡ the s-graph walker, on the *data-heavy*
/// grammar (mixed states: predicates, actions and valued emits
/// interleaved with presence tests). One runtime steps through
/// `step_table` — mask scan + per-row residual program — the other
/// through the reference `step_bits` walk; both keep their data hooks
/// on the default bytecode VM so the comparison isolates control-path
/// fusion. They must agree every step on emission order, `StepOut`
/// (next state *and* `nodes_visited`, the cycle-cost proxy), error
/// presence, the `pred_evals`/`action_runs` hook counters, the emitted
/// value of `x`, every root-frame variable, and — on error-free steps
/// — the exact fuel consumed.
fn check_fused_vs_walker(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let Ok(design) = Compiler::default().compile_str(src, "m") else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let compiled = efsm::CompiledEfsm::compile(&machine);
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_f = design.new_rt().unwrap();
        let mut rt_w = design.new_rt().unwrap();
        rt_f.machine_mut().set_fuel(200_000);
        rt_w.machine_mut().set_fuel(200_000);
        let mut st_f = machine.init;
        let mut st_w = machine.init;
        for step in 0..60 {
            let mut bits = BitSet::new();
            if rng.gen_bool(0.6) {
                let val = rng.gen_range(-4i64..12);
                rt_f.set_input_i64("a", val).unwrap();
                rt_w.set_input_i64("a", val).unwrap();
                bits.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                bits.insert(b.0 as usize);
            }
            let mut e_f = Vec::new();
            let mut e_w = Vec::new();
            let r_f = compiled.step_table(
                &machine,
                st_f,
                &bits,
                &mut rt_f,
                &mut e_f,
                &mut ecl_telemetry::Probe::new(),
            );
            let r_w = machine.step_bits(st_w, &bits, &mut rt_w, &mut e_w);
            st_f = r_f.next;
            st_w = r_w.next;
            prop_assert_eq!(
                &e_f,
                &e_w,
                "emission order diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            prop_assert_eq!(
                r_f,
                r_w,
                "StepOut diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            // Both sides run the *same* VM data hooks, so errors must
            // match exactly — message and span included.
            let err_f = rt_f.take_error();
            let err_w = rt_w.take_error();
            prop_assert_eq!(
                &err_f,
                &err_w,
                "errors diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            prop_assert_eq!(rt_f.pred_evals, rt_w.pred_evals, "pred_evals diverged");
            prop_assert_eq!(rt_f.action_runs, rt_w.action_runs, "action_runs diverged");
            prop_assert_eq!(
                rt_f.signal_value_by_name("x"),
                rt_w.signal_value_by_name("x"),
                "value of x diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            for ((n1, v1), (n2, v2)) in rt_f
                .machine()
                .root_entries()
                .zip(rt_w.machine().root_entries())
            {
                prop_assert_eq!(n1, n2);
                prop_assert_eq!(
                    v1,
                    v2,
                    "variable `{}` diverged at seed {} step {} in\n{}",
                    n1,
                    seed,
                    step,
                    src
                );
            }
            if err_f.is_none() {
                prop_assert_eq!(
                    rt_f.machine().fuel(),
                    rt_w.machine().fuel(),
                    "fuel diverged at seed {} step {} in\n{}",
                    seed,
                    step,
                    src
                );
            } else {
                let sync = rt_f.machine().fuel().min(rt_w.machine().fuel());
                rt_f.machine_mut().set_fuel(sync);
                rt_w.machine_mut().set_fuel(sync);
            }
        }
    }
    Ok(())
}

/// The observer attached to every generated program: an
/// `always`-style invariant ("outputs fire only under or right after
/// stimulus") that generated programs *can* genuinely violate, plus a
/// trivially-true guard. Both runners must reach identical verdicts.
const PIN_OBSERVER: &str = "
    observer pin(input pure a, input pure b, input pure x, input pure y) {
      always (~x | a | b);
      always (x | ~x);
    }";

/// Run the generated program under the interpreter and the compiled
/// EFSM with the pinned observer attached to each; the two monitors
/// must agree on the verdict at every step.
fn check_observer_equiv(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let full = format!("{src}\n{PIN_OBSERVER}");
    let Ok(design) = Compiler::default().compile_str(&full, "m") else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let prog = ecl_syntax::parse_str(&full).expect("generated program parses");
    let spec = Arc::new(
        ecl_observe::synthesize(prog.observer("pin").expect("observer present"))
            .expect("observer synthesizes"),
    );
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let x = design.signal("x").unwrap();
    let y = design.signal("y").unwrap();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_i = design.new_rt().unwrap();
        let mut rt_m = design.new_rt().unwrap();
        let mut interp = esterel::Machine::new(design.program());
        let mut st = machine.init;
        let mut mon_i = Monitor::new(Arc::clone(&spec));
        let mut mon_m = Monitor::new(Arc::clone(&spec));
        for step in 0..50u64 {
            let mut present = HashSet::new();
            let mut names: Vec<String> = Vec::new();
            if rng.gen_bool(0.5) {
                present.insert(a);
                names.push("a".into());
            }
            if rng.gen_bool(0.3) {
                present.insert(b);
                names.push("b".into());
            }
            let r1 = interp
                .react(&present, &mut rt_i)
                .expect("constructive program");
            let r2 = machine.step(st, &present, &mut rt_m);
            st = r2.next;
            let mut names_i = names.clone();
            let mut names_m = names;
            for (sig, name) in [(x, "x"), (y, "y")] {
                if r1.has(sig) {
                    names_i.push(name.into());
                }
                if r2.emitted.contains(&sig) {
                    names_m.push(name.into());
                }
            }
            mon_i.step(step, &names_i);
            mon_m.step(step, &names_m);
            prop_assert_eq!(
                mon_i.verdict(),
                mon_m.verdict(),
                "observer verdict diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
        }
        prop_assert_eq!(mon_i.finish(), mon_m.finish(), "final verdicts in\n{}", src);
    }
    Ok(())
}

/// The fast path ≡ the compatibility shim: run the same random event
/// stream through `instant_ids` (bitset path) and the legacy `instant`
/// (name path) on two identical runners; the emitted *sets* must match
/// at every instant, and a monitor stepped by ids (pre-bound masks)
/// must reach the same verdict as one stepped by names.
fn check_ids_vs_names(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let full = format!("{src}\n{PIN_OBSERVER}");
    let Ok(design) = Compiler::default().compile_str(&full, "m") else {
        return Ok(());
    };
    let prog = ecl_syntax::parse_str(&full).expect("generated program parses");
    let spec = Arc::new(
        ecl_observe::synthesize(prog.observer("pin").expect("observer present"))
            .expect("observer synthesizes"),
    );
    let build = || {
        AsyncRunner::new(
            vec![design.clone()],
            &Default::default(),
            Default::default(),
            Default::default(),
        )
        .expect("runner builds")
    };
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut by_name = build();
        let mut by_id = build();
        let a = by_id.sig_table().lookup("a").expect("a interned");
        let b = by_id.sig_table().lookup("b").expect("b interned");
        let mut mon_names = Monitor::new(Arc::clone(&spec));
        let mut mon_ids = Monitor::new(Arc::clone(&spec));
        mon_ids.bind(by_id.sig_table());
        let mut out = BitSet::new();
        let mut present = BitSet::new();
        for step in 0..50u64 {
            let mut names: Vec<&str> = Vec::new();
            let mut ev = BitSet::new();
            if rng.gen_bool(0.5) {
                names.push("a");
                ev.insert(a.bit());
            }
            if rng.gen_bool(0.3) {
                names.push("b");
                ev.insert(b.bit());
            }
            let emitted_names = by_name.instant(&names).expect("name path runs");
            by_id.instant_ids(&ev, &mut out).expect("id path runs");
            // Identical emitted sets.
            let mut got: Vec<&str> = by_id.sig_table().names_of(&out).collect();
            let mut want: Vec<&str> = emitted_names.iter().map(String::as_str).collect();
            got.sort_unstable();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(
                got,
                want,
                "emitted sets diverged at seed {seed} step {step}\n{src}"
            );
            // Identical observer verdicts, names vs pre-bound ids.
            present.clear();
            present.union_with(&ev);
            present.union_with(&out);
            let mut present_names: Vec<String> = by_id
                .sig_table()
                .names_of(&present)
                .map(str::to_string)
                .collect();
            present_names.sort_unstable();
            mon_names.step(step, &present_names);
            mon_ids.step_ids(step, &present, by_id.sig_table());
            prop_assert_eq!(
                mon_names.verdict(),
                mon_ids.verdict(),
                "verdicts diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
        }
        prop_assert_eq!(
            mon_names.finish(),
            mon_ids.finish(),
            "final verdicts in\n{}",
            src
        );
    }
    Ok(())
}

/// The compiled-table backend ≡ the s-graph walker, at two levels.
///
/// Machine level: from the same state with the same inputs, `step_table`
/// must produce the *exact* walker result — emissions in walk order,
/// next state, and `nodes_visited` (the cycle-cost proxy) — for pure
/// and mixed (fallback) states alike. Runner level: an [`AsyncRunner`]
/// on tables and one forced onto the walker must emit identical sets
/// every instant and drive a pinned observer to identical verdicts.
fn check_table_vs_sgraph(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let full = format!("{src}\n{PIN_OBSERVER}");
    let Ok(design) = Compiler::default().compile_str(&full, "m") else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let compiled = efsm::CompiledEfsm::compile(&machine);
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    // Machine level: lockstep walk vs table scan.
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_w = design.new_rt().unwrap();
        let mut rt_t = design.new_rt().unwrap();
        let mut st_w = machine.init;
        let mut st_t = machine.init;
        for step in 0..50 {
            let mut bits = BitSet::new();
            if rng.gen_bool(0.5) {
                bits.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                bits.insert(b.0 as usize);
            }
            let mut e_w = Vec::new();
            let mut e_t = Vec::new();
            let r_w = machine.step_bits(st_w, &bits, &mut rt_w, &mut e_w);
            let r_t = compiled.step_table(
                &machine,
                st_t,
                &bits,
                &mut rt_t,
                &mut e_t,
                &mut ecl_telemetry::Probe::new(),
            );
            prop_assert_eq!(
                e_w,
                e_t,
                "emission order diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            prop_assert_eq!(
                r_w,
                r_t,
                "StepOut diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            st_w = r_w.next;
            st_t = r_t.next;
        }
    }
    // Runner level, with the pinned observer on both backends.
    let prog = ecl_syntax::parse_str(&full).expect("generated program parses");
    let spec = Arc::new(
        ecl_observe::synthesize(prog.observer("pin").expect("observer present"))
            .expect("observer synthesizes"),
    );
    let build = || {
        AsyncRunner::new(
            vec![design.clone()],
            &Default::default(),
            Default::default(),
            Default::default(),
        )
        .expect("runner builds")
    };
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut walked = build();
        walked.set_backend(Backend::Walker);
        let mut tabled = build();
        prop_assert!(
            tabled.backend() == Backend::Compiled,
            "compiled is the default backend"
        );
        let ga = tabled.sig_table().lookup("a").expect("a interned");
        let gb = tabled.sig_table().lookup("b").expect("b interned");
        let mut mon_w = Monitor::new(Arc::clone(&spec));
        let mut mon_t = Monitor::new(Arc::clone(&spec));
        mon_w.bind(walked.sig_table());
        mon_t.bind(tabled.sig_table());
        let (mut out_w, mut out_t) = (BitSet::new(), BitSet::new());
        let mut present = BitSet::new();
        for step in 0..50u64 {
            let mut ev = BitSet::new();
            if rng.gen_bool(0.5) {
                ev.insert(ga.bit());
            }
            if rng.gen_bool(0.3) {
                ev.insert(gb.bit());
            }
            walked.instant_ids(&ev, &mut out_w).expect("walker runs");
            tabled.instant_ids(&ev, &mut out_t).expect("table runs");
            prop_assert_eq!(
                &out_w,
                &out_t,
                "emitted sets diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
            present.clear();
            present.union_with(&ev);
            present.union_with(&out_t);
            mon_w.step_ids(step, &present, walked.sig_table());
            mon_t.step_ids(step, &present, tabled.sig_table());
            prop_assert_eq!(
                mon_w.verdict(),
                mon_t.verdict(),
                "observer verdicts diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
        }
        prop_assert_eq!(mon_w.finish(), mon_t.finish(), "final verdicts in\n{}", src);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Interpreter ≡ compiled EFSM under the paper's default strategy.
    #[test]
    fn interp_matches_efsm_max(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_equiv(&src, SplitStrategy::MaxEsterel, 3)?;
    }

    /// Same under the MinEsterel (Section 6) strategy.
    #[test]
    fn interp_matches_efsm_min(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_equiv(&src, SplitStrategy::MinEsterel, 3)?;
    }

    /// Interpreter ≡ EFSM on *observer verdicts*: random programs run
    /// with an always-style observer attached reach the same
    /// Pass/Fail{instant} on both execution paths.
    #[test]
    fn observer_verdicts_match(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_observer_equiv(&src, 3)?;
    }

    /// `instant_ids` ≡ the legacy `instant` shim: identical emitted
    /// sets and identical observer verdicts on random event streams.
    #[test]
    fn instant_ids_matches_name_shim(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_ids_vs_names(&src, 3)?;
    }

    /// The compiled transition tables ≡ the s-graph walker: exact
    /// per-step results at the machine level (emission order, next
    /// state, nodes visited) and identical emitted sets + observer
    /// verdicts at the runner level.
    #[test]
    fn table_matches_sgraph(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_table_vs_sgraph(&src, 3)?;
    }

    /// The bytecode VM ≡ the tree-walker on generated data-heavy
    /// programs (ints, bools, if/while, signal reads and projections,
    /// valued emits, function-call fallbacks, deliberate runtime
    /// errors): identical emissions, frames, signal values, error
    /// instants, hook counters and fuel.
    #[test]
    fn vm_matches_walker(seed in 0u64..10_000) {
        let src = gen_data_module(seed);
        check_vm_vs_walker(&src, 3)?;
    }

    /// The fused instant programs ≡ the s-graph walker on the same
    /// data-heavy grammar (mixed states with preds, actions and valued
    /// emits between presence tests): exact emission order, `StepOut`
    /// including `nodes_visited`, hook counters, frames, signal values
    /// and fuel, every step.
    #[test]
    fn fused_matches_walker(seed in 0u64..10_000) {
        let src = gen_data_module(seed);
        check_fused_vs_walker(&src, 3)?;
    }

    /// Both strategies agree with each other on outputs.
    #[test]
    fn strategies_agree(seed in 0u64..10_000) {
        let src = gen_module(seed);
        let d1 = Compiler::new(Options { strategy: SplitStrategy::MaxEsterel })
            .compile_str(&src, "m");
        let d2 = Compiler::new(Options { strategy: SplitStrategy::MinEsterel })
            .compile_str(&src, "m");
        let (Ok(d1), Ok(d2)) = (d1, d2) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut r1 = sim::runner::InterpRunner::new(&d1).unwrap();
        let mut r2 = sim::runner::InterpRunner::new(&d2).unwrap();
        for _ in 0..40 {
            let mut ev: Vec<&str> = Vec::new();
            if rng.gen_bool(0.5) { ev.push("a"); }
            if rng.gen_bool(0.3) { ev.push("b"); }
            let mut o1 = r1.instant(&ev).unwrap();
            let mut o2 = r2.instant(&ev).unwrap();
            o1.sort();
            o2.sort();
            prop_assert_eq!(o1, o2, "strategy divergence in\n{}", src);
        }
    }
}
