//! Output identity of the Esterel→EFSM compiler: the artifacts of every
//! shipped configuration and every shipped observer are pinned.
//!
//! The benchmark compares each compile only with the same binary's own
//! first compile, so a faster compiler that emitted a different machine
//! would pass it. This suite pins what the compiler produced before the
//! compile-time optimizations (integer partition refinement, the
//! clone-free symbolic engine): state and s-graph node counts, fused
//! rows, the lengths of the emitted C and Verilog and an FNV-1a hash of
//! their text. Any change to state enumeration, s-graph construction,
//! the optimizer's partition or its representatives, or the back ends
//! shows up here.
//!
//! The window-cap tests synthesize observers at the parser's largest
//! window, which the refinement must keep cheap.

use codegen::artifacts::Artifacts;
use ecl_core::pipeline::Source;
use ecl_observe::{synthesize, synthesize_all};
use ecl_syntax::ast::MAX_WINDOW;
use esterel::CompileOptions;
use sim::designs::{PROTOCOL_STACK, VOICE_PAGER};
use sim::runner::{AsyncRunner, SharedProgram};

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one compile of a design configuration produced.
#[derive(Debug, PartialEq, Eq)]
struct ConfigShape {
    states: u32,
    nodes: u32,
    fused_rows: u32,
    c_len: usize,
    verilog_len: usize,
    c_hash: u64,
    verilog_hash: u64,
}

/// Compile `top` of `src`, as one machine or as one task per
/// instantiation of the top level, to EFSMs, a runnable program, C and
/// Verilog.
fn config_shape(name: &str, src: &str, top: &str, parts: bool) -> ConfigShape {
    let parsed = Source::named(name, src).parse().expect("design parses");
    let units: Vec<(String, Option<Vec<String>>)> = if parts {
        parsed
            .instantiations(top)
            .into_iter()
            .map(|i| (i.module, Some(i.actuals)))
            .collect()
    } else {
        vec![(top.to_string(), None)]
    };
    assert!(!units.is_empty(), "{name}: no tasks");
    let opts = CompileOptions::default();
    let machines: Vec<_> = units
        .iter()
        .map(|(module, actuals)| {
            parsed
                .elaborate_bound(module, actuals.as_deref())
                .expect("design elaborates")
                .split()
                .expect("design splits")
                .ir()
                .compile(&opts)
                .expect("design compiles")
        })
        .collect();
    let program = SharedProgram::compile(machines.iter().map(|m| m.design()).collect(), &opts)
        .expect("design compiles to a program");
    let coverage =
        AsyncRunner::from_shared(&program, Default::default(), Default::default()).coverage();
    let artifacts: Vec<Artifacts> = machines
        .iter()
        .map(|m| Artifacts::emit(m).expect("design emits"))
        .collect();
    let c: String = artifacts.iter().map(Artifacts::c).collect();
    let verilog: String = artifacts.iter().filter_map(Artifacts::verilog).collect();
    ConfigShape {
        states: machines.iter().map(|m| m.efsm().stats().states).sum(),
        nodes: machines.iter().map(|m| m.efsm().stats().nodes).sum(),
        fused_rows: coverage.fused_rows(),
        c_len: c.len(),
        verilog_len: verilog.len(),
        c_hash: fnv1a(&c),
        verilog_hash: fnv1a(&verilog),
    }
}

#[test]
fn stack_monolithic_shape() {
    let got = config_shape("protocol_stack.ecl", PROTOCOL_STACK, "toplevel", false);
    assert_eq!(
        got,
        ConfigShape {
            states: 5,
            nodes: 65,
            fused_rows: 13,
            c_len: 16339,
            verilog_len: 0,
            c_hash: 0x8522f45c02f0be28,
            verilog_hash: 0xcbf29ce484222325,
        }
    );
}

#[test]
fn stack_partition_shape() {
    let got = config_shape("protocol_stack.ecl", PROTOCOL_STACK, "toplevel", true);
    assert_eq!(
        got,
        ConfigShape {
            states: 11,
            nodes: 50,
            fused_rows: 18,
            c_len: 9352,
            verilog_len: 0,
            c_hash: 0x31ce85fe51248314,
            verilog_hash: 0xcbf29ce484222325,
        }
    );
}

#[test]
fn pager_monolithic_shape() {
    let got = config_shape("voice_pager.ecl", VOICE_PAGER, "pager", false);
    assert_eq!(
        got,
        ConfigShape {
            states: 16,
            nodes: 162,
            fused_rows: 225,
            c_len: 57490,
            verilog_len: 0,
            c_hash: 0xdaaef25c13c43a32,
            verilog_hash: 0xcbf29ce484222325,
        }
    );
}

#[test]
fn pager_partition_shape() {
    let got = config_shape("voice_pager.ecl", VOICE_PAGER, "pager", true);
    assert_eq!(
        got,
        ConfigShape {
            states: 11,
            nodes: 45,
            fused_rows: 39,
            c_len: 11319,
            verilog_len: 814,
            c_hash: 0x376c4254d4f91019,
            verilog_hash: 0xda31ad1a054dc9cc,
        }
    );
}

/// What synthesis produced for one observer.
#[derive(Debug, PartialEq, Eq)]
struct MonitorShape {
    name: String,
    states: u32,
    nodes: u32,
    rows: usize,
    c_len: usize,
    c_hash: u64,
}

fn monitor_shapes(src: &str) -> Vec<MonitorShape> {
    let ast = ecl_syntax::parse_str(src).expect("design parses");
    synthesize_all(&ast)
        .expect("observers synthesize")
        .iter()
        .map(|spec| {
            let c = codegen::emit_monitor_c(&spec.efsm);
            MonitorShape {
                name: spec.name.clone(),
                states: spec.efsm.stats().states,
                nodes: spec.efsm.stats().nodes,
                rows: spec.table.row_count(),
                c_len: c.len(),
                c_hash: fnv1a(&c),
            }
        })
        .collect()
}

fn shape(
    name: &str,
    states: u32,
    nodes: u32,
    rows: usize,
    c_len: usize,
    c_hash: u64,
) -> MonitorShape {
    MonitorShape {
        name: name.to_string(),
        states,
        nodes,
        rows,
        c_len,
        c_hash,
    }
}

#[test]
fn stack_observer_shapes() {
    assert_eq!(
        monitor_shapes(PROTOCOL_STACK),
        vec![
            shape("crc_watch", 2, 9, 7, 1114, 0xd2a1565d36a4b853),
            shape("forward_watch", 9, 20, 19, 1872, 0x755665c11ff14567),
            shape("liveness_watch", 82, 163, 163, 12423, 0xf0698d072094010d),
        ]
    );
}

#[test]
fn pager_observer_shapes() {
    assert_eq!(
        monitor_shapes(VOICE_PAGER),
        vec![
            shape("record_watch", 7, 16, 15, 1532, 0x42d9b155f3de296),
            shape("playback_watch", 2, 8, 7, 1131, 0x2eb6634694b13bfe),
        ]
    );
}

/// Synthesize the one observer in `src` and check it is a valid, fully
/// fused machine; return its state count.
fn cap_states(src: &str) -> u32 {
    let ast = ecl_syntax::parse_str(src).expect("observer parses");
    let obs = ast.observers().next().expect("one observer");
    let spec = synthesize(obs).expect("observer synthesizes");
    spec.efsm.validate().expect("monitor machine is valid");
    assert!(spec.table.fully_fused(), "monitor is not fully fused");
    spec.efsm.stats().states
}

#[test]
fn eventually_within_cap_synthesizes() {
    let src = format!("observer w (input pure e) {{ eventually_within {MAX_WINDOW} (e); }}");
    assert_eq!(cap_states(&src), 4098);
}

#[test]
fn whenever_within_cap_synthesizes() {
    let src = format!(
        "observer w (input pure t, input pure r) {{ whenever (t) expect (r) within {MAX_WINDOW}; }}"
    );
    assert_eq!(cap_states(&src), 4097);
}
