//! EFSM analyses: reachability, determinism, and safety checks.
//!
//! These back the paper's claim that the EFSM form "permits the use of
//! existing powerful techniques for optimization, analysis": we provide
//! implicit state exploration over the control graph and simple safety
//! verification (an output must/must-not be emitted in given states).

use crate::machine::{Efsm, StateId};
use crate::sgraph::{reachable_nodes, Node};
use std::collections::HashSet;

/// States reachable from the initial state through `Goto` edges
/// (inputs and predicates treated as free).
pub fn reachable_states(m: &Efsm) -> Vec<StateId> {
    let mut seen = vec![false; m.states.len()];
    let mut order = Vec::new();
    let mut stack = vec![m.init];
    seen[m.init.0 as usize] = true;
    while let Some(s) = stack.pop() {
        order.push(s);
        for id in reachable_nodes(&m.nodes, m.states[s.0 as usize].root) {
            if let Node::Goto { target } = m.nodes[id.0 as usize] {
                if !seen[target.0 as usize] {
                    seen[target.0 as usize] = true;
                    stack.push(target);
                }
            }
        }
    }
    order
}

/// A state is a *sink* if every path loops back to itself and emits
/// nothing — once entered, the machine is observably dead.
pub fn sink_states(m: &Efsm) -> Vec<StateId> {
    let mut sinks = Vec::new();
    'next: for (i, st) in m.states.iter().enumerate() {
        for id in reachable_nodes(&m.nodes, st.root) {
            match m.nodes[id.0 as usize] {
                Node::Goto { target } if target.0 as usize != i => continue 'next,
                Node::Emit { .. } | Node::Do { .. } => continue 'next,
                _ => {}
            }
        }
        sinks.push(StateId(i as u32));
    }
    sinks
}

/// Signals that can be emitted in some reachable state.
pub fn emittable_signals(m: &Efsm) -> HashSet<crate::Signal> {
    let mut out = HashSet::new();
    for s in reachable_states(m) {
        for id in reachable_nodes(&m.nodes, m.states[s.0 as usize].root) {
            if let Node::Emit { sig, .. } = m.nodes[id.0 as usize] {
                out.insert(sig);
            }
        }
    }
    out
}

/// Result of a safety check: either the invariant holds, or a witness
/// state where it is violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyResult {
    /// The property holds in all reachable states.
    Holds,
    /// A reachable state violating the property.
    Violated {
        /// The witness state.
        state: StateId,
    },
}

/// Check "signal `sig` is never emitted in any reachable state" —
/// the simplest useful safety property (e.g. an error output).
pub fn never_emitted(m: &Efsm, sig: crate::Signal) -> SafetyResult {
    for s in reachable_states(m) {
        for id in reachable_nodes(&m.nodes, m.states[s.0 as usize].root) {
            if let Node::Emit { sig: e, .. } = m.nodes[id.0 as usize] {
                if e == sig {
                    return SafetyResult::Violated { state: s };
                }
            }
        }
    }
    SafetyResult::Holds
}

/// Per-state determinism/structure report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StructureReport {
    /// Number of reachable states.
    pub reachable: usize,
    /// Number of total states.
    pub total: usize,
    /// Sink (observably dead) states.
    pub sinks: Vec<StateId>,
    /// Maximum s-graph depth over all states (worst-case tests per
    /// reaction; proxy for reaction latency).
    pub max_depth: u32,
}

/// Compute a structure report.
pub fn structure(m: &Efsm) -> StructureReport {
    let reachable = reachable_states(m).len();
    let mut max_depth = 0;
    for st in &m.states {
        max_depth = max_depth.max(depth(m, st.root));
    }
    StructureReport {
        reachable,
        total: m.states.len(),
        sinks: sink_states(m),
        max_depth,
    }
}

fn depth(m: &Efsm, root: crate::sgraph::NodeId) -> u32 {
    // Longest path in the DAG via memoized DFS.
    fn go(m: &Efsm, id: crate::sgraph::NodeId, memo: &mut Vec<Option<u32>>) -> u32 {
        if let Some(d) = memo[id.0 as usize] {
            return d;
        }
        let d = 1 + m.nodes[id.0 as usize]
            .successors()
            .map(|s| go(m, s, memo))
            .max()
            .unwrap_or(0);
        memo[id.0 as usize] = Some(d);
        d
    }
    go(m, root, &mut vec![None; m.nodes.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EfsmBuilder;

    fn with_dead_state() -> Efsm {
        let mut b = EfsmBuilder::new("dead");
        let a = b.input("a");
        let o = b.output("o");
        // s0: a ? emit o; goto 1 : goto 0
        let g1 = b.goto(StateId(1));
        let e = b.emit(o, g1);
        let g0 = b.goto(StateId(0));
        let r0 = b.test(a, e, g0);
        b.state("s0", r0);
        // s1: goto 1 (silent sink)
        let g1b = b.goto(StateId(1));
        b.state("s1", g1b);
        b.build()
    }

    #[test]
    fn reachability_finds_all_connected() {
        let m = with_dead_state();
        assert_eq!(reachable_states(&m).len(), 2);
    }

    #[test]
    fn sink_detection() {
        let m = with_dead_state();
        assert_eq!(sink_states(&m), vec![StateId(1)]);
    }

    #[test]
    fn emittable_and_safety() {
        let m = with_dead_state();
        let o = m.signal("o").unwrap();
        assert!(emittable_signals(&m).contains(&o));
        assert_eq!(
            never_emitted(&m, o),
            SafetyResult::Violated { state: StateId(0) }
        );
        // A fresh signal is never emitted.
        let mut m2 = m.clone();
        let extra = m2.add_signal("never", crate::SigKind::Output, false);
        assert_eq!(never_emitted(&m2, extra), SafetyResult::Holds);
    }

    #[test]
    fn structure_report() {
        let m = with_dead_state();
        let r = structure(&m);
        assert_eq!(r.reachable, 2);
        assert_eq!(r.total, 2);
        assert_eq!(r.sinks, vec![StateId(1)]);
        // s0 depth: test → emit → goto = 3.
        assert_eq!(r.max_depth, 3);
    }
}
