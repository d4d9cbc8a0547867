//! EFSM optimization passes.
//!
//! These are the "logic optimization algorithms" the paper says apply to
//! the EFSM (Section 3): the s-graph analogue of two-level minimization
//! (node sharing + dead-test elimination) and classical FSM state
//! minimization by partition refinement. All passes preserve observable
//! behavior: the sequence of emissions/actions for every input sequence.

use crate::machine::{Efsm, StateId};
use crate::sgraph::{Node, NodeId};
use ecl_syntax::FxHashMap;

/// Outcome of running [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Nodes before / after.
    pub nodes_before: u32,
    /// Nodes after all passes.
    pub nodes_after: u32,
    /// States before / after.
    pub states_before: u32,
    /// States after all passes.
    pub states_after: u32,
}

/// Run the full pipeline: reduce, prune, minimize, reduce again — and
/// repeat the last two while they still shrink the machine.
///
/// Minimization compares s-graphs structurally, so a test whose two
/// branches only become equal once their targets merge survives it;
/// the reduce after it then removes that test, which can make two
/// surviving states structurally equal. Repeating until reduce removes
/// no dead test makes the result a fixpoint: optimizing it again
/// changes nothing, and a machine whose first reduce after minimizing
/// removes no dead test is optimized exactly as by one pass.
pub fn optimize(m: &mut Efsm) -> OptReport {
    let before = m.stats();
    reduce(m);
    prune_unreachable(m);
    minimize_states(m);
    while reduce(m) && minimize_states(m) {}
    let after = m.stats();
    OptReport {
        nodes_before: before.nodes,
        nodes_after: after.nodes,
        states_before: before.states,
        states_after: after.states,
    }
}

/// Hash-consing reduction + dead-test elimination.
///
/// Rebuilds the node arena bottom-up so that structurally identical
/// subgraphs are shared, and replaces any test whose branches are the
/// same node with that node (the BDD reduction rules applied to
/// s-graphs). Unreferenced nodes are dropped. Returns whether a dead
/// test was removed.
pub fn reduce(m: &mut Efsm) -> bool {
    const UNMAPPED: NodeId = NodeId(u32::MAX);
    let mut new_nodes: Vec<Node> = Vec::new();
    let mut intern: FxHashMap<Node, NodeId> = FxHashMap::default();
    // Old node → its node in the rebuilt arena.
    let mut memo: Vec<NodeId> = vec![UNMAPPED; m.nodes.len()];
    let mut stack = Vec::new();
    let mut dead_tests = false;
    for st in &mut m.states {
        // Iterative post-order rebuild (avoids recursion depth limits).
        stack.push((st.root, false));
        while let Some((id, children_done)) = stack.pop() {
            if memo[id.0 as usize] != UNMAPPED {
                continue;
            }
            let old = m.nodes[id.0 as usize];
            if !children_done {
                stack.push((id, true));
                for s in old.successors() {
                    if memo[s.0 as usize] == UNMAPPED {
                        stack.push((s, false));
                    }
                }
                continue;
            }
            let mapped = old.map_successors(|s| memo[s.0 as usize]);
            memo[id.0 as usize] = match mapped {
                // Dead-test elimination: both branches identical.
                Node::Test { then_, else_, .. } | Node::TestPred { then_, else_, .. }
                    if then_ == else_ =>
                {
                    dead_tests = true;
                    then_
                }
                other => *intern.entry(other).or_insert_with(|| {
                    new_nodes.push(other);
                    NodeId(new_nodes.len() as u32 - 1)
                }),
            };
        }
        st.root = memo[st.root.0 as usize];
    }
    m.nodes = new_nodes;
    dead_tests
}

/// Remove control states unreachable from the initial state, renumbering
/// the survivors (and their `Goto` targets).
pub fn prune_unreachable(m: &mut Efsm) {
    let n = m.states.len();
    let mut seen = vec![false; n];
    let mut stack = vec![m.init];
    seen[m.init.0 as usize] = true;
    while let Some(s) = stack.pop() {
        for id in crate::sgraph::reachable_nodes(&m.nodes, m.states[s.0 as usize].root) {
            if let Node::Goto { target } = m.nodes[id.0 as usize] {
                if !seen[target.0 as usize] {
                    seen[target.0 as usize] = true;
                    stack.push(target);
                }
            }
        }
    }
    if seen.iter().all(|x| *x) {
        return;
    }
    // Renumber.
    let mut remap = vec![StateId(u32::MAX); n];
    let mut kept = Vec::new();
    for (i, s) in m.states.iter().enumerate() {
        if seen[i] {
            remap[i] = StateId(kept.len() as u32);
            kept.push(s.clone());
        }
    }
    // Only rewrite nodes that are live in kept states — nodes of pruned
    // states keep stale targets and are garbage-collected right after.
    let mut live = vec![false; m.nodes.len()];
    for st in &kept {
        for id in crate::sgraph::reachable_nodes(&m.nodes, st.root) {
            live[id.0 as usize] = true;
        }
    }
    for (i, node) in m.nodes.iter_mut().enumerate() {
        if live[i] {
            *node = node.map_target(|t| remap[t.0 as usize]);
        }
    }
    m.init = remap[m.init.0 as usize];
    m.states = kept;
    // Drop the dead nodes (they may reference pruned states).
    reduce(m);
}

/// Observational state minimization by partition refinement.
///
/// Two states are equivalent when their s-graphs are structurally equal
/// after replacing `Goto` targets with equivalence-class indices. The
/// coarsest such partition is computed by [`coarsest_partition`]; each
/// class then merges into its lowest-numbered member, and the survivors
/// keep their relative order. Returns whether any states merged.
pub fn minimize_states(m: &mut Efsm) -> bool {
    let n = m.states.len();
    if n <= 1 {
        return false;
    }
    let (class, classes) = coarsest_partition(m);
    if classes == n {
        return false; // already minimal
    }
    // New id per class: classes numbered in order of their
    // representative (lowest-numbered member).
    let mut new_id = vec![u32::MAX; classes];
    let mut reps = Vec::with_capacity(classes);
    for (i, &c) in class.iter().enumerate() {
        if new_id[c as usize] == u32::MAX {
            new_id[c as usize] = reps.len() as u32;
            reps.push(i);
        }
    }
    let remap: Vec<StateId> = class.iter().map(|&c| StateId(new_id[c as usize])).collect();
    for node in &mut m.nodes {
        *node = node.map_target(|t| remap[t.0 as usize]);
    }
    m.init = remap[m.init.0 as usize];
    m.states = reps.iter().map(|&r| m.states[r].clone()).collect();
    true
}

/// The coarsest partition of `m`'s states in which two states share a
/// class exactly when their s-graphs are equal with every `Goto` target
/// replaced by its class. Returns each state's class and the number of
/// classes.
///
/// Signatures are integers: [`Signer`] hash-conses every node from its
/// kind, its fields and its successors' signatures (a `Goto` from its
/// target's class), so equal signatures mean equal class-substituted
/// s-graphs, and a node shared by several states is signed once per
/// round. Refinement runs on a worklist: the first round signs every
/// state and splits the single class by signature; after that, only the
/// states with a `Goto` into a state that changed class are re-signed,
/// and a class splits only along the signatures of its re-signed
/// members (the rest all still carry the class's signature). A split
/// keeps the class id for the members that kept the class's signature
/// (when every member was re-signed, for the largest group), so only
/// the states that really moved wake their `Goto` sources. Every split
/// separates states that differ under a partition coarser than the
/// answer, and the loop stops when no class splits, so the result is
/// the same partition as Moore's round-by-round refinement. The cost is
/// the total size of the s-graphs signed: a chain of `n` states that
/// takes `n` Moore rounds re-signs O(1) states per round instead of all
/// `n`.
fn coarsest_partition(m: &Efsm) -> (Vec<u32>, usize) {
    let n = m.states.len();
    let sources = goto_sources(m);
    let mut signer = Signer::new(&m.nodes);
    let mut class = vec![0u32; n];
    // Per class: member count, and the signature of every member that
    // is not being re-signed.
    let mut size = vec![n];
    let mut class_sig = vec![0u32];
    let mut queue: Vec<u32> = (0..n as u32).collect();
    let mut queued = vec![false; n];
    // (class, signature, state) of the states signed this round.
    let mut signed: Vec<(u32, u32, u32)> = Vec::new();
    while !queue.is_empty() {
        signer.round += 1;
        signed.clear();
        for &s in &queue {
            queued[s as usize] = false;
            let sig = signer.sign(m.states[s as usize].root, &class);
            signed.push((class[s as usize], sig, s));
        }
        queue.clear();
        signed.sort_unstable();
        for run in signed.chunk_by(|a, b| a.0 == b.0) {
            let c = run[0].0 as usize;
            let keep = if size[c] > run.len() {
                class_sig[c]
            } else {
                run.chunk_by(|a, b| a.1 == b.1)
                    .rev()
                    .max_by_key(|g| g.len())
                    .map(|g| g[0].1)
                    .expect("a run has members")
            };
            class_sig[c] = keep;
            for group in run.chunk_by(|a, b| a.1 == b.1) {
                if group[0].1 == keep {
                    continue;
                }
                let k = size.len() as u32;
                size[c] -= group.len();
                size.push(group.len());
                class_sig.push(group[0].1);
                for &(_, _, s) in group {
                    class[s as usize] = k;
                    for &src in &sources[s as usize] {
                        if !std::mem::replace(&mut queued[src as usize], true) {
                            queue.push(src);
                        }
                    }
                }
            }
        }
    }
    (class, size.len())
}

/// `sources[t]`: the states whose s-graph holds a `Goto` to state `t`,
/// each listed once, in increasing order.
fn goto_sources(m: &Efsm) -> Vec<Vec<u32>> {
    let mut sources: Vec<Vec<u32>> = vec![Vec::new(); m.states.len()];
    // The last state whose s-graph visited each node.
    let mut seen = vec![u32::MAX; m.nodes.len()];
    let mut stack = Vec::new();
    for (s, st) in m.states.iter().enumerate() {
        let s = s as u32;
        stack.push(st.root);
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], s) == s {
                continue;
            }
            let node = &m.nodes[id.0 as usize];
            if let Node::Goto { target } = *node {
                let into = &mut sources[target.0 as usize];
                if into.last() != Some(&s) {
                    into.push(s);
                }
            }
            stack.extend(node.successors());
        }
    }
    sources
}

/// Integer signatures of s-graph nodes with `Goto` targets replaced by
/// their state's class.
struct Signer<'a> {
    nodes: &'a [Node],
    /// Hash-consing table: a node's kind, fields and successor
    /// signatures → its signature. It lives for the whole refinement,
    /// so a subgraph whose targets kept their classes keeps its
    /// signature from round to round.
    ids: FxHashMap<[u32; 4], u32>,
    /// Signature per node, valid when its `stamp` equals `round`.
    sig: Vec<u32>,
    stamp: Vec<u32>,
    /// Current refinement round (starts at 1).
    round: u32,
    stack: Vec<(NodeId, bool)>,
}

impl<'a> Signer<'a> {
    fn new(nodes: &'a [Node]) -> Self {
        Signer {
            nodes,
            ids: FxHashMap::default(),
            sig: vec![0; nodes.len()],
            stamp: vec![0; nodes.len()],
            round: 0,
            stack: Vec::new(),
        }
    }

    /// Signature of the s-graph at `root` under `class`, signing each
    /// node at most once per round (iterative post-order).
    fn sign(&mut self, root: NodeId, class: &[u32]) -> u32 {
        let nodes = self.nodes;
        self.stack.push((root, false));
        while let Some((id, ready)) = self.stack.pop() {
            let i = id.0 as usize;
            if self.stamp[i] == self.round {
                continue;
            }
            if !ready {
                self.stack.push((id, true));
                self.stack.extend(nodes[i].successors().map(|s| (s, false)));
                continue;
            }
            let of = |n: NodeId| self.sig[n.0 as usize];
            let key = match nodes[i] {
                Node::Test { sig, then_, else_ } => [0, sig.0, of(then_), of(else_)],
                Node::TestPred { pred, then_, else_ } => [1, pred.0, of(then_), of(else_)],
                Node::Do { action, next } => [2, action.0, of(next), 0],
                Node::Emit {
                    sig,
                    value: None,
                    next,
                } => [3, sig.0, of(next), 0],
                Node::Emit {
                    sig,
                    value: Some(v),
                    next,
                } => [4, sig.0, of(next), v.0],
                Node::Goto { target } => [5, class[target.0 as usize], 0, 0],
            };
            let fresh = self.ids.len() as u32;
            self.sig[i] = *self.ids.entry(key).or_insert(fresh);
            self.stamp[i] = self.round;
        }
        self.sig[root.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EfsmBuilder;
    use crate::NoHooks;
    use std::collections::HashSet;

    /// A machine with two behaviorally identical states (1 and 2).
    fn redundant() -> Efsm {
        let mut b = EfsmBuilder::new("redundant");
        let a = b.input("a");
        let o = b.output("o");
        // s0: a ? goto 1 : goto 2
        let g1 = b.goto(StateId(1));
        let g2 = b.goto(StateId(2));
        let r0 = b.test(a, g1, g2);
        b.state("s0", r0);
        // s1: a ? emit o; goto 0 : goto 1
        let g0 = b.goto(StateId(0));
        let e1 = b.emit(o, g0);
        let g1b = b.goto(StateId(1));
        let r1 = b.test(a, e1, g1b);
        b.state("s1", r1);
        // s2: a ? emit o; goto 0 : goto 2   (same behavior as s1)
        let g0b = b.goto(StateId(0));
        let e2 = b.emit(o, g0b);
        let g2b = b.goto(StateId(2));
        let r2 = b.test(a, e2, g2b);
        b.state("s2", r2);
        b.build()
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        let mut m = redundant();
        minimize_states(&mut m);
        assert_eq!(m.states.len(), 2);
        m.validate().unwrap();
        // Behavior preserved: from s0 with a present we reach the merged
        // state; another a emits o.
        let a = m.signal("a").unwrap();
        let o = m.signal("o").unwrap();
        let mut on = HashSet::new();
        on.insert(a);
        let r = m.step(m.init, &on, &mut NoHooks);
        let r2 = m.step(r.next, &on, &mut NoHooks);
        assert_eq!(r2.emitted, vec![o]);
    }

    #[test]
    fn reduce_shares_identical_subgraphs() {
        let mut b = EfsmBuilder::new("dup");
        let a = b.input("a");
        let o = b.output("o");
        // Two identical emit chains, duplicated on both test branches.
        let g0 = b.goto(StateId(0));
        let e1 = b.emit(o, g0);
        let g0b = b.goto(StateId(0));
        let e2 = b.emit(o, g0b);
        let r = b.test(a, e1, e2);
        b.state("s0", r);
        let mut m = b.build();
        let before = m.stats().nodes;
        reduce(&mut m);
        let after = m.stats().nodes;
        assert!(after < before, "{after} !< {before}");
        // The test now has both branches equal and is itself eliminated.
        assert_eq!(m.stats().tests, 0);
        m.validate().unwrap();
    }

    #[test]
    fn prune_removes_unreachable() {
        let mut b = EfsmBuilder::new("island");
        let a = b.input("a");
        let g0 = b.goto(StateId(0));
        let g0b = b.goto(StateId(0));
        let r0 = b.test(a, g0, g0b);
        b.state("s0", r0);
        let g1 = b.goto(StateId(1));
        b.state("island", g1);
        let mut m = b.build();
        prune_unreachable(&mut m);
        assert_eq!(m.states.len(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn optimize_reports_shrinkage() {
        let mut m = redundant();
        let rep = optimize(&mut m);
        assert!(rep.states_after < rep.states_before);
        assert!(rep.nodes_after <= rep.nodes_before);
        m.validate().unwrap();
    }

    #[test]
    fn minimize_preserves_behavior_on_random_inputs() {
        use rand::{Rng, SeedableRng};
        let m1 = redundant();
        let mut m2 = redundant();
        optimize(&mut m2);
        let a = m1.signal("a").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut s1 = m1.init;
        let mut s2 = m2.init;
        for _ in 0..200 {
            let mut inputs = HashSet::new();
            if rng.gen_bool(0.5) {
                inputs.insert(a);
            }
            let r1 = m1.step(s1, &inputs, &mut NoHooks);
            let r2 = m2.step(s2, &inputs, &mut NoHooks);
            assert_eq!(r1.emitted, r2.emitted);
            s1 = r1.next;
            s2 = r2.next;
        }
    }

    #[test]
    fn single_state_machine_is_untouched() {
        let mut b = EfsmBuilder::new("one");
        let _ = b.input("x");
        let g = b.goto(StateId(0));
        b.state("s0", g);
        let mut m = b.build();
        minimize_states(&mut m);
        assert_eq!(m.states.len(), 1);
    }

    #[test]
    fn prune_keeps_all_when_connected() {
        let mut m = redundant();
        let before = m.states.len();
        prune_unreachable(&mut m);
        assert_eq!(m.states.len(), before);
    }

    #[test]
    fn signature_distinguishes_emissions() {
        let mut b = EfsmBuilder::new("sig");
        let a = b.input("a");
        let o = b.output("o");
        let p = b.output("p");
        let g0 = b.goto(StateId(0));
        let e_o = b.emit(o, g0);
        let g1 = b.goto(StateId(1));
        let e_p = b.emit(p, g1);
        let r0 = b.test(a, e_o, e_p);
        b.state("s0", r0);
        let g0b = b.goto(StateId(0));
        b.state("s1", g0b);
        let mut m = b.build();
        let before = m.states.len();
        minimize_states(&mut m);
        // s0 and s1 behave differently; nothing merges.
        assert_eq!(m.states.len(), before);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::machine::{Efsm, SigKind};
    use crate::sgraph::{Node, NodeId};
    use crate::{NoHooks, Signal};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Generate a random (valid, acyclic) pure-control machine.
    fn arb_efsm(max_states: u32, max_sigs: u32) -> impl Strategy<Value = Efsm> {
        (2..=max_states, 1..=max_sigs, any::<u64>()).prop_map(|(nstates, nsigs, seed)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = Efsm::new("random");
            let inputs: Vec<Signal> = (0..nsigs)
                .map(|i| m.add_signal(format!("i{i}"), SigKind::Input, false))
                .collect();
            let outputs: Vec<Signal> = (0..nsigs)
                .map(|i| m.add_signal(format!("o{i}"), SigKind::Output, false))
                .collect();
            for s in 0..nstates {
                // Build a small random decision tree bottom-up.
                let mut pool: Vec<NodeId> = (0..3)
                    .map(|_| {
                        m.add_node(Node::Goto {
                            target: crate::StateId(rng.gen_range(0..nstates)),
                        })
                    })
                    .collect();
                for _ in 0..rng.gen_range(0..5) {
                    let pick = |rng: &mut rand::rngs::StdRng, pool: &Vec<NodeId>| {
                        pool[rng.gen_range(0..pool.len())]
                    };
                    let node = match rng.gen_range(0..3) {
                        0 => Node::Test {
                            sig: inputs[rng.gen_range(0..inputs.len())],
                            then_: pick(&mut rng, &pool),
                            else_: pick(&mut rng, &pool),
                        },
                        1 => Node::Emit {
                            sig: outputs[rng.gen_range(0..outputs.len())],
                            value: None,
                            next: pick(&mut rng, &pool),
                        },
                        _ => Node::Test {
                            sig: inputs[rng.gen_range(0..inputs.len())],
                            then_: pick(&mut rng, &pool),
                            else_: pick(&mut rng, &pool),
                        },
                    };
                    let id = m.add_node(node);
                    pool.push(id);
                }
                let root = *pool.last().expect("pool nonempty");
                m.add_state(format!("s{s}"), root);
            }
            m.validate().expect("generator builds valid machines");
            m
        })
    }

    /// Generate a ring (`cycle`) or a chain of up to `max_states`
    /// states that advance on input `a`, stay or reset on `r`, and only
    /// now and then emit: long runs of look-alike states that only many
    /// refinement rounds tell apart. The s-graphs are built unshared,
    /// so `reduce` has work too.
    fn arb_ring_efsm(max_states: u32) -> impl Strategy<Value = Efsm> {
        (2..=max_states, any::<bool>(), any::<u64>()).prop_map(|(n, cycle, seed)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = Efsm::new(if cycle { "ring" } else { "chain" });
            let a = m.add_signal("a", SigKind::Input, false);
            let r = m.add_signal("r", SigKind::Input, false);
            let outs = [
                m.add_signal("o0", SigKind::Output, false),
                m.add_signal("o1", SigKind::Output, false),
            ];
            for s in 0..n {
                let next = if cycle {
                    (s + 1) % n
                } else {
                    (s + 1).min(n - 1)
                };
                let mut advance = m.add_node(Node::Goto {
                    target: crate::StateId(next),
                });
                if rng.gen_range(0..8) == 0 {
                    advance = m.add_node(Node::Emit {
                        sig: outs[rng.gen_range(0..2)],
                        value: None,
                        next: advance,
                    });
                }
                let reset = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..n)
                } else {
                    0
                };
                let reset = m.add_node(Node::Goto {
                    target: crate::StateId(reset),
                });
                let stay = m.add_node(Node::Goto {
                    target: crate::StateId(s),
                });
                let idle = m.add_node(Node::Test {
                    sig: r,
                    then_: reset,
                    else_: stay,
                });
                let root = m.add_node(Node::Test {
                    sig: a,
                    then_: advance,
                    else_: idle,
                });
                m.add_state(format!("s{s}"), root);
            }
            m.validate().expect("generator builds valid machines");
            m
        })
    }

    /// Step `m` and `opt` in lockstep over `steps` random instants
    /// (each input present with probability `p`); the emissions must
    /// agree.
    fn same_traces(
        m: &Efsm,
        opt: &Efsm,
        seed: u64,
        steps: usize,
        p: f64,
    ) -> Result<(), TestCaseError> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let all_inputs: Vec<Signal> = m.inputs().map(|(s, _)| s).collect();
        let mut s1 = m.init;
        let mut s2 = opt.init;
        for _ in 0..steps {
            let mut present = HashSet::new();
            for s in &all_inputs {
                if rng.gen_bool(p) {
                    present.insert(*s);
                }
            }
            let r1 = m.step(s1, &present, &mut NoHooks);
            let r2 = opt.step(s2, &present, &mut NoHooks);
            prop_assert_eq!(&r1.emitted, &r2.emitted);
            s1 = r1.next;
            s2 = r2.next;
        }
        Ok(())
    }

    /// A second `optimize` finds nothing left to merge or share.
    fn idempotent(m: &Efsm) -> Result<(), TestCaseError> {
        let mut once = m.clone();
        optimize(&mut once);
        let mut twice = once.clone();
        optimize(&mut twice);
        prop_assert_eq!(twice.states.len(), once.states.len());
        prop_assert_eq!(twice.stats().nodes, once.stats().nodes);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Long rings and chains: optimization preserves the trace over
        /// enough instants to walk every state, and leaves a machine a
        /// second run cannot shrink.
        #[test]
        fn optimize_preserves_ring_traces(m in arb_ring_efsm(64), inputs_seed in any::<u64>()) {
            let mut opt = m.clone();
            optimize(&mut opt);
            opt.validate().unwrap();
            same_traces(&m, &opt, inputs_seed, 4 * m.states.len(), 0.6)?;
        }

        #[test]
        fn optimize_is_idempotent_on_rings(m in arb_ring_efsm(64)) {
            idempotent(&m)?;
        }

        #[test]
        fn optimize_is_idempotent(m in arb_efsm(6, 3)) {
            idempotent(&m)?;
        }

        /// Optimization must preserve the observable trace for random
        /// machines and random input sequences.
        #[test]
        fn optimize_preserves_traces(m in arb_efsm(6, 3), inputs_seed in any::<u64>()) {
            let mut opt = m.clone();
            optimize(&mut opt);
            opt.validate().unwrap();
            same_traces(&m, &opt, inputs_seed, 64, 0.5)?;
        }

        /// Optimization never increases node or state counts.
        #[test]
        fn optimize_never_grows(m in arb_efsm(6, 3)) {
            let mut opt = m.clone();
            let rep = optimize(&mut opt);
            prop_assert!(rep.nodes_after <= rep.nodes_before);
            prop_assert!(rep.states_after <= rep.states_before);
        }
    }
}
