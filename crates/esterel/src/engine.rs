//! Shared single-instant execution engine.
//!
//! Both the constructive interpreter ([`crate::interp`]) and the EFSM
//! compiler ([`crate::compile`]) need to execute one synchronous instant
//! over the frozen program tree. The control skeleton (sequencing,
//! parallel synchronization with max-codes, traps, suspension, pause
//! selection/resumption) is identical; what differs is how signal
//! statuses, data predicates, actions and emissions are resolved. That
//! difference is abstracted behind the [`Sem`] trait.
//!
//! The engine is *restartable*: a pass that cannot resolve a signal test
//! returns [`ExecOut::Blocked`] and the driver re-runs the pass after
//! refining its knowledge. Drivers guarantee exactly-once data effects
//! across re-runs by keying on `(node, occurrence)` — the traversal is
//! deterministic, so the k-th visit of a node is the same logical visit
//! in every pass.

use crate::ir::{Node, Program, SigExpr, StmtId, Tri};
use efsm::{ActionId, BitSet, ExprId, PredId, Signal};

/// Resolution callbacks for one instant.
pub trait Sem {
    /// Current status of a signal (may be refined between passes).
    fn status(&mut self, s: Signal) -> Tri;
    /// Called when a test cannot be decided because `s` is unknown.
    fn blocked_on(&mut self, s: Signal);
    /// Evaluate a data predicate at `(node, occurrence)`. `None` means
    /// the run must block/fork (compiler); the interpreter always
    /// answers.
    fn pred(&mut self, at: (StmtId, u32), p: PredId) -> Option<bool>;
    /// Execute a data action at `(node, occurrence)` (exactly once per
    /// instant — implementations use the key to deduplicate re-runs).
    fn action(&mut self, at: (StmtId, u32), a: ActionId);
    /// Emit a signal. Returning `false` aborts the run as inconsistent
    /// (used by the compiler's guess-and-check on internal signals).
    fn emit(&mut self, at: (StmtId, u32), s: Signal, value: Option<ExprId>) -> bool;
}

/// Result of one execution pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOut {
    /// The pass completed with Berry completion `code` and the set of
    /// pause points active for the next instant.
    Done {
        /// Completion code: 0 terminated, 1 paused, k≥2 exit.
        code: u32,
        /// Pauses selected for the next instant.
        pauses: BitSet,
    },
    /// A signal test could not be decided ([`Sem::blocked_on`] was
    /// called with the culprit).
    Blocked,
    /// The run is inconsistent (guess-and-check failure) or the
    /// program misbehaved dynamically.
    Failed(ExecFailure),
}

/// Why a pass failed hard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailure {
    /// A loop body terminated instantaneously twice (should be caught
    /// statically; kept as a dynamic backstop).
    InstantaneousLoop,
    /// An emission contradicted an assumed-absent signal.
    InconsistentEmission(Signal),
}

/// One `u32` per program node, all reset to 0 by [`NodeCounts::clear`]
/// in O(1): each slot carries the epoch it was written in, and a slot
/// from an earlier epoch reads as 0. Drivers keep one across passes and
/// runs, so a pass costs only the nodes it visits.
#[derive(Debug, Clone)]
pub struct NodeCounts {
    /// `(epoch, count)` per node.
    slots: Vec<(u32, u32)>,
    epoch: u32,
}

impl NodeCounts {
    /// Counters for every node of `prog`, all 0.
    pub fn new(prog: &Program) -> Self {
        NodeCounts {
            slots: vec![(0, 0); prog.size()],
            epoch: 1,
        }
    }

    /// Reset every counter to 0.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale slots could alias the new epoch.
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// The counter of `id`.
    pub fn get(&self, id: StmtId) -> u32 {
        match self.slots[id.0 as usize] {
            (e, c) if e == self.epoch => c,
            _ => 0,
        }
    }

    /// Set the counter of `id`.
    pub fn set(&mut self, id: StmtId, v: u32) {
        self.slots[id.0 as usize] = (self.epoch, v);
    }
}

/// One execution pass over the program.
pub struct Engine<'p, S: Sem> {
    prog: &'p Program,
    /// Selection (active pauses) from the previous instant.
    sel: &'p BitSet,
    /// Per-node visit counters for this pass.
    occ: &'p mut NodeCounts,
    /// Pauses selected so far for the next instant.
    pauses: BitSet,
    /// The driver's resolution strategy.
    pub sem: S,
}

/// How a subtree's execution ended; its selected pauses are in the
/// engine's `pauses`.
enum Flow {
    /// Berry completion code: 0 terminated, 1 paused, k≥2 exit.
    Done(u32),
    Blocked,
    Failed(ExecFailure),
}

impl<'p, S: Sem> Engine<'p, S> {
    /// Create an engine for one pass; `occ` (sized for `prog`) is
    /// cleared and counts this pass's visits.
    pub fn new(prog: &'p Program, sel: &'p BitSet, occ: &'p mut NodeCounts, sem: S) -> Self {
        occ.clear();
        Engine {
            prog,
            sel,
            occ,
            pauses: BitSet::new(),
            sem,
        }
    }

    fn next_occ(&mut self, id: StmtId) -> u32 {
        let v = self.occ.get(id);
        self.occ.set(id, v + 1);
        v
    }

    /// Index of the child of a `Seq` at `id` holding the selection: the
    /// children's pause ranges are consecutive and ordered, so it is the
    /// child whose range holds the sequence's lowest selected pause.
    fn selected_child(&self, id: StmtId, children: &[StmtId]) -> Option<usize> {
        let m = self.prog.meta(id);
        let p = self
            .sel
            .next_from(m.pause_lo as usize)
            .filter(|p| *p < m.pause_hi as usize)?;
        Some(children.partition_point(|c| self.prog.meta(*c).pause_hi as usize <= p))
    }

    /// Evaluate a signal expression three-valued. On Unknown, the first
    /// relevant unknown signal is reported via [`Sem::blocked_on`]; the
    /// implementation may *resolve* it there (the compiler's oracle), in
    /// which case evaluation retries. If the status stays unknown the
    /// test blocks.
    fn eval_expr(&mut self, e: &SigExpr) -> Option<bool> {
        loop {
            match eval3_with(e, &mut self.sem) {
                Tri::True => return Some(true),
                Tri::False => return Some(false),
                Tri::Unknown => {
                    let s = first_unknown_with(e, &mut self.sem)?;
                    self.sem.blocked_on(s);
                    if self.sem.status(s) == Tri::Unknown {
                        return None;
                    }
                }
            }
        }
    }

    /// Execute the program from `root`; `start` selects start vs.
    /// resume mode.
    pub fn exec(&mut self, root: StmtId, start: bool) -> ExecOut {
        self.pauses.clear();
        match self.run(root, start) {
            Flow::Done(code) => ExecOut::Done {
                code,
                pauses: std::mem::take(&mut self.pauses),
            },
            Flow::Blocked => ExecOut::Blocked,
            Flow::Failed(f) => ExecOut::Failed(f),
        }
    }

    /// Execute node `id`, adding the pauses it selects to `self.pauses`.
    /// A subtree that terminates (code 0) leaves none behind.
    fn run(&mut self, id: StmtId, start: bool) -> Flow {
        use Flow::*;
        let prog = self.prog;
        match prog.node(id) {
            Node::Nothing => Done(0),
            &Node::Pause(p) => {
                if start {
                    self.pauses.insert(p as usize);
                    Done(1)
                } else {
                    // Resumed ⇒ this pause was selected ⇒ it terminates.
                    Done(0)
                }
            }
            &Node::Emit(s, value) => {
                let occ = self.next_occ(id);
                if self.sem.emit((id, occ), s, value) {
                    Done(0)
                } else {
                    Failed(ExecFailure::InconsistentEmission(s))
                }
            }
            &Node::Present(ref cond, t, e) => {
                if start {
                    match self.eval_expr(cond) {
                        Some(true) => self.run(t, true),
                        Some(false) => self.run(e, true),
                        None => Blocked,
                    }
                } else if prog.selected(t, self.sel) {
                    // Resume the branch holding the selection; the test
                    // is not re-evaluated.
                    self.run(t, false)
                } else {
                    self.run(e, false)
                }
            }
            &Node::IfData(p, t, e) => {
                if start {
                    let occ = self.next_occ(id);
                    match self.sem.pred((id, occ), p) {
                        Some(true) => self.run(t, true),
                        Some(false) => self.run(e, true),
                        None => Blocked,
                    }
                } else if prog.selected(t, self.sel) {
                    self.run(t, false)
                } else {
                    self.run(e, false)
                }
            }
            &Node::Action(a) => {
                let occ = self.next_occ(id);
                self.sem.action((id, occ), a);
                Done(0)
            }
            Node::Seq(children) => {
                let mut idx = 0;
                let mut mode_start = start;
                if !start {
                    match self.selected_child(id, children) {
                        Some(i) => idx = i,
                        // Selection vanished (should not happen).
                        None => return Done(0),
                    }
                }
                for &c in &children[idx..] {
                    match self.run(c, mode_start) {
                        Done(0) => mode_start = true,
                        other => return other,
                    }
                }
                Done(0)
            }
            &Node::Loop(body) => match self.run(body, start) {
                // Body finished within the instant: restart once.
                Done(0) => match self.run(body, true) {
                    Done(0) => Failed(ExecFailure::InstantaneousLoop),
                    other => other,
                },
                other => other,
            },
            Node::Par(children) => {
                let mut blocked = false;
                let mut code = 0u32;
                for &c in children {
                    let child = if start {
                        self.run(c, true)
                    } else if prog.selected(c, self.sel) {
                        self.run(c, false)
                    } else {
                        // Terminated in an earlier instant.
                        Done(0)
                    };
                    match child {
                        Done(c2) => code = code.max(c2),
                        Blocked => blocked = true,
                        Failed(f) => return Failed(f),
                    }
                }
                if blocked {
                    Blocked
                } else {
                    Done(code)
                }
            }
            &Node::Trap(body) => match self.run(body, start) {
                Done(2) => {
                    // Caught: the whole body is killed, pauses dropped.
                    let m = prog.meta(body);
                    self.pauses
                        .remove_range(m.pause_lo as usize, m.pause_hi as usize);
                    Done(0)
                }
                Done(code) if code > 2 => Done(code - 1),
                other => other,
            },
            &Node::Exit(d) => Done(d + 2),
            &Node::Suspend(ref guard, body) => {
                if start {
                    // The guard is not tested in the starting instant.
                    self.run(body, true)
                } else {
                    match self.eval_expr(guard) {
                        Some(true) => {
                            // Frozen: keep the body's current selection.
                            let m = prog.meta(body);
                            let mut b = self.sel.next_from(m.pause_lo as usize);
                            while let Some(p) = b.filter(|p| *p < m.pause_hi as usize) {
                                self.pauses.insert(p);
                                b = self.sel.next_from(p + 1);
                            }
                            Done(1)
                        }
                        Some(false) => self.run(body, false),
                        None => Blocked,
                    }
                }
            }
        }
    }
}

/// Evaluate three-valued against [`Sem::status`].
fn eval3_with<S: Sem>(e: &SigExpr, sem: &mut S) -> Tri {
    match e {
        SigExpr::Const(true) => Tri::True,
        SigExpr::Const(false) => Tri::False,
        SigExpr::Sig(s) => sem.status(*s),
        SigExpr::Not(x) => eval3_with(x, sem).not(),
        SigExpr::And(a, b) => eval3_with(a, sem).and(eval3_with(b, sem)),
        SigExpr::Or(a, b) => eval3_with(a, sem).or(eval3_with(b, sem)),
    }
}

/// First unknown signal that matters for `e`'s value.
fn first_unknown_with<S: Sem>(e: &SigExpr, sem: &mut S) -> Option<Signal> {
    if eval3_with(e, sem) != Tri::Unknown {
        return None;
    }
    match e {
        SigExpr::Const(_) => None,
        SigExpr::Sig(s) => (sem.status(*s) == Tri::Unknown).then_some(*s),
        SigExpr::Not(x) => first_unknown_with(x, sem),
        SigExpr::And(a, b) | SigExpr::Or(a, b) => {
            first_unknown_with(a, sem).or_else(|| first_unknown_with(b, sem))
        }
    }
}
