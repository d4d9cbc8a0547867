//! The legacy one-shot compiler facade.
//!
//! **Deprecated surface** (kept working for existing callers): new
//! code should drive the staged pipeline in [`crate::pipeline`]
//! directly, or the batch [`crate::workspace::Workspace`] driver —
//! both expose every intermediate artifact and the unified
//! [`EclError`] diagnostics. `Compiler` is now a thin shim over those
//! stages: each method is one line of stage-walking.
//!
//! The result, a [`Design`], bundles everything later stages need: the
//! Esterel program, the extracted data tables, the elaboration tables,
//! and constructors for the runtime and for compiled EFSMs. `Design`
//! is `Arc`-backed, so cloning one (e.g. to hand to a simulator task)
//! is cheap.

use crate::elab::{Elab, Instantiation};
use crate::pipeline::{Parsed, Source};
use crate::rt::Rt;
use crate::split::{SplitResult, SplitStrategy};
use ecl_syntax::ast::Program as Ast;
use ecl_syntax::diag::{EclError, Stage};
use ecl_syntax::source::Span;
use efsm::Efsm;
use esterel::compile::CompileOptions;
use std::sync::Arc;

/// Compiler options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Splitting strategy (paper Section 3 vs. Section 6).
    pub strategy: SplitStrategy,
}

/// The ECL compiler (legacy facade over [`crate::pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: Options,
}

impl Compiler {
    /// Create a compiler with the given options.
    pub fn new(options: Options) -> Self {
        Compiler { options }
    }

    /// The configured options.
    pub fn options(&self) -> Options {
        self.options
    }

    /// Compile source text with `entry` as the top-level module.
    ///
    /// Shim for `Source::named(entry, src).parse()?.elaborate(entry)?
    /// .split()?.to_design()`.
    ///
    /// # Errors
    ///
    /// [`EclError`] from the first failing stage.
    pub fn compile_str(&self, src: &str, entry: &str) -> Result<Design, EclError> {
        Ok(Source::named(entry, src)
            .with_options(self.options)
            .parse()?
            .elaborate(entry)?
            .split()?
            .to_design())
    }

    /// Compile an already-parsed program.
    ///
    /// `actuals` renames the entry's parameters to global signal names
    /// (used when compiling one submodule of a partitioned top level).
    ///
    /// # Errors
    ///
    /// [`EclError`] from the first failing stage.
    pub fn compile_ast(
        &self,
        ast: Ast,
        entry: &str,
        actuals: Option<&[String]>,
    ) -> Result<Design, EclError> {
        Ok(Parsed::from_ast(ast, self.options)
            .elaborate_bound(entry, actuals)?
            .split()?
            .to_design())
    }

    /// Partition a top-level module into its direct sub-instantiations
    /// and compile each as an independent design (the paper's
    /// "asynchronous implementation": one task per source file). The
    /// source is parsed once; each submodule re-enters the shared
    /// [`Parsed`] stage.
    ///
    /// # Errors
    ///
    /// Fails if the top level has no instantiations, or any submodule
    /// fails to compile.
    pub fn partition(&self, src: &str, toplevel: &str) -> Result<Vec<Design>, EclError> {
        let parsed = Source::named(toplevel, src)
            .with_options(self.options)
            .parse()?;
        let insts = parsed.instantiations(toplevel);
        if insts.is_empty() {
            return Err(EclError::msg(
                Stage::Elaborate,
                format!("module `{toplevel}` instantiates no submodules"),
                Span::dummy(),
            ));
        }
        insts
            .into_iter()
            .map(|Instantiation { module, actuals }| {
                Ok(parsed
                    .elaborate_bound(&module, Some(&actuals))?
                    .split()?
                    .to_design())
            })
            .collect()
    }
}

/// A fully split design, ready for simulation or EFSM synthesis.
///
/// `Arc`-backed: clones share the parse, elaboration and split
/// results, which is what makes the [`crate::workspace::Workspace`]
/// memoization and the simulator's per-task design copies cheap.
///
/// A design taken from a compiled [`crate::pipeline::Machine`] also
/// carries that machine's EFSM and the [`CompileOptions`] it was
/// built with, so [`Design::to_efsm`] under the same options hands
/// the machine back instead of compiling it again. Designs from
/// [`crate::pipeline::Split::to_design`] (and so from the
/// [`Compiler`] facade and the workspace) carry none.
#[derive(Clone)]
pub struct Design {
    /// Entry module name.
    pub entry: String,
    /// The parsed translation unit (typedefs + functions + modules).
    pub ast: Arc<Ast>,
    /// Elaboration tables.
    pub elab: Arc<Elab>,
    /// Reactive program + data tables.
    pub split: Arc<SplitResult>,
    /// The machine this design was compiled to, and the options used.
    pub(crate) compiled: Option<(CompileOptions, Arc<Efsm>)>,
}

impl std::fmt::Debug for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Design")
            .field("entry", &self.entry)
            .field("ast", &self.ast)
            .field("elab", &self.elab)
            .field("split", &self.split)
            .field(
                "compiled_states",
                &self.compiled.as_ref().map(|(_, m)| m.states.len()),
            )
            .finish()
    }
}

impl Design {
    /// The reactive (Esterel) program.
    pub fn program(&self) -> &esterel::Program {
        &self.split.program
    }

    /// The reactive part as an EFSM: the machine this design carries
    /// when it was compiled under `opts`, a fresh compile otherwise.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `efsm` (state explosion, incoherence…).
    pub fn to_efsm(&self, opts: &CompileOptions) -> Result<Arc<Efsm>, EclError> {
        match &self.compiled {
            Some((built_with, efsm)) if built_with == opts => Ok(Arc::clone(efsm)),
            _ => esterel::compile::compile(&self.split.program, opts)
                .map(Arc::new)
                .map_err(EclError::from),
        }
    }

    /// Build a fresh data runtime for this design.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `runtime` (unresolvable types).
    pub fn new_rt(&self) -> Result<Rt, EclError> {
        Rt::new(&self.ast, &self.elab, &self.split.data).map_err(EclError::from)
    }

    /// Signal handle by global name (valid for both the interpreter and
    /// compiled EFSMs — the tables share indices).
    pub fn signal(&self, name: &str) -> Option<efsm::Signal> {
        self.split.program.signal(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efsm::{NoHooks, SigKind};
    use std::collections::HashSet;

    const COUNTER: &str = "
        module counter(input pure tick, input pure reset, output pure full) {
          int n;
          while (1) {
            do {
              n = 0;
              while (n < 3) { await (tick); n = n + 1; }
              emit (full);
              halt ();
            } abort (reset);
          }
        }";

    #[test]
    fn counter_compiles_and_runs_interpreted() {
        let d = Compiler::default().compile_str(COUNTER, "counter").unwrap();
        let mut rt = d.new_rt().unwrap();
        let mut m = esterel::Machine::new(d.program());
        let tick = d.signal("tick").unwrap();
        let full = d.signal("full").unwrap();
        let mut on = HashSet::new();
        on.insert(tick);
        // Start instant (no tick).
        let r0 = m.react(&HashSet::new(), &mut rt).unwrap();
        assert!(!r0.has(full));
        // Three ticks fill the counter.
        for i in 0..3 {
            let r = m.react(&on, &mut rt).unwrap();
            assert!(rt.take_error().is_none());
            if i < 2 {
                assert!(!r.has(full), "tick {i}");
            } else {
                assert!(r.has(full), "tick {i} should emit full");
            }
        }
        // Halted now.
        let r = m.react(&on, &mut rt).unwrap();
        assert!(!r.has(full));
    }

    #[test]
    fn counter_efsm_matches_interpreter() {
        use rand::{Rng, SeedableRng};
        let d = Compiler::default().compile_str(COUNTER, "counter").unwrap();
        let machine = d.to_efsm(&Default::default()).unwrap();
        let tick = d.signal("tick").unwrap();
        let reset = d.signal("reset").unwrap();
        let full = d.signal("full").unwrap();
        for seed in 0..10u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rt_i = d.new_rt().unwrap();
            let mut rt_m = d.new_rt().unwrap();
            let mut interp = esterel::Machine::new(d.program());
            let mut st = machine.init;
            for step in 0..60 {
                let mut present = HashSet::new();
                if rng.gen_bool(0.5) {
                    present.insert(tick);
                }
                if rng.gen_bool(0.15) {
                    present.insert(reset);
                }
                let r1 = interp.react(&present, &mut rt_i).unwrap();
                let r2 = machine.step(st, &present, &mut rt_m);
                st = r2.next;
                assert_eq!(
                    r1.has(full),
                    r2.emitted.contains(&full),
                    "divergence at seed {seed} step {step}"
                );
                assert!(rt_i.take_error().is_none());
                assert!(rt_m.take_error().is_none());
            }
        }
    }

    #[test]
    fn valued_signals_flow_through_rt() {
        let src = "
            typedef unsigned char byte;
            module echo(input byte inp, output byte outp) {
              while (1) { await (inp); emit_v (outp, inp + 1); }
            }";
        let d = Compiler::default().compile_str(src, "echo").unwrap();
        let mut rt = d.new_rt().unwrap();
        let mut m = esterel::Machine::new(d.program());
        let inp = d.signal("inp").unwrap();
        // Start.
        m.react(&HashSet::new(), &mut rt).unwrap();
        rt.set_input_i64("inp", 41).unwrap();
        let mut on = HashSet::new();
        on.insert(inp);
        let r = m.react(&on, &mut rt).unwrap();
        assert!(rt.take_error().is_none());
        assert!(!r.emitted.is_empty());
        let v = rt.signal_value_by_name("outp").unwrap();
        assert_eq!(v.as_i64(rt.machine().table()), 42);
    }

    #[test]
    fn multiple_writers_rejected() {
        let src = "
            module w(input pure t, output pure s) { while (1) { await(t); emit (s); } }
            module top(input pure t, output pure s) { par { w(t, s); w(t, s); } }";
        let e = Compiler::default().compile_str(src, "top").unwrap_err();
        assert_eq!(e.stage(), ecl_syntax::Stage::Elaborate);
        assert!(e.to_string().contains("multiple writers"), "{e}");
    }

    #[test]
    fn partition_compiles_each_submodule() {
        let src = "
            module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
            module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
            module top(input pure i, output pure o) {
              signal pure mid;
              par { a(i, mid); b(mid, o); }
            }";
        let parts = Compiler::default().partition(src, "top").unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].entry, "a");
        // Part a's output is the *global* wire name.
        let sigs: Vec<&str> = parts[0]
            .program()
            .signals()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        // Wire names come from the top level's scope: `mid` is the
        // local signal's source name at the instantiation site.
        assert!(sigs.contains(&"mid"), "{sigs:?}");
        // And the whole thing also compiles monolithically.
        let whole = Compiler::default().compile_str(src, "top").unwrap();
        assert_eq!(
            whole
                .program()
                .signals()
                .iter()
                .filter(|s| s.kind == SigKind::Local)
                .count(),
            1
        );
        let m = whole.to_efsm(&Default::default()).unwrap();
        m.validate().unwrap();
        let _ = NoHooks;
    }

    #[test]
    fn min_strategy_produces_fewer_actions() {
        let src = "
            module m(input pure a, output pure o) {
              int x; int y;
              while (1) { await (a); x = 1; y = x + 2; x = y * 3; emit (o); }
            }";
        let max = Compiler::new(Options {
            strategy: SplitStrategy::MaxEsterel,
        })
        .compile_str(src, "m")
        .unwrap();
        let min = Compiler::new(Options {
            strategy: SplitStrategy::MinEsterel,
        })
        .compile_str(src, "m")
        .unwrap();
        assert!(min.split.data.actions.len() < max.split.data.actions.len());
    }

    #[test]
    fn design_clones_share_storage() {
        let d = Compiler::default().compile_str(COUNTER, "counter").unwrap();
        let d2 = d.clone();
        assert!(Arc::ptr_eq(&d.ast, &d2.ast));
        assert!(Arc::ptr_eq(&d.split, &d2.split));
    }
}
