//! The `Monitored` terminal stage: a compiled design bundled with the
//! synthesized monitors of its translation unit, plus their C
//! emission — the observer-side sibling of `codegen::Artifacts`.
//!
//! Two entry points mirror the driver split elsewhere in the
//! workspace:
//!
//! * [`Monitored::attach`] advances a pipeline
//!   [`ecl_core::pipeline::Machine`] (stage-level tooling);
//! * [`WorkspaceObserveExt::monitored`] serves batch requests from a
//!   [`Workspace`], memoized by `(source, entry)` through the
//!   workspace extension cache exactly like designs and machines.

use crate::monitor::Monitor;
use crate::synth::{synthesize_all, MonitorSpec};
use ecl_core::pipeline::Machine;
use ecl_core::workspace::Workspace;
use ecl_syntax::ast;
use ecl_syntax::diag::EclError;
use std::sync::Arc;

/// A design with its observers synthesized: the `Monitored` stage.
#[derive(Debug, Clone)]
pub struct Monitored {
    entry: String,
    specs: Vec<Arc<MonitorSpec>>,
    c: String,
}

impl Monitored {
    /// Advance a pipeline [`Machine`] to its monitored form:
    /// synthesize every observer declared alongside the design.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `observe` from the first failing
    /// observer.
    pub fn attach(machine: &Machine) -> Result<Monitored, EclError> {
        let ast = machine.ir().split().elaborated().parsed().ast();
        Monitored::from_ast(machine.entry(), ast)
    }

    /// Build from a parsed translation unit (what a [`Workspace`]
    /// caches per source).
    ///
    /// # Errors
    ///
    /// See [`Monitored::attach`].
    pub fn from_ast(entry: &str, ast: &ast::Program) -> Result<Monitored, EclError> {
        let specs = synthesize_all(ast)?;
        let c = specs
            .iter()
            .map(|s| codegen::emit_monitor_c(&s.efsm))
            .collect::<Vec<_>>()
            .join("\n");
        Ok(Monitored {
            entry: entry.to_string(),
            specs,
            c,
        })
    }

    /// The monitored design's entry module.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The synthesized monitors, in declaration order.
    pub fn specs(&self) -> &[Arc<MonitorSpec>] {
        &self.specs
    }

    /// Fresh monitor instances for one run.
    pub fn monitors(&self) -> Vec<Monitor> {
        self.specs
            .iter()
            .map(|s| Monitor::new(Arc::clone(s)))
            .collect()
    }

    /// Fresh monitor instances pre-bound to a run's signal table: the
    /// watched interface is resolved to global id masks here, once, so
    /// per-instant stepping is pure bitset work.
    pub fn bound_monitors(&self, table: &efsm::SigTable) -> Vec<Monitor> {
        self.specs
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(table);
                m
            })
            .collect()
    }

    /// The monitors' C emission (pure reaction functions, one per
    /// observer) — generated task code carries its assertions.
    pub fn c(&self) -> &str {
        &self.c
    }
}

/// Batch monitor synthesis over a [`Workspace`] — the observe side of
/// the session API.
pub trait WorkspaceObserveExt {
    /// The monitored form of `(source, entry)`: design machine
    /// compiled (and cached) plus every observer of `source`
    /// synthesized. Memoized by `(source, entry)`.
    ///
    /// # Errors
    ///
    /// First failing stage (design compilation or observer synthesis).
    fn monitored(&self, source: &str, entry: &str) -> Result<Arc<Monitored>, EclError>;

    /// [`WorkspaceObserveExt::monitored`] for a batch of jobs, in job
    /// order.
    fn monitored_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Arc<Monitored>, EclError>>;
}

impl WorkspaceObserveExt for Workspace {
    fn monitored(&self, source: &str, entry: &str) -> Result<Arc<Monitored>, EclError> {
        self.memo_ext(source, entry, "observe::monitored", || {
            // The design machine is a prerequisite artifact (and lands
            // in the workspace caches for later runs).
            self.machine(source, entry)?;
            let parsed = self.parsed(source)?;
            Monitored::from_ast(entry, parsed.ast()).map(Arc::new)
        })
    }

    fn monitored_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Arc<Monitored>, EclError>> {
        // Warm the machine cache in parallel, then attach monitors
        // (cheap, memoized per job).
        let machines = self.machine_all(jobs);
        jobs.iter()
            .zip(machines)
            .map(|((source, entry), m)| {
                m?;
                self.monitored(source, entry)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::pipeline::Source;

    const SRC: &str = "
        module m(input pure a, output pure o) {
          while (1) { await (a); emit (o); }
        }
        observer w(input pure a, input pure o) {
          whenever (a) expect (o) within 1;
        }";

    #[test]
    fn attach_advances_a_pipeline_machine() {
        let machine = Source::new(SRC).finish("m").unwrap();
        let mon = Monitored::attach(&machine).unwrap();
        assert_eq!(mon.entry(), "m");
        assert_eq!(mon.specs().len(), 1);
        assert!(mon.c().contains("monitor_w_react"), "{}", mon.c());
        assert_eq!(mon.monitors().len(), 1);
    }

    #[test]
    fn workspace_monitored_is_memoized() {
        let mut ws = Workspace::new();
        ws.add_source("m.ecl", SRC);
        let a = ws.monitored("m.ecl", "m").unwrap();
        let b = ws.monitored("m.ecl", "m").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = ws.cache_stats();
        assert_eq!(stats.ext_misses, 1);
        assert_eq!(stats.ext_hits, 1);
        // The design machine was compiled (and cached) underneath.
        assert_eq!(stats.machine_misses, 1);
    }

    #[test]
    fn batch_monitored_over_workspace() {
        let mut ws = Workspace::new();
        ws.add_source("m.ecl", SRC);
        ws.add_source(
            "plain.ecl",
            "module p(input pure a, output pure o) { while (1) { await (a); emit (o); } }",
        );
        let results = ws.monitored_all(&[("m.ecl", "m"), ("plain.ecl", "p")]);
        assert_eq!(results[0].as_ref().unwrap().specs().len(), 1);
        // A source without observers yields an empty (but valid) set.
        assert_eq!(results[1].as_ref().unwrap().specs().len(), 0);
    }
}
