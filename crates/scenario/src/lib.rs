//! Declarative scenarios: failure episodes and workload shapes as data.
//!
//! The paper's most instructive results are failures — the Figure 11
//! squid burst, the Figure 10 WAN outage, Chirp connection exhaustion —
//! but hand-coding each fault plan in Rust makes new scenarios expensive
//! and robustness claims hard to reproduce. This crate turns a scenario
//! into a JSON data file:
//!
//! - [`spec::Scenario`] describes pool composition and churn, the
//!   workload mix, retry/journal policy, and fault windows over
//!   [`lobster::fault::FaultTarget`]s;
//! - [`compile::compile`] lowers it into the driver's
//!   `(LobsterConfig, SimParams, Vec<Workflow>)` triple;
//! - [`runner::ScenarioRunner`] runs it and checks four global
//!   invariants: no hangs, accounting conservation, same-seed
//!   byte-identical traces, and mid-run crash/resume convergence;
//! - [`chaos::chaos_scenario`] derives a random-but-bounded scenario from
//!   a single seed, so the chaos sweep is a list of `u64`s.
//!
//! The shipped scenario library lives under `scenarios/` at the
//! repository root; `tests/scenario_matrix.rs` holds every file to the
//! four invariants and `bench_chaos` sweeps randomized seeds in CI. The
//! crate's `lobster` binary is the command line over one file:
//! `lobster simulate <scenario.json>` runs it, `lobster validate` checks
//! it.

pub mod chaos;
pub mod compile;
pub mod runner;
pub mod spec;

pub use chaos::chaos_scenario;
pub use compile::{compile, compile_multitenant, Compiled};
pub use runner::{
    ConformanceError, ConformanceReport, MultiTenantConformance, ScenarioRunner, TenantConformance,
};
pub use spec::{Scenario, ScenarioError, ScenarioTenant};
