//! # lobster — data-intensive HEP workloads on non-dedicated clusters
//!
//! This crate is the paper's primary contribution: a *per-user* workload
//! management system that runs millions of analysis tasks on tens of
//! thousands of opportunistic cores, composing the substrates in the
//! sibling crates (`wqueue`, `batchsim`, `cvmfssim`, `gridstore`,
//! `simnet`) exactly as Figure 1 composes HTCondor, Work Queue, Parrot,
//! CVMFS, XrootD, Chirp and Hadoop.
//!
//! ## Module map
//!
//! * [`config`] — the master's in-memory configuration. The file of §3
//!   ("The user provides a configuration file which describes the input
//!   data sources and the analysis code") is a scenario: the `scenario`
//!   crate compiles one into a [`LobsterConfig`], and its `lobster`
//!   binary runs it.
//! * [`db`] — the Lobster DB: persistent tasklet→task bookkeeping with
//!   crash recovery (the paper uses SQLite; we use an embedded journal).
//! * [`workflow`] — work decomposition: dataset → tasklets → dynamically
//!   sized tasks (§4.1).
//! * [`tasksize`] — the paper's task-size Monte Carlo (Figure 3).
//! * [`access`] — the three data access methods and the staging-vs-
//!   streaming trade-off (§4.2, Figure 4).
//! * [`wrapper`] — the instrumented task wrapper: per-segment timings and
//!   failure codes (§3, §5).
//! * [`merge`] — sequential / Hadoop / interleaved output merging (§4.4,
//!   Figure 7), with a *real* threaded Map-Reduce path.
//! * [`monitor`] — the run's one diagnostic sink (time lines, segment
//!   histograms, the troubleshooting advisor of §5) and the Figure 8
//!   accounting.
//! * [`adaptive`] — dynamic task sizing from observed eviction rates (the
//!   paper's future-work feature, §8).
//! * [`fault`] — fault-injection plans that degrade or black-hole a
//!   squid/Chirp/federation for a window (Figure 11-style bursts on
//!   demand).
//! * [`driver`] — the full-cluster discrete-event driver behind the §6
//!   production runs (Figures 9–11).
//! * [`session`] — one running master: advance it in slices, take its
//!   live report, and finish, pause (a durable checkpoint) or crash it.
//! * [`ops`] — the bridge into the `opsplane` crate: lower a live or
//!   finished run into a deterministic `metrics.json` snapshot, and
//!   serialise its digestible trace.
//! * [`local`] — the laptop-scale driver that runs real closures through
//!   `wqueue::local` (quickstart path).

pub mod access;
pub mod adaptive;
pub mod config;
pub mod db;
pub mod driver;
pub mod fault;
pub mod local;
pub mod merge;
pub mod monitor;
pub mod ops;
mod paged;
pub mod publish;
pub mod session;
pub mod tasksize;
pub mod workflow;
pub mod wrapper;

pub use config::LobsterConfig;
pub use db::LobsterDb;
pub use driver::{ClusterSim, RunReport};
pub use session::{Session, Stop};
pub use workflow::Workflow;
