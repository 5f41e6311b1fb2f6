//! The live ops plane (ROADMAP item 3).
//!
//! The paper's §5 argues Lobster only scaled because operators could
//! *see* the run: per-segment accounting, time lines, and diagnosis
//! rules. This crate is the export side of that argument — it turns the
//! monitor's in-memory aggregates into artifacts an operator (or CI)
//! consumes without recompiling anything:
//!
//! * [`MetricsSnapshot`] — the `metrics.json` schema: one serializable
//!   struct covering named counters, gauges and series (name-sorted, so
//!   every export is deterministic) plus the Figure 8/10/11 panels
//!   (accounting, series, failures by code, segment means, advisor
//!   signals and advice, dead letters, transfer dashboard). Snapshots
//!   carry no wall-clock — only simulated time — so the same seed
//!   produces a byte-identical file.
//! * [`federate`] — the multi-tenant roll-up: N per-tenant snapshots in
//!   one [`FederatedSnapshot`] with cross-tenant totals and Jain's
//!   fairness index, same byte-determinism contract.
//! * [`prom::render`] — Prometheus text exposition of a snapshot.
//! * [`dashboard::render`] — a self-contained HTML dashboard (inline
//!   CSS + SVG, no scripts, no external assets) rendered from a
//!   snapshot alone.
//!
//! The crate is deliberately generic: it knows the snapshot schema, not
//! the simulator. `lobster::ops` bridges a `RunReport` into a snapshot;
//! `scenario`'s runner and the bench binaries reuse that bridge.

pub mod dashboard;
pub mod federate;
pub mod prom;
pub mod snapshot;

pub use federate::{FederatedSnapshot, FederatedTotals, TenantMetrics, FEDERATED_SCHEMA};
pub use snapshot::{
    AccountingRow, CounterSample, DeadLetterRow, GaugeSample, LabelCount, MetricsSnapshot, RunMeta,
    SegmentRow, SeriesSample, SignalRow, TransferRow, SCHEMA,
};
