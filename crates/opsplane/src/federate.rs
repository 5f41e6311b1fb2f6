//! Federated metrics: one artifact covering every tenant of a
//! multi-tenant run.
//!
//! A multi-tenant grid run produces one [`MetricsSnapshot`] per master.
//! Operators (and CI) want a single file: per-tenant panels side by
//! side, plus the cross-tenant aggregates that only exist at the
//! federation level (total throughput, Jain's fairness index over
//! weight-normalised delivered CPU). [`FederatedSnapshot`] is that file.
//! Like the per-run snapshot it carries no wall-clock, so the same seed
//! produces byte-identical output.

use crate::snapshot::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Current federated schema identifier, bumped on breaking changes.
pub const FEDERATED_SCHEMA: &str = "lobster-metrics-federated/v1";

/// One tenant's labelled snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Tenant (user) name — also the federation consumer label.
    pub tenant: String,
    /// Fair-share weight the arbiter ran with.
    pub weight: f64,
    /// The tenant's full per-run snapshot.
    pub snapshot: MetricsSnapshot,
}

/// Cross-tenant aggregates derivable from the per-tenant snapshots.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FederatedTotals {
    /// Sum of per-tenant completed tasks.
    pub tasks_completed: u64,
    /// Sum of per-tenant failed attempts.
    pub tasks_failed: u64,
    /// Sum of per-tenant evictions.
    pub evictions: u64,
    /// Sum of per-tenant engine events.
    pub events_delivered: u64,
}

/// The federated `metrics.json`: every tenant's snapshot plus totals
/// and the fairness index, in tenant-registration order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FederatedSnapshot {
    /// Schema identifier ([`FEDERATED_SCHEMA`]).
    pub schema: String,
    /// Jain's fairness index over weight-normalised delivered CPU,
    /// in `[0, 1]` (1 = perfectly fair).
    pub jain_fairness: f64,
    /// Cross-tenant aggregates.
    pub totals: FederatedTotals,
    /// Per-tenant snapshots, tenant-registration order.
    pub tenants: Vec<TenantMetrics>,
}

impl FederatedSnapshot {
    /// Assemble a federated snapshot, computing the totals from the
    /// per-tenant counters.
    pub fn build(tenants: Vec<TenantMetrics>, jain_fairness: f64) -> Self {
        let mut totals = FederatedTotals::default();
        for t in &tenants {
            totals.tasks_completed += t.snapshot.counter("tasks_completed").unwrap_or(0);
            totals.tasks_failed += t.snapshot.counter("tasks_failed").unwrap_or(0);
            totals.evictions += t.snapshot.counter("evictions").unwrap_or(0);
            totals.events_delivered += t.snapshot.run.events_delivered;
        }
        FederatedSnapshot {
            schema: FEDERATED_SCHEMA.to_string(),
            jain_fairness,
            totals,
            tenants,
        }
    }

    /// Serialize to the canonical byte form (pretty JSON + newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Parse a federated snapshot back from its JSON bytes.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("federated snapshot: {e}"))
    }

    /// Structural validity: the schema tag matches, tenant labels are
    /// non-empty and unique, weights are finite and positive, the
    /// fairness index is a sane ratio, and every per-tenant snapshot
    /// validates on its own.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != FEDERATED_SCHEMA {
            return Err(format!(
                "schema mismatch: snapshot says {:?}, this build speaks {:?}",
                self.schema, FEDERATED_SCHEMA
            ));
        }
        if !self.jain_fairness.is_finite()
            || self.jain_fairness < 0.0
            || self.jain_fairness > 1.0 + 1e-9
        {
            return Err(format!(
                "jain_fairness {} outside [0, 1]",
                self.jain_fairness
            ));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.tenant.is_empty() {
                return Err(format!("tenant {i}: empty label"));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(format!("tenant {}: bad weight {}", t.tenant, t.weight));
            }
            if self.tenants.iter().take(i).any(|p| p.tenant == t.tenant) {
                return Err(format!("tenant {}: duplicate label", t.tenant));
            }
            t.snapshot
                .validate()
                .map_err(|e| format!("tenant {}: {e}", t.tenant))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CounterSample, RunMeta};

    fn snap(name: &str, completed: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(RunMeta {
            name: name.to_string(),
            seed: 7,
            horizon_us: 1_000,
            ended_us: 900,
            finished: true,
            finished_us: 900,
            events_delivered: 10 * completed,
        });
        let counter = |name: &str, value| CounterSample {
            name: name.to_string(),
            value,
        };
        s.counters = vec![
            counter("evictions", 2),
            counter("tasks_completed", completed),
            counter("tasks_failed", 1),
        ];
        s
    }

    fn tenant(name: &str, weight: f64, completed: u64) -> TenantMetrics {
        TenantMetrics {
            tenant: name.to_string(),
            weight,
            snapshot: snap(name, completed),
        }
    }

    #[test]
    fn build_totals_and_roundtrip() {
        let fed = FederatedSnapshot::build(vec![tenant("a", 1.0, 5), tenant("b", 2.0, 7)], 0.97);
        assert_eq!(fed.totals.tasks_completed, 12);
        assert_eq!(fed.totals.tasks_failed, 2);
        assert_eq!(fed.totals.evictions, 4);
        assert_eq!(fed.totals.events_delivered, 120);
        fed.validate().expect("valid");
        let json = fed.to_json();
        let back = FederatedSnapshot::from_json(&json).expect("parses");
        assert_eq!(back.to_json(), json, "canonical bytes round-trip");
    }

    #[test]
    fn validate_rejects_duplicates_and_bad_weights() {
        let fed = FederatedSnapshot::build(vec![tenant("a", 1.0, 1), tenant("a", 1.0, 1)], 1.0);
        assert!(fed.validate().unwrap_err().contains("duplicate"));
        let fed = FederatedSnapshot::build(vec![tenant("a", -1.0, 1)], 1.0);
        assert!(fed.validate().unwrap_err().contains("bad weight"));
        let fed = FederatedSnapshot::build(vec![tenant("a", 1.0, 1)], f64::NAN);
        assert!(fed.validate().unwrap_err().contains("jain"));
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let mut fed = FederatedSnapshot::build(vec![tenant("a", 1.0, 1)], 1.0);
        fed.schema = "something-else/v9".to_string();
        assert!(fed.validate().unwrap_err().contains("schema mismatch"));
    }
}
